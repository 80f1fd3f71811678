#!/usr/bin/env python3
"""End-to-end benchmark of the mobile-code host.

Usage (from the repository root)::

    python3 perfbench/run.py --workload service_open --seed 1 --seconds 45 --trace 0

Workloads (see ``perfbench/README.md``): ``cold_start``,
``disk_restart``, ``warm_mix``, ``service_open``.  Every serving
process is started from ``perfbench/serve.py`` and serves one run of
one workload.  With ``--trace 0`` the last line of standard output is
the end-to-end result; with ``--trace 1`` the run is made once untraced
and once traced, and the last line carries the per-layer metrics.
Earlier lines print each metric with its unit.  A full record of the
run (seed, sample counts, per-pair counts, cross-check findings) is
written to ``.perfbench_out/``; spans of a traced run go there as JSON
lines.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

WORKLOADS = ("cold_start", "disk_restart", "warm_mix", "service_open")
#: A SPEC pass (20 ops) takes about this long at the seed commit on 2
#: cores; ``--seconds`` buys this many seconds per measured pass.
PASS_SECONDS = 10
#: Set-up-only processes per run, beside the serving ones, so set-up
#: time is a median of several.
PROBES = 1
#: The whole run must end within this many seconds.
RUN_BUDGET_SECONDS = 170

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "sim_cycles": "cycles",
    "native_instrs": "count",
}


class RunFailed(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_SECONDS
        self.tmp = TMP_DIR / f"run-{os.getpid()}"
        self._dirs = 0

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = self.tmp / f"cache-{self._dirs}"
        path.mkdir(parents=True)
        return str(path)

    def spawn(self, mode: str, **extra) -> tuple[dict, float]:
        """Run one serving process to completion; returns its report and
        its wall time."""
        cfg = {"workload": self.workload, "seed": self.seed,
               "seconds": self.seconds, "mode": mode, "trace": 0,
               "cache_dir": None, "pass": 0, "passes": 1}
        cfg.update(extra)
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise RunFailed("out of time before starting a process")
        start = time.monotonic()
        cfg["spawned_at"] = start
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "serve.py"), json.dumps(cfg)],
                cwd=ROOT, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{mode} process timed out") from None
        wall = time.monotonic() - start
        if proc.returncode != 0:
            raise RunFailed(f"{mode} process exited {proc.returncode}:\n"
                            + proc.stderr[-4000:])
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall

    def passes(self) -> int:
        return max(1, round(self.seconds / PASS_SECONDS))

    def measure(self, trace: int = 0) -> tuple[list[dict], float]:
        """The workload's serving processes and its set-up seconds."""
        trace_out = str(OUT_DIR / f"trace-{self.workload}-seed{self.seed}"
                        ".jsonl")
        common = {"trace": trace, "trace_out": trace_out}
        serves: list[dict] = []
        extra_setup = []
        if self.workload == "cold_start":
            # Traced: one pass is enough for the layer breakdown.
            for number in range(1 if trace else self.passes()):
                serves.append(self.spawn("serve", cache_dir=self.fresh_dir(),
                                         **{"pass": number}, **common)[0])
        elif self.workload == "disk_restart":
            for number in range(1 if trace else self.passes()):
                cache_dir = self.fresh_dir()
                _, fill_wall = self.spawn("fill", cache_dir=cache_dir)
                extra_setup.append(fill_wall)
                serves.append(self.spawn("serve", cache_dir=cache_dir,
                                         **{"pass": number}, **common)[0])
        elif self.workload == "warm_mix":
            serves.append(self.spawn("serve",
                                     passes=1 if trace else self.passes(),
                                     **common)[0])
        else:
            serves.append(self.spawn("serve", **common)[0])
        base = [s["base_setup_s"] for s in serves]
        if not trace:
            for _ in range(PROBES):
                base.append(self.spawn("probe",
                                       cache_dir=self.fresh_dir())[0]
                            ["base_setup_s"])
        setup = statistics.median(base)
        setup += statistics.median([s["warmup_s"] for s in serves])
        if extra_setup:
            setup += statistics.median(extra_setup)
        return serves, setup

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()  # only when no other run is using it


# -- metrics ------------------------------------------------------------------


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method; 0 with no samples)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def passes_of(serves: list[dict]) -> list[dict]:
    return [p for s in serves for p in s["passes"]]


def rate(one_pass: dict) -> float:
    return sum(op["ok"] for op in one_pass["ops"]) / one_pass["phase_s"]


def outcome(serves: list[dict]) -> dict:
    """Ops, failures and exact per-pair counts across serving processes.
    A (program, executor) pair whose counts differ between processes is
    a failure too."""
    ops = [op for p in passes_of(serves) for op in p["ops"]]
    pairs: dict[str, list] = {}
    across = []
    for s in serves:
        for key, value in s["pairs"].items():
            first = pairs.setdefault(key, value)
            if first != value:
                across.append(f"{key}: {first} != {value} "
                              "(across processes)")
    failed = sum(not op["ok"] for op in ops) + len(across)
    failed += sum(s.get("warmup_failed", 0) for s in serves)
    mismatches = [m for s in serves for m in s["mismatches"]] + across
    native = [v for v in pairs.values() if v[0] is not None]
    return {
        "ops": ops,
        "attempted": len(ops),
        "failed": failed,
        "mismatches": mismatches,
        "pairs": pairs,
        "sim_cycles": sum(v[0] for v in native),
        "native_instrs": sum(v[2] for v in native),
    }


def end_to_end(serves: list[dict], setup: float) -> tuple[dict, dict]:
    """Throughput over all measured passes of the run, latency
    percentiles over all their correct ops (each SPEC pass is 20 ops;
    ``service_open`` has one pass)."""
    result = outcome(serves)
    passes = passes_of(serves)
    latencies = [op["lat_ms"] for op in result["ops"] if op["ok"]]
    values = {
        "ops_per_s": len(latencies) / sum(p["phase_s"] for p in passes),
        "op_p50_ms": quantile(latencies, 50),
        "op_p95_ms": quantile(latencies, 95),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in serves),
        "setup_s": setup,
        "sim_cycles": result["sim_cycles"],
        "native_instrs": result["native_instrs"],
    }
    result["samples"] = len(latencies)
    result["per_pass"] = [
        {"ops_per_s": rate(p),
         "latencies_ms": [op["lat_ms"] for op in p["ops"] if op["ok"]]}
        for p in passes]
    return values, result


def per_layer(traced: dict, untraced: list[dict], workload: str
              ) -> tuple[dict, list[str]]:
    """The per-layer metrics of one traced serving process, and the
    cross-check findings (outside-in counts against the program's own
    counters)."""
    layers = traced["layers"]

    def get(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0)

    engine = traced["engine"]
    counters = engine["counters"]
    stage_calls = engine["stage_calls"]
    cache = {k: engine["cache"][k] - traced["cache_before"][k]
             for k in engine["cache"]}
    traced_pass = traced["passes"][0]
    ops = len(traced_pass["ops"])
    ratio = (lambda a, b: a / b if b else 0.0)
    chunk_hit = counters.get("link.chunk_hit", 0)
    chunk_miss = counters.get("link.chunk_miss", 0)
    exec_s = get("execute", "self_ms") / 1000.0
    untraced_rate = statistics.median(rate(p) for p in passes_of(untraced))
    traced_rate = rate(traced_pass)
    metrics = {
        "compiler.calls": get("compiler", "calls"),
        "compiler.self_ms": get("compiler", "self_ms"),
        "linker.calls": get("linker", "calls"),
        "linker.self_ms": get("linker", "self_ms"),
        "linker.splice_self_ms": get("link_splice", "self_ms"),
        "linker.chunk_hit_ratio": ratio(chunk_hit, chunk_hit + chunk_miss),
        "verifier.calls": get("verifier", "calls"),
        "verifier.self_ms": get("verifier", "self_ms"),
        "translate.calls": get("translate", "calls"),
        "translate.self_ms": get("translate", "self_ms"),
        "sfi_verify.calls": get("sfi_verify", "calls"),
        "sfi_verify.self_ms": get("sfi_verify", "self_ms"),
        "cache.digest_calls": get("cache.digest", "calls"),
        "cache.digest_ms": get("cache.digest", "self_ms"),
        "cache.probe_self_ms": get("cache.probe", "self_ms"),
        "cache.hit_ratio": ratio(cache["hits"],
                                 cache["hits"] + cache["misses"]),
        "cache.disk_hits": cache["disk_hits"],
        "cache.predecode_hit_ratio": ratio(
            cache["predecode_hits"],
            cache["predecode_hits"] + cache["predecode_misses"]),
        "cache.single_flight_waits": cache["single_flight_waits"],
        "cache.side_table_keys": traced["side_table_keys"],
        "cache.capacity": traced["cache_capacity"],
        "memory.calls": get("memory", "calls"),
        "memory.self_ms": get("memory", "self_ms"),
        "memory.reserved_mb_per_op": ratio(get("memory", "info") / 2**20,
                                           ops),
        "memory.op_share_pct": 100.0 * ratio(get("memory", "self_ms"),
                                             traced["busy_s"] * 1000.0),
        "predecode.calls": get("predecode", "calls"),
        "predecode.self_ms": get("predecode", "self_ms"),
        "jit.compiles": get("jit", "calls"),
        "jit.self_ms": get("jit", "self_ms"),
        "jit.compiles_per_op": ratio(get("jit", "calls"), ops),
        "execute.self_ms": get("execute", "self_ms"),
        "execute.sim_instrs": get("execute", "info"),
        "execute.sim_mips": ratio(get("execute", "info") / 1e6, exec_s),
        "trace.overhead_pct": 100.0 * (ratio(untraced_rate, traced_rate)
                                       - 1.0),
        "trace.unattributed_pct": traced["unattributed_pct"],
        "op.self_ms": get("op", "self_ms"),
    }
    service = {"service.queue_wait_p50_ms": 0.0,
               "service.queue_wait_p95_ms": 0.0,
               "service.worker_busy_frac": 0.0,
               "service.queue_high_water": 0,
               "service.rejected": 0, "service.retries": 0,
               "service.fallbacks": 0, "gen.late_p95_ms": 0.0}
    findings = []
    if workload == "service_open":
        after = traced["service"]["counters"]
        before = traced["service_before"]
        delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
        waits = traced["queue_wait_ms"]
        service.update({
            "service.queue_wait_p50_ms": quantile(waits, 50),
            "service.queue_wait_p95_ms": quantile(waits, 95),
            "service.worker_busy_frac": traced["busy_s"] / (
                traced["workers"] * traced_pass["phase_s"]),
            "service.queue_high_water":
                traced["service"]["queue_high_water"],
            "service.rejected": delta.get("rejected", 0),
            "service.retries": delta.get("retry", 0),
            "service.fallbacks": delta.get("fallback", 0),
            "gen.late_p95_ms": statistics.median(
                [quantile(s["gen_late_ms"], 95) for s in untraced]),
        })
        submitted = sum("ServiceOverloaded" not in o.get("error", "")
                        for o in traced_pass["ops"])
        answered_ok = sum(o.get("error") is None for o in traced_pass["ops"])
        checks = [("ModuleHost.stats request", submitted,
                   delta.get("request", 0)),
                  ("ModuleHost.stats ok", answered_ok, delta.get("ok", 0))]
    else:
        checks = []
    metrics.update(service)
    checks += [
        ("translate calls vs counter translate.calls",
         get("translate", "calls"), counters.get("translate.calls", 0)),
        ("translate calls vs stage translate",
         get("translate", "calls"), stage_calls.get("translate", 0)),
        ("verify_program calls vs stage verify.module",
         get("verifier", "calls"), stage_calls.get("verify.module", 0)),
        ("verify_sfi calls vs stage verify.sfi",
         get("sfi_verify", "calls"), stage_calls.get("verify.sfi", 0)),
        ("executes vs stage execute",
         get("execute", "calls"), stage_calls.get("execute", 0)),
        ("cache hits vs TranslationCache.stats hits",
         get("cache.probe", "info"), cache["hits"]),
    ]
    for what, outside, inside in checks:
        if outside != inside:
            findings.append(f"{what}: benchmark saw {outside}, "
                            f"program counted {inside}")
    metrics["crosscheck.mismatches"] = len(findings)
    for name, count in traced["bound"].items():
        if count < 1:
            findings.append(f"{name}: no binding was wrapped")
    return metrics, findings


# -- entry point --------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under src/ next to the "
              "benchmark; run it from a full checkout", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        serves, setup = runner.measure()
        values, result = end_to_end(serves, setup)
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "samples": result["samples"],
                  "per_pass": result["per_pass"],
                  "mismatches": result["mismatches"],
                  "pairs": result["pairs"], "end_to_end": values}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        if args.trace:
            traced, _ = runner.measure(trace=1)
            layer, findings = per_layer(traced[0], serves, args.workload)
            layer["fail_ratio"] = result["failed"] / result["attempted"]
            layer["op.samples"] = result["samples"]
            record["per_layer"] = layer
            record["findings"] = findings
            metrics = {name: {"value": value, "unit": _unit(name)}
                       for name, value in layer.items()}
            for finding in findings:
                print(f"finding: {finding}", file=sys.stderr)
    except RunFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        runner.close()
    OUT_DIR.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}{suffix}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{result['attempted']} ops, {result['failed']} failed, "
          f"{result['samples']} latency samples")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for mismatch in result["mismatches"]:
        print(f"mismatch: {mismatch}", file=sys.stderr)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("ratio", "_frac")):
        return "fraction"
    if name.endswith("sim_mips"):
        return "Minstr/s"
    if name.endswith("per_op"):
        return "MiB/op" if name.startswith("memory") else "count/op"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
