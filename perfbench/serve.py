"""The serving process of one benchmark run.

``run.py`` starts this file once per serving process with a JSON config
as its only argument.  The process does one workload's set-up and
measured phase through the public API (``repro.Engine``,
``Engine.serve``) and prints one JSON object as the last line of its
standard output.  Modes:

* ``probe``: set up only (import, compile) and report the time;
* ``fill``: translate the SPEC programs into the disk cache and exit;
* ``serve``: set up, warm up, run the measured phase, report.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import tracing  # noqa: E402

#: Offered rate of ``service_open`` (requests per second), chosen once
#: at the seed commit: each worker is busy about 12% of the time, a
#: quarter of the one core they share.  At 48/s (workers busy about 26%
#: each, half the core) p95 grew much faster than the host slowed.
SERVICE_RATE = 32.0
SERVICE_WORKERS = 2
#: Seconds of untimed open-loop traffic, in the measured mix, before the
#: measured phase.  Library requests take 2-3 times their later latency
#: for the first 7-9 s of open-loop traffic; with a shorter warm-up that
#: spell reached into the measured p95 by a different amount on every
#: run.
SERVICE_WARMUP_S = 10.0
#: Segment size for kernel requests.  The JIT's inline memory caches
#: keep each distinct program's last address space alive, so at the
#: default 16 MiB segments (49 MiB per address space) resident memory
#: grows by about 100 MiB per first-sight kernel and a 30 s run
#: outgrows an 8 GB machine.  Library requests keep the image layout,
#: which does not take a segment size.
KERNEL_SEGMENT_SIZE = 1 << 20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pairs:
    """Per-(program, executor) exact counts: simulated cycles, instret,
    translated instructions.  Any pair seen with two different values
    is a mismatch."""

    def __init__(self):
        self.seen: dict[str, tuple] = {}
        self.mismatches: list[str] = []

    def record(self, key: str, module) -> bool:
        machine = getattr(module, "machine", None)
        if machine is None:
            value = (None, module.vm.state.instret, None)
        else:
            value = (machine.cycles, machine.instret,
                     len(module.translated.instrs))
        first = self.seen.setdefault(key, value)
        if first != value:
            self.mismatches.append(f"{key}: {first} != {value}")
            return False
        return True

    def to_dict(self) -> dict:
        return {k: list(v) for k, v in sorted(self.seen.items())}


# -- SPEC workloads -----------------------------------------------------------


def spec_ops(engine, programs, order, pairs, tracer, label) -> list[dict]:
    """Run each (program, executor) of *order* once; returns op records."""
    from repro.workloads.suite import check_output

    ops = []
    for index, (name, executor) in enumerate(order):
        record = {"op": f"{label}{index}:{name}/{executor}", "ok": False}
        scope = tracer.op(record["op"]) if tracer else nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                code, module = engine.run(programs[name], target=executor)
            record["lat_ms"] = (time.perf_counter() - start) * 1000.0
            record["ok"] = (code == 0
                            and check_output(name,
                                             module.host.output_values())
                            and pairs.record(f"{name}/{executor}", module))
        except Exception as err:  # one failed op must not stop the run
            record["lat_ms"] = (time.perf_counter() - start) * 1000.0
            record["error"] = f"{type(err).__name__}: {err}"
        ops.append(record)
    return ops


def run_spec(cfg: dict, tracer) -> dict:
    from repro import Engine, TranslationCache
    from repro.workloads.suite import WORKLOAD_NAMES, build

    programs = {name: build(name) for name in WORKLOAD_NAMES}
    workload = cfg["workload"]
    if workload == "warm_mix":
        engine = Engine()
    else:
        engine = Engine(cache=TranslationCache(disk_dir=cfg["cache_dir"]))
    out = {"base_setup_s": time.monotonic() - cfg["spawned_at"]}
    if cfg["mode"] == "probe":
        return out
    if cfg["mode"] == "fill":
        for name in WORKLOAD_NAMES:
            for executor in gen.EXECUTORS:
                if executor != "omnivm":
                    engine.translate(programs[name], executor)
        return out
    pairs = Pairs()
    seed = cfg["seed"]
    warm_start = time.perf_counter()
    if workload == "warm_mix":
        warm = spec_ops(engine, programs, gen.spec_order(seed, "warm-up"),
                        pairs, None, "w")
        out["warmup_failed"] = sum(not op["ok"] for op in warm)
    out["warmup_s"] = time.perf_counter() - warm_start
    if workload == "warm_mix":
        orders = [gen.spec_order(seed, f"pass{p}")
                  for p in range(cfg["passes"])]
    else:
        orders = [gen.spec_order(seed, f"pass{cfg['pass']}")]
    engine.reset_stats()
    if tracer is not None:
        tracer.side_keys.clear()
    out["cache_before"] = engine.cache.stats().to_dict()
    out["phase_start"] = time.perf_counter()
    out["passes"] = []
    for number, order in enumerate(orders):
        start = time.perf_counter()
        ops = spec_ops(engine, programs, order, pairs, tracer, f"p{number}.")
        out["passes"].append({"phase_s": time.perf_counter() - start,
                              "ops": ops})
    out["peak_rss_mb"] = peak_rss_mb()
    out["pairs"] = pairs.to_dict()
    out["mismatches"] = pairs.mismatches
    out["engine"] = engine.stats()
    out["cache_capacity"] = engine.cache.capacity
    return out


# -- service_open -------------------------------------------------------------


def run_service(cfg: dict, tracer) -> dict:
    from repro import (Engine, ModuleRequest, RequestQuota, RunConfig,
                       ServiceOverloaded)

    seconds = cfg["seconds"]
    plan = gen.service_plan(cfg["seed"], round(SERVICE_RATE * seconds),
                            round(SERVICE_RATE * SERVICE_WARMUP_S))
    engine = Engine()
    compiled = {p.name: engine.compile(p.source)
                for p in plan.pool + plan.fresh + plan.warm_fresh}
    host = engine.serve(workers=SERVICE_WORKERS)
    host.start()
    try:
        host.register_module("libshared", plan.library_source)
        for app in plan.apps:
            host.register_module(app.name, app.source)
        out = {"base_setup_s": time.monotonic() - cfg["spawned_at"]}
        if cfg["mode"] == "probe":
            return out

        kernel_quota = RequestQuota(segment_size=KERNEL_SEGMENT_SIZE)

        def request(name: str, target: str, rid: str):
            if name in compiled:
                return ModuleRequest(program=compiled[name], target=target,
                                     request_id=rid, quota=kernel_quota)
            return ModuleRequest(modules=(name,), target=target,
                                 request_id=rid)

        def correct(name: str, response) -> bool:
            return (getattr(response, "ok", False)
                    and response.exit_code == 0
                    and response.output == programs[name].expected)

        programs = plan.programs()
        warm_start = time.perf_counter()
        warm_failed = 0
        for program in plan.pool + plan.apps:
            for target in gen.SERVICE_TARGETS:
                response = host.run(request(program.name, target,
                                            f"w-{program.name}-{target}"))
                warm_failed += not correct(program.name, response)
        # Then the same open loop and mix as the measured phase, with
        # first-sight kernels of its own, untimed (see SERVICE_WARMUP_S).
        _, _, warm_done = open_loop(
            host, [request(r.program, r.target, f"w{i}")
                   for i, r in enumerate(plan.warmup)])
        warm_failed += sum(not correct(r.program, warm_done[i][1])
                           for i, r in enumerate(plan.warmup))
        out["warmup_failed"] = warm_failed
        out["warmup_s"] = time.perf_counter() - warm_start

        out["service_before"] = host.stats.snapshot()["counters"]
        engine.reset_stats()
        if tracer is not None:
            tracer.side_keys.clear()
        out["cache_before"] = engine.cache.stats().to_dict()
        phase_start, sent, done = open_loop(
            host, [request(r.program, r.target, f"r{i}")
                   for i, r in enumerate(plan.requests)])
        out["phase_start"] = phase_start
        interval = 1.0 / SERVICE_RATE
        submitted = {f"r{i}": t for i, t in enumerate(sent)}
        late = [(t - (phase_start + i * interval)) * 1000.0
                for i, t in enumerate(sent)]
        ops = [{"op": f"r{i}", "ok": False, "kind": r.kind}
               for i, r in enumerate(plan.requests)]
        phase_end = max(t for t, _ in done.values())
        out["peak_rss_mb"] = peak_rss_mb()
        for index, req in enumerate(plan.requests):
            finished, response = done[index]
            op = ops[index]
            if isinstance(response, ServiceOverloaded):
                op["error"] = f"ServiceOverloaded: {response}"
                op["lat_ms"] = 0.0
                continue
            op["lat_ms"] = (finished - (phase_start + index * interval)) \
                * 1000.0
            op["ok"] = correct(req.program, response)
            op["fallback"] = response.fallback
            op["retries"] = response.retries
            if not response.ok:
                op["error"] = f"{response.error}: {response.error_message}"
        out["passes"] = [{"phase_s": phase_end - phase_start, "ops": ops}]
        out["gen_late_ms"] = late
        out["submitted"] = submitted
        out["service"] = host.stats.to_dict()
        out["engine"] = engine.stats()
        out["cache_capacity"] = engine.cache.capacity
        out["workers"] = SERVICE_WORKERS
    finally:
        host.stop()
    if tracer is not None:
        tracer.uninstall()
    # The exact counts, outside the measured phase: every distinct
    # (program, executor) pair the workload ran, once each.
    pairs = Pairs()
    run_pairs = {(p.name, t) for p in plan.pool + plan.apps
                 for t in gen.SERVICE_TARGETS}
    run_pairs |= {(r.program, r.target) for r in plan.requests}
    for name, target in sorted(run_pairs):
        if name in compiled:
            module = engine.load(compiled[name], target, config=RunConfig(
                segment_size=KERNEL_SEGMENT_SIZE))
        else:
            module = engine.load_program([name], target=target)
        module.run()
        pairs.record(f"{name}/{target}", module)
    out["pairs"] = pairs.to_dict()
    out["mismatches"] = pairs.mismatches
    return out


def open_loop(host, requests) -> tuple[float, list[float], dict]:
    """Submit *requests* to *host* without blocking, evenly spaced at
    ``SERVICE_RATE``, and wait for every response.  Returns the start
    of the schedule (request *i* is due ``i / SERVICE_RATE`` s after
    it), the send times, and per index the finish time and the
    response (or the ``ServiceOverloaded`` the submit raised)."""
    from repro import ServiceOverloaded

    done: dict[int, tuple[float, object]] = {}
    remaining = [len(requests)]
    all_done = threading.Event()
    lock = threading.Lock()

    def finish(index: int, response) -> None:
        done[index] = (time.perf_counter(), response)
        with lock:
            remaining[0] -= 1
            if remaining[0] == 0:
                all_done.set()

    sent = []
    interval = 1.0 / SERVICE_RATE
    start = time.perf_counter() + 0.01
    for index, req in enumerate(requests):
        delay = start + index * interval - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent.append(time.perf_counter())
        try:
            pending = host.submit(req, block=False)
        except ServiceOverloaded as err:
            finish(index, err)
            continue
        pending.on_done(lambda response, i=index: finish(i, response))
    if requests and not all_done.wait(120.0):
        raise RuntimeError("service_open: responses still missing")
    return start, sent, done


# -- entry point --------------------------------------------------------------


def main() -> int:
    # One core for the serving process: under the interpreter lock its
    # threads run Python one at a time anyway, and unpinned, lock
    # hand-offs between cores and thread migrations made service_open's
    # p95 latency vary by up to 2x from run to run on a 2-vCPU machine.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cfg = json.loads(sys.argv[1])
    tracer = None
    if cfg.get("trace"):
        tracer = tracing.Tracer()
        extra = {}
        if cfg["workload"] == "service_open":
            extra["op"] = ("repro.service", "ModuleHost._execute",
                           lambda args: args[1].request_id)
        cfg["bound"] = tracer.install(extra)
    else:
        # Same imports as a traced process, so both set up alike.
        import importlib

        for name in tracing.PRELOAD:
            importlib.import_module(name)
    if cfg["workload"] == "service_open":
        out = run_service(cfg, tracer)
    else:
        out = run_spec(cfg, tracer)
    if tracer is not None:
        tracer.uninstall()
        out["bound"] = cfg["bound"]
        since = out["phase_start"]
        out["layers"] = tracing.layer_summary(tracer.spans, since)
        out["unattributed_pct"] = tracing.unattributed_pct(tracer.spans,
                                                           since)
        out["side_table_keys"] = len(tracer.side_keys)
        out["queue_wait_ms"] = _queue_waits(tracer.spans,
                                            out.get("submitted", {}))
        out["busy_s"] = sum(s.end - s.start for s in tracer.spans
                            if s.layer == "op" and s.start >= since)
        tracer.write(Path(cfg["trace_out"]))
    out.pop("submitted", None)
    print(json.dumps(out))
    return 0


def _queue_waits(spans, submitted: dict[str, float]) -> list[float]:
    return [(s.start - submitted[s.op]) * 1000.0 for s in spans
            if s.layer == "op" and s.op in submitted]


if __name__ == "__main__":
    sys.exit(main())
