"""Seeded inputs for the benchmark, with their Python oracles.

Everything a workload feeds the system comes from here and depends only
on the ``--seed``: the op order of the SPEC workloads, and for
``service_open`` the small-kernel pool, the shared library and the
programs linked against it, the first-sight kernels, and the request
schedules of the warm-up and the measured phase.  The system under test only ever sees the generated MiniC
text (compiled during set-up) and the requests.

Every generated program is branch-free apart from fixed-count loops and
keeps its seeded constants (below 2**11) in initialised global arrays,
so the compiler cannot specialise code on their values: the translated
code (``native_instrs``) is the same for every seed, and ``sim_cycles``
differs between seeds only where a target's timing model depends on
operand values (a few cycles in 10**5).
The oracles compute each program's output in Python with 32-bit
wraparound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SPEC_PROGRAMS = ("li", "compress", "alvinn", "eqntott")
EXECUTORS = ("omnivm", "mips", "sparc", "ppc", "x86")
SERVICE_TARGETS = ("mips", "x86", "omnivm")

POOL_SIZE = 16
LIBRARY_FUNCTIONS = 24
LIBRARY_APPS = 8
#: Request shares of the service mix: pool kernels, library programs,
#: first-sight kernels (the remainder).
POOL_SHARE = 0.6
LIBRARY_SHARE = 0.3

MASK = 0xFFFFFFFF


def s32(value: int) -> int:
    value &= MASK
    return value - (1 << 32) if value & 0x80000000 else value


@dataclass(frozen=True)
class Program:
    """One generated single-unit MiniC program and its expected output
    text (what ``Host.output_text()`` renders)."""

    name: str
    source: str
    expected: str


# -- small kernels ------------------------------------------------------------


def _consts(a: int, b: int, c: int) -> str:
    return f"int kc[3] = {{{a}, {b}, {c}}};"


def _mac(a: int, b: int, c: int, n: int) -> tuple[str, int]:
    source = f"""
{_consts(a, b, c)}
int main() {{
    int i;
    int acc;
    acc = kc[0];
    i = 0;
    while (i < {n}) {{
        acc = acc * kc[1] + (i ^ kc[2]);
        i = i + 1;
    }}
    emit_int(acc);
    return 0;
}}"""
    acc = a
    for i in range(n):
        acc = (acc * b + (i ^ c)) & MASK
    return source, acc


def _array(a: int, b: int, c: int, n: int) -> tuple[str, int]:
    source = f"""
{_consts(a, b, c)}
int buf[{n}];
int main() {{
    int i;
    int s;
    i = 0;
    while (i < {n}) {{
        buf[i] = (i * kc[0] + kc[1]) & 1023;
        i = i + 1;
    }}
    s = kc[2];
    i = 0;
    while (i < {n}) {{
        s = s + buf[i] * (i + 1);
        i = i + 1;
    }}
    emit_int(s);
    return 0;
}}"""
    s = c
    for i in range(n):
        s = (s + ((i * a + b) & 1023) * (i + 1)) & MASK
    return source, s


def _shift(a: int, b: int, c: int, n: int) -> tuple[str, int]:
    # The mask after ">> 5" keeps bits 0..26, which are the same for an
    # arithmetic and a logical shift.
    source = f"""
{_consts(a, b, c)}
int main() {{
    int x;
    int i;
    x = kc[0];
    i = 0;
    while (i < {n}) {{
        x = x ^ (x << 3);
        x = x ^ ((x >> 5) & 134217727);
        x = x + kc[1];
        i = i + 1;
    }}
    emit_int(x ^ kc[2]);
    return 0;
}}"""
    x = a
    for _ in range(n):
        x = (x ^ (x << 3)) & MASK
        x ^= (x >> 5) & 134217727
        x = (x + b) & MASK
    return source, x ^ c


def _call(a: int, b: int, c: int, n: int) -> tuple[str, int]:
    source = f"""
{_consts(a, b, c)}
int step(int x) {{
    return x * kc[0] + kc[1];
}}
int main() {{
    int i;
    int s;
    s = kc[2];
    i = 0;
    while (i < {n}) {{
        s = step(s) ^ i;
        i = i + 1;
    }}
    emit_int(s);
    return 0;
}}"""
    s = c
    for i in range(n):
        s = ((s * a + b) & MASK) ^ i
    return source, s


#: (template, trip count); kernel *k* uses entry ``k % len(TEMPLATES)``.
TEMPLATES = ((_mac, 48), (_array, 32), (_shift, 40), (_call, 24))


def _kernel(name: str, index: int, consts: tuple[int, int, int]) -> Program:
    template, trips = TEMPLATES[index % len(TEMPLATES)]
    source, value = template(*consts, trips)
    return Program(name, source, str(s32(value)))


class _Constants:
    """Draws constant triples below 2**11, never the same triple twice,
    so every generated kernel has its own content digest."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set[tuple[int, ...]] = set()

    def draw(self, index: int) -> tuple[int, int, int]:
        while True:
            triple = tuple(self.rng.randrange(1, 2048) for _ in range(3))
            if (index % len(TEMPLATES),) + triple not in self.seen:
                self.seen.add((index % len(TEMPLATES),) + triple)
                return triple


# -- shared library -----------------------------------------------------------


def library(rng: random.Random) -> tuple[str, list[tuple[int, int, int]]]:
    """MiniC source of the shared library and its per-function
    constants: ``LIBRARY_FUNCTIONS`` exported kernels of one shape."""
    consts = [tuple(rng.randrange(1, 2048) for _ in range(3))
              for _ in range(LIBRARY_FUNCTIONS)]
    parts = []
    for k, (a, b, c) in enumerate(consts):
        parts.append(f"""
int lib_c{k}[3] = {{{a}, {b}, {c}}};
int lib_f{k}(int x) {{
    int a;
    a = x * lib_c{k}[0] + lib_c{k}[1];
    a = a ^ (a << 2);
    return a + lib_c{k}[2];
}}""")
    return "\n".join(parts), consts


def _lib_call(consts: tuple[int, int, int], x: int) -> int:
    a, b, c = consts
    v = (x * a + b) & MASK
    v = (v ^ (v << 2)) & MASK
    return (v + c) & MASK


def library_app(index: int, rng: random.Random,
                lib_consts: list[tuple[int, int, int]]) -> Program:
    """Program *index* imports three library kernels (seeded choice) and
    emits two values separated by a space."""
    f, g, h = rng.sample(range(LIBRARY_FUNCTIONS), 3)
    x, y = rng.randrange(1, 2048), rng.randrange(1, 2048)
    source = f"""
extern int lib_f{f}(int x);
extern int lib_f{g}(int x);
extern int lib_f{h}(int x);
int args[2] = {{{x}, {y}}};
int main() {{
    emit_int(lib_f{f}(args[0]));
    emit_char(32);
    emit_int(lib_f{g}(lib_f{h}(args[1])));
    return 0;
}}"""
    first = _lib_call(lib_consts[f], x)
    second = _lib_call(lib_consts[g], _lib_call(lib_consts[h], y))
    return Program(f"app{index}", source,
                   f"{s32(first)} {s32(second)}")


# -- workload plans -----------------------------------------------------------


def spec_order(seed: int, salt: str) -> list[tuple[str, str]]:
    """A seeded shuffle of the 20 (SPEC program, executor) pairs."""
    pairs = [(p, e) for p in SPEC_PROGRAMS for e in EXECUTORS]
    random.Random(f"{seed}|{salt}").shuffle(pairs)
    return pairs


@dataclass(frozen=True)
class Request:
    kind: str  # "pool" | "app" | "fresh"
    program: str  # kernel or app name
    target: str


@dataclass
class ServicePlan:
    pool: list[Program]
    fresh: list[Program]
    library_source: str
    apps: list[Program]
    requests: list[Request]
    #: First-sight kernels and requests of the untimed warm-up.
    warm_fresh: list[Program]
    warmup: list[Request]

    def programs(self) -> dict[str, Program]:
        return {p.name: p for p in
                self.pool + self.fresh + self.apps + self.warm_fresh}


def service_plan(seed: int, count: int, warmup: int) -> ServicePlan:
    """The ``service_open`` inputs: *count* requests in a seeded order,
    of which exactly ``POOL_SHARE`` are pool kernels drawn Zipf-like,
    ``LIBRARY_SHARE`` are library programs, and the rest first-sight
    kernels (each seen once); then *warmup* requests of the same mix
    for the untimed warm-up, whose first-sight kernels are distinct
    from every measured one.  The measured requests do not depend on
    *warmup*."""
    rng = random.Random(f"{seed}|service")
    consts = _Constants(rng)
    pool = [_kernel(f"k{k}", k, consts.draw(k)) for k in range(POOL_SIZE)]
    lib_source, lib_consts = library(rng)
    apps = [library_app(i, rng, lib_consts) for i in range(LIBRARY_APPS)]
    fresh, requests = _schedule(rng, consts, pool, apps, count, "new")
    warm_fresh, warm = _schedule(random.Random(f"{seed}|service-warm-up"),
                                 consts, pool, apps, warmup, "warm")
    return ServicePlan(pool, fresh, lib_source, apps, requests,
                       warm_fresh, warm)


def _schedule(rng: random.Random, consts: _Constants, pool: list[Program],
              apps: list[Program], count: int, prefix: str
              ) -> tuple[list[Program], list[Request]]:
    """*count* requests of the service mix and the first-sight kernels
    they run (named *prefix* and an index)."""
    n_pool = round(count * POOL_SHARE)
    n_app = round(count * LIBRARY_SHARE)
    n_fresh = max(0, count - n_pool - n_app)
    fresh = [_kernel(f"{prefix}{k}", k, consts.draw(k))
             for k in range(n_fresh)]
    zipf = [1.0 / (rank + 1) for rank in range(POOL_SIZE)]
    picks = [("pool", p.name)
             for p in rng.choices(pool, weights=zipf, k=n_pool)]
    picks += [("app", rng.choice(apps).name) for _ in range(n_app)]
    # A first-sight kernel's target follows its index, like its
    # template, so the set of (template, target) pairs is seed-free.
    picks += [("fresh", p.name, SERVICE_TARGETS[k % len(SERVICE_TARGETS)])
              for k, p in enumerate(fresh)]
    rng.shuffle(picks)
    # Pool and library targets rotate per kind, so each kind is split
    # evenly across the three targets whatever the seed.
    turn = {"pool": 0, "app": 1}
    requests = []
    for kind, name, *fixed in picks:
        if fixed:
            target = fixed[0]
        else:
            target = SERVICE_TARGETS[turn[kind] % len(SERVICE_TARGETS)]
            turn[kind] += 1
        requests.append(Request(kind, name, target))
    return fresh, requests
