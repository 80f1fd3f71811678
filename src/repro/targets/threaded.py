"""Threaded-code execution engine for the simulated targets.

The native counterpart of :mod:`repro.omnivm.threaded`: translated
modules are predecoded once — every :class:`~repro.targets.base.MInstr`
becomes a bound closure over resolved register indexes and normalized
immediates — and then executed as lazily-discovered basic blocks with
``instret``, the fuel check, and the Figure-1 category counters charged
once per block.

Register ops take their closures from the op table of
:mod:`repro.jitcore` (the text the native JIT emits, compiled once per
process into a closure factory); memory, divide and control ops are
written here.  The cycle-accurate parts stay per-instruction: each
closure still calls :meth:`TargetMachine._charge` in original program
order (the scoreboard, dual-issue pairing, and memory-resident-register
costs are stateful), so ``cycles`` is bit-identical to the legacy
executor.  What the threaded
engine removes is the per-step dispatch chain, the per-step fuel and
category bookkeeping, and the dict-built condition-code predicate of
``_cc_predicate`` (predecoded to one closure per predicate).

Delay-slot semantics (MIPS/SPARC) are preserved exactly: the slot
instruction executes outside the violation try (slot faults propagate to
the host, as in the legacy loop), annulled untaken branches skip the
slot, and the taken-branch penalty lands after the slot.
"""

from __future__ import annotations

import time

from repro import metrics
from repro.errors import (
    AccessViolation,
    FuelExhausted,
    VMRuntimeError,
    VMTrap,
)
from repro.jitcore import native_row, threaded_closure
from repro.omnivm import semantics
from repro.targets.base import MInstr, TargetMachine, TargetSpec
from repro.utils.bits import round_f32, s32, u32

_M = 0xFFFFFFFF
_SIGN = 0x80000000
_WRAP = 0x100000000

#: Terminator classes for the block dispatcher.
_COND = 1   # conditional branch: returns target | -2 | None
_JUMP = 2   # unconditional: always returns a redirect
_HOST = 3   # hostcall: falls through
_TRAP = 4   # raises

_COND_OPS = frozenset("beq bne bltz blez bgtz bgez bcc fbcc".split())
_JUMP_OPS = frozenset("j jal jr jalr".split())

__all__ = ["ThreadedNativeProgram", "ThreadedTargetMachine",
           "predecode_native"]


#: Condition-code predicate closures (replaces the per-call dict of
#: ``TargetMachine._cc_predicate``).
_CC_TESTS = {
    "eq": lambda m: m.cc == 0,
    "ne": lambda m: m.cc != 0,
    "lt": lambda m: m.cc < 0,
    "le": lambda m: m.cc <= 0,
    "gt": lambda m: m.cc > 0,
    "ge": lambda m: m.cc >= 0,
    "ltu": lambda m: m.cc_unsigned < 0,
    "leu": lambda m: m.cc_unsigned <= 0,
    "gtu": lambda m: m.cc_unsigned > 0,
    "geu": lambda m: m.cc_unsigned >= 0,
}


# ---------------------------------------------------------------------------
# body closures: fn(m, regs, fregs, memory) -> None
# ---------------------------------------------------------------------------

_LOAD_SHAPES = {
    "lb": (1, True), "lbu": (1, False), "lh": (2, True), "lhu": (2, False),
    "lw": (4, False), "lbx": (1, True), "lbux": (1, False),
    "lhx": (2, True), "lhux": (2, False), "lwx": (4, False),
}
_STORE_SIZES = {"sb": 1, "sh": 2, "sw": 4, "sbx": 1, "shx": 2, "swx": 4}


def _sem_mem(mi, idx):
    """Memory ops with fault annotation (no charge)."""
    op = mi.op
    rd, rs, rt = mi.rd, mi.rs, mi.rt
    fd, ft = mi.fd, mi.ft
    immu = u32(mi.imm)
    if op == "lw":
        def fn(m, regs, fregs, memory):
            try:
                regs[rd] = memory.load_u32((regs[rs] + immu) & _M)
            except AccessViolation as violation:
                violation.fault_native = idx
                raise
    elif op == "lwx":
        def fn(m, regs, fregs, memory):
            try:
                regs[rd] = memory.load_u32((regs[rs] + regs[rt]) & _M)
            except AccessViolation as violation:
                violation.fault_native = idx
                raise
    elif op == "sw":
        def fn(m, regs, fregs, memory):
            try:
                memory.store_u32((regs[rs] + immu) & _M, regs[rt])
            except AccessViolation as violation:
                violation.fault_native = idx
                raise
    elif op == "swx":
        def fn(m, regs, fregs, memory):
            try:
                memory.store_u32((regs[rs] + regs[rd]) & _M, regs[rt])
            except AccessViolation as violation:
                violation.fault_native = idx
                raise
    elif op in ("lb", "lbu", "lh", "lhu"):
        size, signed = _LOAD_SHAPES[op]

        def fn(m, regs, fregs, memory):
            try:
                regs[rd] = memory.load(
                    (regs[rs] + immu) & _M, size, signed) & _M
            except AccessViolation as violation:
                violation.fault_native = idx
                raise
    elif op in ("lbx", "lbux", "lhx", "lhux"):
        size, signed = _LOAD_SHAPES[op]

        def fn(m, regs, fregs, memory):
            try:
                regs[rd] = memory.load(
                    (regs[rs] + regs[rt]) & _M, size, signed) & _M
            except AccessViolation as violation:
                violation.fault_native = idx
                raise
    elif op in ("sb", "sh"):
        size = _STORE_SIZES[op]

        def fn(m, regs, fregs, memory):
            try:
                memory.store((regs[rs] + immu) & _M, size, regs[rt])
            except AccessViolation as violation:
                violation.fault_native = idx
                raise
    elif op in ("sbx", "shx"):
        size = _STORE_SIZES[op]

        def fn(m, regs, fregs, memory):
            try:
                memory.store((regs[rs] + regs[rd]) & _M, size, regs[rt])
            except AccessViolation as violation:
                violation.fault_native = idx
                raise
    elif op == "lfs":
        def fn(m, regs, fregs, memory):
            try:
                fregs[fd] = memory.load_f32((regs[rs] + immu) & _M)
            except AccessViolation as violation:
                violation.fault_native = idx
                raise
    elif op == "lfd":
        def fn(m, regs, fregs, memory):
            try:
                fregs[fd] = memory.load_f64((regs[rs] + immu) & _M)
            except AccessViolation as violation:
                violation.fault_native = idx
                raise
    elif op == "lfsx":
        def fn(m, regs, fregs, memory):
            try:
                fregs[fd] = memory.load_f32((regs[rs] + regs[rt]) & _M)
            except AccessViolation as violation:
                violation.fault_native = idx
                raise
    elif op == "lfdx":
        def fn(m, regs, fregs, memory):
            try:
                fregs[fd] = memory.load_f64((regs[rs] + regs[rt]) & _M)
            except AccessViolation as violation:
                violation.fault_native = idx
                raise
    elif op == "sfs":
        def fn(m, regs, fregs, memory):
            try:
                memory.store_f32((regs[rs] + immu) & _M, fregs[ft])
            except AccessViolation as violation:
                violation.fault_native = idx
                raise
    elif op == "sfd":
        def fn(m, regs, fregs, memory):
            try:
                memory.store_f64((regs[rs] + immu) & _M, fregs[ft])
            except AccessViolation as violation:
                violation.fault_native = idx
                raise
    elif op == "sfsx":
        def fn(m, regs, fregs, memory):
            try:
                memory.store_f32((regs[rs] + regs[rd]) & _M, fregs[ft])
            except AccessViolation as violation:
                violation.fault_native = idx
                raise
    elif op == "sfdx":
        def fn(m, regs, fregs, memory):
            try:
                memory.store_f64((regs[rs] + regs[rd]) & _M, fregs[ft])
            except AccessViolation as violation:
                violation.fault_native = idx
                raise
    else:
        return None
    return fn


def _sem_generic(mi, idx):
    """Fallback: route through the legacy executor (rare/cold ops)."""
    def fn(m, regs, fregs, memory):
        try:
            m.execute(mi)
        except AccessViolation as violation:
            violation.fault_native = idx
            raise
        except VMRuntimeError as err:
            err.fault_native = idx
            raise
    return fn


def _compile_native_body(mi, idx):
    """One straight-line native instruction: charge (in order) + effect.
    Register ops come from the :mod:`repro.jitcore` op table, with the
    charge compiled into the same closure."""
    charge = mi.category != "fused"  # cc-profile peephole output is free
    row = native_row(mi)
    if row is not None:
        return threaded_closure(row, mi, native=True, charge=charge)
    op = mi.op
    if op in ("div", "divu", "rem", "remu"):
        rd, rs, rt = mi.rd, mi.rs, mi.rt
        int_divide = semantics.int_divide

        def sem(m, regs, fregs, memory):
            try:
                regs[rd] = int_divide(op, regs[rs], regs[rt])
            except VMRuntimeError as err:
                err.fault_native = idx
                raise
    elif op in ("fdivs", "fdivd"):
        # FP traps are unattributed: no fault index.
        fd, fs, ft = mi.fd, mi.fs, mi.ft
        fp_binop = semantics.fp_binop
        if op == "fdivs":
            def sem(m, regs, fregs, memory):
                fregs[fd] = round_f32(fp_binop("fdiv", fregs[fs], fregs[ft]))
        else:
            def sem(m, regs, fregs, memory):
                fregs[fd] = fp_binop("fdiv", fregs[fs], fregs[ft])
    else:
        sem = _sem_mem(mi, idx) or _sem_generic(mi, idx)
    if not charge:
        return sem

    def fn(m, regs, fregs, memory):
        m._charge(mi)
        sem(m, regs, fregs, memory)
    return fn


# ---------------------------------------------------------------------------
# terminator closures: fn(m, regs, fregs, memory) -> redirect | -2 | None
# ---------------------------------------------------------------------------

def _compile_native_term(mi, idx, spec):
    op = mi.op
    rs, rt = mi.rs, mi.rt
    target = mi.target
    untaken = -2 if spec.delay_slots else None
    charge = mi.category != "fused"

    if op in ("bcc", "fbcc"):
        test = _CC_TESTS[mi.pred]
        if charge:
            def fn(m, regs, fregs, memory):
                m._charge(mi)
                return target if test(m) else untaken
        else:
            def fn(m, regs, fregs, memory):
                return target if test(m) else untaken
        return _COND, fn
    if op == "beq":
        def fn(m, regs, fregs, memory):
            m._charge(mi)
            return target if regs[rs] == regs[rt] else untaken
        return _COND, fn
    if op == "bne":
        def fn(m, regs, fregs, memory):
            m._charge(mi)
            return target if regs[rs] != regs[rt] else untaken
        return _COND, fn
    if op in ("bltz", "blez", "bgtz", "bgez"):
        if op == "bltz":
            def taken(a):
                return a < 0
        elif op == "blez":
            def taken(a):
                return a <= 0
        elif op == "bgtz":
            def taken(a):
                return a > 0
        else:
            def taken(a):
                return a >= 0

        def fn(m, regs, fregs, memory):
            m._charge(mi)
            a = regs[rs]
            if a & _SIGN:
                a -= _WRAP
            return target if taken(a) else untaken
        return _COND, fn
    if op == "j":
        def fn(m, regs, fregs, memory):
            m._charge(mi)
            return target
        return _JUMP, fn
    if op == "jal":
        link = spec.reserved.get("ra", 31)
        ret = u32(mi.imm)

        def fn(m, regs, fregs, memory):
            m._charge(mi)
            regs[link] = ret
            return target
        return _JUMP, fn
    if op == "jr":
        def fn(m, regs, fregs, memory):
            m._charge(mi)
            return m.map_omni_target(regs[rs])
        return _JUMP, fn
    if op == "jalr":
        link = spec.reserved.get("ra", 31)
        ret = u32(mi.imm)

        def fn(m, regs, fregs, memory):
            m._charge(mi)
            regs[link] = ret
            return m.map_omni_target(regs[rs])
        return _JUMP, fn
    if op == "hostcall":
        index = mi.imm

        def fn(m, regs, fregs, memory):
            m._charge(mi)
            if m.hostcall is None:
                raise VMRuntimeError("hostcall without attached host")
            m.hostcall(m, index)
            return None
        return _HOST, fn
    if op == "trap":
        message = f"module trap {mi.imm}"
        code = mi.imm

        def fn(m, regs, fregs, memory):
            m._charge(mi)
            raise VMTrap(message, code)
        return _TRAP, fn
    raise VMRuntimeError(f"target op {op!r} is not a terminator")


def _is_term_op(op: str) -> bool:
    return op in _COND_OPS or op in _JUMP_OPS or op in ("hostcall", "trap")


# ---------------------------------------------------------------------------
# predecoded program + block cache
# ---------------------------------------------------------------------------

class ThreadedNativeProgram:
    """Predecoded translated module: per-index closures + lazy blocks.

    Holds no machine state — closures receive the machine and its
    register files per call — so one artifact serves every machine
    instance running the same translation (the content-addressed cache
    stores these in its in-memory predecode side table).
    """

    __slots__ = ("spec", "instrs", "steps", "blocks", "length")

    def __init__(self, spec: TargetSpec, instrs: list[MInstr]):
        self.spec = spec
        self.instrs = instrs
        self.length = len(instrs)
        # steps[i]: (is_term, closure-or-None); terminators are compiled
        # lazily inside build_block (they need block context anyway).
        self.steps = [None] * len(instrs)
        self.blocks: list[tuple | None] = [None] * len(instrs)

    def _body_step(self, index: int):
        step = self.steps[index]
        if step is None:
            step = self.steps[index] = _compile_native_body(
                self.instrs[index], index)
        return step

    def build_block(self, index: int):
        """Build (and memoize) the block entered at native *index*.

        Returns ``(body, cats, total, term_kind, term_fn, term_mi,
        term_end, slot)`` where ``body`` is a tuple of closures,
        ``cats`` the per-category instruction counts for the whole block
        (body + terminator, not the delay slot), ``total`` the number of
        instructions they represent, ``term_end`` the native index of
        the terminator's last instruction, and ``slot`` the predecoded
        delay-slot record ``(slot_fn, slot_mi)`` or None.
        """
        instrs = self.instrs
        spec = self.spec
        n = self.length
        body = []
        cats: dict[str, int] = {}
        term_kind = 0
        term_fn = None
        term_mi = None
        term_end = index - 1
        i = index
        while i < n:
            mi = instrs[i]
            cats[mi.category] = cats.get(mi.category, 0) + 1
            if _is_term_op(mi.op):
                term_end = i
                term_mi = mi
                term_kind, term_fn = _compile_native_term(mi, i, spec)
                break
            body.append(self._body_step(i))
            i += 1
        total = sum(cats.values())
        slot = None
        if spec.delay_slots and term_kind in (_COND, _JUMP) \
                and term_end + 1 < n:
            slot_mi = instrs[term_end + 1]
            slot = (self._body_step(term_end + 1), slot_mi)
        block = (tuple(body), tuple(cats.items()), total, term_kind,
                 term_fn, term_mi, term_end, slot)
        self.blocks[index] = block
        return block


def predecode_native(spec: TargetSpec,
                     instrs: list[MInstr]) -> ThreadedNativeProgram:
    """Predecode a translated module, reporting ``execute.predecode_ms``.

    Per-instruction closures and blocks are built lazily on first
    execution; this constructor only sizes the dispatch tables, so the
    predecode cost reported here is the load-time share.
    """
    start = time.perf_counter()
    threaded = ThreadedNativeProgram(spec, instrs)
    if metrics.active():
        metrics.count("execute.predecode_ms",
                      (time.perf_counter() - start) * 1000.0)
    return threaded


# ---------------------------------------------------------------------------
# the threaded machine
# ---------------------------------------------------------------------------

class ThreadedTargetMachine(TargetMachine):
    """TargetMachine with block dispatch over a predecoded program.

    ``cycles``, register state, memory, and the virtual exception model
    are bit-identical to the legacy executor; ``instret``/fuel and the
    Figure-1 category counters are charged per block, so fuel cuts land
    at block boundaries (at most one block late), exactly like the
    interpreter-side threaded engine.
    """

    def __init__(self, spec, instrs, memory, omni_to_native,
                 hostcall=None, fuel=100_000_000,
                 threaded: ThreadedNativeProgram | None = None):
        if threaded is None:
            threaded = predecode_native(spec, instrs)
        # Use the artifact's instruction list so closure-bound MInstr
        # objects and self.instrs are the same objects (operand/latency
        # caches land in one place).
        super().__init__(spec, threaded.instrs, memory, omni_to_native,
                         hostcall, fuel)
        self._threaded = threaded
        self._blocks_run = 0

    def run(self, entry_native_index: int) -> int:
        blocks_before = self._blocks_run
        try:
            return super().run(entry_native_index)
        finally:
            if metrics.active():
                blocks = self._blocks_run - blocks_before
                if blocks:
                    metrics.count("execute.blocks", blocks)

    def _charge_fault_prefix(self, start: int, fault: int) -> None:
        """Account instret/categories for block instructions up to and
        including the faulting one (the legacy per-instruction loop had
        already retired exactly these)."""
        self.instret += fault - start + 1
        counts = self.category_counts
        instrs = self.instrs
        for i in range(start, fault + 1):
            counts[instrs[i].category] += 1

    def _run(self, entry_native_index: int) -> int:
        self.pc = entry_native_index
        from repro.sfi.policy import RETURN_SENTINEL

        self.regs[self.link_reg] = RETURN_SENTINEL
        program = self._threaded
        blocks = program.blocks
        build = program.build_block
        n = program.length
        regs = self.regs
        fregs = self.fregs
        memory = self.memory
        counts = self.category_counts
        blocks_run = 0
        try:
            while not self.halted:
                pc = self.pc
                if pc == 0xFFFFFFFF or pc >= n:
                    if pc == 0xFFFFFFFF:
                        break
                    raise VMRuntimeError(f"native pc out of range: {pc}")
                block = blocks[pc]
                if block is None:
                    block = build(pc)
                (body, cats, total, term_kind, term_fn, term_mi,
                 term_end, slot) = block
                blocks_run += 1
                try:
                    for fn in body:
                        fn(self, regs, fregs, memory)
                except AccessViolation as violation:
                    fault = violation.fault_native
                    self._charge_fault_prefix(pc, fault)
                    redirect = self._deliver_violation(
                        self.instrs[fault], violation)
                    self.pc = redirect
                    self._branch_taken_penalty()
                    if self.instret > self.fuel:
                        raise FuelExhausted("target simulation exceeded fuel")
                    continue
                except VMRuntimeError as err:
                    fault = getattr(err, "fault_native", None)
                    if fault is not None:
                        self._charge_fault_prefix(pc, fault)
                    raise
                self.instret += total
                for category, count in cats:
                    counts[category] += count
                if self.instret > self.fuel:
                    raise FuelExhausted("target simulation exceeded fuel")
                if term_fn is None:
                    # Block ran off the end of the code: the legacy loop
                    # faults on the next fetch.
                    self.pc = n
                    continue
                self.pc = term_end
                try:
                    redirect = term_fn(self, regs, fregs, memory)
                except AccessViolation as violation:
                    # Only a hostcall terminator can get here; the legacy
                    # loop delivers and redirects with a taken-branch
                    # penalty.
                    redirect = self._deliver_violation(term_mi, violation)
                    self.pc = redirect
                    self._branch_taken_penalty()
                    continue
                if term_kind == _COND:
                    if slot is not None:
                        slot_fn, slot_mi = slot
                        if not (term_mi.annul and redirect == -2):
                            self.instret += 1
                            counts[slot_mi.category] += 1
                            slot_fn(self, regs, fregs, memory)
                        if redirect == -2:
                            self.pc = term_end + 2
                        else:
                            self.pc = redirect
                            self._branch_taken_penalty()
                    else:
                        if redirect is None or redirect == -2:
                            self.pc = term_end + 1
                        else:
                            self.pc = redirect
                            self._branch_taken_penalty()
                elif term_kind == _JUMP:
                    if slot is not None:
                        slot_fn, slot_mi = slot
                        self.instret += 1
                        counts[slot_mi.category] += 1
                        slot_fn(self, regs, fregs, memory)
                    self.pc = redirect
                    self._branch_taken_penalty()
                else:  # _HOST (trap raises out of the closure)
                    self.pc = term_end + 1
        finally:
            self._blocks_run += blocks_run
        return s32(self.exit_code if self.halted else self.regs[
            self.spec.int_map.get(1, 1)])
