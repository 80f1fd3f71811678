"""Threaded-code execution engine for OmniVM.

The reference interpreter (:mod:`repro.omnivm.interp`) re-decodes every
dynamic instruction: one trip through a long ``if``/``elif`` chain, one
``_PRED_FN``/shape-table lookup, one immediate normalization — per step.
This module moves all of that to **load time**, the same place the
paper puts translation cost:

* **predecode** — each :class:`~repro.omnivm.isa.VMInstr` is compiled
  once into a bound Python closure: operands are resolved to list
  indexes, immediates are pre-normalized constants, and the
  predicate/shape tables are consulted once.  Register ops take their
  closure from the op table of :mod:`repro.jitcore` (the text the JIT
  emits, compiled once per process into a closure factory); memory,
  divide and control ops are written here.  The closures live in a
  per-program dispatch array indexed by pc;
* **basic-block batching** — straight-line runs execute without
  re-entering the dispatch loop; ``instret`` and the fuel check are
  charged once per block, so a fuel cut (including the service
  watchdog's asynchronous ``fuel = -1``) lands at the next block
  boundary, at most one block length late.

Under the default ``"auto"`` tier this engine runs only cold blocks and
superblock side exits; hot code runs as compiled superblocks
(:mod:`repro.omnivm.jit`).

Observable semantics are pinned to the reference interpreter: the
difftest fixed-seed corpus must be bit-exact between the two engines
(registers, memory digest, ``instret``, outcome kind and detail).  The
one documented relaxation is fuel granularity, above.

A :class:`ThreadedProgram` binds no VM state — closures receive the
register files and memory as arguments — so one predecoded artifact is
shared by every :class:`ThreadedVM` running the same program and may be
cached in the :class:`~repro.cache.TranslationCache` (in memory only;
closures do not persist to disk).
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
from repro.jitcore import OMNI_OPS, threaded_closure
from repro.omnivm import semantics
from repro.omnivm.interp import _LOAD_SHAPE, _STORE_SIZE, OmniVM
from repro.omnivm.isa import BRANCH_PREDS, INSTR_SIZE, REG_RA
from repro.omnivm.memory import CODE_BASE
from repro.utils.bits import round_f32, s32, u32

_M = 0xFFFFFFFF
_SIGN = 0x80000000
_WRAP = 0x100000000

__all__ = ["ThreadedProgram", "ThreadedVM", "predecode_program"]


# ---------------------------------------------------------------------------
# straight-line (body) closures: fn(regs, fregs, memory) -> None
# ---------------------------------------------------------------------------

def _compile_load(instr, pc):
    op = instr.op
    rd, rs, rt = instr.rd, instr.rs, instr.rt
    indexed = instr.spec.kind == "loadx"
    size, signed = _LOAD_SHAPE[op[:-1] if indexed else op]
    immu = u32(instr.imm)
    if size == 4:
        if indexed:
            def fn(regs, fregs, memory):
                try:
                    regs[rd] = memory.load_u32((regs[rs] + regs[rt]) & _M)
                except AccessViolation as violation:
                    violation.fault_pc = pc
                    raise
        else:
            def fn(regs, fregs, memory):
                try:
                    regs[rd] = memory.load_u32((regs[rs] + immu) & _M)
                except AccessViolation as violation:
                    violation.fault_pc = pc
                    raise
        return fn
    if indexed:
        def fn(regs, fregs, memory):
            try:
                regs[rd] = memory.load(
                    (regs[rs] + regs[rt]) & _M, size, signed) & _M
            except AccessViolation as violation:
                violation.fault_pc = pc
                raise
    else:
        def fn(regs, fregs, memory):
            try:
                regs[rd] = memory.load(
                    (regs[rs] + immu) & _M, size, signed) & _M
            except AccessViolation as violation:
                violation.fault_pc = pc
                raise
    return fn


def _compile_store(instr, pc):
    op = instr.op
    rd, rs, rt = instr.rd, instr.rs, instr.rt
    indexed = instr.spec.kind == "storex"
    size = _STORE_SIZE[op[:-1] if indexed else op]
    immu = u32(instr.imm)
    if size == 4:
        if indexed:
            def fn(regs, fregs, memory):
                try:
                    memory.store_u32((regs[rs] + regs[rd]) & _M, regs[rt])
                except AccessViolation as violation:
                    violation.fault_pc = pc
                    raise
        else:
            def fn(regs, fregs, memory):
                try:
                    memory.store_u32((regs[rs] + immu) & _M, regs[rt])
                except AccessViolation as violation:
                    violation.fault_pc = pc
                    raise
        return fn
    if indexed:
        def fn(regs, fregs, memory):
            try:
                memory.store((regs[rs] + regs[rd]) & _M, size, regs[rt])
            except AccessViolation as violation:
                violation.fault_pc = pc
                raise
    else:
        def fn(regs, fregs, memory):
            try:
                memory.store((regs[rs] + immu) & _M, size, regs[rt])
            except AccessViolation as violation:
                violation.fault_pc = pc
                raise
    return fn


def _compile_fmem(instr, pc):
    op = instr.op
    kind = instr.spec.kind
    rd, rs, rt = instr.rd, instr.rs, instr.rt
    fd, ft = instr.fd, instr.ft
    immu = u32(instr.imm)
    indexed = kind in ("floadx", "fstorex")
    single = op.startswith(("lfs", "sfs"))
    if kind in ("fload", "floadx"):
        if indexed:
            def addr(regs):
                return (regs[rs] + regs[rt]) & _M
        else:
            def addr(regs):
                return (regs[rs] + immu) & _M
        if single:
            def fn(regs, fregs, memory):
                try:
                    fregs[fd] = memory.load_f32(addr(regs))
                except AccessViolation as violation:
                    violation.fault_pc = pc
                    raise
        else:
            def fn(regs, fregs, memory):
                try:
                    fregs[fd] = memory.load_f64(addr(regs))
                except AccessViolation as violation:
                    violation.fault_pc = pc
                    raise
        return fn
    # fstore / fstorex: the index register is rd (see the ISA format).
    if indexed:
        def addr(regs):
            return (regs[rs] + regs[rd]) & _M
    else:
        def addr(regs):
            return (regs[rs] + immu) & _M
    if single:
        def fn(regs, fregs, memory):
            try:
                memory.store_f32(addr(regs), fregs[ft])
            except AccessViolation as violation:
                violation.fault_pc = pc
                raise
    else:
        def fn(regs, fregs, memory):
            try:
                memory.store_f64(addr(regs), fregs[ft])
            except AccessViolation as violation:
                violation.fault_pc = pc
                raise
    return fn


def _compile_body(instr, pc):
    """Compile one straight-line instruction; None for pure ``nop``."""
    op = instr.op
    row = OMNI_OPS.get(op)
    if row is not None:
        return threaded_closure(row, instr)
    kind = instr.spec.kind
    rd, rs, rt = instr.rd, instr.rs, instr.rt
    if op in ("div", "divu", "rem", "remu"):
        int_divide = semantics.int_divide

        def fn(regs, fregs, memory):
            try:
                regs[rd] = int_divide(op, regs[rs], regs[rt])
            except VMRuntimeError as err:
                err.fault_pc = pc
                raise
        return fn
    if kind in ("load", "loadx"):
        return _compile_load(instr, pc)
    if kind in ("store", "storex"):
        return _compile_store(instr, pc)
    if kind in ("fload", "floadx", "fstore", "fstorex"):
        return _compile_fmem(instr, pc)
    if op in ("fdivs", "fdivd"):
        # FP traps are unattributed: no fault pc.
        fd, fs, ft = instr.fd, instr.fs, instr.ft
        fp_binop = semantics.fp_binop
        if op == "fdivs":
            def fn(regs, fregs, memory):
                fregs[fd] = round_f32(fp_binop("fdiv", fregs[fs], fregs[ft]))
        else:
            def fn(regs, fregs, memory):
                fregs[fd] = fp_binop("fdiv", fregs[fs], fregs[ft])
        return fn
    if op == "nop":
        return None
    raise VMRuntimeError(f"unimplemented opcode {op!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# terminator closures: fn(vm, state, regs) -> next pc
# ---------------------------------------------------------------------------

_TERM_KINDS = frozenset(
    ("branch", "branchi", "jump", "call", "ijump", "icall", "host")
)


def _compile_branch(pred, signed, a_reg, b_reg, b_const, target, next_pc):
    """Compare-and-branch closures (reg/reg and reg/const forms)."""
    rs = a_reg
    rt = b_reg
    if b_const is None:
        if pred == "eq":
            def fn(vm, state, regs):
                return target if regs[rs] == regs[rt] else next_pc
        elif pred == "ne":
            def fn(vm, state, regs):
                return target if regs[rs] != regs[rt] else next_pc
        elif signed:
            if pred == "lt":
                def fn(vm, state, regs):
                    a = regs[rs]
                    b = regs[rt]
                    if a & _SIGN:
                        a -= _WRAP
                    if b & _SIGN:
                        b -= _WRAP
                    return target if a < b else next_pc
            elif pred == "le":
                def fn(vm, state, regs):
                    a = regs[rs]
                    b = regs[rt]
                    if a & _SIGN:
                        a -= _WRAP
                    if b & _SIGN:
                        b -= _WRAP
                    return target if a <= b else next_pc
            elif pred == "gt":
                def fn(vm, state, regs):
                    a = regs[rs]
                    b = regs[rt]
                    if a & _SIGN:
                        a -= _WRAP
                    if b & _SIGN:
                        b -= _WRAP
                    return target if a > b else next_pc
            else:  # ge
                def fn(vm, state, regs):
                    a = regs[rs]
                    b = regs[rt]
                    if a & _SIGN:
                        a -= _WRAP
                    if b & _SIGN:
                        b -= _WRAP
                    return target if a >= b else next_pc
        else:
            if pred == "lt":
                def fn(vm, state, regs):
                    return target if regs[rs] < regs[rt] else next_pc
            elif pred == "le":
                def fn(vm, state, regs):
                    return target if regs[rs] <= regs[rt] else next_pc
            elif pred == "gt":
                def fn(vm, state, regs):
                    return target if regs[rs] > regs[rt] else next_pc
            else:  # ge
                def fn(vm, state, regs):
                    return target if regs[rs] >= regs[rt] else next_pc
        return fn
    b = b_const
    if pred in ("eq", "ne"):
        # The legacy engine compares the raw immediate against the
        # (signed-decoded) register; a constant outside the comparable
        # range can never match, otherwise the comparison folds to a
        # masked 32-bit equality.
        lo, hi = (-(1 << 31), 1 << 31) if signed else (0, 1 << 32)
        if lo <= b < hi:
            bm = b & _M
            if pred == "eq":
                def fn(vm, state, regs):
                    return target if regs[rs] == bm else next_pc
            else:
                def fn(vm, state, regs):
                    return target if regs[rs] != bm else next_pc
        else:
            taken = target if pred == "ne" else next_pc

            def fn(vm, state, regs):
                return taken
        return fn
    if signed:
        if pred == "lt":
            def fn(vm, state, regs):
                a = regs[rs]
                if a & _SIGN:
                    a -= _WRAP
                return target if a < b else next_pc
        elif pred == "le":
            def fn(vm, state, regs):
                a = regs[rs]
                if a & _SIGN:
                    a -= _WRAP
                return target if a <= b else next_pc
        elif pred == "gt":
            def fn(vm, state, regs):
                a = regs[rs]
                if a & _SIGN:
                    a -= _WRAP
                return target if a > b else next_pc
        else:  # ge
            def fn(vm, state, regs):
                a = regs[rs]
                if a & _SIGN:
                    a -= _WRAP
                return target if a >= b else next_pc
    else:
        if pred == "lt":
            def fn(vm, state, regs):
                return target if regs[rs] < b else next_pc
        elif pred == "le":
            def fn(vm, state, regs):
                return target if regs[rs] <= b else next_pc
        elif pred == "gt":
            def fn(vm, state, regs):
                return target if regs[rs] > b else next_pc
        else:  # ge
            def fn(vm, state, regs):
                return target if regs[rs] >= b else next_pc
    return fn


def _compile_term(instr, pc):
    op = instr.op
    kind = instr.spec.kind
    rs = instr.rs
    next_pc = pc + INSTR_SIZE

    if kind == "branch":
        pred, signed = BRANCH_PREDS[op]
        return _compile_branch(pred, signed, rs, instr.rt, None,
                               u32(instr.imm), next_pc)
    if kind == "branchi":
        pred, signed = BRANCH_PREDS[op[:-1]]
        b = instr.imm2 if signed else u32(instr.imm2)
        return _compile_branch(pred, signed, rs, None, b,
                               u32(instr.imm), next_pc)
    if kind == "jump":
        target = u32(instr.imm)

        def fn(vm, state, regs):
            return target
        return fn
    if kind == "call":
        target = u32(instr.imm)

        def fn(vm, state, regs):
            regs[REG_RA] = next_pc
            return target
        return fn
    if kind == "ijump":
        def fn(vm, state, regs):
            return regs[rs]
        return fn
    if kind == "icall":
        def fn(vm, state, regs):
            regs[REG_RA] = next_pc
            return regs[rs]
        return fn
    if kind == "host":
        index = instr.imm

        def fn(vm, state, regs):
            hostcall = vm.hostcall
            if hostcall is None:
                raise VMRuntimeError(
                    "module made a hostcall but no host is attached")
            hostcall(vm, index)
            return next_pc
        return fn
    if op == "trap":
        message = f"module trap {instr.imm}"
        code = instr.imm

        def fn(vm, state, regs):
            raise VMTrap(message, code)
        return fn
    if op == "sethnd":
        def fn(vm, state, regs):
            state.handler = regs[rs]
            return next_pc
        return fn
    raise VMRuntimeError(f"unimplemented opcode {op!r}")  # pragma: no cover


def _compile_step(instr, pc):
    """Predecode one instruction: (is_terminator, closure)."""
    op = instr.op
    if instr.spec.kind in _TERM_KINDS or op in ("trap", "sethnd"):
        return (True, _compile_term(instr, pc))
    return (False, _compile_body(instr, pc))


# ---------------------------------------------------------------------------
# predecoded program + block cache
# ---------------------------------------------------------------------------

class ThreadedProgram:
    """Predecoded form of one linked program.

    ``steps`` is the per-pc dispatch array of bound closures.  ``blocks``
    memoizes basic blocks lazily: any 8-aligned code address can become a
    block entry (indirect jumps and the violation handler land anywhere),
    so blocks are built on first dispatch rather than by static CFG
    discovery.  The artifact holds no VM state and is safely shared
    between VM instances and threads — concurrent block construction for
    the same entry produces identical tuples and the final list store is
    atomic.
    """

    __slots__ = ("instrs", "steps", "blocks", "length")

    def __init__(self, program):
        instrs = program.instrs
        self.instrs = instrs
        self.length = len(instrs)
        self.steps = [
            _compile_step(instr, CODE_BASE + i * INSTR_SIZE)
            for i, instr in enumerate(instrs)
        ]
        self.blocks: list[tuple | None] = [None] * len(instrs)

    def build_block(self, index):
        """Build (and memoize) the basic block entered at *index*.

        A block is ``(body, count, term, term_pc)``: a tuple of
        straight-line closures (``nop`` compiles to none), the number of
        instructions a completed block retires (body plus terminator),
        the terminator closure (None when the block falls off the end of
        the code segment), and the terminator's pc.
        """
        steps = self.steps
        n = self.length
        body = []
        term = None
        i = index
        while i < n:
            is_term, fn = steps[i]
            if is_term:
                term = fn
                break
            if fn is not None:
                body.append(fn)
            i += 1
        count = i - index + (term is not None)
        block = (tuple(body), count, term, CODE_BASE + i * INSTR_SIZE)
        self.blocks[index] = block
        return block


def predecode_program(program) -> ThreadedProgram:
    """Run the predecode pass, reporting ``execute.predecode_ms``."""
    start = time.perf_counter()
    threaded = ThreadedProgram(program)
    if metrics.active():
        metrics.count("execute.predecode_ms",
                      (time.perf_counter() - start) * 1000.0)
    return threaded


# ---------------------------------------------------------------------------
# the threaded VM
# ---------------------------------------------------------------------------

class ThreadedVM(OmniVM):
    """OmniVM with the threaded-code dispatch loop.

    Semantics match the reference interpreter bit-for-bit on the
    difftest corpus; the only relaxation is fuel granularity — fuel and
    ``instret`` are charged per basic block, so :class:`FuelExhausted`
    (and the service watchdog's deadline cut, which zeroes ``fuel``
    asynchronously) land at the next block boundary, at most one block
    late.  A program that *completes* at exactly its fuel budget still
    completes, as under the legacy engine.

    When ``count_opcodes`` is set the VM falls back to the legacy
    per-instruction loop so instruction-mix instrumentation observes
    every opcode individually.
    """

    def __init__(self, program, memory, hostcall=None, fuel=50_000_000,
                 threaded: ThreadedProgram | None = None):
        super().__init__(program, memory, hostcall, fuel)
        self._threaded = (threaded if threaded is not None
                          else predecode_program(program))
        self._blocks_run = 0

    def run(self, entry=None):
        blocks_before = self._blocks_run
        try:
            return super().run(entry)
        finally:
            if metrics.active():
                blocks = self._blocks_run - blocks_before
                if blocks:
                    metrics.count("execute.blocks", blocks)

    def _run_loop(self, state, instrs, sentinel):
        if self.count_opcodes:
            # Instruction-mix instrumentation needs per-instruction
            # dispatch; the legacy loop is the measurement path.
            return OmniVM._run_loop(self, state, instrs, sentinel)
        program = self._threaded
        blocks = program.blocks
        build = program.build_block
        n = program.length
        regs = state.regs
        fregs = state.fregs
        memory = self.memory
        blocks_run = 0
        try:
            while not state.halted:
                pc = state.pc
                if pc == sentinel:
                    break
                offset = pc - CODE_BASE
                index = offset >> 3
                if offset & 7 or index < 0 or index >= n:
                    raise AccessViolation(
                        f"execute at bad address {pc:#010x}", pc, "execute"
                    )
                block = blocks[index]
                if block is None:
                    block = build(index)
                body, count, term, term_pc = block
                blocks_run += 1
                try:
                    for fn in body:
                        fn(regs, fregs, memory)
                except AccessViolation as violation:
                    # The faulting closure annotated its own pc; charge
                    # exactly the retired prefix, then deliver.
                    fault_pc = violation.fault_pc
                    state.instret += ((fault_pc - pc) >> 3) + 1
                    state.pc = fault_pc
                    self._deliver_violation(violation)
                    if state.instret > self.fuel:
                        raise FuelExhausted(
                            f"exceeded fuel of {self.fuel} instructions"
                        )
                    continue
                except VMRuntimeError as err:
                    fault_pc = getattr(err, "fault_pc", None)
                    if fault_pc is not None:
                        state.instret += ((fault_pc - pc) >> 3) + 1
                        state.pc = fault_pc
                    raise
                state.instret += count
                state.pc = term_pc
                if term is not None:
                    try:
                        state.pc = term(self, state, regs)
                    except AccessViolation as violation:
                        # A hostcall that faulted reading module memory:
                        # it has retired, as under the legacy loop.
                        state.pc = term_pc
                        self._deliver_violation(violation)
                        if state.instret > self.fuel:
                            raise FuelExhausted(
                                f"exceeded fuel of {self.fuel} instructions"
                            )
                        continue
                if state.instret > self.fuel and not state.halted:
                    raise FuelExhausted(
                        f"exceeded fuel of {self.fuel} instructions"
                    )
        finally:
            self._blocks_run += blocks_run
        return s32(state.regs[1]) if not state.halted else state.exit_code
