"""Trace-based superblock JIT tier for OmniVM.

The threaded engine (:mod:`repro.omnivm.threaded`) predecodes every
instruction into a bound closure and batches straight-line runs into
basic blocks, but each dynamic instruction still costs at least one
Python call.  This module adds the third tier the ROADMAP names: when a
block entry crosses a heat threshold, the hot chain is stitched across
likely-taken branches into a **superblock** — one entry, many exits —
and the whole superblock is compiled to a *single* generated Python
function via source generation + ``compile()``/``exec``.  Register
indexes, immediates, guard constants and fault pcs are folded into the
emitted source as literals, so a hot loop iteration executes as one
Python frame with no per-instruction dispatch at all.

Tiering contract (the deopt contract):

* superblocks are entered only at their entry pc; every **side exit**
  (mispredicted guard, indirect jump, return, host halt, trace limit)
  commits exact architectural state — ``state.pc`` and
  ``state.instret`` — before returning to the threaded tier, which
  resumes as if it had executed every instruction itself;
* faults inside a superblock (access violations, division traps,
  ``trap``) commit the exact retired prefix and annotate ``fault_pc``
  with the faulting instruction's pc, byte-identical to the threaded
  engine's block fault accounting;
* loop-shaped superblocks close back on their entry and check fuel at
  the backedge, so block-level fuel cuts (including the service
  watchdog's asynchronous ``fuel = -1``) still land promptly.  Fuel
  granularity is the one documented relaxation, as for the threaded
  tier: :class:`~repro.errors.FuelExhausted` lands at the next
  superblock boundary rather than the next basic block.

Trace formation is static and deterministic.  A conditional branch is
resolved three ways, in priority order: an edge back to the trace entry
is predicted toward the entry so loops close regardless of layout (the
front end lays loop tests *below* their bodies, so backedges are often
forward taken branches); a short forward branch over straight-line code
— an ``if``/``then`` or ``if``/``then``/``else`` diamond — has **both
arms inlined** with no side exit at all; anything else falls back to
backward-taken/forward-not-taken with a guarded side exit.  Because the
two arms of a diamond retire different instruction counts, a trace
containing one switches from compile-time-constant instret offsets to a
runtime retired counter ``_n``, synced once per arm at each join.  The
emitted source for a given program remains a pure function of the
instruction stream — two predecode runs of the same program produce
byte-identical superblock source (pinned by tests; no ``id()`` or
hash/dict iteration order may leak into the emitted code).

Compiled superblocks bind no VM state (they receive the register files
and memory as arguments), so — like the predecode artifact — they are
shared between VM instances via the in-memory predecode side table of
:class:`~repro.cache.TranslationCache` under ``("jit-omni", digest,
entry)`` keys, which module revocation invalidates together with the
``("predecode-*", ...)`` entries.
"""

from __future__ import annotations

import time

from repro import metrics
from repro.errors import (
    AccessViolation,
    FuelExhausted,
    VMRuntimeError,
)
from repro.jitcore import (
    CMP as _CMP,
    CMP_INV as _CMP_INV,
    FLUSH as _FLUSH,
    JIT_HEAT,
    MAX_TRACE_BLOCKS,
    MAX_TRACE_INSTRS,
    Acct as _Acct,
    Emitter as _Emitter,
    SideExitPromotion,
    base_exec_globals,
    emit_cvt as _emit_cvt,
    emit_ext as _emit_ext,
    emit_load_refill as _emit_load_refill,
    emit_s32 as _emit_s32,
    emit_store_refill as _emit_store_refill,
)
from repro.omnivm import semantics
from repro.omnivm.interp import _IMM_TO_REG_OP, _LOAD_SHAPE, _STORE_SIZE, OmniVM
from repro.omnivm.isa import BRANCH_PREDS, INSTR_SIZE, REG_RA, SET_PREDS
from repro.omnivm.memory import CODE_BASE
from repro.omnivm.threaded import _TERM_KINDS, ThreadedVM
from repro.utils.bits import s32, u32

_M = 0xFFFFFFFF
_SIGN = 0x80000000

#: Longest arm (in instructions) an inlined branch diamond may have.
MAX_DIAMOND_ARM = 8

__all__ = [
    "JIT_HEAT",
    "JitVM",
    "compile_superblock",
    "superblock_source",
]

#: Names the generated source may reference; a fresh copy becomes the
#: module namespace of each exec'd superblock (shared with the native
#: JIT — see :func:`repro.jitcore.base_exec_globals`).
_EXEC_GLOBALS = base_exec_globals()

#: FP ops that can raise the (unattributed) arithmetic trap.
_FP_TRAPPING = ("fadd", "fsub", "fmul", "fdiv")


def _emit_commit(em, acct, offset, pc, depth=0):
    em.emit(f"state.instret += {acct.expr(offset)}", depth)
    em.emit(f"state.pc = {pc:#x}", depth)


# ---------------------------------------------------------------------------
# straight-line instruction emission
# ---------------------------------------------------------------------------

def _emit_alu(em, op, rd, rs, rt, const):
    """Reg-reg (``const is None``) or folded-immediate ALU emission,
    mirroring :func:`repro.omnivm.threaded._compile_alu` exactly.

    Signed set-compares use the bias trick — ``(a ^ 0x80000000)``
    compares unsigned exactly as ``a`` compares signed — so no
    sign-extension statements are needed.
    """
    if op in SET_PREDS:
        pred, signed = SET_PREDS[op]
        cmp = _CMP[pred]
        if pred in ("eq", "ne") or not signed:
            b = f"regs[{rt}]" if const is None else str(const)
            em.emit(f"regs[{rd}] = 1 if regs[{rs}] {cmp} {b} else 0")
        else:
            b = (f"(regs[{rt}] ^ {_SIGN:#x})" if const is None
                 else str(const ^ _SIGN))
            em.emit(f"regs[{rd}] = 1 if (regs[{rs}] ^ {_SIGN:#x}) "
                    f"{cmp} {b} else 0")
        return
    b = f"regs[{rt}]" if const is None else str(const)
    if op == "add":
        em.emit(f"regs[{rd}] = (regs[{rs}] + {b}) & {_M:#x}")
    elif op == "sub":
        em.emit(f"regs[{rd}] = (regs[{rs}] - {b}) & {_M:#x}")
    elif op == "mul":
        em.emit(f"regs[{rd}] = (regs[{rs}] * {b}) & {_M:#x}")
    elif op == "and":
        em.emit(f"regs[{rd}] = regs[{rs}] & {b}")
    elif op == "or":
        em.emit(f"regs[{rd}] = regs[{rs}] | {b}")
    elif op == "xor":
        em.emit(f"regs[{rd}] = regs[{rs}] ^ {b}")
    elif op in ("sll", "srl", "sra"):
        sh = f"(regs[{rt}] & 31)" if const is None else str(const & 31)
        if op == "sll":
            em.emit(f"regs[{rd}] = (regs[{rs}] << {sh}) & {_M:#x}")
        elif op == "srl":
            em.emit(f"regs[{rd}] = regs[{rs}] >> {sh}")
        else:
            _emit_s32(em, "_a", rs)
            em.emit(f"regs[{rd}] = (_a >> {sh}) & {_M:#x}")
    else:  # pragma: no cover - spec table guarantees coverage
        raise VMRuntimeError(f"unknown ALU op {op!r}")


def _emit_mem_guard(em, acct, pc, offset, depth=0):
    """The access-violation wrapper every slow-path access carries."""
    em.emit("except AccessViolation as violation:", depth)
    em.emit(f"violation.fault_pc = {pc:#x}", depth + 1)
    _emit_commit(em, acct, offset, pc, depth + 1)
    em.emit("raise", depth + 1)


def _mem_addr(rs, other, immu, indexed):
    base = f"regs[{rs}] + regs[{other}]" if indexed else f"regs[{rs}] + {immu}"
    return f"({base}) & {_M:#x}"


# The generated code keeps a *per-site* inline cache for every static
# load and store in the trace: locals ``(_lb{s}, _ll{s}, _ld{s})`` for
# the segment a load site last hit and ``(_sb{s}, _sl{s}, _sd{s})`` for
# a store site — base, limit, and backing bytearray.  A hit costs two
# local-int compares and a struct access, no attribute lookups and no
# calls.  A miss takes the Memory accessor (which raises the exact
# documented AccessViolation) and refills that site's cache from
# ``memory._last``, which every successful slow-path access leaves
# pointing at the serving segment with the permission just exercised.
# One shared cache thrashes as soon as a loop touches two segments
# (table in data, buffer on the heap); per-site caches miss once each
# and then hit for the rest of the loop.  Only a hostcall can change
# segment permissions mid-trace, so every site is flushed after each
# inlined hostcall (patched in at assembly time via ``_FLUSH`` so a
# hostcall early in a loop also drops sites emitted after it).
# (The cache emission helpers themselves live in repro.jitcore.)


def _emit_load_cached(em, acct, pc, offset, addr, size, fast_lines,
                      slow_stmt):
    sid = em.load_site()
    em.emit(f"_ad = {addr}")
    if size == 1:
        em.emit(f"if _lb{sid} <= _ad < _ll{sid}:")
    else:
        em.emit(f"if _lb{sid} <= _ad and _ad + {size} <= _ll{sid}:")
    for line in fast_lines:
        em.emit(line.format(s=sid), 1)
    em.emit("else:")
    em.emit("try:", 1)
    em.emit(slow_stmt, 2)
    _emit_mem_guard(em, acct, pc, offset, 1)
    _emit_load_refill(em, sid, 1)


def _emit_load(em, acct, instr, pc, offset):
    indexed = instr.spec.kind == "loadx"
    size, signed = _LOAD_SHAPE[instr.op[:-1] if indexed else instr.op]
    addr = _mem_addr(instr.rs, instr.rt, u32(instr.imm), indexed)
    rd = instr.rd
    if size == 4:
        fast = [f"regs[{rd}] = u32_at(_ld{{s}}, _ad - _lb{{s}})[0]"]
        slow = f"regs[{rd}] = memory.load_u32(_ad)"
    else:
        slow = (f"regs[{rd}] = memory.load(_ad, {size}, {signed})"
                f" & {_M:#x}")
        if size == 1:
            if signed:
                fast = ["_v = _ld{s}[_ad - _lb{s}]",
                        f"regs[{rd}] = _v | 0xffffff00 if _v & 0x80 else _v"]
            else:
                fast = [f"regs[{rd}] = _ld{{s}}[_ad - _lb{{s}}]"]
        elif signed:
            fast = ["_v = u16_at(_ld{s}, _ad - _lb{s})[0]",
                    f"regs[{rd}] = _v | 0xffff0000 if _v & 0x8000 else _v"]
        else:
            fast = [f"regs[{rd}] = u16_at(_ld{{s}}, _ad - _lb{{s}})[0]"]
    _emit_load_cached(em, acct, pc, offset, addr, size, fast, slow)


def _emit_store(em, acct, instr, pc, offset):
    indexed = instr.spec.kind == "storex"
    size = _STORE_SIZE[instr.op[:-1] if indexed else instr.op]
    # Indexed stores use rd as the index register (see the ISA format).
    addr = _mem_addr(instr.rs, instr.rd, u32(instr.imm), indexed)
    rt = instr.rt
    sid = em.store_site()
    if size == 4:
        fast = f"put_u32(_sd{sid}, _ad - _sb{sid}, regs[{rt}])"
        slow = f"memory.store_u32(_ad, regs[{rt}])"
    else:
        slow = f"memory.store(_ad, {size}, regs[{rt}])"
        if size == 1:
            fast = f"_sd{sid}[_ad - _sb{sid}] = regs[{rt}] & 0xff"
        else:
            fast = f"put_u16(_sd{sid}, _ad - _sb{sid}, regs[{rt}] & 0xffff)"
    em.emit(f"_ad = {addr}")
    if size == 1:
        em.emit(f"if _sb{sid} <= _ad < _sl{sid}:")
    else:
        em.emit(f"if _sb{sid} <= _ad and _ad + {size} <= _sl{sid}:")
    em.emit(fast, 1)
    em.emit("memory.write_count += 1", 1)
    em.emit("else:")
    em.emit("try:", 1)
    em.emit(slow, 2)
    _emit_mem_guard(em, acct, pc, offset, 1)
    _emit_store_refill(em, sid, 1)


def _emit_fmem(em, acct, instr, pc, offset):
    kind = instr.spec.kind
    indexed = kind in ("floadx", "fstorex")
    single = instr.op.startswith(("lfs", "sfs"))
    width = "f32" if single else "f64"
    size = 4 if single else 8
    if kind in ("fload", "floadx"):
        addr = _mem_addr(instr.rs, instr.rt, u32(instr.imm), indexed)
        fast = [f"fregs[{instr.fd}] = {width}_at(_ld{{s}}, "
                f"_ad - _lb{{s}})[0]"]
        slow = f"fregs[{instr.fd}] = memory.load_{width}(_ad)"
        _emit_load_cached(em, acct, pc, offset, addr, size, fast, slow)
        return
    # fstore / fstorex: the index register is rd.
    addr = _mem_addr(instr.rs, instr.rd, u32(instr.imm), indexed)
    if single:
        # f32 stores round the double operand (overflowing to signed
        # infinity) before reinterpreting — keep the accessor call.
        em.emit("try:")
        em.emit(f"    memory.store_f32({addr}, fregs[{instr.ft}])")
        _emit_mem_guard(em, acct, pc, offset)
        return
    sid = em.store_site()
    em.emit(f"_ad = {addr}")
    em.emit(f"if _sb{sid} <= _ad and _ad + 8 <= _sl{sid}:")
    em.emit(f"put_f64(_sd{sid}, _ad - _sb{sid}, fregs[{instr.ft}])", 1)
    # store_f64 issues two word stores; mirror its write accounting.
    em.emit("memory.write_count += 2", 1)
    em.emit("else:")
    em.emit("try:", 1)
    em.emit(f"memory.store_f64(_ad, fregs[{instr.ft}])", 2)
    _emit_mem_guard(em, acct, pc, offset, 1)
    _emit_store_refill(em, sid, 1)


def _emit_falu(em, acct, instr, nb, block_pc):
    op = instr.op
    base = op[:-1]
    single = op in ("fadds", "fsubs", "fmuls", "fdivs",
                    "fnegs", "fabss", "fmovs")
    if op in ("fmovs", "fmovd", "fnegs", "fnegd", "fabss", "fabsd"):
        expr = {"fmov": f"fregs[{instr.fs}]",
                "fneg": f"-fregs[{instr.fs}]",
                "fabs": f"abs(fregs[{instr.fs}])"}[base]
        if single:
            expr = f"round_f32({expr})"
        em.emit(f"fregs[{instr.fd}] = {expr}")
        return
    # Inline the arithmetic: CPython float +,-,*,/ overflow to inf
    # without raising, so only fdiv's explicit zero check can trap.
    # FP traps are unattributed in the threaded tier: instret stays at
    # the previous block boundary and pc at the block entry.
    fs, ft = instr.fs, instr.ft
    if base == "fdiv":
        em.emit(f"if fregs[{ft}] == 0.0:")
        _emit_commit(em, acct, nb, block_pc, 1)
        em.emit(f"    raise VMRuntimeError({semantics.FP_DIV_ZERO_MSG!r})")
        expr = f"fregs[{fs}] / fregs[{ft}]"
    else:
        sym = {"fadd": "+", "fsub": "-", "fmul": "*"}[base]
        expr = f"fregs[{fs}] {sym} fregs[{ft}]"
    if single:
        expr = f"round_f32({expr})"
    em.emit(f"fregs[{instr.fd}] = {expr}")


def _emit_body_instr(em, acct, instr, pc, offset, nb, block_pc):
    """Emit one straight-line instruction.

    ``offset`` counts instructions retired *through this one* since the
    accounting base point; ``nb``/``block_pc`` identify the enclosing
    threaded basic block for unattributed-trap accounting.
    """
    op = instr.op
    kind = instr.spec.kind
    if kind == "alu":
        if op in ("div", "divu", "rem", "remu"):
            em.emit("try:")
            em.emit(f"    regs[{instr.rd}] = int_divide({op!r}, "
                    f"regs[{instr.rs}], regs[{instr.rt}])")
            em.emit("except VMRuntimeError as err:")
            em.emit(f"    err.fault_pc = {pc:#x}")
            _emit_commit(em, acct, offset, pc, 1)
            em.emit("    raise")
        else:
            _emit_alu(em, op, instr.rd, instr.rs, instr.rt, None)
    elif kind == "alui":
        _emit_alu(em, _IMM_TO_REG_OP[op], instr.rd, instr.rs, None,
                  u32(instr.imm))
    elif kind == "li":
        em.emit(f"regs[{instr.rd}] = {u32(instr.imm)}")
    elif kind == "mov":
        em.emit(f"regs[{instr.rd}] = regs[{instr.rs}]")
    elif kind in ("load", "loadx"):
        _emit_load(em, acct, instr, pc, offset)
    elif kind in ("store", "storex"):
        _emit_store(em, acct, instr, pc, offset)
    elif kind in ("fload", "floadx", "fstore", "fstorex"):
        _emit_fmem(em, acct, instr, pc, offset)
    elif kind == "falu":
        _emit_falu(em, acct, instr, nb, block_pc)
    elif kind == "fcmp":
        cmp = _CMP[{"fceq": "eq", "fclt": "lt", "fcle": "le"}[op[:-1]]]
        em.emit(f"regs[{instr.rd}] = 1 if fregs[{instr.fs}] {cmp} "
                f"fregs[{instr.ft}] else 0")
    elif kind == "cvt":
        _emit_cvt(em, instr)
    elif kind == "ext":
        _emit_ext(em, instr)
    elif op == "nop":
        pass
    else:  # pragma: no cover - verifier rejects unknown opcodes
        raise VMRuntimeError(f"unimplemented opcode {op!r}")


# ---------------------------------------------------------------------------
# conditional branches: folds, inlined diamonds, guarded side exits
# ---------------------------------------------------------------------------

def _emit_side_exit(em, acct, offset, pc, depth=0, deopt=None):
    if deopt:
        # A guarded deopt notifies the promotion policy (which also
        # counts it) so hot side exits can be re-formed; *deopt* is the
        # pre-built ``vm._note_exit(...)`` statement.
        em.emit(deopt, depth)
    _emit_commit(em, acct, offset, pc, depth)
    em.emit("return", depth)


def _fold_branchi(instr):
    """Mirror (and extend) the threaded engine's constant folding for
    compare-immediate branches whose constant is outside the operand
    domain.  Returns ``True``/``False`` for an always/never-taken
    branch, ``None`` when the outcome is data-dependent."""
    if instr.spec.kind != "branchi":
        return None
    pred, signed = BRANCH_PREDS[instr.op[:-1]]
    b = instr.imm2 if signed else u32(instr.imm2)
    lo, hi = (-(1 << 31), 1 << 31) if signed else (0, 1 << 32)
    if lo <= b < hi:
        return None
    if pred == "eq":
        return False
    if pred == "ne":
        return True
    # Ordered compare against an out-of-domain constant: every operand
    # value is on the same side of it.
    if b >= hi:
        return pred in ("lt", "le")
    return pred in ("gt", "ge")


def _branch_terms(instr):
    """Operand strings for a conditional branch's predicate.  Signed
    compares use the bias trick (``x ^ 0x80000000`` orders unsigned as
    ``x`` orders signed), so no sign-extension statements are needed.
    Returns ``(pred, lhs, rhs)``."""
    rs = instr.rs
    if instr.spec.kind == "branch":
        pred, signed = BRANCH_PREDS[instr.op]
        if pred in ("eq", "ne") or not signed:
            return pred, f"regs[{rs}]", f"regs[{instr.rt}]"
        return (pred, f"(regs[{rs}] ^ {_SIGN:#x})",
                f"(regs[{instr.rt}] ^ {_SIGN:#x})")
    pred, signed = BRANCH_PREDS[instr.op[:-1]]
    b = instr.imm2 if signed else u32(instr.imm2)
    if pred in ("eq", "ne"):
        return pred, f"regs[{rs}]", str(b & _M)
    if signed:
        return pred, f"(regs[{rs}] ^ {_SIGN:#x})", str(u32(b) ^ _SIGN)
    return pred, f"regs[{rs}]", str(b)


def _straight_line(instrs, start, stop):
    """True when ``instrs[start:stop]`` contains no terminator."""
    for k in range(start, stop):
        spec_kind = instrs[k].spec.kind
        if spec_kind in _TERM_KINDS or instrs[k].op in ("trap", "sethnd"):
            return False
    return True


def _join_blocks_fp_trap(instrs, n, join):
    """True when a trapping FP op appears between *join* and the next
    terminator.  Past a join the enclosing threaded block differs per
    arm, and FP traps are *block*-attributed, so such a region cannot
    share one emission for both arms."""
    k = join
    while k < n:
        instr = instrs[k]
        if instr.spec.kind in _TERM_KINDS or instr.op in ("trap", "sethnd"):
            return False
        if instr.spec.kind == "falu" and instr.op[:-1] in _FP_TRAPPING:
            return True
        k += 1
    return False


def _find_diamond(instrs, n, pc, target):
    """Recognise a short forward branch over straight-line code.

    Returns ``None`` or ``(join_index, fall_arm, taken_arm, jump)``
    where the arms are ``(start_index, stop_index)`` instruction ranges
    (the taken arm is empty for a plain if/then) and ``jump`` is True
    when the fall arm additionally retires a ``jump`` to the join.
    """
    fall = pc + INSTR_SIZE
    if target <= fall or (target - CODE_BASE) & 7:
        return None
    fall_i = (fall - CODE_BASE) >> 3
    t_i = (target - CODE_BASE) >> 3
    if t_i >= n or t_i - fall_i > MAX_DIAMOND_ARM:
        return None
    if _straight_line(instrs, fall_i, t_i):
        # if/then: the branch skips the arm.
        if _join_blocks_fp_trap(instrs, n, t_i):
            return None
        return t_i, (fall_i, t_i), (t_i, t_i), False
    # if/then/else: fall arm ends in a jump to the join; the taken arm
    # is laid out at the branch target and falls into the join.
    tail = instrs[t_i - 1]
    if tail.spec.kind != "jump" or not _straight_line(instrs, fall_i,
                                                      t_i - 1):
        return None
    join = u32(tail.imm)
    if join < target or (join - CODE_BASE) & 7:
        return None
    j_i = (join - CODE_BASE) >> 3
    if j_i >= n or j_i - t_i > MAX_DIAMOND_ARM:
        return None
    if not _straight_line(instrs, t_i, j_i):
        return None
    if _join_blocks_fp_trap(instrs, n, j_i):
        return None
    return j_i, (fall_i, t_i - 1), (t_i, j_i), True


def _emit_arm(em, acct, instrs, arm, offset, block_pc, depth):
    """Emit one diamond arm (its own threaded block, entered at
    *block_pc* with *offset* instructions retired)."""
    sub = _Emitter(em)
    start, stop = arm
    aoff = offset
    for k in range(start, stop):
        pc = CODE_BASE + k * INSTR_SIZE
        aoff += 1
        _emit_body_instr(sub, acct, instrs[k], pc, aoff, offset, block_pc)
    pad = "    " * depth
    em.lines.extend(pad + line for line in sub.lines)
    return aoff


def _emit_branch(em, acct, instrs, n, instr, pc, offset, entry_pc,
                 entry_index, overrides):
    """Emit a conditional branch and return ``(continuation_pc,
    new_offset, extra_instrs)``.

    *offset* counts retired instructions including this branch.  Most
    branches become a guarded side exit and leave the offset alone; an
    inlined diamond resets it to zero (the join becomes the new
    accounting base) and reports how many arm instructions it emitted.
    *overrides* maps branch pcs to promoted predictions (see
    :class:`repro.jitcore.SideExitPromotion`); they replace only the
    BTFN default — loop closure and diamonds keep priority.
    """
    target = u32(instr.imm)
    fall = pc + INSTR_SIZE
    folded = _fold_branchi(instr)
    if folded is not None:
        return (target if folded else fall), offset, 0
    pred, lhs, rhs = _branch_terms(instr)
    # Loop closure has priority: an edge back to the trace entry is a
    # backedge regardless of layout, so predict toward the entry.
    if target == entry_pc:
        predict_taken = True
    elif fall == entry_pc:
        predict_taken = False
    else:
        diamond = _find_diamond(instrs, n, pc, target)
        if diamond is not None:
            join_i, fall_arm, taken_arm, jump = diamond
            if fall_arm[0] == fall_arm[1] and taken_arm[0] == taken_arm[1] \
                    and not jump:
                # Branch to the next instruction: both paths agree.
                return target, offset, 0
            sync = "_n +=" if acct.runtime else "_n ="
            taken_len = taken_arm[1] - taken_arm[0]
            fall_len = fall_arm[1] - fall_arm[0] + (1 if jump else 0)
            em.emit(f"if {lhs} {_CMP[pred]} {rhs}:")
            _emit_arm(em, acct, instrs, taken_arm, offset, target, 1)
            em.emit(f"{sync} {offset + taken_len}", 1)
            em.emit("else:")
            _emit_arm(em, acct, instrs, fall_arm, offset, fall, 1)
            em.emit(f"{sync} {offset + fall_len}", 1)
            acct.runtime = True
            return (CODE_BASE + join_i * INSTR_SIZE, 0,
                    taken_len + fall_len)
        if pc in overrides:
            predict_taken = overrides[pc]
        else:
            predict_taken = target <= pc
    exit_pred = _CMP_INV[pred] if predict_taken else pred
    exit_pc = fall if predict_taken else target
    em.emit(f"if {lhs} {_CMP[exit_pred]} {rhs}:")
    _emit_side_exit(em, acct, offset, exit_pc, 1,
                    deopt=f"vm._note_exit({entry_index}, {pc:#x}, "
                          f"{not predict_taken}, {exit_pc:#x})")
    return (target if predict_taken else fall), offset, 0


# ---------------------------------------------------------------------------
# trace formation + source generation
# ---------------------------------------------------------------------------

def superblock_source(program, entry_index: int, overrides=None) -> str:
    """Form the superblock entered at *entry_index* and generate its
    Python source.  Deterministic: the output is a pure function of
    ``program.instrs``, the entry, and the (per-VM) prediction
    *overrides* (pinned by the determinism test).
    """
    overrides = overrides or {}
    instrs = program.instrs
    n = program.length
    em = _Emitter()
    acct = _Acct()
    entry_pc = CODE_BASE + entry_index * INSTR_SIZE
    end_pc = CODE_BASE + n * INSTR_SIZE

    visited: set[int] = set()
    index = entry_index
    off = 0    # instructions retired since the accounting base
    total = 0  # instructions emitted, for the header and trace limits
    looped = False
    open_trace = True
    while open_trace:
        if index in visited:
            if index == entry_index:
                looped = True
            else:
                pc = CODE_BASE + index * INSTR_SIZE
                em.emit(f"# rejoin @{pc:#010x}: exit to the threaded tier")
                _emit_side_exit(em, acct, off, pc)
            break
        if len(visited) >= MAX_TRACE_BLOCKS or total >= MAX_TRACE_INSTRS:
            pc = CODE_BASE + index * INSTR_SIZE
            em.emit(f"# trace limit @{pc:#010x}: exit to the threaded tier")
            _emit_side_exit(em, acct, off, pc)
            break
        visited.add(index)
        nb = off
        block_pc = CODE_BASE + index * INSTR_SIZE
        em.emit(f"# block @{block_pc:#010x}")
        # -- straight-line body ------------------------------------------
        i = index
        instr = None
        while i < n:
            instr = instrs[i]
            if instr.spec.kind in _TERM_KINDS or instr.op in ("trap",
                                                              "sethnd"):
                break
            pc = CODE_BASE + i * INSTR_SIZE
            off += 1
            total += 1
            _emit_body_instr(em, acct, instr, pc, off, nb, block_pc)
            i += 1
        else:
            # Fell off the end of the code segment: the threaded tier
            # resolves this as an execute fault at the end address.
            _emit_side_exit(em, acct, off, end_pc)
            break
        # -- terminator --------------------------------------------------
        pc = CODE_BASE + i * INSTR_SIZE
        kind = instr.spec.kind
        op = instr.op
        next_pc = pc + INSTR_SIZE
        off += 1
        total += 1
        if kind in ("branch", "branchi"):
            cont, off, extra = _emit_branch(em, acct, instrs, n, instr,
                                            pc, off, entry_pc,
                                            entry_index, overrides)
            total += extra
        elif kind == "jump":
            cont = u32(instr.imm)
        elif kind == "call":
            em.emit(f"regs[{REG_RA}] = {next_pc:#x}")
            cont = u32(instr.imm)
        elif kind in ("ijump", "icall"):
            if kind == "icall":
                em.emit(f"regs[{REG_RA}] = {next_pc:#x}")
            em.emit(f"state.instret += {acct.expr(off)}")
            em.emit(f"state.pc = regs[{instr.rs}]")
            em.emit("return")
            break
        elif kind == "host":
            em.emit("if vm.hostcall is None:")
            _emit_commit(em, acct, off, pc, 1)
            em.emit("    raise VMRuntimeError("
                    "'module made a hostcall but no host is attached')")
            em.emit("try:")
            em.emit(f"    vm.hostcall(vm, {instr.imm})")
            em.emit("except AccessViolation as violation:")
            em.emit("    _fp = getattr(violation, 'fault_pc', None)")
            em.emit("    if _fp is None:")
            em.emit(f"        _fp = {pc:#x}")
            em.emit("        violation.fault_pc = _fp", 0)
            em.emit(f"    state.instret += {acct.expr(off)}")
            em.emit("    state.pc = _fp")
            em.emit("    raise")
            # Host services may change segment permissions; drop every
            # inline-cache site (expanded at assembly time, once the
            # full site list is known — a loop can revisit sites that
            # are emitted after this hostcall).
            em.emit(_FLUSH)
            em.emit("if state.halted:")
            _emit_commit(em, acct, off, next_pc, 1)
            em.emit("    return")
            cont = next_pc
        elif op == "trap":
            _emit_commit(em, acct, off, pc)
            em.emit(f"raise VMTrap({f'module trap {instr.imm}'!r}, "
                    f"{instr.imm})")
            break
        else:  # sethnd
            em.emit(f"state.handler = regs[{instr.rs}]")
            cont = next_pc
        # -- continuation ------------------------------------------------
        offset = cont - CODE_BASE
        if offset & 7 or offset < 0 or (offset >> 3) >= n:
            # Out-of-segment continuation: the threaded dispatcher owns
            # the resulting execute fault (or sentinel stop).
            _emit_side_exit(em, acct, off, cont)
            break
        index = offset >> 3

    # -- assemble ---------------------------------------------------------
    # The superblock is a closure: the inline-cache sites live in cells
    # of the enclosing ``_make_superblock`` scope, so they survive
    # across invocations — a short trace dispatched thousands of times
    # warms each site once, not once per call.  The entry guard flushes
    # every site when the function is handed a different Memory (the
    # compiled fn is shared across VMs of the same program content) or
    # when segment permissions changed since the last call.
    cells = []
    for s in em.load_sites:
        cells += [f"_lb{s}", f"_ll{s}", f"_ld{s}"]
    for s in em.store_sites:
        cells += [f"_sb{s}", f"_sl{s}", f"_sd{s}"]
    invalidate = " = ".join(
        [f"_lb{s} = _ll{s}" for s in em.load_sites]
        + [f"_sb{s} = _sl{s}" for s in em.store_sites]
    )
    out = [f"# superblock @{entry_pc:#010x} "
           f"({len(visited)} blocks, {total} instrs"
           f"{', looped' if looped else ''})",
           "def _make_superblock():"]
    body = "    "
    if cells:
        out.append("    _mem = None")
        out.append("    _ep = 0")
        out.append(f"    {invalidate} = 0")
        names = " = ".join(f"_ld{s}" for s in em.load_sites)
        if names:
            out.append(f"    {names} = None")
        names = " = ".join(f"_sd{s}" for s in em.store_sites)
        if names:
            out.append(f"    {names} = None")
    out.append("    def _superblock(vm, state, regs, fregs, memory):")
    body = "        "
    if cells:
        decl = ["_mem", "_ep"] + cells
        for i in range(0, len(decl), 8):
            out.append(body + "nonlocal " + ", ".join(decl[i:i + 8]))
        out.append(body + "if _mem is not memory "
                          "or _ep != memory.perm_epoch:")
        out.append(body + "    _mem = memory")
        out.append(body + "    _ep = memory.perm_epoch")
        out.append(body + f"    {invalidate} = 0")
    pad = body
    if looped:
        out.append(body + "while True:")
        pad = body + "    "
    for line in em.lines:
        if line.lstrip() == _FLUSH:
            if cells:
                indent = line[:len(line) - len(line.lstrip())]
                out.append(pad + indent + invalidate + " = 0")
                out.append(pad + indent + "_ep = memory.perm_epoch")
            continue
        out.append(pad + line)
    if looped:
        # Backedge: commit the iteration, honour block-level fuel cuts
        # (the watchdog zeroes vm.fuel asynchronously), and go again.
        out.append(pad + f"# backedge -> @{entry_pc:#010x}")
        out.append(pad + f"state.instret += {acct.expr(off)}")
        out.append(pad + "if state.instret > vm.fuel:")
        out.append(pad + f"    state.pc = {entry_pc:#x}")
        out.append(pad + "    raise FuelExhausted("
                   "'exceeded fuel of %d instructions' % (vm.fuel,))")
    out.append("    return _superblock")
    out.append("_superblock = _make_superblock()")
    return "\n".join(out) + "\n"


def compile_superblock(program, entry_index: int, overrides=None):
    """Compile the superblock entered at *entry_index*.

    Returns ``(source, function)``; the function has the signature
    ``fn(vm, state, regs, fregs, memory)`` and binds no VM state, so it
    is shareable across VMs (and cacheable under ``("jit-omni", digest,
    entry)`` keys — but only when compiled without *overrides*, which
    encode one VM's runtime profile).
    """
    source = superblock_source(program, entry_index, overrides)
    entry_pc = CODE_BASE + entry_index * INSTR_SIZE
    code = compile(source, f"<jit-omni@{entry_pc:#010x}>", "exec")
    namespace = dict(_EXEC_GLOBALS)
    exec(code, namespace)
    return source, namespace["_superblock"]


def _path_reaches(instrs, n, start, entry, limit=MAX_TRACE_BLOCKS):
    """Bounded DFS over the static block graph: can control flow from
    block *start* get back to block *entry* without an indirect jump?
    Used by the promotion policy to tell a mispredicted cycle (worth
    re-forming the trace) from a genuine trace departure."""
    seen: set[int] = set()
    stack = [start]
    while stack and len(seen) < limit:
        idx = stack.pop()
        if idx == entry:
            return True
        if idx in seen or idx < 0 or idx >= n:
            continue
        seen.add(idx)
        i = idx
        while i < n:
            instr = instrs[i]
            if instr.spec.kind in _TERM_KINDS or instr.op in ("trap",
                                                              "sethnd"):
                break
            i += 1
        else:
            continue
        instr = instrs[i]
        kind = instr.spec.kind
        if kind in ("branch", "branchi"):
            t = u32(instr.imm) - CODE_BASE
            if not t & 7:
                stack.append(t >> 3)
            stack.append(i + 1)
        elif kind in ("jump", "call"):
            t = u32(instr.imm) - CODE_BASE
            if not t & 7:
                stack.append(t >> 3)
        elif kind == "host" or instr.op == "sethnd":
            stack.append(i + 1)
        # ijump / icall / trap: the walk stops.
    return False


# ---------------------------------------------------------------------------
# the tiering VM
# ---------------------------------------------------------------------------

class JitVM(SideExitPromotion, ThreadedVM):
    """ThreadedVM with the superblock JIT tier on top.

    Cold blocks run on the inherited threaded tier while per-entry heat
    counters accumulate; entries that reach ``heat`` dispatches are
    compiled (or fetched from the shared side table) and dispatch to
    their superblock from then on.  ``count_opcodes`` still forces the
    legacy per-instruction loop, exactly as for :class:`ThreadedVM`.
    Guarded side exits that themselves cross the heat threshold are
    promoted (see :class:`repro.jitcore.SideExitPromotion`): the trace
    is re-formed with the hot direction on trace, or — when the exit
    genuinely leaves the trace's cycle — a trace is anchored at the
    exit target without waiting out the dispatch heat ramp.
    """

    def __init__(self, program, memory, hostcall=None, fuel=50_000_000,
                 threaded=None, cache=None, digest=None, heat=JIT_HEAT):
        super().__init__(program, memory, hostcall, fuel, threaded=threaded)
        self._jit_cache = cache
        self._jit_digest = digest
        self._jit_heat = heat
        self._heat = [0] * self._threaded.length
        self._superblocks: dict[int, object] = {}
        self._jit_sources: dict[int, str] = {}
        self._superblocks_run = 0
        self._superblocks_compiled = 0
        self._jit_deopts = 0
        self._jit_compile_ms = 0.0
        profile = None
        if cache is not None and digest is not None:
            profile_key = ("jit-profile-omni", digest)
            profile = cache.probe_predecoded(profile_key)
            if profile is None:
                profile = self.fresh_profile()
                cache.put_predecoded(profile_key, profile)
        self._init_promotion(profile)
        # Adopted-profile entries dispatch straight to their promoted
        # superblocks (the plain warm path would find the unpromoted
        # form under the ("jit-omni", …) keys).
        self._superblocks.update(self._promoted_fns)

    def run(self, entry=None):
        compiled_before = self._superblocks_compiled
        deopts_before = self._jit_deopts
        ms_before = self._jit_compile_ms
        runs_before = self._superblocks_run
        promotions_before = self._jit_promotions
        try:
            return super().run(entry)
        finally:
            if metrics.active():
                compiled = self._superblocks_compiled - compiled_before
                if compiled:
                    metrics.count("execute.superblocks", compiled)
                deopts = self._jit_deopts - deopts_before
                if deopts:
                    metrics.count("execute.deopts", deopts)
                ms = self._jit_compile_ms - ms_before
                if ms:
                    metrics.count("execute.jit_compile_ms", ms)
                runs = self._superblocks_run - runs_before
                if runs:
                    metrics.count("execute.superblock_runs", runs)
                promotions = self._jit_promotions - promotions_before
                if promotions:
                    metrics.count("execute.jit_promotions", promotions)

    def _compile_entry(self, index):
        """Compile (or fetch from the side table) the superblock at
        *index* and install it in the dispatch map.  Entries with
        promotion overrides are profile-specialized: their compiled
        form travels with the promotion profile, not the plain
        ``("jit-omni", …)`` keys."""
        overrides = self._trace_overrides.get(index)
        cache = self._jit_cache
        key = None
        if overrides:
            fn = self._promoted_fns.get(index)
            if fn is not None:
                self._superblocks[index] = fn
                return fn
        elif cache is not None and self._jit_digest is not None:
            key = ("jit-omni", self._jit_digest, index)
            fn = cache.probe_predecoded(key)
            if fn is not None:
                self._superblocks[index] = fn
                return fn
        start = time.perf_counter()
        source, fn = compile_superblock(self._threaded, index, overrides)
        self._jit_compile_ms += (time.perf_counter() - start) * 1000.0
        self._superblocks_compiled += 1
        self._jit_sources[index] = source
        self._superblocks[index] = fn
        if overrides:
            self._promoted_fns[index] = fn
        elif key is not None:
            cache.put_predecoded(key, fn)
        return fn

    # -- promotion hooks (repro.jitcore.SideExitPromotion) ---------------

    def _promotion_profitable(self, entry, site, exit_loc):
        instrs = self._threaded.instrs
        n = self._threaded.length
        entry_pc = CODE_BASE + entry * INSTR_SIZE
        b_off = site - CODE_BASE
        if b_off & 7 or not 0 <= (b_off >> 3) < n:
            return False
        branch = instrs[b_off >> 3]
        if u32(branch.imm) == entry_pc or site + INSTR_SIZE == entry_pc:
            # Loop-closure edges are never overridden: their side exit
            # legitimately fires once per superblock entry, and flipping
            # the prediction would destroy the loop trace.
            return False
        e_off = exit_loc - CODE_BASE
        if e_off & 7 or not 0 <= (e_off >> 3) < n:
            return False
        return _path_reaches(instrs, n, e_off >> 3, entry)

    def _repromote_entry(self, entry):
        start = time.perf_counter()
        overrides = self._trace_overrides.get(entry)
        source, fn = compile_superblock(self._threaded, entry, overrides)
        self._jit_compile_ms += (time.perf_counter() - start) * 1000.0
        self._superblocks_compiled += 1
        self._jit_sources[entry] = source
        self._superblocks[entry] = fn
        if overrides:
            self._promoted_fns[entry] = fn
        else:
            # all overrides reverted: the plain trace is current again
            self._promoted_fns.pop(entry, None)

    def _anchor_exit(self, exit_loc):
        off = exit_loc - CODE_BASE
        if off & 7 or not 0 <= (off >> 3) < self._threaded.length:
            return
        index = off >> 3
        if index not in self._superblocks:
            self._compile_entry(index)

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
        heat = self._heat
        threshold = self._jit_heat
        sb_get = self._superblocks.get
        digest = self._jit_digest
        cache_get = (self._jit_cache.probe_predecoded
                     if self._jit_cache is not None and digest is not None
                     else None)
        blocks_run = 0
        sb_run = 0
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
                fn = sb_get(index)
                if fn is None:
                    h = heat[index] + 1
                    heat[index] = h
                    if h >= threshold:
                        fn = self._compile_entry(index)
                    elif h == 1 and cache_get is not None:
                        # Warm process: another VM of the same program
                        # already compiled this entry — install it
                        # without waiting out the heat threshold.
                        fn = cache_get(("jit-omni", digest, index))
                        if fn is not None:
                            self._superblocks[index] = fn
                if fn is not None:
                    # -- superblock tier ---------------------------------
                    sb_run += 1
                    try:
                        fn(self, state, regs, fregs, memory)
                    except AccessViolation as violation:
                        # The superblock committed the retired prefix and
                        # fault pc before raising; deliver like the
                        # threaded tier.
                        self._deliver_violation(violation)
                    if state.instret > self.fuel and not state.halted:
                        raise FuelExhausted(
                            f"exceeded fuel of {self.fuel} instructions"
                        )
                    continue
                # -- threaded tier (identical to ThreadedVM._run_loop) ---
                block = blocks[index]
                if block is None:
                    block = build(index)
                body, count, term, term_pc = block
                blocks_run += 1
                try:
                    for fn in body:
                        fn(regs, fregs, memory)
                except AccessViolation as violation:
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
            self._superblocks_run += sb_run
        return s32(state.regs[1]) if not state.halted else state.exit_code

