"""Trace-based superblock JIT tier for the simulated targets.

The native counterpart of :mod:`repro.omnivm.jit`: when a block entry
of the threaded target engine (:mod:`repro.targets.threaded`) crosses a
heat threshold, the hot chain of native blocks is stitched across
likely-taken branches into a **superblock** and compiled to a single
generated Python function.  Register indexes, immediates, category
counts and — crucially — the whole per-arch cycle model are folded into
the emitted source, so a hot loop iteration executes as one Python
frame with no per-instruction dispatch, no ``_charge`` calls, and no
closure chain.

What the generated code folds in, bit-identically to the threaded tier
(which is itself bit-identical to the legacy executor):

* **cycle accounting** — the scoreboard (`TargetMachine._ready`), the
  issue cursor, dual-issue pairing (PPC/x86) and the x86
  memory-resident-register surcharge are computed on *locals*; the
  read/write key sets, latencies and static pairability are resolved at
  compile time, so a typical instruction costs one or two integer
  compares.  Every side exit writes the scoreboard back before
  returning, so ``cycles`` matches the threaded tier exactly.
* **SFI dynamic guard chains** — the sandboxing sequences the rewriter
  inserts (``category="sfi"``) are straight-line ALU ops and are
  emitted inline like any other instruction.  The trace former never
  reorders instructions, and it refuses to place a *guarded* side exit
  on a branch that is part of (or immediately follows) a guard chain:
  such a branch ends the trace with an unguarded two-way exit instead,
  so a chain is never split across a deopt and mutated guards fault
  exactly as they do under the threaded tier.
* **per-site inline memory caches** keyed on ``Memory.perm_epoch``
  (shared machinery in :mod:`repro.jitcore`), flushed after inlined
  hostcalls.

Delay slots (MIPS/SPARC) are formed into the trace: the slot of an
on-trace branch executes before the side-exit guard (its fault commits
``pc`` at the branch, exactly like the threaded tier, and propagates to
the host unhandled), annulled untaken branches skip the slot, and the
taken-branch penalty lands after the slot.

The deopt contract matches the omni JIT: every side exit commits
``pc``/``instret``/``cycles``/category counts before returning to the
dispatcher; faults commit the exact retired prefix and annotate
``fault_native``; fuel is checked at superblock boundaries (backedge,
hostcall, trap, run-off-end) — the same documented relaxation as the
block-level checks of the threaded tier.

Compiled superblocks bind no machine state and are shared between
machines via the predecode side table of
:class:`~repro.cache.TranslationCache` under ``("jit-native", digest,
arch, options_digest, entry)`` keys, which digest-filtered invalidation
(module revoke/relink) drops together with the ``("predecode-native",
...)`` artifacts.
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
    Emitter as _Emitter,
    SideExitPromotion,
    base_exec_globals,
    cache_cells,
    emit_cvt as _emit_cvt,
    emit_ext as _emit_ext,
    emit_load_refill as _emit_load_refill,
    emit_store_refill as _emit_store_refill,
)
from repro.omnivm import semantics
from repro.targets.threaded import (
    _COND,
    _COND_OPS,
    _JUMP,
    _JUMP_OPS,
    _LOAD_SHAPES,
    _STORE_SIZES,
    ThreadedTargetMachine,
    _is_term_op,
)
from repro.utils.bits import s32, u32

_M = 0xFFFFFFFF
_SIGN = 0x80000000
_WRAP = 0x100000000

#: Assembly-time placeholder for "write the scoreboard/cycle locals and
#: the condition codes back to the machine" — expanded once the full
#: set of touched scoreboard keys is known, so an exit emitted early in
#: a looped trace also syncs keys first written later in the iteration.
_SYNC = "_SYNCSTATE_"

__all__ = [
    "JIT_HEAT",
    "JitTargetMachine",
    "compile_native_superblock",
    "native_superblock_source",
]

_EXEC_GLOBALS = base_exec_globals()

#: Straight-line ops the emitter covers (everything else would fall to
#: ``TargetMachine.execute`` in the threaded tier and makes the
#: enclosing block untraceable).
_ALU_OPS = frozenset(
    "add addi sub mul and andi or ori xor xori nor sll slli srl srli "
    "sra srai li lui mov slt sltu slti sltiu sext8 sext16 zext8 zext16 "
    "cmp subcc cmpi setcc fcmp fcmps sethnd nop".split()
)
_DIV_OPS = frozenset("div divu rem remu".split())
_FP_OPS = frozenset(
    "fadds fsubs fmuls fdivs faddd fsubd fmuld fdivd "
    "fnegs fnegd fabss fabsd fmovs fmovd "
    "fceqs fclts fcles fceqd fcltd fcled".split()
)
_CVT_OPS = frozenset(
    "cvtdw cvtsw cvtdwu cvtswu cvtwd cvtws cvtwud cvtwus cvtds "
    "cvtsd".split()
)
_MEM_OPS = frozenset(_LOAD_SHAPES) | frozenset(_STORE_SIZES) | frozenset(
    "lw lwx sw swx lfs lfd lfsx lfdx sfs sfd sfsx sfdx".split()
)
#: Unsigned taken-expressions for the MIPS-style register branches; the
#: signed compares against zero reduce to sign-bit tests on the raw u32.
_BR_TAKEN = {
    "bltz": "regs[{rs}] >= 0x80000000",
    "bgez": "regs[{rs}] < 0x80000000",
    "blez": "(regs[{rs}] == 0 or regs[{rs}] >= 0x80000000)",
    "bgtz": "0 < regs[{rs}] < 0x80000000",
}
_BR_UNTAKEN = {
    "bltz": "regs[{rs}] < 0x80000000",
    "bgez": "regs[{rs}] >= 0x80000000",
    "blez": "0 < regs[{rs}] < 0x80000000",
    "bgtz": "(regs[{rs}] == 0 or regs[{rs}] >= 0x80000000)",
}


class _Unsupported(Exception):
    """Trace formation hit an op outside the emitter's vocabulary."""


def _supported(mi) -> bool:
    op = mi.op
    return (op in _ALU_OPS or op in _MEM_OPS or op in _FP_OPS
            or op in _DIV_OPS or op in _CVT_OPS)


# ---------------------------------------------------------------------------
# trace walker state
# ---------------------------------------------------------------------------

class _Trace:
    """Emission state for one native superblock.

    Tracks — entirely at compile time — the retired-but-uncommitted
    instruction count and category tallies, the set of scoreboard keys
    the trace touches, the identity of the previously *charged*
    instruction (for dual-issue pairing and ``_last_issued`` restore),
    and the scalar pair-open flag.  ``prev`` is one of ``("static", k)``
    (the instruction at index ``k`` charged last), ``("none",)`` (a
    taken-branch penalty reset the pair window) or ``("runtime",)``
    (nothing charged yet this call — the machine's own state, loaded
    into ``_li``/``_po`` at entry, is current).
    """

    def __init__(self, program, entry, overrides):
        self.program = program
        self.instrs = program.instrs
        self.n = program.length
        self.spec = program.spec
        self.timing = program.spec.timing
        self.dual = self.timing.dual_issue is not None
        self.delay = program.spec.delay_slots
        self.entry = entry
        self.overrides = overrides or {}
        self.link = program.spec.reserved.get("ra", 31)
        self.em = _Emitter()
        self.keys: dict[tuple, str] = {}
        self.uses_cc = False
        self.total = 0
        self.pending = 0
        self.pcats: dict[str, int] = {}
        self.block_entry = entry
        self.block_pending = 0
        self.block_pcats: dict[str, int] = {}
        self.prev: tuple = ("runtime",)
        self.po = "runtime"  # scalar pair-open: "true" | "false" | "runtime"

    def key_name(self, key) -> str:
        name = self.keys.get(key)
        if name is None:
            kind, idx = key
            name = "_tcc" if kind == "cc" else f"_t{kind}{idx}"
            self.keys[key] = name
        return name

    def retire(self, mi) -> None:
        self.total += 1
        self.pending += 1
        self.pcats[mi.category] = self.pcats.get(mi.category, 0) + 1

    def start_block(self, index) -> None:
        self.block_entry = index
        self.block_pending = self.pending
        self.block_pcats = dict(self.pcats)

    def commit_reset(self) -> None:
        """An inline hostcall committed everything retired so far."""
        self.pending = 0
        self.pcats = {}
        self.block_pending = 0
        self.block_pcats = {}


# ---------------------------------------------------------------------------
# cycle model emission
# ---------------------------------------------------------------------------

def _static_extra(w, reads, writes) -> int:
    """x86 memory-resident-register surcharge, fully static."""
    timing = w.timing
    if not timing.memory_reg_cost:
        return 0
    threshold = timing.memory_reg_threshold
    operands = 0
    for kind, index in reads:
        if kind == "r" and index >= threshold:
            operands += 1
    for kind, index in writes:
        if kind == "r" and index >= threshold:
            operands += 1
    if operands > 1:
        return timing.memory_reg_cost * (operands - 1)
    return 0


def _static_pairable(w, prev_mi, mi) -> bool:
    """Mirror ``_charge``'s pairing test for two known instructions."""
    if not w.timing.dual_issue(prev_mi, mi):
        return False
    written = prev_mi.cached_writes()
    if not written:
        return True
    return not any(read in written for read in mi.cached_reads())


def _emit_charge(w, em, k, depth=0) -> None:
    """Fold one ``TargetMachine._charge`` into straight-line locals.

    Invariant (holds for every charge shape): after a charge,
    ``cycles == _last_issue_cycle`` — ``issue_cycle >= _lic + 1 >
    cycles`` unpaired, ``issue_cycle == _lic + extra >= cycles``
    paired — so the generated code updates ``_cy`` unconditionally.
    """
    mi = w.instrs[k]
    if mi.category == "fused":
        return  # zero issue cost; does not touch the pair window
    reads = mi.cached_reads()
    writes = mi.cached_writes()
    read_keys = list(dict.fromkeys(reads))
    write_keys = list(dict.fromkeys(writes))
    extra = _static_extra(w, reads, writes)
    lat = w.timing.result_latency(mi)
    rnames = [w.key_name(key) for key in read_keys]

    paired_check = None
    if w.dual:
        if w.prev[0] == "static":
            prev_mi = w.instrs[w.prev[1]]
            if _static_pairable(w, prev_mi, mi):
                paired_check = "_po and {stall} <= _lic"
        elif w.prev[0] == "runtime":
            paired_check = ("_po and _li is not None and {stall} <= _lic "
                            f"and _du(_li, _instrs[{k}]) "
                            f"and not _dp(_instrs[{k}], _li)")

    if paired_check is None:
        em.emit("_ic = _lic + 1", depth)
        for name in rnames:
            em.emit(f"if {name} > _ic:", depth)
            em.emit(f"    _ic = {name}", depth)
        if w.dual:
            em.emit("_po = True", depth)
    else:
        if not rnames:
            cond = paired_check.format(stall="0").replace(
                "0 <= _lic", "_lic >= 0")
        elif len(rnames) == 1:
            cond = paired_check.format(stall=rnames[0])
        else:
            em.emit(f"_st = {rnames[0]}", depth)
            for name in rnames[1:]:
                em.emit(f"if {name} > _st:", depth)
                em.emit(f"    _st = {name}", depth)
            cond = paired_check.format(stall="_st")
        em.emit(f"if {cond}:", depth)
        em.emit("    _ic = _lic", depth)
        em.emit("    _po = False", depth)
        em.emit("else:", depth)
        em.emit("    _ic = _lic + 1", depth)
        for name in rnames:
            em.emit(f"    if {name} > _ic:", depth)
            em.emit(f"        _ic = {name}", depth)
        em.emit("    _po = True", depth)
    if extra:
        em.emit(f"_ic += {extra}", depth)
    em.emit("_cy = _ic", depth)
    for key in write_keys:
        em.emit(f"{w.key_name(key)} = _ic + {lat}", depth)
    em.emit("_lic = _ic", depth)
    w.prev = ("static", k)
    if not w.dual:
        w.po = "true"


def _emit_penalty(w, em, depth=0) -> None:
    """Local ``_branch_taken_penalty`` for an on-trace taken branch."""
    em.emit(f"_cy += {w.timing.taken_branch_penalty}", depth)
    em.emit("_lic = _cy", depth)
    if w.dual:
        em.emit("_po = False", depth)
    w.prev = ("none",)
    if not w.dual:
        w.po = "false"


def _emit_exit_state(w, em, pc, depth=0, pending=None, pcats=None,
                     prev=None) -> None:
    """Commit architectural state for a side exit / fault / raise:
    scoreboard + cycles (via the ``_SYNC`` placeholder), issue-window
    statics, ``instret``, category counts, and ``pc``."""
    em.emit(_SYNC, depth)
    prev = w.prev if prev is None else prev
    if prev[0] == "static":
        em.emit(f"m._last_issued = _instrs[{prev[1]}]", depth)
    elif prev[0] == "none":
        em.emit("m._last_issued = None", depth)
    else:
        em.emit("m._last_issued = _li", depth)
    if w.dual:
        em.emit("m._pair_open = _po", depth)
    elif w.po == "runtime":
        em.emit("m._pair_open = _po", depth)
    else:
        em.emit(f"m._pair_open = {w.po == 'true'}", depth)
    count = w.pending if pending is None else pending
    cats = w.pcats if pcats is None else pcats
    if count:
        em.emit(f"m.instret += {count}", depth)
    for cat in sorted(cats):
        em.emit(f"_ct[{cat!r}] += {cats[cat]}", depth)
    em.emit(f"m.pc = {pc}", depth)


# ---------------------------------------------------------------------------
# straight-line instruction emission
# ---------------------------------------------------------------------------

def _emit_fault_commit(w, em, k, fault_pc, depth, mark_final) -> None:
    """Handler body for a faulting memory/div access: annotate the
    faulting native index, commit the retired prefix (the charge is
    already in the locals), and re-raise."""
    em.emit(f"_v.fault_native = {k}", depth)
    if mark_final:
        em.emit("_v.fault_final = True", depth)
    _emit_exit_state(w, em, fault_pc, depth)
    em.emit("raise", depth)


def _mem_fault_ctx(mode, w, term_k):
    """(fault_pc, mark_final, commit) for the three emission modes."""
    if mode == "body":
        return w.block_entry, False, True
    if mode == "slot_local":
        return term_k, True, True
    return term_k, True, False  # slot_direct: state already committed


def _emit_mem(w, em, k, depth, mode, term_k) -> None:
    """One memory op, mirroring ``_sem_mem`` exactly: same address
    arithmetic, same accessor on the slow path (so the raised
    AccessViolation is identical), plus the inline-cache fast path."""
    mi = w.instrs[k]
    op = mi.op
    rd, rs, rt, fd, ft = mi.rd, mi.rs, mi.rt, mi.fd, mi.ft
    immu = u32(mi.imm)
    fault_pc, mark_final, commit = _mem_fault_ctx(mode, w, term_k)

    def guard(d):
        em.emit("except AccessViolation as _v:", d)
        if commit:
            _emit_fault_commit(w, em, k, fault_pc, d + 1, mark_final)
        else:
            em.emit(f"_v.fault_native = {k}", d + 1)
            em.emit("_v.fault_final = True", d + 1)
            em.emit("raise", d + 1)

    indexed = op.endswith("x")
    if op in _STORE_SIZES or op in ("sfs", "sfd", "sfsx", "sfdx"):
        index_reg = rd  # indexed stores use rd as the index register
    else:
        index_reg = rt
    if indexed:
        addr = f"(regs[{rs}] + regs[{index_reg}]) & {_M:#x}"
    else:
        addr = f"(regs[{rs}] + {immu}) & {_M:#x}"

    if op in _LOAD_SHAPES:
        size, signed = _LOAD_SHAPES[op]
        sid = em.load_site()
        if size == 4:
            fast = [f"regs[{rd}] = u32_at(_ld{sid}, _ad - _lb{sid})[0]"]
            slow = f"regs[{rd}] = memory.load_u32(_ad)"
        else:
            slow = (f"regs[{rd}] = memory.load(_ad, {size}, {signed})"
                    f" & {_M:#x}")
            if size == 1:
                if signed:
                    fast = [f"_v = _ld{sid}[_ad - _lb{sid}]",
                            f"regs[{rd}] = _v | 0xffffff00 "
                            f"if _v & 0x80 else _v"]
                else:
                    fast = [f"regs[{rd}] = _ld{sid}[_ad - _lb{sid}]"]
            elif signed:
                fast = [f"_v = u16_at(_ld{sid}, _ad - _lb{sid})[0]",
                        f"regs[{rd}] = _v | 0xffff0000 "
                        f"if _v & 0x8000 else _v"]
            else:
                fast = [f"regs[{rd}] = u16_at(_ld{sid}, _ad - _lb{sid})[0]"]
        em.emit(f"_ad = {addr}", depth)
        if size == 1:
            em.emit(f"if _lb{sid} <= _ad < _ll{sid}:", depth)
        else:
            em.emit(f"if _lb{sid} <= _ad and _ad + {size} <= _ll{sid}:",
                    depth)
        for line in fast:
            em.emit(line, depth + 1)
        em.emit("else:", depth)
        em.emit("try:", depth + 1)
        em.emit(slow, depth + 2)
        guard(depth + 1)
        _emit_load_refill(em, sid, depth + 1)
        return
    if op in ("lfs", "lfd", "lfsx", "lfdx"):
        single = op.startswith("lfs")
        width = "f32" if single else "f64"
        size = 4 if single else 8
        sid = em.load_site()
        em.emit(f"_ad = {addr}", depth)
        em.emit(f"if _lb{sid} <= _ad and _ad + {size} <= _ll{sid}:", depth)
        em.emit(f"fregs[{fd}] = {width}_at(_ld{sid}, _ad - _lb{sid})[0]",
                depth + 1)
        em.emit("else:", depth)
        em.emit("try:", depth + 1)
        em.emit(f"fregs[{fd}] = memory.load_{width}(_ad)", depth + 2)
        guard(depth + 1)
        _emit_load_refill(em, sid, depth + 1)
        return
    if op in _STORE_SIZES:
        size = _STORE_SIZES[op]
        sid = em.store_site()
        if size == 4:
            fast = f"put_u32(_sd{sid}, _ad - _sb{sid}, regs[{rt}])"
            slow = f"memory.store_u32(_ad, regs[{rt}])"
        else:
            slow = f"memory.store(_ad, {size}, regs[{rt}])"
            if size == 1:
                fast = f"_sd{sid}[_ad - _sb{sid}] = regs[{rt}] & 0xff"
            else:
                fast = (f"put_u16(_sd{sid}, _ad - _sb{sid}, "
                        f"regs[{rt}] & 0xffff)")
        em.emit(f"_ad = {addr}", depth)
        if size == 1:
            em.emit(f"if _sb{sid} <= _ad < _sl{sid}:", depth)
        else:
            em.emit(f"if _sb{sid} <= _ad and _ad + {size} <= _sl{sid}:",
                    depth)
        em.emit(fast, depth + 1)
        em.emit("memory.write_count += 1", depth + 1)
        em.emit("else:", depth)
        em.emit("try:", depth + 1)
        em.emit(slow, depth + 2)
        guard(depth + 1)
        _emit_store_refill(em, sid, depth + 1)
        return
    if op in ("sfs", "sfsx"):
        # f32 stores round the double operand (overflowing to signed
        # infinity) before reinterpreting — keep the accessor call.
        em.emit("try:", depth)
        em.emit(f"memory.store_f32({addr}, fregs[{ft}])", depth + 1)
        guard(depth)
        return
    # sfd / sfdx
    sid = em.store_site()
    em.emit(f"_ad = {addr}", depth)
    em.emit(f"if _sb{sid} <= _ad and _ad + 8 <= _sl{sid}:", depth)
    em.emit(f"put_f64(_sd{sid}, _ad - _sb{sid}, fregs[{ft}])", depth + 1)
    # store_f64 issues two word stores; mirror its write accounting.
    em.emit("memory.write_count += 2", depth + 1)
    em.emit("else:", depth)
    em.emit("try:", depth + 1)
    em.emit(f"memory.store_f64(_ad, fregs[{ft}])", depth + 2)
    guard(depth + 1)
    _emit_store_refill(em, sid, depth + 1)


def _emit_alu(w, em, mi, depth) -> None:
    """Mirror ``_sem_alu`` exactly (no charge, no faults)."""
    op = mi.op
    rd, rs, rt = mi.rd, mi.rs, mi.rt
    immu = u32(mi.imm)
    two = {"add": ("+", True), "sub": ("-", True), "mul": ("*", True),
           "and": ("&", False), "or": ("|", False), "xor": ("^", False)}
    if op in two:
        sym, masked = two[op]
        expr = f"regs[{rs}] {sym} regs[{rt}]"
        em.emit(f"regs[{rd}] = ({expr}) & {_M:#x}" if masked
                else f"regs[{rd}] = {expr}", depth)
    elif op in ("addi", "andi", "ori", "xori"):
        sym = {"addi": "+", "andi": "&", "ori": "|", "xori": "^"}[op]
        expr = f"regs[{rs}] {sym} {immu}"
        em.emit(f"regs[{rd}] = ({expr}) & {_M:#x}" if op == "addi"
                else f"regs[{rd}] = {expr}", depth)
    elif op == "nor":
        em.emit(f"regs[{rd}] = (~(regs[{rs}] | regs[{rt}])) & {_M:#x}",
                depth)
    elif op in ("sll", "srl"):
        sym = "<<" if op == "sll" else ">>"
        expr = f"regs[{rs}] {sym} (regs[{rt}] & 31)"
        em.emit(f"regs[{rd}] = ({expr}) & {_M:#x}" if op == "sll"
                else f"regs[{rd}] = {expr}", depth)
    elif op in ("slli", "srli"):
        sh = mi.imm & 31
        sym = "<<" if op == "slli" else ">>"
        expr = f"regs[{rs}] {sym} {sh}"
        em.emit(f"regs[{rd}] = ({expr}) & {_M:#x}" if op == "slli"
                else f"regs[{rd}] = {expr}", depth)
    elif op in ("sra", "srai"):
        sh = f"(regs[{rt}] & 31)" if op == "sra" else str(mi.imm & 31)
        em.emit(f"_a = regs[{rs}]", depth)
        em.emit(f"if _a & {_SIGN:#x}:", depth)
        em.emit(f"    _a -= {_WRAP:#x}", depth)
        em.emit(f"regs[{rd}] = (_a >> {sh}) & {_M:#x}", depth)
    elif op == "li":
        em.emit(f"regs[{rd}] = {immu}", depth)
    elif op == "lui":
        # Like the legacy executor, the shifted value is not re-masked.
        em.emit(f"regs[{rd}] = {immu << 16}", depth)
    elif op == "mov":
        em.emit(f"regs[{rd}] = regs[{rs}]", depth)
    elif op == "slt":
        em.emit(f"_a = regs[{rs}]", depth)
        em.emit(f"_b = regs[{rt}]", depth)
        em.emit(f"if _a & {_SIGN:#x}:", depth)
        em.emit(f"    _a -= {_WRAP:#x}", depth)
        em.emit(f"if _b & {_SIGN:#x}:", depth)
        em.emit(f"    _b -= {_WRAP:#x}", depth)
        em.emit(f"regs[{rd}] = 1 if _a < _b else 0", depth)
    elif op == "sltu":
        em.emit(f"regs[{rd}] = 1 if regs[{rs}] < regs[{rt}] else 0", depth)
    elif op == "slti":
        b = immu - _WRAP if immu & _SIGN else immu
        em.emit(f"_a = regs[{rs}]", depth)
        em.emit(f"if _a & {_SIGN:#x}:", depth)
        em.emit(f"    _a -= {_WRAP:#x}", depth)
        em.emit(f"regs[{rd}] = 1 if _a < {b} else 0", depth)
    elif op == "sltiu":
        em.emit(f"regs[{rd}] = 1 if regs[{rs}] < {immu} else 0", depth)
    elif op in ("sext8", "sext16", "zext8", "zext16"):
        sub = _Emitter(em)
        _emit_ext(sub, mi)
        pad = "    " * depth
        em.lines.extend(pad + line for line in sub.lines)
    elif op in ("cmp", "subcc"):
        w.uses_cc = True
        em.emit(f"_a = regs[{rs}]", depth)
        em.emit(f"_b = regs[{rt}]", depth)
        em.emit("_ccu = (_a > _b) - (_a < _b)", depth)
        em.emit(f"if _a & {_SIGN:#x}:", depth)
        em.emit(f"    _a -= {_WRAP:#x}", depth)
        em.emit(f"if _b & {_SIGN:#x}:", depth)
        em.emit(f"    _b -= {_WRAP:#x}", depth)
        em.emit("_ccs = (_a > _b) - (_a < _b)", depth)
    elif op == "cmpi":
        w.uses_cc = True
        bs = immu - _WRAP if immu & _SIGN else immu
        em.emit(f"_a = regs[{rs}]", depth)
        em.emit(f"_ccu = (_a > {immu}) - (_a < {immu})", depth)
        em.emit(f"if _a & {_SIGN:#x}:", depth)
        em.emit(f"    _a -= {_WRAP:#x}", depth)
        em.emit(f"_ccs = (_a > {bs}) - (_a < {bs})", depth)
    elif op == "setcc":
        w.uses_cc = True
        em.emit(f"regs[{rd}] = 1 if {_cc_expr(mi.pred)} else 0", depth)
    elif op in ("fcmp", "fcmps"):
        w.uses_cc = True
        em.emit(f"_a = fregs[{mi.fs}]", depth)
        em.emit(f"_b = fregs[{mi.ft}]", depth)
        em.emit("_ccs = (_a > _b) - (_a < _b)", depth)
        em.emit("_ccu = _ccs", depth)
    elif op == "sethnd":
        em.emit(f"m.handler_omni = regs[{rs}]", depth)
    elif op == "nop":
        pass
    else:  # pragma: no cover - _supported() gates the vocabulary
        raise _Unsupported(op)


def _cc_expr(pred: str, invert: bool = False) -> str:
    """Condition-code predicate over the ``_ccs``/``_ccu`` locals."""
    if pred in ("ltu", "leu", "gtu", "geu"):
        var, base = "_ccu", pred[:-1]
    else:
        var, base = "_ccs", pred
    if invert:
        base = _CMP_INV[base]
    return f"{var} {_CMP[base]} 0"


# ---------------------------------------------------------------------------
# faulting / floating-point body ops
# ---------------------------------------------------------------------------

def _emit_div(w, em, k, depth, mode, term_k) -> None:
    mi = w.instrs[k]
    fault_pc, mark_final, commit = _mem_fault_ctx(mode, w, term_k)
    em.emit("try:", depth)
    em.emit(f"regs[{mi.rd}] = int_divide({mi.op!r}, regs[{mi.rs}], "
            f"regs[{mi.rt}])", depth + 1)
    em.emit("except VMRuntimeError as _v:", depth)
    if commit:
        _emit_fault_commit(w, em, k, fault_pc, depth + 1, mark_final)
    else:
        em.emit(f"_v.fault_native = {k}", depth + 1)
        em.emit("_v.fault_final = True", depth + 1)
        em.emit("raise", depth + 1)


def _emit_fp(w, em, k, depth, mode, term_k) -> None:
    """FP arithmetic, compares and moves, mirroring ``fp_binop`` /
    ``fp_unop`` / ``fp_compare`` — including the divide-by-zero trap,
    which the threaded tier raises *without* a fault prefix (the block
    commit stands at the last boundary; the charge is already done)."""
    mi = w.instrs[k]
    op = mi.op
    base, single = op[:-1], op.endswith("s")
    fd, fs, ft = mi.fd, mi.fs, mi.ft
    if base in ("fceq", "fclt", "fcle"):
        sym = {"fceq": "==", "fclt": "<", "fcle": "<="}[base]
        em.emit(f"regs[{mi.rd}] = 1 if fregs[{fs}] {sym} fregs[{ft}] "
                "else 0", depth)
        return
    if base in ("fneg", "fabs", "fmov"):
        expr = {"fneg": f"-fregs[{fs}]", "fabs": f"abs(fregs[{fs}])",
                "fmov": f"fregs[{fs}]"}[base]
        if single:
            expr = f"round_f32({expr})"
        em.emit(f"fregs[{fd}] = {expr}", depth)
        return
    if base == "fdiv":
        em.emit(f"if fregs[{ft}] == 0.0:", depth)
        if mode == "body":
            # The threaded tier's block commit stops at the block
            # boundary before the faulting block.
            _emit_exit_state(w, em, w.block_entry, depth + 1,
                             pending=w.block_pending, pcats=w.block_pcats)
        elif mode == "slot_local":
            _emit_exit_state(w, em, term_k, depth + 1)
        em.emit(f"    raise VMRuntimeError({semantics.FP_DIV_ZERO_MSG!r})",
                depth)
        expr = f"fregs[{fs}] / fregs[{ft}]"
    else:
        sym = {"fadd": "+", "fsub": "-", "fmul": "*"}[base]
        expr = f"fregs[{fs}] {sym} fregs[{ft}]"
    if single:
        expr = f"round_f32({expr})"
    em.emit(f"fregs[{fd}] = {expr}", depth)


def _emit_instr(w, em, k, depth, mode, term_k) -> None:
    """Charge + semantics for one straight-line instruction.

    *mode* selects the fault-commit contract: ``"body"`` (on-trace,
    charge in locals, faults commit with ``pc`` = block entry),
    ``"slot_local"`` (on-trace delay slot, faults commit with ``pc`` =
    the branch index and are marked final), ``"slot_direct"`` (delay
    slot on an already-committed exit path: charge via ``m._charge``,
    faults just annotate and re-raise).
    """
    mi = w.instrs[k]
    op = mi.op
    if mode == "slot_direct":
        if mi.category != "fused":
            em.emit(f"m._charge(_instrs[{k}])", depth)
    else:
        _emit_charge(w, em, k, depth)
    if op in _MEM_OPS:
        _emit_mem(w, em, k, depth, mode, term_k)
    elif op in _DIV_OPS:
        _emit_div(w, em, k, depth, mode, term_k)
    elif op in _FP_OPS:
        _emit_fp(w, em, k, depth, mode, term_k)
    elif op in _CVT_OPS:
        sub = _Emitter(em)
        _emit_cvt(sub, mi)
        pad = "    " * depth
        em.lines.extend(pad + line for line in sub.lines)
    elif op in _ALU_OPS:
        _emit_alu(w, em, mi, depth)
    else:  # pragma: no cover - _block_traceable gates the vocabulary
        raise _Unsupported(op)


# ---------------------------------------------------------------------------
# delay slots
# ---------------------------------------------------------------------------

def _emit_slot_local(w, em, slot_k, term_k) -> None:
    """Run the delay slot on-trace: retired into the pending counts,
    charged through the locals."""
    w.retire(w.instrs[slot_k])
    _emit_instr(w, em, slot_k, 0, "slot_local", term_k)


def _emit_slot_direct(w, em, slot_k, depth) -> None:
    """Run the delay slot on an exit path whose architectural state is
    already committed — mirror the dispatcher's direct retire+charge
    (``instret``/counts first, then the slot closure)."""
    mi = w.instrs[slot_k]
    em.emit("m.instret += 1", depth)
    em.emit(f"_ct[{mi.category!r}] += 1", depth)
    _emit_instr(w, em, slot_k, depth, "slot_direct", slot_k)


# ---------------------------------------------------------------------------
# terminators
# ---------------------------------------------------------------------------

def _branch_exprs(w, mi):
    """(taken, untaken) boolean expressions for a conditional branch."""
    op = mi.op
    if op == "beq":
        return (f"regs[{mi.rs}] == regs[{mi.rt}]",
                f"regs[{mi.rs}] != regs[{mi.rt}]")
    if op == "bne":
        return (f"regs[{mi.rs}] != regs[{mi.rt}]",
                f"regs[{mi.rs}] == regs[{mi.rt}]")
    if op in _BR_TAKEN:
        return (_BR_TAKEN[op].format(rs=mi.rs),
                _BR_UNTAKEN[op].format(rs=mi.rs))
    # bcc / fbcc read the condition codes
    w.uses_cc = True
    return _cc_expr(mi.pred), _cc_expr(mi.pred, invert=True)


def _chain_coupled(w, k) -> bool:
    """Is the branch at *k* part of an SFI dynamic guard chain?

    The rewriter only tags straight-line ALU guards with
    ``category="sfi"``, always immediately adjacent to the access they
    protect — but a chain-coupled branch (the branch itself, or its
    immediate predecessor, tagged ``sfi``) must never be predicted:
    splitting the chain across a guarded side exit would let a
    re-formed trace reorder the guard against its access.  Such
    branches compile to a both-way unguarded exit.
    """
    mi = w.instrs[k]
    if mi.category == "sfi":
        return True
    if k > 0:
        prev = w.instrs[k - 1]
        return prev.category == "sfi" and not _is_term_op(prev.op)
    return False


def _emit_fuel_guard(w, em, depth=0) -> None:
    em.emit("if m.instret > m.fuel:", depth)
    em.emit("    raise FuelExhausted('target simulation exceeded fuel')",
            depth)


def _emit_cond(w, em, k, slot_k):
    """Conditional branch. Returns the on-trace continuation index, or
    None when the branch compiles to a both-way exit."""
    mi = w.instrs[k]
    n = w.n
    taken_expr, untaken_expr = _branch_exprs(w, mi)
    target = mi.target
    has_slot = slot_k >= 0
    fall = k + 2 if has_slot else k + 1
    annul = bool(mi.annul) and has_slot
    if mi.category != "fused":
        _emit_charge(w, em, k)

    if _chain_coupled(w, k):
        # SFI guard-chain branch: never predicted, never promoted.
        if has_slot and not annul:
            em.emit(f"_tk = {taken_expr}")
            _emit_slot_local(w, em, slot_k, k)
            em.emit("if _tk:")
            _emit_exit_state(w, em, target, 1)
            em.emit("    m._branch_taken_penalty()")
            em.emit("    return")
            _emit_exit_state(w, em, fall)
            em.emit("return")
        elif annul:
            em.emit(f"if {taken_expr}:")
            _emit_exit_state(w, em, k, 1)
            _emit_slot_direct(w, em, slot_k, 1)
            em.emit(f"    m.pc = {target}")
            em.emit("    m._branch_taken_penalty()")
            em.emit("    return")
            _emit_exit_state(w, em, fall)
            em.emit("return")
        else:
            em.emit(f"if {taken_expr}:")
            _emit_exit_state(w, em, target, 1)
            em.emit("    m._branch_taken_penalty()")
            em.emit("    return")
            _emit_exit_state(w, em, fall)
            em.emit("return")
        return None

    if target == w.entry and 0 <= target < n:
        predict_taken = True  # loop closure
    elif fall == w.entry:
        predict_taken = False  # loop closure on the fall-through
    elif k in w.overrides:
        predict_taken = w.overrides[k]
    else:
        predict_taken = target <= k  # BTFN
    if predict_taken and not 0 <= target < n:
        predict_taken = False

    if predict_taken:
        deopt = f"m._note_exit({w.entry}, {k}, False, {fall})"
        if has_slot and not annul:
            em.emit(f"_tk = {taken_expr}")
            _emit_slot_local(w, em, slot_k, k)
            em.emit("if not _tk:")
            em.emit(f"    {deopt}")
            _emit_exit_state(w, em, fall, 1)
            em.emit("    return")
        elif annul:
            # Annulled untaken skips the slot: exit before running it.
            em.emit(f"if {untaken_expr}:")
            em.emit(f"    {deopt}")
            _emit_exit_state(w, em, fall, 1)
            em.emit("    return")
            _emit_slot_local(w, em, slot_k, k)
        else:
            em.emit(f"if {untaken_expr}:")
            em.emit(f"    {deopt}")
            _emit_exit_state(w, em, fall, 1)
            em.emit("    return")
        _emit_penalty(w, em)
        return target

    deopt = f"m._note_exit({w.entry}, {k}, True, {target})"
    if has_slot and not annul:
        em.emit(f"_tk = {taken_expr}")
        _emit_slot_local(w, em, slot_k, k)
        em.emit("if _tk:")
        em.emit(f"    {deopt}")
        _emit_exit_state(w, em, target, 1)
        em.emit("    m._branch_taken_penalty()")
        em.emit("    return")
    elif annul:
        # Annulled taken path runs the slot after the exit commit.
        em.emit(f"if {taken_expr}:")
        em.emit(f"    {deopt}")
        _emit_exit_state(w, em, k, 1)
        _emit_slot_direct(w, em, slot_k, 1)
        em.emit(f"    m.pc = {target}")
        em.emit("    m._branch_taken_penalty()")
        em.emit("    return")
    else:
        em.emit(f"if {taken_expr}:")
        em.emit(f"    {deopt}")
        _emit_exit_state(w, em, target, 1)
        em.emit("    m._branch_taken_penalty()")
        em.emit("    return")
    return fall


def _emit_term(w, em, k, slot_k):
    """One terminator. Returns the on-trace continuation index or None
    when the trace ends here."""
    mi = w.instrs[k]
    op = mi.op
    charge = mi.category != "fused"

    if op == "trap":
        # Dispatcher order: block commit -> fuel check -> pc = trap
        # index -> charge -> raise.
        _emit_exit_state(w, em, w.block_entry)
        _emit_fuel_guard(w, em)
        em.emit(f"m.pc = {k}")
        if charge:
            em.emit(f"m._charge(_instrs[{k}])")
        em.emit(f"raise VMTrap({f'module trap {mi.imm}'!r}, {mi.imm})")
        return None

    if op == "hostcall":
        # Commit + fuel check *before* the terminator charge (the
        # threaded tier charges inside the terminator closure), then
        # re-sync the charge so the host observes exact cycle state.
        _emit_exit_state(w, em, w.block_entry)
        _emit_fuel_guard(w, em)
        if charge:
            _emit_charge(w, em, k)
            em.emit(_SYNC)
            em.emit(f"m._last_issued = _instrs[{k}]")
            if w.dual:
                em.emit("m._pair_open = _po")
            else:
                em.emit("m._pair_open = True")
        em.emit(f"m.pc = {k}")
        em.emit("if m.hostcall is None:")
        em.emit("    raise VMRuntimeError('hostcall without attached "
                "host')")
        em.emit("try:")
        em.emit(f"    m.hostcall(m, {mi.imm})", 0)
        em.emit("except AccessViolation as _v:")
        # Delivery happens right here (no second commit): mark final so
        # the dispatcher re-raises a handler-less violation unchanged.
        em.emit("    _v.fault_final = True")
        em.emit(f"    m.pc = m._deliver_violation(_instrs[{k}], _v)")
        em.emit("    m._branch_taken_penalty()")
        em.emit("    return")
        em.emit(_FLUSH)
        em.emit("if m.halted:")
        em.emit(f"    m.pc = {k + 1}")
        em.emit("    return")
        # Reload cycle state the hostcall may have advanced? It cannot:
        # hosts never touch the scoreboard; locals stay authoritative.
        w.commit_reset()
        return k + 1

    if op in ("jr", "jalr"):
        if charge:
            _emit_charge(w, em, k)
        _emit_exit_state(w, em, k)
        if op == "jalr":
            em.emit(f"regs[{w.link}] = {u32(mi.imm)}")
        em.emit(f"_rt = m.map_omni_target(regs[{mi.rs}])")
        if slot_k >= 0:
            _emit_slot_direct(w, em, slot_k, 0)
        em.emit("m.pc = _rt")
        em.emit("m._branch_taken_penalty()")
        em.emit("return")
        return None

    if op in ("j", "jal"):
        if charge:
            _emit_charge(w, em, k)
        if op == "jal":
            em.emit(f"regs[{w.link}] = {u32(mi.imm)}")
        if slot_k >= 0:
            _emit_slot_local(w, em, slot_k, k)
        _emit_penalty(w, em)
        return mi.target

    return _emit_cond(w, em, k, slot_k)


# ---------------------------------------------------------------------------
# trace formation + source assembly
# ---------------------------------------------------------------------------

def _block_traceable(w, index) -> bool:
    """Every body op of the block entered at *index* (plus the delay
    slot, when the terminator has one) is inside the emitter's
    vocabulary; a slot that is itself a terminator is untraceable."""
    instrs = w.instrs
    n = w.n
    i = index
    while i < n:
        mi = instrs[i]
        if _is_term_op(mi.op):
            if w.delay and (mi.op in _COND_OPS or mi.op in _JUMP_OPS) \
                    and i + 1 < n:
                slot = instrs[i + 1]
                if _is_term_op(slot.op) or not _supported(slot):
                    return False
            return True
        if not _supported(mi):
            return False
        i += 1
    return True  # runs off the end; the trace exits there


def native_superblock_source(program, entry: int, overrides=None) -> str:
    """Generate Python source for the superblock entered at native
    index *entry* over a :class:`ThreadedNativeProgram`.

    Raises :class:`_Unsupported` when the entry block itself is outside
    the emitter's vocabulary.
    """
    w = _Trace(program, entry, overrides)
    em = w.em
    instrs = w.instrs
    n = w.n
    if not (0 <= entry < n) or not _block_traceable(w, entry):
        raise _Unsupported(f"entry block @{entry}")
    visited: set[int] = set()
    looped = False
    index = entry
    while True:
        if index in visited:
            if index == entry:
                looped = True
            else:
                em.emit(f"# rejoin @{index}: hand back to the dispatcher")
                _emit_exit_state(w, em, index)
                em.emit("return")
            break
        if len(visited) >= MAX_TRACE_BLOCKS or w.total >= MAX_TRACE_INSTRS:
            em.emit(f"# trace limit @{index}")
            _emit_exit_state(w, em, index)
            em.emit("return")
            break
        if not _block_traceable(w, index):
            em.emit(f"# untraceable block @{index}")
            _emit_exit_state(w, em, index)
            em.emit("return")
            break
        visited.add(index)
        w.start_block(index)
        em.emit(f"# block @{index}")
        i = index
        mi = None
        while i < n:
            mi = instrs[i]
            if _is_term_op(mi.op):
                break
            w.retire(mi)
            _emit_instr(w, em, i, 0, "body", -1)
            i += 1
        if i >= n:
            # Ran off the end of the code: commit, block-boundary fuel
            # check, then report the out-of-range pc like the threaded
            # dispatcher does.
            _emit_exit_state(w, em, w.block_entry)
            _emit_fuel_guard(w, em)
            em.emit(f"m.pc = {n}")
            em.emit("return")
            break
        w.retire(mi)
        slot_k = -1
        if w.delay and (mi.op in _COND_OPS or mi.op in _JUMP_OPS) \
                and i + 1 < n:
            slot_k = i + 1
        cont = _emit_term(w, em, i, slot_k)
        if cont is None:
            break
        if not 0 <= cont < n:
            em.emit(f"# static continuation out of range -> @{cont}")
            _emit_exit_state(w, em, cont)
            em.emit("return")
            break
        index = cont

    # -- assemble ---------------------------------------------------------
    cells, invalidate = cache_cells(em)
    sync_lines = []
    if w.keys:
        sync_lines.append("_rm = m._ready")
        for key, name in w.keys.items():
            sync_lines.append(f"_rm[{key!r}] = {name}")
    sync_lines.append("m.cycles = _cy")
    sync_lines.append("m._last_issue_cycle = _lic")
    if w.uses_cc:
        sync_lines.append("m.cc = _ccs")
        sync_lines.append("m.cc_unsigned = _ccu")

    out = [f"# native superblock @{entry} ({len(visited)} blocks, "
           f"{w.total} instrs{', looped' if looped else ''})",
           "def _make_superblock():"]
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
    out.append("    def _superblock(m, regs, fregs, memory):")
    body = "        "
    if cells:
        decl = ["_mem", "_ep"] + cells
        for j in range(0, len(decl), 8):
            out.append(body + "nonlocal " + ", ".join(decl[j:j + 8]))
        out.append(body + "if _mem is not memory "
                          "or _ep != memory.perm_epoch:")
        out.append(body + "    _mem = memory")
        out.append(body + "    _ep = memory.perm_epoch")
        out.append(body + f"    {invalidate} = 0")
    # Entry prologue: pull the scoreboard and cycle state into locals.
    out.append(body + "_instrs = m.instrs")
    out.append(body + "_ct = m.category_counts")
    if w.keys:
        out.append(body + "_rg = m._ready.get")
        for key, name in w.keys.items():
            out.append(body + f"{name} = _rg({key!r}, 0)")
    out.append(body + "_cy = m.cycles")
    out.append(body + "_lic = m._last_issue_cycle")
    out.append(body + "_li = m._last_issued")
    out.append(body + "_po = m._pair_open")
    if w.dual:
        out.append(body + "_du = m.spec.timing.dual_issue")
        out.append(body + "_dp = m._depends_on")
    if w.uses_cc:
        out.append(body + "_ccs = m.cc")
        out.append(body + "_ccu = m.cc_unsigned")
    pad = body
    if looped:
        out.append(body + "while True:")
        pad = body + "    "
    for line in em.lines:
        stripped = line.lstrip()
        indent = line[:len(line) - len(stripped)]
        if stripped == _SYNC:
            for s_line in sync_lines:
                out.append(pad + indent + s_line)
            continue
        if stripped == _FLUSH:
            if cells:
                out.append(pad + indent + invalidate + " = 0")
                out.append(pad + indent + "_ep = memory.perm_epoch")
            continue
        out.append(pad + line)
    if looped:
        # Backedge: commit the iteration's retire counts, honour the
        # block-level fuel cut (the watchdog zeroes m.fuel
        # asynchronously), and go round again.
        out.append(pad + f"# backedge -> @{entry}")
        if w.pending:
            out.append(pad + f"m.instret += {w.pending}")
        for cat in sorted(w.pcats):
            out.append(pad + f"_ct[{cat!r}] += {w.pcats[cat]}")
        out.append(pad + "if m.instret > m.fuel:")
        for s_line in sync_lines:
            out.append(pad + "    " + s_line)
        if w.prev[0] == "static":
            out.append(pad + f"    m._last_issued = _instrs[{w.prev[1]}]")
        elif w.prev[0] == "none":
            out.append(pad + "    m._last_issued = None")
        else:
            out.append(pad + "    m._last_issued = _li")
        if w.dual or w.po == "runtime":
            out.append(pad + "    m._pair_open = _po")
        else:
            out.append(pad + f"    m._pair_open = {w.po == 'true'}")
        out.append(pad + f"    m.pc = {entry}")
        out.append(pad + "    raise FuelExhausted("
                         "'target simulation exceeded fuel')")
        # Iteration >= 2: exits emitted before the first charge read
        # ``_li``/``_po``; refresh them to the end-of-iteration state.
        if w.prev[0] == "static":
            out.append(pad + f"_li = _instrs[{w.prev[1]}]")
        elif w.prev[0] == "none":
            out.append(pad + "_li = None")
        if not w.dual and w.po != "runtime":
            out.append(pad + f"_po = {w.po == 'true'}")
    out.append("    return _superblock")
    out.append("_superblock = _make_superblock()")
    return "\n".join(out) + "\n"


def compile_native_superblock(program, entry: int, overrides=None):
    """Compile the superblock entered at native index *entry*.

    Returns ``(source, function)`` — ``fn(m, regs, fregs, memory)``
    binds no machine state, so it is shareable across machines of the
    same translation (and cacheable under ``("jit-native", digest,
    arch, opts, entry)`` keys when compiled without *overrides*).
    Returns ``(None, None)`` when the entry block is untraceable.
    """
    try:
        source = native_superblock_source(program, entry, overrides)
    except _Unsupported:
        return None, None
    code = compile(source, f"<jit-native@{entry}>", "exec")
    namespace = dict(_EXEC_GLOBALS)
    exec(code, namespace)
    return source, namespace["_superblock"]


def _native_path_reaches(instrs, n, start, entry,
                         limit=MAX_TRACE_BLOCKS) -> bool:
    """Bounded DFS over the static native block graph: can control flow
    from block *start* get back to *entry* without an indirect jump?"""
    seen: set[int] = set()
    stack = [start]
    while stack and len(seen) < limit:
        idx = stack.pop()
        if idx == entry:
            return True
        if idx in seen or not 0 <= idx < n:
            continue
        seen.add(idx)
        i = idx
        while i < n and not _is_term_op(instrs[i].op):
            i += 1
        if i >= n:
            continue
        mi = instrs[i]
        op = mi.op
        if op in _COND_OPS:
            stack.append(mi.target)
            stack.append(i + 1)
            stack.append(i + 2)
        elif op in ("j", "jal"):
            stack.append(mi.target)
        elif op == "hostcall":
            stack.append(i + 1)
        # jr / jalr / trap: the walk stops.
    return False


# ---------------------------------------------------------------------------
# the JIT machine
# ---------------------------------------------------------------------------

class JitTargetMachine(SideExitPromotion, ThreadedTargetMachine):
    """ThreadedTargetMachine with the native superblock JIT on top.

    Cold blocks run on the inherited threaded tier while per-entry heat
    counters accumulate; entries that reach ``heat`` dispatches are
    compiled (or fetched from the shared predecode side table under the
    machine's ``jit_key``) and dispatch to their superblock from then
    on.  ``cycles``, ``instret``, register/memory state and fault
    attribution (``pc`` at the raise, ``fault_native`` on the
    violation) are bit-identical to the threaded tier; only fuel cuts
    are coarser (superblock boundaries instead of block boundaries).
    Guarded side exits that cross the heat threshold re-form the trace
    with the hot direction on trace, or anchor a new trace at the exit
    target (:class:`repro.jitcore.SideExitPromotion`).
    """

    def __init__(self, spec, instrs, memory, omni_to_native,
                 hostcall=None, fuel=100_000_000, threaded=None,
                 cache=None, jit_key=None, heat=JIT_HEAT):
        super().__init__(spec, instrs, memory, omni_to_native,
                         hostcall, fuel, threaded=threaded)
        self._jit_cache = cache
        self._jit_key = tuple(jit_key) if jit_key is not None else None
        self._jit_heat = heat
        self._heat = [0] * self._threaded.length
        self._superblocks: dict[int, object] = {}
        self._jit_sources: dict[int, str] = {}
        self._superblocks_run = 0
        self._superblocks_compiled = 0
        self._jit_deopts = 0
        self._jit_compile_ms = 0.0
        profile = None
        if cache is not None and self._jit_key is not None:
            profile_key = ("jit-profile",) + self._jit_key[1:]
            profile = cache.probe_predecoded(profile_key)
            if profile is None:
                profile = self.fresh_profile()
                cache.put_predecoded(profile_key, profile)
        self._init_promotion(profile)
        # Adopted-profile entries dispatch straight to their promoted
        # superblocks (the plain warm path would find the unpromoted
        # form under the ("jit-native", …) keys).
        self._superblocks.update(self._promoted_fns)

    def run(self, entry_native_index: int) -> int:
        compiled_before = self._superblocks_compiled
        deopts_before = self._jit_deopts
        ms_before = self._jit_compile_ms
        runs_before = self._superblocks_run
        promotions_before = self._jit_promotions
        try:
            return super().run(entry_native_index)
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
        ``("jit-native", …)`` keys."""
        overrides = self._trace_overrides.get(index)
        cache = self._jit_cache
        key = None
        if overrides:
            fn = self._promoted_fns.get(index)
            if fn is not None:
                self._superblocks[index] = fn
                return fn
        elif cache is not None and self._jit_key is not None:
            key = self._jit_key + (index,)
            fn = cache.probe_predecoded(key)
            if fn is not None:
                self._superblocks[index] = fn
                return fn
        start = time.perf_counter()
        source, fn = compile_native_superblock(self._threaded, index,
                                               overrides)
        self._jit_compile_ms += (time.perf_counter() - start) * 1000.0
        if fn is None:
            # The entry block is outside the emitter's vocabulary: pin
            # its heat so the threaded tier keeps it for good.
            self._heat[index] = -(1 << 30)
            return None
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
        instrs = self.instrs
        n = self._threaded.length
        if not 0 <= site < n or not 0 <= exit_loc < n:
            return False
        branch = instrs[site]
        fall = site + (2 if self.spec.delay_slots else 1)
        if branch.target == entry or fall == entry:
            # Loop-closure edges are never overridden: their side exit
            # legitimately fires once per superblock entry, and
            # flipping the prediction would destroy the loop trace.
            return False
        return _native_path_reaches(instrs, n, exit_loc, entry)

    def _repromote_entry(self, entry):
        start = time.perf_counter()
        overrides = self._trace_overrides.get(entry)
        source, fn = compile_native_superblock(self._threaded, entry,
                                               overrides)
        self._jit_compile_ms += (time.perf_counter() - start) * 1000.0
        if fn is None:
            return
        self._superblocks_compiled += 1
        self._jit_sources[entry] = source
        self._superblocks[entry] = fn
        if overrides:
            self._promoted_fns[entry] = fn
        else:
            # all overrides reverted: the plain trace is current again
            self._promoted_fns.pop(entry, None)

    def _anchor_exit(self, exit_loc):
        if 0 <= exit_loc < self._threaded.length \
                and exit_loc not in self._superblocks:
            self._compile_entry(exit_loc)

    # -- dispatch ---------------------------------------------------------

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
        heat = self._heat
        threshold = self._jit_heat
        sb_get = self._superblocks.get
        jit_key = self._jit_key
        cache_get = (self._jit_cache.probe_predecoded
                     if self._jit_cache is not None and jit_key is not None
                     else None)
        blocks_run = 0
        sb_run = 0
        try:
            while not self.halted:
                pc = self.pc
                if pc == 0xFFFFFFFF or pc >= n:
                    if pc == 0xFFFFFFFF:
                        break
                    raise VMRuntimeError(f"native pc out of range: {pc}")
                fn = sb_get(pc)
                if fn is None:
                    h = heat[pc] + 1
                    heat[pc] = h
                    if h >= threshold:
                        fn = self._compile_entry(pc)
                    elif h == 1 and cache_get is not None:
                        # Warm process: another machine of the same
                        # translation already compiled this entry.
                        fn = cache_get(jit_key + (pc,))
                        if fn is not None:
                            self._superblocks[pc] = fn
                if fn is not None:
                    # -- superblock tier ---------------------------------
                    sb_run += 1
                    try:
                        fn(self, regs, fregs, memory)
                    except AccessViolation as violation:
                        if getattr(violation, "fault_final", False):
                            # Delay-slot / hostcall-delivery faults: the
                            # superblock already committed (and, for
                            # hostcalls, delivered); propagate as the
                            # threaded tier would.
                            raise
                        # Body fault: state is committed, deliver like
                        # the threaded dispatcher.
                        self.pc = self._deliver_violation(
                            self.instrs[violation.fault_native], violation)
                        self._branch_taken_penalty()
                        if self.instret > self.fuel:
                            raise FuelExhausted(
                                "target simulation exceeded fuel")
                        continue
                    if self.instret > self.fuel and not self.halted:
                        raise FuelExhausted(
                            "target simulation exceeded fuel")
                    continue
                # -- threaded tier (identical to the parent's _run) ------
                block = blocks[pc]
                if block is None:
                    block = build(pc)
                (body, cats, total, term_kind, term_fn, term_mi,
                 term_end, slot) = block
                blocks_run += 1
                try:
                    for step in body:
                        step(self, regs, fregs, memory)
                except AccessViolation as violation:
                    fault = violation.fault_native
                    self._charge_fault_prefix(pc, fault)
                    redirect = self._deliver_violation(
                        self.instrs[fault], violation)
                    self.pc = redirect
                    self._branch_taken_penalty()
                    if self.instret > self.fuel:
                        raise FuelExhausted(
                            "target simulation exceeded fuel")
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
                    self.pc = n
                    continue
                self.pc = term_end
                try:
                    redirect = term_fn(self, regs, fregs, memory)
                except AccessViolation as violation:
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
            self._superblocks_run += sb_run
        return s32(self.exit_code if self.halted else self.regs[
            self.spec.int_map.get(1, 1)])
