"""Shared machinery for the threaded and superblock JIT tiers.

Two trace JITs live in this codebase: :mod:`repro.omnivm.jit` compiles
hot OmniVM block chains and :mod:`repro.targets.jit` compiles hot
translated-native block chains for the four target simulators.  Both
follow the same architecture — heat-counted entry dispatch, static
entry-directed/BTFN trace formation, Python source generation with
``compile()``/``exec``, guarded deopt side exits, per-site inline
memory caches keyed on ``Memory.perm_epoch`` — so the pieces that are
not ISA-specific are hoisted here:

* the source :class:`Emitter` and the instret bookkeeping of
  :class:`Acct`;
* the heat/trace-limit constants;
* the per-site inline memory-cache emission helpers and the assembly
  scaffolding (cache cells, entry guard, the ``_FLUSH`` placeholder
  expanded after inlined hostcalls);
* the fresh-namespace builder for ``exec``'d superblocks;
* the **register-op table** (:data:`OMNI_OPS`, :data:`NATIVE_OPS`): the
  one definition of every non-faulting register op, from which both
  JITs emit source (:func:`emit_op`) and both threaded tiers build
  their predecoded closures (:func:`threaded_closure`);
* :class:`SideExitPromotion`, the shared deopt-promotion policy: when a
  guarded side exit's counter crosses the JIT heat threshold, re-form a
  trace that covers the hot path instead of deopting forever;
* :class:`SuperblockTiering`, the per-machine tiering state both JIT
  machines share: heat counters, promotion-profile adoption, compile /
  side-table install, and the ``execute.*`` metric deltas of a run.

Emitted source must stay a pure function of the instruction stream (and
the per-entry override table): no ``id()``, hashes, or dict iteration
order may leak into generated code.
"""

from __future__ import annotations

import string
import struct
import threading
import time

from repro import metrics
from repro.errors import (
    AccessViolation,
    FuelExhausted,
    VMRuntimeError,
    VMTrap,
)
from repro.omnivm import semantics
from repro.omnivm.isa import SET_PREDS
from repro.utils.bits import round_f32

#: Block-entry dispatch count at which a superblock is formed.
JIT_HEAT = 16
#: Formation limits: constituent blocks / instructions per superblock.
MAX_TRACE_BLOCKS = 32
MAX_TRACE_INSTRS = 512

#: Comparison operators by predicate name, and predicate inversion.
CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
CMP_INV = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt",
           "le": "gt", "gt": "le"}

#: Assembly-time placeholder for "invalidate every inline cache site".
FLUSH = "_FLUSHSITES_"

__all__ = [
    "JIT_HEAT",
    "MAX_TRACE_BLOCKS",
    "MAX_TRACE_INSTRS",
    "CMP",
    "CMP_INV",
    "FLUSH",
    "NATIVE_OPS",
    "OMNI_OPS",
    "Emitter",
    "Acct",
    "SideExitPromotion",
    "SuperblockTiering",
    "base_exec_globals",
    "cache_cells",
    "cc_test",
    "emit_load_refill",
    "emit_op",
    "emit_store_refill",
    "native_row",
    "threaded_closure",
]


def base_exec_globals() -> dict:
    """Names the generated source may reference; a fresh copy becomes
    the module namespace of each exec'd superblock.  The ``*_at`` /
    ``put_*`` struct helpers back the inlined memory fast paths: IEEE
    bit reinterpretation through them is byte-identical to the
    :mod:`repro.utils.bits` helpers, which are struct-based themselves.
    """
    return {
        "AccessViolation": AccessViolation,
        "FuelExhausted": FuelExhausted,
        "VMRuntimeError": VMRuntimeError,
        "VMTrap": VMTrap,
        "int_divide": semantics.int_divide,
        "fp_binop": semantics.fp_binop,
        "f_to_i32": semantics.f_to_i32,
        "f_to_u32": semantics.f_to_u32,
        "round_f32": round_f32,
        "u16_at": struct.Struct("<H").unpack_from,
        "u32_at": struct.Struct("<I").unpack_from,
        "f32_at": struct.Struct("<f").unpack_from,
        "f64_at": struct.Struct("<d").unpack_from,
        "put_u16": struct.Struct("<H").pack_into,
        "put_u32": struct.Struct("<I").pack_into,
        "put_f64": struct.Struct("<d").pack_into,
    }


class Emitter:
    """Accumulates generated statements at explicit nesting depths.

    A sub-emitter (``Emitter(parent)``) shares the parent's inline-cache
    site lists — only the line buffer is private — so nested arms
    allocate cache sites from the same sequence as the enclosing trace.
    """

    __slots__ = ("lines", "load_sites", "store_sites")

    def __init__(self, parent: "Emitter | None" = None):
        self.lines: list[str] = []
        if parent is None:
            self.load_sites: list[int] = []
            self.store_sites: list[int] = []
        else:
            self.load_sites = parent.load_sites
            self.store_sites = parent.store_sites

    def emit(self, line: str, depth: int = 0) -> None:
        self.lines.append("    " * depth + line)

    def load_site(self) -> int:
        sid = len(self.load_sites)
        self.load_sites.append(sid)
        return sid

    def store_site(self) -> int:
        sid = len(self.store_sites)
        self.store_sites.append(sid)
        return sid


class Acct:
    """Instret-offset bookkeeping for the generated source.

    Until the trace inlines a diamond, every commit site knows the
    retired count as a compile-time constant.  A diamond's arms retire
    different counts, so the first one switches the trace to *runtime*
    mode: a local ``_n`` holds the instructions retired up to the last
    join, and commits become ``_n + <constant>``.  (The native JIT never
    inlines diamonds, so its accounting stays constant throughout.)
    """

    __slots__ = ("runtime",)

    def __init__(self):
        self.runtime = False

    def expr(self, offset: int) -> str:
        if not self.runtime:
            return str(offset)
        return "_n" if offset == 0 else f"_n + {offset}"


# ---------------------------------------------------------------------------
# per-site inline memory caches
# ---------------------------------------------------------------------------
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
# inlined hostcall (patched in at assembly time via ``FLUSH`` so a
# hostcall early in a loop also drops sites emitted after it).


def emit_load_refill(em, sid, depth):
    em.emit("_sg = memory._last", depth)
    em.emit(f"_lb{sid} = _sg.base", depth)
    em.emit(f"_ll{sid} = _lb{sid} + _sg.size", depth)
    em.emit(f"_ld{sid} = _sg.data", depth)


def emit_store_refill(em, sid, depth):
    em.emit("_sg = memory._last", depth)
    em.emit(f"_sb{sid} = _sg.base", depth)
    em.emit(f"_sl{sid} = _sb{sid} + _sg.size", depth)
    em.emit(f"_sd{sid} = _sg.data", depth)


def cache_cells(em) -> tuple[list[str], str]:
    """The closure-cell names and the "invalidate every site" statement
    for the sites allocated through *em* (used by both assemblers)."""
    cells = []
    for s in em.load_sites:
        cells += [f"_lb{s}", f"_ll{s}", f"_ld{s}"]
    for s in em.store_sites:
        cells += [f"_sb{s}", f"_sl{s}", f"_sd{s}"]
    invalidate = " = ".join(
        [f"_lb{s} = _ll{s}" for s in em.load_sites]
        + [f"_sb{s} = _sl{s}" for s in em.store_sites]
    )
    return cells, invalidate


# ---------------------------------------------------------------------------
# the register-op table
# ---------------------------------------------------------------------------
# The effect of every non-faulting register op, written once as Python
# statements over operand placeholders.  Both JITs emit a row with
# literal operands into their superblock source (``emit_op``); both
# threaded tiers build their predecoded closures from the same text
# (``threaded_closure``).  Placeholders:
#
# * ``{rd}`` ``{rs}`` ``{rt}`` ``{fd}`` ``{fs}`` ``{ft}`` — register
#   indexes;
# * the instruction's one constant, pre-normalized to its 32-bit
#   pattern ``u32(imm)`` and spelled ``{imm}``, or read as ``{simm}``
#   (signed), ``{bimm}`` (biased: ``imm ^ 0x80000000`` orders unsigned
#   as ``imm`` orders signed), ``{sh}`` (shift count, ``imm & 31``) or
#   ``{hi}`` (``imm << 16``; like the legacy executor, not re-masked);
# * ``{ccs}`` / ``{ccu}`` — the native signed / unsigned condition
#   codes: the ``_ccs``/``_ccu`` locals in the JIT, ``m.cc`` /
#   ``m.cc_unsigned`` in threaded closures.
#
# Rows may use the scratch locals ``_a``/``_b``.  Loads and stores,
# integer divide, ``fdiv`` and all control flow stay per tier (inline
# caches, fault and trap accounting); the legacy interpreters are the
# independently written oracle and never read this table.

_SEXT_A = "if _a & 0x80000000:\n    _a -= 0x100000000\n"
_SEXT_B = "if _b & 0x80000000:\n    _b -= 0x100000000\n"
# The conversions have always indented this body twice; kept so the
# emitted source stays byte-identical.
_SEXT_A_CVT = "if _a & 0x80000000:\n        _a -= 0x100000000\n"


def _set_rows() -> dict[str, str]:
    """OmniVM set-compares, register and ``<op>i`` constant forms.
    Signed ordered compares use the bias trick, so no sign-extension
    statements are needed."""
    rows = {}
    for op, (pred, signed) in SET_PREDS.items():
        cmp = CMP[pred]
        if signed and pred not in ("eq", "ne"):
            lhs, rhs, imm = ("(regs[{rs}] ^ 0x80000000)",
                             "(regs[{rt}] ^ 0x80000000)", "{bimm}")
        else:
            lhs, rhs, imm = "regs[{rs}]", "regs[{rt}]", "{imm}"
        rows[op] = f"regs[{{rd}}] = 1 if {lhs} {cmp} {rhs} else 0"
        rows[op + "i"] = f"regs[{{rd}}] = 1 if {lhs} {cmp} {imm} else 0"
    return rows


def cc_test(pred: str, invert: bool = False) -> str:
    """A native condition-code predicate over the ``{ccs}``/``{ccu}``
    slots (the ``u``-suffixed predicates read the unsigned codes)."""
    if pred in ("ltu", "leu", "gtu", "geu"):
        slot, base = "{ccu}", pred[:-1]
    else:
        slot, base = "{ccs}", pred
    return f"{slot} {CMP[CMP_INV[base] if invert else base]} 0"


_SET = _set_rows()

#: Rows with the same text on OmniVM and on the native targets.
_SHARED = {
    "add": "regs[{rd}] = (regs[{rs}] + regs[{rt}]) & 0xffffffff",
    "addi": "regs[{rd}] = (regs[{rs}] + {imm}) & 0xffffffff",
    "sub": "regs[{rd}] = (regs[{rs}] - regs[{rt}]) & 0xffffffff",
    "mul": "regs[{rd}] = (regs[{rs}] * regs[{rt}]) & 0xffffffff",
    "and": "regs[{rd}] = regs[{rs}] & regs[{rt}]",
    "andi": "regs[{rd}] = regs[{rs}] & {imm}",
    "or": "regs[{rd}] = regs[{rs}] | regs[{rt}]",
    "ori": "regs[{rd}] = regs[{rs}] | {imm}",
    "xor": "regs[{rd}] = regs[{rs}] ^ regs[{rt}]",
    "xori": "regs[{rd}] = regs[{rs}] ^ {imm}",
    "sll": "regs[{rd}] = (regs[{rs}] << (regs[{rt}] & 31)) & 0xffffffff",
    "slli": "regs[{rd}] = (regs[{rs}] << {sh}) & 0xffffffff",
    "srl": "regs[{rd}] = regs[{rs}] >> (regs[{rt}] & 31)",
    "srli": "regs[{rd}] = regs[{rs}] >> {sh}",
    "sra": ("_a = regs[{rs}]\n" + _SEXT_A
            + "regs[{rd}] = (_a >> (regs[{rt}] & 31)) & 0xffffffff"),
    "srai": ("_a = regs[{rs}]\n" + _SEXT_A
             + "regs[{rd}] = (_a >> {sh}) & 0xffffffff"),
    "sltu": _SET["sltu"],
    "li": "regs[{rd}] = {imm}",
    "mov": "regs[{rd}] = regs[{rs}]",
    "zext8": "regs[{rd}] = regs[{rs}] & 0xff",
    "zext16": "regs[{rd}] = regs[{rs}] & 0xffff",
    "sext8": ("_a = regs[{rs}] & 0xff\n"
              "regs[{rd}] = (_a | 0xffffff00) if _a & 0x80 else _a"),
    "sext16": ("_a = regs[{rs}] & 0xffff\n"
               "regs[{rd}] = (_a | 0xffff0000) if _a & 0x8000 else _a"),
    "cvtdw": "_a = regs[{rs}]\n" + _SEXT_A_CVT + "fregs[{fd}] = float(_a)",
    "cvtsw": ("_a = regs[{rs}]\n" + _SEXT_A_CVT
              + "fregs[{fd}] = round_f32(float(_a))"),
    "cvtdwu": "fregs[{fd}] = float(regs[{rs}])",
    "cvtswu": "fregs[{fd}] = round_f32(float(regs[{rs}]))",
    "cvtwd": "regs[{rd}] = f_to_i32(fregs[{fs}])",
    "cvtws": "regs[{rd}] = f_to_i32(fregs[{fs}])",
    "cvtwud": "regs[{rd}] = f_to_u32(fregs[{fs}])",
    "cvtwus": "regs[{rd}] = f_to_u32(fregs[{fs}])",
    "cvtds": "fregs[{fd}] = fregs[{fs}]",
    "cvtsd": "fregs[{fd}] = round_f32(fregs[{fs}])",
}
# FP moves and arithmetic: the ``s`` forms round to single precision.
# CPython float +, -, * overflow to inf without raising, so none of
# these can trap (``fdiv``'s zero check stays per tier).
_FP_EXPRS = {"fmov": "fregs[{fs}]", "fneg": "-fregs[{fs}]",
             "fabs": "abs(fregs[{fs}])",
             "fadd": "fregs[{fs}] + fregs[{ft}]",
             "fsub": "fregs[{fs}] - fregs[{ft}]",
             "fmul": "fregs[{fs}] * fregs[{ft}]"}
_SHARED.update({base + "d": "fregs[{fd}] = " + expr
                for base, expr in _FP_EXPRS.items()})
_SHARED.update({base + "s": f"fregs[{{fd}}] = round_f32({expr})"
                for base, expr in _FP_EXPRS.items()})
_SHARED.update({
    base + width: f"regs[{{rd}}] = 1 if fregs[{{fs}}] {cmp} fregs[{{ft}}] "
                  "else 0"
    for base, cmp in (("fceq", "=="), ("fclt", "<"), ("fcle", "<="))
    for width in "sd"})

#: OmniVM rows, by opcode (``alui`` ops under their own names).
OMNI_OPS: dict[str, str] = {
    **_SHARED, **_SET,
    "muli": "regs[{rd}] = (regs[{rs}] * {imm}) & 0xffffffff",
}

#: Native rows, by opcode (``setcc`` by ``setcc.<pred>``, see
#: :func:`native_row`).
NATIVE_OPS: dict[str, str] = {
    **_SHARED,
    "sltiu": _SET["sltui"],
    "nor": "regs[{rd}] = (~(regs[{rs}] | regs[{rt}])) & 0xffffffff",
    "lui": "regs[{rd}] = {hi}",
    "slt": ("_a = regs[{rs}]\n_b = regs[{rt}]\n" + _SEXT_A + _SEXT_B
            + "regs[{rd}] = 1 if _a < _b else 0"),
    "slti": ("_a = regs[{rs}]\n" + _SEXT_A
             + "regs[{rd}] = 1 if _a < {simm} else 0"),
    "cmp": ("_a = regs[{rs}]\n_b = regs[{rt}]\n"
            "{ccu} = (_a > _b) - (_a < _b)\n" + _SEXT_A + _SEXT_B
            + "{ccs} = (_a > _b) - (_a < _b)"),
    "cmpi": ("_a = regs[{rs}]\n{ccu} = (_a > {imm}) - (_a < {imm})\n"
             + _SEXT_A + "{ccs} = (_a > {simm}) - (_a < {simm})"),
    "fcmp": ("_a = fregs[{fs}]\n_b = fregs[{ft}]\n"
             "{ccs} = (_a > _b) - (_a < _b)\n{ccu} = {ccs}"),
    "sethnd": "m.handler_omni = regs[{rs}]",
    "nop": "",
}
NATIVE_OPS["subcc"] = NATIVE_OPS["cmp"]
NATIVE_OPS["fcmps"] = NATIVE_OPS["fcmp"]
NATIVE_OPS.update({
    "setcc." + pred: f"regs[{{rd}}] = 1 if {cc_test(pred)} else 0"
    for pred in ("eq", "ne", "lt", "le", "gt", "ge",
                 "ltu", "leu", "gtu", "geu")})


def native_row(mi) -> str | None:
    """The table row of native instruction *mi*, or None when its op
    stays per tier."""
    op = mi.op
    return NATIVE_OPS.get(f"setcc.{mi.pred}" if op == "setcc" else op)


# Each row compiles, once per process, into two generated functions of
# one instruction ``mi``: a JIT emitter returning the row's statements
# with literal operands, and a threaded closure factory returning
# ``fn(regs, fregs, memory)`` (OmniVM) or ``fn(m, regs, fregs, memory)``
# (native, optionally charging ``mi`` first).  Both bind exactly the
# placeholders the row uses, by the expressions below.
_BIND = {"rd": "mi.rd", "rs": "mi.rs", "rt": "mi.rt",
         "fd": "mi.fd", "fs": "mi.fs", "ft": "mi.ft",
         "imm": "mi.imm & 0xffffffff",
         "simm": "imm - 0x100000000 if imm & 0x80000000 else imm",
         "bimm": "imm ^ 0x80000000", "sh": "imm & 31", "hi": "imm << 16"}
_FORMATTER = string.Formatter()
_COMPILED: dict[tuple, object] = {}
_COMPILE_LOCK = threading.Lock()
_COMPILE_GLOBALS = base_exec_globals()


def _source(row: str, body: list[str], ret: str) -> str:
    used = {field for _, field, _, _ in _FORMATTER.parse(row) if field}
    if used & {"simm", "bimm", "sh", "hi"}:
        used.add("imm")
    lines = ["def _make(mi):"]
    lines += [f"    {name} = {expr}" for name, expr in _BIND.items()
              if name in used]
    return "\n".join(lines + body + [f"    return {ret}"])


def _emitter_source(row: str) -> str:
    keep = {name: "{" + name + "}" for name in _BIND}
    lines = row.format(ccs="_ccs", ccu="_ccu", **keep).splitlines()
    return _source(row, [], "[" + ", ".join("f" + repr(line)
                                            for line in lines) + "]")


def _factory_source(row: str, native: bool, charge: bool) -> str:
    names = {name: name for name in _BIND}
    body = row.format(ccs="m.cc", ccu="m.cc_unsigned", **names).splitlines()
    if charge:
        body.insert(0, "m._charge(mi)")
    params = "m, regs, fregs, memory" if native else "regs, fregs, memory"
    return _source(row, [f"    def fn({params}):"]
                   + ["        " + line for line in body or ["pass"]], "fn")


def _compiled(key: tuple, make_source, *args):
    """The ``_make`` function of ``make_source(*args)``, compiled once
    per process under *key* (safe under concurrent predecodes)."""
    make = _COMPILED.get(key)
    if make is None:
        with _COMPILE_LOCK:
            make = _COMPILED.get(key)
            if make is None:
                namespace = dict(_COMPILE_GLOBALS)
                exec(compile(make_source(*args), "<op-table>", "exec"),
                     namespace)
                make = _COMPILED[key] = namespace["_make"]
    return make


def emit_op(em, row: str, ins, depth: int = 0) -> None:
    """Emit *row* with *ins*'s operands as literals (the JIT form)."""
    for line in _compiled((row,), _emitter_source, row)(ins):
        em.emit(line, depth)


def threaded_closure(row: str, ins, native: bool = False,
                     charge: bool = False):
    """A threaded-tier closure running *row* over *ins*'s operands:
    ``fn(regs, fregs, memory)`` on OmniVM, ``fn(m, regs, fregs,
    memory)`` on a native target (calling ``m._charge(ins)`` first when
    *charge* is set)."""
    return _compiled((row, native, charge), _factory_source, row, native,
                     charge)(ins)


# ---------------------------------------------------------------------------
# side-exit heat promotion
# ---------------------------------------------------------------------------

class SideExitPromotion:
    """Deopt-promotion policy shared by both JIT tiers.

    Every guarded side exit calls ``vm._note_exit(entry, site, taken,
    exit_loc)`` on its way back to the dispatcher.  When one site's
    counter crosses the VM's heat threshold the trace is re-formed so
    the hot path stops deopting:

    * if the exit target leads back to the trace entry (a cycle the
      static predictor laid out the wrong way), the branch's prediction
      is recorded in the per-entry **override table** and the entry's
      superblock is recompiled with the formerly-exiting direction on
      trace — the cycle now closes inside one frame;
    * otherwise a trace is **anchored at the exit target** immediately,
      bypassing the dispatch heat ramp, so the deopt lands on compiled
      code instead of warming up the threaded tier again.

    Loop-closure edges (branches to/from the trace entry) are never
    overridden: a loop *exit* legitimately fires once per superblock
    entry, and flipping it would destroy the loop trace.  A flip is
    **provisional**: the site's counter resets at promotion time, and
    if the flipped trace deopts just as hard (the branch is unstable,
    or the first crossing was a slow trickle from a minority direction
    rather than a real bias) the override is reverted and the site
    **pinned** to the static layout — predictions cannot flip-flop,
    and a wrong flip costs at most one more heat ramp plus two
    recompiles.

    The learned state — exit heat, overrides, pinned sites, and the
    override-compiled superblocks — forms the entry's **promotion
    profile**.  With a translation cache the profile object lives in
    the in-memory side table under a digest-derived key and is adopted
    *by reference* by every machine of the same translation, so the
    heat ramp, flips, and reverts are paid once per program, not once
    per machine; digest-filtered invalidation drops the profile with
    the translations.  Without a cache the profile is per-machine.

    Hosting classes provide ``_jit_heat``, ``_jit_deopts``, and the
    hooks ``_promotion_profitable``, ``_repromote_entry`` and
    ``_anchor_exit`` (:class:`SuperblockTiering` provides all but the
    first and last).
    """

    #: Hard cap on overridden branches per trace entry.
    PROMOTE_LIMIT = 8

    @staticmethod
    def fresh_profile() -> dict:
        return {"exit_heat": {}, "overrides": {}, "promoted": set(),
                "pinned": set(), "fns": {}}

    def _init_promotion(self, profile: dict | None = None) -> None:
        if profile is None:
            profile = self.fresh_profile()
        self._jit_profile = profile
        self._exit_heat: dict[tuple, int] = profile["exit_heat"]
        self._trace_overrides: dict = profile["overrides"]
        self._promoted_sites: set[tuple] = profile["promoted"]
        self._pinned_sites: set[tuple] = profile["pinned"]
        self._promoted_fns: dict = profile["fns"]
        self._jit_promotions = 0
        self._jit_reverts = 0

    def _note_exit(self, entry, site, taken, exit_loc) -> None:
        self._jit_deopts += 1
        key = (entry, site)
        count = self._exit_heat.get(key, 0) + 1
        self._exit_heat[key] = count
        if count < self._jit_heat or key in self._pinned_sites:
            return
        if key in self._promoted_sites:
            # The flipped direction crossed the threshold too: revert
            # to the static layout and pin the site.
            self._pinned_sites.add(key)
            overrides = self._trace_overrides.get(entry)
            if overrides and site in overrides:
                del overrides[site]
                self._jit_reverts += 1
                self._repromote_entry(entry)
            return
        self._promoted_sites.add(key)
        self._exit_heat[key] = 0
        if self._promotion_profitable(entry, site, exit_loc):
            overrides = self._trace_overrides.setdefault(entry, {})
            if len(overrides) >= self.PROMOTE_LIMIT:
                self._pinned_sites.add(key)
                return
            overrides[site] = taken
            self._jit_promotions += 1
            self._repromote_entry(entry)
        else:
            self._pinned_sites.add(key)
            self._anchor_exit(exit_loc)

    # Hooks ----------------------------------------------------------------

    def _promotion_profitable(self, entry, site, exit_loc) -> bool:
        raise NotImplementedError

    def _repromote_entry(self, entry) -> None:
        raise NotImplementedError

    def _anchor_exit(self, exit_loc) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# tiering state shared by both JIT machines
# ---------------------------------------------------------------------------

class SuperblockTiering(SideExitPromotion):
    """Heat counters, the superblock dispatch map, promotion-profile
    adoption and compile bookkeeping of a JIT machine.

    A hosting class calls :meth:`_init_tiering` after its threaded
    tier is set up, keeps its own dispatch loop, and provides
    ``_compile(index, overrides) -> (source, fn)`` (``fn`` None when
    the entry cannot be compiled) plus the promotion hooks of
    :class:`SideExitPromotion`.  Superblocks compiled without
    overrides are shared through the cache's side table under
    ``side_key + (index,)``; the promotion profile under
    ``profile_key``.
    """

    def _init_tiering(self, cache, heat, side_key, profile_key) -> None:
        self._jit_cache = cache
        self._jit_heat = heat
        self._jit_side_key = side_key
        self._heat = [0] * self._threaded.length
        self._superblocks: dict[int, object] = {}
        self._jit_sources: dict[int, str] = {}
        self._superblocks_run = 0
        self._superblocks_compiled = 0
        self._jit_deopts = 0
        self._jit_compile_ms = 0.0
        profile = None
        if cache is not None and side_key is not None:
            profile = cache.probe_predecoded(profile_key)
            if profile is None:
                profile = self.fresh_profile()
                cache.put_predecoded(profile_key, profile)
        self._init_promotion(profile)
        # Adopted-profile entries dispatch straight to their promoted
        # superblocks (the plain warm path would find the unpromoted
        # form under the side-table keys).
        self._superblocks.update(self._promoted_fns)

    #: ``execute.*`` counter -> the attribute whose per-run delta it gets.
    _RUN_COUNTERS = (("superblocks", "_superblocks_compiled"),
                     ("deopts", "_jit_deopts"),
                     ("jit_compile_ms", "_jit_compile_ms"),
                     ("superblock_runs", "_superblocks_run"),
                     ("jit_promotions", "_jit_promotions"))

    def run(self, *args):
        before = [getattr(self, attr) for _, attr in self._RUN_COUNTERS]
        try:
            return super().run(*args)
        finally:
            if metrics.active():
                for (name, attr), start in zip(self._RUN_COUNTERS, before):
                    delta = getattr(self, attr) - start
                    if delta:
                        metrics.count("execute." + name, delta)

    def _install(self, index, overrides):
        """Compile the superblock at *index* and install it; None when
        the entry cannot be compiled."""
        start = time.perf_counter()
        source, fn = self._compile(index, overrides)
        self._jit_compile_ms += (time.perf_counter() - start) * 1000.0
        if fn is not None:
            self._superblocks_compiled += 1
            self._jit_sources[index] = source
            self._superblocks[index] = fn
        return fn

    def _compile_entry(self, index):
        """Compile (or fetch from the side table) the superblock at
        *index* and install it in the dispatch map.  Entries with
        promotion overrides are profile-specialized: their compiled
        form travels with the promotion profile, not the plain
        side-table keys."""
        overrides = self._trace_overrides.get(index)
        cache = self._jit_cache
        key = None
        if overrides:
            fn = self._promoted_fns.get(index)
            if fn is not None:
                self._superblocks[index] = fn
                return fn
        elif cache is not None and self._jit_side_key is not None:
            key = self._jit_side_key + (index,)
            fn = cache.probe_predecoded(key)
            if fn is not None:
                self._superblocks[index] = fn
                return fn
        fn = self._install(index, overrides)
        if fn is None:
            # Outside the emitter's vocabulary: pin the entry's heat so
            # the threaded tier keeps it for good.
            self._heat[index] = -(1 << 30)
        elif overrides:
            self._promoted_fns[index] = fn
        elif key is not None:
            cache.put_predecoded(key, fn)
        return fn

    def _repromote_entry(self, entry):
        overrides = self._trace_overrides.get(entry)
        fn = self._install(entry, overrides)
        if fn is None:
            return
        if overrides:
            self._promoted_fns[entry] = fn
        else:
            # all overrides reverted: the plain trace is current again
            self._promoted_fns.pop(entry, None)

    def _compile(self, index, overrides):
        raise NotImplementedError
