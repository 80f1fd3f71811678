"""Cross-layer semantic consistency (hypothesis).

The same 32-bit operation is implemented in several places: the
constant folder (compile time), the OmniVM interpreter (reference
semantics), the target executors (translated semantics), and the op
table of :mod:`repro.jitcore` from which both threaded tiers and both
superblock JITs are generated.  If any pair disagrees, the optimizer or
a faster tier could change program behaviour — so we check them against
each other directly, operation by operation, on random and edge-case
operands.

Every example runs its op as a tiny program under each tier
(``TIERS``): the legacy per-instruction loop, the threaded tier, and
the JIT with heat 1 (so the superblock compiles on first dispatch), on
OmniVM and on the native targets.
"""

import math

from hypothesis import example, given
from hypothesis import strategies as st

from repro.ir.ir import Const
from repro.omnivm.interp import OmniVM
from repro.omnivm.isa import REG_RA, VMInstr
from repro.omnivm.jit import JitVM
from repro.omnivm.linker import LinkedProgram
from repro.omnivm.memory import CODE_BASE, Memory
from repro.omnivm.threaded import ThreadedVM
from repro.opt.constfold import eval_binop, eval_cast, eval_cmp
from repro.targets.base import MInstr, TargetMachine
from repro.targets.jit import JitTargetMachine
from repro.targets.threaded import ThreadedTargetMachine
from repro.translators import target_spec
from repro.utils.bits import f64_to_bits, s32, u32

TIERS = ("legacy", "threaded", "jit")
ARCHS = ("mips", "sparc", "ppc", "x86")

#: Edge operands: sign bit, all ones, and shift counts >= 32.
EDGE_U32 = (0, 1, 31, 32, 33, 63, 64, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
u32s = st.one_of(st.sampled_from(EDGE_U32),
                 st.integers(min_value=0, max_value=2**32 - 1))
#: Edge floats: signed zero, infinities, NaN, and values that overflow
#: single precision or the i32/u32 conversion range.
EDGE_F = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -1.5, 2.0**31,
          -2.0**31, 2.0**32, 3.5e38, -1e300, 5e-324)
floats = st.one_of(st.sampled_from(EDGE_F), st.floats())
archs = st.sampled_from(ARCHS)

_INT_OPS = ["add", "sub", "mul", "div", "rem", "and", "or", "xor",
            "shl", "shr"]
_OMNI_OP = {"add": "add", "sub": "sub", "mul": "mul",
            "and": "and", "or": "or", "xor": "xor", "shl": "sll"}
#: Folded-immediate forms (OmniVM ``alui`` / native ``*i`` ops).
_OMNI_IMM = {"add": "addi", "mul": "muli", "and": "andi", "or": "ori",
             "xor": "xori", "sll": "slli", "srl": "srli", "sra": "srai"}
_NATIVE_IMM = {"add": "addi", "and": "andi", "or": "ori", "xor": "xori",
               "sll": "slli", "srl": "srli", "sra": "srai"}
_SET_OP = {"eq": "seq", "ne": "sne", "lt": "slt", "le": "sle",
           "gt": "sgt", "ge": "sge"}
_CVT_OPS = ["cvtdw", "cvtsw", "cvtdwu", "cvtswu", "cvtwd", "cvtws",
            "cvtwud", "cvtwus", "cvtds", "cvtsd"]
_FP_OPS = [base + width for base in ("fmov", "fneg", "fabs", "fadd", "fsub",
                                     "fmul", "fceq", "fclt", "fcle")
           for width in "sd"]
_CC_PREDS = ["eq", "ne", "lt", "le", "gt", "ge", "ltu", "leu", "gtu", "geu"]


# ---------------------------------------------------------------------------
# one op as a tiny program, per tier
# ---------------------------------------------------------------------------

def run_omni(instrs, tier, regs=(), fregs=()):
    """Run *instrs* then ``jr ra`` on the OmniVM *tier*; returns the VM
    state, or None when the program raised."""
    program = LinkedProgram("t", instrs=list(instrs) + [
        VMInstr("jr", rs=REG_RA)])
    memory = Memory()
    if tier == "legacy":
        vm = OmniVM(program, memory)
    elif tier == "threaded":
        vm = ThreadedVM(program, memory)
    else:
        vm = JitVM(program, memory, heat=1)
    for index, value in regs:
        vm.state.regs[index] = value
    for index, value in fregs:
        vm.state.fregs[index] = value
    try:
        vm.run(CODE_BASE)
    except Exception:
        return None
    if tier == "jit":
        assert vm._superblocks_compiled == 1
    return vm.state


def run_native(arch, instrs, tier, regs=(), fregs=()):
    """Run *instrs* then ``jr ra`` (plus its delay slot) on *arch*'s
    *tier*; returns the machine, or None when the program raised."""
    spec = target_spec(arch)
    instrs = list(instrs) + [MInstr("jr", rs=spec.reserved.get("ra", 31)),
                             MInstr("nop")]
    if tier == "legacy":
        machine = TargetMachine(spec, instrs, Memory(), {})
    elif tier == "threaded":
        machine = ThreadedTargetMachine(spec, instrs, Memory(), {})
    else:
        machine = JitTargetMachine(spec, instrs, Memory(), {}, heat=1)
    for index, value in regs:
        machine.regs[index] = value
    for index, value in fregs:
        machine.fregs[index] = value
    try:
        machine.run(0)
    except Exception:
        return None
    if tier == "jit":
        assert machine._superblocks_compiled == 1
    return machine


def on_every_tier(run):
    """``run(tier)`` on each tier; asserts they agree and returns the
    legacy tier's result."""
    results = {tier: run(tier) for tier in TIERS}
    assert results["threaded"] == results["legacy"], results
    assert results["jit"] == results["legacy"], results
    return results["legacy"]


def omni_int(instr, tier, a=0, b=0):
    state = run_omni([instr], tier, regs=((1, a), (2, b)))
    return None if state is None else state.regs[3]


def native_int(arch, instrs, tier, a=0, b=0):
    machine = run_native(arch, instrs, tier, regs=((8, a), (9, b)))
    return None if machine is None else machine.regs[10]


# ---------------------------------------------------------------------------
# integer ALU
# ---------------------------------------------------------------------------

def _reg_op(op: str, signed: bool) -> str:
    if op == "div":
        return "div" if signed else "divu"
    if op == "rem":
        return "rem" if signed else "remu"
    if op == "shr":
        return "sra" if signed else "srl"
    return _OMNI_OP[op]


def interp_alu(op: str, a: int, b: int, signed: bool,
               tier: str = "legacy") -> int | None:
    """Run one ALU op through the OmniVM *tier*, in register form and
    (where one exists) folded-immediate form; both must agree."""
    name = _reg_op(op, signed)
    value = omni_int(VMInstr(name, rd=3, rs=1, rt=2), tier, a, b)
    if name in _OMNI_IMM:
        folded = omni_int(VMInstr(_OMNI_IMM[name], rd=3, rs=1, imm=s32(b)),
                          tier, a)
        assert folded == value, (name, tier)
    return value


def target_alu(arch: str, op: str, a: int, b: int, signed: bool,
               tier: str = "legacy") -> int | None:
    name = _reg_op(op, signed)
    value = native_int(arch, [MInstr(name, rd=10, rs=8, rt=9)], tier, a, b)
    if name in _NATIVE_IMM:
        folded = native_int(
            arch, [MInstr(_NATIVE_IMM[name], rd=10, rs=8, imm=s32(b))],
            tier, a)
        assert folded == value, (name, tier)
    return value


@given(op=st.sampled_from(_INT_OPS), a=u32s, b=u32s,
       signed=st.booleans())
@example(op="shr", a=0x80000000, b=33, signed=True)
@example(op="shl", a=0xFFFFFFFF, b=32, signed=False)
def test_constfold_matches_interpreter(op, a, b, signed):
    ty = "i32" if signed else "u32"
    value_a = s32(a) if signed else a
    value_b = s32(b) if signed else b
    # Shift amounts: the folder and interpreter must both mask to 5 bits.
    folded = eval_binop(op, Const(value_a, ty), Const(value_b, ty), ty)
    executed = on_every_tier(lambda tier: interp_alu(op, a, b, signed, tier))
    if folded is None:
        assert executed is None or op in ("shl", "shr")  # div/rem by 0
        return
    assert executed is not None
    assert u32(int(folded.value)) == executed


@given(op=st.sampled_from(_INT_OPS), a=u32s, b=u32s, signed=st.booleans(),
       arch=archs)
@example(op="shr", a=0x80000000, b=63, signed=True, arch="mips")
@example(op="div", a=0x80000000, b=0xFFFFFFFF, signed=True, arch="x86")
def test_targets_match_interpreter(op, a, b, signed, arch):
    reference = interp_alu(op, a, b, signed)
    native = on_every_tier(
        lambda tier: target_alu(arch, op, a, b, signed, tier))
    assert reference == native


@given(op=st.sampled_from(["nor", "lui", "li", "mov"]), a=u32s, b=u32s,
       arch=archs)
def test_native_only_register_ops(op, a, b, arch):
    instr = MInstr(op, rd=10, rs=8, rt=9, imm=s32(b))
    executed = on_every_tier(
        lambda tier: native_int(arch, [instr], tier, a, b))
    expected = {"nor": u32(~(a | b)), "lui": b << 16, "li": b, "mov": a}[op]
    assert executed == expected


# ---------------------------------------------------------------------------
# compares: OmniVM set-compares, native slt*/cmp*+setcc
# ---------------------------------------------------------------------------

@given(pred=st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]),
       a=u32s, b=u32s, signed=st.booleans(), arch=archs)
@example(pred="lt", a=0x80000000, b=0x7FFFFFFF, signed=True, arch="mips")
@example(pred="ge", a=0xFFFFFFFF, b=0, signed=False, arch="sparc")
def test_compare_consistency(pred, a, b, signed, arch):
    ty = "i32" if signed else "u32"
    folded = eval_cmp(pred, Const(s32(a) if signed else a, ty),
                      Const(s32(b) if signed else b, ty), ty).value
    # Reference: interpreter's set-compare instruction family, register
    # and compare-immediate forms.
    name = _SET_OP[pred]
    if not signed and pred in ("lt", "le", "gt", "ge"):
        name += "u"
    for instr in (VMInstr(name, rd=3, rs=1, rt=2),
                  VMInstr(name + "i", rd=3, rs=1, imm=s32(b))):
        assert on_every_tier(
            lambda tier: omni_int(instr, tier, a, b)) == folded
    # Native: compare into the condition codes, then setcc.
    cc_pred = pred + ("u" if not signed and pred not in ("eq", "ne")
                      else "")
    for compare in (MInstr("cmp", rs=8, rt=9), MInstr("subcc", rs=8, rt=9),
                    MInstr("cmpi", rs=8, imm=s32(b))):
        program = [compare, MInstr("setcc", rd=10, pred=cc_pred)]
        assert on_every_tier(
            lambda tier: native_int(arch, program, tier, a, b)) == folded
    if pred == "lt":
        ops = ("slt", "slti") if signed else ("sltu", "sltiu")
        for instr in (MInstr(ops[0], rd=10, rs=8, rt=9),
                      MInstr(ops[1], rd=10, rs=8, imm=s32(b))):
            assert on_every_tier(
                lambda tier: native_int(arch, [instr], tier, a, b)) == folded


@given(pred=st.sampled_from(_CC_PREDS), a=u32s, b=u32s, arch=archs)
def test_setcc_every_predicate(pred, a, b, arch):
    signed_a, signed_b = s32(a), s32(b)
    if pred.endswith("u"):
        lhs, rhs, base = a, b, pred[:-1]
    else:
        lhs, rhs, base = signed_a, signed_b, pred
    expected = int({"eq": lhs == rhs, "ne": lhs != rhs, "lt": lhs < rhs,
                    "le": lhs <= rhs, "gt": lhs > rhs,
                    "ge": lhs >= rhs}[base])
    for compare in (MInstr("cmp", rs=8, rt=9),
                    MInstr("cmpi", rs=8, imm=signed_b)):
        program = [compare, MInstr("setcc", rd=10, pred=pred)]
        assert on_every_tier(
            lambda tier: native_int(arch, program, tier, a, b)) == expected


# ---------------------------------------------------------------------------
# extension and conversion
# ---------------------------------------------------------------------------

@given(value=u32s, subop=st.sampled_from(
    ["sext8", "sext16", "zext8", "zext16"]), arch=archs)
def test_extension_consistency(value, subop, arch):
    folded = u32(int(eval_cast(subop, Const(s32(value), "i32"),
                               "i32").value))
    instr = VMInstr(subop, rd=3, rs=1)
    assert on_every_tier(lambda tier: omni_int(instr, tier, value)) == folded
    native = MInstr(subop, rd=10, rs=8)
    assert on_every_tier(
        lambda tier: native_int(arch, [native], tier, value)) == folded


@given(value=st.floats(allow_nan=False, allow_infinity=False,
                       min_value=-2**31, max_value=2**31 - 1))
def test_f2i_truncation_consistency(value, ):
    folded = eval_cast("f2i", Const(value, "f64"), "i32")

    def run(tier):
        state = run_omni([VMInstr("cvtwd", rd=2, fs=1)], tier,
                         fregs=((1, value),))
        return state.regs[2]
    assert u32(int(folded.value)) == on_every_tier(run)


def _cvt_result(op, holder, regs, fregs):
    # cvtXY converts Y to X: a ``w`` destination is an integer register.
    return regs[3 if holder == "omni" else 10] if op[3] == "w" else \
        f64_to_bits(fregs[3])


@given(op=st.sampled_from(_CVT_OPS), ival=u32s, fval=floats, arch=archs)
@example(op="cvtwd", ival=0, fval=math.nan, arch="ppc")
@example(op="cvtwus", ival=0, fval=-0.0, arch="mips")
@example(op="cvtsw", ival=0x80000000, fval=0.0, arch="x86")
@example(op="cvtsd", ival=0, fval=-math.inf, arch="sparc")
def test_conversion_consistency(op, ival, fval, arch):
    def omni(tier):
        state = run_omni([VMInstr(op, rd=3, rs=1, fd=3, fs=1)], tier,
                         regs=((1, ival),), fregs=((1, fval),))
        return _cvt_result(op, "omni", state.regs, state.fregs)

    def native(tier):
        machine = run_native(arch, [MInstr(op, rd=10, rs=8, fd=3, fs=1)],
                             tier, regs=((8, ival),), fregs=((1, fval),))
        return _cvt_result(op, "native", machine.regs, machine.fregs)

    assert on_every_tier(omni) == on_every_tier(native)


# ---------------------------------------------------------------------------
# floating point: moves, arithmetic, compares
# ---------------------------------------------------------------------------

@given(op=st.sampled_from(_FP_OPS), x=floats, y=floats, arch=archs)
@example(op="fnegd", x=0.0, y=0.0, arch="mips")
@example(op="fabss", x=-math.inf, y=0.0, arch="x86")
@example(op="fceqd", x=math.nan, y=math.nan, arch="ppc")
@example(op="fmuls", x=3.5e38, y=2.0, arch="sparc")
@example(op="faddd", x=math.inf, y=-math.inf, arch="mips")
def test_fp_consistency(op, x, y, arch):
    into_int = op.startswith("fc")

    def omni(tier):
        state = run_omni([VMInstr(op, rd=3, fd=3, fs=1, ft=2)], tier,
                         fregs=((1, x), (2, y)))
        return state.regs[3] if into_int else f64_to_bits(state.fregs[3])

    def native(tier):
        machine = run_native(arch, [MInstr(op, rd=10, fd=3, fs=1, ft=2)],
                             tier, fregs=((1, x), (2, y)))
        return machine.regs[10] if into_int else f64_to_bits(
            machine.fregs[3])

    assert on_every_tier(omni) == on_every_tier(native)


@given(op=st.sampled_from(["fcmp", "fcmps"]),
       pred=st.sampled_from(_CC_PREDS), x=floats, y=floats, arch=archs)
@example(op="fcmp", pred="eq", x=math.nan, y=1.0, arch="sparc")
@example(op="fcmps", pred="lt", x=-0.0, y=0.0, arch="x86")
def test_fp_compare_then_setcc(op, pred, x, y, arch):
    def native(tier):
        machine = run_native(
            arch, [MInstr(op, fs=1, ft=2), MInstr("setcc", rd=10, pred=pred)],
            tier, fregs=((1, x), (2, y)))
        return machine.regs[10], machine.cc, machine.cc_unsigned

    _setcc, cc, cc_unsigned = on_every_tier(native)
    assert cc == cc_unsigned == (x > y) - (x < y)
