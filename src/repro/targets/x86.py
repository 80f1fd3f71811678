"""x86 (Pentium-class) target model.

The x86 is the stress case for OmniVM's register file: 8 machine
registers must host 16 OmniVM registers.  Following the paper, the
translator maps the hot OmniVM registers onto machine registers and the
rest onto **memory-resident register slots**; Pentium-class cores execute
instructions with one memory operand at full speed, which is why the
strategy works (Table 3: x86 mobile code within 2–25% of native).

Modeling choices (see DESIGN.md):

* register indexes 0..7 are machine registers; indexes 32..47 are the
  memory-resident OmniVM register file.  Semantically they are all just
  registers; the **timing model** charges extra when an instruction
  touches more than one memory-resident slot (the "one free memory
  operand" Pentium rule), and the **translator** inserts the extra moves
  two-operand x86 code needs (``twoop`` category);
* flags + ``jcc`` branch model (``cmp`` sets flags);
* 32-bit immediates everywhere — x86's big win: no ``ldi`` expansion;
* FP is a flat 8-register file with Pentium FP latencies (the x87 stack
  is not modeled; the FP-pipeline-scheduling benefit is);
* dual issue models the U/V pairing rules loosely: two simple ALU ops
  pair; anything touching memory-resident slots or FP pairs less.
"""

from __future__ import annotations

from repro.targets.base import MInstr, TargetSpec, Timing

# Machine registers.
EAX, ECX, EDX, EBX, ESP, EBP, ESI, EDI = range(8)

#: Memory-resident OmniVM register slots start here.
SLOT_BASE = 32

# OmniVM register mapping: the return/argument registers and the two
# codegen scratch registers are the hottest; they get machine registers.
INT_MAP = {
    0: EDI,
    1: EAX,
    2: ECX,
    3: EDX,
    4: EBX,
    5: ESI,          # OmniVM scratch r5
    15: ESP,         # sp
}
for omni in (6, 7, 8, 9, 10, 11, 12, 13, 14):
    INT_MAP[omni] = SLOT_BASE + omni

#: EBP is the dedicated SFI/address scratch register.
SFI_SCRATCH = EBP

FP_MAP = {i: 8 + (i % 8) if i >= 8 else i for i in range(16)}
# FP registers: OmniVM f0..f15 -> model f0..f15 directly (flat file).
FP_MAP = {i: i for i in range(16)}

_SIMPLE_PAIRABLE = frozenset(
    "add addi sub and andi or ori xor xori mov li slli srli srai "
    "sll srl sra slt sltu slti sltiu lw sw lb lbu lh lhu sb sh "
    "lwx sbx shx swx lbx lbux lhx lhux cmp cmpi".split()
)


def _touches_slots(instr: MInstr) -> bool:
    for kind, index in instr.cached_reads():
        if kind == "r" and index >= SLOT_BASE:
            return True
    for kind, index in instr.cached_writes():
        if kind == "r" and index >= SLOT_BASE:
            return True
    return False


def _dual_issue(first: MInstr, second: MInstr) -> bool:
    """Loose U/V pairing: two simple ops pair unless both touch the
    memory-resident register file."""
    if first.op not in _SIMPLE_PAIRABLE or second.op not in _SIMPLE_PAIRABLE:
        return False
    if _touches_slots(first) and _touches_slots(second):
        return False
    if first.is_load() and second.is_load():
        return False  # single load port
    return True


def _timing() -> Timing:
    return Timing(
        name="pentium",
        load_latency=1,
        mul_latency=10,
        div_latency=40,
        fp_add_latency=3,
        fp_mul_latency=3,
        fp_div_latency=39,
        cmp_latency=1,
        taken_branch_penalty=2,
        has_delay_slot=False,
        dual_issue=_dual_issue,
        memory_reg_threshold=SLOT_BASE,
        memory_reg_cost=1,
    )


def spec() -> TargetSpec:
    return TargetSpec(
        name="x86",
        num_regs=8,
        num_fregs=8,
        int_map=dict(INT_MAP),
        fp_map=dict(FP_MAP),
        reserved={
            "at": SFI_SCRATCH,
            "sfi_mask": -1,   # x86 masks with 32-bit immediates
            "sfi_base": -1,
            "sfi_code_base": -1,
            "gp": -1,
            "sp": ESP,
            "ra": SLOT_BASE + 14,
        },
        timing=_timing(),
        delay_slots=False,
        has_indexed_mem=True,
        imm_bits=32,
        real_regs=8,
    )
