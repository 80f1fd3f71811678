"""MIPS R4400 target model.

Characteristics modeled (the ones the paper's numbers depend on):

* 32 integer registers — OmniVM's 16 map 1:1 onto r8..r23, with the
  runtime reserving r1 (assembler scratch ``at``), r24/r25 (SFI data-mask
  and data-segment-base dedicated registers), r28 (``gp``), r29 (sp),
  r31 (ra);
* 16-bit immediates: 32-bit constants need ``lui``+``ori`` (the Figure-1
  ``ldi`` category);
* no indexed addressing: OmniVM ``lwx`` needs an ``addu`` first (the
  ``addr`` category);
* compare-and-branch only against zero (``beq``/``bne``/``bltz``...):
  general OmniVM compare-and-branch needs ``slt`` + ``bne`` (``cmp``
  category), and only ``slti`` exists for immediate compares (driving the
  ``ldi`` overhead the paper observes in ``eqntott``/``compress``);
* **branch delay slots**, filled by the scheduler or with ``nop``
  (``bnop`` category);
* superpipelined timing: 2-cycle load-use latency, multi-cycle mul/div,
  1-cycle taken-branch penalty beyond the slot.
"""

from __future__ import annotations

from repro.targets.base import TargetSpec, Timing

# Register conventions.
AT = 1          # assembler / translator scratch
SFI_MASK = 24   # dedicated: segment offset mask
SFI_BASE = 25   # dedicated: data segment base
GP = 28         # global pointer
SP = 29
RA = 31
SFI_CODE_BASE = 26  # dedicated: code segment base (k0)
SFI_CODE_MASK = 27  # dedicated: code offset+alignment mask (k1)

#: OmniVM integer registers r0..r15 -> MIPS r8..r23.
INT_MAP = {i: 8 + i for i in range(16)}
INT_MAP[15] = SP   # OmniVM sp -> MIPS sp
INT_MAP[14] = RA   # OmniVM ra -> MIPS ra

FP_MAP = {i: i for i in range(16)}


def _timing() -> Timing:
    return Timing(
        name="mips-r4400",
        load_latency=2,
        mul_latency=10,
        div_latency=36,
        fp_add_latency=4,
        fp_mul_latency=7,
        fp_div_latency=23,
        cmp_latency=1,
        taken_branch_penalty=1,
        has_delay_slot=True,
        dual_issue=None,
    )


def spec() -> TargetSpec:
    return TargetSpec(
        name="mips",
        num_regs=32,
        num_fregs=32,
        int_map=dict(INT_MAP),
        fp_map=dict(FP_MAP),
        reserved={
            "at": AT,
            "sfi_mask": SFI_MASK,
            "sfi_base": SFI_BASE,
            "sfi_code_base": SFI_CODE_BASE,
            "sfi_code_mask": SFI_CODE_MASK,
            "gp": GP,
            "sp": SP,
            "ra": RA,
        },
        timing=_timing(),
        delay_slots=True,
        has_indexed_mem=False,
        imm_bits=16,
    )
