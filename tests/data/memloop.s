# Memory-heavy CI guest: a load/store-dense copy loop plus mixed-width
# stores, used by the determinism ladder to compare per-cycle and traced
# stepping byte-for-byte on a workload that lives on the trace tier's
# memory-slot fast path. Halts with the final self-checked checksum (0 on
# success) so both stepping modes' results are checked, too.
_start:
  la t5, src
  la t6, dst
  li s0, 4000
loop:
  lw t0, 0(t5)
  addi t0, t0, 3
  sw t0, 0(t6)
  sh t0, 4(t6)
  sb t0, 8(t6)
  lbu t1, 8(t6)
  add s1, s1, t1
  addi s0, s0, -1
  bnez s0, loop
  li t2, 176000        # 4000 iterations x (41 + 3) accumulated via lbu
  bne s1, t2, fail
  halt zero
fail:
  li a0, 1
  halt a0
  .data
src:
  .word 41
dst:
  .word 0
  .word 0
  .word 0
