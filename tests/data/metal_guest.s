# Metal-heavy CI guest (mcode: metal_mcode.s): forty iterations of two
# loads, each intercepted into an mroutine that emulates it and updates an
# MRAM checksum through a dcache-missing plw/psw loop. Nearly every cycle is
# Metal mode, so this is where the ladder compares Metal traces and in-trace
# dcache misses against the per-cycle reference. Halts 0 when the emulated
# loads returned the table's values and the checksum matches, 1 otherwise.
  _start:
    la s2, table
    li s0, 40
    li s1, 0
    menter 1                  # arm load interception
  loop:
    lw t0, 0(s2)              # intercepted and emulated by entry 2
    add s1, s1, t0
    lw t1, 4(s2)
    add s1, s1, t1
    addi s0, s0, -1
    bnez s0, loop
    menter 3                  # disarm; a0 = MRAM checksum
    li t2, 280                # 40 x (3 + 4)
    bne s1, t2, fail
    li t2, 12640              # 80 calls; call c folds four words that each hold c
    bne a0, t2, fail
    halt zero
  fail:
    li a0, 1
    halt a0
  .data
  table:
    .word 3, 4
