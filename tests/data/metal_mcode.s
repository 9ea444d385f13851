# Metal-heavy CI guest mcode (see metal_guest.s). Entry 1 arms interception
# of every load into entry 2, which emulates the load with plw, hands the
# value back with mopw, and folds a table of four DRAM words 4 KiB apart
# into a checksum kept in MRAM data. The four words share one line of the
# default 4 KiB direct-mapped dcache, so every fold plw misses; the
# mroutine runs as Metal traces (an intercept entry and the fold loop's
# taken back edge are pipeline refills), with the misses frozen in-trace.
# Entry 3 disarms interception and returns the checksum in a0.
    .equ D_SUM, 0             # running checksum in the MRAM data segment
    .equ D_CALLS, 4           # intercepted loads served
    .equ FOLD_BASE, 0x00090000

    .mentry 1, arm
    .mentry 2, on_load
    .mentry 3, disarm

  arm:
    li t0, 0x80000003         # enable slot 0: opcode LOAD, any funct3
    li t1, 2                  # -> entry 2
    mintset t0, t1
    mexit

  disarm:
    li t0, 0x00000003         # slot 0 off
    li t1, 2
    mintset t0, t1
    mld a0, D_SUM(zero)
    mexit

  on_load:
    wmr m10, t0               # transparent: preserve the guest's temporaries
    wmr m11, t1
    wmr m12, t2
    wmr m13, t3
    mopr t0, 0                # rs1 value
    mopr t1, 2                # immediate
    add t0, t0, t1            # effective address (paging is off)
    plw t1, 0(t0)
    mopw t1                   # the intercepted load's result, written at mexit
    mld t2, D_SUM(zero)
    li t3, 4
    li t0, FOLD_BASE
  fold:
    plw t1, 0(t0)             # misses: the previous word evicted this line
    add t2, t2, t1            # load-use stall right behind the miss
    addi t1, t1, 1
    psw t1, 0(t0)
    li t1, 4096
    add t0, t0, t1
    addi t3, t3, -1
    bnez t3, fold
    mst t2, D_SUM(zero)
    mld t3, D_CALLS(zero)
    addi t3, t3, 1
    mst t3, D_CALLS(zero)
    rmr t0, m10
    rmr t1, m11
    rmr t2, m12
    rmr t3, m13
    mexit
