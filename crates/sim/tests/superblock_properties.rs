//! Property tests for the superblock translation tier.
//!
//! Three angles:
//!
//! 1. **Differential**: random loop-heavy guest programs must leave a
//!    tiered machine and a pure single-step interpreter in identical
//!    architectural state (registers, memory, CSRs, keys, CLB, counters),
//!    co-run by `run_lockstep`.
//! 2. **Self-modifying code, cold path**: a store into the page holding an
//!    active superblock must invalidate the trace *before its next entry*,
//!    so the patched instruction semantics take effect on the very next
//!    iteration — on both datapaths.
//! 3. **Self-modifying code, mid-trace**: a store executed *inside* a
//!    running superblock that touches the block's own page must side-exit
//!    after retiring the store, and the machine must still agree with the
//!    interpreter instruction-for-instruction.
//! 4. **Exits after followed jumps and between chained blocks**: an
//!    exception after a `j` the trace followed, a timer due between two
//!    chained blocks, and a `j` to another page, each co-run against the
//!    interpreter with a full digest after every step.

use proptest::prelude::*;
use regvault_isa::{asm, KeyReg, Reg};
use regvault_sim::{arch_divergence, run_lockstep, Machine, MachineConfig, SimError, PAGE_SIZE};

const CODE_BASE: u64 = 0x8000_0000;
const DATA: [&str; 4] = ["t0", "t1", "t2", "t3"];

/// Two identical machines with key A set: `run_lockstep` drives the
/// first through the tier and single-steps the second.
fn pair() -> (Machine, Machine) {
    let build = || {
        let mut machine = Machine::new(MachineConfig::default());
        machine
            .write_key_register(KeyReg::A, 0x1111, 0x2222)
            .unwrap();
        machine
    };
    (build(), build())
}

/// Assemble `source`, run it to `ebreak` through the tier and on the
/// interpreter in lockstep, and return the finished machines.
fn run_both(source: &str) -> (Machine, Machine) {
    let program = asm::assemble(source).expect("assembles");
    let (mut tiered, mut interp) = pair();
    for machine in [&mut tiered, &mut interp] {
        machine.load_program(CODE_BASE, program.bytes());
        machine.hart_mut().set_pc(CODE_BASE);
    }
    let outcome = run_lockstep(&mut tiered, &mut interp, 8_000_000, 4096);
    assert!(outcome.agreed(), "{outcome:?}");
    assert_stopped_at_ebreak(&tiered);
    (tiered, interp)
}

/// `ebreak` leaves the pc on itself.
fn assert_stopped_at_ebreak(machine: &Machine) {
    let pc = machine.hart().pc();
    assert_eq!(
        machine.memory().read_u32(pc),
        Ok(encode("ebreak")),
        "terminates"
    );
}

/// Encoding of a single assembly instruction.
fn encode(source: &str) -> u32 {
    let program = asm::assemble(source).expect("assembles");
    u32::from_le_bytes(program.bytes()[0..4].try_into().unwrap())
}

/// Byte offset of the unique occurrence of `needle` in assembled code.
fn find_insn(bytes: &[u8], needle: u32) -> u64 {
    let mut found = None;
    for (i, word) in bytes.chunks_exact(4).enumerate() {
        if u32::from_le_bytes([word[0], word[1], word[2], word[3]]) == needle {
            assert!(found.is_none(), "patch target must be unique");
            found = Some((i * 4) as u64);
        }
    }
    found.expect("patch target present")
}

/// One random instruction (or short template) in the hot loop body.
///
/// Register roles: `t0`–`t3` are data, `t4` holds the crypto tweak, `s0`
/// the scratch base, `t6`/`s1` the loop counter and limit, `a1`/`a2` are
/// crypto scratch. Templates only write data and scratch registers, so the
/// loop always terminates.
#[derive(Debug, Clone)]
enum BodyOp {
    /// Register-register ALU op.
    Alu {
        op: usize,
        rd: usize,
        rs1: usize,
        rs2: usize,
    },
    /// Register-immediate ALU op.
    AluImm {
        op: usize,
        rd: usize,
        rs: usize,
        imm: i64,
    },
    /// Store a data register into the scratch page.
    Store { width: usize, rs: usize, slot: u64 },
    /// Load from the scratch page into a data register.
    Load { width: usize, rd: usize, slot: u64 },
    /// `cre` then either store the ciphertext straight away or round-trip
    /// it through `crd`.
    Crypto {
        src: usize,
        rd: usize,
        store: bool,
        slot: u64,
    },
    /// A forward branch guarding one instruction.
    Guarded {
        rs1: usize,
        rs2: usize,
        rd: usize,
        imm: i64,
    },
    /// A forward `j` over one dead instruction, which the trace follows.
    Skip { rd: usize, imm: i64 },
}

fn render(op: &BodyOp, idx: usize) -> String {
    match op {
        BodyOp::Alu { op, rd, rs1, rs2 } => {
            let mnem = ["add", "sub", "xor", "or", "and", "sll"][*op % 6];
            format!("{mnem} {}, {}, {}", DATA[*rd], DATA[*rs1], DATA[*rs2])
        }
        BodyOp::AluImm { op, rd, rs, imm } => match *op % 6 {
            0 => format!("addi {}, {}, {}", DATA[*rd], DATA[*rs], imm),
            1 => format!("xori {}, {}, {}", DATA[*rd], DATA[*rs], imm),
            2 => format!("ori {}, {}, {}", DATA[*rd], DATA[*rs], imm),
            3 => format!("andi {}, {}, {}", DATA[*rd], DATA[*rs], imm),
            4 => format!(
                "slli {}, {}, {}",
                DATA[*rd],
                DATA[*rs],
                imm.unsigned_abs() % 64
            ),
            _ => format!(
                "srli {}, {}, {}",
                DATA[*rd],
                DATA[*rs],
                imm.unsigned_abs() % 64
            ),
        },
        BodyOp::Store { width, rs, slot } => {
            let (mnem, scale) = [("sb", 1), ("sh", 2), ("sw", 4), ("sd", 8)][*width % 4];
            format!("{mnem} {}, {}(s0)", DATA[*rs], slot * scale)
        }
        BodyOp::Load { width, rd, slot } => {
            let (mnem, scale) = [("lbu", 1), ("lh", 2), ("lw", 4), ("ld", 8)][*width % 4];
            format!("{mnem} {}, {}(s0)", DATA[*rd], slot * scale)
        }
        BodyOp::Crypto {
            src,
            rd,
            store,
            slot,
        } => {
            if *store {
                format!(
                    "creak a1, {}[7:0], t4\n sd a1, {}(s0)",
                    DATA[*src],
                    slot * 8
                )
            } else {
                format!(
                    "creak a1, {}[7:0], t4\n crdak a2, a1, t4, [7:0]\n add {}, a2, {}",
                    DATA[*src], DATA[*rd], DATA[*src]
                )
            }
        }
        BodyOp::Guarded { rs1, rs2, rd, imm } => format!(
            "bne {}, {}, skip{idx}\n addi {}, {}, {}\nskip{idx}:",
            DATA[*rs1], DATA[*rs2], DATA[*rd], DATA[*rd], imm
        ),
        BodyOp::Skip { rd, imm } => format!(
            "j over{idx}\n addi {}, {}, {}\nover{idx}:",
            DATA[*rd], DATA[*rd], imm
        ),
    }
}

fn body_op() -> impl Strategy<Value = BodyOp> {
    prop_oneof![
        (0usize..6, 0usize..4, 0usize..4, 0usize..4).prop_map(|(op, rd, rs1, rs2)| BodyOp::Alu {
            op,
            rd,
            rs1,
            rs2
        }),
        (0usize..6, 0usize..4, 0usize..4, -512i64..512)
            .prop_map(|(op, rd, rs, imm)| BodyOp::AluImm { op, rd, rs, imm }),
        (0usize..4, 0usize..4, 0u64..15).prop_map(|(width, rs, slot)| BodyOp::Store {
            width,
            rs,
            slot
        }),
        (0usize..4, 0usize..4, 0u64..15).prop_map(|(width, rd, slot)| BodyOp::Load {
            width,
            rd,
            slot
        }),
        (0usize..4, 0usize..4, any::<bool>(), 0u64..15).prop_map(|(src, rd, store, slot)| {
            BodyOp::Crypto {
                src,
                rd,
                store,
                slot,
            }
        }),
        (0usize..4, 0usize..4, 0usize..4, -64i64..64)
            .prop_map(|(rs1, rs2, rd, imm)| BodyOp::Guarded { rs1, rs2, rd, imm }),
        (0usize..4, -64i64..64).prop_map(|(rd, imm)| BodyOp::Skip { rd, imm }),
    ]
}

/// A hot loop over the random body: scratch page zeroed up front so every
/// load is mapped, data registers seeded, `iters` iterations.
fn loop_program(body: &[BodyOp], iters: u64, seeds: &[u64; 4]) -> String {
    let mut text = String::from("li s0, 0x9000\n li t4, 0x9000\n");
    for slot in 0..16 {
        text.push_str(&format!("sd zero, {}(s0)\n ", slot * 8));
    }
    for (reg, seed) in DATA.iter().zip(seeds) {
        text.push_str(&format!("li {reg}, {seed}\n "));
    }
    // Two straight-line fillers so the loop head is always a buildable
    // trace (a body starting with a branch would otherwise leave the head
    // block below the tier's minimum length — a policy no-build, not a bug,
    // but it would defeat the `hits > 0` assertion below).
    text.push_str(&format!(
        "li t6, 0\n li s1, {iters}\nloop:\n add t5, t0, t1\n xor t5, t5, t2\n "
    ));
    for (idx, op) in body.iter().enumerate() {
        text.push_str(&render(op, idx));
        text.push_str("\n ");
    }
    text.push_str("addi t6, t6, 1\n blt t6, s1, loop\n ebreak");
    text
}

proptest! {
    /// Random loop-heavy programs: the superblock tier and the single-step
    /// interpreter finish in identical architectural state, and the tier
    /// actually engaged (the loop head runs hot).
    #[test]
    fn tier_matches_interpreter_on_random_programs(
        body in prop::collection::vec(body_op(), 1..10),
        iters in 32u64..128,
        seeds in (0u64..1024, 0u64..1024, 0u64..1024, 0u64..1024),
    ) {
        let seeds = [seeds.0, seeds.1, seeds.2, seeds.3];
        let source = loop_program(&body, iters, &seeds);
        let (tiered, interp) = run_both(&source);
        prop_assert_eq!(arch_divergence(&tiered, &interp), None);
        let stats = tiered.superblock_stats();
        prop_assert!(stats.hits > 0, "tier never engaged: {stats:?}");
        prop_assert!(stats.insns >= stats.hits);
    }

    /// A store into the page holding an active superblock invalidates the
    /// trace before its next entry: a guest patch of a loop-body
    /// instruction (addi imm 3 -> `new_imm`) changes semantics on the very
    /// next iteration, so the final accumulator matches the arithmetic
    /// expectation — on the tiered datapath, and in agreement with the
    /// interpreter.
    #[test]
    fn smc_patch_takes_effect_before_next_entry(
        patch_iter in 20u64..60,
        new_imm in 4i64..32,
    ) {
        const ITERS: u64 = 64;
        let new_word = encode(&format!("addi t2, t2, {new_imm}"));
        let text = |off: u64| -> String {
            format!(
                "li s0, 0x9000
                 li s2, {CODE_BASE}
                 li s3, {patch_iter}
                 li s4, {new_word}
                 li t6, 0
                 li s1, {ITERS}
                 li t0, 0
                 li t2, 0
                loop:
                 addi t0, t0, 1
                 addi t2, t2, 3
                 xor  t5, t0, t2
                 bne  t6, s3, nopatch
                 sw   s4, {off}(s2)
                nopatch:
                 addi t6, t6, 1
                 blt  t6, s1, loop
                 ebreak"
            )
        };
        // Two passes: locate the patch target in the assembled bytes, then
        // re-assemble with the real store offset (same instruction count).
        let probe = asm::assemble(&text(0)).expect("assembles");
        let off = find_insn(probe.bytes(), encode("addi t2, t2, 3"));
        let (tiered, interp) = run_both(&text(off));

        // Old imm (3) for iterations 0..=patch_iter (the patch lands after
        // the target already ran that iteration), new imm afterwards.
        let expected = 3 * (patch_iter + 1) + new_imm as u64 * (ITERS - patch_iter - 1);
        prop_assert_eq!(tiered.hart().reg(Reg::T2), expected);
        prop_assert_eq!(arch_divergence(&tiered, &interp), None);
        let stats = tiered.superblock_stats();
        prop_assert!(
            stats.invalidations >= 1,
            "patch must drop the stale trace: {stats:?}"
        );
    }
}

/// A store executed *inside* a running superblock that hits the block's own
/// page (here: rewriting a later loop instruction with its own encoding)
/// must side-exit after retiring the store and re-enter cleanly — every
/// iteration — while staying in lockstep with the interpreter.
#[test]
fn mid_trace_self_store_side_exits_and_invalidates() {
    const ITERS: u64 = 64;
    let own_word = encode("xor t5, t0, t2");
    let text = |off: u64| -> String {
        format!(
            "li s0, 0x9000
             li s2, {CODE_BASE}
             li s4, {own_word}
             li t6, 0
             li s1, {ITERS}
             li t0, 0
             li t2, 0
            loop:
             addi t0, t0, 1
             addi t2, t2, 3
             sw   s4, {off}(s2)
             xor  t5, t0, t2
             addi t6, t6, 1
             blt  t6, s1, loop
             ebreak"
        )
    };
    let probe = asm::assemble(&text(0)).expect("assembles");
    let off = find_insn(probe.bytes(), own_word);
    let (tiered, interp) = run_both(&text(off));

    assert_eq!(tiered.hart().reg(Reg::T0), ITERS);
    assert_eq!(tiered.hart().reg(Reg::T2), 3 * ITERS);
    assert_eq!(arch_divergence(&tiered, &interp), None);
    let stats = tiered.superblock_stats();
    assert!(stats.side_exits > 0, "self-store must side-exit: {stats:?}");
    assert!(
        stats.invalidations > 0,
        "self-store must invalidate the trace: {stats:?}"
    );
}

/// Two identical machines with `source` loaded at [`CODE_BASE`] and the pc
/// on its first instruction, for `run_lockstep` (or a single-step probe).
fn lockstep_pair(source: &str, config: MachineConfig) -> (Machine, Machine) {
    let program = asm::assemble(source).expect("assembles");
    let build = || {
        let mut machine = Machine::new(config);
        machine.load_program(CODE_BASE, program.bytes());
        machine.hart_mut().set_pc(CODE_BASE);
        machine
    };
    (build(), build())
}

/// Absolute address of `label` in `source` assembled at [`CODE_BASE`].
fn label_pc(source: &str, label: &str) -> u64 {
    let program = asm::assemble(source).expect("assembles");
    CODE_BASE + program.symbol(label).expect("label defined")
}

/// A load that faults right after a `j` the trace followed reports the
/// faulting load's pc, not the dead instruction `entry + 4 * retired`
/// points at, and the interpreter's `tval`.
#[test]
fn fault_after_followed_jump_reports_interpreter_pc_and_tval() {
    // The loop loads from the mapped scratch page until iteration 30, when
    // the address moves 1 MiB up, onto an unmapped page; by then the loop
    // is a hot trace, so the fault is raised inside it.
    let source = "li   s0, 0x9000
         sd   zero, 0(s0)
         li   s3, 30
         li   s1, 64
         li   t6, 0
        loop:
         addi t6, t6, 1
         xor  t3, t6, s3
         seqz t3, t3
         slli t3, t3, 20
         add  t4, s0, t3
         j    next
         addi t0, t0, 100
        next:
         ld   t2, 0(t4)
         blt  t6, s1, loop
         ebreak";
    let (mut tiered, mut interp) = lockstep_pair(source, MachineConfig::default());
    let outcome = run_lockstep(&mut tiered, &mut interp, 100_000, 1);
    assert!(outcome.agreed(), "{outcome:?}");
    assert_eq!(tiered.hart().pc(), label_pc(source, "next"));
    assert_eq!(tiered.stats().exceptions, 1);
    let stats = tiered.superblock_stats();
    assert_eq!(
        stats.side_exits, 1,
        "the fault is raised in a trace: {stats:?}"
    );
    assert_eq!(tiered.hart().reg(Reg::T0), 0, "the skipped addi never ran");
}

/// The exits of a trace that followed a jump that are not control
/// transfers take the pc from the exit table: an untranslatable `csrr`
/// and the length cap (a `j` back to its own head, followed until the cap)
/// run the trace off its end, and a store into the trace's own page stops
/// it after retiring.
#[test]
fn exits_after_followed_jump_take_the_interpreter_pc() {
    let csr_stop = "li   s1, 200
         li   t6, 0
        loop:
         addi t6, t6, 1
         addi t0, t0, 2
         j    tail
         addi t0, t0, 100
        tail:
         csrr t5, mstatus
         blt  t6, s1, loop
         ebreak"
        .to_owned();
    let cap_stop = "spin:
         addi a0, a0, 1
         j    spin"
        .to_owned();
    // The store rewrites the `xor` after it with its own encoding.
    let own_word = encode("xor t5, t0, t2");
    let smc_stop = |off: u64| {
        format!(
            "li   s2, {CODE_BASE}
             li   s4, {own_word}
             li   s1, 64
             li   t6, 0
            loop:
             addi t0, t0, 1
             j    store
             addi t0, t0, 100
            store:
             sw   s4, {off}(s2)
             xor  t5, t0, t2
             addi t6, t6, 1
             blt  t6, s1, loop
             ebreak"
        )
    };
    let probe = asm::assemble(&smc_stop(0)).expect("assembles");
    let smc_stop = smc_stop(find_insn(probe.bytes(), own_word));

    for (source, steps) in [(csr_stop, 100_000), (cap_stop, 5_000), (smc_stop, 100_000)] {
        let (mut tiered, mut interp) = lockstep_pair(&source, MachineConfig::default());
        let outcome = run_lockstep(&mut tiered, &mut interp, steps, 1);
        assert!(outcome.agreed(), "{source}: {outcome:?}");
        let stats = tiered.superblock_stats();
        assert!(stats.hits >= 10, "{source}: the trace ran hot: {stats:?}");
    }
}

/// A timer due one cycle after the boundary between two chained blocks
/// stops the chain there: the interrupt lands at the interpreter's
/// `instret` and `cycles`, one instruction into the second block.
#[test]
fn timer_between_chained_blocks_lands_at_interpreter_instret() {
    // Block `loop` always branches to block `mid`, which loops back: once
    // both are hot, every iteration is two blocks run in one chain.
    let source = "li   t6, 0
         li   s1, 200
        loop:
         addi t0, t0, 1
         addi t1, t1, 2
         xor  t2, t0, t1
         bge  t6, zero, mid
         addi t0, t0, 100
        mid:
         addi t3, t3, 3
         xor  t4, t3, t2
         addi t6, t6, 1
         blt  t6, s1, loop
         ebreak";
    const ITER: u64 = 40;
    let mid = label_pc(source, "mid");

    // Clock and instret as the interpreter reaches `mid` in iteration ITER.
    let (_, mut probe) = lockstep_pair(source, MachineConfig::default());
    let mut arrivals = 0;
    while arrivals < ITER {
        assert_eq!(probe.step().unwrap(), None);
        if probe.hart().pc() == mid {
            arrivals += 1;
        }
    }
    let (cycles, instret) = (probe.stats().cycles, probe.stats().instret);

    let config = MachineConfig {
        timer_interval: Some(cycles + 1),
        ..MachineConfig::default()
    };
    let (mut tiered, mut interp) = lockstep_pair(source, config);
    let outcome = run_lockstep(&mut tiered, &mut interp, 100_000, 1);
    assert!(outcome.agreed(), "{outcome:?}");
    assert_eq!(tiered.stats().timer_interrupts, 1);
    assert_eq!(tiered.stats().instret, instret + 1);
    assert_eq!(tiered.stats().cycles, interp.stats().cycles);
    assert_eq!(tiered.hart().pc(), mid + 4);
    let stats = tiered.superblock_stats();
    assert!(
        stats.hits >= 2 * (ITER - 16),
        "both blocks ran hot before the timer: {stats:?}"
    );
}

/// A block that branches back to its own entry re-runs without the slot
/// probe, and each pass still takes the full entry precheck: a timer, a
/// watchdog budget and a planned fault each due mid-loop stop it exactly
/// where the interpreter observes them.
#[test]
fn self_looping_block_stops_for_timer_watchdog_and_fault() {
    let source = "li   t6, 0
         li   s1, 200
         li   s0, 0x9000
        loop:
         addi t0, t0, 1
         addi t1, t1, 2
         xor  t2, t0, t1
         addi t6, t6, 1
         blt  t6, s1, loop
         ebreak";
    const ITER: u64 = 60;
    let at = label_pc(source, "loop") + 8;

    // Clock and instret as the interpreter reaches `at` in iteration ITER.
    let (_, mut probe) = lockstep_pair(source, MachineConfig::default());
    let mut arrivals = 0;
    while arrivals < ITER {
        assert_eq!(probe.step().unwrap(), None);
        if probe.hart().pc() == at {
            arrivals += 1;
        }
    }
    let (cycles, instret) = (probe.stats().cycles, probe.stats().instret);

    // Timer one cycle past that point.
    let config = MachineConfig {
        timer_interval: Some(cycles + 1),
        ..MachineConfig::default()
    };
    let (mut tiered, mut interp) = lockstep_pair(source, config);
    let outcome = run_lockstep(&mut tiered, &mut interp, 100_000, 1);
    assert!(outcome.agreed(), "{outcome:?}");
    assert_eq!(tiered.stats().timer_interrupts, 1);
    assert_eq!(tiered.stats().cycles, interp.stats().cycles);
    assert!(tiered.superblock_stats().hits >= ITER - 20);

    // Watchdog budget running out at that point.
    let (mut tiered, mut interp) = lockstep_pair(source, MachineConfig::default());
    for machine in [&mut tiered, &mut interp] {
        machine.arm_watchdog(instret);
    }
    let outcome = run_lockstep(&mut tiered, &mut interp, 1_000_000, 1);
    assert!(outcome.agreed(), "{outcome:?}");
    // An expired watchdog refuses every further step: the run stopped on
    // the timeout.
    for machine in [&mut tiered, &mut interp] {
        assert!(matches!(machine.step(), Err(SimError::Timeout { .. })));
    }
    assert_eq!(tiered.stats().instret, instret);
    assert_eq!(tiered.arch_digest(), interp.arch_digest());
    assert!(tiered.superblock_stats().hits >= ITER - 20);

    // A planned fault due at that point.
    let (mut tiered, mut interp) = lockstep_pair(source, MachineConfig::default());
    for machine in [&mut tiered, &mut interp] {
        machine.set_fault_plan(regvault_sim::FaultPlan::new().at(
            instret,
            regvault_sim::FaultKind::MemWrite {
                addr: 0x9000,
                value: 7,
            },
        ));
    }
    let outcome = run_lockstep(&mut tiered, &mut interp, 1_000_000, 1);
    assert!(outcome.agreed(), "{outcome:?}");
    assert_stopped_at_ebreak(&tiered);
    let applied = tiered.fault_plan().unwrap().applied();
    assert_eq!(applied.len(), 1);
    assert_eq!(applied[0].instret, instret);
    assert_eq!(applied, interp.fault_plan().unwrap().applied());
    assert_eq!(tiered.arch_digest(), interp.arch_digest());
    assert!(tiered.superblock_stats().hits >= 200 - 20);
}

/// A `j` whose target is on the next page ends the trace: the target runs
/// as a block of its own page, so a patch of that page reaches the very
/// next iteration. A trace that ran on across the page boundary would be
/// tagged with the first page's generation only and keep the stale code.
#[test]
fn jump_to_another_page_ends_the_trace() {
    const ITERS: u64 = 64;
    const PATCH_ITER: u64 = 40;
    let new_word = encode("addi t2, t2, 7");
    let text = |pad: u64| -> String {
        format!(
            "li   s2, {far}
             li   s3, {PATCH_ITER}
             li   s4, {new_word}
             li   s1, {ITERS}
             li   t6, 0
            loop:
             bne  t6, s3, nopatch
             sw   s4, 0(s2)
            nopatch:
             addi t0, t0, 1
             addi t1, t1, 2
             j    far
            pad:
             .zero {pad}
            far:
             addi t2, t2, 3
             addi t6, t6, 1
             blt  t6, s1, loop
             ebreak",
            far = CODE_BASE + PAGE_SIZE,
        )
    };
    // Two passes: pad so that `far` opens the next page.
    let pad = PAGE_SIZE - (label_pc(&text(0), "pad") - CODE_BASE);
    let source = text(pad);
    assert_eq!(label_pc(&source, "far"), CODE_BASE + PAGE_SIZE);

    let (mut tiered, mut interp) = lockstep_pair(&source, MachineConfig::default());
    let outcome = run_lockstep(&mut tiered, &mut interp, 100_000, 1);
    assert!(outcome.agreed(), "{outcome:?}");
    assert_eq!(
        tiered.hart().reg(Reg::T2),
        3 * PATCH_ITER + 7 * (ITERS - PATCH_ITER)
    );
    let stats = tiered.superblock_stats();
    assert!(
        stats.invalidations >= 1,
        "the patch drops `far`'s block: {stats:?}"
    );
    assert_eq!(
        stats.cached, 2,
        "`nopatch` and `far` are separate blocks: {stats:?}"
    );
}
