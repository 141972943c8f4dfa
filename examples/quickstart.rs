//! Quickstart: the RegVault primitives end to end.
//!
//! Boots the simulated machine, runs the paper's Figure 2 instruction
//! sequences (pointer, 32-bit and 64-bit randomization), and shows what an
//! attacker with arbitrary memory access actually sees.
//!
//! Run with: `cargo run --example quickstart`

use regvault::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A machine with the RegVault extension: 8-entry CLB, QARMA engine.
    let mut machine = Machine::new(MachineConfig::default());
    machine.write_key_register(KeyReg::A, 0x0123_4567, 0x89AB_CDEF)?;

    // 2. Figure 2a — pointer randomization, straight from the paper:
    //      creak a0, a0[7:0], t1   ; encrypt pointer a0 using key reg a
    //      sd    a0, 0(s0)         ; store the encrypted pointer
    let program = asm::assemble(
        "li    t1, 0x9000              # tweak = storage address
         li    s0, 0x9000
         li    a0, 0xffffffc0deadbeef  # a kernel pointer
         creak a0, a0[7:0], t1
         sd    a0, 0(s0)
         ld    a1, 0(s0)
         crdak a1, a1, t1, [7:0]
         ebreak",
    )?;
    machine.load_program(0x8000_0000, program.bytes());
    machine.hart_mut().set_pc(0x8000_0000);
    machine.run_until_break(10_000)?;

    let decrypted = machine.hart().reg(Reg::A1);
    let in_memory = machine.memory().read_u64(0x9000)?;
    println!("pointer value     : {:#018x}", 0xffff_ffc0_dead_beefu64);
    println!("what memory holds : {in_memory:#018x}   <- what a disclosure leaks");
    println!("what the CPU sees : {decrypted:#018x}   <- after crdak\n");
    assert_eq!(decrypted, 0xffff_ffc0_dead_beef);
    assert_ne!(in_memory, 0xffff_ffc0_dead_beef);

    // 3. Figure 2b — 32-bit data with integrity: corrupting the ciphertext
    //    raises a hardware integrity exception instead of yielding a value.
    let uid = machine.kernel_encrypt(KeyReg::A, 0x9100, 1000, ByteRange::LOW32);
    machine.memory_mut().write_u64(0x9100, uid)?;
    println!("uid=1000 encrypts to {uid:#018x} (one 64-bit block)");

    let tampered = uid ^ 0xFF; // the attacker flips ciphertext bits
    match machine.kernel_decrypt(KeyReg::A, 0x9100, tampered, ByteRange::LOW32) {
        Ok(value) => println!("unexpected: decrypted {value}"),
        Err(garbage) => println!(
            "tampering detected: upper 32 bits decrypted to {:#x} (must be 0)\n",
            garbage >> 32
        ),
    }

    // 4. The CLB at work: the second identical operation is a 1-cycle hit.
    let before = machine.engine().clb().stats();
    let _ = machine.kernel_encrypt(KeyReg::A, 0x9100, 1000, ByteRange::LOW32);
    let after = machine.engine().clb().stats();
    println!(
        "CLB: {} hits / {} misses (hit ratio {:.1}%)",
        after.hits,
        after.misses,
        after.hit_ratio() * 100.0
    );
    assert!(after.hits > before.hits);

    println!("\nquickstart OK");
    Ok(())
}
