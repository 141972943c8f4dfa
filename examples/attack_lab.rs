//! Attack lab: runs the full Table 4 penetration suite against every
//! protection configuration and prints the coverage matrix — which
//! protection stops which attack.
//!
//! Run with: `cargo run --example attack_lab`

use regvault::prelude::*;

fn main() {
    let configs = [
        ProtectionConfig::off(),
        ProtectionConfig::ra_only(),
        ProtectionConfig::fp_only(),
        ProtectionConfig::non_control(),
        ProtectionConfig::full(),
    ];

    println!("RegVault attack lab: Table 4 across all configurations");
    println!("(x = attack succeeds, D = defeated+detected, G = defeated/garbled)\n");

    print!("{:<38}", "attack \\ config");
    for config in &configs {
        print!(" {:>12}", config.label());
    }
    println!();

    for attack in Attack::ALL {
        print!("{:<38}", attack.name());
        for config in &configs {
            let result = run_attack(attack, *config);
            let cell = match result.outcome {
                Outcome::Succeeded => "x",
                Outcome::DefeatedDetected => "D",
                Outcome::DefeatedGarbled => "G",
            };
            print!(" {cell:>12}");
        }
        println!();
    }

    println!("\nReading the matrix:");
    println!(" - the BASE column is all x: every attack works on the original kernel;");
    println!(" - RA alone stops ROP; FP alone stops JOP and spatial substitution;");
    println!(" - NON-CONTROL stops the four data attacks;");
    println!(" - FULL (with CIP) stops all eight, as in the paper's Table 4.");
}
