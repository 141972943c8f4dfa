//! QARMA-64 tweakable block cipher.
//!
//! This crate implements the 64-bit variant of the QARMA family of tweakable
//! block ciphers (Roberto Avanzi, *IACR Transactions on Symmetric Cryptology*,
//! 2017(1)). QARMA is the cryptographic primitive chosen by the RegVault paper
//! (DAC '22) for its context-aware register encryption instructions: a
//! three-operand cipher taking a 128-bit key, a 64-bit tweak and a 64-bit
//! block, built as an almost-reflective Even–Mansour construction with a
//! central non-involutory reflector.
//!
//! The implementation follows the reference specification: 16 four-bit cells,
//! three selectable S-boxes (σ0, σ1, σ2), the `M4,2 = circ(0, ρ¹, ρ², ρ¹)`
//! MixColumns matrix, the cell shuffle τ, the tweak update permutation `h`
//! with an LFSR on cells {0, 1, 3, 4}, and the α-reflection property used to
//! derive decryption from encryption.
//!
//! # Examples
//!
//! ```
//! use regvault_qarma::{Qarma64, Key, Sbox};
//!
//! let key = Key::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9);
//! let cipher = Qarma64::new(key);
//! let ct = cipher.encrypt(0xfb623599da6e8127, 0x477d469dec0b8762);
//! assert_eq!(cipher.decrypt(ct, 0x477d469dec0b8762), 0xfb623599da6e8127);
//! ```
//!
//! The default configuration (σ1, 7 rounds) matches the parameters RegVault's
//! crypto-engine implements in 3 hardware cycles; [`Qarma64::with_params`]
//! exposes the other published S-boxes and round counts, validated against the
//! test vectors from the QARMA paper.
//!
//! Two datapaths implement the same cipher: the SWAR-optimized [`Qarma64`]
//! (fused byte-sliced linear-layer tables, precomputed key schedule, and a
//! per-thread cache of expanded tweak schedules whose `(hits, lookups)`
//! [`tweak_cache_counts`] reports — see `tables`) and the uncached,
//! cell-by-cell [`reference::Reference`] it is differential-tested against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cells;
mod cipher;
mod key;
pub mod reference;
mod tables;
pub mod tweak;

pub use cipher::{tweak_cache_counts, Qarma64, DEFAULT_ROUNDS};
pub use key::Key;
pub use tweak::fold_tweak;

/// Selectable 4-bit S-box for the QARMA substitution layer.
///
/// The QARMA paper defines three S-boxes with different latency/security
/// trade-offs. `Sigma1` is the paper's recommended default and the one used
/// by the RegVault crypto-engine; `Sigma0` is the lightest and `Sigma2` the
/// strongest.
///
/// # Examples
///
/// ```
/// use regvault_qarma::Sbox;
/// assert_eq!(Sbox::default(), Sbox::Sigma1);
/// assert_eq!(Sbox::Sigma0.forward(0x1), 0xE);
/// assert_eq!(Sbox::Sigma0.inverse(0xE), 0x1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sbox {
    /// σ0: minimal-latency S-box.
    Sigma0,
    /// σ1: the default S-box recommended by the QARMA paper.
    #[default]
    Sigma1,
    /// σ2: highest-security S-box.
    Sigma2,
}

const SBOX: [[u8; 16]; 3] = [
    [0, 14, 2, 10, 9, 15, 8, 11, 6, 4, 3, 7, 13, 12, 1, 5],
    [10, 13, 14, 6, 15, 7, 3, 5, 9, 8, 0, 12, 11, 1, 2, 4],
    [11, 6, 8, 15, 12, 0, 9, 14, 3, 7, 4, 5, 13, 2, 1, 10],
];

const SBOX_INV: [[u8; 16]; 3] = [
    [0, 14, 2, 10, 9, 15, 8, 11, 6, 4, 3, 7, 13, 12, 1, 5],
    [10, 13, 14, 6, 15, 7, 3, 5, 9, 8, 0, 12, 11, 1, 2, 4],
    [5, 14, 13, 8, 10, 11, 1, 9, 2, 6, 15, 0, 4, 12, 7, 3],
];

impl Sbox {
    /// Applies the S-box to a 4-bit cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not a 4-bit value (`cell > 0xF`).
    #[must_use]
    pub fn forward(self, cell: u8) -> u8 {
        assert!(cell <= 0xF, "S-box input must be a 4-bit cell");
        SBOX[self.index()][cell as usize]
    }

    /// Applies the inverse S-box to a 4-bit cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not a 4-bit value (`cell > 0xF`).
    #[must_use]
    pub fn inverse(self, cell: u8) -> u8 {
        assert!(cell <= 0xF, "S-box input must be a 4-bit cell");
        SBOX_INV[self.index()][cell as usize]
    }

    fn index(self) -> usize {
        match self {
            Sbox::Sigma0 => 0,
            Sbox::Sigma1 => 1,
            Sbox::Sigma2 => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sboxes_are_permutations() {
        for sbox in [Sbox::Sigma0, Sbox::Sigma1, Sbox::Sigma2] {
            let mut seen = [false; 16];
            for cell in 0..16u8 {
                let out = sbox.forward(cell);
                assert!(!seen[out as usize], "{sbox:?} repeats output {out}");
                seen[out as usize] = true;
            }
        }
    }

    #[test]
    fn sbox_inverse_round_trips() {
        for sbox in [Sbox::Sigma0, Sbox::Sigma1, Sbox::Sigma2] {
            for cell in 0..16u8 {
                assert_eq!(sbox.inverse(sbox.forward(cell)), cell, "{sbox:?}");
            }
        }
    }

    #[test]
    fn sigma0_and_sigma1_are_involutions() {
        // σ0 and σ1 are involutory by design; σ2 is not.
        for sbox in [Sbox::Sigma0, Sbox::Sigma1] {
            for cell in 0..16u8 {
                assert_eq!(sbox.forward(sbox.forward(cell)), cell, "{sbox:?}");
            }
        }
        assert!((0..16u8).any(|c| Sbox::Sigma2.forward(Sbox::Sigma2.forward(c)) != c));
    }

    #[test]
    #[should_panic(expected = "4-bit cell")]
    fn forward_rejects_wide_input() {
        let _ = Sbox::Sigma1.forward(0x10);
    }
}
