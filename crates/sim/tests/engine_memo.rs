//! The host-side QARMA memo under the CLB is exact: a SWAR engine (memo on)
//! and a reference engine (cell-level QARMA, no memo) driven through the
//! same operations agree on every value, integrity error and CLB counter.

use proptest::prelude::*;
use regvault_isa::{ByteRange, KeyReg};
use regvault_qarma::Key;
use regvault_sim::{memo_counts, CryptoEngine};

/// One engine operation: `(kind, ksel, a, b, c, d)`, decoded by
/// [`Lockstep::apply`]. Small domains for keys, tweaks and values make
/// repeats — CLB and memo hits — common.
type Op = (u8, u8, u64, u64, u8, u8);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..10, 0u8..8, any::<u64>(), 0u64..16, 0u8..8, 0u8..8),
        1..300,
    )
}

/// A SWAR engine and a reference engine with the same seed, stepped in
/// lockstep. `salt` is XORed into every key value written, so two pairs
/// with different salts hold different keys under the same `ksel`.
struct Lockstep {
    fast: CryptoEngine,
    reference: CryptoEngine,
    salt: u64,
    /// Ciphertexts produced so far, so decrypts can hit valid ones.
    produced: Vec<u64>,
}

impl Lockstep {
    fn new(seed: u64, salt: u64) -> Self {
        Self {
            fast: CryptoEngine::new(8, seed),
            reference: CryptoEngine::new_reference(8, seed),
            salt,
            produced: Vec::new(),
        }
    }

    fn apply(&mut self, (kind, ksel, a, b, c, d): Op) -> Result<(), TestCaseError> {
        let key = KeyReg::ALL[usize::from(ksel)];
        let tweak = b * 8;
        let range = ByteRange::new(c.max(d), c.min(d)).expect("ordered bounds");
        let key_value = Key::new((a % 4) ^ self.salt, (b % 4) ^ self.salt);
        match kind {
            0 | 1 => {
                let value = if a & 1 == 0 { a >> 60 } else { a };
                let fast = self.fast.encrypt(key, tweak, value, range);
                let reference = self.reference.encrypt(key, tweak, value, range);
                prop_assert_eq!(fast, reference);
                self.produced.push(fast.value);
            }
            2 | 3 => {
                let ciphertext = match self.produced.len() {
                    0 => a,
                    len => self.produced[(a % len as u64) as usize],
                };
                let fast = self.fast.decrypt(key, tweak, ciphertext, range);
                let reference = self.reference.decrypt(key, tweak, ciphertext, range);
                prop_assert_eq!(fast, reference);
            }
            4 => {
                self.fast.write_key(key, key_value);
                self.reference.write_key(key, key_value);
            }
            5 => {
                let high = c & 1 == 1;
                self.fast.write_key_half(key, high, key_value.w0());
                self.reference.write_key_half(key, high, key_value.w0());
            }
            6 => {
                for engine in [&mut self.fast, &mut self.reference] {
                    engine.key_file_mut().tamper(ksel, a % 4, b % 4);
                }
            }
            7 => {
                prop_assert_eq!(self.fast.issue_epoch(key), self.reference.issue_epoch(key));
            }
            8 => {
                self.fast.set_epoch(key, b % 4);
                self.reference.set_epoch(key, b % 4);
            }
            _ => {
                self.fast.clb_mut().invalidate_all();
                self.reference.clb_mut().invalidate_all();
            }
        }
        prop_assert_eq!(self.fast.clb().stats(), self.reference.clb().stats());
        Ok(())
    }
}

proptest! {
    /// Every operation on the memoised SWAR engine matches the reference.
    #[test]
    fn swar_engine_matches_reference(seed in any::<u64>(), ops in ops()) {
        let mut pair = Lockstep::new(seed, 0);
        for op in ops {
            pair.apply(op)?;
        }
    }

    /// Two SWAR engines with different seeds and different keys under the
    /// same `ksel`, interleaved on one thread and so sharing one memo, each
    /// match their own reference.
    #[test]
    fn interleaved_engines_share_the_memo_exactly(
        seeds in (any::<u64>(), any::<u64>()),
        ops in ops(),
    ) {
        let mut pairs = [Lockstep::new(seeds.0, 0), Lockstep::new(seeds.1 | 1, 0x100)];
        for (i, op) in ops.into_iter().enumerate() {
            pairs[i % 2].apply(op)?;
            pairs[(i + 1) % 2].apply(op)?;
        }
    }
}

/// A decrypt fills the memo; a glitched key register then must not be
/// answered from it. A memo keyed on `ksel` instead of the key value fails
/// here.
#[test]
fn tamper_after_fill_recomputes_under_the_tampered_key() {
    let mut pair = Lockstep::new(1, 0);
    for engine in [&mut pair.fast, &mut pair.reference] {
        engine.write_key(KeyReg::A, Key::new(0x11, 0x22));
    }
    let ciphertext = pair
        .fast
        .encrypt(KeyReg::A, 0x40, 0x1234, ByteRange::LOW32)
        .value;
    let (hits, lookups) = memo_counts();
    for _ in 0..2 {
        // A CLB miss: the first decrypt fills the memo, the second hits it.
        pair.fast.clb_mut().invalidate_all();
        let plain = pair
            .fast
            .decrypt(KeyReg::A, 0x40, ciphertext, ByteRange::LOW32);
        assert_eq!(plain.map(|r| r.value), Ok(0x1234));
    }
    assert_eq!(memo_counts(), (hits + 1, lookups + 2));

    for engine in [&mut pair.fast, &mut pair.reference] {
        engine.key_file_mut().tamper(KeyReg::A.ksel(), 0x1, 0x0);
        engine.clb_mut().invalidate_all();
    }
    let fast = pair
        .fast
        .decrypt(KeyReg::A, 0x40, ciphertext, ByteRange::LOW32);
    let reference = pair
        .reference
        .decrypt(KeyReg::A, 0x40, ciphertext, ByteRange::LOW32);
    assert_eq!(fast, reference);
    assert!(fast.is_err(), "tampered key must not decrypt cleanly");
}

/// The reference datapath never touches the memo.
#[test]
fn reference_engine_bypasses_the_memo() {
    let before = memo_counts();
    let mut reference = CryptoEngine::new_reference(0, 3);
    for tweak in 0..4 {
        reference.encrypt(KeyReg::A, tweak, 7, ByteRange::FULL);
        reference.encrypt(KeyReg::A, tweak, 7, ByteRange::FULL);
    }
    assert_eq!(memo_counts(), before);
}
