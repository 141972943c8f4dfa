//! The RegVault crypto-engine and hardware key register file.

use rand::{Rng, SeedableRng};
use regvault_isa::{ByteRange, KeyReg};
use regvault_qarma::{fold_tweak, reference::Reference, Key, Qarma64};

use crate::clb::Clb;
use crate::memo;

/// The eight 128-bit hardware key registers.
///
/// Software access rules (enforced by [`crate::Machine`], not here — this
/// type is the *hardware* register file):
///
/// * user mode: no access;
/// * kernel: may write `a`–`g`, may never read any key;
/// * master key `m`: no software read or write; initialized by hardware at
///   reset and used by `cre`/`crd` with `ksel = m` to wrap the per-thread
///   keys the kernel parks in memory (§2.3.1, §3.1.1).
#[derive(Debug, Clone)]
pub struct KeyRegFile {
    keys: [Key; 8],
}

impl KeyRegFile {
    /// Creates a register file with the master key drawn from `seed` and the
    /// general keys zeroed (the boot-time kernel installs real values).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut keys = [Key::default(); 8];
        keys[KeyReg::M.ksel() as usize] = Key::new(rng.gen(), rng.gen());
        Self { keys }
    }

    /// Hardware-internal read of a key register.
    ///
    /// This is the datapath the crypto-engine uses; it deliberately has no
    /// software-facing equivalent. Tests may use it to validate ciphertexts,
    /// which is fine under the paper's threat model (the attacker "cannot
    /// read or write the registers directly").
    #[must_use]
    pub fn key(&self, key: KeyReg) -> Key {
        self.keys[key.ksel() as usize]
    }

    /// Replaces a whole key register.
    pub fn set_key(&mut self, key: KeyReg, value: Key) {
        self.keys[key.ksel() as usize] = value;
    }

    /// Writes the low (core, `k0`) half of a key register.
    pub fn set_lo(&mut self, key: KeyReg, k0: u64) {
        let old = self.key(key);
        self.set_key(key, Key::new(old.w0(), k0));
    }

    /// Writes the high (whitening, `w0`) half of a key register.
    pub fn set_hi(&mut self, key: KeyReg, w0: u64) {
        let old = self.key(key);
        self.set_key(key, Key::new(w0, old.k0()));
    }

    /// Fault-injection hook: XORs the halves of register `ksel` in place.
    ///
    /// This models a glitched/flipped hardware register, not a software key
    /// write — it accepts any selector including the master key and does
    /// *not* trigger the CLB invalidation a software write performs (the
    /// register changed under the CLB's feet). Selectors are taken modulo 8.
    pub fn tamper(&mut self, ksel: u8, xor_w0: u64, xor_k0: u64) {
        let index = usize::from(ksel % 8);
        let old = self.keys[index];
        self.keys[index] = Key::new(old.w0() ^ xor_w0, old.k0() ^ xor_k0);
    }

    /// All eight registers by `ksel` index (snapshot support).
    pub(crate) fn raw_keys(&self) -> [Key; 8] {
        self.keys
    }

    /// Overwrites all eight registers (snapshot restore).
    pub(crate) fn set_raw_keys(&mut self, keys: [Key; 8]) {
        self.keys = keys;
    }
}

/// A step-budget watchdog for wedged or runaway guests.
///
/// The embedder arms it via [`crate::Machine::arm_watchdog`]; the machine
/// charges it one unit per stepped instruction and per kernel-modelled
/// operation, and turns expiry into [`crate::SimError::Timeout`] instead of
/// spinning forever. Unlike the `run(max_steps)` limit — which bounds a
/// single run call — the watchdog budget persists across calls until
/// disarmed or re-armed, so a kernel can bound the *total* work a guest
/// thread performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    budget: u64,
    consumed: u64,
}

impl Watchdog {
    /// A watchdog allowing `budget` units of work.
    #[must_use]
    pub fn new(budget: u64) -> Self {
        Self {
            budget,
            consumed: 0,
        }
    }

    /// The armed budget.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Units of work left before expiry.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.budget.saturating_sub(self.consumed)
    }

    /// `true` once the budget is fully consumed.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.consumed >= self.budget
    }

    /// Charges `units` of work against the budget.
    pub fn consume(&mut self, units: u64) {
        self.consumed = self.consumed.saturating_add(units);
    }

    /// Units of work consumed so far.
    #[must_use]
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Rebuilds a watchdog mid-budget (snapshot restore).
    pub(crate) fn from_parts(budget: u64, consumed: u64) -> Self {
        Self { budget, consumed }
    }
}

/// Error raised by a failed `crd` integrity check: the bytes outside the
/// selected range did not decrypt to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityError {
    /// The (garbage) plaintext the decryption produced.
    pub plaintext: u64,
}

/// The result of one crypto-engine operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CryptoResult {
    /// Output value (ciphertext for encrypt, plaintext for decrypt).
    pub value: u64,
    /// `true` if the CLB supplied the result without running QARMA.
    pub clb_hit: bool,
}

/// The crypto-engine of §2.3.2: key register file + QARMA-64 datapath +
/// cryptographic lookaside buffer.
///
/// # Examples
///
/// ```
/// use regvault_isa::{ByteRange, KeyReg};
/// use regvault_qarma::Key;
/// use regvault_sim::CryptoEngine;
///
/// let mut engine = CryptoEngine::new(8, 42);
/// engine.key_file_mut().set_key(KeyReg::A, Key::new(1, 2));
/// let enc = engine.encrypt(KeyReg::A, 0x40, 0xdead, ByteRange::FULL);
/// let dec = engine.decrypt(KeyReg::A, 0x40, enc.value, ByteRange::FULL).unwrap();
/// assert_eq!(dec.value, 0xdead);
/// assert!(dec.clb_hit, "second op on same tuple hits the CLB");
/// ```
#[derive(Debug, Clone)]
pub struct CryptoEngine {
    keys: KeyRegFile,
    clb: Clb,
    /// Per-`ksel` cache of constructed [`Qarma64`] instances (each carries a
    /// precomputed key schedule). Validated against the live register on
    /// every use, so out-of-band key changes — [`KeyRegFile::tamper`], raw
    /// [`CryptoEngine::key_file_mut`] writes — can never serve a stale
    /// schedule.
    ciphers: [Option<Qarma64>; 8],
    /// Route every cipher computation through the cell-level
    /// [`Reference`] datapath instead of the SWAR [`Qarma64`] core (and
    /// pair it with the naive CLB). The lockstep differential executor
    /// co-runs one engine of each flavour.
    reference: bool,
    /// Per-`ksel` rekey epoch folded into every tweak (ciphertext
    /// side-channel mitigation). Epoch 0 — the reset state — is the
    /// identity fold, so an engine that never issues an epoch behaves
    /// bit-identically to one without the mitigation.
    epochs: [u64; 8],
    /// Global monotone nonce source for [`CryptoEngine::issue_epoch`].
    /// Issued values are never reused: restores via
    /// [`CryptoEngine::set_epoch`] rewind a slot's epoch but not the
    /// counter, so the next issue is still fresh machine-wide.
    nonce_ctr: u64,
}

impl CryptoEngine {
    /// Creates an engine with `clb_entries` CLB slots and a master key
    /// seeded from `seed`.
    #[must_use]
    pub fn new(clb_entries: usize, seed: u64) -> Self {
        Self {
            keys: KeyRegFile::new(seed),
            clb: Clb::new(clb_entries),
            ciphers: Default::default(),
            reference: false,
            epochs: [0; 8],
            nonce_ctr: 0,
        }
    }

    /// Creates a reference-datapath engine: cell-level QARMA (no SWAR
    /// tables, no cached key schedules) plus the naive linear-scan CLB.
    /// Architecturally identical to [`CryptoEngine::new`] — any observable
    /// difference is a bug, which is exactly what the lockstep executor
    /// hunts.
    #[must_use]
    pub fn new_reference(clb_entries: usize, seed: u64) -> Self {
        Self {
            keys: KeyRegFile::new(seed),
            clb: Clb::new_reference(clb_entries),
            ciphers: Default::default(),
            reference: true,
            epochs: [0; 8],
            nonce_ctr: 0,
        }
    }

    /// `true` when this engine runs the reference datapath.
    #[must_use]
    pub fn is_reference(&self) -> bool {
        self.reference
    }

    /// The hardware key register file.
    #[must_use]
    pub fn key_file(&self) -> &KeyRegFile {
        &self.keys
    }

    /// Mutable access to the key register file (hardware/boot path).
    ///
    /// Writing through this accessor does **not** invalidate CLB entries;
    /// software key updates must go through [`CryptoEngine::write_key`].
    pub fn key_file_mut(&mut self) -> &mut KeyRegFile {
        &mut self.keys
    }

    /// The cryptographic lookaside buffer.
    #[must_use]
    pub fn clb(&self) -> &Clb {
        &self.clb
    }

    /// Mutable access to the CLB (for statistics resets).
    pub fn clb_mut(&mut self) -> &mut Clb {
        &mut self.clb
    }

    /// Software-visible key update: replaces one 64-bit half of a key
    /// register and invalidates the stale CLB entries for that `ksel`.
    pub fn write_key_half(&mut self, key: KeyReg, high_half: bool, value: u64) {
        if high_half {
            self.keys.set_hi(key, value);
        } else {
            self.keys.set_lo(key, value);
        }
        self.clb.invalidate_ksel(key.ksel());
    }

    /// Software-visible whole-key update (both halves, one invalidation).
    pub fn write_key(&mut self, key: KeyReg, value: Key) {
        self.keys.set_key(key, value);
        self.clb.invalidate_ksel(key.ksel());
    }

    /// Issues a fresh rekey epoch for `key` and returns it.
    ///
    /// Epochs come from a global monotone counter, so an issued value is
    /// unique machine-wide and never reused — even across
    /// [`CryptoEngine::set_epoch`] rewinds. CLB entries are *not*
    /// invalidated: they are keyed by the effective (folded) tweak, so
    /// entries created under older epochs remain valid mappings that the
    /// matching [`CryptoEngine::set_epoch`] restore can hit again.
    pub fn issue_epoch(&mut self, key: KeyReg) -> u64 {
        self.nonce_ctr += 1;
        self.epochs[key.ksel() as usize] = self.nonce_ctr;
        self.nonce_ctr
    }

    /// Restores a previously issued epoch for `key` (e.g. on context-switch
    /// restore, from the nonce the matching save parked in the frame).
    /// Does not advance the global counter.
    pub fn set_epoch(&mut self, key: KeyReg, epoch: u64) {
        self.epochs[key.ksel() as usize] = epoch;
    }

    /// The current rekey epoch of `key` (0 = never rekeyed; identity fold).
    #[must_use]
    pub fn epoch(&self, key: KeyReg) -> u64 {
        self.epochs[key.ksel() as usize]
    }

    /// The effective tweak `key`'s current epoch folds `tweak` into — the
    /// value actually presented to the CLB and the cipher.
    #[must_use]
    pub fn effective_tweak(&self, key: KeyReg, tweak: u64) -> u64 {
        fold_tweak(tweak, self.epochs[key.ksel() as usize])
    }

    /// All eight epochs plus the nonce counter (snapshot support).
    pub(crate) fn epoch_state(&self) -> ([u64; 8], u64) {
        (self.epochs, self.nonce_ctr)
    }

    /// Overwrites the epoch state (snapshot restore).
    pub(crate) fn set_epoch_state(&mut self, epochs: [u64; 8], nonce_ctr: u64) {
        self.epochs = epochs;
        self.nonce_ctr = nonce_ctr;
    }

    fn cipher(&mut self, key: KeyReg) -> &Qarma64 {
        let current = self.keys.key(key);
        let slot = &mut self.ciphers[key.ksel() as usize];
        if slot.as_ref().map(Qarma64::key) != Some(current) {
            *slot = None;
        }
        slot.get_or_insert_with(|| Qarma64::new(current))
    }

    /// One cipher computation through the configured datapath: the CLB
    /// missed. The SWAR path consults the host thread's QARMA memo first
    /// ([`crate::memo`]), keyed on the live register's value. The reference
    /// path bypasses the memo and rebuilds the cell-level cipher from the
    /// live register on every call — deliberately no caching of any kind,
    /// so stale-schedule or stale-memo bugs in the fast path cannot be
    /// masked by an equivalent cache here.
    ///
    /// Kept out of line: the CLB-hit path that calls it stays small.
    #[inline(never)]
    fn compute(&mut self, key: KeyReg, tweak: u64, input: u64, decrypt: bool) -> u64 {
        let live = self.keys.key(key);
        if self.reference {
            let cipher = Reference::new(live);
            return if decrypt {
                cipher.decrypt(input, tweak)
            } else {
                cipher.encrypt(input, tweak)
            };
        }
        memo::get_or_compute(live, tweak, input, decrypt, || {
            let cipher = self.cipher(key);
            if decrypt {
                cipher.decrypt(input, tweak)
            } else {
                cipher.encrypt(input, tweak)
            }
        })
    }

    /// Executes the `cre` datapath: mask `value` to `range` (bytes outside
    /// are zeroed, §2.3.1), then encrypt under `key` with `tweak`.
    pub fn encrypt(
        &mut self,
        key: KeyReg,
        tweak: u64,
        value: u64,
        range: ByteRange,
    ) -> CryptoResult {
        let plaintext = value & range.mask();
        let ksel = key.ksel();
        let tweak = fold_tweak(tweak, self.epochs[ksel as usize]);
        if let Some(ciphertext) = self.clb.lookup_encrypt(ksel, tweak, plaintext) {
            return CryptoResult {
                value: ciphertext,
                clb_hit: true,
            };
        }
        let ciphertext = self.compute(key, tweak, plaintext, false);
        self.clb.insert(ksel, tweak, plaintext, ciphertext);
        CryptoResult {
            value: ciphertext,
            clb_hit: false,
        }
    }

    /// Executes the `crd` datapath: decrypt, then check that every byte
    /// outside `range` is zero.
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityError`] when the zero check fails — the hardware
    /// raises an integrity exception in that case.
    pub fn decrypt(
        &mut self,
        key: KeyReg,
        tweak: u64,
        ciphertext: u64,
        range: ByteRange,
    ) -> Result<CryptoResult, IntegrityError> {
        let ksel = key.ksel();
        let tweak = fold_tweak(tweak, self.epochs[ksel as usize]);
        let (plaintext, clb_hit) = match self.clb.lookup_decrypt(ksel, tweak, ciphertext) {
            Some(pt) => (pt, true),
            None => {
                let pt = self.compute(key, tweak, ciphertext, true);
                self.clb.insert(ksel, tweak, pt, ciphertext);
                (pt, false)
            }
        };
        if plaintext & !range.mask() != 0 {
            return Err(IntegrityError { plaintext });
        }
        Ok(CryptoResult {
            value: plaintext,
            clb_hit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> CryptoEngine {
        let mut engine = CryptoEngine::new(8, 7);
        engine
            .key_file_mut()
            .set_key(KeyReg::A, Key::new(0x11, 0x22));
        engine
            .key_file_mut()
            .set_key(KeyReg::B, Key::new(0x33, 0x44));
        engine
    }

    #[test]
    fn master_key_is_random_per_seed() {
        let a = KeyRegFile::new(1).key(KeyReg::M);
        let b = KeyRegFile::new(2).key(KeyReg::M);
        assert_ne!(a, b);
        assert_eq!(a, KeyRegFile::new(1).key(KeyReg::M), "deterministic");
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let mut engine = engine();
        let enc = engine.encrypt(KeyReg::A, 0x1000, 0xABCD, ByteRange::FULL);
        assert!(!enc.clb_hit);
        let dec = engine
            .decrypt(KeyReg::A, 0x1000, enc.value, ByteRange::FULL)
            .unwrap();
        assert_eq!(dec.value, 0xABCD);
        assert!(dec.clb_hit);
    }

    #[test]
    fn range_masks_before_encrypting() {
        let mut engine = engine();
        // High bytes of the input are ignored for a [3:0] encryption.
        let a = engine.encrypt(KeyReg::A, 0, 0xFFFF_FFFF_0000_1234, ByteRange::LOW32);
        let b = engine.encrypt(KeyReg::A, 0, 0x0000_0000_0000_1234, ByteRange::LOW32);
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn integrity_check_catches_corruption() {
        let mut engine = engine();
        let enc = engine.encrypt(KeyReg::A, 0x40, 0x1234, ByteRange::LOW32);
        let corrupted = enc.value ^ 0x1;
        let err = engine
            .decrypt(KeyReg::A, 0x40, corrupted, ByteRange::LOW32)
            .unwrap_err();
        assert_ne!(err.plaintext & 0xFFFF_FFFF_0000_0000, 0);
    }

    #[test]
    fn integrity_check_catches_wrong_tweak() {
        // Substituting an encrypted 32-bit value stored at another address
        // (different tweak) trips the zero check with overwhelming
        // probability.
        let mut engine = engine();
        let enc = engine.encrypt(KeyReg::A, 0x40, 0x1234, ByteRange::LOW32);
        assert!(engine
            .decrypt(KeyReg::A, 0x48, enc.value, ByteRange::LOW32)
            .is_err());
    }

    #[test]
    fn full_range_decrypt_never_fails_integrity() {
        let mut engine = engine();
        // [7:0] has no redundancy: any ciphertext decrypts "successfully"
        // (to garbage under corruption) — confidentiality-only protection.
        let result = engine.decrypt(KeyReg::A, 0, 0xDEAD_BEEF_0BAD_F00D, ByteRange::FULL);
        assert!(result.is_ok());
    }

    #[test]
    fn software_key_write_invalidates_clb() {
        let mut engine = engine();
        let enc = engine.encrypt(KeyReg::A, 0, 0x5555, ByteRange::FULL);
        engine.write_key(KeyReg::A, Key::new(0x99, 0xAA));
        // Old ciphertext no longer decrypts to the old plaintext.
        let dec = engine
            .decrypt(KeyReg::A, 0, enc.value, ByteRange::FULL)
            .unwrap();
        assert!(!dec.clb_hit, "stale entry must be gone");
        assert_ne!(dec.value, 0x5555);
    }

    #[test]
    fn keys_are_isolated_per_register() {
        let mut engine = engine();
        let with_a = engine.encrypt(KeyReg::A, 0, 0x77, ByteRange::FULL);
        let with_b = engine.encrypt(KeyReg::B, 0, 0x77, ByteRange::FULL);
        assert_ne!(with_a.value, with_b.value);
    }

    #[test]
    fn tamper_skips_clb_invalidation() {
        let mut engine = engine();
        let enc = engine.encrypt(KeyReg::A, 0, 0x77, ByteRange::FULL);
        engine.key_file_mut().tamper(KeyReg::A.ksel(), 0x1, 0x2);
        // The stale CLB entry still serves the old mapping — the register
        // changed under the buffer's feet, exactly the hardware-fault case.
        let dec = engine
            .decrypt(KeyReg::A, 0, enc.value, ByteRange::FULL)
            .unwrap();
        assert!(dec.clb_hit);
        assert_eq!(dec.value, 0x77);
        // A fresh computation uses the tampered key and disagrees.
        engine.clb_mut().invalidate_all();
        let dec = engine
            .decrypt(KeyReg::A, 0, enc.value, ByteRange::FULL)
            .unwrap();
        assert_ne!(dec.value, 0x77);
    }

    #[test]
    fn watchdog_expires_exactly_at_budget() {
        let mut dog = Watchdog::new(3);
        assert!(!dog.expired());
        dog.consume(2);
        assert_eq!(dog.remaining(), 1);
        assert!(!dog.expired());
        dog.consume(1);
        assert!(dog.expired());
        assert_eq!(dog.remaining(), 0);
        dog.consume(u64::MAX); // saturates, no overflow panic
        assert!(dog.expired());
    }

    #[test]
    fn epoch_zero_matches_unmitigated_ciphertexts() {
        let mut plain = engine();
        let mut epoch = engine();
        // An engine that never issues an epoch is bit-identical.
        assert_eq!(epoch.epoch(KeyReg::A), 0);
        let a = plain.encrypt(KeyReg::A, 0x40, 0x1234, ByteRange::FULL);
        let b = epoch.encrypt(KeyReg::A, 0x40, 0x1234, ByteRange::FULL);
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn fresh_epoch_diversifies_ciphertexts() {
        let mut engine = engine();
        let before = engine.encrypt(KeyReg::A, 0x40, 0x1234, ByteRange::FULL);
        let epoch = engine.issue_epoch(KeyReg::A);
        assert_ne!(epoch, 0);
        let after = engine.encrypt(KeyReg::A, 0x40, 0x1234, ByteRange::FULL);
        assert_ne!(before.value, after.value, "same write, fresh epoch");
        // The new ciphertext still round-trips under the live epoch.
        let dec = engine
            .decrypt(KeyReg::A, 0x40, after.value, ByteRange::FULL)
            .unwrap();
        assert_eq!(dec.value, 0x1234);
    }

    #[test]
    fn set_epoch_restores_decryptability() {
        let mut engine = engine();
        let e1 = engine.issue_epoch(KeyReg::A);
        let ct = engine.encrypt(KeyReg::A, 0x40, 0xBEEF, ByteRange::LOW32);
        let e2 = engine.issue_epoch(KeyReg::A);
        assert!(e2 > e1, "counter is monotone");
        // Under the newer epoch the old ciphertext garbles / fails integrity.
        assert!(engine
            .decrypt(KeyReg::A, 0x40, ct.value, ByteRange::LOW32)
            .is_err());
        // Restoring the issuing epoch brings it back.
        engine.set_epoch(KeyReg::A, e1);
        let dec = engine
            .decrypt(KeyReg::A, 0x40, ct.value, ByteRange::LOW32)
            .unwrap();
        assert_eq!(dec.value, 0xBEEF);
    }

    #[test]
    fn issue_epoch_never_reuses_a_nonce_across_rewinds() {
        let mut engine = engine();
        let e1 = engine.issue_epoch(KeyReg::A);
        engine.set_epoch(KeyReg::A, 0); // rewind the slot...
        let e2 = engine.issue_epoch(KeyReg::A);
        assert!(e2 > e1, "...but the global counter never rewinds");
    }

    #[test]
    fn epochs_are_per_ksel() {
        let mut engine = engine();
        engine.issue_epoch(KeyReg::A);
        assert_eq!(engine.epoch(KeyReg::B), 0, "other slots untouched");
        let with_b = engine.encrypt(KeyReg::B, 0, 0x77, ByteRange::FULL);
        let mut fresh = CryptoEngine::new(8, 7);
        fresh
            .key_file_mut()
            .set_key(KeyReg::B, Key::new(0x33, 0x44));
        let baseline = fresh.encrypt(KeyReg::B, 0, 0x77, ByteRange::FULL);
        assert_eq!(with_b.value, baseline.value);
    }

    #[test]
    fn half_writes_compose_a_key() {
        let mut engine = CryptoEngine::new(0, 0);
        engine.write_key_half(KeyReg::C, false, 0xAAAA);
        engine.write_key_half(KeyReg::C, true, 0xBBBB);
        assert_eq!(engine.key_file().key(KeyReg::C), Key::new(0xBBBB, 0xAAAA));
    }
}
