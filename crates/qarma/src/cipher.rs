//! The QARMA-64 encryption/decryption core (SWAR-optimized datapath).
//!
//! The cipher state stays in a single `u64` register for the whole
//! computation, and every layer — substitution *and* diffusion — runs
//! through byte-sliced tables. The S-box is nonlinear but byte-local, so
//! although it cannot fuse into a *preceding* linear layer, it fuses freely
//! into a *following* one: `L(S(x))` decomposes byte-wise just like `L`
//! itself, with the substitution baked into each table row. Two fused
//! per-S-box tables cover the whole cipher:
//!
//! * `g = (M ∘ τ) ∘ S` — one full forward round, with the state kept in
//!   the pre-substitution domain so the round-tweakey addition commutes
//!   through the diffusion (`τM(x ⊕ k) = τM(x) ⊕ τM(k)`; the constant part
//!   `τM(k ⊕ c_i)` is hoisted into the [`Schedule`], the tweak part comes
//!   from the composite `tweak_tau_mix` schedule table),
//! * `ginv = (τ⁻¹ ∘ M) ∘ S⁻¹` — one full backward round,
//! * `ginv_refl = (τ⁻¹ ∘ M ∘ τ⁻¹) ∘ S⁻¹` — the first backward round with
//!   the reflector's output shuffle absorbed.
//!
//! The pseudo-reflector itself needs no table: `R ∘ S = τ⁻¹ ∘ (Mτ ∘ S)`
//! reuses `g`, and the trailing τ⁻¹ commutes forward into `ginv_refl`
//! (the S-box is nibble-local, so it commutes with nibble permutations).
//!
//! One encryption is then `2r + 2` sequential table layers (plus one plain
//! inverse substitution for the diffusion-less last round). All key
//! material that does not depend on the tweak is precomputed at
//! construction into a pair of [`Schedule`]s; all tweak material that does
//! not depend on the key is expanded into a [`TweakSchedule`], which a
//! small per-thread cache keeps for recently used tweaks (RegVault's tweak
//! is the storage address, so the same one recurs on every miss there).
//!
//! The original cell-by-cell implementation survives as
//! [`crate::reference::Reference`] and the two are differential-tested
//! against each other and against the published test vectors.

use std::cell::Cell;
use std::sync::OnceLock;

use crate::tables::{self, apply, tables, Linear};
use crate::{Key, Sbox};

/// Number of forward (and backward) rounds used by the RegVault prototype
/// and by the published QARMA-64 test vectors.
pub const DEFAULT_ROUNDS: usize = 7;

/// Round constants `c0..c7` (the digits of π, as in PRINCE/QARMA).
pub(crate) const ROUND_CONSTANTS: [u64; 8] = [
    0x0000000000000000,
    0x13198A2E03707344,
    0xA4093822299F31D0,
    0x082EFA98EC4E6C89,
    0x452821E638D01377,
    0xBE5466CF34E90C6C,
    0x3F84D5B5B5470917,
    0x9216D5D98979FB1B,
];

/// The α constant of QARMA's almost-reflective construction.
pub(crate) const ALPHA: u64 = 0xC0AC29B7C97C50DD;

/// The per-S-box fused substitution+diffusion tables (32 KiB per S-box,
/// built once per process and shared by every instance). Because the S-box
/// is nibble-local (so byte-local), `L ∘ S` byte-slices exactly like `L`
/// itself — row `j` entry `b` is just `L`'s row `j` entry re-indexed through
/// the byte-level S-box.
struct Fused {
    /// `(M ∘ τ) ∘ S`: one full forward round on pre-substitution state.
    g: Linear,
    /// `(τ⁻¹ ∘ M) ∘ S⁻¹`: one full backward round.
    ginv: Linear,
    /// `(τ⁻¹ ∘ M ∘ τ⁻¹) ∘ S⁻¹`: the first backward round with the
    /// reflector's output shuffle absorbed. `S⁻¹` is nibble-local, so it
    /// commutes with the nibble permutation τ⁻¹:
    /// `ginv(τ⁻¹(w)) = (τ⁻¹ M τ⁻¹)(S⁻¹(w))` — which keeps the shuffle off
    /// the state chain at the cost of one more byte-sliced table.
    ginv_refl: Linear,
}

/// The process-wide fused tables for one S-box selection.
fn fused(sbox: Sbox) -> &'static Fused {
    static FUSED: [OnceLock<Box<Fused>>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    FUSED[sbox as usize].get_or_init(|| {
        let t = tables();
        let tau_inv_mix_tau_inv = tables::slice_tau_inv_mix_tau_inv();
        let fwd = byte_sbox(|c| sbox.forward(c));
        let inv = byte_sbox(|c| sbox.inverse(c));
        let mut f = Box::new(Fused {
            g: [[0u64; 256]; 8],
            ginv: [[0u64; 256]; 8],
            ginv_refl: [[0u64; 256]; 8],
        });
        for (j, refl_row) in tau_inv_mix_tau_inv.iter().enumerate() {
            for b in 0..256 {
                f.g[j][b] = t.tau_mix[j][fwd[b] as usize];
                f.ginv[j][b] = t.mix_tau_inv[j][inv[b] as usize];
                f.ginv_refl[j][b] = refl_row[inv[b] as usize];
            }
        }
        f
    })
}

/// Tweak-independent key material for one direction of the datapath.
///
/// Encryption and decryption share the same circuit with different key
/// wiring (α-reflection), so a [`Qarma64`] holds one schedule per direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Schedule {
    /// In-whitening key; with the tweak, the backward half's last round
    /// tweakey.
    w_in: u64,
    /// `w_in ⊕ k ⊕ c_0`: everything key-only XORed into the incoming block
    /// (the diffusion-less first round consumes its key raw).
    in_key: u64,
    /// Out-whitening key (final XOR).
    w_out: u64,
    /// `τM(w_out)`: the pre-reflector round tweakey, pushed through the
    /// diffusion layer the fused forward round commutes it with.
    w_out_tm: u64,
    /// Central (reflector) key, consumed in the pre-shuffle domain by the
    /// `ginv_refl` table.
    central: u64,
    /// `τM(k ⊕ c_i)` per forward round, for the fused-round domain.
    k_rc_tm: [u64; 8],
    /// `k ⊕ c_i ⊕ α` per backward round.
    k_rc_alpha: [u64; 8],
}

impl Schedule {
    fn new(w_in: u64, w_out: u64, core: u64, central: u64) -> Self {
        let mut k_rc_tm = [0u64; 8];
        let mut k_rc_alpha = [0u64; 8];
        for i in 0..8 {
            // Register τM: construction shouldn't fault 16 KiB of table
            // into cache for eight one-off transforms.
            k_rc_tm[i] = tables::tau_mix_swar(core ^ ROUND_CONSTANTS[i]);
            k_rc_alpha[i] = core ^ ROUND_CONSTANTS[i] ^ ALPHA;
        }
        Self {
            w_in,
            in_key: w_in ^ core ^ ROUND_CONSTANTS[0],
            w_out,
            w_out_tm: tables::tau_mix_swar(w_out),
            central,
            k_rc_tm,
            k_rc_alpha,
        }
    }
}

/// Key-independent tweak material, expanded to all eight rounds so one
/// entry serves every round count and S-box.
#[derive(Debug, Clone, Copy)]
struct TweakSchedule {
    /// `tks[i]`: the tweak after `i` forward updates (`tks[0]` is the tweak).
    tks: [u64; 9],
    /// `tm[i] = τM(tks[i + 1])`: forward round `i + 1`'s tweak part in the
    /// fused-round domain.
    tm: [u64; 8],
}

impl TweakSchedule {
    const EMPTY: Self = Self {
        tks: [0; 9],
        tm: [0; 8],
    };

    /// Expands entry `i`: `tm[i]` and `tks[i + 1]`, both from `tks[i]`.
    /// The loop-carried chain is the raw `tks` step; `tm` derives from the
    /// *previous* raw value through the composite `tweak_tau_mix` table.
    #[inline(always)]
    fn expand(&mut self, tweak_tau_mix: &Linear, i: usize) {
        self.tm[i] = apply(tweak_tau_mix, self.tks[i]);
        self.tks[i + 1] = tables::tweak_forward_swar(self.tks[i]);
    }
}

/// log2 of the tweak-cache slot count: 64 slots of 152 bytes (~9.5 KiB).
const TWEAK_INDEX_BITS: u32 = 6;
const TWEAK_SLOTS: usize = 1 << TWEAK_INDEX_BITS;

/// The per-thread, direct-mapped cache of expanded tweak schedules.
///
/// Exact by construction: an entry is a pure function of the full tweak it
/// is tagged with, so key changes need no invalidation. Per thread rather
/// than per instance, so every cipher of the thread (one per key register,
/// rebuilt on key writes) shares it and allocates nothing.
struct TweakCache {
    /// The tweak each slot's schedule belongs to; `None` until the slot is
    /// filled, so an empty slot answers no tweak, tweak 0 included.
    tags: [Cell<Option<u64>>; TWEAK_SLOTS],
    schedules: [Cell<TweakSchedule>; TWEAK_SLOTS],
    /// `(hits, lookups)` of this thread's cache.
    counts: Cell<(u64, u64)>,
}

thread_local! {
    static TWEAK_CACHE: TweakCache = const {
        TweakCache {
            tags: [const { Cell::new(None) }; TWEAK_SLOTS],
            schedules: [const { Cell::new(TweakSchedule::EMPTY) }; TWEAK_SLOTS],
            counts: Cell::new((0, 0)),
        }
    };
}

/// The cache slot of `tweak`: the top bits of one Fibonacci-hashing
/// multiply, so address tweaks 8 bytes apart spread over the slots.
fn tweak_slot(tweak: u64) -> usize {
    (tweak.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - TWEAK_INDEX_BITS)) as usize
}

/// `(hits, lookups)` of the calling thread's tweak-schedule cache since the
/// thread started: one lookup per [`Qarma64`] block, a hit when the tweak's
/// schedule was still cached.
///
/// Host-side only: the cache changes how fast a block is computed, never
/// its value. Measure a span as the difference of two calls on the same
/// thread.
#[must_use]
pub fn tweak_cache_counts() -> (u64, u64) {
    TWEAK_CACHE.with(|cache| cache.counts.get())
}

/// A QARMA-64 tweakable block cipher instance.
///
/// Holds a 128-bit [`Key`] together with the S-box selection and the round
/// count `r` (the cipher performs `2r + 2` S-box layers in total), plus the
/// precomputed round-key schedules and byte-level S-box tables of the SWAR
/// datapath. The default parameters (σ1, `r = 7`) are those of the RegVault
/// crypto-engine.
///
/// # Examples
///
/// Encryption is deterministic in `(key, tweak, plaintext)`, and changing
/// the tweak changes the ciphertext — the property RegVault uses to bind
/// sensitive data to its storage address:
///
/// ```
/// use regvault_qarma::{Key, Qarma64};
///
/// let cipher = Qarma64::new(Key::new(0x0123, 0x4567));
/// let at_addr_a = cipher.encrypt(0xdead_beef, 0xffff_ffc0_0000_1000);
/// let at_addr_b = cipher.encrypt(0xdead_beef, 0xffff_ffc0_0000_1008);
/// assert_ne!(at_addr_a, at_addr_b);
/// assert_eq!(cipher.decrypt(at_addr_a, 0xffff_ffc0_0000_1000), 0xdead_beef);
/// ```
#[derive(Clone)]
pub struct Qarma64 {
    key: Key,
    sbox: Sbox,
    rounds: usize,
    /// Byte-level inverse S-box for the one diffusion-less backward round
    /// (every other substitution is fused into the [`Fused`] tables).
    sbox_inv: [u8; 256],
    /// Process-wide fused round tables for this S-box, resolved once at
    /// construction so the per-block path never touches the `OnceLock`s.
    fused: &'static Fused,
    /// The process-wide tweak-schedule table, resolved like `fused`.
    tweak_tau_mix: &'static Linear,
    /// Encryption-direction key schedule.
    enc: Schedule,
    /// Decryption-direction key schedule (α-reflection wiring).
    dec: Schedule,
}

impl std::fmt::Debug for Qarma64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Qarma64")
            .field("key", &self.key)
            .field("sbox", &self.sbox)
            .field("rounds", &self.rounds)
            .finish_non_exhaustive()
    }
}

/// Instances are equal when their construction parameters are equal; the
/// derived tables are a function of those parameters.
impl PartialEq for Qarma64 {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.sbox == other.sbox && self.rounds == other.rounds
    }
}

impl Eq for Qarma64 {}

/// Expands a 16-entry nibble S-box into a 256-entry byte table.
fn byte_sbox(nibble: impl Fn(u8) -> u8) -> [u8; 256] {
    let mut table = [0u8; 256];
    for (b, entry) in table.iter_mut().enumerate() {
        *entry = (nibble((b >> 4) as u8) << 4) | nibble((b & 0xF) as u8);
    }
    table
}

/// Applies a byte-level S-box table to all eight bytes of the state.
///
/// Built up with shifts and ors rather than through a byte array so the
/// value never round-trips through the stack.
#[inline(always)]
fn sub_bytes(table: &[u8; 256], x: u64) -> u64 {
    let mut out = 0u64;
    for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
        out |= u64::from(table[((x >> shift) & 0xFF) as usize]) << shift;
    }
    out
}

impl Qarma64 {
    /// Creates a cipher with the RegVault parameters: σ1 and
    /// [`DEFAULT_ROUNDS`] rounds.
    #[must_use]
    pub fn new(key: Key) -> Self {
        Self::with_params(key, Sbox::default(), DEFAULT_ROUNDS)
    }

    /// Creates a cipher with an explicit S-box and round count.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero or greater than 8 (the number of available
    /// round constants).
    #[must_use]
    pub fn with_params(key: Key, sbox: Sbox, rounds: usize) -> Self {
        assert!(
            rounds >= 1 && rounds <= ROUND_CONSTANTS.len(),
            "QARMA-64 round count must be in 1..=8, got {rounds}"
        );
        Self {
            key,
            sbox,
            rounds,
            sbox_inv: byte_sbox(|c| sbox.inverse(c)),
            fused: fused(sbox),
            tweak_tau_mix: &tables().tweak_tau_mix,
            enc: Schedule::new(key.w0(), key.w1(), key.k0(), key.k0()),
            dec: Schedule::new(key.w1(), key.w0(), key.k0() ^ ALPHA, key.k0_mixed()),
        }
    }

    /// The key this instance was constructed with.
    #[must_use]
    pub fn key(&self) -> Key {
        self.key
    }

    /// The selected S-box.
    #[must_use]
    pub fn sbox(&self) -> Sbox {
        self.sbox
    }

    /// The round count `r`.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Encrypts one 64-bit block under the given 64-bit tweak.
    #[must_use]
    pub fn encrypt(&self, plaintext: u64, tweak: u64) -> u64 {
        self.core(&self.enc, plaintext, tweak)
    }

    /// Decrypts one 64-bit block under the given 64-bit tweak.
    ///
    /// Decryption reuses the encryption circuit with swapped whitening keys,
    /// the core key XORed with α, and the central key replaced by `M · k0` —
    /// QARMA's α-reflection property.
    #[must_use]
    pub fn decrypt(&self, ciphertext: u64, tweak: u64) -> u64 {
        self.core(&self.dec, ciphertext, tweak)
    }

    /// The shared Even–Mansour datapath: `r` forward rounds, a whitened full
    /// round, the pseudo-reflector, and the mirrored backward half — all on
    /// in-register `u64` state through the fused tables of [`fused`].
    ///
    /// The tweak schedule comes from [`Qarma64::core_r`]'s cache lookup.
    /// Each round's tweakey is its tweak part XOR the key part from
    /// `sched`, an XOR off the state chain, so each round of either half
    /// costs a single XOR against the state. The backward half reads its
    /// entries directly instead of stepping the inverse tweak update `r`
    /// more times.
    fn core(&self, sched: &Schedule, block: u64, tweak: u64) -> u64 {
        // Monomorphize per round count so the round loops fully unroll
        // (the engine always runs r = 7; the other counts exist for the
        // test-vector grid).
        match self.rounds {
            1 => self.core_r::<1>(sched, block, tweak),
            2 => self.core_r::<2>(sched, block, tweak),
            3 => self.core_r::<3>(sched, block, tweak),
            4 => self.core_r::<4>(sched, block, tweak),
            5 => self.core_r::<5>(sched, block, tweak),
            6 => self.core_r::<6>(sched, block, tweak),
            7 => self.core_r::<7>(sched, block, tweak),
            8 => self.core_r::<8>(sched, block, tweak),
            _ => unreachable!("round count validated at construction"),
        }
    }

    /// One block through this thread's tweak-schedule cache. A hit reads
    /// the cached schedule; a miss expands it round by round alongside the
    /// state chain, so the two independent chains overlap, then completes
    /// it to all eight rounds and stores it for the next block.
    fn core_r<const R: usize>(&self, sched: &Schedule, block: u64, tweak: u64) -> u64 {
        TWEAK_CACHE.with(|cache| {
            let index = tweak_slot(tweak);
            let hit = cache.tags[index].get() == Some(tweak);
            let (hits, lookups) = cache.counts.get();
            cache.counts.set((hits + u64::from(hit), lookups + 1));
            if hit {
                return self.datapath::<R, false>(sched, block, &mut cache.schedules[index].get());
            }
            let mut schedule = TweakSchedule::EMPTY;
            schedule.tks[0] = tweak;
            let out = self.datapath::<R, true>(sched, block, &mut schedule);
            for i in R..8 {
                schedule.expand(self.tweak_tau_mix, i);
            }
            cache.tags[index].set(Some(tweak));
            cache.schedules[index].set(schedule);
            out
        })
    }

    /// The rounds of [`Qarma64::core`] over tweak schedule `ts`. With
    /// `EXPAND`, `ts` holds only the tweak on entry, and each forward round
    /// first expands the entry it consumes (the backward half reads only
    /// entries the forward half expanded); on return `ts` is expanded
    /// through round `R`.
    #[inline(always)]
    fn datapath<const R: usize, const EXPAND: bool>(
        &self,
        sched: &Schedule,
        block: u64,
        ts: &mut TweakSchedule,
    ) -> u64 {
        let f = self.fused;
        let r = R;
        // Forward half in the pre-substitution domain: `y` is the state
        // just before round `i`'s S-box layer, so each fused `g`
        // application performs the previous round's substitution together
        // with this round's diffusion, and the round tweakey lands
        // τM-transformed (`τM(tks[i]) ⊕ τM(k ⊕ c_i)`).
        let mut y = block ^ (sched.in_key ^ ts.tks[0]);
        for i in 1..r {
            if EXPAND {
                ts.expand(self.tweak_tau_mix, i - 1);
            }
            y = apply(&f.g, y) ^ (ts.tm[i - 1] ^ sched.k_rc_tm[i]);
        }
        if EXPAND {
            ts.expand(self.tweak_tau_mix, r - 1);
        }
        // Whitened full round, then the pseudo-reflector: `R ∘ S` is
        // `τ⁻¹ ∘ (Mτ ∘ S) = τ⁻¹ ∘ g`, so the reflector reuses the hot `g`
        // table; its trailing τ⁻¹ shuffle (and the central-key XOR under
        // it) is absorbed into the first backward round's `ginv_refl`
        // table rather than spent on the state chain.
        y = apply(&f.g, y) ^ (ts.tm[r - 1] ^ sched.w_out_tm);
        let w = apply(&f.g, y) ^ sched.central;

        // Mirrored whitened round and backward rounds: one fused table
        // each.
        let tks = &ts.tks;
        let mut state = apply(&f.ginv_refl, w) ^ (sched.w_in ^ tks[r]);
        for i in (1..r).rev() {
            state = apply(&f.ginv, state) ^ (sched.k_rc_alpha[i] ^ tks[i]);
        }
        // The diffusion-less last round keeps a plain inverse substitution.
        state = sub_bytes(&self.sbox_inv, state) ^ (sched.k_rc_alpha[0] ^ tks[0]);

        state ^ sched.w_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published test vector inputs from the QARMA paper (r = 7).
    const W0: u64 = 0x84be85ce9804e94b;
    const K0: u64 = 0xec2802d4e0a488e9;
    const TWEAK: u64 = 0x477d469dec0b8762;
    const PLAINTEXT: u64 = 0xfb623599da6e8127;

    /// The published QARMA-64 test-vector grid: `(sbox, rounds, ciphertext)`.
    const VECTORS: [(Sbox, usize, u64); 8] = [
        (Sbox::Sigma0, 5, 0x3ee99a6c82af0c38),
        (Sbox::Sigma0, 6, 0x9f5c41ec525603c9),
        (Sbox::Sigma0, 7, 0xbcaf6c89de930765),
        (Sbox::Sigma1, 5, 0x544b0ab95bda7c3a),
        (Sbox::Sigma1, 6, 0xa512dd1e4e3ec582),
        (Sbox::Sigma1, 7, 0xedf67ff370a483f2),
        (Sbox::Sigma2, 5, 0xc003b93999b33765),
        (Sbox::Sigma2, 6, 0x270a787275c48d10),
    ];

    #[test]
    fn published_vectors_encrypt() {
        for (sbox, rounds, ct) in VECTORS {
            let cipher = Qarma64::with_params(Key::new(W0, K0), sbox, rounds);
            assert_eq!(cipher.encrypt(PLAINTEXT, TWEAK), ct, "{sbox:?} r={rounds}");
        }
    }

    #[test]
    fn published_vectors_decrypt() {
        for (sbox, rounds, ct) in VECTORS {
            let cipher = Qarma64::with_params(Key::new(W0, K0), sbox, rounds);
            assert_eq!(cipher.decrypt(ct, TWEAK), PLAINTEXT, "{sbox:?} r={rounds}");
        }
    }

    #[test]
    fn wrong_tweak_fails_to_decrypt() {
        let cipher = Qarma64::new(Key::new(W0, K0));
        let ct = cipher.encrypt(PLAINTEXT, TWEAK);
        assert_ne!(cipher.decrypt(ct, TWEAK ^ 1), PLAINTEXT);
    }

    #[test]
    fn wrong_key_fails_to_decrypt() {
        let cipher = Qarma64::new(Key::new(W0, K0));
        let ct = cipher.encrypt(PLAINTEXT, TWEAK);
        let other = Qarma64::new(Key::new(W0 ^ 1, K0));
        assert_ne!(other.decrypt(ct, TWEAK), PLAINTEXT);
    }

    #[test]
    #[should_panic(expected = "round count")]
    fn zero_rounds_rejected() {
        let _ = Qarma64::with_params(Key::default(), Sbox::Sigma1, 0);
    }

    #[test]
    fn round_trip_across_round_counts() {
        for rounds in 1..=8 {
            let cipher = Qarma64::with_params(Key::new(W0, K0), Sbox::Sigma1, rounds);
            let ct = cipher.encrypt(PLAINTEXT, TWEAK);
            assert_eq!(cipher.decrypt(ct, TWEAK), PLAINTEXT, "rounds = {rounds}");
        }
    }

    #[test]
    fn equality_ignores_derived_tables() {
        let a = Qarma64::with_params(Key::new(1, 2), Sbox::Sigma1, 7);
        let b = Qarma64::with_params(Key::new(1, 2), Sbox::Sigma1, 7);
        let c = Qarma64::with_params(Key::new(1, 2), Sbox::Sigma1, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// An empty slot answers no tweak: on a new thread, tweak 0 (which an
    /// all-zero slot would carry as its tag) misses first, then hits.
    #[test]
    fn tweak_zero_is_not_answered_by_an_empty_slot() {
        std::thread::spawn(|| {
            use crate::reference::Reference;
            let key = Key::new(W0, K0);
            let (fast, slow) = (Qarma64::new(key), Reference::new(key));
            assert_eq!(tweak_cache_counts(), (0, 0));
            assert_eq!(fast.encrypt(PLAINTEXT, 0), slow.encrypt(PLAINTEXT, 0));
            assert_eq!(tweak_cache_counts(), (0, 1));
            assert_eq!(fast.decrypt(PLAINTEXT, 0), slow.decrypt(PLAINTEXT, 0));
            assert_eq!(tweak_cache_counts(), (1, 2));
        })
        .join()
        .expect("cache thread");
    }

    /// Two tweaks sharing a slot evict each other, and each still gets its
    /// own schedule.
    #[test]
    fn tweaks_sharing_a_slot_keep_their_own_schedules() {
        let a = TWEAK;
        let b = (1..)
            .map(|i| TWEAK ^ (i << 3))
            .find(|&t| tweak_slot(t) == tweak_slot(a))
            .expect("some tweak shares the slot");
        let fast = Qarma64::new(Key::new(W0, K0));
        let slow = crate::reference::Reference::new(Key::new(W0, K0));
        for _ in 0..3 {
            for tweak in [a, b] {
                assert_eq!(
                    fast.encrypt(PLAINTEXT, tweak),
                    slow.encrypt(PLAINTEXT, tweak)
                );
                assert_eq!(
                    fast.decrypt(PLAINTEXT, tweak),
                    slow.decrypt(PLAINTEXT, tweak)
                );
            }
        }
    }

    /// Exhaustive-ish differential check against the reference datapath,
    /// complementing the randomized one in `tests/properties.rs`.
    #[test]
    fn matches_reference_on_vector_inputs() {
        use crate::reference::Reference;
        for (sbox, rounds, _) in VECTORS {
            let fast = Qarma64::with_params(Key::new(W0, K0), sbox, rounds);
            let slow = Reference::with_params(Key::new(W0, K0), sbox, rounds);
            assert_eq!(
                fast.encrypt(PLAINTEXT, TWEAK),
                slow.encrypt(PLAINTEXT, TWEAK)
            );
            assert_eq!(
                fast.decrypt(PLAINTEXT, TWEAK),
                slow.decrypt(PLAINTEXT, TWEAK)
            );
        }
    }
}
