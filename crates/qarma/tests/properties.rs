//! Property-based tests for the QARMA-64 cipher.

use proptest::prelude::*;
use regvault_qarma::reference::Reference;
use regvault_qarma::{Key, Qarma64, Sbox, DEFAULT_ROUNDS};

fn any_sbox() -> impl Strategy<Value = Sbox> {
    prop_oneof![Just(Sbox::Sigma0), Just(Sbox::Sigma1), Just(Sbox::Sigma2),]
}

proptest! {
    /// Decryption inverts encryption for every key, tweak, plaintext, S-box
    /// and round count.
    #[test]
    fn round_trip(
        w0 in any::<u64>(),
        k0 in any::<u64>(),
        tweak in any::<u64>(),
        pt in any::<u64>(),
        sbox in any_sbox(),
        rounds in 1usize..=8,
    ) {
        let cipher = Qarma64::with_params(Key::new(w0, k0), sbox, rounds);
        prop_assert_eq!(cipher.decrypt(cipher.encrypt(pt, tweak), tweak), pt);
    }

    /// Encryption is a permutation: distinct plaintexts yield distinct
    /// ciphertexts under the same key and tweak.
    #[test]
    fn injective_in_plaintext(
        w0 in any::<u64>(),
        k0 in any::<u64>(),
        tweak in any::<u64>(),
        pt_a in any::<u64>(),
        pt_b in any::<u64>(),
    ) {
        prop_assume!(pt_a != pt_b);
        let cipher = Qarma64::new(Key::new(w0, k0));
        prop_assert_ne!(cipher.encrypt(pt_a, tweak), cipher.encrypt(pt_b, tweak));
    }

    /// Distinct tweaks virtually always produce distinct ciphertexts for the
    /// same plaintext — the property RegVault relies on to bind data to its
    /// storage address. (Equality would be a 2^-64 accident; treat any
    /// observed collision as a bug.)
    #[test]
    fn tweak_separates_ciphertexts(
        w0 in any::<u64>(),
        k0 in any::<u64>(),
        tweak_a in any::<u64>(),
        tweak_b in any::<u64>(),
        pt in any::<u64>(),
    ) {
        prop_assume!(tweak_a != tweak_b);
        let cipher = Qarma64::new(Key::new(w0, k0));
        prop_assert_ne!(cipher.encrypt(pt, tweak_a), cipher.encrypt(pt, tweak_b));
    }

    /// Corrupting a ciphertext never decrypts to the original plaintext
    /// (decryption is injective).
    #[test]
    fn corrupted_ciphertext_decrypts_to_garbage(
        w0 in any::<u64>(),
        k0 in any::<u64>(),
        tweak in any::<u64>(),
        pt in any::<u64>(),
        flip in 1u64..,
    ) {
        let cipher = Qarma64::new(Key::new(w0, k0));
        let ct = cipher.encrypt(pt, tweak);
        prop_assert_ne!(cipher.decrypt(ct ^ flip, tweak), pt);
    }

    /// Diffusion smoke test: flipping one plaintext bit changes many
    /// ciphertext bits (we require at least 10 of 64 — the expected value is
    /// 32 and anything below ~16 would indicate a broken linear layer).
    #[test]
    fn single_bit_flip_diffuses(
        w0 in any::<u64>(),
        k0 in any::<u64>(),
        tweak in any::<u64>(),
        pt in any::<u64>(),
        bit in 0u32..64,
    ) {
        let cipher = Qarma64::with_params(Key::new(w0, k0), Sbox::Sigma1, DEFAULT_ROUNDS);
        let a = cipher.encrypt(pt, tweak);
        let b = cipher.encrypt(pt ^ (1u64 << bit), tweak);
        prop_assert!((a ^ b).count_ones() >= 10, "only {} bits differ", (a ^ b).count_ones());
    }

    /// Key serialization round-trips.
    #[test]
    fn key_bytes_round_trip(w0 in any::<u64>(), k0 in any::<u64>()) {
        let key = Key::new(w0, k0);
        prop_assert_eq!(Key::from_bytes(key.to_bytes()), key);
    }

    /// Differential test: the SWAR-optimized datapath agrees with the
    /// cell-by-cell reference implementation on both directions, for every
    /// key, tweak, block, S-box, and round count.
    #[test]
    fn optimized_matches_reference(
        w0 in any::<u64>(),
        k0 in any::<u64>(),
        tweak in any::<u64>(),
        block in any::<u64>(),
        sbox in any_sbox(),
        rounds in 1usize..=8,
    ) {
        let fast = Qarma64::with_params(Key::new(w0, k0), sbox, rounds);
        let slow = Reference::with_params(Key::new(w0, k0), sbox, rounds);
        prop_assert_eq!(fast.encrypt(block, tweak), slow.encrypt(block, tweak));
        prop_assert_eq!(fast.decrypt(block, tweak), slow.decrypt(block, tweak));
    }
}

/// The pool the tweak-cache test draws from: tweak 0, the all-ones tweak,
/// and 8-byte-apart addresses and high-bit patterns. With ~200 tweaks over
/// the cache's 64 slots, many pairs share a slot.
fn tweak_pool() -> Vec<u64> {
    let mut pool = vec![0, u64::MAX];
    for i in 0..66u64 {
        pool.push(0xffff_ffc0_0000_1000 + 8 * i);
        pool.push(0x9000 + 8 * i);
        pool.push(i << 57 | 1);
    }
    pool
}

proptest! {
    /// The per-thread tweak-schedule cache is exact: a stream of blocks
    /// over two keys and a pool of ~200 tweaks (so cached schedules are
    /// hit, evicted and refilled in turn) agrees with the uncached
    /// reference datapath for every S-box and round count.
    #[test]
    fn tweak_cache_matches_reference(
        ops in prop::collection::vec(
            (any::<bool>(), 0usize..200, any::<u64>(), any::<bool>()),
            1..64,
        ),
    ) {
        let pool = tweak_pool();
        let keys = [Key::new(W0, K0), Key::new(!W0, K0 ^ 0x5555)];
        for (second_key, tweak_index, block, decrypt) in ops {
            let key = keys[usize::from(second_key)];
            let tweak = pool[tweak_index % pool.len()];
            for sbox in [Sbox::Sigma0, Sbox::Sigma1, Sbox::Sigma2] {
                for rounds in 1..=8 {
                    let fast = Qarma64::with_params(key, sbox, rounds);
                    let slow = Reference::with_params(key, sbox, rounds);
                    if decrypt {
                        prop_assert_eq!(fast.decrypt(block, tweak), slow.decrypt(block, tweak));
                    } else {
                        prop_assert_eq!(fast.encrypt(block, tweak), slow.encrypt(block, tweak));
                    }
                }
            }
        }
    }
}

/// Published test vector inputs from the QARMA paper.
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

/// Both implementations reproduce the full published test-vector grid.
#[test]
fn published_vectors_hold_for_both_implementations() {
    let key = Key::new(W0, K0);
    for (sbox, rounds, ct) in VECTORS {
        let fast = Qarma64::with_params(key, sbox, rounds);
        let slow = Reference::with_params(key, sbox, rounds);
        assert_eq!(
            fast.encrypt(PLAINTEXT, TWEAK),
            ct,
            "fast {sbox:?} r={rounds}"
        );
        assert_eq!(
            slow.encrypt(PLAINTEXT, TWEAK),
            ct,
            "slow {sbox:?} r={rounds}"
        );
        assert_eq!(
            fast.decrypt(ct, TWEAK),
            PLAINTEXT,
            "fast⁻¹ {sbox:?} r={rounds}"
        );
        assert_eq!(
            slow.decrypt(ct, TWEAK),
            PLAINTEXT,
            "slow⁻¹ {sbox:?} r={rounds}"
        );
    }
}
