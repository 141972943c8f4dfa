//! Model-based property tests: the sparse memory against a hash-map
//! reference, and the CLB against a naive fully-associative LRU model.

use std::collections::HashMap;

use proptest::prelude::*;
use regvault_sim::{Clb, Memory};

proptest! {
    /// Memory behaves like a byte map: every read returns the most recent
    /// write, across widths and page boundaries.
    #[test]
    fn memory_matches_a_byte_map(
        ops in prop::collection::vec(
            (0u64..0x4000, any::<u64>(), 0u8..3),
            1..200,
        )
    ) {
        let mut memory = Memory::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (addr, value, width_sel) in ops {
            match width_sel {
                0 => {
                    memory.write_u8(addr, value as u8).expect("write");
                    model.insert(addr, value as u8);
                }
                1 => {
                    memory.write_u32(addr, value as u32).expect("write");
                    for (i, byte) in (value as u32).to_le_bytes().iter().enumerate() {
                        model.insert(addr + i as u64, *byte);
                    }
                }
                _ => {
                    memory.write_u64(addr, value).expect("write");
                    for (i, byte) in value.to_le_bytes().iter().enumerate() {
                        model.insert(addr + i as u64, *byte);
                    }
                }
            }
        }
        for (&addr, &expected) in &model {
            prop_assert_eq!(memory.read_u8(addr).expect("mapped"), expected);
        }
    }

    /// Untouched pages always fault.
    #[test]
    fn unmapped_reads_always_fault(addr in 0x10_0000u64..0x20_0000) {
        let memory = Memory::new();
        prop_assert!(memory.read_u8(addr).is_err());
        prop_assert!(memory.read_u64(addr).is_err());
    }
}

/// Reference model of a fully-associative LRU cache of (ksel, tweak, pt,
/// ct) tuples.
///
/// Real operation can never hold two valid entries with the same
/// `(ksel, tweak, plaintext)` or `(ksel, tweak, ciphertext)`: the cipher is
/// a function of those inputs for a fixed key, and key updates invalidate
/// the whole `ksel`. The generator below respects that reachability
/// invariant (conflicting inserts are skipped), because match selection
/// among impossible duplicates is unspecified. A fault-injected MRU poison
/// can break it only by landing on another entry's plaintext, which the
/// fault campaign's random 64-bit XOR does with negligible probability;
/// poisons that would collide are skipped too.
struct ClbModel {
    capacity: usize,
    /// Most-recently-used last.
    entries: Vec<(u8, u64, u64, u64)>,
    stats: regvault_sim::ClbStats,
}

impl ClbModel {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: Vec::new(),
            stats: regvault_sim::ClbStats::default(),
        }
    }

    fn lookup_encrypt(&mut self, ksel: u8, tweak: u64, pt: u64) -> Option<u64> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.0 == ksel && e.1 == tweak && e.2 == pt);
        let Some(pos) = pos else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        let entry = self.entries.remove(pos);
        let ct = entry.3;
        self.entries.push(entry);
        Some(ct)
    }

    fn lookup_decrypt(&mut self, ksel: u8, tweak: u64, ct: u64) -> Option<u64> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.0 == ksel && e.1 == tweak && e.3 == ct);
        let Some(pos) = pos else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        let entry = self.entries.remove(pos);
        let pt = entry.2;
        self.entries.push(entry);
        Some(pt)
    }

    fn insert(&mut self, ksel: u8, tweak: u64, pt: u64, ct: u64) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.remove(0); // LRU is at the front
            self.stats.evictions += 1;
        }
        self.entries.push((ksel, tweak, pt, ct));
    }

    fn invalidate_ksel(&mut self, ksel: u8) {
        let before = self.entries.len();
        self.entries.retain(|e| e.0 != ksel);
        self.stats.invalidations += (before - self.entries.len()) as u64;
    }

    fn poison_mru(&mut self, xor: u64) -> bool {
        match self.entries.last_mut() {
            Some(mru) if xor != 0 => {
                mru.2 ^= xor;
                true
            }
            _ => false,
        }
    }

    fn invalidate_all(&mut self) {
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
    }

    /// `true` when an entry other than the MRU one already caches `pt`
    /// under `(ksel, tweak)`.
    fn holds_other(&self, ksel: u8, tweak: u64, pt: u64) -> bool {
        let older = &self.entries[..self.entries.len().saturating_sub(1)];
        older
            .iter()
            .any(|e| e.0 == ksel && e.1 == tweak && e.2 == pt)
    }
}

#[derive(Debug, Clone)]
enum ClbOp {
    LookupEncrypt(u8, u64, u64),
    LookupDecrypt(u8, u64, u64),
    Insert(u8, u64, u64, u64),
    Invalidate(u8),
    PoisonMru(u64),
    InvalidateAll,
}

fn clb_op() -> impl Strategy<Value = ClbOp> {
    // Small value domains so lookups actually hit.
    let small = 0u64..8;
    prop_oneof![
        (0u8..4, small.clone(), small.clone()).prop_map(|(k, t, p)| ClbOp::LookupEncrypt(k, t, p)),
        (0u8..4, small.clone(), small.clone()).prop_map(|(k, t, c)| ClbOp::LookupDecrypt(k, t, c)),
        (0u8..4, small.clone(), small.clone(), small)
            .prop_map(|(k, t, p, c)| ClbOp::Insert(k, t, p, c)),
        (0u8..4).prop_map(ClbOp::Invalidate),
        (0u64..8).prop_map(ClbOp::PoisonMru),
        Just(ClbOp::InvalidateAll),
    ]
}

proptest! {
    /// The flat CLB, its naive reference implementation and the LRU model
    /// agree on every reachable operation sequence: hit/miss agreement,
    /// LRU order and eviction, per-ksel and whole-buffer invalidation, and
    /// MRU poison, with identical entries, occupancy and statistics after
    /// every operation.
    #[test]
    fn clb_matches_reference_lru(
        capacity in 0usize..=32,
        ops in prop::collection::vec(clb_op(), 1..120),
    ) {
        let mut clb = Clb::new(capacity);
        let mut reference = Clb::new_reference(capacity);
        let mut model = ClbModel::new(capacity);
        for op in ops {
            match op {
                ClbOp::LookupEncrypt(k, t, p) => {
                    let expected = model.lookup_encrypt(k, t, p);
                    prop_assert_eq!(clb.lookup_encrypt(k, t, p), expected);
                    prop_assert_eq!(reference.lookup_encrypt(k, t, p), expected);
                }
                ClbOp::LookupDecrypt(k, t, c) => {
                    let expected = model.lookup_decrypt(k, t, c);
                    prop_assert_eq!(clb.lookup_decrypt(k, t, c), expected);
                    prop_assert_eq!(reference.lookup_decrypt(k, t, c), expected);
                }
                ClbOp::Insert(k, t, p, c) => {
                    // Skip inserts that would create an impossible
                    // duplicate (see the reachability note above). The
                    // membership probes must not disturb LRU order, so use
                    // the model (search only, no touch).
                    let duplicate = model
                        .entries
                        .iter()
                        .any(|e| e.0 == k && e.1 == t && (e.2 == p || e.3 == c));
                    if !duplicate {
                        clb.insert(k, t, p, c);
                        reference.insert(k, t, p, c);
                        model.insert(k, t, p, c);
                    }
                }
                ClbOp::Invalidate(k) => {
                    clb.invalidate_ksel(k);
                    reference.invalidate_ksel(k);
                    model.invalidate_ksel(k);
                }
                ClbOp::PoisonMru(xor) => {
                    let collides = model
                        .entries
                        .last()
                        .is_some_and(|&(k, t, p, _)| model.holds_other(k, t, p ^ xor));
                    if !collides {
                        let expected = model.poison_mru(xor);
                        prop_assert_eq!(clb.poison_mru(xor), expected);
                        prop_assert_eq!(reference.poison_mru(xor), expected);
                    }
                }
                ClbOp::InvalidateAll => {
                    clb.invalidate_all();
                    reference.invalidate_all();
                    model.invalidate_all();
                }
            }
            prop_assert_eq!(clb.entries_lru_to_mru(), model.entries.clone());
            prop_assert_eq!(reference.entries_lru_to_mru(), model.entries.clone());
            prop_assert_eq!(clb.occupancy(), model.entries.len());
            prop_assert_eq!(reference.occupancy(), model.entries.len());
            prop_assert_eq!(clb.stats(), model.stats);
            prop_assert_eq!(reference.stats(), model.stats);
        }
    }
}
