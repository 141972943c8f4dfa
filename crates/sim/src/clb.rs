//! The Cryptographic Lookaside Buffer (CLB), §2.3.3 of the paper.
//!
//! The architectural model is a fully-associative LRU cache. The paper's
//! CLB has 8 entries and the simulated configurations go up to 32 (the
//! `clb_hit_ratio` sweep), so the buffer is one flat array of entries kept
//! in recency order, most recently used first:
//!
//! * **lookup** — a linear scan for the first matching entry; a hit
//!   rotates it to the front.
//! * **insert** — refresh an existing `(ksel, tweak, plaintext)` entry in
//!   place, else pop the LRU tail when full and push the new entry at the
//!   front.
//! * **invalidation** — a counted `retain` per `ksel`, or a clear.
//!
//! At these sizes a scan over a few cache lines beats an index. On a
//! random stream into 8 entries at the paper's 0.50 hit ratio, a lookup
//! plus its insert costs 21–26 ns on a 2 GHz Xeon VM, against 35–43 ns for
//! the two hash maps and intrusive LRU list this replaced (at 32 entries
//! the scan costs 55–61 ns against 28–30 ns). Cloning the buffer, on every
//! kernel clone and fork, copies one short vector.
//!
//! The array grows on demand and never reserves by capacity: a snapshot's
//! capacity field is an untrusted `u32`.

/// One CLB entry: a cached `(ksel, tweak) : plaintext ↔ ciphertext` mapping.
#[derive(Debug, Clone, Copy)]
struct Slot {
    ksel: u8,
    tweak: u64,
    plaintext: u64,
    ciphertext: u64,
}

impl Slot {
    /// `true` when `self` caches `value` under `(ksel, tweak)`, matched as
    /// a ciphertext when `by_ct`, else as a plaintext. One OR of XORs, not
    /// a chain of `&&`: a short-circuit per field costs a mispredicted
    /// branch on every entry whose `ksel` alone matches.
    #[inline]
    fn matches(&self, ksel: u8, tweak: u64, value: u64, by_ct: bool) -> bool {
        let cached = if by_ct {
            self.ciphertext
        } else {
            self.plaintext
        };
        (u64::from(self.ksel ^ ksel) | (self.tweak ^ tweak) | (cached ^ value)) == 0
    }
}

/// Hit/miss counters for the CLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClbStats {
    /// Lookups that found a matching entry.
    pub hits: u64,
    /// Lookups that missed and required the multi-cycle QARMA datapath.
    pub misses: u64,
    /// Valid entries evicted by LRU replacement.
    pub evictions: u64,
    /// Entries invalidated by key-register writes.
    pub invalidations: u64,
}

impl ClbStats {
    /// Hit ratio in `[0, 1]`; zero when no lookups happened.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One entry of the [naive reference implementation](Clb::new_reference):
/// the cached tuple plus a monotonically increasing recency stamp.
#[derive(Debug, Clone, Copy)]
struct NaiveEntry {
    ksel: u8,
    tweak: u64,
    plaintext: u64,
    ciphertext: u64,
    last_used: u64,
}

/// The deliberately naive fully-associative LRU cache: linear scan per
/// lookup, `min_by_key(last_used)` eviction. Kept as the reference
/// datapath for the lockstep differential executor: it shares *no* code
/// with the flat [`Clb`] (its scan runs in vector order, not recency
/// order, and recency lives in stamps), so a recency-tracking bug in
/// either side shows up as a divergence.
#[derive(Debug, Clone, Default)]
struct NaiveClb {
    entries: Vec<NaiveEntry>,
    tick: u64,
}

impl NaiveClb {
    fn touch(&mut self, index: usize) {
        self.tick += 1;
        self.entries[index].last_used = self.tick;
    }

    fn lookup(&mut self, ksel: u8, tweak: u64, value: u64, by_ct: bool) -> Option<u64> {
        let found = self.entries.iter().position(|e| {
            e.ksel == ksel
                && e.tweak == tweak
                && (if by_ct { e.ciphertext } else { e.plaintext }) == value
        })?;
        self.touch(found);
        let entry = self.entries[found];
        Some(if by_ct {
            entry.plaintext
        } else {
            entry.ciphertext
        })
    }

    /// Returns `true` when a valid entry was evicted to make room.
    fn insert(&mut self, capacity: usize, ksel: u8, tweak: u64, pt: u64, ct: u64) -> bool {
        if let Some(found) = self
            .entries
            .iter()
            .position(|e| e.ksel == ksel && e.tweak == tweak && e.plaintext == pt)
        {
            self.entries[found].ciphertext = ct;
            self.touch(found);
            return false;
        }
        let (index, evicted) = if self.entries.len() < capacity {
            self.entries.push(NaiveEntry {
                ksel: 0,
                tweak: 0,
                plaintext: 0,
                ciphertext: 0,
                last_used: 0,
            });
            (self.entries.len() - 1, false)
        } else {
            // Full: replace the least recently used entry. At capacity 0
            // there is none, and the cache holds nothing.
            let Some(lru) = (0..self.entries.len()).min_by_key(|&i| self.entries[i].last_used)
            else {
                return false;
            };
            (lru, true)
        };
        self.entries[index] = NaiveEntry {
            ksel,
            tweak,
            plaintext: pt,
            ciphertext: ct,
            last_used: 0,
        };
        self.touch(index);
        evicted
    }

    /// Returns the number of entries invalidated.
    fn invalidate_ksel(&mut self, ksel: u8) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|e| e.ksel != ksel);
        (before - self.entries.len()) as u64
    }

    fn poison_mru(&mut self, xor: u64) -> bool {
        let Some(found) = self
            .entries
            .iter()
            .enumerate()
            .max_by_key(|(_, e)| e.last_used)
            .map(|(i, _)| i)
        else {
            return false;
        };
        self.entries[found].plaintext ^= xor;
        true
    }
}

/// A fully-associative, LRU-replaced cache of recent cryptographic results.
///
/// Each entry stores a 3-bit key-selection index rather than the 128-bit key
/// itself, so a key-register write invalidates all entries with the matching
/// `ksel` (§2.3.3). One entry serves both directions: an encryption that
/// cached `(tweak, pt) → ct` also accelerates the later decryption of `ct`.
///
/// A capacity of 0 disables the buffer (every lookup misses), which is the
/// "CLB 0" hardware configuration of Table 3.
///
/// # Examples
///
/// ```
/// use regvault_sim::Clb;
///
/// let mut clb = Clb::new(8);
/// assert_eq!(clb.lookup_encrypt(1, 0x40, 0xdead), None);
/// clb.insert(1, 0x40, 0xdead, 0xc1c1);
/// assert_eq!(clb.lookup_encrypt(1, 0x40, 0xdead), Some(0xc1c1));
/// assert_eq!(clb.lookup_decrypt(1, 0x40, 0xc1c1), Some(0xdead));
/// clb.invalidate_ksel(1);
/// assert_eq!(clb.lookup_encrypt(1, 0x40, 0xdead), None);
/// ```
#[derive(Debug, Clone)]
pub struct Clb {
    capacity: usize,
    /// `Some` selects the naive reference implementation; `entries` is
    /// then unused.
    naive: Option<NaiveClb>,
    /// The valid entries, most recently used first.
    entries: Vec<Slot>,
    stats: ClbStats,
}

impl Clb {
    /// Creates a CLB with `capacity` entries (0 disables caching).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            naive: None,
            entries: Vec::new(),
            stats: ClbStats::default(),
        }
    }

    /// Creates a CLB backed by the naive reference implementation (same
    /// observable semantics, no shared code with the flat fast path) — the
    /// CLB half of the reference datapath used by the lockstep
    /// differential executor.
    #[must_use]
    pub fn new_reference(capacity: usize) -> Self {
        Self {
            naive: Some(NaiveClb::default()),
            ..Self::new(capacity)
        }
    }

    /// `true` when this CLB runs the naive reference implementation.
    #[must_use]
    pub fn is_reference(&self) -> bool {
        self.naive.is_some()
    }

    /// Number of entries (the hardware configuration parameter).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently valid entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        match &self.naive {
            Some(naive) => naive.entries.len(),
            None => self.entries.len(),
        }
    }

    /// The valid entries as `(ksel, tweak, plaintext, ciphertext)` tuples in
    /// LRU → MRU order — the canonical architectural view used by snapshots
    /// and the lockstep state comparison (both implementations produce the
    /// same sequence when they agree).
    #[must_use]
    pub fn entries_lru_to_mru(&self) -> Vec<(u8, u64, u64, u64)> {
        if let Some(naive) = &self.naive {
            let mut sorted: Vec<&NaiveEntry> = naive.entries.iter().collect();
            sorted.sort_by_key(|e| e.last_used);
            return sorted
                .into_iter()
                .map(|e| (e.ksel, e.tweak, e.plaintext, e.ciphertext))
                .collect();
        }
        self.entries
            .iter()
            .rev()
            .map(|s| (s.ksel, s.tweak, s.plaintext, s.ciphertext))
            .collect()
    }

    /// Rebuilds the buffer from a snapshot: entries in LRU → MRU order plus
    /// the statistics counters captured with them. Preserves the
    /// implementation choice (flat vs. reference) of `self`.
    pub(crate) fn restore_entries(&mut self, entries: &[(u8, u64, u64, u64)], stats: ClbStats) {
        *self = if self.naive.is_some() {
            Self::new_reference(self.capacity)
        } else {
            Self::new(self.capacity)
        };
        for &(ksel, tweak, pt, ct) in entries {
            self.insert(ksel, tweak, pt, ct);
        }
        self.stats = stats;
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> ClbStats {
        self.stats
    }

    /// Resets the statistics counters (entries are kept).
    pub fn reset_stats(&mut self) {
        self.stats = ClbStats::default();
    }

    /// The shared lookup of both directions: the other half of the first
    /// entry caching `value` under `(ksel, tweak)`, which becomes the MRU
    /// entry.
    #[inline]
    fn lookup(&mut self, ksel: u8, tweak: u64, value: u64, by_ct: bool) -> Option<u64> {
        let found = match &mut self.naive {
            Some(naive) => naive.lookup(ksel, tweak, value, by_ct),
            None => self
                .entries
                .iter()
                .position(|s| s.matches(ksel, tweak, value, by_ct))
                .map(|index| {
                    self.entries[..=index].rotate_right(1);
                    let s = self.entries[0];
                    if by_ct {
                        s.plaintext
                    } else {
                        s.ciphertext
                    }
                }),
        };
        match found {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        found
    }

    /// Looks up a cached ciphertext for `(ksel, tweak, plaintext)`.
    pub fn lookup_encrypt(&mut self, ksel: u8, tweak: u64, plaintext: u64) -> Option<u64> {
        self.lookup(ksel, tweak, plaintext, false)
    }

    /// Looks up a cached plaintext for `(ksel, tweak, ciphertext)`.
    pub fn lookup_decrypt(&mut self, ksel: u8, tweak: u64, ciphertext: u64) -> Option<u64> {
        self.lookup(ksel, tweak, ciphertext, true)
    }

    /// Inserts a freshly computed result, evicting the LRU entry if full.
    ///
    /// A zero-capacity CLB ignores the insertion. Re-inserting an existing
    /// `(ksel, tweak, plaintext)` tuple refreshes that entry in place
    /// (unreachable in real operation — the preceding lookup would have
    /// hit — but harmless).
    pub fn insert(&mut self, ksel: u8, tweak: u64, plaintext: u64, ciphertext: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(naive) = &mut self.naive {
            if naive.insert(self.capacity, ksel, tweak, plaintext, ciphertext) {
                self.stats.evictions += 1;
            }
            return;
        }
        let slot = Slot {
            ksel,
            tweak,
            plaintext,
            ciphertext,
        };
        if let Some(index) = self
            .entries
            .iter()
            .position(|s| s.matches(ksel, tweak, plaintext, false))
        {
            self.entries[..=index].rotate_right(1);
            self.entries[0] = slot;
            return;
        }
        if self.entries.len() >= self.capacity {
            self.entries.pop();
            self.stats.evictions += 1;
        }
        self.entries.insert(0, slot);
    }

    /// Invalidates every entry whose key selector matches `ksel` — the
    /// hardware behaviour on a key-register write.
    pub fn invalidate_ksel(&mut self, ksel: u8) {
        let removed = match &mut self.naive {
            Some(naive) => naive.invalidate_ksel(ksel),
            None => {
                let before = self.entries.len();
                self.entries.retain(|s| s.ksel != ksel);
                (before - self.entries.len()) as u64
            }
        };
        self.stats.invalidations += removed;
    }

    /// Fault-injection hook: XORs `xor` into the cached plaintext of the
    /// most-recently-used valid entry, modelling a bit upset in the CLB's
    /// data array. Returns `false` (and changes nothing) when `xor` is zero
    /// or no valid entry exists.
    ///
    /// A poisoned entry serves the corrupted plaintext on its next decrypt
    /// hit; whether the consumer notices is exactly what the fault campaign
    /// measures.
    pub fn poison_mru(&mut self, xor: u64) -> bool {
        if xor == 0 {
            return false;
        }
        if let Some(naive) = &mut self.naive {
            return naive.poison_mru(xor);
        }
        match self.entries.first_mut() {
            Some(mru) => {
                mru.plaintext ^= xor;
                true
            }
            None => false,
        }
    }

    /// Invalidates the whole buffer.
    pub fn invalidate_all(&mut self) {
        self.stats.invalidations += self.occupancy() as u64;
        match &mut self.naive {
            Some(naive) => naive.entries.clear(),
            None => self.entries.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_always_misses() {
        let mut clb = Clb::new(0);
        clb.insert(1, 2, 3, 4);
        assert_eq!(clb.lookup_encrypt(1, 2, 3), None);
        assert_eq!(clb.stats().misses, 1);
        assert_eq!(clb.occupancy(), 0);
    }

    #[test]
    fn naive_zero_capacity_holds_nothing_on_its_own() {
        // `Clb::insert` returns before reaching the naive cache at capacity
        // 0; the naive cache must not rely on that.
        let mut naive = NaiveClb::default();
        assert!(!naive.insert(0, 1, 2, 3, 4), "nothing to evict");
        assert!(naive.entries.is_empty());
        assert_eq!(naive.lookup(1, 2, 3, false), None);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut clb = Clb::new(2);
        clb.insert(0, 0, 1, 101);
        clb.insert(0, 0, 2, 102);
        // Touch entry 1 so entry 2 becomes LRU.
        assert_eq!(clb.lookup_encrypt(0, 0, 1), Some(101));
        clb.insert(0, 0, 3, 103);
        assert_eq!(clb.stats().evictions, 1);
        assert_eq!(clb.lookup_encrypt(0, 0, 1), Some(101), "recently used kept");
        assert_eq!(clb.lookup_encrypt(0, 0, 2), None, "LRU evicted");
        assert_eq!(clb.lookup_encrypt(0, 0, 3), Some(103));
    }

    #[test]
    fn decrypt_hit_refreshes_recency() {
        let mut clb = Clb::new(2);
        clb.insert(0, 0, 1, 101);
        clb.insert(0, 0, 2, 102);
        // Touch entry 1 through the *decrypt* index.
        assert_eq!(clb.lookup_decrypt(0, 0, 101), Some(1));
        clb.insert(0, 0, 3, 103);
        assert_eq!(
            clb.lookup_encrypt(0, 0, 1),
            Some(101),
            "refreshed entry kept"
        );
        assert_eq!(clb.lookup_encrypt(0, 0, 2), None, "stale entry evicted");
    }

    #[test]
    fn ksel_invalidation_is_selective() {
        let mut clb = Clb::new(4);
        clb.insert(1, 0, 10, 110);
        clb.insert(2, 0, 20, 120);
        clb.invalidate_ksel(1);
        assert_eq!(clb.lookup_encrypt(1, 0, 10), None);
        assert_eq!(clb.lookup_encrypt(2, 0, 20), Some(120));
        assert_eq!(clb.stats().invalidations, 1);
    }

    #[test]
    fn invalidated_slots_are_recycled() {
        let mut clb = Clb::new(2);
        clb.insert(1, 0, 10, 110);
        clb.insert(2, 0, 20, 120);
        clb.invalidate_ksel(1);
        assert_eq!(clb.occupancy(), 1);
        clb.insert(3, 0, 30, 130);
        assert_eq!(clb.occupancy(), 2);
        assert_eq!(
            clb.stats().evictions,
            0,
            "reused the freed slot, no eviction"
        );
        assert_eq!(clb.lookup_encrypt(2, 0, 20), Some(120));
        assert_eq!(clb.lookup_encrypt(3, 0, 30), Some(130));
    }

    #[test]
    fn tweak_distinguishes_entries() {
        let mut clb = Clb::new(4);
        clb.insert(0, 0xA, 5, 50);
        clb.insert(0, 0xB, 5, 60);
        assert_eq!(clb.lookup_encrypt(0, 0xA, 5), Some(50));
        assert_eq!(clb.lookup_encrypt(0, 0xB, 5), Some(60));
    }

    #[test]
    fn hit_ratio_accounts_both_directions() {
        let mut clb = Clb::new(4);
        clb.insert(0, 0, 1, 2);
        let _ = clb.lookup_encrypt(0, 0, 1); // hit
        let _ = clb.lookup_decrypt(0, 0, 2); // hit
        let _ = clb.lookup_decrypt(0, 0, 99); // miss
        let stats = clb.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn poison_mru_corrupts_only_the_latest_entry() {
        let mut clb = Clb::new(4);
        assert!(!clb.poison_mru(1), "empty buffer has no target");
        clb.insert(1, 0, 10, 110);
        clb.insert(1, 0, 20, 120);
        assert!(!clb.poison_mru(0), "zero xor is a no-op");
        assert!(clb.poison_mru(0xFF));
        assert_eq!(clb.lookup_decrypt(1, 0, 120), Some(20 ^ 0xFF));
        assert_eq!(
            clb.lookup_decrypt(1, 0, 110),
            Some(10),
            "older entry untouched"
        );
    }

    #[test]
    fn poison_updates_the_encrypt_index() {
        let mut clb = Clb::new(4);
        clb.insert(1, 0, 10, 110);
        assert!(clb.poison_mru(0xF0));
        assert_eq!(
            clb.lookup_encrypt(1, 0, 10),
            None,
            "old plaintext no longer matches"
        );
        assert_eq!(clb.lookup_encrypt(1, 0, 10 ^ 0xF0), Some(110));
    }

    #[test]
    fn invalidate_all_clears_everything() {
        let mut clb = Clb::new(4);
        clb.insert(0, 0, 1, 2);
        clb.insert(3, 0, 4, 5);
        clb.invalidate_all();
        assert_eq!(clb.occupancy(), 0);
        assert_eq!(clb.stats().invalidations, 2);
    }

    /// Drives the flat and naive implementations through the same
    /// operation sequence and demands identical observables at every step.
    #[test]
    fn reference_implementation_matches_indexed() {
        let mut fast = Clb::new(3);
        let mut reference = Clb::new_reference(3);
        assert!(reference.is_reference() && !fast.is_reference());
        // A mixed workload: inserts past capacity, both lookup directions,
        // selective invalidation, MRU poison.
        let tuples: [(u8, u64, u64, u64); 6] = [
            (1, 0x10, 0xA, 0x1A),
            (2, 0x20, 0xB, 0x2B),
            (1, 0x30, 0xC, 0x3C),
            (3, 0x40, 0xD, 0x4D),
            (2, 0x20, 0xB, 0x2B),
            (1, 0x10, 0xA, 0x1A),
        ];
        for (i, &(ksel, tweak, pt, ct)) in tuples.iter().enumerate() {
            fast.insert(ksel, tweak, pt, ct);
            reference.insert(ksel, tweak, pt, ct);
            if i % 2 == 0 {
                assert_eq!(
                    fast.lookup_decrypt(ksel, tweak, ct),
                    reference.lookup_decrypt(ksel, tweak, ct)
                );
            } else {
                assert_eq!(
                    fast.lookup_encrypt(ksel, tweak, pt),
                    reference.lookup_encrypt(ksel, tweak, pt)
                );
            }
            assert_eq!(fast.entries_lru_to_mru(), reference.entries_lru_to_mru());
            assert_eq!(fast.stats(), reference.stats());
        }
        assert_eq!(fast.poison_mru(0xF0), reference.poison_mru(0xF0));
        assert_eq!(fast.entries_lru_to_mru(), reference.entries_lru_to_mru());
        fast.invalidate_ksel(1);
        reference.invalidate_ksel(1);
        assert_eq!(fast.entries_lru_to_mru(), reference.entries_lru_to_mru());
        assert_eq!(fast.stats(), reference.stats());
    }

    #[test]
    fn restore_entries_reproduces_order_and_stats() {
        for capacity in [1u64, 8, 32] {
            let mut clb = Clb::new(capacity as usize);
            for i in 0..capacity {
                clb.insert((i % 8) as u8, i, 10 + i, 110 + i);
            }
            // The oldest entry becomes MRU, so the second oldest is LRU.
            let _ = clb.lookup_encrypt(0, 0, 10);
            let entries = clb.entries_lru_to_mru();
            let stats = clb.stats();
            for mut rebuilt in [
                Clb::new(capacity as usize),
                Clb::new_reference(capacity as usize),
            ] {
                rebuilt.restore_entries(&entries, stats);
                assert_eq!(rebuilt.entries_lru_to_mru(), entries, "capacity {capacity}");
                assert_eq!(rebuilt.stats(), stats, "capacity {capacity}");
                // LRU order survived: one more insert evicts exactly the
                // LRU entry.
                rebuilt.insert(7, 0x99, 0x99, 0x199);
                let (lru, kept) = entries.split_first().expect("full buffer");
                assert_eq!(rebuilt.lookup_encrypt(lru.0, lru.1, lru.2), None);
                for &(ksel, tweak, pt, ct) in kept {
                    assert_eq!(rebuilt.lookup_encrypt(ksel, tweak, pt), Some(ct));
                }
            }
        }
    }
}
