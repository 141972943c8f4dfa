//! Host-side memo of QARMA computations, under the simulated CLB.
//!
//! The paper's 8-entry CLB misses on about half of all `cre`/`crd`
//! operations, and most of those misses recompute a block this host thread
//! has already computed. This table remembers recent cipher outputs so a
//! CLB miss can skip QARMA on the host. It is invisible to the simulation:
//! the CLB still decides hit, miss, eviction and cycles, and the table is
//! not part of any engine, snapshot, digest or replay bundle.
//!
//! Exactness: QARMA is a pure function of (key, tweak, input, direction),
//! and a slot answers only when all four match — the key by value (`w0`,
//! `k0`), not by `ksel`, so key writes and [`crate::KeyRegFile::tamper`]
//! need no invalidation. Slots are filled only from outputs QARMA actually
//! computed, never from a CLB-served value, so a poisoned CLB entry cannot
//! leak into it.
//!
//! The table is one direct-mapped array per host thread rather than a field
//! of [`crate::CryptoEngine`]: forked and cloned machines then share the
//! blocks their parent computed and allocate nothing.

use std::cell::Cell;

use regvault_qarma::Key;

/// log2 of the slot count. 1024 slots (48 KiB) serve 94–95% of FULL and
/// 72–75% of FULL+rekey lookups on the UnixBench and LMbench suites;
/// 2048 add at most two points. Keep the table well below the 20k
/// distinct tweaks the repository benchmark's engine-miss probe cycles
/// through, so that probe keeps timing real QARMA misses.
const INDEX_BITS: u32 = 10;
const SLOTS: usize = 1 << INDEX_BITS;

/// One remembered computation. `op` is 0 for an empty slot, else
/// 1 (encrypt) or 2 (decrypt).
#[derive(Clone, Copy)]
struct Entry {
    w0: u64,
    k0: u64,
    tweak: u64,
    input: u64,
    op: u8,
    output: u64,
}

impl Entry {
    const EMPTY: Entry = Entry {
        w0: 0,
        k0: 0,
        tweak: 0,
        input: 0,
        op: 0,
        output: 0,
    };

    /// `true` when `self` remembers the computation `probe` asks for.
    fn answers(&self, probe: &Entry) -> bool {
        self.w0 == probe.w0
            && self.k0 == probe.k0
            && self.tweak == probe.tweak
            && self.input == probe.input
            && self.op == probe.op
    }

    /// The slot this computation maps to: the fields folded into one word,
    /// then the top bits of one Fibonacci-hashing multiply. On the suites
    /// this spreads slots at least as well as a per-field FxHash chain, at
    /// a fifth of the multiplies — it runs on every CLB miss, hit or not.
    fn slot(&self) -> usize {
        let fold = self.tweak
            ^ self.input.rotate_left(32)
            ^ self.w0
            ^ self.k0.rotate_left(16)
            ^ u64::from(self.op);
        (fold.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - INDEX_BITS)) as usize
    }
}

thread_local! {
    static TABLE: [Cell<Entry>; SLOTS] = const { [const { Cell::new(Entry::EMPTY) }; SLOTS] };
    /// `(hits, lookups)` of this thread's table.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The output of QARMA on (`key`, `tweak`, `input`, direction): from this
/// thread's table when it holds that computation, else from `qarma`, whose
/// result is remembered.
#[inline]
pub(crate) fn get_or_compute(
    key: Key,
    tweak: u64,
    input: u64,
    decrypt: bool,
    qarma: impl FnOnce() -> u64,
) -> u64 {
    let probe = Entry {
        w0: key.w0(),
        k0: key.k0(),
        tweak,
        input,
        op: 1 + u8::from(decrypt),
        output: 0,
    };
    let index = probe.slot();
    TABLE.with(|table| {
        let slot = &table[index];
        let entry = slot.get();
        let hit = entry.answers(&probe);
        COUNTS.with(|counts| {
            let (hits, lookups) = counts.get();
            counts.set((hits + u64::from(hit), lookups + 1));
        });
        if hit {
            return entry.output;
        }
        let output = qarma();
        slot.set(Entry { output, ..probe });
        output
    })
}

/// `(hits, lookups)` of the calling thread's QARMA memo since the thread
/// started: lookups are CLB misses on a SWAR-datapath engine, hits the
/// share of those the memo answered without running QARMA.
///
/// Host-side only: no simulated counter, snapshot or digest sees it.
/// Measure a span as the difference of two calls on the same thread.
#[must_use]
pub fn memo_counts() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup(key: Key, tweak: u64, input: u64, output: u64) -> u64 {
        get_or_compute(key, tweak, input, false, || output)
    }

    #[test]
    fn every_key_field_and_the_direction_take_part() {
        let key = Key::new(1, 2);
        lookup(key, 3, 4, 5);
        assert_eq!(lookup(Key::new(9, 2), 3, 4, 10), 10);
        assert_eq!(lookup(Key::new(1, 9), 3, 4, 11), 11);
        assert_eq!(lookup(key, 9, 4, 12), 12);
        assert_eq!(lookup(key, 3, 9, 13), 13);
        assert_eq!(get_or_compute(key, 3, 4, true, || 14), 14);
    }

    #[test]
    fn an_all_zero_computation_is_not_answered_by_an_empty_slot() {
        let (hits, _) = memo_counts();
        assert_eq!(lookup(Key::new(0, 0), 0, 0, 7), 7);
        assert_eq!(memo_counts().0, hits);
    }
}
