//! Decoded-instruction cache for the fetch path.
//!
//! `exec::step` used to re-run the full bit-field decoder on every emulated
//! cycle, even though almost all fetches hit the same small working set of
//! instruction words. This direct-mapped cache remembers the [`Insn`] a
//! given `pc` decoded to, tagged with the *write generation* of the page it
//! was fetched from ([`crate::Memory`] bumps a page's generation on every
//! store). A store into a code page therefore invalidates its cached
//! decodes lazily: the generation tag no longer matches, the entry misses,
//! and the word is decoded afresh — self-modifying code stays
//! architecturally correct without any explicit flush traffic.

use regvault_isa::Insn;

/// Number of direct-mapped entries. Power of two; 2048 entries cover an
/// 8 KiB working set of code, larger than every bundled workload loop.
const ENTRIES: usize = 2048;
// `DecodeCache::filled` holds entry indices as `u16`.
const _: () = assert!(ENTRIES <= 1 << 16);

#[derive(Debug, Clone, Copy)]
struct Entry {
    pc: u64,
    /// Write generation of the containing page at decode time.
    gen: u64,
    insn: Insn,
}

/// Direct-mapped decoded-instruction cache, indexed by word-aligned `pc`.
#[derive(Debug, Clone)]
pub(crate) struct DecodeCache {
    entries: Vec<Option<Entry>>,
    /// Index of every entry filled since the last [`Self::clear`], each
    /// once, so a clear costs O(filled) instead of O([`ENTRIES`]).
    filled: Vec<u16>,
}

impl DecodeCache {
    pub(crate) fn new() -> Self {
        Self {
            entries: vec![None; ENTRIES],
            filled: Vec::new(),
        }
    }

    /// Empties every filled entry (snapshot restore). Required, not
    /// hygiene: generations are per-machine counters, so a restored page
    /// can carry a generation this machine already decoded other bytes
    /// under, and a kept entry would then hit on stale code.
    pub(crate) fn clear(&mut self) {
        for i in self.filled.drain(..) {
            self.entries[usize::from(i)] = None;
        }
    }

    #[inline(always)]
    fn index(pc: u64) -> usize {
        ((pc >> 2) as usize) & (ENTRIES - 1)
    }

    /// Returns the cached decode for `pc` if it was made under the same page
    /// generation `gen`.
    #[inline(always)]
    pub(crate) fn get(&self, pc: u64, gen: u64) -> Option<Insn> {
        match self.entries[Self::index(pc)] {
            Some(entry) if entry.pc == pc && entry.gen == gen => Some(entry.insn),
            _ => None,
        }
    }

    /// Caches the decode of the word at `pc`, fetched under page generation
    /// `gen`. Conflicting entries (same index, different pc) are simply
    /// replaced.
    #[inline(always)]
    pub(crate) fn put(&mut self, pc: u64, gen: u64, insn: Insn) {
        let i = Self::index(pc);
        if self.entries[i].is_none() {
            self.filled.push(i as u16);
        }
        self.entries[i] = Some(Entry { pc, gen, insn });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nop() -> Insn {
        regvault_isa::decode::decode(0x0000_0013).expect("addi x0, x0, 0")
    }

    #[test]
    fn hit_requires_matching_pc_and_generation() {
        let mut cache = DecodeCache::new();
        assert_eq!(cache.get(0x8000_0000, 1), None);
        cache.put(0x8000_0000, 1, nop());
        assert_eq!(cache.get(0x8000_0000, 1), Some(nop()));
        assert_eq!(cache.get(0x8000_0000, 2), None, "stale generation misses");
        assert_eq!(cache.get(0x8000_0004, 1), None, "different pc misses");
    }

    #[test]
    fn conflicting_pcs_replace_each_other() {
        let mut cache = DecodeCache::new();
        let stride = (ENTRIES as u64) << 2;
        cache.put(0x1000, 1, nop());
        cache.put(0x1000 + stride, 1, nop());
        assert_eq!(cache.get(0x1000, 1), None, "evicted by the aliasing pc");
        assert_eq!(cache.get(0x1000 + stride, 1), Some(nop()));
    }

    #[test]
    fn clear_empties_every_filled_entry() {
        let mut cache = DecodeCache::new();
        let stride = (ENTRIES as u64) << 2;
        let pcs = [0x1000, 0x1000 + stride, 0x2004, 0x8000_0000];
        for pc in pcs {
            cache.put(pc, 3, nop());
        }
        assert_eq!(cache.filled.len(), 3, "a refilled entry is listed once");
        cache.clear();
        assert!(cache.entries.iter().all(Option::is_none));
        assert!(cache.filled.is_empty());
        cache.put(0x2004, 3, nop());
        assert_eq!(cache.get(0x2004, 3), Some(nop()), "usable after a clear");
    }
}
