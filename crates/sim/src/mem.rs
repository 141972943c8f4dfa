//! Sparse, page-granular physical memory with copy-on-write page sharing.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::fxhash::FxHashMap;
use crate::snapshot::page_hash;
use crate::ExceptionCause;

const PAGE_SHIFT: u32 = 12;
/// Bytes per page: the granule of mapping, copy-on-write sharing and the
/// write generations that invalidate decoded code.
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
/// [`PAGE_SIZE`] as a `usize`, for byte arrays and slice offsets.
pub(crate) const PAGE_BYTES: usize = PAGE_SIZE as usize;

/// The contents of one 4 KiB page plus a memo of its content hash.
///
/// The memo lives in the shared allocation, so every holder of the page's
/// [`Arc`] (a snapshot, a warm image, every fork of either) reuses one
/// hash: [`Machine::arch_digest`](crate::Machine::arch_digest) hashes each
/// page version at most once. The bytes are read-only through [`Deref`];
/// [`PageData::bytes_mut`] is the only writable path, and it clears the
/// memo. The hash word comes first (`repr(C)`), right after the `Arc`
/// counts that every store's [`Arc::make_mut`] already touches, so clearing
/// it rarely costs a cache line of its own.
#[repr(C)]
#[derive(Debug)]
pub(crate) struct PageData {
    /// [`page_hash`] of `bytes`, or 0 when not hashed since the last write.
    /// A page whose hash is 0 is simply rehashed on every digest.
    hash: AtomicU64,
    bytes: [u8; PAGE_BYTES],
}

impl PageData {
    /// A page holding `bytes`, not yet hashed.
    pub(crate) fn new(bytes: [u8; PAGE_BYTES]) -> Self {
        Self {
            hash: AtomicU64::new(0),
            bytes,
        }
    }

    /// Writable bytes; forgets the memoised hash. `&mut self` means no
    /// other holder shares the allocation, so a plain store suffices.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8; PAGE_BYTES] {
        *self.hash.get_mut() = 0;
        &mut self.bytes
    }

    /// [`page_hash`] of the bytes, computed on the first call after a write
    /// and memoised for every holder of the page. The memo publishes no
    /// other data: while the page is shared its bytes cannot change (a
    /// writer holds the only reference), and concurrent first calls store
    /// the same value, so `Relaxed` suffices. Debug builds recompute the
    /// hash on every memo hit and check it.
    pub(crate) fn hash(&self) -> u64 {
        let memo = self.hash.load(Ordering::Relaxed);
        if memo != 0 {
            debug_assert_eq!(memo, page_hash(&self.bytes), "stale page-hash memo");
            return memo;
        }
        let hash = page_hash(&self.bytes);
        self.hash.store(hash, Ordering::Relaxed);
        hash
    }
}

impl Deref for PageData {
    type Target = [u8; PAGE_BYTES];

    fn deref(&self) -> &Self::Target {
        &self.bytes
    }
}

/// Copies the bytes; the memo is carried over, since it hashes equal bytes.
impl Clone for PageData {
    fn clone(&self) -> Self {
        Self {
            hash: AtomicU64::new(self.hash.load(Ordering::Relaxed)),
            bytes: self.bytes,
        }
    }
}

/// Equal when the bytes are equal, hashed or not.
impl PartialEq for PageData {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for PageData {}

/// One 4 KiB page plus its write generation.
///
/// The contents live behind an [`Arc`] so snapshots and forked machines
/// share physical pages until someone writes: every store goes through
/// [`Arc::make_mut`], which copies the page only when it is actually
/// shared (copy-on-first-write), and then [`PageData::bytes_mut`], which
/// clears the page's hash memo. The memo lives *inside* the `Arc`, so all
/// holders of one page version share it; the write generation stays
/// *outside* — it is per-machine microarchitectural state, and two forks
/// that share a page's bytes still advance their generations independently.
#[derive(Debug, Clone)]
struct Page {
    /// Bumped on every store into the page. The decoded-instruction cache
    /// tags entries with the generation it decoded under, so a store to a
    /// code page lazily invalidates every cached decode for that page.
    gen: u64,
    data: Arc<PageData>,
}

impl Page {
    /// A zero-filled page, in a spare allocation if there is one.
    fn zeroed(spare: &mut Vec<Arc<PageData>>) -> Self {
        Self {
            gen: 0,
            data: private_page(spare, &[0; PAGE_BYTES]),
        }
    }
}

/// An unshared page holding `bytes`, in a spare allocation if there is one.
fn private_page(spare: &mut Vec<Arc<PageData>>, bytes: &[u8; PAGE_BYTES]) -> Arc<PageData> {
    if let Some(mut page) = spare.pop() {
        if let Some(data) = Arc::get_mut(&mut page) {
            *data.bytes_mut() = *bytes;
            return page;
        }
    }
    Arc::new(PageData::new(*bytes))
}

/// Keeps `page` for reuse if nothing else holds it.
fn keep_spare(spare: &mut Vec<Arc<PageData>>, mut page: Arc<PageData>) {
    if Arc::get_mut(&mut page).is_some() {
        spare.push(page);
    }
}

/// Sparse byte-addressable memory backed by 4 KiB pages allocated on first
/// touch.
///
/// Reads of never-written pages fault (modelling unmapped physical memory),
/// except within pages that were created by a partial write, which read as
/// zero — the same behaviour as zero-initialised RAM.
///
/// The page table is a hash map under the simulator's FxHash (the page walk
/// runs at least once per emulated instruction), and multi-byte accesses
/// that stay within one page — the overwhelmingly common case — are served
/// with a single probe and a slice copy instead of a byte loop. Addresses
/// are taken modulo 2^64, as RISC-V's effective address is: an access that
/// runs past the top of the address space continues at address 0.
///
/// Page contents are reference-counted ([`Arc`]): cloning a `Memory`,
/// capturing a snapshot, or forking a machine from one shares every page
/// and copies nothing. The first store into a shared page copies that one
/// page (copy-on-write), so a fleet of forked instances pays only for the
/// pages it actually dirties. Each page also carries a memo of its content
/// hash, shared the same way and cleared by the write that creates a new
/// page version, so digesting a fork re-reads only the pages it wrote.
///
/// # Examples
///
/// ```
/// use regvault_sim::Memory;
///
/// let mut mem = Memory::new();
/// mem.write_u64(0x8000_0000, 0xdead_beef).unwrap();
/// assert_eq!(mem.read_u64(0x8000_0000).unwrap(), 0xdead_beef);
/// assert!(mem.read_u64(0x4000_0000).is_err()); // untouched page
///
/// let fork = mem.clone();
/// assert_eq!(mem.shared_pages_with(&fork), 1); // CoW: bytes are shared
/// ```
#[derive(Debug, Default)]
pub struct Memory {
    pages: FxHashMap<u64, Page>,
    /// Page allocations that [`Memory::load_pages`] replaced or unmapped
    /// while this memory held them alone, reused by the next copy-on-write
    /// copy or newly mapped page. Freed instead, the pages of a restore
    /// (dozens for a serve micro-reboot) return to the allocator at once,
    /// which can hand the top of its heap back to the OS and page-fault it
    /// in again on the writes that follow. Bounded by the pages this memory
    /// has held privately at once.
    spare: Vec<Arc<PageData>>,
}

/// A clone shares every page and starts with no spare allocations.
impl Clone for Memory {
    fn clone(&self) -> Self {
        Self {
            pages: self.pages.clone(),
            spare: Vec::new(),
        }
    }
}

impl Memory {
    /// Creates an empty memory with no mapped pages.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of currently mapped 4 KiB pages.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    /// `true` if the page containing `addr` has been touched.
    #[must_use]
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.pages.contains_key(&(addr >> PAGE_SHIFT))
    }

    /// Number of mapped pages whose contents are physically shared (same
    /// reference-counted allocation) with a page in `other` — the
    /// copy-on-write sharing metric the fleet bench reports.
    #[must_use]
    pub fn shared_pages_with(&self, other: &Memory) -> usize {
        self.pages
            .iter()
            .filter(|(no, page)| {
                other
                    .pages
                    .get(no)
                    .is_some_and(|theirs| Arc::ptr_eq(&page.data, &theirs.data))
            })
            .count()
    }

    /// The page number containing `addr` (superblock tagging uses the same
    /// granularity as the write-generation invalidation).
    pub(crate) fn page_number(addr: u64) -> u64 {
        addr >> PAGE_SHIFT
    }

    /// Current write generation of a page, `None` if unmapped.
    pub(crate) fn page_gen(&self, page_no: u64) -> Option<u64> {
        self.pages.get(&page_no).map(|page| page.gen)
    }

    /// Pre-maps (zero-fills) the page range covering `[start, start + len)`,
    /// addresses taken modulo 2^64 like every other access: a region that
    /// runs past the top of the address space continues at page 0.
    pub fn map_region(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let last = start.wrapping_add(len - 1) >> PAGE_SHIFT;
        let mut page = start >> PAGE_SHIFT;
        loop {
            let spare = &mut self.spare;
            self.pages
                .entry(page)
                .or_insert_with(|| Page::zeroed(spare));
            if page == last {
                break;
            }
            page = (page + 1) & (u64::MAX >> PAGE_SHIFT);
        }
    }

    /// Writable view of the page containing `addr`, mapping it on first
    /// touch, with its generation bumped. Copies the page contents first if
    /// they are shared with a snapshot or fork (copy-on-write).
    fn page_data_mut(&mut self, addr: u64) -> &mut [u8; PAGE_BYTES] {
        let Memory { pages, spare } = self;
        let page = pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Page::zeroed(spare));
        page.gen += 1;
        if Arc::strong_count(&page.data) > 1 {
            page.data = private_page(spare, &page.data.bytes);
        }
        Arc::make_mut(&mut page.data).bytes_mut()
    }

    /// Fetches the aligned instruction word at `addr` together with the
    /// containing page's write generation, in a single page-table probe.
    ///
    /// The caller guarantees 4-byte alignment (the hart checks `pc` before
    /// fetching), so the word never straddles a page.
    ///
    /// # Errors
    ///
    /// Returns [`ExceptionCause::LoadAccessFault`] if the page is unmapped.
    pub(crate) fn fetch_word(&self, addr: u64) -> Result<(u32, u64), ExceptionCause> {
        debug_assert!(addr.is_multiple_of(4), "instruction fetch must be aligned");
        let page = self
            .pages
            .get(&(addr >> PAGE_SHIFT))
            .ok_or(ExceptionCause::LoadAccessFault)?;
        let (words, _) = page.data.as_chunks::<4>();
        let word = u32::from_le_bytes(words[(addr & (PAGE_SIZE - 1)) as usize / 4]);
        Ok((word, page.gen))
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`ExceptionCause::LoadAccessFault`] if the page is unmapped.
    pub fn read_u8(&self, addr: u64) -> Result<u8, ExceptionCause> {
        let page = self
            .pages
            .get(&(addr >> PAGE_SHIFT))
            .ok_or(ExceptionCause::LoadAccessFault)?;
        Ok(page.data[(addr & (PAGE_SIZE - 1)) as usize])
    }

    /// Writes one byte, mapping the page on first touch.
    ///
    /// # Errors
    ///
    /// Infallible today (sparse memory always maps); kept fallible so a
    /// bounded-memory configuration can fault without an API break.
    pub fn write_u8(&mut self, addr: u64, value: u8) -> Result<(), ExceptionCause> {
        self.page_data_mut(addr)[(addr & (PAGE_SIZE - 1)) as usize] = value;
        Ok(())
    }

    /// Reads `N` bytes into a fixed-size array.
    ///
    /// # Errors
    ///
    /// Returns [`ExceptionCause::LoadAccessFault`] if any page is unmapped.
    pub fn read_array<const N: usize>(&self, addr: u64) -> Result<[u8; N], ExceptionCause> {
        let offset = (addr & (PAGE_SIZE - 1)) as usize;
        let mut out = [0u8; N];
        if offset + N <= PAGE_SIZE as usize {
            // Fast path: the access stays within one page.
            let page = self
                .pages
                .get(&(addr >> PAGE_SHIFT))
                .ok_or(ExceptionCause::LoadAccessFault)?;
            out.copy_from_slice(&page.data[offset..offset + N]);
        } else {
            for (i, byte) in out.iter_mut().enumerate() {
                *byte = self.read_u8(addr.wrapping_add(i as u64))?;
            }
        }
        Ok(out)
    }

    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), ExceptionCause> {
        let offset = (addr & (PAGE_SIZE - 1)) as usize;
        if offset + bytes.len() <= PAGE_SIZE as usize {
            // Fast path: the access stays within one page.
            let data = self.page_data_mut(addr);
            data[offset..offset + bytes.len()].copy_from_slice(bytes);
        } else {
            for (i, &byte) in bytes.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), byte)?;
            }
        }
        Ok(())
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`ExceptionCause::LoadAccessFault`] on unmapped pages.
    pub fn read_u16(&self, addr: u64) -> Result<u16, ExceptionCause> {
        Ok(u16::from_le_bytes(self.read_array(addr)?))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`ExceptionCause::LoadAccessFault`] on unmapped pages.
    pub fn read_u32(&self, addr: u64) -> Result<u32, ExceptionCause> {
        Ok(u32::from_le_bytes(self.read_array(addr)?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`ExceptionCause::LoadAccessFault`] on unmapped pages.
    pub fn read_u64(&self, addr: u64) -> Result<u64, ExceptionCause> {
        Ok(u64::from_le_bytes(self.read_array(addr)?))
    }

    /// Writes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// See [`Memory::write_u8`].
    pub fn write_u16(&mut self, addr: u64, value: u16) -> Result<(), ExceptionCause> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// See [`Memory::write_u8`].
    pub fn write_u32(&mut self, addr: u64, value: u32) -> Result<(), ExceptionCause> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`Memory::write_u8`].
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), ExceptionCause> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Copies a byte slice into memory, mapping pages as needed.
    ///
    /// Infallible by construction: it writes straight into the
    /// mapped-on-touch page table rather than going through the fallible
    /// store path.
    pub fn write_slice(&mut self, addr: u64, bytes: &[u8]) {
        let mut at = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let offset = (at & (PAGE_SIZE - 1)) as usize;
            let room = PAGE_SIZE as usize - offset;
            let take = room.min(rest.len());
            let data = self.page_data_mut(at);
            data[offset..offset + take].copy_from_slice(&rest[..take]);
            at = at.wrapping_add(take as u64);
            rest = &rest[take..];
        }
    }

    /// Reads `len` bytes into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`ExceptionCause::LoadAccessFault`] if any page is unmapped.
    pub fn read_vec(&self, addr: u64, len: usize) -> Result<Vec<u8>, ExceptionCause> {
        let mut out = Vec::with_capacity(len);
        let mut at = addr;
        while out.len() < len {
            let offset = (at & (PAGE_SIZE - 1)) as usize;
            let take = (PAGE_BYTES - offset).min(len - out.len());
            let page = self
                .pages
                .get(&(at >> PAGE_SHIFT))
                .ok_or(ExceptionCause::LoadAccessFault)?;
            out.extend_from_slice(&page.data[offset..offset + take]);
            at = at.wrapping_add(take as u64);
        }
        Ok(out)
    }

    /// Every mapped page as `(page_number, write_generation, contents)`,
    /// sorted by page number (snapshot support — the sort makes the
    /// serialized form canonical). The contents come back as `Arc` handles
    /// so a snapshot capture shares pages instead of copying them.
    pub(crate) fn page_entries(&self) -> Vec<(u64, u64, &Arc<PageData>)> {
        let mut pages: Vec<_> = self.pages().collect();
        pages.sort_unstable_by_key(|&(no, _, _)| no);
        pages
    }

    /// Every mapped page as `(page_number, write_generation, contents)`, in
    /// no particular order: for digests and counts that need no order.
    pub(crate) fn pages(&self) -> impl Iterator<Item = (u64, u64, &Arc<PageData>)> {
        self.pages
            .iter()
            .map(|(&no, page)| (no, page.gen, &page.data))
    }

    /// Makes the page table equal `pages` (sorted by page number, as a
    /// snapshot holds them), write generations included: generations must
    /// survive the round-trip or the decode cache's lazy invalidation would
    /// resurrect stale entries. Only a page whose contents (`Arc`) or
    /// generation differ is replaced, and a page `pages` lacks is unmapped,
    /// so reloading a snapshot into a machine forked from it costs one probe
    /// per page and touches only what the machine changed since. The `Arc`
    /// is shared, not copied: the machine references the snapshot's pages
    /// until it writes to them. A replaced or unmapped page that only this
    /// memory held is kept as a spare allocation.
    pub(crate) fn load_pages(&mut self, pages: &[(u64, u64, Arc<PageData>)]) {
        debug_assert!(pages.is_sorted_by(|a, b| a.0 < b.0), "page list not sorted");
        let Memory {
            pages: table,
            spare,
        } = self;
        for (no, gen, data) in pages {
            match table.get_mut(no) {
                Some(page) => {
                    if page.gen != *gen || !Arc::ptr_eq(&page.data, data) {
                        page.gen = *gen;
                        keep_spare(spare, std::mem::replace(&mut page.data, Arc::clone(data)));
                    }
                }
                None => {
                    table.insert(
                        *no,
                        Page {
                            gen: *gen,
                            data: Arc::clone(data),
                        },
                    );
                }
            }
        }
        // Every page of `pages` is mapped now, so any extra is one the
        // machine mapped since.
        if table.len() > pages.len() {
            let unmapped =
                table.extract_if(|no, _| pages.binary_search_by_key(no, |p| p.0).is_err());
            for (_, page) in unmapped {
                keep_spare(spare, page.data);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_widths() {
        let mut mem = Memory::new();
        mem.write_u8(0x1000, 0xAB).unwrap();
        mem.write_u16(0x1010, 0xBEEF).unwrap();
        mem.write_u32(0x1020, 0xDEAD_BEEF).unwrap();
        mem.write_u64(0x1030, 0x0123_4567_89AB_CDEF).unwrap();
        assert_eq!(mem.read_u8(0x1000).unwrap(), 0xAB);
        assert_eq!(mem.read_u16(0x1010).unwrap(), 0xBEEF);
        assert_eq!(mem.read_u32(0x1020).unwrap(), 0xDEAD_BEEF);
        assert_eq!(mem.read_u64(0x1030).unwrap(), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn unmapped_reads_fault() {
        let mem = Memory::new();
        assert_eq!(mem.read_u8(0).unwrap_err(), ExceptionCause::LoadAccessFault);
    }

    #[test]
    fn cross_page_access_works() {
        let mut mem = Memory::new();
        mem.write_u64(0x1FFC, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(mem.read_u64(0x1FFC).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(mem.mapped_pages(), 2);
    }

    #[test]
    fn cross_page_read_faults_if_second_page_unmapped() {
        let mut mem = Memory::new();
        mem.write_u8(0x1FFC, 1).unwrap();
        assert!(mem.read_u64(0x1FFC).is_err(), "tail page never touched");
        assert_eq!(
            mem.read_array::<16>(0x1FF8).unwrap_err(),
            ExceptionCause::LoadAccessFault
        );
    }

    #[test]
    fn read_array_matches_read_vec() {
        let mut mem = Memory::new();
        mem.write_slice(0x1FF8, &(1..=16).collect::<Vec<u8>>());
        for addr in [0x1FF8, 0x1FFC, 0x2000] {
            assert_eq!(
                mem.read_array::<16>(addr).unwrap().to_vec(),
                mem.read_vec(addr, 16).unwrap()
            );
        }
    }

    #[test]
    fn read_vec_faults_if_a_later_page_is_unmapped() {
        let mut mem = Memory::new();
        mem.write_u8(0x1FFF, 7).unwrap();
        assert_eq!(
            mem.read_vec(0x1F00, 0x200).unwrap_err(),
            ExceptionCause::LoadAccessFault
        );
        assert_eq!(mem.read_vec(0x1F00, 0x100).unwrap().len(), 0x100);
        assert_eq!(mem.read_vec(0x7000, 0).unwrap(), b"");
        mem.write_u8(0x2000, 9).unwrap();
        assert_eq!(mem.read_vec(0x1FFF, 2).unwrap(), [7, 9]);
    }

    /// The hash memo as stored, without computing it.
    fn memo(mem: &Memory, page_no: u64) -> u64 {
        mem.pages[&page_no].data.hash.load(Ordering::Relaxed)
    }

    #[test]
    fn page_hash_memo_is_shared_and_cleared_by_writes() {
        let mut mem = Memory::new();
        mem.write_u64(0x1000, 1).unwrap();
        let fork = mem.clone();
        assert_eq!(memo(&mem, 1), 0, "no digest yet");
        let hash = mem.pages[&1].data.hash();
        assert_eq!(hash, page_hash(&mem.pages[&1].data));
        assert_eq!(memo(&fork, 1), hash, "the fork shares the memo");
        // The page is shared, so this write copies it; the copy is unhashed
        // and the fork keeps its memo.
        mem.write_u64(0x1008, 2).unwrap();
        assert_eq!((memo(&mem, 1), memo(&fork, 1)), (0, hash));
        // Now the page is private, so this write lands in place.
        assert_ne!(mem.pages[&1].data.hash(), hash);
        mem.write_u8(0x1010, 3).unwrap();
        assert_eq!(memo(&mem, 1), 0, "an in-place write clears the memo too");
    }

    #[test]
    fn mapped_region_reads_zero() {
        let mut mem = Memory::new();
        mem.map_region(0x4000, 0x2000);
        assert_eq!(mem.read_u64(0x4FF8).unwrap(), 0);
        assert_eq!(mem.mapped_pages(), 2);
    }

    #[test]
    fn write_slice_and_read_vec() {
        let mut mem = Memory::new();
        mem.write_slice(0x9000, b"regvault");
        assert_eq!(mem.read_vec(0x9000, 8).unwrap(), b"regvault");
    }

    #[test]
    fn write_slice_spans_pages() {
        let mut mem = Memory::new();
        let data: Vec<u8> = (0..=255).cycle().take(5000).map(|b: u16| b as u8).collect();
        mem.write_slice(0x1F00, &data);
        assert_eq!(mem.read_vec(0x1F00, 5000).unwrap(), data);
        // 0x1F00..0x3288 touches pages 1, 2 and 3.
        assert_eq!(mem.mapped_pages(), 3);
    }

    #[test]
    fn map_region_zero_len_is_noop() {
        let mut mem = Memory::new();
        mem.map_region(0x5000, 0);
        assert_eq!(mem.mapped_pages(), 0);
    }

    #[test]
    fn stores_bump_the_page_generation() {
        let mut mem = Memory::new();
        mem.write_u32(0x2000, 0x13).unwrap();
        let (_, gen_a) = mem.fetch_word(0x2000).unwrap();
        mem.write_u8(0x2FFF, 0xFF).unwrap(); // same page
        let (_, gen_b) = mem.fetch_word(0x2000).unwrap();
        assert!(gen_b > gen_a, "store must advance the page generation");
        mem.write_u8(0x3000, 0xFF).unwrap(); // different page
        let (_, gen_c) = mem.fetch_word(0x2000).unwrap();
        assert_eq!(gen_b, gen_c, "other pages don't disturb the generation");
    }

    #[test]
    fn clone_shares_pages_until_written() {
        let mut mem = Memory::new();
        mem.write_u64(0x1000, 1).unwrap();
        mem.write_u64(0x2000, 2).unwrap();
        let mut fork = mem.clone();
        assert_eq!(mem.shared_pages_with(&fork), 2);

        // Writing in the fork copies exactly the dirtied page...
        fork.write_u64(0x1000, 99).unwrap();
        assert_eq!(mem.shared_pages_with(&fork), 1);
        // ...and the parent is fully isolated from the fork's write.
        assert_eq!(mem.read_u64(0x1000).unwrap(), 1);
        assert_eq!(fork.read_u64(0x1000).unwrap(), 99);
        assert_eq!(fork.read_u64(0x2000).unwrap(), 2);
    }

    /// 4 bytes below the top of the address space: `u8`, `u16` and `u32`
    /// fit below it, and a `u64` runs on into page 0.
    const NEAR_TOP: u64 = u64::MAX - 3;

    #[test]
    fn every_width_at_the_top_of_the_address_space_wraps_to_page_0() {
        let mut mem = Memory::new();
        mem.write_u64(NEAR_TOP, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(mem.read_u64(NEAR_TOP).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(mem.read_u32(0).unwrap(), 0x1122_3344, "high half at 0");
        assert_eq!(mem.mapped_pages(), 2);
        mem.write_u32(NEAR_TOP, 0xAABB_CCDD).unwrap();
        assert_eq!(mem.read_u32(NEAR_TOP).unwrap(), 0xAABB_CCDD);
        mem.write_u16(NEAR_TOP, 0xEEFF).unwrap();
        assert_eq!(mem.read_u16(NEAR_TOP).unwrap(), 0xEEFF);
        mem.write_u8(NEAR_TOP, 0x42).unwrap();
        assert_eq!(mem.read_u8(NEAR_TOP).unwrap(), 0x42);
        assert_eq!(mem.read_u64(NEAR_TOP).unwrap(), 0x1122_3344_AABB_EE42);
        assert_eq!(
            mem.read_array::<8>(NEAR_TOP).unwrap().to_vec(),
            mem.read_vec(NEAR_TOP, 8).unwrap()
        );
        // A read that would run into an unmapped page 0 faults, whatever
        // wraps.
        let mut top_only = Memory::new();
        top_only.write_u32(NEAR_TOP, 1).unwrap();
        assert_eq!(top_only.read_u32(NEAR_TOP).unwrap(), 1);
        assert_eq!(
            top_only.read_u64(NEAR_TOP).unwrap_err(),
            ExceptionCause::LoadAccessFault
        );
    }

    #[test]
    fn slices_and_regions_wrap_past_the_top() {
        let mut mem = Memory::new();
        mem.write_slice(NEAR_TOP, b"regvault");
        assert_eq!(mem.read_vec(NEAR_TOP, 8).unwrap(), b"regvault");
        assert_eq!(mem.read_vec(0, 4).unwrap(), b"ault");
        let mut mapped = Memory::new();
        mapped.map_region(u64::MAX - PAGE_SIZE, 3 * PAGE_SIZE);
        // The last two pages of the address space, then pages 0 and 1.
        assert_eq!(mapped.mapped_pages(), 4);
        assert!(mapped.is_mapped(u64::MAX) && mapped.is_mapped(PAGE_SIZE));
        assert!(!mapped.is_mapped(2 * PAGE_SIZE));
    }

    /// `mem`'s pages as a snapshot holds them.
    fn image(mem: &Memory) -> Vec<(u64, u64, Arc<PageData>)> {
        mem.page_entries()
            .into_iter()
            .map(|(no, gen, data)| (no, gen, Arc::clone(data)))
            .collect()
    }

    #[test]
    fn load_pages_replaces_only_what_differs() {
        let mut base = Memory::new();
        for page in 1..=4 {
            base.write_u64(page * PAGE_SIZE, page).unwrap();
        }
        let saved = image(&base);
        let mut mem = base.clone();
        mem.write_u64(PAGE_SIZE, 99).unwrap(); // new contents
        mem.write_u64(9 * PAGE_SIZE, 9).unwrap(); // a page the image lacks
        let kept = Arc::clone(&mem.pages[&2].data);
        mem.load_pages(&saved);
        assert_eq!(mem.mapped_pages(), 4);
        assert!(!mem.is_mapped(9 * PAGE_SIZE));
        assert_eq!(mem.read_u64(PAGE_SIZE).unwrap(), 1);
        assert_eq!(image(&mem), saved, "contents and generations");
        assert_eq!(mem.shared_pages_with(&base), 4);
        assert!(
            Arc::ptr_eq(&mem.pages[&2].data, &kept),
            "an equal page is kept"
        );
        // A page whose bytes are shared but whose generation moved gets the
        // saved generation back.
        let gen = mem.page_gen(3).unwrap();
        mem.pages.get_mut(&3).unwrap().gen += 5;
        mem.load_pages(&saved);
        assert_eq!(mem.page_gen(3), Some(gen));
        // Loading into an empty memory maps exactly the image.
        let mut empty = Memory::new();
        empty.load_pages(&saved);
        assert_eq!(image(&empty), saved);
    }

    /// A restore keeps the private pages it drops, and the writes after it
    /// copy and map into those allocations instead of new ones.
    #[test]
    fn load_pages_recycles_the_private_pages_it_drops() {
        let mut base = Memory::new();
        base.write_u64(PAGE_SIZE, 1).unwrap();
        let saved = image(&base);
        let mut mem = base.clone();
        mem.write_u64(PAGE_SIZE, 2).unwrap(); // copy-on-write: private
        mem.write_u64(9 * PAGE_SIZE, 9).unwrap(); // mapped since the image
        let dropped = [&mem.pages[&1].data, &mem.pages[&9].data].map(Arc::as_ptr);
        mem.load_pages(&saved);
        assert_eq!(mem.spare.len(), 2, "both private pages are kept");
        assert!(mem.clone().spare.is_empty(), "a clone shares no spares");

        mem.write_u64(PAGE_SIZE + 8, 3).unwrap(); // copies the shared page
        mem.map_region(5 * PAGE_SIZE, 1); // maps a zeroed page
        assert!(mem.spare.is_empty());
        let reused = [&mem.pages[&1].data, &mem.pages[&5].data].map(Arc::as_ptr);
        assert!(reused.iter().all(|page| dropped.contains(page)));
        assert_eq!(
            mem.read_u64(PAGE_SIZE).unwrap(),
            1,
            "the copy holds the image's bytes"
        );
        assert_eq!(mem.read_u64(PAGE_SIZE + 8).unwrap(), 3);
        assert!(
            mem.pages[&5].data.iter().all(|&b| b == 0),
            "a recycled page maps zeroed"
        );
        assert_eq!(
            base.read_u64(PAGE_SIZE).unwrap(),
            1,
            "the image is untouched"
        );
    }

    #[test]
    fn fork_generations_advance_independently() {
        let mut mem = Memory::new();
        mem.write_u64(0x1000, 1).unwrap();
        let gen_before = mem.page_gen(1).unwrap();
        let mut fork = mem.clone();
        fork.write_u64(0x1008, 5).unwrap();
        assert_eq!(mem.page_gen(1).unwrap(), gen_before, "parent gen untouched");
        assert!(fork.page_gen(1).unwrap() > gen_before, "fork gen advances");
    }
}
