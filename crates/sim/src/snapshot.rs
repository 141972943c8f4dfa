//! Versioned, checksummed snapshots of full architectural state.
//!
//! A [`Snapshot`] captures everything needed to resume a [`Machine`]
//! bit-for-bit: GPRs, pc, privilege, CSRs, all eight hardware key
//! registers, CLB entries in recency order, execution statistics, the
//! timer and watchdog, the pending fault schedule plus its applied log,
//! and every mapped memory page. Snapshots serialize to a little-endian
//! binary format with a magic/version header and a trailing FNV-1a-64
//! checksum; [`Snapshot::from_bytes`] rejects truncation, wrong magic,
//! unknown versions, and checksum mismatches before any field is trusted.
//! Every snapshot is a full image: [`Machine::restore`] and
//! [`Machine::fork_from`] need nothing else.
//!
//! The companion [`Machine::arch_digest`] hashes the *architectural*
//! subset of that state — registers, CSRs, keys, CLB, memory contents,
//! cycle/retirement counters — and deliberately excludes microarchitectural
//! bookkeeping (decode-cache hit counters, page write generations) so the
//! optimized and reference datapaths digest identically when they agree.
//! The on-disk checksum is byte-serial FNV-1a. The digest hashes page
//! contents with a word-at-a-time lane hash (`page_hash`), memoised in
//! each shared page until the next write, folds the pages in an
//! order-independent sum, and absorbs every other field in one FNV-1a word
//! step.

use crate::clb::ClbStats;
use crate::cost::CostModel;
use crate::engine::{CryptoEngine, Watchdog};
use crate::fault::{AppliedFault, FaultEffect, FaultKind, FaultPlan, FaultSpec};
use crate::hart::Privilege;
use crate::machine::Machine;
use crate::mem::{PageData, PAGE_BYTES};
use crate::stats::{InsnClass, Stats};
use regvault_metrics::{HistogramData, BUCKETS};
use regvault_qarma::Key;
use std::sync::Arc;

const MAGIC: [u8; 4] = *b"RVSP";
/// Version 6 records an [`Machine::arch_digest`] that absorbs each field in
/// one word step and folds pages in an order-independent sum; the layout
/// is version 5's (which added the simulator's and the kernel's counters
/// to the statistics block). Only the current version decodes: any other
/// is [`SnapshotError::BadVersion`], so a stored digest of an older
/// function is never compared against the current one.
const VERSION: u16 = 6;

/// FNV-1a 64-bit running hash — the snapshot and bundle checksum, and the
/// chain [`Machine::arch_digest`] folds its fields through. Not
/// cryptographic; it guards against corruption and drift, not adversaries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// One FNV-1a step over a whole word: xor, then multiply by the odd
    /// prime. For a fixed state it is a bijection of the word, and for a
    /// fixed word a bijection of the state, so changing any one absorbed
    /// word always changes the result.
    fn write_word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x100_0000_01b3);
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// Independent lanes of [`page_hash`]: four multiply chains in flight at
/// once instead of one chain waiting on its own latency.
const PAGE_LANES: usize = 4;
/// Per-lane start states (distinct, so equal words in different lanes do
/// not cancel).
const LANE_SEEDS: [u64; PAGE_LANES] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];
/// Odd, so multiplying by it is a bijection modulo 2^64.
const LANE_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Brings the well-mixed high product bits back down to the low ones.
const LANE_ROT: u32 = 29;
/// Start state of each page's term in [`Machine::arch_digest`]'s page sum.
const PAGE_NO_SEED: u64 = 0x4528_21E6_38D0_1377;

/// One lane step. For a fixed word it is a bijection of the state, and for
/// a fixed state a bijection of the word: xor, odd multiply and rotate are
/// each invertible.
#[inline(always)]
fn lane_step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(LANE_MUL).rotate_left(LANE_ROT)
}

/// Word-at-a-time hash of one page, over every byte: little-endian `u64`
/// word `i` goes into lane `i % PAGE_LANES`, and the lanes are folded with
/// the same step. Changing any single word changes the result with
/// certainty: that word's lane step yields a different state, every later
/// step and the fold are bijections of it, and the other lanes are
/// untouched. [`PageData::hash`] memoises it per page version.
pub(crate) fn page_hash(bytes: &[u8; PAGE_BYTES]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let (words, _) = bytes.as_chunks::<8>();
    let (blocks, _) = words.as_chunks::<PAGE_LANES>();
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block) {
            *lane = lane_step(*lane, u64::from_le_bytes(*word));
        }
    }
    lanes[1..]
        .iter()
        .fold(lanes[0], |acc, &lane| lane_step(acc, lane))
}

/// Why a snapshot failed to decode or apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the format said it would.
    Truncated,
    /// The leading magic was not `RVSP`.
    BadMagic,
    /// The version field named a format this build does not speak.
    BadVersion(u16),
    /// The trailing checksum did not match the payload.
    BadChecksum {
        /// Checksum recomputed over the payload.
        expected: u64,
        /// Checksum stored in the stream.
        found: u64,
    },
    /// A field held a value outside its domain (bad enum tag, oversized
    /// count).
    BadEncoding(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "snapshot truncated"),
            Self::BadMagic => write!(f, "not a RegVault snapshot (bad magic)"),
            Self::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            Self::BadChecksum { expected, found } => write!(
                f,
                "snapshot checksum mismatch (expected {expected:#018x}, found {found:#018x})"
            ),
            Self::BadEncoding(what) => write!(f, "malformed snapshot field: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A captured machine state (see the module docs for the format).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub(crate) reference_datapath: bool,
    pub(crate) seed: u64,
    pub(crate) regs: [u64; 32],
    pub(crate) pc: u64,
    pub(crate) privilege: Privilege,
    pub(crate) csrs: Vec<(u16, u64)>,
    pub(crate) keys: [(u64, u64); 8],
    pub(crate) epochs: [u64; 8],
    pub(crate) nonce_ctr: u64,
    pub(crate) epoch_rekey: bool,
    pub(crate) clb_capacity: usize,
    pub(crate) clb_entries: Vec<(u8, u64, u64, u64)>,
    pub(crate) clb_stats: ClbStats,
    pub(crate) cost: CostModel,
    pub(crate) stats: Stats,
    pub(crate) timer_interval: Option<u64>,
    pub(crate) next_timer: u64,
    pub(crate) watchdog: Option<(u64, u64)>,
    pub(crate) fault_pending: Vec<FaultSpec>,
    pub(crate) fault_applied: Vec<AppliedFault>,
    pub(crate) digest: u64,
    /// `(page_number, write_generation, contents)`, sorted by page number.
    ///
    /// Contents are reference-counted: capturing a snapshot shares the
    /// machine's pages instead of copying them, and restoring / forking
    /// shares them back. Copy-on-write in [`crate::Memory`] keeps every
    /// holder isolated.
    pub(crate) pages: Vec<(u64, u64, Arc<PageData>)>,
}

impl Snapshot {
    /// The architectural digest of the machine at capture time.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Retired-instruction count at capture time.
    #[must_use]
    pub fn instret(&self) -> u64 {
        self.stats.instret
    }

    /// Number of memory pages carried by this snapshot.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Every aligned 64-bit word whose value differs between `base` and
    /// `self`, as `(address, new_value)` pairs in address order.
    ///
    /// This is the *memory-bus observation primitive* of the ciphertext
    /// side-channel oracle: an attacker who can image memory before and
    /// after a victim interval (cold-boot, DMA, a malicious hypervisor
    /// diffing guest snapshots) sees exactly these words — ciphertext
    /// included — without any simulator instrumentation. Pages still
    /// physically shared with the base (`Arc` pointer equality) are skipped
    /// without touching their bytes, so diffing forked fleets stays cheap.
    ///
    /// Pages present only in `self` are diffed against zeroes (fresh
    /// mappings started zeroed); pages present only in `base` are ignored
    /// (the machine never unmaps).
    #[must_use]
    pub fn changed_words(&self, base: &Snapshot) -> Vec<(u64, u64)> {
        const ZERO_PAGE: [u8; PAGE_BYTES] = [0; PAGE_BYTES];
        let mut out = Vec::new();
        for (no, _gen, data) in &self.pages {
            let base_page: &[u8] = match base.pages.binary_search_by_key(no, |p| p.0) {
                Ok(i) => {
                    if Arc::ptr_eq(&base.pages[i].2, data) {
                        continue;
                    }
                    &base.pages[i].2[..]
                }
                Err(_) => &ZERO_PAGE,
            };
            let page_base = no * PAGE_BYTES as u64;
            for (offset, (new, old)) in data
                .as_chunks::<8>()
                .0
                .iter()
                .zip(base_page.as_chunks::<8>().0)
                .enumerate()
            {
                if new != old {
                    out.push((page_base + (offset * 8) as u64, u64::from_le_bytes(*new)));
                }
            }
        }
        out
    }

    /// Serializes to the versioned, checksummed binary format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024 + self.pages.len() * (PAGE_BYTES + 16));
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, VERSION);
        out.push(u8::from(self.reference_datapath));
        put_u64(&mut out, self.seed);
        for reg in self.regs {
            put_u64(&mut out, reg);
        }
        put_u64(&mut out, self.pc);
        out.push(match self.privilege {
            Privilege::User => 0,
            Privilege::Kernel => 1,
        });
        put_u32(&mut out, self.csrs.len() as u32);
        for &(addr, value) in &self.csrs {
            put_u16(&mut out, addr);
            put_u64(&mut out, value);
        }
        for &(w0, k0) in &self.keys {
            put_u64(&mut out, w0);
            put_u64(&mut out, k0);
        }
        for &epoch in &self.epochs {
            put_u64(&mut out, epoch);
        }
        put_u64(&mut out, self.nonce_ctr);
        out.push(u8::from(self.epoch_rekey));
        put_u32(&mut out, self.clb_capacity as u32);
        put_u64(&mut out, self.clb_stats.hits);
        put_u64(&mut out, self.clb_stats.misses);
        put_u64(&mut out, self.clb_stats.evictions);
        put_u64(&mut out, self.clb_stats.invalidations);
        put_u32(&mut out, self.clb_entries.len() as u32);
        for &(ksel, tweak, pt, ct) in &self.clb_entries {
            out.push(ksel);
            put_u64(&mut out, tweak);
            put_u64(&mut out, pt);
            put_u64(&mut out, ct);
        }
        for value in [
            self.cost.alu,
            self.cost.branch_not_taken,
            self.cost.branch_taken,
            self.cost.load,
            self.cost.store,
            self.cost.mul,
            self.cost.div,
            self.cost.crypto_hit,
            self.cost.crypto_miss,
            self.cost.trap,
        ] {
            put_u64(&mut out, value);
        }
        put_u64(&mut out, self.stats.cycles);
        put_u64(&mut out, self.stats.instret);
        for count in self.stats.class_counts() {
            put_u64(&mut out, count);
        }
        for value in [
            self.stats.encrypts,
            self.stats.decrypts,
            self.stats.integrity_failures,
            self.stats.exceptions,
            self.stats.timer_interrupts,
            self.stats.decode_hits,
            self.stats.decode_misses,
            self.stats.key_invalidations,
            self.stats.epoch_rekeys,
        ] {
            put_u64(&mut out, value);
        }
        for count in self.stats.qarma_ops {
            put_u64(&mut out, count);
        }
        for value in [
            self.stats.sched_syscalls,
            self.stats.sched_context_switches,
            self.stats.sched_preemptions,
            self.stats.last_switch_cycle,
        ] {
            put_u64(&mut out, value);
        }
        put_histogram(&mut out, &self.stats.syscall_cycles);
        put_histogram(&mut out, &self.stats.timeslice_cycles);
        put_opt_u64(&mut out, self.timer_interval);
        put_u64(&mut out, self.next_timer);
        match self.watchdog {
            None => out.push(0),
            Some((budget, consumed)) => {
                out.push(1);
                put_u64(&mut out, budget);
                put_u64(&mut out, consumed);
            }
        }
        put_u32(&mut out, self.fault_pending.len() as u32);
        for spec in &self.fault_pending {
            put_u64(&mut out, spec.instret);
            put_fault_kind(&mut out, spec.kind);
        }
        put_u32(&mut out, self.fault_applied.len() as u32);
        for entry in &self.fault_applied {
            put_u64(&mut out, entry.instret);
            put_fault_kind(&mut out, entry.kind);
            out.push(match entry.effect {
                FaultEffect::Injected => 0,
                FaultEffect::SkippedUnmapped => 1,
                FaultEffect::SkippedNoTarget => 2,
            });
        }
        put_u64(&mut out, self.digest);
        put_u32(&mut out, self.pages.len() as u32);
        for (no, gen, data) in &self.pages {
            put_u64(&mut out, *no);
            put_u64(&mut out, *gen);
            out.extend_from_slice(&data[..]);
        }
        let checksum = fnv64(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Decodes a snapshot, verifying magic, version, and checksum before
    /// trusting any field.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < MAGIC.len() + 2 + 8 {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let Some((payload, tail)) = bytes.split_last_chunk::<8>() else {
            return Err(SnapshotError::Truncated);
        };
        let found = u64::from_le_bytes(*tail);
        let expected = fnv64(payload);
        if expected != found {
            return Err(SnapshotError::BadChecksum { expected, found });
        }
        let mut r = Reader::new(&payload[6..]);
        let reference_datapath = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(SnapshotError::BadEncoding("datapath flag")),
        };
        let seed = r.u64()?;
        let mut regs = [0u64; 32];
        for reg in &mut regs {
            *reg = r.u64()?;
        }
        let pc = r.u64()?;
        let privilege = match r.u8()? {
            0 => Privilege::User,
            1 => Privilege::Kernel,
            _ => return Err(SnapshotError::BadEncoding("privilege")),
        };
        let csr_count = r.u32()? as usize;
        let mut csrs = Vec::with_capacity(csr_count.min(4096));
        for _ in 0..csr_count {
            csrs.push((r.u16()?, r.u64()?));
        }
        let mut keys = [(0u64, 0u64); 8];
        for key in &mut keys {
            *key = (r.u64()?, r.u64()?);
        }
        let mut epochs = [0u64; 8];
        for epoch in &mut epochs {
            *epoch = r.u64()?;
        }
        let nonce_ctr = r.u64()?;
        let epoch_rekey = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(SnapshotError::BadEncoding("epoch-rekey flag")),
        };
        let clb_capacity = r.u32()? as usize;
        let clb_stats = ClbStats {
            hits: r.u64()?,
            misses: r.u64()?,
            evictions: r.u64()?,
            invalidations: r.u64()?,
        };
        let entry_count = r.u32()? as usize;
        let mut clb_entries = Vec::with_capacity(entry_count.min(4096));
        for _ in 0..entry_count {
            clb_entries.push((r.u8()?, r.u64()?, r.u64()?, r.u64()?));
        }
        let cost = CostModel {
            alu: r.u64()?,
            branch_not_taken: r.u64()?,
            branch_taken: r.u64()?,
            load: r.u64()?,
            store: r.u64()?,
            mul: r.u64()?,
            div: r.u64()?,
            crypto_hit: r.u64()?,
            crypto_miss: r.u64()?,
            trap: r.u64()?,
        };
        let mut stats = Stats::default();
        stats.cycles = r.u64()?;
        stats.instret = r.u64()?;
        let mut class_counts = [0u64; InsnClass::ALL.len()];
        for count in &mut class_counts {
            *count = r.u64()?;
        }
        stats.set_class_counts(class_counts);
        for field in [
            &mut stats.encrypts,
            &mut stats.decrypts,
            &mut stats.integrity_failures,
            &mut stats.exceptions,
            &mut stats.timer_interrupts,
            &mut stats.decode_hits,
            &mut stats.decode_misses,
            &mut stats.key_invalidations,
            &mut stats.epoch_rekeys,
        ] {
            *field = r.u64()?;
        }
        for count in &mut stats.qarma_ops {
            *count = r.u64()?;
        }
        for field in [
            &mut stats.sched_syscalls,
            &mut stats.sched_context_switches,
            &mut stats.sched_preemptions,
            &mut stats.last_switch_cycle,
        ] {
            *field = r.u64()?;
        }
        stats.syscall_cycles = r.histogram()?;
        stats.timeslice_cycles = r.histogram()?;
        let timer_interval = r.opt_u64()?;
        let next_timer = r.u64()?;
        let watchdog = match r.u8()? {
            0 => None,
            1 => Some((r.u64()?, r.u64()?)),
            _ => return Err(SnapshotError::BadEncoding("watchdog flag")),
        };
        let pending_count = r.u32()? as usize;
        let mut fault_pending = Vec::with_capacity(pending_count.min(4096));
        for _ in 0..pending_count {
            fault_pending.push(FaultSpec {
                instret: r.u64()?,
                kind: r.fault_kind()?,
            });
        }
        let applied_count = r.u32()? as usize;
        let mut fault_applied = Vec::with_capacity(applied_count.min(4096));
        for _ in 0..applied_count {
            let instret = r.u64()?;
            let kind = r.fault_kind()?;
            let effect = match r.u8()? {
                0 => FaultEffect::Injected,
                1 => FaultEffect::SkippedUnmapped,
                2 => FaultEffect::SkippedNoTarget,
                _ => return Err(SnapshotError::BadEncoding("fault effect")),
            };
            fault_applied.push(AppliedFault {
                instret,
                kind,
                effect,
            });
        }
        let digest = r.u64()?;
        let page_count = r.u32()? as usize;
        let mut pages: Vec<(u64, u64, Arc<PageData>)> = Vec::with_capacity(page_count.min(65536));
        for _ in 0..page_count {
            let no = r.u64()?;
            // Restore and the page diffs binary-search the list.
            if pages.last().is_some_and(|&(prev, _, _)| prev >= no) {
                return Err(SnapshotError::BadEncoding("page order"));
            }
            let gen = r.u64()?;
            // Unhashed: an image read from disk is read in full by its
            // first digest, never trusted through a stored hash.
            pages.push((no, gen, Arc::new(PageData::new(r.array()?))));
        }
        if !r.is_empty() {
            return Err(SnapshotError::BadEncoding("trailing bytes"));
        }
        Ok(Snapshot {
            reference_datapath,
            seed,
            regs,
            pc,
            privilege,
            csrs,
            keys,
            epochs,
            nonce_ctr,
            epoch_rekey,
            clb_capacity,
            clb_entries,
            clb_stats,
            cost,
            stats,
            timer_interval,
            next_timer,
            watchdog,
            fault_pending,
            fault_applied,
            digest,
            pages,
        })
    }
}

fn put_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Sum, raw extrema and every bucket; the count is the bucket total.
fn put_histogram(out: &mut Vec<u8>, histogram: &HistogramData) {
    put_u64(out, histogram.sum());
    put_u64(out, histogram.min().unwrap_or(u64::MAX));
    put_u64(out, histogram.max().unwrap_or(0));
    for &n in histogram.buckets() {
        put_u64(out, n);
    }
}

fn put_opt_u64(out: &mut Vec<u8>, value: Option<u64>) {
    match value {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
    }
}

pub(crate) fn put_fault_kind(out: &mut Vec<u8>, kind: FaultKind) {
    // Uniform encoding: tag byte + three u64 operand slots.
    let (tag, f0, f1, f2) = match kind {
        FaultKind::MemBitFlip { addr, bit } => (0u8, addr, u64::from(bit), 0),
        FaultKind::MemWrite { addr, value } => (1, addr, value, 0),
        FaultKind::MemSwap { a, b } => (2, a, b, 0),
        FaultKind::KeyTamper {
            ksel,
            xor_w0,
            xor_k0,
        } => (3, u64::from(ksel), xor_w0, xor_k0),
        FaultKind::ClbPoison { xor } => (4, xor, 0, 0),
    };
    out.push(tag);
    put_u64(out, f0);
    put_u64(out, f1);
    put_u64(out, f2);
}

/// Bounds-checked little-endian reader over a snapshot payload.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.at == self.bytes.len()
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.at.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    /// The next `N` bytes as a fixed-size array.
    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let rest = self.bytes.get(self.at..).unwrap_or_default();
        let (head, _) = rest
            .split_first_chunk::<N>()
            .ok_or(SnapshotError::Truncated)?;
        self.at += N;
        Ok(*head)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    pub(crate) fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub(crate) fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(SnapshotError::BadEncoding("option flag")),
        }
    }

    fn histogram(&mut self) -> Result<HistogramData, SnapshotError> {
        let (sum, min, max) = (self.u64()?, self.u64()?, self.u64()?);
        let mut buckets = [0u64; BUCKETS];
        for n in &mut buckets {
            *n = self.u64()?;
        }
        HistogramData::from_parts(sum, min, max, buckets)
            .ok_or(SnapshotError::BadEncoding("histogram"))
    }

    pub(crate) fn fault_kind(&mut self) -> Result<FaultKind, SnapshotError> {
        let tag = self.u8()?;
        let f0 = self.u64()?;
        let f1 = self.u64()?;
        let f2 = self.u64()?;
        Ok(match tag {
            0 => FaultKind::MemBitFlip {
                addr: f0,
                bit: (f1 % 64) as u8,
            },
            1 => FaultKind::MemWrite {
                addr: f0,
                value: f1,
            },
            2 => FaultKind::MemSwap { a: f0, b: f1 },
            3 => FaultKind::KeyTamper {
                ksel: (f0 % 256) as u8,
                xor_w0: f1,
                xor_k0: f2,
            },
            4 => FaultKind::ClbPoison { xor: f0 },
            _ => return Err(SnapshotError::BadEncoding("fault kind")),
        })
    }
}

impl Machine {
    /// Captures a snapshot of the machine's state.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let keys = self.engine.key_file().raw_keys();
        let (epochs, nonce_ctr) = self.engine.epoch_state();
        let clb = self.engine.clb();
        Snapshot {
            reference_datapath: self.engine.is_reference(),
            seed: self.seed,
            regs: self.hart.regs(),
            pc: self.hart.pc(),
            privilege: self.hart.privilege(),
            csrs: self.hart.csr_entries().collect(),
            keys: keys.map(|k| (k.w0(), k.k0())),
            epochs,
            nonce_ctr,
            epoch_rekey: self.epoch_rekey,
            clb_capacity: clb.capacity(),
            clb_entries: clb.entries_lru_to_mru(),
            clb_stats: clb.stats(),
            cost: self.cost,
            stats: self.stats.clone(),
            timer_interval: self.timer_interval,
            next_timer: self.next_timer,
            watchdog: self.watchdog.map(|dog| (dog.budget(), dog.consumed())),
            fault_pending: self
                .fault_plan
                .as_ref()
                .map(|plan| plan.specs().to_vec())
                .unwrap_or_default(),
            fault_applied: self
                .fault_plan
                .as_ref()
                .map(|plan| plan.applied().to_vec())
                .unwrap_or_default(),
            digest: self.arch_digest(),
            // Capture shares the machine's pages (Arc clone, no copy); the
            // machine's next write to any page copies it out from under us.
            pages: self
                .mem
                .page_entries()
                .iter()
                .map(|&(no, gen, data)| (no, gen, Arc::clone(data)))
                .collect(),
        }
    }

    /// Restores the machine to `snapshot`'s state, in place, replacing
    /// everything: hart, memory, crypto engine (keys + CLB contents +
    /// datapath flavour), statistics, timer, watchdog, and fault plan. The
    /// result is the machine [`Machine::fork_from`] would build, at the
    /// cost of the state that differs: only pages whose contents or
    /// generation changed since are replaced, and the decode cache and
    /// superblock tier clear only the entries they filled.
    ///
    /// Clearing that derived state is required for correctness. Page write
    /// generations are per-machine counters, so a restored page can carry
    /// a generation under which this machine already decoded, or built a
    /// trace from, other bytes; a kept entry would pass its generation
    /// check and run stale code.
    pub fn restore(&mut self, snapshot: &Snapshot) {
        self.icache.clear();
        self.sb.clear();
        self.sb_boundary = true;
        self.load_state(snapshot);
    }

    /// Loads every snapshotted field of `snapshot`, leaving the
    /// derived state (decode cache, superblock tier) as it is.
    fn load_state(&mut self, snapshot: &Snapshot) {
        self.seed = snapshot.seed;
        self.hart.restore(
            snapshot.regs,
            snapshot.pc,
            snapshot.privilege,
            &snapshot.csrs,
        );
        self.mem.load_pages(&snapshot.pages);
        let rebuild = self.engine.is_reference() != snapshot.reference_datapath
            || self.engine.clb().capacity() != snapshot.clb_capacity;
        if rebuild {
            self.engine = if snapshot.reference_datapath {
                CryptoEngine::new_reference(snapshot.clb_capacity, snapshot.seed)
            } else {
                CryptoEngine::new(snapshot.clb_capacity, snapshot.seed)
            };
        }
        let keys = snapshot.keys.map(|(w0, k0)| Key::new(w0, k0));
        self.engine.key_file_mut().set_raw_keys(keys);
        self.engine
            .set_epoch_state(snapshot.epochs, snapshot.nonce_ctr);
        self.epoch_rekey = snapshot.epoch_rekey;
        self.engine
            .clb_mut()
            .restore_entries(&snapshot.clb_entries, snapshot.clb_stats);
        self.cost = snapshot.cost;
        self.stats = snapshot.stats.clone();
        self.timer_interval = snapshot.timer_interval;
        self.next_timer = snapshot.next_timer;
        self.watchdog = snapshot
            .watchdog
            .map(|(budget, consumed)| Watchdog::from_parts(budget, consumed));
        if snapshot.fault_pending.is_empty() && snapshot.fault_applied.is_empty() {
            self.clear_fault_plan();
        } else {
            self.set_fault_plan(FaultPlan::from_parts(
                snapshot.fault_pending.clone(),
                snapshot.fault_applied.clone(),
            ));
        }
    }

    /// Forks a machine from a warm snapshot, SnapStart-style.
    ///
    /// The fork *shares* every memory page with the snapshot (and with
    /// every other fork of it): materialization cost is O(mapped pages)
    /// pointer clones plus the fixed-size architectural state — no page
    /// contents are copied. The first write a fork makes to any page
    /// copies exactly that page (copy-on-write), so a fleet of N forks
    /// pays only for the pages it actually dirties. `Machine` is `Send`,
    /// so forks can be handed straight to worker threads.
    ///
    /// The decode cache and superblock profile are allocated by
    /// [`Machine::new`], so a fork costs two table fills more than
    /// [`Machine::restore`] of a machine that already exists.
    ///
    /// # Errors
    ///
    /// None today: every snapshot is self-contained. The `Result` leaves
    /// room for a snapshot that cannot be materialized without changing
    /// callers.
    pub fn fork_from(snapshot: &Snapshot) -> Result<Machine, SnapshotError> {
        let mut machine = Machine::new(crate::machine::MachineConfig {
            clb_entries: snapshot.clb_capacity,
            cost: snapshot.cost,
            seed: snapshot.seed,
            timer_interval: snapshot.timer_interval,
            reference_datapath: snapshot.reference_datapath,
            epoch_rekey: snapshot.epoch_rekey,
            ..crate::machine::MachineConfig::default()
        });
        machine.load_state(snapshot);
        Ok(machine)
    }

    /// Number of this machine's pages whose contents have diverged from
    /// (are no longer physically shared with) `base` — the copy-on-write
    /// dirty-page count a fork has accumulated since [`Machine::fork_from`].
    ///
    /// Pages the machine mapped that the base never had count as dirty;
    /// base pages the machine still shares count as clean.
    #[must_use]
    pub fn cow_dirty_pages(&self, base: &Snapshot) -> usize {
        self.mem
            .pages()
            .filter(
                |&(no, _, data)| match base.pages.binary_search_by_key(&no, |p| p.0) {
                    Ok(i) => !Arc::ptr_eq(&base.pages[i].2, data),
                    Err(_) => true,
                },
            )
            .count()
    }

    /// Digest of the machine's architectural state: registers, pc,
    /// privilege, CSRs, key registers, CLB entries and statistics, memory
    /// contents, and the scalar counters of [`Stats`] (cycles, instret,
    /// per-class retirements, crypto/exception/timer counts, key
    /// invalidations, rekeys, per-key QARMA ops and the kernel's scheduler
    /// counts).
    ///
    /// Deliberately excluded: decode-cache hit/miss counters and page write
    /// generations (microarchitectural), the syscall-latency and timeslice
    /// histograms and the timeslice anchor (measurement aids, carried by
    /// snapshots but not hashed), the watchdog and fault plan (harness
    /// state). Two machines that executed the same architectural
    /// history digest identically even when one runs the reference datapath
    /// — which is precisely what the lockstep executor checks.
    ///
    /// Every field but the pages goes through an FNV-1a chain, one word
    /// step per field (a bijection of the field), so any single changed
    /// field changes the digest with certainty. The pages enter as their
    /// count plus a wrapping sum of one term per page, `lane_step(lane_step(
    /// seed, page number), page hash)`, where the page hash is a
    /// word-at-a-time lane hash of the contents. Each term is a bijection
    /// of the page hash and of the page number, so a changed memory word or
    /// a moved page changes the sum with certainty, and the sum needs no
    /// page order. The page hash is memoised in the shared page
    /// (`PageData::hash`): it is computed at most once per page version,
    /// the write that creates a version clears it, and every holder of the
    /// page reuses it. A fresh fork of a digested snapshot therefore costs
    /// O(pages) lookups, and only pages written since, or read from disk by
    /// [`Snapshot::from_bytes`], are read in full.
    #[must_use]
    pub fn arch_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for reg in self.hart.regs() {
            h.write_word(reg);
        }
        h.write_word(self.hart.pc());
        h.write_word(match self.hart.privilege() {
            Privilege::User => 0,
            Privilege::Kernel => 1,
        });
        for (addr, value) in self.hart.csr_entries() {
            h.write_word(u64::from(addr));
            h.write_word(value);
        }
        for key in self.engine.key_file().raw_keys() {
            h.write_word(key.w0());
            h.write_word(key.k0());
        }
        // Rekey epochs are architectural: they change which effective tweak
        // every subsequent cre/crd uses, so two machines can only claim the
        // same history if their epoch state agrees. Always-zero on machines
        // without the mitigation, so digests stay comparable there.
        let (epochs, nonce_ctr) = self.engine.epoch_state();
        for epoch in epochs {
            h.write_word(epoch);
        }
        h.write_word(nonce_ctr);
        for (ksel, tweak, pt, ct) in self.engine.clb().entries_lru_to_mru() {
            h.write_word(u64::from(ksel));
            h.write_word(tweak);
            h.write_word(pt);
            h.write_word(ct);
        }
        let clb_stats = self.engine.clb().stats();
        for value in [
            clb_stats.hits,
            clb_stats.misses,
            clb_stats.evictions,
            clb_stats.invalidations,
        ] {
            h.write_word(value);
        }
        // No page is skipped, shared or not: each contributes its memoised
        // hash, recomputed only after a write or a decode from bytes.
        let (count, sum) = self
            .mem
            .pages()
            .fold((0u64, 0u64), |(count, sum), (no, _, data)| {
                let term = lane_step(lane_step(PAGE_NO_SEED, no), data.hash());
                (count + 1, sum.wrapping_add(term))
            });
        h.write_word(count);
        h.write_word(sum);
        for count in self.stats.class_counts() {
            h.write_word(count);
        }
        for (_, count) in self.stats.arch_counts() {
            h.write_word(count);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::mem::Memory;
    use regvault_isa::KeyReg;

    fn busy_machine() -> Machine {
        let mut machine = Machine::new(MachineConfig::default());
        let program = regvault_isa::asm::assemble(
            "li   t1, 0x9000
             li   s0, 0x9000
             li   a0, 0xbeef
             creak a0, a0[3:0], t1
             sd   a0, 0(s0)
             ld   a1, 0(s0)
             crdak a1, a1, t1, [3:0]
             ebreak",
        )
        .unwrap();
        machine.load_program(0x8000_0000, program.bytes());
        machine.write_key_register(KeyReg::A, 0xAA, 0xBB).unwrap();
        machine.hart_mut().set_pc(0x8000_0000);
        machine.run_until_break(1_000).unwrap();
        machine
    }

    #[test]
    fn snapshot_bytes_round_trip() {
        let machine = busy_machine();
        let snap = machine.snapshot();
        let decoded = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(snap, decoded);
    }

    #[test]
    fn restore_reproduces_arch_digest() {
        let machine = busy_machine();
        let snap = machine.snapshot();
        let restored = Machine::fork_from(&snap).unwrap();
        assert_eq!(machine.arch_digest(), restored.arch_digest());
        assert_eq!(machine.stats(), restored.stats());
    }

    #[test]
    fn corrupted_byte_is_rejected() {
        let bytes = busy_machine().snapshot().to_bytes();
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::BadChecksum { .. })
        ));
    }

    #[test]
    fn truncation_magic_and_version_are_rejected() {
        let bytes = busy_machine().snapshot().to_bytes();
        // A cut tail shifts the checksum window: rejected as corruption.
        assert!(matches!(
            Snapshot::from_bytes(&bytes[..bytes.len() - 3]),
            Err(SnapshotError::BadChecksum { .. })
        ));
        assert_eq!(
            Snapshot::from_bytes(&bytes[..10]),
            Err(SnapshotError::Truncated)
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            Snapshot::from_bytes(&bad_magic),
            Err(SnapshotError::BadMagic)
        );
        let mut bad_version = bytes.clone();
        bad_version[4] = 0x7F;
        assert!(matches!(
            Snapshot::from_bytes(&bad_version),
            Err(SnapshotError::BadVersion(_))
        ));
        for version in [0, VERSION - 1, VERSION + 1] {
            assert_eq!(
                Snapshot::from_bytes(&relabel(&bytes[..bytes.len() - 8], version)),
                Err(SnapshotError::BadVersion(version))
            );
        }
    }

    /// Both formats whose digests came from the previous `arch_digest`: a
    /// version-5 snapshot and a version-2 bundle. Each is refused rather
    /// than compared against a digest of the current function.
    #[test]
    fn previous_digest_formats_are_refused() {
        let snap = busy_machine().snapshot();
        let bytes = snap.to_bytes();
        assert_eq!(
            Snapshot::from_bytes(&relabel(&bytes[..bytes.len() - 8], 5)),
            Err(SnapshotError::BadVersion(5))
        );
        let bundle = crate::replay::ReproBundle {
            meta: vec![],
            snapshot: Some(snap.clone()),
            log: crate::replay::EventLog::new(1, None),
            expected_digest: snap.digest(),
            steps: 0,
            outcome: "ok".into(),
        };
        let bytes = bundle.to_bytes();
        assert_eq!(
            crate::replay::ReproBundle::from_bytes(&relabel(&bytes[..bytes.len() - 8], 2)),
            Err(SnapshotError::BadVersion(2))
        );
        assert_eq!(crate::replay::ReproBundle::from_bytes(&bytes), Ok(bundle));
    }

    /// Restore and the page diffs binary-search the page list, so a
    /// stream whose pages are out of order or repeated does not decode.
    #[test]
    fn unordered_pages_are_refused() {
        let mut machine = busy_machine();
        machine.memory_mut().write_u64(0x4_0000, 1).unwrap();
        let snap = machine.snapshot();
        assert!(snap.page_count() >= 2);
        let mut swapped = snap.clone();
        swapped.pages.swap(0, 1);
        let mut repeated = snap.clone();
        repeated.pages[1].0 = repeated.pages[0].0;
        for bad in [swapped, repeated] {
            assert_eq!(
                Snapshot::from_bytes(&bad.to_bytes()),
                Err(SnapshotError::BadEncoding("page order"))
            );
        }
    }

    #[test]
    fn epoch_state_round_trips_through_snapshots() {
        let mut machine = Machine::new(MachineConfig {
            epoch_rekey: true,
            ..MachineConfig::default()
        });
        machine.write_key_register(KeyReg::C, 0x1, 0x2).unwrap();
        let e1 = machine.issue_key_epoch(KeyReg::C);
        machine.issue_key_epoch(KeyReg::D);
        machine.set_key_epoch(KeyReg::C, e1);
        let snap = machine.snapshot();
        let decoded = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(snap, decoded);
        let restored = Machine::fork_from(&decoded).unwrap();
        assert!(restored.epoch_rekey());
        assert_eq!(
            restored.engine().epoch(KeyReg::C),
            machine.engine().epoch(KeyReg::C)
        );
        assert_eq!(machine.arch_digest(), restored.arch_digest());
        // Epochs are architectural: advancing one changes the digest.
        let before = machine.arch_digest();
        machine.issue_key_epoch(KeyReg::C);
        assert_ne!(machine.arch_digest(), before);
    }

    #[test]
    fn changed_words_sees_exactly_the_stores() {
        let mut machine = busy_machine();
        let base = machine.snapshot();
        machine.memory_mut().write_u64(0x9100, 0xAAAA).unwrap();
        machine.memory_mut().write_u64(0xA008, 0xBBBB).unwrap();
        let after = machine.snapshot();
        let diff = after.changed_words(&base);
        assert!(diff.contains(&(0x9100, 0xAAAA)));
        assert!(diff.contains(&(0xA008, 0xBBBB)));
        // Nothing else on the 0x9000 page changed.
        assert_eq!(
            diff.iter()
                .filter(|(a, _)| (0x9000..0xA000).contains(a))
                .count(),
            1
        );
        assert!(after.changed_words(&after).is_empty());
    }

    /// `payload` (a stream minus its checksum) relabelled as format
    /// `version` and re-checksummed, so only the version check can refuse
    /// it.
    fn relabel(payload: &[u8], version: u16) -> Vec<u8> {
        let mut out = payload.to_vec();
        out[4..6].copy_from_slice(&version.to_le_bytes());
        let checksum = fnv64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    #[test]
    fn fork_of_a_damaged_image_fails_the_digest_gate() {
        let snap = busy_machine().snapshot();
        assert_eq!(
            Machine::fork_from(&snap).unwrap().arch_digest(),
            snap.digest()
        );
        let mut damaged = snap.clone();
        Arc::make_mut(&mut damaged.pages[0].2).bytes_mut()[17] ^= 0x04;
        // The recorded digest is kept: only the gate can notice.
        assert_eq!(damaged.digest(), snap.digest());
        assert_ne!(
            Machine::fork_from(&damaged).unwrap().arch_digest(),
            snap.digest()
        );
        // The shared original is untouched by the damaged copy.
        assert_eq!(
            Machine::fork_from(&snap).unwrap().arch_digest(),
            snap.digest()
        );
    }

    /// A snapshot's CLB capacity is an untrusted `u32`. A checksummed
    /// stream claiming `u32::MAX` entries decodes, forks, and runs a `cre`:
    /// the buffer grows by use and reserves nothing by capacity.
    #[test]
    fn untrusted_clb_capacity_reserves_nothing() {
        let mut snap = busy_machine().snapshot();
        let occupancy = snap.clb_entries.len();
        snap.clb_capacity = u32::MAX as usize;
        // `to_bytes` re-checksums the stream, so only the field is odd.
        let decoded = Snapshot::from_bytes(&snap.to_bytes()).expect("checksummed stream decodes");
        let mut fork = Machine::fork_from(&decoded).unwrap();
        assert_eq!(fork.engine().clb().capacity(), u32::MAX as usize);
        let program = regvault_isa::asm::assemble(
            "li   t1, 0x9008
             li   a0, 0x1234
             creak a0, a0[3:0], t1
             ebreak",
        )
        .unwrap();
        fork.load_program(0x8000_1000, program.bytes());
        fork.hart_mut().set_pc(0x8000_1000);
        fork.run_until_break(100).unwrap();
        assert_eq!(fork.engine().clb().occupancy(), occupancy + 1);
    }

    #[test]
    fn forks_of_one_snapshot_digest_equal() {
        let snap = busy_machine().snapshot();
        let a = Machine::fork_from(&snap).unwrap();
        let b = Machine::fork_from(&snap).unwrap();
        assert_eq!(a.arch_digest(), b.arch_digest());
        assert_eq!(a.arch_digest(), snap.digest());
    }

    const PAGE_ADDR: u64 = 0x9000;

    /// A machine holding one page of distinct, nonzero words.
    fn one_page_machine() -> Machine {
        let mut machine = Machine::new(MachineConfig::default());
        machine
            .memory_mut()
            .map_region(PAGE_ADDR, PAGE_BYTES as u64);
        for i in 0..(PAGE_BYTES / 8) as u64 {
            let word = (i + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1;
            machine
                .memory_mut()
                .write_u64(PAGE_ADDR + 8 * i, word)
                .unwrap();
        }
        machine
    }

    #[test]
    fn every_single_bit_flip_of_a_page_changes_the_digest() {
        let mut machine = one_page_machine();
        let base = machine.arch_digest();
        for offset in 0..PAGE_BYTES as u64 {
            let addr = PAGE_ADDR + offset;
            let byte = machine.memory().read_u8(addr).unwrap();
            for bit in 0..8 {
                machine
                    .memory_mut()
                    .write_u8(addr, byte ^ (1 << bit))
                    .unwrap();
                assert_ne!(
                    machine.arch_digest(),
                    base,
                    "flip of bit {bit} at +{offset:#x}"
                );
            }
            machine.memory_mut().write_u8(addr, byte).unwrap();
        }
        assert_eq!(machine.arch_digest(), base);
    }

    #[test]
    fn swapping_two_unequal_words_changes_the_digest() {
        let mut machine = one_page_machine();
        let base = machine.arch_digest();
        // Same block, different lanes; same lane, adjacent blocks; far
        // apart in the same lane and in different lanes.
        for (i, j) in [
            (0, 1),
            (2, 3),
            (0, 4),
            (5, 9),
            (0, 508),
            (1, 511),
            (255, 256),
        ] {
            let (a, b) = (PAGE_ADDR + 8 * i, PAGE_ADDR + 8 * j);
            let (wa, wb) = (
                machine.memory().read_u64(a).unwrap(),
                machine.memory().read_u64(b).unwrap(),
            );
            assert_ne!(wa, wb);
            machine.memory_mut().write_u64(a, wb).unwrap();
            machine.memory_mut().write_u64(b, wa).unwrap();
            assert_ne!(machine.arch_digest(), base, "swap of words {i} and {j}");
            machine.memory_mut().write_u64(a, wa).unwrap();
            machine.memory_mut().write_u64(b, wb).unwrap();
        }
        assert_eq!(machine.arch_digest(), base);
    }

    #[test]
    fn moving_a_page_changes_the_digest() {
        let snap = one_page_machine().snapshot();
        let mut moved = snap.clone();
        moved.pages[0].0 += 1;
        let machine = Machine::fork_from(&moved).unwrap();
        assert!(machine.memory().is_mapped(PAGE_ADDR + PAGE_BYTES as u64));
        assert!(!machine.memory().is_mapped(PAGE_ADDR));
        assert_ne!(machine.arch_digest(), snap.digest());
    }

    /// The page sum needs no order: two machines that map and fill the
    /// same pages in opposite orders digest equal, although their page
    /// tables were built differently, and each digests as its own image.
    #[test]
    fn mapping_order_does_not_change_the_digest() {
        let pages: Vec<u64> = (0..40u64).map(|i| 0x1_0000 + i * 0x3000).collect();
        let fill = |order: &mut dyn Iterator<Item = &u64>| {
            let mut machine = Machine::new(MachineConfig::default());
            for &addr in order {
                machine.memory_mut().write_u64(addr, addr ^ 0x5A5A).unwrap();
            }
            machine
        };
        let forward = fill(&mut pages.iter());
        let backward = fill(&mut pages.iter().rev());
        assert_eq!(forward.arch_digest(), backward.arch_digest());
        assert_eq!(forward.snapshot(), backward.snapshot());
        // A machine missing one of the pages, or holding one more, differs.
        let fewer = fill(&mut pages[1..].iter());
        assert_ne!(fewer.arch_digest(), forward.arch_digest());
        let mut more = fill(&mut pages.iter());
        more.memory_mut().map_region(0x100_0000, 1);
        assert_ne!(more.arch_digest(), forward.arch_digest());
    }

    /// `restore` must clear the decode cache and the superblock tier.
    /// Generations are per-machine counters: machine A rewrites code page P
    /// from generation g to g + 1 and runs it hot, while a fork of A's
    /// earlier image writes other code to P, also reaching g + 1, and is
    /// captured as S1. A decode or a trace A kept would pass its generation
    /// check after `A.restore(&S1)` and run A's code instead of S1's. A
    /// kept warming profile is caught too: A's chain ended at its `ebreak`,
    /// which cannot start a trace, where S1's code has a buildable tail, so
    /// a restored A warmed like a fork must build the same traces.
    #[test]
    fn restore_clears_derived_state_that_a_reused_generation_would_revive() {
        const TEXT: u64 = 0x8000_0000;
        // Both programs set every register they use, and differ in every
        // word one of them executes, so any one stale decode or trace shows.
        let code_a = regvault_isa::asm::assemble(
            "li   s2, 24
             li   a0, 0
loop:        addi a0, a0, 3
             xori a0, a0, 0x55
             addi s2, s2, -1
             bnez s2, loop
             ebreak",
        )
        .unwrap();
        let code_b = regvault_isa::asm::assemble(
            "li   s2, 40
             li   a0, 7
loop:        xori a0, a0, 0x2a
             addi a0, a0, 5
             addi s2, s2, -2
             blt  zero, s2, loop
             addi a0, a0, 1
             xori a0, a0, 0x11
             addi a0, a0, 2
             ebreak",
        )
        .unwrap();
        let mut base = Machine::new(MachineConfig::default());
        base.load_program(TEXT, &[0x13; 64]);
        base.hart_mut().set_pc(TEXT);
        let s0 = base.snapshot();
        let page = Memory::page_number(TEXT);
        let g = base.mem.page_gen(page).unwrap();

        let mut a = Machine::fork_from(&s0).unwrap();
        a.load_program(TEXT, code_a.bytes());
        assert_eq!(a.mem.page_gen(page), Some(g + 1));
        // Run A's code hot: blocks at the entry and at the loop head.
        for _ in 0..20 {
            a.hart_mut().set_pc(TEXT);
            a.run_until_break(10_000).unwrap();
        }
        assert!(
            a.superblock_stats().cached >= 2,
            "{:?}",
            a.superblock_stats()
        );

        let mut b = Machine::fork_from(&s0).unwrap();
        b.load_program(TEXT, code_b.bytes());
        let s1 = b.snapshot();
        assert_eq!(b.mem.page_gen(page), Some(g + 1), "the same generation");

        a.restore(&s1);
        assert_eq!(
            a.superblock_stats(),
            crate::superblock::SuperblockStats::default()
        );
        let mut warmed = [a.clone(), Machine::fork_from(&s1).unwrap()];
        for machine in &mut warmed {
            for _ in 0..20 {
                machine.hart_mut().set_pc(TEXT);
                machine.run_until_break(10_000).unwrap();
            }
        }
        let [restored, forked] = warmed;
        assert_eq!(restored.superblock_stats(), forked.superblock_stats());
        assert_eq!(restored.arch_digest(), forked.arch_digest());
        let mut fresh = Machine::fork_from(&s1).unwrap();
        let outcome = crate::lockstep::run_lockstep(&mut a, &mut fresh, 100_000, 64);
        assert!(outcome.agreed(), "divergence: {:?}", outcome.divergence);
    }

    #[test]
    fn every_architectural_field_changes_the_digest() {
        let mut machine = busy_machine();
        for (addr, value) in [(0x100, 7), (0x141, 0x8000_0000), (0x180, 3)] {
            machine.hart_mut().set_csr(addr, value);
        }
        for ksel in 0..4u8 {
            machine
                .engine
                .clb_mut()
                .insert(ksel, 0x100 + u64::from(ksel), 0x200, 0x300);
        }
        let base = machine.arch_digest();
        let check = |what: &str, mutate: &dyn Fn(&mut Machine)| {
            let mut changed = machine.clone();
            mutate(&mut changed);
            assert_ne!(changed.arch_digest(), base, "{what} is not digested");
        };
        let set_hart = |m: &mut Machine, regs: [u64; 32], pc, privilege, csrs: &[(u16, u64)]| {
            m.hart.restore(regs, pc, privilege, csrs);
        };
        let regs = machine.hart.regs();
        let pc = machine.hart.pc();
        let privilege = machine.hart.privilege();
        let csrs: Vec<(u16, u64)> = machine.hart.csr_entries().collect();
        assert_eq!(csrs.len(), 3);
        for i in 1..32 {
            check(&format!("x{i}"), &|m| {
                let mut changed = regs;
                changed[i] ^= 1;
                set_hart(m, changed, pc, privilege, &csrs);
            });
        }
        check("pc", &|m| set_hart(m, regs, pc + 4, privilege, &csrs));
        check("privilege", &|m| {
            let other = match privilege {
                Privilege::User => Privilege::Kernel,
                Privilege::Kernel => Privilege::User,
            };
            set_hart(m, regs, pc, other, &csrs);
        });
        for i in 0..csrs.len() {
            check(&format!("csr value {i}"), &|m| {
                let mut changed = csrs.clone();
                changed[i].1 ^= 1;
                set_hart(m, regs, pc, privilege, &changed);
            });
            check(&format!("csr address {i}"), &|m| {
                let mut changed = csrs.clone();
                changed[i].0 += 1;
                set_hart(m, regs, pc, privilege, &changed);
            });
        }
        let keys = machine.engine.key_file().raw_keys();
        for i in 0..8 {
            for half in 0..2 {
                check(&format!("key {i} half {half}"), &|m| {
                    let mut changed = keys;
                    let (w0, k0) = (keys[i].w0(), keys[i].k0());
                    changed[i] = if half == 0 {
                        Key::new(w0 ^ 1, k0)
                    } else {
                        Key::new(w0, k0 ^ 1)
                    };
                    m.engine.key_file_mut().set_raw_keys(changed);
                });
            }
        }
        let (epochs, nonce_ctr) = machine.engine.epoch_state();
        for i in 0..8 {
            check(&format!("epoch {i}"), &|m| {
                let mut changed = epochs;
                changed[i] += 1;
                m.engine.set_epoch_state(changed, nonce_ctr);
            });
        }
        check("nonce counter", &|m| {
            m.engine.set_epoch_state(epochs, nonce_ctr + 1);
        });
        let entries = machine.engine.clb().entries_lru_to_mru();
        let clb_stats = machine.engine.clb().stats();
        assert!(entries.len() >= 4);
        for i in 0..entries.len() {
            for field in 0..4 {
                check(&format!("clb entry {i} field {field}"), &|m| {
                    let mut changed = entries.clone();
                    let e = &mut changed[i];
                    match field {
                        0 => e.0 ^= 1,
                        1 => e.1 ^= 1,
                        2 => e.2 ^= 1,
                        _ => e.3 ^= 1,
                    }
                    m.engine.clb_mut().restore_entries(&changed, clb_stats);
                });
            }
        }
        for field in 0..4 {
            check(&format!("clb stat {field}"), &|m| {
                let mut changed = clb_stats;
                match field {
                    0 => changed.hits += 1,
                    1 => changed.misses += 1,
                    2 => changed.evictions += 1,
                    _ => changed.invalidations += 1,
                }
                m.engine.clb_mut().restore_entries(&entries, changed);
            });
        }
        let counts = machine.stats.class_counts();
        for i in 0..counts.len() {
            check(&format!("class count {i}"), &|m| {
                let mut changed = counts;
                changed[i] += 1;
                m.stats.set_class_counts(changed);
            });
        }
        for field in 0..7 {
            check(&format!("stats counter {field}"), &|m| {
                let s = &mut m.stats;
                let counters = [
                    &mut s.cycles,
                    &mut s.instret,
                    &mut s.encrypts,
                    &mut s.decrypts,
                    &mut s.integrity_failures,
                    &mut s.exceptions,
                    &mut s.timer_interrupts,
                ];
                *counters[field] += 1;
            });
        }
    }
}
