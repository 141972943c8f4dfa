//! Record/replay: the event log of nondeterministic inputs, self-contained
//! repro bundles, and the delta-debugging shrinker.
//!
//! The simulator itself is deterministic; every source of "nondeterminism"
//! in a run enters through a narrow funnel — the construction seed, the
//! timer configuration, and injected faults. An [`EventLog`] captures that
//! funnel: while [`crate::Machine::start_recording`] is active, every fault
//! the machine applies (immediate [`crate::Machine::inject_fault`] calls
//! and plan-scheduled faults alike) is appended with its
//! retired-instruction timestamp. Re-running the same program from the same
//! seed and re-applying the log reproduces the run bit-for-bit — verified
//! by comparing [`crate::Machine::arch_digest`].
//!
//! A [`ReproBundle`] packages everything a failure needs to travel: free-form
//! metadata, an optional starting [`Snapshot`], the event log, the expected
//! final digest, and the observed outcome. Bundles serialize with the same
//! magic/version/FNV-checksum discipline as snapshots.
//!
//! [`shrink_events`] is a classic ddmin minimizer over the event list:
//! given a predicate that replays a candidate log and reports whether the
//! failure still reproduces, it returns a 1-minimal sublist (removing any
//! single remaining event makes the failure vanish).

use crate::fault::{FaultKind, FaultPlan, FaultSpec};
use crate::snapshot::{fnv64, put_fault_kind, Reader, Snapshot, SnapshotError};

const MAGIC: [u8; 4] = *b"RVRB";
/// Version 2: `expected_digest` is an [`crate::Machine::arch_digest`] over
/// lane-hashed pages (snapshot format version 3 onward). A version-1 bundle is
/// refused with [`SnapshotError::BadVersion`] rather than replayed into a
/// false "diverged" against a digest of the old function.
const VERSION: u16 = 2;

/// One recorded nondeterministic input: a fault that fired at a specific
/// retired-instruction count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoggedEvent {
    /// Retired-instruction count when the fault was applied.
    pub instret: u64,
    /// The fault.
    pub kind: FaultKind,
}

/// Append-only log of every nondeterministic input to a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLog {
    /// Machine construction seed (fixes the master key).
    pub seed: u64,
    /// Timer configuration of the recorded machine.
    pub timer_interval: Option<u64>,
    /// Faults in application order.
    pub events: Vec<LoggedEvent>,
}

impl EventLog {
    /// An empty log for a machine built with `seed` and `timer_interval`.
    #[must_use]
    pub fn new(seed: u64, timer_interval: Option<u64>) -> Self {
        Self {
            seed,
            timer_interval,
            events: Vec::new(),
        }
    }

    /// Appends one event.
    pub fn push(&mut self, instret: u64, kind: FaultKind) {
        self.events.push(LoggedEvent { instret, kind });
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Converts the log into a [`FaultPlan`] that re-applies every event at
    /// its recorded retired-instruction count.
    #[must_use]
    pub fn to_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for event in &self.events {
            plan.push(FaultSpec {
                instret: event.instret,
                kind: event.kind,
            });
        }
        plan
    }

    /// A copy of this log carrying `events` instead of the originals (the
    /// shrinker's candidate constructor).
    #[must_use]
    pub fn with_events(&self, events: Vec<LoggedEvent>) -> Self {
        Self {
            seed: self.seed,
            timer_interval: self.timer_interval,
            events,
        }
    }
}

/// A self-contained reproduction of one failing run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproBundle {
    /// Free-form `(key, value)` pairs describing provenance (campaign
    /// class, config, seed, verdict, ...).
    pub meta: Vec<(String, String)>,
    /// Starting state; `None` means "a fresh machine built from the log's
    /// seed" (the embedder re-creates program/kernel setup itself).
    pub snapshot: Option<Snapshot>,
    /// The nondeterministic inputs.
    pub log: EventLog,
    /// Architectural digest the replayed run must reach.
    pub expected_digest: u64,
    /// Step bound the original run used.
    pub steps: u64,
    /// Human-readable outcome label (e.g. a campaign verdict).
    pub outcome: String,
}

impl ReproBundle {
    /// Looks up a metadata value by key.
    #[must_use]
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Serializes the bundle (magic `RVRB`, version, FNV-checksummed).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.meta.len() as u32).to_le_bytes());
        for (key, value) in &self.meta {
            put_str(&mut out, key);
            put_str(&mut out, value);
        }
        put_str(&mut out, &self.outcome);
        out.extend_from_slice(&self.steps.to_le_bytes());
        out.extend_from_slice(&self.expected_digest.to_le_bytes());
        out.extend_from_slice(&self.log.seed.to_le_bytes());
        match self.log.timer_interval {
            None => out.push(0),
            Some(t) => {
                out.push(1);
                out.extend_from_slice(&t.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.log.events.len() as u32).to_le_bytes());
        for event in &self.log.events {
            out.extend_from_slice(&event.instret.to_le_bytes());
            put_fault_kind(&mut out, event.kind);
        }
        match &self.snapshot {
            None => out.push(0),
            Some(snap) => {
                out.push(1);
                let bytes = snap.to_bytes();
                out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
                out.extend_from_slice(&bytes);
            }
        }
        let checksum = fnv64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes a bundle, verifying magic, version, and checksum first.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`] (bundles share the snapshot error domain).
    pub fn from_bytes(bytes: &[u8]) -> Result<ReproBundle, SnapshotError> {
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
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let found = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        let expected = fnv64(payload);
        if expected != found {
            return Err(SnapshotError::BadChecksum { expected, found });
        }
        let mut r = Reader::new(&payload[6..]);
        let meta_count = r.u32()? as usize;
        let mut meta = Vec::with_capacity(meta_count.min(256));
        for _ in 0..meta_count {
            meta.push((read_str(&mut r)?, read_str(&mut r)?));
        }
        let outcome = read_str(&mut r)?;
        let steps = r.u64()?;
        let expected_digest = r.u64()?;
        let seed = r.u64()?;
        let timer_interval = r.opt_u64()?;
        let event_count = r.u32()? as usize;
        let mut events = Vec::with_capacity(event_count.min(65536));
        for _ in 0..event_count {
            let instret = r.u64()?;
            events.push(LoggedEvent {
                instret,
                kind: r.fault_kind()?,
            });
        }
        let snapshot = match r.u8()? {
            0 => None,
            1 => {
                let len = r.u64()? as usize;
                Some(Snapshot::from_bytes(r.bytes(len)?)?)
            }
            _ => return Err(SnapshotError::BadEncoding("snapshot flag")),
        };
        if !r.is_empty() {
            return Err(SnapshotError::BadEncoding("trailing bytes"));
        }
        Ok(ReproBundle {
            meta,
            snapshot,
            log: EventLog {
                seed,
                timer_interval,
                events,
            },
            expected_digest,
            steps,
            outcome,
        })
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn read_str(r: &mut Reader<'_>) -> Result<String, SnapshotError> {
    let len = r.u32()? as usize;
    String::from_utf8(r.bytes(len)?.to_vec())
        .map_err(|_| SnapshotError::BadEncoding("utf-8 string"))
}

/// Minimizes `events` with the ddmin delta-debugging algorithm: `fails`
/// replays a candidate event list and returns `true` when the failure still
/// reproduces. The result is 1-minimal — removing any single remaining
/// event makes `fails` return `false`.
///
/// The caller's predicate is the expensive part; ddmin calls it
/// O(n²) times in the worst case but typically O(n log n).
pub fn shrink_events<F>(events: &[LoggedEvent], mut fails: F) -> Vec<LoggedEvent>
where
    F: FnMut(&[LoggedEvent]) -> bool,
{
    let mut current: Vec<LoggedEvent> = events.to_vec();
    if current.is_empty() || !fails(&current) {
        return current;
    }
    // An empty log that still fails is already minimal.
    if fails(&[]) {
        return Vec::new();
    }
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;

        // Try each chunk alone, then each complement.
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let subset: Vec<LoggedEvent> = current[start..end].to_vec();
            if subset.len() < current.len() && fails(&subset) {
                current = subset;
                granularity = 2;
                reduced = true;
                break;
            }
            let complement: Vec<LoggedEvent> = current[..start]
                .iter()
                .chain(&current[end..])
                .copied()
                .collect();
            if !complement.is_empty() && complement.len() < current.len() && fails(&complement) {
                current = complement;
                granularity = (granularity - 1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if reduced {
            continue;
        }
        if granularity >= current.len() {
            break;
        }
        granularity = (granularity * 2).min(current.len());
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(i: u64) -> LoggedEvent {
        LoggedEvent {
            instret: i,
            kind: FaultKind::MemWrite {
                addr: 0x9000 + i * 8,
                value: i,
            },
        }
    }

    #[test]
    fn bundle_round_trips() {
        let mut log = EventLog::new(42, Some(1000));
        log.push(5, FaultKind::ClbPoison { xor: 0xFF });
        log.push(
            9,
            FaultKind::KeyTamper {
                ksel: 3,
                xor_w0: 1,
                xor_k0: 2,
            },
        );
        let bundle = ReproBundle {
            meta: vec![("class".into(), "mem_bit_flip".into())],
            snapshot: None,
            log,
            expected_digest: 0xDEAD_BEEF,
            steps: 10_000,
            outcome: "Garbled".into(),
        };
        let decoded = ReproBundle::from_bytes(&bundle.to_bytes()).unwrap();
        assert_eq!(bundle, decoded);
        assert_eq!(decoded.meta_value("class"), Some("mem_bit_flip"));
    }

    #[test]
    fn corrupted_bundle_is_rejected() {
        let bundle = ReproBundle {
            meta: vec![],
            snapshot: None,
            log: EventLog::new(1, None),
            expected_digest: 0,
            steps: 0,
            outcome: "ok".into(),
        };
        let mut bytes = bundle.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        assert!(matches!(
            ReproBundle::from_bytes(&bytes),
            Err(SnapshotError::BadChecksum { .. })
        ));
    }

    #[test]
    fn version_1_bundle_is_refused() {
        let bundle = ReproBundle {
            meta: vec![],
            snapshot: None,
            log: EventLog::new(1, None),
            expected_digest: 0x0123_4567,
            steps: 0,
            outcome: "ok".into(),
        };
        let bytes = bundle.to_bytes();
        // A version-1 writer produced this layout; only the label and the
        // checksum differ.
        let mut v1 = bytes[..bytes.len() - 8].to_vec();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        let checksum = fnv64(&v1);
        v1.extend_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            ReproBundle::from_bytes(&v1),
            Err(SnapshotError::BadVersion(1))
        );
        assert_eq!(ReproBundle::from_bytes(&bytes), Ok(bundle));
    }

    #[test]
    fn bundle_embedding_a_previous_format_snapshot_is_refused() {
        let snapshot = crate::Machine::new(crate::MachineConfig::default()).snapshot();
        let snapshot_len = snapshot.to_bytes().len();
        let bundle = ReproBundle {
            meta: vec![],
            snapshot: Some(snapshot),
            log: EventLog::new(1, None),
            expected_digest: 0,
            steps: 0,
            outcome: "ok".into(),
        };
        let bytes = bundle.to_bytes();
        // The embedded snapshot ends right before the bundle checksum.
        let mut old = bytes[..bytes.len() - 8].to_vec();
        let version_at = old.len() - snapshot_len + 4;
        old[version_at..version_at + 2].copy_from_slice(&3u16.to_le_bytes());
        let checksum = fnv64(&old);
        old.extend_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            ReproBundle::from_bytes(&old),
            Err(SnapshotError::BadVersion(3))
        );
        assert_eq!(ReproBundle::from_bytes(&bytes), Ok(bundle));
    }

    #[test]
    fn ddmin_finds_single_culprit() {
        let events: Vec<LoggedEvent> = (0..100).map(event).collect();
        let culprit = event(37);
        let mut calls = 0;
        let minimal = shrink_events(&events, |candidate| {
            calls += 1;
            candidate.contains(&culprit)
        });
        assert_eq!(minimal, vec![culprit]);
        assert!(calls < 200, "ddmin should stay subquadratic here: {calls}");
    }

    #[test]
    fn ddmin_finds_interacting_pair() {
        let events: Vec<LoggedEvent> = (0..64).map(event).collect();
        let a = event(3);
        let b = event(60);
        let minimal = shrink_events(&events, |candidate| {
            candidate.contains(&a) && candidate.contains(&b)
        });
        assert_eq!(minimal, vec![a, b]);
    }

    #[test]
    fn ddmin_keeps_passing_input_unchanged() {
        let events: Vec<LoggedEvent> = (0..8).map(event).collect();
        let minimal = shrink_events(&events, |_| false);
        assert_eq!(minimal.len(), 8, "non-failing input is returned as-is");
    }

    #[test]
    fn to_plan_preserves_timestamps() {
        let mut log = EventLog::new(0, None);
        log.push(10, FaultKind::ClbPoison { xor: 1 });
        log.push(20, FaultKind::ClbPoison { xor: 2 });
        let mut plan = log.to_plan();
        assert_eq!(plan.pending(), 2);
        assert_eq!(plan.take_due(10).len(), 1);
        assert_eq!(plan.take_due(20).len(), 1);
    }
}
