//! Controller crash–recovery: deterministic checkpoint/restore with a
//! write-ahead delta journal.
//!
//! The durability model has two artifacts:
//!
//! 1. **Checkpoint** — a framed snapshot of the complete controller
//!    state ([`PrepareController::store_state`]): magic + version, a
//!    length-prefixed payload, and a word-wise checksum over the payload.
//!    Written every `checkpoint_every` ticks.
//! 2. **Write-ahead journal** — one [`TickRecord`] per control round
//!    appended *after* the round ran: the round's inputs (timestamp,
//!    stamped readings, SLO status) plus every cluster reply the round
//!    consumed. The journal is truncated at each checkpoint.
//!
//! Recovery loads the last checkpoint and re-drives the journal suffix
//! through [`PrepareController::on_readings_replay`]: the controller's
//! internal state evolves exactly as before the crash, while plan /
//! execute / inspect touches consume the *recorded* replies — the live
//! cluster, which already absorbed those actuations, is never contacted
//! again, so a crash can never double-apply an action.
//!
//! **Fsync-boundary model.** [`Journal::append`] only stages bytes;
//! [`Journal::barrier`] marks everything staged so far durable (the
//! fsync). A crash exposes the durable prefix plus an arbitrary prefix
//! of the staged tail ([`Journal::crash_image`]): records past the last
//! barrier may be *lost* or *torn*, never silently misparsed — every
//! frame carries a length prefix and a checksum, and
//! [`Journal::scan`] stops at the first frame that fails either.
//! [`RecoveryManager`] issues a barrier after every tick, so with it the
//! journal loses nothing; the looser primitives exist so tests (and
//! future real-disk backends) can model mid-write crashes.
//!
//! Why byte-identity and not tolerance: the controller is already proven
//! bit-deterministic across worker counts, so the *only* honest
//! recovery target is the exact state the uninterrupted controller
//! would hold. Any epsilon would let real divergence (a lost vote, a
//! double-counted training sample) hide inside the tolerance.

use crate::{ClusterReply, ControllerEvent, PrepareController};
use prepare_cloudsim::Cluster;
use prepare_metrics::persist::{store_seq, Persist, PersistError, Reader, Writer};
use prepare_metrics::{StampedSample, Timestamp, VmId};
use prepare_par::ParConfig;
use std::sync::Arc;

/// Magic + version sealing a checkpoint frame ("PRPCKP" + version 09).
pub const CHECKPOINT_MAGIC: u64 = u64::from_le_bytes(*b"PRPCKP09");

/// The frame checksum: FNV-1a's constants and its xor-then-multiply
/// step with a xor-shift after each multiply, over little-endian 64-bit
/// words. Word `j` of each whole 32-byte block goes to lane `j`; the
/// four lanes, each starting at the FNV offset, are then folded into one
/// state in lane order, and the words and bytes after the last whole
/// block are folded into it one at a time. The lanes are four
/// independent multiply chains, so the processor overlaps them.
///
/// Each step `s ← mix((s ^ x) · P)` is a bijection of `s` for a fixed
/// `x` (`P` is odd, `mix(s) = s ^ (s >> 32)` is invertible) and
/// injective in `x` for a fixed `s`. So two payloads of one length that
/// differ in exactly one word, or one tail byte, never share a sum: a
/// block word moves exactly its own lane, which the lane fold feeds in
/// as one word; a later word or byte parts the folded states at its own
/// step. Once parted, no later step can rejoin the states. The shift is
/// there because a bare multiply only carries differences upward — a
/// flipped top bit in two words would cancel.
// xtask: hot-path
fn checksum(payload: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let fold_in = |s: u64, x: u64| {
        let s = (s ^ x).wrapping_mul(PRIME);
        s ^ (s >> 32)
    };
    let (blocks, rest) = payload.as_chunks::<32>();
    let mut lanes = [OFFSET; 4];
    for block in blocks {
        for (lane, w) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = fold_in(*lane, u64::from_le_bytes(*w));
        }
    }
    let s = lanes.iter().fold(OFFSET, |s, &lane| fold_in(s, lane));
    let (words, tail) = rest.as_chunks::<8>();
    let s = words
        .iter()
        .fold(s, |s, w| fold_in(s, u64::from_le_bytes(*w)));
    tail.iter().fold(s, |s, &b| fold_in(s, u64::from(b)))
}

/// The capacity a seal needs after an image of `len` bytes: the image
/// rarely shrinks between seals, so its size plus an eighth.
fn seal_reserve(len: usize) -> usize {
    len + len / 8
}

/// Starts a frame in place: reserves the length word and returns its
/// offset for [`close_frame`]. The payload is whatever the caller writes
/// to `w` in between — serialized once, straight into its final bytes.
fn open_frame(w: &mut Writer) -> usize {
    let at = w.len();
    w.put_u64(0);
    at
}

/// Ends the frame opened at `at`: patches the payload length into the
/// reserved word and appends the payload's checksum.
fn close_frame(w: &mut Writer, at: usize) {
    let start = at + 8;
    w.patch_u64(at, (w.len() - start) as u64);
    let sum = checksum(&w.bytes()[start..]);
    w.put_u64(sum);
}

/// Reads one frame back, rejecting a payload that fails its checksum.
fn get_frame<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], PersistError> {
    let len = r.get_usize()?;
    let payload = r.get_raw(len)?;
    if r.get_u64()? != checksum(payload) {
        return Err(PersistError::BadChecksum);
    }
    Ok(payload)
}

/// One journaled control round: everything needed to re-drive the round
/// through the controller without a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct TickRecord {
    /// The round's wall-clock timestamp.
    pub now: Timestamp,
    /// The stamped readings the round ingested.
    pub readings: Vec<(VmId, StampedSample)>,
    /// The SLO status the round observed.
    pub slo_violated: bool,
    /// Every cluster reply the round consumed, in touch order.
    pub replies: Vec<ClusterReply>,
}

/// The encoding of a [`TickRecord`], from borrowed parts: the control
/// loop journals the readings it was handed without owning a copy.
fn store_tick(
    w: &mut Writer,
    now: Timestamp,
    readings: &[(VmId, StampedSample)],
    slo_violated: bool,
    replies: &[ClusterReply],
) {
    now.store(w);
    store_seq(w, readings.iter());
    slo_violated.store(w);
    store_seq(w, replies.iter());
}

impl Persist for TickRecord {
    fn store(&self, w: &mut Writer) {
        let Self {
            now,
            readings,
            slo_violated,
            replies,
        } = self;
        store_tick(w, *now, readings, *slo_violated, replies);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(TickRecord {
            now: Timestamp::load(r)?,
            readings: Vec::load(r)?,
            slo_violated: bool::load(r)?,
            replies: Vec::load(r)?,
        })
    }
}

/// The result of scanning a (possibly crash-truncated) journal image.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalScan {
    /// Every intact record, in append order.
    pub records: Vec<TickRecord>,
    /// True when the image ended in a torn frame (detected by length or
    /// checksum) that was discarded.
    pub torn_tail: bool,
    /// Bytes of torn tail discarded.
    pub bytes_discarded: usize,
}

/// The write-ahead journal: an append-only sequence of checksummed
/// [`TickRecord`] frames with explicit durability barriers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    /// Encoded frames, in append order.
    buf: Writer,
    /// Records appended (durable or not).
    records: usize,
    /// Bytes covered by the last [`Journal::barrier`].
    durable_bytes: usize,
    /// Records covered by the last [`Journal::barrier`].
    durable_records: usize,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Stages one record. Not durable until the next
    /// [`Journal::barrier`].
    pub fn append(&mut self, record: &TickRecord) {
        self.append_with(|w| record.store(w));
    }

    /// Stages one frame whose payload `body` serializes straight into the
    /// journal's own buffer.
    fn append_with(&mut self, body: impl FnOnce(&mut Writer)) {
        let at = open_frame(&mut self.buf);
        body(&mut self.buf);
        close_frame(&mut self.buf, at);
        self.records += 1;
    }

    /// Durability barrier (the fsync): everything staged so far survives
    /// any later crash.
    pub fn barrier(&mut self) {
        self.durable_bytes = self.buf.len();
        self.durable_records = self.records;
    }

    /// Drops every record (done right after a checkpoint lands).
    pub fn truncate(&mut self) {
        self.buf.clear();
        self.records = 0;
        self.durable_bytes = 0;
        self.durable_records = 0;
    }

    /// Records appended so far (including staged, pre-barrier ones).
    pub fn records(&self) -> usize {
        self.records
    }

    /// Records guaranteed to survive a crash.
    pub fn durable_records(&self) -> usize {
        self.durable_records
    }

    /// Total staged bytes.
    pub fn bytes(&self) -> usize {
        self.buf.len()
    }

    /// The bytes a crash exposes: the durable prefix plus the first
    /// `torn_tail_bytes` bytes staged after the last barrier (clamped to
    /// what was actually staged) — the "fsync returned, then the machine
    /// died mid-write" shape.
    pub fn crash_image(&self, torn_tail_bytes: usize) -> Vec<u8> {
        let end = self
            .durable_bytes
            .saturating_add(torn_tail_bytes)
            .min(self.buf.len());
        self.buf.bytes()[..end].to_vec()
    }

    /// Decodes a journal image frame by frame. A frame whose length
    /// prefix runs past the image, or whose payload fails its checksum,
    /// ends the scan there: those bytes are a torn tail from a crash
    /// mid-write, and everything before them is intact by construction.
    pub fn scan(image: &[u8]) -> JournalScan {
        let mut records = Vec::new();
        let mut r = Reader::new(image);
        let mut consumed = 0usize;
        loop {
            if r.is_exhausted() {
                return JournalScan {
                    records,
                    torn_tail: false,
                    bytes_discarded: 0,
                };
            }
            let intact = (|| -> Result<TickRecord, PersistError> {
                let mut pr = Reader::new(get_frame(&mut r)?);
                let record = TickRecord::load(&mut pr)?;
                if !pr.is_exhausted() {
                    return Err(PersistError::Invalid("journal frame trailing bytes"));
                }
                Ok(record)
            })();
            match intact {
                Ok(record) => {
                    records.push(record);
                    consumed = image.len() - r.remaining();
                }
                Err(_) => {
                    return JournalScan {
                        records,
                        torn_tail: true,
                        bytes_discarded: image.len() - consumed,
                    };
                }
            }
        }
    }
}

/// Checkpoint framing: magic + version, length-prefixed payload
/// (`tick` then the full controller state), payload checksum.
#[derive(Debug)]
pub struct Checkpoint;

impl Checkpoint {
    /// Serializes `controller` (as of tick index `tick`) into a sealed
    /// checkpoint frame.
    pub fn write(controller: &PrepareController, tick: u64) -> Vec<u8> {
        let (mut w, frame) = Self::begin(tick, Vec::new());
        controller.store_state(&mut w);
        close_frame(&mut w, frame);
        w.into_bytes()
    }

    /// The head of a checkpoint, written into `buf`'s allocation: magic,
    /// an open frame, the tick index. The caller writes the controller
    /// state and closes the frame.
    fn begin(tick: u64, buf: Vec<u8>) -> (Writer, usize) {
        let mut w = Writer::reusing(buf);
        w.put_u64(CHECKPOINT_MAGIC);
        let frame = open_frame(&mut w);
        w.put_u64(tick);
        (w, frame)
    }

    /// Restores a controller (and its tick index) from a checkpoint
    /// frame, adopting the worker configuration of the recovering
    /// process.
    ///
    /// # Errors
    ///
    /// Returns a [`PersistError`] on a wrong magic/version, a torn or
    /// corrupt frame (checksum mismatch), or invalid payload bytes.
    pub fn read(image: &[u8], par: ParConfig) -> Result<(PrepareController, u64), PersistError> {
        let mut r = Reader::new(image);
        let magic = r.get_u64()?;
        if magic != CHECKPOINT_MAGIC {
            return Err(PersistError::BadMagic {
                found: magic,
                expected: CHECKPOINT_MAGIC,
            });
        }
        let payload = get_frame(&mut r)?;
        if !r.is_exhausted() {
            return Err(PersistError::Invalid("checkpoint trailing bytes"));
        }
        let mut pr = Reader::new(payload);
        let tick = pr.get_u64()?;
        let controller = PrepareController::load_state(&mut pr, par)?;
        if !pr.is_exhausted() {
            return Err(PersistError::Invalid("checkpoint payload trailing bytes"));
        }
        Ok((controller, tick))
    }
}

/// The durable artifacts a crash leaves behind (with an intact journal
/// tail; use [`Journal::crash_image`] directly to model torn tails).
#[derive(Debug, Clone, PartialEq)]
pub struct CrashImage {
    /// The last sealed checkpoint frame, shared with (not copied from) its manager.
    pub checkpoint: Arc<Vec<u8>>,
    /// The journal bytes up to the last durability barrier.
    pub journal: Vec<u8>,
}

/// Drives a [`PrepareController`] with write-ahead journaling and
/// periodic checkpoints, and rebuilds one from a [`CrashImage`].
#[derive(Debug)]
pub struct RecoveryManager {
    controller: PrepareController,
    /// Ticks between checkpoints.
    checkpoint_every: u64,
    /// Ticks driven since the controller was created (survives crashes:
    /// restored as checkpoint tick + replayed journal records).
    tick: u64,
    /// The last sealed checkpoint frame, shared with its crash images.
    checkpoint: Arc<Vec<u8>>,
    /// The frame `checkpoint` replaced, if no crash image still holds it.
    /// The next seal is written into its allocation when it is large
    /// enough: a fresh multi-megabyte buffer per seal is a fresh mapping
    /// per seal, paid for in page faults while the round waits. Capacity
    /// only: its bytes are never read.
    spare: Vec<u8>,
    journal: Journal,
}

impl RecoveryManager {
    /// Wraps `controller`, checkpointing every `checkpoint_every` ticks.
    /// An initial checkpoint (tick 0) is sealed immediately so recovery
    /// always has an anchor.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_every` is zero.
    pub fn new(controller: PrepareController, checkpoint_every: u64) -> Self {
        assert!(checkpoint_every > 0, "checkpoint interval must be positive");
        let mut first = Checkpoint::write(&controller, 0);
        // The room a seal gives a fresh buffer (see `tick`), so that this
        // frame's allocation serves later seals like any other spare.
        first.reserve_exact(2 * seal_reserve(first.len()) - first.len());
        let checkpoint = Arc::new(first);
        RecoveryManager {
            controller,
            checkpoint_every,
            tick: 0,
            checkpoint,
            spare: Vec::new(),
            journal: Journal::new(),
        }
    }

    /// The managed controller.
    pub fn controller(&self) -> &PrepareController {
        &self.controller
    }

    /// Ticks driven so far.
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// Records currently in the journal (since the last checkpoint).
    pub fn journal_records(&self) -> usize {
        self.journal.records()
    }

    /// Size in bytes of the last sealed checkpoint frame.
    pub fn checkpoint_bytes(&self) -> usize {
        self.checkpoint.len()
    }

    /// Runs one control round, journals it (with a durability barrier),
    /// and seals a checkpoint when the interval elapses. Returns the
    /// round's events plus any checkpoint/truncation bookkeeping events.
    pub fn tick(
        &mut self,
        now: Timestamp,
        readings: &[(VmId, StampedSample)],
        slo_violated: bool,
        cluster: &mut Cluster,
    ) -> Vec<ControllerEvent> {
        let (mut events, replies) =
            self.controller
                .on_readings_recorded(now, readings, slo_violated, cluster);
        self.journal
            .append_with(|w| store_tick(w, now, readings, slo_violated, &replies));
        self.journal.barrier();
        self.tick += 1;
        if self.tick.is_multiple_of(self.checkpoint_every) {
            // The state is serialized once, straight into the checkpoint
            // frame. The core goes first and its length is what the
            // event reports: a recovered run's full checkpoint
            // legitimately carries extra crash/recovery events in its
            // log, and the recovery-equivalence proofs compare
            // post-recovery event streams byte-for-byte.
            // The buffer is allocated once, never grown by doubling:
            // that copied megabytes mid-seal and left holes in the heap
            // whose reuse, not the state, decided the process's peak
            // resident set from one run to the next. The spare was sized
            // two seals back, so a fresh buffer gets twice the reserve: a
            // growing image still fits when the buffer comes back as the
            // spare, and only the first seal after a recovery allocates.
            // Capacity never written is not resident.
            let reserve = seal_reserve(self.checkpoint.len());
            let mut buf = std::mem::take(&mut self.spare);
            if buf.capacity() < reserve {
                buf = Vec::with_capacity(2 * reserve);
            }
            let (mut payload, frame) = Checkpoint::begin(self.tick, buf);
            let before_core = payload.len();
            self.controller.store_core(&mut payload);
            let bytes = payload.len() - before_core;
            let taken = ControllerEvent::CheckpointTaken { at: now, bytes };
            let truncated = ControllerEvent::JournalTruncated {
                at: now,
                records: self.journal.records(),
            };
            // Both bookkeeping events land in the log *before* the log
            // joins the payload, so a restore from this checkpoint
            // carries them — otherwise a crash on the next round would
            // rebuild a log missing its own truncation marker.
            self.controller.record_event(taken.clone());
            self.controller.record_event(truncated.clone());
            events.push(taken);
            events.push(truncated);
            self.controller.store_events(&mut payload);
            close_frame(&mut payload, frame);
            let old = std::mem::replace(&mut self.checkpoint, Arc::new(payload.into_bytes()));
            self.spare = Arc::try_unwrap(old).unwrap_or_default();
            self.journal.truncate();
        }
        events
    }

    /// The durable artifacts a crash right now would leave behind.
    pub fn crash_image(&self) -> CrashImage {
        CrashImage {
            checkpoint: Arc::clone(&self.checkpoint),
            journal: self.journal.crash_image(0),
        }
    }

    /// Rebuilds a manager from a crash image: loads the checkpoint,
    /// re-drives every intact journal record through replay (consuming
    /// recorded cluster replies — the live cluster is not touched), and
    /// resumes with the journal contents intact for the next checkpoint.
    /// Emits [`ControllerEvent::ControllerCrashed`] and
    /// [`ControllerEvent::RecoveryCompleted`] after the replay (both
    /// stamped `crashed_at`): replayed rounds carry pre-crash timestamps,
    /// so appending the markers last keeps the restored log time-ordered.
    /// The markers live only in the in-memory log until the next
    /// checkpoint seals — a second crash before then rebuilds a log
    /// without them (the recovery note was never made durable), exactly
    /// like an un-fsynced annotation on a real disk.
    ///
    /// # Errors
    ///
    /// Returns a [`PersistError`] when the checkpoint frame is corrupt.
    /// A torn journal tail is *not* an error: the torn frames were never
    /// acknowledged durable and are discarded by the scan.
    pub fn recover(
        image: &CrashImage,
        checkpoint_every: u64,
        par: ParConfig,
        crashed_at: Timestamp,
    ) -> Result<RecoveryManager, PersistError> {
        assert!(checkpoint_every > 0, "checkpoint interval must be positive");
        let (mut controller, checkpoint_tick) = Checkpoint::read(&image.checkpoint, par)?;
        let scan = Journal::scan(&image.journal);
        let mut journal = Journal::new();
        for record in &scan.records {
            controller.on_readings_replay(
                record.now,
                &record.readings,
                record.slo_violated,
                &record.replies,
            );
            journal.append(record);
            journal.barrier();
        }
        let replayed = scan.records.len();
        controller.record_event(ControllerEvent::ControllerCrashed { at: crashed_at });
        controller.record_event(ControllerEvent::RecoveryCompleted {
            at: crashed_at,
            replayed,
        });
        Ok(RecoveryManager {
            controller,
            checkpoint_every,
            tick: checkpoint_tick + replayed as u64,
            checkpoint: Arc::clone(&image.checkpoint),
            spare: Vec::new(),
            journal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prepare_metrics::{MetricSample, MetricVector, ATTRIBUTE_COUNT};

    fn record(t: u64) -> TickRecord {
        let v = MetricVector::from_fn(|_| t as f64 + 0.25);
        TickRecord {
            now: Timestamp::from_secs(t),
            readings: vec![(
                VmId(0),
                StampedSample::fresh(MetricSample::new(Timestamp::from_secs(t), v)),
            )],
            slo_violated: t.is_multiple_of(2),
            replies: vec![ClusterReply::Plan(None)],
        }
    }

    #[test]
    fn journal_round_trips_durable_records() {
        let mut j = Journal::new();
        for t in 0..5u64 {
            j.append(&record(t));
            j.barrier();
        }
        assert_eq!(j.records(), 5);
        assert_eq!(j.durable_records(), 5);
        let scan = Journal::scan(&j.crash_image(0));
        assert!(!scan.torn_tail);
        assert_eq!(scan.bytes_discarded, 0);
        assert_eq!(scan.records.len(), 5);
        for (t, rec) in scan.records.iter().enumerate() {
            assert_eq!(*rec, record(t as u64));
        }
    }

    #[test]
    fn records_after_last_barrier_may_be_lost_never_misparsed() {
        let mut j = Journal::new();
        j.append(&record(0));
        j.barrier();
        // Two staged-but-unsynced records.
        j.append(&record(1));
        j.append(&record(2));
        assert_eq!(j.durable_records(), 1);
        // Crash with no tail at all: the unsynced records are lost.
        let scan = Journal::scan(&j.crash_image(0));
        assert_eq!(scan.records.len(), 1);
        assert!(!scan.torn_tail);
        // Crash mid-write: a partial frame is detected and discarded,
        // for every possible tear point.
        let full = j.crash_image(usize::MAX);
        let durable = j.crash_image(0).len();
        for cut in durable + 1..full.len() {
            let scan = Journal::scan(&full[..cut]);
            assert!(
                !scan.records.is_empty() && scan.records.len() <= 2,
                "cut {cut}: {} records",
                scan.records.len()
            );
            for (t, rec) in scan.records.iter().enumerate() {
                assert_eq!(*rec, record(t as u64), "cut {cut}");
            }
            // A cut strictly inside a frame must be flagged torn.
            if scan.records.len() < 3 {
                let intact_end = {
                    let mut probe = Journal::new();
                    for t in 0..scan.records.len() as u64 {
                        probe.append(&record(t));
                    }
                    probe.bytes()
                };
                assert_eq!(scan.torn_tail, cut > intact_end, "cut {cut}");
                assert_eq!(scan.bytes_discarded, cut - intact_end, "cut {cut}");
            }
        }
    }

    #[test]
    fn flipped_payload_byte_fails_the_frame_checksum() {
        let mut j = Journal::new();
        j.append(&record(0));
        j.append(&record(1));
        j.barrier();
        let mut image = j.crash_image(0);
        // Flip one byte inside the second frame's payload.
        let first_len = {
            let mut probe = Journal::new();
            probe.append(&record(0));
            probe.bytes()
        };
        let idx = first_len + 12;
        image[idx] ^= 0x40;
        let scan = Journal::scan(&image);
        assert_eq!(scan.records.len(), 1, "corrupt frame must not decode");
        assert!(scan.torn_tail);
        assert_eq!(scan.records[0], record(0));
    }

    #[test]
    fn truncate_resets_the_journal() {
        let mut j = Journal::new();
        j.append(&record(0));
        j.barrier();
        j.truncate();
        assert_eq!(j.records(), 0);
        assert_eq!(j.bytes(), 0);
        assert_eq!(j.durable_records(), 0);
        assert!(Journal::scan(&j.crash_image(0)).records.is_empty());
    }

    /// A journaled reading is its VM id, its sample (a time and 13
    /// values) and one collection stamp.
    #[test]
    fn a_fresh_journaled_reading_is_128_bytes() {
        const VM_ID: usize = 8;
        const SAMPLE: usize = 8 + ATTRIBUTE_COUNT * 8;
        const STAMP: usize = 8;
        let mut w = Writer::new();
        record(3).readings[0].store(&mut w);
        assert_eq!(w.len(), VM_ID + SAMPLE + STAMP);
        assert_eq!(w.len(), 128);
    }

    #[test]
    fn checkpoint_rejects_corruption() {
        let controller = PrepareController::new(
            vec![VmId(0)],
            crate::PrepareConfig::default(),
            crate::Scheme::Prepare,
        );
        let image = Checkpoint::write(&controller, 7);
        let (back, tick) = Checkpoint::read(&image, ParConfig::serial()).expect("intact frame");
        assert_eq!(tick, 7);
        assert_eq!(back.model_fingerprint(), controller.model_fingerprint());

        // Wrong magic.
        let mut bad = image.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Checkpoint::read(&bad, ParConfig::serial()).unwrap_err(),
            PersistError::BadMagic { .. }
        ));
        // An earlier layout's version is a different format, not a frame
        // to try anyway.
        for earlier in [
            b"PRPCKP01",
            b"PRPCKP02",
            b"PRPCKP03",
            b"PRPCKP04",
            b"PRPCKP05",
            b"PRPCKP06",
            b"PRPCKP07",
            b"PRPCKP08",
        ] {
            let mut old = image.clone();
            old[..8].copy_from_slice(earlier);
            assert_eq!(
                Checkpoint::read(&old, ParConfig::serial()).unwrap_err(),
                PersistError::BadMagic {
                    found: u64::from_le_bytes(*earlier),
                    expected: CHECKPOINT_MAGIC,
                }
            );
        }
        // Flipped payload byte.
        let mut bad = image.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        assert!(matches!(
            Checkpoint::read(&bad, ParConfig::serial()).unwrap_err(),
            PersistError::BadChecksum | PersistError::Invalid(_) | PersistError::BadTag { .. }
        ));
        // Truncated frame.
        assert!(Checkpoint::read(&image[..image.len() - 3], ParConfig::serial()).is_err());
    }

    /// The manager serializes the state once per seal, in two steps around
    /// the bookkeeping events. The frame it keeps must be the frame the
    /// one-step reference writer produces for the same controller, and
    /// the reported size must be the core's.
    #[test]
    fn seal_once_frame_matches_checkpoint_write() {
        let mut cluster = Cluster::new();
        let host = cluster.add_host(prepare_cloudsim::HostSpec::vcl_default());
        cluster
            .create_vm(host, 100.0, 512.0)
            .expect("host has room");
        let controller = PrepareController::new(
            vec![VmId(0)],
            crate::PrepareConfig::default(),
            crate::Scheme::Prepare,
        );
        let mut manager = RecoveryManager::new(controller, 3);
        for t in 0..7u64 {
            let rec = record(t * 5);
            let events = manager.tick(rec.now, &rec.readings, rec.slo_violated, &mut cluster);
            let sealed = (t + 1).is_multiple_of(3);
            assert_eq!(manager.journal_records() == 0, sealed, "tick {t}");
            if !sealed {
                continue;
            }
            assert_eq!(
                *manager.crash_image().checkpoint,
                Checkpoint::write(manager.controller(), manager.tick_count()),
                "tick {t}"
            );
            let reported = events.iter().find_map(|e| match e {
                ControllerEvent::CheckpointTaken { bytes, .. } => Some(*bytes),
                _ => None,
            });
            assert_eq!(reported, Some(manager.controller().core_state_bytes()));
        }
    }

    /// Deterministic filler bytes.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect()
    }

    /// Writing the payload between `open_frame` and `close_frame` yields
    /// the bytes of the construction it replaced: serialize the payload
    /// on its own, then copy it between its length and its checksum.
    #[test]
    fn in_place_frame_equals_copy_then_frame() {
        for len in [0usize, 1, 7, 8, 9, 64, 1000] {
            let payload = noise(len);
            let mut want = b"head".to_vec();
            want.extend_from_slice(&(len as u64).to_le_bytes());
            want.extend_from_slice(&payload);
            want.extend_from_slice(&checksum(&payload).to_le_bytes());

            let mut w = Writer::new();
            w.put_raw(b"head");
            let at = open_frame(&mut w);
            w.put_raw(&payload);
            close_frame(&mut w, at);
            assert_eq!(w.bytes(), want, "payload of {len} bytes");

            let mut r = Reader::new(&w.bytes()[4..]);
            assert_eq!(get_frame(&mut r).expect("intact frame"), payload);
            assert!(r.is_exhausted());
        }
    }

    /// Every fold step is a bijection of the running state, so replacing
    /// any one word (or tail byte) of a payload by any other value moves
    /// the sum — for every bit of every position, and for values that
    /// differ in many bits at once.
    #[test]
    fn checksum_moves_under_any_single_word_change() {
        for len in [8usize, 16, 77, 80] {
            let payload = noise(len);
            let sum = checksum(&payload);
            for bit in 0..len * 8 {
                let mut other = payload.clone();
                other[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&other), sum, "len {len} bit {bit}");
            }
            let replacements = noise(8 * 64);
            for (k, word) in replacements.chunks(8).enumerate() {
                let at = (k * 8) % (len / 8 * 8);
                if payload[at..at + 8] == *word {
                    continue;
                }
                let mut other = payload.clone();
                other[at..at + 8].copy_from_slice(word);
                assert_ne!(checksum(&other), sum, "len {len} word at {at}");
            }
        }
        // A changed top bit in two words must not cancel.
        let mut a = vec![0u8; 24];
        let sum = checksum(&a);
        a[7] ^= 0x80;
        a[15] ^= 0x80;
        assert_ne!(checksum(&a), sum);
        // Length matters even when the extra bytes are zero.
        assert_ne!(checksum(&[0u8; 8]), checksum(&[0u8; 9]));
    }

    /// The single-word guarantee at every shape the fold has: every
    /// length from empty to five blocks (each lane, each leftover word
    /// count, each tail length) and a page of 128 blocks. Every bit flip
    /// moves the sum, and so does replacing any one word — or tail byte —
    /// by its complement or by an unrelated value.
    #[test]
    fn checksum_moves_under_every_single_bit_and_word_change_at_every_length() {
        for len in (0usize..=160).chain([4_096]) {
            let payload = noise(len);
            let sum = checksum(&payload);
            let mut other = payload.clone();
            for bit in 0..len * 8 {
                other[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&other), sum, "len {len} bit {bit}");
                other[bit / 8] ^= 1 << (bit % 8);
            }
            let unrelated = noise(len + 8);
            for at in (0..len / 8 * 8).step_by(8) {
                let word = &payload[at..at + 8];
                let flipped = word.iter().map(|b| !b).collect::<Vec<_>>();
                for value in [&flipped[..], &unrelated[len - at..len - at + 8]] {
                    if value == word {
                        continue;
                    }
                    other[at..at + 8].copy_from_slice(value);
                    assert_ne!(checksum(&other), sum, "len {len} word at {at}");
                }
                other[at..at + 8].copy_from_slice(word);
            }
            for at in len / 8 * 8..len {
                other[at] = !payload[at];
                assert_ne!(checksum(&other), sum, "len {len} tail byte {at}");
                other[at] = payload[at];
            }
        }
    }

    /// The checksum's definition is part of the frame layout: a payload
    /// of two blocks, one leftover word and a five-byte tail sums to a
    /// fixed value. A new definition needs a new `CHECKPOINT_MAGIC`.
    #[test]
    fn checksum_is_pinned() {
        assert_eq!(
            checksum(&noise(77)),
            0xd907_4692_c350_86e4,
            "the checksum moved: bump `CHECKPOINT_MAGIC` and re-pin"
        );
    }

    /// A seal writes into the allocation of the frame sealed two seals
    /// earlier, which the previous seal released as the spare, even while
    /// the image grows: each fresh buffer has room for the image after
    /// next. Only the first seals, before any spare of that size exists,
    /// may allocate.
    #[test]
    fn a_growing_image_reuses_the_spare() {
        let mut cluster = Cluster::new();
        let host = cluster.add_host(prepare_cloudsim::HostSpec::vcl_default());
        cluster
            .create_vm(host, 100.0, 512.0)
            .expect("host has room");
        let mut controller = PrepareController::new(
            vec![VmId(0)],
            crate::PrepareConfig::default(),
            crate::Scheme::Prepare,
        );
        for t in 0..24u64 {
            let rec = record(t * 5);
            controller.on_readings(rec.now, &rec.readings, rec.slo_violated, &mut cluster);
        }
        let mut manager = RecoveryManager::new(controller, 1);
        let mut frames = vec![(manager.checkpoint.as_ptr(), manager.checkpoint_bytes())];
        for t in 24..32u64 {
            let rec = record(t * 5);
            manager.tick(rec.now, &rec.readings, rec.slo_violated, &mut cluster);
            frames.push((manager.checkpoint.as_ptr(), manager.checkpoint_bytes()));
        }
        for (seal, pair) in frames.windows(2).enumerate() {
            assert!(pair[1].1 > pair[0].1, "seal {} did not grow", seal + 1);
        }
        for (seal, triple) in frames.windows(3).enumerate().skip(1) {
            assert_eq!(
                triple[2].0,
                triple[0].0,
                "seal {} got a fresh buffer",
                seal + 2
            );
        }
    }

    /// The tunables of [`trained_manager`]: a 3-bin first-order model
    /// that trains after a handful of samples.
    fn small_config() -> crate::PrepareConfig {
        crate::PrepareConfig {
            predictor: prepare_anomaly::PredictorConfig {
                bins: 3,
                markov: prepare_anomaly::MarkovKind::Simple,
                ..prepare_anomaly::PredictorConfig::default()
            },
            min_training_samples: 6,
            post_anomaly_quiet: prepare_metrics::Duration::from_secs(10),
            ..crate::PrepareConfig::default()
        }
    }

    /// A small managed controller that has trained: 2 VMs, one short
    /// anomaly on VM 0, a seal after round 12 and three journaled rounds
    /// after it.
    fn trained_manager() -> RecoveryManager {
        let mut cluster = Cluster::new();
        for _ in 0..2 {
            let host = cluster.add_host(prepare_cloudsim::HostSpec::vcl_default());
            cluster
                .create_vm(host, 100.0, 512.0)
                .expect("host has room");
        }
        let config = small_config();
        let controller =
            PrepareController::new(vec![VmId(0), VmId(1)], config, crate::Scheme::Prepare);
        let mut manager = RecoveryManager::new(controller, 12);
        for i in 0..15u64 {
            let now = Timestamp::from_secs(i * 5);
            let sick = (4..7).contains(&i);
            let reading = |vm: usize, level: f64| {
                let v = MetricVector::from_fn(|a| level + a.index() as f64 + (i % 3) as f64);
                (VmId(vm), StampedSample::fresh(MetricSample::new(now, v)))
            };
            let readings = [reading(0, if sick { 90.0 } else { 20.0 }), reading(1, 30.0)];
            manager.tick(now, &readings, sick, &mut cluster);
        }
        assert!(manager.controller().is_trained(), "scenario must train");
        assert_eq!(manager.journal_records(), 3);
        manager
    }

    /// The checkpoint image of [`trained_manager`] is pinned by its length
    /// and fingerprint: a codec refactor that moves one byte of the layout
    /// fails here, not three suites later in a recovery sweep.
    #[test]
    fn checkpoint_image_is_pinned() {
        let manager = trained_manager();
        let image = Checkpoint::write(manager.controller(), manager.tick_count());
        let mut fp = prepare_metrics::Fingerprint64::new();
        fp.write_bytes(&image);
        assert_eq!(
            (image.len(), fp.finish()),
            (8_958, 0x9dc3_42be_431f_3d84),
            "the checkpoint layout moved: bump `CHECKPOINT_MAGIC` and re-pin"
        );
    }

    /// A crash image, and the manager recovered from it, hold the frame
    /// the crashed manager sealed — not copies of it.
    #[test]
    fn crash_and_recovery_share_the_sealed_frame() {
        let manager = trained_manager();
        let image = manager.crash_image();
        assert!(Arc::ptr_eq(&image.checkpoint, &manager.checkpoint));
        let recovered =
            RecoveryManager::recover(&image, 12, ParConfig::serial(), Timestamp::from_secs(75))
                .expect("intact image");
        assert!(Arc::ptr_eq(&recovered.checkpoint, &image.checkpoint));
        assert_eq!(recovered.checkpoint_bytes(), manager.checkpoint_bytes());
    }

    /// ROADMAP item 4's fuzz: truncate the checkpoint of a trained
    /// controller at every byte, flip every one of its bits — each damaged
    /// frame is an error. Then the same below the checksum: damage the
    /// payload and re-seal it, so the loaders' own checks (not the frame's)
    /// are what stands between the bytes and a panic.
    #[test]
    fn damaged_checkpoints_never_load() {
        let image = trained_manager().crash_image().checkpoint.to_vec();
        let par = ParConfig::serial();
        let (back, tick) = Checkpoint::read(&image, par).expect("intact frame");
        assert!(back.is_trained());
        assert_eq!(tick, 12);
        for cut in 0..image.len() {
            assert!(Checkpoint::read(&image[..cut], par).is_err(), "cut {cut}");
        }
        for bit in 0..image.len() * 8 {
            let mut bad = image.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(Checkpoint::read(&bad, par).is_err(), "bit {bit}");
        }

        let payload = &image[16..image.len() - 8];
        let reseal = |payload: &[u8]| {
            let mut w = Writer::new();
            w.put_u64(CHECKPOINT_MAGIC);
            let at = open_frame(&mut w);
            w.put_raw(payload);
            close_frame(&mut w, at);
            w.into_bytes()
        };
        assert_eq!(reseal(payload), image);
        for cut in 0..payload.len() {
            assert!(
                Checkpoint::read(&reseal(&payload[..cut]), par).is_err(),
                "resealed cut {cut}"
            );
        }
        // One bit per byte, walking the bit position: a changed float is a
        // different valid state, a changed length or tag must be refused —
        // either way the load returns.
        let mut refused = 0;
        for i in 0..payload.len() {
            let mut bad = payload.to_vec();
            bad[i] ^= 1 << (i % 8);
            refused += usize::from(Checkpoint::read(&reseal(&bad), par).is_err());
        }
        assert!(refused > 0 && refused < payload.len());

        // A flipped length in the first VM's series — samples are the bulk
        // of the image — promises 2^40 of them: the load runs off the end
        // of the payload (reserving no more than the bytes left, see
        // `prepare_metrics::persist::bounded_capacity`) and says so.
        let series_len_at = {
            let mut w = Writer::new();
            w.put_u64(tick);
            small_config().store_state(&mut w);
            crate::Scheme::Prepare.store(&mut w);
            vec![VmId(0), VmId(1)].store(&mut w);
            w.len()
        };
        assert_eq!(
            payload[series_len_at..series_len_at + 8],
            12u64.to_le_bytes()
        );
        let mut bad = payload.to_vec();
        bad[series_len_at + 5] ^= 1;
        assert!(matches!(
            Checkpoint::read(&reseal(&bad), par),
            Err(PersistError::Truncated { .. })
        ));
    }

    /// The journal half: whatever happens to the image, the scan returns
    /// the records in front of the damage, intact, and flags the rest as
    /// a torn tail.
    #[test]
    fn damaged_journals_keep_the_intact_prefix() {
        let image = trained_manager().crash_image().journal;
        let records = Journal::scan(&image).records;
        assert_eq!(records.len(), 3);
        let mut ends = Vec::new();
        let mut probe = Journal::new();
        for rec in &records {
            probe.append(rec);
            ends.push(probe.bytes());
        }
        assert_eq!(ends.last(), Some(&image.len()));
        let frames_before = |byte: usize| ends.iter().filter(|&&end| end <= byte).count();
        for cut in 0..image.len() {
            let scan = Journal::scan(&image[..cut]);
            assert_eq!(scan.records, records[..frames_before(cut)], "cut {cut}");
            assert_eq!(scan.torn_tail, cut > 0 && !ends.contains(&cut), "cut {cut}");
        }
        for bit in 0..image.len() * 8 {
            let mut bad = image.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let scan = Journal::scan(&bad);
            assert!(scan.torn_tail, "bit {bit}");
            assert_eq!(scan.records, records[..frames_before(bit / 8)], "bit {bit}");
        }
    }

    #[test]
    fn tick_records_survive_the_codec() {
        let rec = record(42);
        let back: TickRecord =
            prepare_metrics::persist::from_bytes(&prepare_metrics::persist::to_bytes(&rec))
                .unwrap();
        assert_eq!(back, rec);
    }
}
