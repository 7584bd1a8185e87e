//! Controller crash–recovery: deterministic checkpoint/restore with a
//! write-ahead delta journal.
//!
//! The durability model has two artifacts:
//!
//! 1. **Checkpoint** — a framed snapshot of the complete controller
//!    state ([`PrepareController::store_state`]): magic + version, a
//!    length-prefixed payload, and an FNV-1a checksum over the payload.
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

use crate::{ControllerEvent, PrepareController};
use prepare_cloudsim::Cluster;
use prepare_metrics::persist::{Persist, PersistError, Reader, Writer};
use prepare_metrics::{Fingerprint64, StampedSample, Timestamp, VmId};
use prepare_par::ParConfig;

/// Magic + version sealing a checkpoint frame ("PRPCKP" + version 01).
pub const CHECKPOINT_MAGIC: u64 = u64::from_le_bytes(*b"PRPCKP01");

fn checksum(payload: &[u8]) -> u64 {
    let mut fp = Fingerprint64::new();
    fp.write_bytes(payload);
    fp.finish()
}

/// Appends one frame: payload length, payload, FNV-1a checksum.
fn put_frame(w: &mut Writer, payload: &[u8]) {
    w.put_usize(payload.len());
    w.put_raw(payload);
    w.put_u64(checksum(payload));
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
    pub replies: Vec<crate::ClusterReply>,
}

impl Persist for TickRecord {
    fn store(&self, w: &mut Writer) {
        self.now.store(w);
        self.readings.store(w);
        self.slo_violated.store(w);
        self.replies.store(w);
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
    buf: Vec<u8>,
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
        let mut payload = Writer::new();
        record.store(&mut payload);
        let mut frame = Writer::new();
        put_frame(&mut frame, payload.bytes());
        self.buf.extend_from_slice(frame.bytes());
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
        self.buf[..end].to_vec()
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
/// (`tick` then the full controller state), FNV-1a checksum.
#[derive(Debug)]
pub struct Checkpoint;

impl Checkpoint {
    /// Serializes `controller` (as of tick index `tick`) into a sealed
    /// checkpoint frame.
    pub fn write(controller: &PrepareController, tick: u64) -> Vec<u8> {
        let mut payload = Writer::new();
        payload.put_u64(tick);
        controller.store_state(&mut payload);
        Self::seal(payload)
    }

    /// Frames a finished payload: magic, length, payload, checksum.
    fn seal(payload: Writer) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(CHECKPOINT_MAGIC);
        put_frame(&mut w, payload.bytes());
        w.into_bytes()
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
    /// The last sealed checkpoint frame.
    pub checkpoint: Vec<u8>,
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
    /// The last sealed checkpoint frame.
    checkpoint: Vec<u8>,
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
        let checkpoint = Checkpoint::write(&controller, 0);
        RecoveryManager {
            controller,
            checkpoint_every,
            tick: 0,
            checkpoint,
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
        let record = TickRecord {
            now,
            readings: readings.to_vec(),
            slo_violated,
            replies,
        };
        self.journal.append(&record);
        self.journal.barrier();
        self.tick += 1;
        if self.tick.is_multiple_of(self.checkpoint_every) {
            // The state is serialized once, straight into the checkpoint
            // payload. The core goes first and its length is what the
            // event reports: a recovered run's full checkpoint
            // legitimately carries extra crash/recovery events in its
            // log, and the recovery-equivalence proofs compare
            // post-recovery event streams byte-for-byte.
            let mut payload = Writer::new();
            payload.put_u64(self.tick);
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
            self.checkpoint = Checkpoint::seal(payload);
            self.journal.truncate();
        }
        events
    }

    /// The durable artifacts a crash right now would leave behind.
    pub fn crash_image(&self) -> CrashImage {
        CrashImage {
            checkpoint: self.checkpoint.clone(),
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
            checkpoint: image.checkpoint.clone(),
            journal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prepare_metrics::{MetricSample, MetricVector};

    fn record(t: u64) -> TickRecord {
        let v = MetricVector::from_fn(|_| t as f64 + 0.25);
        TickRecord {
            now: Timestamp::from_secs(t),
            readings: vec![(
                VmId(0),
                StampedSample::fresh(MetricSample::new(Timestamp::from_secs(t), v)),
            )],
            slo_violated: t.is_multiple_of(2),
            replies: vec![crate::ClusterReply::Plan(None)],
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
                manager.crash_image().checkpoint,
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

    #[test]
    fn tick_records_survive_the_codec() {
        let rec = record(42);
        let back: TickRecord =
            prepare_metrics::persist::from_bytes(&prepare_metrics::persist::to_bytes(&rec))
                .unwrap();
        assert_eq!(back, rec);
    }
}
