//! Controller crash–recovery: deterministic checkpoint/restore with a
//! write-ahead delta journal.
//!
//! The durability model has two artifacts:
//!
//! 1. **Checkpoint** — immutable, checksummed frames, written every
//!    `checkpoint_every` ticks. Each seal appends one *series frame*,
//!    holding every VM's metric samples ingested since the previous seal,
//!    and rewrites the *state frame*: magic + version, the tick, the
//!    controller state with each VM's series reduced to its sealed sample
//!    count and each predictor reduced to its *live half* (chain
//!    positions, observation counts, the count rows bumped since the
//!    model frame), the checksum of the model frame and that of the last
//!    series frame. A seal after a (re)training also writes a new *model
//!    frame*, every predictor's *trained half* (discretizer ranges, TAN
//!    tables, every count row as of the seal), which replaces the last
//!    one. Each series frame names its predecessor's checksum, so a frame
//!    dropped, repeated, reordered or taken from another image is
//!    refused. The series are append-only and the trained halves change
//!    only at a training, so a seal writes only what changed since the
//!    last one.
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
use prepare_metrics::persist::{
    bounded_capacity, store_seq, Persist, PersistError, Reader, Writer, MAX_VECTOR_BYTES,
};
use prepare_metrics::{MetricSample, MetricVector, StampedSample, TimeSeries, Timestamp, VmId};
use prepare_par::ParConfig;
use std::sync::Arc;

/// Magic + version opening a checkpoint's state frame ("PRPCKP" + version
/// 12).
pub const CHECKPOINT_MAGIC: u64 = u64::from_le_bytes(*b"PRPCKP12");

/// The predecessor checksum a checkpoint's first series frame names.
const CHAIN_START: u64 = 0;

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

/// The capacity a seal needs for its state frame after one of `len`
/// bytes: the state frame rarely shrinks between seals, so its size plus
/// an eighth.
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
/// reserved word and appends the payload's checksum, which it returns.
fn close_frame(w: &mut Writer, at: usize) -> u64 {
    let start = at + 8;
    w.patch_u64(at, (w.len() - start) as u64);
    let sum = checksum(&w.bytes()[start..]);
    w.put_u64(sum);
    sum
}

/// Reads one frame back, rejecting a payload that fails its checksum.
fn get_frame<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], PersistError> {
    get_summed_frame(r).map(|(payload, _)| payload)
}

/// [`get_frame`], also returning the payload's checksum.
fn get_summed_frame<'a>(r: &mut Reader<'a>) -> Result<(&'a [u8], u64), PersistError> {
    let len = r.get_usize()?;
    let payload = r.get_raw(len)?;
    let sum = checksum(payload);
    if r.get_u64()? != sum {
        return Err(PersistError::BadChecksum);
    }
    Ok((payload, sum))
}

/// Writes one series frame: the checksum of the frame before it, then
/// how many samples each slot has after its `sealed` count (a slot
/// `sealed` does not name counts from 0) as runs of equal counts — a
/// varint slot count and a varint sample count per run, covering the
/// slots in order — then each slot's new samples in slot order
/// ([`TimeSeries::store_since`]). Every VM gains one sample a round, so
/// a frame's counts are usually one run. Returns the frame's checksum,
/// which the next frame names.
// xtask: hot-path
fn write_series_frame(
    w: &mut Writer,
    controller: &PrepareController,
    sealed: &[usize],
    prev: u64,
) -> u64 {
    let from = |slot: usize| sealed.get(slot).copied().unwrap_or(0);
    let at = open_frame(w);
    w.put_u64(prev);
    let mut run: Option<(usize, u64)> = None;
    for (slot, series) in controller.slot_series().enumerate() {
        let new = series.len().saturating_sub(from(slot)) as u64;
        run = match run {
            Some((slots, count)) if count == new => Some((slots + 1, count)),
            done => {
                if let Some((slots, count)) = done {
                    w.put_varint(slots as u64);
                    w.put_varint(count);
                }
                Some((1, new))
            }
        };
    }
    if let Some((slots, count)) = run {
        w.put_varint(slots as u64);
        w.put_varint(count);
    }
    for (slot, series) in controller.slot_series().enumerate() {
        series.store_since(w, from(slot));
    }
    close_frame(w, at)
}

/// Appends one series frame's samples to `series`, one per slot, after
/// checking that the frame names `prev` as its predecessor.
fn load_series_frame(
    frame: &[u8],
    prev: u64,
    series: &mut [TimeSeries],
) -> Result<(), PersistError> {
    let mut r = Reader::new(frame);
    if r.get_u64()? != prev {
        return Err(PersistError::BrokenChain);
    }
    let mut runs = Vec::new();
    let mut covered = 0;
    while covered < series.len() {
        let slots = usize::try_from(r.get_varint()?)
            .map_err(|_| PersistError::Invalid("series frame run"))?;
        if slots == 0 || slots > series.len() - covered {
            return Err(PersistError::Invalid("series frame run"));
        }
        let count = usize::try_from(r.get_varint()?)
            .map_err(|_| PersistError::Invalid("usize overflow"))?;
        runs.push((slots, count));
        covered += slots;
    }
    let mut slots = series.iter_mut();
    for (run, count) in runs {
        for s in slots.by_ref().take(run) {
            s.load_since(&mut r, count)?;
        }
    }
    if !r.is_exhausted() {
        return Err(PersistError::Invalid("series frame trailing bytes"));
    }
    Ok(())
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
///
/// A record is its `now`, the reading count, the readings, the SLO bit
/// and the replies. A reading is three zigzag varints of wrapping
/// differences — its VM id from the previous reading's (the first from
/// 0), its sample time from `now`, its collection stamp from its sample
/// time — then its 13 values coded against the previous reading's
/// ([`MetricVector::store_against`]; the first against zeros). A fresh
/// reading of the next VM, timed at `now`, takes 3 + 4 bytes and the
/// bytes its changed values need; any ids, times and values round-trip
/// exactly. A record depends on no other, so a scan still stops at the
/// first torn one and loses nothing before it.
// xtask: hot-path
fn store_tick(
    w: &mut Writer,
    now: Timestamp,
    readings: &[(VmId, StampedSample)],
    slo_violated: bool,
    replies: &[ClusterReply],
) {
    now.store(w);
    w.put_usize(readings.len());
    let mut prev = 0u64;
    let zeros = MetricVector::zeros();
    let mut base = &zeros;
    for (VmId(vm), StampedSample { sample, collected }) in readings {
        let vm = *vm as u64;
        let time = sample.time.as_secs();
        w.put_zigzag(vm.wrapping_sub(prev));
        w.put_zigzag(time.wrapping_sub(now.as_secs()));
        w.put_zigzag(collected.as_secs().wrapping_sub(time));
        sample.values.store_against(w, base);
        prev = vm;
        base = &sample.values;
    }
    slo_violated.store(w);
    store_seq(w, replies.iter());
}

/// Reads the readings [`store_tick`] wrote for a record timed `now` into
/// `readings`. It reserves no more memory than the bytes left could
/// decode to, so a damaged count reserves at most the record's length.
fn load_readings(
    r: &mut Reader<'_>,
    now: Timestamp,
    readings: &mut Vec<(VmId, StampedSample)>,
) -> Result<(), PersistError> {
    let len = r.get_usize()?;
    readings.reserve(bounded_capacity::<(VmId, StampedSample)>(len, r));
    let mut vm = 0u64;
    let mut values = MetricVector::zeros();
    for _ in 0..len {
        vm = vm.wrapping_add(r.get_zigzag()?);
        let time = now.as_secs().wrapping_add(r.get_zigzag()?);
        let collected = time.wrapping_add(r.get_zigzag()?);
        values = MetricVector::load_against(r, &values)?;
        readings.push((
            VmId(usize::try_from(vm).map_err(|_| PersistError::Invalid("usize overflow"))?),
            StampedSample {
                sample: MetricSample::new(Timestamp::from_secs(time), values),
                collected: Timestamp::from_secs(collected),
            },
        ));
    }
    Ok(())
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
        let now = Timestamp::load(r)?;
        let mut readings = Vec::new();
        load_readings(r, now, &mut readings)?;
        Ok(TickRecord {
            now,
            readings,
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

/// Checkpoint framing. An image is the state frame — magic + version,
/// then a length-prefixed payload and its checksum — followed by its
/// model frame, then its series frames, oldest first, each a
/// length-prefixed payload and its checksum. The state payload is the
/// tick, the controller state of [`PrepareController::store_state`] with
/// each VM's series replaced by its sealed sample count and each
/// predictor by its length-prefixed live half, the event log, the model
/// frame's checksum and the last series frame's. The model payload is
/// the number of predictors, then each one's trained half in slot order. A series payload is its predecessor's checksum (the first names
/// 0), then how many samples each VM gained since the previous frame,
/// run-length coded, then those samples, VM by VM in slot order.
///
/// A predictor is its trained half with its live half read over it: the
/// live half's touched count rows replace the trained ones, and a touched
/// row with a count below its trained one is refused, because counts
/// only grow.
///
/// An image comes in two shapes that [`Checkpoint::read`] both reads: a
/// [`RecoveryManager`]'s chain ([`CheckpointImage`]), each frame its own
/// buffer, and the one-piece layout ([`Checkpoint::write`],
/// [`CheckpointImage::to_vec`]), whose state frame's length and checksum
/// run over the model and series frames too. Either way each frame is
/// checked on its own and against the state frame and its neighbours.
#[derive(Debug)]
pub struct Checkpoint;

impl Checkpoint {
    /// Serializes `controller` (as of tick index `tick`) into a sealed
    /// one-piece checkpoint with a model frame as of now, so live halves
    /// with no touched rows, and a single series frame.
    pub fn write(controller: &PrepareController, tick: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(CHECKPOINT_MAGIC);
        let frame = open_frame(&mut w);
        w.put_u64(tick);
        controller.store_core_framed(&mut w, false);
        controller.store_events(&mut w);
        // The checksums come before the frames they name: reserved here,
        // patched once the frames are written.
        let links_at = w.len();
        w.put_u64(0);
        w.put_u64(CHAIN_START);
        let model_at = open_frame(&mut w);
        controller.store_models(&mut w);
        let model = close_frame(&mut w, model_at);
        let tip = write_series_frame(&mut w, controller, &[], CHAIN_START);
        w.patch_u64(links_at, model);
        w.patch_u64(links_at + 8, tip);
        close_frame(&mut w, frame);
        w.into_bytes()
    }

    /// Restores a controller (and its tick index) from a checkpoint —
    /// one piece or a chain of frames — adopting the worker configuration
    /// of the recovering process.
    ///
    /// # Errors
    ///
    /// Returns a [`PersistError`] on a wrong magic/version, a torn or
    /// corrupt frame (checksum mismatch), a model frame missing, stale or
    /// from another image or a series frame missing, extra, out of order
    /// or from another image ([`PersistError::BrokenChain`]), or invalid
    /// payload bytes.
    pub fn read(
        image: &(impl CheckpointBytes + ?Sized),
        par: ParConfig,
    ) -> Result<(PrepareController, u64), PersistError> {
        restore(image, par).map(|restored| (restored.controller, restored.tick))
    }
}

/// A checkpoint image [`Checkpoint::read`] reads: the one-piece layout,
/// as bytes, or a [`CheckpointImage`].
pub trait CheckpointBytes {
    /// The image's bytes in order, in pieces that each hold whole frames.
    fn pieces(&self) -> impl Iterator<Item = &[u8]>;
}

impl CheckpointBytes for [u8] {
    fn pieces(&self) -> impl Iterator<Item = &[u8]> {
        std::iter::once(self)
    }
}

impl CheckpointBytes for Vec<u8> {
    fn pieces(&self) -> impl Iterator<Item = &[u8]> {
        std::iter::once(self.as_slice())
    }
}

impl CheckpointBytes for CheckpointImage {
    fn pieces(&self) -> impl Iterator<Item = &[u8]> {
        self.frames()
    }
}

/// A checkpoint restored, with the checksums its next seal links to.
struct Restored {
    controller: PrepareController,
    tick: u64,
    /// Each slot's sealed sample count.
    sealed: Vec<usize>,
    /// The checksum of the model frame.
    model: u64,
    /// The checksum of the last series frame.
    tip: u64,
}

/// Reads a checkpoint from its pieces: the first holds the state frame
/// (and, in the one-piece layout, the model and series frames inside it),
/// the rest hold the model frame and the series frames.
fn restore(
    image: &(impl CheckpointBytes + ?Sized),
    par: ParConfig,
) -> Result<Restored, PersistError> {
    let mut pieces = image.pieces();
    let mut r = Reader::new(pieces.next().unwrap_or_default());
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
    let (mut controller, parts) = PrepareController::load_framed(&mut pr, par)?;
    let model = pr.get_u64()?;
    let tip = pr.get_u64()?;
    let inline = pr.get_raw(pr.remaining())?;
    let mut frames = Vec::new();
    for piece in std::iter::once(inline).chain(pieces) {
        let mut fr = Reader::new(piece);
        while !fr.is_exhausted() {
            frames.push(get_summed_frame(&mut fr)?);
        }
    }
    let mut frames = frames.into_iter();
    match frames.next() {
        Some((frame, sum)) if sum == model => controller.adopt_models(frame, &parts.live)?,
        _ => return Err(PersistError::BrokenChain),
    }
    let sealed = parts.sealed;
    // No room is reserved up front: a series allocates its blocks as its
    // samples decode, so a damaged count reserves nothing.
    let mut series = vec![TimeSeries::new(); sealed.len()];
    let mut prev = CHAIN_START;
    for (frame, sum) in frames {
        load_series_frame(frame, prev, &mut series)?;
        prev = sum;
    }
    if prev != tip {
        return Err(PersistError::BrokenChain);
    }
    for (s, &count) in series.iter().zip(&sealed) {
        if s.len() < count {
            return Err(PersistError::Truncated {
                what: "sealed series samples",
            });
        }
        if s.len() > count {
            return Err(PersistError::Invalid("series frames past the sealed count"));
        }
    }
    controller.adopt_series(series);
    Ok(Restored {
        controller,
        tick,
        sealed,
        model,
        tip,
    })
}

/// A sealed checkpoint as a [`RecoveryManager`] keeps it: the state
/// frame, which each seal replaces; the model frame, which a seal after a
/// training replaces; and the series frames, to which each seal appends
/// one. Every frame is an immutable buffer shared by `Arc` among the
/// manager, its crash images and the managers recovered from them;
/// cloning an image copies no frame.
///
/// The image holds exactly one model frame: each holds every predictor's
/// trained half whole, as of its seal, so a new one supersedes the last
/// and the state frames after it are written against it alone. Nothing
/// accumulates, and nothing needs compacting.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointImage {
    /// The magic, then the state frame.
    state: Arc<Vec<u8>>,
    /// The model frame; `None` only before the first seal.
    model: Option<Arc<Vec<u8>>>,
    /// The series frames, oldest first.
    series: Vec<Arc<Vec<u8>>>,
}

impl CheckpointImage {
    /// Bytes of every frame: what a seal has made durable.
    pub fn len(&self) -> usize {
        self.state.len() + self.linked_bytes()
    }

    /// True for an image with no bytes, which no seal produces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of the frames the state frame links to: the model frame and
    /// the series frames.
    fn linked_bytes(&self) -> usize {
        self.linked().map(<[u8]>::len).sum()
    }

    /// The frames the state frame links to, in image order: the model
    /// frame, then the series frames, oldest first.
    fn linked(&self) -> impl Iterator<Item = &[u8]> {
        self.model.iter().chain(&self.series).map(|f| f.as_slice())
    }

    /// The frames in image order: the state frame (with the magic), then
    /// the model frame and the series frames.
    fn frames(&self) -> impl Iterator<Item = &[u8]> {
        std::iter::once(self.state.as_slice()).chain(self.linked())
    }

    /// The image in the one-piece layout [`Checkpoint::write`] emits: the
    /// same bytes in the same order, with the state frame's length and
    /// checksum run over the series frames as well.
    pub fn to_vec(&self) -> Vec<u8> {
        let head = 8 + 8;
        let state_payload = self
            .state
            .get(head..self.state.len().saturating_sub(8))
            .unwrap_or_default();
        let mut w = Writer::reusing(Vec::with_capacity(self.len()));
        w.put_u64(CHECKPOINT_MAGIC);
        let frame = open_frame(&mut w);
        w.put_raw(state_payload);
        for f in self.linked() {
            w.put_raw(f);
        }
        close_frame(&mut w, frame);
        w.into_bytes()
    }
}

/// The durable artifacts a crash leaves behind (with an intact journal
/// tail; use [`Journal::crash_image`] directly to model torn tails).
#[derive(Debug, Clone, PartialEq)]
pub struct CrashImage {
    /// The last sealed checkpoint, its frames shared with (not copied
    /// from) its manager.
    pub checkpoint: CheckpointImage,
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
    /// The last sealed checkpoint, its frames shared with its crash images.
    checkpoint: CheckpointImage,
    /// Each slot's samples the series frames hold: where the next series
    /// frame starts.
    sealed: Vec<usize>,
    /// The checksum of the model frame, which each state frame names.
    model: u64,
    /// Whether a model landed since the model frame was written: the next
    /// seal writes a new one.
    retrained: bool,
    /// The checksum of the last series frame, which the next one names.
    tip: u64,
    /// The state frame `checkpoint` replaced, if no crash image still
    /// holds it. The next seal writes its state frame into this
    /// allocation when it is large enough: a fresh half-megabyte buffer
    /// per seal is a fresh mapping per seal, paid for in page faults while
    /// the round waits. Capacity only: its bytes are never read.
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
        let mut manager = RecoveryManager {
            controller,
            checkpoint_every,
            tick: 0,
            checkpoint: CheckpointImage {
                state: Arc::default(),
                model: None,
                series: Vec::new(),
            },
            sealed: Vec::new(),
            model: 0,
            retrained: false,
            tip: CHAIN_START,
            spare: Vec::new(),
            journal: Journal::new(),
        };
        manager.seal(|_, _| {});
        manager
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

    /// Size in bytes of the last sealed checkpoint: every byte of every
    /// frame.
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
        self.retrained |= trains(&events);
        self.tick += 1;
        if self.tick.is_multiple_of(self.checkpoint_every) {
            let records = self.journal.records();
            self.seal(|controller, bytes| {
                let taken = ControllerEvent::CheckpointTaken { at: now, bytes };
                let truncated = ControllerEvent::JournalTruncated { at: now, records };
                controller.record_event(taken.clone());
                controller.record_event(truncated.clone());
                events.push(taken);
                events.push(truncated);
            });
            self.journal.truncate();
        }
        events
    }

    /// Seals a checkpoint: writes a model frame if a model landed since
    /// the last one (or there is none yet) and clears the count-row marks,
    /// appends a series frame with every VM's samples since the last
    /// seal, then writes a fresh state frame. `bookkeeping` runs after the
    /// state's core is written and before its event log, with the size
    /// the seal reports: the model and series frames plus the core.
    /// Events it records therefore land in the frame, so a restore from
    /// this checkpoint carries them — otherwise a crash on the next round
    /// would rebuild a log missing its own truncation marker. The size
    /// leaves out the log, because a recovered run's log legitimately
    /// carries extra crash/recovery events and the recovery-equivalence
    /// proofs compare post-recovery event streams byte-for-byte; the
    /// series frames a recovered run appends are its referee's.
    fn seal(&mut self, bookkeeping: impl FnOnce(&mut PrepareController, usize)) {
        if self.retrained || self.checkpoint.model.is_none() {
            let last = self.checkpoint.model.as_ref().map_or(0, |f| f.len());
            let mut frame = Writer::reusing(Vec::with_capacity(seal_reserve(last)));
            let at = open_frame(&mut frame);
            self.controller.store_models(&mut frame);
            self.model = close_frame(&mut frame, at);
            self.checkpoint.model = Some(Arc::new(frame.into_bytes()));
            self.controller.clear_count_marks();
            self.retrained = false;
        }

        // Each frame's buffer is allocated at a size that holds it, never
        // grown by doubling: that copied megabytes mid-seal and left holes
        // in the heap whose reuse, not the state, decided the process's
        // peak resident set. Capacity never written is not resident.
        let most = self
            .controller
            .slot_series()
            .zip(self.sealed.iter().copied().chain(std::iter::repeat(0)))
            .map(|(series, from)| 10 + series.len().saturating_sub(from) * MAX_SAMPLE_BYTES)
            .sum::<usize>();
        let mut frame = Writer::reusing(Vec::with_capacity(3 * 8 + most));
        self.tip = write_series_frame(&mut frame, &self.controller, &self.sealed, self.tip);
        self.checkpoint.series.push(Arc::new(frame.into_bytes()));
        self.sealed.clear();
        self.sealed
            .extend(self.controller.slot_series().map(TimeSeries::len));

        // The state frame goes into the spare, sized two seals back, so a
        // fresh buffer gets twice the reserve: a growing frame still fits
        // when the buffer comes back as the spare, and only the first
        // seals after a recovery allocate.
        let reserve = seal_reserve(self.checkpoint.state.len());
        let mut buf = std::mem::take(&mut self.spare);
        if buf.capacity() < reserve {
            buf = Vec::with_capacity(2 * reserve);
        }
        let mut state = Writer::reusing(buf);
        state.put_u64(CHECKPOINT_MAGIC);
        let at = open_frame(&mut state);
        state.put_u64(self.tick);
        let before_core = state.len();
        self.controller.store_core_framed(&mut state, true);
        let bytes = self.checkpoint.linked_bytes() + (state.len() - before_core);
        bookkeeping(&mut self.controller, bytes);
        self.controller.store_events(&mut state);
        state.put_u64(self.model);
        state.put_u64(self.tip);
        close_frame(&mut state, at);
        let old = std::mem::replace(&mut self.checkpoint.state, Arc::new(state.into_bytes()));
        self.spare = Arc::try_unwrap(old).unwrap_or_default();
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
    /// The recovered manager shares the image's frames and appends its
    /// next series frame after them, from the sample counts the image
    /// sealed (the replayed samples are not sealed yet); a model that
    /// lands in a replayed round is written at its next seal, as the
    /// crashed manager would have written it.
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
    /// Returns a [`PersistError`] when the checkpoint is corrupt.
    /// A torn journal tail is *not* an error: the torn frames were never
    /// acknowledged durable and are discarded by the scan.
    pub fn recover(
        image: &CrashImage,
        checkpoint_every: u64,
        par: ParConfig,
        crashed_at: Timestamp,
    ) -> Result<RecoveryManager, PersistError> {
        assert!(checkpoint_every > 0, "checkpoint interval must be positive");
        let Restored {
            mut controller,
            tick: checkpoint_tick,
            sealed,
            model,
            tip,
        } = restore(&image.checkpoint, par)?;
        let scan = Journal::scan(&image.journal);
        let mut journal = Journal::new();
        let mut retrained = false;
        for record in &scan.records {
            let events = controller.on_readings_replay(
                record.now,
                &record.readings,
                record.slo_violated,
                &record.replies,
            );
            retrained |= trains(&events);
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
            sealed,
            model,
            retrained,
            tip,
            spare: Vec::new(),
            journal,
        })
    }
}

/// Whether a round's events include a model landing.
fn trains(events: &[ControllerEvent]) -> bool {
    events
        .iter()
        .any(|e| matches!(e, ControllerEvent::ModelsTrained { .. }))
}

/// The most bytes one sample takes in a series frame: a ten-byte varint
/// time delta and its values.
const MAX_SAMPLE_BYTES: usize = 10 + MAX_VECTOR_BYTES;

/// The bytes `values` takes coded against `base`, counted apart from the
/// encoder: a four-byte header, then per value none when it repeats its
/// base and otherwise 6, 7 or 8 bytes, the first that hold the highest
/// set byte of its bits XOR the base's.
#[cfg(test)]
pub(crate) fn coded_bytes(values: &MetricVector, base: &MetricVector) -> usize {
    let word = |(v, b): (&f64, &f64)| match (64 - (v.to_bits() ^ b.to_bits()).leading_zeros())
        .div_ceil(8)
    {
        0 => 0,
        1..=6 => 6,
        n => n as usize,
    };
    4 + values
        .as_slice()
        .iter()
        .zip(base.as_slice())
        .map(word)
        .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prepare_anomaly::AnomalyPredictor;
    use prepare_metrics::ATTRIBUTE_COUNT;

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

    /// The bytes a record of `readings` takes.
    fn record_bytes(now: Timestamp, readings: Vec<(VmId, StampedSample)>) -> usize {
        let rec = TickRecord {
            now,
            readings,
            slo_violated: false,
            replies: vec![ClusterReply::Plan(None)],
        };
        prepare_metrics::persist::to_bytes(&rec).len()
    }

    /// A record grows by 61 bytes per fresh reading of the next VM when
    /// each VM's values differ from the one before it in 9 of the 13
    /// attributes by an eighth: the id, time and stamp differences take
    /// one byte each, the codes four, and each moved value the low 6
    /// bytes of its XOR word. The first reading, coded against zeros,
    /// takes every value whole.
    #[test]
    fn a_fresh_journaled_reading_is_61_bytes() {
        const DELTAS: usize = 3;
        let now = Timestamp::from_secs(35);
        let values = |vm: usize| {
            MetricVector::from_fn(|a| {
                let moved = a.index() < 9 && vm % 2 == 1;
                50.0 + a.index() as f64 + if moved { 0.125 } else { 0.0 }
            })
        };
        let with = |n: usize| {
            let readings = (0..n)
                .map(|vm| {
                    (
                        VmId(vm),
                        StampedSample::fresh(MetricSample::new(now, values(vm))),
                    )
                })
                .collect();
            record_bytes(now, readings)
        };
        let zeros = MetricVector::zeros();
        assert_eq!(with(1) - with(0), DELTAS + coded_bytes(&values(0), &zeros));
        assert_eq!(with(1) - with(0), DELTAS + 4 + ATTRIBUTE_COUNT * 8);
        for n in 1..8 {
            let grown = with(n + 1) - with(n);
            assert_eq!(
                grown,
                DELTAS + coded_bytes(&values(n), &values(n - 1)),
                "reading {}",
                n + 1
            );
            assert_eq!(grown, 61, "reading {}", n + 1);
        }
    }

    /// Readings that repeat the one before them cost their three
    /// differences and a header of zero codes: 7 bytes, where each
    /// carried its 104 bytes of values before.
    #[test]
    fn a_record_of_identical_readings_grows_by_seven_bytes_per_reading() {
        let now = Timestamp::from_secs(35);
        let values = MetricVector::from_fn(|a| a.index() as f64 * 1.5 + 0.25);
        let with = |n: usize| {
            let readings = (0..n)
                .map(|vm| {
                    (
                        VmId(vm),
                        StampedSample::fresh(MetricSample::new(now, values)),
                    )
                })
                .collect();
            record_bytes(now, readings)
        };
        for n in 1..8 {
            assert_eq!(with(n + 1) - with(n), 3 + 4, "reading {}", n + 1);
        }
    }

    /// A record whose reading count claims 2^40 readings, and whose first
    /// reading is damaged, reserves no more memory than the record holds
    /// bytes: everything it allocated before the error is that
    /// reservation. Counted by the fewest bytes a reading can take (3 + 4),
    /// it would reserve 18 times the record.
    #[test]
    fn a_damaged_reading_count_reserves_at_most_the_record() {
        let now = Timestamp::from_secs(35);
        let values = MetricVector::from_fn(|a| a.index() as f64);
        let mut w = Writer::new();
        w.put_usize(1 << 40);
        let padding = w.len() + 3 + 3;
        let mut base = MetricVector::zeros();
        for vm in 0..100 {
            w.put_zigzag(u64::from(vm > 0));
            w.put_zigzag(0);
            w.put_zigzag(0);
            values.store_against(&mut w, &base);
            base = values;
        }
        let mut record = w.into_bytes();
        record[padding] |= 0x80;
        let mut readings = Vec::new();
        let res = load_readings(&mut Reader::new(&record), now, &mut readings);
        assert_eq!(res, Err(PersistError::Invalid("value code padding")));
        assert!(readings.is_empty());
        let reserved = readings.capacity() * std::mem::size_of::<(VmId, StampedSample)>();
        assert!(
            reserved <= record.len(),
            "{reserved} bytes for a {}-byte record",
            record.len()
        );
    }

    /// A time at an edge of `u64`, or `jitter` on either side of `near`.
    fn edge_time(pick: u64, near: u64, jitter: u64) -> u64 {
        match pick {
            0 => 0,
            1 => u64::MAX,
            2 => near.wrapping_add(jitter),
            3 => near.wrapping_sub(jitter),
            4 => jitter << 40,
            _ => u64::MAX - jitter,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        // Readings the delta codec is not shaped for — ids out of order or
        // repeated, sample times far on either side of the record's `now`
        // (0 and `u64::MAX` among them), collection stamps before or after
        // their sample — still come back exactly through the journal.
        #[test]
        fn any_readings_survive_the_journal(
            now_pick in 0u64..6,
            now_jitter in 0u64..1_000,
            readings in proptest::collection::vec(
                (0usize..6, 0u64..6, 0u64..200, 0u64..6, 0u64..200),
                0..12,
            ),
            slo_violated in proptest::prelude::any::<bool>(),
        ) {
            let now = Timestamp::from_secs(edge_time(now_pick, 1_000_000, now_jitter));
            let readings: Vec<(VmId, StampedSample)> = readings
                .iter()
                .enumerate()
                .map(|(i, &(vm, time_pick, time_jitter, stamp_pick, stamp_jitter))| {
                    let vm = match vm {
                        5 => usize::MAX - i,
                        4 => 1 << 40,
                        id => id,
                    };
                    let time = edge_time(time_pick, now.as_secs(), time_jitter);
                    let collected = edge_time(stamp_pick, time, stamp_jitter);
                    let v = MetricVector::from_fn(|a| (i + a.index()) as f64 - 0.5);
                    let sample = MetricSample::new(Timestamp::from_secs(time), v);
                    (
                        VmId(vm),
                        StampedSample {
                            sample,
                            collected: Timestamp::from_secs(collected),
                        },
                    )
                })
                .collect();
            let rec = TickRecord {
                now,
                readings,
                slo_violated,
                replies: vec![ClusterReply::Execute(None)],
            };
            let mut j = Journal::new();
            j.append(&record(1));
            j.append(&rec);
            j.append(&record(2));
            j.barrier();
            let scan = Journal::scan(&j.crash_image(0));
            proptest::prop_assert!(!scan.torn_tail);
            proptest::prop_assert_eq!(scan.records, vec![record(1), rec, record(2)]);
        }
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
            b"PRPCKP09",
            b"PRPCKP10",
            b"PRPCKP11",
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

    /// At every seal the manager's chain restores the controller the
    /// one-piece reference writer's image restores, and the reported size
    /// is the model and series frames plus the state frame's core.
    #[test]
    fn a_sealed_chain_restores_what_checkpoint_write_restores() {
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
        let par = ParConfig::serial();
        for t in 0..7u64 {
            let rec = record(t * 5);
            let events = manager.tick(rec.now, &rec.readings, rec.slo_violated, &mut cluster);
            let sealed = (t + 1).is_multiple_of(3);
            assert_eq!(manager.journal_records() == 0, sealed, "tick {t}");
            if !sealed {
                continue;
            }
            let image = manager.crash_image().checkpoint;
            let one_piece = Checkpoint::write(manager.controller(), manager.tick_count());
            assert_eq!(image.len(), manager.checkpoint_bytes());
            let state = |bytes: Result<(PrepareController, u64), PersistError>| {
                let (controller, tick) = bytes.expect("intact image");
                let mut w = Writer::new();
                controller.store_state(&mut w);
                (w.into_bytes(), tick)
            };
            let mut live = Writer::new();
            manager.controller().store_state(&mut live);
            let want = (live.into_bytes(), manager.tick_count());
            assert_eq!(state(Checkpoint::read(&image, par)), want, "tick {t}");
            assert_eq!(
                state(Checkpoint::read(&image.to_vec(), par)),
                want,
                "tick {t}"
            );
            assert_eq!(state(Checkpoint::read(&one_piece, par)), want, "tick {t}");
            let mut core = Writer::new();
            manager.controller().store_core_framed(&mut core, true);
            let reported = events.iter().find_map(|e| match e {
                ControllerEvent::CheckpointTaken { bytes, .. } => Some(*bytes),
                _ => None,
            });
            assert_eq!(
                reported,
                Some(image.linked_bytes() + core.len()),
                "tick {t}"
            );
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

    /// A seal writes its state frame into the allocation of the state
    /// frame sealed two seals earlier, which the previous seal released as
    /// the spare, even while the image grows: each fresh buffer has room
    /// for the frame after next. Only the first seals, before any spare of
    /// that size exists, may allocate.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the assertion is that the sealed image keeps its allocation"
    )]
    fn a_growing_image_reuses_the_spare() {
        let mut cluster = two_vm_cluster();
        let mut controller = PrepareController::new(
            vec![VmId(0), VmId(1)],
            small_config(),
            crate::Scheme::Prepare,
        );
        for i in 0..15u64 {
            let (now, readings, sick) = trained_round(i);
            controller.on_readings(now, &readings, sick, &mut cluster);
        }
        assert!(controller.is_trained());
        let mut manager = RecoveryManager::new(controller, 1);
        let state = |m: &RecoveryManager| (m.checkpoint.state.as_ptr(), m.checkpoint.state.len());
        let mut frames = vec![state(&manager)];
        for i in 15..23u64 {
            let (now, readings, sick) = trained_round(i);
            manager.tick(now, &readings, sick, &mut cluster);
            frames.push(state(&manager));
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
        let mut cluster = two_vm_cluster();
        let config = small_config();
        let controller =
            PrepareController::new(vec![VmId(0), VmId(1)], config, crate::Scheme::Prepare);
        let mut manager = RecoveryManager::new(controller, 12);
        for i in 0..15u64 {
            let (now, readings, sick) = trained_round(i);
            manager.tick(now, &readings, sick, &mut cluster);
        }
        assert!(manager.controller().is_trained(), "scenario must train");
        assert_eq!(manager.journal_records(), 3);
        manager
    }

    /// A cluster of two hosts with one VM each.
    fn two_vm_cluster() -> Cluster {
        let mut cluster = Cluster::new();
        for _ in 0..2 {
            let host = cluster.add_host(prepare_cloudsim::HostSpec::vcl_default());
            cluster
                .create_vm(host, 100.0, 512.0)
                .expect("host has room");
        }
        cluster
    }

    /// Round `i` of [`trained_manager`]'s scenario: its time, both VMs'
    /// readings, and the SLO status — violated, with VM 0 running hot, in
    /// rounds 4 to 6.
    fn trained_round(i: u64) -> (Timestamp, [(VmId, StampedSample); 2], bool) {
        let now = Timestamp::from_secs(i * 5);
        let sick = (4..7).contains(&i);
        let reading = |vm: usize, level: f64| {
            let v = MetricVector::from_fn(|a| level + a.index() as f64 + (i % 3) as f64);
            (VmId(vm), StampedSample::fresh(MetricSample::new(now, v)))
        };
        let readings = [reading(0, if sick { 90.0 } else { 20.0 }), reading(1, 30.0)];
        (now, readings, sick)
    }

    /// A recovered series, after one live round, holds at most 31 empty
    /// slots, wherever the crash fell: also right after a seal of more
    /// than one block's samples, when the journal is empty and the live
    /// round's sample is the first after the sealed ones.
    #[test]
    fn a_recovered_series_holds_at_most_one_open_block_of_room() {
        let mut cluster = two_vm_cluster();
        let controller = PrepareController::new(
            vec![VmId(0), VmId(1)],
            small_config(),
            crate::Scheme::Prepare,
        );
        let mut manager = RecoveryManager::new(controller, 12);
        for i in 0..75u64 {
            let (now, readings, sick) = trained_round(i);
            manager.tick(now, &readings, sick, &mut cluster);
            let mut recovered =
                RecoveryManager::recover(&manager.crash_image(), 12, ParConfig::serial(), now)
                    .expect("an intact image recovers");
            let (next, readings, sick) = trained_round(i + 1);
            recovered.tick(next, &readings, sick, &mut cluster.clone());
            for vm in [VmId(0), VmId(1)] {
                let series = recovered.controller().series(vm).expect("managed VM");
                assert_eq!(series.len(), i as usize + 2);
                assert!(
                    series.capacity() <= series.len() + 31,
                    "crash after round {i}: {} slots for {} samples",
                    series.capacity(),
                    series.len()
                );
            }
        }
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
        // `PRPCKP11` wrote the same image in 9 059 bytes, every sample's
        // values as 104 bytes of bit patterns; each is now coded against
        // the sample before it.
        let controller = manager.controller();
        let (mut raw, mut coded) = (0, 0);
        for vm in [VmId(0), VmId(1)] {
            let series = controller.series(vm).expect("managed VM");
            let zeros = MetricVector::zeros();
            let bases = std::iter::once(&zeros).chain(series.iter().map(|s| &s.values));
            for (s, base) in series.iter().zip(bases) {
                raw += ATTRIBUTE_COUNT * 8;
                coded += coded_bytes(&s.values, base);
            }
        }
        assert_eq!(image.len() + raw, 9_059 + coded);
        assert_eq!(
            (image.len(), fp.finish()),
            (8_733, 0xe2f6_f256_3cd3_9bfe),
            "the checkpoint layout moved: bump `CHECKPOINT_MAGIC` and re-pin"
        );
    }

    /// A crash image, and the manager recovered from it, hold the frames
    /// the crashed manager sealed — not copies of them.
    #[test]
    fn crash_and_recovery_share_the_sealed_frames() {
        let manager = trained_manager();
        let image = manager.crash_image();
        let recovered =
            RecoveryManager::recover(&image, 12, ParConfig::serial(), Timestamp::from_secs(75))
                .expect("intact image");
        for holder in [&image.checkpoint, &recovered.checkpoint] {
            assert!(Arc::ptr_eq(&holder.state, &manager.checkpoint.state));
            let model = |image: &CheckpointImage| image.model.clone().expect("a model frame");
            assert!(Arc::ptr_eq(&model(holder), &model(&manager.checkpoint)));
            assert_eq!(holder.series.len(), manager.checkpoint.series.len());
            for (a, b) in holder.series.iter().zip(&manager.checkpoint.series) {
                assert!(Arc::ptr_eq(a, b));
            }
        }
        assert_eq!(recovered.checkpoint_bytes(), manager.checkpoint_bytes());
        assert_eq!(recovered.sealed, manager.sealed);
        assert_eq!(recovered.model, manager.model);
        assert_eq!(recovered.tip, manager.tip);
    }

    /// A one-VM controller warmed up for 24 rounds, then managed with a
    /// seal after every round for `seals` rounds. `offset` moves every
    /// reading, so two offsets are two runs whose frames have equal
    /// lengths and different bytes.
    fn sealing_manager(offset: f64, seals: u64) -> RecoveryManager {
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
        let rec = |t: u64| {
            let mut rec = record(t * 5);
            for (_, reading) in &mut rec.readings {
                reading.sample.values = MetricVector::from_fn(|_| t as f64 + offset);
            }
            rec
        };
        for t in 0..24 {
            let rec = rec(t);
            controller.on_readings(rec.now, &rec.readings, rec.slo_violated, &mut cluster);
        }
        let mut manager = RecoveryManager::new(controller, 1);
        for t in 24..24 + seals {
            let rec = rec(t);
            manager.tick(rec.now, &rec.readings, rec.slo_violated, &mut cluster);
        }
        manager
    }

    /// Each seal's series frame holds exactly the samples ingested since
    /// the seal before it, and the chain restores the controller a
    /// one-piece image of it restores.
    #[test]
    fn a_seal_writes_only_new_samples() {
        let manager = sealing_manager(0.25, 6);
        let series = manager.controller().series(VmId(0)).expect("managed VM");
        assert_eq!(series.len(), 30);
        let frames = &manager.checkpoint.series;
        assert_eq!(frames.len(), 7, "the initial seal and six more");
        // The initial frame holds the warm-up, each later one a round.
        let mut decoded = TimeSeries::new();
        let mut prev = CHAIN_START;
        for (k, frame) in frames.iter().enumerate() {
            let mut r = Reader::new(frame);
            let (payload, sum) = get_summed_frame(&mut r).expect("intact frame");
            assert!(r.is_exhausted());
            let before = decoded.len();
            load_series_frame(payload, prev, std::slice::from_mut(&mut decoded))
                .expect("the frame's samples");
            let end = if k == 0 { 24 } else { 24 + k };
            assert!(decoded.iter().eq(series.iter().take(end)), "frame {k}");
            assert_eq!(before, if k == 0 { 0 } else { end - 1 }, "frame {k}");
            // The frame is its link, one run and its samples: each a
            // one-byte time delta and its values coded against the
            // sample before it.
            let zeros = MetricVector::zeros();
            let samples: usize = (before..end)
                .map(|i| {
                    let base = i.checked_sub(1).map_or(&zeros, |p| &series[p].values);
                    1 + coded_bytes(&series[i].values, base)
                })
                .sum();
            assert_eq!(payload.len(), 8 + 1 + 1 + samples, "frame {k}");
            prev = sum;
        }
        assert_eq!(prev, manager.tip);
        assert_eq!(manager.sealed, [30]);

        let par = ParConfig::serial();
        let (chain, tick) =
            Checkpoint::read(&manager.crash_image().checkpoint, par).expect("intact chain");
        let one_piece = Checkpoint::write(manager.controller(), manager.tick_count());
        let (single, single_tick) = Checkpoint::read(&one_piece, par).expect("intact image");
        assert_eq!((tick, single_tick), (6, 6));
        assert_eq!(chain.model_fingerprint(), single.model_fingerprint());
        assert_eq!(
            chain.model_fingerprint(),
            manager.controller().model_fingerprint()
        );
    }

    /// A VM whose reading is lost for a round is held at its last value,
    /// and that held sample grows its series frame by its one-byte time
    /// delta and a header of zero codes: 5 bytes, where its values took
    /// 104 before.
    #[test]
    fn a_held_sample_costs_its_delta_and_a_header() {
        let mut manager = sealing_manager(0.25, 1);
        let mut cluster = Cluster::new();
        let host = cluster.add_host(prepare_cloudsim::HostSpec::vcl_default());
        cluster
            .create_vm(host, 100.0, 512.0)
            .expect("host has room");
        let last = *manager
            .controller()
            .series(VmId(0))
            .and_then(TimeSeries::last)
            .expect("warmed up");
        for k in 1..=2u64 {
            let now = Timestamp::from_secs(last.time.as_secs() + 5 * k);
            manager.tick(now, &[], false, &mut cluster);
            let series = manager.controller().series(VmId(0)).expect("managed VM");
            let held = series.last().expect("a held sample");
            assert_eq!(
                (held.time, held.values),
                (now, last.values),
                "gap round {k}"
            );
            let frame = manager.checkpoint.series.last().expect("a frame per seal");
            let (payload, _) = get_summed_frame(&mut Reader::new(frame)).expect("intact");
            assert_eq!(payload.len(), 8 + 1 + 1 + (1 + 4), "gap round {k}");
        }
    }

    /// A managed [`trained_round`] scenario, every reading moved by
    /// `offset`, sealed every round, with a model refresh every 20 s: the
    /// images sealed in the round the models were first trained and in
    /// the round they were first retrained.
    fn retraining_images(offset: f64) -> (CheckpointImage, CheckpointImage) {
        let mut cluster = two_vm_cluster();
        let config = crate::PrepareConfig {
            retrain_interval: Some(prepare_metrics::Duration::from_secs(20)),
            ..small_config()
        };
        let controller =
            PrepareController::new(vec![VmId(0), VmId(1)], config, crate::Scheme::Prepare);
        let mut manager = RecoveryManager::new(controller, 1);
        let mut images = Vec::new();
        for i in 0..40u64 {
            let (now, mut readings, sick) = trained_round(i);
            for (_, reading) in &mut readings {
                let values = reading.sample.values;
                reading.sample.values = MetricVector::from_fn(|a| values[a] + offset);
            }
            let events = manager.tick(now, &readings, sick, &mut cluster);
            if trains(&events) {
                images.push(manager.crash_image().checkpoint);
            }
        }
        assert!(images.len() >= 2, "the scenario trains, then retrains");
        (images.swap_remove(0), images.swap_remove(0))
    }

    /// A manager sealing every round writes its model frame at the first
    /// seal and a new one at the seal after the training, and none at the
    /// six seals after that. Each of those state frames carries, per
    /// predictor, exactly the count rows bumped since the model frame:
    /// its live halves are those of the trained predictor, marks cleared,
    /// fed the same samples. The chain restores the controller a
    /// one-piece image restores.
    #[test]
    fn a_seal_writes_a_model_frame_only_after_training() {
        let mut cluster = two_vm_cluster();
        let controller = PrepareController::new(
            vec![VmId(0), VmId(1)],
            small_config(),
            crate::Scheme::Prepare,
        );
        let mut manager = RecoveryManager::new(controller, 1);
        let model = |m: &RecoveryManager| m.checkpoint.model.clone().expect("a model frame");
        let first = model(&manager);
        let mut round = 0;
        while !manager.controller().is_trained() {
            assert!(Arc::ptr_eq(&model(&manager), &first), "round {round}");
            let (now, readings, sick) = trained_round(round);
            manager.tick(now, &readings, sick, &mut cluster);
            round += 1;
            assert!(round < 15, "the scenario trains");
        }
        let trained = model(&manager);
        assert!(!Arc::ptr_eq(&trained, &first));
        let vms = [VmId(0), VmId(1)];
        let mut bases: Vec<Option<AnomalyPredictor>> = vms
            .iter()
            .map(|&vm| {
                let mut p = manager.controller().predictor(vm)?.clone();
                p.clear_marks();
                Some(p)
            })
            .collect();
        assert!(bases.iter().any(Option::is_some));
        for seal in 0..6 {
            let (now, readings, sick) = trained_round(round + seal);
            manager.tick(now, &readings, sick, &mut cluster);
            assert!(Arc::ptr_eq(&model(&manager), &trained), "seal {seal}");
            let state = &manager.checkpoint.state;
            let mut r = Reader::new(&state[16..state.len() - 8]);
            r.get_u64().expect("the tick");
            let (_, parts) =
                PrepareController::load_framed(&mut r, ParConfig::serial()).expect("intact");
            for ((base, (_, reading)), live) in bases.iter_mut().zip(&readings).zip(&parts.live) {
                let Some(base) = base else {
                    assert!(live.is_none(), "seal {seal}");
                    continue;
                };
                base.observe(&reading.sample);
                let vm = reading_vm(&readings, reading);
                assert_eq!(Some(&*base), manager.controller().predictor(vm));
                let mut want = Writer::new();
                base.store_live(&mut want, true);
                assert_eq!(*live, Some(want.bytes()), "seal {seal}, {vm:?}");
            }
        }

        let par = ParConfig::serial();
        let (chain, _) =
            Checkpoint::read(&manager.crash_image().checkpoint, par).expect("intact chain");
        let one_piece = Checkpoint::write(manager.controller(), manager.tick_count());
        let (single, _) = Checkpoint::read(&one_piece, par).expect("intact image");
        assert_eq!(chain.model_fingerprint(), single.model_fingerprint());
        assert_eq!(
            chain.model_fingerprint(),
            manager.controller().model_fingerprint()
        );
    }

    /// A training in a round the journal holds, replayed by a recovery,
    /// is sealed in a model frame at the next seal, as the run that never
    /// crashed seals it: the model frames are byte for byte the referee's,
    /// and the image restores the controller.
    #[test]
    fn a_replayed_training_is_sealed_in_a_model_frame() {
        let start = || {
            let controller = PrepareController::new(
                vec![VmId(0), VmId(1)],
                small_config(),
                crate::Scheme::Prepare,
            );
            (RecoveryManager::new(controller, 20), two_vm_cluster())
        };
        let (mut referee, mut referee_cluster) = start();
        let (mut crashed, mut cluster) = start();
        let par = ParConfig::serial();
        let mut replayed_training = false;
        for i in 0..24u64 {
            let (now, readings, sick) = trained_round(i);
            referee.tick(now, &readings, sick, &mut referee_cluster);
            let events = crashed.tick(now, &readings, sick, &mut cluster);
            if trains(&events) {
                assert!(
                    !(i + 1).is_multiple_of(20),
                    "the training round does not seal"
                );
                crashed = RecoveryManager::recover(&crashed.crash_image(), 20, par, now)
                    .expect("intact image");
                replayed_training = true;
            }
        }
        assert!(replayed_training, "the scenario trains");
        let model = |m: &RecoveryManager| m.checkpoint.model.clone().expect("a model frame");
        assert_eq!(model(&crashed), model(&referee));
        let now = Timestamp::from_secs(24 * 5);
        let restored = RecoveryManager::recover(&crashed.crash_image(), 20, par, now)
            .expect("the sealed image restores");
        assert!(restored.controller().is_trained());
        assert_eq!(
            restored.controller().model_fingerprint(),
            referee.controller().model_fingerprint()
        );
    }

    /// The VM a reading of `readings` is for.
    fn reading_vm(readings: &[(VmId, StampedSample)], reading: &StampedSample) -> VmId {
        readings
            .iter()
            .find(|(_, r)| std::ptr::eq(r, reading))
            .map(|&(vm, _)| vm)
            .expect("a reading of the round")
    }

    /// A state frame whose touched count rows fall below the model frame's
    /// never loads: here an early seal's state frame, relinked to the
    /// model frame of a later seal, whose rows have grown since.
    #[test]
    fn a_touched_row_below_its_base_never_loads() {
        let mut cluster = two_vm_cluster();
        let mut controller = PrepareController::new(
            vec![VmId(0), VmId(1)],
            small_config(),
            crate::Scheme::Prepare,
        );
        for i in 0..15u64 {
            let (now, readings, sick) = trained_round(i);
            controller.on_readings(now, &readings, sick, &mut cluster);
        }
        assert!(controller.is_trained());
        let mut manager = RecoveryManager::new(controller, 1);
        for i in 15..18 {
            let (now, readings, sick) = trained_round(i);
            manager.tick(now, &readings, sick, &mut cluster);
        }
        let early = manager.crash_image().checkpoint;
        let mut later = Writer::new();
        for i in 18..24 {
            let (now, readings, sick) = trained_round(i);
            manager.tick(now, &readings, sick, &mut cluster);
        }
        let at = open_frame(&mut later);
        manager.controller().store_models(&mut later);
        let sum = close_frame(&mut later, at);

        let state = &early.state;
        let mut payload = state[16..state.len() - 8].to_vec();
        let link = payload.len() - 16;
        payload[link..link + 8].copy_from_slice(&sum.to_le_bytes());
        let mut w = Writer::new();
        w.put_u64(CHECKPOINT_MAGIC);
        let at = open_frame(&mut w);
        w.put_raw(&payload);
        close_frame(&mut w, at);
        let mut bad = early.clone();
        bad.state = Arc::new(w.into_bytes());
        bad.model = Some(Arc::new(later.into_bytes()));
        let par = ParConfig::serial();
        assert!(Checkpoint::read(&early, par).is_ok());
        assert_eq!(
            Checkpoint::read(&bad, par).err(),
            Some(PersistError::Invalid("Markov touched row below its base"))
        );
        assert_eq!(
            Checkpoint::read(&bad.to_vec(), par).err(),
            Some(PersistError::Invalid("Markov touched row below its base"))
        );
    }

    /// A series frame's runs cover the slots exactly: a run of no slots,
    /// one past the last slot, or samples left over are refused.
    #[test]
    fn a_series_frame_whose_runs_miss_the_slots_never_loads() {
        let frame = |runs: &[u64], tail: &[u8]| {
            let mut w = Writer::new();
            w.put_u64(CHAIN_START);
            for &v in runs {
                w.put_varint(v);
            }
            w.put_raw(tail);
            w.into_bytes()
        };
        let mut series = vec![TimeSeries::new(); 3];
        let load =
            |bytes: &[u8], series: &mut [TimeSeries]| load_series_frame(bytes, CHAIN_START, series);
        assert_eq!(load(&frame(&[3, 0], &[]), &mut series), Ok(()));
        assert_eq!(load(&frame(&[1, 0, 2, 0], &[]), &mut series), Ok(()));
        let run = Err(PersistError::Invalid("series frame run"));
        assert_eq!(load(&frame(&[0, 0, 3, 0], &[]), &mut series), run);
        assert_eq!(load(&frame(&[2, 0, 2, 0], &[]), &mut series), run);
        assert_eq!(load(&frame(&[4, 0], &[]), &mut series), run);
        assert_eq!(
            load(&frame(&[3, 0], &[7]), &mut series),
            Err(PersistError::Invalid("series frame trailing bytes"))
        );
        assert!(matches!(
            load(&frame(&[2, 0], &[]), &mut series),
            Err(PersistError::Truncated { .. })
        ));
        assert_eq!(
            load_series_frame(&frame(&[3, 0], &[]), 1, &mut series),
            Err(PersistError::BrokenChain)
        );
        assert!(series.iter().all(TimeSeries::is_empty));
    }

    /// A chain whose series frames were tampered with never loads, in
    /// either layout: a frame dropped (first, middle, last), repeated,
    /// swapped with another, or replaced by a frame of the same length
    /// from another run. Neither does a chain whose model frame was
    /// dropped, or replaced by the frame a retrain superseded or by one
    /// from another run. Each frame's own checksum holds; the links do
    /// not.
    #[test]
    fn a_checkpoint_with_a_missing_extra_reordered_or_foreign_frame_never_loads() {
        let image = sealing_manager(0.25, 4).crash_image().checkpoint;
        let foreign = sealing_manager(0.5, 4).crash_image().checkpoint;
        let par = ParConfig::serial();
        assert!(Checkpoint::read(&image, par).is_ok());
        let frames = image.series.len();
        assert_eq!(frames, 5);
        let mut damaged: Vec<(String, CheckpointImage)> = Vec::new();
        type SeriesFrames = Vec<Arc<Vec<u8>>>;
        let mut with = |what: String, edit: &dyn Fn(&mut SeriesFrames)| {
            let mut bad = image.clone();
            edit(&mut bad.series);
            damaged.push((what, bad));
        };
        for k in 0..frames {
            with(format!("frame {k} dropped"), &|f| {
                f.remove(k);
            });
            with(format!("frame {k} repeated"), &|f| {
                f.insert(k, Arc::clone(&f[k]))
            });
            assert_eq!(foreign.series[k].len(), image.series[k].len());
            assert_ne!(foreign.series[k], image.series[k]);
            with(format!("frame {k} foreign"), &|f| {
                f[k] = Arc::clone(&foreign.series[k]);
            });
            for j in k + 1..frames {
                with(format!("frames {k} and {j} swapped"), &|f| f.swap(k, j));
            }
        }
        let (trained, retrained) = retraining_images(0.0);
        let (_, other) = retraining_images(2.5);
        assert!(Checkpoint::read(&retrained, par).is_ok());
        assert_ne!(trained.model, retrained.model);
        assert_ne!(other.model, retrained.model);
        for (what, model) in [
            ("dropped", None),
            ("stale", trained.model.clone()),
            ("foreign", other.model.clone()),
        ] {
            let mut bad = retrained.clone();
            bad.model = model;
            damaged.push((format!("model frame {what}"), bad));
        }
        for (what, bad) in &damaged {
            assert_eq!(
                Checkpoint::read(bad, par).err(),
                Some(PersistError::BrokenChain),
                "{what}"
            );
            assert_eq!(
                Checkpoint::read(&bad.to_vec(), par).err(),
                Some(PersistError::BrokenChain),
                "{what}, one piece"
            );
        }
    }

    /// The bit-flip sweep, frame by frame: every bit of every frame of a
    /// trained manager's chain — the state frame, the model frame and each
    /// series frame — flipped on its own, and each damaged chain is
    /// refused.
    #[test]
    fn every_bit_of_every_frame_of_a_chain_is_refused() {
        let image = trained_manager().crash_image().checkpoint;
        let par = ParConfig::serial();
        assert!(Checkpoint::read(&image, par).is_ok());
        assert_eq!(
            image.frames().count(),
            4,
            "a state, a model and two series frames"
        );
        let mut flipped = 0;
        for k in 0..image.frames().count() {
            let frame = image.frames().nth(k).expect("frame k").to_vec();
            for bit in 0..frame.len() * 8 {
                let mut bad_frame = frame.clone();
                bad_frame[bit / 8] ^= 1 << (bit % 8);
                let mut bad = image.clone();
                match k {
                    0 => bad.state = Arc::new(bad_frame),
                    1 => bad.model = Some(Arc::new(bad_frame)),
                    _ => bad.series[k - 2] = Arc::new(bad_frame),
                }
                assert!(Checkpoint::read(&bad, par).is_err(), "frame {k} bit {bit}");
                flipped += 1;
            }
        }
        assert_eq!(flipped, image.len() * 8);
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
