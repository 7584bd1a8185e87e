//! The PREPARE control loop (paper Fig. 1): monitoring in, predictions
//! and diagnoses through the middle, hypervisor actuations out.

use crate::validation::usage_changed;
use crate::{
    ActionFailureKind, CauseInference, ControllerEvent, Episode, PlannedAction, PrepareConfig,
    PreventionPlanner, ValidationOutcome,
};
use prepare_anomaly::{AlertFilter, AnomalyPredictor, Vote};
use prepare_cloudsim::{Cluster, HostId};
use prepare_metrics::persist::{bounded_capacity, Persist, PersistError, Reader, Writer};
use prepare_metrics::{
    AttributeKind, Duration, Fingerprint64, LastValueImputer, MetricSample, ScalableResource,
    SloLog, StampedSample, TimeSeries, Timestamp, VmId,
};
use prepare_par::ParConfig;

/// The three anomaly management schemes compared throughout §III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Full PREPARE: predictive alerts drive prevention, with a reactive
    /// fallback when a prediction was missed.
    Prepare,
    /// Reactive intervention: the same cause inference and prevention
    /// actuation, but triggered only *after* an SLO violation is
    /// detected.
    Reactive,
    /// No intervention at all (the paper's worst-case baseline).
    NoIntervention,
}

impl Scheme {
    /// Label used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Prepare => "PREPARE",
            Scheme::Reactive => "reactive",
            Scheme::NoIntervention => "none",
        }
    }
}

impl Persist for Scheme {
    fn store(&self, w: &mut Writer) {
        w.put_u8(match self {
            Scheme::Prepare => 0,
            Scheme::Reactive => 1,
            Scheme::NoIntervention => 2,
        });
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(Scheme::Prepare),
            1 => Ok(Scheme::Reactive),
            2 => Ok(Scheme::NoIntervention),
            tag => Err(PersistError::BadTag {
                what: "Scheme",
                tag,
            }),
        }
    }
}

/// The failure summary of an executed prevention action, exactly as the
/// control loop consumed it: whether a bounded retry is expected to clear
/// it, and the hypervisor's error text (which feeds the event log).
///
/// This is what the write-ahead journal records for an `execute` touch —
/// enough to re-drive the controller's failure handling bit-identically
/// without re-contacting the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecFailure {
    /// True when the error was transient (hypervisor control plane busy).
    pub transient: bool,
    /// The error's display text.
    pub message: String,
}

/// One recorded cluster interaction from a control round.
///
/// The journal stores the *replies* the cluster gave, not the requests:
/// on recovery the replayed controller consumes these instead of touching
/// the live cluster, which structurally rules out issuing a duplicate
/// actuation for a round that already ran before the crash.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterReply {
    /// Outcome of a planner `plan` query.
    Plan(Option<PlannedAction>),
    /// Outcome of a planner `execute` call (`None` = success).
    Execute(Option<ExecFailure>),
    /// Migration-relevant snapshot of one VM read during validation.
    VmState {
        /// Whether a live migration was in flight.
        migrating: bool,
        /// The host the VM was on.
        host: HostId,
    },
}

impl Persist for ExecFailure {
    fn store(&self, w: &mut Writer) {
        let Self { transient, message } = self;
        transient.store(w);
        message.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(ExecFailure {
            transient: bool::load(r)?,
            message: String::load(r)?,
        })
    }
}

impl Persist for ClusterReply {
    fn store(&self, w: &mut Writer) {
        match self {
            ClusterReply::Plan(a) => {
                w.put_u8(0);
                a.store(w);
            }
            ClusterReply::Execute(f) => {
                w.put_u8(1);
                f.store(w);
            }
            ClusterReply::VmState { migrating, host } => {
                w.put_u8(2);
                migrating.store(w);
                host.store(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.get_u8()? {
            0 => ClusterReply::Plan(Option::load(r)?),
            1 => ClusterReply::Execute(Option::load(r)?),
            2 => ClusterReply::VmState {
                migrating: bool::load(r)?,
                host: HostId::load(r)?,
            },
            tag => {
                return Err(PersistError::BadTag {
                    what: "ClusterReply",
                    tag,
                })
            }
        })
    }
}

/// The controller's window onto the cluster for one control round: either
/// the live cluster (recording every reply), or a recorded reply stream
/// being replayed during crash recovery.
///
/// Recovery replays journaled rounds through [`ClusterIo::Replay`]: the
/// controller's internal state evolves exactly as it did before the
/// crash, but plan/execute/inspect touches consume the recorded replies —
/// the live cluster, which already absorbed those actuations, is never
/// contacted again.
#[derive(Debug)]
pub enum ClusterIo<'a> {
    /// Drive the real cluster, logging each reply for the journal.
    Live {
        /// The cluster being actuated.
        cluster: &'a mut Cluster,
        /// Replies in touch order, ready for the journal.
        log: Vec<ClusterReply>,
    },
    /// Consume a journaled reply stream instead of touching the cluster.
    Replay {
        /// The recorded replies, in touch order.
        replies: &'a [ClusterReply],
        /// Next reply to consume.
        pos: usize,
    },
}

impl<'a> ClusterIo<'a> {
    /// A live window that records every reply.
    pub fn live(cluster: &'a mut Cluster) -> Self {
        ClusterIo::Live {
            cluster,
            log: Vec::new(),
        }
    }

    /// A replay window over a journaled reply stream.
    pub fn replay(replies: &'a [ClusterReply]) -> Self {
        ClusterIo::Replay { replies, pos: 0 }
    }

    /// The recorded replies of a live round (empty for replay).
    pub fn into_log(self) -> Vec<ClusterReply> {
        match self {
            ClusterIo::Live { log, .. } => log,
            ClusterIo::Replay { .. } => Vec::new(),
        }
    }

    fn next_reply(&mut self, expected: &'static str) -> &'a ClusterReply {
        match self {
            ClusterIo::Live { .. } => unreachable!("next_reply is replay-only"), // xtask-allow: unreachable -- private method, only called from Replay arms
            ClusterIo::Replay { replies, pos } => {
                let reply = replies.get(*pos).unwrap_or_else(|| {
                    // Continuing a diverged replay would rebuild a controller
                    // whose state silently disagrees with the journal.
                    // xtask-allow: panic -- documented crash-consistency contract
                    panic!("journal replay diverged: ran out of replies wanting {expected}")
                });
                *pos += 1;
                reply
            }
        }
    }

    /// Asserts every recorded reply was consumed — a replayed round that
    /// leaves replies behind took a different branch than the original.
    ///
    /// # Panics
    ///
    /// Panics on a replay window with unconsumed replies.
    pub fn assert_drained(&self) {
        if let ClusterIo::Replay { replies, pos } = self {
            assert!(
                *pos == replies.len(),
                "journal replay diverged: {} of {} replies unconsumed",
                replies.len() - pos,
                replies.len()
            );
        }
    }

    fn plan(
        &mut self,
        planner: &PreventionPlanner,
        vm: VmId,
        ranked: &[AttributeKind],
        allow_migration: bool,
        ineffective: &[ScalableResource],
    ) -> Option<PlannedAction> {
        match self {
            ClusterIo::Live { cluster, log } => {
                let action = planner.plan(cluster, vm, ranked, allow_migration, ineffective);
                log.push(ClusterReply::Plan(action));
                action
            }
            ClusterIo::Replay { .. } => match self.next_reply("Plan") {
                ClusterReply::Plan(action) => *action,
                other => panic!("journal replay diverged: wanted Plan, recorded {other:?}"), // xtask-allow: panic -- documented crash-consistency contract
            },
        }
    }

    fn execute(
        &mut self,
        planner: &PreventionPlanner,
        action: PlannedAction,
        now: Timestamp,
    ) -> Option<ExecFailure> {
        match self {
            ClusterIo::Live { cluster, log } => {
                let failure = planner
                    .execute(cluster, action, now)
                    .err()
                    .map(|e| ExecFailure {
                        transient: e.is_transient(),
                        message: e.to_string(),
                    });
                log.push(ClusterReply::Execute(failure.clone()));
                failure
            }
            ClusterIo::Replay { .. } => match self.next_reply("Execute") {
                ClusterReply::Execute(failure) => failure.clone(),
                other => panic!("journal replay diverged: wanted Execute, recorded {other:?}"), // xtask-allow: panic -- documented crash-consistency contract
            },
        }
    }

    fn vm_state(&mut self, vm: VmId) -> (bool, HostId) {
        match self {
            ClusterIo::Live { cluster, log } => {
                let state = cluster.vm(vm);
                let snapshot = (state.is_migrating(), state.host);
                log.push(ClusterReply::VmState {
                    migrating: snapshot.0,
                    host: snapshot.1,
                });
                snapshot
            }
            ClusterIo::Replay { .. } => match self.next_reply("VmState") {
                ClusterReply::VmState { migrating, host } => (*migrating, *host),
                other => panic!("journal replay diverged: wanted VmState, recorded {other:?}"), // xtask-allow: panic -- documented crash-consistency contract
            },
        }
    }
}

/// Everything the control loop keeps per managed VM: one record per slot.
#[derive(Debug, Clone)]
struct VmRecord {
    /// The accumulated metric series.
    series: TimeSeries,
    /// The anomaly predictor, once fault localization has implicated the
    /// VM in a training round.
    predictor: Option<AnomalyPredictor>,
    /// k-of-W debounce over the predictor's votes.
    filter: AlertFilter,
    /// The open prevention episode, if any.
    episode: Option<Episode>,
    /// Last completed-or-started migration — guards against ping-ponging
    /// the VM between hosts across back-to-back episodes.
    last_migration: Option<Timestamp>,
    /// Set when an episode was abandoned after repeated action failures:
    /// no new episode opens for the VM until the stated time.
    suppressed_until: Option<Timestamp>,
    /// Hold-last-value imputation state: papers over short monitoring
    /// gaps until the staleness budget runs out.
    imputer: LastValueImputer,
    /// True while the VM's monitoring evidence is past its staleness
    /// budget. The controller abstains from predictive votes for it (the
    /// k-of-W window freezes) and freezes its open episode.
    degraded: bool,
}

impl VmRecord {
    fn is_suppressed(&self, now: Timestamp) -> bool {
        self.suppressed_until.is_some_and(|until| now < until)
    }
}

impl VmRecord {
    fn store_state(&self, w: &mut Writer) {
        let Self {
            series,
            predictor,
            filter,
            episode,
            last_migration,
            suppressed_until,
            imputer,
            degraded,
        } = self;
        series.store(w);
        match predictor {
            None => w.put_u8(0),
            Some(p) => {
                w.put_u8(1);
                p.store_state(w);
            }
        }
        filter.store_state(w);
        episode.store(w);
        last_migration.store(w);
        suppressed_until.store(w);
        imputer.store(w);
        degraded.store(w);
    }

    /// Restores a record written by [`VmRecord::store_state`]; the
    /// predictor's shape and the filter's k-of-W come from `config`.
    fn load_state(r: &mut Reader<'_>, config: &PrepareConfig) -> Result<Self, PersistError> {
        Ok(VmRecord {
            series: TimeSeries::load(r)?,
            predictor: match r.get_bool()? {
                false => None,
                true => Some(AnomalyPredictor::load_state(r, &config.predictor)?),
            },
            filter: AlertFilter::load_state(r, config.filter_k, config.filter_w)?,
            episode: Option::load(r)?,
            last_migration: Option::load(r)?,
            suppressed_until: Option::load(r)?,
            imputer: LastValueImputer::load(r)?,
            degraded: bool::load(r)?,
        })
    }
}

/// How recent (seconds) a change point must be to count toward a
/// workload change: three sampling rounds (saturating, so any interval a
/// restored config names is a window, not an overflow).
fn change_recency_secs(config: &PrepareConfig) -> u64 {
    let interval = config.predictor.sampling_interval.as_secs();
    interval.saturating_mul(3)
}

/// The slots of `vms` sorted by VM id, and whether every id is distinct.
fn slots_by_id(vms: &[VmId]) -> (Vec<usize>, bool) {
    let mut by_id: Vec<usize> = (0..vms.len()).collect();
    by_id.sort_unstable_by_key(|&slot| vms[slot]);
    let distinct = by_id.windows(2).all(|w| vms[w[0]] != vms[w[1]]);
    (by_id, distinct)
}

/// The PREPARE controller for one distributed application.
///
/// Feed it one batch of per-VM samples per sampling interval via
/// [`PrepareController::on_sample`]; it maintains per-VM anomaly
/// predictors (trained automatically once the first anomaly has been seen
/// and has passed — the paper's recurrent-anomaly regime), confirms
/// alerts through k-of-W filtering, diagnoses faulty VMs and blamed
/// metrics, actuates prevention on the given cluster, and validates
/// effectiveness. The controller is `Clone`, so a driver can snapshot a
/// trained state once and fork it into many what-if continuations (the
/// `prepare-tlc` explorer does exactly this).
#[derive(Debug, Clone)]
pub struct PrepareController {
    config: PrepareConfig,
    scheme: Scheme,
    /// The managed VMs in constructor order. Slot `i` of `table` belongs
    /// to `vms[i]`.
    vms: Vec<VmId>,
    /// All per-VM state, one record per slot.
    table: Vec<VmRecord>,
    /// The slots sorted by VM id, built once. It is the `VmId → slot`
    /// lookup (binary search) and the walk order of everything that
    /// follows id order rather than constructor order: validation,
    /// retries and [`PrepareController::degraded_vms`].
    by_id: Vec<usize>,
    slo: SloLog,
    inference: CauseInference,
    planner: PreventionPlanner,
    /// k-of-W debounce over the *observed* SLO status: the reactive
    /// trigger (and the reactive baseline scheme) confirms a violation
    /// before intervening, exactly like the predictive path confirms
    /// alerts — a single 5 s violation blip must not actuate the
    /// hypervisor. The asymmetry this creates is the paper's central
    /// point: PREPARE pays its confirmation delay *before* the anomaly
    /// lands, the reactive baseline pays it *while the SLO is broken*.
    violation_filter: AlertFilter,
    trained_at: Option<Timestamp>,
    last_retrain: Option<Timestamp>,
    last_workload_change: bool,
    events: Vec<ControllerEvent>,
}

/// Minimum spacing between two migrations of the same VM (seconds).
pub const MIGRATION_COOLDOWN_SECS: u64 = 120;

/// Consecutive action failures after which an episode is abandoned.
pub const MAX_EPISODE_FAILURES: usize = 3;

/// How long an abandoned VM stays suppressed (seconds).
pub const SUPPRESSION_SECS: u64 = 60;

/// Quiet period after model training during which predictive alerts do
/// not open episodes (reactive response to real violations is unaffected).
pub const TRAINING_SETTLE_SECS: u64 = 60;

/// Length of the look-back / look-ahead windows used to validate
/// prevention effectiveness (§II-D).
pub const VALIDATION_WINDOW: Duration = Duration::from_secs(30);

/// Maximum scheduled retries of a transiently rejected (hypervisor-busy)
/// action before the episode gives up on it, counts one failure, and
/// falls through to the next-ranked candidate attribute.
pub const TRANSIENT_RETRY_LIMIT: usize = 4;

/// Backoff base (seconds) for retrying a transiently rejected scaling
/// action; doubles per attempt up to [`RETRY_BACKOFF_CAP_SECS`].
pub const SCALE_RETRY_BASE_SECS: u64 = 5;

/// Backoff base (seconds) for retrying a transiently rejected migration —
/// migrations are heavier, so they wait longer between attempts.
pub const MIGRATE_RETRY_BASE_SECS: u64 = 10;

/// Ceiling on any single retry backoff (seconds).
pub const RETRY_BACKOFF_CAP_SECS: u64 = 60;

impl PrepareController {
    /// Creates a controller for the application running on `vms`.
    ///
    /// # Panics
    ///
    /// Panics if `vms` is empty or names a VM twice, or if the
    /// configuration is inconsistent.
    pub fn new(vms: Vec<VmId>, config: PrepareConfig, scheme: Scheme) -> Self {
        assert!(!vms.is_empty(), "controller needs at least one VM");
        let (by_id, distinct) = slots_by_id(&vms);
        assert!(distinct, "controller VM ids must be distinct");
        config.validate();
        let inference = CauseInference::with_par(
            &vms,
            config.workload_change_quorum,
            change_recency_secs(&config),
            config.par,
        );
        let planner = PreventionPlanner::new(config.policy, config.scale_factor);
        let violation_filter = AlertFilter::new(config.filter_k, config.filter_w);
        let blank = VmRecord {
            series: TimeSeries::new(),
            predictor: None,
            filter: violation_filter.clone(),
            episode: None,
            last_migration: None,
            suppressed_until: None,
            imputer: LastValueImputer::new(),
            degraded: false,
        };
        PrepareController {
            config,
            scheme,
            table: vec![blank; vms.len()],
            vms,
            by_id,
            slo: SloLog::new(),
            inference,
            planner,
            violation_filter,
            trained_at: None,
            last_retrain: None,
            last_workload_change: false,
            events: Vec::new(),
        }
    }

    /// The slot of `vm`, if this controller manages it.
    fn slot_of(&self, vm: VmId) -> Option<usize> {
        self.by_id
            .binary_search_by_key(&vm, |&slot| self.vms[slot])
            .ok()
            .map(|at| self.by_id[at])
    }

    /// The record of `vm`, if this controller manages it.
    fn record(&self, vm: VmId) -> Option<&VmRecord> {
        self.table.get(self.slot_of(vm)?)
    }

    fn any_episode_open(&self) -> bool {
        self.table.iter().any(|rec| rec.episode.is_some())
    }

    /// Whether the per-VM models have been trained yet.
    pub fn is_trained(&self) -> bool {
        self.trained_at.is_some()
    }

    /// When training completed, if it has.
    pub fn trained_at(&self) -> Option<Timestamp> {
        self.trained_at
    }

    /// Every event the controller has emitted.
    pub fn events(&self) -> &[ControllerEvent] {
        &self.events
    }

    /// The controller's view of the SLO history.
    pub fn slo_log(&self) -> &SloLog {
        &self.slo
    }

    /// The accumulated metric series of one VM.
    pub fn series(&self, vm: VmId) -> Option<&TimeSeries> {
        self.record(vm).map(|rec| &rec.series)
    }

    /// The trained predictor of one VM, if training has happened.
    pub fn predictor(&self, vm: VmId) -> Option<&AnomalyPredictor> {
        self.record(vm)?.predictor.as_ref()
    }

    /// Whether `vm`'s monitoring evidence is currently past its staleness
    /// budget (the controller is abstaining for it).
    pub fn is_degraded(&self, vm: VmId) -> bool {
        self.record(vm).is_some_and(|rec| rec.degraded)
    }

    /// VMs currently past their staleness budget, in id order.
    pub fn degraded_vms(&self) -> Vec<VmId> {
        self.by_id
            .iter()
            .filter(|&&slot| self.table[slot].degraded)
            .map(|&slot| self.vms[slot])
            .collect()
    }

    /// Ingests one sampling round: a sample per VM plus the application's
    /// current SLO status. May actuate prevention actions on `cluster`.
    /// Returns the events generated this round.
    ///
    /// Every sample is treated as freshly collected at its own timestamp;
    /// use [`PrepareController::on_readings`] when the monitoring plane
    /// can drop, delay, or freeze readings. A sample for a VM this
    /// controller does not manage is dropped, as in
    /// [`PrepareController::on_readings`].
    pub fn on_sample(
        &mut self,
        now: Timestamp,
        samples: &[(VmId, MetricSample)],
        slo_violated: bool,
        cluster: &mut Cluster,
    ) -> Vec<ControllerEvent> {
        let readings: Vec<(VmId, StampedSample)> = samples
            .iter()
            .map(|&(vm, sample)| (vm, StampedSample::fresh(sample)))
            .collect();
        self.on_readings(now, &readings, slo_violated, cluster)
    }

    /// Ingests one sampling round of stamped readings — the
    /// robustness-aware entry point. Readings may be missing entirely
    /// (dropped samples, host blackout), late (collection stamps behind
    /// `now`), or partially frozen (a stuck attribute keeps its old
    /// stamp). The controller:
    ///
    /// 1. feeds every reading still within the configured
    ///    [`prepare_metrics::StalenessBudget`] into the pipeline,
    ///    re-timed to its arrival round;
    /// 2. papers over short gaps with hold-last-value imputation, which
    ///    self-expires once the held reading outlives the budget;
    /// 3. marks VMs with no trustworthy evidence as *degraded* — their
    ///    predictive votes become abstentions (the k-of-W window
    ///    freezes), they are excluded from reactive diagnosis, and their
    ///    open episodes pause — emitting
    ///    [`ControllerEvent::MonitoringDegraded`] /
    ///    [`ControllerEvent::MonitoringRecovered`] on the transitions.
    ///
    /// A VM named more than once in `readings` is one tick: only its
    /// first reading is ingested. A reading for a VM this controller does
    /// not manage is dropped: it is not ingested and emits no event. With
    /// every reading fresh (the benign-infrastructure case) this is
    /// byte-identical to [`PrepareController::on_sample`].
    pub fn on_readings(
        &mut self,
        now: Timestamp,
        readings: &[(VmId, StampedSample)],
        slo_violated: bool,
        cluster: &mut Cluster,
    ) -> Vec<ControllerEvent> {
        self.on_readings_recorded(now, readings, slo_violated, cluster)
            .0
    }

    /// [`PrepareController::on_readings`], additionally returning every
    /// cluster reply the round consumed — the payload the write-ahead
    /// journal records so the round can later be replayed without a
    /// cluster. Duplicate and unmanaged readings are dropped as in
    /// [`PrepareController::on_readings`].
    pub fn on_readings_recorded(
        &mut self,
        now: Timestamp,
        readings: &[(VmId, StampedSample)],
        slo_violated: bool,
        cluster: &mut Cluster,
    ) -> (Vec<ControllerEvent>, Vec<ClusterReply>) {
        let mut io = ClusterIo::live(cluster);
        let events = self.round(now, readings, slo_violated, &mut io);
        (events, io.into_log())
    }

    /// Re-drives one journaled round during crash recovery. The round's
    /// cluster touches consume `replies` (recorded by
    /// [`PrepareController::on_readings_recorded`] before the crash)
    /// instead of contacting the live cluster, so an actuation the
    /// cluster already absorbed is never issued twice. Duplicate and
    /// unmanaged readings are dropped as in
    /// [`PrepareController::on_readings`], so the replay sees the round
    /// the live call saw.
    ///
    /// # Panics
    ///
    /// Panics if the replayed round diverges from the recorded reply
    /// stream — that means the restored controller state does not match
    /// the state that produced the journal, which recovery must not paper
    /// over.
    pub fn on_readings_replay(
        &mut self,
        now: Timestamp,
        readings: &[(VmId, StampedSample)],
        slo_violated: bool,
        replies: &[ClusterReply],
    ) -> Vec<ControllerEvent> {
        let mut io = ClusterIo::replay(replies);
        let events = self.round(now, readings, slo_violated, &mut io);
        io.assert_drained();
        events
    }

    fn round(
        &mut self,
        now: Timestamp,
        readings: &[(VmId, StampedSample)],
        slo_violated: bool,
        io: &mut ClusterIo<'_>,
    ) -> Vec<ControllerEvent> {
        let events_before = self.events.len();

        // Resolve this round's usable evidence, by slot. A usable sample
        // joins its VM's series on the spot. A VM named twice in one round
        // is still one tick: only its first reading is ingested. A reading
        // for a VM outside the table is dropped.
        let mut usable: Vec<(usize, MetricSample)> = Vec::with_capacity(self.table.len());
        let mut covered = vec![false; self.table.len()];
        let mut seen = vec![false; self.table.len()];
        for (vm, stamped) in readings {
            let Some(slot) = self.slot_of(*vm) else {
                continue;
            };
            // xtask-allow: index-in-loop -- one flag per table slot
            if std::mem::replace(&mut seen[slot], true) {
                continue;
            }
            // xtask-allow: index-in-loop -- slot_of only returns slots of the table
            let rec = &mut self.table[slot];
            rec.imputer.observe(stamped);
            if !self.config.staleness.is_exceeded(now, stamped) {
                // Re-time to the arrival round so the series stays
                // monotonic even for late deliveries (a no-op for fresh
                // samples, whose own time already is `now`).
                let sample = MetricSample::new(now, stamped.sample.values);
                rec.series.push(sample);
                usable.push((slot, sample));
                // xtask-allow: index-in-loop -- one flag per table slot
                covered[slot] = true;
            }
        }

        // One walk in constructor order fills the gaps and does the
        // edge-triggered degradation bookkeeping.
        let slots = self.table.iter_mut().zip(&self.vms).zip(covered);
        for (slot, ((rec, &vm), mut covered)) in slots.enumerate() {
            if !covered {
                // Nothing usable arrived: hold the last value while it is
                // still within budget. The imputed sample keeps its
                // original collection stamps, so this path shuts itself
                // off once the gap outlives the budget — and it cannot
                // revive a reading that arrived this round already stale.
                let imputed = rec.imputer.impute(now);
                if let Some(held) = imputed.filter(|i| !self.config.staleness.is_exceeded(now, i)) {
                    rec.series.push(held.sample);
                    usable.push((slot, held.sample));
                    covered = true;
                }
            }
            if rec.degraded != covered {
                continue;
            }
            rec.degraded = !covered;
            if self.scheme != Scheme::NoIntervention {
                self.events.push(if covered {
                    ControllerEvent::MonitoringRecovered { at: now, vm }
                } else {
                    ControllerEvent::MonitoringDegraded { at: now, vm }
                });
            }
        }

        self.slo.record(now, slo_violated);
        // Cause inference is keyed by VM id, not by slot.
        let by_vm: Vec<(VmId, MetricSample)> = usable
            .iter()
            .map(|&(slot, sample)| (self.vms[slot], sample))
            .collect();
        self.inference.observe(&by_vm);
        let violation_confirmed = self.violation_filter.push(slo_violated);

        if self.scheme != Scheme::NoIntervention {
            self.maybe_train(now);
            if self.is_trained() {
                self.maybe_retrain(now, slo_violated);
                self.observe_predictors(&usable);
                self.predictive_round(now, slo_violated, violation_confirmed, io);
                self.validate_episodes(now, slo_violated, io);
                self.process_retries(now, slo_violated, io);
            }
        }

        self.events[events_before..].to_vec()
    }

    /// Streams this round's samples into the trained per-VM predictors,
    /// one shard of VMs per worker. Each predictor consumes only its own
    /// VM's samples in arrival order, so the resulting model positions
    /// are bit-identical to the sequential loop for any worker count.
    fn observe_predictors(&mut self, usable: &[(usize, MetricSample)]) {
        // One batch per slot that holds a predictor, in slot order.
        let mut work: Vec<(usize, &mut AnomalyPredictor, Vec<&MetricSample>)> = self
            .table
            .iter_mut()
            .enumerate()
            .filter_map(|(slot, rec)| Some((slot, rec.predictor.as_mut()?, Vec::new())))
            .collect();
        for (slot, sample) in usable {
            if let Ok(i) = work.binary_search_by_key(slot, |w| w.0) {
                // xtask-allow: index-in-loop -- a successful search returns an index of `work`
                work[i].2.push(sample);
            }
        }
        prepare_par::par_for_each_mut(&self.config.par, &mut work, |(_, p, batch)| {
            for sample in batch.iter() {
                p.observe(sample);
            }
        });
    }

    /// One training pass: fault localization (the PAL step of §II-B),
    /// then a fit per implicated VM, one shard of VMs per worker. Only
    /// VMs whose metrics genuinely deviated during a violation get
    /// anomaly predictors; ripple victims (e.g. downstream PEs starved of
    /// input) stay model-less so they cannot be blamed for states that
    /// are normal for them. A VM whose fit fails keeps the model it had.
    /// Returns whether any model landed.
    ///
    /// Training reads only the VM's own series plus the shared SLO log
    /// (labels are resolved by timestamp match, §II-B), so the fitted
    /// models are bit-identical to the sequential loop for any worker
    /// count.
    fn train_models(&mut self, now: Timestamp) -> bool {
        let series: Vec<&TimeSeries> = self.table.iter().map(|rec| &rec.series).collect();
        let implicated = crate::implicated_vms(&series, &self.slo, &self.config.par);
        let wanted = implicated.iter().map(|&slot| series[slot]).collect();
        let fits = prepare_par::par_map(&self.config.par, wanted, |series: &TimeSeries| {
            AnomalyPredictor::train(series, &self.slo, &self.config.predictor).ok()
        });
        let mut vms = Vec::new();
        for (slot, fit) in implicated.into_iter().zip(fits) {
            let Some(p) = fit else {
                continue;
            };
            // xtask-allow: index-in-loop -- implicated slots index the series, one per table slot
            self.table[slot].predictor = Some(p);
            // xtask-allow: index-in-loop -- vms and table share their slots
            vms.push(self.vms[slot]);
        }
        if vms.is_empty() {
            return false;
        }
        vms.sort_unstable();
        self.events
            .push(ControllerEvent::ModelsTrained { at: now, vms });
        true
    }

    /// Trains per-VM models once the first (completed) anomaly has been
    /// observed — "our prediction model learns the anomaly during the
    /// first fault injection" (§III-B).
    fn maybe_train(&mut self, now: Timestamp) {
        if self.is_trained() {
            return;
        }
        // The lowest-id VM's series is the yardstick for the fleet.
        let enough = self
            .by_id
            .first()
            .is_some_and(|&slot| self.table[slot].series.len() >= self.config.min_training_samples);
        let anomaly_seen = self.slo.first_violation().is_some();
        let anomaly_over = !self.slo.is_violated_at(now);
        // Train only after the SLO has been quiet for a while, so the
        // training window contains post-anomaly normal data too.
        let quiet_long_enough = self
            .slo
            .intervals()
            .last()
            .is_some_and(|&(_, end)| now.since(end) >= self.config.post_anomaly_quiet);
        if !(enough && anomaly_seen && anomaly_over && quiet_long_enough) {
            return;
        }
        // No model landed: try again next round with more data.
        if self.train_models(now) {
            self.trained_at = Some(now);
        }
    }

    /// Periodic model refresh (§II-B): re-runs fault localization and
    /// re-fits the per-VM predictors on the full history. Newly
    /// implicated VMs gain predictors; VMs whose refresh fails keep their
    /// previous model. Skipped while the SLO is violated or an episode is
    /// open (refreshing mid-anomaly would contaminate the discretizer
    /// ranges and reset stream positions at the worst moment).
    fn maybe_retrain(&mut self, now: Timestamp, slo_violated: bool) {
        let Some(interval) = self.config.retrain_interval else {
            return;
        };
        let Some(anchor) = self.last_retrain.or(self.trained_at) else {
            return;
        };
        if now.since(anchor) < interval || slo_violated || self.any_episode_open() {
            return;
        }
        self.last_retrain = Some(now);
        self.train_models(now);
    }

    /// Attributes blamed with positive strength, most responsible first.
    fn positive_ranking(prediction: &prepare_anomaly::Prediction) -> Vec<AttributeKind> {
        prediction
            .strengths
            .iter()
            .filter(|s| s.strength > 0.0)
            .filter_map(|s| AttributeKind::from_index(s.attribute))
            .collect()
    }

    fn predictive_round(
        &mut self,
        now: Timestamp,
        slo_violated: bool,
        violation_confirmed: bool,
        io: &mut ClusterIo<'_>,
    ) {
        let mut confirmed: Vec<(usize, VmId, Vec<AttributeKind>)> = Vec::new();

        if self.scheme == Scheme::Prepare {
            // Per-VM Markov + TAN scoring is the round's hot path: shard
            // it across workers, then replay the results sequentially in
            // slot order so events and filter updates land exactly as
            // the sequential loop would emit them.
            for (slot, vm, prediction) in self.predict_all(self.config.look_ahead) {
                // xtask-allow: index-in-loop -- predict_all only returns slots of the table
                let rec = &mut self.table[slot];
                // No trustworthy evidence this round: the prediction ran
                // on coasting model state, so it is neither an alert nor
                // a "normal" vote — the k-of-W window holds its ground.
                if rec.degraded {
                    rec.filter.push_vote(Vote::Abstain);
                    continue;
                }
                if prediction.is_alert() {
                    self.events.push(ControllerEvent::AlertRaised {
                        at: now,
                        vm,
                        score: prediction.score,
                    });
                }
                if rec.filter.push(prediction.is_alert()) {
                    confirmed.push((slot, vm, Self::positive_ranking(&prediction)));
                }
            }
        }

        let workload_change = self.inference.workload_change(now);
        if workload_change && !self.last_workload_change {
            self.events
                .push(ControllerEvent::WorkloadChangeInferred { at: now });
        }
        self.last_workload_change = workload_change;

        // A settling period right after training lets filter windows and
        // slow metrics (Load5) flush the just-ended training anomaly's
        // residue before alert-driven actions are allowed.
        let settled = self
            .trained_at
            .is_some_and(|t| now.since(t).as_secs() >= TRAINING_SETTLE_SECS);
        for (slot, vm, ranking) in confirmed {
            // xtask-allow: index-in-loop -- confirmed slots come from predict_all
            let rec = &mut self.table[slot];
            if !settled || rec.episode.is_some() || rec.is_suppressed(now) {
                continue;
            }
            self.events.push(ControllerEvent::AlertConfirmed {
                at: now,
                vm,
                ranked_attributes: ranking.clone(),
            });
            rec.episode = Some(Episode::open(vm, now, ranking));
            self.act(slot, now, slo_violated, io);
        }

        // Reactive path: the violation is already here and no predictive
        // episode covers it — PREPARE's fallback, and the only path for
        // the reactive baseline scheme.
        if violation_confirmed && !self.any_episode_open() {
            for (slot, vm, ranking) in self.reactive_diagnosis() {
                // xtask-allow: index-in-loop -- diagnosed slots come from predict_all
                let rec = &mut self.table[slot];
                // A degraded VM cannot be diagnosed — its model has seen
                // no fresh data, so blaming it would be guesswork.
                if rec.is_suppressed(now) || rec.degraded {
                    continue;
                }
                self.events
                    .push(ControllerEvent::ReactiveTriggered { at: now, vm });
                rec.episode = Some(Episode::open(vm, now, ranking));
                self.act(slot, now, slo_violated, io);
            }
        }
    }

    /// Scores every predictor at `horizon`, sharded per VM with results
    /// merged back into slot order; slots without a predictor are not
    /// visited. Prediction is a read-only pass over independent per-VM
    /// models, so the scores are bit-identical to querying each VM in a
    /// sequential loop.
    fn predict_all(&self, horizon: Duration) -> Vec<(usize, VmId, prepare_anomaly::Prediction)> {
        let holders: Vec<(usize, VmId, &AnomalyPredictor)> = self
            .table
            .iter()
            .zip(&self.vms)
            .enumerate()
            .filter_map(|(slot, (rec, &vm))| rec.predictor.as_ref().map(|p| (slot, vm, p)))
            .collect();
        prepare_par::par_map(&self.config.par, holders, |(slot, vm, p)| {
            (slot, vm, p.predict(horizon))
        })
    }

    /// Diagnoses the current (not predicted) state: faulty VMs are those
    /// whose models classify the present sample abnormal; if none does,
    /// the highest-scoring VM is blamed, the lowest slot among equals.
    fn reactive_diagnosis(&self) -> Vec<(usize, VmId, Vec<AttributeKind>)> {
        let now_states = self.predict_all(Duration::ZERO);
        let blame = |(slot, vm, state): &(usize, VmId, prepare_anomaly::Prediction)| {
            (*slot, *vm, Self::positive_ranking(state))
        };
        let alerting = now_states.iter().filter(|(_, _, state)| state.is_alert());
        let faulty: Vec<_> = alerting.map(blame).collect();
        if !faulty.is_empty() {
            return faulty;
        }
        let best = now_states.iter().reduce(|best, next| {
            if next.2.score > best.2.score {
                next
            } else {
                best
            }
        });
        best.map(blame).into_iter().collect()
    }

    /// Plans and executes the next prevention action for the episode
    /// open at `slot`.
    ///
    /// `slo_violated` gates the migration fallback under the
    /// scaling-first policy: live migration is disruptive (a brown-out of
    /// several seconds), so it is only worth reaching for while the SLO
    /// is actually broken — a lingering alert on an out-of-distribution
    /// but healthy state must not trigger it. Under the migration-first
    /// policy, early (pre-violation) migration is the whole point
    /// (Fig. 9), so it stays allowed.
    fn act(&mut self, slot: usize, now: Timestamp, slo_violated: bool, io: &mut ClusterIo<'_>) {
        let rec = &mut self.table[slot];
        let Some(episode) = rec.episode.as_mut() else {
            return;
        };
        let vm = episode.vm;
        // A transiently rejected action is waiting out its backoff; the
        // scheduled retry — not this call — owns the next attempt.
        if episode.retry_at.is_some_and(|t| now < t) {
            return;
        }
        episode.retry_at = None;
        let recently_migrated = rec
            .last_migration
            .is_some_and(|t| now.since(t).as_secs() < MIGRATION_COOLDOWN_SECS);
        let migration_warranted = match self.config.policy {
            crate::PreventionPolicy::MigrationFirst => true,
            crate::PreventionPolicy::ScalingFirst => slo_violated,
        };
        let allow_migration = !episode.migrated && !recently_migrated && migration_warranted;
        let action = io.plan(
            &self.planner,
            vm,
            &episode.candidates,
            allow_migration,
            &episode.ineffective_resources,
        );
        let (reason, kind) = match action {
            Some(a) => match io.execute(&self.planner, a, now) {
                None => {
                    let was_migration = matches!(a, PlannedAction::Migrate { .. });
                    if was_migration {
                        rec.last_migration = Some(now);
                    }
                    if let PlannedAction::Migrate { target, .. } = a {
                        episode.migration_target = Some(target);
                    }
                    episode.record_action(now, was_migration);
                    episode.last_resource = a.resource();
                    episode.failures = 0;
                    episode.transient_attempts = 0;
                    let attribute = match a {
                        PlannedAction::Migrate { .. } => None,
                        _ => episode.active_attribute(),
                    };
                    self.events.push(ControllerEvent::ActionIssued {
                        at: now,
                        vm,
                        action: a.to_string(),
                        attribute,
                    });
                    return;
                }
                Some(err)
                    if err.transient && episode.transient_attempts < TRANSIENT_RETRY_LIMIT =>
                {
                    // The hypervisor control plane is busy: defer, don't
                    // fail. Backoff doubles per attempt, capped.
                    episode.transient_attempts += 1;
                    let base = match a {
                        PlannedAction::Migrate { .. } => MIGRATE_RETRY_BASE_SECS,
                        _ => SCALE_RETRY_BASE_SECS,
                    };
                    let backoff =
                        (base << (episode.transient_attempts - 1)).min(RETRY_BACKOFF_CAP_SECS);
                    let retry_at = now + Duration::from_secs(backoff);
                    episode.retry_at = Some(retry_at);
                    self.events.push(ControllerEvent::ActionRetried {
                        at: now,
                        vm,
                        action: a.to_string(),
                        attempt: episode.transient_attempts,
                        retry_at,
                    });
                    return;
                }
                // The hypervisor stayed busy through the whole backoff
                // schedule: give up on this candidate and fall through to
                // the next-ranked attribute.
                Some(err) if err.transient => {
                    episode.advance_candidate();
                    (err.message, ActionFailureKind::RetriesExhausted)
                }
                Some(err) => (err.message, ActionFailureKind::ExecutionFailed),
            },
            None => (
                "no applicable prevention action".to_string(),
                ActionFailureKind::NoApplicableAction,
            ),
        };
        episode.transient_attempts = 0;
        episode.failures += 1;
        let abandon = episode.failures >= MAX_EPISODE_FAILURES;
        self.events.push(ControllerEvent::ActionFailed {
            at: now,
            vm,
            reason,
            kind,
        });
        if abandon {
            rec.episode = None;
            rec.filter.reset();
            let suppressed_until = now + Duration::from_secs(SUPPRESSION_SECS);
            rec.suppressed_until = Some(suppressed_until);
            self.events.push(ControllerEvent::ActionAbandoned {
                at: now,
                vm,
                suppressed_until,
            });
        }
    }

    /// Re-attempts actions whose transient-rejection backoff has elapsed,
    /// in VM-id order.
    ///
    /// A due retry for a VM whose monitoring is degraded stays parked:
    /// actuating a VM the controller is blind on could not be validated
    /// (and would race the very infrastructure fault that blinded it), so
    /// the attempt fires on the first round after monitoring recovers.
    fn process_retries(&mut self, now: Timestamp, slo_violated: bool, io: &mut ClusterIo<'_>) {
        let due: Vec<usize> = self
            .by_id
            .iter()
            .copied()
            .filter(|&slot| {
                let rec = &self.table[slot];
                let retry_at = rec.episode.as_ref().and_then(|ep| ep.retry_at);
                !rec.degraded && retry_at.is_some_and(|t| now >= t)
            })
            .collect();
        for slot in due {
            self.act(slot, now, slo_violated, io);
        }
    }

    /// Runs the look-back/look-ahead validation over open episodes, in
    /// VM-id order.
    fn validate_episodes(&mut self, now: Timestamp, slo_violated: bool, io: &mut ClusterIo<'_>) {
        let window = VALIDATION_WINDOW;

        // Observe migration outcomes first: an issued migration that is
        // no longer in flight either switched over (the VM now lives on
        // its target) or was torn down mid-copy and rolled back to the
        // source host. A rollback un-marks the episode's migration so the
        // move can be re-planned once the infrastructure recovers.
        for &slot in &self.by_id {
            // xtask-allow: index-in-loop -- by_id permutes the table's slots
            let rec = &mut self.table[slot];
            let Some(ep) = rec.episode.as_mut() else {
                continue;
            };
            let Some(target) = ep.migration_target else {
                continue;
            };
            let (migrating, host) = io.vm_state(ep.vm);
            if migrating {
                continue;
            }
            ep.migration_target = None;
            if host != target {
                ep.migrated = false;
                // Fresh attempt after the validation window, via the
                // stalled-episode path.
                ep.last_action_at = None;
                rec.last_migration = None;
                self.events.push(ControllerEvent::ActionRolledBack {
                    at: now,
                    vm: ep.vm,
                    target: target.to_string(),
                });
            }
        }

        // Verdicts that act on the cluster wait until every episode has
        // been judged against the same cluster state.
        let mut escalate = Vec::new();
        let mut retry = Vec::new();
        for &slot in &self.by_id {
            // xtask-allow: index-in-loop -- by_id permutes the table's slots
            let rec = &mut self.table[slot];
            let Some(episode) = &rec.episode else {
                continue;
            };
            // No trustworthy samples for this VM: freeze the episode
            // rather than judge an action on held-over data.
            if rec.degraded {
                continue;
            }
            // A stalled episode whose action could never be issued gets a
            // fresh attempt each validation window.
            if episode.last_action_at.is_none() {
                if now.since(episode.opened) >= window {
                    retry.push(slot);
                }
                continue;
            }
            // Persistence is judged by the SLO itself ("the prediction
            // models stop sending any anomaly alert (i.e., SLO violation
            // is gone)", §II-D). After an action has changed the VM's
            // allocation, the classifier runs on states outside its
            // training distribution, so its lingering alerts must not
            // escalate a working mitigation into a disruptive one.
            let still_anomalous = slo_violated;
            let changed = match (episode.active_attribute(), episode.last_action_at) {
                (Some(attr), Some(acted)) => usage_changed(&rec.series, attr, acted, window),
                // Migration-only episodes: "usage change" is the host move
                // itself having completed.
                (None, Some(_)) => !io.vm_state(episode.vm).0 && episode.migrated,
                _ => false,
            };
            match episode.validate(now, window, still_anomalous, changed) {
                ValidationOutcome::Resolved => {
                    let vm = episode.vm;
                    rec.episode = None;
                    rec.filter.reset();
                    self.events
                        .push(ControllerEvent::ValidationSucceeded { at: now, vm });
                }
                ValidationOutcome::Ineffective => escalate.push(slot),
                // A retry that has already hit the per-candidate cap means
                // the blamed metric responds to scaling without fixing the
                // anomaly — wrong metric; move down the ranking.
                ValidationOutcome::Retry if episode.candidate_exhausted() => escalate.push(slot),
                ValidationOutcome::Retry => retry.push(slot),
                ValidationOutcome::Pending => {}
            }
        }

        for slot in escalate {
            // xtask-allow: index-in-loop -- escalated slots were read off by_id above
            if let Some(ep) = self.table[slot].episode.as_mut() {
                self.events
                    .push(ControllerEvent::ValidationIneffective { at: now, vm: ep.vm });
                // The blamed metric did not respond (or responded without
                // fixing anything): retire both the metric and — once a
                // resource's scaling has provably not helped — the whole
                // resource, so the planner escalates to migration.
                ep.mark_resource_ineffective();
                ep.advance_candidate();
            }
            self.act(slot, now, slo_violated, io);
        }
        for slot in retry {
            self.act(slot, now, slo_violated, io);
        }
    }

    /// Appends an externally produced event (checkpoint/journal/recovery
    /// bookkeeping from the recovery manager) to the controller's log.
    pub(crate) fn record_event(&mut self, event: ControllerEvent) {
        self.events.push(event);
    }

    /// Serializes everything *except* the event log: the state whose
    /// byte-identity the recovery-equivalence proofs compare. A recovered
    /// controller's log legitimately carries extra crash/recovery events,
    /// so the log must not perturb [`PrepareController::model_fingerprint`].
    ///
    /// The table is written as exactly `vms.len()` records with no length
    /// of its own: the VM count is stored once.
    pub(crate) fn store_core(&self, w: &mut Writer) {
        self.store_core_parts(w, |_| {});
    }

    /// [`PrepareController::store_core`] in parts: the head, each VM's
    /// record, the tail, calling `part_done` on `w` after each. A caller
    /// that only folds the bytes can drain `w` there and never hold more
    /// than one VM's record.
    fn store_core_parts(&self, w: &mut Writer, mut part_done: impl FnMut(&mut Writer)) {
        let Self {
            config,
            scheme,
            vms,
            table,
            by_id: _, // pure function of vms, rebuilt on restore
            slo,
            inference,
            planner: _, // pure function of config, rebuilt on restore
            violation_filter,
            trained_at,
            last_retrain,
            last_workload_change,
            events: _, // written after the core by `store_events`
        } = self;
        config.store_state(w);
        scheme.store(w);
        vms.store(w);
        part_done(w);
        for rec in table {
            rec.store_state(w);
            part_done(w);
        }
        slo.store(w);
        inference.store_state(w);
        violation_filter.store_state(w);
        trained_at.store(w);
        last_retrain.store(w);
        last_workload_change.store(w);
        part_done(w);
    }

    /// Serializes the event log, the part of the state that follows the
    /// core in [`PrepareController::store_state`].
    pub(crate) fn store_events(&self, w: &mut Writer) {
        self.events.store(w);
    }

    /// Serializes the complete controller state — models, filters, vote
    /// windows, episodes with their retry/backoff machines, staleness
    /// bookkeeping, and the event log — through the exact binary codec.
    /// The planner is not stored: it is a pure function of the config and
    /// is rebuilt on restore.
    pub fn store_state(&self, w: &mut Writer) {
        self.store_core(w);
        self.store_events(w);
    }

    /// Restores a controller checkpointed by
    /// [`PrepareController::store_state`], adopting the worker
    /// configuration of the recovering process.
    ///
    /// # Errors
    ///
    /// Returns a [`PersistError`] when the bytes are truncated, carry
    /// unknown tags, or violate controller invariants: an empty VM set, a
    /// VM id stored twice, an episode filed under another VM's slot, or
    /// inconsistent tunables.
    pub fn load_state(r: &mut Reader<'_>, par: ParConfig) -> Result<Self, PersistError> {
        let config = PrepareConfig::load_state(r, par)?;
        let scheme = Scheme::load(r)?;
        let vms = Vec::<VmId>::load(r)?;
        if vms.is_empty() {
            return Err(PersistError::Invalid("PrepareController vms"));
        }
        let (by_id, distinct) = slots_by_id(&vms);
        if !distinct {
            return Err(PersistError::Invalid("PrepareController duplicate VM id"));
        }
        let mut table = Vec::with_capacity(bounded_capacity::<VmRecord>(vms.len(), r));
        for &vm in &vms {
            let rec = VmRecord::load_state(r, &config)?;
            if rec.episode.as_ref().is_some_and(|ep| ep.vm != vm) {
                return Err(PersistError::Invalid("PrepareController episode slot"));
            }
            table.push(rec);
        }
        let slo = SloLog::load(r)?;
        let inference = CauseInference::load_state(
            r,
            &vms,
            config.workload_change_quorum,
            change_recency_secs(&config),
            config.par,
        )?;
        let violation_filter = AlertFilter::load_state(r, config.filter_k, config.filter_w)?;
        let trained_at = Option::load(r)?;
        let last_retrain = Option::load(r)?;
        let last_workload_change = bool::load(r)?;
        let events = Vec::load(r)?;
        let planner = PreventionPlanner::new(config.policy, config.scale_factor);
        Ok(PrepareController {
            config,
            scheme,
            vms,
            table,
            by_id,
            slo,
            inference,
            planner,
            violation_filter,
            trained_at,
            last_retrain,
            last_workload_change,
            events,
        })
    }

    /// FNV-1a fingerprint of the serialized core state (everything except
    /// the event log). Two controllers with equal fingerprints hold
    /// byte-identical models, filters, and episode machines — the
    /// equality the crash-point sweep asserts between a recovered
    /// controller and its uninterrupted referee.
    ///
    /// The value is `Fingerprint64::write_bytes` of the whole image, but
    /// the image is never held: its length is counted first, then its
    /// bytes are folded one VM's record at a time. A fleet's image runs
    /// to tens of megabytes, and a buffer that size, grown by doubling
    /// and dropped again, is what set the process's peak resident set.
    pub fn model_fingerprint(&self) -> u64 {
        let mut fp = Fingerprint64::new();
        fp.write_usize(self.core_state_bytes());
        let mut w = Writer::new();
        self.store_core_parts(&mut w, |w| {
            for &b in w.bytes() {
                fp.write_u8(b);
            }
            w.clear();
        });
        fp.finish()
    }

    /// Size in bytes of the serialized core state (everything except the
    /// event log) — the figure [`ControllerEvent::CheckpointTaken`]
    /// reports, chosen so referee and recovered runs (whose logs differ
    /// by the crash/recovery events) emit byte-identical checkpoints
    /// bookkeeping.
    pub fn core_state_bytes(&self) -> usize {
        let mut bytes = 0;
        let mut w = Writer::new();
        self.store_core_parts(&mut w, |w| {
            bytes += w.len();
            w.clear();
        });
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prepare_metrics::MetricVector;

    fn mk_controller(scheme: Scheme) -> PrepareController {
        PrepareController::new(vec![VmId(0), VmId(1)], PrepareConfig::default(), scheme)
    }

    /// The episode open at `slot`.
    fn episode(ctl: &PrepareController, slot: usize) -> &Episode {
        ctl.table[slot].episode.as_ref().expect("an open episode")
    }

    fn sample_for(t: u64, cpu: f64, free_mem: f64) -> MetricSample {
        let v = MetricVector::from_fn(|a| match a {
            AttributeKind::CpuTotal => cpu,
            AttributeKind::CpuUser => cpu * 0.7,
            AttributeKind::FreeMem => free_mem,
            AttributeKind::Load1 => cpu / 50.0,
            // Exhausted memory pages hard — the localization marker.
            AttributeKind::PageFaults => {
                if free_mem <= 0.0 {
                    600.0
                } else {
                    0.0
                }
            }
            _ => 10.0,
        });
        MetricSample::new(Timestamp::from_secs(t), v)
    }

    /// Drives a two-VM controller through a synthetic leak-like anomaly on
    /// VM 0: free memory ramps to zero over 50 samples, stays depleted
    /// (heavy paging) for 20 samples, then recovers; the SLO breaks while
    /// free memory is below 50 MB. One 120-sample period = 600 s.
    /// `rounds` is a half-open range of sampling rounds so the scenario
    /// can be continued across calls.
    /// VM 0's free memory in round `i` of the recurring leak: flat, a
    /// 50-round drain, 20 rounds exhausted, flat again; period 120.
    fn leaking_free_mem(i: u64) -> f64 {
        let phase = i % 120;
        match phase {
            0..=39 => 500.0,
            40..=89 => 500.0 - (phase - 39) as f64 * 10.0,
            90..=109 => 0.0,
            _ => 500.0,
        }
    }

    fn drive(
        controller: &mut PrepareController,
        cluster: &mut Cluster,
        rounds: std::ops::Range<u64>,
    ) {
        for i in rounds {
            let t = i * 5;
            let free = leaking_free_mem(i);
            let violated = free < 50.0;
            let samples = vec![
                (VmId(0), sample_for(t, 40.0, free)),
                (VmId(1), sample_for(t, 30.0, 400.0)),
            ];
            controller.on_sample(Timestamp::from_secs(t), &samples, violated, cluster);
        }
    }

    fn test_cluster() -> Cluster {
        let mut c = Cluster::new();
        let h0 = c.add_host(prepare_cloudsim::HostSpec::vcl_default());
        let h1 = c.add_host(prepare_cloudsim::HostSpec::vcl_default());
        c.create_vm(h0, 100.0, 512.0).unwrap();
        c.create_vm(h1, 100.0, 512.0).unwrap();
        c.add_host(prepare_cloudsim::HostSpec::vcl_default());
        c
    }

    #[test]
    fn trains_after_first_anomaly_completes() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Prepare);
        drive(&mut ctl, &mut c, 0..100);
        assert!(
            !ctl.is_trained(),
            "should not train mid-anomaly or too early"
        );
        drive(&mut ctl, &mut c, 100..160); // past the first anomaly + quiet period
        assert!(ctl.is_trained());
        assert!(ctl
            .events()
            .iter()
            .any(|e| matches!(e, ControllerEvent::ModelsTrained { .. })));
    }

    #[test]
    fn no_intervention_scheme_is_inert() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::NoIntervention);
        drive(&mut ctl, &mut c, 0..300);
        assert!(!ctl.is_trained());
        assert!(ctl.events().is_empty());
        assert!(c.actions().is_empty());
    }

    #[test]
    fn prepare_scheme_predicts_and_acts_on_recurrence() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Prepare);
        drive(&mut ctl, &mut c, 0..360); // three anomaly cycles
        assert!(ctl.is_trained());
        let alerts = ctl
            .events()
            .iter()
            .filter(|e| matches!(e, ControllerEvent::AlertRaised { .. }))
            .count();
        assert!(alerts > 0, "predictor should raise alerts on recurrences");
        let actions = ctl
            .events()
            .iter()
            .filter(|e| matches!(e, ControllerEvent::ActionIssued { .. }))
            .count();
        assert!(actions > 0, "confirmed alerts should actuate prevention");
        assert!(!c.actions().is_empty());
    }

    /// A cluster with zero scaling headroom and no migration target: all
    /// prevention attempts must fail cleanly, cap out, and suppress the
    /// VM instead of spinning.
    #[test]
    fn full_cluster_fails_closed_and_suppresses() {
        let mut c = Cluster::new();
        let h0 = c.add_host(prepare_cloudsim::HostSpec::vcl_default());
        // Two VMs filling the only host completely; no spare host at all.
        c.create_vm(h0, 100.0, 2048.0).unwrap();
        c.create_vm(h0, 100.0, 2048.0).unwrap();
        let mut ctl = mk_controller(Scheme::Prepare);
        drive(&mut ctl, &mut c, 0..360);
        // The anomaly persists across cycles, actions keep failing...
        let failures = ctl
            .events()
            .iter()
            .filter(|e| matches!(e, ControllerEvent::ActionFailed { .. }))
            .count();
        assert!(
            failures > 0,
            "prevention should have been attempted and failed"
        );
        // ...but never touch the hypervisor state...
        assert_eq!(c.vm(VmId(0)).cpu_alloc, 100.0);
        assert_eq!(c.vm(VmId(0)).mem_alloc_mb, 2048.0);
        assert!(
            c.actions().is_empty(),
            "no action can be applied on a full cluster"
        );
        // ...and the failure cap bounds the churn (abandon + suppression,
        // not an unbounded retry storm).
        assert!(
            failures < 60,
            "failure suppression should bound the churn, got {failures}"
        );
    }

    #[test]
    fn periodic_retraining_refreshes_models() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Prepare);
        // 600 rounds = 3000 s: initial training plus at least two
        // 600 s refreshes in quiet periods.
        drive(&mut ctl, &mut c, 0..600);
        let trainings = ctl
            .events()
            .iter()
            .filter(|e| matches!(e, ControllerEvent::ModelsTrained { .. }))
            .count();
        assert!(
            trainings >= 2,
            "expected initial training plus refreshes, got {trainings}"
        );
    }

    #[test]
    fn retraining_can_be_disabled() {
        let mut c = test_cluster();
        let config = PrepareConfig {
            retrain_interval: None,
            ..PrepareConfig::default()
        };
        let mut ctl = PrepareController::new(vec![VmId(0), VmId(1)], config, Scheme::Prepare);
        drive(&mut ctl, &mut c, 0..600);
        let trainings = ctl
            .events()
            .iter()
            .filter(|e| matches!(e, ControllerEvent::ModelsTrained { .. }))
            .count();
        assert_eq!(trainings, 1, "only the initial training should fire");
    }

    #[test]
    fn reactive_scheme_acts_only_on_violation() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Reactive);
        drive(&mut ctl, &mut c, 0..300);
        assert!(ctl.is_trained());
        // Reactive never raises predictive alerts...
        assert!(!ctl
            .events()
            .iter()
            .any(|e| matches!(e, ControllerEvent::AlertRaised { .. })));
        // ...but does trigger on actual violations.
        assert!(ctl
            .events()
            .iter()
            .any(|e| matches!(e, ControllerEvent::ReactiveTriggered { .. })));
    }

    #[test]
    fn reactive_trigger_blames_the_faulty_vm() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Reactive);
        drive(&mut ctl, &mut c, 0..300);
        for e in ctl.events() {
            if let ControllerEvent::ReactiveTriggered { vm, .. } = e {
                assert_eq!(*vm, VmId(0), "only VM 0 carries the anomaly signature");
            }
        }
    }

    /// Satellite regression: a round whose prevention attempt fails
    /// increments `episode.failures` exactly once, the event carries the
    /// structured kind, and the episode abandons at the cap.
    #[test]
    fn failed_round_counts_one_failure() {
        // Zero headroom, no migration target: the planner has nothing.
        let mut c = Cluster::new();
        let h0 = c.add_host(prepare_cloudsim::HostSpec::vcl_default());
        c.create_vm(h0, 100.0, 2048.0).unwrap();
        c.create_vm(h0, 100.0, 2048.0).unwrap();
        let mut ctl = mk_controller(Scheme::Prepare);
        ctl.table[0].episode = Some(Episode::open(
            VmId(0),
            Timestamp::ZERO,
            vec![AttributeKind::FreeMem],
        ));
        for round in 1..=MAX_EPISODE_FAILURES {
            let now = Timestamp::from_secs(round as u64 * 30);
            ctl.act(0, now, true, &mut ClusterIo::live(&mut c));
            let failed = ctl
                .events
                .iter()
                .filter(|e| matches!(e, ControllerEvent::ActionFailed { .. }))
                .count();
            assert_eq!(failed, round, "exactly one failure per failed round");
            if round < MAX_EPISODE_FAILURES {
                assert_eq!(episode(&ctl, 0).failures, round);
            }
        }
        assert!(
            ctl.table[0].episode.is_none(),
            "episode abandons at the failure cap"
        );
        assert!(ctl.table[0].suppressed_until.is_some());
        // Abandonment is observable: the terminal event names the VM and
        // the end of its suppression window.
        let last_round = Timestamp::from_secs(MAX_EPISODE_FAILURES as u64 * 30);
        assert!(
            ctl.events.iter().any(|e| matches!(
                e,
                ControllerEvent::ActionAbandoned { at, vm, suppressed_until }
                    if *vm == VmId(0)
                        && *at == last_round
                        && *suppressed_until
                            == last_round + Duration::from_secs(SUPPRESSION_SECS)
            )),
            "abandonment must emit a terminal ActionAbandoned event"
        );
        // "Nothing to try" is structurally distinguishable from a real
        // execution failure.
        for e in &ctl.events {
            if let ControllerEvent::ActionFailed { kind, reason, .. } = e {
                assert_eq!(*kind, ActionFailureKind::NoApplicableAction);
                assert_eq!(reason, "no applicable prevention action");
            }
        }
    }

    /// A busy hypervisor defers the action (with backoff) instead of
    /// failing the episode; the due retry issues it once the control
    /// plane recovers.
    #[test]
    fn busy_hypervisor_defers_then_issues() {
        let mut c = test_cluster();
        c.set_hypervisor_busy(true);
        let mut ctl = mk_controller(Scheme::Prepare);
        ctl.table[0].episode = Some(Episode::open(
            VmId(0),
            Timestamp::ZERO,
            vec![AttributeKind::CpuTotal],
        ));
        ctl.act(0, Timestamp::ZERO, true, &mut ClusterIo::live(&mut c));
        {
            let ep = episode(&ctl, 0);
            assert_eq!(ep.transient_attempts, 1);
            assert_eq!(ep.failures, 0, "a deferred action is not a failure");
            assert_eq!(
                ep.retry_at,
                Some(Timestamp::from_secs(SCALE_RETRY_BASE_SECS))
            );
        }
        assert!(matches!(
            ctl.events.last(),
            Some(ControllerEvent::ActionRetried { attempt: 1, .. })
        ));
        // Before the backoff elapses, act() is a no-op.
        ctl.act(
            0,
            Timestamp::from_secs(2),
            true,
            &mut ClusterIo::live(&mut c),
        );
        assert_eq!(episode(&ctl, 0).transient_attempts, 1);
        // The control plane recovers; the due retry issues the action.
        c.set_hypervisor_busy(false);
        ctl.process_retries(
            Timestamp::from_secs(SCALE_RETRY_BASE_SECS),
            true,
            &mut ClusterIo::live(&mut c),
        );
        assert!(matches!(
            ctl.events.last(),
            Some(ControllerEvent::ActionIssued { .. })
        ));
        let ep = episode(&ctl, 0);
        assert_eq!(ep.transient_attempts, 0);
        assert_eq!(ep.retry_at, None);
        assert!(!c.actions().is_empty());
    }

    /// A hypervisor that stays busy through the whole backoff schedule
    /// costs one failure and falls through to the next-ranked attribute.
    #[test]
    fn exhausted_retries_fall_through_to_next_candidate() {
        let mut c = test_cluster();
        c.set_hypervisor_busy(true);
        let mut ctl = mk_controller(Scheme::Prepare);
        ctl.table[0].episode = Some(Episode::open(
            VmId(0),
            Timestamp::ZERO,
            vec![AttributeKind::CpuTotal, AttributeKind::FreeMem],
        ));
        let mut now = Timestamp::ZERO;
        ctl.act(0, now, true, &mut ClusterIo::live(&mut c));
        for _ in 0..TRANSIENT_RETRY_LIMIT {
            let Some(retry_at) = episode(&ctl, 0).retry_at else {
                break;
            };
            now = retry_at;
            ctl.process_retries(now, true, &mut ClusterIo::live(&mut c));
        }
        let retried = ctl
            .events
            .iter()
            .filter(|e| matches!(e, ControllerEvent::ActionRetried { .. }))
            .count();
        assert_eq!(retried, TRANSIENT_RETRY_LIMIT);
        assert!(
            matches!(
                ctl.events.last(),
                Some(ControllerEvent::ActionFailed {
                    kind: ActionFailureKind::RetriesExhausted,
                    ..
                })
            ),
            "the attempt after the last backoff exhausts the schedule"
        );
        let ep = episode(&ctl, 0);
        assert_eq!(ep.failures, 1, "exhaustion costs exactly one failure");
        assert_eq!(
            ep.active_attribute(),
            Some(AttributeKind::FreeMem),
            "the episode falls through to the next-ranked attribute"
        );
        assert!(c.actions().is_empty(), "nothing ever touched the cluster");
    }

    /// Backoffs double per attempt: 5, 10, 20, 40 seconds for scaling.
    #[test]
    fn retry_backoff_doubles() {
        let mut c = test_cluster();
        c.set_hypervisor_busy(true);
        let mut ctl = mk_controller(Scheme::Prepare);
        ctl.table[0].episode = Some(Episode::open(
            VmId(0),
            Timestamp::ZERO,
            vec![AttributeKind::CpuTotal],
        ));
        let mut now = Timestamp::ZERO;
        let mut gaps = Vec::new();
        ctl.act(0, now, true, &mut ClusterIo::live(&mut c));
        while let Some(retry_at) = episode(&ctl, 0).retry_at {
            gaps.push(retry_at.since(now).as_secs());
            now = retry_at;
            ctl.process_retries(now, true, &mut ClusterIo::live(&mut c));
        }
        assert_eq!(gaps, vec![5, 10, 20, 40]);
    }

    /// The migration backoff schedule is pinned exactly: 10, 20, 40,
    /// then capped at 60 seconds — [`TRANSIENT_RETRY_LIMIT`] scheduled
    /// attempts in total — and the attempt after the final backoff
    /// exhausts the schedule with a `RetriesExhausted` failure.
    #[test]
    fn migrate_retry_backoff_caps_then_exhausts() {
        let mut c = test_cluster();
        c.set_hypervisor_busy(true);
        let mut ctl = mk_controller(Scheme::Prepare);
        // CPU scaling already judged ineffective: the planner must
        // escalate straight to migration (§II-D).
        let mut ep = Episode::open(VmId(0), Timestamp::ZERO, vec![AttributeKind::CpuTotal]);
        ep.ineffective_resources = vec![prepare_metrics::ScalableResource::Cpu];
        ctl.table[0].episode = Some(ep);
        let mut now = Timestamp::ZERO;
        let mut gaps = Vec::new();
        ctl.act(0, now, true, &mut ClusterIo::live(&mut c));
        while let Some(retry_at) = episode(&ctl, 0).retry_at {
            gaps.push(retry_at.since(now).as_secs());
            now = retry_at;
            ctl.process_retries(now, true, &mut ClusterIo::live(&mut c));
        }
        assert_eq!(
            gaps,
            vec![10, 20, 40, 60],
            "migrate backoff doubles from 10 s and caps at 60 s"
        );
        let attempts: Vec<usize> = ctl
            .events
            .iter()
            .filter_map(|e| match e {
                ControllerEvent::ActionRetried {
                    attempt, action, ..
                } => {
                    assert!(action.starts_with("migrate "), "retried action: {action}");
                    Some(*attempt)
                }
                _ => None,
            })
            .collect();
        assert_eq!(attempts, vec![1, 2, 3, 4], "max four scheduled attempts");
        assert!(
            matches!(
                ctl.events.last(),
                Some(ControllerEvent::ActionFailed {
                    kind: ActionFailureKind::RetriesExhausted,
                    ..
                })
            ),
            "the post-cap attempt exhausts the schedule"
        );
        assert_eq!(episode(&ctl, 0).failures, 1);
        assert!(c.actions().is_empty(), "the VM never moved");
    }

    /// A migration torn down mid-copy is observed at the next validation
    /// round as a rollback: the episode's migration mark clears (so the
    /// move can be re-planned), the cooldown stamp is dropped, and a
    /// terminal `ActionRolledBack` event names the abandoned target.
    #[test]
    fn cancelled_migration_rolls_back_and_replans() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Prepare);
        let mut ep = Episode::open(VmId(0), Timestamp::ZERO, vec![AttributeKind::CpuTotal]);
        ep.ineffective_resources = vec![prepare_metrics::ScalableResource::Cpu];
        ctl.table[0].episode = Some(ep);
        ctl.act(0, Timestamp::ZERO, true, &mut ClusterIo::live(&mut c));
        assert!(
            matches!(
                ctl.events.last(),
                Some(ControllerEvent::ActionIssued {
                    attribute: None,
                    ..
                })
            ),
            "escalation issues a migration (attribute-less action)"
        );
        assert!(c.vm(VmId(0)).is_migrating());
        let target = episode(&ctl, 0).migration_target;
        assert!(target.is_some());
        // The infrastructure tears the migration down mid-copy.
        c.cancel_migration(VmId(0), Timestamp::from_secs(3))
            .unwrap();
        ctl.validate_episodes(Timestamp::from_secs(5), false, &mut ClusterIo::live(&mut c));
        assert!(
            matches!(
                ctl.events
                    .iter()
                    .rev()
                    .find(|e| matches!(e, ControllerEvent::ActionRolledBack { .. })),
                Some(ControllerEvent::ActionRolledBack { vm: VmId(0), .. })
            ),
            "the rollback is observable in the event log"
        );
        let ep = episode(&ctl, 0);
        assert!(!ep.migrated, "a rolled-back move may be re-planned");
        assert_eq!(ep.migration_target, None);
        assert!(
            ctl.table[0].last_migration.is_none(),
            "no cooldown for a migration that never happened"
        );
        // With the mark cleared, the very next act() re-plans the move.
        ctl.act(
            0,
            Timestamp::from_secs(40),
            true,
            &mut ClusterIo::live(&mut c),
        );
        assert!(c.vm(VmId(0)).is_migrating(), "the move is re-planned");
    }

    /// A monitoring gap is papered over by hold-last-value imputation for
    /// the budget's length, then degrades the VM (abstaining, not voting
    /// "normal"); fresh data recovers it. Edge events fire exactly once
    /// per transition.
    #[test]
    fn monitoring_gap_degrades_then_recovers() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Prepare);
        drive(&mut ctl, &mut c, 0..160);
        assert!(ctl.is_trained());
        assert!(ctl.degraded_vms().is_empty());
        let t0 = 160 * 5;
        // Eight rounds with VM 0's samples lost entirely.
        for i in 0..8u64 {
            let t = t0 + i * 5;
            let readings = vec![(VmId(1), StampedSample::fresh(sample_for(t, 30.0, 400.0)))];
            ctl.on_readings(Timestamp::from_secs(t), &readings, false, &mut c);
            // Within the 15 s budget the held value keeps the VM covered.
            // The last real sample landed one round before the gap, so
            // its age at gap round i is (i + 1) * 5 seconds.
            let budget_elapsed = (i + 1) * 5 > prepare_metrics::DEFAULT_STALENESS_SECS;
            assert_eq!(ctl.is_degraded(VmId(0)), budget_elapsed, "round {i}");
        }
        let degraded_events = ctl
            .events
            .iter()
            .filter(|e| matches!(e, ControllerEvent::MonitoringDegraded { vm: VmId(0), .. }))
            .count();
        assert_eq!(degraded_events, 1, "edge-triggered, not level-triggered");
        assert!(
            ctl.table[0].filter.abstentions() > 0,
            "degraded rounds abstain instead of voting"
        );
        // Fresh data returns: recovered exactly once.
        let t = t0 + 8 * 5;
        let readings = vec![
            (VmId(0), StampedSample::fresh(sample_for(t, 40.0, 500.0))),
            (VmId(1), StampedSample::fresh(sample_for(t, 30.0, 400.0))),
        ];
        ctl.on_readings(Timestamp::from_secs(t), &readings, false, &mut c);
        assert!(!ctl.is_degraded(VmId(0)));
        let recovered_events = ctl
            .events
            .iter()
            .filter(|e| matches!(e, ControllerEvent::MonitoringRecovered { vm: VmId(0), .. }))
            .count();
        assert_eq!(recovered_events, 1);
    }

    /// `on_readings` with every reading fresh is byte-identical to the
    /// legacy `on_sample` path.
    #[test]
    fn fresh_readings_match_on_sample_exactly() {
        let mut c1 = test_cluster();
        let mut c2 = test_cluster();
        let mut a = mk_controller(Scheme::Prepare);
        let mut b = mk_controller(Scheme::Prepare);
        for i in 0..200u64 {
            let t = i * 5;
            let phase = i % 120;
            let free = match phase {
                0..=39 => 500.0,
                40..=89 => 500.0 - (phase - 39) as f64 * 10.0,
                90..=109 => 0.0,
                _ => 500.0,
            };
            let violated = free < 50.0;
            let samples = vec![
                (VmId(0), sample_for(t, 40.0, free)),
                (VmId(1), sample_for(t, 30.0, 400.0)),
            ];
            let readings: Vec<(VmId, StampedSample)> = samples
                .iter()
                .map(|&(vm, s)| (vm, StampedSample::fresh(s)))
                .collect();
            let now = Timestamp::from_secs(t);
            let ea = a.on_sample(now, &samples, violated, &mut c1);
            let eb = b.on_readings(now, &readings, violated, &mut c2);
            assert_eq!(ea, eb, "round {i}");
        }
        assert_eq!(a.events, b.events);
        assert_eq!(c1, c2);
    }

    /// The tentpole equivalence at unit scale: checkpoint a mid-scenario
    /// controller, restore it, and both copies must evolve byte-
    /// identically (events, cluster effects, and core-state fingerprint)
    /// through two more anomaly cycles.
    #[test]
    fn checkpoint_restores_byte_identical_controller() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Prepare);
        drive(&mut ctl, &mut c, 0..200);
        assert!(ctl.is_trained(), "checkpoint must capture trained models");
        let mut w = Writer::new();
        ctl.store_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let mut back =
            PrepareController::load_state(&mut r, ctl.config.par).expect("checkpoint loads");
        assert!(r.is_exhausted(), "no trailing checkpoint bytes");
        assert_eq!(back.model_fingerprint(), ctl.model_fingerprint());
        assert_eq!(back.events, ctl.events);
        let mut c2 = c.clone();
        drive(&mut ctl, &mut c, 200..440);
        drive(&mut back, &mut c2, 200..440);
        assert_eq!(ctl.events, back.events, "post-restore traces diverged");
        assert_eq!(c, c2, "post-restore cluster effects diverged");
        assert_eq!(back.model_fingerprint(), ctl.model_fingerprint());
    }

    /// The fingerprint and the size are taken part by part, but they are
    /// still those of the whole core image.
    #[test]
    fn fingerprint_and_size_are_those_of_the_whole_core_image() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Prepare);
        drive(&mut ctl, &mut c, 0..200);
        assert!(ctl.is_trained());
        let mut w = Writer::new();
        ctl.store_core(&mut w);
        let mut fp = Fingerprint64::new();
        fp.write_bytes(w.bytes());
        assert_eq!(ctl.model_fingerprint(), fp.finish());
        assert_eq!(ctl.core_state_bytes(), w.len());
    }

    /// Each sample is held once: a quiet round (no violation, no alert, no
    /// episode) adds one encoded sample per VM to the core state — 8 B of
    /// time and 13 × 8 B of values — and nothing else.
    #[test]
    fn quiet_round_grows_the_core_state_by_one_sample_per_vm() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Prepare);
        drive(&mut ctl, &mut c, 0..10);
        for round in 10..30 {
            let before = ctl.core_state_bytes();
            drive(&mut ctl, &mut c, round..round + 1);
            assert_eq!(
                ctl.core_state_bytes() - before,
                ctl.vms.len() * 112,
                "round {round}"
            );
        }
    }

    /// A fresh controller's core state grows per VM by the VM's one id,
    /// its empty record and its detector's CUSUM state: the detector is
    /// stored without an id and without the CUSUM tunables.
    #[test]
    fn a_fresh_vm_costs_its_id_record_and_detector_state() {
        const ID: usize = 8;
        const LEN: usize = 8;
        const COUNT: usize = 8;
        const F64: usize = 8;
        const TAG: usize = 1;
        // Series, predictor tag, filter window and abstention odometer,
        // episode, last migration, suppression, imputer, degraded flag.
        const RECORD: usize = LEN + TAG + LEN + COUNT + TAG + TAG + TAG + TAG + TAG;
        // Baseline count, mean and m2, the two sums, the last change.
        const DETECTOR: usize = COUNT + 2 * F64 + 2 * F64 + TAG;
        let fresh = |n: usize| {
            let vms = (0..n).map(VmId).collect();
            PrepareController::new(vms, PrepareConfig::default(), Scheme::Prepare)
                .core_state_bytes()
        };
        assert_eq!(fresh(3) - fresh(2), ID + RECORD + DETECTOR);
        assert_eq!(fresh(3) - fresh(2), 79);
    }

    /// A controller fed only recorded cluster replies (no cluster at all)
    /// tracks the live controller bit-for-bit — the property journal
    /// replay stands on.
    #[test]
    fn recorded_rounds_replay_without_a_cluster() {
        let mut c = test_cluster();
        let mut live = mk_controller(Scheme::Prepare);
        let mut ghost = mk_controller(Scheme::Prepare);
        for i in 0..360u64 {
            let t = i * 5;
            let phase = i % 120;
            let free = match phase {
                0..=39 => 500.0,
                40..=89 => 500.0 - (phase - 39) as f64 * 10.0,
                90..=109 => 0.0,
                _ => 500.0,
            };
            let violated = free < 50.0;
            let readings = vec![
                (VmId(0), StampedSample::fresh(sample_for(t, 40.0, free))),
                (VmId(1), StampedSample::fresh(sample_for(t, 30.0, 400.0))),
            ];
            let now = Timestamp::from_secs(t);
            let (ev_live, replies) = live.on_readings_recorded(now, &readings, violated, &mut c);
            let ev_ghost = ghost.on_readings_replay(now, &readings, violated, &replies);
            assert_eq!(ev_live, ev_ghost, "round {i}");
        }
        assert!(live.is_trained(), "scenario must exercise the full loop");
        assert!(
            live.events
                .iter()
                .any(|e| matches!(e, ControllerEvent::ActionIssued { .. })),
            "scenario must exercise actuation"
        );
        assert_eq!(live.model_fingerprint(), ghost.model_fingerprint());
        // The replies themselves survive the journal codec.
        let mut c2 = test_cluster();
        let mut probe = mk_controller(Scheme::Prepare);
        drive(&mut probe, &mut c2, 0..1);
        let round: Vec<ClusterReply> = vec![
            ClusterReply::Plan(Some(PlannedAction::ScaleCpu {
                vm: VmId(0),
                to: 130.0,
            })),
            ClusterReply::Execute(Some(ExecFailure {
                transient: true,
                message: "hypervisor busy".into(),
            })),
            ClusterReply::VmState {
                migrating: false,
                host: HostId(1),
            },
        ];
        let back: Vec<ClusterReply> =
            prepare_metrics::persist::from_bytes(&prepare_metrics::persist::to_bytes(&round))
                .unwrap();
        assert_eq!(back, round);
    }

    /// A VM named twice in one round is one tick: only the first reading
    /// enters the series, the predictor, the cause inference and the
    /// imputer, live and in journal replay alike.
    #[test]
    fn duplicate_reading_in_a_round_is_ingested_once() {
        let mut c1 = test_cluster();
        let mut c2 = test_cluster();
        let mut single = mk_controller(Scheme::Prepare);
        let mut dup = mk_controller(Scheme::Prepare);
        let mut ghost = mk_controller(Scheme::Prepare);
        for i in 0..362u64 {
            let t = i * 5;
            let phase = i % 120;
            let free = match phase {
                0..=39 => 500.0,
                40..=89 => 500.0 - (phase - 39) as f64 * 10.0,
                90..=109 => 0.0,
                _ => 500.0,
            };
            let violated = free < 50.0;
            let first = (VmId(0), StampedSample::fresh(sample_for(t, 40.0, free)));
            let second = (VmId(0), StampedSample::fresh(sample_for(t, 95.0, 0.0)));
            let other = (VmId(1), StampedSample::fresh(sample_for(t, 30.0, 400.0)));
            // The last two rounds lose VM 0's reading, so the held value
            // the imputer replays shows which duplicate it kept.
            let (readings, doubled) = if i < 360 {
                (vec![first, other], vec![first, other, second])
            } else {
                (vec![other], vec![other])
            };
            let now = Timestamp::from_secs(t);
            let before = dup.table[0].series.len();
            let ev_single = single.on_readings(now, &readings, violated, &mut c1);
            let (ev_dup, replies) = dup.on_readings_recorded(now, &doubled, violated, &mut c2);
            let ev_ghost = ghost.on_readings_replay(now, &doubled, violated, &replies);
            assert_eq!(dup.table[0].series.len(), before + 1, "round {i}");
            assert_eq!(ev_dup, ev_single, "round {i}");
            assert_eq!(ev_ghost, ev_single, "round {i}");
        }
        assert!(single.is_trained(), "scenario must exercise the predictors");
        assert_eq!(dup.table[0].predictor, single.table[0].predictor);
        assert_eq!(dup.table[0].series, single.table[0].series);
        assert_eq!(dup.events, single.events);
        assert_eq!(dup.model_fingerprint(), single.model_fingerprint());
        assert_eq!(ghost.model_fingerprint(), single.model_fingerprint());
        assert_eq!(c1, c2);
    }

    /// A reading for a VM the controller does not manage is dropped, live
    /// and in journal replay alike: the events, the models and the core
    /// state equal those of the same rounds without it.
    #[test]
    fn unmanaged_reading_is_dropped() {
        let mut c1 = test_cluster();
        let mut c2 = test_cluster();
        let mut clean = mk_controller(Scheme::Prepare);
        let mut foreign = mk_controller(Scheme::Prepare);
        let mut ghost = mk_controller(Scheme::Prepare);
        for i in 0..362u64 {
            let t = i * 5;
            let free = leaking_free_mem(i);
            let violated = free < 50.0;
            let own = [
                (VmId(0), StampedSample::fresh(sample_for(t, 40.0, free))),
                (VmId(1), StampedSample::fresh(sample_for(t, 30.0, 400.0))),
            ];
            let stray = (VmId(9), StampedSample::fresh(sample_for(t, 95.0, 0.0)));
            let extra = [own[0], stray, own[1]];
            let now = Timestamp::from_secs(t);
            let ev_clean = clean.on_readings(now, &own, violated, &mut c1);
            let (ev_foreign, replies) =
                foreign.on_readings_recorded(now, &extra, violated, &mut c2);
            let ev_ghost = ghost.on_readings_replay(now, &extra, violated, &replies);
            assert_eq!(ev_foreign, ev_clean, "round {i}");
            assert_eq!(ev_ghost, ev_clean, "round {i}");
        }
        assert!(clean.is_trained(), "scenario must exercise the predictors");
        assert_eq!(foreign.events, clean.events);
        assert_eq!(foreign.model_fingerprint(), clean.model_fingerprint());
        assert_eq!(ghost.model_fingerprint(), clean.model_fingerprint());
        assert_eq!(foreign.core_state_bytes(), clean.core_state_bytes());
        assert_eq!(ghost.core_state_bytes(), clean.core_state_bytes());
        assert_eq!(c1, c2);
    }

    #[test]
    fn scheme_round_trips_and_rejects_unknown_tags() {
        for s in [Scheme::Prepare, Scheme::Reactive, Scheme::NoIntervention] {
            let back: Scheme =
                prepare_metrics::persist::from_bytes(&prepare_metrics::persist::to_bytes(&s))
                    .unwrap();
            assert_eq!(back, s);
        }
        assert!(matches!(
            prepare_metrics::persist::from_bytes::<Scheme>(&[3u8]).unwrap_err(),
            PersistError::BadTag {
                what: "Scheme",
                tag: 3
            }
        ));
    }

    #[test]
    #[should_panic(expected = "at least one VM")]
    fn rejects_empty_vm_set() {
        let _ = PrepareController::new(vec![], PrepareConfig::default(), Scheme::Prepare);
    }

    #[test]
    #[should_panic(expected = "must be distinct")]
    fn rejects_duplicate_vm_ids() {
        let vms = vec![VmId(0), VmId(1), VmId(0)];
        let _ = PrepareController::new(vms, PrepareConfig::default(), Scheme::Prepare);
    }

    /// Images whose per-VM parts disagree load as errors, never as a
    /// controller whose table and VM list are out of step.
    #[test]
    fn load_state_rejects_inconsistent_images() {
        fn load_err(ctl: &PrepareController) -> PersistError {
            let mut w = Writer::new();
            ctl.store_state(&mut w);
            let bytes = w.into_bytes();
            PrepareController::load_state(&mut Reader::new(&bytes), ctl.config.par)
                .expect_err("inconsistent image must not load")
        }
        let mut c = test_cluster();
        let mut good = mk_controller(Scheme::Prepare);
        drive(&mut good, &mut c, 0..10);

        let mut ctl = good.clone();
        ctl.vms = vec![VmId(0), VmId(0)];
        assert!(matches!(
            load_err(&ctl),
            PersistError::Invalid("PrepareController duplicate VM id")
        ));

        let mut ctl = good.clone();
        ctl.table[0].episode = Some(Episode::open(VmId(1), Timestamp::ZERO, vec![]));
        assert!(matches!(
            load_err(&ctl),
            PersistError::Invalid("PrepareController episode slot")
        ));
    }

    /// The slot order (constructor order) and the id order are both
    /// observable, and each walk keeps its own: degradation and alert
    /// events follow the order `vms` was given in, validation and retry
    /// events follow VM-id order whatever that was. Two controllers over
    /// the same VMs, one built ascending and one descending, fed the same
    /// run, therefore emit the same events every round up to that
    /// reordering.
    #[test]
    fn constructor_order_and_id_order_walks_are_both_kept() {
        fn vm_of(e: &ControllerEvent) -> Option<VmId> {
            match e {
                ControllerEvent::MonitoringDegraded { vm, .. }
                | ControllerEvent::MonitoringRecovered { vm, .. }
                | ControllerEvent::AlertRaised { vm, .. }
                | ControllerEvent::AlertConfirmed { vm, .. }
                | ControllerEvent::ValidationSucceeded { vm, .. }
                | ControllerEvent::ValidationIneffective { vm, .. }
                | ControllerEvent::ActionRetried { vm, .. } => Some(*vm),
                _ => None,
            }
        }
        /// The VMs of the events of one kind, in emission order.
        fn ids(events: &[ControllerEvent], kind: &ControllerEvent) -> Vec<VmId> {
            events
                .iter()
                .filter(|e| std::mem::discriminant(*e) == std::mem::discriminant(kind))
                .filter_map(vm_of)
                .collect()
        }
        // One specimen per event kind, and whether the kind is emitted
        // by a constructor-order walk (else by an id-order walk).
        let at = Timestamp::ZERO;
        let vm = VmId(0);
        let kinds = [
            (ControllerEvent::MonitoringDegraded { at, vm }, true),
            (ControllerEvent::MonitoringRecovered { at, vm }, true),
            (ControllerEvent::AlertRaised { at, vm, score: 0.0 }, true),
            (
                ControllerEvent::AlertConfirmed {
                    at,
                    vm,
                    ranked_attributes: vec![],
                },
                true,
            ),
            (ControllerEvent::ValidationSucceeded { at, vm }, false),
            (ControllerEvent::ValidationIneffective { at, vm }, false),
            (
                ControllerEvent::ActionRetried {
                    at,
                    vm,
                    action: String::new(),
                    attempt: 0,
                    retry_at: at,
                },
                false,
            ),
        ];
        // Rounds in which a kind fired for both VMs: without them the
        // order assertions below would hold vacuously.
        let mut paired = [0usize; 7];

        let mut clusters = [test_cluster(), test_cluster()];
        let mut ascending = PrepareController::new(
            vec![VmId(0), VmId(1)],
            PrepareConfig::default(),
            Scheme::Prepare,
        );
        let mut descending = PrepareController::new(
            vec![VmId(1), VmId(0)],
            PrepareConfig::default(),
            Scheme::Prepare,
        );
        for i in 0..480u64 {
            let t = i * 5;
            // Both VMs leak in step, so both are implicated, alert,
            // actuate and validate in the same rounds. VM 1's CPU climbs
            // with its leak, which keeps the two models' scores apart: a
            // tied reactive diagnosis goes to the lower slot.
            let free = match i % 120 {
                phase @ 40..=89 => 500.0 - (phase - 39) as f64 * 10.0,
                90..=109 => 0.0,
                _ => 500.0,
            };
            let violated = free < 50.0;
            // The third anomaly meets a busy hypervisor with an episode
            // already open on both VMs, so both retry chains start in one
            // round and stay in step; the fourth meets a monitoring
            // blackout (degradation).
            let now = Timestamp::from_secs(t);
            for c in clusters.iter_mut() {
                c.advance(now);
                c.set_hypervisor_busy((290..310).contains(&i));
            }
            if i == 290 {
                for ctl in [&mut ascending, &mut descending] {
                    for (rec, &vm) in ctl.table.iter_mut().zip(&ctl.vms) {
                        rec.episode = Some(Episode::open(vm, now, vec![AttributeKind::FreeMem]));
                    }
                }
            }
            let readings: Vec<(VmId, StampedSample)> = if (400..410).contains(&i) {
                Vec::new()
            } else {
                [(VmId(0), 40.0), (VmId(1), 40.0 + (500.0 - free) / 20.0)]
                    .map(|(vm, cpu)| (vm, StampedSample::fresh(sample_for(t, cpu, free))))
                    .to_vec()
            };
            let [ca, cd] = &mut clusters;
            let ea = ascending.on_readings(now, &readings, violated, ca);
            let ed = descending.on_readings(now, &readings, violated, cd);

            let multiset = |events: &[ControllerEvent]| {
                let mut lines: Vec<String> = events.iter().map(|e| format!("{e:?}")).collect();
                lines.sort();
                lines
            };
            assert_eq!(multiset(&ea), multiset(&ed), "round {i}");
            assert_eq!(ascending.degraded_vms(), descending.degraded_vms());
            let alert_round = !ids(&ea, &kinds[3].0).is_empty();
            for ((kind, constructor_order), paired) in kinds.iter().zip(&mut paired) {
                // A retry scheduled in the round an alert confirms comes
                // from the alert walk; later attempts from the retry walk.
                if alert_round && matches!(kind, ControllerEvent::ActionRetried { .. }) {
                    continue;
                }
                let (a, mut d) = (ids(&ea, kind), ids(&ed, kind));
                assert!(a.is_sorted(), "round {i}: {kind:?} in {a:?}");
                if *constructor_order {
                    d.reverse();
                }
                assert_eq!(a, d, "round {i}: {kind:?}");
                *paired += usize::from(a.len() > 1);
            }
        }
        let [degraded, recovered, raised, _, succeeded, _, retried] = paired;
        assert!(
            degraded > 0 && recovered > 0 && raised > 0 && succeeded > 0 && retried > 0,
            "both walks must be witnessed: {paired:?}"
        );
    }
}
