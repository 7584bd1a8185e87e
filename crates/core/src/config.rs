//! Controller tunables, defaulting to the paper's experimental settings.

use prepare_anomaly::PredictorConfig;
use prepare_metrics::persist::{Persist, PersistError, Reader, Writer};
use prepare_metrics::{Duration, StalenessBudget};
pub use prepare_par::ParConfig;

/// Which prevention action PREPARE reaches for first (the axis of the
/// Fig. 6/7 vs Fig. 8/9 comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PreventionPolicy {
    /// "PREPARE strives to first use resource scaling [...] If the
    /// scaling prevention is ineffective or cannot be applied due to
    /// insufficient resources on the local host, PREPARE will trigger
    /// live VM migration" (§II-D). The paper's default.
    #[default]
    ScalingFirst,
    /// Use live VM migration as the primary prevention action (the
    /// Fig. 8/9 experiments); scaling remains available as the follow-up
    /// once the VM lands on a host with headroom.
    MigrationFirst,
}

/// All tunables of the PREPARE controller.
#[derive(Debug, Clone, PartialEq)]
pub struct PrepareConfig {
    /// Per-VM anomaly predictor settings (bins, sampling interval, Markov
    /// model kind).
    pub predictor: PredictorConfig,
    /// Look-ahead window of the online predictions driving prevention.
    pub look_ahead: Duration,
    /// k of the k-of-W false alarm filter (paper: 3).
    pub filter_k: usize,
    /// W of the k-of-W false alarm filter (paper: 4).
    pub filter_w: usize,
    /// Prevention action preference.
    pub policy: PreventionPolicy,
    /// Resource sizing: new allocation = observed demand × this factor.
    pub scale_factor: f64,
    /// Minimum samples before the first training attempt.
    pub min_training_samples: usize,
    /// Interval between periodic model refreshes after the initial
    /// training ("the attribute value prediction model is periodically
    /// updated with new data measurements", §II-B — we additionally
    /// re-fit the classifier so newly implicated VMs gain predictors and
    /// post-prevention metric ranges are re-learned). `None` disables
    /// refresh. Refreshes are skipped while the SLO is violated or an
    /// anomaly episode is being handled.
    pub retrain_interval: Option<Duration>,
    /// How long the SLO must have been continuously healthy before
    /// training fires. This pushes the training window past the anomaly
    /// so it also contains post-anomaly *normal* data (under a diurnal
    /// workload, normal states at other traffic levels than the
    /// pre-anomaly phase) — without it the classifier mistakes ordinary
    /// load swings for the anomaly signature.
    pub post_anomaly_quiet: Duration,
    /// Fraction of components that must show simultaneous change points
    /// for the workload-change inference to fire (§II-C: "all the
    /// application components"; a little slack absorbs detector jitter).
    pub workload_change_quorum: f64,
    /// Staleness budget for incoming samples: a reading whose oldest
    /// attribute is older than the budget no longer counts as evidence.
    /// While a VM has no such evidence the controller holds the last
    /// value for bookkeeping but *abstains* from predictive votes and emits
    /// [`crate::ControllerEvent::MonitoringDegraded`] /
    /// [`crate::ControllerEvent::MonitoringRecovered`] edge events.
    /// Defaults to 15 s — three sampling rounds.
    pub staleness: StalenessBudget,
    /// Worker threads for the per-VM hot paths (training, prediction,
    /// diagnosis, implication scoring). Defaults to the `PREPARE_WORKERS`
    /// environment variable, else the machine's available parallelism.
    /// Any value produces bit-identical traces — `workers = 1` is the
    /// plain sequential loop; larger counts shard by VM with an ordered
    /// merge (see the `prepare-par` crate).
    pub par: ParConfig,
    /// Inert: nothing reads it and the durable image does not carry it.
    /// Not on the control path — the controller trains from each VM's
    /// series and the SLO log, the only route there is. The field is named
    /// by `benchmark/benches/driver.rs` (a struct literal) and leaves with
    /// that file's next change.
    #[doc(hidden)]
    pub online_training: bool,
}

impl Default for PrepareConfig {
    fn default() -> Self {
        PrepareConfig {
            predictor: PredictorConfig::default(),
            look_ahead: Duration::from_secs(60),
            filter_k: 3,
            filter_w: 4,
            policy: PreventionPolicy::ScalingFirst,
            scale_factor: 1.3,
            min_training_samples: 40,
            retrain_interval: Some(Duration::from_secs(600)),
            post_anomaly_quiet: Duration::from_secs(150),
            workload_change_quorum: 0.8,
            staleness: StalenessBudget::default(),
            par: ParConfig::default(),
            online_training: true,
        }
    }
}

/// Largest bin count a configuration may name. Every per-VM model sizes
/// `bins³` count tables per attribute from this one number; at 64 a
/// single table is already 2 MB, far past anything a training window
/// could fill.
pub const MAX_BINS: usize = 64;

/// Largest number of Markov steps one prediction may propagate:
/// `predictor.steps_for(look_ahead)` is bounded by it, so a look-ahead
/// cannot make every round's prediction run for minutes. The paper's
/// settings need 12 steps and the ablation's widest 24.
pub const MAX_LOOK_AHEAD_STEPS: usize = 1024;

impl PrepareConfig {
    /// The one consistency check of a configuration, shared by
    /// [`PrepareConfig::validate`] and [`PrepareConfig::load_state`]:
    /// `Err` names the first violated predicate.
    ///
    /// # Errors
    ///
    /// The violated predicate, when the filter parameters are
    /// inconsistent, the scale factor is not > 1, the look-ahead is zero, the
    /// quorum is not a fraction, the worker count is zero, the bin count
    /// is outside `1..=MAX_BINS`, or a prediction would run more than
    /// [`MAX_LOOK_AHEAD_STEPS`] steps.
    pub fn check(&self) -> Result<(), &'static str> {
        let ensure = |holds: bool, predicate| if holds { Ok(()) } else { Err(predicate) };
        ensure(
            self.filter_k > 0 && self.filter_k <= self.filter_w,
            "invalid k-of-W",
        )?;
        // `partial_cmp` keeps NaN rejected (it compares as None).
        let scale = self.scale_factor.partial_cmp(&1.0) == Some(std::cmp::Ordering::Greater);
        ensure(scale, "scale factor must exceed 1.0")?;
        ensure(!self.look_ahead.is_zero(), "look-ahead must be positive")?;
        let quorum = (0.0..=1.0).contains(&self.workload_change_quorum);
        ensure(quorum, "quorum must be a fraction")?;
        ensure(self.par.workers >= 1, "worker count must be positive")?;
        let bins = (1..=MAX_BINS).contains(&self.predictor.bins);
        ensure(bins, "bin count must be in 1..=MAX_BINS")?;
        let steps = self.predictor.steps_for(self.look_ahead);
        ensure(
            steps <= MAX_LOOK_AHEAD_STEPS,
            "look-ahead must span at most MAX_LOOK_AHEAD_STEPS steps",
        )
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics with the predicate [`PrepareConfig::check`] finds violated.
    pub fn validate(&self) {
        if let Err(violated) = self.check() {
            panic!("inconsistent PrepareConfig: {violated}"); // xtask-allow: panic -- the documented contract of validate
        }
    }

    /// Returns the config with the given parallel-engine worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.par = ParConfig::with_workers(workers);
        self
    }

    /// Serializes every tunable that shapes controller *behavior*. The
    /// worker count (`par`) is deliberately excluded: it is a property of
    /// the process, not the computation — every worker count produces the
    /// same trace, and the recovering process supplies its own.
    pub fn store_state(&self, w: &mut Writer) {
        let Self {
            predictor,
            look_ahead,
            filter_k,
            filter_w,
            policy,
            scale_factor,
            min_training_samples,
            retrain_interval,
            post_anomaly_quiet,
            workload_change_quorum,
            staleness,
            par: _,             // runtime worker config, supplied by the recovering process
            online_training: _, // inert, read by nothing; kept for a struct literal in benchmark/
        } = self;
        predictor.store(w);
        look_ahead.store(w);
        w.put_usize(*filter_k);
        w.put_usize(*filter_w);
        policy.store(w);
        w.put_f64(*scale_factor);
        w.put_usize(*min_training_samples);
        retrain_interval.store(w);
        post_anomaly_quiet.store(w);
        w.put_f64(*workload_change_quorum);
        staleness.store(w);
    }

    /// Decodes a configuration serialized by
    /// [`PrepareConfig::store_state`], adopting `par` from the running
    /// process.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] on a torn buffer, plus
    /// [`PersistError::Invalid`] naming the predicate of
    /// [`PrepareConfig::check`] the decoded tunables violate.
    pub fn load_state(r: &mut Reader<'_>, par: ParConfig) -> Result<Self, PersistError> {
        let config = PrepareConfig {
            predictor: Persist::load(r)?,
            look_ahead: Persist::load(r)?,
            filter_k: r.get_usize()?,
            filter_w: r.get_usize()?,
            policy: Persist::load(r)?,
            scale_factor: r.get_f64()?,
            min_training_samples: r.get_usize()?,
            retrain_interval: Persist::load(r)?,
            post_anomaly_quiet: Persist::load(r)?,
            workload_change_quorum: r.get_f64()?,
            staleness: Persist::load(r)?,
            par,
            // Only the inert field: every tunable the image carries is
            // named above.
            ..PrepareConfig::default()
        };
        config.check().map_err(PersistError::Invalid)?;
        Ok(config)
    }
}

impl Persist for PreventionPolicy {
    fn store(&self, w: &mut Writer) {
        w.put_u8(match self {
            PreventionPolicy::ScalingFirst => 0,
            PreventionPolicy::MigrationFirst => 1,
        });
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(PreventionPolicy::ScalingFirst),
            1 => Ok(PreventionPolicy::MigrationFirst),
            tag => Err(PersistError::BadTag {
                what: "PreventionPolicy",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PrepareConfig::default();
        assert_eq!(c.filter_k, 3);
        assert_eq!(c.filter_w, 4);
        assert_eq!(c.predictor.sampling_interval.as_secs(), 5);
        assert_eq!(c.policy, PreventionPolicy::ScalingFirst);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "invalid k-of-W")]
    fn validate_rejects_bad_filter() {
        let c = PrepareConfig {
            filter_k: 5,
            filter_w: 4,
            ..PrepareConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn validate_rejects_bad_scale() {
        let c = PrepareConfig {
            scale_factor: 0.9,
            ..PrepareConfig::default()
        };
        c.validate();
    }

    #[test]
    fn state_round_trips_with_supplied_workers() {
        let config = PrepareConfig {
            filter_k: 2,
            filter_w: 5,
            policy: PreventionPolicy::MigrationFirst,
            retrain_interval: None,
            par: ParConfig::with_workers(3),
            ..PrepareConfig::default()
        };
        let mut w = Writer::new();
        config.store_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let mut back = PrepareConfig::load_state(&mut r, ParConfig::with_workers(7)).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.par.workers, 7, "par comes from the running process");
        back.par = config.par;
        assert_eq!(back, config, "everything but par round-trips exactly");
    }

    /// `config`'s image with the eight bytes at `off` replaced by `value`,
    /// loaded back.
    fn load_patched(
        config: &PrepareConfig,
        off: usize,
        value: u64,
    ) -> Result<PrepareConfig, PersistError> {
        let mut w = Writer::new();
        config.store_state(&mut w);
        let mut bytes = w.into_bytes();
        bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
        PrepareConfig::load_state(&mut Reader::new(&bytes), ParConfig::serial())
    }

    /// Offsets in the image: `PredictorConfig` (bins u64, interval u64,
    /// markov tag) then look_ahead u64, filter_k u64, ...
    const BINS_AT: usize = 0;
    const LOOK_AHEAD_AT: usize = 8 + 8 + 1;
    const FILTER_K_AT: usize = LOOK_AHEAD_AT + 8;

    #[test]
    fn load_state_rejects_inconsistent_tunables() {
        assert_eq!(
            load_patched(&PrepareConfig::default(), FILTER_K_AT, 0),
            Err(PersistError::Invalid("invalid k-of-W"))
        );
    }

    /// The quorum is stored once, in the config, and refused there.
    #[test]
    fn load_state_rejects_out_of_range_quorum() {
        let config = PrepareConfig::default();
        let mut w = Writer::new();
        config.store_state(&mut w);
        // The quorum f64 sits right before the staleness budget.
        let mut budget = Writer::new();
        config.staleness.store(&mut budget);
        let off = w.len() - budget.len() - 8;
        assert_eq!(
            load_patched(&config, off, 2.0f64.to_bits()),
            Err(PersistError::Invalid("quorum must be a fraction"))
        );
    }

    /// A live controller and a restore refuse the same configs: one past
    /// the bin bound (which would seal an image its own recovery refuses),
    /// and a look-ahead that makes every prediction a stall.
    #[test]
    fn new_and_load_state_refuse_the_same_shapes() {
        let mut too_many_bins = PrepareConfig::default();
        too_many_bins.predictor.bins = MAX_BINS + 1;
        let far = PrepareConfig {
            look_ahead: Duration::from_secs(5 * (MAX_LOOK_AHEAD_STEPS as u64 + 1)),
            ..PrepareConfig::default()
        };
        let huge = PrepareConfig {
            look_ahead: Duration::from_secs(1 << 40),
            ..PrepareConfig::default()
        };
        for bad in [&too_many_bins, &far, &huge] {
            let violated = bad.check().unwrap_err();
            let panic = std::panic::catch_unwind(|| bad.validate()).unwrap_err();
            let message = panic.downcast_ref::<String>().expect("formatted panic");
            assert!(message.contains(violated), "{message}");
            let mut w = Writer::new();
            bad.store_state(&mut w);
            assert_eq!(
                PrepareConfig::load_state(&mut Reader::new(w.bytes()), ParConfig::serial()),
                Err(PersistError::Invalid(violated))
            );
        }
        assert_eq!(
            load_patched(&PrepareConfig::default(), BINS_AT, MAX_BINS as u64 + 1),
            Err(PersistError::Invalid("bin count must be in 1..=MAX_BINS"))
        );
        assert!(load_patched(&PrepareConfig::default(), LOOK_AHEAD_AT, 1 << 40).is_err());
        // The bounds themselves are accepted.
        let mut edge = PrepareConfig {
            look_ahead: Duration::from_secs(5 * MAX_LOOK_AHEAD_STEPS as u64),
            ..PrepareConfig::default()
        };
        edge.predictor.bins = MAX_BINS;
        assert_eq!(edge.check(), Ok(()));
    }

    #[test]
    fn policy_enum_rejects_unknown_tags() {
        let mut r = Reader::new(&[5u8]);
        assert!(matches!(
            PreventionPolicy::load(&mut r),
            Err(PersistError::BadTag {
                what: "PreventionPolicy",
                ..
            })
        ));
    }
}
