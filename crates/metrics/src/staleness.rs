//! Explicit missing/stale sample representation (robustness layer).
//!
//! A benign monitoring plane delivers one fresh 13-attribute sample per
//! VM per sampling round. A hostile one drops samples, delays them, or
//! freezes individual attribute readings. This module gives the control
//! loop the vocabulary to *see* that degradation instead of silently
//! consuming garbage:
//!
//! - [`StampedSample`]: a sample plus one collection stamp, the oldest
//!   collection time of any of its attributes, so a reading frozen by a
//!   stuck monitoring agent is distinguishable from a genuinely constant
//!   metric.
//! - [`StalenessBudget`]: how old a reading may grow before the consumer
//!   must stop trusting it.
//! - [`LastValueImputer`]: hold-last-value imputation for short gaps.
//!   Imputed samples keep their *original* collection stamp, so
//!   imputation self-expires once the budget runs out — a gap can be
//!   papered over for a few rounds, never forever.

use crate::persist::{Persist, PersistError, Reader, Writer};
use crate::{Duration, MetricSample, Timestamp};

/// A [`MetricSample`] plus its collection stamp.
///
/// `sample.time` is when the consumer received the vector; `collected`
/// is the oldest time any of its attributes was genuinely measured. It
/// lags the delivery time when a reading is stuck or the sample was
/// imputed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StampedSample {
    /// The delivered measurement vector.
    pub sample: MetricSample,
    /// The oldest collection time of any attribute.
    pub collected: Timestamp,
}

impl StampedSample {
    /// Wraps a sample whose every attribute was measured at
    /// `sample.time` — the benign-infrastructure case.
    pub fn fresh(sample: MetricSample) -> Self {
        StampedSample {
            collected: sample.time,
            sample,
        }
    }
}

/// How old a reading may grow before the control loop stops trusting
/// it. One bound covers every attribute: a sample is stale as soon as
/// its oldest reading is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalenessBudget {
    limit: Duration,
}

/// Default staleness budget: three 5-second sampling rounds. One dropped
/// round is routine jitter; after the third consecutive miss the loop
/// must assume the monitoring plane is down.
pub const DEFAULT_STALENESS_SECS: u64 = 15;

impl StalenessBudget {
    /// A budget of `d`.
    pub fn new(d: Duration) -> Self {
        StalenessBudget { limit: d }
    }

    /// True when the sample's oldest reading has outlived the budget at
    /// `now`; the consumer must degrade (abstain) rather than trust it.
    pub fn is_exceeded(&self, now: Timestamp, s: &StampedSample) -> bool {
        now.since(s.collected) > self.limit
    }
}

impl Default for StalenessBudget {
    fn default() -> Self {
        StalenessBudget::new(Duration::from_secs(DEFAULT_STALENESS_SECS))
    }
}

/// Hold-last-value imputation for short monitoring gaps.
///
/// Feed every delivered sample through [`LastValueImputer::observe`];
/// when a round delivers nothing, [`LastValueImputer::impute`] replays
/// the last known vector re-timed to `now` while keeping its original
/// collection stamp — so the imputed sample ages out naturally under a
/// [`StalenessBudget`] instead of impersonating fresh data forever.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LastValueImputer {
    last: Option<StampedSample>,
}

impl LastValueImputer {
    /// An imputer that has seen nothing yet.
    pub fn new() -> Self {
        LastValueImputer { last: None }
    }

    /// Records a delivered sample as the new hold value.
    pub fn observe(&mut self, s: &StampedSample) {
        self.last = Some(*s);
    }

    /// The last delivered sample, if any.
    pub fn last(&self) -> Option<&StampedSample> {
        self.last.as_ref()
    }

    /// Replays the last known vector at time `now`, keeping its original
    /// collection stamp. `None` before the first observation.
    pub fn impute(&self, now: Timestamp) -> Option<StampedSample> {
        self.last.map(|prev| StampedSample {
            sample: MetricSample::new(now, prev.sample.values),
            collected: prev.collected,
        })
    }
}

impl Persist for StampedSample {
    fn store(&self, w: &mut Writer) {
        let Self { sample, collected } = self;
        sample.store(w);
        collected.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(StampedSample {
            sample: MetricSample::load(r)?,
            collected: Timestamp::load(r)?,
        })
    }
}

impl Persist for StalenessBudget {
    fn store(&self, w: &mut Writer) {
        let Self { limit } = self;
        limit.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(StalenessBudget {
            limit: Duration::load(r)?,
        })
    }
}

impl Persist for LastValueImputer {
    fn store(&self, w: &mut Writer) {
        let Self { last } = self;
        last.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(LastValueImputer {
            last: Option::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttributeKind, MetricVector};

    fn sample_at(secs: u64, v: f64) -> MetricSample {
        MetricSample::new(Timestamp::from_secs(secs), MetricVector::from_fn(|_| v))
    }

    #[test]
    fn fresh_sample_is_stamped_at_its_own_time() {
        let s = StampedSample::fresh(sample_at(10, 1.0));
        assert_eq!(s.collected, Timestamp::from_secs(10));
    }

    #[test]
    fn an_old_stamp_makes_the_sample_stale() {
        let mut s = StampedSample::fresh(sample_at(100, 1.0));
        let budget = StalenessBudget::default();
        assert!(!budget.is_exceeded(Timestamp::from_secs(100), &s));
        // Within budget at +15 s, stale at +16 s.
        assert!(!budget.is_exceeded(Timestamp::from_secs(115), &s));
        assert!(budget.is_exceeded(Timestamp::from_secs(116), &s));
        // A single stuck attribute lowers the stamp: stale even though
        // the vector was delivered just now.
        s.sample.time = Timestamp::from_secs(116);
        s.collected = Timestamp::from_secs(80);
        assert!(budget.is_exceeded(Timestamp::from_secs(116), &s));
        // A stamp ahead of `now` (a clock step back) is never stale.
        assert!(!budget.is_exceeded(Timestamp::from_secs(50), &s));
    }

    #[test]
    fn staleness_state_round_trips() {
        let mut s = StampedSample::fresh(sample_at(100, 1.5));
        s.collected = Timestamp::from_secs(80);
        let budget = StalenessBudget::new(Duration::from_secs(10));
        let mut imp = LastValueImputer::new();
        imp.observe(&s);
        let s2: StampedSample = crate::persist::from_bytes(&crate::persist::to_bytes(&s)).unwrap();
        assert_eq!(s2, s);
        let b2: StalenessBudget =
            crate::persist::from_bytes(&crate::persist::to_bytes(&budget)).unwrap();
        assert_eq!(b2, budget);
        let i2: LastValueImputer =
            crate::persist::from_bytes(&crate::persist::to_bytes(&imp)).unwrap();
        assert_eq!(i2, imp);
        let empty: LastValueImputer =
            crate::persist::from_bytes(&crate::persist::to_bytes(&LastValueImputer::new()))
                .unwrap();
        assert_eq!(empty, LastValueImputer::new());
    }

    #[test]
    fn imputation_replays_values_but_not_stamps() {
        let mut imp = LastValueImputer::new();
        assert!(imp.impute(Timestamp::from_secs(5)).is_none());
        imp.observe(&StampedSample::fresh(sample_at(10, 7.0)));
        let ghost = imp.impute(Timestamp::from_secs(20)).expect("has history");
        assert_eq!(ghost.sample.time, Timestamp::from_secs(20));
        assert_eq!(ghost.sample.values.get(AttributeKind::CpuTotal), 7.0);
        // The stamp stays at the genuine collection time...
        assert_eq!(ghost.collected, Timestamp::from_secs(10));
        // ...so imputation self-expires under the budget.
        let budget = StalenessBudget::default();
        assert!(!budget.is_exceeded(Timestamp::from_secs(20), &ghost));
        assert!(budget.is_exceeded(
            Timestamp::from_secs(10 + DEFAULT_STALENESS_SECS + 1),
            &imp.impute(Timestamp::from_secs(10 + DEFAULT_STALENESS_SECS + 1))
                .expect("has history")
        ));
    }
}
