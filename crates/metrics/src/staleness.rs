//! Explicit missing/stale sample representation (robustness layer).
//!
//! A benign monitoring plane delivers one fresh 13-attribute sample per
//! VM per sampling round. A hostile one drops samples, delays them, or
//! freezes individual attribute readings. This module gives the control
//! loop the vocabulary to *see* that degradation instead of silently
//! consuming garbage:
//!
//! - [`AttributeStamps`] / [`StampedSample`]: per-attribute collection
//!   timestamps riding along with every sample, so a reading frozen by a
//!   stuck monitoring agent is distinguishable from a genuinely constant
//!   metric.
//! - [`StalenessBudget`]: how old a reading may grow before the consumer
//!   must stop trusting it ([`Freshness::Stale`]).
//! - [`LastValueImputer`]: hold-last-value imputation for short gaps.
//!   Imputed samples keep their *original* collection stamps, so
//!   imputation self-expires once the budget runs out — a gap can be
//!   papered over for a few rounds, never forever.

use crate::persist::{Persist, PersistError, Reader, Writer};
use crate::{AttributeKind, Duration, MetricSample, Timestamp, ATTRIBUTE_COUNT};

/// Per-attribute collection timestamps for one [`StampedSample`].
///
/// `stamps.get(a)` is when attribute `a` was last actually measured; it
/// can lag the sample's delivery time when a reading is stuck or the
/// sample was imputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttributeStamps([Timestamp; ATTRIBUTE_COUNT]);

impl AttributeStamps {
    /// All attributes measured at the same instant `t`.
    pub fn uniform(t: Timestamp) -> Self {
        AttributeStamps([t; ATTRIBUTE_COUNT])
    }

    /// When attribute `a` was last measured.
    pub fn get(&self, a: AttributeKind) -> Timestamp {
        self.0[a.index()]
    }

    /// Records a measurement of attribute `a` at time `t`.
    pub fn set(&mut self, a: AttributeKind, t: Timestamp) {
        self.0[a.index()] = t;
    }

    /// The oldest collection time across all attributes.
    pub fn oldest(&self) -> Timestamp {
        self.0.iter().copied().min().unwrap_or(Timestamp::ZERO)
    }
}

/// A [`MetricSample`] plus per-attribute collection stamps.
///
/// `sample.time` is when the consumer received the vector; each stamp is
/// when that attribute was genuinely measured.
// xtask: checkpoint
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StampedSample {
    /// The delivered measurement vector.
    pub sample: MetricSample,
    /// Per-attribute collection timestamps.
    pub stamps: AttributeStamps,
}

impl StampedSample {
    /// Wraps a sample whose every attribute was measured at
    /// `sample.time` — the benign-infrastructure case.
    pub fn fresh(sample: MetricSample) -> Self {
        StampedSample {
            stamps: AttributeStamps::uniform(sample.time),
            sample,
        }
    }

    /// How old attribute `a`'s reading is at time `now`.
    pub fn age_of(&self, a: AttributeKind, now: Timestamp) -> Duration {
        now.since(self.stamps.get(a))
    }

    /// Age of the oldest attribute reading at time `now`.
    pub fn max_age(&self, now: Timestamp) -> Duration {
        now.since(self.stamps.oldest())
    }
}

/// Whether a sample is still trustworthy under a [`StalenessBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// Every attribute is within its budget.
    Fresh,
    /// At least one attribute reading has outlived its budget; the
    /// consumer must degrade (abstain) rather than trust the value.
    Stale,
}

/// Per-attribute bound on how old a reading may grow before the control
/// loop stops trusting it.
// xtask: checkpoint
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalenessBudget {
    per_attribute: [Duration; ATTRIBUTE_COUNT],
}

/// Default staleness budget: three 5-second sampling rounds. One dropped
/// round is routine jitter; after the third consecutive miss the loop
/// must assume the monitoring plane is down.
pub const DEFAULT_STALENESS_SECS: u64 = 15;

impl StalenessBudget {
    /// The same budget `d` for every attribute.
    pub fn uniform(d: Duration) -> Self {
        StalenessBudget {
            per_attribute: [d; ATTRIBUTE_COUNT],
        }
    }

    /// Budget for attribute `a`.
    pub fn budget_for(&self, a: AttributeKind) -> Duration {
        self.per_attribute[a.index()]
    }

    /// Overrides the budget for one attribute.
    pub fn set(&mut self, a: AttributeKind, d: Duration) {
        self.per_attribute[a.index()] = d;
    }

    /// Classifies a stamped sample at time `now`.
    pub fn freshness(&self, now: Timestamp, s: &StampedSample) -> Freshness {
        let stale = AttributeKind::ALL
            .iter()
            .any(|&a| s.age_of(a, now) > self.budget_for(a));
        if stale {
            Freshness::Stale
        } else {
            Freshness::Fresh
        }
    }

    /// True when any attribute reading has outlived its budget at `now`.
    pub fn is_exceeded(&self, now: Timestamp, s: &StampedSample) -> bool {
        self.freshness(now, s) == Freshness::Stale
    }
}

impl Default for StalenessBudget {
    fn default() -> Self {
        StalenessBudget::uniform(Duration::from_secs(DEFAULT_STALENESS_SECS))
    }
}

/// Hold-last-value imputation for short monitoring gaps.
///
/// Feed every delivered sample through [`LastValueImputer::observe`];
/// when a round delivers nothing, [`LastValueImputer::impute`] replays
/// the last known vector re-timed to `now` while keeping its original
/// collection stamps — so the imputed sample ages out naturally under a
/// [`StalenessBudget`] instead of impersonating fresh data forever.
// xtask: checkpoint
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
    /// per-attribute stamps. `None` before the first observation.
    pub fn impute(&self, now: Timestamp) -> Option<StampedSample> {
        self.last.map(|prev| StampedSample {
            sample: MetricSample::new(now, prev.sample.values),
            stamps: prev.stamps,
        })
    }
}

impl Persist for AttributeStamps {
    fn store(&self, w: &mut Writer) {
        self.0.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(AttributeStamps(Persist::load(r)?))
    }
}

impl Persist for StampedSample {
    fn store(&self, w: &mut Writer) {
        self.sample.store(w);
        self.stamps.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(StampedSample {
            sample: MetricSample::load(r)?,
            stamps: AttributeStamps::load(r)?,
        })
    }
}

impl Persist for StalenessBudget {
    fn store(&self, w: &mut Writer) {
        self.per_attribute.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(StalenessBudget {
            per_attribute: Persist::load(r)?,
        })
    }
}

impl Persist for LastValueImputer {
    fn store(&self, w: &mut Writer) {
        self.last.store(w);
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
    use crate::MetricVector;

    fn sample_at(secs: u64, v: f64) -> MetricSample {
        MetricSample::new(Timestamp::from_secs(secs), MetricVector::from_fn(|_| v))
    }

    #[test]
    fn fresh_sample_has_uniform_stamps() {
        let s = StampedSample::fresh(sample_at(10, 1.0));
        for a in AttributeKind::ALL {
            assert_eq!(s.stamps.get(a), Timestamp::from_secs(10));
            assert_eq!(s.age_of(a, Timestamp::from_secs(12)).as_secs(), 2);
        }
        assert_eq!(s.max_age(Timestamp::from_secs(12)).as_secs(), 2);
    }

    #[test]
    fn one_old_attribute_makes_the_sample_stale() {
        let mut s = StampedSample::fresh(sample_at(100, 1.0));
        let budget = StalenessBudget::default();
        assert!(!budget.is_exceeded(Timestamp::from_secs(100), &s));
        // Within budget at +15 s, stale at +16 s.
        assert!(!budget.is_exceeded(Timestamp::from_secs(115), &s));
        assert!(budget.is_exceeded(Timestamp::from_secs(116), &s));
        // A single stuck attribute is enough even when the rest is fresh.
        s.stamps = AttributeStamps::uniform(Timestamp::from_secs(116));
        s.stamps.set(AttributeKind::NetIn, Timestamp::from_secs(80));
        assert!(budget.is_exceeded(Timestamp::from_secs(116), &s));
        assert_eq!(s.stamps.oldest(), Timestamp::from_secs(80));
    }

    #[test]
    fn per_attribute_budgets_are_independent() {
        let mut budget = StalenessBudget::uniform(Duration::from_secs(10));
        budget.set(AttributeKind::Load5, Duration::from_secs(60));
        assert_eq!(
            budget.budget_for(AttributeKind::Load5),
            Duration::from_secs(60)
        );
        let mut s = StampedSample::fresh(sample_at(100, 1.0));
        s.stamps.set(AttributeKind::Load5, Timestamp::from_secs(70));
        // Load5 is 30 s old but its budget is 60 s: still fresh.
        assert_eq!(
            budget.freshness(Timestamp::from_secs(100), &s),
            Freshness::Fresh
        );
        s.stamps.set(AttributeKind::NetIn, Timestamp::from_secs(85));
        assert_eq!(
            budget.freshness(Timestamp::from_secs(100), &s),
            Freshness::Stale
        );
    }

    #[test]
    fn staleness_state_round_trips() {
        let mut s = StampedSample::fresh(sample_at(100, 1.5));
        s.stamps.set(AttributeKind::NetIn, Timestamp::from_secs(80));
        let mut budget = StalenessBudget::uniform(Duration::from_secs(10));
        budget.set(AttributeKind::Load5, Duration::from_secs(60));
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
        // Stamps stay at the genuine collection time...
        assert_eq!(ghost.stamps.oldest(), Timestamp::from_secs(10));
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
