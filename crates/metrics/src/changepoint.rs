//! Online change-point detection (two-sided CUSUM).
//!
//! PREPARE distinguishes a workload change from an internal fault by
//! "checking whether all the application components have change points in
//! some system metrics simultaneously" (§II-C, citing PAL [13]). PAL uses
//! CUSUM-style change-point detection over per-component metrics; we
//! implement a standard two-sided CUSUM with an online baseline estimate.

use crate::persist::{Persist, PersistError, Reader, Writer};
use crate::Timestamp;

/// A detected change point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangePoint {
    /// When the cumulative statistic crossed the threshold.
    pub time: Timestamp,
    /// Positive for an upward level shift, negative for downward.
    pub direction: f64,
    /// The cumulative-sum magnitude at detection (in baseline std-devs).
    pub magnitude: f64,
}

/// CUSUM detection threshold, in baseline standard deviations.
pub const CUSUM_THRESHOLD: f64 = 5.0;

/// CUSUM slack per observation, in baseline standard deviations:
/// deviations smaller than the drift never accumulate.
pub const CUSUM_DRIFT: f64 = 0.5;

/// Observations that establish the baseline before any detection can
/// fire — one minute at the paper's 5 s sampling interval.
pub const CUSUM_WARMUP: usize = 12;

/// Two-sided CUSUM detector over one scalar stream.
///
/// The detector learns the baseline mean/std from the first
/// [`CUSUM_WARMUP`] observations, then accumulates standardized
/// deviations less [`CUSUM_DRIFT`]; when either the high-side or
/// low-side sum exceeds [`CUSUM_THRESHOLD`], a change point is reported
/// and the baseline re-anchors to the post-change level.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CusumDetector {
    // online baseline estimate
    count: usize,
    mean: f64,
    m2: f64,
    // cusum state
    high: f64,
    low: f64,
    last_change: Option<ChangePoint>,
}

impl CusumDetector {
    /// A detector that has seen nothing yet.
    pub fn new() -> Self {
        CusumDetector::default()
    }

    fn baseline_std(&self) -> f64 {
        if self.count < 2 {
            return 1.0;
        }
        let var = self.m2 / self.count as f64;
        let sd = var.sqrt();
        if sd < 1e-9 {
            1e-9_f64.max(self.mean.abs() * 0.01).max(1e-9)
        } else {
            sd
        }
    }

    fn absorb(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Feeds one observation; returns a change point when one is detected
    /// at this step.
    pub fn observe(&mut self, time: Timestamp, value: f64) -> Option<ChangePoint> {
        if !value.is_finite() {
            return None;
        }
        if self.count < CUSUM_WARMUP {
            self.absorb(value);
            return None;
        }
        let sd = self.baseline_std();
        let z = (value - self.mean) / sd;
        self.high = (self.high + z - CUSUM_DRIFT).max(0.0);
        self.low = (self.low - z - CUSUM_DRIFT).max(0.0);
        if self.high > CUSUM_THRESHOLD || self.low > CUSUM_THRESHOLD {
            let (direction, magnitude) = if self.high > self.low {
                (1.0, self.high)
            } else {
                (-1.0, self.low)
            };
            let cp = ChangePoint {
                time,
                direction,
                magnitude,
            };
            self.last_change = Some(cp);
            // Re-anchor the baseline at the post-change level.
            self.count = 0;
            self.mean = 0.0;
            self.m2 = 0.0;
            self.high = 0.0;
            self.low = 0.0;
            self.absorb(value);
            return Some(cp);
        }
        // Slowly track the baseline with in-control observations.
        self.absorb(value);
        None
    }

    /// The most recent change point, if any.
    pub fn last_change(&self) -> Option<ChangePoint> {
        self.last_change
    }

    /// True if a change point fired within the trailing `window_secs`
    /// seconds of `now` — the "recent change point" predicate the workload
    /// -change inference uses.
    pub fn changed_recently(&self, now: Timestamp, window_secs: u64) -> bool {
        self.last_change
            .is_some_and(|cp| now.since(cp.time).as_secs() <= window_secs)
    }
}

impl Persist for ChangePoint {
    fn store(&self, w: &mut Writer) {
        let Self {
            time,
            direction,
            magnitude,
        } = *self;
        time.store(w);
        w.put_f64(direction);
        w.put_f64(magnitude);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(ChangePoint {
            time: Timestamp::load(r)?,
            direction: r.get_f64()?,
            magnitude: r.get_f64()?,
        })
    }
}

impl Persist for CusumDetector {
    fn store(&self, w: &mut Writer) {
        let Self {
            count,
            mean,
            m2,
            high,
            low,
            last_change,
        } = *self;
        w.put_usize(count);
        w.put_f64(mean);
        w.put_f64(m2);
        w.put_f64(high);
        w.put_f64(low);
        last_change.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(CusumDetector {
            count: r.get_usize()?,
            mean: r.get_f64()?,
            m2: r.get_f64()?,
            high: r.get_f64()?,
            low: r.get_f64()?,
            last_change: Option::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn persist_round_trip_preserves_mid_stream_state() {
        let mut d = CusumDetector::new();
        for i in 0..25u64 {
            let v = 10.0 + if i % 2 == 0 { 0.1 } else { -0.1 };
            d.observe(t(i), v);
        }
        let bytes = crate::persist::to_bytes(&d);
        let mut back: CusumDetector = crate::persist::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, d);
        // The restored detector must fire at exactly the same step.
        for i in 25..60u64 {
            let a = d.observe(t(i), 20.0);
            let b = back.observe(t(i), 20.0);
            assert_eq!(a, b, "divergence at step {i}");
            if a.is_some() {
                return;
            }
        }
        panic!("change never fired");
    }

    #[test]
    fn detects_step_change() {
        let mut d = CusumDetector::new();
        let mut detected = None;
        for i in 0..30u64 {
            // noiseless-ish baseline around 10
            let v = 10.0 + if i % 2 == 0 { 0.1 } else { -0.1 };
            assert!(d.observe(t(i), v).is_none());
        }
        for i in 30..60u64 {
            if let Some(cp) = d.observe(t(i), 20.0) {
                detected = Some(cp);
                break;
            }
        }
        let cp = detected.expect("step change detected");
        assert!(cp.direction > 0.0);
        assert!(cp.time.as_secs() >= 30);
        assert!(cp.time.as_secs() < 40, "detected promptly, got {}", cp.time);
    }

    #[test]
    fn detects_downward_change() {
        let mut d = CusumDetector::new();
        for i in 0..20u64 {
            let v = 50.0 + if i % 2 == 0 { 0.5 } else { -0.5 };
            d.observe(t(i), v);
        }
        let mut fired = false;
        for i in 20..40u64 {
            if let Some(cp) = d.observe(t(i), 10.0) {
                assert!(cp.direction < 0.0);
                fired = true;
                break;
            }
        }
        assert!(fired);
    }

    #[test]
    fn stable_stream_never_fires() {
        let mut d = CusumDetector::new();
        for i in 0..500u64 {
            let v = 5.0 + ((i % 7) as f64 - 3.0) * 0.05;
            assert!(d.observe(t(i), v).is_none(), "false alarm at {i}");
        }
        assert!(d.last_change().is_none());
    }

    #[test]
    fn changed_recently_window() {
        let mut d = CusumDetector::new();
        for i in 0..12u64 {
            d.observe(t(i), 1.0 + (i % 2) as f64 * 0.01);
        }
        for i in 12..30u64 {
            d.observe(t(i), 100.0);
            if d.last_change().is_some() {
                break;
            }
        }
        let cp = d.last_change().expect("change detected");
        assert!(d.changed_recently(cp.time, 0));
        assert!(d.changed_recently(cp.time + crate::Duration::from_secs(10), 10));
        assert!(!d.changed_recently(cp.time + crate::Duration::from_secs(11), 10));
    }

    #[test]
    fn ignores_non_finite_values() {
        let mut d = CusumDetector::new();
        assert!(d.observe(t(0), f64::NAN).is_none());
        assert!(d.observe(t(1), f64::INFINITY).is_none());
    }

    #[test]
    fn rearms_after_detection() {
        let mut d = CusumDetector::new();
        for i in 0..12u64 {
            d.observe(t(i), 1.0 + (i % 2) as f64 * 0.01);
        }
        let mut first = None;
        for i in 12..40u64 {
            if let Some(cp) = d.observe(t(i), 50.0 + (i % 2) as f64 * 0.01) {
                first = Some(cp.time);
                break;
            }
        }
        let first = first.expect("first change");
        // After re-anchoring at ~50, a further jump to 200 fires again.
        let mut second = None;
        for i in (first.as_secs() + 1)..(first.as_secs() + 40) {
            let v = if i < first.as_secs() + 15 {
                50.0 + (i % 2) as f64 * 0.01
            } else {
                200.0
            };
            if let Some(cp) = d.observe(t(i), v) {
                second = Some(cp.time);
                break;
            }
        }
        assert!(second.expect("second change") > first);
    }
}
