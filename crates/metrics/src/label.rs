//! Automatic runtime data labeling (paper §II-B).
//!
//! "PREPARE supports automatic runtime data labeling by matching the
//! timestamps of system-level metric measurements and SLO violation logs."
//! [`SloLog`] records violation intervals as the application reports them;
//! `Label::from_violation(log.is_violated_at(sample.time))` then tags any
//! metric sample *normal*/*abnormal* by timestamp.

use crate::persist::{Persist, PersistError, Reader, Writer};
use crate::{Duration, Timestamp};
use std::fmt;

/// Classification label of a system state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// SLO satisfied at the sample's timestamp.
    Normal,
    /// SLO violated at the sample's timestamp.
    Abnormal,
}

impl Label {
    /// `Abnormal` when `violated`, else `Normal`.
    pub fn from_violation(violated: bool) -> Self {
        if violated {
            Label::Abnormal
        } else {
            Label::Normal
        }
    }

    /// True for [`Label::Abnormal`].
    pub fn is_abnormal(self) -> bool {
        matches!(self, Label::Abnormal)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Normal => f.write_str("normal"),
            Label::Abnormal => f.write_str("abnormal"),
        }
    }
}

/// The application's SLO-violation log: a second-resolution record of when
/// the SLO was violated, accumulated online.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloLog {
    /// Closed-open violation intervals `[start, end)`, non-overlapping and
    /// sorted. `end == None` means the violation is still ongoing.
    intervals: Vec<(Timestamp, Option<Timestamp>)>,
    /// Last timestamp observed (for violation-time accounting).
    last_seen: Option<Timestamp>,
}

impl SloLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the SLO status observed at `t`. Must be called with
    /// non-decreasing timestamps.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes a previously recorded timestamp.
    pub fn record(&mut self, t: Timestamp, violated: bool) {
        if let Some(last) = self.last_seen {
            assert!(t >= last, "SLO log must be fed in time order");
        }
        self.last_seen = Some(t);
        let open = matches!(self.intervals.last(), Some((_, None)));
        match (open, violated) {
            (false, true) => self.intervals.push((t, None)),
            (true, false) => {
                if let Some(last) = self.intervals.last_mut() {
                    last.1 = Some(t);
                }
            }
            _ => {}
        }
    }

    /// True if the SLO was violated at time `t`.
    pub fn is_violated_at(&self, t: Timestamp) -> bool {
        self.intervals
            .iter()
            .any(|&(start, end)| t >= start && end.is_none_or(|e| t < e))
    }

    /// Total violated time up to (and including) the last recorded sample —
    /// the paper's *SLO violation time* evaluation metric.
    pub fn total_violation_time(&self) -> Duration {
        let horizon = match self.last_seen {
            Some(t) => t.next(),
            None => return Duration::ZERO,
        };
        let mut total = 0u64;
        for &(start, end) in &self.intervals {
            let e = end.unwrap_or(horizon);
            let e = e.min(horizon);
            total += e.as_secs().saturating_sub(start.as_secs());
        }
        Duration::from_secs(total)
    }

    /// The recorded violation intervals (for reporting); an open interval
    /// is closed at the last seen timestamp + 1 s.
    pub fn intervals(&self) -> Vec<(Timestamp, Timestamp)> {
        let horizon = self
            .last_seen
            .map(Timestamp::next)
            .unwrap_or(Timestamp::ZERO);
        self.intervals
            .iter()
            .map(|&(s, e)| (s, e.unwrap_or(horizon)))
            .collect()
    }

    /// Timestamp of the first violation, if any.
    pub fn first_violation(&self) -> Option<Timestamp> {
        self.intervals.first().map(|&(s, _)| s)
    }

    /// The raw interval list, a still-open violation kept as `end == None`
    /// — the lossless form trace persistence stores.
    pub fn raw_intervals(&self) -> &[(Timestamp, Option<Timestamp>)] {
        &self.intervals
    }

    /// The last timestamp fed to [`SloLog::record`], if any.
    pub fn last_seen(&self) -> Option<Timestamp> {
        self.last_seen
    }

    /// Rebuilds a log from persisted parts, re-validating the structural
    /// invariants `record` maintains online (sorted, non-overlapping,
    /// only the final interval may be open).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn from_raw_parts(
        intervals: Vec<(Timestamp, Option<Timestamp>)>,
        last_seen: Option<Timestamp>,
    ) -> Result<SloLog, &'static str> {
        let mut prev_end = None;
        for (i, &(start, end)) in intervals.iter().enumerate() {
            if let Some(p) = prev_end {
                if start < p {
                    return Err("SLO intervals overlap or are unsorted");
                }
            }
            match end {
                Some(e) if e <= start => return Err("SLO interval is empty or inverted"),
                None if i + 1 != intervals.len() => {
                    return Err("only the final SLO interval may be open");
                }
                _ => {}
            }
            prev_end = end;
        }
        if let (Some(&(start, _)), Some(seen)) = (intervals.last(), last_seen) {
            if seen < start {
                return Err("last_seen precedes the final SLO interval");
            }
        }
        if !intervals.is_empty() && last_seen.is_none() {
            return Err("intervals recorded without a last_seen timestamp");
        }
        Ok(SloLog {
            intervals,
            last_seen,
        })
    }
}

impl Persist for Label {
    fn store(&self, w: &mut Writer) {
        w.put_bool(self.is_abnormal());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Label::from_violation(r.get_bool()?))
    }
}

impl Persist for SloLog {
    fn store(&self, w: &mut Writer) {
        let Self {
            intervals,
            last_seen,
        } = self;
        intervals.store(w);
        last_seen.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let intervals = Persist::load(r)?;
        let last_seen = Persist::load(r)?;
        SloLog::from_raw_parts(intervals, last_seen)
            .map_err(|_| PersistError::Invalid("SloLog interval invariants"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn log_from(pattern: &[(u64, bool)]) -> SloLog {
        let mut log = SloLog::new();
        for &(s, v) in pattern {
            log.record(t(s), v);
        }
        log
    }

    #[test]
    fn records_intervals() {
        let log = log_from(&[(0, false), (5, true), (10, true), (15, false), (20, true)]);
        assert!(!log.is_violated_at(t(0)));
        assert!(log.is_violated_at(t(5)));
        assert!(log.is_violated_at(t(14)));
        assert!(!log.is_violated_at(t(15)));
        assert!(log.is_violated_at(t(25))); // still open
    }

    #[test]
    fn total_violation_time_counts_open_interval() {
        let log = log_from(&[(0, false), (5, true), (15, false), (20, true), (25, true)]);
        // [5,15) = 10s, [20, 26) = 6s (open, horizon = last_seen + 1)
        assert_eq!(log.total_violation_time().as_secs(), 16);
    }

    #[test]
    fn empty_log_has_zero_violation_time() {
        assert_eq!(SloLog::new().total_violation_time(), Duration::ZERO);
        assert!(SloLog::new().first_violation().is_none());
    }

    /// The route training takes: a sample's label is the SLO state at
    /// its timestamp.
    #[test]
    fn labeler_matches_timestamps() {
        let log = log_from(&[(0, false), (10, true), (20, false)]);
        let label_at = |s| Label::from_violation(log.is_violated_at(t(s)));
        assert_eq!(label_at(5), Label::Normal);
        assert_eq!(label_at(12), Label::Abnormal);
        assert_eq!(label_at(20), Label::Normal);
    }

    #[test]
    fn slo_log_round_trips_including_open_interval() {
        let log = log_from(&[(0, false), (5, true), (15, false), (20, true)]);
        let back: SloLog = crate::persist::from_bytes(&crate::persist::to_bytes(&log)).unwrap();
        assert_eq!(back, log);
        assert!(back.is_violated_at(t(25)));
        let empty: SloLog =
            crate::persist::from_bytes(&crate::persist::to_bytes(&SloLog::new())).unwrap();
        assert_eq!(empty, SloLog::new());
    }

    #[test]
    fn slo_log_load_rejects_overlapping_intervals() {
        let mut w = crate::persist::Writer::new();
        vec![(t(0), Some(t(10))), (t(5), Some(t(20)))].store(&mut w);
        Some(t(20)).store(&mut w);
        let res: Result<SloLog, _> = crate::persist::from_bytes(&w.into_bytes());
        assert!(matches!(res, Err(PersistError::Invalid(_))));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn record_rejects_out_of_order() {
        let mut log = SloLog::new();
        log.record(t(10), false);
        log.record(t(5), true);
    }
}
