//! Prevention effectiveness validation (paper §II-D).
//!
//! "PREPARE builds a look-back window and look-ahead window for each
//! prevention. [...] if the application resource usage does not change
//! after a prevention action, it means that the prevention does not have
//! any effect. The system will try other prevention actions (e.g.,
//! scaling the next metric in the list of related metrics provided by the
//! TAN model) until the performance anomaly is gone."

use prepare_cloudsim::HostId;
use prepare_metrics::persist::{Persist, PersistError, Reader, Writer};
use prepare_metrics::{AttributeKind, Duration, ScalableResource, TimeSeries, Timestamp, VmId};

/// Outcome of validating one prevention action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationOutcome {
    /// Alerts stopped and the SLO holds: the anomaly was prevented or
    /// corrected. The episode closes.
    Resolved,
    /// The anomaly persists and the blamed attribute's usage did not
    /// respond to the action: the action targeted the wrong metric. Move
    /// to the next candidate.
    Ineffective,
    /// The action visibly changed resource usage but the anomaly
    /// persists (e.g., a still-growing memory leak consumed the new
    /// headroom): repeat the action with an updated target.
    Retry,
    /// Too early to judge — the validation window has not elapsed.
    Pending,
}

/// An open anomaly-handling episode for one VM: the confirmed diagnosis,
/// the remaining candidate attributes, and the action trail.
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    /// The faulty VM.
    pub vm: VmId,
    /// When the episode opened (alert confirmed / violation detected).
    pub opened: Timestamp,
    /// Remaining blamed attributes to try, most relevant first. The
    /// front entry is the one the active action targeted.
    pub candidates: Vec<AttributeKind>,
    /// When the most recent action was issued.
    pub last_action_at: Option<Timestamp>,
    /// Whether the VM has been migrated during this episode (disallows a
    /// second migration — no ping-pong).
    pub migrated: bool,
    /// Total actions issued in this episode.
    pub actions_taken: usize,
    /// Consecutive action-planning/execution failures; the episode is
    /// abandoned once this exceeds a small cap (nothing applicable can be
    /// done for this VM right now).
    pub failures: usize,
    /// Actions issued against the current front candidate attribute;
    /// bounded so a wrongly blamed metric cannot be re-scaled forever.
    pub attempts_on_candidate: usize,
    /// Resource of the most recent scaling action (None after a
    /// migration).
    pub last_resource: Option<ScalableResource>,
    /// Resources whose scaling was judged ineffective in this episode —
    /// the planner skips them and escalates to migration ("If the scaling
    /// prevention is ineffective ..., PREPARE will trigger live VM
    /// migration", §II-D).
    pub ineffective_resources: Vec<ScalableResource>,
    /// When the next attempt of a transiently rejected action is due
    /// (`None` when no retry is pending). While set, `act` is a no-op
    /// until the backoff elapses.
    pub retry_at: Option<Timestamp>,
    /// Consecutive transient (hypervisor-busy) rejections of the current
    /// action; resets on success or permanent failure.
    pub transient_attempts: usize,
    /// Destination host of the in-flight migration, if one was issued —
    /// lets validation detect a mid-copy rollback (the VM is no longer
    /// migrating yet never left its source host).
    pub migration_target: Option<HostId>,
}

/// Maximum actions against one blamed attribute before moving on.
pub const MAX_ATTEMPTS_PER_CANDIDATE: usize = 2;

impl Episode {
    /// Opens a new episode.
    pub fn open(vm: VmId, opened: Timestamp, candidates: Vec<AttributeKind>) -> Self {
        Episode {
            vm,
            opened,
            candidates,
            last_action_at: None,
            migrated: false,
            actions_taken: 0,
            failures: 0,
            attempts_on_candidate: 0,
            last_resource: None,
            ineffective_resources: Vec::new(),
            retry_at: None,
            transient_attempts: 0,
            migration_target: None,
        }
    }

    /// The attribute the current/next action targets.
    pub fn active_attribute(&self) -> Option<AttributeKind> {
        self.candidates.first().copied()
    }

    /// Records that an action was issued at `now` (marking migration
    /// separately).
    pub fn record_action(&mut self, now: Timestamp, was_migration: bool) {
        self.last_action_at = Some(now);
        self.actions_taken += 1;
        self.attempts_on_candidate += 1;
        if was_migration {
            self.migrated = true;
            self.last_resource = None;
        }
    }

    /// Marks the most recent scaling action's resource as ineffective for
    /// the rest of this episode.
    pub fn mark_resource_ineffective(&mut self) {
        if let Some(r) = self.last_resource.take() {
            if !self.ineffective_resources.contains(&r) {
                self.ineffective_resources.push(r);
            }
        }
    }

    /// Drops the front candidate (the action on it was ineffective).
    pub fn advance_candidate(&mut self) {
        if !self.candidates.is_empty() {
            self.candidates.remove(0);
        }
        self.attempts_on_candidate = 0;
    }

    /// True when the current candidate has been retried to its cap and
    /// the episode should move on rather than repeat it.
    pub fn candidate_exhausted(&self) -> bool {
        self.attempts_on_candidate >= MAX_ATTEMPTS_PER_CANDIDATE
    }

    /// Judges the most recent action.
    ///
    /// * `still_anomalous` — alerts still confirmed or SLO still violated.
    /// * `usage_changed` — the blamed attribute's usage moved between the
    ///   look-back and look-ahead windows.
    pub fn validate(
        &self,
        now: Timestamp,
        window: Duration,
        still_anomalous: bool,
        usage_changed: bool,
    ) -> ValidationOutcome {
        let Some(acted) = self.last_action_at else {
            return ValidationOutcome::Pending;
        };
        if now.since(acted) < window {
            return ValidationOutcome::Pending;
        }
        if !still_anomalous {
            ValidationOutcome::Resolved
        } else if usage_changed {
            ValidationOutcome::Retry
        } else {
            ValidationOutcome::Ineffective
        }
    }
}

impl Persist for Episode {
    fn store(&self, w: &mut Writer) {
        let Self {
            vm,
            opened,
            candidates,
            last_action_at,
            migrated,
            actions_taken,
            failures,
            attempts_on_candidate,
            last_resource,
            ineffective_resources,
            retry_at,
            transient_attempts,
            migration_target,
        } = self;
        vm.store(w);
        opened.store(w);
        candidates.store(w);
        last_action_at.store(w);
        w.put_bool(*migrated);
        w.put_usize(*actions_taken);
        w.put_usize(*failures);
        w.put_usize(*attempts_on_candidate);
        last_resource.store(w);
        ineffective_resources.store(w);
        retry_at.store(w);
        w.put_usize(*transient_attempts);
        migration_target.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let episode = Episode {
            vm: Persist::load(r)?,
            opened: Persist::load(r)?,
            candidates: Persist::load(r)?,
            last_action_at: Persist::load(r)?,
            migrated: r.get_bool()?,
            actions_taken: r.get_usize()?,
            failures: r.get_usize()?,
            attempts_on_candidate: r.get_usize()?,
            last_resource: Persist::load(r)?,
            ineffective_resources: Persist::load(r)?,
            retry_at: Persist::load(r)?,
            transient_attempts: r.get_usize()?,
            migration_target: Persist::load(r)?,
        };
        // The action trail can only count actions that were issued, and a
        // retry can only be pending for an episode that has attempted
        // something transiently.
        if episode.attempts_on_candidate > episode.actions_taken
            || (episode.retry_at.is_some() && episode.transient_attempts == 0)
        {
            return Err(PersistError::Invalid("Episode action trail"));
        }
        Ok(episode)
    }
}

/// Compares the blamed attribute's mean usage in the look-back window
/// `[acted - window, acted)` against the look-ahead window
/// `[acted, acted + window)`: returns `true` when the relative change
/// exceeds 15% (the action visibly moved the metric).
pub(crate) fn usage_changed(
    series: &TimeSeries,
    attribute: AttributeKind,
    acted: Timestamp,
    window: Duration,
) -> bool {
    let before = series.stats(attribute, acted.saturating_sub(window), acted);
    let after = series.stats(attribute, acted, acted + window);
    if before.count == 0 || after.count == 0 {
        return false;
    }
    let scale = before.mean.abs().max(1e-6);
    ((after.mean - before.mean).abs() / scale) > 0.15
}

#[cfg(test)]
mod tests {
    use super::*;
    use prepare_metrics::{MetricSample, MetricVector};

    fn t(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn w(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn pending_before_window_elapses() {
        let mut e = Episode::open(VmId(0), t(100), vec![AttributeKind::FreeMem]);
        assert_eq!(
            e.validate(t(200), w(30), true, true),
            ValidationOutcome::Pending
        );
        e.record_action(t(200), false);
        assert_eq!(
            e.validate(t(210), w(30), true, true),
            ValidationOutcome::Pending
        );
    }

    #[test]
    fn resolved_when_anomaly_clears() {
        let mut e = Episode::open(VmId(0), t(0), vec![AttributeKind::FreeMem]);
        e.record_action(t(0), false);
        assert_eq!(
            e.validate(t(30), w(30), false, true),
            ValidationOutcome::Resolved
        );
    }

    #[test]
    fn ineffective_when_usage_static() {
        let mut e = Episode::open(VmId(0), t(0), vec![AttributeKind::FreeMem]);
        e.record_action(t(0), false);
        assert_eq!(
            e.validate(t(30), w(30), true, false),
            ValidationOutcome::Ineffective
        );
    }

    #[test]
    fn retry_when_usage_moved_but_anomaly_persists() {
        let mut e = Episode::open(VmId(0), t(0), vec![AttributeKind::FreeMem]);
        e.record_action(t(0), false);
        assert_eq!(
            e.validate(t(30), w(30), true, true),
            ValidationOutcome::Retry
        );
    }

    #[test]
    fn candidate_fall_through() {
        let mut e = Episode::open(
            VmId(0),
            t(0),
            vec![AttributeKind::NetOut, AttributeKind::CpuTotal],
        );
        assert_eq!(e.active_attribute(), Some(AttributeKind::NetOut));
        e.advance_candidate();
        assert_eq!(e.active_attribute(), Some(AttributeKind::CpuTotal));
        e.advance_candidate();
        assert_eq!(e.active_attribute(), None);
        e.advance_candidate(); // harmless on empty
    }

    #[test]
    fn migration_flag_sticks() {
        let mut e = Episode::open(VmId(0), t(0), vec![]);
        e.record_action(t(0), true);
        assert!(e.migrated);
        assert_eq!(e.actions_taken, 1);
    }

    #[test]
    fn usage_change_detection() {
        let mut series = TimeSeries::new();
        for i in 0..20u64 {
            let mut v = MetricVector::zeros();
            // Free memory jumps from 50 MB to 300 MB at t=50 (a memory
            // scaling took effect).
            v.set(AttributeKind::FreeMem, if i < 10 { 50.0 } else { 300.0 });
            v.set(AttributeKind::NetIn, 100.0); // static metric
            series.push(MetricSample::new(t(i * 5), v));
        }
        assert!(usage_changed(&series, AttributeKind::FreeMem, t(50), w(30)));
        assert!(!usage_changed(&series, AttributeKind::NetIn, t(50), w(30)));
    }

    #[test]
    fn persist_round_trips_mid_episode_state() {
        let mut e = Episode::open(
            VmId(3),
            t(40),
            vec![AttributeKind::FreeMem, AttributeKind::CpuTotal],
        );
        e.record_action(t(45), false);
        e.last_resource = Some(ScalableResource::Memory);
        e.mark_resource_ineffective();
        e.record_action(t(80), true);
        e.migration_target = Some(HostId(2));
        e.retry_at = Some(t(95));
        e.transient_attempts = 2;
        let bytes = prepare_metrics::persist::to_bytes(&e);
        let back: Episode = prepare_metrics::persist::from_bytes(&bytes).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn persist_rejects_inconsistent_action_trail() {
        let mut e = Episode::open(VmId(0), t(0), vec![AttributeKind::CpuTotal]);
        e.record_action(t(5), false);
        let mut bytes = prepare_metrics::persist::to_bytes(&e);
        // `actions_taken` sits after vm (8) + opened (8) + candidates
        // (8 + 1 per entry) + last_action_at (1 + 8) + migrated (1).
        let off = 8 + 8 + (8 + 1) + (1 + 8) + 1;
        bytes[off..off + 8].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            prepare_metrics::persist::from_bytes::<Episode>(&bytes),
            Err(PersistError::Invalid("Episode action trail"))
        );
    }

    #[test]
    fn usage_change_requires_data_on_both_sides() {
        let mut series = TimeSeries::new();
        let mut v = MetricVector::zeros();
        v.set(AttributeKind::FreeMem, 100.0);
        series.push(MetricSample::new(t(100), v));
        // No look-back data.
        assert!(!usage_changed(
            &series,
            AttributeKind::FreeMem,
            t(100),
            w(30)
        ));
    }
}
