//! Post-run analysis of experiment results: lead-time measurement, event
//! accounting, and a compact report — the numbers EXPERIMENTS.md and the
//! examples print.

use crate::{ControllerEvent, ExperimentResult};
use prepare_metrics::{Duration, Timestamp};

/// Aggregated view of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// SLO violation time in the evaluation window (seconds).
    pub eval_violation_secs: u64,
    /// Raw predictive alerts raised.
    pub alerts_raised: usize,
    /// Alerts that survived k-of-W filtering.
    pub alerts_confirmed: usize,
    /// Reactive (post-violation) triggers.
    pub reactive_triggers: usize,
    /// Prevention actions issued.
    pub actions_issued: usize,
    /// Actions that could not be applied.
    pub actions_failed: usize,
    /// Episodes closed as resolved.
    pub resolved: usize,
    /// Validation verdicts of "ineffective, escalate".
    pub escalations: usize,
    /// Workload-change inferences.
    pub workload_changes: usize,
    /// Transiently rejected actions deferred for a scheduled retry.
    pub actions_retried: usize,
    /// Episodes closed without a remedy (documented abstention).
    pub abandoned: usize,
    /// Migrations torn down mid-copy and rolled back to the source host.
    pub rollbacks: usize,
    /// Times a VM's monitoring stream exceeded its staleness budget.
    pub monitoring_degraded: usize,
    /// Times fresh samples resumed for a degraded VM.
    pub monitoring_recovered: usize,
    /// Advance notice on the evaluated anomaly, when any prevention
    /// action preceded the first violation of the evaluation window.
    pub lead_time: Option<Duration>,
}

impl ExperimentReport {
    /// Builds the report from a run's result.
    pub fn from_result(result: &ExperimentResult) -> Self {
        let mut report = ExperimentReport {
            eval_violation_secs: result.eval_violation_time.as_secs(),
            alerts_raised: 0,
            alerts_confirmed: 0,
            reactive_triggers: 0,
            actions_issued: 0,
            actions_failed: 0,
            resolved: 0,
            escalations: 0,
            workload_changes: 0,
            actions_retried: 0,
            abandoned: 0,
            rollbacks: 0,
            monitoring_degraded: 0,
            monitoring_recovered: 0,
            lead_time: result.lead_time,
        };
        for e in &result.events {
            match e {
                ControllerEvent::AlertRaised { .. } => report.alerts_raised += 1,
                ControllerEvent::AlertConfirmed { .. } => report.alerts_confirmed += 1,
                ControllerEvent::ReactiveTriggered { .. } => report.reactive_triggers += 1,
                ControllerEvent::ActionIssued { .. } => report.actions_issued += 1,
                ControllerEvent::ActionFailed { .. } => report.actions_failed += 1,
                ControllerEvent::ValidationSucceeded { .. } => report.resolved += 1,
                ControllerEvent::ValidationIneffective { .. } => report.escalations += 1,
                ControllerEvent::WorkloadChangeInferred { .. } => report.workload_changes += 1,
                ControllerEvent::ActionRetried { .. } => report.actions_retried += 1,
                ControllerEvent::ActionAbandoned { .. } => report.abandoned += 1,
                ControllerEvent::ActionRolledBack { .. } => report.rollbacks += 1,
                ControllerEvent::MonitoringDegraded { .. } => report.monitoring_degraded += 1,
                ControllerEvent::MonitoringRecovered { .. } => report.monitoring_recovered += 1,
                // Training and crash-recovery bookkeeping events carry no
                // effectiveness signal for the paper's §III comparisons.
                ControllerEvent::ModelsTrained { .. }
                | ControllerEvent::ControllerCrashed { .. }
                | ControllerEvent::CheckpointTaken { .. }
                | ControllerEvent::JournalTruncated { .. }
                | ControllerEvent::RecoveryCompleted { .. } => {}
            }
        }
        report
    }
}

impl std::fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "violation {}s | alerts {} raised / {} confirmed | reactive {} | \
             actions {} ({} failed) | resolved {} | escalations {} | workload-changes {}",
            self.eval_violation_secs,
            self.alerts_raised,
            self.alerts_confirmed,
            self.reactive_triggers,
            self.actions_issued,
            self.actions_failed,
            self.resolved,
            self.escalations,
            self.workload_changes
        )
    }
}

/// Violation intervals of the evaluation window, relative to the second
/// injection (for trace-style reporting).
pub fn eval_violation_intervals(result: &ExperimentResult) -> Vec<(u64, u64)> {
    let base = result.second_injection;
    let mut intervals = Vec::new();
    let mut open: Option<Timestamp> = None;
    for tick in &result.ticks {
        if tick.time < base {
            continue;
        }
        match (tick.slo_violated, open) {
            (true, None) => open = Some(tick.time),
            (false, Some(start)) => {
                intervals.push((start.since(base).as_secs(), tick.time.since(base).as_secs()));
                open = None;
            }
            _ => {}
        }
    }
    if let (Some(start), Some(last)) = (open, result.ticks.last()) {
        intervals.push((
            start.since(base).as_secs(),
            last.time.next().since(base).as_secs(),
        ));
    }
    intervals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppKind, Experiment, ExperimentSpec, FaultChoice, Scheme};

    #[test]
    fn report_counts_are_consistent_with_events() {
        let spec =
            ExperimentSpec::paper_default(AppKind::Rubis, FaultChoice::MemLeak, Scheme::Prepare);
        let r = Experiment::new(spec, 42).run();
        let report = ExperimentReport::from_result(&r);
        assert_eq!(report.eval_violation_secs, r.eval_violation_time.as_secs());
        assert_eq!(
            report.actions_issued,
            r.events
                .iter()
                .filter(|e| matches!(e, ControllerEvent::ActionIssued { .. }))
                .count()
        );
        assert!(report.alerts_raised >= report.alerts_confirmed);
        assert!(!report.to_string().is_empty());
    }

    #[test]
    fn no_intervention_report_is_empty_of_activity() {
        let spec = ExperimentSpec::paper_default(
            AppKind::SystemS,
            FaultChoice::CpuHog,
            Scheme::NoIntervention,
        );
        let r = Experiment::new(spec, 1).run();
        let report = ExperimentReport::from_result(&r);
        assert_eq!(report.actions_issued, 0);
        assert_eq!(report.alerts_raised, 0);
        assert!(report.eval_violation_secs > 100);
    }

    #[test]
    fn eval_intervals_sum_to_violation_time() {
        let spec = ExperimentSpec::paper_default(
            AppKind::SystemS,
            FaultChoice::Bottleneck,
            Scheme::NoIntervention,
        );
        let r = Experiment::new(spec, 2).run();
        let intervals = eval_violation_intervals(&r);
        let total: u64 = intervals.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, r.eval_violation_time.as_secs());
        for (s, e) in intervals {
            assert!(s < e);
        }
    }
}
