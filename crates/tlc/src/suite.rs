//! The checked trace suite: the pinned scenarios whose event logs the
//! `prepare-tlc` binary verifies in CI — the golden scenario, the
//! hostile chaos plans at their pinned seeds, and worker-invariance
//! pairs. Tests reuse these constructors so CI and `cargo test` check
//! the same traces.

use crate::properties::standard_properties;
use crate::{check_all, Violation};
use prepare_cloudsim::{ChaosKind, ChaosPlan, HostId};
use prepare_core::{
    AppKind, ControllerEvent, Experiment, ExperimentResult, ExperimentSpec, FaultChoice, Scheme,
};
use prepare_metrics::{AttributeKind, Duration, Timestamp, VmId};

/// The chaos seeds CI replays; the chaos test suite and the chaos bench
/// use the same two.
pub const PINNED_CHAOS_SEEDS: [u64; 2] = [0xC0FFEE, 0xBADC0DE];

/// The experiment seed used by every pinned scenario.
pub const PINNED_RUN_SEED: u64 = 42;

fn t(secs: u64) -> Timestamp {
    Timestamp::from_secs(secs)
}

/// The golden-fixture scenario: System S, memory leak, PREPARE scheme.
pub fn golden_spec() -> ExperimentSpec {
    ExperimentSpec::paper_default(AppKind::SystemS, FaultChoice::MemLeak, Scheme::Prepare)
}

/// The aggressive chaos plan the robustness suite replays: every fault
/// class piled onto the evaluated anomaly window (t=800..1100), clearing
/// in time to re-converge.
pub fn hostile_plan(seed: u64) -> ChaosPlan {
    ChaosPlan::new(seed)
        .with_fault(
            t(820),
            t(880),
            ChaosKind::DropSamples {
                vm: None,
                probability: 0.5,
            },
        )
        .with_fault(
            t(900),
            t(960),
            ChaosKind::DelaySamples {
                vm: None,
                probability: 0.8,
            },
        )
        .with_fault(
            t(820),
            t(920),
            ChaosKind::StuckAttribute {
                vm: VmId(0),
                attribute: AttributeKind::FreeMem,
            },
        )
        .with_fault(
            t(850),
            t(950),
            ChaosKind::HypervisorBusy { probability: 0.7 },
        )
        .with_fault(
            t(800),
            t(1100),
            ChaosKind::MigrationTimeout {
                timeout: Duration::from_secs(5),
            },
        )
        .with_fault(t(960), t(1000), ChaosKind::HostBlackout { host: HostId(0) })
}

/// Runs one spec with the parallel engine pinned to `workers`.
pub fn run_with_workers(spec: ExperimentSpec, workers: usize) -> ExperimentResult {
    let mut spec = spec;
    spec.config = spec.config.with_workers(workers);
    Experiment::new(spec, PINNED_RUN_SEED).run()
}

/// One checked trace: a label for the report plus its violations.
#[derive(Debug, Clone)]
pub struct CheckedTrace {
    /// Human-readable scenario label.
    pub label: String,
    /// Number of events in the trace.
    pub events: usize,
    /// All property violations found (empty = pass).
    pub violations: Vec<Violation>,
}

/// Runs the pinned scenarios at one worker count and returns each
/// labeled event trace: the golden scenario, then both hostile chaos
/// seeds.
pub fn suite_traces(workers: usize) -> Vec<(String, Vec<ControllerEvent>)> {
    let mut out = Vec::new();
    let golden = run_with_workers(golden_spec(), workers);
    out.push((
        format!("golden systems/memleak/prepare workers={workers}"),
        golden.events,
    ));
    for seed in PINNED_CHAOS_SEEDS {
        let r = run_with_workers(golden_spec().with_chaos(hostile_plan(seed)), workers);
        out.push((format!("chaos seed {seed:#x} workers={workers}"), r.events));
    }
    out
}

/// Checks one labeled trace set against the registered property
/// catalogue.
pub fn check_traces(traces: &[(String, Vec<ControllerEvent>)]) -> Vec<CheckedTrace> {
    let props = standard_properties();
    traces
        .iter()
        .map(|(label, events)| CheckedTrace {
            label: label.clone(),
            events: events.len(),
            violations: check_all(&props, events),
        })
        .collect()
}

/// Compares two labeled trace sets from different worker counts and
/// reports any divergence — the replay contract says traces must be
/// identical at every `PREPARE_WORKERS`.
pub fn worker_divergences(
    a: &[(String, Vec<ControllerEvent>)],
    b: &[(String, Vec<ControllerEvent>)],
) -> Vec<String> {
    let mut out = Vec::new();
    if a.len() != b.len() {
        out.push(format!(
            "trace-set size mismatch: {} vs {} scenarios",
            a.len(),
            b.len()
        ));
        return out;
    }
    for ((la, ea), (lb, eb)) in a.iter().zip(b) {
        if ea != eb {
            out.push(format!(
                "worker-invariance violated: `{la}` ({} events) != `{lb}` ({} events)",
                ea.len(),
                eb.len()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_plan_matches_chaos_suite_windows() {
        // The plan must actually cover the evaluated anomaly (t=800+).
        let plan = hostile_plan(PINNED_CHAOS_SEEDS[0]);
        assert_eq!(plan.faults.len(), 6);
        assert!(plan.faults.iter().all(|f| f.from < f.until));
    }
}
