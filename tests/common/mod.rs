//! Shared helpers for the workspace-level end-to-end test suites: full
//! replay transcripts (the byte-identity contract) and experiment
//! constructors used by the differential and golden-trace tests.

// Each test binary compiles its own copy of this module and uses a
// different subset of the helpers.
#![allow(dead_code)]

pub mod crash;

use prepare_repro::core::{
    AppKind, Experiment, ExperimentResult, ExperimentSpec, FaultChoice, Scheme,
};

/// Renders every replay-relevant artifact of a run into one byte string.
/// `Debug` formatting is stable for a fixed binary, which is exactly the
/// replay contract: same build + same inputs = same bytes.
pub fn transcript(r: &ExperimentResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "violation {:?} / {:?}\n",
        r.total_violation_time, r.eval_violation_time
    ));
    for t in &r.ticks {
        out.push_str(&format!("tick {t:?}\n"));
    }
    for e in &r.events {
        out.push_str(&format!("event {e:?}\n"));
    }
    for a in &r.actions {
        out.push_str(&format!("action {a:?}\n"));
    }
    for (vm, series) in &r.vm_series {
        out.push_str(&format!("series {vm} {series:?}\n"));
    }
    out
}

/// The controller event log alone, one `Debug` line per event — the
/// compact, human-diffable slice of the transcript used by the golden
/// regression fixture.
pub fn events_transcript(r: &ExperimentResult) -> String {
    let mut out = String::new();
    for e in &r.events {
        out.push_str(&format!("event {e:?}\n"));
    }
    out
}

/// Runs the paper-default schedule for `app`/`fault` under `scheme` with
/// the parallel engine pinned to `workers`.
pub fn run_with_workers(
    app: AppKind,
    fault: FaultChoice,
    scheme: Scheme,
    seed: u64,
    workers: usize,
) -> ExperimentResult {
    let mut spec = ExperimentSpec::paper_default(app, fault, scheme);
    spec.config = spec.config.with_workers(workers);
    Experiment::new(spec, seed).run()
}
