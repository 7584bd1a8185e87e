//! Robustness benchmark: the PREPARE control loop under a hostile
//! infrastructure, and what that hostility costs. Emits `BENCH_chaos.json`.
//!
//! For each application the binary runs the paper-default memory-leak
//! scenario three ways: unmanaged (`NoIntervention`, the damage ceiling),
//! PREPARE on a clean infrastructure (the floor), and PREPARE under two
//! pinned hostile [`ChaosPlan`](prepare_cloudsim::ChaosPlan)s that pile
//! every fault class — dropped, delayed and stuck samples, a busy
//! hypervisor, migration timeouts, and a host blackout — onto the
//! evaluated anomaly window. The interesting number is how much of the
//! clean-infrastructure prevention benefit survives the hostile runs.
//!
//! The hostile plan and its seeds are `prepare_tlc::suite`'s, the same
//! ones the chaos test suite and the `prepare-tlc` checker replay. Every
//! chaos run is executed at 1 and 4 workers and the event logs must agree
//! bit-for-bit before any number is reported.

use prepare_bench::harness::{measured_ms, write_bench_json};
use prepare_cloudsim::ChaosStats;
use prepare_core::{
    AppKind, Experiment, ExperimentReport, ExperimentResult, ExperimentSpec, FaultChoice, Scheme,
};
use prepare_tlc::suite::{hostile_plan, PINNED_CHAOS_SEEDS};
use std::time::Instant;

/// Simulation seed shared by every run (chaos perturbs on top of it).
const SEED: u64 = 42;

/// One benchmarked configuration.
struct Row {
    app: &'static str,
    scheme: &'static str,
    chaos_seed: Option<u64>,
    report: ExperimentReport,
    stats: Option<ChaosStats>,
    wall_ms: f64,
}

/// Event-log fingerprint used for the worker-invariance audit.
fn fingerprint(r: &ExperimentResult) -> String {
    format!("{:?}|{:?}", r.eval_violation_time, r.events)
}

fn run(
    app: AppKind,
    scheme: Scheme,
    chaos_seed: Option<u64>,
    workers: usize,
) -> (ExperimentResult, f64) {
    let mut spec = ExperimentSpec::paper_default(app, FaultChoice::MemLeak, scheme);
    if let Some(seed) = chaos_seed {
        spec = spec.with_chaos(hostile_plan(seed));
    }
    spec.config = spec.config.with_workers(workers);
    let t0 = Instant::now();
    let result = Experiment::new(spec, SEED).run();
    let wall_ms = measured_ms(t0);
    prepare_bench::harness::assert_trace_clean(
        &format!("{app:?}/{scheme:?}/chaos={chaos_seed:?}/workers={workers}"),
        &result.events,
    );
    (result, wall_ms)
}

fn main() {
    println!("== PREPARE under hostile infrastructure (memleak, paper-default runs) ==");
    println!(
        "{:<9} {:<15} {:>10} {:>10} {:>8} {:>8} {:>9} {:>9} {:>9}",
        "app",
        "scenario",
        "violation",
        "actions",
        "failed",
        "retried",
        "rollback",
        "degraded",
        "wall(ms)"
    );

    let mut rows: Vec<Row> = Vec::new();
    for (app, app_name) in [(AppKind::SystemS, "system-s"), (AppKind::Rubis, "rubis")] {
        let push = |scheme: Scheme,
                    scheme_name: &'static str,
                    chaos_seed: Option<u64>,
                    rows: &mut Vec<Row>| {
            let (result, wall_ms) = run(app, scheme, chaos_seed, 1);
            if chaos_seed.is_some() {
                // Worker-invariance audit: refuse to report numbers for a
                // chaos run that diverges when sharded.
                let (sharded, _) = run(app, scheme, chaos_seed, 4);
                assert!(
                    fingerprint(&result) == fingerprint(&sharded),
                    "{app_name}/{scheme_name} chaos run diverged at workers=4"
                );
            }
            let report = ExperimentReport::from_result(&result);
            let scenario = match chaos_seed {
                None => scheme_name.to_string(),
                Some(seed) => format!("chaos-{seed:#x}"),
            };
            println!(
                "{:<9} {:<15} {:>9}s {:>10} {:>8} {:>8} {:>9} {:>9} {:>9.0}",
                app_name,
                scenario,
                report.eval_violation_secs,
                report.actions_issued,
                report.actions_failed,
                report.actions_retried,
                report.rollbacks,
                report.monitoring_degraded,
                wall_ms
            );
            rows.push(Row {
                app: app_name,
                scheme: scheme_name,
                chaos_seed,
                report,
                stats: result.chaos_stats,
                wall_ms,
            });
        };

        push(Scheme::NoIntervention, "no-intervention", None, &mut rows);
        push(Scheme::Prepare, "prepare", None, &mut rows);
        for seed in PINNED_CHAOS_SEEDS {
            push(Scheme::Prepare, "prepare", Some(seed), &mut rows);
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"chaos\",\n");
    json.push_str(&format!("  \"sim_seed\": {SEED},\n"));
    json.push_str(
        "  \"note\": \"paper-default memleak runs; chaos rows replay a pinned hostile plan \
         (drops, delays, stuck attribute, busy hypervisor, migration timeouts, host blackout) \
         over the evaluated anomaly; event logs are asserted bit-identical at workers 1 and 4 \
         before reporting\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let chaos_seed = row.chaos_seed.map_or("null".to_string(), |s| s.to_string());
        let stats = match &row.stats {
            None => "null".to_string(),
            Some(s) => format!(
                "{{\"dropped\": {}, \"delayed\": {}, \"coalesced\": {}, \"stuck_readings\": {}, \
                 \"blackout_drops\": {}, \"busy_ticks\": {}, \"aborted_migrations\": {}}}",
                s.dropped,
                s.delayed,
                s.coalesced,
                s.stuck_readings,
                s.blackout_drops,
                s.busy_ticks,
                s.aborted_migrations
            ),
        };
        json.push_str(&format!(
            "    {{\"app\": \"{}\", \"scheme\": \"{}\", \"chaos_seed\": {}, \
             \"violation_secs\": {}, \"alerts_confirmed\": {}, \"actions_issued\": {}, \
             \"actions_failed\": {}, \"actions_retried\": {}, \"rollbacks\": {}, \
             \"monitoring_degraded\": {}, \"monitoring_recovered\": {}, \
             \"chaos\": {}, \"wall_ms\": {:.1}}}{}\n",
            row.app,
            row.scheme,
            chaos_seed,
            row.report.eval_violation_secs,
            row.report.alerts_confirmed,
            row.report.actions_issued,
            row.report.actions_failed,
            row.report.actions_retried,
            row.report.rollbacks,
            row.report.monitoring_degraded,
            row.report.monitoring_recovered,
            stats,
            row.wall_ms,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    write_bench_json("BENCH_chaos.json", &json);
}
