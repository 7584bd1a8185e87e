//! Figure 10: prediction accuracy of the **per-VM model vs the monolithic
//! model** (all VMs' attributes in one model) across look-ahead windows —
//! (a) memleak / System S, (b) cpuhog / RUBiS.

use prepare_anomaly::{MonolithicPredictor, PredictorConfig};
use prepare_bench::harness::{
    accuracy_sweep, print_accuracy_table, AccuracyRows, AccuracyTrace, LOOK_AHEADS,
};
use prepare_core::{AppKind, FaultChoice};
use prepare_metrics::{Duration, TimeSeries};

fn monolithic_sweep(trace: &AccuracyTrace, config: &PredictorConfig) -> AccuracyRows {
    let train: Vec<TimeSeries> = trace
        .vm_series
        .iter()
        .map(|(_, s)| trace.training_slice(s))
        .collect();
    let test: Vec<TimeSeries> = trace
        .vm_series
        .iter()
        .map(|(_, s)| trace.test_slice(s))
        .collect();
    let model = MonolithicPredictor::train(&train, &trace.slo, config)
        .expect("training slice contains both classes");
    LOOK_AHEADS
        .iter()
        .map(|&la| {
            let m = model.evaluate_trace(&test, &trace.slo, Duration::from_secs(la));
            (la, m.true_positive_rate(), m.false_alarm_rate())
        })
        .collect()
}

fn main() {
    println!("== Figure 10: per-VM vs monolithic prediction model ==");
    let config = PredictorConfig::default();
    for (panel, app, fault) in [
        (
            "(a) memleak / System S",
            AppKind::SystemS,
            FaultChoice::MemLeak,
        ),
        ("(b) cpuhog / RUBiS", AppKind::Rubis, FaultChoice::CpuHog),
    ] {
        let trace = AccuracyTrace::generate(app, fault, 1, Duration::from_secs(5));
        let per_vm = accuracy_sweep(&trace, &config, &LOOK_AHEADS);
        let mono = monolithic_sweep(&trace, &config);
        println!();
        print_accuracy_table(panel, &[("per-VM", per_vm), ("monolithic", mono)]);
    }
}
