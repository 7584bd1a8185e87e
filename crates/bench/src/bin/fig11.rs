//! Figure 11: prediction accuracy of the **2-dependent Markov model vs the
//! simple (first-order) Markov model** across look-ahead windows —
//! (a) memleak / System S, (b) bottleneck / RUBiS.

use prepare_anomaly::{MarkovKind, PredictorConfig};
use prepare_bench::harness::{accuracy_sweep, print_accuracy_table, AccuracyTrace, LOOK_AHEADS};
use prepare_core::{AppKind, FaultChoice};
use prepare_metrics::Duration;

fn main() {
    println!("== Figure 11: 2-dependent vs simple Markov value prediction ==");
    for (panel, app, fault) in [
        (
            "(a) memleak / System S",
            AppKind::SystemS,
            FaultChoice::MemLeak,
        ),
        (
            "(b) bottleneck / RUBiS",
            AppKind::Rubis,
            FaultChoice::Bottleneck,
        ),
    ] {
        let trace = AccuracyTrace::generate(app, fault, 1, Duration::from_secs(5));
        let two_dep = accuracy_sweep(
            &trace,
            &PredictorConfig {
                markov: MarkovKind::TwoDependent,
                ..PredictorConfig::default()
            },
            &LOOK_AHEADS,
        );
        let simple = accuracy_sweep(
            &trace,
            &PredictorConfig {
                markov: MarkovKind::Simple,
                ..PredictorConfig::default()
            },
            &LOOK_AHEADS,
        );
        println!();
        print_accuracy_table(panel, &[("2-dep", two_dep), ("simple", simple)]);
    }
}
