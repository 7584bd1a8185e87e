//! Figure 12: prediction accuracy under different settings of the k-of-W
//! false-alarm filter (k ∈ {1,2,3}, W = 4) for a bottleneck fault in
//! RUBiS.

use prepare_anomaly::PredictorConfig;
use prepare_bench::harness::{
    filtered_accuracy_sweep, print_accuracy_table, AccuracyRows, AccuracyTrace, LOOK_AHEADS,
};
use prepare_core::{AppKind, FaultChoice};
use prepare_metrics::Duration;

fn main() {
    println!("== Figure 12: k-of-W alert filtering (bottleneck / RUBiS) ==");
    let config = PredictorConfig::default();
    let trace = AccuracyTrace::generate(
        AppKind::Rubis,
        FaultChoice::Bottleneck,
        1,
        Duration::from_secs(5),
    );
    let variants: Vec<(String, AccuracyRows)> = [1usize, 2, 3]
        .iter()
        .map(|&k| {
            (
                format!("k={k},W=4"),
                filtered_accuracy_sweep(&trace, &config, k, 4, &LOOK_AHEADS),
            )
        })
        .collect();
    let view: Vec<(&str, AccuracyRows)> = variants
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    print_accuracy_table("bottleneck fault in RUBiS", &view);
}
