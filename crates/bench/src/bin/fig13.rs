//! Figure 13: prediction accuracy under different monitoring sampling
//! intervals (1 s, 5 s, 10 s) for a bottleneck fault in RUBiS. A single
//! 1-second base trace is downsampled so all variants see the same run.

use prepare_anomaly::AnomalyPredictor;
use prepare_anomaly::PredictorConfig;
use prepare_bench::harness::{
    downsample, print_accuracy_table, AccuracyRows, AccuracyTrace, LOOK_AHEADS,
};
use prepare_core::{AppKind, FaultChoice};
use prepare_metrics::Duration;

fn sweep_at_interval(trace: &AccuracyTrace, factor: usize) -> AccuracyRows {
    let config = PredictorConfig {
        sampling_interval: Duration::from_secs(factor as u64),
        ..PredictorConfig::default()
    };
    let full = trace.faulty_series();
    let sampled = downsample(full, factor);
    let train: prepare_metrics::TimeSeries = sampled
        .iter()
        .filter(|s| s.time <= trace.train_end)
        .copied()
        .collect();
    let test: prepare_metrics::TimeSeries = sampled
        .iter()
        .filter(|s| s.time > trace.train_end)
        .copied()
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "the synthetic fault trace violates its SLO inside the training slice"
    )]
    let predictor =
        AnomalyPredictor::train(&train, &trace.slo, &config).expect("both classes in training");
    LOOK_AHEADS
        .iter()
        .map(|&la| {
            let m = predictor.evaluate_trace(&test, &trace.slo, Duration::from_secs(la));
            (la, m.true_positive_rate(), m.false_alarm_rate())
        })
        .collect()
}

/// Element-wise mean of per-seed sweeps.
fn average(sweeps: Vec<Vec<(u64, f64, f64)>>) -> AccuracyRows {
    let n = sweeps.len() as f64;
    let rows = sweeps[0].len();
    (0..rows)
        .map(|i| {
            let la = sweeps[0][i].0;
            let at = sweeps.iter().map(|s| s[i].1).sum::<f64>() / n;
            let af = sweeps.iter().map(|s| s[i].2).sum::<f64>() / n;
            (la, at, af)
        })
        .collect()
}

fn main() {
    println!("== Figure 13: sampling interval sweep (bottleneck / RUBiS) ==");
    // Base traces monitored every second, averaged over three runs.
    let traces: Vec<AccuracyTrace> = [1u64, 2, 3]
        .iter()
        .map(|&seed| {
            AccuracyTrace::generate(
                AppKind::Rubis,
                FaultChoice::Bottleneck,
                seed,
                Duration::from_secs(1),
            )
        })
        .collect();
    let one = average(traces.iter().map(|t| sweep_at_interval(t, 1)).collect());
    let five = average(traces.iter().map(|t| sweep_at_interval(t, 5)).collect());
    let ten = average(traces.iter().map(|t| sweep_at_interval(t, 10)).collect());
    print_accuracy_table(
        "bottleneck fault in RUBiS (mean of 3 runs)",
        &[("1s", one), ("5s", five), ("10s", ten)],
    );
}
