//! Using the prediction stack directly — no cluster simulator, no
//! experiment runner: feed your own metric stream, get look-ahead anomaly
//! predictions with ranked attribute blame, filter false alarms, and fall
//! back to the unsupervised outlier detector for never-seen anomalies.
//!
//! ```text
//! cargo run --release --example anomaly_prediction
//! ```

use prepare_repro::anomaly::{AlertFilter, AnomalyPredictor, OutlierDetector, PredictorConfig};
use prepare_repro::metrics::{
    AttributeKind, Duration, MetricSample, MetricVector, SloLog, TimeSeries, Timestamp,
};
use std::error::Error;

/// Builds a synthetic labeled trace: a service whose memory drains and
/// whose SLO breaks whenever free memory is exhausted (a leak-like
/// recurrent anomaly), sampled every 5 s.
fn labeled_trace() -> (TimeSeries, SloLog) {
    let mut series = TimeSeries::new();
    let mut slo = SloLog::new();
    for i in 0..600u64 {
        let t = Timestamp::from_secs(i * 5);
        let phase = i % 150;
        // free memory: healthy plateau, slow drain, exhausted, recovery
        let free = match phase {
            0..=49 => 480.0,
            50..=109 => 480.0 - (phase - 49) as f64 * 8.0,
            110..=129 => 0.0,
            _ => 480.0,
        };
        let exhausted = free <= 0.0;
        let v = MetricVector::from_fn(|a| match a {
            AttributeKind::FreeMem => free + (i % 3) as f64,
            AttributeKind::MemUtil => 100.0 - free / 5.12,
            AttributeKind::PageFaults => {
                if exhausted {
                    700.0
                } else {
                    0.0
                }
            }
            AttributeKind::DiskRead => {
                if exhausted {
                    900.0
                } else {
                    40.0
                }
            }
            AttributeKind::CpuTotal => 35.0 + (i % 5) as f64,
            _ => 12.0,
        });
        series.push(MetricSample::new(t, v));
        slo.record(t, exhausted);
    }
    (series, slo)
}

fn main() -> Result<(), Box<dyn Error>> {
    let (series, slo) = labeled_trace();
    let config = PredictorConfig::default();

    // --- Supervised path: train on the labeled history. ---
    let predictor = AnomalyPredictor::train(&series, &slo, &config)?;

    // Accuracy across look-ahead windows (the Fig. 10–13 methodology).
    println!("trace-driven accuracy (A_T / A_F per look-ahead window):");
    for la in [5u64, 15, 30, 45] {
        let m = predictor.evaluate_trace(&series, &slo, Duration::from_secs(la));
        println!(
            "  {la:>2}s: A_T {:5.1}%  A_F {:4.1}%   ({m})",
            m.true_positive_rate() * 100.0,
            m.false_alarm_rate() * 100.0
        );
    }

    // Online use: anchor on the live stream, predict, filter, diagnose.
    let mut live = predictor.clone();
    live.reset_position();
    let mut filter = AlertFilter::paper_default();
    println!("\nonline replay with 30 s look-ahead and 3-of-4 filtering:");
    let mut reported = 0;
    for sample in series.iter() {
        live.observe(sample);
        let prediction = live.predict(Duration::from_secs(30));
        if filter.push(prediction.is_alert()) && reported < 3 {
            reported += 1;
            println!(
                "  [{}] confirmed alert, p(abnormal)={:.2}, blames {:?}",
                sample.time,
                prediction.probability,
                prediction.top_attribute()
            );
            filter.reset();
        }
    }

    // --- Unsupervised fallback (§V): no labels required. ---
    let healthy: TimeSeries = series.iter().take(45).copied().collect();
    let detector = OutlierDetector::fit_default(&healthy);
    let worst = series
        .iter()
        .map(|s| (s.time, detector.score(&s.values)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .ok_or("empty series")?;
    println!(
        "\nunsupervised outlier detector: max z-score {:.1} at {} (threshold {})",
        worst.1,
        worst.0,
        OutlierDetector::DEFAULT_THRESHOLD
    );
    Ok(())
}
