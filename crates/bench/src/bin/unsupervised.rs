//! Beyond the paper (§V, "Discussions"): how far does the *unsupervised*
//! extension get on an anomaly's **first** occurrence?
//!
//! The supervised TAN pipeline cannot alert on a fault class it has never
//! seen labeled (the paper's stated limitation: "PREPARE can only predict
//! the anomalies that the model has already seen before"). The clustering
//! detector trains on healthy operation only, so it can flag the first
//! occurrence — at the cost of coarser blame. This harness quantifies
//! that trade on both case-study applications: detection coverage of the
//! first injection window, false-alarm rate outside it, and detection
//! delay from injection start.

use prepare_anomaly::{PredictorConfig, UnsupervisedPredictor};
use prepare_bench::harness::AccuracyTrace;
use prepare_core::{AppKind, FaultChoice};
use prepare_metrics::{Duration, Label, TimeSeries, Timestamp};

struct Outcome {
    detected_frac: f64,
    false_alarm_frac: f64,
    delay_secs: Option<u64>,
}

/// Trains on the pre-fault healthy prefix and replays the full trace.
fn evaluate(trace: &AccuracyTrace, injection: (u64, u64)) -> Outcome {
    let series = trace.faulty_series();
    let healthy: TimeSeries = series
        .iter()
        .filter(|s| s.time.as_secs() < injection.0)
        .copied()
        .collect();
    let mut model = UnsupervisedPredictor::fit(&healthy, &PredictorConfig::default());

    let mut in_window = 0usize;
    let mut detected = 0usize;
    let mut outside = 0usize;
    let mut false_alarms = 0usize;
    let mut first_detection: Option<Timestamp> = None;
    for s in series.iter() {
        model.observe(s);
        let pred = model.predict(Duration::from_secs(10));
        let t = s.time.as_secs();
        let inside = (injection.0..injection.1).contains(&t);
        if inside {
            in_window += 1;
            if pred.label == Label::Abnormal {
                detected += 1;
                first_detection.get_or_insert(s.time);
            }
        } else if t >= injection.0 / 2 {
            // Score false alarms only after a warm-up margin.
            outside += 1;
            if pred.label == Label::Abnormal && t < injection.0 {
                false_alarms += 1;
            }
        }
    }
    Outcome {
        detected_frac: detected as f64 / in_window.max(1) as f64,
        false_alarm_frac: false_alarms as f64 / outside.max(1) as f64,
        delay_secs: first_detection.map(|t| t.as_secs().saturating_sub(injection.0)),
    }
}

fn main() {
    println!("== Unsupervised first-occurrence detection (§V extension) ==");
    println!("(the supervised pipeline detects 0% of a first occurrence by construction)\n");
    println!(
        "{:10} {:12} {:>12} {:>12} {:>12}",
        "app", "fault", "coverage", "false-alarm", "delay"
    );
    for app in [AppKind::SystemS, AppKind::Rubis] {
        for fault in [
            FaultChoice::MemLeak,
            FaultChoice::CpuHog,
            FaultChoice::Bottleneck,
        ] {
            let trace = AccuracyTrace::generate(app, fault, 1, Duration::from_secs(5));
            // The paper schedule injects first at t=150 for 300 s.
            let outcome = evaluate(&trace, (150, 450));
            println!(
                "{:10} {:12} {:>11.1}% {:>11.1}% {:>12}",
                app.name(),
                fault.name(),
                outcome.detected_frac * 100.0,
                outcome.false_alarm_frac * 100.0,
                outcome
                    .delay_secs
                    .map(|d| format!("{d}s"))
                    .unwrap_or_else(|| "miss".into()),
            );
        }
    }
}
