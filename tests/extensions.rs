//! Integration tests of the extension features (paper §V and beyond):
//! the unsupervised first-occurrence detector, ROC analysis over real
//! experiment traces, and trace persistence round trips.

use prepare_repro::anomaly::{AnomalyPredictor, PredictorConfig, RocCurve, UnsupervisedPredictor};
use prepare_repro::core::{AppKind, Experiment, ExperimentSpec, FaultChoice, Scheme};
use prepare_repro::metrics::{Duration, Label, SloLog, TimeSeries, TraceStore};

/// Runs the no-intervention paper schedule and returns the faulty VM's
/// series plus the SLO log.
#[expect(
    clippy::expect_used,
    reason = "implication scores are finite and every run records VM series"
)]
fn faulty_trace(app: AppKind, fault: FaultChoice, seed: u64) -> (TimeSeries, SloLog) {
    let spec = ExperimentSpec::paper_default(app, fault, Scheme::NoIntervention);
    let r = Experiment::new(spec, seed).run();
    let mut slo = SloLog::new();
    for t in &r.ticks {
        slo.record(t.time, t.slo_violated);
    }
    let (_, series) = r
        .vm_series
        .iter()
        .max_by(|a, b| {
            let sa = prepare_repro::core::implication_score(&a.1, &slo);
            let sb = prepare_repro::core::implication_score(&b.1, &slo);
            sa.partial_cmp(&sb).expect("finite scores")
        })
        .expect("non-empty")
        .clone();
    (series, slo)
}

#[test]
fn unsupervised_detector_flags_a_first_occurrence() {
    let (series, _) = faulty_trace(AppKind::Rubis, FaultChoice::MemLeak, 1);
    // Train on the healthy prefix only — no labels, no recurrence.
    let healthy: TimeSeries = series
        .iter()
        .filter(|s| s.time.as_secs() < 150)
        .copied()
        .collect();
    let mut model = UnsupervisedPredictor::fit(&healthy, &PredictorConfig::default());
    let mut detected_inside = 0usize;
    let mut alarms_before = 0usize;
    for s in series.iter() {
        model.observe(s);
        let pred = model.predict(Duration::from_secs(10));
        let t = s.time.as_secs();
        if (250..450).contains(&t) && pred.label == Label::Abnormal {
            detected_inside += 1;
        }
        if t < 150 && pred.label == Label::Abnormal {
            alarms_before += 1;
        }
    }
    assert!(
        detected_inside > 10,
        "first occurrence missed ({detected_inside} hits)"
    );
    assert_eq!(alarms_before, 0, "false alarms on the healthy prefix");
}

#[test]
fn roc_auc_is_strong_on_a_recurrent_fault() {
    let (series, slo) = faulty_trace(AppKind::SystemS, FaultChoice::MemLeak, 1);
    let train: TimeSeries = series
        .iter()
        .filter(|s| s.time.as_secs() <= 700)
        .copied()
        .collect();
    let test: TimeSeries = series
        .iter()
        .filter(|s| s.time.as_secs() > 700)
        .copied()
        .collect();
    let predictor =
        AnomalyPredictor::train(&train, &slo, &PredictorConfig::default()).expect("trains");
    let roc = RocCurve::compute(&predictor, &test, &slo, Duration::from_secs(30));
    assert!(
        roc.auc() > 0.9,
        "AUC {:.3} too low for a recurrent leak",
        roc.auc()
    );
    let best = roc.best_operating_point().expect("non-empty curve");
    assert!(best.true_positive_rate > 0.7);
    assert!(best.false_alarm_rate < 0.3);
}

#[test]
fn experiment_traces_round_trip_through_the_store() {
    let spec = ExperimentSpec::paper_default(AppKind::Rubis, FaultChoice::CpuHog, Scheme::Prepare);
    let r = Experiment::new(spec, 7).run();
    let mut store = TraceStore::new();
    for tick in &r.ticks {
        store.record_slo(tick.time, tick.slo_violated);
    }
    for (vm, series) in &r.vm_series {
        for s in series.iter() {
            store.record_sample(*vm, *s);
        }
    }
    let json = store.to_json().expect("serializes");
    let back = TraceStore::from_json(&json).expect("parses");
    assert_eq!(store, back);
    assert_eq!(back.n_vms(), 4);
    assert_eq!(
        back.slo().total_violation_time(),
        store.slo().total_violation_time()
    );
    // ...and a restored trace can still train a predictor.
    let vm = back.vms().last().expect("has VMs");
    let predictor = AnomalyPredictor::train(
        back.series(vm).expect("recorded"),
        back.slo(),
        &PredictorConfig::default(),
    );
    assert!(
        predictor.is_ok(),
        "restored trace failed to train: {predictor:?}"
    );
}
