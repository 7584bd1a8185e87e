//! Shared helpers for the figure-regeneration binaries.

use prepare_anomaly::{AlertFilter, AnomalyPredictor, ConfusionMatrix, PredictorConfig};
use prepare_core::{
    AppKind, ControllerEvent, Experiment, ExperimentResult, ExperimentSpec, FaultChoice,
    PreventionPolicy, Scheme, TrialSummary,
};
use prepare_metrics::{Duration, Label, SloLog, TimeSeries, Timestamp, VmId};

/// Refuses to report numbers derived from a trace that breaks the
/// registered temporal-property catalogue: every figure/bench trace is
/// run through `prepare-tlc`'s standard properties before it is printed,
/// so a published table can never be backed by a malformed run.
pub fn assert_trace_clean(label: &str, events: &[ControllerEvent]) {
    let violations =
        prepare_tlc::check_all(&prepare_tlc::properties::standard_properties(), events);
    assert!(
        violations.is_empty(),
        "{label}: trace violates temporal properties:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

pub use stopwatch::Stopwatch;

#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "bench wall time is the payload: read here, reported as milliseconds, never fed \
              back into simulation state or a fingerprint"
)]
mod stopwatch {
    use std::time::Instant;

    /// The bench binaries' one host clock. The `Instant` is private and
    /// the only output is milliseconds: a caller gets a number to report,
    /// never an `Instant` to compare, offset or keep as a deadline.
    pub struct Stopwatch(Instant);

    impl Stopwatch {
        /// Starts timing now.
        pub fn start() -> Stopwatch {
            Stopwatch(Instant::now())
        }

        /// Milliseconds since [`Stopwatch::start`].
        pub fn elapsed_ms(&self) -> f64 {
            self.0.elapsed().as_secs_f64() * 1000.0
        }
    }
}

/// Writes one `BENCH_*.json` artifact; measured times reach it only as
/// [`Stopwatch`] milliseconds.
pub fn write_bench_json(name: &str, json: &str) {
    if let Err(err) = std::fs::write(name, json) {
        eprintln!("failed to write {name}: {err}");
        std::process::exit(1);
    }
    println!("wrote {name}");
}

/// Seeds used for the repeated-trial experiments ("We repeat each
/// experiment five times").
pub const TRIAL_SEEDS: [u64; 5] = [1, 2, 3, 4, 5];

/// The look-ahead windows swept in Figs. 10–13 (seconds).
pub const LOOK_AHEADS: [u64; 9] = [5, 10, 15, 20, 25, 30, 35, 40, 45];

/// Prints one Fig. 6 / Fig. 8 style block: mean ± std SLO violation time
/// for every app × fault × scheme combination under `policy`.
pub fn print_violation_summary(policy: PreventionPolicy) {
    println!(
        "{:10} {:12} {:>14} {:>14} {:>14}",
        "app", "fault", "PREPARE (s)", "reactive (s)", "none (s)"
    );
    for app in [AppKind::SystemS, AppKind::Rubis] {
        for fault in [
            FaultChoice::MemLeak,
            FaultChoice::CpuHog,
            FaultChoice::Bottleneck,
        ] {
            let mut cells = Vec::new();
            for scheme in [Scheme::Prepare, Scheme::Reactive, Scheme::NoIntervention] {
                let spec = ExperimentSpec::paper_default(app, fault, scheme).with_policy(policy);
                let s = TrialSummary::collect(&spec, &TRIAL_SEEDS);
                cells.push(format!("{:6.1}±{:5.1}", s.mean_secs, s.std_secs));
            }
            println!(
                "{:10} {:12} {:>14} {:>14} {:>14}",
                app.name(),
                fault.name(),
                cells[0],
                cells[1],
                cells[2]
            );
        }
    }
}

/// Runs the three schemes for one app/fault and prints the SLO-metric
/// trace around the second (evaluated) injection, re-based so t=0 is the
/// injection start — the Fig. 7 / Fig. 9 panels.
pub fn print_trace_panel(app: AppKind, fault: FaultChoice, policy: PreventionPolicy, seed: u64) {
    let mut results = Vec::new();
    for scheme in [Scheme::NoIntervention, Scheme::Reactive, Scheme::Prepare] {
        let spec = ExperimentSpec::paper_default(app, fault, scheme).with_policy(policy);
        let result = Experiment::new(spec, seed).run();
        assert_trace_clean(
            &format!("{}/{}/{scheme:?}", app.name(), fault.name()),
            &result.events,
        );
        results.push((scheme, result));
    }
    let start = results[0].1.second_injection.as_secs();
    let metric_name = match app {
        AppKind::SystemS => "throughput (Ktuples/s)",
        AppKind::Rubis => "avg response time (ms)",
    };
    println!(
        "# {} / {} — {metric_name}, t=0 at injection start",
        app.name(),
        fault.name()
    );
    println!(
        "{:>6} {:>16} {:>16} {:>16}",
        "t(s)", "no-intervention", "reactive", "PREPARE"
    );
    let window = 420u64.min(results[0].1.ticks.len() as u64 - start);
    for dt in (0..window).step_by(10) {
        let idx = (start + dt) as usize;
        // `window` keeps idx inside the first trace; a shorter one prints NaN.
        let row: Vec<f64> = results
            .iter()
            .map(|(_, r)| r.ticks.get(idx).map_or(f64::NAN, |t| t.slo_metric))
            .collect();
        println!(
            "{:>6} {:>16.2} {:>16.2} {:>16.2}",
            dt, row[0], row[1], row[2]
        );
    }
}

/// A labeled trace for the accuracy studies: the faulty VM's metric
/// series (plus every other VM's, for the monolithic model) and the SLO
/// log, produced by an intervention-free run.
pub struct AccuracyTrace {
    /// Per-VM series in component order.
    pub vm_series: Vec<(VmId, TimeSeries)>,
    /// Index of the faulty VM within `vm_series` (bottleneck component
    /// for workload faults).
    pub faulty_index: usize,
    /// The run's SLO log.
    pub slo: SloLog,
    /// End of the training portion (covers the first injection and the
    /// quiet period after it).
    pub train_end: Timestamp,
}

impl AccuracyTrace {
    /// Generates the trace: a NoIntervention run of the paper schedule at
    /// `sampling_interval`, with the faulty VM identified by exhaustion
    /// scoring over the whole run.
    pub fn generate(
        app: AppKind,
        fault: FaultChoice,
        seed: u64,
        sampling_interval: Duration,
    ) -> AccuracyTrace {
        let mut spec = ExperimentSpec::paper_default(app, fault, Scheme::NoIntervention);
        spec.config.predictor.sampling_interval = sampling_interval;
        let second = spec.second_injection;
        let r: ExperimentResult = Experiment::new(spec, seed).run();
        let mut slo = SloLog::new();
        for t in &r.ticks {
            slo.record(t.time, t.slo_violated);
        }
        // Identify the faulty VM by the exhaustion score over the run.
        let mut faulty_index = 0;
        let mut best = f64::NEG_INFINITY;
        for (i, (_, series)) in r.vm_series.iter().enumerate() {
            let score = prepare_core::implication_score(series, &slo);
            if score > best {
                best = score;
                faulty_index = i;
            }
        }
        AccuracyTrace {
            vm_series: r.vm_series,
            faulty_index,
            slo,
            train_end: second.saturating_sub(Duration::from_secs(100)),
        }
    }

    /// The faulty VM's full series.
    pub fn faulty_series(&self) -> &TimeSeries {
        &self.vm_series[self.faulty_index].1
    }

    /// The training slice of one series (samples at or before
    /// `train_end`).
    pub fn training_slice(&self, series: &TimeSeries) -> TimeSeries {
        series
            .iter()
            .filter(|s| s.time <= self.train_end)
            .copied()
            .collect()
    }

    /// The evaluation slice (samples after `train_end`).
    pub fn test_slice(&self, series: &TimeSeries) -> TimeSeries {
        series
            .iter()
            .filter(|s| s.time > self.train_end)
            .copied()
            .collect()
    }
}

/// One accuracy-sweep series: `(look_ahead_secs, A_T, A_F)` per row.
pub type AccuracyRows = Vec<(u64, f64, f64)>;

/// Trains a per-VM predictor on the trace's training slice and scores it
/// on the test slice for each look-ahead. Returns `(look_ahead_secs,
/// A_T, A_F)` rows.
pub fn accuracy_sweep(
    trace: &AccuracyTrace,
    config: &PredictorConfig,
    look_aheads: &[u64],
) -> AccuracyRows {
    let train = trace.training_slice(trace.faulty_series());
    let test = trace.test_slice(trace.faulty_series());
    #[expect(
        clippy::expect_used,
        reason = "the synthetic fault trace violates its SLO inside the training slice"
    )]
    let predictor = AnomalyPredictor::train(&train, &trace.slo, config)
        .expect("training slice contains both classes");
    look_aheads
        .iter()
        .map(|&la| {
            let m = predictor.evaluate_trace(&test, &trace.slo, Duration::from_secs(la));
            (la, m.true_positive_rate(), m.false_alarm_rate())
        })
        .collect()
}

/// Like [`accuracy_sweep`] but with the k-of-W majority filter applied to
/// the raw alert stream before scoring (Fig. 12).
pub fn filtered_accuracy_sweep(
    trace: &AccuracyTrace,
    config: &PredictorConfig,
    k: usize,
    w: usize,
    look_aheads: &[u64],
) -> AccuracyRows {
    let train = trace.training_slice(trace.faulty_series());
    let test = trace.test_slice(trace.faulty_series());
    #[expect(
        clippy::expect_used,
        reason = "the synthetic fault trace violates its SLO inside the training slice"
    )]
    let predictor = AnomalyPredictor::train(&train, &trace.slo, config)
        .expect("training slice contains both classes");
    look_aheads
        .iter()
        .map(|&la| {
            let look_ahead = Duration::from_secs(la);
            let mut model = predictor.clone();
            model.reset_position();
            let mut filter = AlertFilter::new(k, w);
            let mut matrix = ConfusionMatrix::new();
            let end = test.last().map(|s| s.time).unwrap_or(Timestamp::ZERO);
            for s in test.iter() {
                model.observe(s);
                let raw = model.predict(look_ahead).is_alert();
                let filtered = filter.push(raw);
                let target = s.time + look_ahead;
                if target > end {
                    continue;
                }
                let truth = Label::from_violation(trace.slo.is_violated_at(target));
                matrix.record(Label::from_violation(filtered), truth);
            }
            (la, matrix.true_positive_rate(), matrix.false_alarm_rate())
        })
        .collect()
}

/// Downsamples a series to every `factor`-th sample (Fig. 13's coarser
/// monitoring intervals derived from a 1 s base trace).
pub fn downsample(series: &TimeSeries, factor: usize) -> TimeSeries {
    series
        .iter()
        .enumerate()
        .filter(|(i, _)| i % factor == 0)
        .map(|(_, s)| *s)
        .collect()
}

/// Formats an accuracy table with one `A_T`/`A_F` pair per variant.
pub fn print_accuracy_table(title: &str, variants: &[(&str, AccuracyRows)]) {
    println!("# {title}");
    print!("{:>10}", "lookahead");
    for (name, _) in variants {
        print!(" {:>9} {:>9}", format!("AT({name})"), format!("AF({name})"));
    }
    println!();
    let Some((_, first)) = variants.first() else {
        return;
    };
    for (i, (look_ahead, _, _)) in first.iter().enumerate() {
        print!("{look_ahead:>9}s");
        // Every variant sweeps the same look-aheads; a shorter one leaves
        // its cells blank.
        for (_, at, af) in variants.iter().filter_map(|(_, series)| series.get(i)) {
            print!(" {:>8.1}% {:>8.1}%", at * 100.0, af * 100.0);
        }
        println!();
    }
}
