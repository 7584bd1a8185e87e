//! Table I: PREPARE system overhead measurements.
//!
//! The algorithmic modules (monitoring, Markov training, TAN training,
//! prediction) are measured natively by timing this implementation; the
//! actuation rows (scaling, migration) report the paper's measured Xen
//! latencies, which the simulator uses as its cost model. This binary is
//! the repository's one Table I measurement; the in-loop per-layer costs
//! of the running controller come from `benchmark/`.

use prepare_anomaly::{AnomalyPredictor, PredictorConfig};
use prepare_bench::harness::Stopwatch;
use prepare_cloudsim::{Cluster, Demand, HostSpec, Monitor, TABLE1_COSTS};
use prepare_markov::{SimpleMarkov, TwoDependentMarkov};
use prepare_metrics::{
    AttributeKind, Duration, MetricSample, MetricVector, SloLog, TimeSeries, Timestamp,
};
use prepare_tan::{Classifier, Dataset, TanClassifier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;

/// 600-sample discretized training sequence (Table I uses 600 samples).
fn training_sequence(rng: &mut StdRng) -> Vec<usize> {
    (0..600).map(|_| rng.gen_range(0..10)).collect()
}

fn training_trace(rng: &mut StdRng) -> (TimeSeries, SloLog) {
    let mut series = TimeSeries::new();
    let mut slo = SloLog::new();
    for i in 0..600u64 {
        let t = Timestamp::from_secs(i * 5);
        let anomalous = (i / 100) % 2 == 1;
        let v = MetricVector::from_fn(|a| match a {
            AttributeKind::CpuTotal => {
                if anomalous {
                    90.0 + rng.gen_range(0.0..10.0)
                } else {
                    30.0 + rng.gen_range(0.0..10.0)
                }
            }
            _ => rng.gen_range(0.0..100.0),
        });
        series.push(MetricSample::new(t, v));
        slo.record(t, anomalous);
    }
    (series, slo)
}

fn time_ms(iterations: u32, mut f: impl FnMut()) -> f64 {
    // warm-up
    f();
    let clock = Stopwatch::start();
    for _ in 0..iterations {
        f();
    }
    clock.elapsed_ms() / iterations as f64
}

fn main() -> Result<(), Box<dyn Error>> {
    println!("== Table I: PREPARE system overhead (this implementation vs paper) ==");
    let mut rng = StdRng::seed_from_u64(7);

    // VM monitoring: one 13-attribute sweep.
    let mut cluster = Cluster::new();
    let host = cluster.add_host(HostSpec::vcl_default());
    let vm = cluster.create_vm(host, 100.0, 512.0)?;
    cluster.apply_demand(
        vm,
        Demand {
            cpu: 50.0,
            mem_mb: 300.0,
            net_in_kbps: 100.0,
            ..Demand::default()
        },
        Timestamp::ZERO,
    );
    let mut monitor = Monitor::with_default_noise();
    let mut mon_rng = StdRng::seed_from_u64(8);
    let monitoring = time_ms(10_000, || {
        let _ = monitor.sample(&cluster, vm, Timestamp::ZERO, &mut mon_rng);
    });

    // Markov trainings on 600 samples.
    let seq = training_sequence(&mut rng);
    let simple_training = time_ms(1_000, || {
        let mut m = SimpleMarkov::new(10);
        m.train(&seq);
    });
    let two_dep_training = time_ms(1_000, || {
        let mut m = TwoDependentMarkov::new(10);
        m.train(&seq);
    });

    // TAN training on 600 samples of 13 attributes.
    let (series, slo) = training_trace(&mut rng);
    let discretizer = prepare_metrics::VectorDiscretizer::fit(&series, 10);
    let mut dataset = Dataset::with_uniform_bins(13, 10);
    for s in series.iter() {
        dataset.push(
            discretizer.discretize(&s.values),
            prepare_metrics::Label::from_violation(slo.is_violated_at(s.time)),
        )?;
    }
    TanClassifier::train(&dataset)?;
    let tan_training = time_ms(100, || {
        let _ = TanClassifier::train(&dataset);
    });

    // One full anomaly prediction (value prediction + classification +
    // attribution) on a trained per-VM model.
    let config = PredictorConfig::default();
    let mut predictor = AnomalyPredictor::train(&series, &slo, &config)?;
    for s in series.iter().take(50) {
        predictor.observe(s);
    }
    let prediction = time_ms(1_000, || {
        let _ = predictor.predict(Duration::from_secs(30));
    });

    let paper = TABLE1_COSTS;
    println!("{:44} {:>12} {:>12}", "module", "measured", "paper");
    let row = |name: &str, measured: String, paper: String| {
        println!("{name:44} {measured:>12} {paper:>12}");
    };
    row(
        "VM monitoring (13 attributes)",
        format!("{monitoring:.3} ms"),
        format!("{:.2} ms", paper.monitoring_ms),
    );
    row(
        "Simple Markov model training (600 samples)",
        format!("{simple_training:.3} ms"),
        format!("{:.1} ms", paper.simple_markov_training_ms),
    );
    row(
        "2-dep. Markov model training (600 samples)",
        format!("{two_dep_training:.3} ms"),
        format!("{:.1} ms", paper.two_dep_markov_training_ms),
    );
    row(
        "TAN model training (600 samples)",
        format!("{tan_training:.3} ms"),
        format!("{:.1} ms", paper.tan_training_ms),
    );
    row(
        "Anomaly prediction",
        format!("{prediction:.3} ms"),
        format!("{:.1} ms", paper.prediction_ms),
    );
    row(
        "CPU resource scaling (modeled actuation)",
        format!("{:.1} ms", paper.cpu_scaling_ms),
        format!("{:.1} ms", paper.cpu_scaling_ms),
    );
    row(
        "Memory resource scaling (modeled actuation)",
        format!("{:.1} ms", paper.mem_scaling_ms),
        format!("{:.1} ms", paper.mem_scaling_ms),
    );
    row(
        "Live VM migration (512MB memory)",
        format!("{} (modeled)", paper.migration_duration(512.0)),
        format!("{:.2} s", paper.migration_512mb_secs),
    );
    Ok(())
}
