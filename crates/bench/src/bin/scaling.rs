//! Scaling benchmark for the deterministic parallel per-VM engine:
//! trains and queries per-VM anomaly predictors for 64/256/1024-VM
//! fleets at 1/2/4/8 workers, and emits `BENCH_scaling.json`.
//!
//! Two hot paths are measured, mirroring what `PrepareController` shards
//! in production: per-VM model training (discretizer fit + 13 Markov
//! chains + TAN) and per-VM look-ahead prediction. The engine guarantees
//! bit-identical results at every worker count — this binary re-verifies
//! that on the fly and refuses to report numbers for diverging runs.
//!
//! Speedup is hardware-bound: on a single-core container every worker
//! count serializes onto one CPU and the sharded runs only add thread
//! overhead. `hardware_workers` in the JSON records the machine's
//! available parallelism so readers can judge the speedup column.
//!
//! Every timed section runs best-of-N ([`TRIALS`]) after untimed warmup,
//! the same discipline as the `hotpath` bench: a one-shot measurement on
//! a shared machine regularly showed noise-driven "slowdowns" between
//! worker counts that vanish under the minimum. The predict leg times the
//! steady-state scoring round (transition snapshots already built); the
//! per-tick rebuild cost after an `observe` is what `hotpath` measures.

#![forbid(unsafe_code)]

use prepare_anomaly::{AnomalyPredictor, Prediction, PredictorConfig};
use prepare_bench::harness::{measured_ms, write_bench_json};
use prepare_metrics::{
    AttributeKind, Duration, MetricSample, MetricVector, SloLog, TimeSeries, Timestamp,
};
use prepare_par::ParConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Fleet sizes swept (number of per-VM models).
const FLEETS: [usize; 3] = [64, 256, 1024];

/// Worker counts swept.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Samples per VM series (5 s interval → 20 simulated minutes).
const SAMPLES: u64 = 240;

/// Timed trials per cell; the best (minimum) is reported.
const TRIALS: usize = 3;

/// One VM's training trace: a noisy baseline with a mid-run anomalous
/// window (CPU pinned), phase-shifted per VM so models differ.
fn vm_trace(vm: usize, rng: &mut StdRng) -> TimeSeries {
    let mut series = TimeSeries::new();
    let phase = vm % 7;
    for i in 0..SAMPLES {
        let t = Timestamp::from_secs(i * 5);
        let anomalous = (80..160).contains(&i);
        let v = MetricVector::from_fn(|a| match a {
            AttributeKind::CpuTotal => {
                if anomalous {
                    88.0 + rng.gen_range(0.0..12.0)
                } else {
                    25.0 + phase as f64 + rng.gen_range(0.0..10.0)
                }
            }
            AttributeKind::Load1 => {
                if anomalous {
                    1.4 + rng.gen_range(0.0..0.4)
                } else {
                    0.3 + rng.gen_range(0.0..0.2)
                }
            }
            _ => rng.gen_range(0.0..100.0),
        });
        series.push(MetricSample::new(t, v));
    }
    series
}

/// The shared SLO timeline matching [`vm_trace`]'s anomalous window.
fn slo_log() -> SloLog {
    let mut slo = SloLog::new();
    for i in 0..SAMPLES {
        let t = Timestamp::from_secs(i * 5);
        slo.record(t, (80..160).contains(&i));
    }
    slo
}

struct Cell {
    vms: usize,
    workers: usize,
    train_ms: f64,
    predict_ms: f64,
}

fn main() {
    let hardware_workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("== Parallel engine scaling: per-VM train + predict ==");
    println!("hardware available parallelism: {hardware_workers}");
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>10}",
        "VMs", "workers", "train (ms)", "predict(ms)", "train x"
    );

    let slo = slo_log();
    let config = PredictorConfig::default();
    let mut cells: Vec<Cell> = Vec::new();

    for &n_vms in &FLEETS {
        let mut rng = StdRng::seed_from_u64(42);
        let traces: Vec<TimeSeries> = (0..n_vms).map(|vm| vm_trace(vm, &mut rng)).collect();
        let mut baseline: Option<(f64, Vec<u64>)> = None;

        // Untimed warmup: fault in the traces and warm the allocator so
        // the first timed configuration (workers = 1) is not penalized.
        let warmup =
            prepare_par::par_map(&ParConfig::serial(), traces.iter().collect(), |series| {
                AnomalyPredictor::train(series, &slo, &config).is_ok()
            });
        drop(warmup);

        for &workers in &WORKERS {
            let par = ParConfig::with_workers(workers);

            // Best-of-N training: every trial refits the whole fleet; the
            // minimum discards scheduler noise. The last trial's models
            // proceed to the predict leg (all trials are bit-identical).
            let mut train_ms = f64::INFINITY;
            let mut models: Vec<AnomalyPredictor> = Vec::new();
            for _ in 0..TRIALS {
                let t0 = Instant::now();
                let trained = prepare_par::par_map(&par, traces.iter().collect(), |series| {
                    AnomalyPredictor::train(series, &slo, &config)
                });
                let elapsed_ms = measured_ms(t0);
                match trained.into_iter().collect() {
                    Ok(fleet) => models = fleet,
                    Err(err) => {
                        eprintln!("training failed (trace should contain both classes): {err}");
                        std::process::exit(1);
                    }
                }
                train_ms = train_ms.min(elapsed_ms);
            }

            // Re-anchor each model onto the tail of its own trace, then
            // time the per-VM look-ahead scoring round (the controller's
            // per-tick hot path). One untimed pass first builds the
            // transition snapshots so every trial times the steady state.
            let mut anchored: Vec<(AnomalyPredictor, &TimeSeries)> =
                models.into_iter().zip(traces.iter()).collect();
            prepare_par::par_for_each_mut(&par, &mut anchored, |(m, series)| {
                for s in series.iter().skip(SAMPLES as usize - 20) {
                    m.observe(s);
                }
            });
            let warm = prepare_par::par_map(&par, anchored.iter().collect(), |(m, _)| {
                m.predict(Duration::from_secs(60))
            });
            drop(warm);
            let mut predict_ms = f64::INFINITY;
            let mut predictions = Vec::new();
            for _ in 0..TRIALS {
                let t1 = Instant::now();
                let preds = prepare_par::par_map(&par, anchored.iter().collect(), |(m, _)| {
                    m.predict(Duration::from_secs(60))
                });
                predict_ms = predict_ms.min(measured_ms(t1));
                predictions = preds;
            }

            // Determinism audit: every worker count must reproduce the
            // sequential run bit-for-bit. The streaming FNV fingerprint
            // replaces the old per-prediction Debug strings — no String
            // allocation on the audited predict leg.
            let fingerprint: Vec<u64> = predictions.iter().map(Prediction::fingerprint).collect();
            let base_train = match &baseline {
                None => {
                    baseline = Some((train_ms, fingerprint));
                    train_ms
                }
                Some((bt, base_fp)) => {
                    assert!(
                        fingerprint == *base_fp,
                        "predictions diverged from sequential at workers={workers}"
                    );
                    *bt
                }
            };
            println!(
                "{:>6} {:>8} {:>12.1} {:>12.1} {:>10.2}",
                n_vms,
                workers,
                train_ms,
                predict_ms,
                base_train / train_ms
            );
            cells.push(Cell {
                vms: n_vms,
                workers,
                train_ms,
                predict_ms,
            });
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"scaling\",\n");
    json.push_str(&format!("  \"hardware_workers\": {hardware_workers},\n"));
    json.push_str(
        "  \"note\": \"speedup is bounded by hardware_workers; identical outputs at every \
         worker count are asserted before numbers are reported; every cell is best-of-N \
         trials after untimed warmup\",\n",
    );
    json.push_str(&format!("  \"trials\": {TRIALS},\n"));
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let (base_train, base_predict) = cells
            .iter()
            .find(|b| b.vms == c.vms && b.workers == 1)
            .map_or((c.train_ms, c.predict_ms), |b| (b.train_ms, b.predict_ms));
        json.push_str(&format!(
            "    {{\"vms\": {}, \"workers\": {}, \"train_ms\": {:.3}, \"predict_ms\": {:.3}, \
             \"train_speedup\": {:.3}, \"predict_speedup\": {:.3}}}{}\n",
            c.vms,
            c.workers,
            c.train_ms,
            c.predict_ms,
            base_train / c.train_ms,
            base_predict / c.predict_ms,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    write_bench_json("BENCH_scaling.json", &json);
}
