//! A run: passes repeated until `--seconds` are used, turned into the
//! metrics `BENCHMARK.json` names.
//!
//! The untraced run yields every end-to-end metric; the traced run
//! yields every per-layer metric. Timings are medians over passes of the
//! per-pass figure (a cold first pass must not set the result); counts
//! are per pass and must repeat exactly, pass after pass.

use crate::driver::paper_spec;
use crate::pass::{run_pass, setup_only, PassResult, EVENT_KINDS};
use crate::shadow::NOT_IN_LIVE_ROUND;
use crate::stats::{median, quartiles};
use crate::trace::Tracer;
use crate::workloads::{matrix_cells, Workload};
use prepare_core::Experiment;
use prepare_metrics::json::JsonValue;
use prepare_metrics::mean;
use std::collections::BTreeMap;
use std::time::Instant;

/// How a metric is declared in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Whether `"higher"` or `"lower"` is better.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
    /// Whether the value depends on the seed alone, so that two runs of
    /// one seed must report it bit for bit the same.
    pub exact: bool,
}

impl MetricDef {
    const fn exact(mut self) -> Self {
        self.exact = true;
        self
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

/// The end-to-end metrics, each defined on every workload.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("vm_rounds_per_s", "1/s", "higher", 0.25),
    e2e("round_ms_p50", "ms", "lower", 0.25),
    e2e("round_ms_p95", "ms", "lower", 0.25),
    e2e("checkpoint_mb", "MB", "lower", 0.10).exact(),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("violation_reduction", "ratio", "higher", 0.25).exact(),
];

/// The per-layer metrics, `crate.module.what`.
pub const PER_LAYER: [MetricDef; 66] = [
    layer("apps.step_us", "us", "lower"),
    layer("cloudsim.cluster.advance_us", "us", "lower"),
    layer("cloudsim.monitor.sample_us", "us", "lower"),
    layer("cloudsim.chaos.tick_us", "us", "lower"),
    layer("cloudsim.chaos.deliver_us", "us", "lower"),
    layer("cloudsim.chaos.lost_frac", "ratio", "lower").exact(),
    layer("cloudsim.cluster.actions", "count", "lower").exact(),
    layer("core.controller.round_idle_ms_p50", "ms", "lower"),
    layer("core.controller.round_predict_ms_p50", "ms", "lower"),
    layer("core.controller.round_train_ms_p50", "ms", "lower"),
    layer("core.controller.rounds_idle", "count", "lower").exact(),
    layer("core.controller.rounds_predict", "count", "higher").exact(),
    layer("core.controller.rounds_train", "count", "lower").exact(),
    layer("core.controller.glue_ms_p50", "ms", "lower"),
    layer("core.controller.predictor_vms", "count", "lower").exact(),
    layer("core.controller.confirm_ratio", "ratio", "higher").exact(),
    layer("core.events.alert_raised", "count", "lower").exact(),
    layer("core.events.alert_confirmed", "count", "lower").exact(),
    layer("core.events.reactive_triggered", "count", "lower").exact(),
    layer("core.events.action_issued", "count", "lower").exact(),
    layer("core.events.action_failed", "count", "lower").exact(),
    layer("core.events.action_retried", "count", "lower").exact(),
    layer("core.events.action_rolled_back", "count", "lower").exact(),
    layer("core.events.action_abandoned", "count", "lower").exact(),
    layer("core.events.validation_succeeded", "count", "higher").exact(),
    layer("core.events.validation_ineffective", "count", "lower").exact(),
    layer("core.events.monitoring_degraded", "count", "lower").exact(),
    layer("core.events.models_trained", "count", "lower").exact(),
    layer("core.prevention.success_ratio", "ratio", "higher").exact(),
    layer("core.inference.observe_us_per_vm", "us", "lower"),
    layer("core.inference.implicated_ms", "ms", "lower"),
    layer("anomaly.trainer.push_us", "us", "lower"),
    layer("anomaly.trainer.refresh_ms", "ms", "lower"),
    layer("anomaly.trainer.dirty_slots", "count", "lower").exact(),
    layer("anomaly.trainer.derive_ms_per_slot", "ms", "lower"),
    layer("anomaly.trainer.derive_cache_hit_ratio", "ratio", "higher").exact(),
    layer("anomaly.predictor.observe_us", "us", "lower"),
    layer("anomaly.predictor.predict_us", "us", "lower"),
    layer("anomaly.predictor.train_ms", "ms", "lower"),
    layer("metrics.discretize.fit_us", "us", "lower"),
    layer("markov.train_us_per_attr", "us", "lower"),
    layer("tan.train_ms", "ms", "lower"),
    layer("core.recovery.journal_append_us", "us", "lower"),
    layer("core.recovery.journal_bytes_per_round", "B", "lower").exact(),
    layer("core.recovery.seal_ms_p50", "ms", "lower"),
    layer("core.recovery.state_bytes_ms_p50", "ms", "lower"),
    layer("core.recovery.checkpoint_kb_per_vm", "kB", "lower").exact(),
    layer("core.recovery.restore_ms_p50", "ms", "lower"),
    layer("core.recovery.scan_ms_p50", "ms", "lower"),
    layer("core.recovery.replay_ms_per_record", "ms", "lower"),
    layer("core.recovery.crash_image_ms_p50", "ms", "lower"),
    layer("core.recovery.recover_ms_p50", "ms", "lower"),
    layer("core.recovery.recoveries", "count", "higher").exact(),
    layer("metrics.persist.store_mb_per_s", "MB/s", "higher"),
    layer("metrics.persist.load_mb_per_s", "MB/s", "higher"),
    layer("par.speedup_w2", "ratio", "higher"),
    layer("quality.slo_violation_s", "s", "lower").exact(),
    layer("quality.unmanaged_violation_s", "s", "higher").exact(),
    layer("tlc.check_ms", "ms", "lower"),
    layer("tlc.violations", "count", "lower").exact(),
    layer("tlc.violation_rounds", "count", "lower").exact(),
    layer("proc.cpu_user_s", "s", "lower"),
    layer("proc.cpu_sys_s", "s", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("trace.shadow_frac", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The metric's declaration.
    pub def: MetricDef,
    /// The value as measured.
    pub value: f64,
    /// Samples behind the value (rounds for a percentile, passes for a
    /// per-pass median, 1 for a count).
    pub n: usize,
    /// First and third quartile of the samples a median was taken over.
    pub quartiles: Option<(f64, f64)>,
}

impl Value {
    fn of(def: MetricDef, value: f64, n: usize) -> Value {
        Value {
            def,
            value,
            n,
            quartiles: None,
        }
    }

    /// The median of `samples`, with their quartiles when there are two
    /// or more: every timing is reported this way, not as a best-of-N.
    fn median_of(def: MetricDef, samples: &[f64]) -> Value {
        Value {
            def,
            value: median(samples),
            n: samples.len(),
            quartiles: (samples.len() >= 2).then(|| {
                let (q1, _, q3) = quartiles(samples);
                (q1, q3)
            }),
        }
    }
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// Whether every correctness check held.
    pub correct: bool,
    /// What failed a correctness check, one line each.
    pub problems: Vec<String>,
    /// Operations attempted: rounds plus recoveries, all passes.
    pub attempted: u64,
    /// Operations failed: rounds past the 5 s sampling deadline plus
    /// recoveries that did not restore the pre-crash model.
    pub failed: u64,
    /// Digest of one pass (every pass must produce the same).
    pub digest: u64,
    /// Temporal-property violations of one pass, by property.
    pub tlc_violations: BTreeMap<&'static str, u64>,
    /// Passes measured.
    pub passes: usize,
    /// The metrics.
    pub values: Vec<Value>,
}

fn def(table: &[MetricDef], name: &str) -> MetricDef {
    *table
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User and system CPU seconds of this process (`/proc/self/stat`, in
/// the kernel's 100 Hz clock ticks).
fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) / 100.0, ticks(12) / 100.0)
}

fn violation_reduction(pass: &PassResult) -> f64 {
    let unmanaged = mean(&pass.unmanaged_violation_s);
    if unmanaged == 0.0 {
        0.0
    } else {
        1.0 - mean(&pass.prepare_violation_s) / unmanaged
    }
}

/// The checks every run makes on its passes; returns what failed.
fn check_passes(workload: Workload, seed: u64, passes: &[PassResult]) -> Vec<String> {
    let mut problems = Vec::new();
    let first = &passes[0];
    for (i, pass) in passes.iter().enumerate() {
        if pass.digest != first.digest {
            problems.push(format!(
                "pass {i} digest {:016x} differs from pass 0 digest {:016x}",
                pass.digest, first.digest
            ));
        }
        if pass.recover_mismatches > 0 {
            problems.push(format!(
                "pass {i}: {} recoveries did not restore the pre-crash model",
                pass.recover_mismatches
            ));
        }
    }
    for cell in &first.lost_cells {
        problems.push(format!(
            "PREPARE did no better than no management on {cell}"
        ));
    }
    if workload == Workload::PaperMatrix {
        // The mirror must still be `Experiment::run`: one cell per run
        // here, every cell in tests/mirror.rs.
        let cells = matrix_cells();
        let cell = cells[(seed % cells.len() as u64) as usize];
        let spec = paper_spec(cell, 1);
        let mut scenario = crate::driver::Scenario::paper(&spec, seed);
        crate::driver::drive(
            &mut scenario,
            &mut Tracer::new(false),
            None,
            &mut crate::clock::Clock::new(),
        );
        let expected = Experiment::new(spec, seed).run();
        if scenario.control.controller().events() != expected.events.as_slice()
            || scenario.cluster.actions() != expected.actions.as_slice()
        {
            problems.push(format!(
                "the driver loop no longer mirrors Experiment::run on {cell:?}"
            ));
        }
    }
    problems
}

/// Whether another pass of mean length `pass_s` still belongs inside a
/// window of `seconds` of which `elapsed_s` are used: yes if at least
/// half of it fits, so that runs overshoot and undershoot alike.
fn fits(elapsed_s: f64, pass_s: f64, seconds: f64) -> bool {
    elapsed_s + 0.5 * pass_s <= seconds
}

/// Set-ups a run makes beyond one per pass, so that `setup_s` is a median
/// of several even when few passes fit: at least two, then more while
/// they fit in two seconds, up to ten. Set-up faults in fresh pages by
/// the hundred megabytes, which no clock scaling steadies.
fn extra_setups(workload: Workload, seed: u64, workers: usize) -> Vec<f64> {
    let started = Instant::now();
    let mut setups = Vec::new();
    while setups.len() < 2 || (setups.len() < 10 && started.elapsed().as_secs_f64() < 2.0) {
        setups.push(setup_only(workload, seed, workers));
    }
    setups
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(workload: Workload, seed: u64, seconds: f64) -> Report {
    let started = Instant::now();
    let workers = workload.workers();
    let mut setups = extra_setups(workload, seed, workers);
    let mut passes: Vec<PassResult> = Vec::new();
    let mut off = Tracer::new(false);
    loop {
        let pass_started = Instant::now();
        passes.push(run_pass(workload, seed, workers, &mut off));
        let pass_s = pass_started.elapsed().as_secs_f64();
        if !fits(started.elapsed().as_secs_f64(), pass_s, seconds) {
            break;
        }
    }
    setups.extend(passes.iter().map(|p| p.setup_s));
    let problems = check_passes(workload, seed, &passes);

    let rounds: usize = passes.iter().map(|p| p.model_rounds).sum();
    let first = &passes[0];
    let e = |name: &str| def(&END_TO_END, name);
    let per_pass = |name: &str, f: &dyn Fn(&PassResult) -> f64| {
        Value::median_of(e(name), &passes.iter().map(f).collect::<Vec<f64>>())
    };
    let values = vec![
        Value::median_of(e("setup_s"), &setups),
        per_pass("vm_rounds_per_s", &|p| p.vm_rounds as f64 / p.loop_s),
        Value {
            n: rounds,
            ..per_pass("round_ms_p50", &|p| p.model_round_ms.0)
        },
        Value {
            n: rounds,
            ..per_pass("round_ms_p95", &|p| p.model_round_ms.1)
        },
        Value::of(
            e("checkpoint_mb"),
            mean(&first.checkpoint_bytes) / 1e6,
            first.checkpoint_bytes.len(),
        ),
        Value::of(e("peak_rss_mb"), peak_rss_mb(), 1),
        Value::of(
            e("violation_reduction"),
            violation_reduction(first),
            first.prepare_violation_s.len(),
        ),
    ];
    Report {
        workload,
        seed,
        correct: problems.is_empty(),
        problems,
        attempted: passes.iter().map(PassResult::attempted).sum(),
        failed: passes.iter().map(PassResult::failed).sum(),
        digest: first.digest,
        tlc_violations: first.tlc_violations.clone(),
        passes: passes.len(),
        values,
    }
}

/// Per-layer timings read straight off spans: metric, span name, and
/// microseconds per unit of the metric (1 for `_us`, 1000 for `_ms`).
/// The value is the median per call over every such span.
const SPAN_METRICS: [(&str, &str, f64); 27] = [
    ("apps.step_us", "apps.step", 1.0),
    (
        "cloudsim.cluster.advance_us",
        "cloudsim.cluster.advance",
        1.0,
    ),
    ("cloudsim.monitor.sample_us", "cloudsim.monitor.sample", 1.0),
    ("cloudsim.chaos.tick_us", "cloudsim.chaos.tick", 1.0),
    ("cloudsim.chaos.deliver_us", "cloudsim.chaos.deliver", 1.0),
    (
        "core.inference.observe_us_per_vm",
        "core.inference.observe",
        1.0,
    ),
    ("anomaly.trainer.push_us", "anomaly.trainer.push", 1.0),
    (
        "anomaly.predictor.observe_us",
        "anomaly.predictor.observe",
        1.0,
    ),
    (
        "anomaly.predictor.predict_us",
        "anomaly.predictor.predict",
        1.0,
    ),
    ("metrics.discretize.fit_us", "metrics.discretize.fit", 1.0),
    ("markov.train_us_per_attr", "markov.train", 1.0),
    (
        "core.recovery.journal_append_us",
        "core.recovery.journal_append",
        1.0,
    ),
    (
        "core.controller.round_idle_ms_p50",
        "core.controller.round.idle",
        1e3,
    ),
    (
        "core.controller.round_predict_ms_p50",
        "core.controller.round.predict",
        1e3,
    ),
    (
        "core.controller.round_train_ms_p50",
        "core.controller.round.train",
        1e3,
    ),
    (
        "core.inference.implicated_ms",
        "core.inference.implicated",
        1e3,
    ),
    ("anomaly.trainer.refresh_ms", "anomaly.trainer.refresh", 1e3),
    (
        "anomaly.trainer.derive_ms_per_slot",
        "anomaly.trainer.derive",
        1e3,
    ),
    ("anomaly.predictor.train_ms", "anomaly.predictor.train", 1e3),
    ("tan.train_ms", "tan.train", 1e3),
    ("core.recovery.seal_ms_p50", "core.recovery.seal", 1e3),
    (
        "core.recovery.state_bytes_ms_p50",
        "core.recovery.state_bytes",
        1e3,
    ),
    ("core.recovery.restore_ms_p50", "core.recovery.restore", 1e3),
    ("core.recovery.scan_ms_p50", "core.recovery.scan", 1e3),
    (
        "core.recovery.replay_ms_per_record",
        "core.recovery.replay",
        1e3,
    ),
    (
        "core.recovery.crash_image_ms_p50",
        "core.recovery.crash_image",
        1e3,
    ),
    ("tlc.check_ms", "tlc.check", 1e3),
];

/// Per-round glue: the live predict round minus the shadow spans that
/// stand for work inside it, milliseconds, one value per predict round.
fn glue_ms(tracer: &Tracer) -> Vec<f64> {
    let spans = tracer.spans();
    let mut live: BTreeMap<u64, f64> = BTreeMap::new();
    let mut shadowed: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        let ms = s.scaled_ns() / 1e6;
        if s.name == "core.controller.round.predict" {
            live.insert(s.round, ms);
        } else if s.parent.is_some_and(|p| spans[p].name == "shadow")
            && !NOT_IN_LIVE_ROUND.contains(&s.name)
        {
            *shadowed.entry(s.round).or_insert(0.0) += ms;
        }
    }
    live.iter()
        .map(|(round, ms)| ms - shadowed.get(round).copied().unwrap_or(0.0))
        .collect()
}

/// What the traced run hands back beside its report.
pub struct Traced {
    /// Every span and count of the traced passes.
    pub tracer: Tracer,
    /// Spans of the first traced pass — what the span file holds; later
    /// passes only add samples to the medians.
    pub first_pass_spans: usize,
}

/// `(span, share of the whole)` rows, largest first.
pub type Shares = Vec<(&'static str, f64)>;

impl Traced {
    /// Where the first traced pass spent its time, as two tables.
    ///
    /// The first splits the live loop — everything but the benchmark's
    /// own shadows and checks — by each span's self time. The second
    /// splits the live control rounds by the shadow spans that stand for
    /// work inside them; what no shadow accounts for is `glue`.
    pub fn shares(&self) -> (Shares, Shares) {
        let spans = &self.tracer.spans()[..self.first_pass_spans];
        let own = crate::trace::self_times_ns(spans);
        let is_ours = |name: &str| name.starts_with("shadow") || name.starts_with("bench.");
        let mut live: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut in_round: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut round_ns = 0.0;
        for (s, own_ns) in spans.iter().zip(own) {
            let parent = s.parent.map_or("", |p| spans[p].name);
            if is_ours(parent) {
                // Only the per-round shadows stand for work in a round.
                if parent == "shadow" && !NOT_IN_LIVE_ROUND.contains(&s.name) {
                    *in_round.entry(s.name).or_insert(0.0) += s.duration_ns() as f64;
                }
            } else if !is_ours(s.name) {
                *live.entry(s.name).or_insert(0.0) += own_ns as f64;
                if s.name.starts_with("core.controller.round.") {
                    round_ns += s.duration_ns() as f64;
                }
            }
        }
        let attributed: f64 = in_round.values().sum();
        in_round.insert("glue", round_ns - attributed);
        let sorted = |table: BTreeMap<&'static str, f64>, total: f64| {
            let mut rows: Shares = table
                .into_iter()
                .map(|(name, ns)| (name, if total > 0.0 { ns / total } else { 0.0 }))
                .collect();
            rows.sort_by(|a, b| b.1.total_cmp(&a.1));
            rows
        };
        let live_total: f64 = live.values().sum();
        (sorted(live, live_total), sorted(in_round, round_ns))
    }
}

/// The traced run: every per-layer metric. Three kinds of pass, same
/// seed: traced ones with shadows (first, so that the heap is warm for
/// the other two), an untraced one (the base the tracing overhead is
/// measured against), and an untraced one at the other worker count
/// (for `par.speedup_w2`). All digests must match.
pub fn run_traced(workload: Workload, seed: u64, seconds: f64) -> (Report, Traced) {
    let started = Instant::now();
    let workers = workload.workers();
    let mut tracer = Tracer::new(true);
    let mut traced: Vec<PassResult> = Vec::new();
    let mut first_pass_spans = 0;
    loop {
        let pass_started = Instant::now();
        traced.push(run_pass(workload, seed, workers, &mut tracer));
        let pass_s = pass_started.elapsed().as_secs_f64();
        if traced.len() == 1 {
            first_pass_spans = tracer.spans().len();
        }
        // Leave room for the two untraced passes, each shorter than this.
        if !fits(
            started.elapsed().as_secs_f64() + 2.0 * pass_s,
            pass_s,
            seconds,
        ) {
            break;
        }
    }
    let mut off = Tracer::new(false);
    let base = run_pass(workload, seed, workers, &mut off);
    let other_workers = if workers == 1 { 2 } else { 1 };
    let other = run_pass(workload, seed, other_workers, &mut off);
    let (cpu_user_s, cpu_sys_s) = cpu_seconds();

    let mut all = traced.clone();
    all.push(base.clone());
    all.push(other.clone());
    let problems = check_passes(workload, seed, &all);

    let n_traced = traced.len() as f64;
    let first = &traced[0];
    let t = &tracer;
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let events = |kind: &str| first.events.get(kind).copied().unwrap_or(0) as f64;
    let (w1, w2) = if workers == 1 {
        (&base, &other)
    } else {
        (&other, &base)
    };
    // The last traced pass is the warmest, like the base after it.
    let traced_loop_s = traced[traced.len() - 1].loop_s;
    let shadow_s = t.per_call_us("shadow").iter().sum::<f64>() / 1e6 / n_traced;

    let mut values: Vec<Value> = SPAN_METRICS
        .iter()
        .map(|&(metric, span, us_per_unit)| {
            let samples: Vec<f64> = t
                .per_call_us(span)
                .iter()
                .map(|us| us / us_per_unit)
                .collect();
            Value::median_of(def(&PER_LAYER, metric), &samples)
        })
        .collect();
    let mut put = |name: &str, value: f64, n: usize| {
        values.push(Value::of(def(&PER_LAYER, name), value, n));
    };
    let calls = |name: &str| t.spans().iter().filter(|s| s.name == name).count();
    for (metric, span) in [
        ("core.controller.rounds_idle", "core.controller.round.idle"),
        (
            "core.controller.rounds_predict",
            "core.controller.round.predict",
        ),
        (
            "core.controller.rounds_train",
            "core.controller.round.train",
        ),
    ] {
        put(metric, calls(span) as f64 / n_traced, 1);
    }
    let glue = Value::median_of(def(&PER_LAYER, "core.controller.glue_ms_p50"), &glue_ms(t));
    put(
        "core.controller.predictor_vms",
        ratio(
            t.counted("core.controller.predictor_vm_rounds"),
            calls("anomaly.predictor.predict") as f64,
        ),
        1,
    );
    put(
        "core.controller.confirm_ratio",
        ratio(events("alert_confirmed"), events("alert_raised")),
        1,
    );
    for kind in EVENT_KINDS {
        let name = format!("core.events.{kind}");
        put(&name, events(kind), 1);
    }
    put(
        "core.prevention.success_ratio",
        ratio(events("validation_succeeded"), events("action_issued")),
        1,
    );
    put(
        "cloudsim.chaos.lost_frac",
        ratio(first.lost_samples.0 as f64, first.lost_samples.1 as f64),
        1,
    );
    put("cloudsim.cluster.actions", first.actions as f64, 1);
    put(
        "anomaly.trainer.dirty_slots",
        ratio(
            t.counted("anomaly.trainer.dirty_slots"),
            t.counted("anomaly.trainer.refreshes"),
        ),
        1,
    );
    put(
        "anomaly.trainer.derive_cache_hit_ratio",
        ratio(
            t.counted("anomaly.trainer.derive_hits"),
            t.counted("anomaly.trainer.derive_wanted"),
        ),
        1,
    );
    put(
        "core.recovery.journal_bytes_per_round",
        ratio(
            t.counted("core.recovery.journal_bytes"),
            t.counted("core.recovery.journal_records"),
        ),
        1,
    );
    put(
        "core.recovery.checkpoint_kb_per_vm",
        ratio(
            t.counted("core.recovery.sealed_bytes") / 1e3,
            t.counted("core.recovery.sealed_vms"),
        ),
        1,
    );
    let sum_s = |span: &str| t.per_call_us(span).iter().sum::<f64>() / 1e6;
    put(
        "metrics.persist.store_mb_per_s",
        ratio(
            t.counted("core.recovery.sealed_bytes") / 1e6,
            sum_s("core.recovery.seal"),
        ),
        calls("core.recovery.seal"),
    );
    put(
        "metrics.persist.load_mb_per_s",
        ratio(
            t.counted("core.recovery.restored_bytes") / 1e6,
            sum_s("core.recovery.restore"),
        ),
        calls("core.recovery.restore"),
    );
    let recover: Vec<f64> = all.iter().flat_map(|p| p.recover_ms.clone()).collect();
    let recover = Value::median_of(def(&PER_LAYER, "core.recovery.recover_ms_p50"), &recover);
    put("core.recovery.recoveries", first.recover_ms.len() as f64, 1);
    put(
        "par.speedup_w2",
        ratio(w1.predict_round_ms_p50, w2.predict_round_ms_p50),
        2,
    );
    put(
        "quality.slo_violation_s",
        mean(&first.prepare_violation_s),
        first.prepare_violation_s.len(),
    );
    put(
        "quality.unmanaged_violation_s",
        mean(&first.unmanaged_violation_s),
        first.unmanaged_violation_s.len(),
    );
    put(
        "tlc.violations",
        first.tlc_violations.values().sum::<u64>() as f64,
        1,
    );
    put("tlc.violation_rounds", first.tlc_rounds as f64, 1);
    put("proc.cpu_user_s", cpu_user_s, 1);
    put("proc.cpu_sys_s", cpu_sys_s, 1);
    put(
        "trace.overhead_frac",
        ratio(traced_loop_s, base.loop_s) - 1.0,
        traced.len(),
    );
    put(
        "trace.shadow_frac",
        ratio(shadow_s, traced_loop_s + shadow_s),
        traced.len(),
    );
    put("trace.spans", t.spans().len() as f64 / n_traced, 1);

    values.extend([glue, recover]);

    let report = Report {
        workload,
        seed,
        correct: problems.is_empty(),
        problems,
        attempted: all.iter().map(PassResult::attempted).sum(),
        failed: all.iter().map(PassResult::failed).sum(),
        digest: first.digest,
        tlc_violations: first.tlc_violations.clone(),
        passes: all.len(),
        values,
    };
    (
        report,
        Traced {
            tracer,
            first_pass_spans,
        },
    )
}

impl Report {
    /// The `metrics` object of the result line: name → value and unit.
    pub fn metrics_json(&self) -> JsonValue {
        JsonValue::Object(
            self.values
                .iter()
                .map(|v| {
                    (
                        v.def.name.to_string(),
                        JsonValue::Object(vec![
                            ("value".to_string(), JsonValue::Number(v.value)),
                            (
                                "unit".to_string(),
                                JsonValue::String(v.def.unit.to_string()),
                            ),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line result the acceptance driver reads. `attempted` and
    /// `failed` are written as integers, which `JsonValue` cannot do.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
                .to_string()
                .expect("every reported value is finite")
        )
    }
}
