//! Command line of the benchmark.
//!
//! ```text
//! prepare-benchmark --workload W --seed N --seconds S --trace 0|1
//! prepare-benchmark run --workload W [--seed N] [--seconds S] [--traced]
//! prepare-benchmark list
//! prepare-benchmark all   [--seed N] [--seconds S]
//! prepare-benchmark agree [--sets K] [--seed N] [--seconds S]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command resolves to; `run`
//! is the same thing by name. Both print every metric as
//! `name workload value unit n [q1 .. q3 ..]`, then one JSON object as the last line,
//! and exit non-zero when a correctness check failed.

use prepare_benchmark::report::{
    run_traced, run_untraced, MetricDef, Report, END_TO_END, PER_LAYER,
};
use prepare_benchmark::workloads::Workload;
use prepare_metrics::json::JsonValue;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Measuring time of a run when `--seconds` is not given:
/// `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 25.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    sets: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        sets: 2,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            out.traced = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                out.workload =
                    Some(Workload::parse(value).ok_or_else(|| format!("no workload {value:?}"))?);
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds.is_finite() && out.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.traced = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--sets" => {
                out.sets = value.parse().map_err(|_| bad())?;
                if out.sets < 2 {
                    return Err("agree needs at least two sets".to_string());
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn print_report(report: &Report) {
    let workload = report.workload.name();
    for v in &report.values {
        let quartiles = v
            .quartiles
            .map_or(String::new(), |(q1, q3)| format!(" q1 {q1:?} q3 {q3:?}"));
        println!(
            "{} {workload} {:?} {} {}{quartiles}",
            v.def.name, v.value, v.def.unit, v.n
        );
    }
    println!(
        "digest {workload} {:016x} (seed {}, {} passes, {} of {} operations failed)",
        report.digest, report.seed, report.passes, report.failed, report.attempted
    );
    for (property, count) in &report.tlc_violations {
        println!("tlc {workload} {property} violated {count} times per pass");
    }
    for problem in &report.problems {
        println!("INCORRECT {workload} {problem}");
    }
}

/// One workload, one run: prints the table and the result line.
fn run(args: &Args) -> Result<bool, String> {
    let workload = args.workload.ok_or("--workload is required")?;
    let report = if args.traced {
        let (report, traced) = run_traced(workload, args.seed, args.seconds);
        let dir = out_dir();
        let path = dir.join(format!("trace-{}.jsonl", workload.name()));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|file| {
                let mut out = std::io::BufWriter::new(file);
                traced.tracer.write_jsonl(&mut out, traced.first_pass_spans)
            })
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let (live, in_round) = traced.shares();
        for (table, rows) in [("loop_share", live), ("round_share", in_round)] {
            for (span, share) in rows {
                println!("{table} {} {span} {:.1} %", workload.name(), share * 100.0);
            }
        }
        report
    } else {
        run_untraced(workload, args.seed, args.seconds)
    };
    print_report(&report);
    println!("{}", report.result_line());
    Ok(report.correct)
}

fn list() {
    for w in Workload::ALL {
        println!("workload {} — {}", w.name(), w.why());
    }
    let row = |kind: &str, d: &MetricDef| {
        let bound = d.bound.map_or(String::new(), |b| format!(" bound {b}"));
        println!(
            "{kind} {} [{}] {} is better{bound}",
            d.name, d.unit, d.better
        );
    };
    END_TO_END.iter().for_each(|d| row("end_to_end", d));
    PER_LAYER.iter().for_each(|d| row("per_layer", d));
}

/// One set: every workload untraced then traced, each in a child
/// process so that `peak_rss_mb` is the workload's own. Returns the
/// parsed result lines by `workload/trace`, or what went wrong.
fn all(args: &Args) -> Result<Vec<(String, JsonValue)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut results = Vec::new();
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .output()
                .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            if !output.status.success() {
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                return Err(format!("{} (trace {trace}) failed", workload.name()));
            }
            let line = stdout.lines().last().unwrap_or_default();
            let parsed = JsonValue::parse(line)
                .map_err(|e| format!("{}: bad result line: {e}", workload.name()))?;
            results.push((format!("{}/trace{trace}", workload.name()), parsed));
        }
    }
    let dir = out_dir();
    let path = dir.join("results.json");
    let doc = JsonValue::Object(vec![
        ("seed".to_string(), JsonValue::Number(args.seed as f64)),
        ("runs".to_string(), JsonValue::Object(results.clone())),
    ]);
    let text = doc.to_string().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(results)
}

fn metric(run: &JsonValue, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_number()
}

/// Runs `all` several times and holds the sets against each other:
/// every end-to-end metric within its bound of the first set's, every
/// seed-determined value bit for bit the same.
fn agree(args: &Args) -> Result<bool, String> {
    let sets: Vec<Vec<(String, JsonValue)>> = (0..args.sets)
        .map(|_| all(args))
        .collect::<Result<_, _>>()?;
    let mut agreed = true;
    for (run, first) in &sets[0] {
        for (k, later) in sets.iter().enumerate().skip(1) {
            let Some((_, other)) = later.iter().find(|(name, _)| name == run) else {
                continue;
            };
            for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
                let (Some(a), Some(b)) = (metric(first, d.name), metric(other, d.name)) else {
                    continue;
                };
                let ok = if d.exact {
                    a.to_bits() == b.to_bits()
                } else if let Some(bound) = d.bound {
                    (a - b).abs() <= bound * a.abs()
                } else {
                    true
                };
                if !ok {
                    agreed = false;
                    println!("DISAGREE {run} {}: set 0 {a:?}, set {k} {b:?}", d.name);
                }
            }
        }
    }
    println!(
        "{} sets {}",
        args.sets,
        if agreed { "agree" } else { "do not agree" }
    );
    Ok(agreed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(flag) if flag.starts_with("--") => ("run", &argv[..]),
        Some(command) => (command, &argv[1..]),
        None => ("help", &argv[..]),
    };
    let outcome = parse(rest).and_then(|args| match command {
        "run" => run(&args),
        "list" => {
            list();
            Ok(true)
        }
        "all" => all(&args).map(|runs| {
            runs.iter()
                .all(|(_, r)| r.get("correct") == Some(&JsonValue::Bool(true)))
        }),
        "agree" => agree(&args),
        _ => Err("usage: prepare-benchmark [run] --workload W --seed N --seconds S --trace 0|1 | list | all | agree --sets K".to_string()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("prepare-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
