//! `prepare-tlc` — the temporal property checker CI entry point.
//!
//! Replays the pinned trace suite (golden scenario + hostile chaos
//! seeds), checks every trace against the registered property
//! catalogue, verifies worker invariance between `PREPARE_WORKERS=1`
//! and `4`, and runs the small-scope exhaustive fault-interleaving
//! explorer. Writes a violation report (default
//! `target/tlc-report.txt`, override with `--report <path>`) and exits
//! nonzero if any property is violated anywhere.
//!
//! With `PREPARE_WORKERS` set in the environment only that worker
//! count is checked (and the cross-count invariance comparison is
//! skipped); CI leaves it unset so one invocation covers both engines.
//! `--skip-explore` drops the explorer sweep for quick local runs.

use std::time::Instant; // xtask-allow: time-source -- checker self-timing, reported to CI, never simulated

use prepare_tlc::explore::explore;
use prepare_tlc::suite::{check_traces, suite_traces, worker_divergences, CheckedTrace};

/// Worker counts to replay: the ambient `PREPARE_WORKERS` if pinned,
/// otherwise both engines the CI matrix exercises.
fn worker_counts() -> Vec<usize> {
    match std::env::var("PREPARE_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&w| w >= 1)
    {
        Some(w) => vec![w],
        None => vec![1, 4],
    }
}

fn render_suite(report: &mut String, checked: &[CheckedTrace]) -> usize {
    let mut violations = 0;
    for trace in checked {
        let verdict = if trace.violations.is_empty() {
            "PASS"
        } else {
            "FAIL"
        };
        report.push_str(&format!(
            "{verdict} {} ({} events, {} violations)\n",
            trace.label,
            trace.events,
            trace.violations.len()
        ));
        for v in &trace.violations {
            report.push_str(&format!("  {v}\n"));
        }
        violations += trace.violations.len();
    }
    violations
}

fn main() {
    let start = Instant::now(); // xtask-allow: time-source -- checker self-timing, reported to CI, never simulated
    let mut report_path = String::from("target/tlc-report.txt");
    let mut skip_explore = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--report" => {
                if let Some(p) = args.next() {
                    report_path = p;
                }
            }
            "--skip-explore" => skip_explore = true,
            other => {
                eprintln!("prepare-tlc: unknown argument `{other}`");
                eprintln!("usage: prepare-tlc [--report <path>] [--skip-explore]");
                std::process::exit(2);
            }
        }
    }

    let mut report = String::from("# prepare-tlc violation report\n\n");
    let mut total_violations = 0;

    let counts = worker_counts();
    let mut trace_sets = Vec::new();
    for &workers in &counts {
        let traces = suite_traces(workers);
        let checked = check_traces(&traces);
        report.push_str(&format!("## pinned suite, workers={workers}\n"));
        total_violations += render_suite(&mut report, &checked);
        report.push('\n');
        trace_sets.push(traces);
    }

    report.push_str("## worker invariance\n");
    if let [first, rest @ ..] = trace_sets.as_slice() {
        let mut diverged = 0;
        for other in rest {
            for line in worker_divergences(first, other) {
                report.push_str(&format!("FAIL {line}\n"));
                diverged += 1;
            }
        }
        if rest.is_empty() {
            report.push_str("SKIP single worker count pinned by PREPARE_WORKERS\n");
        } else if diverged == 0 {
            report.push_str(&format!(
                "PASS traces identical across workers {counts:?}\n"
            ));
        }
        total_violations += diverged;
    }
    report.push('\n');

    report.push_str("## exhaustive fault-interleaving explorer\n");
    if skip_explore {
        report.push_str("SKIP --skip-explore\n");
    } else {
        let sweep = explore();
        if sweep.violations.is_empty() {
            report.push_str(&format!(
                "PASS {} interleavings, {} events checked\n",
                sweep.cases, sweep.events_checked
            ));
        } else {
            report.push_str(&format!(
                "FAIL {} interleavings, {} events checked, {} violations\n",
                sweep.cases,
                sweep.events_checked,
                sweep.violations.len()
            ));
            for cv in &sweep.violations {
                report.push_str(&format!("  [{}] {}\n", cv.case, cv.violation));
            }
            total_violations += sweep.violations.len();
        }
    }

    if let Some(dir) = std::path::Path::new(&report_path).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("prepare-tlc: cannot create {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
    }
    if let Err(e) = std::fs::write(&report_path, &report) {
        eprintln!("prepare-tlc: cannot write {report_path}: {e}");
        std::process::exit(2);
    }

    print!("{report}");
    let elapsed = start.elapsed().as_millis();
    println!("tlc wall time: {elapsed} ms");
    if total_violations > 0 {
        eprintln!("prepare-tlc: {total_violations} violation(s); see {report_path}");
        std::process::exit(1);
    }
}
