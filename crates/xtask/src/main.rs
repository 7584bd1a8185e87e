//! `cargo xtask` — workspace task runner for the PREPARE reproduction.
//!
//! The only subcommand today is `lint`: a dependency-free, token/line-
//! level static analyzer that keeps the seeded simulations replayable
//! and the library crates panic-honest. See DESIGN.md §8 for the
//! policy, rules and ratchet workflow.

#![forbid(unsafe_code)]

mod baseline;
mod callgraph;
mod checkpoint;
mod dataflow;
mod fidelity;
mod items;
mod legacy;
mod lexer;
mod rules;
mod scan;

use baseline::Counts;
use rules::{Category, Finding};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant; // xtask-allow: time-source -- lint self-timing, reported to CI, never simulated

const USAGE: &str = "\
cargo xtask <command>

Commands:
  lint                    run the determinism/nan-safety/panic-debt/hot-path analysis
  lint --update-baseline  rewrite the panic-debt ratchet (refuses increases)
  lint --list             print every finding, including baselined debt
  lint --root <dir>       analyze another checkout of this workspace
  lint --json <path>      also write a machine-readable report (per-rule
                          counts, findings with file:line spans, timings)

The lint exits non-zero on: any determinism, nan-safety, taint,
hot-path, hygiene (unused allow, orphan marker) or fidelity finding, or
any panic-debt count above its baseline entry.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let update = args.iter().any(|a| a == "--update-baseline");
            let list = args.iter().any(|a| a == "--list");
            let mut root = workspace_root();
            let mut json: Option<PathBuf> = None;
            let mut rest = args.iter().skip(1);
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--update-baseline" | "--list" => {}
                    "--root" => match rest.next() {
                        Some(dir) => root = PathBuf::from(dir),
                        None => {
                            eprintln!("--root needs a directory\n\n{USAGE}");
                            return ExitCode::FAILURE;
                        }
                    },
                    "--json" => match rest.next() {
                        Some(path) => json = Some(PathBuf::from(path)),
                        None => {
                            eprintln!("--json needs a file path\n\n{USAGE}");
                            return ExitCode::FAILURE;
                        }
                    },
                    bad => {
                        eprintln!("unknown flag `{bad}`\n\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            match run_lint(&root, update, list, json.as_deref()) {
                Ok(clean) => {
                    if clean {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("xtask lint: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: this crate lives at `<root>/crates/xtask`.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn print_finding(f: &Finding) {
    println!(
        "{}:{}: [{}/{}] {}",
        f.file,
        f.line,
        f.category.name(),
        f.rule,
        f.message
    );
}

/// Minimal JSON string escape (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable lint report: per-rule counts, every
/// actionable finding with its file:line span, timings and debt totals.
fn json_report(
    files_scanned: usize,
    wall_ms: u128,
    rule_counts: &BTreeMap<&str, usize>,
    hard: &[Finding],
    over_budget: &[&Finding],
    debt_total: usize,
    baseline_total: usize,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"wall_ms\": {wall_ms},\n"));
    out.push_str(&format!(
        "  \"panic_debt\": {{ \"total\": {debt_total}, \"baseline\": {baseline_total}, \
         \"new_sites\": {} }},\n",
        over_budget.len()
    ));
    let rules: Vec<String> = rules::ALL_RULES
        .iter()
        .map(|(rule, _)| {
            format!(
                "    \"{rule}\": {}",
                rule_counts.get(rule).copied().unwrap_or(0)
            )
        })
        .collect();
    out.push_str(&format!("  \"rules\": {{\n{}\n  }},\n", rules.join(",\n")));
    let findings: Vec<String> = hard
        .iter()
        .chain(over_budget.iter().copied())
        .map(|f| {
            format!(
                "    {{ \"file\": \"{}\", \"line\": {}, \"category\": \"{}\", \
                 \"rule\": \"{}\", \"message\": \"{}\" }}",
                json_escape(&f.file),
                f.line,
                f.category.name(),
                f.rule,
                json_escape(&f.message)
            )
        })
        .collect();
    if findings.is_empty() {
        out.push_str("  \"findings\": []\n");
    } else {
        out.push_str(&format!(
            "  \"findings\": [\n{}\n  ]\n",
            findings.join(",\n")
        ));
    }
    out.push('}');
    out.push('\n');
    out
}

/// Runs the full lint. Returns `Ok(true)` when the tree is clean.
fn run_lint(
    root: &Path,
    update_baseline: bool,
    list_all: bool,
    json: Option<&Path>,
) -> Result<bool, String> {
    // xtask-allow: time-source -- lint self-timing, reported to CI, never simulated
    let t0 = Instant::now();
    let files = scan::load_workspace(root)?;
    let crate_map = scan::crate_idents(root);

    let mut hard_findings: Vec<Finding> = Vec::new(); // zero-tolerance
    let mut debt_findings: Vec<Finding> = Vec::new(); // ratcheted
    let mut rule_counts: BTreeMap<&str, usize> = BTreeMap::new();

    for finding in rules::check_workspace(&files, &crate_map) {
        *rule_counts.entry(finding.rule).or_insert(0) += 1;
        match finding.category {
            Category::PanicDebt => debt_findings.push(finding),
            _ => hard_findings.push(finding),
        }
    }
    for finding in fidelity::check_doc_bins(root)
        .into_iter()
        .chain(fidelity::check_crate_attrs(&files))
    {
        *rule_counts.entry(finding.rule).or_insert(0) += 1;
        hard_findings.push(finding);
    }

    // Tally current debt.
    let mut current = Counts::new();
    for f in &debt_findings {
        *current
            .entry(f.file.clone())
            .or_default()
            .entry(f.rule.to_string())
            .or_insert(0) += 1;
    }

    let committed = baseline::load(root)?;

    if update_baseline {
        let ratchet = baseline::exists(root).then_some(&committed);
        baseline::store(root, ratchet, &current)?;
        println!(
            "baseline updated: {} panic-debt sites across {} files",
            baseline::total(&current),
            current.len()
        );
        if !hard_findings.is_empty() {
            println!(
                "note: {} zero-tolerance findings remain:",
                hard_findings.len()
            );
            for f in &hard_findings {
                print_finding(f);
            }
            return Ok(false);
        }
        return Ok(true);
    }

    // Ratchet comparison: any (file, rule) above its baseline fails.
    let mut over_budget: Vec<&Finding> = Vec::new();
    let mut stale = 0usize;
    for (file, rules) in &current {
        for (rule, &count) in rules {
            let budget = committed
                .get(file)
                .and_then(|r| r.get(rule))
                .copied()
                .unwrap_or(0);
            if count > budget {
                over_budget.extend(
                    debt_findings
                        .iter()
                        .filter(|f| &f.file == file && f.rule == rule),
                );
            } else if count < budget {
                stale += 1;
            }
        }
    }
    for (file, rules) in &committed {
        for (rule, &budget) in rules {
            let count = current
                .get(file)
                .and_then(|r| r.get(rule))
                .copied()
                .unwrap_or(0);
            if budget > 0 && count == 0 {
                stale += 1;
            }
        }
    }

    for f in &hard_findings {
        print_finding(f);
    }
    for f in &over_budget {
        print_finding(f);
    }
    if list_all {
        println!("-- all tracked panic debt --");
        for f in &debt_findings {
            print_finding(f);
        }
    }

    let debt_total = baseline::total(&current);
    let baseline_total = baseline::total(&committed);
    // Per-rule counts (all findings, baselined debt included) and wall
    // time, one line each so CI can grep and budget them.
    let per_rule: Vec<String> = rules::ALL_RULES
        .iter()
        .map(|(rule, _)| format!("{rule}={}", rule_counts.get(rule).copied().unwrap_or(0)))
        .collect();
    println!("per-rule: {}", per_rule.join(" "));
    let wall_ms = t0.elapsed().as_millis();
    println!("lint wall time: {wall_ms} ms");
    if let Some(path) = json {
        let report = json_report(
            files.len(),
            wall_ms,
            &rule_counts,
            &hard_findings,
            &over_budget,
            debt_total,
            baseline_total,
        );
        std::fs::write(path, report).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    println!(
        "xtask lint: {} files scanned; zero-tolerance findings: {}; \
         panic debt {debt_total} (baseline {baseline_total}); new debt sites: {}",
        files.len(),
        hard_findings.len(),
        over_budget.len(),
    );
    if stale > 0 {
        println!(
            "note: {stale} baseline entr{} the current debt; \
             run `cargo xtask lint --update-baseline` to ratchet down",
            if stale == 1 {
                "y exceeds"
            } else {
                "ies exceed"
            }
        );
    }

    Ok(hard_findings.is_empty() && over_budget.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed tree must lint clean — this is the acceptance
    /// criterion wired straight into `cargo test`.
    #[test]
    fn committed_tree_is_clean() {
        let clean = run_lint(&workspace_root(), false, false, None).expect("lint runs");
        assert!(
            clean,
            "`cargo xtask lint` reports findings on the committed tree"
        );
    }
}
