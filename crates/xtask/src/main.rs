//! `cargo xtask` — workspace task runner for the PREPARE reproduction.
//!
//! The only subcommand today is `lint`: a dependency-free, token/line-
//! level static analyzer that keeps the seeded simulations replayable
//! and the probability code NaN-safe. Every rule is zero tolerance; a
//! site that must stay carries an `// xtask-allow: <rule> -- <reason>`
//! marker. Panic sites are clippy's (`[workspace.lints.clippy]` in the
//! root `Cargo.toml`). See DESIGN.md §8 for the policy and rules.

mod callgraph;
mod fidelity;
mod items;
mod legacy;
mod lexer;
mod rules;
mod scan;

use rules::Finding;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
cargo xtask <command>

Commands:
  lint                    run the determinism/nan-safety/indexing/hot-path analysis
  lint --root <dir>       analyze another checkout of this workspace
  lint --json <path>      also write a machine-readable report (per-rule
                          counts, findings with file:line spans, timings)

The lint exits non-zero on any finding: determinism, nan-safety,
index-in-loop, hot-path, hygiene (unused allow, orphan marker), event
coverage or fidelity.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let mut root = workspace_root();
            let mut json: Option<PathBuf> = None;
            let mut rest = args.iter().skip(1);
            while let Some(flag) = rest.next() {
                match flag.as_str() {
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
            match run_lint(&root, json.as_deref()) {
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

/// Every rule the lint can report, in report order: the per-file and
/// workspace detectors, then the document fidelity checks. Both the
/// `per-rule:` line and the JSON `rules` object list exactly these.
fn reported_rules() -> impl Iterator<Item = &'static str> {
    rules::ALL_RULES
        .iter()
        .chain(fidelity::RULES)
        .map(|&(rule, _)| rule)
}

/// Renders the machine-readable lint report: per-rule counts, every
/// finding with its file:line span, and timings.
fn json_report(
    files_scanned: usize,
    wall_ms: u128,
    rule_counts: &BTreeMap<&str, usize>,
    findings: &[Finding],
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"wall_ms\": {wall_ms},\n"));
    let rules: Vec<String> = reported_rules()
        .map(|rule| {
            format!(
                "    \"{rule}\": {}",
                rule_counts.get(rule).copied().unwrap_or(0)
            )
        })
        .collect();
    out.push_str(&format!("  \"rules\": {{\n{}\n  }},\n", rules.join(",\n")));
    let findings: Vec<String> = findings
        .iter()
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
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "lint self-timing, reported to CI, never simulated"
)]
fn run_lint(root: &Path, json: Option<&Path>) -> Result<bool, String> {
    let t0 = std::time::Instant::now();
    let files = scan::load_workspace(root)?;
    let crate_map = scan::crate_idents(root);

    let mut findings = rules::check_workspace(&files, &crate_map);
    findings.extend(fidelity::check_doc_bins(root));
    let mut rule_counts: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &findings {
        *rule_counts.entry(f.rule).or_insert(0) += 1;
        print_finding(f);
    }

    // Per-rule counts and wall time, one line each so CI can grep and
    // budget them.
    let per_rule: Vec<String> = reported_rules()
        .map(|rule| format!("{rule}={}", rule_counts.get(rule).copied().unwrap_or(0)))
        .collect();
    println!("per-rule: {}", per_rule.join(" "));
    let wall_ms = t0.elapsed().as_millis();
    println!("lint wall time: {wall_ms} ms");
    if let Some(path) = json {
        let report = json_report(files.len(), wall_ms, &rule_counts, &findings);
        std::fs::write(path, report).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    println!(
        "xtask lint: {} files scanned; findings: {}",
        files.len(),
        findings.len()
    );
    Ok(findings.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed tree must lint clean — this is the acceptance
    /// criterion wired straight into `cargo test`.
    #[test]
    fn committed_tree_is_clean() {
        let clean = run_lint(&workspace_root(), None).expect("lint runs");
        assert!(
            clean,
            "`cargo xtask lint` reports findings on the committed tree"
        );
    }

    /// A scratch workspace whose docs resolve, so only `lib` can fail.
    fn scratch_root(name: &str, lib: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates/bench/src/bin")).unwrap();
        std::fs::create_dir_all(dir.join("crates/x/src")).unwrap();
        std::fs::write(dir.join("crates/bench/src/bin/fig6.rs"), "").unwrap();
        std::fs::write(dir.join("DESIGN.md"), "`--bin fig6`\n").unwrap();
        std::fs::write(dir.join("README.md"), "").unwrap();
        std::fs::write(dir.join("crates/x/src/lib.rs"), lib).unwrap();
        dir
    }

    /// `index-in-loop` is zero tolerance: one unmarked site fails the lint,
    /// and a reasoned marker clears it.
    #[test]
    fn an_unmarked_index_in_loop_site_fails_the_lint() {
        let site = "fn f(v: &[u8], n: usize) { for i in 0..n { g(v[i]); } }\n";
        let marked = "fn f(v: &[u8], n: usize) {\n    for i in 0..n {\n        \
                      // xtask-allow: index-in-loop -- callers pass n <= v.len()\n        \
                      g(v[i]);\n    }\n}\n";
        let dirty = scratch_root("xtask-index-in-loop-dirty", site);
        let clean = scratch_root("xtask-index-in-loop-clean", marked);
        let dirty_ok = run_lint(&dirty, None).expect("lint runs");
        let clean_ok = run_lint(&clean, None).expect("lint runs");
        let _ = std::fs::remove_dir_all(&dirty);
        let _ = std::fs::remove_dir_all(&clean);
        assert!(
            !dirty_ok,
            "an unmarked index-in-loop site must fail the lint"
        );
        assert!(clean_ok, "a reasoned marker must clear the site");
    }

    /// Clippy cannot report a list entry or a lint level that was
    /// deleted, so only this test notices the determinism sources
    /// eroding: every host clock, thread identity and address read stays
    /// refused.
    #[test]
    fn clippy_toml_keeps_its_determinism_sources() {
        let read = |file: &str| {
            std::fs::read_to_string(workspace_root().join(file)).expect("root file is readable")
        };
        let toml = read("clippy.toml");
        let lists = [
            (
                "disallowed-types",
                &[
                    "std::collections::HashMap",
                    "std::collections::HashSet",
                    "std::time::Instant",
                    "std::time::SystemTime",
                    "std::thread::ThreadId",
                ][..],
            ),
            (
                "disallowed-methods",
                &[
                    "std::time::Instant::now",
                    "std::time::Instant::elapsed",
                    "std::time::SystemTime::now",
                    "std::time::SystemTime::elapsed",
                    "std::thread::current",
                    "std::vec::Vec::as_ptr",
                    "std::vec::Vec::as_mut_ptr",
                    "slice::as_ptr",
                    "slice::as_mut_ptr",
                    "str::as_ptr",
                    "str::as_mut_ptr",
                    "std::sync::Arc::as_ptr",
                    "std::rc::Rc::as_ptr",
                ][..],
            ),
        ];
        for (key, paths) in lists {
            let start = toml.find(&format!("{key} = [")).expect("list present");
            let len = toml[start..].find("\n]").expect("list closed");
            let list = &toml[start..start + len];
            for path in paths {
                let entry = format!("path = \"{path}\"");
                assert!(list.contains(&entry), "{key} lost `{path}`");
            }
        }
        // The `as *const` casts of a reference, which no path can name.
        let manifest = read("Cargo.toml");
        for lint in ["ref_as_ptr", "borrow_as_ptr"] {
            let level = format!("\n{lint} = \"deny\"");
            assert!(
                manifest.contains(&level),
                "Cargo.toml no longer denies {lint}"
            );
        }
    }

    /// Every rule `fidelity.rs` can emit is counted on the `per-rule:`
    /// line and in the JSON report.
    #[test]
    fn fidelity_rules_are_reported() {
        let dir = std::env::temp_dir().join("xtask-fidelity-rules");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // No DESIGN.md: doc-readable. README names a missing binary.
        std::fs::write(dir.join("README.md"), "cargo run --bin gone\n").unwrap();
        let mut emitted: Vec<&str> = fidelity::check_doc_bins(&dir)
            .iter()
            .map(|f| f.rule)
            .collect();
        // A DESIGN.md without any `--bin`: design-experiment-index.
        std::fs::write(dir.join("DESIGN.md"), "no binaries\n").unwrap();
        emitted.extend(fidelity::check_doc_bins(&dir).iter().map(|f| f.rule));
        let _ = std::fs::remove_dir_all(&dir);
        let reported: Vec<&str> = reported_rules().collect();
        for (rule, _) in fidelity::RULES {
            assert!(emitted.contains(rule), "{rule} was never emitted");
        }
        for rule in emitted {
            assert!(reported.contains(&rule), "{rule} is missing from per-rule");
        }
    }
}
