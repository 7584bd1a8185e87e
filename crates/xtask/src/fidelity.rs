//! Paper-fidelity checks: the experiment index in DESIGN.md §4 and the
//! README's commands must stay runnable (every referenced `--bin`
//! exists).

use crate::rules::{Category, Finding};
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Every rule [`check_doc_bins`] can emit, for per-rule reporting.
pub const RULES: &[(&str, Category)] = &[
    ("doc-readable", Category::Fidelity),
    ("missing-bench-bin", Category::Fidelity),
    ("design-experiment-index", Category::Fidelity),
];

/// The documents whose `--bin <name>` references must resolve.
const BIN_DOCS: [&str; 2] = ["DESIGN.md", "README.md"];

/// Every `--bin <name>` referenced by DESIGN.md or README.md must exist
/// under `crates/bench/src/bin/`, and DESIGN.md's experiment index must
/// reference at least one.
pub fn check_doc_bins(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for doc in BIN_DOCS {
        let text = match fs::read_to_string(root.join(doc)) {
            Ok(t) => t,
            Err(e) => {
                findings.push(Finding {
                    file: doc.into(),
                    line: 1,
                    category: Category::Fidelity,
                    rule: "doc-readable",
                    message: format!("cannot read {doc}: {e}"),
                });
                continue;
            }
        };
        let mut seen = BTreeSet::new();
        for (n, line) in text.lines().enumerate() {
            let mut rest = line;
            while let Some(at) = rest.find("--bin ") {
                rest = &rest[at + "--bin ".len()..];
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if name.is_empty() || !seen.insert(name.clone()) {
                    continue;
                }
                let bin = root.join("crates/bench/src/bin").join(format!("{name}.rs"));
                if !bin.is_file() {
                    findings.push(Finding {
                        file: doc.into(),
                        line: n + 1,
                        category: Category::Fidelity,
                        rule: "missing-bench-bin",
                        message: format!(
                            "{doc} references `--bin {name}` but crates/bench/src/bin/{name}.rs does not exist"
                        ),
                    });
                }
            }
        }
        if doc == "DESIGN.md" && seen.is_empty() {
            findings.push(Finding {
                file: doc.into(),
                line: 1,
                category: Category::Fidelity,
                rule: "design-experiment-index",
                message: "DESIGN.md no longer references any `--bin` experiment binaries".into(),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_bins_resolve_in_this_workspace() {
        // Run against the real repo: the committed DESIGN.md, README.md
        // and bench crate must agree (this IS the fidelity acceptance
        // check).
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = check_doc_bins(&root);
        assert!(
            findings.is_empty(),
            "DESIGN.md / README.md and crates/bench/src/bin disagree: {findings:?}"
        );
    }

    /// A README line naming a deleted binary is a finding on README.md,
    /// even when DESIGN.md is clean.
    #[test]
    fn readme_bins_are_checked_too() {
        let dir = std::env::temp_dir().join("xtask-doc-bins-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("crates/bench/src/bin")).unwrap();
        fs::write(dir.join("crates/bench/src/bin/fig6.rs"), "").unwrap();
        fs::write(dir.join("DESIGN.md"), "| Fig. 6 | `--bin fig6` |\n").unwrap();
        fs::write(
            dir.join("README.md"),
            "cargo run --bin fig6\ncargo run --bin gone # deleted\n",
        )
        .unwrap();
        let findings = check_doc_bins(&dir);
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].file, "README.md");
        assert_eq!(findings[0].line, 2);
        assert_eq!(findings[0].rule, "missing-bench-bin");
    }
}
