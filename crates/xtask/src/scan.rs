//! Source model for the lint pass: file discovery, lexing, attribute /
//! `#[cfg(test)]` region detection and allow-marker bookkeeping.
//!
//! v2 of the analyzer: every file is lexed into a real token stream
//! ([`crate::lexer`]) instead of being masked in place. Detectors walk
//! tokens, so comments and literal bodies can never produce findings,
//! and the allow markers (which live in comments) are first-class.

use crate::lexer::{self, Token, TokenKind};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// How the lint treats one source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilePolicy {
    /// Determinism hazards are violations here (simulation-visible code).
    pub determinism: bool,
    /// The NaN-safety rules and `index-in-loop` apply here (library code).
    pub nan_and_index_rules: bool,
}

/// One `// xtask-allow: rule -- reason` marker, with usage tracking so
/// a marker that suppresses nothing becomes an `unused-allow` finding.
pub struct Allow {
    /// 1-based line the marker sits on.
    pub line: usize,
    /// Rule name it exempts.
    pub rule: String,
    /// Set when any detector consults this marker and is suppressed.
    pub used: Cell<bool>,
}

/// One scanned file: source text, token stream, regions and policy.
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Raw source text.
    pub text: String,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(usize, usize)>,
    /// Allow markers in this file.
    pub allows: Vec<Allow>,
    /// Lines occupied by item attributes (`#[inline]`, `#![forbid]`…):
    /// an allow marker above an attribute block reaches the item below.
    pub attr_lines: BTreeSet<usize>,
    /// Lint policy for this file.
    pub policy: FilePolicy,
}

impl SourceFile {
    /// Source text of token `idx` (an index into `tokens`).
    #[cfg(test)]
    pub fn tok_text(&self, idx: usize) -> &str {
        self.tokens
            .get(idx)
            .map(|t| t.text(&self.text))
            .unwrap_or("")
    }

    /// Token behind code position `k`.
    pub fn ctok(&self, k: usize) -> Option<&Token> {
        self.code.get(k).and_then(|&i| self.tokens.get(i))
    }

    /// Source text of code position `k` (empty when out of range).
    pub fn ctext(&self, k: usize) -> &str {
        self.ctok(k).map(|t| t.text(&self.text)).unwrap_or("")
    }

    /// Kind of code position `k`.
    pub fn ckind(&self, k: usize) -> Option<TokenKind> {
        self.ctok(k).map(|t| t.kind)
    }

    /// True when code position `k` is the punctuation byte `c`.
    pub fn cpunct(&self, k: usize, c: char) -> bool {
        self.ctok(k).is_some_and(|t| t.is_punct(&self.text, c))
    }

    /// Identifier text at code position `k`, if it is an identifier.
    pub fn cident(&self, k: usize) -> Option<&str> {
        match self.ckind(k) {
            Some(TokenKind::Ident) => Some(self.ctext(k)),
            _ => None,
        }
    }

    /// True when code positions `k`/`k+1` are the adjacent pair `a``b`
    /// (spans touching — distinguishes `::` from `: :`).
    pub fn cpair(&self, k: usize, a: char, b: char) -> bool {
        if !(self.cpunct(k, a) && self.cpunct(k + 1, b)) {
            return false;
        }
        match (self.ctok(k), self.ctok(k + 1)) {
            (Some(x), Some(y)) => x.end == y.start,
            _ => false,
        }
    }

    /// Skips a generics list: `k` points at `<`; returns the position
    /// just past the matching `>`. `->` inside (`Fn() -> T` bounds,
    /// `fn() -> u8` turbofish arguments) does not close angles.
    pub fn skip_angles(&self, k: usize) -> usize {
        let mut depth = 0i64;
        let mut j = k;
        while j < self.code.len() {
            if self.cpunct(j, '<') {
                depth += 1;
            } else if self.cpair(j, '-', '>') {
                j += 2;
                continue;
            } else if self.cpunct(j, '>') {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            } else if self.cpunct(j, ';') || self.cpunct(j, '{') {
                return j; // malformed; bail before the body
            }
            j += 1;
        }
        j
    }

    /// True when `offset` falls inside a `#[cfg(test)]` item.
    pub fn in_test_region(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| offset >= s && offset < e)
    }

    /// True when `rule` is explicitly allowed on `line`. A marker counts
    /// when it sits on the same line, the line directly above, or the
    /// line directly above the item's contiguous attribute block (so
    /// `// xtask-allow: …` above `#[inline]` still reaches the `fn`).
    /// Consulting a marker records it as used.
    pub fn is_allowed(&self, line: usize, rule: &str) -> bool {
        let mut anchors = vec![line, line.saturating_sub(1)];
        let mut top = line;
        while top > 1 && self.attr_lines.contains(&(top - 1)) {
            top -= 1;
        }
        if top != line {
            anchors.push(top.saturating_sub(1));
        }
        for a in self.allows.iter().filter(|a| a.rule == rule) {
            if anchors.contains(&a.line) {
                a.used.set(true);
                return true;
            }
        }
        false
    }
}

/// Walks the workspace and loads every `.rs` file with its policy.
/// `fixtures/` directories are excluded: they hold golden lexer inputs
/// that deliberately spell out rule hazards.
pub fn load_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let mut paths: Vec<PathBuf> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
            paths.push(entry.path());
        }
        // Deterministic traversal: the lint's own report order must not
        // depend on readdir order.
        paths.sort();
        for path in paths {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !matches!(name, "target" | ".git" | ".cargo" | ".github" | "fixtures") {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| format!("path outside root: {e}"))?
                    .to_string_lossy()
                    .replace('\\', "/");
                let text = fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                files.push(analyze(rel.clone(), text, policy_for(&rel)));
            }
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

/// Reads every workspace `Cargo.toml` and maps the package's crate
/// identifier (`prepare-markov` → `prepare_markov`) to the directory
/// prefix its sources live under (`crates/markov`). The root package
/// maps to the empty prefix.
pub fn crate_idents(root: &Path) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    let mut add = |manifest: PathBuf, prefix: String| {
        if let Some(name) = package_name(&manifest) {
            map.insert(name.replace('-', "_"), prefix);
        }
    };
    add(root.join("Cargo.toml"), String::new());
    for group in ["crates", "shims"] {
        let Ok(entries) = fs::read_dir(root.join(group)) else {
            continue;
        };
        for entry in entries.flatten() {
            let dir = entry.path();
            let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if dir.is_dir() {
                add(dir.join("Cargo.toml"), format!("{group}/{name}"));
            }
        }
    }
    map
}

/// `name = "…"` from a manifest's `[package]` section.
fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
        } else if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Lint policy for a workspace-relative path.
pub fn policy_for(rel: &str) -> FilePolicy {
    let test_like = rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/");
    if test_like {
        return FilePolicy {
            determinism: false,
            nan_and_index_rules: false,
        };
    }
    // The task runner itself is a CLI tool, not simulation-visible code,
    // but it is held to the same indexing and determinism standard.
    FilePolicy {
        determinism: true,
        nan_and_index_rules: true,
    }
}

/// Test-only entry to the analyzer for sibling modules' unit tests.
#[cfg(test)]
pub fn analyze_for_tests(rel_path: String, text: String, policy: FilePolicy) -> SourceFile {
    analyze(rel_path, text, policy)
}

/// Lexes the file and derives the structures every detector shares.
fn analyze(rel_path: String, text: String, policy: FilePolicy) -> SourceFile {
    let tokens = lexer::lex(&text);
    let code: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.kind.is_trivia())
        .map(|(i, _)| i)
        .collect();
    let allows = collect_allows(&tokens, &text);
    let attr_lines = find_attr_lines(&tokens, &code, &text);
    let test_regions = find_test_regions(&tokens, &code, &text);
    SourceFile {
        rel_path,
        text,
        tokens,
        code,
        test_regions,
        allows,
        attr_lines,
        policy,
    }
}

/// Collects `xtask-allow: rule -- reason` markers from comment tokens.
/// A marker without a reason is deliberately not registered.
fn collect_allows(tokens: &[Token], text: &str) -> Vec<Allow> {
    let mut allows = Vec::new();
    for t in tokens.iter().filter(|t| t.kind.is_trivia()) {
        let comment = crate::lexer::comment_body(t.text(text));
        if let Some(rest) = comment.strip_prefix("xtask-allow:") {
            let rule = rest.split("--").next().unwrap_or("").trim();
            let reason = rest.split("--").nth(1).map(str::trim).unwrap_or("");
            if !rule.is_empty() && !reason.is_empty() {
                allows.push(Allow {
                    line: t.line,
                    rule: rule.to_string(),
                    used: Cell::new(false),
                });
            }
        }
    }
    allows
}

/// True when code token `code[k]` opens an attribute: `#` directly
/// followed by `[` or `![`.
fn opens_attr(tokens: &[Token], code: &[usize], k: usize, text: &str) -> bool {
    let at = |j: usize| code.get(j).and_then(|&i| tokens.get(i));
    if !at(k).is_some_and(|t| t.is_punct(text, '#')) {
        return false;
    }
    match at(k + 1) {
        Some(t) if t.is_punct(text, '[') => true,
        Some(t) if t.is_punct(text, '!') => at(k + 2).is_some_and(|t| t.is_punct(text, '[')),
        _ => false,
    }
}

/// Code-token index just past the `]` closing the attribute opening at
/// `code[k]` (which must satisfy [`opens_attr`]).
fn attr_end(tokens: &[Token], code: &[usize], k: usize, text: &str) -> usize {
    let mut j = k;
    let mut depth = 0i64;
    while let Some(t) = code.get(j).and_then(|&i| tokens.get(i)) {
        if t.is_punct(text, '[') {
            depth += 1;
        } else if t.is_punct(text, ']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Every line spanned by an item attribute that starts its own line.
fn find_attr_lines(tokens: &[Token], code: &[usize], text: &str) -> BTreeSet<usize> {
    let mut lines = BTreeSet::new();
    let mut prev_line = 0usize;
    let mut k = 0usize;
    while let Some(line) = code.get(k).and_then(|&i| tokens.get(i)).map(|t| t.line) {
        let starts_line = line != prev_line;
        prev_line = line;
        if starts_line && opens_attr(tokens, code, k, text) {
            let end = attr_end(tokens, code, k, text);
            let last_line = code
                .get(end.saturating_sub(1))
                .and_then(|&j| tokens.get(j))
                .map_or(line, |t| t.line);
            lines.extend(line..=last_line);
            prev_line = last_line;
            k = end;
            continue;
        }
        k += 1;
    }
    lines
}

/// Finds byte ranges of items annotated `#[cfg(… test …)]` by walking
/// tokens: the attribute, any further attributes, then either a `;`
/// (bodiless item) or a brace-matched body.
fn find_test_regions(tokens: &[Token], code: &[usize], text: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut k = 0usize;
    while k < code.len() {
        if !opens_attr(tokens, code, k, text) {
            k += 1;
            continue;
        }
        let Some(start_at) = code.get(k).and_then(|&i| tokens.get(i)).map(|t| t.start) else {
            break;
        };
        let end = attr_end(tokens, code, k, text);
        // Is this `#[cfg(…)]` with `test` somewhere inside?
        let mut texts = (k..end)
            .filter_map(|j| code.get(j).and_then(|&i| tokens.get(i)))
            .map(|t| (t.kind, t.text(text)));
        let is_cfg_test = texts.clone().nth(2) == Some((TokenKind::Ident, "cfg"))
            && texts.any(|(kind, s)| kind == TokenKind::Ident && s == "test");
        if !is_cfg_test {
            k = end;
            continue;
        }
        // Skip any further attributes.
        let mut j = end;
        while opens_attr(tokens, code, j, text) {
            j = attr_end(tokens, code, j, text);
        }
        // Bodiless item (`#[cfg(test)] use x;`) or brace-matched body.
        let mut depth = 0i64;
        let mut region_end = None;
        while let Some(t) = code.get(j).and_then(|&i| tokens.get(i)) {
            if depth == 0 && t.is_punct(text, ';') {
                region_end = Some(t.end);
                break;
            } else if t.is_punct(text, '{') {
                depth += 1;
            } else if t.is_punct(text, '}') {
                depth -= 1;
                if depth == 0 {
                    region_end = Some(t.end);
                    break;
                }
            }
            j += 1;
        }
        let end_at = region_end.unwrap_or(text.len());
        regions.push((start_at, end_at));
        k = j + 1;
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(text: &str) -> SourceFile {
        analyze(
            "crates/x/src/lib.rs".into(),
            text.into(),
            policy_for("crates/x/src/lib.rs"),
        )
    }

    #[test]
    fn comments_and_strings_never_reach_code_tokens() {
        let f = file("let a = \"HashMap\"; // HashMap here\nlet b = 'h'; /* HashMap */\n");
        let idents: Vec<&str> = f
            .code
            .iter()
            .filter(|&&i| f.tokens[i].kind == TokenKind::Ident)
            .map(|&i| f.tok_text(i))
            .collect();
        assert_eq!(idents, ["let", "a", "let", "b"]);
    }

    #[test]
    fn cfg_test_region_found() {
        let src =
            "fn real() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = file(src);
        let unwrap_at = src.find("unwrap").expect("present");
        assert!(f.in_test_region(unwrap_at));
        let after_at = src.find("after").expect("present");
        assert!(!f.in_test_region(after_at));
    }

    #[test]
    fn bodiless_cfg_test_items_end_at_the_semicolon() {
        let src = "#[cfg(test)]\nuse helpers::x;\nfn real() { y.unwrap(); }\n";
        let f = file(src);
        assert!(f.in_test_region(src.find("helpers").expect("present")));
        assert!(!f.in_test_region(src.find("y.unwrap").expect("present")));
    }

    #[test]
    fn cfg_test_attr_inside_raw_string_is_ignored() {
        let src = "let s = r#\"#[cfg(test)] mod fake {\"#;\nfn real() {}\n";
        let f = file(src);
        assert!(f.test_regions.is_empty());
    }

    #[test]
    fn allow_markers_require_reasons() {
        let f = file("a(); // xtask-allow: float-eq -- exactness is intended\n\nb(); // xtask-allow: float-eq\n");
        // With a reason: applies to its line and the next.
        assert!(f.is_allowed(1, "float-eq"));
        assert!(f.is_allowed(2, "float-eq"));
        // Without a reason: not registered at all.
        assert!(!f.is_allowed(3, "float-eq"));
        assert_eq!(f.allows.len(), 1);
    }

    #[test]
    fn allow_markers_reach_through_attribute_blocks() {
        let src = "\
// xtask-allow: missing-finite-guard -- delegates to a guarded callee
#[inline]
#[must_use]
pub fn f() -> f64 { g() }
";
        let f = file(src);
        // The item sits on line 4; the marker on line 1, above two
        // attribute lines.
        assert!(f.is_allowed(4, "missing-finite-guard"));
        assert!(!f.is_allowed(4, "float-eq"));
    }

    #[test]
    fn allow_markers_do_not_leak_past_non_attribute_lines() {
        let src = "\
// xtask-allow: float-eq -- reason here
let a = 1;
pub fn f() -> f64 { g() }
";
        let f = file(src);
        assert!(f.is_allowed(2, "float-eq"));
        assert!(!f.is_allowed(3, "float-eq"));
    }

    #[test]
    fn allow_usage_is_tracked() {
        let f = file("a(); // xtask-allow: float-eq -- exactness is intended\n");
        assert!(!f.allows[0].used.get());
        assert!(f.is_allowed(1, "float-eq"));
        assert!(f.allows[0].used.get());
    }

    #[test]
    fn policies_by_path() {
        assert!(policy_for("crates/core/src/controller.rs").determinism);
        assert!(policy_for("crates/bench/src/harness.rs").nan_and_index_rules);
        assert!(!policy_for("crates/apps/tests/app_properties.rs").nan_and_index_rules);
        assert!(!policy_for("examples/quickstart.rs").determinism);
    }

    #[test]
    fn crate_idents_cover_the_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let map = crate_idents(&root);
        assert_eq!(
            map.get("prepare_markov").map(String::as_str),
            Some("crates/markov")
        );
        assert_eq!(
            map.get("prepare_metrics").map(String::as_str),
            Some("crates/metrics")
        );
        assert_eq!(map.get("rand").map(String::as_str), Some("shims/rand"));
        assert_eq!(map.get("prepare_repro").map(String::as_str), Some(""));
    }
}
