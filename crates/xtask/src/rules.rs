//! The lint rules: determinism hazards, NaN safety, indexing in loops
//! and hot-path purity. (Every other panic site is clippy's: see
//! `[workspace.lints.clippy]` in the root `Cargo.toml`; host clocks,
//! thread ids and address reads are the root `clippy.toml`'s.)
//!
//! Every detector walks the real token stream ([`crate::lexer`]), so
//! comments and literal bodies can never produce findings. Detectors
//! skip `#[cfg(test)]` regions and honour `// xtask-allow: <rule> --
//! <reason>` markers; a marker no detector consumes is itself a finding
//! (`unused-allow`). The hot-path rule is transitive: it follows the
//! workspace call graph from every function a `// xtask: hot-path`
//! comment arms. Every comment that starts with `xtask:` must be that
//! live marker ([`items::parse_marker`]); anything else is an
//! `orphan-marker` finding.

use crate::callgraph::{self, Graph};
use crate::items::{self, FileItems, FnItem};
use crate::lexer::{comment_body, num_is_float, TokenKind};
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Finding categories, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Nondeterminism that would de-reproduce seeded experiments.
    Determinism,
    /// NaN/∞ escape hatches in probability code: unguarded logs and
    /// divisions, truncating casts, unguarded public float returns.
    /// Zero tolerance.
    NanSafety,
    /// Direct indexing inside a loop in library code: the one panic site
    /// clippy's denied restriction lints do not cover.
    Indexing,
    /// Allocation reachable from a hot-path-marked function: the marked kernels are the per-tick prediction
    /// budget and everything they call must stay allocation-free.
    HotPath,
    /// Lint hygiene: allow markers that suppress nothing, and `xtask:`
    /// markers that are unknown, malformed or consumed by nothing.
    Hygiene,
    /// Drift between the artifacts and the code: DESIGN.md's experiment
    /// index versus the crates.
    Fidelity,
    /// Blind spots in the controller-event audit trail: an event variant
    /// no registered temporal property references, or a wildcard match
    /// arm that would silently swallow future variants in checker code.
    EventCoverage,
}

impl Category {
    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Category::Determinism => "determinism",
            Category::NanSafety => "nan-safety",
            Category::Indexing => "indexing",
            Category::HotPath => "hot-path",
            Category::Hygiene => "hygiene",
            Category::Fidelity => "fidelity",
            Category::EventCoverage => "event-coverage",
        }
    }
}

/// One lint hit.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Category the rule belongs to.
    pub category: Category,
    /// Stable rule name (used by allow markers).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// Every rule this module can emit, for per-rule reporting.
pub const ALL_RULES: &[(&str, Category)] = &[
    ("float-eq", Category::Determinism),
    ("nan-unsafe-sort", Category::Determinism),
    ("unguarded-log", Category::NanSafety),
    ("truncating-cast", Category::NanSafety),
    ("unguarded-div", Category::NanSafety),
    ("missing-finite-guard", Category::NanSafety),
    ("index-in-loop", Category::Indexing),
    ("hot-path-alloc", Category::HotPath),
    ("unused-allow", Category::Hygiene),
    ("orphan-marker", Category::Hygiene),
    ("event-coverage", Category::EventCoverage),
    ("event-wildcard", Category::EventCoverage),
];

/// Identifiers whose presence in a function body counts as a finiteness
/// guard for the NaN-safety rules: the `debug_assert_finite!` family
/// from `prepare-metrics`, the markov/tan invariant audits
/// (`debug_assert_normalized`, `debug_assert_row_stochastic`), plus
/// explicit `is_finite`/`is_nan` checks.
const GUARD_IDENTS: &[&str] = &[
    "debug_assert_finite",
    "debug_assert_all_finite",
    "debug_assert_normalized",
    "debug_assert_row_stochastic",
    "is_finite",
    "is_nan",
];

/// Probability-path crates where `unguarded-div` and
/// `missing-finite-guard` apply: a NaN minted here flows straight into
/// predictions and anomaly scores.
fn prob_crate(rel: &str) -> bool {
    rel.starts_with("crates/markov/")
        || rel.starts_with("crates/tan/")
        || rel.starts_with("crates/anomaly/")
}

/// Library crates where `unguarded-log` and `truncating-cast` apply
/// (everything under `crates/` except the timing harness and the lint
/// itself has float math feeding results).
fn nan_rules_apply(rel: &str) -> bool {
    rel.starts_with("crates/") && !rel.starts_with("crates/bench/")
}

/// Runs every detector over the workspace: per-file rules, then the
/// whole-graph transitive hot-path rule, then unused-allow hygiene.
/// `crate_map` maps crate identifiers to directory prefixes
/// ([`crate::scan::crate_idents`]).
pub fn check_workspace(files: &[SourceFile], crate_map: &BTreeMap<String, String>) -> Vec<Finding> {
    let parsed: Vec<FileItems> = files.iter().map(items::parse_file).collect();
    let mut findings = Vec::new();
    for (f, it) in files.iter().zip(&parsed) {
        check_file(f, it, &mut findings);
    }
    let graph = callgraph::build(files, &parsed, crate_map);
    transitive_hot_path(files, &parsed, &graph, &mut findings);
    for f in files {
        if event_match_scope(&f.rel_path) {
            event_wildcard(f, &mut findings);
        }
    }
    event_coverage(files, &mut findings);
    unused_allows(files, &mut findings);
    malformed_markers(files, &mut findings);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings
}

fn check_file(f: &SourceFile, it: &FileItems, findings: &mut Vec<Finding>) {
    if f.policy.determinism {
        float_eq(f, findings);
        nan_unsafe_sort(f, findings);
    }
    if f.policy.nan_and_index_rules {
        index_in_loop(f, findings);
        if nan_rules_apply(&f.rel_path) {
            unguarded_log(f, it, findings);
            truncating_cast(f, it, findings);
        }
        if prob_crate(&f.rel_path) {
            unguarded_div(f, it, findings);
            missing_finite_guard(f, it, findings);
        }
    }
}

/// Records a finding anchored at code position `k`, unless it sits in a
/// test region or an allow marker covers it. Consulting the marker also
/// marks it used.
fn push(
    f: &SourceFile,
    findings: &mut Vec<Finding>,
    k: usize,
    category: Category,
    rule: &'static str,
    message: String,
) {
    let Some(t) = f.ctok(k) else {
        return;
    };
    if f.in_test_region(t.start) {
        return;
    }
    if f.is_allowed(t.line, rule) {
        return;
    }
    findings.push(Finding {
        file: f.rel_path.clone(),
        line: t.line,
        category,
        rule,
        message,
    });
}

/// Code position of the punct matching `open_c` at position `open`
/// (depth-matched over `open_c`/`close_c`); `code.len()` if unmatched.
fn matching(f: &SourceFile, open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    loop {
        if f.ctok(j).is_none() {
            return j;
        }
        if f.cpunct(j, open_c) {
            depth += 1;
        } else if f.cpunct(j, close_c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
}

/// Code position of the `(` matching the `)` at `close`, scanning
/// backwards; `None` if unmatched.
fn matching_back(f: &SourceFile, close: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut j = close;
    loop {
        if f.cpunct(j, ')') {
            depth += 1;
        } else if f.cpunct(j, '(') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j = j.checked_sub(1)?;
    }
}

/// True when the function enclosing code position `pos` contains a
/// finiteness guard.
fn enclosing_guarded(f: &SourceFile, it: &FileItems, pos: usize) -> bool {
    it.enclosing_fn(pos)
        .and_then(|i| it.fns.get(i))
        .is_some_and(|item| fn_guarded(f, item))
}

/// True when the function's body mentions any [`GUARD_IDENTS`] name.
fn fn_guarded(f: &SourceFile, item: &FnItem) -> bool {
    let Some((open, close)) = item.body else {
        return false;
    };
    (open..=close).any(|k| f.cident(k).is_some_and(|w| GUARD_IDENTS.contains(&w)))
}

/// `==`/`!=` against a float literal: exact float comparison is almost
/// never the intent in metric code and breaks under recomputation noise.
fn float_eq(f: &SourceFile, findings: &mut Vec<Finding>) {
    let mut k = 0usize;
    while f.ctok(k).is_some() {
        if !(f.cpair(k, '=', '=') || f.cpair(k, '!', '=')) {
            k += 1;
            continue;
        }
        let lhs_float = k
            .checked_sub(1)
            .is_some_and(|p| f.ckind(p) == Some(TokenKind::Num) && num_is_float(f.ctext(p)));
        let mut m = k + 2;
        if f.cpunct(m, '-') {
            m += 1;
        }
        let rhs_float = f.ckind(m) == Some(TokenKind::Num) && num_is_float(f.ctext(m));
        if lhs_float || rhs_float {
            push(
                f,
                findings,
                k,
                Category::Determinism,
                "float-eq",
                "exact equality against a float literal; compare with a tolerance or restructure"
                    .into(),
            );
        }
        k += 2;
    }
}

/// `partial_cmp(..).unwrap()/expect(..)` — panics on NaN and silently
/// depends on NaN never reaching the comparator. `total_cmp` is the
/// deterministic, panic-free replacement.
fn nan_unsafe_sort(f: &SourceFile, findings: &mut Vec<Finding>) {
    for k in 0..f.code.len() {
        if f.cident(k) != Some("partial_cmp") || !f.cpunct(k + 1, '(') {
            continue;
        }
        let close = matching(f, k + 1, '(', ')');
        if f.cpunct(close + 1, '.') && matches!(f.cident(close + 2), Some("unwrap" | "expect")) {
            push(
                f,
                findings,
                k,
                Category::Determinism,
                "nan-unsafe-sort",
                "partial_cmp().unwrap() is NaN-unsafe; use f64::total_cmp".into(),
            );
        }
    }
}

/// True when the tokens after a `for` keyword read as a loop header
/// (`for pat in iter {`) rather than a trait impl or HRTB: an `in` word
/// must appear before the opening brace or a semicolon.
fn for_header_is_loop(f: &SourceFile, from: usize) -> bool {
    let mut j = from;
    while f.ctok(j).is_some() {
        if f.cpunct(j, '{') || f.cpunct(j, ';') {
            return false;
        }
        if f.cident(j) == Some("in") {
            return true;
        }
        j += 1;
    }
    false
}

/// Direct, non-literal indexing inside a loop body: a hot-path panic
/// risk (and bounds-check cost) the paper's control loop cannot afford.
/// `get`/iterators are the replacements.
fn index_in_loop(f: &SourceFile, findings: &mut Vec<Finding>) {
    let mut stack: Vec<bool> = Vec::new();
    let mut loop_depth = 0usize;
    let mut pending = false;
    let mut k = 0usize;
    while f.ctok(k).is_some() {
        if let Some(w) = f.cident(k) {
            // `for` also introduces trait impls (`impl T for U {`) and
            // HRTBs; only a `for … in …` header is a loop.
            if matches!(w, "while" | "loop") || (w == "for" && for_header_is_loop(f, k + 1)) {
                pending = true;
            }
            k += 1;
            continue;
        }
        if f.cpunct(k, '{') {
            stack.push(pending);
            if pending {
                loop_depth += 1;
            }
            pending = false;
        } else if f.cpunct(k, '}') {
            if stack.pop() == Some(true) {
                loop_depth = loop_depth.saturating_sub(1);
            }
        } else if f.cpunct(k, ';') {
            pending = false;
        } else if f.cpunct(k, '[') && loop_depth > 0 {
            // Indexing only: the `[` must follow a value expression. A
            // keyword there (`for x in [..]`, `return [..]`) means an
            // array literal instead.
            let is_indexing = k.checked_sub(1).is_some_and(|p| {
                if f.cpunct(p, ')') || f.cpunct(p, ']') {
                    return true;
                }
                // Tuple-field receivers index too: `rows.1[i]`.
                if f.ckind(p) == Some(TokenKind::Num)
                    && p.checked_sub(1).is_some_and(|q| f.cpunct(q, '.'))
                {
                    return true;
                }
                f.cident(p).is_some_and(|w| {
                    !matches!(
                        w,
                        "in" | "return" | "break" | "if" | "else" | "match" | "move"
                    )
                })
            });
            if is_indexing {
                let close = matching(f, k, '[', ']');
                let inner_len = close.saturating_sub(k + 1);
                let literal_index = inner_len == 1
                    && f.ckind(k + 1) == Some(TokenKind::Num)
                    && f.ctext(k + 1)
                        .bytes()
                        .all(|b| b.is_ascii_digit() || b == b'_');
                let range_slice = (k + 1..close).any(|j| f.cpair(j, '.', '.'));
                if !literal_index && !range_slice && inner_len > 0 {
                    let inner = match (f.ctok(k + 1), f.ctok(close.saturating_sub(1))) {
                        (Some(a), Some(b)) => f.text.get(a.start..b.end).unwrap_or("").to_string(),
                        _ => String::new(),
                    };
                    push(
                        f,
                        findings,
                        k,
                        Category::Indexing,
                        "index-in-loop",
                        format!(
                            "`[{inner}]` indexing inside a loop can panic; prefer get()/iterators"
                        ),
                    );
                }
                k = close + 1;
                continue;
            }
        }
        k += 1;
    }
}

/// `.ln()`/`.log2()`/`.log10()` in a function without a finiteness
/// guard: zero or negative input mints `-inf`/NaN that flows silently
/// into downstream scores.
fn unguarded_log(f: &SourceFile, it: &FileItems, findings: &mut Vec<Finding>) {
    for k in 0..f.code.len() {
        let Some(w @ ("ln" | "log2" | "log10")) = f.cident(k) else {
            continue;
        };
        if !k.checked_sub(1).is_some_and(|p| f.cpunct(p, '.')) || !f.cpunct(k + 1, '(') {
            continue;
        }
        if enclosing_guarded(f, it, k) {
            continue;
        }
        push(
            f,
            findings,
            k,
            Category::NanSafety,
            "unguarded-log",
            format!(
                "`.{w}()` mints -inf/NaN on non-positive input and the enclosing function has \
                 no finiteness guard; pass the result through debug_assert_finite!"
            ),
        );
    }
}

/// Integer type names an `as` cast can truncate a float into.
const INT_TARGETS: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];

/// Float-returning methods whose result feeds casts (`.round() as usize`).
const FLOAT_RESULT_METHODS: &[&str] = &[
    "round", "floor", "ceil", "trunc", "sqrt", "exp", "powf", "ln", "log2", "log10",
];

/// `<float> as usize`-style casts without a guard: NaN silently becomes
/// 0 and ±inf saturates, so one bad upstream value corrupts bins and
/// indices without a trace.
fn truncating_cast(f: &SourceFile, it: &FileItems, findings: &mut Vec<Finding>) {
    for k in 0..f.code.len() {
        if f.cident(k) != Some("as") {
            continue;
        }
        let Some(target) = f.cident(k + 1).filter(|t| INT_TARGETS.contains(t)) else {
            continue;
        };
        let Some(p) = k.checked_sub(1) else {
            continue;
        };
        // Only provably-float sources: a float literal, or a call chain
        // ending in a float-returning method (`x.round() as usize`).
        let provable = (f.ckind(p) == Some(TokenKind::Num) && num_is_float(f.ctext(p)))
            || (f.cpunct(p, ')')
                && matching_back(f, p).is_some_and(|open| {
                    open >= 2
                        && f.cpunct(open - 2, '.')
                        && f.cident(open - 1)
                            .is_some_and(|m| FLOAT_RESULT_METHODS.contains(&m))
                }));
        if !provable || enclosing_guarded(f, it, k) {
            continue;
        }
        push(
            f,
            findings,
            k,
            Category::NanSafety,
            "truncating-cast",
            format!(
                "float `as {target}` truncates silently (NaN becomes 0) and the enclosing \
                 function has no finiteness guard; debug_assert_finite! the value first"
            ),
        );
    }
}

/// Float division in probability-path crates without a finiteness guard:
/// the classic normalization bug — a zero row sum divides to NaN and
/// every probability downstream is poisoned.
fn unguarded_div(f: &SourceFile, it: &FileItems, findings: &mut Vec<Finding>) {
    // Per-function float evidence, computed once.
    let meta: Vec<(bool, BTreeSet<String>)> = it
        .fns
        .iter()
        .map(|item| (fn_guarded(f, item), float_vars(f, item)))
        .collect();
    let empty = BTreeSet::new();
    let mut k = 0usize;
    while f.ctok(k).is_some() {
        if !f.cpunct(k, '/') {
            k += 1;
            continue;
        }
        let div_at = k;
        let mut rhs = if f.cpair(k, '/', '=') { k + 2 } else { k + 1 };
        while f.cpunct(rhs, '(') || f.cpunct(rhs, '-') || f.cpunct(rhs, '&') {
            rhs += 1;
        }
        let (guarded, vars) = it
            .enclosing_fn(div_at)
            .and_then(|i| meta.get(i))
            .map(|(g, v)| (*g, v))
            .unwrap_or((false, &empty));
        let is_float_operand = |pos: usize| {
            (f.ckind(pos) == Some(TokenKind::Num) && num_is_float(f.ctext(pos)))
                || matches!(f.cident(pos), Some("f64" | "f32"))
                || f.cident(pos).is_some_and(|w| vars.contains(w))
        };
        // `x / count as f64` — the cast floats the division itself.
        let rhs_cast =
            f.cident(rhs + 1) == Some("as") && matches!(f.cident(rhs + 2), Some("f64" | "f32"));
        let evidenced =
            k.checked_sub(1).is_some_and(&is_float_operand) || is_float_operand(rhs) || rhs_cast;
        if evidenced && !guarded {
            push(
                f,
                findings,
                div_at,
                Category::NanSafety,
                "unguarded-div",
                "float division in a probability path without a finiteness guard; a zero \
                 denominator mints inf/NaN — debug_assert_finite! the result"
                    .into(),
            );
        }
        k = rhs.max(k + 1);
    }
}

/// Names with float evidence inside one function: `f64`/`f32`-typed
/// params, and `let` bindings whose initializer mentions a float type or
/// literal.
fn float_vars(f: &SourceFile, item: &FnItem) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for p in &item.params {
        if p.ty.contains("f64") || p.ty.contains("f32") {
            out.insert(p.name.clone());
        }
    }
    let Some((open, close)) = item.body else {
        return out;
    };
    let mut k = open + 1;
    while k < close {
        if f.cident(k) != Some("let") {
            k += 1;
            continue;
        }
        let mut n = k + 1;
        if f.cident(n) == Some("mut") {
            n += 1;
        }
        let Some(name) = f.cident(n) else {
            k += 1;
            continue;
        };
        let mut j = n + 1;
        let mut floaty = false;
        while j < close && !f.cpunct(j, ';') {
            if matches!(f.cident(j), Some("f64" | "f32"))
                || (f.ckind(j) == Some(TokenKind::Num) && num_is_float(f.ctext(j)))
            {
                floaty = true;
            }
            j += 1;
        }
        if floaty {
            out.insert(name.to_string());
        }
        k = j;
    }
    out
}

/// Public functions in probability-path crates returning `f64` or a
/// `Distribution` must pass their result through a finiteness guard
/// before it escapes the crate boundary.
fn missing_finite_guard(f: &SourceFile, it: &FileItems, findings: &mut Vec<Finding>) {
    for item in &it.fns {
        if !item.is_pub || item.in_test || item.body.is_none() {
            continue;
        }
        let ret = if item.ret.contains("Self") {
            item.self_ty.clone().unwrap_or_else(|| item.ret.clone())
        } else {
            item.ret.clone()
        };
        if !(ret == "f64" || ret.contains("Distribution")) {
            continue;
        }
        if fn_guarded(f, item) {
            continue;
        }
        push(
            f,
            findings,
            item.fn_pos,
            Category::NanSafety,
            "missing-finite-guard",
            format!(
                "pub fn `{}` returns `{ret}` without a finiteness guard; wrap the result in \
                 debug_assert_finite! (zero release cost) or justify with an allow",
                item.name
            ),
        );
    }
}

/// Allocation call sites inside a body's code positions.
fn alloc_sites(f: &SourceFile, open: usize, close: usize) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    let mut k = open + 1;
    while k < close {
        let Some(w) = f.cident(k) else {
            k += 1;
            continue;
        };
        let prev_dot = k.checked_sub(1).is_some_and(|p| f.cpunct(p, '.'));
        match w {
            "clone" if prev_dot && f.cpunct(k + 1, '(') => out.push((k, ".clone()")),
            "to_vec" if prev_dot && f.cpunct(k + 1, '(') => out.push((k, ".to_vec()")),
            "to_owned" if prev_dot && f.cpunct(k + 1, '(') => out.push((k, ".to_owned()")),
            "vec" if f.cpunct(k + 1, '!') => out.push((k, "vec![")),
            "format" if f.cpunct(k + 1, '!') => out.push((k, "format!")),
            "Box"
                if f.cpair(k + 1, ':', ':')
                    && f.cident(k + 3) == Some("new")
                    && f.cpunct(k + 4, '(') =>
            {
                out.push((k, "Box::new"))
            }
            _ => {}
        }
        k += 1;
    }
    out
}

/// The transitive hot-path rule: from every function armed by a
/// `// xtask: hot-path` comment, walk the workspace call graph and flag
/// any allocation in any reachable body, reporting the call chain that
/// reaches it. Each allocation site is reported once even when several
/// roots reach it.
fn transitive_hot_path(
    files: &[SourceFile],
    parsed: &[FileItems],
    graph: &Graph,
    findings: &mut Vec<Finding>,
) {
    if !parsed.iter().any(|it| it.fns.iter().any(|x| x.hot)) {
        return;
    }
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for root in 0..graph.fns.len() {
        let is_hot = graph
            .fns
            .get(root)
            .and_then(|r| parsed.get(r.file).and_then(|it| it.fns.get(r.item)))
            .is_some_and(|x| x.hot);
        if !is_hot {
            continue;
        }
        for (id, chain) in graph.reachable_with_chains(root) {
            let Some(r) = graph.fns.get(id) else {
                continue;
            };
            let (Some(cf), Some(item)) = (
                files.get(r.file),
                parsed.get(r.file).and_then(|it| it.fns.get(r.item)),
            ) else {
                continue;
            };
            let Some((open, close)) = item.body else {
                continue;
            };
            let sites = alloc_sites(cf, open, close);
            if sites.is_empty() {
                continue;
            }
            let route: Vec<String> = chain
                .iter()
                .filter_map(|&cid| fn_label(graph, parsed, cid))
                .collect();
            let route = route.join(" -> ");
            for (pos, what) in sites {
                if !seen.insert((r.file, pos)) {
                    continue;
                }
                push(
                    cf,
                    findings,
                    pos,
                    Category::HotPath,
                    "hot-path-alloc",
                    format!("`{what}` allocates on the hot path: {route}"),
                );
            }
        }
    }
}

/// `Type::name` / `name` label for a graph node.
fn fn_label(graph: &Graph, parsed: &[FileItems], id: usize) -> Option<String> {
    let r = graph.fns.get(id)?;
    let item = parsed.get(r.file)?.fns.get(r.item)?;
    Some(match &item.self_ty {
        Some(t) => format!("{t}::{}", item.name),
        None => item.name.clone(),
    })
}

/// Checker/analysis files where `match`es over the controller event
/// stream must stay exhaustive: the temporal checker crate plus the core
/// event and trace-analysis modules. A `_` arm there would silently
/// swallow any variant added later, which is exactly the blind spot the
/// event-coverage family exists to prevent.
fn event_match_scope(rel: &str) -> bool {
    (rel.starts_with("crates/tlc/") && !rel.contains("/tests/"))
        || rel == "crates/core/src/events.rs"
        || rel == "crates/core/src/analysis.rs"
}

/// `_ =>` arms inside a `match` whose body handles `ControllerEvent`
/// variants, in checker/analysis code. Each wildcard is attributed to
/// its *innermost* enclosing match, so matches over other enums nested
/// near event handling stay legal.
fn event_wildcard(f: &SourceFile, findings: &mut Vec<Finding>) {
    // Body spans of every `match` expression: the first `{` after the
    // `match` keyword outside parens/brackets opens the arm block
    // (struct literals cannot appear bare in a scrutinee).
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for k in 0..f.code.len() {
        if f.cident(k) != Some("match") {
            continue;
        }
        let mut par = 0i64;
        let mut brk = 0i64;
        let mut j = k + 1;
        let open = loop {
            if f.ctok(j).is_none() {
                break None;
            }
            if f.cpunct(j, '(') {
                par += 1;
            } else if f.cpunct(j, ')') {
                par -= 1;
            } else if f.cpunct(j, '[') {
                brk += 1;
            } else if f.cpunct(j, ']') {
                brk -= 1;
            } else if f.cpunct(j, '{') && par == 0 && brk == 0 {
                break Some(j);
            }
            j += 1;
        };
        let Some(open) = open else {
            continue;
        };
        spans.push((open, matching(f, open, '{', '}')));
    }
    for k in 0..f.code.len() {
        if f.cident(k) != Some("_") || !f.cpair(k + 1, '=', '>') {
            continue;
        }
        // Innermost enclosing match body = the smallest span around `k`.
        let enclosing = spans
            .iter()
            .filter(|&&(open, close)| open < k && k < close)
            .min_by_key(|&&(open, close)| close - open);
        let Some(&(open, close)) = enclosing else {
            continue;
        };
        if !(open..=close).any(|p| f.cident(p) == Some("ControllerEvent")) {
            continue;
        }
        push(
            f,
            findings,
            k,
            Category::EventCoverage,
            "event-wildcard",
            "`_` arm in a match over ControllerEvent: checker code must name every \
             variant so new events cannot bypass the property catalogue"
                .into(),
        );
    }
}

/// Variant names (with token positions) of an enum body spanning
/// `open..close`: identifiers at nesting depth zero that start an arm,
/// skipping attribute groups and variant payloads.
fn enum_variants(f: &SourceFile, open: usize, close: usize) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut brace = 0i64;
    let mut par = 0i64;
    let mut brk = 0i64;
    let mut expect_variant = true;
    for k in open + 1..close {
        if f.cpunct(k, '{') {
            brace += 1;
        } else if f.cpunct(k, '}') {
            brace -= 1;
        } else if f.cpunct(k, '(') {
            par += 1;
        } else if f.cpunct(k, ')') {
            par -= 1;
        } else if f.cpunct(k, '[') {
            brk += 1;
        } else if f.cpunct(k, ']') {
            brk -= 1;
        } else if brace == 0 && par == 0 && brk == 0 {
            if f.cpunct(k, ',') {
                expect_variant = true;
            } else if expect_variant {
                if let Some(name) = f.cident(k) {
                    out.push((name.to_string(), k));
                    expect_variant = false;
                }
            }
        }
    }
    out
}

/// Every `ControllerEvent` variant must be referenced by the temporal
/// property library: an event nobody checks is an audit-trail blind
/// spot. References are `ControllerEvent::Variant` token paths in
/// non-test code of the checker crate.
fn event_coverage(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let mut def: Option<(usize, Vec<(String, usize)>)> = None;
    for (fi, f) in files.iter().enumerate() {
        for k in 0..f.code.len() {
            if f.cident(k) == Some("enum")
                && f.cident(k + 1) == Some("ControllerEvent")
                && f.cpunct(k + 2, '{')
            {
                let close = matching(f, k + 2, '{', '}');
                def = Some((fi, enum_variants(f, k + 2, close)));
            }
        }
    }
    let Some((fi, variants)) = def else {
        return;
    };
    let Some(events_file) = files.get(fi) else {
        return;
    };
    let mut referenced: BTreeSet<String> = BTreeSet::new();
    for f in files {
        if !f.rel_path.starts_with("crates/tlc/") || f.rel_path.contains("/tests/") {
            continue;
        }
        for k in 0..f.code.len() {
            if f.cident(k) != Some("ControllerEvent") || !f.cpair(k + 1, ':', ':') {
                continue;
            }
            let Some(name) = f.cident(k + 3) else {
                continue;
            };
            if f.ctok(k).is_some_and(|t| f.in_test_region(t.start)) {
                continue;
            }
            referenced.insert(name.to_string());
        }
    }
    for (name, pos) in variants {
        if referenced.contains(&name) {
            continue;
        }
        push(
            events_file,
            findings,
            pos,
            Category::EventCoverage,
            "event-coverage",
            format!(
                "`ControllerEvent::{name}` is not referenced by any registered temporal \
                 property; extend the prepare-tlc catalogue before shipping the event"
            ),
        );
    }
}

/// Every allow marker no detector consumed is itself a finding: stale
/// suppressions hide future regressions.
fn unused_allows(files: &[SourceFile], findings: &mut Vec<Finding>) {
    for f in files {
        for a in &f.allows {
            if a.used.get() {
                continue;
            }
            findings.push(Finding {
                file: f.rel_path.clone(),
                line: a.line,
                category: Category::Hygiene,
                rule: "unused-allow",
                message: format!(
                    "`xtask-allow: {}` suppresses nothing; delete the stale marker",
                    a.rule
                ),
            });
        }
    }
}

/// Every comment that starts with `xtask:` but is no live marker — a
/// typo, a retired marker or a stray argument — is an `orphan-marker`
/// finding: it would otherwise arm nothing, silently.
fn malformed_markers(files: &[SourceFile], findings: &mut Vec<Finding>) {
    for f in files {
        for t in f.tokens.iter().filter(|t| t.kind.is_trivia()) {
            let body = comment_body(t.text(&f.text));
            if let Some(Err(why)) = items::parse_marker(body) {
                findings.push(Finding {
                    file: f.rel_path.clone(),
                    line: t.line,
                    category: Category::Hygiene,
                    rule: "orphan-marker",
                    message: format!("`// {}` {why}; fix or delete it", body.trim_end()),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{analyze_for_tests, policy_for};

    fn workspace_findings(sources: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, src)| analyze_for_tests((*rel).into(), (*src).into(), policy_for(rel)))
            .collect();
        let mut crate_map = BTreeMap::new();
        crate_map.insert("prepare_markov".to_string(), "crates/markov".to_string());
        crate_map.insert("prepare_tan".to_string(), "crates/tan".to_string());
        check_workspace(&files, &crate_map)
    }

    /// Findings for one neutral-policy library file (`crates/x` is not a
    /// probability crate, so the NaN rules stay quiet here).
    fn rules_of(text: &str) -> Vec<&'static str> {
        workspace_findings(&[("crates/x/src/lib.rs", text)])
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    /// Findings for a probability-crate file (all rules active).
    fn markov_rules_of(text: &str) -> Vec<&'static str> {
        workspace_findings(&[("crates/markov/src/lib.rs", text)])
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn detects_float_eq_only_on_literals() {
        assert_eq!(rules_of("if x == 0.0 { }\n"), ["float-eq"]);
        assert_eq!(rules_of("if 1e-9 != y { }\n"), ["float-eq"]);
        assert_eq!(rules_of("if x == -0.5 { }\n"), ["float-eq"]);
        assert!(rules_of("if x == y { }\n").is_empty());
        assert!(rules_of("if n == 0 { }\n").is_empty());
        assert!(rules_of("let ok = a <= 0.5;\n").is_empty());
        // Float spelled inside a string or comment is not an operand.
        assert!(rules_of("let s = \"x == 0.0\"; // y == 1.5\n").is_empty());
    }

    #[test]
    fn detects_nan_unsafe_sorts() {
        assert_eq!(
            rules_of("v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n"),
            ["nan-unsafe-sort"]
        );
        assert_eq!(
            rules_of("v.sort_by(|a, b| a.partial_cmp(b).expect(\"finite\"));\n"),
            ["nan-unsafe-sort"]
        );
        assert!(rules_of("v.sort_by(|a, b| a.total_cmp(b));\n").is_empty());
        assert!(rules_of("if a.partial_cmp(b) == Some(Ordering::Less) { }\n").is_empty());
    }

    #[test]
    fn allows_suppress_with_reason() {
        let src = "if x == 0.0 { } // xtask-allow: float-eq -- exact zero is the sentinel\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn detects_variable_indexing_in_loops() {
        assert_eq!(
            rules_of("fn f() { for i in 0..n { let x = v[i]; } }\n"),
            ["index-in-loop"]
        );
        assert!(rules_of("fn f() { for i in 0..n { let x = v[0]; } }\n").is_empty());
        assert!(rules_of("fn f() { let x = v[i]; }\n").is_empty());
        assert!(rules_of("fn f() { for i in 0..n { let x = &v[1..j]; } }\n").is_empty());
        assert!(rules_of("fn f() { for x in v.iter() { g(x); } }\n").is_empty());
    }

    #[test]
    fn array_literals_in_loop_headers_are_not_indexing() {
        assert!(rules_of("fn f() { for (a, b) in [(x, y), (z, w)] { g(a, b); } }\n").is_empty());
        assert!(rules_of("fn f() { loop { if c { return [a, b]; } } }\n").is_empty());
        assert_eq!(
            rules_of("fn f() { for (a, b) in [(x, y)] { g(pairs[a]); } }\n"),
            ["index-in-loop"]
        );
    }

    #[test]
    fn hot_path_marker_flags_allocations() {
        let src = "// xtask: hot-path\nfn f(v: &[f64]) { let c = v.to_vec(); let d = c.clone(); let e = vec![0.0; 4]; }\n";
        assert_eq!(
            rules_of(src),
            ["hot-path-alloc", "hot-path-alloc", "hot-path-alloc"]
        );
    }

    #[test]
    fn unmarked_functions_may_allocate() {
        assert!(rules_of("fn f(v: &[f64]) -> Vec<f64> { v.to_vec() }\n").is_empty());
    }

    #[test]
    fn hot_path_marker_scopes_to_the_next_function_only() {
        let src = "// xtask: hot-path\nfn hot(out: &mut [f64]) { out.fill(0.0); }\nfn cold() -> Vec<f64> { vec![0.0] }\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn hot_path_allocation_free_bodies_pass() {
        let src = "// xtask: hot-path\nfn f(out: &mut [f64], v: &[f64]) { for (o, x) in out.iter_mut().zip(v) { *o += *x; } }\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn hot_path_alloc_respects_allow_markers() {
        let src = "// xtask: hot-path\nfn f() { let v = vec![0.0]; // xtask-allow: hot-path-alloc -- one-time setup\n}\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn marker_outside_a_comment_does_not_arm_the_rule() {
        let src = "const M: &str = \"xtask: hot-path\";\nfn f() -> Vec<f64> { vec![0.0] }\n";
        assert!(rules_of(src).is_empty());
    }

    /// The tentpole acceptance test: a seeded `.clone()` two calls below
    /// a marked kernel is caught, and the finding names the route.
    #[test]
    fn transitive_hot_path_catches_allocation_two_calls_deep() {
        let src = "\
// xtask: hot-path
fn kernel(out: &mut [f64]) { mid(out); }
fn mid(out: &mut [f64]) { leaf(out); }
fn leaf(out: &mut [f64]) -> Vec<f64> { out.to_vec() }
";
        let findings = workspace_findings(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(findings.len(), 1, "findings: {findings:?}");
        assert_eq!(findings[0].rule, "hot-path-alloc");
        assert_eq!(findings[0].line, 4);
        assert!(
            findings[0].message.contains("kernel -> mid -> leaf"),
            "route missing from: {}",
            findings[0].message
        );
    }

    #[test]
    fn transitive_hot_path_crosses_crates_through_use_aliases() {
        let markov = "pub fn helper(v: &[f64]) -> Vec<f64> { v.to_vec() }\n";
        let tan = "\
use prepare_markov::helper;
// xtask: hot-path
fn kernel(v: &[f64]) { helper(v); }
";
        let findings = workspace_findings(&[
            ("crates/markov/src/lib.rs", markov),
            ("crates/tan/src/lib.rs", tan),
        ]);
        let hot: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "hot-path-alloc")
            .collect();
        assert_eq!(hot.len(), 1, "findings: {findings:?}");
        assert_eq!(hot[0].file, "crates/markov/src/lib.rs");
        assert!(hot[0].message.contains("kernel -> helper"));
    }

    #[test]
    fn turbofish_with_an_arrow_keeps_the_call_site() {
        // The `->` inside `::<fn() -> u8>` must not close the turbofish,
        // or the call to `helper` is lost and its allocation goes unseen.
        let src = "\
// xtask: hot-path
fn kernel() { helper::<fn() -> u8>(); }
fn helper<T>() -> Vec<f64> { vec![0.0] }
";
        let findings = workspace_findings(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(findings.len(), 1, "findings: {findings:?}");
        assert_eq!(findings[0].rule, "hot-path-alloc");
        assert!(findings[0].message.contains("kernel -> helper"));
    }

    #[test]
    fn transitive_hot_path_tolerates_cycles() {
        let src = "\
// xtask: hot-path
fn a() { b(); }
fn b() { a(); c(); }
fn c() { let s = format!(\"x\"); }
";
        let findings = workspace_findings(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("a -> b -> c"));
    }

    #[test]
    fn unguarded_log_requires_a_guard_in_scope() {
        assert_eq!(
            markov_rules_of("fn f(x: f64) -> f64 { x.ln() }\n"),
            ["unguarded-log"]
        );
        assert!(
            markov_rules_of("fn f(x: f64) -> f64 { debug_assert_finite!(x.ln()) }\n").is_empty()
        );
        assert!(markov_rules_of(
            "fn f(x: f64) -> f64 { let y = x.ln(); debug_assert!(y.is_finite()); y }\n"
        )
        .is_empty());
        // Not a probability crate, but still a library crate: active.
        assert_eq!(
            workspace_findings(&[(
                "crates/metrics/src/lib.rs",
                "fn f(x: f64) -> f64 { x.ln() }\n"
            )])
            .iter()
            .map(|f| f.rule)
            .collect::<Vec<_>>(),
            ["unguarded-log"]
        );
    }

    #[test]
    fn truncating_cast_needs_float_evidence_and_guard() {
        assert_eq!(
            markov_rules_of("fn f(x: f64) -> usize { x.round() as usize }\n"),
            ["truncating-cast"]
        );
        assert!(markov_rules_of(
            "fn f(x: f64) -> usize { debug_assert_finite!(x); x.round() as usize }\n"
        )
        .is_empty());
        // Integer-to-integer casts carry no NaN risk.
        assert!(markov_rules_of("fn f(n: u32) -> usize { n as usize }\n").is_empty());
    }

    #[test]
    fn unguarded_div_fires_only_on_float_evidence() {
        assert_eq!(
            markov_rules_of("fn f(sum: f64, n: usize) -> f64 { sum / n as f64 }\n"),
            ["unguarded-div"]
        );
        assert!(markov_rules_of("fn halve(n: usize) -> usize { n / 2 }\n").is_empty());
        assert!(markov_rules_of(
            "fn f(sum: f64, n: usize) -> f64 { debug_assert_finite!(sum / n as f64) }\n"
        )
        .is_empty());
        // Outside probability crates the rule is quiet.
        assert!(rules_of("fn f(sum: f64, n: usize) -> f64 { sum / n as f64 }\n").is_empty());
    }

    #[test]
    fn missing_finite_guard_applies_to_public_float_api() {
        assert_eq!(
            markov_rules_of("pub fn score(&self) -> f64 { self.raw }\n"),
            ["missing-finite-guard"]
        );
        assert!(
            markov_rules_of("pub fn score(&self) -> f64 { debug_assert_finite!(self.raw) }\n")
                .is_empty()
        );
        // Non-public and non-float functions are out of scope.
        assert!(markov_rules_of("pub(crate) fn score(&self) -> f64 { self.raw }\n").is_empty());
        assert!(markov_rules_of("pub fn len(&self) -> usize { self.n }\n").is_empty());
    }

    #[test]
    fn unused_allow_markers_are_findings() {
        let src = "fn f() {} // xtask-allow: index-in-loop -- nothing here uses it\n";
        assert_eq!(rules_of(src), ["unused-allow"]);
        // A retired rule's allow suppresses nothing, even over its old site.
        let retired = "let t = Instant::now(); // xtask-allow: time-source -- r\n";
        assert_eq!(rules_of(retired), ["unused-allow"]);
        // A consumed marker is not reported.
        let used = "fn f() { for i in 0..n { g(v[i]); } } // xtask-allow: index-in-loop -- i < n\n";
        assert!(rules_of(used).is_empty());
    }

    /// Typos, retired markers (the taint engine's sink and sanitizer
    /// among them) and stray arguments are each an `orphan-marker`
    /// finding, and none of them arms anything.
    #[test]
    fn unknown_and_malformed_markers_are_orphans() {
        let src = "\
// xtask: hotpath
fn a() -> Vec<f64> { vec![0.0] }
// xtask: derive-boundary -- retired
fn b() {}
// xtask: taint-source nondet
fn c() {}
// xtask: taint-sink
fn d() {}
// xtask: taint-sanitize -- r
fn e() {}
struct S {
    x: usize, // xtask: hot-path -- stray reason
}
// xtask: hot-path
fn live() {}
";
        let rel = "crates/x/src/lib.rs";
        let got: Vec<(usize, &str)> = workspace_findings(&[(rel, src)])
            .iter()
            .map(|f| (f.line, f.rule))
            .collect();
        let orphan = "orphan-marker";
        assert_eq!(
            got,
            [
                (1, orphan),
                (3, orphan),
                (5, orphan),
                (7, orphan),
                (9, orphan),
                (12, orphan)
            ]
        );
        let it = items::parse_file(&analyze_for_tests(rel.into(), src.into(), policy_for(rel)));
        let armed: Vec<&str> = it
            .fns
            .iter()
            .filter(|x| x.hot)
            .map(|x| x.name.as_str())
            .collect();
        assert_eq!(armed, ["live"]);
    }

    #[test]
    fn findings_are_sorted_and_labeled() {
        let findings = workspace_findings(&[(
            "crates/x/src/lib.rs",
            "let b = x == 0.5;\nfn f() { for i in 0..n { g(v[i]); } }\n",
        )]);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [1, 2]);
        assert_eq!(findings[0].category.name(), "determinism");
        assert_eq!(findings[1].category.name(), "indexing");
    }

    #[test]
    fn event_coverage_flags_unreferenced_variants() {
        let events =
            "pub enum ControllerEvent {\n    Covered { at: u64 },\n    Orphan { at: u64 },\n}\n";
        let props = "pub fn p(e: &ControllerEvent) -> bool {\n    \
                     if let ControllerEvent::Covered { .. } = e { true } else { false }\n}\n";
        let findings = workspace_findings(&[
            ("crates/core/src/events.rs", events),
            ("crates/tlc/src/properties.rs", props),
        ]);
        let cov: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "event-coverage")
            .collect();
        assert_eq!(cov.len(), 1, "findings: {findings:?}");
        assert!(cov[0].message.contains("Orphan"));
        assert_eq!(cov[0].file, "crates/core/src/events.rs");
        assert_eq!(cov[0].line, 3);
    }

    #[test]
    fn event_coverage_ignores_test_only_references() {
        // A variant only mentioned inside #[cfg(test)] code of the
        // checker crate is still an uncovered blind spot.
        let events = "pub enum ControllerEvent {\n    Orphan { at: u64 },\n}\n";
        let props = "#[cfg(test)]\nmod tests {\n    fn f(e: &ControllerEvent) -> bool {\n        \
                     matches!(e, ControllerEvent::Orphan { .. })\n    }\n}\n";
        let findings = workspace_findings(&[
            ("crates/core/src/events.rs", events),
            ("crates/tlc/src/properties.rs", props),
        ]);
        assert!(
            findings.iter().any(|f| f.rule == "event-coverage"),
            "findings: {findings:?}"
        );
    }

    #[test]
    fn event_wildcard_flags_wildcards_in_event_matches() {
        let bad = "fn f(e: &ControllerEvent) -> u32 {\n    \
                   match e {\n        ControllerEvent::A { .. } => 1,\n        _ => 0,\n    }\n}\n";
        let findings = workspace_findings(&[("crates/tlc/src/lib.rs", bad)]);
        assert!(
            findings.iter().any(|f| f.rule == "event-wildcard"),
            "findings: {findings:?}"
        );
        // The same code outside the checker/analysis scope is legal.
        let outside = workspace_findings(&[("crates/core/src/controller.rs", bad)]);
        assert!(outside.iter().all(|f| f.rule != "event-wildcard"));
    }

    #[test]
    fn event_wildcard_attributes_to_the_innermost_match() {
        // A match over another enum — even nested inside an event match
        // arm — may use `_` freely; only the event match itself is held
        // to exhaustiveness.
        let nested = "fn f(e: &ControllerEvent) -> u32 {\n    \
                      match e {\n        ControllerEvent::A { n } => match n {\n            \
                      0 => 1,\n            _ => 2,\n        },\n    }\n}\n";
        let findings = workspace_findings(&[("crates/tlc/src/lib.rs", nested)]);
        assert!(
            findings.iter().all(|f| f.rule != "event-wildcard"),
            "findings: {findings:?}"
        );
        let plain = "fn g(k: Kind) -> u32 {\n    match k {\n        Kind::X => 1,\n        \
                     _ => 0,\n    }\n}\n";
        let quiet = workspace_findings(&[("crates/tlc/src/lib.rs", plain)]);
        assert!(
            quiet.iter().all(|f| f.rule != "event-wildcard"),
            "findings: {quiet:?}"
        );
    }
}
