//! Interprocedural def-use/taint engine over the token stream.
//!
//! Per-function assignment graphs are built from let-bindings,
//! reassignments and call argument→return flow; interprocedural
//! propagation runs per-function summaries (which params flow to the
//! return value or to sinks) to fixpoint over the workspace call graph.
//! One zero-tolerance rule family rides on it, `determinism-taint`:
//! values tainted by `Instant`/`SystemTime`, thread ids or
//! pointer-derived keys must not
//! reach trace-visible sinks (`ControllerEvent` construction,
//! `fingerprint*` functions, `// xtask: taint-sink` fns). A
//! `// xtask: taint-sanitize -- reason` fn cleanses its return value.
//!
//! That the results do not depend on the worker count is proved by the
//! differential suites, which compare runs at 1, 2 and 7 workers byte
//! for byte; no static rule duplicates that proof.
//!
//! The taint domain is a `u64` bitset: low 32 bits mean "depends on
//! param i", bit 32 is the one taint kind, `nondet`. Its sources are
//! built in; no marker declares one. Findings are reported in the frame
//! where a nondet-tainted *value* meets a sink; taint that enters
//! through a parameter is the caller's responsibility via the summary,
//! so nothing is reported twice.

use crate::callgraph::{CallSite, FnId, Graph, Sites};
use crate::items::{FileItems, FnItem};
use crate::rules::{matching, orphan_marker, push, Category, Finding};
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Low 32 bits: the value depends on the corresponding parameter.
const PARAM_MASK: u64 = 0xFFFF_FFFF;
/// Nondeterminism kind: wall clock, thread id, pointer.
const NONDET: u64 = 1 << 32;

/// Length-style accessors whose result is untainted by the receiver.
const UNTAINTED_METHODS: &[&str] = &["len", "is_empty", "capacity"];

/// One function's dataflow summary, iterated to fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Summary {
    /// Taint of the return value (param bits + the nondet bit).
    ret: u64,
    /// Params that flow into a sink inside (caller reports).
    sink: u32,
}

/// Runs the engine: global Jacobi fixpoint over summaries, then one
/// recording pass that emits findings, then the orphan-marker pass.
pub fn check(
    files: &[SourceFile],
    parsed: &[FileItems],
    graph: &Graph,
    sites: &Sites,
    findings: &mut Vec<Finding>,
) {
    let n = graph.fns.len();
    let mut summaries = vec![Summary::default(); n];
    let mut used: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for _round in 0..8 {
        let mut next = vec![Summary::default(); n];
        for (id, slot) in next.iter_mut().enumerate() {
            *slot = analyze(
                files, parsed, graph, sites, &summaries, id, &mut used, &mut seen, None,
            );
        }
        let changed = next != summaries;
        summaries = next;
        if !changed {
            break;
        }
    }
    // Recording pass against the converged summaries. Marker-use facts
    // from the fixpoint rounds may be stale; recompute them here.
    used.clear();
    for id in 0..n {
        analyze(
            files,
            parsed,
            graph,
            sites,
            &summaries,
            id,
            &mut used,
            &mut seen,
            Some(findings),
        );
    }
    orphan_markers(files, parsed, &used, findings);
}

/// True when this function participates in dataflow at all.
fn analyzed(f: &SourceFile, item: &FnItem) -> bool {
    f.policy.determinism && !item.in_test
}

#[allow(clippy::too_many_arguments)]
fn analyze(
    files: &[SourceFile],
    parsed: &[FileItems],
    graph: &Graph,
    sites: &Sites,
    summaries: &[Summary],
    id: FnId,
    used: &mut BTreeSet<(usize, usize)>,
    seen: &mut BTreeSet<(usize, usize)>,
    mut out: Option<&mut Vec<Finding>>,
) -> Summary {
    let Some(&r) = graph.fns.get(id) else {
        return Summary::default();
    };
    let (Some(f), Some(item)) = (
        files.get(r.file),
        parsed.get(r.file).and_then(|it| it.fns.get(r.item)),
    ) else {
        return Summary::default();
    };
    if !analyzed(f, item) {
        return Summary::default();
    }
    let mut summ = Summary::default();
    if let Some((open, close)) = item.body {
        let site_map: BTreeMap<usize, &CallSite> = sites
            .get(id)
            .map(|v| v.iter().map(|s| (s.pos, s)).collect())
            .unwrap_or_default();
        let mut vars: BTreeMap<String, u64> = BTreeMap::new();
        for (i, p) in item.params.iter().enumerate().take(32) {
            let mut t = 1u64 << i;
            if p.ty.contains("Instant") || p.ty.contains("SystemTime") {
                t |= NONDET;
            }
            vars.insert(p.name.clone(), t);
        }
        // Inner fixpoint: loop-carried assignments converge in a few
        // passes because taint only ever grows.
        for _pass in 0..3 {
            let prev_vars = vars.clone();
            let prev_summ = summ;
            summ.ret = 0;
            let mut a = Analyzer {
                parsed,
                graph,
                summaries,
                f,
                fi: r.file,
                site_map: &site_map,
                vars: &mut vars,
                summ: &mut summ,
                used,
                seen,
                out: out.as_deref_mut(),
            };
            a.walk_body(open, close);
            if vars == prev_vars
                && (Summary {
                    ret: summ.ret,
                    ..prev_summ
                }) == summ
            {
                break;
            }
        }
    }
    if item.ret.is_empty() {
        summ.ret = 0;
    }
    if let Some(line) = item.taint_sanitize {
        if summ.ret & NONDET != 0 {
            used.insert((r.file, line));
        }
        summ.ret &= !NONDET;
    }
    summ
}

/// Walks one function body, threading the variable environment.
struct Analyzer<'a, 'b> {
    parsed: &'a [FileItems],
    graph: &'a Graph,
    summaries: &'a [Summary],
    f: &'a SourceFile,
    fi: usize,
    site_map: &'a BTreeMap<usize, &'a CallSite>,
    vars: &'a mut BTreeMap<String, u64>,
    summ: &'a mut Summary,
    used: &'a mut BTreeSet<(usize, usize)>,
    seen: &'a mut BTreeSet<(usize, usize)>,
    out: Option<&'b mut Vec<Finding>>,
}

impl<'a, 'b> Analyzer<'a, 'b> {
    fn walk_body(&mut self, open: usize, close: usize) {
        let mut seg_start = open + 1;
        let mut tail = 0u64;
        for j in open + 1..=close {
            let is_end = j == close || self.f.cpunct(j, ';');
            if !is_end {
                continue;
            }
            let (s, e) = (seg_start, j);
            seg_start = j + 1;
            if s >= e {
                continue;
            }
            let v = self.statement(s, e);
            if j == close {
                tail = v;
            }
            // `return expr` anywhere in the segment feeds the return.
            if let Some(rk) = (s..e).find(|&k| self.f.cident(k) == Some("return")) {
                let v = self.eval(rk + 1, e);
                self.summ.ret |= v;
            }
        }
        self.summ.ret |= tail;
    }

    /// One `;`-delimited segment: handles the earliest binding construct
    /// (`let`, `for … in`, assignment) and evaluates the rest. Returns
    /// the segment's value taint.
    fn statement(&mut self, s: usize, e: usize) -> u64 {
        let first_let = (s..e).find(|&k| self.f.cident(k) == Some("let"));
        let first_for = (s..e).find(|&k| {
            self.f.cident(k) == Some("for") && {
                // A loop header, not `impl T for U`: an `in` word before
                // the segment ends or a brace opens.
                (k + 1..e).any(|j| self.f.cident(j) == Some("in"))
            }
        });
        match (first_let, first_for) {
            (Some(l), f4) if f4.is_none_or(|fk| l < fk) => {
                let _ = self.eval(s, l);
                self.handle_let(l, e)
            }
            (_, Some(fk)) => {
                let _ = self.eval(s, fk);
                self.handle_for(fk, e)
            }
            _ => {
                if let Some(eq) = self.find_assign(s, e) {
                    let rhs = self.eval(eq + 1, e);
                    let _ = self.eval(s, eq);
                    if let Some(name) = (s..eq).find_map(|k| self.f.cident(k)) {
                        *self.vars.entry(name.to_string()).or_insert(0) |= rhs;
                    }
                    rhs
                } else {
                    self.eval(s, e)
                }
            }
        }
    }

    /// Position of a plain assignment `=` in `[s, e)`, skipping
    /// comparison operators.
    fn find_assign(&self, s: usize, e: usize) -> Option<usize> {
        (s..e).find(|&k| {
            self.f.cpunct(k, '=')
                && !self.f.cpair(k, '=', '=')
                && !self.f.cpair(k, '=', '>')
                && !k.checked_sub(1).is_some_and(|p| {
                    self.f.cpair(p, '=', '=')
                        || self.f.cpair(p, '!', '=')
                        || self.f.cpair(p, '<', '=')
                        || self.f.cpair(p, '>', '=')
                })
        })
    }

    /// `let [mut] PAT [: TY] = RHS` starting at the `let` keyword.
    fn handle_let(&mut self, l: usize, e: usize) -> u64 {
        let eq = self.find_assign(l, e);
        let bound_end = eq.unwrap_or(e);
        // Explicit annotation: first `:` (not `::`) before the `=`.
        let colon = (l + 1..bound_end).find(|&k| {
            self.f.cpunct(k, ':')
                && !self.f.cpair(k, ':', ':')
                && !k.checked_sub(1).is_some_and(|p| self.f.cpair(p, ':', ':'))
        });
        let pat_end = colon.unwrap_or(bound_end);
        let names: Vec<String> = (l + 1..pat_end)
            .filter_map(|k| self.f.cident(k))
            .filter(|w| !matches!(*w, "mut" | "ref" | "Some" | "Ok" | "Err"))
            .map(str::to_string)
            .collect();
        let clock_typed = colon.is_some_and(|c| {
            (c + 1..bound_end).any(|k| matches!(self.f.cident(k), Some("Instant" | "SystemTime")))
        });
        let extra = if clock_typed { NONDET } else { 0 };
        let rhs = match eq {
            Some(eq) => self.eval(eq + 1, e),
            None => 0,
        };
        for name in names {
            self.vars.insert(name, rhs | extra);
        }
        rhs | extra
    }

    /// `for PAT in ITER { … }` starting at the `for` keyword: binds the
    /// pattern names to the iterated expression's taint, then processes
    /// the remainder of the segment.
    fn handle_for(&mut self, fk: usize, e: usize) -> u64 {
        let Some(inp) = (fk + 1..e).find(|&k| self.f.cident(k) == Some("in")) else {
            return self.eval(fk + 1, e);
        };
        let brace = (inp + 1..e).find(|&k| self.f.cpunct(k, '{')).unwrap_or(e);
        let iter = self.eval(inp + 1, brace);
        for k in fk + 1..inp {
            if let Some(w) = self.f.cident(k) {
                if !matches!(w, "mut" | "ref") {
                    *self.vars.entry(w.to_string()).or_insert(0) |= iter;
                }
            }
        }
        if brace < e {
            self.statement(brace + 1, e)
        } else {
            0
        }
    }

    /// Evaluates an expression span, returning its taint. Sinks inside
    /// are reported as side effects.
    fn eval(&mut self, s: usize, e: usize) -> u64 {
        let f = self.f;
        let mut acc = 0u64;
        let mut last = 0u64;
        let mut j = s;
        while j < e {
            if let Some(w) = f.cident(j) {
                if w == "as" {
                    // Pointer casts mint address-derived values.
                    if f.cpunct(j + 1, '*') && matches!(f.cident(j + 2), Some("const" | "mut")) {
                        acc |= NONDET;
                        last |= NONDET;
                    }
                    j += 1;
                    continue;
                }
                if w == "ControllerEvent" && f.cpair(j + 1, ':', ':') && f.cident(j + 3).is_some() {
                    let op = j + 4;
                    let pair = if f.cpunct(op, '{') {
                        Some(('{', '}'))
                    } else if f.cpunct(op, '(') {
                        Some(('(', ')'))
                    } else {
                        None
                    };
                    if let Some((oc, cc)) = pair {
                        let close = matching(f, op, oc, cc).min(e);
                        // A match/`if let` *pattern* is not construction.
                        let is_pattern = f.cpair(close + 1, '=', '>')
                            || (f.cpunct(close + 1, '=') && !f.cpair(close + 1, '=', '='));
                        let inner = self.eval(op + 1, close);
                        if !is_pattern {
                            self.sink_hit(inner, j, "ControllerEvent construction");
                        }
                        acc |= inner;
                        last = inner;
                        j = close + 1;
                        continue;
                    }
                }
                if let Some(&site) = self.site_map.get(&j) {
                    let close = matching(f, site.paren, '(', ')').min(e);
                    let method = j > 0 && f.cpunct(j - 1, '.');
                    let mut args: Vec<u64> = Vec::new();
                    if method {
                        let recv = site
                            .recv
                            .and_then(|rk| f.cident(rk))
                            .and_then(|n| self.vars.get(n))
                            .copied();
                        args.push(recv.unwrap_or(last));
                    }
                    for (a, b) in split_args(f, site.paren, close) {
                        args.push(self.eval(a, b));
                    }
                    let res = self.apply_call(w, site, j, method, &args);
                    if method {
                        // A method may store its arguments in the
                        // receiver (`table.record(tainted)`) — but only
                        // the arguments: a getter whose *result* is
                        // tainted does not contaminate the object it
                        // reads from.
                        if let Some(name) = site.recv.and_then(|rk| f.cident(rk)) {
                            let stored = args.iter().skip(1).fold(0, |x, y| x | y) & NONDET;
                            if stored != 0 {
                                *self.vars.entry(name.to_string()).or_insert(0) |= stored;
                            }
                        }
                    }
                    acc |= res;
                    last = res;
                    j = close + 1;
                    continue;
                }
                if f.cpunct(j + 1, '!') {
                    // Macro: evaluate the delimited arguments as a span.
                    let op = j + 2;
                    let pair = if f.cpunct(op, '(') {
                        Some(('(', ')'))
                    } else if f.cpunct(op, '[') {
                        Some(('[', ']'))
                    } else if f.cpunct(op, '{') {
                        Some(('{', '}'))
                    } else {
                        None
                    };
                    if let Some((oc, cc)) = pair {
                        let close = matching(f, op, oc, cc).min(e);
                        let inner = self.eval(op + 1, close);
                        acc |= inner;
                        last = inner;
                        j = close + 1;
                        continue;
                    }
                }
                let mut t = self.vars.get(w).copied().unwrap_or(0);
                match w {
                    "Instant" | "SystemTime" | "ThreadId" => t |= NONDET,
                    "thread"
                        if f.cpair(j + 1, ':', ':')
                            && matches!(f.cident(j + 3), Some("current" | "id")) =>
                    {
                        t |= NONDET
                    }
                    _ => {}
                }
                acc |= t;
                last = t;
                j += 1;
                continue;
            }
            if f.cpunct(j, '(') || f.cpunct(j, '{') || f.cpunct(j, '[') {
                let (oc, cc) = match f.ctext(j).as_bytes()[0] {
                    b'(' => ('(', ')'),
                    b'{' => ('{', '}'),
                    _ => ('[', ']'),
                };
                let close = matching(f, j, oc, cc).min(e);
                let inner = self.eval(j + 1, close);
                acc |= inner;
                last |= inner;
                j = close + 1;
                continue;
            }
            j += 1;
        }
        acc
    }

    /// Applies one call: propagates through callee summaries and marker
    /// contracts, or models the std surface for unresolved calls.
    fn apply_call(
        &mut self,
        name: &str,
        site: &CallSite,
        pos: usize,
        method: bool,
        args: &[u64],
    ) -> u64 {
        let all: u64 = args.iter().fold(0, |a, b| a | b);
        let mut res;
        if site.callees.is_empty() {
            res = all;
            match name {
                "as_ptr" | "as_mut_ptr" => res |= NONDET,
                w if UNTAINTED_METHODS.contains(&w) && method => res = 0,
                _ => {}
            }
        } else {
            res = 0;
            for &cid in &site.callees {
                let Some(&cr) = self.graph.fns.get(cid) else {
                    continue;
                };
                let Some(citem) = self.parsed.get(cr.file).and_then(|it| it.fns.get(cr.item))
                else {
                    continue;
                };
                let summ = self.summaries.get(cid).copied().unwrap_or_default();
                res |= summ.ret & NONDET;
                for (i, &at) in args.iter().enumerate().take(32) {
                    if summ.ret & (1u64 << i) != 0 {
                        res |= at;
                    }
                    if summ.sink & (1u32 << i) != 0 {
                        self.sink_hit(at, pos, name);
                    }
                }
                if citem.taint_sink {
                    self.sink_hit(all, pos, name);
                }
                if let Some(line) = citem.taint_sanitize {
                    if (res | all) & NONDET != 0 {
                        self.used.insert((cr.file, line));
                    }
                    res &= !NONDET;
                }
            }
        }
        if name.starts_with("fingerprint") {
            self.sink_hit(all, pos, name);
        }
        res
    }

    /// A value met a sink: report when it is nondet-tainted; record
    /// param responsibility either way.
    fn sink_hit(&mut self, taint: u64, pos: usize, what: &str) {
        if taint & NONDET != 0 {
            self.report(
                pos,
                format!(
                    "nondeterministic value reaches trace-visible sink `{what}`; route it \
                     through a `// xtask: taint-sanitize` fn or derive it deterministically"
                ),
            );
        }
        self.summ.sink |= (taint & PARAM_MASK) as u32;
    }

    fn report(&mut self, pos: usize, message: String) {
        let Some(out) = self.out.as_deref_mut() else {
            return;
        };
        if !self.seen.insert((self.fi, pos)) {
            return;
        }
        push(
            self.f,
            out,
            pos,
            Category::Taint,
            "determinism-taint",
            message,
        );
    }
}

/// Top-level comma-separated argument spans of `(open … close)`.
fn split_args(f: &SourceFile, open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut start = open + 1;
    for j in open + 1..close {
        if f.cpunct(j, '(') || f.cpunct(j, '[') || f.cpunct(j, '{') {
            depth += 1;
        } else if f.cpunct(j, ')') || f.cpunct(j, ']') || f.cpunct(j, '}') {
            depth -= 1;
        } else if depth == 0 && f.cpunct(j, ',') {
            out.push((start, j));
            start = j + 1;
        }
    }
    if start < close {
        out.push((start, close));
    }
    out
}

/// A sanitize marker that cleansed nothing in the final recording pass
/// is stale and hides future regressions — the same hygiene contract as
/// `unused-allow`.
fn orphan_markers(
    files: &[SourceFile],
    parsed: &[FileItems],
    used: &BTreeSet<(usize, usize)>,
    findings: &mut Vec<Finding>,
) {
    for (fi, (f, it)) in files.iter().zip(parsed).enumerate() {
        if !f.policy.determinism {
            continue;
        }
        for item in it.fns.iter().filter(|item| !item.in_test) {
            let Some(line) = item.taint_sanitize else {
                continue;
            };
            if used.contains(&(fi, line)) {
                continue;
            }
            let message = format!(
                "`// xtask: taint-sanitize` on `{}` suppresses nothing; delete the stale marker",
                item.name
            );
            findings.push(orphan_marker(f, line, message));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::check_workspace;
    use crate::scan::SourceFile;
    use crate::scan::{analyze_for_tests, policy_for};
    use std::collections::BTreeMap;

    fn findings_of(sources: &[(&str, &str)]) -> Vec<(String, usize, &'static str)> {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, src)| analyze_for_tests((*rel).into(), (*src).into(), policy_for(rel)))
            .collect();
        let mut crate_map = BTreeMap::new();
        crate_map.insert("prepare_markov".to_string(), "crates/markov".to_string());
        crate_map.insert("prepare_tan".to_string(), "crates/tan".to_string());
        check_workspace(&files, &crate_map)
            .into_iter()
            .map(|f| (f.file, f.line, f.rule))
            .collect()
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        findings_of(&[("crates/x/src/lib.rs", src)])
            .into_iter()
            .map(|(_, _, r)| r)
            .collect()
    }

    // --- determinism-taint -------------------------------------------

    #[test]
    fn instant_elapsed_reaching_fingerprint_is_a_finding() {
        // A bench file: wall-clock reads are policy-legal there, but the
        // measured value still must not reach a fingerprint.
        let src = "\
fn fingerprint_trace(x: f64) -> u64 { x.to_bits() }
fn bench() -> u64 {
    let t0 = Instant::now();
    let ms = t0.elapsed().as_secs_f64();
    fingerprint_trace(ms)
}
";
        let got = findings_of(&[("crates/bench/src/lib.rs", src)]);
        assert!(
            got.iter().any(|(_, _, r)| *r == "determinism-taint"),
            "findings: {got:?}"
        );
    }

    #[test]
    fn taint_flows_interprocedurally_through_helpers() {
        // Source -> helper (param to ret) -> helper2 -> sink: the nondet
        // bit must survive two summary hops.
        let src = "\
fn ptr_key(v: &[u8]) -> usize { v.as_ptr() as usize }
fn pass1(x: usize) -> usize { x }
fn pass2(x: usize) -> usize { pass1(x) }
fn fingerprint_state(x: usize) -> usize { x }
fn emit(v: &[u8]) -> usize {
    let k = ptr_key(v);
    let v = pass2(k);
    fingerprint_state(v)
}
";
        assert!(
            rules_of(src).contains(&"determinism-taint"),
            "findings: {:?}",
            rules_of(src)
        );
    }

    #[test]
    fn sink_summaries_report_at_the_tainted_call_site() {
        // The helper passes its param to a fingerprint; only the caller
        // that feeds it a tainted value is reported.
        let src = "\
fn src_v(v: &[u8]) -> u64 { v.as_ptr() as u64 }
fn fingerprint_x(x: u64) -> u64 { x }
fn helper(v: u64) -> u64 { fingerprint_x(v) }
fn clean() -> u64 { helper(1) }
fn dirty(v: &[u8]) -> u64 { helper(src_v(v)) }
";
        let got = rules_of(src);
        assert_eq!(
            got.iter().filter(|r| **r == "determinism-taint").count(),
            1,
            "findings: {got:?}"
        );
    }

    #[test]
    fn controller_event_construction_is_a_sink() {
        let src = "\
fn wobbly(v: &[u8]) -> u64 { v.as_ptr() as u64 }
fn emit(events: &mut Vec<ControllerEvent>, v: &[u8]) {
    let at = wobbly(v);
    events.push(ControllerEvent::ActionIssued { at });
}
";
        let got = rules_of(src);
        assert!(got.contains(&"determinism-taint"), "findings: {got:?}");
        // Match *patterns* over events are not construction.
        let pat = "\
fn inspect(e: &ControllerEvent) -> u64 {
    match e {
        ControllerEvent::ActionIssued { at } => *at,
    }
}
";
        assert!(rules_of(pat).is_empty(), "findings: {:?}", rules_of(pat));
    }

    #[test]
    fn sanitize_marker_cleanses_and_is_consumed() {
        let src = "\
fn fingerprint_trace(x: f64) -> u64 { x.to_bits() }
// xtask: taint-sanitize -- measurement is the payload
fn measured(t0: Instant) -> f64 { t0.elapsed().as_secs_f64() }
fn bench() -> u64 {
    let t0 = Instant::now();
    fingerprint_trace(measured(t0))
}
";
        let got = findings_of(&[("crates/bench/src/lib.rs", src)]);
        assert!(got.is_empty(), "findings: {got:?}");
    }

    // --- orphan markers ----------------------------------------------

    #[test]
    fn orphan_sanitize_marker_is_a_finding() {
        // The sanitizer never sees nondet taint: the marker is stale.
        let src = "\
// xtask: taint-sanitize -- claims to cleanse, cleanses nothing
fn already_clean(x: f64) -> f64 { x }
fn caller() -> f64 { already_clean(1.0) }
";
        let got = rules_of(src);
        assert_eq!(got, vec!["orphan-marker"], "findings: {got:?}");
    }

    #[test]
    fn pointer_casts_taint_keys() {
        let src = "\
fn fingerprint_key(k: usize) -> usize { k }
fn f(v: &Vec<u8>) -> usize {
    let k = v.as_ptr() as usize;
    fingerprint_key(k)
}
";
        let got = rules_of(src);
        assert!(got.contains(&"determinism-taint"), "findings: {got:?}");
    }
}
