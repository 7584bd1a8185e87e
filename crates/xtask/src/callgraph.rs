//! Name-resolved intra-workspace call graph.
//!
//! Built on the function-item model: method calls are narrowed by
//! receiver type (`self`, typed params, one-step `let` inference), path
//! calls resolve through `Self`, workspace type names, `use` aliases and
//! crate identifiers, and free calls resolve same-crate first. Where a
//! receiver's type is unknown, the resolver falls back to *every*
//! workspace method of that name — deliberately over-approximate, so the
//! transitive hot-path rule errs toward flagging — except for ubiquitous
//! std names (`iter`, `len`, `fill`, …) which would connect everything
//! to everything.

use crate::items::{type_head, FileItems};
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Global function id: index into [`Graph::fns`].
pub type FnId = usize;

/// Where a function lives: `files[file]` / `items[file].fns[item]`.
#[derive(Debug, Clone, Copy)]
pub struct FnRef {
    /// Index into the scanned file list.
    pub file: usize,
    /// Index into that file's `FileItems::fns`.
    pub item: usize,
}

/// The workspace call graph.
pub struct Graph {
    /// Flattened function list in (file, item) order.
    pub fns: Vec<FnRef>,
    /// `edges[caller]` → sorted callee ids.
    pub edges: Vec<Vec<FnId>>,
}

/// Method names so common in std that an unknown-receiver fallback edge
/// on them would connect the graph into one blob. Calls to these through
/// an *unresolved* receiver create no edge; a receiver narrowed to a
/// workspace type still resolves precisely.
const STD_METHODS: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_secs",
    "as_slice",
    "borrow",
    "ceil",
    "chain",
    "chars",
    "checked_div",
    "checked_sub",
    "chunks",
    "clear",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "copy_from_slice",
    "count",
    "dedup",
    "div_euclid",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "exp",
    "extend",
    "fill",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "get_or_init",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "is_finite",
    "is_nan",
    "is_some",
    "is_none",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "ln",
    "log10",
    "log2",
    "map",
    "map_or",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "ne",
    "next",
    "nth",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_insert",
    "or_insert_with",
    "partial_cmp",
    "peekable",
    "pop",
    "position",
    "powf",
    "powi",
    "product",
    "push",
    "push_str",
    "rem_euclid",
    "remove",
    "resize",
    "rev",
    "round",
    "rposition",
    "saturating_add",
    "saturating_sub",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "split_at",
    "split_at_mut",
    "sqrt",
    "starts_with",
    "step_by",
    "sum",
    "swap",
    "take",
    "to_string",
    "total_cmp",
    "trim",
    "trunc",
    "truncate",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "wrapping_add",
    "zip",
];

/// Keywords that read like `name(` but are not calls.
const CALL_KEYWORDS: &[&str] = &[
    "as", "await", "box", "else", "fn", "for", "if", "in", "let", "loop", "match", "move",
    "return", "while",
];

/// Crate directory prefix of a workspace-relative path: `crates/markov`
/// for `crates/markov/src/simple.rs`, empty for root-package files.
pub fn crate_dir(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some(a @ ("crates" | "shims")), Some(b)) => format!("{a}/{b}"),
        _ => String::new(),
    }
}

/// Builds the call graph. `crate_map` maps crate identifiers
/// (`prepare_markov`) to their directory prefix (`crates/markov`).
pub fn build(
    files: &[SourceFile],
    items: &[FileItems],
    crate_map: &BTreeMap<String, String>,
) -> Graph {
    let mut fns: Vec<FnRef> = Vec::new();
    for (fi, fitems) in items.iter().enumerate() {
        for ii in 0..fitems.fns.len() {
            fns.push(FnRef { file: fi, item: ii });
        }
    }

    // Indexes.
    let mut workspace_types: BTreeSet<&str> = BTreeSet::new();
    let mut method_index: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
    let mut method_by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
    let mut free_index: BTreeMap<(String, &str), Vec<FnId>> = BTreeMap::new();
    let mut free_by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
    for (id, r) in fns.iter().enumerate() {
        let Some(item) = items.get(r.file).and_then(|x| x.fns.get(r.item)) else {
            continue;
        };
        let dir = files.get(r.file).map(|f| crate_dir(&f.rel_path));
        match (&item.self_ty, dir) {
            (Some(ty), _) => {
                workspace_types.insert(ty.as_str());
                method_index
                    .entry((ty.as_str(), item.name.as_str()))
                    .or_default()
                    .push(id);
                method_by_name
                    .entry(item.name.as_str())
                    .or_default()
                    .push(id);
            }
            (None, Some(dir)) => {
                free_index
                    .entry((dir, item.name.as_str()))
                    .or_default()
                    .push(id);
                free_by_name.entry(item.name.as_str()).or_default().push(id);
            }
            _ => {}
        }
    }

    let resolver = Resolver {
        files,
        items,
        crate_map,
        workspace_types: &workspace_types,
        method_index: &method_index,
        method_by_name: &method_by_name,
        free_index: &free_index,
        free_by_name: &free_by_name,
    };

    let edges = fns
        .iter()
        .map(|&r| resolver.callees_of(r).into_iter().collect())
        .collect();
    Graph { fns, edges }
}

impl Graph {
    /// Every function reachable from `root` (including it), each with
    /// the call chain that reaches it. Cycle-tolerant BFS: each node is
    /// visited once, with its shortest chain.
    pub fn reachable_with_chains(&self, root: FnId) -> Vec<(FnId, Vec<FnId>)> {
        let mut out: Vec<(FnId, Vec<FnId>)> = Vec::new();
        let mut seen: BTreeSet<FnId> = BTreeSet::new();
        let mut queue: VecDeque<(FnId, Vec<FnId>)> = VecDeque::new();
        queue.push_back((root, vec![root]));
        seen.insert(root);
        while let Some((id, chain)) = queue.pop_front() {
            for &callee in self.edges.get(id).map(Vec::as_slice).unwrap_or(&[]) {
                if seen.insert(callee) {
                    let mut next = chain.clone();
                    next.push(callee);
                    queue.push_back((callee, next));
                }
            }
            out.push((id, chain));
        }
        out
    }
}

struct Resolver<'a> {
    files: &'a [SourceFile],
    items: &'a [FileItems],
    crate_map: &'a BTreeMap<String, String>,
    workspace_types: &'a BTreeSet<&'a str>,
    method_index: &'a BTreeMap<(&'a str, &'a str), Vec<FnId>>,
    method_by_name: &'a BTreeMap<&'a str, Vec<FnId>>,
    free_index: &'a BTreeMap<(String, &'a str), Vec<FnId>>,
    free_by_name: &'a BTreeMap<&'a str, Vec<FnId>>,
}

impl<'a> Resolver<'a> {
    /// Every workspace function a call in `r`'s body can reach.
    fn callees_of(&self, r: FnRef) -> BTreeSet<FnId> {
        let mut out: BTreeSet<FnId> = BTreeSet::new();
        let (Some(file), Some(fitems)) = (self.files.get(r.file), self.items.get(r.file)) else {
            return out;
        };
        let Some(item) = fitems.fns.get(r.item) else {
            return out;
        };
        let Some((open, close)) = item.body else {
            return out;
        };
        let own_dir = crate_dir(&file.rel_path);
        let env = self.build_env(file, fitems, r.item, open, close);

        let mut j = open + 1;
        while j < close {
            let Some(w) = file.cident(j).filter(|w| !CALL_KEYWORDS.contains(w)) else {
                j += 1;
                continue;
            };
            // `name(`, or turbofish `name::<T>(`.
            let after = if file.cpair(j + 1, ':', ':') && file.cpunct(j + 3, '<') {
                file.skip_angles(j + 3)
            } else {
                j + 1
            };
            if !file.cpunct(after, '(') {
                j += 1;
                continue;
            }
            if j > 0 && file.cpunct(j - 1, '.') {
                // Method call: narrow by receiver when possible.
                self.resolve_method(file, &env, j, w, &mut out);
            } else if j >= 2 && file.cpair(j - 2, ':', ':') {
                self.resolve_path(
                    file,
                    fitems,
                    &own_dir,
                    item.self_ty.as_deref(),
                    j,
                    w,
                    &mut out,
                );
            } else if !(j > 0 && file.ctext(j - 1) == "fn") {
                // (A nested `fn name(` is a definition, not a call.)
                self.resolve_free(fitems, &own_dir, w, &mut out);
            }
            j = after;
        }
        out
    }

    /// Receiver-typed environment: `self`, typed params, and one-step
    /// `let` inference (`let table = self.table();` learns the return
    /// type of the resolved method).
    fn build_env(
        &self,
        f: &SourceFile,
        fitems: &FileItems,
        item_idx: usize,
        open: usize,
        close: usize,
    ) -> BTreeMap<String, String> {
        let mut env: BTreeMap<String, String> = BTreeMap::new();
        let Some(item) = fitems.fns.get(item_idx) else {
            return env;
        };
        if let Some(ty) = &item.self_ty {
            env.insert("self".into(), ty.clone());
        }
        for p in &item.params {
            if let Some(head) = type_head(&p.ty) {
                if self.workspace_types.contains(head.as_str()) {
                    env.insert(p.name.clone(), head);
                }
            }
        }
        // One-step lets.
        let mut j = open + 1;
        while j < close {
            if f.ctext(j) != "let" {
                j += 1;
                continue;
            }
            let mut n = j + 1;
            if f.ctext(n) == "mut" {
                n += 1;
            }
            let Some(name) = f.cident(n).map(str::to_string) else {
                j += 1;
                continue;
            };
            if f.cpunct(n + 1, ':') && !f.cpair(n + 1, ':', ':') {
                // `let x: Ty = …` — explicit annotation.
                let mut t = n + 2;
                let mut ty = String::new();
                while t < close && !f.cpunct(t, '=') && !f.cpunct(t, ';') {
                    if let Some(w) = f.cident(t).filter(|w| !matches!(*w, "mut" | "dyn")) {
                        ty = w.to_string();
                        break;
                    }
                    t += 1;
                }
                if self.workspace_types.contains(ty.as_str()) {
                    env.insert(name, ty);
                }
            } else if f.cpunct(n + 1, '=') {
                // `let x = [&]self.m(…)` / `let x = Ty::m(…)`.
                let mut t = n + 2;
                while f.cpunct(t, '&') || f.ctext(t) == "mut" {
                    t += 1;
                }
                let head = match (f.cident(t), f.cident(t + 2), f.cident(t + 3)) {
                    (Some("self"), Some(m), _) if f.cpunct(t + 1, '.') => {
                        env.get("self").and_then(|st| self.ret_head_of(st, m))
                    }
                    (Some(q), _, Some(m))
                        if f.cpair(t + 1, ':', ':') && self.workspace_types.contains(q) =>
                    {
                        self.ret_head_of(q, m)
                    }
                    _ => None,
                };
                if let Some(h) = head {
                    if self.workspace_types.contains(h.as_str()) {
                        env.insert(name, h);
                    }
                }
            }
            j += 1;
        }
        env
    }

    /// Return-type head of the first method `(ty, name)`, if resolvable.
    fn ret_head_of(&self, ty: &str, name: &str) -> Option<String> {
        let ids = self.method_index.get(&(ty, name))?;
        let &id = ids.first()?;
        self.item_of(id).and_then(|i| i.ret_head())
    }

    /// Item behind a global id (ids are assigned file-major).
    fn item_of(&self, id: FnId) -> Option<&'a crate::items::FnItem> {
        let mut n = id;
        for fitems in self.items {
            if n < fitems.fns.len() {
                return fitems.fns.get(n);
            }
            n -= fitems.fns.len();
        }
        None
    }

    fn resolve_method(
        &self,
        f: &SourceFile,
        env: &BTreeMap<String, String>,
        j: usize,
        w: &str,
        out: &mut BTreeSet<FnId>,
    ) {
        // Receiver directly before the dot.
        let recv = j.checked_sub(2).map(|k| f.ctext(k)).unwrap_or("");
        if let Some(ty) = env.get(recv) {
            if let Some(ids) = self.method_index.get(&(ty.as_str(), w)) {
                out.extend(ids.iter().copied());
                return;
            }
            // Known workspace receiver without such a method: a std
            // trait method (`.cmp`, `.clone`…); no workspace edge.
            return;
        }
        // Unknown receiver: over-approximate by name, minus std names.
        if STD_METHODS.contains(&w) {
            return;
        }
        if let Some(ids) = self.method_by_name.get(w) {
            out.extend(ids.iter().copied());
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn resolve_path(
        &self,
        f: &SourceFile,
        fitems: &FileItems,
        own_dir: &str,
        self_ty: Option<&str>,
        j: usize,
        w: &str,
        out: &mut BTreeSet<FnId>,
    ) {
        // Collect the full path: segments before `w`.
        let mut segs: Vec<&str> = Vec::new();
        let mut k = j;
        while k >= 3 && f.cpair(k - 2, ':', ':') {
            let Some(seg) = f.cident(k - 3) else {
                break;
            };
            segs.push(seg);
            k -= 3;
        }
        segs.reverse();
        let Some(&qual) = segs.last() else {
            return;
        };
        let first = segs.first().copied().unwrap_or(qual);

        // `Self::helper()`.
        if qual == "Self" {
            if let Some(ty) = self_ty {
                if let Some(ids) = self.method_index.get(&(ty, w)) {
                    out.extend(ids.iter().copied());
                }
            }
            return;
        }
        // `Type::method()` on a workspace type.
        if self.workspace_types.contains(qual) {
            if let Some(ids) = self.method_index.get(&(qual, w)) {
                out.extend(ids.iter().copied());
            }
            return;
        }
        // `Alias::method()` through a use alias.
        if let Some(target) = fitems.uses.get(qual) {
            if let Some(last) = target.last() {
                if self.workspace_types.contains(last.as_str()) {
                    if let Some(ids) = self.method_index.get(&(last.as_str(), w)) {
                        out.extend(ids.iter().copied());
                    }
                    return;
                }
            }
            if let Some(dir) = target.first().and_then(|f| self.crate_map.get(f.as_str())) {
                if let Some(ids) = self.free_index.get(&(dir.clone(), w)) {
                    out.extend(ids.iter().copied());
                }
                return;
            }
        }
        // `prepare_markov::free_fn()` / `crate::module::free_fn()`.
        let dir = if matches!(first, "crate" | "self" | "super") {
            Some(own_dir.to_string())
        } else {
            self.crate_map.get(first).cloned()
        };
        if let Some(dir) = dir {
            if let Some(ids) = self.free_index.get(&(dir, w)) {
                out.extend(ids.iter().copied());
            }
            return;
        }
        // Bare module qualifier (`snapshot::normalize(…)`): same crate.
        if qual.chars().next().is_some_and(char::is_lowercase) {
            if let Some(ids) = self.free_index.get(&(own_dir.to_string(), w)) {
                out.extend(ids.iter().copied());
            }
        }
    }

    fn resolve_free(&self, fitems: &FileItems, own_dir: &str, w: &str, out: &mut BTreeSet<FnId>) {
        if let Some(ids) = self.free_index.get(&(own_dir.to_string(), w)) {
            out.extend(ids.iter().copied());
            return;
        }
        if let Some(target) = fitems.uses.get(w) {
            if let Some(dir) = target.first().and_then(|f| self.crate_map.get(f.as_str())) {
                let name = target.last().map(String::as_str).unwrap_or(w);
                if let Some(ids) = self.free_index.get(&(dir.clone(), name)) {
                    out.extend(ids.iter().copied());
                }
                return;
            }
            // `use crate::helpers::clamp;` — same-crate import.
            if target.first().map(String::as_str) == Some("crate") {
                let name = target.last().map(String::as_str).unwrap_or(w);
                if let Some(ids) = self.free_index.get(&(own_dir.to_string(), name)) {
                    out.extend(ids.iter().copied());
                }
                return;
            }
        }
        if let Some(ids) = self.free_by_name.get(w) {
            out.extend(ids.iter().copied());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;
    use crate::scan::{analyze_for_tests, policy_for};

    fn workspace(sources: &[(&str, &str)]) -> (Vec<SourceFile>, Vec<FileItems>, Graph) {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, src)| analyze_for_tests((*rel).into(), (*src).into(), policy_for(rel)))
            .collect();
        let items: Vec<FileItems> = files.iter().map(parse_file).collect();
        let mut crate_map = BTreeMap::new();
        crate_map.insert("prepare_markov".to_string(), "crates/markov".to_string());
        crate_map.insert("prepare_tan".to_string(), "crates/tan".to_string());
        let graph = build(&files, &items, &crate_map);
        (files, items, graph)
    }

    fn id_of(items: &[FileItems], graph: &Graph, name: &str) -> FnId {
        graph
            .fns
            .iter()
            .position(|r| items[r.file].fns[r.item].name == name)
            .expect("fn present")
    }

    #[test]
    fn self_and_param_narrowing() {
        let (_files, items, graph) = workspace(&[(
            "crates/markov/src/lib.rs",
            "\
struct Table;
impl Table {
    fn row(&self) {}
}
struct Chain;
impl Chain {
    fn table(&self) -> &Table { &Table }
    fn step(&self, table: &Table) {
        self.table();
        table.row();
    }
}
",
        )]);
        let step = id_of(&items, &graph, "step");
        let row = id_of(&items, &graph, "row");
        let table = id_of(&items, &graph, "table");
        assert_eq!(graph.edges[step], vec![row, table]);
    }

    #[test]
    fn one_step_let_inference() {
        let (_files, items, graph) = workspace(&[(
            "crates/markov/src/lib.rs",
            "\
struct Table;
impl Table {
    fn row(&self) {}
}
struct Chain;
impl Chain {
    fn table(&self) -> &Table { &Table }
    fn step(&self) {
        let table = self.table();
        table.row();
    }
}
",
        )]);
        let step = id_of(&items, &graph, "step");
        let row = id_of(&items, &graph, "row");
        assert!(graph.edges[step].contains(&row));
    }

    #[test]
    fn cycles_terminate() {
        let (_files, items, graph) = workspace(&[(
            "crates/markov/src/lib.rs",
            "fn a() { b(); }\nfn b() { a(); }\n",
        )]);
        let a = id_of(&items, &graph, "a");
        let b = id_of(&items, &graph, "b");
        let reach = graph.reachable_with_chains(a);
        let ids: Vec<FnId> = reach.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![a, b]);
    }

    #[test]
    fn cross_crate_calls_via_use_alias() {
        let (_files, items, graph) = workspace(&[
            (
                "crates/markov/src/lib.rs",
                "pub struct Dist;\nimpl Dist {\n    pub fn uniform() -> Dist { Dist }\n}\npub fn helper() {}\n",
            ),
            (
                "crates/tan/src/lib.rs",
                "\
use prepare_markov::{helper, Dist as D};
fn caller() {
    let d = D::uniform();
    helper();
    let _ = d;
}
",
            ),
        ]);
        let caller = id_of(&items, &graph, "caller");
        let uniform = id_of(&items, &graph, "uniform");
        let helper = id_of(&items, &graph, "helper");
        assert_eq!(graph.edges[caller], vec![uniform, helper]);
    }

    #[test]
    fn std_method_names_create_no_fallback_edges() {
        let (_files, items, graph) = workspace(&[(
            "crates/markov/src/lib.rs",
            "\
struct Series;
impl Series {
    fn iter(&self) {}
    fn strength(&self) {}
}
fn unknown_receiver(xs: &[f64]) {
    for x in xs.iter() {
        let _ = x;
    }
}
fn named_fallback(t: &dyn std::fmt::Debug) {
    let _ = t;
}
",
        )]);
        // `.iter()` on an unknown receiver must NOT edge to Series::iter.
        let ur = id_of(&items, &graph, "unknown_receiver");
        assert!(graph.edges[ur].is_empty());
    }

    #[test]
    fn unknown_receiver_falls_back_to_name_matches() {
        let (_files, items, graph) = workspace(&[(
            "crates/tan/src/lib.rs",
            "\
struct RootCpt;
impl RootCpt {
    fn log_prob(&self) {}
}
struct EdgeCpt;
impl EdgeCpt {
    fn log_prob(&self) {}
}
fn score(t: &Opaque) {
    t.log_prob();
}
",
        )]);
        let score = id_of(&items, &graph, "score");
        // Both workspace log_prob methods are candidate callees.
        assert_eq!(graph.edges[score].len(), 2);
    }

    #[test]
    fn chains_report_the_route() {
        let (_files, items, graph) = workspace(&[(
            "crates/markov/src/lib.rs",
            "fn top() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\n",
        )]);
        let top = id_of(&items, &graph, "top");
        let mid = id_of(&items, &graph, "mid");
        let leaf = id_of(&items, &graph, "leaf");
        let reach = graph.reachable_with_chains(top);
        let leaf_chain = &reach
            .iter()
            .find(|(id, _)| *id == leaf)
            .expect("leaf reachable")
            .1;
        assert_eq!(leaf_chain, &vec![top, mid, leaf]);
    }
}
