//! Function-item model on top of the token stream: every `fn` in a file
//! with its impl type, visibility, parameter types, return type, body
//! span and hot-path marker — plus the file's `use` aliases. This is
//! what the call graph and the NaN-safety rules resolve names against.

use crate::lexer::{comment_body, TokenKind};
use crate::scan::SourceFile;
use std::collections::BTreeMap;

/// One parameter: pattern name (best effort) and the type's source text.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name; `self` for receivers, may be empty for patterns.
    pub name: String,
    /// Type source text (empty for `self`).
    pub ty: String,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing impl's self type (last path segment), if any.
    pub self_ty: Option<String>,
    /// True only for bare `pub` (restricted `pub(crate)` is not API).
    pub is_pub: bool,
    /// Return type source text; empty for unit.
    pub ret: String,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Code-token index of the `fn` keyword.
    pub fn_pos: usize,
    /// Code-token indices of the body's `{` and `}`; `None` for
    /// bodiless declarations.
    pub body: Option<(usize, usize)>,
    /// Armed by a preceding `// xtask: hot-path` comment.
    pub hot: bool,
    /// Armed by `// xtask: taint-sink`: nondet-tainted arguments are
    /// findings.
    pub taint_sink: bool,
    /// 1-based line of a `// xtask: taint-sanitize -- reason` comment
    /// arming the fn: its return value is cleansed of nondet taint. The
    /// line attributes an orphan-marker finding when it cleanses nothing.
    pub taint_sanitize: Option<usize>,
    /// True when the item sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

impl FnItem {
    /// Head identifier of the return type: `&TransitionTable` →
    /// `TransitionTable`, `Vec<f64>` → `Vec`, unit → `None`.
    pub fn ret_head(&self) -> Option<String> {
        type_head(&self.ret)
    }
}

/// Head identifier of a type's source text, skipping references,
/// `mut`/`dyn`/`impl` qualifiers and lifetimes.
pub fn type_head(ty: &str) -> Option<String> {
    let mut rest = ty.trim();
    loop {
        rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix('&') {
            rest = r;
        } else if let Some(r) = rest.strip_prefix('\'') {
            rest = r.trim_start_matches(|c: char| c.is_alphanumeric() || c == '_');
        } else if let Some(r) = strip_word(rest, "mut")
            .or_else(|| strip_word(rest, "dyn"))
            .or_else(|| strip_word(rest, "impl"))
        {
            rest = r;
        } else {
            break;
        }
    }
    let head: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if head.is_empty() {
        // Dig into slices/tuples for the first identifier at all.
        let inner: String = rest
            .chars()
            .skip_while(|c| !(c.is_alphanumeric() || *c == '_'))
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if inner.is_empty() {
            None
        } else {
            Some(inner)
        }
    } else {
        Some(head)
    }
}

fn strip_word<'a>(s: &'a str, word: &str) -> Option<&'a str> {
    let rest = s.strip_prefix(word)?;
    if rest.starts_with(|c: char| c.is_alphanumeric() || c == '_') {
        None
    } else {
        Some(rest)
    }
}

/// Parsed items of one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// Every `fn` in source order.
    pub fns: Vec<FnItem>,
    /// `use` aliases: local name → full path segments (e.g. `Dist` →
    /// `["prepare_markov", "StateDistribution"]`).
    pub uses: BTreeMap<String, Vec<String>>,
}

impl FileItems {
    /// Innermost function whose body spans code-token position `pos`.
    pub fn enclosing_fn(&self, pos: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.body
                    .is_some_and(|(open, close)| pos > open && pos < close)
            })
            .max_by_key(|(_, f)| f.body.map(|(open, _)| open).unwrap_or(0))
            .map(|(i, _)| i)
    }
}

/// One live `// xtask:` marker. The grammar is `xtask: <name>`, plus a
/// mandatory `-- <reason>` for the one marker that suppresses findings:
///
/// - `hot-path` — the next `fn` is a hot-path root;
/// - `taint-sink` — nondet-tainted arguments reaching the next `fn` are
///   findings;
/// - `taint-sanitize -- reason` — the next `fn` cleanses its return
///   value of nondet taint.
#[derive(Debug, Clone, Copy)]
pub enum Marker {
    HotPath,
    TaintSink,
    TaintSanitize,
}

/// Parses one comment body ([`comment_body`]). `None` when the comment
/// is not an `xtask:` marker at all; `Some(Err(why))` when it starts
/// with `xtask:` but is no live marker (a typo, a retired marker, a
/// stray argument or a missing reason) — an `orphan-marker` finding.
pub fn parse_marker(body: &str) -> Option<Result<Marker, &'static str>> {
    let rest = body.strip_prefix("xtask:")?.trim();
    let (name, tail) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
    let reason = tail.trim_start().strip_prefix("--").map(str::trim);
    let bare = tail.trim().is_empty();
    let reasoned = reason.is_some_and(|r| !r.is_empty());
    Some(match name {
        "hot-path" if bare => Ok(Marker::HotPath),
        "taint-sink" if bare => Ok(Marker::TaintSink),
        "taint-sanitize" if reasoned => Ok(Marker::TaintSanitize),
        "taint-sanitize" if bare || reason.is_some() => Err("requires a `-- reason` justification"),
        _ => Err("is not a live marker (`hot-path`, `taint-sink`, `taint-sanitize -- reason`)"),
    })
}

/// Walks one file's code tokens and extracts items.
pub fn parse_file(f: &SourceFile) -> FileItems {
    let p = Parser { f };
    p.run()
}

struct Parser<'a> {
    f: &'a SourceFile,
}

impl<'a> Parser<'a> {
    /// Source text covering code positions `[from, to)`.
    fn slice(&self, from: usize, to: usize) -> String {
        if from >= to {
            return String::new();
        }
        match (self.f.ctok(from), self.f.ctok(to - 1)) {
            (Some(a), Some(b)) => self.f.text.get(a.start..b.end).unwrap_or("").to_string(),
            _ => String::new(),
        }
    }

    fn run(&self) -> FileItems {
        let mut items = FileItems::default();
        // Marker comments arm the next `fn`: code position of the first
        // token after each marker, plus what it arms. The token stream
        // keeps comments, so a marker cannot come from a string literal.
        let mut marks: Vec<(usize, usize, Marker)> = Vec::new();
        for (i, t) in self.f.tokens.iter().enumerate() {
            if !t.kind.is_trivia() {
                continue;
            }
            if let Some(Ok(m)) = parse_marker(comment_body(t.text(&self.f.text))) {
                let after = self.f.code.partition_point(|&c| c < i);
                marks.push((after, t.line, m));
            }
        }

        let mut depth = 0i64;
        // (depth inside the impl body, self type)
        let mut impl_stack: Vec<(i64, Option<String>)> = Vec::new();
        let mut pending_impl: Option<Option<String>> = None;
        let mut k = 0usize;
        while k < self.f.code.len() {
            if self.f.cpunct(k, '{') {
                depth += 1;
                if let Some(ty) = pending_impl.take() {
                    impl_stack.push((depth, ty));
                }
            } else if self.f.cpunct(k, '}') {
                if impl_stack.last().is_some_and(|&(d, _)| d == depth) {
                    impl_stack.pop();
                }
                depth -= 1;
            } else if self.f.cpunct(k, ';') {
                pending_impl = None;
            } else if self.f.cident(k) == Some("impl") && self.at_item_position(k) {
                let (ty, next) = self.parse_impl_header(k + 1);
                pending_impl = Some(ty);
                k = next;
                continue;
            } else if self.f.cident(k) == Some("use") && self.at_item_position(k) {
                k = self.parse_use(k + 1, &mut items.uses);
                continue;
            } else if self.f.cident(k) == Some("fn")
                && self.f.ckind(k + 1) == Some(TokenKind::Ident)
            {
                let self_ty = impl_stack.last().and_then(|(_, t)| t.clone());
                let item = self.parse_fn(k, self_ty);
                items.fns.push(item);
                k += 2; // continue inside the signature; the body's
                        // braces are tracked by this same loop
                continue;
            }
            k += 1;
        }

        // Arm the fn markers: each one arms the next `fn` after it.
        for (at, line, m) in marks {
            let Some(item) = items.fns.iter_mut().find(|f| f.fn_pos >= at) else {
                continue;
            };
            match m {
                Marker::HotPath => item.hot = true,
                Marker::TaintSink => item.taint_sink = true,
                Marker::TaintSanitize => item.taint_sanitize = Some(line),
            }
        }
        items
    }

    /// True when the token at `k` starts an item (not `-> impl X`, not
    /// `param: impl Fn()`): the previous code token must end a prior
    /// item or open a block, or be a visibility/attribute terminator.
    fn at_item_position(&self, k: usize) -> bool {
        if k == 0 {
            return true;
        }
        let prev = k - 1;
        self.f.cpunct(prev, ';')
            || self.f.cpunct(prev, '{')
            || self.f.cpunct(prev, '}')
            || self.f.cpunct(prev, ']')
            || self.f.cident(prev) == Some("pub")
    }

    /// Parses an impl header from just after the `impl` keyword to the
    /// opening `{`. Returns the self type (last path segment of the type
    /// after `for`, or of the sole type) and the position of the `{`.
    fn parse_impl_header(&self, start: usize) -> (Option<String>, usize) {
        let mut j = start;
        if self.f.cpunct(j, '<') {
            j = self.f.skip_angles(j);
        }
        let mut angle = 0i64;
        let mut last_ident: Option<String> = None;
        while j < self.f.code.len() {
            if self.f.cpunct(j, '{') || self.f.cpunct(j, ';') {
                break;
            } else if self.f.cpair(j, '-', '>') {
                j += 2;
                continue;
            } else if self.f.cpunct(j, '<') {
                angle += 1;
            } else if self.f.cpunct(j, '>') {
                angle -= 1;
            } else if angle == 0 && self.f.ckind(j) == Some(TokenKind::Ident) {
                match self.f.ctext(j) {
                    "for" => last_ident = None,
                    "where" => {
                        // Type is fully read; skip to the brace.
                        while j < self.f.code.len() && !self.f.cpunct(j, '{') {
                            j += 1;
                        }
                        break;
                    }
                    "mut" | "dyn" | "const" => {}
                    w => last_ident = Some(w.to_string()),
                }
            }
            j += 1;
        }
        (last_ident, j)
    }

    /// Parses a `use` declaration from just after the keyword; returns
    /// the position just past the terminating `;`.
    fn parse_use(&self, start: usize, uses: &mut BTreeMap<String, Vec<String>>) -> usize {
        let mut end = start;
        let mut depth = 0i64;
        while end < self.f.code.len() {
            if self.f.cpunct(end, '{') {
                depth += 1;
            } else if self.f.cpunct(end, '}') {
                depth -= 1;
            } else if depth == 0 && self.f.cpunct(end, ';') {
                break;
            }
            end += 1;
        }
        self.parse_use_tree(start, end, &[], uses);
        end + 1
    }

    /// Recursive descent over one use-tree item list in `[from, to)`.
    fn parse_use_tree(
        &self,
        from: usize,
        to: usize,
        prefix: &[String],
        uses: &mut BTreeMap<String, Vec<String>>,
    ) {
        // Split on top-level commas.
        let mut items: Vec<(usize, usize)> = Vec::new();
        let mut depth = 0i64;
        let mut item_start = from;
        let mut j = from;
        while j < to {
            if self.f.cpunct(j, '{') {
                depth += 1;
            } else if self.f.cpunct(j, '}') {
                depth -= 1;
            } else if depth == 0 && self.f.cpunct(j, ',') {
                items.push((item_start, j));
                item_start = j + 1;
            }
            j += 1;
        }
        items.push((item_start, to));

        for (s, e) in items {
            let mut segs: Vec<String> = prefix.to_vec();
            let mut alias: Option<String> = None;
            let mut j = s;
            let mut grouped = false;
            while j < e {
                if self.f.ckind(j) == Some(TokenKind::Ident) {
                    if self.f.ctext(j) == "as" {
                        if self.f.ckind(j + 1) == Some(TokenKind::Ident) {
                            alias = Some(self.f.ctext(j + 1).to_string());
                        }
                        break;
                    }
                    segs.push(self.f.ctext(j).to_string());
                } else if self.f.cpunct(j, '{') {
                    // Group: recurse with the accumulated prefix.
                    let mut d = 0i64;
                    let mut close = j;
                    while close < e {
                        if self.f.cpunct(close, '{') {
                            d += 1;
                        } else if self.f.cpunct(close, '}') {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        close += 1;
                    }
                    self.parse_use_tree(j + 1, close, &segs, uses);
                    grouped = true;
                    break;
                } else if self.f.cpunct(j, '*') {
                    // Glob imports resolve nothing by name.
                    grouped = true;
                    break;
                }
                j += 1;
            }
            if grouped || segs.is_empty() {
                continue;
            }
            // `use a::b::{self, C}` → the `self` leaf names the module.
            if segs.last().map(String::as_str) == Some("self") {
                segs.pop();
            }
            let Some(last) = segs.last().cloned() else {
                continue;
            };
            uses.insert(alias.unwrap_or(last), segs);
        }
    }

    /// Parses one `fn` item; `k` is the position of the `fn` keyword.
    fn parse_fn(&self, k: usize, self_ty: Option<String>) -> FnItem {
        let name = self.f.ctext(k + 1).to_string();
        let is_pub = self.visibility_is_pub(k);
        let mut j = k + 2;
        if self.f.cpunct(j, '<') {
            j = self.f.skip_angles(j);
        }
        let mut params = Vec::new();
        if self.f.cpunct(j, '(') {
            let (parsed, close) = self.parse_params(j);
            params = parsed;
            j = close + 1;
        }
        // Return type.
        let mut ret = String::new();
        if self.f.cpair(j, '-', '>') {
            let ret_start = j + 2;
            let mut angle = 0i64;
            let mut paren = 0i64;
            let mut r = ret_start;
            while r < self.f.code.len() {
                if self.f.cpair(r, '-', '>') {
                    r += 2;
                    continue;
                }
                if self.f.cpunct(r, '<') {
                    angle += 1;
                } else if self.f.cpunct(r, '>') {
                    angle -= 1;
                } else if self.f.cpunct(r, '(') || self.f.cpunct(r, '[') {
                    paren += 1;
                } else if self.f.cpunct(r, ')') || self.f.cpunct(r, ']') {
                    paren -= 1;
                } else if angle <= 0
                    && paren <= 0
                    && (self.f.cpunct(r, '{')
                        || self.f.cpunct(r, ';')
                        || self.f.cident(r) == Some("where"))
                {
                    break;
                }
                r += 1;
            }
            ret = self.slice(ret_start, r);
            j = r;
        }
        // Skip a where clause to the body.
        while j < self.f.code.len() && !self.f.cpunct(j, '{') && !self.f.cpunct(j, ';') {
            j += 1;
        }
        let body = if self.f.cpunct(j, '{') {
            let mut depth = 0i64;
            let mut c = j;
            let mut close = None;
            while c < self.f.code.len() {
                if self.f.cpunct(c, '{') {
                    depth += 1;
                } else if self.f.cpunct(c, '}') {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(c);
                        break;
                    }
                }
                c += 1;
            }
            close.map(|c| (j, c))
        } else {
            None
        };
        FnItem {
            name,
            self_ty,
            is_pub,
            ret,
            params,
            fn_pos: k,
            body,
            hot: false,
            taint_sink: false,
            taint_sanitize: None,
            in_test: self
                .f
                .ctok(k)
                .is_some_and(|t| self.f.in_test_region(t.start)),
        }
    }

    /// True when the qualifiers before the `fn` keyword at `k` amount to
    /// bare `pub` (not `pub(crate)`/`pub(super)`).
    fn visibility_is_pub(&self, k: usize) -> bool {
        let mut j = k;
        while j > 0 {
            j -= 1;
            match self.f.ckind(j) {
                Some(TokenKind::Ident)
                    if matches!(self.f.ctext(j), "const" | "async" | "unsafe" | "extern") => {}
                Some(TokenKind::Str) => {} // extern "C"
                Some(TokenKind::Ident) => return self.f.ctext(j) == "pub",
                _ => return false,
            }
        }
        false
    }

    /// Parses a parameter list; `open` is the position of `(`. Returns
    /// the params and the position of the matching `)`.
    fn parse_params(&self, open: usize) -> (Vec<Param>, usize) {
        let mut close = open;
        let mut depth = 0i64;
        while close < self.f.code.len() {
            if self.f.cpunct(close, '(') || self.f.cpunct(close, '[') {
                depth += 1;
            } else if self.f.cpunct(close, ')') || self.f.cpunct(close, ']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            close += 1;
        }
        let mut params = Vec::new();
        let mut chunk_start = open + 1;
        let mut angle = 0i64;
        let mut inner = 0i64;
        let mut j = open + 1;
        let mut flush = |s: usize, e: usize, this: &Self| {
            if s >= e {
                return;
            }
            if let Some(p) = this.parse_param(s, e) {
                params.push(p);
            }
        };
        while j < close {
            if self.f.cpair(j, '-', '>') {
                j += 2;
                continue;
            }
            if self.f.cpunct(j, '<') {
                angle += 1;
            } else if self.f.cpunct(j, '>') {
                angle -= 1;
            } else if self.f.cpunct(j, '(') || self.f.cpunct(j, '[') {
                inner += 1;
            } else if self.f.cpunct(j, ')') || self.f.cpunct(j, ']') {
                inner -= 1;
            } else if angle == 0 && inner == 0 && self.f.cpunct(j, ',') {
                flush(chunk_start, j, self);
                chunk_start = j + 1;
            }
            j += 1;
        }
        flush(chunk_start, close, self);
        (params, close)
    }

    /// One parameter chunk `[s, e)` → `Param`.
    fn parse_param(&self, s: usize, e: usize) -> Option<Param> {
        // Receiver forms: `self`, `&self`, `&mut self`, `&'a self`,
        // `mut self` — `self` appears before any `:`.
        let mut colon = None;
        for j in s..e {
            if self.f.cpunct(j, ':')
                && !self.f.cpair(j, ':', ':')
                && !self.f.cpair(j.wrapping_sub(1), ':', ':')
            {
                colon = Some(j);
                break;
            }
        }
        let pattern_end = colon.unwrap_or(e);
        for j in s..pattern_end {
            if self.f.cident(j) == Some("self") {
                return Some(Param {
                    name: "self".into(),
                    ty: String::new(),
                });
            }
        }
        let colon = colon?;
        // Pattern name: last identifier before the colon.
        let name = (s..colon)
            .rev()
            .find(|&j| self.f.ckind(j) == Some(TokenKind::Ident) && self.f.ctext(j) != "mut")
            .map(|j| self.f.ctext(j).to_string())
            .unwrap_or_default();
        let ty = self.slice(colon + 1, e);
        Some(Param { name, ty })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{analyze_for_tests, policy_for};

    fn items_of(src: &str) -> FileItems {
        let f = analyze_for_tests(
            "crates/x/src/lib.rs".into(),
            src.into(),
            policy_for("crates/x/src/lib.rs"),
        );
        parse_file(&f)
    }

    #[test]
    fn free_and_method_items() {
        let src = "\
pub fn free(a: usize, b: &[f64]) -> f64 { 0.0 }
struct Foo { n: usize }
impl Foo {
    pub fn method(&self, x: f64) -> Self { todo!() }
    fn private(&mut self) {}
}
impl Default for Foo {
    fn default() -> Self { Foo { n: 0 } }
}
";
        let items = items_of(src);
        let names: Vec<(&str, Option<&str>)> = items
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.self_ty.as_deref()))
            .collect();
        assert_eq!(
            names,
            [
                ("free", None),
                ("method", Some("Foo")),
                ("private", Some("Foo")),
                ("default", Some("Foo")),
            ]
        );
        let free = &items.fns[0];
        assert!(free.is_pub);
        assert_eq!(free.ret, "f64");
        assert_eq!(free.params.len(), 2);
        assert_eq!(free.params[1].name, "b");
        assert_eq!(free.params[1].ty, "&[f64]");
        let method = &items.fns[1];
        assert_eq!(method.params[0].name, "self");
        assert_eq!(method.ret, "Self");
        assert!(!items.fns[2].is_pub);
    }

    #[test]
    fn pub_crate_is_not_public_api() {
        let items = items_of("pub(crate) fn f() -> f64 { 0.0 }\npub fn g() -> f64 { 0.0 }\n");
        assert!(!items.fns[0].is_pub);
        assert!(items.fns[1].is_pub);
    }

    #[test]
    fn generic_fns_and_fn_pointer_types() {
        let src = "\
pub fn map_all<F: Fn(f64) -> f64>(xs: &mut [f64], f: F) {}
type Op = fn(f64) -> f64;
fn after() {}
";
        let items = items_of(src);
        let names: Vec<&str> = items.fns.iter().map(|f| f.name.as_str()).collect();
        // The `fn(f64) -> f64` pointer type is not an item.
        assert_eq!(names, ["map_all", "after"]);
        assert_eq!(items.fns[0].params.len(), 2);
        assert_eq!(items.fns[0].params[0].name, "xs");
    }

    #[test]
    fn impl_trait_return_does_not_open_an_impl_scope() {
        let src = "\
struct S;
fn make() -> impl Iterator<Item = f64> { [0.0].into_iter() }
impl S {
    fn method(&self) {}
}
";
        let items = items_of(src);
        assert_eq!(items.fns[0].self_ty, None);
        assert_eq!(items.fns[1].self_ty.as_deref(), Some("S"));
    }

    #[test]
    fn hot_marker_arms_next_fn_only() {
        let src = "\
// xtask: hot-path
fn hot(out: &mut [f64]) { out.fill(0.0); }
fn cold() {}
";
        let items = items_of(src);
        assert!(items.fns[0].hot);
        assert!(!items.fns[1].hot);
    }

    #[test]
    fn taint_markers_arm_the_next_fn() {
        let src = "\
// xtask: taint-sink
fn sink(x: f64) {}
// xtask: taint-sanitize -- measured wall time is the payload
fn cleanse(x: f64) -> f64 { x }
fn plain() {}
";
        let items = items_of(src);
        assert!(items.fns[0].taint_sink);
        assert_eq!(items.fns[1].taint_sanitize, Some(3));
        let f2 = &items.fns[2];
        assert!(!f2.taint_sink && f2.taint_sanitize.is_none());
    }

    #[test]
    fn hot_marker_in_string_does_not_arm() {
        let items = items_of("const M: &str = \"xtask: hot-path\";\nfn f() {}\n");
        assert!(!items.fns[0].hot);
    }

    #[test]
    fn use_aliases() {
        let src = "\
use prepare_markov::{SimpleMarkov, StateDistribution as Dist};
use prepare_tan::tan::TanClassifier;
use crate::helpers::{self, clamp};
use std::collections::BTreeMap;
";
        let items = items_of(src);
        let get = |k: &str| items.uses.get(k).map(|v| v.join("::"));
        assert_eq!(
            get("SimpleMarkov").as_deref(),
            Some("prepare_markov::SimpleMarkov")
        );
        assert_eq!(
            get("Dist").as_deref(),
            Some("prepare_markov::StateDistribution")
        );
        assert_eq!(
            get("TanClassifier").as_deref(),
            Some("prepare_tan::tan::TanClassifier")
        );
        assert_eq!(get("helpers").as_deref(), Some("crate::helpers"));
        assert_eq!(get("clamp").as_deref(), Some("crate::helpers::clamp"));
        assert_eq!(
            get("BTreeMap").as_deref(),
            Some("std::collections::BTreeMap")
        );
    }

    #[test]
    fn test_region_fns_are_marked() {
        let src = "\
fn real() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}
";
        let items = items_of(src);
        assert!(!items.fns[0].in_test);
        assert!(items.fns[1].in_test);
    }

    #[test]
    fn type_heads() {
        assert_eq!(
            type_head("&TransitionTable").as_deref(),
            Some("TransitionTable")
        );
        assert_eq!(type_head("&mut [f64]").as_deref(), Some("f64"));
        assert_eq!(type_head("Vec<StateDistribution>").as_deref(), Some("Vec"));
        assert_eq!(type_head("&'a str").as_deref(), Some("str"));
        assert_eq!(
            type_head("impl Iterator<Item = f64>").as_deref(),
            Some("Iterator")
        );
        assert_eq!(type_head(""), None);
    }
}
