//! The v1 masked-substring analysis engine, preserved verbatim (minus
//! allow handling) for differential testing: on the real workspace, the
//! v2 token/call-graph engine must find everything v1 found on the rules
//! both engines implement. Everything here is `#[cfg(test)]`: the v1
//! engine never runs in the shipping lint.

/// v1: comments/literals blanked in place, detectors substring-match the
/// masked text. Known weaknesses (the reason v2 exists): nested block
/// comments closed at the first terminator, raw-string bodies with
/// quotes confused the masker, and adjacency-sensitive needles missed
/// spaced spellings.
#[cfg(test)]
pub mod v1 {
    use crate::scan::FilePolicy;

    pub struct LegacyFile {
        pub text: String,
        pub masked: String,
        pub test_regions: Vec<(usize, usize)>,
        pub policy: FilePolicy,
    }

    impl LegacyFile {
        fn line_of(&self, offset: usize) -> usize {
            self.text[..offset].bytes().filter(|&b| b == b'\n').count() + 1
        }

        fn in_test_region(&self, offset: usize) -> bool {
            self.test_regions
                .iter()
                .any(|&(s, e)| offset >= s && offset < e)
        }
    }

    pub fn analyze(text: String, policy: FilePolicy) -> LegacyFile {
        let bytes = text.as_bytes();
        let mut masked: Vec<u8> = bytes.to_vec();
        let mut i = 0usize;

        let blank = |masked: &mut [u8], from: usize, to: usize| {
            for b in masked.iter_mut().take(to).skip(from) {
                if *b != b'\n' {
                    *b = b' ';
                }
            }
        };

        while let Some(&b) = bytes.get(i) {
            match b {
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    let start = i;
                    while bytes.get(i).is_some_and(|&c| c != b'\n') {
                        i += 1;
                    }
                    blank(&mut masked, start, i);
                }
                b'/' if bytes.get(i + 1) == Some(&b'*') => {
                    let start = i;
                    i += 2;
                    let mut depth = 1u32;
                    while depth > 0 {
                        match (bytes.get(i), bytes.get(i + 1)) {
                            (None, _) => break,
                            (Some(b'/'), Some(b'*')) => {
                                depth += 1;
                                i += 2;
                            }
                            (Some(b'*'), Some(b'/')) => {
                                depth -= 1;
                                i += 2;
                            }
                            _ => i += 1,
                        }
                    }
                    blank(&mut masked, start, i);
                }
                b'"' => {
                    let end = skip_string(bytes, i);
                    blank(&mut masked, i + 1, end.saturating_sub(1));
                    i = end;
                }
                b'r' | b'b' if is_raw_string_start(bytes, i) => {
                    let (body_start, end) = skip_raw_string(bytes, i);
                    blank(&mut masked, body_start, end);
                    i = end;
                }
                b'b' if bytes.get(i + 1) == Some(&b'"') && !is_ident_tail(bytes, i) => {
                    let end = skip_string(bytes, i + 1);
                    blank(&mut masked, i + 2, end.saturating_sub(1));
                    i = end;
                }
                b'\'' => {
                    if let Some(end) = char_literal_end(bytes, i) {
                        blank(&mut masked, i + 1, end - 1);
                        i = end;
                    } else {
                        i += 1;
                    }
                }
                _ => {
                    i += 1;
                }
            }
        }

        let masked = String::from_utf8(masked).unwrap_or_else(|_| " ".repeat(bytes.len()));
        let test_regions = find_test_regions(&masked);
        LegacyFile {
            text,
            masked,
            test_regions,
            policy,
        }
    }

    fn is_ident_tail(bytes: &[u8], i: usize) -> bool {
        i > 0
            && bytes
                .get(i - 1)
                .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_')
    }

    fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
        if is_ident_tail(bytes, i) {
            return false;
        }
        let mut j = i;
        if bytes.get(j) == Some(&b'b') {
            j += 1;
        }
        if bytes.get(j) != Some(&b'r') {
            return false;
        }
        j += 1;
        while bytes.get(j) == Some(&b'#') {
            j += 1;
        }
        bytes.get(j) == Some(&b'"')
    }

    fn skip_string(bytes: &[u8], start: usize) -> usize {
        let mut i = start + 1;
        while let Some(&c) = bytes.get(i) {
            match c {
                b'\\' => i += 2,
                b'"' => return i + 1,
                _ => i += 1,
            }
        }
        i
    }

    fn skip_raw_string(bytes: &[u8], start: usize) -> (usize, usize) {
        let mut i = start;
        if bytes.get(i) == Some(&b'b') {
            i += 1;
        }
        i += 1;
        let mut hashes = 0usize;
        while bytes.get(i) == Some(&b'#') {
            hashes += 1;
            i += 1;
        }
        i += 1;
        let body_start = i;
        let closer: Vec<u8> = std::iter::once(b'"')
            .chain(std::iter::repeat_n(b'#', hashes))
            .collect();
        while i < bytes.len() {
            if bytes.get(i) == Some(&b'"') && bytes[i..].starts_with(&closer) {
                return (body_start, i + closer.len());
            }
            i += 1;
        }
        (body_start, i)
    }

    fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
        let next = *bytes.get(i + 1)?;
        if next == b'\\' {
            let mut j = i + 2;
            let limit = (i + 12).min(bytes.len());
            while j < limit {
                if bytes.get(j) == Some(&b'\'') {
                    return Some(j + 1);
                }
                j += 1;
            }
            return None;
        }
        let width = utf8_width(next);
        if bytes.get(i + 1 + width) == Some(&b'\'') {
            Some(i + 2 + width)
        } else {
            None
        }
    }

    fn utf8_width(first: u8) -> usize {
        match first {
            b if b < 0x80 => 1,
            b if b >= 0xF0 => 4,
            b if b >= 0xE0 => 3,
            _ => 2,
        }
    }

    fn find_test_regions(masked: &str) -> Vec<(usize, usize)> {
        let bytes = masked.as_bytes();
        let mut regions = Vec::new();
        let mut search = 0usize;
        while let Some(found) = masked[search..].find("#[cfg(") {
            let attr_start = search + found;
            let Some(close) = masked[attr_start..].find(']') else {
                break;
            };
            let attr_end = attr_start + close + 1;
            let attr_text = &masked[attr_start..attr_end];
            search = attr_end;
            if !attr_text.contains("test") {
                continue;
            }
            let mut i = attr_end;
            while bytes.get(i).is_some_and(|&c| c != b'{' && c != b';') {
                i += 1;
            }
            if bytes.get(i) != Some(&b'{') {
                regions.push((attr_start, i.min(bytes.len())));
                continue;
            }
            let mut depth = 0i64;
            let mut j = i;
            while let Some(&c) = bytes.get(j) {
                match c {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            regions.push((attr_start, (j + 1).min(bytes.len())));
            search = (j + 1).min(bytes.len());
        }
        regions
    }

    fn is_ident_byte(b: u8) -> bool {
        b.is_ascii_alphanumeric() || b == b'_'
    }

    fn word_occurrences<'a>(
        haystack: &'a str,
        needle: &'a str,
    ) -> impl Iterator<Item = usize> + 'a {
        let bytes = haystack.as_bytes();
        let mut from = 0usize;
        std::iter::from_fn(move || {
            while let Some(found) = haystack[from..].find(needle) {
                let at = from + found;
                from = at + needle.len();
                let before_ok = at == 0 || !bytes.get(at - 1).copied().is_some_and(is_ident_byte);
                let after_ok = !bytes
                    .get(at + needle.len())
                    .copied()
                    .is_some_and(is_ident_byte);
                if before_ok && after_ok {
                    return Some(at);
                }
            }
            None
        })
    }

    /// Every (line, rule) hit of the v1 detectors — no allow handling,
    /// the differential compares raw detector output on both sides.
    pub fn check_file(f: &LegacyFile) -> Vec<(usize, &'static str)> {
        let mut findings: Vec<(usize, &'static str)> = Vec::new();
        let mut push = |f: &LegacyFile, at: usize, rule: &'static str| {
            if !f.in_test_region(at) {
                findings.push((f.line_of(at), rule));
            }
        };
        if f.policy.determinism {
            if !f.policy.wall_clock_allowed {
                for name in ["Instant", "SystemTime"] {
                    for at in word_occurrences(&f.masked, name) {
                        push(f, at, "wall-clock");
                    }
                }
            }
            float_eq(f, &mut push);
            for at in word_occurrences(&f.masked, "partial_cmp") {
                let window_end = (at + 160).min(f.masked.len());
                let window = &f.masked[at..window_end];
                if window.contains(".unwrap()") || window.contains(".expect(") {
                    push(f, at, "nan-unsafe-sort");
                }
            }
        }
        if f.policy.count_panic_debt {
            for (rule, needle) in [
                ("unwrap", ".unwrap()"),
                ("expect", ".expect("),
                ("panic", "panic!"),
                ("unreachable", "unreachable!"),
                ("todo", "todo!"),
                ("unimplemented", "unimplemented!"),
            ] {
                let mut from = 0usize;
                while let Some(found) = f.masked[from..].find(needle) {
                    let at = from + found;
                    from = at + needle.len();
                    if needle.as_bytes()[0] != b'.'
                        && at > 0
                        && f.masked
                            .as_bytes()
                            .get(at - 1)
                            .copied()
                            .is_some_and(is_ident_byte)
                    {
                        continue;
                    }
                    push(f, at, rule);
                }
            }
            index_in_loop(f, &mut push);
        }
        hot_path_alloc(f, &mut push);
        findings
    }

    fn float_eq(f: &LegacyFile, push: &mut impl FnMut(&LegacyFile, usize, &'static str)) {
        let bytes = f.masked.as_bytes();
        let mut i = 0usize;
        while i + 1 < bytes.len() {
            let two = &bytes[i..i + 2];
            if two == b"==" || two == b"!=" {
                let lhs_float = preceding_token_is_float(&f.masked, i);
                let rhs_float = following_token_is_float(&f.masked, i + 2);
                if lhs_float || rhs_float {
                    push(f, i, "float-eq");
                }
                i += 2;
            } else {
                i += 1;
            }
        }
    }

    fn is_float_literal(token: &str) -> bool {
        let t = token.trim_end_matches("f64").trim_end_matches("f32");
        let t = t.strip_prefix('-').unwrap_or(t);
        if t.is_empty() || !t.as_bytes()[0].is_ascii_digit() {
            return false;
        }
        (t.contains('.') || t.contains('e') || t.contains('E'))
            && t.bytes()
                .all(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-' | b'_'))
    }

    fn preceding_token_is_float(text: &str, op_at: usize) -> bool {
        let before = text[..op_at].trim_end();
        let start = before
            .rfind(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-' | '+')))
            .map_or(0, |p| p + 1);
        is_float_literal(&before[start..])
    }

    fn following_token_is_float(text: &str, after_op: usize) -> bool {
        let rest = text[after_op..].trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-' | '+')))
            .unwrap_or(rest.len());
        is_float_literal(&rest[..end])
    }

    fn for_header_is_loop(rest: &str) -> bool {
        let bytes = rest.as_bytes();
        let mut i = 0usize;
        while let Some(&b) = bytes.get(i) {
            match b {
                b'{' | b';' => return false,
                _ if is_ident_byte(b) => {
                    let start = i;
                    while bytes.get(i).copied().is_some_and(is_ident_byte) {
                        i += 1;
                    }
                    if &rest[start..i] == "in" {
                        return true;
                    }
                }
                _ => i += 1,
            }
        }
        false
    }

    fn index_in_loop(f: &LegacyFile, push: &mut impl FnMut(&LegacyFile, usize, &'static str)) {
        let bytes = f.masked.as_bytes();
        #[derive(Clone, Copy, PartialEq)]
        enum Scope {
            Plain,
            Loop,
        }
        let mut stack: Vec<Scope> = Vec::new();
        let mut loop_depth = 0usize;
        let mut pending_loop = false;
        let mut i = 0usize;
        while let Some(&b) = bytes.get(i) {
            if is_ident_byte(b) {
                let start = i;
                while bytes.get(i).copied().is_some_and(is_ident_byte) {
                    i += 1;
                }
                let word = &f.masked[start..i];
                if matches!(word, "while" | "loop")
                    || (word == "for" && for_header_is_loop(&f.masked[i..]))
                {
                    pending_loop = true;
                }
                continue;
            }
            match b {
                b'{' => {
                    let scope = if pending_loop {
                        Scope::Loop
                    } else {
                        Scope::Plain
                    };
                    pending_loop = false;
                    if scope == Scope::Loop {
                        loop_depth += 1;
                    }
                    stack.push(scope);
                }
                b'}' if stack.pop() == Some(Scope::Loop) => {
                    loop_depth = loop_depth.saturating_sub(1);
                }
                b';' => pending_loop = false,
                b'[' if loop_depth > 0 => {
                    let prev_end = bytes[..i].iter().rposition(|b| !b.is_ascii_whitespace());
                    let is_indexing = prev_end.is_some_and(|e| match bytes.get(e).copied() {
                        Some(b')' | b']') => true,
                        Some(p) if is_ident_byte(p) => {
                            let mut s = e;
                            while s > 0 && bytes.get(s - 1).copied().is_some_and(is_ident_byte) {
                                s -= 1;
                            }
                            !matches!(
                                &f.masked[s..=e],
                                "in" | "return" | "break" | "if" | "else" | "match" | "move"
                            )
                        }
                        _ => false,
                    });
                    if is_indexing {
                        let mut depth = 1i64;
                        let mut j = i + 1;
                        while depth > 0 {
                            match bytes.get(j) {
                                None => break,
                                Some(b'[') => depth += 1,
                                Some(b']') => depth -= 1,
                                _ => {}
                            }
                            j += 1;
                        }
                        let inner = f.masked[i + 1..j.saturating_sub(1)].trim();
                        let literal_index = !inner.is_empty()
                            && inner.bytes().all(|b| b.is_ascii_digit() || b == b'_');
                        let range_slice = inner.contains("..");
                        if !literal_index && !range_slice && !inner.is_empty() {
                            push(f, i, "index-in-loop");
                        }
                        i = j;
                        continue;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    fn hot_path_alloc(f: &LegacyFile, push: &mut impl FnMut(&LegacyFile, usize, &'static str)) {
        let bytes = f.masked.as_bytes();
        let mut search = 0usize;
        while let Some(found) = f.text[search..].find("xtask: hot-path") {
            let marker_at = search + found;
            search = marker_at + "xtask: hot-path".len();
            let line_start = f.text[..marker_at].rfind('\n').map_or(0, |p| p + 1);
            if !f.text[line_start..marker_at].contains("//") {
                continue;
            }
            let Some(fn_rel) = word_occurrences(&f.masked[search..], "fn").next() else {
                continue;
            };
            let fn_at = search + fn_rel;
            let Some(open_rel) = f.masked[fn_at..].find('{') else {
                continue;
            };
            let open = fn_at + open_rel;
            let mut depth = 0i64;
            let mut j = open;
            while let Some(&c) = bytes.get(j) {
                match c {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let body_end = (j + 1).min(f.masked.len());
            for needle in [".clone()", ".to_vec()", "vec!["] {
                let mut from = open;
                while let Some(hit) = f.masked[from..body_end].find(needle) {
                    let at = from + hit;
                    from = at + needle.len();
                    push(f, at, "hot-path-alloc");
                }
            }
        }
    }
}

#[cfg(test)]
mod diff {
    use super::v1;
    use crate::{rules, scan};
    use std::collections::BTreeSet;
    use std::path::Path;

    /// Rules both engines implement, compared site-for-site under their
    /// v2 names (see [`v2_rule`]).
    const SHARED_RULES: &[&str] = &[
        "time-source",
        "float-eq",
        "nan-unsafe-sort",
        "unwrap",
        "expect",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "index-in-loop",
        "hot-path-alloc",
    ];

    /// The v2 name of a v1 rule: v2 folds v1's `wall-clock` into
    /// `time-source`, which flags the same `Instant`/`SystemTime` sites.
    fn v2_rule(v1_rule: &'static str) -> &'static str {
        match v1_rule {
            "wall-clock" => "time-source",
            rule => rule,
        }
    }

    /// Documented v1 findings the v2 engine deliberately drops — each a
    /// false positive of the masked-substring scanner. `(file suffix,
    /// line, rule)`. Empty today: v2 subsumes v1 on this tree.
    const EXCEPTIONS: &[(&str, usize, &str)] = &[];

    /// On the real workspace, every v1 finding must reappear in v2 at
    /// the same (file, line, rule), under its v2 name — minus the
    /// documented exceptions.
    /// Allow markers are stripped on the v2 side so both engines report
    /// raw detector output.
    #[test]
    fn v2_findings_are_a_superset_of_v1() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = scan::load_workspace(&root).expect("workspace loads");
        for f in &mut files {
            f.allows.clear();
        }
        let crate_map = scan::crate_idents(&root);
        let v2: BTreeSet<(String, usize, &str)> = rules::check_workspace(&files, &crate_map)
            .into_iter()
            .filter(|f| SHARED_RULES.contains(&f.rule))
            .map(|f| (f.file, f.line, f.rule))
            .collect();

        let mut v1_set: BTreeSet<(String, usize, &'static str)> = BTreeSet::new();
        for f in &files {
            let lf = v1::analyze(f.text.clone(), f.policy);
            for (line, rule) in v1::check_file(&lf) {
                v1_set.insert((f.rel_path.clone(), line, v2_rule(rule)));
            }
        }

        let missing: Vec<_> = v1_set
            .iter()
            .filter(|(file, line, rule)| {
                !v2.contains(&(file.clone(), *line, *rule))
                    && !EXCEPTIONS
                        .iter()
                        .any(|(ef, el, er)| file.ends_with(ef) && el == line && er == rule)
            })
            .collect();
        assert!(
            missing.is_empty(),
            "v1 findings the v2 engine lost: {missing:#?}"
        );
    }
}
