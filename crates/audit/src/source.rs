//! Comment-aware text utilities for source scanning.
//!
//! Since the atscale-analyze rewrite these helpers sit on top of the real
//! lexer in [`crate::lex`]: comment stripping is token-based (so raw
//! strings, byte strings, and nested block comments are handled by one
//! authority), while the brace/paren matchers and the impl/`pub fn`
//! scanners keep their original text-level shape — precise enough for the
//! rustfmt-canonical constructs they audit, and dependency-free.

/// Replaces `//` line comments (including doc comments) and `/* */` block
/// comments with spaces, preserving byte offsets, line structure, and the
/// contents of string and char literals. Token-based: the lexer decides
/// what is a comment, so `//` inside a string or raw string never is.
pub fn strip_comments(src: &str) -> String {
    crate::lex::blank_comments(src)
}

/// [`strip_comments`] plus blanked string/char-literal *contents*
/// (delimiters kept): the view for scanning code patterns, where a
/// `format!` mentioned inside a message string must not look like a call.
pub fn strip_comments_and_literals(src: &str) -> String {
    crate::lex::blank_comments_and_literals(src)
}

/// Advances past a `"..."` literal starting at `i`, honouring `\` escapes.
fn skip_string(b: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Advances past an `r"..."` / `r#"..."#` literal starting at `i`.
fn skip_raw_string(b: &[u8], i: usize) -> usize {
    let mut hashes = 0;
    let mut j = i + 1;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= b.len() || b[j] != b'"' {
        return i + 1; // `r` was an ordinary identifier character
    }
    j += 1;
    while j < b.len() {
        if b[j] == b'"' && b.len() - j > hashes && b[j + 1..=j + hashes].iter().all(|&c| c == b'#')
        {
            return j + 1 + hashes;
        }
        j += 1;
    }
    j
}

/// Advances past a char literal (`'x'`, `'\n'`) or over a lifetime tick.
fn skip_char_or_lifetime(b: &[u8], i: usize) -> usize {
    if i + 1 < b.len() && b[i + 1] == b'\\' {
        let mut j = i + 2;
        while j < b.len() && b[j] != b'\'' {
            j += 1;
        }
        j + 1
    } else if i + 2 < b.len() && b[i + 2] == b'\'' {
        i + 3
    } else {
        i + 1 // a lifetime such as `'a`
    }
}

fn is_ident_byte(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Byte offsets at which `ident` occurs as a standalone identifier (not as
/// a substring of a longer identifier).
fn ident_positions<'a>(text: &'a str, ident: &'a str) -> impl Iterator<Item = usize> + 'a {
    let b = text.as_bytes();
    text.match_indices(ident).filter_map(move |(at, _)| {
        let before_ok = at == 0 || !is_ident_byte(b[at - 1]);
        let after = at + ident.len();
        let after_ok = after >= b.len() || !is_ident_byte(b[after]);
        (before_ok && after_ok).then_some(at)
    })
}

/// Given the index of an opening `{`, returns the index one past its
/// matching `}`, skipping braces inside string and char literals.
pub fn matching_brace(src: &str, open: usize) -> Option<usize> {
    let b = src.as_bytes();
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'{' => {
                depth += 1;
                i += 1;
            }
            b'}' => {
                depth -= 1;
                i += 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            b'"' => i = skip_string(b, i),
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                i = skip_raw_string(b, i);
            }
            b'\'' => i = skip_char_or_lifetime(b, i),
            _ => i += 1,
        }
    }
    None
}

/// Given the index of an opening `(`, returns the index one past its
/// matching `)`, skipping parens inside string and char literals — the
/// span of a macro invocation's arguments, for rules that must exclude
/// panic-message formatting from a scan.
pub fn matching_paren(src: &str, open: usize) -> Option<usize> {
    let b = src.as_bytes();
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'(' => {
                depth += 1;
                i += 1;
            }
            b')' => {
                depth -= 1;
                i += 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            b'"' => i = skip_string(b, i),
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                i = skip_raw_string(b, i);
            }
            b'\'' => i = skip_char_or_lifetime(b, i),
            _ => i += 1,
        }
    }
    None
}

/// The non-test prefix of a source file: everything before the first
/// `#[cfg(test)]` attribute (rustfmt places test modules last).
pub fn non_test_region(src: &str) -> &str {
    match src.find("#[cfg(test)]") {
        Some(at) => &src[..at],
        None => src,
    }
}

/// One `impl` block: optional trait name, the implementing type, and the
/// block body.
#[derive(Debug)]
pub struct ImplBlock<'a> {
    /// Last path segment of the implemented trait, if this is a trait impl.
    pub trait_name: Option<String>,
    /// Base name of the implementing type (generics and paths stripped).
    pub type_name: String,
    /// The impl block's body, braces excluded.
    pub body: &'a str,
}

/// Parses every `impl` block in comment-stripped source.
pub fn impl_blocks(src: &str) -> Vec<ImplBlock<'_>> {
    let mut out = Vec::new();
    for at in ident_positions(src, "impl") {
        let Some(open) = src[at..].find('{').map(|o| at + o) else {
            continue;
        };
        let Some(end) = matching_brace(src, open) else {
            continue;
        };
        let header = strip_impl_generics(src[at + 4..open].trim());
        let (trait_name, type_part) = match header.split_once(" for ") {
            Some((t, ty)) => (Some(base_name(t)), ty),
            None => (None, header),
        };
        out.push(ImplBlock {
            trait_name,
            type_name: base_name(type_part),
            body: &src[open + 1..end - 1],
        });
    }
    out
}

/// Drops a leading `<...>` generic parameter list from an impl header.
fn strip_impl_generics(header: &str) -> &str {
    if !header.starts_with('<') {
        return header;
    }
    let b = header.as_bytes();
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'<' => depth += 1,
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return header[i + 1..].trim_start();
                }
            }
            _ => {}
        }
    }
    header
}

/// `std::fmt::Display<'_>` → `Display`: last path segment, generics gone.
fn base_name(part: &str) -> String {
    let part = part.trim();
    let no_generics = part.split(['<', ' ']).next().unwrap_or(part);
    no_generics
        .rsplit("::")
        .next()
        .unwrap_or(no_generics)
        .to_string()
}

/// One `pub fn` found inside an impl block.
#[derive(Debug)]
pub struct PubFn<'a> {
    /// The function's name.
    pub name: String,
    /// The signature text, from `pub fn` up to the opening brace.
    pub signature: String,
    /// The function body, braces excluded (`""` for bodyless forms).
    pub body: &'a str,
}

impl PubFn<'_> {
    /// True when the receiver is `&mut self`.
    pub fn takes_mut_self(&self) -> bool {
        self.signature.contains("&mut self")
    }
}

/// True when the text before a `fn` keyword ends in `pub` or a restricted
/// form such as `pub(crate)` / `pub(in crate::x)`.
fn ends_with_pub(prefix: &str) -> bool {
    let p = prefix.trim_end();
    if p.ends_with("pub") {
        let before = p.len() - 3;
        return before == 0 || !is_ident_byte(p.as_bytes()[before - 1]);
    }
    if p.ends_with(')') {
        if let Some(at) = p.rfind("pub(") {
            let before_ok = at == 0 || !is_ident_byte(p.as_bytes()[at - 1]);
            let inner = &p[at + 4..p.len() - 1];
            return before_ok
                && inner
                    .bytes()
                    .all(|c| is_ident_byte(c) || c == b':' || c == b' ');
        }
    }
    false
}

/// Extracts every `pub fn` in an impl-block body (including `pub(crate)`
/// and other restricted-visibility forms).
pub fn pub_fns(body: &str) -> Vec<PubFn<'_>> {
    let b = body.as_bytes();
    let mut out = Vec::new();
    for at in ident_positions(body, "fn") {
        if !ends_with_pub(&body[..at]) {
            continue;
        }
        let mut cursor = at;
        let open = loop {
            match b.get(cursor) {
                Some(b'{') => break Some(cursor),
                Some(b';') | None => break None,
                _ => cursor += 1,
            }
        };
        let name_start = at + 3;
        let mut name_end = name_start;
        while name_end < b.len() && is_ident_byte(b[name_end]) {
            name_end += 1;
        }
        let name = body[name_start..name_end].to_string();
        match open {
            Some(open) => {
                let Some(end) = matching_brace(body, open) else {
                    continue;
                };
                out.push(PubFn {
                    name,
                    signature: body[at..open].to_string(),
                    body: &body[open + 1..end - 1],
                });
            }
            None => out.push(PubFn {
                name,
                signature: body[at..cursor].to_string(),
                body: "",
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_blanked_but_strings_survive() {
        let src = "let a = \"// not a comment\"; // real comment\nlet b = 1; /* gone */ let c = 2;";
        let s = strip_comments(src);
        assert!(s.contains("// not a comment"));
        assert!(!s.contains("real comment"));
        assert!(!s.contains("gone"));
        assert!(s.contains("let c = 2;"));
        assert_eq!(s.len(), src.len());
    }

    #[test]
    fn nested_block_comments_are_handled() {
        let s = strip_comments("a /* x /* y */ z */ b");
        assert_eq!(s.trim_end(), "a                   b".trim_end());
        assert!(s.contains('b'));
    }

    #[test]
    fn ident_matching_respects_boundaries() {
        let hits = |text| ident_positions(text, "cycles").collect::<Vec<_>>();
        assert_eq!(hits("let cycles = 1;"), [4]);
        assert!(hits("let walk_cycles = 1;").is_empty());
        assert!(hits("cyclesx").is_empty());
    }

    #[test]
    fn block_extraction_matches_braces() {
        let src = "pub fn events(&self) { if x { y } z } fn other() {}";
        let open = src.find('{').unwrap();
        let end = matching_brace(src, open).unwrap();
        assert_eq!(&src[open..end], "{ if x { y } z }");
        let call = "f(a, (b, \")\"), c) tail";
        assert_eq!(matching_paren(call, 1), Some(call.len() - 5));
    }

    #[test]
    fn impl_headers_are_parsed() {
        let src =
            "impl Foo { } impl fmt::Display for Bar<'_> { } impl<T> CheckInvariants for Baz<T> { }";
        let blocks = impl_blocks(src);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].type_name, "Foo");
        assert_eq!(blocks[0].trait_name, None);
        assert_eq!(blocks[1].trait_name.as_deref(), Some("Display"));
        assert_eq!(blocks[1].type_name, "Bar");
        assert_eq!(blocks[2].trait_name.as_deref(), Some("CheckInvariants"));
        assert_eq!(blocks[2].type_name, "Baz");
    }

    #[test]
    fn pub_fns_sees_multiline_signatures_and_visibility() {
        let body = "
            pub fn map(
                &mut self,
                va: u64,
            ) -> u64 { va }
            fn private(&mut self) {}
            pub(crate) fn crate_fn(&mut self) { x() }
            pub fn read_only(&self) -> u64 { 1 }
        ";
        let fns = pub_fns(body);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["map", "crate_fn", "read_only"]);
        assert!(fns[0].takes_mut_self());
        assert!(fns[1].takes_mut_self());
        assert!(!fns[2].takes_mut_self());
    }
}
