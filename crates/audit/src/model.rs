//! The item model: functions, calls, locks, and `analyze:allow` sites.
//!
//! Built on the token stream from [`crate::lex`], this module extracts the
//! program structure the analysis passes need:
//!
//! * **function items** — every `fn`, associated with its `impl` type (and
//!   trait) when it has one, with its visibility, receiver and `#[cold]`
//!   marker, and exact body token ranges (nested closures belong to the
//!   enclosing function; nested `fn` items get their own entry and are
//!   excluded from the outer body's scans);
//! * **call sites** — `name(...)`, `.name(...)`, `Path::name(...)`, and
//!   `name!(...)` macro invocations, each with its qualifying path prefix
//!   so `Instant::now` and `RunStore::key` are distinguishable from other
//!   `now`/`key` functions;
//! * **lock declarations and acquisitions** — `Mutex`/`RwLock` struct
//!   fields, statics, and annotated locals, plus every `.lock()` /
//!   `.read()` / `.write()` acquisition resolved back to a declaration
//!   where the receiver chain allows;
//! * **`analyze:allow(...)` escape hatches** — parsed from comment tokens,
//!   each covering its own line and the next code line.
//!
//! Resolution is name-based, not type-based: the model documents exactly
//! what it infers (receiver chains, impl association) and the passes treat
//! anything unresolved conservatively.

use crate::lex::{lex, Token, TokenKind};

/// Rust keywords that can precede `(` without being calls.
const KEYWORDS: [&str; 28] = [
    "if", "while", "match", "for", "loop", "return", "as", "in", "let", "else", "move", "unsafe",
    "fn", "impl", "struct", "enum", "trait", "mod", "use", "pub", "where", "break", "continue",
    "ref", "mut", "dyn", "box", "await",
];

/// One function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Workspace-relative path of the declaring file.
    pub path: String,
    /// The function's bare name.
    pub name: String,
    /// `Type::name` for methods, `name` for free functions.
    pub qualified: String,
    /// The `impl` type the function belongs to, if any.
    pub impl_type: Option<String>,
    /// The trait of an enclosing `impl Trait for Type` block (last path
    /// segment, generics dropped).
    pub impl_trait: Option<String>,
    /// True for `pub` and restricted `pub(crate)` / `pub(in …)` items.
    pub is_pub: bool,
    /// True when the receiver is `&mut self` (lifetime allowed:
    /// `&'a mut self`).
    pub mut_self: bool,
    /// True when a `#[cold]` attribute precedes the `fn`.
    pub cold: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range `[start, end)` of the body (braces excluded);
    /// `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// True when the function lives in a `#[cfg(test)]` region or a
    /// `tests/` integration file.
    pub in_tests: bool,
    /// Token index of the `fn` keyword.
    pub token: usize,
}

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `name(...)` — a free-function call.
    Free,
    /// `.name(...)` — a method call.
    Method,
    /// `path::name(...)` — a qualified call; the prefix is recorded.
    Qualified,
    /// `name!(...)` — a macro invocation.
    Macro,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment).
    pub name: String,
    /// Last qualifying path segment before the name (`Instant` in
    /// `Instant::now`, `thread` in `std::thread::current`), if any.
    pub prefix: Option<String>,
    /// Call kind.
    pub kind: CallKind,
    /// 1-based line of the callee name.
    pub line: u32,
    /// Token index of the callee name within the file's token stream.
    pub token: usize,
}

/// What kind of lock a declaration is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `Mutex<_>` (std or parking_lot).
    Mutex,
    /// `RwLock<_>`.
    RwLock,
}

/// The lock kind a type name spells, if it names one.
fn lock_kind(word: &str) -> Option<LockKind> {
    match word {
        "Mutex" => Some(LockKind::Mutex),
        "RwLock" => Some(LockKind::RwLock),
        _ => None,
    }
}

/// One declared lock.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Stable identity: `Type.field` for struct fields, `static NAME` for
    /// statics, `fn_name.local` for annotated locals.
    pub id: String,
    /// Mutex or RwLock.
    pub kind: LockKind,
    /// Declaring file.
    pub path: String,
    /// 1-based declaration line.
    pub line: u32,
}

/// One lock acquisition (`.lock()` / `.read()` / `.write()`).
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Resolved lock identity, or `path:receiver` when the receiver chain
    /// does not reach a known declaration.
    pub lock: String,
    /// True when resolution reached a declaration.
    pub resolved: bool,
    /// The acquiring method (`lock`, `read`, `write`).
    pub method: String,
    /// 1-based line.
    pub line: u32,
    /// Token index of the acquiring method name.
    pub token: usize,
}

/// One `analyze:allow(tag)` escape hatch parsed from a comment.
#[derive(Debug, Clone)]
pub struct AllowSite {
    /// The tag inside the parentheses (`determinism`, `lock-io`, `panic`).
    pub tag: String,
    /// Everything after the closing paren and optional `:` — the
    /// justification; empty when the author gave none.
    pub justification: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// First line of the statement the comment precedes.
    pub covers_line: u32,
    /// Last line of that statement (rustfmt may split one statement over
    /// several lines; the exemption covers all of them).
    pub covers_end: u32,
}

impl AllowSite {
    /// True when this exemption covers a finding on `line`.
    pub fn covers(&self, line: u32) -> bool {
        line == self.line || (self.covers_line..=self.covers_end).contains(&line)
    }
}

/// The analysed form of one source file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path.
    pub path: String,
    /// The raw source the tokens index into.
    pub src: String,
    /// The full token stream (comments included).
    pub tokens: Vec<Token>,
    /// Every function item, in source order.
    pub fns: Vec<FnItem>,
    /// Lock declarations in this file.
    pub locks: Vec<LockDecl>,
    /// `analyze:allow` sites in this file.
    pub allows: Vec<AllowSite>,
    /// Identifiers bound with a `HashMap`/`HashSet` type annotation or
    /// constructor in this file (fields, locals, params) — the receivers
    /// whose iteration order is nondeterministic.
    pub hash_bindings: Vec<String>,
    /// Byte offset of the first `#[cfg(test)]` attribute (as code tokens;
    /// rustfmt places test modules last): everything from here on is test
    /// code. This is the audit's only non-test boundary.
    test_start: Option<usize>,
}

impl FileModel {
    /// Parses one file. `path` decides test-ness for `tests/` files.
    pub fn parse(path: &str, src: &str) -> FileModel {
        let mut model = FileModel {
            path: path.to_string(),
            src: src.to_string(),
            tokens: lex(src),
            fns: Vec::new(),
            locks: Vec::new(),
            allows: Vec::new(),
            hash_bindings: Vec::new(),
            test_start: None,
        };
        model.test_start = (0..model.tokens.len())
            .find(|&i| model.spells(i, &["#", "[", "cfg", "(", "test", ")", "]"]))
            .map(|i| model.tokens[i].start);
        model.parse_allows();
        model.parse_items();
        model.parse_bindings();
        model
    }

    /// True when byte offset `at` is inside the test region.
    fn offset_in_tests(&self, at: usize) -> bool {
        self.path.contains("/tests/") || self.test_start.is_some_and(|t| at >= t)
    }

    /// Indices of the code tokens (comments skipped) outside the test
    /// region.
    pub fn non_test_code(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.tokens.len()).filter(|&i| {
            !self.tokens[i].is_comment() && !self.offset_in_tests(self.tokens[i].start)
        })
    }

    /// When the code tokens from index `i` on have exactly the texts
    /// `words` (comments between them skipped), the index of the last one:
    /// `["Vec", ":", ":", "new"]` matches `Vec::new` but neither
    /// `SmallVec::new` nor the text of a string literal.
    pub fn spelled(&self, i: usize, words: &[&str]) -> Option<usize> {
        let mut at = Some(i).filter(|&i| i < self.tokens.len() && !self.tokens[i].is_comment());
        let mut last = None;
        for word in words {
            let j = at.filter(|&j| self.tokens[j].text(&self.src) == *word)?;
            last = Some(j);
            at = self.next_code_token(j).map(|(n, _)| n);
        }
        last
    }

    /// True when the code tokens from index `i` on spell `words`.
    pub fn spells(&self, i: usize, words: &[&str]) -> bool {
        self.spelled(i, words).is_some()
    }

    /// The token at `i`, skipping backward over comments.
    pub fn prev_code_token(&self, i: usize) -> Option<(usize, &Token)> {
        let mut j = i;
        while j > 0 {
            j -= 1;
            if !self.tokens[j].is_comment() {
                return Some((j, &self.tokens[j]));
            }
        }
        None
    }

    /// The token at `i`, skipping forward over comments.
    pub fn next_code_token(&self, i: usize) -> Option<(usize, &Token)> {
        let mut j = i + 1;
        while j < self.tokens.len() {
            if !self.tokens[j].is_comment() {
                return Some((j, &self.tokens[j]));
            }
            j += 1;
        }
        None
    }

    /// Token index one past the delimiter that matches the opener at `open`
    /// (`{`/`(`/`[`), honouring nesting. `None` when unbalanced.
    pub fn matching(&self, open: usize) -> Option<usize> {
        let (o, c) = match self.src.as_bytes()[self.tokens[open].start] {
            b'{' => (b'{', b'}'),
            b'(' => (b'(', b')'),
            b'[' => (b'[', b']'),
            _ => return None,
        };
        let mut depth = 0i64;
        for i in open..self.tokens.len() {
            let t = &self.tokens[i];
            if t.kind == TokenKind::Punct {
                let ch = self.src.as_bytes()[t.start];
                if ch == o {
                    depth += 1;
                } else if ch == c {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i + 1);
                    }
                }
            }
        }
        None
    }

    /// Token index of the opener that matches the closer at `close`
    /// (`)`/`]`), scanning backward and honouring nesting.
    pub fn matching_open(&self, close: usize) -> Option<usize> {
        let (o, c) = match self.src.as_bytes()[self.tokens[close].start] {
            b')' => (b'(', b')'),
            b']' => (b'[', b']'),
            _ => return None,
        };
        let mut depth = 0i64;
        for i in (0..=close).rev() {
            let t = &self.tokens[i];
            if t.kind == TokenKind::Punct {
                let ch = self.src.as_bytes()[t.start];
                if ch == c {
                    depth += 1;
                } else if ch == o {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i);
                    }
                }
            }
        }
        None
    }

    /// Parses `analyze:allow(tag): justification` out of comment tokens.
    fn parse_allows(&mut self) {
        let mut allows = Vec::new();
        for (i, t) in self.tokens.iter().enumerate() {
            if !t.is_comment() {
                continue;
            }
            let text = t.text(&self.src);
            let Some(at) = text.find("analyze:allow(") else {
                continue;
            };
            let rest = &text[at + "analyze:allow(".len()..];
            let Some(close) = rest.find(')') else {
                continue;
            };
            let tag = rest[..close].trim().to_string();
            let justification = rest[close + 1..]
                .trim_start_matches([':', ' '])
                .trim_end_matches("*/")
                .trim()
                .to_string();
            // The exemption covers the whole statement that follows the
            // comment: from the next code token to the terminating `;` (or
            // the first brace — block statements cover their header only).
            // Anchoring on the statement, not the next line, keeps allows
            // stable when rustfmt splits a long call chain across lines.
            let next = self.tokens[i + 1..]
                .iter()
                .position(|n| !n.is_comment())
                .map(|o| i + 1 + o);
            let (covers_line, covers_end) = match next {
                None => (t.line, t.line),
                Some(start) => {
                    let mut end = self.tokens[start].line;
                    for n in &self.tokens[start..] {
                        if n.is_comment() {
                            continue;
                        }
                        end = n.line;
                        if n.is_punct(&self.src, b';')
                            || n.is_punct(&self.src, b'{')
                            || n.is_punct(&self.src, b'}')
                        {
                            break;
                        }
                    }
                    (self.tokens[start].line, end)
                }
            };
            allows.push(AllowSite {
                tag,
                justification,
                line: t.line,
                covers_line,
                covers_end,
            });
        }
        self.allows = allows;
    }

    /// Walks the token stream extracting `impl` blocks, `struct` lock
    /// fields, statics, and `fn` items.
    fn parse_items(&mut self) {
        let mut fns = Vec::new();
        let mut locks = Vec::new();
        // (impl type, impl trait, token end) entries for open impl blocks.
        let mut impl_stack: Vec<(String, Option<String>, usize)> = Vec::new();
        let mut i = 0usize;
        while i < self.tokens.len() {
            let t = self.tokens[i];
            if t.is_comment() {
                i += 1;
                continue;
            }
            impl_stack.retain(|(_, _, end)| i < *end);
            if t.kind == TokenKind::Ident {
                match t.text(&self.src) {
                    "impl" => {
                        if let Some((name, trait_name, body_open)) = self.impl_header(i) {
                            if let Some(end) = self.matching(body_open) {
                                impl_stack.push((name, trait_name, end));
                                i = body_open + 1;
                                continue;
                            }
                        }
                    }
                    "struct" => {
                        self.struct_locks(i, &mut locks);
                    }
                    "static" | "const" => {
                        self.static_lock(i, &mut locks);
                    }
                    "fn" => {
                        // `fn` inside a fn-pointer type (`fn(` immediately)
                        // is not an item; an item `fn` is followed by a name.
                        if let Some((ni, name_tok)) = self.next_code_token(i) {
                            if name_tok.kind == TokenKind::Ident {
                                let name = name_tok.text(&self.src).to_string();
                                let (params, body, next) = self.fn_signature(ni);
                                let (is_pub, cold) = self.fn_prefix(i);
                                let (impl_type, impl_trait) =
                                    impl_stack.last().map_or((None, None), |(ty, tr, _)| {
                                        (Some(ty.clone()), tr.clone())
                                    });
                                let qualified = match &impl_type {
                                    Some(ty) => format!("{ty}::{name}"),
                                    None => name.clone(),
                                };
                                fns.push(FnItem {
                                    path: self.path.clone(),
                                    name,
                                    qualified,
                                    impl_type,
                                    impl_trait,
                                    is_pub,
                                    mut_self: params.is_some_and(|p| self.receiver_is_mut_self(p)),
                                    cold,
                                    line: t.line,
                                    body,
                                    in_tests: self.offset_in_tests(t.start),
                                    token: i,
                                });
                                // Do not skip the body: nested fn items and
                                // impls inside it still get parsed.
                                i = next.min(ni + 1);
                                continue;
                            }
                        }
                    }
                    "let" => {
                        self.let_lock(i, &fns, &mut locks);
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        self.fns = fns;
        self.locks = locks;
    }

    /// Parses an `impl` header starting at token `i`; returns the
    /// implementing type's base name, the trait's (for `impl Trait for
    /// Type`), and the body-opening `{` token index.
    fn impl_header(&self, i: usize) -> Option<(String, Option<String>, usize)> {
        // Find the body-opening brace at angle-depth 0.
        let mut angle = 0i64;
        let mut j = i + 1;
        let mut idents: Vec<&str> = Vec::new();
        while j < self.tokens.len() {
            let t = &self.tokens[j];
            match t.kind {
                TokenKind::Punct => match self.src.as_bytes()[t.start] {
                    b'<' => angle += 1,
                    b'>' => angle -= 1,
                    b'{' if angle <= 0 => break,
                    b';' => return None,
                    _ => {}
                },
                TokenKind::Ident if angle == 0 => idents.push(t.text(&self.src)),
                _ => {}
            }
            j += 1;
        }
        if j >= self.tokens.len() {
            return None;
        }
        // `impl Trait for Type` → the segments either side of `for`;
        // `impl Type` → the last path segment. A `where` clause (and any
        // `for<'a>` bound in it) is not part of the header.
        let header = match idents.iter().position(|w| *w == "where") {
            Some(at) => &idents[..at],
            None => &idents[..],
        };
        let (ty, trait_name) = match header.iter().position(|w| *w == "for") {
            Some(at) => (header.get(at + 1), at.checked_sub(1).map(|t| header[t])),
            None => (header.last(), None),
        };
        ty.map(|ty| (ty.to_string(), trait_name.map(str::to_string), j))
    }

    /// Visibility and `#[cold]` marker of the `fn` keyword at token `i`,
    /// read backward over its qualifiers (`const`, `async`, `unsafe`,
    /// `extern "C"`), its visibility (`pub`, `pub(crate)`, `pub(in …)`)
    /// and its outer attributes.
    fn fn_prefix(&self, i: usize) -> (bool, bool) {
        let mut j = i;
        while let Some((pj, p)) = self.prev_code_token(j) {
            let qualifier = p.kind == TokenKind::Str
                || ["const", "async", "unsafe", "extern"]
                    .iter()
                    .any(|q| p.is_ident(&self.src, q));
            if !qualifier {
                break;
            }
            j = pj;
        }
        let vis = match self.prev_code_token(j) {
            Some((pj, p)) if p.is_punct(&self.src, b')') => self
                .matching_open(pj)
                .and_then(|open| self.prev_code_token(open)),
            other => other,
        };
        let is_pub = match vis {
            Some((vj, v)) if v.is_ident(&self.src, "pub") => {
                j = vj;
                true
            }
            _ => false,
        };
        let mut cold = false;
        while let Some((close, p)) = self.prev_code_token(j) {
            if !p.is_punct(&self.src, b']') {
                break;
            }
            let Some(open) = self.matching_open(close) else {
                break;
            };
            match self.prev_code_token(open) {
                Some((hash, h)) if h.is_punct(&self.src, b'#') => {
                    cold |= self.spells(open, &["[", "cold", "]"]);
                    j = hash;
                }
                _ => break,
            }
        }
        (is_pub, cold)
    }

    /// True when the parameter list opening at token `open` starts with a
    /// `&mut self` receiver (a lifetime such as `&'a mut self` allowed).
    fn receiver_is_mut_self(&self, open: usize) -> bool {
        let words: Vec<&str> = self.tokens[open + 1..]
            .iter()
            .filter(|t| !t.is_comment() && t.kind != TokenKind::Lifetime)
            .take(3)
            .map(|t| t.text(&self.src))
            .collect();
        words == ["&", "mut", "self"]
    }

    /// Records `Mutex`/`RwLock` fields of the struct declared at token `i`.
    fn struct_locks(&self, i: usize, locks: &mut Vec<LockDecl>) {
        let Some((_, name_tok)) = self.next_code_token(i) else {
            return;
        };
        if name_tok.kind != TokenKind::Ident {
            return;
        }
        let struct_name = name_tok.text(&self.src).to_string();
        // Find the `{` (tuple structs and unit structs have no lock fields
        // we can name).
        let mut j = i + 1;
        let open = loop {
            let Some(t) = self.tokens.get(j) else { return };
            if t.is_punct(&self.src, b'{') {
                break j;
            }
            if t.is_punct(&self.src, b';') || t.is_punct(&self.src, b'(') {
                return;
            }
            j += 1;
        };
        let Some(end) = self.matching(open) else {
            return;
        };
        // Fields: `name : ... Mutex/RwLock < ...` at depth 1.
        let mut k = open + 1;
        while k + 1 < end {
            let t = &self.tokens[k];
            if t.kind == TokenKind::Ident && self.tokens[k + 1].is_punct(&self.src, b':') {
                let field = t.text(&self.src).to_string();
                // Scan the field's type up to the `,` at depth 0.
                let mut depth = 0i64;
                let mut m = k + 2;
                while m < end {
                    let u = &self.tokens[m];
                    if u.kind == TokenKind::Punct {
                        match self.src.as_bytes()[u.start] {
                            b'<' | b'(' | b'[' => depth += 1,
                            b'>' | b')' | b']' => depth -= 1,
                            b',' if depth <= 0 => break,
                            _ => {}
                        }
                    } else if u.kind == TokenKind::Ident {
                        if let Some(kind) = lock_kind(u.text(&self.src)) {
                            locks.push(LockDecl {
                                id: format!("{struct_name}.{field}"),
                                kind,
                                path: self.path.clone(),
                                line: t.line,
                            });
                            break;
                        }
                    }
                    m += 1;
                }
                // Continue after the field's type.
                k = m;
            }
            k += 1;
        }
    }

    /// Records `static NAME: Mutex<...>` / `const`-style lock declarations.
    fn static_lock(&self, i: usize, locks: &mut Vec<LockDecl>) {
        let Some((ni, name_tok)) = self.next_code_token(i) else {
            return;
        };
        if name_tok.kind != TokenKind::Ident {
            return;
        }
        let name = name_tok.text(&self.src).to_string();
        // Look at the next few tokens for `: Mutex/RwLock <`.
        let mut j = ni + 1;
        let mut steps = 0;
        while let Some(t) = self.tokens.get(j) {
            steps += 1;
            if steps > 8 || t.is_punct(&self.src, b'=') || t.is_punct(&self.src, b';') {
                return;
            }
            if t.kind == TokenKind::Ident {
                if let Some(kind) = lock_kind(t.text(&self.src)) {
                    locks.push(LockDecl {
                        id: format!("static {name}"),
                        kind,
                        path: self.path.clone(),
                        line: name_tok.line,
                    });
                    return;
                }
            }
            j += 1;
        }
    }

    /// Records `let name: ...Mutex...` / `let name = Mutex::new(...)`
    /// locals, scoped to the enclosing function.
    fn let_lock(&self, i: usize, fns: &[FnItem], locks: &mut Vec<LockDecl>) {
        let Some((ni, name)) = self.let_name(i) else {
            return;
        };
        // Scan to the end of the statement for a Mutex/RwLock mention at
        // the *start* of the type or initializer (a `Vec<Mutex<_>>` also
        // counts: locking an element locks a declared local lock).
        let mut j = ni + 1;
        let mut depth = 0i64;
        while let Some(t) = self.tokens.get(j) {
            if t.kind == TokenKind::Punct {
                match self.src.as_bytes()[t.start] {
                    b'(' | b'[' | b'{' | b'<' => depth += 1,
                    b')' | b']' | b'}' | b'>' => depth -= 1,
                    b';' if depth <= 0 => return,
                    _ => {}
                }
            } else if t.kind == TokenKind::Ident {
                if let Some(kind) = lock_kind(t.text(&self.src)) {
                    let owner = fns
                        .iter()
                        .rev()
                        .find(|f| f.body.is_some_and(|(s, e)| (s..e).contains(&i)))
                        .map_or("?", |f| f.name.as_str());
                    locks.push(LockDecl {
                        id: format!("{owner}.{name}"),
                        kind,
                        path: self.path.clone(),
                        line: self.tokens[ni].line,
                    });
                    return;
                }
            }
            j += 1;
        }
    }

    /// Scans a `fn` item's signature given the name-token index: returns
    /// the parameter list's `(` token, the body token range (braces
    /// excluded) and the index to resume at.
    fn fn_signature(&self, name_i: usize) -> (Option<usize>, Option<(usize, usize)>, usize) {
        let mut j = name_i + 1;
        let mut depth = 0i64;
        let mut params = None;
        while let Some(t) = self.tokens.get(j) {
            if t.kind == TokenKind::Punct {
                match self.src.as_bytes()[t.start] {
                    b'(' if depth == 0 && params.is_none() => {
                        params = Some(j);
                        depth += 1;
                    }
                    b'<' | b'(' | b'[' => depth += 1,
                    b'>' | b')' | b']' => depth -= 1,
                    b'{' if depth <= 0 => {
                        let body = self.matching(j).map(|end| (j + 1, end - 1));
                        return (params, body, j + 1);
                    }
                    b';' if depth <= 0 => return (params, None, j + 1),
                    _ => {}
                }
            }
            j += 1;
        }
        (params, None, j)
    }

    /// Collects identifiers declared with `HashMap`/`HashSet` types or
    /// constructors anywhere in this file.
    fn parse_bindings(&mut self) {
        let mut names = Vec::new();
        for (i, t) in self.tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let word = t.text(&self.src);
            if word != "HashMap" && word != "HashSet" {
                continue;
            }
            // Walk back across the type/initializer to the binding name:
            // `name : [path::]HashMap`, `name = HashMap::new()`, or
            // `name : Foo<HashMap<...>>` style — take the nearest
            // `ident :`/`ident =` at lower angle depth before this token.
            let mut j = i;
            let mut guard = 0;
            while let Some((pj, p)) = self.prev_code_token(j) {
                guard += 1;
                if guard > 24 || p.is_punct(&self.src, b';') || p.is_punct(&self.src, b'{') {
                    break;
                }
                if p.is_punct(&self.src, b':') || p.is_punct(&self.src, b'=') {
                    if let Some((_, n)) = self.prev_code_token(pj) {
                        if n.kind == TokenKind::Ident {
                            let name = n.text(&self.src).to_string();
                            if !names.contains(&name) {
                                names.push(name);
                            }
                        }
                    }
                    break;
                }
                j = pj;
            }
        }
        self.hash_bindings = names;
    }

    /// Token indices belonging to the body of `f`, excluding ranges that
    /// belong to nested `fn` items (closures stay with the outer fn).
    pub fn body_token_indices(&self, f: &FnItem) -> Vec<usize> {
        let Some((start, end)) = f.body else {
            return Vec::new();
        };
        let nested: Vec<(usize, usize)> = self
            .fns
            .iter()
            .filter(|g| !std::ptr::eq(*g, f))
            .filter_map(|g| g.body)
            .filter(|(s, e)| *s >= start && *e <= end)
            .collect();
        let mut out = Vec::new();
        let mut i = start;
        while i < end {
            if let Some(&(_, ne)) = nested.iter().find(|(s, e)| (*s..*e).contains(&i)) {
                i = ne;
                continue;
            }
            out.push(i);
            i += 1;
        }
        out
    }

    /// Extracts every call site in the body of `f`, excluding token ranges
    /// belonging to nested `fn` items.
    pub fn calls_of(&self, f: &FnItem) -> Vec<CallSite> {
        let mut out = Vec::new();
        for i in self.body_token_indices(f) {
            let t = &self.tokens[i];
            if t.kind == TokenKind::Ident && !KEYWORDS.contains(&t.text(&self.src)) {
                if let Some(site) = self.call_at(i) {
                    out.push(site);
                }
            }
        }
        out
    }

    /// Classifies the identifier at token `i` as a call site, if it is one.
    fn call_at(&self, i: usize) -> Option<CallSite> {
        let t = &self.tokens[i];
        let name = t.text(&self.src).to_string();
        // `fn name(` is a declaration, not a call.
        if let Some((_, p)) = self.prev_code_token(i) {
            if p.is_ident(&self.src, "fn") {
                return None;
            }
        }
        let (_, next) = self.next_code_token(i)?;
        // Macro: `name ! (`/`[`/`{`.
        if next.is_punct(&self.src, b'!') {
            return Some(CallSite {
                name,
                prefix: None,
                kind: CallKind::Macro,
                line: t.line,
                token: i,
            });
        }
        if !next.is_punct(&self.src, b'(') && !self.turbofish_paren_follows(i) {
            // Qualified *path value* uses like `Instant::now` passed as a
            // callback still count when preceded by `::`; only call-like
            // uses matter for the graph, so require parens. Turbofish
            // calls (`drive::<BaselineArch>(...)`) are calls too — losing
            // them would silently drop edges from statically-dispatched
            // code paths.
            return None;
        }
        // Look backward: `.name(` is a method, `a::name(` is qualified.
        match self.prev_code_token(i) {
            Some((pj, p)) if p.is_punct(&self.src, b'.') => {
                let _ = pj;
                Some(CallSite {
                    name,
                    prefix: None,
                    kind: CallKind::Method,
                    line: t.line,
                    token: i,
                })
            }
            Some((pj, p)) if p.is_punct(&self.src, b':') => {
                // Two colons then the qualifying segment.
                let (pj2, p2) = self.prev_code_token(pj)?;
                if !p2.is_punct(&self.src, b':') {
                    return None;
                }
                let prefix = self
                    .prev_code_token(pj2)
                    .filter(|(_, q)| q.kind == TokenKind::Ident)
                    .map(|(_, q)| q.text(&self.src).to_string());
                Some(CallSite {
                    name,
                    prefix,
                    kind: CallKind::Qualified,
                    line: t.line,
                    token: i,
                })
            }
            _ => Some(CallSite {
                name,
                prefix: None,
                kind: CallKind::Free,
                line: t.line,
                token: i,
            }),
        }
    }

    /// True when the tokens after the ident at `i` spell `::<...>` — a
    /// balanced angle-bracket list — followed by `(`: a turbofish call
    /// like `drive::<BaselineArch>(spec)` or `iter.collect::<Vec<_>>()`.
    fn turbofish_paren_follows(&self, i: usize) -> bool {
        let after = self.next_code_token(i);
        let Some(mut j) = after.and_then(|(c, _)| self.spelled(c, &[":", ":", "<"])) else {
            return false;
        };
        let mut depth = 1usize;
        let mut prev_dash = false;
        while depth > 0 {
            let Some((nj, t)) = self.next_code_token(j) else {
                return false;
            };
            if t.is_punct(&self.src, b'<') {
                depth += 1;
            } else if t.is_punct(&self.src, b'>') && !prev_dash {
                // A `>` closes a generic list unless it is the tail of a
                // `->` in a fn-pointer argument (`fn(u8) -> u64`).
                depth -= 1;
            }
            prev_dash = t.is_punct(&self.src, b'-');
            j = nj;
        }
        matches!(self.next_code_token(j), Some((_, t)) if t.is_punct(&self.src, b'('))
    }

    /// The receiver chain of the method call at token `i` (the method name
    /// token): `self.state.lock()` → `["self", "state"]`; `GLOBAL.lock()`
    /// → `["GLOBAL"]`; indexing (`results[i].lock()`) is skipped over.
    pub fn receiver_chain(&self, i: usize) -> Vec<String> {
        let mut chain = Vec::new();
        let Some((mut j, dot)) = self.prev_code_token(i) else {
            return chain;
        };
        if !dot.is_punct(&self.src, b'.') {
            return chain;
        }
        while let Some((pj, p)) = self.prev_code_token(j) {
            if p.is_punct(&self.src, b']') || p.is_punct(&self.src, b')') {
                // Skip the bracketed/parenthesised group backward.
                let Some(open) = self.matching_open(pj) else {
                    return chain;
                };
                j = open;
                continue;
            }
            if p.kind == TokenKind::Ident {
                chain.push(p.text(&self.src).to_string());
                // Keep walking if another `.` precedes.
                match self.prev_code_token(pj) {
                    Some((dj, d)) if d.is_punct(&self.src, b'.') => {
                        j = dj;
                        continue;
                    }
                    _ => break,
                }
            }
            break;
        }
        chain.reverse();
        chain
    }

    /// Lock acquisitions in the body of `f`: `.lock()` always counts;
    /// `.read()`/`.write()` only when the receiver resolves to a declared
    /// `RwLock` (those names collide with `io::Read`/`io::Write`).
    pub fn lock_sites_of(&self, f: &FnItem, all_locks: &[LockDecl]) -> Vec<LockSite> {
        let mut out = Vec::new();
        for call in self.calls_of(f) {
            if call.kind != CallKind::Method {
                continue;
            }
            let method = call.name.as_str();
            if method != "lock" && method != "read" && method != "write" {
                continue;
            }
            // Zero-argument call only: `.lock()` — `.read(buf)` is I/O.
            let after = self.next_code_token(call.token);
            if !after.is_some_and(|(open, _)| self.spells(open, &["(", ")"])) {
                continue;
            }
            let chain = self.receiver_chain(call.token);
            let resolved = self.resolve_lock(f, &chain, all_locks);
            match resolved {
                Some(decl) => {
                    if method != "lock" && decl.kind != LockKind::RwLock {
                        continue;
                    }
                    out.push(LockSite {
                        lock: decl.id.clone(),
                        resolved: true,
                        method: method.to_string(),
                        line: call.line,
                        token: call.token,
                    });
                }
                None if method == "lock" => {
                    let receiver = chain.join(".");
                    out.push(LockSite {
                        lock: format!("{}:{receiver}", self.path),
                        resolved: false,
                        method: method.to_string(),
                        line: call.line,
                        token: call.token,
                    });
                }
                None => {}
            }
        }
        out
    }

    /// Token index one past the region during which the guard produced by
    /// the acquisition at token `acq` is held.
    ///
    /// Approximation, biased short (missing a held region is a false
    /// negative, never a false positive):
    /// * `let g = ...lock()...;` — held until an explicit `drop(g)` in the
    ///   same block, else until the end of the enclosing block;
    /// * an unbound temporary (`*x.lock() = v;`, `f(x.lock())`) — held
    ///   until the end of the statement (`;`, or `,`/block end at depth 0).
    pub fn guard_end(&self, acq: usize, body_end: usize) -> usize {
        let bound = self.guard_binding(acq);
        let bytes = self.src.as_bytes();
        let mut depth = 0i64;
        let mut i = acq;
        while i < body_end {
            let t = &self.tokens[i];
            if t.kind == TokenKind::Punct {
                match bytes[t.start] {
                    b'(' | b'[' | b'{' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b'}' => {
                        depth -= 1;
                        if depth < 0 {
                            return i;
                        }
                    }
                    b';' | b',' if depth <= 0 && bound.is_none() => return i,
                    _ => {}
                }
            } else if bound
                .as_deref()
                .is_some_and(|name| self.spells(i, &["drop", "(", name]))
            {
                return i;
            }
            i += 1;
        }
        body_end
    }

    /// The `let`-bound name of the statement containing token `acq`, when
    /// the statement has the simple shape `let [mut] name = ...`.
    fn guard_binding(&self, acq: usize) -> Option<String> {
        // Walk back to the statement boundary.
        let mut j = acq;
        loop {
            let (pj, p) = self.prev_code_token(j)?;
            if p.is_punct(&self.src, b';')
                || p.is_punct(&self.src, b'{')
                || p.is_punct(&self.src, b'}')
            {
                break;
            }
            j = pj;
            if j == 0 {
                break;
            }
        }
        // `j` is now the first code token of the statement.
        if !self.tokens[j].is_ident(&self.src, "let") {
            return None;
        }
        self.let_name(j).map(|(_, name)| name)
    }

    /// The index and text of the name bound by the `let` at token `i`
    /// (`let [mut] name`), when it is a plain identifier.
    fn let_name(&self, i: usize) -> Option<(usize, String)> {
        let (ni, name) = self.next_code_token(i)?;
        let (ni, name) = if name.is_ident(&self.src, "mut") {
            self.next_code_token(ni)?
        } else {
            (ni, name)
        };
        (name.kind == TokenKind::Ident).then(|| (ni, name.text(&self.src).to_string()))
    }

    /// Resolves a receiver chain to a lock declaration: `self.field` via
    /// the enclosing impl type, a bare name via statics and fn-locals.
    fn resolve_lock<'a>(
        &self,
        f: &FnItem,
        chain: &[String],
        all_locks: &'a [LockDecl],
    ) -> Option<&'a LockDecl> {
        match chain {
            [s, field] if s == "self" => {
                let ty = f.impl_type.as_deref()?;
                let id = format!("{ty}.{field}");
                all_locks.iter().find(|l| l.id == id)
            }
            [name] => {
                let static_id = format!("static {name}");
                let local_id = format!("{}.{name}", f.name);
                all_locks
                    .iter()
                    .find(|l| l.id == local_id && l.path == self.path)
                    .or_else(|| all_locks.iter().find(|l| l.id == static_id))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_items_with_impl_association() {
        let src = "
            pub fn free() { helper(); }
            impl Foo {
                fn method(&self) -> u64 { self.helper2(); 1 }
            }
            impl Display for Bar { fn fmt(&self) {} }
            trait T { fn decl(&self); }
        ";
        let m = FileModel::parse("crates/x/src/lib.rs", src);
        let quals: Vec<&str> = m.fns.iter().map(|f| f.qualified.as_str()).collect();
        assert_eq!(quals, vec!["free", "Foo::method", "Bar::fmt", "decl"]);
        assert!(m.fns[3].body.is_none(), "bodyless trait decl");
    }

    #[test]
    fn impl_headers_are_parsed() {
        let src = "
            impl Foo { fn a() {} }
            impl fmt::Display for Bar<'_> { fn b() {} }
            impl<T> CheckInvariants for Baz<T> where T: for<'a> Fn(&'a u8) { fn c() {} }
        ";
        let m = FileModel::parse("x.rs", src);
        let headers: Vec<(Option<&str>, Option<&str>)> = m
            .fns
            .iter()
            .map(|f| (f.impl_type.as_deref(), f.impl_trait.as_deref()))
            .collect();
        assert_eq!(
            headers,
            [
                (Some("Foo"), None),
                (Some("Bar"), Some("Display")),
                (Some("Baz"), Some("CheckInvariants")),
            ]
        );
    }

    /// Each fn's name and flags: `P`ub, `M`ut-self receiver, `C`old, `T`est.
    fn flags(src: &str) -> Vec<String> {
        let m = FileModel::parse("crates/mmu/src/tlb.rs", src);
        m.fns
            .iter()
            .map(|f| {
                let on = [
                    (f.is_pub, 'P'),
                    (f.mut_self, 'M'),
                    (f.cold, 'C'),
                    (f.in_tests, 'T'),
                ];
                let set: String = on.iter().filter(|(b, _)| *b).map(|(_, c)| c).collect();
                format!("{} {set}", f.name)
            })
            .collect()
    }

    #[test]
    fn pub_fns_sees_multiline_signatures_and_visibility() {
        // A mutator is `P` and `M` but not `T`.
        let src = "
            impl Tlb {
                pub fn map(
                    &mut self,
                    va: u64,
                ) -> u64 { va }
                fn private(&mut self) {}
                pub(crate) fn crate_fn(&mut self) { x() }
                pub(in crate::x) fn scoped(&'a mut self) {}
                pub const fn read_only(&self) -> u64 { 1 }
                pub fn consume(self, f: &mut self::Frame) {}
            }
            #[cfg(test)]
            mod tests { impl Tlb { pub fn poke(&mut self) {} } }
        ";
        let want = [
            "map PM",
            "private M",
            "crate_fn PM",
            "scoped PM",
            "read_only P",
        ];
        assert_eq!(flags(src), [&want[..], &["consume P", "poke PMT"]].concat());
    }

    #[test]
    fn cold_attributes_are_read_through_other_attributes() {
        let src = "
            #[cold]
            #[inline(never)]
            /// Reports a stall.
            pub(crate) fn report() {}
            #[inline]
            fn hot() {}
            #[cold] fn also_cold() {}
        ";
        assert_eq!(flags(src), ["report PC", "hot ", "also_cold C"]);
    }

    #[test]
    fn calls_are_classified() {
        let src = "
            fn f() {
                helper();
                self.method(1);
                Instant::now();
                std::thread::current();
                span!(\"x\");
                let v = not_a_call;
            }
        ";
        let m = FileModel::parse("x.rs", src);
        let calls = m.calls_of(&m.fns[0]);
        let named: Vec<(&str, CallKind, Option<&str>)> = calls
            .iter()
            .map(|c| (c.name.as_str(), c.kind, c.prefix.as_deref()))
            .collect();
        assert!(named.contains(&("helper", CallKind::Free, None)));
        assert!(named.contains(&("method", CallKind::Method, None)));
        assert!(named.contains(&("now", CallKind::Qualified, Some("Instant"))));
        assert!(named.contains(&("current", CallKind::Qualified, Some("thread"))));
        assert!(named.contains(&("span", CallKind::Macro, None)));
        assert!(!named.iter().any(|(n, _, _)| *n == "not_a_call"));
    }

    #[test]
    fn turbofish_calls_are_calls() {
        // Statically-dispatched paths (`drive::<BaselineArch>(spec)`) must
        // produce call-graph edges — dropping them would let panic sites
        // behind a generic dispatch escape the containment analysis.
        let src = "
            fn f() {
                drive::<BaselineArch>(spec);
                iter.collect::<Vec<Vec<u8>>>();
                apply::<fn(u8) -> u64>(g);
                Foo::make::<T>(1);
                let cmp = a < b;
            }
        ";
        let m = FileModel::parse("x.rs", src);
        let calls = m.calls_of(&m.fns[0]);
        let named: Vec<(&str, CallKind)> =
            calls.iter().map(|c| (c.name.as_str(), c.kind)).collect();
        assert!(named.contains(&("drive", CallKind::Free)));
        assert!(named.contains(&("collect", CallKind::Method)));
        assert!(named.contains(&("apply", CallKind::Free)));
        assert!(named.contains(&("make", CallKind::Qualified)));
        assert!(!named.iter().any(|(n, _)| *n == "a" || *n == "b"));
    }

    #[test]
    fn nested_fn_bodies_are_not_attributed_to_the_outer_fn() {
        let src = "
            fn outer() {
                fn inner() { inner_call(); }
                outer_call();
            }
        ";
        let m = FileModel::parse("x.rs", src);
        let outer = m.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = m.fns.iter().find(|f| f.name == "inner").unwrap();
        let outer_calls: Vec<String> = m.calls_of(outer).into_iter().map(|c| c.name).collect();
        let inner_calls: Vec<String> = m.calls_of(inner).into_iter().map(|c| c.name).collect();
        assert_eq!(outer_calls, vec!["outer_call"]);
        assert_eq!(inner_calls, vec!["inner_call"]);
    }

    #[test]
    fn lock_declarations_and_acquisitions_resolve() {
        let src = "
            static GLOBAL: Mutex<u64> = Mutex::new(0);
            struct S { state: Mutex<State>, data: RwLock<Vec<u8>>, n: u64 }
            impl S {
                fn a(&self) {
                    let g = self.state.lock().unwrap();
                    let r = self.data.read().unwrap();
                    let w = GLOBAL.lock();
                    let x = self.n.read(buf);
                }
            }
        ";
        let m = FileModel::parse("x.rs", src);
        let ids: Vec<&str> = m.locks.iter().map(|l| l.id.as_str()).collect();
        assert!(ids.contains(&"static GLOBAL"));
        assert!(ids.contains(&"S.state"));
        assert!(ids.contains(&"S.data"));
        let f = m.fns.iter().find(|f| f.name == "a").unwrap();
        let sites = m.lock_sites_of(f, &m.locks);
        let locks: Vec<&str> = sites.iter().map(|s| s.lock.as_str()).collect();
        assert_eq!(locks, vec!["S.state", "S.data", "static GLOBAL"]);
        assert!(sites.iter().all(|s| s.resolved));
    }

    #[test]
    fn unresolved_lock_receivers_are_kept_conservatively() {
        let src = "fn f(x: &Wrapper) { let g = x.inner.lock(); }";
        let m = FileModel::parse("y.rs", src);
        let f = &m.fns[0];
        let sites = m.lock_sites_of(f, &m.locks);
        assert_eq!(sites.len(), 1);
        assert!(!sites[0].resolved);
        assert_eq!(sites[0].lock, "y.rs:x.inner");
    }

    #[test]
    fn read_with_arguments_is_io_not_a_lock() {
        let src = "fn f(s: &TcpStream) { s.read(&mut buf); }";
        let m = FileModel::parse("x.rs", src);
        let sites = m.lock_sites_of(&m.fns[0], &m.locks);
        assert!(sites.is_empty());
    }

    #[test]
    fn allow_sites_cover_their_own_and_the_next_code_line() {
        let src = "\
fn f() {
    // analyze:allow(determinism): wall_ms is stream metadata
    let t = Instant::now();
    let u = Instant::now(); // analyze:allow(determinism): also fine
}";
        let m = FileModel::parse("x.rs", src);
        assert_eq!(m.allows.len(), 2);
        assert_eq!(m.allows[0].tag, "determinism");
        assert_eq!(m.allows[0].justification, "wall_ms is stream metadata");
        assert!(m.allows[0].covers(3));
        assert!(!m.allows[0].covers(4));
        assert!(m.allows[1].covers(4));
    }

    #[test]
    fn allow_sites_cover_a_statement_rustfmt_split_across_lines() {
        let src = "\
fn f() {
    // analyze:allow(lock-io): frame writes stay under the writer mutex
    let sent = stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.flush());
    stream.flush();
}";
        let m = FileModel::parse("x.rs", src);
        assert_eq!(m.allows.len(), 1);
        assert!(m.allows[0].covers(3), "statement start");
        assert!(m.allows[0].covers(4), "continuation line");
        assert!(m.allows[0].covers(5), "terminating `;` line");
        assert!(!m.allows[0].covers(6), "next statement is not covered");
    }

    #[test]
    fn hash_bindings_are_collected() {
        let src = "
            struct S { jobs: HashMap<String, Job>, n: u64 }
            fn f() { let seen: HashSet<u64> = HashSet::new(); let v = Vec::new(); }
        ";
        let m = FileModel::parse("x.rs", src);
        assert!(m.hash_bindings.contains(&"jobs".to_string()));
        assert!(m.hash_bindings.contains(&"seen".to_string()));
        assert!(!m.hash_bindings.contains(&"v".to_string()));
    }

    #[test]
    fn receiver_chain_skips_indexing() {
        let src = "fn f() { results[i].lock(); self.a.b.lock(); }";
        let m = FileModel::parse("x.rs", src);
        let calls = m.calls_of(&m.fns[0]);
        let locks: Vec<Vec<String>> = calls
            .iter()
            .filter(|c| c.name == "lock")
            .map(|c| m.receiver_chain(c.token))
            .collect();
        assert_eq!(locks[0], vec!["results"]);
        assert_eq!(locks[1], vec!["self", "a", "b"]);
    }

    #[test]
    fn test_regions_are_marked() {
        // Only the attribute spelled in code starts the test region.
        let src = "// #[cfg(test)]\nfn prod() { \"#[cfg(test)]\"; }\n#[cfg(test)]\nmod tests { fn t() {} }";
        let m = FileModel::parse("crates/x/src/lib.rs", src);
        assert!(!m.fns[0].in_tests);
        assert!(m.fns[1].in_tests);
        let m2 = FileModel::parse("crates/x/tests/int.rs", "fn t() {}");
        assert!(m2.fns[0].in_tests);
    }
}
