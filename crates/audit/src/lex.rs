//! A dependency-free Rust lexer.
//!
//! PR 1's audit worked on comment-stripped text with a brace matcher —
//! precise enough for shapes rustfmt keeps canonical, but blind to the
//! difference between code and the *contents* of string literals, and
//! unable to support real program analysis. This lexer is the audit's one
//! front end: [`crate::model::FileModel::parse`] is its only caller, and
//! every rule reads the tokens and items built from it. It tokenizes Rust source into identifiers, literals, comments, and
//! punctuation with exact byte spans and line numbers, understanding
//! escapes, raw strings (`r#"…"#`), byte/char literals, lifetimes, and
//! nested block comments.
//!
//! It is deliberately *not* a full grammar: no precedence, no types, no
//! name resolution. Every consumer documents what it infers from the token
//! stream and what it cannot.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `self`, `Mutex`, …).
    Ident,
    /// A lifetime such as `'a` (including the tick).
    Lifetime,
    /// A `"…"` or `b"…"` string literal, quotes included.
    Str,
    /// A raw string literal `r"…"` / `r#"…"#` / `br#"…"#`.
    RawStr,
    /// A char or byte literal `'x'` / `b'\n'`.
    Char,
    /// A numeric literal (integer or float, any radix, with suffix).
    Num,
    /// A `//` line comment (doc comments included), newline excluded.
    LineComment,
    /// A `/* … */` block comment, nesting honoured.
    BlockComment,
    /// A single punctuation byte (`{`, `.`, `!`, …). Multi-byte operators
    /// arrive as consecutive `Punct` tokens; consumers that care join them.
    Punct,
}

/// One token: kind plus its byte span and 1-based starting line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Byte offset of the token's first byte.
    pub start: usize,
    /// Byte offset one past the token's last byte.
    pub end: usize,
    /// 1-based line number of the token's first byte.
    pub line: u32,
}

impl Token {
    /// The token's text within the source it was lexed from.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// True for the punctuation byte `c`.
    pub fn is_punct(&self, src: &str, c: u8) -> bool {
        self.kind == TokenKind::Punct && src.as_bytes()[self.start] == c
    }

    /// True for the exact identifier `ident`.
    pub fn is_ident(&self, src: &str, ident: &str) -> bool {
        self.kind == TokenKind::Ident && self.text(src) == ident
    }

    /// True for either comment kind.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

fn is_ident_start(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphabetic() || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric() || c >= 0x80
}

/// Tokenizes `src`. Whitespace is skipped; everything else — including
/// comments — becomes a token, so consumers choose whether to see them.
/// The lexer never fails: malformed input degrades to `Punct` bytes.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut tokens = Vec::with_capacity(src.len() / 4);
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let start = i;
        let start_line = line;
        let c = b[i];
        let kind = match c {
            b' ' | b'\t' | b'\r' => {
                i += 1;
                continue;
            }
            b'\n' => {
                line += 1;
                i += 1;
                continue;
            }
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                TokenKind::LineComment
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                while i < b.len() {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                TokenKind::BlockComment
            }
            b'"' => {
                i = scan_string(b, i, &mut line);
                TokenKind::Str
            }
            b'r' | b'b' if starts_raw_string(b, i) => {
                i = scan_raw_string(b, i, &mut line);
                TokenKind::RawStr
            }
            b'b' if b.get(i + 1) == Some(&b'"') => {
                i = scan_string(b, i + 1, &mut line);
                TokenKind::Str
            }
            b'b' if b.get(i + 1) == Some(&b'\'') => {
                i = scan_char(b, i + 1);
                TokenKind::Char
            }
            b'\'' => {
                // A tick opens either a char literal or a lifetime; a
                // closing quote within a couple of bytes (or an escape)
                // means char, otherwise lifetime.
                if b.get(i + 1) == Some(&b'\\')
                    || (b.get(i + 2) == Some(&b'\'') && b.get(i + 1) != Some(&b'\''))
                {
                    i = scan_char(b, i);
                    TokenKind::Char
                } else {
                    i += 1;
                    while i < b.len() && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    TokenKind::Lifetime
                }
            }
            c if c.is_ascii_digit() => {
                i += 1;
                while i < b.len()
                    && (is_ident_continue(b[i])
                        || b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit))
                {
                    i += 1;
                }
                TokenKind::Num
            }
            c if is_ident_start(c) => {
                i += 1;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                TokenKind::Ident
            }
            _ => {
                i += 1;
                TokenKind::Punct
            }
        };
        tokens.push(Token {
            kind,
            start,
            end: i,
            line: start_line,
        });
    }
    tokens
}

/// True when position `i` (at `r` or `b`) begins a raw string such as
/// `r"…"`, `r#"…"#`, or `br#"…"#`.
fn starts_raw_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if b.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while b.get(j) == Some(&b'#') {
        j += 1;
    }
    b.get(j) == Some(&b'"')
}

/// Scans past `"…"` starting at the opening quote; returns one past the
/// closing quote. Tracks newlines (strings may span lines).
fn scan_string(b: &[u8], open: usize, line: &mut u32) -> usize {
    let mut i = open + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Scans past a raw string starting at its `r`/`b` prefix.
fn scan_raw_string(b: &[u8], start: usize, line: &mut u32) -> usize {
    let mut i = start;
    if b[i] == b'b' {
        i += 1;
    }
    i += 1; // the `r`
    let mut hashes = 0usize;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    i += 1; // the opening quote
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
        } else if b[i] == b'"'
            && b[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == b'#')
                .count()
                == hashes
        {
            return i + 1 + hashes;
        }
        i += 1;
    }
    i
}

/// Scans past `'…'` starting at the opening tick.
fn scan_char(b: &[u8], open: usize) -> usize {
    let mut i = open + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_numbers_and_puncts() {
        let src = "let x2 = 0xff + 1.5e3;";
        assert_eq!(
            kinds(src),
            vec![
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::Punct,
                TokenKind::Num,
                TokenKind::Punct,
                TokenKind::Num,
                TokenKind::Punct,
            ]
        );
    }

    #[test]
    fn strings_with_escapes_and_raw_strings() {
        let src = r####"let a = "he said \"//\""; let b = r#"raw "x" //"#;"####;
        let toks = lex(src);
        let strs: Vec<(TokenKind, &str)> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Str | TokenKind::RawStr))
            .map(|t| (t.kind, t.text(src)))
            .collect();
        assert_eq!(strs.len(), 2);
        assert_eq!(strs[0].0, TokenKind::Str);
        assert_eq!(strs[1].0, TokenKind::RawStr);
        assert!(strs[1].1.starts_with("r#\""));
    }

    #[test]
    fn nested_block_comments_are_one_token() {
        let src = "a /* x /* y */ z */ b";
        let toks = lex(src);
        assert_eq!(
            toks.iter().map(|t| t.kind).collect::<Vec<_>>(),
            vec![TokenKind::Ident, TokenKind::BlockComment, TokenKind::Ident]
        );
        assert_eq!(toks[1].text(src), "/* x /* y */ z */");
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "let c = 'x'; fn f<'a>(v: &'a str) { let n = '\\n'; }";
        let toks = lex(src);
        let chars: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text(src))
            .collect();
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(chars, vec!["'x'", "'\\n'"]);
        assert_eq!(lifetimes, vec!["'a", "'a"]);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let src = "let a = b\"bytes\"; let b = b'x'; let c = br#\"raw\"#;";
        let toks = lex(src);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Str && t.text(src) == "b\"bytes\""));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Char && t.text(src) == "b'x'"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::RawStr && t.text(src) == "br#\"raw\"#"));
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"two\nline\"\n/* c\nc */\nb";
        let toks = lex(src);
        let a = toks.iter().find(|t| t.is_ident(src, "a")).unwrap();
        let b = toks.iter().find(|t| t.is_ident(src, "b")).unwrap();
        assert_eq!(a.line, 1);
        assert_eq!(b.line, 6, "newlines inside strings and comments counted");
    }

    #[test]
    fn lexer_never_panics_on_malformed_input() {
        for src in ["\"unterminated", "r#\"open", "'", "/* open", "b'", "\\"] {
            let toks = lex(src);
            assert!(toks.iter().all(|t| t.start < t.end && t.end <= src.len()));
        }
    }
}
