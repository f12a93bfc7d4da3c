//! A lightweight Rust lexer.
//!
//! Tokenizes `.rs` source into the small vocabulary the audit rules need:
//! identifiers, integer/float literals, string/char literals, punctuation
//! (with the compound operators `==`, `!=`, … kept whole), and comments
//! (with doc comments distinguished, since rule R5 reads them and the
//! pragma layer reads ordinary comments).
//!
//! It is deliberately *not* a full grammar: no parse tree, just a flat token
//! stream with line numbers. That is enough to state every invariant in
//! rules R2–R5 and keeps the pass dependency-free.

/// What a token is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `pub`, `unwrap`, …).
    Ident(String),
    /// A lifetime such as `'a` (kept distinct from char literals).
    Lifetime(String),
    /// An integer literal, raw text including any suffix (`42`, `0xFF_u8`).
    Int(String),
    /// A floating-point literal, raw text including any suffix
    /// (`0.25`, `1e-9`, `2.0f64`).
    Float(String),
    /// A string literal (regular, raw, or byte); carries the raw inner
    /// text (between the quotes, escapes unresolved) so rule R7 can
    /// check span/metric name charsets.
    Str(String),
    /// A character or byte literal.
    Char,
    /// Punctuation; compound operators are a single token (`==`, `->`, `..=`).
    Punct(String),
    /// A non-doc comment (`// …` or `/* … */`) with its text.
    Comment(String),
    /// An outer doc comment (`/// …`, `/** … */`) with its text; attaches
    /// to the item that follows.
    DocComment(String),
    /// An inner doc comment (`//! …`, `/*! … */`) with its text; documents
    /// the enclosing module and must never attach to the next item.
    InnerDoc(String),
}

/// One lexed token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class and payload.
    pub kind: TokenKind,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

impl Token {
    /// True if this token is the given identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident(i) if i == s)
    }

    /// True if this token is the given punctuation.
    pub fn is_punct(&self, s: &str) -> bool {
        matches!(&self.kind, TokenKind::Punct(p) if p == s)
    }

    /// True for comment or doc-comment tokens.
    pub fn is_trivia(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::Comment(_) | TokenKind::DocComment(_) | TokenKind::InnerDoc(_)
        )
    }
}

/// Compound operators, longest first so greedy matching is correct.
const COMPOUND_OPS: &[&str] = &[
    "..=", "...", "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->", "=>", "::",
    "..", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Lexes Rust source into a flat token stream.
///
/// Unterminated constructs (string, block comment) consume to end of input
/// rather than erroring: the audit must keep going on odd files.
pub fn lex(source: &str) -> Vec<Token> {
    Lexer { src: source.as_bytes(), text: source, pos: 0, line: 1, out: Vec::new() }.run()
}

struct Lexer<'a> {
    src: &'a [u8],
    text: &'a str,
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Token> {
        // A shebang (`#!/usr/bin/env …`) is legal on line 1 of a Rust
        // source file and is not a token; `#![…]` is an inner attribute
        // and must still lex normally.
        if self.text.starts_with("#!") && !self.text.starts_with("#![") {
            while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                self.pos += 1;
            }
        }
        while self.pos < self.src.len() {
            let start_line = self.line;
            let c = self.src[self.pos];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if c.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(start_line),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(start_line),
                b'r' if self.raw_string_ahead(0) => self.raw_string(start_line),
                b'b' if self.peek(1) == Some(b'"') => {
                    self.pos += 1;
                    self.string(start_line);
                }
                b'b' if self.peek(1) == Some(b'r') && self.raw_string_ahead(1) => {
                    self.pos += 1;
                    self.raw_string(start_line);
                }
                b'b' if self.peek(1) == Some(b'\'') => {
                    self.pos += 1;
                    self.char_or_lifetime(start_line);
                }
                b'"' => self.string(start_line),
                b'\'' => self.char_or_lifetime(start_line),
                _ if c.is_ascii_digit() => self.number(start_line),
                _ if c == b'_' || c.is_ascii_alphabetic() => self.ident(start_line),
                _ => self.punct(start_line),
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, line: u32) {
        self.out.push(Token { kind, line });
    }

    /// Consumes to end of line; classifies `///` and `//!` as doc comments
    /// (`////…` is an ordinary comment, as in rustc).
    fn line_comment(&mut self, line: u32) {
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let body = text.trim_start_matches(['/', '!']).to_string();
        if text.starts_with("//!") {
            self.push(TokenKind::InnerDoc(body), line);
        } else if text.starts_with("///") && !text.starts_with("////") {
            self.push(TokenKind::DocComment(body), line);
        } else {
            self.push(TokenKind::Comment(text[2..].to_string()), line);
        }
    }

    /// Consumes a (possibly nested) block comment.
    fn block_comment(&mut self, line: u32) {
        let start = self.pos;
        let is_doc = self.text[self.pos..].starts_with("/**") && !self.text[self.pos..].starts_with("/***")
            || self.text[self.pos..].starts_with("/*!");
        let is_inner = self.text[self.pos..].starts_with("/*!");
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            if self.src[self.pos] == b'\n' {
                self.line += 1;
                self.pos += 1;
            } else if self.text[self.pos..].starts_with("/*") {
                depth += 1;
                self.pos += 2;
            } else if self.text[self.pos..].starts_with("*/") {
                depth -= 1;
                self.pos += 2;
            } else {
                self.pos += 1;
            }
        }
        let text = self.text[start..self.pos]
            .trim_start_matches(['/', '*', '!'])
            .trim_end_matches(['/', '*'])
            .to_string();
        if is_inner {
            self.push(TokenKind::InnerDoc(text), line);
        } else if is_doc {
            self.push(TokenKind::DocComment(text), line);
        } else {
            self.push(TokenKind::Comment(text), line);
        }
    }

    /// Is `r"` or `r#…#"` starting at `pos + offset`?
    fn raw_string_ahead(&self, offset: usize) -> bool {
        let mut i = self.pos + offset + 1;
        while self.src.get(i) == Some(&b'#') {
            i += 1;
        }
        self.src.get(i) == Some(&b'"')
    }

    /// Consumes `r#"…"#`-style raw strings.
    fn raw_string(&mut self, line: u32) {
        self.pos += 1; // past 'r'
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // past opening quote
        let content_start = self.pos;
        let mut content_end = self.src.len();
        loop {
            match self.peek(0) {
                None => break,
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(b'"') => {
                    let close = (1..=hashes)
                        .all(|k| self.peek(k) == Some(b'#'));
                    if close {
                        content_end = self.pos;
                        self.pos += 1 + hashes;
                        break;
                    }
                    self.pos += 1;
                }
                Some(_) => self.pos += 1,
            }
        }
        let content = self.text[content_start..content_end].to_string();
        self.push(TokenKind::Str(content), line);
    }

    /// Consumes a regular `"…"` string, honoring escapes.
    fn string(&mut self, line: u32) {
        self.pos += 1;
        let content_start = self.pos;
        let mut content_end = self.src.len();
        loop {
            match self.peek(0) {
                None => break,
                Some(b'\\') => self.pos += 2,
                Some(b'"') => {
                    content_end = self.pos;
                    self.pos += 1;
                    break;
                }
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(_) => self.pos += 1,
            }
        }
        let content = self.text[content_start..content_end.min(self.src.len())].to_string();
        self.push(TokenKind::Str(content), line);
    }

    /// Disambiguates `'a'` (char) from `'a` (lifetime).
    fn char_or_lifetime(&mut self, line: u32) {
        // A lifetime is `'` + ident not followed by another `'`.
        let after = self.peek(1);
        let is_ident_start = matches!(after, Some(c) if c == b'_' || c.is_ascii_alphabetic());
        if is_ident_start {
            // Scan the identifier; if it terminates with a quote it was a
            // char literal like 'a' — otherwise a lifetime.
            let mut i = self.pos + 1;
            while matches!(self.src.get(i), Some(c) if *c == b'_' || c.is_ascii_alphanumeric()) {
                i += 1;
            }
            if self.src.get(i) != Some(&b'\'') {
                let name = self.text[self.pos + 1..i].to_string();
                self.pos = i;
                self.push(TokenKind::Lifetime(name), line);
                return;
            }
        }
        // Char literal: consume until the closing quote, honoring escapes.
        self.pos += 1;
        loop {
            match self.peek(0) {
                None => break,
                Some(b'\\') => self.pos += 2,
                Some(b'\'') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => self.pos += 1,
            }
        }
        self.push(TokenKind::Char, line);
    }

    /// Consumes a numeric literal, deciding int vs float.
    fn number(&mut self, line: u32) {
        let start = self.pos;
        let mut is_float = false;
        if self.peek(0) == Some(b'0')
            && matches!(self.peek(1), Some(b'x' | b'o' | b'b' | b'X' | b'O' | b'B'))
        {
            self.pos += 2;
            while matches!(self.peek(0), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
                self.pos += 1;
            }
        } else {
            while matches!(self.peek(0), Some(c) if c.is_ascii_digit() || c == b'_') {
                self.pos += 1;
            }
            // Fractional part — but `1..x` is int + range and `1.method()` is
            // int + field/method access.
            if self.peek(0) == Some(b'.') {
                let next = self.peek(1);
                let range = next == Some(b'.');
                let field = matches!(next, Some(c) if c == b'_' || c.is_ascii_alphabetic());
                if !range && !field {
                    is_float = true;
                    self.pos += 1;
                    while matches!(self.peek(0), Some(c) if c.is_ascii_digit() || c == b'_') {
                        self.pos += 1;
                    }
                }
            }
            // Exponent.
            if matches!(self.peek(0), Some(b'e' | b'E')) {
                let mut k = 1;
                if matches!(self.peek(1), Some(b'+' | b'-')) {
                    k = 2;
                }
                if matches!(self.peek(k), Some(c) if c.is_ascii_digit()) {
                    is_float = true;
                    self.pos += k;
                    while matches!(self.peek(0), Some(c) if c.is_ascii_digit() || c == b'_') {
                        self.pos += 1;
                    }
                }
            }
            // Type suffix (`f64`, `u32`, `usize`, …).
            let suffix_start = self.pos;
            while matches!(self.peek(0), Some(c) if c == b'_' || c.is_ascii_alphanumeric()) {
                self.pos += 1;
            }
            let suffix = &self.text[suffix_start..self.pos];
            if suffix.starts_with("f32") || suffix.starts_with("f64") {
                is_float = true;
            }
        }
        let text = self.text[start..self.pos].to_string();
        if is_float {
            self.push(TokenKind::Float(text), line);
        } else {
            self.push(TokenKind::Int(text), line);
        }
    }

    /// Consumes an identifier or keyword (including `r#ident`).
    fn ident(&mut self, line: u32) {
        let start = self.pos;
        if self.peek(0) == Some(b'r') && self.peek(1) == Some(b'#') {
            self.pos += 2;
        }
        while matches!(self.peek(0), Some(c) if c == b'_' || c.is_ascii_alphanumeric()) {
            self.pos += 1;
        }
        let name = self.text[start..self.pos].trim_start_matches("r#").to_string();
        self.push(TokenKind::Ident(name), line);
    }

    /// Consumes one punctuation token, longest compound operator first.
    fn punct(&mut self, line: u32) {
        for op in COMPOUND_OPS {
            if self.text[self.pos..].starts_with(op) {
                self.pos += op.len();
                self.push(TokenKind::Punct((*op).to_string()), line);
                return;
            }
        }
        let ch = self.text[self.pos..].chars().next().unwrap_or('\u{FFFD}');
        self.pos += ch.len_utf8();
        self.push(TokenKind::Punct(ch.to_string()), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_idents_and_puncts() {
        let ks = kinds("fn a() -> f64 { a == b }");
        assert!(ks.contains(&TokenKind::Ident("fn".into())));
        assert!(ks.contains(&TokenKind::Punct("->".into())));
        assert!(ks.contains(&TokenKind::Punct("==".into())));
    }

    #[test]
    fn distinguishes_int_from_float() {
        assert_eq!(kinds("42"), vec![TokenKind::Int("42".into())]);
        assert_eq!(kinds("42.5"), vec![TokenKind::Float("42.5".into())]);
        assert_eq!(kinds("1e-9"), vec![TokenKind::Float("1e-9".into())]);
        assert_eq!(kinds("2f64"), vec![TokenKind::Float("2f64".into())]);
        assert_eq!(kinds("0xFF"), vec![TokenKind::Int("0xFF".into())]);
        assert_eq!(
            kinds("0..10"),
            vec![
                TokenKind::Int("0".into()),
                TokenKind::Punct("..".into()),
                TokenKind::Int("10".into())
            ]
        );
    }

    #[test]
    fn range_inclusive_after_int_stays_int() {
        assert_eq!(
            kinds("0..=9"),
            vec![
                TokenKind::Int("0".into()),
                TokenKind::Punct("..=".into()),
                TokenKind::Int("9".into())
            ]
        );
    }

    #[test]
    fn distinguishes_char_from_lifetime() {
        assert_eq!(kinds("'a'"), vec![TokenKind::Char]);
        assert_eq!(kinds("'a"), vec![TokenKind::Lifetime("a".into())]);
        assert_eq!(kinds(r"'\n'"), vec![TokenKind::Char]);
        let ks = kinds("&'static str");
        assert!(ks.contains(&TokenKind::Lifetime("static".into())));
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        assert_eq!(
            kinds(r#""a == b // not a comment""#),
            vec![TokenKind::Str("a == b // not a comment".into())]
        );
        assert_eq!(
            kinds(r##"r#"raw "quote" inside"#"##),
            vec![TokenKind::Str(r#"raw "quote" inside"#.into())]
        );
        assert_eq!(kinds(r#"b"bytes""#), vec![TokenKind::Str("bytes".into())]);
    }

    #[test]
    fn string_payload_keeps_escapes_raw() {
        assert_eq!(kinds(r#""a\nb""#), vec![TokenKind::Str(r"a\nb".into())]);
        // Unterminated strings consume to end of input without panicking.
        assert_eq!(kinds("\"open"), vec![TokenKind::Str("open".into())]);
    }

    #[test]
    fn comments_are_classified() {
        assert!(matches!(&kinds("// plain")[0], TokenKind::Comment(c) if c.trim() == "plain"));
        assert!(matches!(&kinds("/// doc")[0], TokenKind::DocComment(c) if c.trim() == "doc"));
        assert!(matches!(&kinds("//! inner")[0], TokenKind::InnerDoc(_)));
        assert!(matches!(&kinds("/* block */")[0], TokenKind::Comment(_)));
        assert!(matches!(&kinds("/* outer /* nested */ rest */")[0], TokenKind::Comment(_)));
    }

    #[test]
    fn line_numbers_are_tracked() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn multiline_string_advances_lines() {
        let toks = lex("\"two\nlines\" x");
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn underscored_numbers() {
        assert_eq!(kinds("1_000_000"), vec![TokenKind::Int("1_000_000".into())]);
        assert_eq!(kinds("1_0.5_0"), vec![TokenKind::Float("1_0.5_0".into())]);
    }

    #[test]
    fn method_call_on_int_is_not_float() {
        let ks = kinds("1.max(2)");
        assert_eq!(ks[0], TokenKind::Int("1".into()));
    }
}
