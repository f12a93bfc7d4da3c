//! Lexer edge cases and a seeded mutation sweep.
//!
//! The lexer is the foundation every rule stands on, so it must (a) get
//! the genuinely tricky Rust surface right — raw strings with hash
//! fences, nested block comments, lifetimes vs char literals, shebang
//! lines — and (b) never panic, whatever bytes it is fed. The sweep
//! mutates real-looking source with a deterministic xorshift PRNG (no
//! dependencies, no wall-clock seeding) and lexes every mutant.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "test code: a failed unwrap or panic is a failed test, and output is diagnostics"
)]

use nanocost_audit::audit_source;
use nanocost_audit::lexer::{lex, TokenKind};

/// Token kinds with payloads dropped, for terse structural assertions.
fn kinds(src: &str) -> Vec<TokenKind> {
    lex(src).into_iter().map(|t| t.kind).collect()
}

fn idents(src: &str) -> Vec<String> {
    lex(src)
        .into_iter()
        .filter_map(|t| match t.kind {
            TokenKind::Ident(i) => Some(i),
            _ => None,
        })
        .collect()
}

#[test]
fn raw_strings_with_hash_fences() {
    // One hash: an interior `"` does not end the literal.
    let toks = kinds(r##"let s = r#"quote " inside"#;"##);
    assert!(
        toks.iter()
            .any(|k| matches!(k, TokenKind::Str(s) if s.contains("quote \" inside"))),
        "{toks:?}"
    );
    // Two hashes: an interior `"#` does not end the literal either.
    let src = "let s = r##\"fence \"# inside\"##; fn after() {}";
    assert!(
        kinds(src)
            .iter()
            .any(|k| matches!(k, TokenKind::Str(s) if s.contains("fence \"# inside"))),
    );
    // And the lexer resynchronizes: the item after the literal is intact.
    assert!(idents(src).contains(&"after".to_string()));
}

#[test]
fn raw_string_payload_is_not_scanned_for_tokens() {
    // A raw string full of comment openers and quotes must stay one Str.
    let src = r####"let s = r###"/* // "## 'x' "###; let y = 1;"####;
    let strs = kinds(src)
        .iter()
        .filter(|k| matches!(k, TokenKind::Str(_)))
        .count();
    assert_eq!(strs, 1);
    assert!(idents(src).contains(&"y".to_string()));
}

#[test]
fn nested_block_comments_close_at_matching_depth() {
    let src = "/* outer /* inner */ still comment */ fn live() {}";
    let toks = lex(src);
    assert!(
        matches!(&toks[0].kind, TokenKind::Comment(c) if c.contains("inner")),
        "{toks:?}"
    );
    assert!(idents(src).contains(&"live".to_string()));
    // An unterminated nested comment consumes to EOF without panicking.
    assert!(idents("/* a /* b */ never closed fn ghost() {}").is_empty());
}

#[test]
fn lifetimes_are_not_char_literals() {
    // `'a` (lifetime) must not swallow ` str>` the way a char scan would.
    let src = "fn f<'a>(x: &'a str) -> &'static str { x }";
    assert_eq!(kinds(src).iter().filter(|k| matches!(k, TokenKind::Char)).count(), 0);
    assert!(idents(src).contains(&"str".to_string()));
    // Real char literals — including escaped quotes — still lex as Char.
    for src in ["let c = 'x';", "let c = '\\'';", "let c = '\\\\';", "let b = b'q';"] {
        assert_eq!(
            kinds(src).iter().filter(|k| matches!(k, TokenKind::Char)).count(),
            1,
            "{src}"
        );
    }
}

#[test]
fn shebang_line_is_skipped() {
    let src = "#!/usr/bin/env run-cargo-script\nfn main() {}";
    let toks = lex(src);
    assert!(idents(src).contains(&"main".to_string()));
    // Nothing lexed from the shebang itself: first token sits on line 2.
    assert_eq!(toks.first().map(|t| t.line), Some(2), "{toks:?}");
    // But an inner attribute `#![…]` on line 1 is NOT a shebang.
    let attr = lex("#![allow(dead_code)]\nfn main() {}");
    assert_eq!(attr.first().map(|t| t.line), Some(1));
}

#[test]
fn line_numbers_are_monotonic() {
    let src = "fn a() {}\n/* x\n y */\nfn b() {\n    let s = \"multi\n line\";\n}\n";
    let toks = lex(src);
    let mut last = 0;
    for t in &toks {
        assert!(t.line >= last, "line went backwards at {t:?}");
        last = t.line;
    }
    assert!(last >= 4, "tokens past the multiline regions: {last}");
}

/// Deterministic xorshift64* PRNG — the sweep must not depend on wall
/// clock or platform RNG.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A corpus line-up of the constructs the lexer finds hardest; mutations
/// of these exercise every resynchronization path.
const CORPUS: &[&str] = &[
    "//! module doc\n/// Eq. 3 doc\npub fn f<'a>(x: &'a str) -> f64 { x.len() as f64 * 2.5e-3 }\n",
    "fn g() { let s = r#\"raw \" body\"#; let c = '\\n'; /* b /* n */ e */ }\n",
    "#!/usr/bin/env x\nimpl T { pub fn h(&self) -> u64 { self.cache.lock().unwrap().hits } }\n",
    "macro_rules! m { () => { 0 } }\nfn i() { span!(\"a.b\"); provenance!(equation: Eq5, v = 1.0); }\n",
    "fn j(doc: &JsonValue) { let v = doc.get(\"k\").and_then(JsonValue::as_f64); }\n",
];

/// 600 seeded mutants per corpus entry: byte substitutions, insertions,
/// and deletions (including into string/comment interiors). The lexer,
/// the structural pass, and the full single-file audit must survive all
/// of them, and reported line numbers must stay monotonic.
#[test]
fn seeded_mutation_sweep_never_panics() {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    // Bytes biased toward the lexer's trigger characters.
    const SPICE: &[u8] = b"\"'/r#!*{}()[]<>\\\n0.e_";
    for (ci, base) in CORPUS.iter().enumerate() {
        for round in 0..600 {
            let mut bytes = base.as_bytes().to_vec();
            for _ in 0..=rng.below(3) {
                if bytes.is_empty() {
                    break;
                }
                let at = rng.below(bytes.len());
                let b = SPICE[rng.below(SPICE.len())];
                match rng.below(3) {
                    0 => bytes[at] = b,
                    1 => bytes.insert(at, b),
                    _ => {
                        bytes.remove(at);
                    }
                }
            }
            // Mutations may break UTF-8; the audit API takes &str, so
            // repair lossily exactly as a file read would.
            let src = String::from_utf8_lossy(&bytes).into_owned();
            let toks = lex(&src);
            let mut last = 0;
            for t in &toks {
                assert!(
                    t.line >= last,
                    "corpus {ci} round {round}: line regressed in {src:?}"
                );
                last = t.line;
            }
            // The whole pipeline — context, parse, symbols, dataflow,
            // every rule — must also hold up on the mutant.
            let _ = audit_source("crates/core/src/mutant.rs", "core", &src);
        }
    }
}
