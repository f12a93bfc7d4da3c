//! A tolerant expression/statement parser over the lexer's token stream.
//!
//! The dataflow rules (R8 taint, R9 lock discipline, R10 provenance)
//! need more shape than a flat token stream: who calls what with which
//! arguments, where values are bound and rebound, which guards dominate
//! a use. This module parses each `fn` body (the token span recorded by
//! [`crate::context::FnInfo::body`]) into a small statement/expression
//! tree.
//!
//! Design constraints, in order:
//!
//! 1. **Never panic, never loop.** Every construct the parser does not
//!    understand degrades to [`Expr::Opaque`] and the cursor always
//!    advances. The audit must survive any input the lexer survives.
//! 2. **Taint-faithful, not grammar-faithful.** Reference/deref/negation
//!    are transparent (they do not change what value flows); type
//!    ascriptions, generics and turbofish are skipped entirely. The tree
//!    is *not* a Rust AST — it is the projection of one that dataflow
//!    needs.
//! 3. Dependency-free, like the rest of the crate.

use crate::lexer::{Token, TokenKind};

/// A parsed `{ … }` body: statements in order. The final statement may
/// be a tail expression (see [`Stmt::Expr`]).
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[allow(
    missing_docs,
    reason = "fields are documented on their variants; per-field docs would repeat the variant doc verbatim"
)]
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `let pat = init;` — `names` are the pattern's binding identifiers.
    /// `else_diverges` marks `let … else { … }` (the else block must
    /// diverge, so bindings are refined afterwards).
    Let { names: Vec<String>, init: Option<Expr>, line: u32, else_diverges: bool },
    /// `lhs = value;` (or compound `lhs op= value`, with `value` already
    /// wrapped as a binary over the old value). `root` is the base
    /// variable of the assignment target, when identifiable.
    Assign { root: Option<String>, value: Expr, line: u32 },
    /// An expression statement; `tail` when it is the block's tail
    /// expression (no trailing semicolon — the block's value).
    Expr { value: Expr, tail: bool },
    /// `return e;` / bare `return;`.
    Return { value: Option<Expr>, line: u32 },
    /// `for pat in iter { … }` and `while let pat = iter { … }`:
    /// `bindings` take the taint of `iter`.
    For { bindings: Vec<String>, iter: Expr, body: Block, line: u32 },
    /// `loop { … }` / `while cond { … }` (the condition, if any, is a
    /// preceding [`Stmt::Expr`]).
    Loop { body: Block },
    /// A bare nested `{ … }` block.
    Block(Block),
    /// A nested item or anything unparseable, skipped whole.
    Opaque,
}

/// One expression. Lines are carried on the nodes diagnostics anchor to.
#[allow(
    missing_docs,
    reason = "fields are documented on their variants; per-field docs would repeat the variant doc verbatim"
)]
#[derive(Debug, Clone)]
pub enum Expr {
    /// Any literal (number, string, char, bool).
    Lit(u32),
    /// A single-segment name.
    Var(String, u32),
    /// A multi-segment path used as a value (`JsonValue::as_f64` passed
    /// as a function reference, an enum variant, a const).
    Path(Vec<String>, u32),
    /// `path(args…)`.
    Call { path: Vec<String>, args: Vec<Expr>, line: u32 },
    /// `recv.name(args…)`.
    Method { recv: Box<Expr>, name: String, args: Vec<Expr>, line: u32 },
    /// `recv.name` (also tuple indices: `t.0` has name `"0"`).
    Field { recv: Box<Expr>, name: String, line: u32 },
    /// `recv[index]`.
    Index { recv: Box<Expr>, index: Box<Expr>, line: u32 },
    /// `lhs op rhs` for every binary operator (comparisons included).
    Binary { op: String, lhs: Box<Expr>, rhs: Box<Expr>, line: u32 },
    /// `inner?`.
    Try { inner: Box<Expr>, line: u32 },
    /// `Path { field: value, … }`; functional-update base is stored
    /// under the field name `".."`.
    Struct { path: Vec<String>, fields: Vec<(String, Expr)>, line: u32 },
    /// `(a, b, …)`.
    Tuple { items: Vec<Expr>, line: u32 },
    /// `[a, b]` or `[item; size]`.
    Array { items: Vec<Expr>, size: Option<Box<Expr>>, line: u32 },
    /// `|params| body` / `move |params| body`.
    Closure { params: Vec<String>, body: Box<Expr>, line: u32 },
    /// `if cond { … } else { … }`; `bindings` are the pattern names of
    /// an `if let pat = cond` form (they take `cond`'s taint inside
    /// `then`).
    If {
        cond: Box<Expr>,
        bindings: Vec<String>,
        then: Box<Block>,
        else_: Option<Box<Block>>,
        line: u32,
    },
    /// `match scrutinee { arms… }`.
    Match { scrutinee: Box<Expr>, arms: Vec<Arm>, line: u32 },
    /// A block in expression position (also `unsafe { … }`, loops in
    /// expression position).
    BlockExpr(Box<Block>),
    /// `name!(…)`: `args` are the comma-split parts parsed best-effort,
    /// `size_arg` the `; size` part of `vec![x; size]`, `idents` every
    /// identifier appearing inside (for provenance/emit scanning).
    Macro {
        name: String,
        args: Vec<Expr>,
        size_arg: Option<Box<Expr>>,
        idents: Vec<String>,
        line: u32,
    },
    /// Anything the parser could not shape.
    Opaque(u32),
}

/// One match arm.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Pattern binding identifiers (lowercase-initial, non-path).
    pub bindings: Vec<String>,
    /// The `if` guard, when present.
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
}

impl Expr {
    /// The line this expression anchors diagnostics to.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Lit(l) | Expr::Var(_, l) | Expr::Path(_, l) | Expr::Opaque(l) => *l,
            Expr::Call { line, .. }
            | Expr::Method { line, .. }
            | Expr::Field { line, .. }
            | Expr::Index { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Try { line, .. }
            | Expr::Struct { line, .. }
            | Expr::Tuple { line, .. }
            | Expr::Array { line, .. }
            | Expr::Closure { line, .. }
            | Expr::If { line, .. }
            | Expr::Match { line, .. }
            | Expr::Macro { line, .. } => *line,
            Expr::BlockExpr(b) => b.stmts.first().map(stmt_line).unwrap_or(0),
        }
    }

    /// The base variable of a `recv.f1.f2[…]` chain, if the chain roots
    /// in a plain variable.
    pub fn root_var(&self) -> Option<&str> {
        match self {
            Expr::Var(n, _) => Some(n),
            Expr::Field { recv, .. } | Expr::Index { recv, .. } => recv.root_var(),
            Expr::Method { recv, .. } => recv.root_var(),
            Expr::Try { inner, .. } => inner.root_var(),
            _ => None,
        }
    }
}

fn stmt_line(s: &Stmt) -> u32 {
    match s {
        Stmt::Let { line, .. }
        | Stmt::Assign { line, .. }
        | Stmt::Return { line, .. }
        | Stmt::For { line, .. } => *line,
        Stmt::Expr { value, .. } => value.line(),
        Stmt::Loop { body } | Stmt::Block(body) => body.stmts.first().map(stmt_line).unwrap_or(0),
        Stmt::Opaque => 0,
    }
}

/// Parses the body span of one fn (`span` from [`crate::context::FnInfo`],
/// i.e. the token indices of `{` and its matching `}`).
pub fn parse_body(tokens: &[Token], span: (usize, usize)) -> Block {
    let (open, close) = span;
    if open >= tokens.len() || close > tokens.len() || open + 1 > close {
        return Block::default();
    }
    let mut p = Parser { toks: tokens, pos: open + 1, end: close };
    p.block_inner()
}

/// Visits every expression in a block, depth-first, including nested
/// blocks, closures, match arms, and macro arguments.
pub fn walk_block(block: &Block, f: &mut impl FnMut(&Expr)) {
    for s in &block.stmts {
        walk_stmt(s, f);
    }
}

fn walk_stmt(s: &Stmt, f: &mut impl FnMut(&Expr)) {
    match s {
        Stmt::Let { init, .. } => {
            if let Some(e) = init {
                walk_expr(e, f);
            }
        }
        Stmt::Assign { value, .. } => walk_expr(value, f),
        Stmt::Expr { value, .. } => walk_expr(value, f),
        Stmt::Return { value, .. } => {
            if let Some(e) = value {
                walk_expr(e, f);
            }
        }
        Stmt::For { iter, body, .. } => {
            walk_expr(iter, f);
            walk_block(body, f);
        }
        Stmt::Loop { body } | Stmt::Block(body) => walk_block(body, f),
        Stmt::Opaque => {}
    }
}

/// Visits `e` and every sub-expression, depth-first (parent first).
pub fn walk_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match e {
        Expr::Lit(_) | Expr::Var(..) | Expr::Path(..) | Expr::Opaque(_) => {}
        Expr::Call { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Method { recv, args, .. } => {
            walk_expr(recv, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Field { recv, .. } => walk_expr(recv, f),
        Expr::Index { recv, index, .. } => {
            walk_expr(recv, f);
            walk_expr(index, f);
        }
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        Expr::Try { inner, .. } => walk_expr(inner, f),
        Expr::Struct { fields, .. } => {
            for (_, v) in fields {
                walk_expr(v, f);
            }
        }
        Expr::Tuple { items, .. } => {
            for i in items {
                walk_expr(i, f);
            }
        }
        Expr::Array { items, size, .. } => {
            for i in items {
                walk_expr(i, f);
            }
            if let Some(s) = size {
                walk_expr(s, f);
            }
        }
        Expr::Closure { body, .. } => walk_expr(body, f),
        Expr::If { cond, then, else_, .. } => {
            walk_expr(cond, f);
            walk_block(then, f);
            if let Some(b) = else_ {
                walk_block(b, f);
            }
        }
        Expr::Match { scrutinee, arms, .. } => {
            walk_expr(scrutinee, f);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    walk_expr(g, f);
                }
                walk_expr(&arm.body, f);
            }
        }
        Expr::BlockExpr(b) => walk_block(b, f),
        Expr::Macro { args, size_arg, .. } => {
            for a in args {
                walk_expr(a, f);
            }
            if let Some(s) = size_arg {
                walk_expr(s, f);
            }
        }
    }
}

/// Keywords that start a nested item we skip whole.
const ITEM_KEYWORDS: &[&str] =
    &["fn", "struct", "enum", "impl", "mod", "trait", "type", "use", "static", "extern", "macro_rules"];

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    end: usize,
}

impl<'a> Parser<'a> {
    fn skip_trivia(&mut self) {
        while self.pos < self.end && self.toks[self.pos].is_trivia() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<&'a Token> {
        self.skip_trivia();
        if self.pos < self.end {
            Some(&self.toks[self.pos])
        } else {
            None
        }
    }

    /// The next code token after the current one (for two-token lookahead).
    fn peek2(&mut self) -> Option<&'a Token> {
        self.skip_trivia();
        let mut i = self.pos + 1;
        while i < self.end {
            if !self.toks[i].is_trivia() {
                return Some(&self.toks[i]);
            }
            i += 1;
        }
        None
    }

    fn line(&mut self) -> u32 {
        self.peek().map(|t| t.line).unwrap_or(0)
    }

    fn at_punct(&mut self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.is_punct(s))
    }

    fn at_ident(&mut self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.is_ident(s))
    }

    fn eat_punct(&mut self, s: &str) -> bool {
        if self.at_punct(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Skips past the delimiter that matches the one at the cursor
    /// (which must be `(`, `[`, or `{`). Returns the index just past the
    /// closing delimiter (or `end` when unbalanced).
    fn skip_balanced(&mut self) {
        let (open, close) = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Punct(p)) if p == "(" => ("(", ")"),
            Some(TokenKind::Punct(p)) if p == "[" => ("[", "]"),
            Some(TokenKind::Punct(p)) if p == "{" => ("{", "}"),
            _ => {
                self.pos += 1;
                return;
            }
        };
        let mut depth = 0usize;
        while self.pos < self.end {
            let t = &self.toks[self.pos];
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.pos += 1;
                    return;
                }
            }
            self.pos += 1;
        }
    }

    /// Skips a balanced `<…>` generic-argument list starting at `<`.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        while self.pos < self.end {
            match &self.toks[self.pos].kind {
                TokenKind::Punct(p) if p == "<" || p == "<<" => {
                    depth += if p == "<<" { 2 } else { 1 };
                }
                TokenKind::Punct(p) if p == ">" || p == ">>" => {
                    depth -= if p == ">>" { 2 } else { 1 };
                    if depth <= 0 {
                        self.pos += 1;
                        return;
                    }
                }
                TokenKind::Punct(p) if p == ";" => return,
                _ => {}
            }
            self.pos += 1;
        }
    }

    // ---- statements -------------------------------------------------

    /// Parses statements up to (not past) the enclosing `}` / span end.
    fn block_inner(&mut self) -> Block {
        let mut stmts = Vec::new();
        loop {
            self.skip_trivia();
            if self.pos >= self.end || self.at_punct("}") {
                break;
            }
            let before = self.pos;
            stmts.push(self.stmt());
            if self.pos == before {
                // Hard guarantee of progress on anything unforeseen.
                self.pos += 1;
            }
        }
        Block { stmts }
    }

    /// Parses a `{ … }` block including its braces; tolerates a missing
    /// open brace by returning an empty block.
    fn braced_block(&mut self) -> Block {
        if !self.eat_punct("{") {
            return Block::default();
        }
        let b = self.block_inner();
        self.eat_punct("}");
        b
    }

    fn stmt(&mut self) -> Stmt {
        let line = self.line();
        if self.eat_punct(";") {
            return Stmt::Opaque;
        }
        // Attributes on statements: skip `#[…]`.
        while self.at_punct("#") {
            self.pos += 1;
            self.eat_punct("!");
            if self.at_punct("[") {
                self.skip_balanced();
            }
        }
        if self.at_ident("let") {
            return self.let_stmt(line);
        }
        if self.eat_ident("return") {
            let value = if self.at_punct(";") || self.at_punct("}") || self.pos >= self.end {
                None
            } else {
                Some(self.expr(false))
            };
            self.eat_punct(";");
            return Stmt::Return { value, line };
        }
        if self.eat_ident("while") {
            if self.eat_ident("let") {
                let bindings = self.pattern_until_eq();
                self.eat_punct("=");
                let iter = self.expr(true);
                let body = self.braced_block();
                return Stmt::For { bindings, iter, body, line };
            }
            let cond = self.expr(true);
            let body = self.braced_block();
            return Stmt::Loop {
                body: Block {
                    stmts: vec![Stmt::Expr { value: cond, tail: false }, Stmt::Block(body)],
                },
            };
        }
        if self.eat_ident("loop") {
            return Stmt::Loop { body: self.braced_block() };
        }
        if self.eat_ident("for") {
            let bindings = self.pattern_until_kw("in");
            self.eat_ident("in");
            let iter = self.expr(true);
            let body = self.braced_block();
            return Stmt::For { bindings, iter, body, line };
        }
        if self.eat_ident("break") || self.eat_ident("continue") {
            // Optional label / value; parse loosely to the `;`.
            while self.pos < self.end && !self.at_punct(";") && !self.at_punct("}") {
                self.pos += 1;
            }
            self.eat_punct(";");
            return Stmt::Opaque;
        }
        if let Some(t) = self.peek() {
            if let TokenKind::Ident(id) = &t.kind {
                if ITEM_KEYWORDS.contains(&id.as_str()) && !self.item_is_expr_head(id) {
                    self.skip_item();
                    return Stmt::Opaque;
                }
                if id == "const" && self.peek2().is_some_and(|t2| !t2.is_punct("{")) {
                    // `const X: T = …;` item (a `const { … }` block is an
                    // expression).
                    self.skip_item();
                    return Stmt::Opaque;
                }
            }
        }
        if self.at_punct("{") {
            return Stmt::Block(self.braced_block());
        }
        // Expression statement, possibly an assignment.
        let value = self.expr(false);
        if self.at_punct("=") {
            self.pos += 1;
            let rhs = self.expr(false);
            self.eat_punct(";");
            return Stmt::Assign { root: value.root_var().map(str::to_string), value: rhs, line };
        }
        for op in ["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="] {
            if self.at_punct(op) {
                self.pos += 1;
                let rhs = self.expr(false);
                self.eat_punct(";");
                let root = value.root_var().map(str::to_string);
                let combined = Expr::Binary {
                    op: op.trim_end_matches('=').to_string(),
                    lhs: Box::new(value),
                    rhs: Box::new(rhs),
                    line,
                };
                return Stmt::Assign { root, value: combined, line };
            }
        }
        if self.eat_punct(";") {
            return Stmt::Expr { value, tail: false };
        }
        let tail = self.pos >= self.end || self.at_punct("}");
        Stmt::Expr { value, tail }
    }

    /// Is this keyword actually an expression head here (`use` never is,
    /// but `struct`-like tokens never open exprs either; only `unsafe`
    /// would be, which is not in the item list)?
    fn item_is_expr_head(&mut self, _id: &str) -> bool {
        false
    }

    /// Skips one nested item: to its `;`, or past its matching `}`.
    fn skip_item(&mut self) {
        while self.pos < self.end {
            let t = &self.toks[self.pos];
            if t.is_punct(";") {
                self.pos += 1;
                return;
            }
            if t.is_punct("{") {
                self.skip_balanced();
                return;
            }
            if t.is_punct("}") {
                return;
            }
            self.pos += 1;
        }
    }

    fn let_stmt(&mut self, line: u32) -> Stmt {
        self.eat_ident("let");
        let names = self.pattern_until_eq();
        // Optional type ascription: skip to top-level `=` or `;`.
        if self.at_punct(":") {
            self.pos += 1;
            let mut angle = 0i32;
            while self.pos < self.end {
                match &self.toks[self.pos].kind {
                    TokenKind::Punct(p) if p == "<" || p == "<<" => {
                        angle += if p == "<<" { 2 } else { 1 }
                    }
                    TokenKind::Punct(p) if p == ">" || p == ">>" => {
                        angle -= if p == ">>" { 2 } else { 1 }
                    }
                    TokenKind::Punct(p) if p == "(" || p == "[" => {
                        self.skip_balanced();
                        continue;
                    }
                    TokenKind::Punct(p) if (p == "=" || p == ";") && angle <= 0 => break,
                    _ => {}
                }
                self.pos += 1;
            }
        }
        let mut init = None;
        let mut else_diverges = false;
        if self.eat_punct("=") {
            init = Some(self.expr(false));
            if self.eat_ident("else") {
                // `let … else { diverge }`.
                let _ = self.braced_block();
                else_diverges = true;
            }
        }
        self.eat_punct(";");
        Stmt::Let { names, init, line, else_diverges }
    }

    /// Collects pattern binding names up to a top-level `=`, `:`, or `;`.
    fn pattern_until_eq(&mut self) -> Vec<String> {
        self.pattern_until(|t| t.is_punct("=") || t.is_punct(":") || t.is_punct(";"))
    }

    /// Collects pattern binding names up to the given keyword.
    fn pattern_until_kw(&mut self, kw: &str) -> Vec<String> {
        let kw = kw.to_string();
        self.pattern_until(move |t| t.is_ident(&kw) || t.is_punct("{") || t.is_punct(";"))
    }

    fn pattern_until(&mut self, stop: impl Fn(&Token) -> bool) -> Vec<String> {
        let mut names = Vec::new();
        let mut depth = 0i64;
        while self.pos < self.end {
            self.skip_trivia();
            if self.pos >= self.end {
                break;
            }
            let t = &self.toks[self.pos];
            if depth == 0 && stop(t) {
                break;
            }
            match &t.kind {
                TokenKind::Punct(p) if p == "(" || p == "[" || p == "<" => depth += 1,
                TokenKind::Punct(p) if p == ")" || p == "]" || p == ">" => depth -= 1,
                TokenKind::Ident(id) => {
                    let keyword = matches!(id.as_str(), "mut" | "ref" | "box" | "_");
                    let upper = id.chars().next().is_some_and(char::is_uppercase);
                    let path_seg = self.pos + 1 < self.end
                        && self.toks[self.pos + 1].is_punct("::");
                    if !keyword && !upper && !path_seg {
                        names.push(id.clone());
                    }
                }
                _ => {}
            }
            self.pos += 1;
        }
        names
    }

    // ---- expressions ------------------------------------------------

    /// `no_struct`: in `if`/`while`/`match`-head position, where `X { …`
    /// opens the block rather than a struct literal.
    fn expr(&mut self, no_struct: bool) -> Expr {
        self.range_expr(no_struct)
    }

    fn range_expr(&mut self, ns: bool) -> Expr {
        // Prefix range: `..x` / `..=x` / bare `..`.
        if self.at_punct("..") || self.at_punct("..=") {
            let line = self.line();
            self.pos += 1;
            if self.range_operand_follows() {
                let rhs = self.or_expr(ns);
                return Expr::Binary {
                    op: "..".into(),
                    lhs: Box::new(Expr::Lit(line)),
                    rhs: Box::new(rhs),
                    line,
                };
            }
            return Expr::Lit(line);
        }
        let lhs = self.or_expr(ns);
        if self.at_punct("..") || self.at_punct("..=") {
            let line = self.line();
            self.pos += 1;
            let rhs = if self.range_operand_follows() {
                self.or_expr(ns)
            } else {
                Expr::Lit(line)
            };
            return Expr::Binary { op: "..".into(), lhs: Box::new(lhs), rhs: Box::new(rhs), line };
        }
        lhs
    }

    /// Does an operand follow the `..` at the cursor (vs. `]`, `)`, `{`…)?
    fn range_operand_follows(&mut self) -> bool {
        match self.peek().map(|t| &t.kind) {
            None => false,
            Some(TokenKind::Punct(p)) => matches!(p.as_str(), "(" | "&" | "*" | "-" | "!"),
            Some(_) => true,
        }
    }

    fn or_expr(&mut self, ns: bool) -> Expr {
        let mut lhs = self.and_expr(ns);
        while self.at_punct("||") {
            let line = self.line();
            self.pos += 1;
            let rhs = self.and_expr(ns);
            lhs = Expr::Binary { op: "||".into(), lhs: Box::new(lhs), rhs: Box::new(rhs), line };
        }
        lhs
    }

    fn and_expr(&mut self, ns: bool) -> Expr {
        let mut lhs = self.cmp_expr(ns);
        while self.at_punct("&&") {
            let line = self.line();
            self.pos += 1;
            let rhs = self.cmp_expr(ns);
            lhs = Expr::Binary { op: "&&".into(), lhs: Box::new(lhs), rhs: Box::new(rhs), line };
        }
        lhs
    }

    fn cmp_expr(&mut self, ns: bool) -> Expr {
        let mut lhs = self.bit_expr(ns);
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Punct(p))
                    if matches!(p.as_str(), "==" | "!=" | "<" | ">" | "<=" | ">=") =>
                {
                    p.clone()
                }
                _ => break,
            };
            let line = self.line();
            self.pos += 1;
            let rhs = self.bit_expr(ns);
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), line };
        }
        lhs
    }

    fn bit_expr(&mut self, ns: bool) -> Expr {
        let mut lhs = self.add_expr(ns);
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Punct(p))
                    if matches!(p.as_str(), "|" | "^" | "&" | "<<" | ">>") =>
                {
                    p.clone()
                }
                _ => break,
            };
            let line = self.line();
            self.pos += 1;
            let rhs = self.add_expr(ns);
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), line };
        }
        lhs
    }

    fn add_expr(&mut self, ns: bool) -> Expr {
        let mut lhs = self.mul_expr(ns);
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Punct(p)) if matches!(p.as_str(), "+" | "-") => p.clone(),
                _ => break,
            };
            let line = self.line();
            self.pos += 1;
            let rhs = self.mul_expr(ns);
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), line };
        }
        lhs
    }

    fn mul_expr(&mut self, ns: bool) -> Expr {
        let mut lhs = self.cast_expr(ns);
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Punct(p)) if matches!(p.as_str(), "*" | "/" | "%") => p.clone(),
                _ => break,
            };
            let line = self.line();
            self.pos += 1;
            let rhs = self.cast_expr(ns);
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), line };
        }
        lhs
    }

    fn cast_expr(&mut self, ns: bool) -> Expr {
        let lhs = self.unary_expr(ns);
        while self.at_ident("as") {
            self.pos += 1;
            self.skip_type();
        }
        lhs
    }

    /// Skips a type after `as` (idents, paths, generics, pointers).
    fn skip_type(&mut self) {
        loop {
            self.skip_trivia();
            if self.pos >= self.end {
                return;
            }
            match &self.toks[self.pos].kind {
                TokenKind::Ident(id)
                    if !matches!(id.as_str(), "else" | "if" | "match" | "as") =>
                {
                    self.pos += 1;
                }
                TokenKind::Punct(p) if p == "::" || p == "&" => self.pos += 1,
                TokenKind::Punct(p) if p == "<" => self.skip_angles(),
                TokenKind::Punct(p) if p == "*" => {
                    // Pointer type only when `*const`/`*mut` follows.
                    let next_is_ptr = self.pos + 1 < self.end
                        && (self.toks[self.pos + 1].is_ident("const")
                            || self.toks[self.pos + 1].is_ident("mut"));
                    if next_is_ptr {
                        self.pos += 2;
                    } else {
                        return;
                    }
                }
                _ => return,
            }
        }
    }

    fn unary_expr(&mut self, ns: bool) -> Expr {
        // `&`, `&mut`, `*`, `-`, `!` are taint-transparent.
        if self.at_punct("&") || self.at_punct("&&") {
            let double = self.at_punct("&&");
            self.pos += 1;
            self.eat_ident("mut");
            if double {
                // `&&x` lexed as one token: one more level of ref.
                return self.unary_expr(ns);
            }
            return self.unary_expr(ns);
        }
        if self.at_punct("*") || self.at_punct("-") || self.at_punct("!") {
            self.pos += 1;
            return self.unary_expr(ns);
        }
        self.postfix_expr(ns)
    }

    fn postfix_expr(&mut self, ns: bool) -> Expr {
        let mut e = self.primary_expr(ns);
        loop {
            if self.at_punct(".") {
                self.pos += 1;
                let line = self.line();
                match self.peek().map(|t| t.kind.clone()) {
                    Some(TokenKind::Int(n)) => {
                        self.pos += 1;
                        e = Expr::Field { recv: Box::new(e), name: n, line };
                    }
                    Some(TokenKind::Ident(name)) => {
                        self.pos += 1;
                        if name == "await" {
                            continue;
                        }
                        // Turbofish.
                        if self.at_punct("::") {
                            self.pos += 1;
                            if self.at_punct("<") {
                                self.skip_angles();
                            }
                        }
                        if self.at_punct("(") {
                            let args = self.call_args();
                            e = Expr::Method { recv: Box::new(e), name, args, line };
                        } else {
                            e = Expr::Field { recv: Box::new(e), name, line };
                        }
                    }
                    _ => {
                        // `.` followed by something unexpected; stop.
                        break;
                    }
                }
            } else if self.at_punct("(") {
                let line = self.line();
                let args = self.call_args();
                e = match e {
                    Expr::Var(n, l) => Expr::Call { path: vec![n], args, line: l },
                    Expr::Path(path, l) => Expr::Call { path, args, line: l },
                    other => {
                        Expr::Method { recv: Box::new(other), name: "__call".into(), args, line }
                    }
                };
            } else if self.at_punct("[") {
                let line = self.line();
                self.pos += 1;
                let idx = self.expr(false);
                self.eat_punct("]");
                e = Expr::Index { recv: Box::new(e), index: Box::new(idx), line };
            } else if self.at_punct("?") {
                let line = self.line();
                self.pos += 1;
                e = Expr::Try { inner: Box::new(e), line };
            } else {
                break;
            }
        }
        e
    }

    fn call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        if !self.eat_punct("(") {
            return args;
        }
        loop {
            self.skip_trivia();
            if self.pos >= self.end || self.at_punct(")") {
                break;
            }
            let before = self.pos;
            args.push(self.expr(false));
            if self.pos == before {
                self.pos += 1;
            }
            if !self.eat_punct(",") && !self.at_punct(")") {
                // Lost sync inside the arg list; bail to the close paren.
                let mut depth = 1usize;
                while self.pos < self.end {
                    let t = &self.toks[self.pos];
                    if t.is_punct("(") {
                        depth += 1;
                    } else if t.is_punct(")") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    self.pos += 1;
                }
                break;
            }
        }
        self.eat_punct(")");
        args
    }

    fn primary_expr(&mut self, ns: bool) -> Expr {
        let line = self.line();
        let Some(t) = self.peek() else { return Expr::Opaque(line) };
        match &t.kind {
            TokenKind::Int(_) | TokenKind::Float(_) | TokenKind::Str(_) | TokenKind::Char => {
                self.pos += 1;
                Expr::Lit(line)
            }
            TokenKind::Lifetime(_) => {
                // Label (`'outer: loop`): skip it and the `:`.
                self.pos += 1;
                self.eat_punct(":");
                self.primary_expr(ns)
            }
            TokenKind::Punct(p) if p == "(" => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_trivia();
                    if self.pos >= self.end || self.at_punct(")") {
                        break;
                    }
                    let before = self.pos;
                    items.push(self.expr(false));
                    if self.pos == before {
                        self.pos += 1;
                    }
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.eat_punct(")");
                if items.len() == 1 {
                    items.pop().unwrap_or(Expr::Opaque(line))
                } else {
                    Expr::Tuple { items, line }
                }
            }
            TokenKind::Punct(p) if p == "[" => {
                self.pos += 1;
                let mut items = Vec::new();
                let mut size = None;
                loop {
                    self.skip_trivia();
                    if self.pos >= self.end || self.at_punct("]") {
                        break;
                    }
                    let before = self.pos;
                    items.push(self.expr(false));
                    if self.pos == before {
                        self.pos += 1;
                    }
                    if self.eat_punct(";") {
                        size = Some(Box::new(self.expr(false)));
                        break;
                    }
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.eat_punct("]");
                Expr::Array { items, size, line }
            }
            TokenKind::Punct(p) if p == "{" => Expr::BlockExpr(Box::new(self.braced_block())),
            TokenKind::Punct(p) if p == "|" || p == "||" => self.closure_expr(line),
            TokenKind::Ident(id) => {
                let id = id.clone();
                match id.as_str() {
                    "if" => self.if_expr(line),
                    "match" => self.match_expr(line),
                    "move" => {
                        self.pos += 1;
                        self.closure_expr(line)
                    }
                    "unsafe" => {
                        self.pos += 1;
                        Expr::BlockExpr(Box::new(self.braced_block()))
                    }
                    "const" if self.peek2().is_some_and(|t| t.is_punct("{")) => {
                        self.pos += 1;
                        Expr::BlockExpr(Box::new(self.braced_block()))
                    }
                    "loop" | "while" | "for" => {
                        // Loop in expression position: parse as a statement
                        // and expose the body.
                        let s = self.stmt();
                        let body = match s {
                            Stmt::Loop { body } | Stmt::For { body, .. } => body,
                            other => Block { stmts: vec![other] },
                        };
                        Expr::BlockExpr(Box::new(body))
                    }
                    "true" | "false" => {
                        self.pos += 1;
                        Expr::Lit(line)
                    }
                    "return" => {
                        // `return` in expression position (e.g. match arm).
                        self.pos += 1;
                        if !(self.at_punct(",") || self.at_punct("}") || self.at_punct(";")) {
                            let _ = self.expr(false);
                        }
                        Expr::Opaque(line)
                    }
                    _ => self.path_expr(ns, line),
                }
            }
            _ => {
                self.pos += 1;
                Expr::Opaque(line)
            }
        }
    }

    fn closure_expr(&mut self, line: u32) -> Expr {
        let mut params = Vec::new();
        if self.eat_punct("||") {
            // Zero-parameter closure.
        } else if self.eat_punct("|") {
            loop {
                self.skip_trivia();
                if self.pos >= self.end || self.at_punct("|") {
                    break;
                }
                match &self.toks[self.pos].kind {
                    TokenKind::Ident(id)
                        if !matches!(id.as_str(), "mut" | "ref" | "_") =>
                    {
                        params.push(id.clone());
                        self.pos += 1;
                        // Type annotation: skip to `,` or `|` at depth 0.
                        if self.at_punct(":") {
                            self.pos += 1;
                            let mut depth = 0i64;
                            while self.pos < self.end {
                                match &self.toks[self.pos].kind {
                                    TokenKind::Punct(p) if p == "(" || p == "[" || p == "<" => {
                                        depth += 1
                                    }
                                    TokenKind::Punct(p) if p == ")" || p == "]" || p == ">" => {
                                        depth -= 1
                                    }
                                    TokenKind::Punct(p)
                                        if (p == "," || p == "|") && depth <= 0 =>
                                    {
                                        break
                                    }
                                    _ => {}
                                }
                                self.pos += 1;
                            }
                        }
                    }
                    TokenKind::Punct(p) if p == "(" || p == "[" => self.skip_balanced(),
                    _ => self.pos += 1,
                }
                self.eat_punct(",");
            }
            self.eat_punct("|");
        }
        // Optional return type `-> T`.
        if self.at_punct("->") {
            self.pos += 1;
            self.skip_type();
        }
        let body = self.expr(false);
        Expr::Closure { params, body: Box::new(body), line }
    }

    fn if_expr(&mut self, line: u32) -> Expr {
        self.eat_ident("if");
        let mut bindings = Vec::new();
        let cond = if self.eat_ident("let") {
            bindings = self.pattern_until_eq();
            self.eat_punct("=");
            self.expr(true)
        } else {
            self.expr(true)
        };
        let then = self.braced_block();
        let else_ = if self.eat_ident("else") {
            if self.at_ident("if") {
                let nested_line = self.line();
                let nested = self.if_expr(nested_line);
                Some(Box::new(Block {
                    stmts: vec![Stmt::Expr { value: nested, tail: true }],
                }))
            } else {
                Some(Box::new(self.braced_block()))
            }
        } else {
            None
        };
        Expr::If { cond: Box::new(cond), bindings, then: Box::new(then), else_, line }
    }

    fn match_expr(&mut self, line: u32) -> Expr {
        self.eat_ident("match");
        let scrutinee = self.expr(true);
        let mut arms = Vec::new();
        if self.eat_punct("{") {
            loop {
                self.skip_trivia();
                if self.pos >= self.end || self.at_punct("}") {
                    break;
                }
                let before = self.pos;
                // Pattern: collect bindings up to `=>`, splitting off an
                // `if` guard.
                let mut bindings = Vec::new();
                let mut guard = None;
                let mut depth = 0i64;
                while self.pos < self.end {
                    self.skip_trivia();
                    if self.pos >= self.end {
                        break;
                    }
                    let t = &self.toks[self.pos];
                    if depth == 0 && t.is_punct("=>") {
                        break;
                    }
                    if depth == 0 && t.is_ident("if") {
                        self.pos += 1;
                        guard = Some(self.guard_expr());
                        continue;
                    }
                    match &t.kind {
                        TokenKind::Punct(p) if p == "(" || p == "[" => depth += 1,
                        TokenKind::Punct(p) if p == ")" || p == "]" => depth -= 1,
                        TokenKind::Ident(id) => {
                            let keyword = matches!(id.as_str(), "mut" | "ref" | "box" | "_");
                            let upper = id.chars().next().is_some_and(char::is_uppercase);
                            let path_seg = self.pos + 1 < self.end
                                && self.toks[self.pos + 1].is_punct("::");
                            if !keyword && !upper && !path_seg {
                                bindings.push(id.clone());
                            }
                        }
                        _ => {}
                    }
                    self.pos += 1;
                }
                self.eat_punct("=>");
                let body = self.expr(false);
                self.eat_punct(",");
                arms.push(Arm { bindings, guard, body });
                if self.pos == before {
                    self.pos += 1;
                }
            }
            self.eat_punct("}");
        }
        Expr::Match { scrutinee: Box::new(scrutinee), arms, line }
    }

    /// A match-arm guard expression: like `expr(true)` but must stop at
    /// the `=>`.
    fn guard_expr(&mut self) -> Expr {
        let start = self.pos;
        let mut depth = 0i64;
        let mut end = self.pos;
        while end < self.end {
            let t = &self.toks[end];
            if t.is_trivia() {
                end += 1;
                continue;
            }
            match &t.kind {
                TokenKind::Punct(p) if p == "(" || p == "[" || p == "{" => depth += 1,
                TokenKind::Punct(p) if p == ")" || p == "]" || p == "}" => depth -= 1,
                TokenKind::Punct(p) if p == "=>" && depth <= 0 => break,
                _ => {}
            }
            end += 1;
        }
        let mut sub = Parser { toks: self.toks, pos: start, end };
        let g = sub.expr(true);
        self.pos = end;
        g
    }

    /// A path head: `a::b::c`, then a call, macro, struct literal, or a
    /// bare path/var reference.
    fn path_expr(&mut self, ns: bool, line: u32) -> Expr {
        let mut segments = Vec::new();
        while let Some(TokenKind::Ident(id)) = self.peek().map(|t| t.kind.clone()) {
            segments.push(id);
            self.pos += 1;
            if self.at_punct("::") {
                self.pos += 1;
                // Turbofish inside a path.
                if self.at_punct("<") {
                    self.skip_angles();
                    if self.at_punct("::") {
                        self.pos += 1;
                        continue;
                    }
                    break;
                }
                continue;
            }
            break;
        }
        if segments.is_empty() {
            self.pos += 1;
            return Expr::Opaque(line);
        }
        // Macro invocation.
        if self.at_punct("!") && self.peek2().is_some_and(|t| {
            t.is_punct("(") || t.is_punct("[") || t.is_punct("{")
        }) {
            self.pos += 1;
            return self.macro_call(segments, line);
        }
        // Struct literal (unless suppressed by condition position).
        if !ns && self.at_punct("{") && self.struct_literal_ahead() {
            return self.struct_literal(segments, line);
        }
        // Plain call.
        if self.at_punct("(") {
            let args = self.call_args();
            return Expr::Call { path: segments, args, line };
        }
        if segments.len() == 1 {
            let seg = segments.pop().unwrap_or_default();
            Expr::Var(seg, line)
        } else {
            Expr::Path(segments, line)
        }
    }

    /// Lookahead after `path {`: does this look like a struct literal
    /// (`{ ident:`, `{ ident,`, `{ ident }`, `{ .. }`, `{ }`)?
    fn struct_literal_ahead(&mut self) -> bool {
        self.skip_trivia();
        let mut i = self.pos + 1; // past `{`
        let mut first = None;
        while i < self.end {
            if !self.toks[i].is_trivia() {
                first = Some(i);
                break;
            }
            i += 1;
        }
        let Some(fi) = first else { return false };
        match &self.toks[fi].kind {
            TokenKind::Punct(p) if p == "}" || p == ".." => true,
            TokenKind::Ident(_) => {
                let mut j = fi + 1;
                while j < self.end && self.toks[j].is_trivia() {
                    j += 1;
                }
                j < self.end
                    && matches!(&self.toks[j].kind,
                        TokenKind::Punct(p) if p == ":" || p == "," || p == "}")
            }
            _ => false,
        }
    }

    fn struct_literal(&mut self, path: Vec<String>, line: u32) -> Expr {
        self.eat_punct("{");
        let mut fields = Vec::new();
        loop {
            self.skip_trivia();
            if self.pos >= self.end || self.at_punct("}") {
                break;
            }
            let before = self.pos;
            if self.eat_punct("..") {
                let base = self.expr(false);
                fields.push(("..".to_string(), base));
            } else if let Some(TokenKind::Ident(name)) = self.peek().map(|t| t.kind.clone()) {
                self.pos += 1;
                if self.eat_punct(":") {
                    let value = self.expr(false);
                    fields.push((name, value));
                } else {
                    let l = self.line();
                    fields.push((name.clone(), Expr::Var(name, l)));
                }
            } else {
                self.pos += 1;
            }
            self.eat_punct(",");
            if self.pos == before {
                self.pos += 1;
            }
        }
        self.eat_punct("}");
        Expr::Struct { path, fields, line }
    }

    fn macro_call(&mut self, segments: Vec<String>, line: u32) -> Expr {
        let name = segments.last().cloned().unwrap_or_default();
        // Find the span of the delimited body.
        let start = self.pos;
        self.skip_balanced();
        let inner_start = start + 1;
        let inner_end = self.pos.saturating_sub(1).max(inner_start);
        let inner = &self.toks[inner_start.min(self.end)..inner_end.min(self.end)];
        let idents: Vec<String> = inner
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Ident(id) => Some(id.clone()),
                _ => None,
            })
            .collect();
        // Split the interior at top-level `;` (vec![x; n]) and `,`.
        let mut args = Vec::new();
        let mut size_arg = None;
        let mut part_start = 0usize;
        let mut depth = 0i64;
        let mut semi_at = None;
        let mut commas = Vec::new();
        for (i, t) in inner.iter().enumerate() {
            match &t.kind {
                TokenKind::Punct(p) if p == "(" || p == "[" || p == "{" => depth += 1,
                TokenKind::Punct(p) if p == ")" || p == "]" || p == "}" => depth -= 1,
                TokenKind::Punct(p) if p == ";" && depth == 0 && semi_at.is_none() => {
                    semi_at = Some(i);
                }
                TokenKind::Punct(p) if p == "," && depth == 0 => commas.push(i),
                _ => {}
            }
        }
        let parse_slice = |lo: usize, hi: usize| -> Expr {
            if lo >= hi {
                return Expr::Opaque(line);
            }
            let mut sub = Parser {
                toks: inner,
                pos: lo,
                end: hi,
            };
            sub.expr(false)
        };
        if let Some(semi) = semi_at {
            args.push(parse_slice(0, semi));
            size_arg = Some(Box::new(parse_slice(semi + 1, inner.len())));
        } else {
            for &c in &commas {
                args.push(parse_slice(part_start, c));
                part_start = c + 1;
            }
            args.push(parse_slice(part_start, inner.len()));
        }
        Expr::Macro { name, args, size_arg, idents, line }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context;
    use crate::lexer::lex;

    /// Parses the body of the first fn in `src`.
    fn body_of(src: &str) -> Block {
        let toks = lex(src);
        let ctx = context::analyze(&toks);
        let span = ctx.fns[0].body.expect("fn has a body");
        parse_body(&toks, span)
    }

    #[test]
    fn let_call_chain_parses() {
        let b = body_of("fn f() { let v = doc.get(\"k\").and_then(JsonValue::as_f64); }\n");
        assert_eq!(b.stmts.len(), 1);
        let Stmt::Let { names, init: Some(init), .. } = &b.stmts[0] else {
            panic!("expected let: {:?}", b.stmts[0]);
        };
        assert_eq!(names, &["v"]);
        let Expr::Method { name, args, recv, .. } = init else { panic!("expected method") };
        assert_eq!(name, "and_then");
        assert!(matches!(&args[0], Expr::Path(p, _) if p == &["JsonValue", "as_f64"]));
        assert!(matches!(&**recv, Expr::Method { name, .. } if name == "get"));
    }

    #[test]
    fn if_with_comparison_and_divergent_then() {
        let b = body_of(
            "fn f(v: f64) -> Result<(), E> { if !(v.is_finite() && v >= 0.0) { return Err(e); } Ok(v) }\n",
        );
        let Stmt::Expr { value: Expr::If { cond, then, .. }, .. } = &b.stmts[0] else {
            panic!("expected if: {:?}", b.stmts[0]);
        };
        // The negation is transparent; the condition is the && tree.
        assert!(matches!(&**cond, Expr::Binary { op, .. } if op == "&&"));
        assert!(matches!(then.stmts[0], Stmt::Return { .. }));
    }

    #[test]
    fn struct_literal_vs_block() {
        let b = body_of("fn f() { let q = Query { cost: c, sd }; }\n");
        let Stmt::Let { init: Some(Expr::Struct { path, fields, .. }), .. } = &b.stmts[0] else {
            panic!("expected struct literal: {:?}", b.stmts[0]);
        };
        assert_eq!(path, &["Query"]);
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[1].0, "sd");
        assert!(matches!(&fields[1].1, Expr::Var(n, _) if n == "sd"));
    }

    #[test]
    fn condition_position_suppresses_struct_literal() {
        let b = body_of("fn f() { if x { g(); } }\n");
        let Stmt::Expr { value: Expr::If { cond, then, .. }, .. } = &b.stmts[0] else {
            panic!("expected if: {:?}", b.stmts[0]);
        };
        assert!(matches!(&**cond, Expr::Var(n, _) if n == "x"));
        assert_eq!(then.stmts.len(), 1);
    }

    #[test]
    fn closures_capture_params_and_body() {
        let b = body_of("fn f() { items.iter().map(|item| cost(cache, item)); }\n");
        let Stmt::Expr { value: Expr::Method { name, args, .. }, .. } = &b.stmts[0] else {
            panic!("expected method: {:?}", b.stmts[0]);
        };
        assert_eq!(name, "map");
        let Expr::Closure { params, body, .. } = &args[0] else { panic!("expected closure") };
        assert_eq!(params, &["item"]);
        assert!(matches!(&**body, Expr::Call { path, .. } if path == &["cost"]));
    }

    #[test]
    fn vec_macro_with_size() {
        let b = body_of("fn f(n: usize) { let v = vec![0.0; n * 2]; }\n");
        let Stmt::Let { init: Some(Expr::Macro { name, size_arg, .. }), .. } = &b.stmts[0] else {
            panic!("expected macro: {:?}", b.stmts[0]);
        };
        assert_eq!(name, "vec");
        assert!(matches!(size_arg.as_deref(), Some(Expr::Binary { op, .. }) if op == "*"));
    }

    #[test]
    fn match_arms_bind_and_guard() {
        let b = body_of(
            "fn f(x: Option<f64>) { match x { Some(v) if v > 0.0 => g(v), None => h(), _ => {} } }\n",
        );
        let Stmt::Expr { value: Expr::Match { arms, .. }, .. } = &b.stmts[0] else {
            panic!("expected match: {:?}", b.stmts[0]);
        };
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[0].bindings, vec!["v"]);
        assert!(arms[0].guard.is_some());
        assert!(matches!(&arms[0].body, Expr::Call { path, .. } if path == &["g"]));
    }

    #[test]
    fn try_and_index_postfix() {
        let b = body_of("fn f() -> Result<(), E> { let x = items[i + 1].parse::<u64>()?; Ok(()) }\n");
        let Stmt::Let { init: Some(Expr::Try { inner, .. }), .. } = &b.stmts[0] else {
            panic!("expected try: {:?}", b.stmts[0]);
        };
        let Expr::Method { name, recv, .. } = &**inner else { panic!("expected method") };
        assert_eq!(name, "parse");
        assert!(matches!(&**recv, Expr::Index { .. }));
    }

    #[test]
    fn for_loop_binds_iter() {
        let b = body_of("fn f(xs: Vec<f64>) { for x in xs { g(x); } }\n");
        let Stmt::For { bindings, iter, body, .. } = &b.stmts[0] else {
            panic!("expected for: {:?}", b.stmts[0]);
        };
        assert_eq!(bindings, &["x"]);
        assert!(matches!(iter, Expr::Var(n, _) if n == "xs"));
        assert_eq!(body.stmts.len(), 1);
    }

    #[test]
    fn let_else_marks_divergence() {
        let b = body_of("fn f(o: Option<u32>) { let Some(v) = o else { return; }; g(v); }\n");
        let Stmt::Let { names, else_diverges, .. } = &b.stmts[0] else {
            panic!("expected let: {:?}", b.stmts[0]);
        };
        assert_eq!(names, &["v"]);
        assert!(else_diverges);
        assert!(matches!(&b.stmts[1], Stmt::Expr { .. }));
    }

    #[test]
    fn compound_assignment_wraps_binary() {
        let b = body_of("fn f(mut acc: f64, x: f64) { acc += x * 2.0; }\n");
        let Stmt::Assign { root, value, .. } = &b.stmts[0] else {
            panic!("expected assign: {:?}", b.stmts[0]);
        };
        assert_eq!(root.as_deref(), Some("acc"));
        assert!(matches!(value, Expr::Binary { op, .. } if op == "+"));
    }

    #[test]
    fn never_panics_on_garbage() {
        // Fragments that are not valid Rust must still parse to *something*.
        for src in [
            "fn f() { ) ( ] [ ; let = = ; }\n",
            "fn f() { x.. .. ..= }\n",
            "fn f() { match { => , } }\n",
            "fn f() { |a b c| }\n",
            "fn f() { Foo { , , } }\n",
            "fn f() { a!(((( }\n",
        ] {
            let _ = body_of(src);
        }
    }

    #[test]
    fn nested_items_are_skipped_opaque() {
        let b = body_of("fn f() { struct S { a: u8 } let x = g(); }\n");
        assert!(matches!(b.stmts[0], Stmt::Opaque));
        assert!(matches!(&b.stmts[1], Stmt::Let { .. }));
    }

    #[test]
    fn tail_expression_is_flagged() {
        let b = body_of("fn f(x: f64) -> f64 { let y = x; y * 2.0 }\n");
        let Stmt::Expr { tail, .. } = &b.stmts[1] else { panic!("expected tail expr") };
        assert!(tail);
    }
}
