//! The intra-procedural taint engine behind rule R8, with
//! inter-procedural function summaries.
//!
//! Model: values from **untrusted sources** (JSON numeric accessors,
//! `std::env`, file reads) are *tainted*. Taint propagates through
//! bindings, arithmetic, field/struct/tuple composition, closures, and
//! function calls (via summaries). It is cleared by **sanitizers** —
//! fallible validators (`try_*`, `parse`, fallible `nanocost-units`
//! constructors) and divergent range-check guards
//! (`if !(v.is_finite() && …) { return Err(…) }`). A tainted value
//! reaching a **sink** — an infallible units constructor, arithmetic in
//! a model-crate fn, a slice index, or an allocation size — is an R8
//! finding.
//!
//! Summaries make the analysis inter-procedural without being
//! whole-program: for every workspace fn we compute, to fixpoint,
//! whether it *returns source taint*, whether *argument taint flows to
//! its return*, and whether *argument taint reaches a sink inside it*.
//! Call sites then consult the callee's summary instead of inlining.

use std::collections::HashSet;

use crate::parse::{Arm, Block, Expr, Stmt};
use crate::symbols::SymbolTable;

/// Crates whose arithmetic is a taint sink (the model itself) — kept in
/// sync with `rules::MODEL_CRATES`.
const MODEL_CRATES: &[&str] = &["core", "yield-model", "flow"];

/// The crate holding the unit newtypes whose constructors the engine
/// classifies by fallibility.
const UNITS_CRATE: &str = "units";

/// Method names that *produce* untrusted values — the JSON numeric
/// accessors. Only counted in [`RAW_INPUT_CRATES`] (where raw request
/// bodies are handled): unit newtypes expose `as_f64()` accessors over
/// *validated* data, and those must not alarm.
const SOURCE_METHODS: &[&str] = &["as_f64", "as_u64", "as_i64"];

/// Crates that parse raw external input (JSON request bodies), where a
/// bare `.as_f64()` method call is a taint source.
const RAW_INPUT_CRATES: &[&str] = &["serve"];

/// The type whose numeric accessors are sources regardless of crate
/// (`JsonValue::as_f64` passed as a fn reference names it explicitly).
const JSON_TYPE: &str = "JsonValue";

/// Call paths (matched on their trailing segments) that produce
/// untrusted values.
const SOURCE_PATHS: &[&[&str]] = &[
    &["env", "var"],
    &["env", "var_os"],
    &["env", "args"],
    &["fs", "read"],
    &["fs", "read_to_string"],
];

/// Method/function names that always return untainted values regardless
/// of receiver taint (positions, lengths, emptiness — magnitudes the
/// attacker does not control).
const TAINT_STOPPERS: &[&str] =
    &["len", "count", "position", "rposition", "find", "rfind", "is_empty", "capacity"];

/// Method names that size an allocation from their argument.
const ALLOC_SINKS: &[&str] = &["with_capacity", "reserve", "reserve_exact"];

/// One per-fn summary, computed to fixpoint over the call graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// The fn returns source-derived taint even with clean arguments.
    pub returns_source: bool,
    /// Taint on any argument flows to the return value.
    pub flows_through: bool,
    /// The fn is a sanitizer: its result is validated (fallible `try_*`
    /// / `parse` / fallible units constructor).
    pub validator: bool,
    /// Taint on an argument reaches a sink inside the fn (description of
    /// that sink, for call-site diagnostics).
    pub param_sink: Option<String>,
}

/// One R8 finding inside a fn body.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TaintFinding {
    /// Line of the sink expression.
    pub line: u32,
    /// What flowed where.
    pub message: String,
}

/// How many fixpoint rounds the summary computation may take. The chain
/// depth of real call graphs is far below this; the cap only bounds
/// pathological cycles.
const MAX_ROUNDS: usize = 12;

/// Computes summaries for every fn in the table, to fixpoint.
pub fn summarize(table: &SymbolTable) -> Vec<Summary> {
    let mut summaries: Vec<Summary> = table
        .fns
        .iter()
        .map(|f| Summary {
            validator: static_validator(&f.name, &f.crate_name, f.ret_result),
            ..Summary::default()
        })
        .collect();
    for _ in 0..MAX_ROUNDS {
        let mut changed = false;
        for (i, f) in table.fns.iter().enumerate() {
            let Some(body) = &f.body else { continue };
            let params: Vec<String> = param_names(table, i);
            // Pass 1: arguments tainted, sources disabled — measures how
            // argument taint moves (flows_through / param_sink).
            let mut eng = Engine::new(table, &summaries, Mode::ParamsOnly, &f.crate_name);
            eng.tainted.extend(params.iter().cloned());
            eng.locals.extend(params.iter().cloned());
            let ret1 = eng.eval_block(body);
            let flows = (ret1 || eng.return_tainted) && !summaries[i].validator;
            let sink = eng.param_sink.clone();
            // Pass 2: arguments clean, sources live — measures whether
            // the fn manufactures taint itself.
            let mut eng2 = Engine::new(table, &summaries, Mode::SourcesOnly, &f.crate_name);
            eng2.locals.extend(params.iter().cloned());
            let ret2 = eng2.eval_block(body);
            let produces = (ret2 || eng2.return_tainted) && !summaries[i].validator;
            let new = Summary {
                returns_source: produces,
                flows_through: flows,
                validator: summaries[i].validator,
                param_sink: sink,
            };
            if new != summaries[i] {
                summaries[i] = new;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    summaries
}

/// Reports R8 findings for one fn body (top level: params clean, sources
/// live, sinks fire).
pub fn check_fn(
    table: &SymbolTable,
    summaries: &[Summary],
    crate_name: &str,
    params: &[String],
    body: &Block,
) -> Vec<TaintFinding> {
    let mut eng = Engine::new(table, summaries, Mode::Report, crate_name);
    eng.locals.extend(params.iter().cloned());
    eng.eval_block(body);
    let mut out: Vec<TaintFinding> = eng
        .findings
        .into_iter()
        .map(|(line, message)| TaintFinding { line, message })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Is this fn a sanitizer by declaration alone?
fn static_validator(name: &str, crate_name: &str, ret_result: bool) -> bool {
    (name.starts_with("try_") && ret_result)
        || name == "parse"
        || (crate_name == UNITS_CRATE && ret_result)
}

fn param_names(table: &SymbolTable, i: usize) -> Vec<String> {
    table.fns[i].param_names.clone()
}

enum Mode {
    /// Summary pass 1: params are tainted, sources are inert.
    ParamsOnly,
    /// Summary pass 2: params clean, sources live. Sinks are recorded
    /// but findings are discarded (the fn's own Report pass will refind
    /// them).
    SourcesOnly,
    /// Top-level reporting: sources live, sinks fire diagnostics.
    Report,
}

struct Engine<'a> {
    table: &'a SymbolTable,
    summaries: &'a [Summary],
    mode: Mode,
    crate_name: &'a str,
    tainted: HashSet<String>,
    /// Every name bound locally (params, lets, loop/match/closure
    /// bindings) — a call through one of these is a closure-variable
    /// call, not a workspace fn (`compute()` where `compute` is a
    /// parameter must not borrow some fn named `compute`'s summary).
    locals: HashSet<String>,
    findings: Vec<(u32, String)>,
    /// Any `return e` with tainted `e` was seen.
    return_tainted: bool,
    /// In summary mode: a description of a sink argument taint reached.
    param_sink: Option<String>,
}

impl<'a> Engine<'a> {
    fn new(
        table: &'a SymbolTable,
        summaries: &'a [Summary],
        mode: Mode,
        crate_name: &'a str,
    ) -> Self {
        Engine {
            table,
            summaries,
            mode,
            crate_name,
            tainted: HashSet::new(),
            locals: HashSet::new(),
            findings: Vec::new(),
            return_tainted: false,
            param_sink: None,
        }
    }

    fn sources_live(&self) -> bool {
        !matches!(self.mode, Mode::ParamsOnly)
    }

    fn in_model_crate(&self) -> bool {
        MODEL_CRATES.contains(&self.crate_name)
    }

    fn sink(&mut self, line: u32, message: String) {
        if matches!(self.mode, Mode::Report) {
            self.findings.push((line, message));
        } else if self.param_sink.is_none() {
            self.param_sink = Some(message);
        }
    }

    fn bind(&mut self, names: &[String], tainted: bool) {
        for n in names {
            self.locals.insert(n.clone());
            if tainted {
                self.tainted.insert(n.clone());
            } else {
                self.tainted.remove(n);
            }
        }
    }

    /// Evaluates a block; returns the taint of its tail expression.
    fn eval_block(&mut self, b: &Block) -> bool {
        let mut tail = false;
        for s in &b.stmts {
            tail = false;
            match s {
                Stmt::Let { names, init, .. } => {
                    let t = init.as_ref().map(|e| self.eval(e)).unwrap_or(false);
                    self.bind(names, t);
                }
                Stmt::Assign { root, value, .. } => {
                    let t = self.eval(value);
                    if let Some(r) = root {
                        self.bind(std::slice::from_ref(r), t);
                    }
                }
                Stmt::Expr { value, tail: is_tail } => {
                    let t = self.eval(value);
                    if *is_tail {
                        tail = t;
                    }
                }
                Stmt::Return { value, .. } => {
                    if let Some(e) = value {
                        if self.eval(e) {
                            self.return_tainted = true;
                        }
                    }
                }
                Stmt::For { bindings, iter, body, .. } => {
                    let t = self.eval(iter);
                    self.bind(bindings, t);
                    // Two passes propagate loop-carried taint through
                    // accumulators; findings dedupe at the end.
                    self.eval_block(body);
                    self.eval_block(body);
                }
                Stmt::Loop { body } => {
                    self.eval_block(body);
                    self.eval_block(body);
                }
                Stmt::Block(inner) => {
                    self.eval_block(inner);
                }
                Stmt::Opaque => {}
            }
        }
        tail
    }

    fn eval(&mut self, e: &Expr) -> bool {
        match e {
            Expr::Lit(_) | Expr::Opaque(_) => false,
            Expr::Var(n, _) => self.tainted.contains(n),
            Expr::Path(path, _) => {
                // A bare reference to a source fn (`JsonValue::as_f64`
                // passed to `and_then`) taints whatever consumes it.
                self.sources_live() && self.path_is_source(path)
            }
            Expr::Call { path, args, line } => self.eval_call(path, args, *line),
            Expr::Method { recv, name, args, line } => self.eval_method(recv, name, args, *line),
            Expr::Field { recv, .. } => self.eval(recv),
            Expr::Index { recv, index, line } => {
                let it = self.eval(index);
                let rt = self.eval(recv);
                if it {
                    self.sink(*line, "tainted value used as slice/collection index".into());
                }
                rt
            }
            Expr::Binary { op, lhs, rhs, line } => {
                let lt = self.eval(lhs);
                let rt = self.eval(rhs);
                match op.as_str() {
                    "==" | "!=" | "<" | ">" | "<=" | ">=" | "&&" | "||" => false,
                    "+" | "-" | "*" | "/" | "%" => {
                        if (lt || rt) && self.in_model_crate() {
                            self.sink(
                                *line,
                                "tainted value used in model arithmetic without validation"
                                    .into(),
                            );
                        }
                        lt || rt
                    }
                    _ => lt || rt,
                }
            }
            Expr::Try { inner, .. } => self.eval(inner),
            Expr::Struct { fields, .. } => {
                let mut t = false;
                for (_, v) in fields {
                    t |= self.eval(v);
                }
                t
            }
            Expr::Tuple { items, .. } => {
                let mut t = false;
                for i in items {
                    t |= self.eval(i);
                }
                t
            }
            Expr::Array { items, size, line } => {
                let mut t = false;
                for i in items {
                    t |= self.eval(i);
                }
                if let Some(s) = size {
                    if self.eval(s) {
                        self.sink(*line, "tainted value used as array/allocation size".into());
                    }
                }
                t
            }
            Expr::Closure { params, body, .. } => {
                // Evaluated as a value: body runs with clean params; the
                // closure's production taint is its body taint. Sinks
                // inside still fire.
                let saved: Vec<bool> =
                    params.iter().map(|p| self.tainted.contains(p)).collect();
                self.bind(params, false);
                let t = self.eval(body);
                for (p, was) in params.iter().zip(saved) {
                    if was {
                        self.tainted.insert(p.clone());
                    }
                }
                t
            }
            Expr::If { cond, bindings, then, else_, .. } => {
                let ct = self.eval(cond);
                self.bind(bindings, ct);
                let tt = self.eval_block(then);
                let et = else_.as_ref().map(|b| self.eval_block(b)).unwrap_or(false);
                // Divergent range-check guard: `if <checks on v> {
                // return/Err… }` validates v for the code after.
                if block_diverges(then) {
                    for v in checked_vars(cond) {
                        self.tainted.remove(&v);
                    }
                }
                tt || et
            }
            Expr::Match { scrutinee, arms, .. } => {
                let st = self.eval(scrutinee);
                let mut t = false;
                for Arm { bindings, guard, body } in arms {
                    self.bind(bindings, st);
                    if let Some(g) = guard {
                        self.eval(g);
                    }
                    t |= self.eval(body);
                }
                t
            }
            Expr::BlockExpr(b) => self.eval_block(b),
            Expr::Macro { name, args, size_arg, line, .. } => {
                let mut t = false;
                for a in args {
                    t |= self.eval(a);
                }
                if let Some(s) = size_arg {
                    if self.eval(s) {
                        self.sink(
                            *line,
                            format!("tainted value used as `{name}!` allocation size"),
                        );
                    }
                }
                t
            }
        }
    }

    fn eval_call(&mut self, path: &[String], args: &[Expr], line: u32) -> bool {
        let arg_taints: Vec<bool> = args.iter().map(|a| self.eval_arg(a, false)).collect();
        let any_tainted = arg_taints.iter().any(|&t| t);
        let name = path.last().map(String::as_str).unwrap_or("");

        // A call through a local binding (`compute()` where `compute` is
        // a parameter or `let`) invokes an unknown closure, not whatever
        // workspace fn happens to share the name.
        if path.len() == 1 && self.locals.contains(name) {
            return any_tainted || self.tainted.contains(name);
        }

        // Allocation sizing by free-fn/assoc-fn call (Vec::with_capacity).
        if ALLOC_SINKS.contains(&name) && any_tainted {
            self.sink(line, format!("tainted value sizes an allocation via `{name}`"));
        }

        if self.sanitizer_call(path, name) {
            return false;
        }
        if self.sources_live() && self.path_is_source(path) {
            return true;
        }

        let mut result = any_tainted;
        let candidates = self.table.resolve_call(path).to_vec();
        result |= self.consult_summaries(&candidates, name, &arg_taints, any_tainted, line);
        result
    }

    fn eval_method(&mut self, recv: &Expr, name: &str, args: &[Expr], line: u32) -> bool {
        let rt = self.eval(recv);
        // Closure args to iterator adapters see the receiver's taint on
        // their parameters (`items.iter().map(|item| …)`).
        let arg_taints: Vec<bool> = args.iter().map(|a| self.eval_arg(a, rt)).collect();
        let any_tainted = arg_taints.iter().any(|&t| t) || rt;

        if ALLOC_SINKS.contains(&name) && arg_taints.iter().any(|&t| t) {
            self.sink(line, format!("tainted value sizes an allocation via `{name}`"));
        }
        if self.sources_live()
            && SOURCE_METHODS.contains(&name)
            && RAW_INPUT_CRATES.contains(&self.crate_name)
        {
            return true;
        }
        if TAINT_STOPPERS.contains(&name) {
            return false;
        }
        if name.starts_with("try_") || name == "parse" {
            return false;
        }
        let mut result = any_tainted;
        // Method names resolve by bare name, which reaches across crates
        // far too eagerly (`.get`, `.value`, `.new` are everywhere); only
        // same-crate candidates carry their summaries into a method call.
        let candidates: Vec<usize> = self
            .table
            .resolve_name(name)
            .iter()
            .copied()
            .filter(|&c| self.table.fns[c].crate_name == self.crate_name)
            .collect();
        // A method call's "argument taint" includes the receiver (self).
        let mut full_taints = vec![rt];
        full_taints.extend(arg_taints.iter().copied());
        result |= self.consult_summaries(&candidates, name, &full_taints, any_tainted, line);
        if self.summary_validator(&candidates) {
            return false;
        }
        result
    }

    /// Evaluates one call argument; closures get `closure_param_taint`
    /// bound to their parameters.
    fn eval_arg(&mut self, a: &Expr, closure_param_taint: bool) -> bool {
        if let Expr::Closure { params, body, .. } = a {
            let saved: Vec<bool> = params.iter().map(|p| self.tainted.contains(p)).collect();
            self.bind(params, closure_param_taint);
            let t = self.eval(body);
            for (p, was) in params.iter().zip(saved) {
                if was {
                    self.tainted.insert(p.clone());
                } else {
                    self.tainted.remove(p);
                }
            }
            return t;
        }
        self.eval(a)
    }

    /// Folds callee summaries into the call result; fires call-site
    /// sinks for callees whose params reach sinks.
    fn consult_summaries(
        &mut self,
        candidates: &[usize],
        name: &str,
        arg_taints: &[bool],
        any_tainted: bool,
        line: u32,
    ) -> bool {
        let mut result = false;
        for &c in candidates {
            let s = &self.summaries[c];
            let f = &self.table.fns[c];
            // Infallible units constructor: the canonical R8 sink.
            if any_tainted
                && f.crate_name == UNITS_CRATE
                && !f.ret_result
                && ctor_like(&f.name)
            {
                let shown = f.qualified.as_deref().unwrap_or(&f.name);
                self.sink(
                    line,
                    format!(
                        "untrusted value reaches infallible constructor `{shown}` \
                         (use its fallible `try_`/validated form)"
                    ),
                );
            }
            if any_tainted {
                if let Some(sink) = &s.param_sink {
                    // Propagate the ROOT sink description through summary
                    // passes (no recursive wrapping); wrap exactly once
                    // when reporting.
                    let sink = sink.clone();
                    if matches!(self.mode, Mode::Report) {
                        self.findings.push((
                            line,
                            format!("tainted argument passed to `{name}` reaches: {sink}"),
                        ));
                    } else if self.param_sink.is_none() {
                        self.param_sink = Some(sink);
                    }
                }
            }
            if s.returns_source && self.sources_live() {
                result = true;
            }
            if s.flows_through && arg_taints.iter().any(|&t| t) {
                result = true;
            }
        }
        // A resolved validator cleans the result outright.
        if self.summary_validator(candidates) {
            return false;
        }
        result
    }

    fn summary_validator(&self, candidates: &[usize]) -> bool {
        !candidates.is_empty() && candidates.iter().all(|&c| self.summaries[c].validator)
    }

    fn sanitizer_call(&self, path: &[String], name: &str) -> bool {
        if name.starts_with("try_") || name == "parse" {
            return true;
        }
        let candidates = self.table.resolve_call(path);
        self.summary_validator(candidates)
    }

    fn path_is_source(&self, path: &[String]) -> bool {
        let name = path.last().map(String::as_str).unwrap_or("");
        if SOURCE_METHODS.contains(&name) {
            let qualified_json =
                path.len() >= 2 && path[path.len() - 2] == JSON_TYPE;
            if qualified_json || RAW_INPUT_CRATES.contains(&self.crate_name) {
                return true;
            }
        }
        for pat in SOURCE_PATHS {
            if path.len() >= pat.len() {
                let tail = &path[path.len() - pat.len()..];
                if tail.iter().map(String::as_str).eq(pat.iter().copied()) {
                    return true;
                }
            }
        }
        // Summary-derived: the path resolves only to source-returning fns.
        let candidates = self.table.resolve_call(path);
        !candidates.is_empty()
            && candidates.iter().all(|&c| self.summaries[c].returns_source)
    }
}

/// Is `new` / `from_*` / `per_*` — the constructor shapes units export?
fn ctor_like(name: &str) -> bool {
    name == "new" || name.starts_with("from_") || name.starts_with("per_")
}

/// Does this block unconditionally diverge (its last statement is a
/// `return`, or a `panic!`-family macro call)?
fn block_diverges(b: &Block) -> bool {
    match b.stmts.last() {
        Some(Stmt::Return { .. }) => true,
        Some(Stmt::Expr { value: Expr::Macro { name, .. }, .. }) => {
            matches!(name.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
        }
        _ => false,
    }
}

/// Variables a guard condition checks: `Var` operands of comparison
/// operators, plus receivers of `is_*`-style predicate methods.
fn checked_vars(cond: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    collect_checked(cond, &mut out);
    out
}

fn collect_checked(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Binary { op, lhs, rhs, .. } => {
            if matches!(op.as_str(), "==" | "!=" | "<" | ">" | "<=" | ">=") {
                for side in [lhs, rhs] {
                    if let Some(v) = side.root_var() {
                        out.push(v.to_string());
                    }
                }
            }
            collect_checked(lhs, out);
            collect_checked(rhs, out);
        }
        Expr::Method { recv, name, .. } => {
            if name.starts_with("is_") || matches!(name.as_str(), "contains" | "starts_with" | "ends_with") {
                if let Some(v) = recv.root_var() {
                    out.push(v.to_string());
                }
            }
            collect_checked(recv, out);
        }
        Expr::Try { inner, .. } => collect_checked(inner, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context;
    use crate::lexer::lex;
    use crate::symbols::FileData;

    struct Owned {
        path: String,
        crate_name: String,
        tokens: Vec<crate::lexer::Token>,
        ctx: crate::context::FileContext,
    }

    fn prep(files: &[(&str, &str, &str)]) -> Vec<Owned> {
        files
            .iter()
            .map(|(path, krate, src)| {
                let tokens = lex(src);
                let ctx = context::analyze(&tokens);
                Owned {
                    path: (*path).to_string(),
                    crate_name: (*krate).to_string(),
                    tokens,
                    ctx,
                }
            })
            .collect()
    }

    fn build(owned: &[Owned]) -> SymbolTable {
        let data: Vec<FileData<'_>> = owned
            .iter()
            .map(|o| FileData {
                path: &o.path,
                crate_name: &o.crate_name,
                tokens: &o.tokens,
                ctx: &o.ctx,
            })
            .collect();
        SymbolTable::build(&data)
    }

    fn findings_in(owned: &[Owned], fn_name: &str) -> Vec<TaintFinding> {
        let table = build(owned);
        let summaries = summarize(&table);
        let i = table.fns.iter().position(|f| f.name == fn_name).unwrap();
        let crate_name = table.fns[i].crate_name.clone();
        let body = table.fns[i].body.as_ref().unwrap();
        let params = table.fns[i].param_names.clone();
        check_fn(&table, &summaries, &crate_name, &params, body)
    }

    #[test]
    fn json_accessor_to_infallible_ctor_fires() {
        let owned = prep(&[
            (
                "crates/units/src/lib.rs",
                "units",
                "impl Dollars {\n\
                     pub fn new(v: f64) -> Dollars { Dollars(v) }\n\
                     pub fn try_new(v: f64) -> Result<Dollars, E> { Ok(Dollars(v)) }\n\
                 }\n",
            ),
            (
                "crates/serve/src/http.rs",
                "serve",
                "fn handle(doc: &JsonValue) -> Dollars {\n\
                     let raw = doc.get(\"price\").and_then(JsonValue::as_f64).unwrap_or(0.0);\n\
                     Dollars::new(raw)\n\
                 }\n",
            ),
        ]);
        let f = findings_in(&owned, "handle");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Dollars::new"), "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn fallible_ctor_sanitizes() {
        let owned = prep(&[
            (
                "crates/units/src/lib.rs",
                "units",
                "impl Dollars {\n\
                     pub fn new(v: f64) -> Dollars { Dollars(v) }\n\
                     pub fn try_new(v: f64) -> Result<Dollars, E> { Ok(Dollars(v)) }\n\
                 }\n",
            ),
            (
                "crates/serve/src/http.rs",
                "serve",
                "fn handle(doc: &JsonValue) -> Result<Dollars, E> {\n\
                     let raw = doc.get(\"price\").and_then(JsonValue::as_f64).unwrap_or(0.0);\n\
                     Dollars::try_new(raw)\n\
                 }\n",
            ),
        ]);
        assert!(findings_in(&owned, "handle").is_empty());
    }

    #[test]
    fn divergent_range_guard_sanitizes() {
        let owned = prep(&[(
            "crates/serve/src/http.rs",
            "serve",
            "fn handle(doc: &JsonValue) -> Result<f64, E> {\n\
                 let v = doc.get(\"w\").and_then(JsonValue::as_f64).unwrap_or(0.0);\n\
                 if !v.is_finite() || v < 1.0 {\n\
                     return Err(E::Bad);\n\
                 }\n\
                 let idx = things[v as usize];\n\
                 Ok(idx)\n\
             }\n",
        )]);
        assert!(findings_in(&owned, "handle").is_empty());
    }

    #[test]
    fn tainted_index_fires_without_guard() {
        let owned = prep(&[(
            "crates/serve/src/http.rs",
            "serve",
            "fn handle(doc: &JsonValue) -> f64 {\n\
                 let v = doc.get(\"w\").and_then(JsonValue::as_f64).unwrap_or(0.0);\n\
                 things[v as usize]\n\
             }\n",
        )]);
        let f = findings_in(&owned, "handle");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("index"));
    }

    #[test]
    fn env_var_taints_and_alloc_sink_fires() {
        let owned = prep(&[(
            "crates/serve/src/lib.rs",
            "serve",
            "fn sized() -> Vec<u8> {\n\
                 let n = std::env::var(\"N\").unwrap_or_default();\n\
                 Vec::with_capacity(n)\n\
             }\n",
        )]);
        let f = findings_in(&owned, "sized");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("with_capacity"));
    }

    #[test]
    fn parse_sanitizes_env_input() {
        let owned = prep(&[(
            "crates/serve/src/lib.rs",
            "serve",
            "fn sized() -> Vec<u8> {\n\
                 let n: usize = std::env::var(\"N\").unwrap_or_default().parse().unwrap_or(8);\n\
                 Vec::with_capacity(n)\n\
             }\n",
        )]);
        assert!(findings_in(&owned, "sized").is_empty());
    }

    #[test]
    fn model_arithmetic_on_taint_fires_only_in_model_crates() {
        let src = "fn f(doc: &JsonValue) -> f64 {\n\
                       let v = doc.get(\"x\").and_then(JsonValue::as_f64).unwrap_or(0.0);\n\
                       v * 2.0\n\
                   }\n";
        let in_core = prep(&[("crates/core/src/lib.rs", "core", src)]);
        assert_eq!(findings_in(&in_core, "f").len(), 1);
        let in_serve = prep(&[("crates/serve/src/lib.rs", "serve", src)]);
        assert!(findings_in(&in_serve, "f").is_empty(), "serve arithmetic is not a sink");
    }

    #[test]
    fn taint_flows_through_helper_summaries() {
        let owned = prep(&[
            (
                "crates/units/src/lib.rs",
                "units",
                "impl Dollars { pub fn new(v: f64) -> Dollars { Dollars(v) } }\n",
            ),
            (
                "crates/serve/src/lib.rs",
                "serve",
                "fn fetch(doc: &JsonValue) -> f64 {\n\
                     doc.get(\"x\").and_then(JsonValue::as_f64).unwrap_or(0.0)\n\
                 }\n\
                 fn scale(x: f64) -> f64 { x + 1.0 }\n\
                 fn top(doc: &JsonValue) -> Dollars {\n\
                     let v = fetch(doc);\n\
                     Dollars::new(scale(v))\n\
                 }\n",
            ),
        ]);
        let table = build(&owned);
        let summaries = summarize(&table);
        let fetch = table.fns.iter().position(|f| f.name == "fetch").unwrap();
        let scale = table.fns.iter().position(|f| f.name == "scale").unwrap();
        assert!(summaries[fetch].returns_source, "fetch returns source taint");
        assert!(summaries[scale].flows_through, "scale passes taint through");
        let f = findings_in(&owned, "top");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Dollars::new"));
    }

    #[test]
    fn len_stops_taint() {
        let owned = prep(&[(
            "crates/serve/src/lib.rs",
            "serve",
            "fn f() -> Vec<u8> {\n\
                 let body = std::fs::read_to_string(\"x\").unwrap_or_default();\n\
                 let n = body.len();\n\
                 Vec::with_capacity(n)\n\
             }\n",
        )]);
        assert!(findings_in(&owned, "f").is_empty());
    }

    #[test]
    fn loop_carried_taint_is_found() {
        let owned = prep(&[(
            "crates/core/src/lib.rs",
            "core",
            "fn f(doc: &JsonValue) -> f64 {\n\
                 let mut acc = 0.0;\n\
                 for item in doc.items() {\n\
                     let v = item.get(\"x\").and_then(JsonValue::as_f64).unwrap_or(0.0);\n\
                     acc = acc + v;\n\
                 }\n\
                 acc * 2.0\n\
             }\n",
        )]);
        let f = findings_in(&owned, "f");
        assert!(!f.is_empty(), "accumulator taint reaches model arithmetic");
        assert!(f.iter().any(|x| x.line == 7), "{f:?}");
    }

    #[test]
    fn summary_pass_reports_param_sinks_at_call_site() {
        let owned = prep(&[
            (
                "crates/units/src/lib.rs",
                "units",
                "impl Wafers { pub fn new(v: f64) -> Wafers { Wafers(v) } }\n",
            ),
            (
                "crates/serve/src/lib.rs",
                "serve",
                "fn wrap(x: f64) -> Wafers { Wafers::new(x) }\n\
                 fn top(doc: &JsonValue) {\n\
                     let v = doc.get(\"x\").and_then(JsonValue::as_f64).unwrap_or(0.0);\n\
                     wrap(v);\n\
                 }\n",
            ),
        ]);
        let f = findings_in(&owned, "top");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("wrap"), "{f:?}");
        assert_eq!(f[0].line, 4);
    }
}
