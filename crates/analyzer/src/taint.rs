//! The S3 NaN-ordering lint.
//!
//! Every `partial_cmp` call in non-test code is flagged outright: it
//! is not a total order (it returns `None` on NaN), and every workspace
//! ordering must be total. `total_cmp` is total, but only safe when its
//! operands are actually comparable in the intended order: a NaN
//! produced upstream silently sorts *after* every finite value, which
//! reorders candidate lists and breaks the determinism story in a way
//! no panic ever reports. So S3 also tracks, within each function,
//! which values are *possibly NaN*:
//!
//! * **sources** — division (unless the divisor is a non-zero numeric
//!   literal), `powf`/`sqrt`/`ln`/`log*`/`asin`/`acos`, unvalidated
//!   `parse`/`from_str`, `from_bits`, and the `NAN` constants;
//! * **propagation** — arithmetic, casts, field/index projection, and
//!   method calls pass taint along (`.max(c)`/`.min(c)` only stay
//!   tainted when *both* operands are);
//! * **sanitizers** — an `if` condition or `assert!` mentioning
//!   `x.is_finite()`/`x.is_nan()`/`x.is_infinite()` clears `x` for the
//!   then-block and the code after (the else-branch keeps the taint:
//!   that *is* the NaN path);
//! * **sinks** — a tainted value reaching `total_cmp` is flagged at
//!   the call, naming the source line.
//!
//! The pass is deliberately intraprocedural and type-blind: calls
//! return untainted values and variables are tracked by name in a flat
//! per-function environment. Loop bodies are scanned twice (the first
//! scan silently, to pick up loop-carried assignments) so taint that
//! flows around a loop back-edge still reaches sinks earlier in the
//! body. The caveats this buys are documented in `ALGORITHMS.md` §8.

use std::collections::BTreeMap;

use crate::ast::{Block, Expr, ExprKind, Item, ItemKind, Stmt};
use crate::report::{Diagnostic, Lint};

/// Methods whose result is possibly NaN regardless of input.
const NAN_METHODS: &[&str] = &[
    "powf", "sqrt", "ln", "log", "log2", "log10", "log1p", "asin", "acos",
];

/// Methods that test for NaN/finiteness: seeing one applied to a
/// variable in a guard clears that variable's taint.
const GUARD_METHODS: &[&str] = &["is_finite", "is_nan", "is_infinite", "is_normal"];

/// Methods returning a non-NaN result when *either* operand is clean.
const MIN_MAX: &[&str] = &["max", "min"];

/// Where a taint came from, for the diagnostic message.
#[derive(Clone, Debug)]
struct Source {
    line: u32,
    what: String,
}

type Env = BTreeMap<String, Source>;

/// The S3 result for one file.
#[derive(Debug, Default)]
pub struct TaintOutcome {
    /// Sink findings (unsuppressed; marker filtering is the caller's).
    pub diags: Vec<Diagnostic>,
    /// Fresh taint sources seen in non-test code (coverage counter).
    pub sources: usize,
    /// Ordering sinks checked in non-test code (coverage counter).
    pub sinks: usize,
}

/// Runs S3 over every non-test function of a parsed file.
pub fn check_file(path: &str, items: &[Item]) -> TaintOutcome {
    let mut pass = Pass {
        path,
        emit: true,
        out: TaintOutcome::default(),
    };
    pass.items(items);
    pass.out
}

struct Pass<'a> {
    path: &'a str,
    /// Cleared during the silent pre-scan of loop bodies.
    emit: bool,
    out: TaintOutcome,
}

impl<'a> Pass<'a> {
    fn items(&mut self, items: &[Item]) {
        for item in items.iter().filter(|i| !i.test) {
            match &item.kind {
                ItemKind::Fn(f) => {
                    if let Some(body) = &f.body {
                        let mut env = Env::new();
                        self.block(body, &mut env);
                    }
                }
                ItemKind::Mod { items, .. }
                | ItemKind::Impl { items, .. }
                | ItemKind::Trait { items, .. } => self.items(items),
                ItemKind::Use(_) | ItemKind::Other => {}
            }
        }
    }

    /// Scans a block, returning the taint of its trailing expression.
    fn block(&mut self, b: &Block, env: &mut Env) -> Option<Source> {
        let mut last = None;
        for stmt in &b.stmts {
            last = None;
            match stmt {
                Stmt::Let { names, init, els } => {
                    let t = init.as_ref().and_then(|e| self.expr(e, env));
                    for n in names {
                        match &t {
                            Some(src) => {
                                env.insert(n.clone(), src.clone());
                            }
                            None => {
                                env.remove(n);
                            }
                        }
                    }
                    if let Some(els) = els {
                        self.block(els, env);
                    }
                }
                Stmt::Expr(e) => last = self.expr(e, env),
                // A nested fn starts from a fresh environment.
                Stmt::Item(item) => self.items(std::slice::from_ref(item)),
            }
        }
        last
    }

    /// Scans one expression: checks sinks, applies assignments and
    /// sanitizers, and returns the expression's own taint.
    fn expr(&mut self, e: &Expr, env: &mut Env) -> Option<Source> {
        match &e.kind {
            ExprKind::Path(segs) => {
                if segs.len() == 1 {
                    return env.get(&segs[0]).cloned();
                }
                if segs.last().map(String::as_str) == Some("NAN") {
                    return self.fresh(e.span.line, "the NAN constant");
                }
                None
            }
            ExprKind::Lit(_) => None,
            ExprKind::Method { recv, name, args } => {
                let rt = self.expr(recv, env);
                let ats: Vec<Option<Source>> =
                    args.iter().map(|a| self.expr(a, env)).collect();
                let arg_taint = ats.iter().flatten().next().cloned();
                if name == "partial_cmp" {
                    self.flag_partial_cmp(e);
                    return None;
                }
                if name == "total_cmp" {
                    if self.emit {
                        self.out.sinks += 1;
                    }
                    if let Some(src) = rt.or(arg_taint) {
                        self.sink(e, &src);
                    }
                    return None;
                }
                if NAN_METHODS.contains(&name.as_str()) {
                    return self.fresh(e.span.line, &format!("`.{name}()`"));
                }
                if name == "parse" || name == "from_str" {
                    return self.fresh(e.span.line, "an unvalidated parse");
                }
                if GUARD_METHODS.contains(&name.as_str()) {
                    return None;
                }
                if MIN_MAX.contains(&name.as_str()) {
                    return match (&rt, &arg_taint) {
                        (Some(r), Some(_)) => Some(r.clone()),
                        _ => None,
                    };
                }
                rt.or(arg_taint)
            }
            ExprKind::Call { callee, args } => {
                let ats: Vec<Option<Source>> =
                    args.iter().map(|a| self.expr(a, env)).collect();
                if let ExprKind::Path(segs) = &callee.kind {
                    match segs.last().map(String::as_str) {
                        Some("from_bits") => {
                            return self.fresh(e.span.line, "`from_bits`");
                        }
                        Some("from_str") => {
                            return self.fresh(e.span.line, "an unvalidated parse");
                        }
                        // `f64::partial_cmp(a, b)`, spanned at the path.
                        Some("partial_cmp") => self.flag_partial_cmp(e),
                        _ => {}
                    }
                } else {
                    let _ = self.expr(callee, env);
                }
                // Calls return untainted values (intraprocedural); the
                // argument taints were still scanned for sinks above.
                let _ = ats;
                None
            }
            ExprKind::Macro { name, args } => {
                for a in args {
                    let _ = self.expr(a, env);
                }
                if name == "assert" {
                    for a in args {
                        sanitize(a, env);
                    }
                }
                None
            }
            ExprKind::Binary { op, lhs, rhs } => self.binary(e, op, lhs, rhs, env),
            ExprKind::Unary { expr } => self.expr(expr, env),
            ExprKind::Try(inner) | ExprKind::Cast(inner) => self.expr(inner, env),
            ExprKind::Index { base, index } => {
                let bt = self.expr(base, env);
                let _ = self.expr(index, env);
                bt
            }
            ExprKind::Field { base, .. } => self.expr(base, env),
            ExprKind::Block(b) => self.block(b, env),
            ExprKind::If {
                let_binders,
                cond,
                then,
                els,
            } => {
                let _ = self.expr(cond, env);
                // The else-branch sees the *unsanitized* environment:
                // `if x.is_finite() { … } else { x is the NaN path }`.
                let else_t = els.as_ref().and_then(|e| {
                    let saved = remove_all(env, let_binders);
                    let t = self.expr(e, env);
                    restore(env, saved);
                    t
                });
                sanitize(cond, env);
                let saved = remove_all(env, let_binders);
                let then_t = self.block(then, env);
                restore(env, saved);
                then_t.or(else_t)
            }
            ExprKind::Match { scrutinee, arms } => {
                let _ = self.expr(scrutinee, env);
                let mut t = None;
                for arm in arms {
                    let saved = remove_all(env, &arm.binders);
                    if let Some(g) = &arm.guard {
                        let _ = self.expr(g, env);
                        sanitize(g, env);
                    }
                    let at = self.expr(&arm.body, env);
                    restore(env, saved);
                    t = t.or(at);
                }
                t
            }
            ExprKind::Loop {
                binders,
                head,
                body,
            } => {
                if let Some(h) = head {
                    let _ = self.expr(h, env);
                    sanitize(h, env);
                }
                let saved = remove_all(env, binders);
                // Silent pre-scan picks up loop-carried assignments so
                // taint flowing around the back-edge reaches sinks
                // earlier in the body on the real scan.
                let was = std::mem::replace(&mut self.emit, false);
                let mut pre = env.clone();
                self.block(body, &mut pre);
                for (k, v) in pre {
                    env.entry(k).or_insert(v);
                }
                self.emit = was;
                self.block(body, env);
                restore(env, saved);
                None
            }
            ExprKind::Closure { params, body } => {
                // Closure bodies see the enclosing environment, but the
                // closure's own parameters are fresh, untainted values.
                let saved = remove_all(env, params);
                let _ = self.expr(body, env);
                restore(env, saved);
                None
            }
            ExprKind::StructLit { fields, .. } => {
                let mut t = None;
                for f in fields {
                    t = t.or(self.expr(f, env));
                }
                t
            }
            ExprKind::Ret(inner) => {
                if let Some(inner) = inner {
                    let _ = self.expr(inner, env);
                }
                None
            }
            ExprKind::Tuple(items) | ExprKind::Array(items) | ExprKind::Opaque(items) => {
                let mut t = None;
                for it in items {
                    t = t.or(self.expr(it, env));
                }
                t
            }
        }
    }

    fn binary(
        &mut self,
        e: &Expr,
        op: &str,
        lhs: &Expr,
        rhs: &Expr,
        env: &mut Env,
    ) -> Option<Source> {
        let rt = self.expr(rhs, env);
        match op {
            "=" | "+=" | "-=" | "*=" | "%=" | "/=" => {
                // Only simple-variable targets are tracked.
                let ExprKind::Path(segs) = &lhs.kind else {
                    let _ = self.expr(lhs, env);
                    return None;
                };
                if segs.len() != 1 {
                    return None;
                }
                let name = &segs[0];
                if op == "=" {
                    match rt {
                        Some(src) => {
                            env.insert(name.clone(), src);
                        }
                        None => {
                            env.remove(name);
                        }
                    }
                } else if op == "/=" && !nonzero_literal(rhs) {
                    let src = self.fresh(e.span.line, "division");
                    if let Some(src) = src {
                        env.insert(name.clone(), src);
                    }
                } else if let Some(src) = rt {
                    env.insert(name.clone(), src);
                }
                None
            }
            "/" => {
                let lt = self.expr(lhs, env);
                if nonzero_literal(rhs) {
                    lt
                } else {
                    self.fresh(e.span.line, "division")
                }
            }
            "+" | "-" | "*" | "%" => {
                let lt = self.expr(lhs, env);
                lt.or(rt)
            }
            _ => {
                // Comparisons, ranges, logic: scanned, never tainted.
                let _ = self.expr(lhs, env);
                None
            }
        }
    }

    fn fresh(&mut self, line: u32, what: &str) -> Option<Source> {
        if self.emit {
            self.out.sources += 1;
        }
        Some(Source {
            line,
            what: what.to_string(),
        })
    }

    /// Flags a possibly-NaN value reaching a `total_cmp` call.
    fn sink(&mut self, e: &Expr, src: &Source) {
        self.report(
            e,
            "total_cmp",
            format!(
                "possibly-NaN value (from {} at line {}) reaches `total_cmp` without a \
                 finiteness guard; NaN sorts after every finite value and silently \
                 reorders results — guard with `.is_finite()` or justify with \
                 `msrnet-allow: nan-taint <reason>`",
                src.what, src.line
            ),
        );
    }

    /// Flags a `partial_cmp` call whatever its operands: the ordering
    /// it returns is not total.
    fn flag_partial_cmp(&mut self, e: &Expr) {
        if self.emit {
            self.out.sinks += 1;
        }
        self.report(
            e,
            "partial_cmp",
            "NaN-unsafe ordering: `partial_cmp` is not total (it returns `None` on NaN); \
             use `f64::total_cmp`, or justify with `msrnet-allow: nan-taint <reason>`"
                .to_string(),
        );
    }

    fn report(&mut self, e: &Expr, snippet: &str, message: String) {
        if !self.emit {
            return;
        }
        self.out.diags.push(Diagnostic {
            lint: Lint::S3,
            path: self.path.to_string(),
            line: e.span.line,
            col: e.span.col,
            len: e.span.len,
            snippet: snippet.to_string(),
            message,
            chain: Vec::new(),
        });
    }
}

/// Whether `e` is a non-zero numeric literal (possibly negated):
/// dividing by one cannot produce NaN from finite inputs.
fn nonzero_literal(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Lit(Some(text)) => {
            let cleaned: String = text
                .replace('_', "")
                .trim_end_matches(|c: char| c.is_ascii_alphabetic())
                .to_string();
            matches!(cleaned.parse::<f64>(), Ok(v) if v.is_normal())
        }
        ExprKind::Unary { expr } | ExprKind::Cast(expr) => nonzero_literal(expr),
        ExprKind::Tuple(items) if items.len() == 1 => nonzero_literal(&items[0]),
        _ => false,
    }
}

/// Clears taint for every variable the guard expression finiteness-
/// checks (`x.is_finite()`, `!x.is_nan()`, …).
fn sanitize(cond: &Expr, env: &mut Env) {
    cond.walk(&mut |e: &Expr| {
        if let ExprKind::Method { recv, name, .. } = &e.kind {
            if GUARD_METHODS.contains(&name.as_str()) {
                if let ExprKind::Path(segs) = &recv.kind {
                    if segs.len() == 1 {
                        env.remove(&segs[0]);
                    }
                }
            }
        }
    });
}

/// Removes `names` from the environment, returning what was removed.
fn remove_all(env: &mut Env, names: &[String]) -> Vec<(String, Source)> {
    let mut saved = Vec::new();
    for n in names {
        if let Some(v) = env.remove(n) {
            saved.push((n.clone(), v));
        }
    }
    saved
}

/// Restores entries removed by [`remove_all`].
fn restore(env: &mut Env, saved: Vec<(String, Source)>) {
    for (k, v) in saved {
        env.insert(k, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;
    use crate::lexer::lex;

    fn run(src: &str) -> TaintOutcome {
        check_file("crates/pwl/src/x.rs", &parse_file(src, &lex(src)))
    }

    #[test]
    fn division_reaching_total_cmp_is_flagged() {
        let out = run(
            "fn f(a: f64, b: f64, xs: &mut Vec<f64>) {\n    let r = a / b;\n    xs.sort_by(|p, q| p.total_cmp(q));\n    let _ = r.total_cmp(&a);\n}\n",
        );
        assert_eq!(out.diags.len(), 1, "{:?}", out.diags);
        assert_eq!(out.diags[0].lint, Lint::S3);
        assert_eq!(out.diags[0].line, 4);
        assert!(out.diags[0].message.contains("at line 2"), "{}", out.diags[0].message);
        assert_eq!(out.sinks, 2);
        assert_eq!(out.sources, 1);
    }

    #[test]
    fn finiteness_guard_sanitizes_then_and_after() {
        let out = run(
            "fn f(a: f64, b: f64) -> std::cmp::Ordering {\n    let r = a / b;\n    if r.is_finite() {\n        return r.total_cmp(&a);\n    }\n    r.total_cmp(&b)\n}\n",
        );
        assert!(out.diags.is_empty(), "{:?}", out.diags);
        assert_eq!(out.sinks, 2);
    }

    #[test]
    fn else_branch_keeps_the_taint() {
        let out = run(
            "fn f(a: f64, b: f64) {\n    let r = a / b;\n    if r.is_finite() {\n    } else {\n        let _ = r.total_cmp(&a);\n    }\n}\n",
        );
        assert_eq!(out.diags.len(), 1, "{:?}", out.diags);
        assert_eq!(out.diags[0].line, 5);
    }

    #[test]
    fn nonzero_literal_divisor_is_clean_zero_is_not() {
        let clean = run("fn f(a: f64) { let r = a / 2.0; let _ = r.total_cmp(&a); }\n");
        assert!(clean.diags.is_empty(), "{:?}", clean.diags);
        let dirty = run("fn f(a: f64) { let r = a / 0.0; let _ = r.total_cmp(&a); }\n");
        assert_eq!(dirty.diags.len(), 1, "{:?}", dirty.diags);
    }

    #[test]
    fn rebinding_untaints() {
        let out = run(
            "fn f(a: f64, b: f64) {\n    let r = a / b;\n    let r = 1.0;\n    let _ = r.total_cmp(&a);\n}\n",
        );
        assert!(out.diags.is_empty(), "{:?}", out.diags);
    }

    #[test]
    fn loop_carried_taint_reaches_earlier_sink() {
        let out = run(
            "fn f(a: f64, b: f64, acc: &[f64]) {\n    let mut x = 0.0;\n    for v in acc.iter() {\n        let _ = x.total_cmp(v);\n        x = a / b;\n    }\n}\n",
        );
        assert_eq!(out.diags.len(), 1, "{:?}", out.diags);
        assert_eq!(out.diags[0].line, 4);
    }

    #[test]
    fn max_with_clean_operand_untaints() {
        let out = run(
            "fn f(a: f64, b: f64) {\n    let r = (a / b).max(0.0);\n    let _ = r.total_cmp(&a);\n}\n",
        );
        assert!(out.diags.is_empty(), "{:?}", out.diags);
    }

    #[test]
    fn unvalidated_parse_is_a_source() {
        let out = run(
            "fn f(s: &str, a: f64) {\n    let x: f64 = s.parse().unwrap_or(0.0);\n    let _ = x.total_cmp(&a);\n}\n",
        );
        assert_eq!(out.diags.len(), 1, "{:?}", out.diags);
        assert!(out.diags[0].message.contains("unvalidated parse"), "{}", out.diags[0].message);
    }

    #[test]
    fn assert_is_finite_sanitizes() {
        let out = run(
            "fn f(a: f64, b: f64) {\n    let r = a / b;\n    assert!(r.is_finite());\n    let _ = r.total_cmp(&a);\n}\n",
        );
        assert!(out.diags.is_empty(), "{:?}", out.diags);
    }

    #[test]
    fn powf_and_nan_constant_are_sources() {
        let out = run(
            "fn f(a: f64, b: f64) {\n    let p = a.powf(b);\n    let _ = p.total_cmp(&a);\n    let n = f64::NAN;\n    let _ = n.partial_cmp(&a);\n}\n",
        );
        assert_eq!(out.diags.len(), 2, "{:?}", out.diags);
        assert_eq!(out.sources, 2);
    }

    #[test]
    fn captured_taint_inside_sort_closure_is_flagged() {
        let out = run(
            "fn f(a: f64, b: f64, xs: &mut Vec<f64>) {\n    let w = a / b;\n    xs.sort_by(|p, q| (p * w).total_cmp(&(q * w)));\n}\n",
        );
        assert_eq!(out.diags.len(), 1, "{:?}", out.diags);
        assert_eq!(out.diags[0].line, 3);
    }

    #[test]
    fn test_code_is_exempt() {
        let out = run(
            "#[cfg(test)]\nmod tests {\n    fn f(a: f64, b: f64) {\n        let r = a / b;\n        let _ = r.total_cmp(&a);\n    }\n}\n",
        );
        assert!(out.diags.is_empty(), "{:?}", out.diags);
        assert_eq!(out.sinks, 0);
    }
}
