//! The S2 lock-discipline lint for `crates/service`.
//!
//! The session server guards its `SessionTable` behind a `Mutex`;
//! the protocol's latency and deadlock-freedom arguments rest on the
//! critical sections staying tiny and leaf-like. S2 machine-checks
//! that, per function of the service crate:
//!
//! * **no second acquisition** — while a lock guard is live, calling
//!   `.lock()` again, calling a lock-wrapper function, or calling any
//!   function that transitively acquires a lock is a deadlock with
//!   `std::sync::Mutex` (which is not reentrant);
//! * **no DP solve under the lock** — a call that is (or transitively
//!   reaches) one of the solver seeds (`optimize`, `recompute`,
//!   `run_batch`, `replay`, …) would serialize the whole service on
//!   one session's solve;
//! * **no blocking I/O under the lock** — socket/file reads and
//!   writes while holding the table freeze every other connection;
//! * **consistent acquisition order** — with several locks, the
//!   acquired-while-holding graph must stay acyclic.
//!
//! Guard scope follows the binding: a `let`-bound guard lives to the
//! end of its block (or an explicit `drop(guard)`); a temporary guard
//! (`lock_table(t).close(id)`) lives for that statement only.
//! A *lock wrapper* is any service function whose own body calls
//! `.lock()` — the `lock_table` helper pattern — so wrapper calls are
//! acquisitions, with the lock identity taken from the wrapper's
//! argument.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Block, Expr, ExprKind, Span, Stmt};
use crate::callgraph::CallGraph;
use crate::report::{Diagnostic, Lint};
use crate::resolve::Registry;

/// Function names that seed "this is a DP solve" reachability.
const SOLVE_SEEDS: &[&str] = &[
    "optimize",
    "optimize_in",
    "from_scratch",
    "recompute",
    "run_batch",
    "run_batch_curves",
    "replay",
    "apply_edits",
    "solve",
];

/// Method names treated as blocking I/O.
const IO_METHODS: &[&str] = &[
    "read",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write",
    "write_all",
    "write_fmt",
    "flush",
    "accept",
    "connect",
    "recv",
    "send",
];

/// Methods that pass a lock guard through unchanged
/// (`m.lock().unwrap_or_else(…)`).
const GUARD_TRANSPARENT: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// Running state for the S2 pass over one crate.
pub struct LockCheck<'a> {
    reg: &'a Registry,
    graph: &'a CallGraph,
    /// Function indices whose bodies call `.lock()` directly.
    wrappers: BTreeSet<usize>,
    /// Functions that can reach a direct `.lock()` call.
    transitive_lockers: Vec<bool>,
    /// Functions that can reach a solve seed.
    reaches_solve: Vec<bool>,
    /// Deterministic names for solve-seed targets (for chains).
    solve_targets: BTreeSet<usize>,
    /// Edges `held-lock → acquired-lock` with a representative site.
    order_edges: BTreeMap<(String, String), (String, Span, u32)>,
    /// Lock acquisition sites seen (coverage counter).
    pub lock_sites: usize,
    /// Findings (path, diagnostic) accumulated across functions.
    findings: Vec<Diagnostic>,
}

/// A live lock guard during the scan.
#[derive(Clone, Debug)]
struct Guard {
    /// Lock identity (trailing identifier of the receiver/argument).
    id: String,
    /// Binder name for `drop(name)` release, if `let`-bound.
    binder: Option<String>,
    /// Acquisition line (the "holding span" of diagnostics).
    line: u32,
}

impl<'a> LockCheck<'a> {
    /// Prepares the pass: finds wrappers, transitive lockers and
    /// solve-reaching functions.
    pub fn new(reg: &'a Registry, graph: &'a CallGraph) -> LockCheck<'a> {
        let mut wrappers = BTreeSet::new();
        for (i, f) in reg.fns.iter().enumerate() {
            let Some(body) = &f.def.body else { continue };
            let mut direct = false;
            crate::ast::walk_block(body, &mut |e: &Expr| {
                if let ExprKind::Method { name, .. } = &e.kind {
                    if name == "lock" {
                        direct = true;
                    }
                }
            });
            if direct {
                wrappers.insert(i);
            }
        }
        let transitive_lockers = graph.reaches(&wrappers);
        let solve_targets: BTreeSet<usize> = reg
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| SOLVE_SEEDS.contains(&f.name.as_str()) && !f.is_test)
            .map(|(i, _)| i)
            .collect();
        let reaches_solve = graph.reaches(&solve_targets);
        LockCheck {
            reg,
            graph,
            wrappers,
            transitive_lockers,
            reaches_solve,
            solve_targets,
            order_edges: BTreeMap::new(),
            lock_sites: 0,
            findings: Vec::new(),
        }
    }

    /// Runs S2 over every non-test function of `crate_name` and
    /// returns the diagnostics (lock-order cycle findings included).
    pub fn run(mut self, crate_name: &str) -> (Vec<Diagnostic>, usize) {
        for i in 0..self.reg.fns.len() {
            let f = &self.reg.fns[i];
            if f.crate_name != crate_name || f.is_test {
                continue;
            }
            let Some(body) = f.def.body.clone() else {
                continue;
            };
            let mut held: Vec<Guard> = Vec::new();
            let path = f.path.clone();
            self.scan_block(i, &path, &body, &mut held);
        }
        self.order_cycles();
        (self.findings, self.lock_sites)
    }

    /// Detects cycles in the lock-order graph and reports every edge
    /// on a cycle.
    fn order_cycles(&mut self) {
        // Adjacency over lock names.
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (a, b) in self.order_edges.keys() {
            adj.entry(a.as_str()).or_default().push(b.as_str());
        }
        // An edge (a, b) is on a cycle iff b can reach a.
        let mut cyclic: Vec<(String, String)> = Vec::new();
        for (a, b) in self.order_edges.keys() {
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            let mut stack = vec![b.as_str()];
            let mut reach = false;
            while let Some(v) = stack.pop() {
                if v == a {
                    reach = true;
                    break;
                }
                if seen.insert(v) {
                    if let Some(next) = adj.get(v) {
                        stack.extend(next.iter().copied());
                    }
                }
            }
            if reach {
                cyclic.push((a.clone(), b.clone()));
            }
        }
        for key in cyclic {
            let (path, span, held_line) = self.order_edges[&key].clone();
            let (a, b) = key;
            self.findings.push(Diagnostic {
                lint: Lint::S2,
                path,
                line: span.line,
                col: span.col,
                len: span.len,
                snippet: b.clone(),
                message: format!(
                    "inconsistent lock order: `{b}` acquired while holding `{a}` (held since \
                     line {held_line}) closes an acquisition-order cycle; pick one global order \
                     or justify with `msrnet-allow: lock-discipline <reason>`"
                ),
                chain: Vec::new(),
            });
        }
    }

    fn scan_block(&mut self, fn_idx: usize, path: &str, block: &Block, held: &mut Vec<Guard>) {
        let depth = held.len();
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let { names, init, els } => {
                    if let Some(init) = init {
                        let acquired = self.scan_expr(fn_idx, path, init, held);
                        if let Some((id, line)) = acquired {
                            held.push(Guard {
                                id,
                                binder: names.first().cloned(),
                                line,
                            });
                        }
                    }
                    if let Some(b) = els {
                        self.scan_block(fn_idx, path, b, held);
                    }
                }
                Stmt::Expr(e) => {
                    // `drop(guard)` releases a let-bound guard.
                    if let ExprKind::Call { callee, args } = &e.kind {
                        if let (ExprKind::Path(segs), [arg]) = (&callee.kind, args.as_slice()) {
                            if segs.len() == 1 && segs[0] == "drop" {
                                if let ExprKind::Path(p) = &arg.kind {
                                    if let Some(name) = p.last() {
                                        if let Some(pos) = held
                                            .iter()
                                            .rposition(|g| g.binder.as_deref() == Some(name))
                                        {
                                            held.remove(pos);
                                            continue;
                                        }
                                    }
                                }
                            }
                        }
                    }
                    // Acquisitions in expression statements are
                    // temporaries: live within the statement only.
                    let _ = self.scan_expr(fn_idx, path, e, held);
                }
                Stmt::Item(_) => {}
            }
        }
        held.truncate(depth);
    }

    /// Scans one expression under the currently held guards. Returns
    /// `Some((lock-id, line))` when the expression's *value* is a
    /// fresh lock guard.
    fn scan_expr(
        &mut self,
        fn_idx: usize,
        path: &str,
        e: &Expr,
        held: &mut Vec<Guard>,
    ) -> Option<(String, u32)> {
        match &e.kind {
            ExprKind::Method { recv, name, args } => {
                let recv_guard = self.scan_expr(fn_idx, path, recv, held);
                // Evaluate args with a temporary guard live, when one
                // was produced by the receiver chain.
                let pushed = if let Some((id, line)) = &recv_guard {
                    held.push(Guard {
                        id: id.clone(),
                        binder: None,
                        line: *line,
                    });
                    true
                } else {
                    false
                };
                for a in args {
                    let _ = self.scan_expr(fn_idx, path, a, held);
                }
                let out = if name == "lock" {
                    self.acquire(path, e.span, &identity(recv), held, pushed as usize);
                    Some((identity(recv), e.span.line))
                } else {
                    self.check_call_under_lock(fn_idx, path, e.span, name, None, held);
                    // Guards flow through `.unwrap()` etc.
                    if GUARD_TRANSPARENT.contains(&name.as_str()) {
                        recv_guard.clone()
                    } else {
                        None
                    }
                };
                if pushed {
                    held.pop();
                }
                out
            }
            ExprKind::Call { callee, args } => {
                for a in args {
                    let _ = self.scan_expr(fn_idx, path, a, held);
                }
                if let ExprKind::Path(segs) = &callee.kind {
                    let resolved = self.reg.resolve_path(fn_idx, segs);
                    let is_wrapper = resolved.iter().any(|r| self.wrappers.contains(r));
                    if is_wrapper {
                        let id = args.first().map(identity).unwrap_or_else(|| {
                            segs.last().cloned().unwrap_or_else(|| "lock".to_string())
                        });
                        self.acquire(path, e.span, &id, held, 0);
                        return Some((id, e.span.line));
                    }
                    let name = segs.last().map(String::as_str).unwrap_or("");
                    self.check_call_under_lock(
                        fn_idx,
                        path,
                        e.span,
                        name,
                        Some(&resolved),
                        held,
                    );
                } else {
                    let _ = self.scan_expr(fn_idx, path, callee, held);
                }
                None
            }
            ExprKind::Block(b) => {
                let mut inner = held.clone();
                self.scan_block(fn_idx, path, b, &mut inner);
                None
            }
            ExprKind::If {
                cond, then, els, ..
            } => {
                let _ = self.scan_expr(fn_idx, path, cond, held);
                let mut inner = held.clone();
                self.scan_block(fn_idx, path, then, &mut inner);
                if let Some(els) = els {
                    let _ = self.scan_expr(fn_idx, path, els, held);
                }
                None
            }
            ExprKind::Match { scrutinee, arms } => {
                let _ = self.scan_expr(fn_idx, path, scrutinee, held);
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        let _ = self.scan_expr(fn_idx, path, g, held);
                    }
                    let _ = self.scan_expr(fn_idx, path, &arm.body, held);
                }
                None
            }
            ExprKind::Loop { head, body, .. } => {
                if let Some(h) = head {
                    let _ = self.scan_expr(fn_idx, path, h, held);
                }
                let mut inner = held.clone();
                self.scan_block(fn_idx, path, body, &mut inner);
                None
            }
            ExprKind::Closure { body, .. } => {
                let _ = self.scan_expr(fn_idx, path, body, held);
                None
            }
            ExprKind::Unary { expr } | ExprKind::Try(expr) | ExprKind::Cast(expr) => {
                self.scan_expr(fn_idx, path, expr, held)
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                let _ = self.scan_expr(fn_idx, path, lhs, held);
                let _ = self.scan_expr(fn_idx, path, rhs, held);
                None
            }
            ExprKind::Index { base, index } => {
                let _ = self.scan_expr(fn_idx, path, base, held);
                let _ = self.scan_expr(fn_idx, path, index, held);
                None
            }
            ExprKind::Field { base, .. } => {
                let _ = self.scan_expr(fn_idx, path, base, held);
                None
            }
            ExprKind::Macro { args, .. }
            | ExprKind::Tuple(args)
            | ExprKind::Array(args)
            | ExprKind::StructLit { fields: args, .. }
            | ExprKind::Opaque(args) => {
                for a in args {
                    let _ = self.scan_expr(fn_idx, path, a, held);
                }
                None
            }
            ExprKind::Ret(Some(inner)) => {
                let _ = self.scan_expr(fn_idx, path, inner, held);
                None
            }
            ExprKind::Ret(None) | ExprKind::Path(_) | ExprKind::Lit(_) => None,
        }
    }

    /// Handles a lock acquisition at `span` of lock `id` while `held`
    /// guards are live. `skip_top` ignores that many guards at the top
    /// of the stack (the receiver's own temporary guard).
    fn acquire(&mut self, path: &str, span: Span, id: &str, held: &[Guard], skip_top: usize) {
        self.lock_sites += 1;
        let top = match held
            .len()
            .saturating_sub(skip_top)
            .checked_sub(1)
            .and_then(|i| held.get(i))
        {
            Some(g) => g,
            None => return,
        };
        if top.id == id {
            self.findings.push(Diagnostic {
                lint: Lint::S2,
                path: path.to_string(),
                line: span.line,
                col: span.col,
                len: span.len,
                snippet: id.to_string(),
                message: format!(
                    "second acquisition of `{id}` while already holding it (held since line \
                     {}); `std::sync::Mutex` is not reentrant — this deadlocks; restructure \
                     the critical section or justify with `msrnet-allow: lock-discipline \
                     <reason>`",
                    top.line
                ),
                chain: Vec::new(),
            });
        } else {
            self.order_edges
                .entry((top.id.clone(), id.to_string()))
                .or_insert((path.to_string(), span, top.line));
        }
    }

    /// Checks a call made while guards are held: solve reachability,
    /// blocking I/O, and transitive lock acquisition.
    fn check_call_under_lock(
        &mut self,
        fn_idx: usize,
        path: &str,
        span: Span,
        name: &str,
        resolved: Option<&[usize]>,
        held: &[Guard],
    ) {
        let Some(top) = held.last() else {
            return;
        };
        // Candidate callees: explicit resolution for path calls, the
        // method over-approximation for method calls.
        let candidates: Vec<usize> = match resolved {
            Some(r) => r.to_vec(),
            None => self
                .reg
                .methods_named(name, &self.reg.fns[fn_idx].crate_name),
        };
        // (a) transitive lock acquisition → deadlock.
        if let Some(&locker) = candidates
            .iter()
            .find(|&&c| self.transitive_lockers[c])
        {
            let chain = self.chain_to(locker, &self.wrappers.clone());
            self.findings.push(Diagnostic {
                lint: Lint::S2,
                path: path.to_string(),
                line: span.line,
                col: span.col,
                len: span.len,
                snippet: name.to_string(),
                message: format!(
                    "call to `{}` while holding `{}` (held since line {}) re-acquires the lock \
                     via {}; `std::sync::Mutex` is not reentrant — this deadlocks; release the \
                     guard first or justify with `msrnet-allow: lock-discipline <reason>`",
                    self.reg.fns[locker].id,
                    top.id,
                    top.line,
                    chain.join(" -> "),
                ),
                chain,
            });
            return;
        }
        // (b) DP solve (by seed name or by reachability).
        let solver = if SOLVE_SEEDS.contains(&name) {
            candidates.first().copied()
        } else {
            candidates.iter().copied().find(|&c| self.reaches_solve[c])
        };
        if SOLVE_SEEDS.contains(&name) || solver.is_some() {
            let chain = match solver {
                Some(s) => self.chain_to(s, &self.solve_targets.clone()),
                None => vec![name.to_string()],
            };
            self.findings.push(Diagnostic {
                lint: Lint::S2,
                path: path.to_string(),
                line: span.line,
                col: span.col,
                len: span.len,
                snippet: name.to_string(),
                message: format!(
                    "DP solve reachable from `{name}` called while holding `{}` (held since \
                     line {}) via {}; solves must run outside the critical section — check \
                     the session out, solve, check it back in; or justify with \
                     `msrnet-allow: lock-discipline <reason>`",
                    top.id,
                    top.line,
                    chain.join(" -> "),
                ),
                chain,
            });
            return;
        }
        // (c) blocking I/O by method name.
        if resolved.is_none() && IO_METHODS.contains(&name) {
            self.findings.push(Diagnostic {
                lint: Lint::S2,
                path: path.to_string(),
                line: span.line,
                col: span.col,
                len: span.len,
                snippet: name.to_string(),
                message: format!(
                    "blocking I/O `.{name}()` while holding `{}` (held since line {}); every \
                     other connection stalls on this socket — buffer outside the critical \
                     section or justify with `msrnet-allow: lock-discipline <reason>`",
                    top.id, top.line
                ),
                chain: Vec::new(),
            });
        }
    }

    /// The id-rendered shortest chain from `from` into `targets`
    /// (falls back to just `from` when BFS finds nothing).
    fn chain_to(&self, from: usize, targets: &BTreeSet<usize>) -> Vec<String> {
        match self.graph.shortest_chain(from, targets) {
            Some(c) => c.iter().map(|&i| self.reg.fns[i].id.clone()).collect(),
            None => vec![self.reg.fns[from].id.clone()],
        }
    }
}

/// The lock identity of a receiver/argument expression: its trailing
/// identifier (`self.table` → `table`, `&shared.table` → `table`).
fn identity(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Path(segs) => segs.last().cloned().unwrap_or_else(|| "lock".to_string()),
        ExprKind::Field { name, .. } => name.clone(),
        ExprKind::Unary { expr } | ExprKind::Try(expr) | ExprKind::Cast(expr) => identity(expr),
        ExprKind::Method { recv, .. } => identity(recv),
        ExprKind::Call { args, .. } => args
            .first()
            .map(identity)
            .unwrap_or_else(|| "lock".to_string()),
        _ => "lock".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;
    use crate::callgraph::CallGraph;
    use crate::lexer::lex;
    use crate::lints::FileKind;
    use crate::resolve::SourceUnit;

    struct Parsed {
        crate_name: String,
        path: String,
        items: Vec<crate::ast::Item>,
    }

    fn parsed(crate_name: &str, path: &str, src: &str) -> Parsed {
        Parsed {
            crate_name: crate_name.to_string(),
            path: path.to_string(),
            items: parse_file(src, &lex(src)),
        }
    }

    fn check(files: &[Parsed]) -> Vec<Diagnostic> {
        let units: Vec<SourceUnit<'_>> = files
            .iter()
            .map(|p| SourceUnit {
                crate_name: &p.crate_name,
                path: &p.path,
                kind: FileKind::Library,
                items: &p.items,
            })
            .collect();
        let deps: Vec<(String, Vec<String>)> = files
            .iter()
            .map(|p| (p.crate_name.clone(), vec![]))
            .collect();
        let reg = Registry::build(&units, &deps);
        let graph = CallGraph::build(&reg);
        let (diags, _) = LockCheck::new(&reg, &graph).run("msrnet-service");
        diags
    }

    const WRAPPER: &str = "fn lock_table(m: &Mutex<Table>) -> MutexGuard<'_, Table> {\n    m.lock().unwrap_or_else(|e| e.into_inner())\n}\n";

    #[test]
    fn wrapper_itself_is_clean() {
        let diags = check(&[parsed(
            "msrnet-service",
            "crates/service/src/server.rs",
            WRAPPER,
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn solve_under_let_bound_guard_is_flagged() {
        let src = format!(
            "{WRAPPER}fn optimize() {{}}\nfn bad(m: &Mutex<Table>) {{\n    let t = lock_table(m);\n    optimize();\n}}\n"
        );
        let diags = check(&[parsed(
            "msrnet-service",
            "crates/service/src/server.rs",
            &src,
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].lint, Lint::S2);
        assert_eq!(diags[0].snippet, "optimize");
        assert!(diags[0].message.contains("DP solve"), "{}", diags[0].message);
        assert!(diags[0].message.contains("held since line 6"), "{}", diags[0].message);
    }

    #[test]
    fn solve_after_scope_or_drop_is_clean() {
        let src = format!(
            "{WRAPPER}fn optimize() {{}}\nfn scoped(m: &Mutex<Table>) {{\n    {{\n        let t = lock_table(m);\n        t.close(1);\n    }}\n    optimize();\n}}\nfn dropped(m: &Mutex<Table>) {{\n    let t = lock_table(m);\n    drop(t);\n    optimize();\n}}\n"
        );
        let diags = check(&[parsed(
            "msrnet-service",
            "crates/service/src/server.rs",
            &src,
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn temporary_guard_scopes_to_statement() {
        // `lock_table(m).close(id)` holds only for the statement; the
        // solve on the next line is clean.
        let src = format!(
            "{WRAPPER}fn optimize() {{}}\nfn ok(m: &Mutex<Table>) {{\n    lock_table(m).close(7);\n    optimize();\n}}\n"
        );
        let diags = check(&[parsed(
            "msrnet-service",
            "crates/service/src/server.rs",
            &src,
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn second_acquisition_deadlocks() {
        let src = format!(
            "{WRAPPER}fn bad(m: &Mutex<Table>) {{\n    let a = lock_table(m);\n    let b = lock_table(m);\n}}\n"
        );
        let diags = check(&[parsed(
            "msrnet-service",
            "crates/service/src/server.rs",
            &src,
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("second acquisition"), "{}", diags[0].message);
    }

    #[test]
    fn transitive_reacquisition_via_helper_is_flagged() {
        let src = format!(
            "{WRAPPER}fn helper(m: &Mutex<Table>) {{ let t = lock_table(m); }}\nfn bad(m: &Mutex<Table>) {{\n    let t = lock_table(m);\n    helper(m);\n}}\n"
        );
        let diags = check(&[parsed(
            "msrnet-service",
            "crates/service/src/server.rs",
            &src,
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("re-acquires"), "{}", diags[0].message);
        assert!(!diags[0].chain.is_empty());
    }

    #[test]
    fn blocking_io_under_lock_is_flagged() {
        let src = format!(
            "{WRAPPER}fn bad(m: &Mutex<Table>, s: &mut TcpStream, buf: &[u8]) {{\n    let t = lock_table(m);\n    s.write_all(buf);\n}}\n"
        );
        let diags = check(&[parsed(
            "msrnet-service",
            "crates/service/src/server.rs",
            &src,
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("blocking I/O"), "{}", diags[0].message);
    }

    #[test]
    fn lock_order_cycle_is_flagged() {
        let src = "fn ab(x: &Mutex<A>, y: &Mutex<B>) {\n    let a = x.lock().unwrap_or_else(|e| e.into_inner());\n    let b = y.lock().unwrap_or_else(|e| e.into_inner());\n}\nfn ba(x: &Mutex<A>, y: &Mutex<B>) {\n    let b = y.lock().unwrap_or_else(|e| e.into_inner());\n    let a = x.lock().unwrap_or_else(|e| e.into_inner());\n}\n";
        let diags = check(&[parsed(
            "msrnet-service",
            "crates/service/src/server.rs",
            src,
        )]);
        let order: Vec<_> = diags
            .iter()
            .filter(|d| d.message.contains("inconsistent lock order"))
            .collect();
        assert_eq!(order.len(), 2, "{diags:?}");
    }

    #[test]
    fn consistent_two_lock_order_is_clean() {
        let src = "fn ab(x: &Mutex<A>, y: &Mutex<B>) {\n    let a = x.lock().unwrap_or_else(|e| e.into_inner());\n    let b = y.lock().unwrap_or_else(|e| e.into_inner());\n}\nfn ab2(x: &Mutex<A>, y: &Mutex<B>) {\n    let a = x.lock().unwrap_or_else(|e| e.into_inner());\n    let b = y.lock().unwrap_or_else(|e| e.into_inner());\n}\n";
        let diags = check(&[parsed(
            "msrnet-service",
            "crates/service/src/server.rs",
            src,
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
