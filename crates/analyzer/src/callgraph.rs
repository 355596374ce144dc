//! The workspace call graph and the S1 panic-reachability lint.
//!
//! Edges are collected from every function body in the
//! [`Registry`]: path calls resolve through module/`use` resolution,
//! method calls through the trait-method over-approximation (every
//! same-named method in the caller's dependency closure), and bare
//! function paths (functions passed as values) count as potential
//! calls. The graph errs on the side of extra edges, so "cannot reach
//! a panic" verdicts are trustworthy while "can reach" findings need
//! the human audit a marker records.
//!
//! **S1 — panic-reachability.** A *panic site* is an unaudited
//! `unwrap`/`expect` call, `panic!`-family macro, or indexing
//! expression whose base is a bare function parameter (a
//! caller-controlled slice; `self.field[i]` is excluded as
//! invariant-protected). Sites carrying a site-level
//! `msrnet-allow: panic` marker are audited and do not propagate. Any
//! library entry point that can transitively reach an unaudited site
//! is flagged **at the entry point**, with the shortest call chain in
//! the diagnostic. Entry points are the `pub fn`s of library crates
//! plus every trait-side method there, which std calls with no call
//! the graph can see (see [`crate::resolve::FnInfo::is_entry`]). A
//! panic site no entry point reaches sits in dead code, which rustc's
//! `dead_code` lint already reports.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::ast::{walk_block, Expr, ExprKind, Span, Vis};
use crate::report::{Diagnostic, Lint};
use crate::resolve::Registry;

/// The workspace call graph over [`Registry`] function indices.
#[derive(Default)]
pub struct CallGraph {
    /// `edges[caller]` = callee indices (sorted, deduplicated).
    pub edges: Vec<BTreeSet<usize>>,
    /// `reverse[callee]` = caller indices.
    pub reverse: Vec<BTreeSet<usize>>,
}

impl CallGraph {
    /// Builds the graph by resolving every call site of every
    /// function body.
    pub fn build(reg: &Registry) -> CallGraph {
        let n = reg.fns.len();
        let mut g = CallGraph {
            edges: vec![BTreeSet::new(); n],
            reverse: vec![BTreeSet::new(); n],
        };
        for caller in 0..n {
            let Some(body) = reg.fns[caller].def.body.clone() else {
                continue;
            };
            let mut callees: BTreeSet<usize> = BTreeSet::new();
            walk_block(&body, &mut |e: &Expr| match &e.kind {
                ExprKind::Path(segs) => {
                    callees.extend(reg.resolve_path(caller, segs));
                }
                ExprKind::Method { name, .. } => {
                    callees.extend(reg.methods_named(name, &reg.fns[caller].crate_name));
                }
                _ => {}
            });
            for callee in callees {
                g.edges[caller].insert(callee);
                g.reverse[callee].insert(caller);
            }
        }
        g
    }

    /// Marks every function that can reach a function in `targets`
    /// (including the targets themselves).
    pub fn reaches(&self, targets: &BTreeSet<usize>) -> Vec<bool> {
        let mut can = vec![false; self.reverse.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &t in targets {
            if t < can.len() && !can[t] {
                can[t] = true;
                queue.push_back(t);
            }
        }
        while let Some(v) = queue.pop_front() {
            for &caller in &self.reverse[v] {
                if !can[caller] {
                    can[caller] = true;
                    queue.push_back(caller);
                }
            }
        }
        can
    }

    /// The shortest call chain from `from` to any function in
    /// `targets`, as function indices (`from` first). Ties break on
    /// the smaller function index, so chains are deterministic.
    pub fn shortest_chain(&self, from: usize, targets: &BTreeSet<usize>) -> Option<Vec<usize>> {
        if targets.contains(&from) {
            return Some(vec![from]);
        }
        let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        prev.insert(from, from);
        queue.push_back(from);
        while let Some(v) = queue.pop_front() {
            for &next in &self.edges[v] {
                if prev.contains_key(&next) {
                    continue;
                }
                prev.insert(next, v);
                if targets.contains(&next) {
                    let mut chain = vec![next];
                    let mut cur = next;
                    while cur != from {
                        cur = prev[&cur];
                        chain.push(cur);
                    }
                    chain.reverse();
                    return Some(chain);
                }
                queue.push_back(next);
            }
        }
        None
    }

    /// Serializes the graph as stable JSON (nodes sorted by id, edges
    /// sorted by endpoint ids) for the CI artifact.
    pub fn to_json(&self, reg: &Registry) -> String {
        let mut order: Vec<usize> = (0..reg.fns.len()).collect();
        order.sort_by(|&a, &b| reg.fns[a].id.cmp(&reg.fns[b].id).then(a.cmp(&b)));
        let mut nodes = Vec::with_capacity(order.len());
        for &i in &order {
            let f = &reg.fns[i];
            nodes.push(format!(
                "    {{\"id\": \"{}\", \"path\": \"{}\", \"line\": {}, \"public\": {}, \"test\": {}}}",
                esc(&f.id),
                esc(&f.path),
                f.span.line,
                f.vis == Vis::Pub,
                f.is_test,
            ));
        }
        let mut edge_rows: Vec<(String, String)> = Vec::new();
        for (caller, callees) in self.edges.iter().enumerate() {
            for &callee in callees {
                edge_rows.push((reg.fns[caller].id.clone(), reg.fns[callee].id.clone()));
            }
        }
        edge_rows.sort();
        edge_rows.dedup();
        let edges: Vec<String> = edge_rows
            .iter()
            .map(|(a, b)| format!("    [\"{}\", \"{}\"]", esc(a), esc(b)))
            .collect();
        format!(
            "{{\n  \"tool\": \"msrnet-analyzer\",\n  \"kind\": \"callgraph\",\n  \
             \"schema_version\": 2,\n  \"nodes\": [\n{}\n  ],\n  \"edges\": [\n{}\n  ]\n}}\n",
            nodes.join(",\n"),
            edges.join(",\n"),
        )
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One potential panic site inside a function body.
#[derive(Clone, Debug)]
pub struct PanicSite {
    /// Exact span of the offending token.
    pub span: Span,
    /// Short description (`` `.unwrap()` ``, `` `panic!` ``,
    /// `indexing a caller-provided slice`).
    pub what: String,
}

/// Macro names of the panic family.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Collects the panic sites of one function body. Pure syntax — the
/// caller decides which sites are audited by markers.
pub fn panic_sites(reg: &Registry, fn_idx: usize) -> Vec<PanicSite> {
    let f = &reg.fns[fn_idx];
    let mut sites = Vec::new();
    let Some(body) = &f.def.body else {
        return sites;
    };
    let params: BTreeSet<&str> = f
        .def
        .params
        .iter()
        .filter(|p| *p != "self")
        .map(String::as_str)
        .collect();
    walk_block(body, &mut |e: &Expr| match &e.kind {
        ExprKind::Method { name, .. } if name == "unwrap" || name == "expect" => {
            sites.push(PanicSite {
                span: e.span,
                what: format!("`.{name}()`"),
            });
        }
        ExprKind::Macro { name, .. } if PANIC_MACROS.contains(&name.as_str()) => {
            sites.push(PanicSite {
                span: e.span,
                what: format!("`{name}!`"),
            });
        }
        ExprKind::Index { base, .. } => {
            if let ExprKind::Path(segs) = &base.kind {
                if segs.len() == 1 && params.contains(segs[0].as_str()) {
                    sites.push(PanicSite {
                        span: e.span,
                        what: format!("indexing caller-provided `{}`", segs[0]),
                    });
                }
            }
        }
        _ => {}
    });
    sites
}

/// Runs S1 over the whole graph.
///
/// `site_holders` maps a function index to the (path, line, what) of
/// its first unaudited panic site — only functions with at least one
/// unaudited site appear. Returns one diagnostic per entry point
/// ([`crate::resolve::FnInfo::is_entry`]) that can reach a site,
/// positioned at the entry's name token, with the shortest call chain
/// rendered in the message and stored in the diagnostic chain field.
pub fn check_panic_reachability(
    reg: &Registry,
    graph: &CallGraph,
    site_holders: &BTreeMap<usize, (String, u32, String)>,
) -> Vec<Diagnostic> {
    let targets: BTreeSet<usize> = site_holders.keys().copied().collect();
    if targets.is_empty() {
        return Vec::new();
    }
    let can_reach = graph.reaches(&targets);
    let mut out = Vec::new();
    for (i, f) in reg.fns.iter().enumerate() {
        if !f.is_entry() || !can_reach[i] {
            continue;
        }
        let Some(chain) = graph.shortest_chain(i, &targets) else {
            continue;
        };
        let chain_ids: Vec<String> = chain.iter().map(|&k| reg.fns[k].id.clone()).collect();
        let last = chain.last().copied().unwrap_or(i);
        let Some((site_path, site_line, what)) = site_holders.get(&last) else {
            continue;
        };
        let rendered = chain_ids.join(" -> ");
        out.push(Diagnostic {
            lint: Lint::S1,
            path: f.path.clone(),
            line: f.span.line,
            col: f.span.col,
            len: f.span.len,
            snippet: f.name.clone(),
            message: format!(
                "entry point `{}` can reach a panic: {} at {}:{} via {}; make the chain \
                 infallible (return Result / use `.get()`), audit the site with \
                 `msrnet-allow: panic <reason>`, or justify the entry with \
                 `msrnet-allow: panic-reach <reason>`",
                f.id, what, site_path, site_line, rendered
            ),
            chain: chain_ids,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;
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

    fn build(files: &[Parsed]) -> (Registry, CallGraph) {
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
        (reg, graph)
    }

    fn idx(reg: &Registry, id: &str) -> usize {
        reg.fns.iter().position(|f| f.id == id).expect("fn exists")
    }

    #[test]
    fn direct_and_transitive_edges() {
        let files = [parsed(
            "c",
            "crates/c/src/lib.rs",
            "pub fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n",
        )];
        let (reg, g) = build(&files);
        let (a, b, c) = (idx(&reg, "c::a"), idx(&reg, "c::b"), idx(&reg, "c::c"));
        assert!(g.edges[a].contains(&b));
        assert!(g.edges[b].contains(&c));
        let targets: BTreeSet<usize> = [c].into_iter().collect();
        let can = g.reaches(&targets);
        assert!(can[a] && can[b] && can[c]);
        assert_eq!(g.shortest_chain(a, &targets), Some(vec![a, b, c]));
    }

    #[test]
    fn panic_sites_cover_unwrap_macros_and_param_indexing() {
        let files = [parsed(
            "c",
            "crates/c/src/lib.rs",
            "fn f(v: &[u32], i: usize) -> u32 {\n    let x = v[i];\n    self_index(x);\n    opt().unwrap();\n    panic!(\"no\");\n    x\n}\nfn opt() -> Option<u32> { None }\nfn self_index(_x: u32) {}\nstruct S { d: Vec<u32> }\nimpl S { fn g(&self, i: usize) -> u32 { self.d[i] } }\n",
        )];
        let (reg, _g) = build(&files);
        let f = idx(&reg, "c::f");
        let whats: Vec<String> = panic_sites(&reg, f).iter().map(|s| s.what.clone()).collect();
        assert_eq!(
            whats,
            vec![
                "indexing caller-provided `v`".to_string(),
                "`.unwrap()`".to_string(),
                "`panic!`".to_string(),
            ]
        );
        // `self.d[i]` is field-based, not a caller-provided slice.
        let g_ = idx(&reg, "c::S::g");
        assert!(panic_sites(&reg, g_).is_empty());
    }

    #[test]
    fn s1_flags_entry_point_with_chain() {
        let files = [parsed(
            "c",
            "crates/c/src/lib.rs",
            "pub fn api() { step(); }\nfn step() { deep(); }\nfn deep(o: Option<u32>) { o.unwrap(); }\npub fn safe() { step2(); }\nfn step2() {}\n",
        )];
        let (reg, g) = build(&files);
        let deep = idx(&reg, "c::deep");
        let mut holders = BTreeMap::new();
        let site = &panic_sites(&reg, deep)[0];
        holders.insert(
            deep,
            (
                "crates/c/src/lib.rs".to_string(),
                site.span.line,
                site.what.clone(),
            ),
        );
        let diags = check_panic_reachability(&reg, &g, &holders);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.lint, Lint::S1);
        assert_eq!(d.snippet, "api");
        assert_eq!(d.line, 1);
        assert_eq!(d.chain, vec!["c::api", "c::step", "c::deep"]);
        assert!(d.message.contains("c::api -> c::step -> c::deep"), "{}", d.message);
    }

    #[test]
    fn method_calls_over_approximate() {
        let files = [parsed(
            "c",
            "crates/c/src/lib.rs",
            "pub struct T;\nimpl T { pub fn hop(&self) { danger(); } }\npub fn api(t: &T) { t.hop(); }\nfn danger(o: Option<u32>) { o.unwrap(); }\n",
        )];
        let (reg, g) = build(&files);
        let api = idx(&reg, "c::api");
        let hop = idx(&reg, "c::T::hop");
        assert!(g.edges[api].contains(&hop));
    }

    #[test]
    fn callgraph_json_is_stable_and_sorted() {
        let files = [parsed(
            "c",
            "crates/c/src/lib.rs",
            "pub fn b() { a(); }\nfn a() {}\n",
        )];
        let (reg, g) = build(&files);
        let j1 = g.to_json(&reg);
        let j2 = g.to_json(&reg);
        assert_eq!(j1, j2);
        assert!(j1.contains("\"kind\": \"callgraph\""));
        let a_pos = j1.find("\"id\": \"c::a\"").expect("node a");
        let b_pos = j1.find("\"id\": \"c::b\"").expect("node b");
        assert!(a_pos < b_pos, "nodes sorted by id");
        assert!(j1.contains("[\"c::b\", \"c::a\"]"));
    }
}
