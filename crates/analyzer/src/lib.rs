//! msrnet-analyzer — the static rung of the verification ladder.
//!
//! The workspace's core guarantee is *bit-identical determinism*:
//! parallel batch runs, arena-backed DP and incremental recomputes all
//! reproduce their from-scratch oracles exactly, and the differential
//! harness (`crates/verify`) checks that at runtime. This crate checks
//! the hazards that would silently erode the guarantee *statically*,
//! before any fuzzing runs:
//!
//! | lint | invariant |
//! |------|-----------|
//! | `D1` | no `HashMap`/`HashSet` in non-test code (iteration order) |
//! | `D3` | no float `==`/`!=` against float literals outside tests |
//! | `L1` | crate dependencies respect the layering DAG, acyclically |
//! | `W1` | wall-clock and `std::env` reads confined to bench/cli |
//! | `S1` | no library entry point (`pub fn` or trait-side method) transitively reaches an unaudited panic site (call-graph) |
//! | `S2` | no DP solve, blocking I/O or re-acquisition while holding a lock; acquisition order acyclic |
//! | `S3` | no `partial_cmp` call, and no possibly-NaN value reaches a `total_cmp` ordering unguarded |
//! | `M1` | `msrnet-allow` markers are well-formed and all used |
//!
//! One parse decides what is test code ([`ast::Item::test`]): every
//! lint skips it. The token lints (`D1`, `D3`, `W1`) work on the lexed
//! stream, because the AST skips types; the semantic lints (`S*`) run
//! on an in-house tolerant AST with module/`use` resolution and a
//! workspace-wide call graph — see [`ast`], [`resolve`] and
//! [`callgraph`].
//!
//! Any finding can be suppressed at the site with a justified
//! `// msrnet-allow: <key> <reason>` marker (except `M1`), and a
//! `panic` marker audits one S1 panic site; unused and malformed
//! markers are themselves findings, so the suppression set can only
//! shrink.
//!
//! The analyzer has zero external dependencies — an in-house token
//! scanner with the same offline discipline as `crates/rng` — and its
//! JSON report is byte-deterministic for a fixed tree.
//!
//! # Example
//!
//! ```
//! use msrnet_analyzer::{analyze_file, FileCtx, FileKind};
//!
//! let ctx = FileCtx {
//!     crate_name: "msrnet-core".to_string(),
//!     path: "crates/core/src/dp.rs".to_string(),
//!     kind: FileKind::Library,
//! };
//! let analysis = analyze_file(&ctx, "fn k(a: f64, b: f64) -> bool { a == 0.5 }\n");
//! assert_eq!(analysis.diagnostics.len(), 1);
//! assert_eq!(analysis.diagnostics[0].lint.id(), "D3");
//!
//! // `partial_cmp` is S3; the `.unwrap()` is S1 at the public entry.
//! let src = "pub fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
//! let ids: Vec<&str> = analyze_file(&ctx, src).diagnostics.iter().map(|d| d.lint.id()).collect();
//! assert_eq!(ids, ["S1", "S3"]);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod lexer;
pub mod lints;
pub mod locks;
pub mod resolve;
pub mod manifest;
pub mod markers;
pub mod report;
pub mod taint;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use locks::LockCheck;
use markers::{MarkerSet, PANIC_AUDIT};
use resolve::{Registry, SourceUnit};

pub use lints::{FileAnalysis, FileCtx, FileKind};
pub use manifest::{check_cycles, check_layering, parse_manifest, workspace_layers, Manifest};
pub use report::{Diagnostic, Lint, Report, SemanticStats};

/// A fatal analysis error (I/O problems; lint findings are *not*
/// errors, they are [`Report`] rows).
#[derive(Debug)]
pub struct AnalyzeError {
    /// What failed.
    pub message: String,
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for AnalyzeError {}

/// Crates whose `src/` is front-end code: W1 exempt and never S1 entry
/// points (they parse arguments, read clocks and may panic on broken
/// invariants).
const FRONT_END_CRATES: &[&str] = &["msrnet-cli", "msrnet-bench"];

/// One source file handed to [`analyze_sources`].
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Lint context (crate, path, applicability class).
    pub ctx: FileCtx,
    /// Full file contents.
    pub text: String,
}

/// The result of analyzing a set of files together.
#[derive(Debug, Default)]
pub struct SourcesAnalysis {
    /// Unsuppressed diagnostics across every phase (unsorted; callers
    /// canonicalize at the report level).
    pub diagnostics: Vec<Diagnostic>,
    /// Findings suppressed by used `msrnet-allow` markers.
    pub suppressed: usize,
    /// Semantic-pass coverage counters.
    pub semantic: SemanticStats,
    /// The call-graph artifact (stable JSON), for `--callgraph`
    /// exports and CI uploads.
    pub callgraph_json: String,
}

/// Analyzes a set of source files together, in three phases:
///
/// 1. **parse and token lints** per file: the AST marks test code,
///    and D1/D3/W1 run outside it, suppressing against each file's
///    `msrnet-allow` markers, which stay alive;
/// 2. **semantic lints** over the cross-file symbol table and call
///    graph — S1 panic-reachability (with site-level `panic` audits
///    consuming markers), S2 lock-discipline, S3 NaN ordering —
///    suppressed against the same marker sets;
/// 3. **marker hygiene** (M1), last, so a marker used by *any* phase
///    is not reported as unused.
///
/// `deps` lists each crate's workspace dependencies (package names),
/// used for `use`-resolution and the method-call over-approximation.
pub fn analyze_sources(files: &[SourceFile], deps: &[(String, Vec<String>)]) -> SourcesAnalysis {
    // Phase 1: lex, parse, token lints; markers stay alive.
    let mut parsed: Vec<Vec<ast::Item>> = Vec::with_capacity(files.len());
    let mut marker_sets: Vec<MarkerSet> = Vec::with_capacity(files.len());
    let mut out = SourcesAnalysis::default();
    for f in files {
        let lexed = lexer::lex(&f.text);
        let items = ast::parse_file(&f.text, &lexed);
        let phase = lints::token_phase(&f.ctx, &f.text, &lexed, &ast::test_spans(&items));
        out.diagnostics.extend(phase.diagnostics);
        out.suppressed += phase.suppressed;
        marker_sets.push(phase.markers);
        parsed.push(items);
    }
    let by_path: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.ctx.path.as_str(), i))
        .collect();

    // Phase 2: symbol table, call graph, semantic lints.
    let units: Vec<SourceUnit<'_>> = files
        .iter()
        .zip(&parsed)
        .map(|(f, items)| SourceUnit {
            crate_name: &f.ctx.crate_name,
            path: &f.ctx.path,
            kind: f.ctx.kind,
            items,
        })
        .collect();
    let reg = Registry::build(&units, deps);
    let graph = CallGraph::build(&reg);
    out.semantic = SemanticStats {
        callgraph_nodes: reg.fns.len(),
        callgraph_edges: graph.edges.iter().map(|e| e.len()).sum(),
        ..SemanticStats::default()
    };

    // S1 — panic-reachability. A site carrying a site-level `panic`
    // marker is audited, which uses the marker up.
    let mut site_holders: BTreeMap<usize, (String, u32, String)> = BTreeMap::new();
    for i in 0..reg.fns.len() {
        let f = &reg.fns[i];
        if f.is_test {
            continue;
        }
        if f.is_entry() {
            out.semantic.entry_points += 1;
        }
        let midx = by_path.get(f.path.as_str()).copied();
        for site in callgraph::panic_sites(&reg, i) {
            out.semantic.panic_sites += 1;
            let audited =
                midx.is_some_and(|m| marker_sets[m].suppresses(PANIC_AUDIT, site.span.line));
            if audited {
                out.semantic.audited_sites += 1;
            } else {
                site_holders
                    .entry(i)
                    .or_insert_with(|| (f.path.clone(), site.span.line, site.what.clone()));
            }
        }
    }
    let mut sem_diags = callgraph::check_panic_reachability(&reg, &graph, &site_holders);

    // S2 — lock discipline over the service crate.
    let (s2, lock_sites) = LockCheck::new(&reg, &graph).run("msrnet-service");
    out.semantic.lock_sites = lock_sites;
    sem_diags.extend(s2);

    // S3 — NaN ordering, per file.
    for (f, items) in files.iter().zip(&parsed) {
        let t = taint::check_file(&f.ctx.path, items);
        out.semantic.taint_sources += t.sources;
        out.semantic.taint_sinks += t.sinks;
        sem_diags.extend(t.diags);
    }

    for d in sem_diags {
        let suppressed = by_path
            .get(d.path.as_str())
            .copied()
            .is_some_and(|m| marker_sets[m].suppresses(d.lint.marker_key(), d.line));
        if suppressed {
            out.suppressed += 1;
        } else {
            out.diagnostics.push(d);
        }
    }

    // Phase 3: marker hygiene, after every chance to use a marker.
    for (f, set) in files.iter().zip(&marker_sets) {
        for (line, message) in &set.malformed {
            out.diagnostics.push(Diagnostic {
                lint: Lint::M1,
                path: f.ctx.path.clone(),
                line: *line,
                col: 1,
                len: 0,
                snippet: String::new(),
                message: message.clone(),
                chain: Vec::new(),
            });
        }
        out.diagnostics.extend(set.unused(&f.ctx.path));
    }
    out.callgraph_json = graph.to_json(&reg);
    out
}

/// Lints one Rust source file (token and semantic passes, with the
/// file as the whole analysis universe).
pub fn analyze_file(ctx: &FileCtx, text: &str) -> FileAnalysis {
    let files = [SourceFile {
        ctx: ctx.clone(),
        text: text.to_string(),
    }];
    let deps = [(ctx.crate_name.clone(), Vec::new())];
    let a = analyze_sources(&files, &deps);
    FileAnalysis {
        diagnostics: a.diagnostics,
        suppressed: a.suppressed,
    }
}

/// Analyzes the whole workspace rooted at `root` (the directory
/// holding the top-level `Cargo.toml`).
///
/// Scans, deterministically (crates and files in sorted order):
/// * every member crate's `Cargo.toml` → the `L1` layering lint;
/// * every `.rs` file under each member's `src/` → the token lints.
///
/// Files under `tests/`, `benches/` and `examples/` are deliberately
/// not scanned: test code is exempt from every lint, and the
/// analyzer's own fixture corpus of known-bad files lives there.
///
/// # Errors
///
/// Returns [`AnalyzeError`] only for I/O failures (unreadable root,
/// undecodable file); lint findings never error.
pub fn analyze_workspace(root: &Path) -> Result<Report, AnalyzeError> {
    analyze_workspace_full(root).map(|(report, _)| report)
}

/// [`analyze_workspace`], additionally returning the call-graph
/// artifact JSON for export.
///
/// # Errors
///
/// Returns [`AnalyzeError`] only for I/O failures.
pub fn analyze_workspace_full(root: &Path) -> Result<(Report, String), AnalyzeError> {
    let mut report = Report::default();
    let mut manifests: Vec<(String, Manifest)> = Vec::new();
    let mut sources: Vec<SourceFile> = Vec::new();
    let mut deps: Vec<(String, Vec<String>)> = Vec::new();

    // Member crates: `crates/*` plus the root facade package.
    let mut crate_dirs: Vec<(PathBuf, String)> = vec![(root.to_path_buf(), String::new())];
    let crates_dir = root.join("crates");
    let entries = fs::read_dir(&crates_dir).map_err(|e| AnalyzeError {
        message: format!("reading {}: {e}", crates_dir.display()),
    })?;
    let mut names: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| AnalyzeError {
            message: format!("reading {}: {e}", crates_dir.display()),
        })?;
        if entry.path().join("Cargo.toml").is_file() {
            names.push(entry.path());
        }
    }
    names.sort();
    for dir in names {
        let rel = format!(
            "crates/{}",
            dir.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default()
        );
        crate_dirs.push((dir, rel));
    }

    let layers = workspace_layers();
    for (dir, rel) in &crate_dirs {
        let manifest_path = dir.join("Cargo.toml");
        let text = fs::read_to_string(&manifest_path).map_err(|e| AnalyzeError {
            message: format!("reading {}: {e}", manifest_path.display()),
        })?;
        let m = parse_manifest(&text);
        if m.name.is_empty() {
            // A virtual manifest (workspace-only section) has no
            // package to layer-check.
            continue;
        }
        report.crates_scanned += 1;
        let report_path = if rel.is_empty() {
            "Cargo.toml".to_string()
        } else {
            format!("{rel}/Cargo.toml")
        };
        report.diagnostics.extend(check_layering(&report_path, &m, &layers));
        let kind = if FRONT_END_CRATES.contains(&m.name.as_str()) {
            FileKind::FrontEnd
        } else {
            FileKind::Library
        };
        let src_dir = dir.join("src");
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files);
        files.sort();
        for file in files {
            let text = fs::read_to_string(&file).map_err(|e| AnalyzeError {
                message: format!("reading {}: {e}", file.display()),
            })?;
            let file_rel = relative_path(root, &file);
            // `src/bin/*` are binary targets: front-end rules.
            let file_kind = if file_rel.contains("/src/bin/") {
                FileKind::FrontEnd
            } else {
                kind
            };
            report.files_scanned += 1;
            sources.push(SourceFile {
                ctx: FileCtx {
                    crate_name: m.name.clone(),
                    path: file_rel,
                    kind: file_kind,
                },
                text,
            });
        }
        deps.push((m.name.clone(), m.deps.iter().map(|(d, _)| d.clone()).collect()));
        manifests.push((report_path, m));
    }
    let analysis = analyze_sources(&sources, &deps);
    report.suppressed = analysis.suppressed;
    report.semantic = analysis.semantic;
    report.diagnostics.extend(analysis.diagnostics);
    report.diagnostics.extend(check_cycles(&manifests));
    report.canonicalize();
    Ok((report, analysis.callgraph_json))
}

/// Recursively collects `.rs` files under `dir` (missing dir → none).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `file` relative to `root`, with forward slashes.
fn relative_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}
