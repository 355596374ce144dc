//! Injected-violation drill: take a *real* production source file,
//! inject a known hazard into an in-memory copy, and assert the
//! analyzer pins it at the exact line/column/span. This guards against
//! the failure mode where the lint pass silently goes blind (e.g. a
//! lexer regression swallowing tokens) while the workspace-clean test
//! keeps passing vacuously.

use msrnet_analyzer::{analyze_file, FileCtx, FileKind, Lint};
use std::path::Path;

fn real_source(rel: &str) -> String {
    // CARGO_MANIFEST_DIR = crates/analyzer; the workspace root is two up.
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn ctx(path: &str) -> FileCtx {
    FileCtx {
        crate_name: "msrnet-core".to_string(),
        path: path.to_string(),
        kind: FileKind::Library,
    }
}

#[test]
fn baseline_dp_rs_is_clean() {
    let src = real_source("crates/core/src/dp.rs");
    let a = analyze_file(&ctx("crates/core/src/dp.rs"), &src);
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    assert!(a.suppressed > 0, "dp.rs carries justified markers");
}

#[test]
fn injected_partial_cmp_is_pinned_at_exact_span() {
    let src = real_source("crates/core/src/dp.rs");

    // Swap the first NaN-safe sort key for the NaN-unsafe idiom the
    // pre-analyzer codebase used, exactly as a regressing patch would.
    let safe = "total_cmp";
    let pos = src.find(safe).expect("dp.rs sorts with total_cmp");
    let injected = format!(
        "{}partial_cmp{}",
        &src[..pos],
        &src[pos + safe.len()..]
    );

    let a = analyze_file(&ctx("crates/core/src/dp.rs"), &injected);
    let s3: Vec<_> = a.diagnostics.iter().filter(|d| d.lint == Lint::S3).collect();
    assert_eq!(s3.len(), 1, "exactly the injected site: {:?}", a.diagnostics);

    // Recompute the expected 1-based line/col of the injection point
    // from the patched text itself.
    let before = &injected[..pos];
    let line = before.bytes().filter(|&b| b == b'\n').count() as u32 + 1;
    let col = (pos - before.rfind('\n').map_or(0, |i| i + 1)) as u32 + 1;
    let d = s3[0];
    assert_eq!((d.line, d.col), (line, col), "span drifted: {d:?}");
    assert_eq!(d.len, "partial_cmp".len() as u32);
    assert_eq!(d.snippet, "partial_cmp");
}

#[test]
fn injected_hashmap_in_incremental_is_caught() {
    let src = real_source("crates/incremental/src/lib.rs");
    // Prepend a use; line 1 is outside any test region.
    let injected = format!("use std::collections::HashMap;\n{src}");
    let a = analyze_file(&ctx("crates/incremental/src/lib.rs"), &injected);
    let d1: Vec<_> = a.diagnostics.iter().filter(|d| d.lint == Lint::D1).collect();
    assert_eq!(d1.len(), 1, "{:?}", a.diagnostics);
    assert_eq!(d1[0].line, 1);
    assert_eq!(d1[0].snippet, "HashMap");
}

#[test]
fn injected_wall_clock_in_core_is_caught() {
    let src = real_source("crates/core/src/dp.rs");
    let injected = format!("{src}\nfn sneak() -> std::time::Instant {{ std::time::Instant::now() }}\n");
    let a = analyze_file(&ctx("crates/core/src/dp.rs"), &injected);
    let w1: Vec<_> = a.diagnostics.iter().filter(|d| d.lint == Lint::W1).collect();
    assert!(!w1.is_empty(), "{:?}", a.diagnostics);
    let last_line = injected.lines().count() as u32;
    assert!(w1.iter().all(|d| d.line == last_line), "{w1:?}");
}

// --- Semantic-lint drills: S1 / S2 / S3 against real sources ---

/// All files of the service crate as in-memory sources, with `path`
/// optionally swapped for `text` (the injected copy).
fn service_sources(inject: Option<(&str, &str)>) -> Vec<msrnet_analyzer::SourceFile> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../service/src");
    let mut files = Vec::new();
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .expect("list crates/service/src")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .filter(|n| n.ends_with(".rs"))
        .collect();
    names.sort();
    for name in names {
        let rel = format!("crates/service/src/{name}");
        let text = match inject {
            Some((p, t)) if p == rel => t.to_string(),
            _ => real_source(&rel),
        };
        files.push(msrnet_analyzer::SourceFile {
            ctx: FileCtx {
                crate_name: "msrnet-service".to_string(),
                path: rel,
                kind: FileKind::Library,
            },
            text,
        });
    }
    files
}

fn analyze_service(inject: Option<(&str, &str)>) -> msrnet_analyzer::SourcesAnalysis {
    let deps = [("msrnet-service".to_string(), Vec::new())];
    msrnet_analyzer::analyze_sources(&service_sources(inject), &deps)
}

#[test]
fn baseline_service_crate_has_no_unsuppressed_s2() {
    let a = analyze_service(None);
    let s2: Vec<_> = a.diagnostics.iter().filter(|d| d.lint == Lint::S2).collect();
    assert!(s2.is_empty(), "{s2:?}");
    assert!(a.semantic.lock_sites > 0, "lock sites must be visible");
}

#[test]
fn injected_solve_under_session_lock_is_pinned() {
    let src = real_source("crates/service/src/server.rs");
    let injected = format!(
        "{src}\nfn drill_hold_and_solve(shared: &Shared) {{\n    let mut t = lock_table(&shared.table);\n    t.optimize();\n}}\n"
    );
    let a = analyze_service(Some(("crates/service/src/server.rs", &injected)));
    let s2: Vec<_> = a.diagnostics.iter().filter(|d| d.lint == Lint::S2).collect();
    assert_eq!(s2.len(), 1, "exactly the injected site: {s2:?}");
    let d = s2[0];
    // The solve call sits on the last non-empty line of the patch.
    let line = injected.lines().count() as u32 - 1;
    assert_eq!(d.path, "crates/service/src/server.rs");
    assert_eq!((d.line, d.col), (line, 7), "span drifted: {d:?}");
    assert_eq!(d.len, "optimize".len() as u32);
    assert_eq!(d.snippet, "optimize");
    assert!(d.message.contains("while holding `table`"), "{}", d.message);
    assert!(d.message.contains(&format!("held since line {}", line - 1)), "{}", d.message);
}

#[test]
fn injected_panic_three_calls_below_public_api_is_pinned() {
    let src = real_source("crates/core/src/dp.rs");
    let injected = format!(
        "{src}\npub fn drill_entry(v: &[f64]) -> f64 {{\n    drill_a(v)\n}}\nfn drill_a(v: &[f64]) -> f64 {{\n    drill_b(v)\n}}\nfn drill_b(v: &[f64]) -> f64 {{\n    drill_c(v)\n}}\nfn drill_c(v: &[f64]) -> f64 {{\n    v.first().copied().unwrap()\n}}\n"
    );
    let a = analyze_file(&ctx("crates/core/src/dp.rs"), &injected);
    let s1: Vec<_> = a.diagnostics.iter().filter(|d| d.lint == Lint::S1).collect();
    assert_eq!(s1.len(), 1, "exactly the injected chain: {s1:?}");
    let d = s1[0];
    // The entry is 12 lines up from the end of the patched file.
    let entry_line = injected.lines().count() as u32 - 11;
    assert_eq!((d.line, d.col), (entry_line, 8), "span drifted: {d:?}");
    assert_eq!(d.len, "drill_entry".len() as u32);
    assert_eq!(d.snippet, "drill_entry");
    assert_eq!(
        d.chain,
        vec![
            "msrnet-core::dp::drill_entry".to_string(),
            "msrnet-core::dp::drill_a".to_string(),
            "msrnet-core::dp::drill_b".to_string(),
            "msrnet-core::dp::drill_c".to_string(),
        ],
        "{:?}",
        d.chain
    );
    let site_line = injected.lines().count() as u32 - 1;
    assert!(
        d.message.contains(&format!("crates/core/src/dp.rs:{site_line}")),
        "site not pinned: {}",
        d.message
    );
}

#[test]
fn injected_unguarded_division_feeding_total_cmp_is_pinned() {
    let src = real_source("crates/pwl/src/function.rs");
    let injected = format!(
        "{src}\npub fn drill_key(a: f64, b: f64) -> std::cmp::Ordering {{\n    let k = a / b;\n    k.total_cmp(&b)\n}}\n"
    );
    let pwl_ctx = FileCtx {
        crate_name: "msrnet-pwl".to_string(),
        path: "crates/pwl/src/function.rs".to_string(),
        kind: FileKind::Library,
    };
    let a = analyze_file(&pwl_ctx, &injected);
    let s3: Vec<_> = a.diagnostics.iter().filter(|d| d.lint == Lint::S3).collect();
    assert_eq!(s3.len(), 1, "exactly the injected sink: {s3:?}");
    let d = s3[0];
    let sink_line = injected.lines().count() as u32 - 1;
    assert_eq!((d.line, d.col), (sink_line, 7), "span drifted: {d:?}");
    assert_eq!(d.len, "total_cmp".len() as u32);
    assert_eq!(d.snippet, "total_cmp");
    assert!(d.message.contains("finiteness guard"), "{}", d.message);
}
