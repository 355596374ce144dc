//! Fixture-corpus tests: every lint gets a positive (bad), negative
//! (good) and marker-suppressed fixture, analyzed through the public
//! `analyze_file` entry point exactly as the workspace scan would.

use msrnet_analyzer::{analyze_file, FileCtx, FileKind, Lint};
use std::path::Path;

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn analyze(name: &str, kind: FileKind) -> msrnet_analyzer::FileAnalysis {
    let ctx = FileCtx {
        crate_name: "fixture".to_string(),
        path: format!("tests/fixtures/{name}"),
        kind,
    };
    analyze_file(&ctx, &fixture(name))
}

fn lints_of(a: &msrnet_analyzer::FileAnalysis) -> Vec<Lint> {
    a.diagnostics.iter().map(|d| d.lint).collect()
}

#[test]
fn d1_bad_flags_both_hash_collections() {
    let a = analyze("d1_bad.rs", FileKind::Library);
    let ls = lints_of(&a);
    assert!(ls.iter().filter(|&&l| l == Lint::D1).count() >= 3, "{ls:?}");
    assert_eq!(a.suppressed, 0);
}

#[test]
fn d1_good_is_clean() {
    let a = analyze("d1_good.rs", FileKind::Library);
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
}

#[test]
fn d1_marker_suppresses() {
    let a = analyze("d1_suppressed.rs", FileKind::Library);
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    assert!(a.suppressed >= 1);
}

#[test]
fn d3_bad_flags_literal_and_nan() {
    let a = analyze("d3_bad.rs", FileKind::Library);
    let ls = lints_of(&a);
    assert!(ls.iter().filter(|&&l| l == Lint::D3).count() >= 2, "{ls:?}");
}

#[test]
fn d3_good_allows_tolerance_infinity_and_ints() {
    let a = analyze("d3_good.rs", FileKind::Library);
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
}

#[test]
fn d3_marker_suppresses() {
    let a = analyze("d3_suppressed.rs", FileKind::Library);
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    assert!(a.suppressed >= 1);
}

#[test]
fn w1_bad_flags_instant_systemtime_env() {
    let a = analyze("w1_bad.rs", FileKind::Library);
    let ls = lints_of(&a);
    assert!(ls.iter().filter(|&&l| l == Lint::W1).count() >= 3, "{ls:?}");
}

#[test]
fn w1_good_is_clean() {
    let a = analyze("w1_good.rs", FileKind::Library);
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
}

#[test]
fn w1_marker_suppresses() {
    let a = analyze("w1_suppressed.rs", FileKind::Library);
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    assert!(a.suppressed >= 1);
}

#[test]
fn w1_exempt_in_front_end_crates() {
    let a = analyze("w1_bad.rs", FileKind::FrontEnd);
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
}

fn analyze_as(name: &str, crate_name: &str, kind: FileKind) -> msrnet_analyzer::FileAnalysis {
    let ctx = FileCtx {
        crate_name: crate_name.to_string(),
        path: format!("tests/fixtures/{name}"),
        kind,
    };
    analyze_file(&ctx, &fixture(name))
}

#[test]
fn s1_bad_flags_the_entry_with_the_full_chain() {
    let a = analyze("s1_bad.rs", FileKind::Library);
    let s1: Vec<_> = a.diagnostics.iter().filter(|d| d.lint == Lint::S1).collect();
    assert_eq!(s1.len(), 1, "{:?}", a.diagnostics);
    let d = s1[0];
    assert_eq!(d.snippet, "entry");
    assert_eq!(d.chain.len(), 3, "{:?}", d.chain);
    assert!(d.chain[0].ends_with("::entry"), "{:?}", d.chain);
    assert!(d.chain[2].ends_with("::deepest"), "{:?}", d.chain);
    assert!(d.message.contains("values"), "{}", d.message);
}

#[test]
fn s1_trait_bad_flags_trait_side_methods_at_the_name() {
    let src = fixture("s1_trait_bad.rs");
    let a = analyze("s1_trait_bad.rs", FileKind::Library);
    let s1: Vec<_> = a.diagnostics.iter().filter(|d| d.lint == Lint::S1).collect();
    let at = |name: &str| {
        let pos = src.find(&format!("fn {name}(")).expect("method present") + 3;
        let line = src[..pos].matches('\n').count() as u32 + 1;
        let col = (pos - src[..pos].rfind('\n').map_or(0, |i| i + 1)) as u32 + 1;
        (name.to_string(), line, col, name.len() as u32)
    };
    let found: Vec<_> = s1
        .iter()
        .map(|d| (d.snippet.clone(), d.line, d.col, d.len))
        .collect();
    let expected = vec![at("fmt"), at("next"), at("describe")];
    assert_eq!(found, expected, "{:?}", a.diagnostics);
    assert!(s1[0].message.contains("`.unwrap()`"), "{}", s1[0].message);
    assert!(s1[1].message.contains("`.expect()`"), "{}", s1[1].message);
    assert_eq!(a.diagnostics.len(), 3, "{:?}", a.diagnostics);
}

#[test]
fn s1_exempt_in_front_end_crates() {
    for name in ["s1_bad.rs", "s1_trait_bad.rs"] {
        let a = analyze(name, FileKind::FrontEnd);
        assert!(a.diagnostics.is_empty(), "{name}: {:?}", a.diagnostics);
    }
}

#[test]
fn production_cfgs_mentioning_test_are_linted() {
    let a = analyze("cfg_prod.rs", FileKind::Library);
    let found: Vec<_> = a
        .diagnostics
        .iter()
        .map(|d| (d.lint, d.line, d.snippet.as_str()))
        .collect();
    assert_eq!(
        found,
        vec![
            (Lint::S1, 5, "prod"),
            (Lint::S1, 10, "clocked"),
            (Lint::W1, 11, "Instant"),
            (Lint::D1, 12, "HashMap"),
        ],
        "{:?}",
        a.diagnostics
    );
}

#[test]
fn s1_good_is_clean() {
    let a = analyze("s1_good.rs", FileKind::Library);
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
}

#[test]
fn s1_site_marker_suppresses() {
    let a = analyze("s1_suppressed.rs", FileKind::Library);
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
}

#[test]
fn s2_bad_flags_solve_under_lock() {
    let a = analyze_as("s2_bad.rs", "msrnet-service", FileKind::Library);
    let s2: Vec<_> = a.diagnostics.iter().filter(|d| d.lint == Lint::S2).collect();
    assert_eq!(s2.len(), 1, "{:?}", a.diagnostics);
    assert!(s2[0].message.contains("holding"), "{}", s2[0].message);
}

#[test]
fn s2_good_solve_outside_guard_scope_is_clean() {
    let a = analyze_as("s2_good.rs", "msrnet-service", FileKind::Library);
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
}

#[test]
fn s2_marker_suppresses() {
    let a = analyze_as("s2_suppressed.rs", "msrnet-service", FileKind::Library);
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    assert!(a.suppressed >= 1);
}

#[test]
fn s2_is_scoped_to_the_service_crate() {
    // The same source under any other crate name is out of scope.
    let a = analyze("s2_bad.rs", FileKind::Library);
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
}

#[test]
fn s3_bad_flags_division_reaching_total_cmp_and_partial_cmp() {
    // S3 holds in library and front-end code alike.
    for kind in [FileKind::Library, FileKind::FrontEnd] {
        let a = analyze("s3_bad.rs", kind);
        let s3: Vec<_> = a.diagnostics.iter().filter(|d| d.lint == Lint::S3).collect();
        assert_eq!(s3.len(), 2, "{:?}", a.diagnostics);
        assert_eq!(s3[0].snippet, "total_cmp");
        assert!(s3[0].message.contains("finiteness guard"), "{}", s3[0].message);
        assert_eq!(s3[1].snippet, "partial_cmp");
        assert!(s3[1].message.contains("not total"), "{}", s3[1].message);
    }
}

#[test]
fn s3_flags_partial_cmp_outside_fn_bodies() {
    let text = fixture("s3_outside_fns_bad.rs");
    // Every call line: the macro body, the static initializer, the fn
    // body — not the comment header or the `fn partial_cmp` definition.
    let calls: Vec<u32> = (1u32..)
        .zip(text.lines())
        .filter(|(_, l)| !l.starts_with("//") && l.contains("partial_cmp(") && !l.contains("fn "))
        .map(|(n, _)| n)
        .collect();
    assert_eq!(calls.len(), 3, "fixture holds three call sites");
    for kind in [FileKind::Library, FileKind::FrontEnd] {
        let a = analyze("s3_outside_fns_bad.rs", kind);
        let s3: Vec<u32> = a
            .diagnostics
            .iter()
            .filter(|d| d.lint == Lint::S3 && d.snippet == "partial_cmp")
            .map(|d| d.line)
            .collect();
        assert_eq!(s3, calls, "{:?}", a.diagnostics);
        assert_eq!(a.diagnostics.len(), 3, "{:?}", a.diagnostics);
    }
}

#[test]
fn s3_good_guarded_keys_are_clean() {
    let a = analyze("s3_good.rs", FileKind::Library);
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
}

#[test]
fn s3_marker_suppresses() {
    let a = analyze("s3_suppressed.rs", FileKind::Library);
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    assert_eq!(a.suppressed, 2);
}

#[test]
fn unused_marker_raises_m1() {
    let src = "// msrnet-allow: panic nothing here actually panics\nfn ok() {}\n";
    let ctx = FileCtx {
        crate_name: "fixture".to_string(),
        path: "unused.rs".to_string(),
        kind: FileKind::Library,
    };
    let a = analyze_file(&ctx, src);
    assert_eq!(lints_of(&a), vec![Lint::M1], "{:?}", a.diagnostics);
}

#[test]
fn malformed_marker_raises_m1() {
    let src = "// msrnet-allow: no-such-key reason text\nfn ok() {}\n";
    let ctx = FileCtx {
        crate_name: "fixture".to_string(),
        path: "malformed.rs".to_string(),
        kind: FileKind::Library,
    };
    let a = analyze_file(&ctx, src);
    assert_eq!(lints_of(&a), vec![Lint::M1], "{:?}", a.diagnostics);
}

#[test]
fn layering_rejects_upward_dependency() {
    use msrnet_analyzer::{check_layering, parse_manifest, workspace_layers};
    let toml = "[package]\nname = \"msrnet-rctree\"\n\n[dependencies]\nmsrnet-core.workspace = true\n";
    let m = parse_manifest(toml);
    let diags = check_layering("crates/rctree/Cargo.toml", &m, &workspace_layers());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].lint, Lint::L1);
    assert!(diags[0].message.contains("msrnet-core"), "{}", diags[0].message);
}

#[test]
fn layering_accepts_downward_and_same_layer() {
    use msrnet_analyzer::{check_layering, parse_manifest, workspace_layers};
    let toml = "[package]\nname = \"msrnet-batch\"\n\n[dependencies]\nmsrnet-core.workspace = true\nmsrnet-incremental.workspace = true\n";
    let m = parse_manifest(toml);
    let diags = check_layering("crates/batch/Cargo.toml", &m, &workspace_layers());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn cycle_detection_flags_all_participants() {
    use msrnet_analyzer::{check_cycles, parse_manifest};
    let a = parse_manifest("[package]\nname = \"a\"\n[dependencies]\nb = { path = \"../b\" }\n");
    let b = parse_manifest("[package]\nname = \"b\"\n[dependencies]\na = { path = \"../a\" }\n");
    let diags = check_cycles(&[("a/Cargo.toml".into(), a), ("b/Cargo.toml".into(), b)]);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().all(|d| d.lint == Lint::L1));
}
