//! The workspace gate: running the analyzer over the real repository
//! must produce zero unsuppressed diagnostics, and the JSON report must
//! be byte-stable across runs (deterministic ordering, no timestamps).

use msrnet_analyzer::analyze_workspace;
use std::path::Path;

fn root() -> &'static Path {
    // CARGO_MANIFEST_DIR = crates/analyzer; the workspace root is two up.
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn workspace_has_zero_unsuppressed_diagnostics() {
    let report = analyze_workspace(root()).expect("workspace scan succeeds");
    assert!(
        report.clean(),
        "unsuppressed lint diagnostics:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The scan actually covered the workspace (guards against a path
    // bug making the clean assertion vacuous).
    assert!(report.crates_scanned >= 14, "{}", report.crates_scanned);
    assert!(report.files_scanned >= 50, "{}", report.files_scanned);
    assert!(report.suppressed > 0, "markers exist and are counted");
    // The semantic passes actually ran over real code (guards against
    // S1/S2/S3 silently going blind while the gate stays green).
    let sem = &report.semantic;
    assert!(sem.callgraph_nodes >= 500, "{sem:?}");
    assert!(sem.callgraph_edges >= 1000, "{sem:?}");
    assert!(sem.entry_points >= 100, "{sem:?}");
    assert!(sem.panic_sites > 0 && sem.audited_sites > 0, "{sem:?}");
    assert!(sem.lock_sites > 0, "{sem:?}");
    assert!(sem.taint_sources > 0 && sem.taint_sinks > 0, "{sem:?}");
}

#[test]
fn json_report_is_byte_stable_across_runs() {
    let a = analyze_workspace(root()).expect("first scan");
    let b = analyze_workspace(root()).expect("second scan");
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn callgraph_artifact_is_byte_stable_and_covers_the_workspace() {
    use msrnet_analyzer::analyze_workspace_full;
    let (_, a) = analyze_workspace_full(root()).expect("first scan");
    let (_, b) = analyze_workspace_full(root()).expect("second scan");
    assert_eq!(a, b, "call-graph JSON must be deterministic");
    assert!(a.contains("\"kind\": \"callgraph\""), "{}", &a[..200]);
    assert!(a.contains("msrnet-core::dp::"), "core DP fns present");
    assert!(a.contains("msrnet-service::server::"), "service fns present");
    assert!(a.ends_with('\n'));
}

#[test]
fn json_report_schema_fields_present() {
    let report = analyze_workspace(root()).expect("scan");
    let json = report.to_json();
    for needle in [
        "\"tool\": \"msrnet-analyzer\"",
        "\"schema_version\": 2",
        "\"semantic\": {\"callgraph_nodes\":",
        "\"crates_scanned\":",
        "\"files_scanned\":",
        "\"suppressed\":",
        "\"diagnostics\": [",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
    assert!(json.ends_with('\n'), "report ends with a newline");
}

#[test]
fn diagnostics_sort_stably_by_position() {
    use msrnet_analyzer::{Diagnostic, Lint, Report};
    let d = |path: &str, line: u32, col: u32, lint: Lint| Diagnostic {
        lint,
        path: path.into(),
        line,
        col,
        len: 1,
        snippet: "x".into(),
        message: "m".into(),
        chain: Vec::new(),
    };
    let mut r = Report {
        diagnostics: vec![
            d("b.rs", 1, 1, Lint::D1),
            d("a.rs", 9, 2, Lint::S1),
            d("a.rs", 9, 2, Lint::D3),
            d("a.rs", 2, 7, Lint::W1),
        ],
        suppressed: 0,
        crates_scanned: 1,
        files_scanned: 1,
        semantic: Default::default(),
    };
    r.canonicalize();
    let order: Vec<(String, u32, u32, &str)> = r
        .diagnostics
        .iter()
        .map(|d| (d.path.clone(), d.line, d.col, d.lint.id()))
        .collect();
    assert_eq!(
        order,
        vec![
            ("a.rs".to_string(), 2, 7, "W1"),
            ("a.rs".to_string(), 9, 2, "D3"),
            ("a.rs".to_string(), 9, 2, "S1"),
            ("b.rs".to_string(), 1, 1, "D1"),
        ]
    );
}
