//! Diagnostics and the stable JSON report.
//!
//! The report is deterministic: diagnostics are sorted by
//! `(path, line, col, lint)` before serialization and every field is
//! emitted in a fixed order, so two runs over the same tree produce
//! byte-identical JSON — the same discipline the rest of the workspace
//! applies to its machine-readable output.

use std::fmt;

/// The analyzer's lints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// `HashMap`/`HashSet` in non-test code: iteration order leaks
    /// nondeterminism into anything that walks the container.
    D1,
    /// Float `==`/`!=` against a float literal or non-infinity float
    /// constant outside test code.
    D3,
    /// Crate layering: a manifest dependency pointing at a higher
    /// layer, a dependency cycle, or a crate missing from the layer
    /// map.
    L1,
    /// Wall-clock (`Instant::now`, `SystemTime`) or `std::env` reads
    /// outside the crates allowed to observe the environment.
    W1,
    /// Panic-reachability: a library entry point (a `pub fn` or a
    /// trait-side method) that can transitively reach an unaudited
    /// panic site (call-graph based).
    S1,
    /// Lock discipline in `crates/service`: DP solves, blocking I/O or
    /// re-acquisition while holding the session-table mutex, and
    /// inconsistent lock acquisition order.
    S2,
    /// NaN-unsafe ordering: any `partial_cmp` call, or a possibly-NaN
    /// value (division, `powf`, `ln`, unvalidated parse, …) reaching a
    /// `total_cmp` ordering without a finiteness guard.
    S3,
    /// Marker hygiene: malformed or unused `msrnet-allow` markers.
    M1,
}

impl Lint {
    /// The short stable id used in reports (`"D1"`, …).
    pub fn id(self) -> &'static str {
        match self {
            Lint::D1 => "D1",
            Lint::D3 => "D3",
            Lint::L1 => "L1",
            Lint::W1 => "W1",
            Lint::S1 => "S1",
            Lint::S2 => "S2",
            Lint::S3 => "S3",
            Lint::M1 => "M1",
        }
    }

    /// The `msrnet-allow` key that suppresses this lint (`M1` has none:
    /// marker problems cannot be suppressed by markers).
    pub fn marker_key(self) -> &'static str {
        match self {
            Lint::D1 => "unordered-iter",
            Lint::D3 => "float-eq",
            Lint::L1 => "layering",
            Lint::W1 => "wall-clock",
            Lint::S1 => "panic-reach",
            Lint::S2 => "lock-discipline",
            Lint::S3 => "nan-taint",
            Lint::M1 => "-",
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding, pointing at an exact source span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Span length in bytes (0 for whole-line findings).
    pub len: u32,
    /// The offending token text (may be empty for manifest findings).
    pub snippet: String,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
    /// For call-graph lints (S1, S2): the function-id call chain from
    /// the reported position to the hazardous operation. Empty for
    /// single-site lints.
    pub chain: Vec<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.path, self.line, self.col, self.lint, self.message
        )
    }
}

/// Coverage counters for the semantic passes, reported so the CI gate
/// can assert the analysis was not vacuous (a call graph with zero
/// edges would make "no S1 findings" meaningless).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SemanticStats {
    /// Functions in the call graph.
    pub callgraph_nodes: usize,
    /// Resolved call edges.
    pub callgraph_edges: usize,
    /// Panic sites found by the S1 site scan (audited + unaudited).
    pub panic_sites: usize,
    /// Panic sites excluded by a site-level `panic` marker audit.
    pub audited_sites: usize,
    /// Public library-crate entry points checked by S1.
    pub entry_points: usize,
    /// Lock acquisition sites seen by S2.
    pub lock_sites: usize,
    /// Taint sources seen by S3.
    pub taint_sources: usize,
    /// `total_cmp` ordering sinks checked by S3's taint pass.
    pub taint_sinks: usize,
}

/// The full analysis result.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by `(path, line, col, lint)`.
    pub diagnostics: Vec<Diagnostic>,
    /// How many findings were suppressed by used `msrnet-allow` markers.
    pub suppressed: usize,
    /// Crates whose manifests were read.
    pub crates_scanned: usize,
    /// Rust source files lexed and linted.
    pub files_scanned: usize,
    /// Semantic-pass coverage counters.
    pub semantic: SemanticStats,
}

impl Report {
    /// Whether the tree is clean (no unsuppressed findings).
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Sorts diagnostics into the canonical report order.
    pub fn canonicalize(&mut self) {
        self.diagnostics
            .sort_by(|a, b| {
                a.path
                    .cmp(&b.path)
                    .then(a.line.cmp(&b.line))
                    .then(a.col.cmp(&b.col))
                    .then(a.lint.cmp(&b.lint))
            });
    }

    /// Serializes the report as stable, pretty-printed JSON.
    ///
    /// Schema version 2: diagnostics carry a `chain` array (call chain
    /// for S1/S2, empty otherwise) and the header carries the
    /// `semantic` coverage block.
    pub fn to_json(&self) -> String {
        let mut rows: Vec<String> = Vec::with_capacity(self.diagnostics.len());
        for d in &self.diagnostics {
            let chain = d
                .chain
                .iter()
                .map(|c| format!("\"{}\"", json_escape(c)))
                .collect::<Vec<_>>()
                .join(", ");
            rows.push(format!(
                "    {{\"lint\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \
                 \"len\": {}, \"snippet\": \"{}\", \"message\": \"{}\", \"chain\": [{chain}]}}",
                d.lint,
                json_escape(&d.path),
                d.line,
                d.col,
                d.len,
                json_escape(&d.snippet),
                json_escape(&d.message),
            ));
        }
        let s = &self.semantic;
        format!(
            "{{\n  \"tool\": \"msrnet-analyzer\",\n  \"schema_version\": 2,\n  \
             \"crates_scanned\": {},\n  \"files_scanned\": {},\n  \"suppressed\": {},\n  \
             \"semantic\": {{\"callgraph_nodes\": {}, \"callgraph_edges\": {}, \
             \"panic_sites\": {}, \"audited_sites\": {}, \"entry_points\": {}, \
             \"lock_sites\": {}, \"taint_sources\": {}, \"taint_sinks\": {}}},\n  \
             \"diagnostics\": [\n{}\n  ]\n}}\n",
            self.crates_scanned,
            self.files_scanned,
            self.suppressed,
            s.callgraph_nodes,
            s.callgraph_edges,
            s.panic_sites,
            s.audited_sites,
            s.entry_points,
            s.lock_sites,
            s.taint_sources,
            s.taint_sinks,
            rows.join(",\n"),
        )
    }
}

/// Escapes a string for inclusion in a JSON double-quoted literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(lint: Lint, path: &str, line: u32, col: u32) -> Diagnostic {
        Diagnostic {
            lint,
            path: path.to_string(),
            line,
            col,
            len: 1,
            snippet: "x".to_string(),
            message: "m".to_string(),
            chain: Vec::new(),
        }
    }

    #[test]
    fn canonical_order_is_path_line_col_lint() {
        let mut r = Report {
            diagnostics: vec![
                diag(Lint::S1, "b.rs", 1, 1),
                diag(Lint::D1, "a.rs", 2, 1),
                diag(Lint::S3, "a.rs", 1, 5),
                diag(Lint::D3, "a.rs", 1, 5),
            ],
            ..Report::default()
        };
        r.canonicalize();
        let order: Vec<_> = r
            .diagnostics
            .iter()
            .map(|d| (d.path.as_str(), d.line, d.col, d.lint.id()))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs", 1, 5, "D3"),
                ("a.rs", 1, 5, "S3"),
                ("a.rs", 2, 1, "D1"),
                ("b.rs", 1, 1, "S1"),
            ]
        );
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_is_stable_across_insert_order() {
        let mut a = Report {
            diagnostics: vec![diag(Lint::D1, "a.rs", 1, 1), diag(Lint::S3, "b.rs", 2, 2)],
            ..Report::default()
        };
        let mut b = Report {
            diagnostics: vec![diag(Lint::S3, "b.rs", 2, 2), diag(Lint::D1, "a.rs", 1, 1)],
            ..Report::default()
        };
        a.canonicalize();
        b.canonicalize();
        assert_eq!(a.to_json(), b.to_json());
    }
}
