//! `msrnet-allow` marker parsing and bookkeeping.
//!
//! A marker is a comment of the form:
//!
//! ```text
//! // msrnet-allow: <lint-key> <reason…>
//! ```
//!
//! where `<lint-key>` is one of [`MARKER_KEYS`] and `<reason…>` is a
//! non-empty justification. A marker suppresses matching diagnostics on
//! its own line (trailing comment) and on the line directly below
//! (standalone comment line). Every key but `panic` suppresses the
//! diagnostics of one lint ([`Lint::marker_key`]); `panic` audits an S1
//! panic site on that line, so the site stops propagating to entry
//! points.
//!
//! Markers are themselves linted: a malformed marker (unknown key,
//! missing reason) and a marker that suppresses nothing both produce an
//! `M1` diagnostic, so stale suppressions cannot accumulate silently.

use crate::lexer::Comment;
use crate::report::{Diagnostic, Lint};

/// The S1 site-audit key: a `panic` marker covers one panic site.
pub const PANIC_AUDIT: &str = "panic";

/// Marker keys: one per suppressible lint, plus [`PANIC_AUDIT`].
pub const MARKER_KEYS: &[&str] = &[
    "unordered-iter",
    "float-eq",
    "wall-clock",
    "layering",
    PANIC_AUDIT,
    "panic-reach",
    "lock-discipline",
    "nan-taint",
];

/// One parsed `msrnet-allow` marker.
#[derive(Clone, Debug)]
pub struct Marker {
    /// The marker key, one of [`MARKER_KEYS`].
    pub key: &'static str,
    /// 1-based line the marker comment starts on.
    pub line: u32,
    /// The justification text (non-empty by construction).
    pub reason: String,
    /// Set when the marker suppressed at least one diagnostic.
    pub used: bool,
}

/// The markers of one file plus any marker-syntax diagnostics.
#[derive(Clone, Debug, Default)]
pub struct MarkerSet {
    markers: Vec<Marker>,
    /// Malformed-marker diagnostics (`M1`), reported unconditionally.
    pub malformed: Vec<(u32, String)>,
}

impl MarkerSet {
    /// Extracts markers from a file's comments. The caller filters out
    /// comments in test code ([`crate::ast::test_spans`]) first.
    pub fn parse(comments: &[Comment]) -> MarkerSet {
        let mut set = MarkerSet::default();
        for c in comments {
            // Doc comments never carry markers: documentation may quote
            // the marker grammar (this module does) without creating a
            // live suppression.
            if ["///", "//!", "/**", "/*!"]
                .iter()
                .any(|d| c.text.starts_with(d))
            {
                continue;
            }
            // A marker must be the whole comment: `msrnet-allow` first
            // (after the comment introducer), not mentioned mid-prose.
            let stripped = c.text.trim_start_matches(['/', '*', '!']).trim_start();
            if !stripped.starts_with("msrnet-allow") {
                continue;
            }
            let rest = &stripped["msrnet-allow".len()..];
            let Some(rest) = rest.strip_prefix(':') else {
                set.malformed.push((
                    c.line,
                    "malformed msrnet-allow marker: expected `msrnet-allow: <lint-key> <reason>`"
                        .to_string(),
                ));
                continue;
            };
            let rest = rest.trim_start();
            let (key, reason) = match rest.split_once(char::is_whitespace) {
                Some((k, r)) => (k, r.trim()),
                None => (rest.trim(), ""),
            };
            let Some(&known) = MARKER_KEYS.iter().find(|k| **k == key) else {
                set.malformed.push((
                    c.line,
                    format!(
                        "msrnet-allow marker names unknown lint key `{key}` (expected one of: {})",
                        MARKER_KEYS.join(", ")
                    ),
                ));
                continue;
            };
            // Strip a trailing `*/` from block-comment markers.
            let reason = reason.trim_end_matches("*/").trim();
            if reason.is_empty() {
                set.malformed.push((
                    c.line,
                    format!("msrnet-allow marker for `{key}` is missing a justification"),
                ));
                continue;
            }
            set.markers.push(Marker {
                key: known,
                line: c.line,
                reason: reason.to_string(),
                used: false,
            });
        }
        set
    }

    /// Tries to suppress a finding on `line`: returns true (and records
    /// the marker as used) when a marker with `key` sits on that line
    /// or the line above.
    pub fn suppresses(&mut self, key: &str, line: u32) -> bool {
        for m in &mut self.markers {
            if m.key == key && (m.line == line || m.line + 1 == line) {
                m.used = true;
                return true;
            }
        }
        false
    }

    /// Diagnostics for markers that never suppressed anything.
    pub fn unused(&self, path: &str) -> Vec<Diagnostic> {
        self.markers
            .iter()
            .filter(|m| !m.used)
            .map(|m| Diagnostic {
                lint: Lint::M1,
                path: path.to_string(),
                line: m.line,
                col: 1,
                len: 0,
                snippet: String::new(),
                message: format!(
                    "unused msrnet-allow marker for `{}` — no matching diagnostic on this or the next line; remove it",
                    m.key
                ),
                chain: Vec::new(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn markers_of(src: &str) -> MarkerSet {
        MarkerSet::parse(&lex(src).comments)
    }

    #[test]
    fn parses_trailing_and_standalone_markers() {
        let src = "let x = m.get(k); // msrnet-allow: panic map key checked above\n\
                   // msrnet-allow: float-eq exact sentinel comparison\n\
                   let y = a == 0.0;\n";
        let mut set = markers_of(src);
        assert!(set.malformed.is_empty());
        assert!(set.suppresses(PANIC_AUDIT, 1));
        assert!(set.suppresses("float-eq", 3));
        assert!(!set.suppresses("float-eq", 5));
        assert!(set.unused("f.rs").is_empty());
    }

    #[test]
    fn every_suppressible_lint_has_a_key() {
        let suppressible = [Lint::D1, Lint::D3, Lint::L1, Lint::W1, Lint::S1, Lint::S2, Lint::S3];
        for lint in suppressible {
            assert!(MARKER_KEYS.contains(&lint.marker_key()), "{lint}");
        }
        assert_eq!(MARKER_KEYS.len(), 8);
    }

    #[test]
    fn unknown_key_is_malformed() {
        let set = markers_of("// msrnet-allow: no-such-lint because reasons\n");
        assert_eq!(set.malformed.len(), 1);
        assert!(set.malformed[0].1.contains("no-such-lint"));
    }

    #[test]
    fn missing_reason_is_malformed() {
        let set = markers_of("// msrnet-allow: panic\n");
        assert_eq!(set.malformed.len(), 1);
        assert!(set.malformed[0].1.contains("justification"));
    }

    #[test]
    fn missing_colon_is_malformed() {
        let set = markers_of("// msrnet-allow panic oops\n");
        assert_eq!(set.malformed.len(), 1);
    }

    #[test]
    fn unused_markers_are_reported() {
        let mut set = markers_of("// msrnet-allow: panic never triggers\n");
        assert!(set.malformed.is_empty());
        assert!(!set.suppresses(PANIC_AUDIT, 10));
        let unused = set.unused("f.rs");
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].lint, Lint::M1);
    }

    #[test]
    fn block_comment_marker_trims_terminator() {
        let mut set = markers_of("/* msrnet-allow: wall-clock stats only */ let t = now();\n");
        assert!(set.malformed.is_empty());
        assert!(set.suppresses("wall-clock", 1));
    }
}
