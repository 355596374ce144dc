//! The token-level lints: D1, D3, W1, and S3's `partial_cmp` calls.
//!
//! Each lint walks the lexed token stream of one file, skipping the
//! test items the AST found ([`crate::ast::test_spans`]), and emits
//! [`Diagnostic`]s at exact spans. They stay token-level because the
//! AST skips types and code outside fn bodies: D1 must see `HashMap`
//! in fields and signatures, and S3 a `partial_cmp` call in a
//! `macro_rules!` body or a `static` initializer.
//!
//! Marker suppression happens in [`token_phase`]; marker hygiene
//! (`M1`) is deferred to the end of the multi-file pipeline
//! ([`crate::analyze_sources`]) so the semantic passes can still
//! consume site-level audits before "unused marker" is decided.

use std::ops::Range;

use crate::lexer::{is_float_literal, Lexed, Token, TokenKind};
use crate::markers::MarkerSet;
use crate::report::{Diagnostic, Lint};

/// What kind of code a file holds, which decides lint applicability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`src/` of a lib crate): every lint applies.
    Library,
    /// Front-end source (cli/bench `src/`, `src/bin/`): determinism
    /// lints apply, but W1 (wall clock) does not and S1 takes no entry
    /// points here — binaries may panic on broken invariants and must
    /// read clocks, arguments and the environment.
    FrontEnd,
}

/// Per-file lint context.
#[derive(Clone, Debug)]
pub struct FileCtx {
    /// Crate the file belongs to (package name, e.g. `msrnet-core`).
    pub crate_name: String,
    /// Workspace-relative path used in diagnostics.
    pub path: String,
    /// Applicability class.
    pub kind: FileKind,
}

/// The result of linting one file.
#[derive(Clone, Debug, Default)]
pub struct FileAnalysis {
    /// Unsuppressed diagnostics, in source order.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings suppressed by `msrnet-allow` markers.
    pub suppressed: usize,
}

/// Phase-1 output for one file: token-lint findings plus the file's
/// marker set with its use-tracking state kept alive, so the semantic
/// phases can audit against (and consume) the same markers before
/// `M1` hygiene runs.
#[derive(Debug, Default)]
pub struct TokenPhase {
    /// Unsuppressed token-lint diagnostics, in source order.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings suppressed by markers during this phase.
    pub suppressed: usize,
    /// The file's live (non-test) markers.
    pub markers: MarkerSet,
}

/// Runs the token lints and marker suppression over one lexed file,
/// skipping the byte ranges in `test_spans`. `M1` (malformed/unused
/// markers) is *not* emitted here — the caller reports it after every
/// phase has had its chance to use a marker.
pub fn token_phase(
    ctx: &FileCtx,
    text: &str,
    lexed: &Lexed,
    test_spans: &[Range<usize>],
) -> TokenPhase {
    let in_test = |at: usize| test_spans.iter().any(|r| r.contains(&at));
    // Markers inside test code are invisible: test code needs no
    // suppressions, and fixture-style comments there must not count as
    // unused markers.
    let line_starts = line_start_offsets(text);
    let live_comments: Vec<_> = lexed
        .comments
        .iter()
        .filter(|c| {
            let off = line_starts
                .get(c.line as usize - 1)
                .copied()
                .unwrap_or(usize::MAX);
            !in_test(off)
        })
        .cloned()
        .collect();
    let mut out = TokenPhase {
        markers: MarkerSet::parse(&live_comments),
        ..TokenPhase::default()
    };

    let mut raw: Vec<Diagnostic> = Vec::new();
    lint_tokens(ctx, text, lexed, &in_test, &mut raw);
    for d in raw {
        if out.markers.suppresses(d.lint.marker_key(), d.line) {
            out.suppressed += 1;
        } else {
            out.diagnostics.push(d);
        }
    }
    out
}

/// Byte offset of the start of each 1-based line.
fn line_start_offsets(text: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

fn diag(ctx: &FileCtx, lint: Lint, t: &Token, text: &str, message: String) -> Diagnostic {
    Diagnostic {
        lint,
        path: ctx.path.clone(),
        line: t.line,
        col: t.col,
        len: (t.end - t.start) as u32,
        snippet: t.text(text).to_string(),
        message,
        chain: Vec::new(),
    }
}

fn lint_tokens(
    ctx: &FileCtx,
    text: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &lexed.tokens;
    let tx = |i: usize| -> &str {
        toks.get(i).map(|t: &Token| t.text(text)).unwrap_or("")
    };
    for i in 0..toks.len() {
        let t = &toks[i];
        if in_test(t.start) {
            continue;
        }
        let word = t.text(text);
        match t.kind {
            TokenKind::Ident => match word {
                // D1 — unordered containers anywhere in non-test code.
                "HashMap" | "HashSet" => out.push(diag(
                    ctx,
                    Lint::D1,
                    t,
                    text,
                    format!(
                        "`{word}` in non-test code: iteration order is nondeterministic and can \
                         leak into output; use `BTree{}` or justify with \
                         `msrnet-allow: unordered-iter <reason>`",
                        &word[4..]
                    ),
                )),
                // W1 — wall clock and environment reads.
                "Instant"
                    if ctx.kind == FileKind::Library
                        && tx(i + 1) == "::"
                        && tx(i + 2) == "now" =>
                {
                    out.push(diag(
                        ctx,
                        Lint::W1,
                        t,
                        text,
                        "`Instant::now()` outside bench/cli: wall-clock reads make output \
                         timing-dependent; confine them to the front ends or justify with \
                         `msrnet-allow: wall-clock <reason>`"
                            .to_string(),
                    ));
                }
                // S3 — every `partial_cmp` call, method or path: the
                // ordering it returns is not total. A `fn partial_cmp`
                // definition is not a call.
                "partial_cmp" if tx(i + 1) == "(" && (i == 0 || tx(i - 1) != "fn") => {
                    out.push(diag(
                        ctx,
                        Lint::S3,
                        t,
                        text,
                        "NaN-unsafe ordering: `partial_cmp` is not total (it returns `None` on \
                         NaN); use `f64::total_cmp`, or justify with \
                         `msrnet-allow: nan-taint <reason>`"
                            .to_string(),
                    ));
                }
                "SystemTime" if ctx.kind == FileKind::Library => out.push(diag(
                    ctx,
                    Lint::W1,
                    t,
                    text,
                    "`SystemTime` outside bench/cli: wall-clock reads make output \
                     timing-dependent; confine them to the front ends or justify with \
                     `msrnet-allow: wall-clock <reason>`"
                        .to_string(),
                )),
                "std"
                    if ctx.kind == FileKind::Library
                        && tx(i + 1) == "::"
                        && tx(i + 2) == "env" =>
                {
                    out.push(diag(
                        ctx,
                        Lint::W1,
                        t,
                        text,
                        "`std::env` outside bench/cli: environment reads make library behaviour \
                         host-dependent; confine them to the front ends or justify with \
                         `msrnet-allow: wall-clock <reason>`"
                            .to_string(),
                    ));
                }
                _ => {}
            },
            // D3 — float equality. A token-level approximation: flag
            // `==`/`!=` when either adjacent operand is a float literal
            // or an `f32`/`f64` associated constant other than the
            // infinities (comparing against ±∞ is an exact sentinel
            // test; comparing against NAN is always false and flagged).
            TokenKind::Punct if word == "==" || word == "!=" => {
                let left_float = i > 0
                    && toks[i - 1].kind == TokenKind::Num
                    && is_float_literal(tx(i - 1));
                let left_const = i >= 3
                    && tx(i - 2) == "::"
                    && (tx(i - 3) == "f64" || tx(i - 3) == "f32")
                    && !matches!(tx(i - 1), "INFINITY" | "NEG_INFINITY");
                let right_float = toks
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Num && is_float_literal(n.text(text)));
                let right_const = (tx(i + 1) == "f64" || tx(i + 1) == "f32")
                    && tx(i + 2) == "::"
                    && !matches!(tx(i + 3), "INFINITY" | "NEG_INFINITY");
                if left_float || left_const || right_float || right_const {
                    out.push(diag(
                        ctx,
                        Lint::D3,
                        t,
                        text,
                        format!(
                            "float `{word}` against a float literal in non-test code; use an \
                             explicit tolerance, bit comparison (`to_bits`), or justify the \
                             exact comparison with `msrnet-allow: float-eq <reason>`"
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_file;

    fn lib_ctx() -> FileCtx {
        FileCtx {
            crate_name: "msrnet-core".to_string(),
            path: "crates/core/src/x.rs".to_string(),
            kind: FileKind::Library,
        }
    }

    fn front_ctx() -> FileCtx {
        FileCtx {
            crate_name: "msrnet-cli".to_string(),
            path: "crates/cli/src/x.rs".to_string(),
            kind: FileKind::FrontEnd,
        }
    }

    fn lints_of(ctx: &FileCtx, src: &str) -> Vec<(Lint, u32, u32)> {
        analyze_file(ctx, src)
            .diagnostics
            .iter()
            .map(|d| (d.lint, d.line, d.col))
            .collect()
    }

    #[test]
    fn d1_flags_hash_containers_and_marker_suppresses() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        let found = lints_of(&lib_ctx(), src);
        assert_eq!(found.iter().filter(|(l, _, _)| *l == Lint::D1).count(), 3);

        let marked = "use std::collections::HashMap; // msrnet-allow: unordered-iter keys sorted before output\n";
        let a = analyze_file(&lib_ctx(), marked);
        assert!(a.diagnostics.is_empty());
        assert_eq!(a.suppressed, 1);
    }

    #[test]
    fn d3_flags_float_literal_equality() {
        let src = "fn f(x: f64) -> bool { x == 1.0 }\n";
        let found = lints_of(&lib_ctx(), src);
        assert_eq!(found, vec![(Lint::D3, 1, 26)]);
        // Integer equality and infinity sentinels are exempt.
        let quiet = "fn g(n: usize, x: f64) -> bool { n == 1 && x == f64::NEG_INFINITY && x != f64::INFINITY }\n";
        assert!(lints_of(&lib_ctx(), quiet).is_empty());
        // NAN comparison is flagged (always false).
        let nan = "fn h(x: f64) -> bool { x == f64::NAN }\n";
        assert_eq!(lints_of(&lib_ctx(), nan).len(), 1);
    }

    #[test]
    fn w1_flags_clock_and_env_in_libraries() {
        let src = "fn f() { let t = Instant::now(); let e = std::env::var(\"X\"); let s = SystemTime::now(); }\n";
        let found = lints_of(&lib_ctx(), src);
        assert_eq!(found.iter().filter(|(l, _, _)| *l == Lint::W1).count(), 3);
        assert!(lints_of(&front_ctx(), src).is_empty());
        // Importing the type is fine; only the clock read is flagged.
        let quiet = "use std::time::Instant;\nfn f(t: Instant) {}\n";
        assert!(lints_of(&lib_ctx(), quiet).is_empty());
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "fn prod(o: Option<u32>) -> u32 { o.unwrap_or(1) }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); let _ = 1.0 == 1.0; }\n}\n";
        assert!(lints_of(&lib_ctx(), src).is_empty());
    }

    #[test]
    fn marker_on_line_above_suppresses() {
        let src = "// msrnet-allow: float-eq exact sentinel set by the caller\nfn f(x: f64) -> bool { x == 0.5 }\n";
        let a = analyze_file(&lib_ctx(), src);
        assert!(a.diagnostics.is_empty());
        assert_eq!(a.suppressed, 1);
    }

    #[test]
    fn unused_and_malformed_markers_are_m1() {
        let src = "// msrnet-allow: panic never fires\nfn f() {}\n// msrnet-allow: bogus-key reason\n";
        let found = lints_of(&lib_ctx(), src);
        assert_eq!(found.iter().filter(|(l, _, _)| *l == Lint::M1).count(), 2);
    }
}
