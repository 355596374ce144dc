//! The verification run driver and its machine-readable report.
//!
//! [`run_verify`] walks the case stream, runs the full check registry on
//! each generated instance, shrinks any failure, and aggregates
//! everything into a [`VerifyReport`] whose [`VerifyReport::to_json`]
//! schema is stable (documented field-by-field below) so CI and other
//! tooling can parse it without chasing format drift.

use crate::checks::{registry, run_check, CheckKind, CheckOutcome};
use crate::gen::{generate, Instance};
use crate::shrink::{shrink, ShrinkResult};
use msrnet_incremental::json::{json_num, json_str};
use std::time::Instant;

/// Configuration of one verification run.
#[derive(Clone, Debug)]
pub struct VerifyConfig {
    /// Master seed for the case stream.
    pub seed: u64,
    /// Number of cases to attempt.
    pub cases: usize,
    /// Wall-clock budget in milliseconds; the run stops early (recording
    /// how far it got) rather than overrunning. `0` disables the budget.
    pub budget_ms: u64,
    /// Stop after this many mismatches (shrinking is expensive; the
    /// first few failures are what matter). `0` means no limit.
    pub max_failures: usize,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            seed: 7,
            cases: 500,
            budget_ms: 30_000,
            max_failures: 3,
        }
    }
}

/// Per-check aggregate counters.
#[derive(Clone, Debug, Default)]
pub struct CheckStats {
    /// Cases where the check ran and agreed.
    pub passed: usize,
    /// Cases where the check did not apply.
    pub skipped: usize,
    /// Cases where the check found a mismatch.
    pub failed: usize,
}

/// One confirmed mismatch, with its shrunk reproduction.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Case name (`case0042-star`).
    pub case: String,
    /// Case index in the stream (regenerate with `generate(seed, index)`).
    pub index: usize,
    /// The failing check's name.
    pub check: String,
    /// The mismatch description from the check.
    pub detail: String,
    /// The shrunk instance plus shrink statistics.
    pub shrunk: ShrinkResult,
    /// Terminal count before / after shrinking.
    pub terminals_before: usize,
    /// Terminal count after shrinking.
    pub terminals_after: usize,
}

/// Aggregate result of a verification run.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// The seed the stream was rooted at.
    pub seed: u64,
    /// Cases requested.
    pub cases_requested: usize,
    /// Cases actually generated and checked (budget may stop early; the
    /// generator may also decline some parameter draws).
    pub cases_run: usize,
    /// Cases the generator declined (invalid parameter draws).
    pub cases_skipped: usize,
    /// Whether the wall-clock budget cut the run short.
    pub budget_exhausted: bool,
    /// Wall-clock milliseconds spent.
    pub wall_ms: f64,
    /// Per-check statistics, in registry order.
    pub checks: Vec<(String, CheckKind, CheckStats)>,
    /// All confirmed mismatches with shrunk repros.
    pub failures: Vec<Failure>,
}

impl VerifyReport {
    /// True when no oracle pair or metamorphic property disagreed.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Serializes the report as JSON. Stable schema:
    ///
    /// ```json
    /// {
    ///   "seed": 7,
    ///   "cases_requested": 500,
    ///   "cases_run": 500,
    ///   "cases_skipped": 0,
    ///   "budget_exhausted": false,
    ///   "wall_ms": 1234.5,
    ///   "mismatches": 0,
    ///   "checks": [
    ///     {"name": "ard_linear_vs_naive", "kind": "oracle",
    ///      "passed": 480, "skipped": 20, "failed": 0}
    ///   ],
    ///   "failures": [
    ///     {"case": "case0042-star", "index": 42,
    ///      "check": "dp_vs_exhaustive", "detail": "…",
    ///      "terminals_before": 9, "terminals_after": 3,
    ///      "shrink_moves": 6, "shrink_candidates": 31}
    ///   ]
    /// }
    /// ```
    ///
    /// Non-finite numbers serialize as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"cases_requested\": {},\n",
            self.cases_requested
        ));
        out.push_str(&format!("  \"cases_run\": {},\n", self.cases_run));
        out.push_str(&format!("  \"cases_skipped\": {},\n", self.cases_skipped));
        out.push_str(&format!(
            "  \"budget_exhausted\": {},\n",
            self.budget_exhausted
        ));
        out.push_str(&format!("  \"wall_ms\": {},\n", json_num(self.wall_ms)));
        out.push_str(&format!("  \"mismatches\": {},\n", self.failures.len()));
        out.push_str("  \"checks\": [\n");
        for (i, (name, kind, stats)) in self.checks.iter().enumerate() {
            let kind = match kind {
                CheckKind::Oracle => "oracle",
                CheckKind::Metamorphic => "metamorphic",
            };
            out.push_str(&format!(
                "    {{\"name\": {}, \"kind\": \"{kind}\", \"passed\": {}, \"skipped\": {}, \"failed\": {}}}{}\n",
                json_str(name),
                stats.passed,
                stats.skipped,
                stats.failed,
                if i + 1 < self.checks.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"failures\": [\n");
        for (i, f) in self.failures.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"case\": {}, \"index\": {}, \"check\": {}, \"detail\": {}, \"terminals_before\": {}, \"terminals_after\": {}, \"shrink_moves\": {}, \"shrink_candidates\": {}}}{}\n",
                json_str(&f.case),
                f.index,
                json_str(&f.check),
                json_str(&f.detail),
                f.terminals_before,
                f.terminals_after,
                f.shrunk.moves_accepted,
                f.shrunk.candidates_tried,
                if i + 1 < self.failures.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// A ready-to-paste regression test for failure `f`, parameterized
    /// by the `.msr` file name the caller stored the shrunk repro under.
    pub fn regression_test_snippet(f: &Failure, msr_file: &str) -> String {
        format!(
            r#"/// Regression: {check} mismatch found by `msrnet-cli verify` (seed
/// {seed_note}, {case}). Shrunk repro lives in the corpus; this test
/// re-runs the failing oracle pair on it.
#[test]
fn regression_{fn_name}() {{
    let text = std::fs::read_to_string("{msr}").expect("repro file");
    let parsed = msrnet_cli::format::parse_net_file(&text).expect("valid .msr");
    let inst = msrnet_verify::Instance::from_net("{case}", parsed.net, parsed.library);
    match msrnet_verify::run_named("{check}", &inst) {{
        Some(msrnet_verify::CheckOutcome::Fail(msg)) => panic!("still failing: {{msg}}"),
        _ => {{}}
    }}
}}
"#,
            check = f.check,
            seed_note = f.index,
            case = f.case,
            fn_name = f
                .case
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect::<String>(),
            msr = msr_file,
        )
    }
}

/// Runs the verification stream described by `cfg`.
///
/// Returns the aggregate report; the caller decides how to persist
/// shrunk repros (the CLI writes them as `.msr` files).
pub fn run_verify(cfg: &VerifyConfig) -> VerifyReport {
    // msrnet-allow: wall-clock elapsed-time report field only; never feeds check verdicts
    let start = Instant::now();
    let reg = registry();
    let mut checks: Vec<(String, CheckKind, CheckStats)> = reg
        .iter()
        .map(|c| (c.name.to_string(), c.kind, CheckStats::default()))
        .collect();
    let mut failures: Vec<Failure> = Vec::new();
    let mut cases_run = 0;
    let mut cases_skipped = 0;
    let mut budget_exhausted = false;

    for index in 0..cfg.cases {
        if cfg.budget_ms > 0 && start.elapsed().as_millis() as u64 >= cfg.budget_ms {
            budget_exhausted = true;
            break;
        }
        if cfg.max_failures > 0 && failures.len() >= cfg.max_failures {
            break;
        }
        let Some(inst) = generate(cfg.seed, index) else {
            cases_skipped += 1;
            continue;
        };
        cases_run += 1;
        for (slot, check) in checks.iter_mut().zip(reg) {
            match run_check(check, &inst) {
                CheckOutcome::Pass => slot.2.passed += 1,
                CheckOutcome::Skip(_) => slot.2.skipped += 1,
                CheckOutcome::Fail(detail) => {
                    slot.2.failed += 1;
                    failures.push(build_failure(&inst, index, check.name, detail));
                }
            }
        }
    }

    VerifyReport {
        seed: cfg.seed,
        cases_requested: cfg.cases,
        cases_run,
        cases_skipped,
        budget_exhausted,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        checks,
        failures,
    }
}

fn build_failure(inst: &Instance, index: usize, check: &str, detail: String) -> Failure {
    let terminals_before = inst.net.topology.terminal_count();
    let shrunk = shrink(inst, check);
    let terminals_after = shrunk.instance.net.topology.terminal_count();
    Failure {
        case: inst.name.clone(),
        index,
        check: check.to_string(),
        detail,
        shrunk,
        terminals_before,
        terminals_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_is_clean_and_reports_all_checks() {
        let cfg = VerifyConfig {
            seed: 7,
            cases: 30,
            budget_ms: 0,
            max_failures: 0,
        };
        let report = run_verify(&cfg);
        assert!(report.clean(), "mismatches: {:?}", report.failures);
        assert_eq!(report.cases_run + report.cases_skipped, 30);
        assert_eq!(report.checks.len(), registry().len());
        // Every check must have run (passed at least once) somewhere in
        // the stream — a registry entry that only ever skips is dead.
        for (name, _, stats) in &report.checks {
            assert!(stats.passed > 0, "check {name} never passed");
        }
    }

    #[test]
    fn json_report_has_stable_top_level_keys() {
        let cfg = VerifyConfig {
            seed: 3,
            cases: 6,
            budget_ms: 0,
            max_failures: 0,
        };
        let json = run_verify(&cfg).to_json();
        for key in [
            "\"seed\"",
            "\"cases_requested\"",
            "\"cases_run\"",
            "\"cases_skipped\"",
            "\"budget_exhausted\"",
            "\"wall_ms\"",
            "\"mismatches\"",
            "\"checks\"",
            "\"failures\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn budget_stops_the_run_early() {
        let cfg = VerifyConfig {
            seed: 7,
            cases: 100_000,
            budget_ms: 1,
            max_failures: 0,
        };
        let report = run_verify(&cfg);
        assert!(report.budget_exhausted);
        assert!(report.cases_run < 100_000);
    }
}
