//! Parallel multi-net optimization engine.
//!
//! Production timing flows do not optimize one net: they sweep a design's
//! worth of multisource nets through ARD characterization (paper §III)
//! and the MSRI cost/ARD trade-off DP (paper §IV). This crate runs a
//! list of independent [`BatchJob`]s across a fixed-size worker pool:
//!
//! * each worker owns one [`MsriWorkspace`], so the DP's segment-arena
//!   reuse carries **across nets** — the hot loop stays allocation-free
//!   for the whole sweep;
//! * jobs are claimed from a shared atomic counter and results are
//!   stored by job index, so the output order (and every value in it)
//!   is independent of scheduling;
//! * per-net results are **bit-identical** to a sequential run — see
//!   [`reports_bit_identical`] and the determinism test — because the
//!   optimizer's arena path replicates the plain path's floating-point
//!   operations exactly and workspaces share no state between nets.
//!
//! The [`BatchReport`] serializes to machine-readable JSON
//! ([`BatchReport::to_json`]) with per-net ARD and cost figures, wall
//! time and thread count, ready to be dropped into a `BENCH_*.json`
//! style tracking file.
//!
//! The parallel-vs-sequential bit-identity claim is fuzzed continuously:
//! the `msrnet-verify` harness re-runs generated instances through
//! [`run_batch`] at one and several threads and compares with
//! [`reports_bit_identical`] (`msrnet-cli verify`, check
//! `batch_parallel_vs_sequential`).
//!
//! # Examples
//!
//! ```
//! use msrnet_batch::{random_jobs, run_batch, reports_bit_identical};
//! use msrnet_netgen::table1;
//!
//! // Eight random 6-terminal experiment nets, spaced per the paper.
//! let jobs = random_jobs(&table1(), 8, 6, 42, 800.0);
//! let sequential = run_batch(&jobs, 1);
//! let parallel = run_batch(&jobs, 4);
//! assert!(reports_bit_identical(&sequential, &parallel));
//! assert_eq!(parallel.threads, 4);
//! let json = parallel.to_json();
//! assert!(json.contains("\"nets\": 8"));
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use msrnet_core::ard::ard_linear;
use msrnet_core::{
    optimize_in, MsriError, MsriOptions, MsriWorkspace, TerminalOptions, TradeoffCurve,
};
use msrnet_incremental::json::{json_num, json_str};
use msrnet_netgen::{ExperimentNet, TechParams};
use msrnet_rctree::{Assignment, Net, Repeater, TerminalId};
use msrnet_rng::rngs::StdRng;
use msrnet_rng::SeedableRng;

/// One net to characterize and optimize.
#[derive(Clone, Debug)]
pub struct BatchJob {
    /// Label carried into the report (file name, generator seed, …).
    pub name: String,
    /// The optimization-ready net (terminals must be leaves).
    pub net: Net,
    /// Terminal to root the DP at (any; results are root-invariant).
    pub root: TerminalId,
    /// Repeater library for insertion points.
    pub library: Vec<Repeater>,
    /// Per-terminal driver menus.
    pub drivers: TerminalOptions,
    /// Optimizer options.
    pub options: MsriOptions,
}

impl BatchJob {
    /// Creates a job rooted at terminal 0 with default options.
    pub fn new(name: impl Into<String>, net: Net, library: Vec<Repeater>) -> Self {
        let drivers = TerminalOptions::defaults(&net);
        BatchJob {
            name: name.into(),
            net,
            root: TerminalId(0),
            library,
            drivers,
            options: MsriOptions::default(),
        }
    }
}

/// Per-net figures of merit extracted from the characterization and the
/// trade-off curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetSummary {
    /// ARD of the bare net (no repeaters, default drivers) — the §III
    /// characterization.
    pub bare_ard: f64,
    /// Cost of the cheapest trade-off point (the unoptimized baseline).
    pub min_cost: f64,
    /// ARD at the cheapest point.
    pub min_cost_ard: f64,
    /// Best achievable ARD over all assignments.
    pub best_ard: f64,
    /// Cost of the best-ARD solution.
    pub best_ard_cost: f64,
    /// Number of points on the Pareto trade-off curve.
    pub tradeoff_points: usize,
    /// DP candidates generated (effort proxy, deterministic).
    pub candidates: u64,
}

impl NetSummary {
    /// Exact bitwise equality of every float field — stricter than
    /// `==` (distinguishes `-0.0` and would catch a `NaN`).
    pub fn bit_eq(&self, other: &NetSummary) -> bool {
        self.bare_ard.to_bits() == other.bare_ard.to_bits()
            && self.min_cost.to_bits() == other.min_cost.to_bits()
            && self.min_cost_ard.to_bits() == other.min_cost_ard.to_bits()
            && self.best_ard.to_bits() == other.best_ard.to_bits()
            && self.best_ard_cost.to_bits() == other.best_ard_cost.to_bits()
            && self.tradeoff_points == other.tradeoff_points
            && self.candidates == other.candidates
    }
}

/// Outcome for one job: summary, or the optimizer error rendered as
/// text (an infeasible net does not abort the sweep).
#[derive(Clone, Debug)]
pub struct NetResult {
    /// The job's label.
    pub name: String,
    /// Summary, or error text for nets that fail to optimize.
    pub outcome: Result<NetSummary, String>,
    /// Per-net wall time, µs (not part of the determinism contract).
    pub micros: u64,
}

/// The sweep's aggregate output.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall time of the sweep.
    pub wall: Duration,
    /// Per-net results, in job order regardless of scheduling.
    pub results: Vec<NetResult>,
}

/// Whether two reports carry identical per-net results (names, outcomes
/// and every float bit). Timing and thread count are ignored — they are
/// measurements, not results.
pub fn reports_bit_identical(a: &BatchReport, b: &BatchReport) -> bool {
    a.results.len() == b.results.len()
        && a.results.iter().zip(&b.results).all(|(x, y)| {
            x.name == y.name
                && match (&x.outcome, &y.outcome) {
                    (Ok(sx), Ok(sy)) => sx.bit_eq(sy),
                    (Err(ex), Err(ey)) => ex == ey,
                    _ => false,
                }
        })
}

/// Runs every job on a pool of `threads` workers (clamped to at least
/// one), each with its own reusable [`MsriWorkspace`].
///
/// The result vector is ordered by job index and is bit-identical for
/// every `threads` value.
pub fn run_batch(jobs: &[BatchJob], threads: usize) -> BatchReport {
    let threads = threads.max(1);
    // msrnet-allow: wall-clock elapsed-time report field only; never feeds optimization results
    let start = Instant::now();
    let results = run_pool(jobs, threads, process);
    BatchReport {
        threads,
        wall: start.elapsed(),
        results,
    }
}

/// Characterizes and optimizes one net with a reused workspace.
fn process(job: &BatchJob, ws: &mut MsriWorkspace) -> NetResult {
    // msrnet-allow: wall-clock per-net elapsed-ms stat only; never feeds optimization results
    let t = Instant::now();
    let outcome = (|| {
        let rooted = job.net.rooted_at_terminal(job.root);
        let empty = Assignment::empty(job.net.topology.vertex_count());
        let bare = ard_linear(&job.net, &rooted, &job.library, &empty);
        let curve = solve(job, ws).map_err(|e| e.to_string())?;
        let cheapest = curve.min_cost();
        let fastest = curve.best_ard();
        Ok(NetSummary {
            bare_ard: bare.ard,
            min_cost: cheapest.cost,
            min_cost_ard: cheapest.ard,
            best_ard: fastest.ard,
            best_ard_cost: fastest.cost,
            tradeoff_points: curve.points().len(),
            candidates: curve.stats().generated,
        })
    })();
    NetResult {
        name: job.name.clone(),
        outcome,
        micros: t.elapsed().as_micros() as u64,
    }
}

/// Runs every job on the same worker pool as [`run_batch`] but returns
/// the full per-net [`TradeoffCurve`]s (assignments included) instead of
/// scalar summaries.
///
/// Callers that *realize* solutions — the `msrnet-timing` closure loop
/// picks a frontier point per net and writes its repeater assignment
/// back into the design — need the curve itself; [`run_batch`] only
/// keeps figures of merit. Results are ordered by job index and
/// bit-identical for every `threads` value, by the same argument as
/// [`run_batch`] (atomic claim queue, per-worker workspaces, no shared
/// state between nets).
pub fn run_batch_curves(
    jobs: &[BatchJob],
    threads: usize,
) -> Vec<Result<TradeoffCurve, String>> {
    run_pool(jobs, threads, |job, ws| solve(job, ws).map_err(|e| e.to_string()))
}

/// The worker pool behind [`run_batch`] and [`run_batch_curves`]:
/// `min(threads, jobs)` scoped workers (at least one) claim job indices
/// from a shared atomic counter, each reusing one [`MsriWorkspace`]
/// across the nets it claims, and results are stored by job index so
/// their order does not depend on scheduling.
fn run_pool<R: Send>(
    jobs: &[BatchJob],
    threads: usize,
    work: impl Fn(&BatchJob, &mut MsriWorkspace) -> R + Sync,
) -> Vec<R> {
    let workers = threads.max(1).min(jobs.len()).max(1);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..jobs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut ws = MsriWorkspace::new();
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        local.push((i, work(job, &mut ws)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            // msrnet-allow: panic a worker panic is already fatal; re-raising it on join is the intended behaviour
            for (i, r) in h.join().expect("batch workers do not panic") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        // msrnet-allow: panic the atomic queue hands every index to exactly one worker
        .map(|s| s.expect("every job index is claimed exactly once"))
        .collect()
}

/// Solves one job's MSRI DP in a reused workspace.
fn solve(job: &BatchJob, ws: &mut MsriWorkspace) -> Result<TradeoffCurve, MsriError> {
    optimize_in(
        &job.net,
        job.root,
        &job.library,
        &job.drivers,
        &job.options,
        ws,
    )
}

/// Builds `count` jobs over seeded random experiment nets (the paper's
/// §VI generator): `terminals`-pin nets with insertion points every
/// `spacing` µm, a 1X repeater pair and fixed 1X drivers.
///
/// Seeds run `seed0, seed0+1, …`; a seed whose random net is degenerate
/// (coincident pins) is skipped, so slightly more than `count` seeds may
/// be consumed.
pub fn random_jobs(
    params: &TechParams,
    count: usize,
    terminals: usize,
    seed0: u64,
    spacing: f64,
) -> Vec<BatchJob> {
    let mut jobs = Vec::with_capacity(count);
    let mut seed = seed0;
    while jobs.len() < count {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Ok(exp) = ExperimentNet::random(&mut rng, terminals, params) {
            let net = exp.with_insertion_points(spacing);
            let drivers = params.fixed_driver_menu(&net);
            jobs.push(BatchJob {
                name: format!("net{seed:04}"),
                net,
                root: TerminalId(0),
                library: vec![params.repeater(1.0)],
                drivers,
                options: MsriOptions::default(),
            });
        }
        seed += 1;
    }
    jobs
}

// ---------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------

impl BatchReport {
    /// Serializes the report as pretty-printed JSON.
    ///
    /// Schema (stable; suitable for `BENCH_*.json` tracking):
    ///
    /// ```json
    /// {
    ///   "benchmark": "msrnet_batch",
    ///   "threads": 4,
    ///   "nets": 100,
    ///   "failed": 0,
    ///   "wall_ms": 512.3,
    ///   "nets_per_s": 195.2,
    ///   "results": [
    ///     {"name": "net0001", "bare_ard": 3140.2, "min_cost": 2.0,
    ///      "min_cost_ard": 3140.2, "best_ard": 1180.4,
    ///      "best_ard_cost": 14.0, "tradeoff_points": 7,
    ///      "candidates": 4211, "micros": 880, "error": null}
    ///   ]
    /// }
    /// ```
    ///
    /// Non-finite floats (e.g. a `-∞` ARD on a sink-free net) serialize
    /// as `null`; failed nets carry `"error"` text and null metrics.
    pub fn to_json(&self) -> String {
        self.to_json_opts(true)
    }

    /// [`BatchReport::to_json`] with the timing fields made optional.
    ///
    /// With `timing: false` every volatile field — `wall_ms`,
    /// `nets_per_s`, and each result's `micros` — serializes as `null`,
    /// making the report a pure function of its inputs: byte-identical
    /// across runs, thread counts, and machines. The served `batch`
    /// request and its local `msrnet-cli batch --no-timing` oracle both
    /// use this mode so equality can be asserted on raw bytes.
    pub fn to_json_opts(&self, timing: bool) -> String {
        let wall_ms = self.wall.as_secs_f64() * 1e3;
        let nets_per_s = if self.wall.as_secs_f64() > 0.0 {
            self.results.len() as f64 / self.wall.as_secs_f64()
        } else {
            f64::INFINITY
        };
        let micros_of = |micros: u64| {
            if timing {
                micros.to_string()
            } else {
                "null".to_string()
            }
        };
        let failed = self.results.iter().filter(|r| r.outcome.is_err()).count();
        let mut out = String::with_capacity(256 + 192 * self.results.len());
        out.push_str("{\n");
        out.push_str("  \"benchmark\": \"msrnet_batch\",\n");
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"nets\": {},\n", self.results.len()));
        out.push_str(&format!("  \"failed\": {failed},\n"));
        if timing {
            out.push_str(&format!("  \"wall_ms\": {},\n", json_num(wall_ms)));
            out.push_str(&format!("  \"nets_per_s\": {},\n", json_num(nets_per_s)));
        } else {
            out.push_str("  \"wall_ms\": null,\n");
            out.push_str("  \"nets_per_s\": null,\n");
        }
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": {}, ", json_str(&r.name)));
            match &r.outcome {
                Ok(s) => {
                    out.push_str(&format!("\"bare_ard\": {}, ", json_num(s.bare_ard)));
                    out.push_str(&format!("\"min_cost\": {}, ", json_num(s.min_cost)));
                    out.push_str(&format!("\"min_cost_ard\": {}, ", json_num(s.min_cost_ard)));
                    out.push_str(&format!("\"best_ard\": {}, ", json_num(s.best_ard)));
                    out.push_str(&format!("\"best_ard_cost\": {}, ", json_num(s.best_ard_cost)));
                    out.push_str(&format!("\"tradeoff_points\": {}, ", s.tradeoff_points));
                    out.push_str(&format!("\"candidates\": {}, ", s.candidates));
                    out.push_str(&format!("\"micros\": {}, ", micros_of(r.micros)));
                    out.push_str("\"error\": null");
                }
                Err(e) => {
                    out.push_str("\"bare_ard\": null, \"min_cost\": null, ");
                    out.push_str("\"min_cost_ard\": null, \"best_ard\": null, ");
                    out.push_str("\"best_ard_cost\": null, \"tradeoff_points\": null, ");
                    out.push_str(&format!(
                        "\"candidates\": null, \"micros\": {}, ",
                        micros_of(r.micros)
                    ));
                    out.push_str(&format!("\"error\": {}", json_str(e)));
                }
            }
            out.push('}');
            if i + 1 < self.results.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrnet_netgen::table1;

    #[test]
    fn empty_batch_is_fine() {
        let report = run_batch(&[], 4);
        assert!(report.results.is_empty());
        assert!(report.to_json().contains("\"nets\": 0"));
    }

    #[test]
    fn batch_summaries_are_sane() {
        let jobs = random_jobs(&table1(), 4, 6, 7, 800.0);
        assert_eq!(jobs.len(), 4);
        let report = run_batch(&jobs, 2);
        for r in &report.results {
            let s = r.outcome.as_ref().expect("experiment nets optimize");
            // The §III characterization is finite on experiment nets
            // (every pin is bidirectional), and optimization can only
            // improve on the cheapest point.
            assert!(s.bare_ard.is_finite());
            assert!(s.best_ard <= s.min_cost_ard);
            assert!(s.best_ard_cost >= s.min_cost);
            assert!(s.tradeoff_points >= 1);
        }
    }
}
