//! The timing-closure loop: propagate → rank → optimize → write back.
//!
//! Each round:
//!
//! 1. [`propagate`] the design and compute
//!    per-net slack (the slack of the worst source→sink path through
//!    the net);
//! 2. rank the not-yet-optimized nets by that slack, ascending, and
//!    take the `k` most critical below the target;
//! 3. optimize them in one [`msrnet_batch::run_batch_curves`] sweep.
//!    The boundary values the paper's DP consumes are *baked from the
//!    graph*: each driver terminal's `AT` becomes its pin's arrival
//!    time, each sink's `q` becomes `max(0, Tmax − RAT(pin))` with
//!    `Tmax` the largest endpoint required time — so minimizing the
//!    in-context ARD is exactly maximizing the worst slack through
//!    the net;
//! 4. write each chosen frontier point back as the net's new stage
//!    delay, **clamped to never exceed the old delay**
//!    (`min(d_old, d_new)`); the repeater assignment is kept only if
//!    it actually improves the zero-context delay.
//!
//! The clamp is what makes the loop monotone: stage delays never
//! increase, so every pin's arrival time is non-increasing and every
//! required time non-decreasing across rounds — per-endpoint slack
//! (hence WNS) can only improve. Each net is optimized at most once,
//! so the loop terminates after at most `⌈nets/k⌉` rounds even
//! without the round budget. See ALGORITHMS.md §9 for the full
//! argument.

use msrnet_batch::{run_batch_curves, BatchJob};
use msrnet_core::{MsriOptions, TerminalOptions};
use msrnet_incremental::json::{json_num, json_str};
use msrnet_rctree::TerminalId;

use crate::design::{stage_delay, Design, PinDir, TimingError};
use crate::graph::{propagate, Timing};

/// Parameters for [`run_closure`].
#[derive(Clone, Debug)]
pub struct ClosureConfig {
    /// Nets to optimize per round.
    pub k: usize,
    /// Round budget.
    pub max_rounds: usize,
    /// Worker threads for the batch sweep.
    pub threads: usize,
    /// Stop once WNS reaches this value (default `0.0` — timing met).
    pub slack_target: f64,
}

impl Default for ClosureConfig {
    fn default() -> Self {
        ClosureConfig {
            k: 8,
            max_rounds: 8,
            threads: 1,
            slack_target: 0.0,
        }
    }
}

/// One net touched in a round.
#[derive(Clone, Debug)]
pub struct NetTouch {
    /// Net name.
    pub net: String,
    /// The net's path slack when it was picked.
    pub slack_before: f64,
    /// Stage delay before optimization, ps.
    pub delay_before: f64,
    /// Stage delay after write-back (= before if clamped), ps.
    pub delay_after: f64,
    /// Repeater cost of the accepted assignment (0 if clamped).
    pub cost: f64,
    /// DP candidates generated (deterministic effort proxy).
    pub candidates: u64,
    /// The candidate was rejected by the monotonicity clamp.
    pub clamped: bool,
    /// The optimizer returned an error for this net.
    pub infeasible: bool,
}

/// One closure round: WNS/TNS before and after, and the touched nets.
#[derive(Clone, Debug)]
pub struct Round {
    /// WNS entering the round, ps.
    pub wns_before: f64,
    /// TNS entering the round, ps.
    pub tns_before: f64,
    /// WNS after write-back and re-propagation, ps.
    pub wns_after: f64,
    /// TNS after write-back and re-propagation, ps.
    pub tns_after: f64,
    /// Nets optimized this round, in rank order.
    pub touched: Vec<NetTouch>,
}

/// The loop's full trajectory, serializable as deterministic JSON.
#[derive(Clone, Debug)]
pub struct ClosureReport {
    /// Design size: cells.
    pub cells: usize,
    /// Design size: nets.
    pub nets: usize,
    /// Design size: pins (timing-graph nodes).
    pub pins: usize,
    /// Design size: timing-graph edges.
    pub edges: usize,
    /// The `k` the loop ran with.
    pub k: usize,
    /// Worker threads used (not part of the determinism contract —
    /// results are bit-identical at any count).
    pub threads: usize,
    /// WNS before the first round, ps.
    pub wns_initial: f64,
    /// TNS before the first round, ps.
    pub tns_initial: f64,
    /// WNS after the last round, ps.
    pub wns_final: f64,
    /// TNS after the last round, ps.
    pub tns_final: f64,
    /// Total repeater cost added, in 1X-buffer equivalents.
    pub cost_added: f64,
    /// The loop stopped on its own (target met or candidates
    /// exhausted) rather than on the round budget.
    pub converged: bool,
    /// Per-round trajectory.
    pub rounds: Vec<Round>,
}

impl ClosureReport {
    /// Serializes the report as stable, deterministic JSON: fixed key
    /// order, no wall-clock fields, non-finite floats as `null`. At a
    /// fixed design and config the output is byte-identical across
    /// runs and thread counts.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str("  \"benchmark\": \"msrnet_timing\",\n");
        s.push_str(&format!("  \"cells\": {},\n", self.cells));
        s.push_str(&format!("  \"nets\": {},\n", self.nets));
        s.push_str(&format!("  \"pins\": {},\n", self.pins));
        s.push_str(&format!("  \"edges\": {},\n", self.edges));
        s.push_str(&format!("  \"k\": {},\n", self.k));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!(
            "  \"wns_initial\": {},\n",
            json_num(self.wns_initial)
        ));
        s.push_str(&format!(
            "  \"tns_initial\": {},\n",
            json_num(self.tns_initial)
        ));
        s.push_str(&format!("  \"wns_final\": {},\n", json_num(self.wns_final)));
        s.push_str(&format!("  \"tns_final\": {},\n", json_num(self.tns_final)));
        s.push_str(&format!(
            "  \"cost_added\": {},\n",
            json_num(self.cost_added)
        ));
        s.push_str(&format!("  \"converged\": {},\n", self.converged));
        s.push_str("  \"rounds\": [\n");
        for (i, r) in self.rounds.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"round\": {},\n", i + 1));
            s.push_str(&format!(
                "      \"wns_before\": {},\n",
                json_num(r.wns_before)
            ));
            s.push_str(&format!(
                "      \"tns_before\": {},\n",
                json_num(r.tns_before)
            ));
            s.push_str(&format!("      \"wns_after\": {},\n", json_num(r.wns_after)));
            s.push_str(&format!("      \"tns_after\": {},\n", json_num(r.tns_after)));
            s.push_str("      \"touched\": [\n");
            for (j, t) in r.touched.iter().enumerate() {
                s.push_str("        {");
                s.push_str(&format!("\"net\": {}, ", json_str(&t.net)));
                s.push_str(&format!("\"slack\": {}, ", json_num(t.slack_before)));
                s.push_str(&format!(
                    "\"delay_before\": {}, ",
                    json_num(t.delay_before)
                ));
                s.push_str(&format!("\"delay_after\": {}, ", json_num(t.delay_after)));
                s.push_str(&format!("\"cost\": {}, ", json_num(t.cost)));
                s.push_str(&format!("\"candidates\": {}, ", t.candidates));
                s.push_str(&format!("\"clamped\": {}, ", t.clamped));
                s.push_str(&format!("\"infeasible\": {}}}", t.infeasible));
                s.push_str(if j + 1 < r.touched.len() { ",\n" } else { "\n" });
            }
            s.push_str("      ]\n");
            s.push_str(if i + 1 < self.rounds.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

/// Runs the timing-closure loop on `design`, mutating its nets'
/// delays/assignments in place and returning the trajectory.
///
/// Stops when WNS reaches `slack_target`, when no un-optimized net
/// with finite sub-target slack remains, or after `max_rounds`.
/// Deterministic and monotone: at a fixed design and config the
/// report is identical across runs and thread counts, and
/// `wns_final >= wns_initial` always holds (see the module docs).
///
/// # Errors
///
/// Propagates [`TimingError::CombinationalLoop`] from propagation.
///
/// # Examples
///
/// ```
/// use msrnet_timing::{generate_chip, run_closure, ChipConfig, ClosureConfig};
///
/// let mut design = generate_chip(&ChipConfig {
///     nets: 10,
///     seed: 3,
///     ..ChipConfig::default()
/// })?;
/// let report = run_closure(&mut design, &ClosureConfig::default())?;
/// assert!(report.wns_final >= report.wns_initial);
/// assert!(!report.rounds.is_empty());
/// # Ok::<(), msrnet_timing::TimingError>(())
/// ```
pub fn run_closure(
    design: &mut Design,
    cfg: &ClosureConfig,
) -> Result<ClosureReport, TimingError> {
    let k = cfg.k.max(1);
    let mut timing = propagate(design)?;
    let wns_initial = timing.wns();
    let tns_initial = timing.tns();
    let mut rounds = Vec::new();
    let mut converged = false;
    let mut cost_added = 0.0;

    for _ in 0..cfg.max_rounds {
        let wns_before = timing.wns();
        let tns_before = timing.tns();
        if wns_before >= cfg.slack_target {
            converged = true;
            break;
        }
        let picks = rank_candidates(design, &timing, cfg.slack_target, k);
        if picks.is_empty() {
            converged = true;
            break;
        }
        let tmax = max_required(design);
        let jobs: Vec<BatchJob> = picks
            .iter()
            .map(|&(_, i)| baked_job(design, &timing, i, tmax))
            .collect();
        let curves = run_batch_curves(&jobs, cfg.threads);

        let mut touched = Vec::new();
        for (&(slack_before, i), curve) in picks.iter().zip(&curves) {
            let net = &mut design.nets[i];
            net.optimized = true;
            let delay_before = net.delay;
            let mut touch = NetTouch {
                net: net.name.clone(),
                slack_before,
                delay_before,
                delay_after: delay_before,
                cost: 0.0,
                candidates: 0,
                clamped: false,
                infeasible: false,
            };
            match curve {
                Err(_) => touch.infeasible = true,
                Ok(c) => {
                    touch.candidates = c.stats().generated;
                    let best = c.best_ard();
                    let cand = stage_delay(&net.net, &net.library, Some(&best.assignment));
                    if cand < delay_before {
                        net.delay = cand;
                        net.assignment = Some(best.assignment.clone());
                        // Driver cost (2 per terminal in the fixed
                        // menu) is not *added* hardware; count the
                        // repeaters only.
                        let repeaters = best.assignment.total_cost(&net.library);
                        net.repeater_cost = repeaters;
                        cost_added += repeaters;
                        touch.delay_after = cand;
                        touch.cost = repeaters;
                    } else {
                        touch.clamped = true;
                    }
                }
            }
            touched.push(touch);
        }

        timing = propagate(design)?;
        rounds.push(Round {
            wns_before,
            tns_before,
            wns_after: timing.wns(),
            tns_after: timing.tns(),
            touched,
        });
    }
    if timing.wns() >= cfg.slack_target {
        converged = true;
    }

    Ok(ClosureReport {
        cells: design.cells.len(),
        nets: design.nets.len(),
        pins: design.pin_count(),
        edges: timing.edge_count(),
        k,
        threads: cfg.threads.max(1),
        wns_initial,
        tns_initial,
        wns_final: timing.wns(),
        tns_final: timing.tns(),
        cost_added,
        converged,
        rounds,
    })
}

/// The `k` most critical un-optimized nets with finite slack below the
/// target: `(slack, net index)`, ascending slack, index as tie-break.
fn rank_candidates(
    design: &Design,
    timing: &Timing,
    target: f64,
    k: usize,
) -> Vec<(f64, usize)> {
    let mut cands: Vec<(f64, usize)> = (0..design.nets.len())
        .filter(|&i| !design.nets[i].optimized)
        .map(|i| (timing.net_slack(design, i), i))
        .filter(|(s, _)| s.is_finite() && *s < target)
        .collect();
    cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    cands.truncate(k);
    cands
}

/// The largest endpoint required time (0 if none are finite).
fn max_required(design: &Design) -> f64 {
    let mut tmax = 0.0f64;
    for c in &design.cells {
        if let crate::design::CellKind::Output { required } = c.kind {
            if required.is_finite() && required > tmax {
                tmax = required;
            }
        }
    }
    tmax
}

/// Builds the in-context batch job for net `i`: a clone of the net
/// with graph boundary values baked into its terminals.
fn baked_job(design: &Design, timing: &Timing, i: usize, tmax: f64) -> BatchJob {
    let dn = &design.nets[i];
    let mut net = dn.net.clone();
    for b in &dn.binds {
        let t = &mut net.terminals[b.terminal.0];
        match design.pin(b.pin).dir {
            PinDir::Output => {
                let at = timing.arrival(b.pin);
                t.arrival = if at.is_finite() { at } else { 0.0 };
            }
            PinDir::Input => {
                let rat = timing.required(b.pin);
                let q = if rat.is_finite() { tmax - rat } else { 0.0 };
                t.downstream = q.max(0.0);
            }
        }
    }
    let root = net
        .terminal_ids()
        .find(|&t| net.terminal(t).is_source())
        .unwrap_or(TerminalId(0));
    let drivers = TerminalOptions::defaults(&net);
    let options = MsriOptions {
        allow_inverting: dn.library.iter().any(|r| r.inverting),
        ..MsriOptions::default()
    };
    BatchJob {
        name: dn.name.clone(),
        net,
        root,
        library: dn.library.clone(),
        drivers,
        options,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chipgen::{generate_chip, ChipConfig};
    use crate::PinId;

    fn small_chip(seed: u64) -> Design {
        generate_chip(&ChipConfig {
            nets: 10,
            levels: 3,
            seed,
            max_pins: 6,
            ..ChipConfig::default()
        })
        .expect("generation succeeds")
    }

    #[test]
    fn closure_never_worsens_any_endpoint() {
        for seed in [2u64, 11, 29] {
            let mut d = small_chip(seed);
            let before = propagate(&d).expect("acyclic");
            let report = run_closure(&mut d, &ClosureConfig::default()).expect("closure runs");
            let after = propagate(&d).expect("still acyclic");
            assert_eq!(before.endpoints(), after.endpoints());
            for &p in before.endpoints() {
                assert!(
                    after.slack(p) >= before.slack(p) - 1e-9,
                    "seed {seed}: endpoint {} slack degraded",
                    p.0
                );
            }
            assert!(report.wns_final >= report.wns_initial - 1e-9);
            for r in &report.rounds {
                assert!(r.wns_after >= r.wns_before - 1e-9);
            }
        }
    }

    #[test]
    fn closure_is_deterministic_across_threads() {
        let mut d1 = small_chip(7);
        let mut d4 = small_chip(7);
        let r1 = run_closure(
            &mut d1,
            &ClosureConfig {
                threads: 1,
                ..ClosureConfig::default()
            },
        )
        .expect("closure runs");
        let r4 = run_closure(
            &mut d4,
            &ClosureConfig {
                threads: 4,
                ..ClosureConfig::default()
            },
        )
        .expect("closure runs");
        // Thread count is reported but everything else is identical.
        let strip = |j: String| j.replace("\"threads\": 4", "\"threads\": 1");
        assert_eq!(r1.to_json(), strip(r4.to_json()));
        let t1 = propagate(&d1).expect("acyclic");
        let t4 = propagate(&d4).expect("acyclic");
        for p in 0..d1.pin_count() {
            assert_eq!(
                t1.arrival(PinId(p)).to_bits(),
                t4.arrival(PinId(p)).to_bits()
            );
        }
    }

    #[test]
    fn each_net_is_touched_at_most_once() {
        let mut d = small_chip(13);
        let report = run_closure(
            &mut d,
            &ClosureConfig {
                k: 3,
                max_rounds: 16,
                ..ClosureConfig::default()
            },
        )
        .expect("closure runs");
        let mut names: Vec<&str> = report
            .rounds
            .iter()
            .flat_map(|r| r.touched.iter().map(|t| t.net.as_str()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(total, names.len());
    }

    #[test]
    fn json_is_stable_and_null_safe() {
        let mut d = small_chip(4);
        let report = run_closure(&mut d, &ClosureConfig::default()).expect("closure runs");
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"benchmark\": \"msrnet_timing\""));
        assert!(!a.contains("wall"));
    }
}
