//! `table4`: cold, single-thread solves of a fixed net bank, one
//! `ard_linear` + `optimize_in` pair per op.
//!
//! The bank is fixed by `--bank`, not by `--seed`: the DP's time per
//! net spans more than 20x across random nets, so a run that drew its
//! own few dozen nets would measure the draw rather than the code. The
//! seed orders the ops within each pass. The window runs whole passes
//! over the bank only, so every run solves the same nets equally often.

use std::hint::black_box;
use std::time::Instant;

use msrnet_core::ard::{ard_linear, ard_naive};
use msrnet_core::exhaustive::apply_terminal_choices;
use msrnet_core::{optimize_in, MsriOptions, MsriStats, MsriWorkspace, StepStats};
use msrnet_core::{TerminalOptions, TradeoffCurve};
use msrnet_netgen::{table1, ExperimentNet};
use msrnet_rctree::{Assignment, Net, Orientation, Repeater, Rooted, TerminalId};
use msrnet_rng::rngs::StdRng;
use msrnet_rng::{Rng, SeedableRng};

use crate::stats::{mix, percentile, ratio, Digest};
use crate::trace::Tracer;
use crate::{run_passes, Ctx, Metrics, Window, Workload};

/// One solve configuration: a net in one of the paper's modes.
struct Entry {
    label: String,
    net: Net,
    rooted: Rooted,
    bare: Assignment,
    library: Vec<Repeater>,
    drivers: TerminalOptions,
}

/// The first solve of an entry in this run, kept for the oracle.
struct First {
    digest: u64,
    curve: TradeoffCurve,
    bare_ard: f64,
}

/// Counters of one untimed pass over the bank in bank order with a
/// fresh workspace: exact, and the same for every seed.
#[derive(Default)]
struct Census {
    stats: Vec<MsriStats>,
    frontier_points: u64,
    arena_taken: u64,
    arena_reused: u64,
}

/// A prepared DP workload.
pub struct Dp {
    entries: Vec<Entry>,
    pinned: Vec<Option<u64>>,
    options: MsriOptions,
    ws: MsriWorkspace,
    order: StdRng,
    first: Vec<Option<First>>,
    next_op: u64,
    failures: Vec<String>,
}

/// `(terminals, nets, spacing µm)` groups of the bank.
fn bank_shape(tiny: bool) -> &'static [(usize, u64, f64)] {
    if tiny {
        &[(10, 2, 800.0)]
    } else {
        &[(20, 12, 800.0), (10, 24, 800.0)]
    }
}

fn build_entries(ctx: &Ctx, tracer: &Tracer) -> Result<Vec<Entry>, String> {
    let params = table1();
    let mut entries = Vec::new();
    for &(terminals, count, spacing) in bank_shape(ctx.tiny) {
        for i in 0..count {
            let seed = mix(&[ctx.bank, terminals as u64, i]);
            let net = tracer.span("netgen.instance", 0, 0, None, |_| {
                let mut rng = StdRng::seed_from_u64(seed);
                ExperimentNet::random(&mut rng, terminals, &params)
                    .map(|exp| exp.with_insertion_points(spacing))
            });
            let net = net.map_err(|e| format!("bank net {terminals}/{i}: {e}"))?;
            let modes = [
                (
                    "repeaters",
                    vec![params.repeater(1.0)],
                    params.fixed_driver_menu(&net),
                ),
                (
                    "sizing",
                    Vec::new(),
                    params.sizing_menu(&net, &[1.0, 2.0, 3.0, 4.0]),
                ),
            ];
            for (mode, library, drivers) in modes {
                entries.push(Entry {
                    label: format!("n{terminals}-i{i}-{mode}"),
                    rooted: net.rooted_at_terminal(TerminalId(0)),
                    bare: Assignment::empty(net.topology.vertex_count()),
                    net: net.clone(),
                    library,
                    drivers,
                });
            }
        }
    }
    Ok(entries)
}

/// Digest of a frontier: every point's cost and ARD bits and its
/// realization (placements, driver choices, wire choices).
fn frontier_digest(curve: &TradeoffCurve) -> u64 {
    let mut d = Digest::default();
    for p in curve.points() {
        d.u64(p.cost.to_bits()).u64(p.ard.to_bits());
        for (v, placed) in p.assignment.placements() {
            let side = match placed.orientation {
                Orientation::AFacesParent => 0,
                Orientation::BFacesParent => 1,
            };
            d.u64(v.0 as u64).u64(placed.repeater as u64).u64(side);
        }
        d.u64(u64::MAX);
        for &c in p.terminal_choices.iter().chain(&p.wire_choices) {
            d.u64(c as u64);
        }
        d.u64(u64::MAX - 1);
    }
    d.finish()
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

/// Checks the op's ARD of the bare net, and re-evaluates every
/// trade-off point independently: the driver choices are applied to the
/// net and the ARD recomputed with the per-source Elmore baseline
/// (`ard_naive`), then compared with the claimed values.
fn oracle(e: &Entry, first: &First) -> Result<(), String> {
    let points = first.curve.points();
    if points
        .windows(2)
        .any(|w| !(w[0].cost <= w[1].cost && w[0].ard > w[1].ard))
    {
        return Err("frontier is not strictly improving".into());
    }
    let naive = ard_naive(&e.net, &e.rooted, &e.library, &e.bare).ard;
    if !close(first.bare_ard, naive, 1e-9) {
        return Err(format!(
            "ard_linear of the bare net {} but ard_naive gives {naive}",
            first.bare_ard
        ));
    }
    for (k, p) in points.iter().enumerate() {
        let (scenario, driver_cost) =
            apply_terminal_choices(&e.net, &e.drivers, &p.terminal_choices);
        let naive = ard_naive(&scenario, &e.rooted, &e.library, &p.assignment);
        if !close(naive.ard, p.ard, 1e-9) {
            return Err(format!(
                "point {k}: claimed ARD {} but ard_naive gives {}",
                p.ard, naive.ard
            ));
        }
        let cost = driver_cost + p.assignment.total_cost(&e.library);
        if !close(cost, p.cost, 1e-12) {
            return Err(format!(
                "point {k}: claimed cost {} but realizes {cost}",
                p.cost
            ));
        }
    }
    Ok(())
}

impl Dp {
    /// One op on entry `i`; returns its latency in ms.
    fn op(&mut self, i: usize, tracer: &Tracer) -> f64 {
        let op = self.next_op;
        self.next_op += 1;
        let Dp {
            entries,
            options,
            ws,
            ..
        } = self;
        let e = &entries[i];
        let t = Instant::now();
        let (bare_ard, curve) = tracer.span("op", op, 0, None, |p| {
            let ard = tracer.span("core.ard_linear", op, 0, p, |_| {
                ard_linear(&e.net, &e.rooted, &e.library, &e.bare)
            });
            let curve = tracer.span("core.optimize_in", op, 0, p, |_| {
                optimize_in(&e.net, TerminalId(0), &e.library, &e.drivers, options, ws)
            });
            (ard.ard, curve)
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let curve = match black_box(curve) {
            Ok(c) => c,
            Err(err) => {
                self.failures
                    .push(format!("{}: optimize_in failed: {err}", e.label));
                return ms;
            }
        };
        let digest = frontier_digest(&curve);
        let expected = self.pinned[i].or(self.first[i].as_ref().map(|f| f.digest));
        if expected.is_some_and(|d| d != digest) {
            self.failures.push(format!(
                "{}: frontier digest {digest:016x} != expected {:016x}",
                e.label,
                expected.unwrap_or(0)
            ));
        }
        if self.first[i].is_none() {
            self.first[i] = Some(First {
                digest,
                curve,
                bare_ard,
            });
        }
        ms
    }

    /// One untimed pass over the bank in bank order with a fresh
    /// workspace, for the exact per-layer counters.
    fn census(&self) -> Census {
        let mut ws = MsriWorkspace::new();
        let mut c = Census::default();
        for e in &self.entries {
            let solved = optimize_in(
                &e.net,
                TerminalId(0),
                &e.library,
                &e.drivers,
                &self.options,
                &mut ws,
            );
            if let Ok(curve) = solved {
                c.stats.push(curve.stats());
                c.frontier_points += curve.len() as u64;
            }
        }
        c.arena_taken = ws.arena().taken();
        c.arena_reused = ws.arena().reused();
        c
    }
}

fn census_metrics(c: &Census, m: &mut Metrics) {
    let sum = |f: fn(&MsriStats) -> u64| c.stats.iter().map(f).sum::<u64>() as f64;
    let max = |f: fn(&MsriStats) -> usize| c.stats.iter().map(f).max().unwrap_or(0) as f64;
    let generated = sum(|s| s.generated);
    let surviving = sum(|s| s.surviving);
    m.set("core.dp.generated", generated);
    m.set("core.dp.surviving", surviving);
    m.set("core.dp.survival_ratio", ratio(surviving, generated));
    m.set("core.dp.prunes", sum(|s| s.prunes));
    m.set("core.dp.peak_set", max(MsriStats::peak_set));
    m.set("core.dp.max_segments", max(|s| s.max_segments));
    m.set("core.dp.frontier_points", c.frontier_points as f64);
    for (k, step) in ["leaf", "augment", "join", "repeater"]
        .into_iter()
        .enumerate()
    {
        let get = |s: &MsriStats| [s.leaf, s.augment, s.join, s.repeater][k];
        let total =
            |f: fn(&StepStats) -> u64| c.stats.iter().map(|s| f(&get(s))).sum::<u64>() as f64;
        m.set(&format!("core.dp.{step}.generated"), total(|s| s.generated));
        m.set(
            &format!("core.dp.{step}.scalar_pruned"),
            total(|s| s.scalar_pruned),
        );
        m.set(
            &format!("core.dp.{step}.pwl_pruned"),
            total(|s| s.pwl_pruned),
        );
        m.set(
            &format!("core.dp.{step}.prebound_rejected"),
            total(|s| s.prebound_rejected),
        );
        m.set(
            &format!("core.dp.{step}.materialized_avoided"),
            total(|s| s.materialized_avoided),
        );
        let peak = c.stats.iter().map(|s| get(s).peak_set).max().unwrap_or(0);
        m.set(&format!("core.dp.{step}.peak_set"), peak as f64);
    }
    m.set("pwl.arena_taken", c.arena_taken as f64);
    m.set("pwl.arena_reused", c.arena_reused as f64);
    m.set(
        "pwl.arena_reuse_ratio",
        ratio(c.arena_reused as f64, c.arena_taken as f64),
    );
}

impl Workload for Dp {
    fn prepare(ctx: &Ctx, tracer: &Tracer) -> Result<Self, String> {
        let entries = build_entries(ctx, tracer)?;
        let pinned = ctx.pins(entries.len())?;
        let mut dp = Dp {
            first: entries.iter().map(|_| None).collect(),
            pinned,
            entries,
            options: MsriOptions::default(),
            ws: MsriWorkspace::new(),
            order: StdRng::seed_from_u64(mix(&[ctx.seed, 0x0bde])),
            next_op: 0,
            failures: Vec::new(),
        };
        // Warm-up: one solve of the first entry, so page faults and the
        // arena's first buffers are not charged to the first timed op.
        dp.op(0, &Tracer::new(false));
        dp.first[0] = None;
        dp.next_op = 0;
        dp.failures.clear();
        Ok(dp)
    }

    fn window(&mut self, budget_s: f64, tracer: &Tracer) -> Window {
        let (mut lat_ms, mut entry) = (Vec::new(), Vec::new());
        let elapsed_s = run_passes(budget_s, || {
            let mut order: Vec<usize> = (0..self.entries.len()).collect();
            self.order.shuffle(&mut order);
            for i in order {
                lat_ms.push(self.op(i, tracer));
                entry.push(i);
            }
        });
        Window {
            lat_ms,
            entry,
            elapsed_s,
        }
    }

    fn observed(&self) -> Vec<u64> {
        self.first
            .iter()
            .map(|f| f.as_ref().map_or(0, |f| f.digest))
            .collect()
    }

    fn finish(mut self, tracer: &Tracer, m: &mut Metrics) -> Vec<String> {
        for (e, first) in self.entries.iter().zip(&self.first) {
            if let Some(first) = first {
                if let Err(err) = oracle(e, first) {
                    self.failures.push(format!("{}: oracle: {err}", e.label));
                }
            }
        }
        m.set("netgen.instance_ms_p50", tracer.p50_ms("netgen.instance"));
        let ard_us: Vec<f64> = tracer
            .durations_ms("core.ard_linear")
            .iter()
            .map(|x| x * 1e3)
            .collect();
        m.set("core.ard_linear_us_p50", percentile(&ard_us, 0.5));
        let opt = tracer.durations_ms("core.optimize_in");
        m.set("core.optimize_ms_p50", percentile(&opt, 0.5));
        m.set("core.optimize_ms_p90", percentile(&opt, 0.9));
        if tracer.enabled() {
            census_metrics(&self.census(), m);
        }
        self.failures
    }
}
