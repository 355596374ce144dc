//! `closure`: timing closure over the bank's 2000-net chips, one
//! `run_closure(max_rounds = 1)` call per op.
//!
//! Each call starts with its own `propagate`, ranks nets, re-solves the
//! `k` most critical on the batch worker pool and writes the delays
//! back. The slack target is unreachable, so every call re-solves `k`
//! nets until no unoptimized net is left; that ends a chip's pass. The
//! window runs whole cycles (every chip once, in seeded order) from
//! fresh copies of the generated chips.
//!
//! The process is not pinned, so the two batch workers share the host's
//! CPUs. In ten interleaved pairs of 15 s runs on a two-vCPU host (with
//! `k = 64`), pinning to one CPU lowered throughput from 65 to 47 rounds
//! per second and widened the quartile spread of every latency metric
//! (p50 0.25 against 0.23, p90 0.22 against 0.17).

use std::time::Instant;

use msrnet_rng::rngs::StdRng;
use msrnet_rng::{Rng, SeedableRng};
use msrnet_timing::{
    generate_chip, propagate, run_closure, ChipConfig, ClosureConfig, ClosureReport, Design,
};

use crate::stats::{digest_str, mix, ratio};
use crate::trace::Tracer;
use crate::{run_passes, Ctx, Metrics, Window, Workload};

/// One call of the op: a single round, `k = 128`, two batch workers.
///
/// Every round pays a fixed `propagate`, ranking and thread scope, and
/// runs of light rounds moved more than the runs beside them. In eight
/// interleaved sets of 15 s runs pinned to one CPU, the quartile spread
/// of the runs' median round latency was 0.18 of the median with
/// `k = 32`, 0.11 with `k = 64` and 0.07 with `k = 128`. Unpinned, in six
/// interleaved pairs, `k = 64` spread 0.17-0.23 on every latency metric
/// and `k = 128` 0.03-0.05.
const ROUND: ClosureConfig = ClosureConfig {
    k: 128,
    max_rounds: 1,
    threads: 2,
    slack_target: f64::INFINITY,
};

struct Chip {
    label: String,
    pristine: Design,
    pinned: Option<u64>,
}

/// A prepared closure workload.
pub struct Closure {
    chips: Vec<Chip>,
    order: StdRng,
    /// Per chip: digest and round count of its first pass.
    first: Vec<Option<(u64, usize)>>,
    /// Per chip: the merged report of its first pass (exact counters).
    census: Vec<Option<ClosureReport>>,
    next_op: u64,
    failures: Vec<String>,
}

/// Appends one single-round report to the pass's merged report, so the
/// merged report reads as one `run_closure(max_rounds = n)` call.
fn merge(pass: &mut Option<ClosureReport>, call: ClosureReport) {
    match pass {
        None => *pass = Some(call),
        Some(p) => {
            p.rounds.extend(call.rounds);
            p.wns_final = call.wns_final;
            p.tns_final = call.tns_final;
            p.converged = call.converged;
            // Re-summed in touch order, as the single call accumulates it.
            p.cost_added = p
                .rounds
                .iter()
                .flat_map(|r| &r.touched)
                .map(|t| t.cost)
                .sum();
        }
    }
}

impl Closure {
    /// One pass over chip `c`; pushes each op's latency and entry (chip
    /// and round) to `win`.
    fn pass(&mut self, c: usize, tracer: &Tracer, win: &mut Window) {
        let chip = &self.chips[c];
        let mut design = chip.pristine.clone();
        if tracer.enabled() {
            let _ = tracer.span("timing.propagate", self.next_op, 0, None, |_| {
                propagate(&design)
            });
        }
        let mut merged: Option<ClosureReport> = None;
        let mut wns = f64::NEG_INFINITY;
        loop {
            let op = self.next_op;
            let t = Instant::now();
            let call = tracer.span("timing.run_closure", op, 0, None, |_| {
                run_closure(&mut design, &ROUND)
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let call = match call {
                Ok(r) => r,
                Err(e) => {
                    self.failures
                        .push(format!("{}: run_closure failed: {e}", chip.label));
                    return;
                }
            };
            if call.rounds.is_empty() {
                break;
            }
            self.next_op += 1;
            win.entry
                .push(c * 1000 + merged.as_ref().map_or(0, |m| m.rounds.len()));
            win.lat_ms.push(ms);
            let regressed =
                call.wns_initial < wns || call.rounds.iter().any(|r| r.wns_after < r.wns_before);
            if regressed {
                self.failures
                    .push(format!("{}: WNS decreased in round {op}", chip.label));
            }
            wns = call.wns_final;
            merge(&mut merged, call);
        }
        let Some(merged) = merged else {
            self.failures
                .push(format!("{}: no closure round ran", chip.label));
            return;
        };
        let digest = digest_str(&merged.to_json());
        let expected = chip.pinned.or(self.first[c].map(|(d, _)| d));
        if expected.is_some_and(|d| d != digest) {
            self.failures.push(format!(
                "{}: pass digest {digest:016x} != expected {:016x}",
                chip.label,
                expected.unwrap_or(0)
            ));
        }
        if self.first[c].is_none() {
            self.first[c] = Some((digest, merged.rounds.len()));
            self.census[c] = Some(merged);
        }
    }
}

impl Workload for Closure {
    fn prepare(ctx: &Ctx, tracer: &Tracer) -> Result<Self, String> {
        let (count, nets) = if ctx.tiny { (1, 120) } else { (4, 2000) };
        let pinned = ctx.pins(count)?;
        let mut chips = Vec::new();
        for (c, pinned) in pinned.into_iter().enumerate() {
            let cfg = ChipConfig {
                nets,
                seed: mix(&[ctx.bank, c as u64]),
                ..ChipConfig::default()
            };
            let design = tracer.span("timing.generate_chip", 0, 0, None, |_| generate_chip(&cfg));
            let pristine = design.map_err(|e| format!("chip {c}: {e}"))?;
            chips.push(Chip {
                label: format!("chip{c}"),
                pristine,
                pinned,
            });
        }
        // Warm-up: one round on a scratch copy of the first chip.
        let mut scratch = chips[0].pristine.clone();
        run_closure(&mut scratch, &ROUND).map_err(|e| format!("warm-up: {e}"))?;
        Ok(Closure {
            first: vec![None; chips.len()],
            census: vec![None; chips.len()],
            chips,
            order: StdRng::seed_from_u64(mix(&[ctx.seed, 0xc105])),
            next_op: 0,
            failures: Vec::new(),
        })
    }

    fn window(&mut self, budget_s: f64, tracer: &Tracer) -> Window {
        let mut win = Window {
            lat_ms: Vec::new(),
            entry: Vec::new(),
            elapsed_s: 0.0,
        };
        win.elapsed_s = run_passes(budget_s, || {
            let mut order: Vec<usize> = (0..self.chips.len()).collect();
            self.order.shuffle(&mut order);
            for c in order {
                self.pass(c, tracer, &mut win);
            }
        });
        win
    }

    fn observed(&self) -> Vec<u64> {
        self.first.iter().map(|f| f.map_or(0, |(d, _)| d)).collect()
    }

    fn finish(mut self, tracer: &Tracer, m: &mut Metrics) -> Vec<String> {
        // Oracle: one uninterrupted run_closure over as many rounds must
        // reproduce each chip's pass bit for bit.
        for (chip, first) in self.chips.iter().zip(&self.first) {
            let Some((digest, rounds)) = *first else {
                continue;
            };
            let mut design = chip.pristine.clone();
            let single = run_closure(
                &mut design,
                &ClosureConfig {
                    max_rounds: rounds,
                    ..ROUND
                },
            );
            match single {
                Ok(r) if digest_str(&r.to_json()) == digest => {}
                Ok(_) => self.failures.push(format!(
                    "{}: single-call closure report differs",
                    chip.label
                )),
                Err(e) => self
                    .failures
                    .push(format!("{}: single-call closure failed: {e}", chip.label)),
            }
        }
        m.set(
            "timing.chip_gen_ms_p50",
            tracer.p50_ms("timing.generate_chip"),
        );
        m.set("timing.propagate_ms_p50", tracer.p50_ms("timing.propagate"));
        let touches = self
            .census
            .iter()
            .flatten()
            .flat_map(|r| &r.rounds)
            .flat_map(|r| &r.touched);
        let (mut touched, mut clamped, mut accepted, mut candidates) = (0u64, 0u64, 0u64, 0u64);
        for t in touches {
            touched += 1;
            clamped += u64::from(t.clamped);
            accepted += u64::from(!t.clamped && !t.infeasible);
            candidates += t.candidates;
        }
        m.set("timing.closure.nets_touched", touched as f64);
        m.set("timing.closure.nets_clamped", clamped as f64);
        m.set(
            "timing.closure.accept_ratio",
            ratio(accepted as f64, touched as f64),
        );
        m.set("timing.closure.candidates", candidates as f64);
        self.failures
    }
}
