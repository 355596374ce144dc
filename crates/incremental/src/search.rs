//! Topology co-optimization: DP-frontier-scored Steiner-topology search
//! driven entirely by structural session edits.
//!
//! Classical topology generation (crate `msrnet-steiner`) optimizes
//! wirelength; the repeater-insertion DP then makes the best of whatever
//! tree it is handed. But for multi-source nets the best *timing*
//! topology is often not the shortest one — a sink reattached closer to
//! the driving sources can beat a minimum-length attachment even though
//! it pays more wire, because the DP can buffer the longer geometry more
//! effectively. [`TopologySearch`] closes that gap: it perturbs the
//! net's Steiner topology through the typed structural edits of
//! [`IncrementalOptimizer`] and ranks every candidate by the *actual DP
//! frontier* via a scalar [`Objective`].
//!
//! The loop is deterministic and seeded, and single-threaded by
//! construction (one resident session, one candidate at a time), so the
//! outcome is independent of ambient thread counts. Two move kinds:
//!
//! * **Reattach** — detach a terminal ([`Edit::RemoveTerminal`]) and
//!   trial-attach it at the `k` best Steiner vertices under the
//!   cost-distance ranking of [`msrnet_steiner::rank_attachment_sites`]
//!   plus its original attachment; each trial is scored by recomputing
//!   the frontier and undone by an exact pure-pop removal. The best
//!   strictly improving site is kept, otherwise the terminal returns
//!   home.
//! * **Densify** — split the longest edges at their midpoint
//!   ([`Edit::AddInsertionPoint`] with `frac = 0.5`), giving the DP a
//!   new legal repeater site; kept only when the frontier score strictly
//!   improves, otherwise spliced back out bitwise.
//!
//! Because every trial is applied to the one session and undone by its
//! exact inverse, the accepted-edit trace in the [`SearchOutcome`]
//! replays from the initial net to the final net, and every
//! intermediate state along the way is a valid routed net.

use msrnet_core::{TerminalOption, TradeoffCurve};
use msrnet_geom::Point;
use msrnet_rctree::{EdgeId, TerminalId, VertexId, VertexKind};
use msrnet_rng::{Rng, SeedableRng, SplitMix64};
use msrnet_steiner::rank_attachment_sites;

use crate::{Edit, IncrementalOptimizer};

/// Scalar scoring of a trade-off curve — **lower is better** for every
/// variant, so the search minimizes uniformly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Objective {
    /// Minimum cost among frontier points whose ARD meets `max_ard`
    /// (infinite when no point qualifies): "cheapest topology that
    /// closes timing".
    MinCostAtArd {
        /// The ARD requirement, ps.
        max_ard: f64,
    },
    /// The best (smallest) ARD on the frontier, ignoring cost.
    BestArd,
    /// Negated area dominated by the frontier inside the reference box
    /// `[0, cost_ref] × [0, ard_ref]` — rewards the whole curve, not a
    /// single point.
    Hypervolume {
        /// Cost reference (points at or beyond contribute nothing).
        cost_ref: f64,
        /// ARD reference, ps.
        ard_ref: f64,
    },
}

impl Objective {
    /// Scores `curve` (lower is better; never NaN for a valid curve).
    pub fn score(&self, curve: &TradeoffCurve) -> f64 {
        match *self {
            Objective::MinCostAtArd { max_ard } => curve
                .points()
                .iter()
                .filter(|p| p.ard <= max_ard)
                .map(|p| p.cost)
                .fold(f64::INFINITY, f64::min),
            Objective::BestArd => curve.best_ard().ard,
            Objective::Hypervolume { cost_ref, ard_ref } => {
                let mut pts: Vec<(f64, f64)> = curve
                    .points()
                    .iter()
                    .filter(|p| p.cost < cost_ref && p.ard < ard_ref)
                    .map(|p| (p.cost, p.ard))
                    .collect();
                pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
                let mut hv = 0.0;
                let mut last_ard = ard_ref;
                for (cost, ard) in pts {
                    if ard < last_ard {
                        hv += (cost_ref - cost) * (last_ard - ard);
                        last_ard = ard;
                    }
                }
                -hv
            }
        }
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Objective::MinCostAtArd { max_ard } => write!(f, "min-cost:{max_ard}"),
            Objective::BestArd => write!(f, "best-ard"),
            Objective::Hypervolume { cost_ref, ard_ref } => {
                write!(f, "hypervolume:{cost_ref}:{ard_ref}")
            }
        }
    }
}

impl std::str::FromStr for Objective {
    type Err = String;

    /// Parses `best-ard`, `min-cost:<max_ard>`, or
    /// `hypervolume:<cost_ref>:<ard_ref>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "best-ard" {
            return Ok(Objective::BestArd);
        }
        let num = |x: &str, what: &str| -> Result<f64, String> {
            let v: f64 = x
                .parse()
                .map_err(|_| format!("objective: {what} must be a number, got {x:?}"))?;
            if v.is_nan() {
                return Err(format!("objective: {what} must not be NaN"));
            }
            Ok(v)
        };
        if let Some(rest) = s.strip_prefix("min-cost:") {
            return Ok(Objective::MinCostAtArd {
                max_ard: num(rest, "max ARD")?,
            });
        }
        if let Some(rest) = s.strip_prefix("hypervolume:") {
            let (c, a) = rest
                .split_once(':')
                .ok_or_else(|| "objective: hypervolume needs <cost_ref>:<ard_ref>".to_string())?;
            return Ok(Objective::Hypervolume {
                cost_ref: num(c, "cost reference")?,
                ard_ref: num(a, "ARD reference")?,
            });
        }
        Err(format!(
            "unknown objective {s:?} (expected best-ard, min-cost:<ard>, \
             or hypervolume:<cost>:<ard>)"
        ))
    }
}

/// Tuning knobs for [`TopologySearch`]. `Default` gives a small,
/// fast search; the CLI exposes every field.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchConfig {
    /// Full passes over the net (each pass = one reattach sweep plus
    /// one densify sweep). The search stops early when a pass accepts
    /// nothing.
    pub rounds: usize,
    /// Candidate attachment sites evaluated per detached terminal (the
    /// cost-distance top-`k`), in addition to the original site.
    pub neighbors: usize,
    /// Radius weight of the cost-distance ranking (see
    /// [`msrnet_steiner::rank_attachment_sites`]).
    pub radius_weight: f64,
    /// Longest edges considered for a midpoint split per densify sweep.
    pub densify_top: usize,
    /// Seed for the per-round terminal visiting order.
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            rounds: 2,
            neighbors: 4,
            radius_weight: 0.5,
            densify_top: 2,
            seed: 0,
        }
    }
}

/// Move counters for one [`TopologySearch::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Passes actually executed (≤ `SearchConfig::rounds` on early stop).
    pub rounds_run: usize,
    /// Reattachment trials scored (one per candidate site applied).
    pub reattach_trials: usize,
    /// Reattachments kept (terminal ended at a new site).
    pub reattach_accepted: usize,
    /// Midpoint splits scored.
    pub densify_trials: usize,
    /// Midpoint splits kept.
    pub densify_accepted: usize,
    /// Structural edits the session rejected during trials (skipped
    /// moves, e.g. a terminal whose removal would break the net).
    pub rejected_edits: usize,
}

/// The result of a topology search: scores, wirelengths, move counters,
/// and the accepted-edit trace that replays the initial net into the
/// final one.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The objective the search minimized.
    pub objective: Objective,
    /// Frontier score of the starting topology.
    pub initial_score: f64,
    /// Frontier score of the final topology (≤ `initial_score` up to
    /// float associativity of re-rooted identical geometry).
    pub final_score: f64,
    /// Total wirelength before, µm.
    pub initial_wirelength: f64,
    /// Total wirelength after, µm.
    pub final_wirelength: f64,
    /// Frontier size before.
    pub initial_points: usize,
    /// Frontier size after.
    pub final_points: usize,
    /// Move counters.
    pub stats: SearchStats,
    /// Every structural edit kept in the final topology, in application
    /// order. Replaying these on a fresh session over the initial net
    /// reproduces the final net; every prefix is a valid routed net.
    pub edits: Vec<Edit>,
}

impl SearchOutcome {
    /// Whether the search strictly improved its objective.
    pub fn improved(&self) -> bool {
        self.final_score < self.initial_score
    }
}

/// A seeded, deterministic topology-improvement loop over one resident
/// incremental session (see the module docs for the move set).
#[derive(Debug)]
pub struct TopologySearch {
    session: IncrementalOptimizer,
    objective: Objective,
    cfg: SearchConfig,
}

impl TopologySearch {
    /// Wraps a session for searching. The session should be freshly
    /// built over the topology to improve; its terminal menus, library,
    /// and options are used as-is by every trial.
    pub fn new(session: IncrementalOptimizer, objective: Objective, cfg: SearchConfig) -> Self {
        TopologySearch {
            session,
            objective,
            cfg,
        }
    }

    /// The underlying session (holding the current — after
    /// [`TopologySearch::run`], the final — topology).
    pub fn session(&self) -> &IncrementalOptimizer {
        &self.session
    }

    fn score(&mut self) -> (f64, usize) {
        match self.session.recompute() {
            Ok((curve, _)) => (self.objective.score(&curve), curve.len()),
            Err(_) => (f64::INFINITY, 0),
        }
    }

    /// Runs the search to completion and reports the outcome. The
    /// session keeps the final topology.
    pub fn run(&mut self) -> SearchOutcome {
        let mut rng = SplitMix64::seed_from_u64(self.cfg.seed ^ 0x0705_0CA1_5EA2_C400);
        let initial_wirelength = self.session.net().topology.total_wirelength();
        let (initial_score, initial_points) = self.score();
        let mut cur_score = initial_score;
        let mut stats = SearchStats::default();
        let mut kept: Vec<Edit> = Vec::new();

        for _ in 0..self.cfg.rounds {
            stats.rounds_run += 1;
            let accepted_before = stats.reattach_accepted + stats.densify_accepted;

            // Reattach sweep: one seeded pick per terminal slot.
            let nterms = self.session.net().terminals.len();
            for _ in 0..nterms {
                let t = TerminalId(rng.gen_range(0..nterms));
                cur_score = self.try_reattach(t, cur_score, &mut stats, &mut kept);
            }

            // Densify sweep: longest edges first, ids break ties.
            let lengths: Vec<f64> = {
                let topo = &self.session.net().topology;
                (0..topo.edge_count())
                    .map(|e| topo.length(EdgeId(e)))
                    .collect()
            };
            let mut order: Vec<usize> = (0..lengths.len()).collect();
            order.sort_by(|&a, &b| lengths[b].total_cmp(&lengths[a]).then(a.cmp(&b)));
            for e in order.into_iter().take(self.cfg.densify_top) {
                if lengths[e] <= 1.0 {
                    continue;
                }
                cur_score = self.try_densify(EdgeId(e), cur_score, &mut stats, &mut kept);
            }

            if stats.reattach_accepted + stats.densify_accepted == accepted_before {
                break;
            }
        }

        let (final_score, final_points) = self.score();
        SearchOutcome {
            objective: self.objective,
            initial_score,
            final_score,
            initial_wirelength,
            final_wirelength: self.session.net().topology.total_wirelength(),
            initial_points,
            final_points,
            stats,
            edits: kept,
        }
    }

    /// Whether detaching `t` and re-adding it at its current neighbor
    /// reproduces the current geometry: pendant off a Steiner vertex at
    /// unit scaling, derived (L1) length, default option menu. Only
    /// such terminals are worth detaching — any other would change the
    /// net even when every candidate loses.
    fn faithful_pendant(&self, t: TerminalId) -> Option<(VertexId, Point)> {
        let net = self.session.net();
        if t == self.session.root() || t.0 >= net.terminals.len() {
            return None;
        }
        let v = net.topology.terminal_vertex(t);
        let &[(nbr, e)] = net.topology.neighbors(v) else {
            return None;
        };
        if !matches!(net.topology.kind(nbr), VertexKind::Steiner) {
            return None;
        }
        let (rs, cs) = net.topology.edge_scaling(e);
        let unit: f64 = 1.0;
        if rs.to_bits() != unit.to_bits() || cs.to_bits() != unit.to_bits() {
            return None;
        }
        let pos = net.topology.position(v);
        let derived = pos.l1_distance(net.topology.position(nbr));
        if net.topology.length(e).to_bits() != derived.to_bits() {
            return None;
        }
        let term = net.terminal(t);
        if self.session.term_opts().for_terminal(t) != [TerminalOption::from_terminal(term, 0.0)] {
            return None;
        }
        Some((nbr, pos))
    }

    /// One reattachment move for terminal `t`. Returns the session's
    /// score after the move (unchanged when the move was skipped or the
    /// terminal went home).
    fn try_reattach(
        &mut self,
        t: TerminalId,
        cur_score: f64,
        stats: &mut SearchStats,
        kept: &mut Vec<Edit>,
    ) -> f64 {
        let Some((nbr, pos)) = self.faithful_pendant(t) else {
            return cur_score;
        };
        let params = *self.session.net().terminal(t);
        let root_pos = {
            let net = self.session.net();
            net.topology
                .position(net.topology.terminal_vertex(self.session.root()))
        };
        let rm = Edit::RemoveTerminal { terminal: t };
        if self.session.apply(&rm).is_err() {
            stats.rejected_edits += 1;
            return cur_score;
        }
        let remap = self.session.last_remap().unwrap_or_default();
        let home = remap.map_vertex(nbr);

        // Candidate sites: every Steiner vertex of the detached net,
        // ranked by cost-distance; the home site is always trialed so
        // "no improvement" restores the starting geometry.
        let sites: Vec<VertexId> = {
            let topo = &self.session.net().topology;
            (0..topo.vertex_count())
                .map(VertexId)
                .filter(|&v| matches!(topo.kind(v), VertexKind::Steiner))
                .collect()
        };
        let site_points: Vec<Point> = {
            let topo = &self.session.net().topology;
            sites.iter().map(|&v| topo.position(v)).collect()
        };
        let ranked = rank_attachment_sites(
            pos,
            root_pos,
            &site_points,
            self.cfg.radius_weight,
            self.cfg.neighbors,
        );
        let mut trial_sites: Vec<VertexId> = ranked.iter().map(|r| sites[r.index]).collect();
        if !trial_sites.contains(&home) {
            trial_sites.push(home);
        }

        let mut best: Option<(f64, VertexId)> = None;
        let mut home_score = f64::INFINITY;
        for &at in &trial_sites {
            let add = Edit::AddTerminal {
                at,
                x: pos.x,
                y: pos.y,
                terminal: params,
            };
            if self.session.apply(&add).is_err() {
                stats.rejected_edits += 1;
                continue;
            }
            stats.reattach_trials += 1;
            let (score, _) = self.score();
            if at == home {
                home_score = score;
            }
            if best.is_none_or(|(s, _)| score < s) {
                best = Some((score, at));
            }
            // Exact pure-pop undo: the trial terminal is last in every
            // id space it touched.
            let undo = Edit::RemoveTerminal {
                terminal: TerminalId(self.session.net().terminals.len() - 1),
            };
            self.session
                .apply(&undo)
                // msrnet-allow: panic undoing a trial attach of a leaf just appended cannot be rejected
                .expect("pure-pop undo of a trial attachment");
        }

        // Keep the winner only on strict improvement over both the
        // running score and the home re-add; otherwise go home.
        let (to, new_score) = match best {
            Some((score, at)) if at != home && score < cur_score && score < home_score => {
                stats.reattach_accepted += 1;
                (at, score)
            }
            _ => (home, if home_score.is_finite() { home_score } else { cur_score }),
        };
        let add_final = Edit::AddTerminal {
            at: to,
            x: pos.x,
            y: pos.y,
            terminal: params,
        };
        self.session
            .apply(&add_final)
            // msrnet-allow: panic the chosen site was validated by its trial application above
            .expect("re-adding the detached terminal at a trialed site");
        kept.push(rm);
        kept.push(add_final);
        new_score
    }

    /// One densify move: midpoint-split edge `e`, keep on strict score
    /// improvement, otherwise splice back bitwise.
    fn try_densify(
        &mut self,
        e: EdgeId,
        cur_score: f64,
        stats: &mut SearchStats,
        kept: &mut Vec<Edit>,
    ) -> f64 {
        let split = Edit::AddInsertionPoint { edge: e, frac: 0.5 };
        if self.session.apply(&split).is_err() {
            stats.rejected_edits += 1;
            return cur_score;
        }
        stats.densify_trials += 1;
        let (score, _) = self.score();
        if score < cur_score {
            stats.densify_accepted += 1;
            kept.push(split);
            return score;
        }
        let undo = Edit::RemoveInsertionPoint {
            vertex: VertexId(self.session.net().topology.vertex_count() - 1),
        };
        self.session
            .apply(&undo)
            // msrnet-allow: panic a frac-0.5 midpoint split always splices back bitwise
            .expect("splicing back a trial midpoint split");
        cur_score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrnet_core::{MsriOptions, TerminalOptions, WireOption};
    use msrnet_netgen::{table1, ExperimentNet};

    /// A session over a raw Steiner-routed net (no pre-seeded insertion
    /// points — the search's densify moves add their own), sized so
    /// terminals hang off Steiner hubs.
    fn search_session(seed: u64, n: usize) -> IncrementalOptimizer {
        let params = table1();
        let mut rng = SplitMix64::seed_from_u64(seed);
        let exp = ExperimentNet::random(&mut rng, n, &params).unwrap();
        let net = exp.net.clone();
        let library = vec![params.repeater(1.0), params.repeater(2.0)];
        let term_opts = TerminalOptions::defaults(&net);
        IncrementalOptimizer::new(
            net,
            TerminalId(0),
            library,
            term_opts,
            vec![WireOption::unit()],
            MsriOptions::default(),
        )
    }

    /// References derived from the starting frontier, so every objective
    /// variant is satisfiable on the instance under test.
    fn probe(session: &mut IncrementalOptimizer) -> (f64, f64) {
        let (curve, _) = session.recompute().unwrap();
        (curve.min_cost().cost, curve.best_ard().ard)
    }

    #[test]
    fn objective_strings_round_trip() {
        for obj in [
            Objective::BestArd,
            Objective::MinCostAtArd { max_ard: 350.5 },
            Objective::Hypervolume {
                cost_ref: 40.0,
                ard_ref: 900.0,
            },
        ] {
            let s = obj.to_string();
            assert_eq!(s.parse::<Objective>().unwrap(), obj, "via {s:?}");
        }
        assert!("".parse::<Objective>().is_err());
        assert!("min-cost".parse::<Objective>().is_err());
        assert!("min-cost:NaN".parse::<Objective>().is_err());
        assert!("hypervolume:3".parse::<Objective>().is_err());
        assert!("shortest".parse::<Objective>().is_err());
    }

    #[test]
    fn search_never_worsens_any_objective() {
        let mut probe_session = search_session(41, 8);
        let (min_cost, best_ard) = probe(&mut probe_session);
        let objectives = [
            Objective::BestArd,
            Objective::MinCostAtArd {
                max_ard: best_ard * 1.25,
            },
            Objective::Hypervolume {
                cost_ref: min_cost * 4.0 + 10.0,
                ard_ref: best_ard * 2.0,
            },
        ];
        for obj in objectives {
            let mut search = TopologySearch::new(
                search_session(41, 8),
                obj,
                SearchConfig {
                    rounds: 2,
                    ..SearchConfig::default()
                },
            );
            let out = search.run();
            assert!(out.initial_score.is_finite(), "{obj}: infeasible start");
            // Equality up to float associativity: a terminal re-added at
            // its home site joins in a different child order, which can
            // shift the score by ulps without changing the topology.
            let tol = 1e-9 * out.initial_score.abs().max(1.0);
            assert!(
                out.final_score <= out.initial_score + tol,
                "{obj}: worsened {} -> {}",
                out.initial_score,
                out.final_score
            );
            assert_eq!(out.improved(), out.final_score < out.initial_score);
        }
    }

    #[test]
    fn search_is_deterministic_across_thread_counts() {
        let run_in_thread = || {
            std::thread::spawn(|| {
                let mut search = TopologySearch::new(
                    search_session(77, 7),
                    Objective::BestArd,
                    SearchConfig::default(),
                );
                search.run()
            })
            .join()
            .unwrap()
        };
        let a = run_in_thread();
        // Second run shares the process with the finished first thread
        // plus this test harness's own pool — ambient parallelism has no
        // channel into the single-session loop.
        let b = run_in_thread();
        assert_eq!(a.initial_score.to_bits(), b.initial_score.to_bits());
        assert_eq!(a.final_score.to_bits(), b.final_score.to_bits());
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.edits, b.edits);
        assert_eq!(
            a.final_wirelength.to_bits(),
            b.final_wirelength.to_bits()
        );
    }

    #[test]
    fn accepted_trace_replays_to_the_final_net_through_valid_states() {
        let mut search = TopologySearch::new(
            search_session(13, 8),
            Objective::BestArd,
            SearchConfig {
                rounds: 3,
                densify_top: 3,
                ..SearchConfig::default()
            },
        );
        let out = search.run();
        assert!(!out.edits.is_empty(), "search took no moves at all");

        let mut replay = search_session(13, 8);
        for edit in &out.edits {
            replay.apply(edit).unwrap();
            // Every intermediate topology is a valid routed net.
            replay.net().check().unwrap();
            replay.recompute().unwrap();
        }
        let found = search.session().net();
        let replayed = replay.net();
        assert_eq!(
            replayed.topology.vertex_count(),
            found.topology.vertex_count()
        );
        assert_eq!(replayed.topology.edge_count(), found.topology.edge_count());
        assert_eq!(
            replayed.topology.total_wirelength().to_bits(),
            found.topology.total_wirelength().to_bits()
        );
        assert_eq!(
            out.final_wirelength.to_bits(),
            found.topology.total_wirelength().to_bits()
        );
        let (replayed_curve, _) = replay.recompute().unwrap();
        assert_eq!(
            Objective::BestArd.score(&replayed_curve).to_bits(),
            out.final_score.to_bits(),
            "replayed final frontier diverges from the search's"
        );
    }

    /// The pinned chip-scale-regime instance of the acceptance criteria:
    /// the search must strictly improve its objective over the initial
    /// Steiner route.
    #[test]
    fn search_strictly_improves_a_pinned_instance() {
        let mut search = TopologySearch::new(
            search_session(7, 10),
            Objective::BestArd,
            SearchConfig {
                rounds: 3,
                densify_top: 4,
                ..SearchConfig::default()
            },
        );
        let out = search.run();
        assert!(
            out.improved(),
            "pinned instance did not improve: {} -> {}",
            out.initial_score,
            out.final_score
        );
        assert!(out.stats.densify_accepted + out.stats.reattach_accepted > 0);
        assert_eq!(out.stats.rounds_run.min(3), out.stats.rounds_run);
    }
}
