//! Cost-vs-ARD trade-off curves — the optimizer's output.
//!
//! As in paper §I contribution 3, the dynamic program produces a *suite*
//! of solutions exhibiting a cost/performance trade-off; the "min cost
//! subject to a timing spec" answer (Problem 2.1) is a lookup on the
//! curve.

use std::fmt;

use msrnet_rctree::Assignment;

use crate::dp::MsriStats;

/// One Pareto-optimal solution: a concrete repeater assignment and driver
/// choice with its total cost and resulting ARD.
#[derive(Clone, Debug)]
pub struct TradeoffPoint {
    /// Total cost (drivers + repeaters), in equivalent 1X buffers.
    pub cost: f64,
    /// The augmented RC-diameter achieved, ps.
    pub ard: f64,
    /// The repeater placement achieving it.
    pub assignment: Assignment,
    /// Per-terminal driver option indices (into the menus the optimizer
    /// was given).
    pub terminal_choices: Vec<usize>,
    /// Per-edge wire-width option indices (all zero unless the optimizer
    /// ran with wire sizing via [`crate::optimize_with_wires`]).
    pub wire_choices: Vec<usize>,
}

/// The Pareto frontier of achievable (cost, ARD) pairs, sorted by
/// ascending cost and strictly descending ARD.
///
/// # Examples
///
/// ```
/// use msrnet_geom::Point;
/// use msrnet_core::{optimize, MsriOptions, TerminalOptions};
/// use msrnet_rctree::{Buffer, NetBuilder, Repeater, Technology, Terminal, TerminalId};
///
/// let mut b = NetBuilder::new(Technology::new(0.03, 0.00035));
/// let t0 = b.terminal(Point::new(0.0, 0.0), Terminal::bidirectional(0.0, 0.0, 0.05, 180.0));
/// let ip = b.insertion_point(Point::new(4000.0, 0.0));
/// let t1 = b.terminal(Point::new(8000.0, 0.0), Terminal::bidirectional(0.0, 0.0, 0.05, 180.0));
/// b.wire(t0, ip);
/// b.wire(ip, t1);
/// let net = b.build()?;
/// let buf = Buffer::new("1X", 50.0, 180.0, 0.05, 1.0);
/// let lib = [Repeater::from_buffer_pair("rep", &buf, &buf)];
/// let curve = optimize(&net, TerminalId(0), &lib,
///     &TerminalOptions::defaults(&net), &MsriOptions::default())?;
///
/// // Min-cost solution meets a loose spec; a tight spec needs hardware.
/// let loose = curve.min_cost_meeting(f64::INFINITY).expect("feasible");
/// assert_eq!(loose.cost, curve.min_cost().cost);
/// let tight = curve.min_cost_meeting(curve.best_ard().ard);
/// assert!(tight.is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct TradeoffCurve {
    points: Vec<TradeoffPoint>,
    stats: MsriStats,
}

impl TradeoffCurve {
    /// Wraps a Pareto frontier (ascending cost, descending ARD).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `points` is empty or not a strictly
    /// improving frontier.
    pub(crate) fn new(points: Vec<TradeoffPoint>, stats: MsriStats) -> Self {
        debug_assert!(!points.is_empty());
        debug_assert!(points
            .windows(2)
            .all(|w| w[0].cost <= w[1].cost && w[0].ard > w[1].ard));
        TradeoffCurve { points, stats }
    }

    /// All frontier points, cheapest first.
    pub fn points(&self) -> &[TradeoffPoint] {
        &self.points
    }

    /// The cheapest solution (typically repeater-free).
    pub fn min_cost(&self) -> &TradeoffPoint {
        &self.points[0]
    }

    /// The fastest solution (minimum ARD, maximum cost on the frontier).
    pub fn best_ard(&self) -> &TradeoffPoint {
        // msrnet-allow: panic TradeoffCurve construction rejects empty point sets
        self.points.last().expect("curve is never empty")
    }

    /// The cheapest solution with `ARD ≤ spec` — the answer to paper
    /// Problem 2.1. Returns `None` when the spec is unachievable.
    pub fn min_cost_meeting(&self, spec: f64) -> Option<&TradeoffPoint> {
        self.points.iter().find(|p| p.ard <= spec)
    }

    /// Optimizer counters (for the pruning-strategy ablation).
    pub fn stats(&self) -> MsriStats {
        self.stats
    }

    /// The knee of the frontier: the point farthest (in normalized cost ×
    /// normalized ARD space) below the straight line joining the
    /// cheapest and fastest solutions — the classic "best value"
    /// heuristic when no hard spec is given.
    ///
    /// Returns the single point when the frontier is degenerate.
    pub fn knee(&self) -> &TradeoffPoint {
        if self.points.len() <= 2 {
            return &self.points[0];
        }
        let first = &self.points[0];
        // msrnet-allow: panic the len() <= 2 guard above ensures at least three points
        let last = self.points.last().expect("nonempty");
        let dc = (last.cost - first.cost).max(1e-12);
        let da = (first.ard - last.ard).max(1e-12);
        let mut best = 0;
        let mut best_gap = f64::NEG_INFINITY;
        for (i, p) in self.points.iter().enumerate() {
            // Normalized coordinates: x goes 0→1 with cost, y 1→0 with
            // ARD; the chord is y = 1 − x, so the gap below it is
            // (1 − x) − y.
            let x = (p.cost - first.cost) / dc;
            let y = (p.ard - last.ard) / da;
            let gap = (1.0 - x) - y;
            if gap > best_gap {
                best_gap = gap;
                best = i;
            }
        }
        &self.points[best]
    }

    /// Number of frontier points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// A frontier is never empty; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over the frontier points, cheapest first.
    pub fn iter(&self) -> std::slice::Iter<'_, TradeoffPoint> {
        self.points.iter()
    }

    /// The index of the first point at which `self` and `other` are not
    /// bit-identical — cost and ARD bit patterns (so `-0.0 ≠ 0.0`),
    /// assignment, terminal choices and wire choices — or `None` when
    /// the curves are identical. When one curve is a prefix of the
    /// other, they differ at the shorter one's length.
    pub fn first_bit_difference(&self, other: &TradeoffCurve) -> Option<usize> {
        let differs = self.points.iter().zip(&other.points).position(|(p, q)| {
            p.cost.to_bits() != q.cost.to_bits()
                || p.ard.to_bits() != q.ard.to_bits()
                || p.assignment != q.assignment
                || p.terminal_choices != q.terminal_choices
                || p.wire_choices != q.wire_choices
        });
        differs.or_else(|| (self.len() != other.len()).then_some(self.len().min(other.len())))
    }
}

impl<'a> IntoIterator for &'a TradeoffCurve {
    type Item = &'a TradeoffPoint;
    type IntoIter = std::slice::Iter<'a, TradeoffPoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

impl fmt::Display for TradeoffCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cost      ARD(ps)   repeaters")?;
        for p in &self.points {
            writeln!(
                f,
                "{:<9.1} {:<9.1} {}",
                p.cost,
                p.ard,
                p.assignment.placed_count()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimize, MsriOptions, TerminalOptions};
    use msrnet_geom::Point;
    use msrnet_rctree::{Buffer, NetBuilder, Repeater, Technology, Terminal, TerminalId};

    fn chain_curve(points: usize) -> TradeoffCurve {
        let mut b = NetBuilder::new(Technology::new(0.03, 0.00035));
        let term = || Terminal::bidirectional(0.0, 0.0, 0.05, 180.0);
        let t0 = b.terminal(Point::new(0.0, 0.0), term());
        let mut prev = t0;
        for i in 1..=points {
            let ip = b.insertion_point(Point::new(
                12_000.0 * i as f64 / (points + 1) as f64,
                0.0,
            ));
            b.wire(prev, ip);
            prev = ip;
        }
        let t1 = b.terminal(Point::new(12_000.0, 0.0), term());
        b.wire(prev, t1);
        let net = b.build().unwrap();
        let buf = Buffer::new("1X", 50.0, 180.0, 0.05, 1.0);
        let lib = [Repeater::from_buffer_pair("rep", &buf, &buf)];
        optimize(
            &net,
            TerminalId(0),
            &lib,
            &TerminalOptions::defaults(&net),
            &MsriOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn knee_lies_strictly_inside_long_frontiers() {
        let curve = chain_curve(6);
        assert!(curve.len() >= 4, "want a real frontier");
        let knee = curve.knee();
        // The knee is neither the cheapest nor the fastest end on a
        // convex frontier of diminishing returns.
        assert!(knee.cost > curve.min_cost().cost);
        assert!(knee.cost < curve.best_ard().cost);
        // And it is an actual frontier point.
        assert!(curve
            .points()
            .iter()
            .any(|p| p.cost == knee.cost && p.ard == knee.ard));
    }

    #[test]
    fn knee_of_degenerate_frontier_is_the_point() {
        let curve = chain_curve(1);
        let knee = curve.knee();
        assert!(curve
            .points()
            .iter()
            .any(|p| p.cost == knee.cost && p.ard == knee.ard));
    }

    #[test]
    fn first_bit_difference_names_the_first_differing_point() {
        let long = chain_curve(6);
        assert_eq!(long.first_bit_difference(&chain_curve(6)), None);
        let mut moved = long.clone();
        moved.points[2].ard = -moved.points[2].ard;
        assert_eq!(long.first_bit_difference(&moved), Some(2));
        let short = TradeoffCurve::new(long.points[..3].to_vec(), long.stats());
        assert_eq!(long.first_bit_difference(&short), Some(3));
        assert_eq!(short.first_bit_difference(&long), Some(3));
    }

    #[test]
    fn iteration_and_indexing() {
        let curve = chain_curve(3);
        let collected: Vec<f64> = (&curve).into_iter().map(|p| p.cost).collect();
        assert_eq!(collected.len(), curve.len());
        assert!(!curve.is_empty());
        assert!(format!("{curve}").contains("ARD"));
    }
}
