use std::fmt;

use crate::interval::normalize_spans;
use crate::{IntervalSet, Segment, EPS};

/// A piece-wise linear function on a finite union of closed intervals.
///
/// This is the paper's representation of the two capacitance-dependent
/// solution characteristics (arrival time `Y(c_E)` and internal diameter
/// `D(c_E)`, §IV-B). Segments are sorted and non-overlapping; **gaps are
/// undefined regions** (conceptually `+∞`: the solution is dominated
/// there). Segment values may be `-∞` (no internal source).
///
/// All operations are linear in the number of segments involved, matching
/// the paper's claim for the primitives of Eq. 3.
///
/// # Examples
///
/// ```
/// use msrnet_pwl::Pwl;
///
/// let f = Pwl::linear(5.0, 2.0, 0.0, 10.0); // 5 + 2x on [0, 10]
/// let g = f.shifted_arg(3.0);               // g(x) = f(x + 3) on [-3, 7]
/// assert_eq!(g.eval(0.0), Some(11.0));
/// let h = g.clamp_domain(0.0, 7.0).add_linear(1.0, 0.5);
/// assert_eq!(h.eval(2.0), Some(f.eval(5.0).unwrap() + 1.0 + 0.5 * 2.0));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pwl {
    segs: Vec<Segment>,
}

impl Pwl {
    /// The everywhere-undefined function.
    pub fn empty() -> Self {
        Pwl { segs: Vec::new() }
    }

    /// The constant function `y` on `[lo, hi]`.
    ///
    /// `y` may be `-∞`; `+∞` is represented by [`Pwl::empty`] instead.
    pub fn constant(y: f64, lo: f64, hi: f64) -> Self {
        Pwl {
            segs: vec![Segment::new(lo, hi, y, 0.0)],
        }
    }

    /// The function `y_at_lo + slope · (x − lo)` on `[lo, hi]`.
    pub fn linear(y_at_lo: f64, slope: f64, lo: f64, hi: f64) -> Self {
        Pwl {
            segs: vec![Segment::new(lo, hi, y_at_lo, slope)],
        }
    }

    /// The constant `-∞` on `[lo, hi]` — "no source in this subtree yet".
    pub fn neg_inf(lo: f64, hi: f64) -> Self {
        Pwl::constant(f64::NEG_INFINITY, lo, hi)
    }

    /// Builds a function from segments, sorting, validating disjointness,
    /// and coalescing collinear neighbors.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if two segments overlap by more than [`EPS`].
    pub fn from_segments(mut segs: Vec<Segment>) -> Self {
        normalize_segments(&mut segs);
        Pwl { segs }
    }

    /// The segments of the function, sorted by domain.
    pub fn segments(&self) -> &[Segment] {
        &self.segs
    }

    /// Whether the function is undefined everywhere.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Appends the domain's normalized spans (sorted, disjoint, merged
    /// within [`EPS`]) to `out`.
    pub(crate) fn push_domain(&self, out: &mut Vec<(f64, f64)>) {
        let start = out.len();
        out.extend(self.segs.iter().map(|s| (s.x0, s.x1)));
        normalize_spans(out, start);
    }

    /// Evaluates the function at `x`, or `None` if `x` is in a gap.
    ///
    /// Boundary points are included with an [`EPS`] tolerance so that
    /// evaluating exactly at a clamped domain edge is robust.
    pub fn eval(&self, x: f64) -> Option<f64> {
        // Segments are sorted by x0; find the last with x0 <= x + EPS.
        let idx = self.segs.partition_point(|s| s.x0 <= x + EPS);
        if idx == 0 {
            return None;
        }
        let s = &self.segs[idx - 1];
        if x <= s.x1 + EPS {
            Some(s.value_at(x.clamp(s.x0, s.x1)))
        } else {
            None
        }
    }

    /// Adds the scalar `c` to the function (paper's *AddScalar*).
    ///
    /// Adding to a `-∞` segment leaves it `-∞`.
    #[must_use]
    pub fn add_scalar(&self, c: f64) -> Pwl {
        debug_assert!(c.is_finite() || c == f64::NEG_INFINITY);
        let segs = self
            .segs
            .iter()
            .map(|s| Segment::new(s.x0, s.x1, s.y0 + c, s.slope))
            .collect();
        Pwl { segs }
    }

    /// Adds the line `c0 + slope·x` to the function (paper's *AddLinear*;
    /// used when a wire of resistance `R_w` is traversed: the arrival
    /// gains `R_w · (C_w/2 + c_E)`).
    #[must_use]
    pub fn add_linear(&self, c0: f64, slope: f64) -> Pwl {
        let segs = self
            .segs
            .iter()
            .map(|s| {
                if s.y0 == f64::NEG_INFINITY {
                    *s
                } else {
                    Segment::new(s.x0, s.x1, s.y0 + c0 + slope * s.x0, s.slope + slope)
                }
            })
            .collect();
        Pwl { segs }
    }

    /// Argument shift: returns `g` with `g(x) = f(x + dx)` (paper's
    /// *Shift*; adding capacitance `C` beneath a subtree means its old
    /// characteristic is consulted at `c_E + C`).
    #[must_use]
    pub fn shifted_arg(&self, dx: f64) -> Pwl {
        let segs = self
            .segs
            .iter()
            .map(|s| Segment::new(s.x0 - dx, s.x1 - dx, s.y0, s.slope))
            .collect();
        Pwl { segs }
    }

    /// Restricts the domain to `[lo, hi]`.
    #[must_use]
    pub fn clamp_domain(&self, lo: f64, hi: f64) -> Pwl {
        let segs = self
            .segs
            .iter()
            .filter_map(|s| s.restricted(lo, hi))
            .collect();
        let mut pwl = Pwl { segs };
        pwl.coalesce();
        pwl
    }

    /// Restricts the domain to an arbitrary interval set (used when MFS
    /// pruning invalidates regions of a solution).
    #[must_use]
    pub fn restrict(&self, keep: &IntervalSet) -> Pwl {
        let mut segs = Vec::with_capacity(self.segs.len());
        restrict_into(&self.segs, keep.spans(), &mut segs);
        Pwl { segs }
    }

    /// [`Pwl::restrict`] inside this function's own buffer: the segments
    /// are copied to `src`, and the restriction is written back over them.
    pub(crate) fn restrict_in_place(&mut self, keep: &[(f64, f64)], src: &mut Vec<Segment>) {
        src.clear();
        src.extend_from_slice(&self.segs);
        self.segs.clear();
        restrict_into(src, keep, &mut self.segs);
    }

    /// Pointwise maximum (paper's *Max*; selects the critical source).
    ///
    /// The result is defined exactly where **both** inputs are defined:
    /// an undefined (pruned / `+∞`) side makes the maximum undefined.
    #[must_use]
    pub fn max(&self, other: &Pwl) -> Pwl {
        let mut out: Vec<Segment> = Vec::with_capacity(self.segs.len() + other.segs.len());
        for (lo, hi, a, b) in zip_cells(self, other) {
            let ya0 = a.value_at(lo);
            let yb0 = b.value_at(lo);
            if ya0 == f64::NEG_INFINITY {
                out.push(Segment::new(lo, hi, yb0, b.slope));
                continue;
            }
            if yb0 == f64::NEG_INFINITY {
                out.push(Segment::new(lo, hi, ya0, a.slope));
                continue;
            }
            let dy0 = ya0 - yb0;
            let ds = a.slope - b.slope;
            // Crossing point of the two lines inside the cell, if any.
            let cross = if ds.abs() > EPS {
                let x = lo - dy0 / ds;
                (x > lo + EPS && x < hi - EPS).then_some(x)
            } else {
                None
            };
            match cross {
                Some(x) => {
                    // One line wins before x, the other after.
                    let (first, second) = if dy0 > 0.0 { (a, b) } else { (b, a) };
                    out.push(Segment::new(lo, x, first.value_at(lo), first.slope));
                    out.push(Segment::new(x, hi, second.value_at(x), second.slope));
                }
                None => {
                    let mid = 0.5 * (lo + hi);
                    let win = if a.value_at(mid) >= b.value_at(mid) { a } else { b };
                    out.push(Segment::new(lo, hi, win.value_at(lo), win.slope));
                }
            }
        }
        Pwl::from_segments(out)
    }

    /// Pointwise minimum; defined exactly where both inputs are defined.
    ///
    /// Not used by the maximizing DP itself, but the natural dual of
    /// [`Pwl::max`] for clients analyzing best-case envelopes.
    #[must_use]
    pub fn min(&self, other: &Pwl) -> Pwl {
        let mut out: Vec<Segment> = Vec::with_capacity(self.segs.len() + other.segs.len());
        for (lo, hi, a, b) in zip_cells(self, other) {
            let ya0 = a.value_at(lo);
            let yb0 = b.value_at(lo);
            if ya0 == f64::NEG_INFINITY || yb0 == f64::NEG_INFINITY {
                out.push(Segment::new(lo, hi, f64::NEG_INFINITY, 0.0));
                continue;
            }
            let dy0 = ya0 - yb0;
            let ds = a.slope - b.slope;
            let cross = if ds.abs() > EPS {
                let x = lo - dy0 / ds;
                (x > lo + EPS && x < hi - EPS).then_some(x)
            } else {
                None
            };
            match cross {
                Some(x) => {
                    let (first, second) = if dy0 < 0.0 { (a, b) } else { (b, a) };
                    out.push(Segment::new(lo, x, first.value_at(lo), first.slope));
                    out.push(Segment::new(x, hi, second.value_at(x), second.slope));
                }
                None => {
                    let mid = 0.5 * (lo + hi);
                    let win = if a.value_at(mid) <= b.value_at(mid) { a } else { b };
                    out.push(Segment::new(lo, hi, win.value_at(lo), win.slope));
                }
            }
        }
        Pwl::from_segments(out)
    }

    /// The region `{x ∈ dom(self) ∩ dom(other) : self(x) ≤ other(x)}`.
    ///
    /// This is the primitive behind MFS pruning: the sub-level comparison
    /// of two solution characteristics.
    pub fn le_regions(&self, other: &Pwl) -> IntervalSet {
        let mut spans = Vec::new();
        self.push_le_regions(other, &mut spans);
        IntervalSet::from_raw(spans)
    }

    /// Appends the normalized spans of [`Pwl::le_regions`] to `out`.
    pub(crate) fn push_le_regions(&self, other: &Pwl, out: &mut Vec<(f64, f64)>) {
        let start = out.len();
        for (lo, hi, a, b) in zip_cells(self, other) {
            let ya0 = a.value_at(lo);
            let yb0 = b.value_at(lo);
            if ya0 == f64::NEG_INFINITY {
                out.push((lo, hi));
                continue;
            }
            if yb0 == f64::NEG_INFINITY {
                continue;
            }
            let dy0 = ya0 - yb0;
            let ds = a.slope - b.slope;
            if ds.abs() <= EPS {
                if dy0 <= EPS {
                    out.push((lo, hi));
                }
            } else {
                let x = lo - dy0 / ds;
                if ds > 0.0 {
                    // a − b increasing: a ≤ b for x ≤ crossing.
                    let end = x.min(hi);
                    if end >= lo {
                        out.push((lo, end));
                    }
                } else {
                    let start = x.max(lo);
                    if start <= hi {
                        out.push((start, hi));
                    }
                }
            }
        }
        normalize_spans(out, start);
    }

    /// Smallest value attained over the whole domain, or `None` if empty.
    ///
    /// A linear piece attains its extremes at segment endpoints.
    pub fn min_value(&self) -> Option<f64> {
        self.segs
            .iter()
            .map(|s| s.y0.min(s.value_at_end()))
            .min_by(f64::total_cmp)
    }

    /// Largest value attained over the whole domain, or `None` if empty.
    pub fn max_value(&self) -> Option<f64> {
        self.segs
            .iter()
            .map(|s| s.y0.max(s.value_at_end()))
            .max_by(f64::total_cmp)
    }

    /// Samples the function at `n ≥ 2` evenly spaced points across its
    /// domain span, skipping gaps — convenient for plotting and reports.
    ///
    /// Returns an empty vector for an empty function.
    pub fn sample(&self, n: usize) -> Vec<(f64, f64)> {
        let (Some(first), Some(last)) = (self.segs.first(), self.segs.last()) else {
            return Vec::new();
        };
        let n = n.max(2);
        let lo = first.x0;
        let hi = last.x1;
        (0..n)
            .filter_map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                self.eval(x).map(|y| (x, y))
            })
            .collect()
    }

    /// Merges adjacent collinear segments (within [`EPS`]) in place.
    fn coalesce(&mut self) {
        coalesce_in_place(&mut self.segs);
    }

    /// Consumes the function, returning its segment storage — lets an
    /// arena reclaim the allocation (see [`crate::SegmentArena`]).
    pub fn into_segments(self) -> Vec<Segment> {
        self.segs
    }

    /// Wraps a segment vector verbatim — caller guarantees sortedness and
    /// disjointness. Used by the arena ops that mirror non-coalescing
    /// primitives ([`Pwl::add_scalar`]-shaped maps).
    pub(crate) fn from_raw(segs: Vec<Segment>) -> Pwl {
        Pwl { segs }
    }

    /// Like [`Pwl::from_segments`] minus the sort: validates (debug),
    /// drops inverted segments and coalesces, for producers that emit
    /// segments already in domain order.
    pub(crate) fn from_sorted_segments(mut segs: Vec<Segment>) -> Pwl {
        segs.retain(|s| s.x1 >= s.x0);
        for w in segs.windows(2) {
            debug_assert!(
                w[1].x0 >= w[0].x1 - EPS,
                "overlapping segments: {} and {}",
                w[0],
                w[1]
            );
        }
        coalesce_in_place(&mut segs);
        Pwl { segs }
    }
}

/// Writes the restriction of `src` to the sorted, disjoint spans `keep`
/// into the empty `out`, normalized: the one implementation behind
/// [`Pwl::restrict`] and the MFS's in-place restriction.
fn restrict_into(src: &[Segment], keep: &[(f64, f64)], out: &mut Vec<Segment>) {
    for &(lo, hi) in keep {
        for s in src {
            if s.x0 > hi {
                break;
            }
            if let Some(r) = s.restricted(lo, hi) {
                if r.x1 > r.x0 {
                    out.push(r);
                }
            }
        }
    }
    normalize_segments(out);
}

/// Drops inverted segments, sorts by `x0`, validates disjointness (debug)
/// and coalesces: the normalization behind [`Pwl::from_segments`] and
/// [`Pwl::restrict`].
fn normalize_segments(segs: &mut Vec<Segment>) {
    segs.retain(|s| s.x1 >= s.x0);
    segs.sort_by(|a, b| a.x0.total_cmp(&b.x0));
    for w in segs.windows(2) {
        debug_assert!(
            w[1].x0 >= w[0].x1 - EPS,
            "overlapping segments: {} and {}",
            w[0],
            w[1]
        );
    }
    coalesce_in_place(segs);
}

/// Allocation-free coalesce: merges adjacent collinear segments (within
/// [`EPS`]) by two-pointer compaction.
pub(crate) fn coalesce_in_place(segs: &mut Vec<Segment>) {
    if segs.len() < 2 {
        return;
    }
    let mut w = 0usize;
    for r in 1..segs.len() {
        let Some(&s) = segs.get(r) else { break };
        match segs.get_mut(w) {
            Some(cur) if cur.joins(&s, EPS) => cur.x1 = s.x1,
            _ => {
                w += 1;
                if let Some(slot) = segs.get_mut(w) {
                    *slot = s;
                }
            }
        }
    }
    segs.truncate(w + 1);
}

/// The upper envelope (pointwise max) of many functions.
///
/// Defined where **all** inputs are defined; returns [`Pwl::empty`] for an
/// empty input slice.
///
/// # Examples
///
/// ```
/// use msrnet_pwl::{upper_envelope, Pwl};
///
/// let fs = [
///     Pwl::linear(0.0, 1.0, 0.0, 10.0),
///     Pwl::linear(5.0, 0.0, 0.0, 10.0),
/// ];
/// let env = upper_envelope(&fs);
/// assert_eq!(env.eval(2.0), Some(5.0));
/// assert_eq!(env.eval(8.0), Some(8.0));
/// ```
pub fn upper_envelope(fs: &[Pwl]) -> Pwl {
    let mut it = fs.iter();
    let Some(first) = it.next() else {
        return Pwl::empty();
    };
    it.fold(first.clone(), |acc, f| acc.max(f))
}

/// The lower envelope (pointwise min) of many functions; defined where
/// **all** inputs are defined. Dual of [`upper_envelope`].
pub fn lower_envelope(fs: &[Pwl]) -> Pwl {
    let mut it = fs.iter();
    let Some(first) = it.next() else {
        return Pwl::empty();
    };
    it.fold(first.clone(), |acc, f| acc.min(f))
}

/// Sweeps the common refinement of the two functions' domains, yielding
/// `(lo, hi, seg_of_a, seg_of_b)` for every maximal cell where both are
/// defined by single segments. Zero-width cells are skipped.
pub(crate) fn zip_cells<'a>(
    a: &'a Pwl,
    b: &'a Pwl,
) -> impl Iterator<Item = (f64, f64, Segment, Segment)> + 'a {
    let mut i = 0;
    let mut j = 0;
    std::iter::from_fn(move || {
        while i < a.segs.len() && j < b.segs.len() {
            let sa = a.segs[i];
            let sb = b.segs[j];
            let lo = sa.x0.max(sb.x0);
            let hi = sa.x1.min(sb.x1);
            if sa.x1 <= sb.x1 {
                i += 1;
            } else {
                j += 1;
            }
            if hi > lo {
                return Some((lo, hi, sa, sb));
            }
        }
        None
    })
}

impl fmt::Display for Pwl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.segs.is_empty() {
            return write!(f, "⊥ (undefined)");
        }
        for (i, s) in self.segs.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_inside_outside_and_gaps() {
        let f = Pwl::from_segments(vec![
            Segment::new(0.0, 1.0, 0.0, 1.0),
            Segment::new(2.0, 3.0, 5.0, -1.0),
        ]);
        assert_eq!(f.eval(0.5), Some(0.5));
        assert_eq!(f.eval(1.5), None);
        assert_eq!(f.eval(2.5), Some(4.5));
        assert_eq!(f.eval(-1.0), None);
        assert_eq!(f.eval(4.0), None);
    }

    #[test]
    fn eval_at_boundaries_with_tolerance() {
        let f = Pwl::linear(1.0, 2.0, 0.0, 4.0);
        assert_eq!(f.eval(0.0), Some(1.0));
        assert_eq!(f.eval(4.0), Some(9.0));
        assert_eq!(f.eval(4.0 + 1e-12), Some(9.0));
    }

    #[test]
    fn add_scalar_and_linear() {
        let f = Pwl::linear(2.0, 3.0, 1.0, 5.0);
        let g = f.add_scalar(10.0);
        assert_eq!(g.eval(1.0), Some(12.0));
        let h = f.add_linear(1.0, 2.0); // f(x) + 1 + 2x
        assert_eq!(h.eval(2.0), Some(2.0 + 3.0 + 1.0 + 4.0));
    }

    #[test]
    fn add_linear_preserves_neg_inf() {
        let f = Pwl::neg_inf(0.0, 5.0);
        let g = f.add_linear(100.0, 7.0);
        assert_eq!(g.eval(3.0), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn shift_arg_moves_domain() {
        let f = Pwl::linear(0.0, 1.0, 0.0, 10.0);
        let g = f.shifted_arg(4.0); // g(x) = f(x+4) on [-4, 6]
        assert_eq!(g.eval(-4.0), Some(0.0));
        assert_eq!(g.eval(0.0), Some(4.0));
        assert_eq!(g.eval(6.0), Some(10.0));
        assert_eq!(g.eval(7.0), None);
    }

    #[test]
    fn max_of_crossing_lines_has_breakpoint() {
        // f = x, g = 10 − x on [0, 10]; cross at 5.
        let f = Pwl::linear(0.0, 1.0, 0.0, 10.0);
        let g = Pwl::linear(10.0, -1.0, 0.0, 10.0);
        let m = f.max(&g);
        assert_eq!(m.segments().len(), 2);
        assert_eq!(m.eval(0.0), Some(10.0));
        assert_eq!(m.eval(5.0), Some(5.0));
        assert_eq!(m.eval(10.0), Some(10.0));
    }

    #[test]
    fn max_defined_only_on_common_domain() {
        let f = Pwl::linear(0.0, 0.0, 0.0, 4.0);
        let g = Pwl::linear(1.0, 0.0, 2.0, 8.0);
        let m = f.max(&g);
        assert_eq!(m.eval(1.0), None);
        assert_eq!(m.eval(3.0), Some(1.0));
        assert_eq!(m.eval(5.0), None);
    }

    #[test]
    fn max_with_neg_inf_side_returns_other() {
        let f = Pwl::neg_inf(0.0, 10.0);
        let g = Pwl::linear(1.0, 2.0, 0.0, 10.0);
        let m = f.max(&g);
        assert_eq!(m.eval(3.0), Some(7.0));
        let m2 = g.max(&f);
        assert_eq!(m2.eval(3.0), Some(7.0));
    }

    #[test]
    fn max_of_two_neg_inf_is_neg_inf() {
        let f = Pwl::neg_inf(0.0, 5.0);
        let m = f.max(&f.clone());
        assert_eq!(m.eval(2.0), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn le_regions_of_crossing_lines() {
        let f = Pwl::linear(0.0, 1.0, 0.0, 10.0); // x
        let g = Pwl::constant(5.0, 0.0, 10.0);
        let r = f.le_regions(&g); // x ≤ 5
        assert!(r.contains(4.0));
        assert!(!r.contains(6.0));
        let r2 = g.le_regions(&f); // 5 ≤ x
        assert!(r2.contains(6.0));
        assert!(!r2.contains(4.0));
    }

    #[test]
    fn le_regions_neg_inf_always_below() {
        let f = Pwl::neg_inf(0.0, 10.0);
        let g = Pwl::constant(-1000.0, 0.0, 10.0);
        assert_eq!(f.le_regions(&g).measure(), 10.0);
        assert!(g.le_regions(&f).is_empty());
    }

    #[test]
    fn restrict_to_interval_set() {
        let f = Pwl::linear(0.0, 1.0, 0.0, 10.0);
        let keep = IntervalSet::from_spans([(1.0, 2.0), (8.0, 9.0)]);
        let g = f.restrict(&keep);
        assert_eq!(g.eval(1.5), Some(1.5));
        assert_eq!(g.eval(5.0), None);
        assert_eq!(g.eval(8.5), Some(8.5));
    }

    #[test]
    fn coalesce_merges_collinear() {
        let f = Pwl::from_segments(vec![
            Segment::new(0.0, 2.0, 0.0, 1.0),
            Segment::new(2.0, 5.0, 2.0, 1.0),
        ]);
        assert_eq!(f.segments().len(), 1);
    }

    #[test]
    fn min_max_values() {
        let f = Pwl::from_segments(vec![
            Segment::new(0.0, 2.0, 3.0, -1.0),
            Segment::new(2.0, 4.0, 1.0, 2.0),
        ]);
        assert_eq!(f.min_value(), Some(1.0));
        assert_eq!(f.max_value(), Some(5.0));
        assert_eq!(Pwl::empty().min_value(), None);
    }

    #[test]
    fn envelope_of_three() {
        let fs = [
            Pwl::linear(0.0, 1.0, 0.0, 10.0),
            Pwl::linear(10.0, -1.0, 0.0, 10.0),
            Pwl::constant(6.0, 0.0, 10.0),
        ];
        let env = upper_envelope(&fs);
        for x in [0.0, 2.5, 5.0, 7.5, 10.0] {
            let expect = fs
                .iter()
                .map(|f| f.eval(x).unwrap())
                .fold(f64::NEG_INFINITY, f64::max);
            assert!((env.eval(x).unwrap() - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn sample_covers_domain_and_skips_gaps() {
        let f = Pwl::from_segments(vec![
            Segment::new(0.0, 1.0, 0.0, 1.0),
            Segment::new(3.0, 4.0, 5.0, 0.0),
        ]);
        let pts = f.sample(9);
        // 9 samples over [0, 4]: x = 0, 0.5, …, 4; the gap (1, 3) drops
        // three of them.
        assert!(pts.len() < 9);
        for (x, y) in &pts {
            assert_eq!(f.eval(*x), Some(*y));
        }
        assert_eq!(pts.first().map(|p| p.0), Some(0.0));
        assert_eq!(pts.last().map(|p| p.0), Some(4.0));
        assert!(Pwl::empty().sample(5).is_empty());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Pwl::empty()), "⊥ (undefined)");
        assert!(format!("{}", Pwl::constant(1.0, 0.0, 1.0)).contains("↦"));
    }
}
