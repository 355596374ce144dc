use std::fmt;

use crate::EPS;

/// A finite union of disjoint closed intervals on the real line.
///
/// `IntervalSet` tracks the *validity domain* of a dynamic-programming
/// subsolution: the set of external-capacitance values for which the
/// solution has not been proven suboptimal. Dominance pruning removes
/// regions with [`IntervalSet::subtract`]; combining subtrees intersects
/// domains with [`IntervalSet::intersect`].
///
/// Intervals are kept sorted, disjoint, and separated by more than [`EPS`]
/// (closer intervals are coalesced).
///
/// # Examples
///
/// ```
/// use msrnet_pwl::IntervalSet;
///
/// let a = IntervalSet::from_interval(0.0, 10.0);
/// let b = a.subtract(&IntervalSet::from_interval(3.0, 5.0));
/// assert!(b.contains(2.0));
/// assert!(!b.contains(4.0));
/// assert!(b.contains(7.0));
/// assert_eq!(b.measure(), 8.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IntervalSet {
    // Sorted, pairwise-disjoint, each with lo <= hi.
    spans: Vec<(f64, f64)>,
}

impl IntervalSet {
    /// The empty set.
    pub fn empty() -> Self {
        IntervalSet { spans: Vec::new() }
    }

    /// A single interval `[lo, hi]`.
    ///
    /// Returns the empty set if `lo > hi`.
    pub fn from_interval(lo: f64, hi: f64) -> Self {
        if lo > hi {
            IntervalSet::empty()
        } else {
            IntervalSet {
                spans: vec![(lo, hi)],
            }
        }
    }

    /// Builds a set from raw spans, normalizing order and overlap.
    ///
    /// Spans with `lo > hi` are dropped; overlapping or near-touching
    /// (within [`EPS`]) spans are merged.
    pub fn from_spans<I: IntoIterator<Item = (f64, f64)>>(spans: I) -> Self {
        let mut v: Vec<(f64, f64)> = spans.into_iter().collect();
        normalize_spans(&mut v, 0);
        IntervalSet { spans: v }
    }

    /// Wraps spans that are already sorted and disjoint.
    pub(crate) fn from_raw(spans: Vec<(f64, f64)>) -> Self {
        IntervalSet { spans }
    }

    /// Replaces the spans with `spans` (already sorted and disjoint),
    /// keeping this set's allocation.
    pub(crate) fn assign(&mut self, spans: &[(f64, f64)]) {
        self.spans.clear();
        self.spans.extend_from_slice(spans);
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The disjoint spans, sorted by lower endpoint.
    pub fn spans(&self) -> &[(f64, f64)] {
        &self.spans
    }

    /// Whether `x` lies in the set (inclusive endpoints).
    pub fn contains(&self, x: f64) -> bool {
        self.spans.iter().any(|&(lo, hi)| x >= lo && x <= hi)
    }

    /// Total length of all spans.
    pub fn measure(&self) -> f64 {
        self.spans.iter().map(|&(lo, hi)| hi - lo).sum()
    }

    /// Smallest element, if any.
    pub fn min(&self) -> Option<f64> {
        self.spans.first().map(|&(lo, _)| lo)
    }

    /// Largest element, if any.
    pub fn max(&self) -> Option<f64> {
        self.spans.last().map(|&(_, hi)| hi)
    }

    /// Set union.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        IntervalSet::from_spans(self.spans.iter().chain(other.spans.iter()).copied())
    }

    /// Set intersection.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        intersect_spans(&self.spans, &other.spans, |s| out.push(s));
        IntervalSet { spans: out }
    }

    /// Set difference `self \ other`.
    ///
    /// Removals thinner than [`EPS`] may leave degenerate slivers; slivers
    /// shorter than `EPS` are discarded so that pruning makes progress.
    pub fn subtract(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        subtract_spans(&self.spans, &other.spans, |s| out.push(s));
        IntervalSet { spans: out }
    }

    /// Translates every span by `dx` (may be negative).
    pub fn shift(&self, dx: f64) -> IntervalSet {
        IntervalSet {
            spans: self.spans.iter().map(|&(lo, hi)| (lo + dx, hi + dx)).collect(),
        }
    }

    /// Clamps the set to `[lo, hi]`.
    pub fn clamp(&self, lo: f64, hi: f64) -> IntervalSet {
        self.intersect(&IntervalSet::from_interval(lo, hi))
    }
}

/// Normalizes `v[start..]` in place into sorted, disjoint spans and
/// truncates `v` to fit: drops spans with `lo > hi`, sorts by lower
/// endpoint and merges overlapping or near-touching (within [`EPS`])
/// spans. The one implementation behind [`IntervalSet::from_spans`],
/// [`crate::Pwl::le_regions`] and the MFS's validity domains, which run
/// it on the tail of a scratch buffer.
pub(crate) fn normalize_spans(v: &mut Vec<(f64, f64)>, start: usize) {
    let Some(tail) = v.get_mut(start..) else {
        return;
    };
    let mut kept = 0usize;
    for r in 0..tail.len() {
        let Some(&(lo, hi)) = tail.get(r) else { break };
        if lo <= hi {
            if let Some(slot) = tail.get_mut(kept) {
                *slot = (lo, hi);
            }
            kept += 1;
        }
    }
    let Some(kept) = tail.get_mut(..kept) else {
        return;
    };
    kept.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut w = 0usize;
    for r in 0..kept.len() {
        let Some(&(lo, hi)) = kept.get(r) else { break };
        match w.checked_sub(1).and_then(|last| kept.get_mut(last)) {
            Some(last) if lo <= last.1 + EPS => last.1 = last.1.max(hi),
            _ => {
                if let Some(slot) = kept.get_mut(w) {
                    *slot = (lo, hi);
                }
                w += 1;
            }
        }
    }
    v.truncate(start + w);
}

/// Emits the intersection of two sorted, disjoint span lists, in order.
/// The one implementation behind [`IntervalSet::intersect`] and the MFS
/// scratch path.
pub(crate) fn intersect_spans(
    a: &[(f64, f64)],
    b: &[(f64, f64)],
    mut emit: impl FnMut((f64, f64)),
) {
    let (mut i, mut j) = (0, 0);
    while let (Some(&(alo, ahi)), Some(&(blo, bhi))) = (a.get(i), b.get(j)) {
        let lo = alo.max(blo);
        let hi = ahi.min(bhi);
        if lo <= hi {
            emit((lo, hi));
        }
        if ahi < bhi {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// Emits the difference `a \ b` of two sorted, disjoint span lists, in
/// order, skipping slivers no longer than [`EPS`]. The one
/// implementation behind [`IntervalSet::subtract`] and the MFS scratch
/// path.
pub(crate) fn subtract_spans(a: &[(f64, f64)], b: &[(f64, f64)], mut emit: impl FnMut((f64, f64))) {
    let mut keep = |lo: f64, hi: f64| {
        if hi - lo > EPS {
            emit((lo, hi));
        }
    };
    let mut j = 0;
    for &(lo, hi) in a {
        let mut cur = lo;
        while b.get(j).is_some_and(|s| s.1 < cur) {
            j += 1;
        }
        let mut k = j;
        while let Some(&(blo, bhi)) = b.get(k).filter(|s| s.0 <= hi) {
            if blo > cur {
                keep(cur, blo.min(hi));
            }
            cur = cur.max(bhi);
            if cur >= hi {
                break;
            }
            k += 1;
        }
        if cur < hi {
            keep(cur, hi);
        }
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.spans.is_empty() {
            return write!(f, "∅");
        }
        for (i, (lo, hi)) in self.spans.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "[{lo}, {hi}]")?;
        }
        Ok(())
    }
}

impl FromIterator<(f64, f64)> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        IntervalSet::from_spans(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_behaves() {
        let e = IntervalSet::empty();
        assert!(e.is_empty());
        assert!(!e.contains(0.0));
        assert_eq!(e.measure(), 0.0);
        assert_eq!(e.min(), None);
        assert_eq!(format!("{e}"), "∅");
    }

    #[test]
    fn from_interval_rejects_inverted() {
        assert!(IntervalSet::from_interval(5.0, 1.0).is_empty());
    }

    #[test]
    fn from_spans_normalizes_overlap() {
        let s = IntervalSet::from_spans([(4.0, 6.0), (0.0, 2.0), (1.5, 3.0)]);
        assert_eq!(s.spans(), &[(0.0, 3.0), (4.0, 6.0)]);
    }

    #[test]
    fn intersect_basic() {
        let a = IntervalSet::from_spans([(0.0, 5.0), (10.0, 20.0)]);
        let b = IntervalSet::from_spans([(3.0, 12.0), (15.0, 25.0)]);
        let c = a.intersect(&b);
        assert_eq!(c.spans(), &[(3.0, 5.0), (10.0, 12.0), (15.0, 20.0)]);
    }

    #[test]
    fn subtract_splits_interval() {
        let a = IntervalSet::from_interval(0.0, 10.0);
        let b = IntervalSet::from_spans([(2.0, 3.0), (8.0, 20.0)]);
        let c = a.subtract(&b);
        assert_eq!(c.spans(), &[(0.0, 2.0), (3.0, 8.0)]);
    }

    #[test]
    fn subtract_everything_is_empty() {
        let a = IntervalSet::from_spans([(1.0, 2.0), (3.0, 4.0)]);
        let b = IntervalSet::from_interval(0.0, 5.0);
        assert!(a.subtract(&b).is_empty());
    }

    #[test]
    fn subtract_nothing_is_identity() {
        let a = IntervalSet::from_spans([(1.0, 2.0), (3.0, 4.0)]);
        assert_eq!(a.subtract(&IntervalSet::empty()), a);
    }

    #[test]
    fn union_merges_touching() {
        let a = IntervalSet::from_interval(0.0, 1.0);
        let b = IntervalSet::from_interval(1.0, 2.0);
        assert_eq!(a.union(&b).spans(), &[(0.0, 2.0)]);
    }

    #[test]
    fn shift_and_clamp() {
        let a = IntervalSet::from_interval(0.0, 10.0).shift(-4.0);
        assert_eq!(a.spans(), &[(-4.0, 6.0)]);
        assert_eq!(a.clamp(0.0, 100.0).spans(), &[(0.0, 6.0)]);
    }

    #[test]
    fn measure_sums_spans() {
        let a = IntervalSet::from_spans([(0.0, 1.0), (5.0, 7.5)]);
        assert!((a.measure() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn collect_from_iterator() {
        let s: IntervalSet = [(0.0, 1.0), (2.0, 3.0)].into_iter().collect();
        assert_eq!(s.spans().len(), 2);
    }
}
