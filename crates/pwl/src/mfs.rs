//! Minimal functional subset (MFS) computation — exact dominance pruning
//! over tuples of scalars and PWL functions (paper §IV-D, Definition 4.3):
//! the pairwise reference [`mfs_naive`] and the divide-and-conquer
//! algorithm of Fig. 4, [`mfs_divide_conquer`].

use crate::{IntervalSet, Pwl};

/// A candidate in a functional-dominance problem: a payload plus the
/// dominance coordinates — some scalar dimensions and some PWL dimensions,
/// all to be *minimized*.
///
/// In the repeater-insertion DP the scalars are (cost, capacitance,
/// delay-to-internal-sinks) and the PWLs are (arrival `Y`, internal
/// diameter `D`); the payload is the trace used to reconstruct the
/// repeater assignment.
///
/// The candidate's *validity domain* starts as the intersection of its PWL
/// domains and shrinks as pruning proves it suboptimal on regions of the
/// external-capacitance axis.
///
/// # Examples
///
/// ```
/// use msrnet_pwl::{mfs_naive, FuncPoint, Pwl};
///
/// let cheap_slow = FuncPoint::new("a", vec![1.0], vec![Pwl::constant(9.0, 0.0, 1.0)]);
/// let costly_fast = FuncPoint::new("b", vec![2.0], vec![Pwl::constant(5.0, 0.0, 1.0)]);
/// let costly_slow = FuncPoint::new("c", vec![2.0], vec![Pwl::constant(9.0, 0.0, 1.0)]);
/// let kept = mfs_naive(vec![cheap_slow, costly_fast, costly_slow]);
/// let names: Vec<_> = kept.iter().map(|p| p.payload).collect();
/// assert_eq!(names, vec!["a", "b"]); // "c" is dominated by both
/// ```
#[derive(Clone, Debug)]
pub struct FuncPoint<T> {
    /// Caller data carried through pruning (e.g., a DP trace id).
    pub payload: T,
    /// Scalar dimensions, minimized.
    pub scalars: Vec<f64>,
    /// PWL dimensions, minimized pointwise; kept restricted to the
    /// validity domain.
    pub pwls: Vec<Pwl>,
    domain: IntervalSet,
}

impl<T> FuncPoint<T> {
    /// Creates a candidate; its initial validity domain is the
    /// intersection of the PWL domains (the whole line if there are no
    /// PWL dimensions, making this a plain vector-dominance point).
    pub fn new(payload: T, scalars: Vec<f64>, pwls: Vec<Pwl>) -> Self {
        let domain = pwls
            .iter()
            .map(Pwl::domain)
            .reduce(|a, b| a.intersect(&b))
            .unwrap_or_else(|| IntervalSet::from_interval(f64::NEG_INFINITY, f64::INFINITY));
        let mut fp = FuncPoint {
            payload,
            scalars,
            pwls,
            domain,
        };
        fp.sync_pwls();
        fp
    }

    /// The current validity domain (where this candidate is not yet proven
    /// suboptimal).
    pub fn domain(&self) -> &IntervalSet {
        &self.domain
    }

    /// Whether any validity region remains.
    pub fn is_valid(&self) -> bool {
        !self.domain.is_empty()
    }

    /// Removes `region` from the validity domain, restricting all PWLs.
    pub fn invalidate(&mut self, region: &IntervalSet) {
        if region.is_empty() {
            return;
        }
        self.domain = self.domain.subtract(region);
        self.sync_pwls();
    }

    fn sync_pwls(&mut self) {
        for p in &mut self.pwls {
            *p = p.restrict(&self.domain);
        }
    }

    /// Whether every scalar of `self` is ≤ the corresponding scalar of
    /// `other` (a necessary condition for dominance anywhere).
    fn scalars_le(&self, other: &Self) -> bool {
        debug_assert_eq!(self.scalars.len(), other.scalars.len());
        self.scalars
            .iter()
            .zip(&other.scalars)
            .all(|(a, b)| a <= b)
    }

    /// The region of the axis where `self` dominates `other` in **every**
    /// dimension (scalars and PWLs), intersected with both validity
    /// domains. Empty if the scalars already fail.
    ///
    /// Exposed so that callers can build custom pruning strategies (e.g.
    /// the whole-domain-only ablation in `msrnet-core`).
    pub fn dominance_region(&self, other: &Self) -> IntervalSet {
        if !self.scalars_le(other) {
            return IntervalSet::empty();
        }
        debug_assert_eq!(self.pwls.len(), other.pwls.len());
        let mut region = self.domain.intersect(&other.domain);
        for (a, b) in self.pwls.iter().zip(&other.pwls) {
            if region.is_empty() {
                break;
            }
            region = region.intersect(&a.le_regions(b));
        }
        region
    }
}

/// Prunes the ordered pair: first `a` prunes `b` (non-strict dominance),
/// then `b` prunes `a` against `b`'s *updated* domain. The two-step order
/// guarantees that ties never annihilate both candidates.
fn prune_pair<T>(a: &mut FuncPoint<T>, b: &mut FuncPoint<T>) {
    if !a.is_valid() || !b.is_valid() {
        return;
    }
    let r = a.dominance_region(b);
    b.invalidate(&r);
    if !b.is_valid() {
        return;
    }
    let r = b.dominance_region(a);
    a.invalidate(&r);
}

/// Computes the minimal functional subset by pairwise pruning
/// (`O(n²)` pair comparisons). Candidates proven suboptimal everywhere are
/// dropped; survivors keep only the regions where they may matter.
///
/// The result preserves optimality: for every point `x` of the original
/// domains and every removed candidate, some surviving candidate defined
/// at `x` is at least as good in every dimension.
pub fn mfs_naive<T>(mut items: Vec<FuncPoint<T>>) -> Vec<FuncPoint<T>> {
    pairwise(&mut items);
    items.retain(FuncPoint::is_valid);
    items
}

fn pairwise<T>(items: &mut [FuncPoint<T>]) {
    for j in 1..items.len() {
        let (left, right) = items.split_at_mut(j);
        let b = &mut right[0];
        for a in left.iter_mut() {
            prune_pair(a, b);
            if !b.is_valid() {
                break;
            }
        }
    }
}

/// Computes the minimal functional subset by the paper's
/// divide-and-conquer scheme (Fig. 4): split, recurse, then cross-prune
/// the two surviving halves.
///
/// Worst-case pair comparisons remain `O(n²)`, but when many candidates
/// die deep in the recursion (typical after a `JoinSets` product, per the
/// paper) far fewer cross-comparisons are performed.
///
/// `leaf_threshold` is the subproblem size below which the naive pairwise
/// method is used; values around 8 work well.
pub fn mfs_divide_conquer<T>(
    items: Vec<FuncPoint<T>>,
    leaf_threshold: usize,
) -> Vec<FuncPoint<T>> {
    let threshold = leaf_threshold.max(2);
    if items.len() <= threshold {
        return mfs_naive(items);
    }
    let mid = items.len() / 2;
    let mut items = items;
    let right_half = items.split_off(mid);
    let mut left = mfs_divide_conquer(items, threshold);
    let mut right = mfs_divide_conquer(right_half, threshold);
    for a in &mut left {
        for b in &mut right {
            prune_pair(a, b);
            if !a.is_valid() {
                break;
            }
        }
    }
    left.retain(FuncPoint::is_valid);
    right.retain(FuncPoint::is_valid);
    left.append(&mut right);
    left
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(name: &'static str, scalars: &[f64], pwls: Vec<Pwl>) -> FuncPoint<&'static str> {
        FuncPoint::new(name, scalars.to_vec(), pwls)
    }

    #[test]
    fn scalar_only_dominance() {
        // Pure vector dominance: (1,1) dominates (2,2); (0,3) incomparable.
        let items = vec![
            fp("a", &[1.0, 1.0], vec![]),
            fp("b", &[2.0, 2.0], vec![]),
            fp("c", &[0.0, 3.0], vec![]),
        ];
        let kept = mfs_naive(items);
        let names: Vec<_> = kept.iter().map(|p| p.payload).collect();
        assert_eq!(names, vec!["a", "c"]);
    }

    #[test]
    fn identical_items_keep_exactly_one() {
        let mk = || fp("x", &[1.0], vec![Pwl::constant(2.0, 0.0, 10.0)]);
        let kept = mfs_naive(vec![mk(), mk(), mk()]);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn partial_region_pruning_splits_domain() {
        // f = x on [0,10]; g = 5. Equal scalars, so each loses where the
        // other is lower: f keeps [0,5], g keeps [5,10] (one keeps the tie
        // point).
        let items = vec![
            fp("f", &[1.0], vec![Pwl::linear(0.0, 1.0, 0.0, 10.0)]),
            fp("g", &[1.0], vec![Pwl::constant(5.0, 0.0, 10.0)]),
        ];
        let kept = mfs_naive(items);
        assert_eq!(kept.len(), 2);
        let f = kept.iter().find(|p| p.payload == "f").unwrap();
        let g = kept.iter().find(|p| p.payload == "g").unwrap();
        assert!(f.domain().contains(2.0));
        assert!(!f.domain().contains(7.0));
        assert!(g.domain().contains(7.0));
        assert!(!g.domain().contains(2.0));
    }

    #[test]
    fn scalar_advantage_blocks_pwl_pruning() {
        // g is pointwise worse in the PWL but cheaper: nothing is pruned.
        let items = vec![
            fp("f", &[2.0], vec![Pwl::constant(1.0, 0.0, 10.0)]),
            fp("g", &[1.0], vec![Pwl::constant(9.0, 0.0, 10.0)]),
        ];
        let kept = mfs_naive(items);
        assert_eq!(kept.len(), 2);
        for p in &kept {
            assert_eq!(p.domain().measure(), 10.0);
        }
    }

    #[test]
    fn two_pwl_dimensions_must_both_dominate() {
        // a beats b in dim0 everywhere, but loses in dim1 on x > 5.
        let items = vec![
            fp(
                "a",
                &[1.0],
                vec![
                    Pwl::constant(0.0, 0.0, 10.0),
                    Pwl::linear(0.0, 1.0, 0.0, 10.0),
                ],
            ),
            fp(
                "b",
                &[1.0],
                vec![
                    Pwl::constant(1.0, 0.0, 10.0),
                    Pwl::constant(5.0, 0.0, 10.0),
                ],
            ),
        ];
        let kept = mfs_naive(items);
        let b = kept.iter().find(|p| p.payload == "b").unwrap();
        // b survives only where a's dim1 exceeds 5.
        assert!(!b.domain().contains(3.0));
        assert!(b.domain().contains(8.0));
    }

    #[test]
    fn fully_dominated_is_dropped() {
        let items = vec![
            fp("good", &[1.0], vec![Pwl::constant(1.0, 0.0, 10.0)]),
            fp("bad", &[2.0], vec![Pwl::constant(2.0, 0.0, 10.0)]),
        ];
        let kept = mfs_naive(items);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].payload, "good");
    }

    #[test]
    fn disjoint_domains_do_not_interact() {
        let items = vec![
            fp("l", &[1.0], vec![Pwl::constant(1.0, 0.0, 4.0)]),
            fp("r", &[9.0], vec![Pwl::constant(9.0, 6.0, 10.0)]),
        ];
        let kept = mfs_naive(items);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn divide_conquer_matches_naive_on_random_mix() {
        // Deterministic pseudo-random candidates; compare survivor
        // coverage of the two algorithms at sample points.
        let mut items_a = Vec::new();
        let mut seed = 12345u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / ((1u64 << 31) as f64)
        };
        for i in 0..40 {
            let cost = (next() * 10.0).round();
            let y0 = next() * 100.0;
            let slope = next() * 20.0;
            let pwl = Pwl::linear(y0, slope, 0.0, 10.0);
            items_a.push(FuncPoint::new(i, vec![cost], vec![pwl]));
        }
        let items_b = items_a.clone();
        let naive = mfs_naive(items_a);
        let dc = mfs_divide_conquer(items_b, 4);
        // Both must provide, at every sample x, the same best achievable
        // (cost, value) frontier.
        for step in 0..=20 {
            let x = step as f64 * 0.5;
            let frontier = |kept: &[FuncPoint<i32>]| {
                let mut pts: Vec<(f64, f64)> = kept
                    .iter()
                    .filter(|p| p.domain().contains(x))
                    .map(|p| (p.scalars[0], p.pwls[0].eval(x).unwrap()))
                    .collect();
                pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
                pts
            };
            let fa = frontier(&naive);
            let fb = frontier(&dc);
            // The minimum value achievable at each cost must agree.
            let best = |pts: &[(f64, f64)]| {
                pts.iter().fold(f64::INFINITY, |m, &(_, v)| m.min(v))
            };
            assert!((best(&fa) - best(&fb)).abs() < 1e-6, "x={x}");
        }
    }

    #[test]
    fn coverage_invariant_holds() {
        // For every x and every dropped candidate, a survivor dominates.
        let mut items = Vec::new();
        let mut seed = 999u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / ((1u64 << 31) as f64)
        };
        for i in 0..30 {
            let cost = (next() * 4.0).round();
            let y0 = next() * 50.0;
            let slope = next() * 10.0;
            items.push(FuncPoint::new(i, vec![cost], vec![Pwl::linear(y0, slope, 0.0, 8.0)]));
        }
        let originals = items.clone();
        let kept = mfs_divide_conquer(items, 4);
        for step in 0..=16 {
            let x = step as f64 * 0.5;
            for orig in &originals {
                let Some(v) = orig.pwls[0].eval(x) else { continue };
                let covered = kept.iter().any(|k| {
                    k.domain().contains(x)
                        && k.scalars[0] <= orig.scalars[0]
                        && k.pwls[0].eval(x).is_some_and(|kv| kv <= v + 1e-9)
                });
                assert!(covered, "candidate {} uncovered at x={x}", orig.payload);
            }
        }
    }
}
