//! Minimal functional subset (MFS) computation — exact dominance pruning
//! over tuples of scalars and PWL functions (paper §IV-D, Definition 4.3):
//! the pairwise reference [`mfs_naive`] and the divide-and-conquer
//! algorithm of Fig. 4, [`mfs_divide_conquer`].

use crate::interval::{intersect_spans, subtract_spans};
use crate::{IntervalSet, Pwl, Segment};

/// A candidate in a functional-dominance problem: a payload plus the
/// dominance coordinates — `S` scalar dimensions and some PWL dimensions,
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
/// let cheap_slow = FuncPoint::new("a", [1.0], vec![Pwl::constant(9.0, 0.0, 1.0)]);
/// let costly_fast = FuncPoint::new("b", [2.0], vec![Pwl::constant(5.0, 0.0, 1.0)]);
/// let costly_slow = FuncPoint::new("c", [2.0], vec![Pwl::constant(9.0, 0.0, 1.0)]);
/// let kept = mfs_naive(vec![cheap_slow, costly_fast, costly_slow]);
/// let names: Vec<_> = kept.iter().map(|p| p.payload).collect();
/// assert_eq!(names, vec!["a", "b"]); // "c" is dominated by both
/// ```
#[derive(Clone, Debug)]
pub struct FuncPoint<T, const S: usize> {
    /// Caller data carried through pruning (e.g., a DP trace id).
    pub payload: T,
    /// Scalar dimensions, minimized.
    pub scalars: [f64; S],
    /// PWL dimensions, minimized pointwise; kept restricted to the
    /// validity domain.
    pub pwls: Vec<Pwl>,
    domain: IntervalSet,
}

impl<T, const S: usize> FuncPoint<T, S> {
    /// Creates a candidate; its initial validity domain is the
    /// intersection of the PWL domains (the whole line if there are no
    /// PWL dimensions, making this a plain vector-dominance point).
    pub fn new(payload: T, scalars: [f64; S], pwls: Vec<Pwl>) -> Self {
        let mut spans = Vec::new();
        match pwls.split_first() {
            None => spans.push((f64::NEG_INFINITY, f64::INFINITY)),
            Some((first, rest)) => {
                first.push_domain(&mut spans);
                // `both` holds the running domain, then the next PWL's;
                // neither outgrows the total segment count.
                let mut both = Vec::with_capacity(pwls.iter().map(|p| p.segments().len()).sum());
                for p in rest {
                    both.clear();
                    both.extend_from_slice(&spans);
                    let split = both.len();
                    p.push_domain(&mut both);
                    let (acc, next) = both.split_at(split);
                    spans.clear();
                    intersect_spans(acc, next, |s| spans.push(s));
                }
            }
        }
        let longest = pwls.iter().map(|p| p.segments().len()).max();
        let mut fp = FuncPoint {
            payload,
            scalars,
            pwls,
            domain: IntervalSet::from_raw(spans),
        };
        fp.sync_pwls(&mut Vec::with_capacity(longest.unwrap_or(0)));
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
        self.invalidate_spans(region.spans(), &mut Vec::new(), &mut Vec::new());
    }

    /// [`FuncPoint::invalidate`] with the new domain built in `tmp` and
    /// copied back, and each PWL restricted inside its own buffer by way
    /// of `segs`.
    fn invalidate_spans(
        &mut self,
        region: &[(f64, f64)],
        tmp: &mut Vec<(f64, f64)>,
        segs: &mut Vec<Segment>,
    ) {
        if region.is_empty() {
            return;
        }
        tmp.clear();
        subtract_spans(self.domain.spans(), region, |s| tmp.push(s));
        self.domain.assign(tmp);
        self.sync_pwls(segs);
    }

    /// Restricts every PWL to the validity domain, in its own buffer.
    fn sync_pwls(&mut self, segs: &mut Vec<Segment>) {
        for p in &mut self.pwls {
            p.restrict_in_place(self.domain.spans(), segs);
        }
    }

    /// The region of the axis where `self` dominates `other` in **every**
    /// dimension (scalars and PWLs), intersected with both validity
    /// domains. Empty if the scalars already fail.
    ///
    /// Exposed so that callers can build custom pruning strategies (e.g.
    /// the whole-domain-only ablation in `msrnet-core`).
    pub fn dominance_region(&self, other: &Self) -> IntervalSet {
        if !scalars_le(&self.scalars, &other.scalars) {
            return IntervalSet::empty();
        }
        let mut buffers = Buffers::default();
        self.pwl_region(other, &mut buffers);
        IntervalSet::from_raw(buffers.region)
    }

    /// Leaves in `sc.region` the part of both validity domains where every
    /// PWL of `self` is ≤ the matching PWL of `other` — the dominance
    /// region once the scalars pass — and reports whether it is
    /// non-empty.
    fn pwl_region(&self, other: &Self, sc: &mut Buffers) -> bool {
        debug_assert_eq!(self.pwls.len(), other.pwls.len());
        sc.region.clear();
        intersect_spans(self.domain.spans(), other.domain.spans(), |s| {
            sc.region.push(s)
        });
        for (a, b) in self.pwls.iter().zip(&other.pwls) {
            if sc.region.is_empty() {
                break;
            }
            sc.le.clear();
            a.push_le_regions(b, &mut sc.le);
            sc.tmp.clear();
            intersect_spans(&sc.region, &sc.le, |s| sc.tmp.push(s));
            std::mem::swap(&mut sc.region, &mut sc.tmp);
        }
        !sc.region.is_empty()
    }
}

/// Whether every scalar of `a` is ≤ the corresponding scalar of `b` (a
/// necessary condition for dominance anywhere).
fn scalars_le<const S: usize>(a: &[f64; S], b: &[f64; S]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Span and segment buffers reused by every dominance test of one MFS
/// call, so a pair that removes nothing allocates nothing.
#[derive(Default)]
struct Buffers {
    region: Vec<(f64, f64)>,
    le: Vec<(f64, f64)>,
    tmp: Vec<(f64, f64)>,
    segs: Vec<Segment>,
}

/// Scratch owned by one MFS call and threaded through its recursion: the
/// flat scalar copy the pair loops prefilter on, and the buffers.
#[derive(Default)]
struct Scratch<const S: usize> {
    scalars: Vec<[f64; S]>,
    buffers: Buffers,
}

/// Prunes the ordered pair: first `a` prunes `b` (non-strict dominance),
/// then `b` prunes `a` against `b`'s *updated* domain. The two-step order
/// guarantees that ties never annihilate both candidates.
///
/// `sa` and `sb` are the pair's scalars from the flat copy. They are
/// tested first: when neither side's are all ≤ the other's, both
/// dominance regions are empty and the pair is a no-op, so it returns
/// before touching either candidate's domain or PWLs.
fn prune_pair<T, const S: usize>(
    a: &mut FuncPoint<T, S>,
    b: &mut FuncPoint<T, S>,
    sa: &[f64; S],
    sb: &[f64; S],
    sc: &mut Buffers,
) {
    let (a_le_b, b_le_a) = (scalars_le(sa, sb), scalars_le(sb, sa));
    if !(a_le_b || b_le_a) || !a.is_valid() || !b.is_valid() {
        return;
    }
    if a_le_b && a.pwl_region(b, sc) {
        b.invalidate_spans(&sc.region, &mut sc.tmp, &mut sc.segs);
    }
    if !b.is_valid() {
        return;
    }
    if b_le_a && b.pwl_region(a, sc) {
        a.invalidate_spans(&sc.region, &mut sc.tmp, &mut sc.segs);
    }
}

/// Computes the minimal functional subset by pairwise pruning
/// (`O(n²)` pair comparisons). Candidates proven suboptimal everywhere are
/// dropped; survivors keep only the regions where they may matter.
///
/// The result preserves optimality: for every point `x` of the original
/// domains and every removed candidate, some surviving candidate defined
/// at `x` is at least as good in every dimension.
pub fn mfs_naive<T, const S: usize>(items: Vec<FuncPoint<T, S>>) -> Vec<FuncPoint<T, S>> {
    pairwise(items, &mut Scratch::default())
}

/// Prunes every pair `(a, b)` with `a` before `b` and drops the
/// candidates left without a domain.
fn pairwise<T, const S: usize>(
    mut items: Vec<FuncPoint<T, S>>,
    sc: &mut Scratch<S>,
) -> Vec<FuncPoint<T, S>> {
    let Scratch { scalars, buffers } = sc;
    scalars.clear();
    scalars.extend(items.iter().map(|p| p.scalars));
    for j in 1..items.len() {
        let (left, right) = items.split_at_mut(j);
        let (Some(b), Some(sb)) = (right.first_mut(), scalars.get(j)) else {
            break;
        };
        for (a, sa) in left.iter_mut().zip(scalars.iter()) {
            prune_pair(a, b, sa, sb, buffers);
            if !b.is_valid() {
                break;
            }
        }
    }
    items.retain(FuncPoint::is_valid);
    items
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
pub fn mfs_divide_conquer<T, const S: usize>(
    items: Vec<FuncPoint<T, S>>,
    leaf_threshold: usize,
) -> Vec<FuncPoint<T, S>> {
    divide_conquer(items, leaf_threshold.max(2), &mut Scratch::default())
}

fn divide_conquer<T, const S: usize>(
    mut items: Vec<FuncPoint<T, S>>,
    threshold: usize,
    sc: &mut Scratch<S>,
) -> Vec<FuncPoint<T, S>> {
    if items.len() <= threshold {
        return pairwise(items, sc);
    }
    let mid = items.len() / 2;
    let right_half = items.split_off(mid);
    let mut left = divide_conquer(items, threshold, sc);
    let mut right = divide_conquer(right_half, threshold, sc);
    let Scratch { scalars, buffers } = sc;
    scalars.clear();
    scalars.extend(left.iter().chain(&right).map(|p| p.scalars));
    let (left_scalars, right_scalars) = scalars.split_at(left.len());
    for (a, sa) in left.iter_mut().zip(left_scalars) {
        for (b, sb) in right.iter_mut().zip(right_scalars) {
            prune_pair(a, b, sa, sb, buffers);
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

    fn fp<const S: usize>(
        name: &'static str,
        scalars: [f64; S],
        pwls: Vec<Pwl>,
    ) -> FuncPoint<&'static str, S> {
        FuncPoint::new(name, scalars, pwls)
    }

    #[test]
    fn scalar_only_dominance() {
        // Pure vector dominance: (1,1) dominates (2,2); (0,3) incomparable.
        let items = vec![
            fp("a", [1.0, 1.0], vec![]),
            fp("b", [2.0, 2.0], vec![]),
            fp("c", [0.0, 3.0], vec![]),
        ];
        let kept = mfs_naive(items);
        let names: Vec<_> = kept.iter().map(|p| p.payload).collect();
        assert_eq!(names, vec!["a", "c"]);
    }

    #[test]
    fn identical_items_keep_exactly_one() {
        let mk = || fp("x", [1.0], vec![Pwl::constant(2.0, 0.0, 10.0)]);
        let kept = mfs_naive(vec![mk(), mk(), mk()]);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn partial_region_pruning_splits_domain() {
        // f = x on [0,10]; g = 5. Equal scalars, so each loses where the
        // other is lower: f keeps [0,5], g keeps [5,10] (one keeps the tie
        // point).
        let items = vec![
            fp("f", [1.0], vec![Pwl::linear(0.0, 1.0, 0.0, 10.0)]),
            fp("g", [1.0], vec![Pwl::constant(5.0, 0.0, 10.0)]),
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
            fp("f", [2.0], vec![Pwl::constant(1.0, 0.0, 10.0)]),
            fp("g", [1.0], vec![Pwl::constant(9.0, 0.0, 10.0)]),
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
                [1.0],
                vec![
                    Pwl::constant(0.0, 0.0, 10.0),
                    Pwl::linear(0.0, 1.0, 0.0, 10.0),
                ],
            ),
            fp(
                "b",
                [1.0],
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
            fp("good", [1.0], vec![Pwl::constant(1.0, 0.0, 10.0)]),
            fp("bad", [2.0], vec![Pwl::constant(2.0, 0.0, 10.0)]),
        ];
        let kept = mfs_naive(items);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].payload, "good");
    }

    #[test]
    fn disjoint_domains_do_not_interact() {
        let items = vec![
            fp("l", [1.0], vec![Pwl::constant(1.0, 0.0, 4.0)]),
            fp("r", [9.0], vec![Pwl::constant(9.0, 6.0, 10.0)]),
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
            items_a.push(FuncPoint::new(i, [cost], vec![pwl]));
        }
        let items_b = items_a.clone();
        let naive = mfs_naive(items_a);
        let dc = mfs_divide_conquer(items_b, 4);
        // Both must provide, at every sample x, the same best achievable
        // (cost, value) frontier.
        for step in 0..=20 {
            let x = step as f64 * 0.5;
            let frontier = |kept: &[FuncPoint<i32, 1>]| {
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
            items.push(FuncPoint::new(i, [cost], vec![Pwl::linear(y0, slope, 0.0, 8.0)]));
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
