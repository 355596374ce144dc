//! Minimal functional subset (MFS) computation — dominance pruning over
//! tuples of scalars and PWL functions (paper §IV-D, Definition 4.3 and
//! the divide-and-conquer algorithm of Fig. 4), plus a cost-sorted
//! sweep engine ([`mfs_sorted_sweep`]) that front-loads cheap scalar
//! predicates before any PWL comparison, in the spirit of Li & Shi's
//! sorted-candidate buffer-insertion pruning.

use std::cmp::Ordering;

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

/// Counters describing one sorted-sweep MFS run ([`mfs_sorted_sweep`]):
/// how many candidates were eliminated by the cheap summary predicate
/// alone (no PWL region computation) versus by the exact region-wise
/// comparisons.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MfsCounts {
    /// Candidates fully eliminated by the scalar/summary predicate,
    /// before any `dominance_region` call.
    pub scalar_killed: u64,
    /// Candidates fully eliminated by exact PWL region pruning.
    pub pwl_killed: u64,
    /// Subset of `scalar_killed` where the `eps`-relaxation was
    /// *load-bearing*: the summary predicate fails at `eps = 0` for the
    /// same pair, so discarding the candidate consumed one `(1+eps)`
    /// factor of the approximation budget. Always 0 when `eps = 0`.
    pub relaxed_killed: u64,
}

/// Cached O(1)-comparable summary of a candidate: bounding span of its
/// validity domain and per-PWL-dimension value range. Recomputed only
/// when the candidate's domain shrinks.
struct Summary {
    dom_lo: f64,
    dom_hi: f64,
    /// Whether the validity domain is one contiguous span (required for
    /// the summary to certify full-domain coverage of another candidate).
    single_span: bool,
    /// Per-PWL-dimension minimum value over the current domain.
    lo: Vec<f64>,
    /// Per-PWL-dimension maximum value over the current domain.
    hi: Vec<f64>,
}

fn summarize<T>(fp: &FuncPoint<T>) -> Summary {
    let spans = fp.domain().spans();
    Summary {
        dom_lo: spans.first().map_or(f64::INFINITY, |s| s.0),
        dom_hi: spans.last().map_or(f64::NEG_INFINITY, |s| s.1),
        single_span: spans.len() == 1,
        lo: fp
            .pwls
            .iter()
            .map(|p| p.min_value().unwrap_or(f64::INFINITY))
            .collect(),
        hi: fp
            .pwls
            .iter()
            .map(|p| p.max_value().unwrap_or(f64::NEG_INFINITY))
            .collect(),
    }
}

/// `survivor ≤ victim + eps·|victim|`, with exact fallback where the
/// slack is not finite.
///
/// The slack is measured against the **victim** — the candidate being
/// discarded — which is exactly how the [`mfs_approximate`] guarantee is
/// stated ("within `eps·|p.scalar[k]|` of the *discarded* candidate `p`").
/// The threshold map `g(t) = t + eps·|t|` is strictly increasing in `t`
/// for `eps < 1` (`g'(t) = 1 ± eps > 0`), which is what lets a summary
/// comparison against the victim's *minimum* value certify the pointwise
/// guarantee over the victim's whole domain: if
/// `max_x s(x) ≤ g(min_x p(x))`, then for every `x`,
/// `s(x) ≤ g(min p) ≤ g(p(x))` by monotonicity. It also makes the
/// single-step (1+eps) coverage argument compose with later *exact*
/// invalidations of the survivor (see [`mfs_approximate`]).
fn relaxed_le(survivor: f64, victim: f64, eps: f64) -> bool {
    // msrnet-allow: float-eq eps == 0.0 selects the exact comparison path bit-identically
    if eps == 0.0 {
        return survivor <= victim;
    }
    let slack = eps * victim.abs();
    if slack.is_finite() {
        survivor <= victim + slack
    } else {
        survivor <= victim
    }
}

/// Sufficient (never speculative) predicate: `a` dominates `b` over
/// *all* of `b`'s remaining domain, established from summaries alone.
/// With `eps > 0` the comparisons are relaxed by a relative `eps`
/// measured against `b` — the candidate that will be **discarded** if
/// the predicate holds — trading exactness for coalescing
/// near-duplicates while keeping the [`mfs_approximate`] guarantee
/// statable in terms of the discarded candidate's own values.
fn summary_kills<T>(
    a: &FuncPoint<T>,
    sa: &Summary,
    b: &FuncPoint<T>,
    sb: &Summary,
    eps: f64,
) -> bool {
    if !sa.single_span || sa.dom_lo > sb.dom_lo || sa.dom_hi < sb.dom_hi {
        return false;
    }
    let scalars_ok = a
        .scalars
        .iter()
        .zip(&b.scalars)
        .all(|(x, y)| relaxed_le(*x, *y, eps));
    scalars_ok
        && sa
            .hi
            .iter()
            .zip(&sb.lo)
            .all(|(ah, bl)| relaxed_le(*ah, *bl, eps))
}

/// Necessary condition for `a.dominance_region(b)` to be non-empty,
/// checked from summaries in O(dims) — skips the expensive `le_regions`
/// intersection for hopeless pairs.
fn may_dominate<T>(a: &FuncPoint<T>, sa: &Summary, b: &FuncPoint<T>, sb: &Summary) -> bool {
    a.scalars_le(b)
        && sa.dom_lo <= sb.dom_hi
        && sb.dom_lo <= sa.dom_hi
        && sa.lo.iter().zip(&sb.hi).all(|(al, bh)| *al <= *bh)
}

/// Approximate MFS with a documented (1+eps) guarantee: in addition to
/// exact region pruning, coalesces candidates whose scalars and PWL
/// envelopes are within a relative `eps` of a kept candidate.
///
/// Guarantee (for `0 ≤ eps < 1`): for every discarded candidate `p` and
/// every point `x` of `p`'s domain, some survivor `s` is defined at `x`
/// with `s.scalar[k] ≤ p.scalar[k] + eps·|p.scalar[k]|` for every scalar
/// and `s.pwl[d](x) ≤ p.pwl[d](x) + eps·|p.pwl[d](x)|` for every PWL
/// dimension — i.e. within a factor `(1+eps)` for non-negative values.
/// The slack is measured against the *discarded* candidate (see
/// `relaxed_le`): the relaxed summary predicate checks
/// `max_x s ≤ min_x p + eps·|min_x p|`, and because `t ↦ t + eps·|t|`
/// is increasing for `eps < 1`, `min_x p` is the hardest point — the
/// pointwise bound follows over all of `p`'s domain.
///
/// Relaxed kills are never chained *within one sweep*: a candidate is
/// only ever relaxed-killed during its own sweep round, before it has
/// absorbed anyone in the forward direction, so a relaxed killer can
/// later be displaced only by an **exactly** better candidate — the
/// error never compounds inside a single pruning pass. Across repeated
/// passes (e.g. once per DP step) each pass can add at most one fresh
/// `(1+eps)` factor to any coverage chain; callers that need the
/// end-to-end budget can count the chain depth exactly with
/// [`mfs_sorted_sweep_with`]'s kill callback (the repeater-insertion DP
/// threads this into its relaxation ledger). With `eps = 0` this is the
/// exact sorted sweep and the result's envelopes equal [`mfs_naive`]'s.
///
/// # Panics
///
/// Panics if `eps` is not in `[0, 1)` or is NaN.
pub fn mfs_approximate<T>(items: Vec<FuncPoint<T>>, eps: f64) -> Vec<FuncPoint<T>> {
    assert!(
        (0.0..1.0).contains(&eps),
        "eps must be in [0, 1), got {eps}"
    );
    mfs_sorted_sweep(items, eps).0
}

/// Cost-sorted sweep MFS: sorts candidates lexicographically by their
/// scalars with `total_cmp`, eliminates summary-dominated candidates
/// with cheap O(dims) predicates, and runs the exact PWL
/// `dominance_region` comparisons only on pairs the summaries cannot
/// decide. With `eps = 0` it produces the same optimal envelopes as
/// [`mfs_naive`]; see [`mfs_approximate`] for the `eps > 0` semantics.
/// Returns elimination counters so callers (the DP's pruning
/// statistics) can attribute kills to the scalar presweep vs the PWL
/// comparisons.
///
/// Sorting makes cross-bucket pruning one-directional: a candidate can
/// only be region-pruned by candidates of smaller-or-equal first scalar
/// ("cost"), so the reverse `dominance_region` is attempted only within
/// a bucket of equal cost. Note that comparisons are *not* restricted to
/// adjacent cost levels — a level-`i` candidate can dominate a
/// level-`i+2` candidate even when level `i+1` offers no coverage, so an
/// adjacent-only sweep would keep dominated candidates alive; the cheap
/// summary prefilters are what keep the full sweep fast.
pub fn mfs_sorted_sweep<T>(
    items: Vec<FuncPoint<T>>,
    eps: f64,
) -> (Vec<FuncPoint<T>>, MfsCounts) {
    mfs_sorted_sweep_with(items, eps, &mut |_, _, _| {})
}

/// [`mfs_sorted_sweep`] with an observer invoked on every invalidation
/// event: `on_kill(&mut survivor.payload, &victim.payload, relaxed)`.
///
/// `relaxed` is `true` only for summary kills where the `eps`-slack was
/// load-bearing (the same pair fails the exact predicate); every region
/// invalidation — full or partial — reports `relaxed = false` because
/// [`FuncPoint::dominance_region`] is exact. The callback fires *before*
/// the victim's domain is restricted, so the victim payload still
/// reflects its pre-kill state. This is the hook the repeater-insertion
/// DP uses to thread its per-candidate relaxation ledger: transferring
/// `max(survivor.relax, victim.relax + relaxed as u32)` onto the
/// survivor at each event yields an upper bound on the depth of any
/// relaxed coverage chain, hence a machine-checkable `(1+eps)^depth`
/// end-to-end budget.
pub fn mfs_sorted_sweep_with<T>(
    mut items: Vec<FuncPoint<T>>,
    eps: f64,
    on_kill: &mut dyn FnMut(&mut T, &T, bool),
) -> (Vec<FuncPoint<T>>, MfsCounts) {
    let mut counts = MfsCounts::default();
    // Lexicographic sort on all scalars; total_cmp keeps the order total
    // (and deterministic) even if a caller feeds NaN scalars. The sort
    // is stable, so exact ties keep their generation order and the
    // forward sweep's "earlier index wins ties" rule is well defined.
    items.sort_by(|a, b| {
        a.scalars
            .iter()
            .zip(&b.scalars)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    });
    let mut summaries: Vec<Summary> = items.iter().map(summarize).collect();
    for j in 1..items.len() {
        if !items.get(j).is_some_and(|it| it.is_valid()) {
            continue;
        }
        for i in 0..j {
            if !items.get(i).is_some_and(|it| it.is_valid()) {
                continue;
            }
            let (head, tail) = items.split_at_mut(j);
            let a = &mut head[i];
            let b = &mut tail[0];
            // Cheapest first: full elimination from summaries alone.
            if summary_kills(a, &summaries[i], b, &summaries[j], eps) {
                let relaxed =
                    eps > 0.0 && !summary_kills(a, &summaries[i], b, &summaries[j], 0.0);
                on_kill(&mut a.payload, &b.payload, relaxed);
                let whole = b.domain().clone();
                b.invalidate(&whole);
                counts.scalar_killed += 1;
                if relaxed {
                    counts.relaxed_killed += 1;
                }
                break;
            }
            // Exact region-wise pruning, gated on the necessary-condition
            // prefilter. Forward direction first (a's cost ≤ b's cost by
            // the sort), then — as in `prune_pair` — the reverse against
            // b's *updated* domain, possible only on an exact cost tie.
            if may_dominate(a, &summaries[i], b, &summaries[j]) {
                let r = a.dominance_region(b);
                if !r.is_empty() {
                    on_kill(&mut a.payload, &b.payload, false);
                    b.invalidate(&r);
                    if !b.is_valid() {
                        counts.pwl_killed += 1;
                        break;
                    }
                    summaries[j] = summarize(b);
                }
            }
            if a.scalars.first() == b.scalars.first()
                && may_dominate(b, &summaries[j], a, &summaries[i])
            {
                let r = b.dominance_region(a);
                if !r.is_empty() {
                    on_kill(&mut b.payload, &a.payload, false);
                    a.invalidate(&r);
                    if !a.is_valid() {
                        counts.pwl_killed += 1;
                    } else {
                        summaries[i] = summarize(a);
                    }
                }
            }
        }
    }
    items.retain(FuncPoint::is_valid);
    (items, counts)
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
    use crate::Segment;

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
    fn bucketed_sweep_matches_naive_on_basic_cases() {
        // Re-run the simple dominance scenarios through the sorted sweep.
        let items = vec![
            fp("a", &[1.0, 1.0], vec![]),
            fp("b", &[2.0, 2.0], vec![]),
            fp("c", &[0.0, 3.0], vec![]),
        ];
        let (kept, counts) = mfs_sorted_sweep(items, 0.0);
        let mut names: Vec<_> = kept.iter().map(|p| p.payload).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["a", "c"]);
        assert_eq!(counts.scalar_killed, 1, "b dies on the summary predicate");

        let mk = || fp("x", &[1.0], vec![Pwl::constant(2.0, 0.0, 10.0)]);
        assert_eq!(mfs_sorted_sweep(vec![mk(), mk(), mk()], 0.0).0.len(), 1);
    }

    #[test]
    fn bucketed_sweep_crosses_non_adjacent_cost_levels() {
        // Cost level 1 dominates level 3; the intermediate level 2
        // candidate lives on a disjoint domain and covers nothing — an
        // adjacent-level-only sweep would miss the kill.
        let items = vec![
            fp("lvl1", &[1.0], vec![Pwl::constant(1.0, 0.0, 10.0)]),
            fp("lvl2", &[2.0], vec![Pwl::constant(0.5, 20.0, 30.0)]),
            fp("lvl3", &[3.0], vec![Pwl::constant(5.0, 0.0, 10.0)]),
        ];
        let (kept, _) = mfs_sorted_sweep(items, 0.0);
        let mut names: Vec<_> = kept.iter().map(|p| p.payload).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["lvl1", "lvl2"]);
    }

    #[test]
    fn summary_predicate_respects_split_domains() {
        // The would-be dominator has a hole in its domain, so the cheap
        // predicate must not certify full coverage; region pruning then
        // removes only the covered parts.
        let split = FuncPoint::new(
            "split",
            vec![1.0],
            vec![Pwl::from_segments(vec![
                Segment::new(0.0, 4.0, 1.0, 0.0),
                Segment::new(6.0, 10.0, 1.0, 0.0),
            ])],
        );
        let whole = fp("whole", &[2.0], vec![Pwl::constant(5.0, 0.0, 10.0)]);
        let (kept, counts) = mfs_sorted_sweep(vec![split, whole], 0.0);
        assert_eq!(counts.scalar_killed, 0);
        assert_eq!(kept.len(), 2);
        let whole = kept.iter().find(|p| p.payload == "whole").unwrap();
        assert!(whole.domain().contains(5.0), "survives inside the hole");
        assert!(!whole.domain().contains(2.0));
        assert!(!whole.domain().contains(8.0));
    }

    #[test]
    fn approximate_zero_eps_is_exact_and_relaxed_eps_coalesces() {
        // Incomparable pair: one is cheaper, the other faster — but only
        // by 0.4% in each dimension.
        let cheap_slow = fp("cheap_slow", &[1.0], vec![Pwl::constant(100.4, 0.0, 10.0)]);
        let costly_fast = fp("costly_fast", &[1.004], vec![Pwl::constant(100.0, 0.0, 10.0)]);
        let exact = mfs_approximate(vec![cheap_slow.clone(), costly_fast.clone()], 0.0);
        assert_eq!(exact.len(), 2, "eps = 0 keeps incomparable candidates");
        let coalesced = mfs_approximate(vec![cheap_slow, costly_fast], 0.01);
        assert_eq!(coalesced.len(), 1, "1% slack absorbs the near-duplicate");
        assert_eq!(coalesced[0].payload, "cheap_slow", "earlier in sort order wins");
    }

    #[test]
    #[should_panic(expected = "eps must be in [0, 1)")]
    fn approximate_rejects_out_of_range_eps() {
        let _ = mfs_approximate(vec![fp("a", &[1.0], vec![])], 1.5);
    }

    #[test]
    fn relaxed_le_handles_non_finite_thresholds() {
        assert!(relaxed_le(f64::NEG_INFINITY, f64::NEG_INFINITY, 0.1));
        assert!(!relaxed_le(0.0, f64::NEG_INFINITY, 0.1));
        assert!(relaxed_le(-10.0, -9.999, 0.1), "negative values relax too");
        assert!(!relaxed_le(-9.0, -10.0, 0.01));
    }

    #[test]
    fn relaxed_le_slack_is_measured_against_the_victim() {
        // The documented guarantee relaxes by eps·|victim| — the second
        // argument, the candidate being discarded. Pin pairs where
        // |survivor| and |victim| diverge so swapping the slack base
        // would flip the verdict.
        //
        // |victim| = 100 ≫ |survivor| = 1: slack 10 admits the kill.
        assert!(relaxed_le(105.0, 100.0, 0.1));
        // Slack from the survivor (0.1·|105| = 10.5) would also admit it,
        // but at |survivor| ≪ slack-needed the distinction bites:
        // survivor 1.0 vs victim 0.5 needs slack 0.5; eps·|victim| gives
        // only 0.05 → rejected, while eps·|survivor| would give 0.1 —
        // still rejected; push the asymmetry until only the wrong base
        // would accept:
        assert!(!relaxed_le(1.0, 0.5, 0.1), "eps·|victim| = 0.05 is not enough");
        assert!(relaxed_le(0.54, 0.5, 0.1));
        // Survivor far larger than victim: eps·|survivor| would wrongly
        // accept 10 ≤ 1 + 0.1·10; eps·|victim| correctly rejects.
        assert!(!relaxed_le(10.0, 1.0, 0.1));
    }

    #[test]
    fn relaxed_le_sign_change_boundary() {
        // Around t = 0 the threshold map g(t) = t + eps·|t| changes slope
        // from (1−eps) to (1+eps) but stays monotone; g(0) = 0 exactly.
        assert!(relaxed_le(0.0, 0.0, 0.1), "zero victim gives zero slack");
        assert!(!relaxed_le(1e-300, 0.0, 0.1));
        // Negative victim: g(−1) = −1 + 0.1 = −0.9 — the relaxation
        // *raises* the threshold toward zero (factor (1−eps) in
        // magnitude), it never loosens past the sign change.
        assert!(relaxed_le(-0.9, -1.0, 0.1));
        assert!(!relaxed_le(-0.89, -1.0, 0.1));
        // Survivor and victim straddling zero: a positive survivor can
        // never relaxed-beat a negative victim of larger magnitude.
        assert!(!relaxed_le(0.5, -0.5, 0.99));
        assert!(relaxed_le(-0.5, 0.5, 0.0));
        // Monotonicity of g across the sign change (the property the
        // whole-domain summary argument rests on): g(victim_lo) ≤
        // g(victim_hi) whenever victim_lo ≤ victim_hi.
        let g = |t: f64, eps: f64| t + eps * t.abs();
        for eps in [0.0, 0.01, 0.5, 0.99] {
            let pts = [-2.0, -1.0, -1e-9, 0.0, 1e-9, 1.0, 2.0];
            for w in pts.windows(2) {
                assert!(g(w[0], eps) <= g(w[1], eps), "g not monotone at eps={eps}");
            }
        }
    }

    #[test]
    fn sweep_callback_reports_relaxed_and_exact_kills() {
        // "worse" is exactly dominated by "base"; "near" survives at
        // eps = 0 but is coalesced (relaxed kill) at eps = 0.01.
        let mk = |name: &'static str, cost: f64, v: f64| {
            fp(name, &[cost], vec![Pwl::constant(v, 0.0, 10.0)])
        };
        let items = || vec![mk("base", 1.0, 100.0), mk("near", 1.004, 99.9), mk("worse", 2.0, 150.0)];

        let mut events: Vec<(&'static str, &'static str, bool)> = Vec::new();
        let (kept, counts) =
            mfs_sorted_sweep_with(items(), 0.01, &mut |s, v, relaxed| {
                events.push((*s, *v, relaxed));
            });
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].payload, "base");
        assert_eq!(counts.relaxed_killed, 1);
        assert!(events.contains(&(("base"), ("near"), true)), "events: {events:?}");
        assert!(events.contains(&(("base"), ("worse"), false)), "events: {events:?}");

        // Exact sweep: same exact kill, no relaxed events, counter 0.
        let mut exact_events: Vec<bool> = Vec::new();
        let (kept0, counts0) =
            mfs_sorted_sweep_with(items(), 0.0, &mut |_, _, relaxed| exact_events.push(relaxed));
        assert_eq!(kept0.len(), 2);
        assert_eq!(counts0.relaxed_killed, 0);
        assert!(exact_events.iter().all(|r| !r));
    }

    #[test]
    fn approximate_coverage_holds_across_sign_change() {
        // PWL values crossing zero: the (1+eps) guarantee is the additive
        // eps·|p(x)| bound, which at negative values shrinks toward g(t)
        // = (1−eps)·t. Check every discarded candidate is covered within
        // the documented slack at sampled points.
        let mut items = Vec::new();
        let mut seed = 4242u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / ((1u64 << 31) as f64)
        };
        for i in 0..24 {
            let cost = (next() * 3.0).round();
            let y0 = next() * 20.0 - 10.0; // straddles zero
            let slope = next() * 4.0 - 2.0;
            items.push(FuncPoint::new(i, vec![cost], vec![Pwl::linear(y0, slope, 0.0, 6.0)]));
        }
        let eps = 0.05;
        let originals = items.clone();
        let kept = mfs_approximate(items, eps);
        for step in 0..=12 {
            let x = step as f64 * 0.5;
            for orig in &originals {
                let Some(v) = orig.pwls[0].eval(x) else { continue };
                let covered = kept.iter().any(|k| {
                    k.domain().contains(x)
                        && k.scalars[0] <= orig.scalars[0] + eps * orig.scalars[0].abs() + 1e-12
                        && k.pwls[0]
                            .eval(x)
                            .is_some_and(|kv| kv <= v + eps * v.abs() + 1e-9)
                });
                assert!(covered, "candidate {} uncovered at x={x}", orig.payload);
            }
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
