//! Seeded dominance laws for the minimal-functional-subset pruning.
//!
//! The DP's correctness rests on one property of `mfs_naive` /
//! `mfs_divide_conquer` (paper §IV-D): pruning may only remove a
//! candidate where some *surviving* candidate is at least as good in
//! every dimension. In particular a candidate that is strictly best for
//! some external capacitance `c_E` must survive with `c_E` still in its
//! validity domain. These tests check that law on seeded random
//! families of scalar+PWL candidates, and that both pruning strategies
//! expose identical optimal envelopes.

use msrnet_pwl::{mfs_divide_conquer, mfs_naive, FuncPoint, Pwl, Segment};
use msrnet_rng::{Rng, SeedableRng, SplitMix64};

const DOMAIN: (f64, f64) = (0.0, 10.0);
/// Interpolation slack: restriction may re-split segments, perturbing
/// evaluated values by an ulp or two.
const EPS: f64 = 1e-9;

/// A random piecewise-linear function over a random sub-interval of the
/// test domain, with a couple of breakpoints.
fn random_pwl(rng: &mut SplitMix64) -> Pwl {
    let lo = rng.gen_range(DOMAIN.0..DOMAIN.1 - 1.0);
    let hi = rng.gen_range(lo + 0.5..DOMAIN.1);
    let pieces = rng.gen_range(1..4u32);
    let mut segs = Vec::new();
    let mut x = lo;
    let mut y = rng.gen_range(0.0..50.0f64);
    for i in 0..pieces {
        let next = if i + 1 == pieces {
            hi
        } else {
            rng.gen_range(x..hi)
        };
        if next <= x {
            continue;
        }
        let slope = rng.gen_range(-6.0..6.0f64);
        segs.push(Segment::new(x, next, y, slope));
        y += slope * (next - x);
        x = next;
    }
    Pwl::from_segments(segs)
}

fn random_family(seed: u64) -> Vec<FuncPoint<usize>> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = rng.gen_range(2..18usize);
    let scalar_dims = rng.gen_range(1..3usize);
    let pwl_dims = rng.gen_range(1..3usize);
    (0..n)
        .map(|i| {
            let scalars = (0..scalar_dims)
                .map(|_| rng.gen_range(0.0..10.0f64))
                .collect();
            let pwls = (0..pwl_dims).map(|_| random_pwl(&mut rng)).collect();
            FuncPoint::new(i, scalars, pwls)
        })
        .collect()
}

/// Sample points covering the test domain densely enough to hit every
/// random segment, nudged off round values to avoid breakpoint ties.
fn sample_points() -> Vec<f64> {
    (0..400)
        .map(|i| DOMAIN.0 + (DOMAIN.1 - DOMAIN.0) * (i as f64 + 0.437) / 400.0)
        .collect()
}

/// True when `s` is at least as good as `orig` at `x` in every scalar
/// and every PWL dimension (both defined at `x`).
fn weakly_dominates_at(s: &FuncPoint<usize>, orig: &FuncPoint<usize>, x: f64) -> bool {
    if !s.domain().contains(x) {
        return false;
    }
    let scalars_ok = s
        .scalars
        .iter()
        .zip(&orig.scalars)
        .all(|(a, b)| *a <= *b + EPS);
    if !scalars_ok {
        return false;
    }
    s.pwls.iter().zip(&orig.pwls).all(|(fa, fb)| {
        match (fa.eval(x), fb.eval(x)) {
            (Some(ya), Some(yb)) => ya <= yb + EPS,
            // `orig` undefined at x: nothing to beat.
            (_, None) => true,
            (None, Some(_)) => false,
        }
    })
}

/// The core law: wherever an original candidate was defined, some
/// survivor is at least as good in every dimension — so no point that
/// is strictly best for some `c_E` is ever removed.
fn assert_covered(originals: &[FuncPoint<usize>], kept: &[FuncPoint<usize>], seed: u64) {
    for x in sample_points() {
        for orig in originals {
            if !orig.domain().contains(x) || orig.pwls.iter().any(|f| f.eval(x).is_none()) {
                continue;
            }
            assert!(
                kept.iter().any(|s| weakly_dominates_at(s, orig, x)),
                "seed {seed}: candidate {} at x={x} lost without a \
                 dominating survivor",
                orig.payload
            );
        }
    }
}

#[test]
fn pruning_never_removes_a_point_strictly_best_somewhere() {
    for seed in 0..60u64 {
        let originals = random_family(seed);
        let kept = mfs_naive(originals.clone());
        assert!(!kept.is_empty() || originals.iter().all(|p| !p.is_valid()));
        assert_covered(&originals, &kept, seed);
    }
}

#[test]
fn divide_and_conquer_satisfies_the_same_law() {
    for seed in 60..120u64 {
        let originals = random_family(seed);
        for threshold in [2, 4, 8] {
            let kept = mfs_divide_conquer(originals.clone(), threshold);
            assert_covered(&originals, &kept, seed);
        }
    }
}

#[test]
fn strategies_expose_identical_optimal_envelopes() {
    // The surviving sets may differ in how ties are carried, but the
    // pointwise optimum over survivors is the problem's answer and must
    // not depend on the pruning strategy.
    for seed in 120..170u64 {
        let originals = random_family(seed);
        let naive = mfs_naive(originals.clone());
        let dc = mfs_divide_conquer(originals, 4);
        for x in sample_points() {
            let envelope = |kept: &[FuncPoint<usize>]| -> Option<f64> {
                kept.iter()
                    .filter(|s| s.domain().contains(x))
                    .filter_map(|s| s.pwls[0].eval(x))
                    .min_by(f64::total_cmp)
            };
            let (a, b) = (envelope(&naive), envelope(&dc));
            match (a, b) {
                (Some(a), Some(b)) => assert!(
                    (a - b).abs() <= EPS,
                    "seed {seed}: envelopes diverge at x={x}: {a} vs {b}"
                ),
                (None, None) => {}
                _ => panic!("seed {seed}: envelope defined for one strategy only at x={x}"),
            }
        }
    }
}

#[test]
fn pruning_is_idempotent() {
    for seed in 170..200u64 {
        let kept = mfs_naive(random_family(seed));
        let names: Vec<usize> = kept.iter().map(|p| p.payload).collect();
        let again = mfs_naive(kept);
        let names2: Vec<usize> = again.iter().map(|p| p.payload).collect();
        assert_eq!(names, names2, "seed {seed}: second pruning pass changed the set");
    }
}
