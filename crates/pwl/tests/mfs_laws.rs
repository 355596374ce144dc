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

fn random_family<const S: usize>(seed: u64) -> Vec<FuncPoint<usize, S>> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = rng.gen_range(2..18usize);
    let pwl_dims = rng.gen_range(1..3usize);
    (0..n)
        .map(|i| {
            let scalars = std::array::from_fn(|_| rng.gen_range(0.0..10.0f64));
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
fn weakly_dominates_at<const S: usize>(
    s: &FuncPoint<usize, S>,
    orig: &FuncPoint<usize, S>,
    x: f64,
) -> bool {
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
fn assert_covered<const S: usize>(
    originals: &[FuncPoint<usize, S>],
    kept: &[FuncPoint<usize, S>],
    seed: u64,
) {
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

fn check_naive_law<const S: usize>(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let originals = random_family::<S>(seed);
        let kept = mfs_naive(originals.clone());
        assert!(!kept.is_empty() || originals.iter().all(|p| !p.is_valid()));
        assert_covered(&originals, &kept, seed);
    }
}

#[test]
fn pruning_never_removes_a_point_strictly_best_somewhere() {
    check_naive_law::<1>(0..20);
    check_naive_law::<2>(20..40);
    check_naive_law::<3>(40..60);
}

fn check_divide_conquer_law<const S: usize>(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let originals = random_family::<S>(seed);
        for threshold in [2, 4, 8] {
            let kept = mfs_divide_conquer(originals.clone(), threshold);
            assert_covered(&originals, &kept, seed);
        }
    }
}

#[test]
fn divide_and_conquer_satisfies_the_same_law() {
    check_divide_conquer_law::<1>(60..80);
    check_divide_conquer_law::<2>(80..100);
    check_divide_conquer_law::<3>(100..120);
}

fn check_envelopes<const S: usize>(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let originals = random_family::<S>(seed);
        let naive = mfs_naive(originals.clone());
        let dc = mfs_divide_conquer(originals, 4);
        for x in sample_points() {
            let envelope = |kept: &[FuncPoint<usize, S>]| -> Option<f64> {
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
fn strategies_expose_identical_optimal_envelopes() {
    // The surviving sets may differ in how ties are carried, but the
    // pointwise optimum over survivors is the problem's answer and must
    // not depend on the pruning strategy.
    check_envelopes::<1>(120..137);
    check_envelopes::<2>(137..154);
    check_envelopes::<3>(154..170);
}

fn check_idempotent<const S: usize>(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let kept = mfs_naive(random_family::<S>(seed));
        let names: Vec<usize> = kept.iter().map(|p| p.payload).collect();
        let again = mfs_naive(kept);
        let names2: Vec<usize> = again.iter().map(|p| p.payload).collect();
        assert_eq!(
            names, names2,
            "seed {seed}: second pruning pass changed the set"
        );
    }
}

#[test]
fn pruning_is_idempotent() {
    check_idempotent::<1>(170..180);
    check_idempotent::<2>(180..190);
    check_idempotent::<3>(190..200);
}

// ---- Bit identity against an unfiltered reference -------------------
//
// The kernels skip scalar-incomparable pairs and compute dominance
// regions in scratch buffers. The reference below is the plain
// algorithm, built from the public `dominance_region` and `invalidate`
// only: every pair is visited, in the same order. Survivors, their order,
// their domains and their segments must agree bit for bit, because the
// DP's champion pools (and so its candidate counts) follow survivor
// order.

fn reference_prune_pair<const S: usize>(a: &mut FuncPoint<usize, S>, b: &mut FuncPoint<usize, S>) {
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

fn reference_naive<const S: usize>(
    mut items: Vec<FuncPoint<usize, S>>,
) -> Vec<FuncPoint<usize, S>> {
    for j in 1..items.len() {
        let (left, right) = items.split_at_mut(j);
        let b = &mut right[0];
        for a in left.iter_mut() {
            reference_prune_pair(a, b);
            if !b.is_valid() {
                break;
            }
        }
    }
    items.retain(FuncPoint::is_valid);
    items
}

fn reference_divide_conquer<const S: usize>(
    mut items: Vec<FuncPoint<usize, S>>,
    threshold: usize,
) -> Vec<FuncPoint<usize, S>> {
    let threshold = threshold.max(2);
    if items.len() <= threshold {
        return reference_naive(items);
    }
    let right_half = items.split_off(items.len() / 2);
    let mut left = reference_divide_conquer(items, threshold);
    let mut right = reference_divide_conquer(right_half, threshold);
    for a in &mut left {
        for b in &mut right {
            reference_prune_pair(a, b);
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

/// Every bit of a survivor list: payloads in order, domain spans and
/// PWL segments as raw `f64` bits (so `-0.0` and `0.0` differ).
fn fingerprint<const S: usize>(kept: &[FuncPoint<usize, S>]) -> Vec<(usize, Vec<u64>)> {
    kept.iter()
        .map(|p| {
            let mut bits: Vec<u64> = p.scalars.iter().map(|v| v.to_bits()).collect();
            for &(lo, hi) in p.domain().spans() {
                bits.extend([lo.to_bits(), hi.to_bits()]);
            }
            for f in &p.pwls {
                bits.push(f.segments().len() as u64);
                for s in f.segments() {
                    bits.extend([s.x0, s.x1, s.y0, s.slope].map(f64::to_bits));
                }
            }
            (p.payload, bits)
        })
        .collect()
}

/// A family built to hit the tie-breaking paths: scalars drawn from a
/// few values (so exact ties on every coordinate are common), `-0.0`
/// beside `0.0`, `-inf` scalars (the DP's "no sink below" delay), `-inf`
/// PWLs (no source below), shared PWLs and outright duplicates.
fn tie_family<const S: usize>(seed: u64) -> Vec<FuncPoint<usize, S>> {
    const VALUES: [f64; 6] = [0.0, -0.0, 1.0, 2.0, 2.0, f64::NEG_INFINITY];
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = rng.gen_range(2..40usize);
    let pwl_dims = rng.gen_range(1..3usize);
    let shared: Vec<Pwl> = (0..3).map(|_| random_pwl(&mut rng)).collect();
    let mut out: Vec<FuncPoint<usize, S>> = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && rng.gen_range(0..5u32) == 0 {
            // An exact duplicate of an earlier candidate.
            let mut dup = out[rng.gen_range(0..i)].clone();
            dup.payload = i;
            out.push(dup);
            continue;
        }
        let scalars = std::array::from_fn(|_| VALUES[rng.gen_range(0..VALUES.len())]);
        let pwls = (0..pwl_dims)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => shared[rng.gen_range(0..shared.len())].clone(),
                1 => Pwl::neg_inf(DOMAIN.0, DOMAIN.1),
                _ => random_pwl(&mut rng),
            })
            .collect();
        out.push(FuncPoint::new(i, scalars, pwls));
    }
    out
}

fn check_bit_identity<const S: usize>(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        for family in [tie_family::<S>(seed), random_family::<S>(seed)] {
            let want = fingerprint(&reference_naive(family.clone()));
            assert_eq!(
                fingerprint(&mfs_naive(family.clone())),
                want,
                "seed {seed}: naive"
            );
            for threshold in [2, 4, 8] {
                let want = fingerprint(&reference_divide_conquer(family.clone(), threshold));
                let got = fingerprint(&mfs_divide_conquer(family.clone(), threshold));
                assert_eq!(got, want, "seed {seed}: divide-and-conquer at {threshold}");
            }
        }
    }
}

#[test]
fn kernels_match_the_unfiltered_reference_bit_for_bit() {
    check_bit_identity::<1>(0..150);
    check_bit_identity::<2>(150..300);
    check_bit_identity::<3>(300..450);
}
