//! Randomized property tests of the PWL algebra (paper Eq. 3) and the
//! MFS pruning invariants (paper Definition 4.3), driven by a seeded
//! in-tree generator so every run checks the same cases.

use msrnet_pwl::{
    lower_envelope, mfs_divide_conquer, mfs_naive, upper_envelope, FuncPoint, Pwl, Segment,
};
use msrnet_rng::{Rng, SeedableRng, SplitMix64};

const CASES: usize = 128;

/// A random **continuous** PWL with `1..=max_segs` contiguous segments
/// on `[0, 10]`, finite values. Continuity matches the function class
/// the optimizer actually produces (maxima and affine images of
/// continuous functions); jump discontinuities would make one-sided
/// limits at breakpoints observable and the pointwise properties below
/// ill-posed.
fn arb_pwl(rng: &mut SplitMix64, max_segs: usize) -> Pwl {
    let k = rng.gen_range(1..=max_segs);
    let mut segs = Vec::with_capacity(k);
    let width = 10.0 / k as f64;
    let mut y = rng.gen_range(-100.0..100.0f64);
    for i in 0..k {
        let x0 = i as f64 * width;
        let slope = rng.gen_range(-20.0..20.0f64);
        segs.push(Segment::new(x0, x0 + width, y, slope));
        y += slope * width;
    }
    Pwl::from_segments(segs)
}

/// Sample points covering the domain including segment boundaries.
fn samples() -> Vec<f64> {
    (0..=40).map(|i| i as f64 * 0.25).collect()
}

#[test]
fn max_is_pointwise_max() {
    let mut rng = SplitMix64::seed_from_u64(10);
    for _ in 0..CASES {
        let f = arb_pwl(&mut rng, 6);
        let g = arb_pwl(&mut rng, 6);
        let m = f.max(&g);
        for x in samples() {
            match (f.eval(x), g.eval(x)) {
                (Some(a), Some(b)) => {
                    let expect = a.max(b);
                    let got = m.eval(x).expect("defined on common domain");
                    assert!((got - expect).abs() < 1e-6, "x={x}: {got} vs {expect}");
                }
                _ => assert!(m.eval(x).is_none()),
            }
        }
    }
}

#[test]
fn max_is_commutative_and_idempotent() {
    let mut rng = SplitMix64::seed_from_u64(11);
    for _ in 0..CASES {
        let f = arb_pwl(&mut rng, 5);
        let g = arb_pwl(&mut rng, 5);
        let ab = f.max(&g);
        let ba = g.max(&f);
        for x in samples() {
            assert_eq!(ab.eval(x).is_some(), ba.eval(x).is_some());
            if let (Some(a), Some(b)) = (ab.eval(x), ba.eval(x)) {
                assert!((a - b).abs() < 1e-6);
            }
            if let (Some(a), Some(b)) = (f.max(&f).eval(x), f.eval(x)) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn add_scalar_then_linear_compose() {
    let mut rng = SplitMix64::seed_from_u64(12);
    for _ in 0..CASES {
        let f = arb_pwl(&mut rng, 5);
        let c = rng.gen_range(-50.0..50.0f64);
        let s = rng.gen_range(-10.0..10.0f64);
        let g = f.add_scalar(c).add_linear(0.0, s);
        for x in samples() {
            if let Some(v) = f.eval(x) {
                let got = g.eval(x).expect("same domain");
                assert!((got - (v + c + s * x)).abs() < 1e-6);
            }
        }
    }
}

#[test]
fn shift_arg_translates() {
    let mut rng = SplitMix64::seed_from_u64(13);
    for _ in 0..CASES {
        let f = arb_pwl(&mut rng, 5);
        let dx = rng.gen_range(0.0..5.0f64);
        let g = f.shifted_arg(dx);
        for x in samples() {
            let expect = f.eval(x + dx);
            let got = g.eval(x);
            match (expect, got) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-6),
                // Tolerance at boundaries may disagree by EPS; accept
                // one-sided misses only within EPS of an endpoint.
                (None, None) => {}
                _ => {
                    let near_boundary = f
                        .segments()
                        .iter()
                        .any(|s| (s.x0 - (x + dx)).abs() < 1e-6 || (s.x1 - (x + dx)).abs() < 1e-6);
                    assert!(near_boundary, "shift mismatch at x={x}, dx={dx}");
                }
            }
        }
    }
}

#[test]
fn clamp_domain_restricts() {
    let mut rng = SplitMix64::seed_from_u64(14);
    for _ in 0..CASES {
        let f = arb_pwl(&mut rng, 6);
        let lo = rng.gen_range(0.0..5.0f64);
        let hi = lo + rng.gen_range(0.0..5.0f64);
        let g = f.clamp_domain(lo, hi);
        for x in samples() {
            if x < lo - 1e-9 || x > hi + 1e-9 {
                assert!(g.eval(x).is_none() || (x - lo).abs() < 1e-6 || (x - hi).abs() < 1e-6);
            } else if let Some(v) = g.eval(x) {
                let orig = f.eval(x).expect("clamp is a restriction");
                assert!((v - orig).abs() < 1e-6);
            }
        }
    }
}

#[test]
fn le_regions_sound() {
    let mut rng = SplitMix64::seed_from_u64(15);
    for _ in 0..CASES {
        let f = arb_pwl(&mut rng, 6);
        let g = arb_pwl(&mut rng, 6);
        let region = f.le_regions(&g);
        for x in samples() {
            if let (Some(a), Some(b)) = (f.eval(x), g.eval(x)) {
                if region.contains(x) {
                    // Region points genuinely satisfy f ≤ g (with
                    // crossing-point tolerance).
                    assert!(a <= b + 1e-6, "x={x}: {a} > {b}");
                } else {
                    // Strictly-below points must be in the region.
                    assert!(a >= b - 1e-6, "x={x}: {a} < {b} but not in region");
                }
            }
        }
    }
}

#[test]
fn envelope_matches_fold() {
    let mut rng = SplitMix64::seed_from_u64(16);
    for _ in 0..CASES {
        let n = rng.gen_range(1..5usize);
        let fs: Vec<Pwl> = (0..n).map(|_| arb_pwl(&mut rng, 4)).collect();
        let env = upper_envelope(&fs);
        for x in samples() {
            let all: Option<Vec<f64>> = fs.iter().map(|f| f.eval(x)).collect();
            match all {
                Some(vs) => {
                    let expect = vs.into_iter().fold(f64::NEG_INFINITY, f64::max);
                    let got = env.eval(x).expect("defined where all defined");
                    assert!((got - expect).abs() < 1e-6);
                }
                None => assert!(env.eval(x).is_none()),
            }
        }
    }
}

#[test]
fn min_is_pointwise_min_and_duals_max() {
    let mut rng = SplitMix64::seed_from_u64(17);
    for _ in 0..CASES {
        let f = arb_pwl(&mut rng, 6);
        let g = arb_pwl(&mut rng, 6);
        let mn = f.min(&g);
        let mx = f.max(&g);
        for x in samples() {
            if let (Some(a), Some(b)) = (f.eval(x), g.eval(x)) {
                let lo = mn.eval(x).expect("common domain");
                let hi = mx.eval(x).expect("common domain");
                assert!((lo - a.min(b)).abs() < 1e-6);
                // min + max = f + g pointwise.
                assert!(((lo + hi) - (a + b)).abs() < 1e-6);
            }
        }
        let env = lower_envelope(&[f.clone(), g.clone()]);
        for x in samples() {
            assert_eq!(env.eval(x).is_some(), mn.eval(x).is_some());
        }
    }
}

#[test]
fn min_max_value_bound_all_samples() {
    let mut rng = SplitMix64::seed_from_u64(18);
    for _ in 0..CASES {
        let f = arb_pwl(&mut rng, 6);
        let lo = f.min_value().expect("nonempty");
        let hi = f.max_value().expect("nonempty");
        for x in samples() {
            if let Some(v) = f.eval(x) {
                assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            }
        }
    }
}

#[test]
fn mfs_preserves_coverage() {
    let mut rng = SplitMix64::seed_from_u64(19);
    for _ in 0..CASES {
        // Build candidates with a cost scalar and one PWL; MFS must keep,
        // for every (x, candidate), a survivor at least as good.
        let n = rng.gen_range(2..12usize);
        let originals: Vec<FuncPoint<usize, 1>> = (0..n)
            .map(|i| {
                let cost = rng.gen_range(0..5i32) as f64;
                let pwl = arb_pwl(&mut rng, 4);
                FuncPoint::new(i, [cost], vec![pwl])
            })
            .collect();
        let kept_naive = mfs_naive(originals.clone());
        let kept_dc = mfs_divide_conquer(originals.clone(), 3);
        for kept in [&kept_naive, &kept_dc] {
            for orig in &originals {
                for x in samples() {
                    let Some(v) = orig.pwls[0].eval(x) else { continue };
                    let covered = kept.iter().any(|k| {
                        k.domain().contains(x)
                            && k.scalars[0] <= orig.scalars[0]
                            && k.pwls[0].eval(x).is_some_and(|kv| kv <= v + 1e-6)
                    });
                    assert!(covered, "({}, {x}) uncovered", orig.payload);
                }
            }
        }
        // Both algorithms achieve the same pointwise optimum per cost.
        for x in samples() {
            for budget in 0..5 {
                let best = |kept: &[FuncPoint<usize, 1>]| {
                    kept.iter()
                        .filter(|k| k.scalars[0] <= budget as f64 && k.domain().contains(x))
                        .filter_map(|k| k.pwls[0].eval(x))
                        .fold(f64::INFINITY, f64::min)
                };
                let a = best(&kept_naive);
                let b = best(&kept_dc);
                if a.is_finite() || b.is_finite() {
                    assert!((a - b).abs() < 1e-6, "x={x} budget={budget}: {a} vs {b}");
                }
            }
        }
    }
}
