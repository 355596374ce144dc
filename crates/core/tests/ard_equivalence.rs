//! ARD oracle agreement on degenerate nets.
//!
//! The `msrnet-cli verify` harness cross-checks `ard_linear` against
//! `ard_naive` on generated instances; these tests pin the degenerate
//! corners of that pair explicitly — the smallest nets where the linear
//! sweep's bookkeeping (top-two merges, local terminal roles) could
//! plausibly diverge from the brute-force definition.

use msrnet_core::ard::{ard_linear, ard_naive};
use msrnet_core::{optimize, MsriError, MsriOptions, PruningStrategy, TerminalOptions};
use msrnet_geom::Point;
use msrnet_rctree::{
    Assignment, Buffer, Net, NetBuilder, Repeater, Technology, Terminal, TerminalId,
};

fn tech() -> Technology {
    Technology::new(0.03, 0.000_35)
}

/// The asymmetric multi-cost library from the verify regime grid
/// (three distinct cost denominations whose pairwise sums stay
/// distinct) — the Pareto-explosion regime that used to be gated out of
/// DP cross-checks as `dp_intractable` at high insertion-point counts.
fn multi_cost_asym_lib() -> Vec<Repeater> {
    let b1 = Buffer::new("1X", 50.0, 180.0, 0.05, 1.0);
    let b2 = b1.scaled(2.0);
    let b4 = b1.scaled(4.0);
    vec![
        Repeater::from_buffer_pair("asym_s", &b1, &b2),
        Repeater::from_buffer_pair("rep2x", &b2, &b2),
        Repeater::from_buffer_pair("asym_l", &b2, &b4),
    ]
}

/// `src —ip×n— snk` chain: every internal vertex is an insertion point,
/// so the candidate-set growth is driven purely by the library.
fn chain_net(n_ips: usize, seg: f64) -> Net {
    let mut b = NetBuilder::new(tech());
    let src = b.terminal(
        Point::new(0.0, 0.0),
        Terminal::bidirectional(12.0, 80.0, 0.05, 180.0),
    );
    let mut prev = src;
    let mut x = 0.0;
    for _ in 0..n_ips {
        x += seg;
        let ip = b.insertion_point(Point::new(x, 0.0));
        b.wire_with_length(prev, ip, seg);
        prev = ip;
    }
    x += seg;
    let snk = b.terminal(
        Point::new(x, 0.0),
        Terminal::bidirectional(45.0, 70.0, 0.09, 120.0),
    );
    b.wire_with_length(prev, snk, seg);
    b.build().expect("valid chain net")
}

/// Star with a central Steiner vertex and three legs of two insertion
/// points each — the joins at the center exercise the pre-materialization
/// join cutoffs on every pruning strategy.
fn star_net(seg: f64) -> Net {
    let mut b = NetBuilder::new(tech());
    let center = b.steiner(Point::new(0.0, 0.0));
    let dirs = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)];
    for (leg, (dx, dy)) in dirs.iter().enumerate() {
        let ip1 = b.insertion_point(Point::new(dx * seg, dy * seg));
        let ip2 = b.insertion_point(Point::new(dx * 2.0 * seg, dy * 2.0 * seg));
        let term = if leg == 0 {
            Terminal::bidirectional(10.0, 60.0, 0.05, 180.0)
        } else {
            Terminal::bidirectional(0.0, 40.0 + 15.0 * leg as f64, 0.07, 150.0)
        };
        let t = b.terminal(Point::new(dx * 3.0 * seg, dy * 3.0 * seg), term);
        b.wire_with_length(center, ip1, seg);
        b.wire_with_length(ip1, ip2, seg);
        b.wire_with_length(ip2, t, seg);
    }
    b.build().expect("valid star net")
}

/// The pruning strategies, all of which must reproduce the exact
/// frontier bit-for-bit.
const EXACT_STRATEGIES: [PruningStrategy; 3] = [
    PruningStrategy::DivideConquer,
    PruningStrategy::Naive,
    PruningStrategy::WholeDomainOnly,
];

fn assert_strategies_agree(net: &Net, lib: &[Repeater], allow_inverting: bool, label: &str) {
    let opts = TerminalOptions::defaults(net);
    let mut curves = Vec::new();
    for strategy in EXACT_STRATEGIES {
        let o = MsriOptions {
            pruning: strategy,
            allow_inverting,
            ..MsriOptions::default()
        };
        curves.push((
            strategy,
            optimize(net, TerminalId(0), lib, &opts, &o)
                .unwrap_or_else(|e| panic!("{label}: {strategy:?} failed: {e:?}")),
        ));
    }
    let (_, base) = &curves[0];
    assert!(base.len() > 1, "{label}: expected a non-trivial frontier");
    for (strategy, c) in &curves[1..] {
        assert_eq!(
            base.len(),
            c.len(),
            "{label}: {strategy:?} frontier size {} vs {}",
            c.len(),
            base.len()
        );
        for (a, b) in base.points().iter().zip(c.points()) {
            assert!(
                (a.cost - b.cost).abs() < 1e-9 && (a.ard - b.ard).abs() < 1e-9,
                "{label}: {strategy:?} point ({}, {}) vs ({}, {})",
                b.cost,
                b.ard,
                a.cost,
                a.ard
            );
        }
    }
}

#[test]
fn two_terminal_zero_insertion_point_net_agrees() {
    let mut b = NetBuilder::new(tech());
    let a = b.terminal(Point::new(0.0, 0.0), Terminal::bidirectional(12.0, 80.0, 0.05, 180.0));
    let c = b.terminal(Point::new(1500.0, 0.0), Terminal::bidirectional(45.0, 70.0, 0.09, 120.0));
    b.wire_with_length(a, c, 1500.0);
    let net = b.build().expect("valid two-terminal net");

    let asg = Assignment::empty(net.topology.vertex_count());
    for root in net.terminal_ids() {
        let rooted = net.rooted_at_terminal(root);
        let fast = ard_linear(&net, &rooted, &[], &asg);
        let slow = ard_naive(&net, &rooted, &[], &asg);
        assert!(fast.ard.is_finite(), "two sources and two sinks must pair");
        assert!(
            (fast.ard - slow.ard).abs() <= 1e-9 * slow.ard.abs(),
            "root {root:?}: linear {} vs naive {}",
            fast.ard,
            slow.ard
        );
        assert_eq!(fast.critical, slow.critical, "root {root:?}");
    }

    // With no insertion points the DP has a single (empty) frontier
    // point whose ARD is the bare net's.
    let rooted = net.rooted_at_terminal(TerminalId(0));
    let bare = ard_linear(&net, &rooted, &[], &asg);
    let curve = optimize(
        &net,
        TerminalId(0),
        &[],
        &TerminalOptions::defaults(&net),
        &MsriOptions::default(),
    )
    .expect("two-terminal net optimizes");
    let best = curve
        .points()
        .iter()
        .map(|p| p.ard)
        .fold(f64::INFINITY, f64::min);
    assert!(
        (best - bare.ard).abs() <= 1e-9 * bare.ard.abs(),
        "frontier {best} vs bare ARD {}",
        bare.ard
    );
}

#[test]
fn single_terminal_net_rejected_everywhere() {
    let mut b = NetBuilder::new(tech());
    b.terminal(Point::new(0.0, 0.0), Terminal::bidirectional(5.0, 50.0, 0.05, 180.0));
    let net = b.build().expect("single-terminal net is a valid net");

    // No distinct source/sink pair exists: both ARD sweeps must agree
    // on -inf with no critical pair…
    let rooted = net.rooted_at_terminal(TerminalId(0));
    let asg = Assignment::empty(net.topology.vertex_count());
    let fast = ard_linear(&net, &rooted, &[], &asg);
    let slow = ard_naive(&net, &rooted, &[], &asg);
    assert_eq!(fast.ard, f64::NEG_INFINITY);
    assert_eq!(slow.ard, f64::NEG_INFINITY);
    assert_eq!(fast.critical, None);
    assert_eq!(slow.critical, None);

    // …and the DP must reject instead of panicking on a root with no
    // child subtree (regression: used to index `children[0]` blindly).
    let err = optimize(
        &net,
        TerminalId(0),
        &[],
        &TerminalOptions::defaults(&net),
        &MsriOptions::default(),
    )
    .expect_err("no feasible source/sink pair");
    assert_eq!(err, MsriError::NoFeasiblePair);
}

#[test]
fn directional_two_terminal_net_agrees() {
    // One pure source driving one pure sink: exactly one ordered pair,
    // so both sweeps must report it — and rooting at either end (the
    // sink root exercises the arrival/delay split at a leaf root).
    let mut b = NetBuilder::new(tech());
    let s = b.terminal(Point::new(0.0, 0.0), Terminal::source_only(30.0, 0.06, 150.0));
    let t = b.terminal(Point::new(900.0, 0.0), Terminal::sink_only(40.0, 0.11));
    b.wire_with_length(s, t, 900.0);
    let net = b.build().expect("valid source/sink net");

    let asg = Assignment::empty(net.topology.vertex_count());
    for root in net.terminal_ids() {
        let rooted = net.rooted_at_terminal(root);
        let fast = ard_linear(&net, &rooted, &[], &asg);
        let slow = ard_naive(&net, &rooted, &[], &asg);
        assert!(fast.ard.is_finite());
        assert!((fast.ard - slow.ard).abs() <= 1e-9 * slow.ard.abs());
        assert_eq!(fast.critical, Some((TerminalId(0), TerminalId(1))));
        assert_eq!(fast.critical, slow.critical);
    }
}

#[test]
fn high_insertion_point_multicost_chain_strategies_and_oracles_agree() {
    // A 10-insertion-point chain under the three-cost asymmetric library
    // puts the DP estimate well past the old `dp_intractable` gate
    // ((10+1)^4 ≈ 1.5e4); the join cutoffs and predictive pre-bounds
    // are what make it cheap. Every strategy must agree bit-for-bit, and
    // each frontier point must be realizable under BOTH independent ARD
    // oracles — the cross-check the verify harness used to skip here.
    let net = chain_net(10, 700.0);
    let lib = multi_cost_asym_lib();
    assert_strategies_agree(&net, &lib, false, "multicost chain");

    let opts = TerminalOptions::defaults(&net);
    let curve = optimize(
        &net,
        TerminalId(0),
        &lib,
        &opts,
        &MsriOptions::default(),
    )
    .expect("multicost chain optimizes");
    let rooted = net.rooted_at_terminal(TerminalId(0));
    for p in curve.points() {
        let fast = ard_linear(&net, &rooted, &lib, &p.assignment);
        let slow = ard_naive(&net, &rooted, &lib, &p.assignment);
        assert!(
            (fast.ard - p.ard).abs() <= 1e-6,
            "linear ARD {} != claimed {}",
            fast.ard,
            p.ard
        );
        assert!(
            (fast.ard - slow.ard).abs() <= 1e-9 * slow.ard.abs().max(1.0),
            "oracles diverge on buffered net: {} vs {}",
            fast.ard,
            slow.ard
        );
        assert_eq!(fast.critical, slow.critical);
    }
}

#[test]
fn inverting_asymmetric_star_strategies_agree() {
    // Joins at the star center under an inverting asymmetric pair: the
    // parity dimension doubles the candidate classes and the join-time
    // cutoffs must respect it. All exact strategies, same frontier.
    let b1 = Buffer::new("1X", 50.0, 180.0, 0.05, 1.0);
    let b3 = b1.scaled(3.0);
    let lib = vec![
        Repeater::from_buffer_pair("asym", &b1, &b3),
        Repeater::from_buffer_pair("iasym", &b3, &b1).inverting(),
    ];
    assert_strategies_agree(&star_net(900.0), &lib, true, "inverting star");
}
