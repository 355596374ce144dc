//! Seeded instance generation across a structured regime grid.
//!
//! Every case is fully determined by `(seed, index)`: the index selects
//! the regime (topology class, size class, library composition, driver
//! menus, wire-sizing options, technology corner) and a per-case
//! [`SplitMix64`] stream fills in the details. The grid deliberately
//! includes adversarial geometry — zero-length edges, duplicate points,
//! extreme R/C ratios — because that is where floating-point agreement
//! between independent implementations is most likely to crack.

use msrnet_core::{MsriOptions, TerminalOption, TerminalOptions, WireOption};
use msrnet_geom::Point;
use msrnet_incremental::{random_trace, Edit};
use msrnet_netgen::{table1, ExperimentNet};
use msrnet_rctree::{
    Buffer, Net, NetBuilder, Repeater, Technology, Terminal, TerminalId,
};
use msrnet_rng::{Rng, SeedableRng, SplitMix64};

/// One verification instance: a net plus everything the optimizer layers
/// need, and a private stream seed for check-internal randomness (random
/// repeater assignments, perturbation choices) so that re-running a case
/// — including every shrinking step — is deterministic.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Human-readable case label (`case0042-star` …).
    pub name: String,
    /// The net under test.
    pub net: Net,
    /// Repeater library (possibly empty).
    pub library: Vec<Repeater>,
    /// Per-terminal driver menus.
    pub drivers: TerminalOptions,
    /// Wire-width options (`[unit]` when wire sizing is off).
    pub wire_options: Vec<WireOption>,
    /// Optimizer knobs.
    pub options: MsriOptions,
    /// DP root terminal.
    pub root: TerminalId,
    /// Seed for check-internal randomness.
    pub check_seed: u64,
    /// Seeded edit trace for the incremental-session checks (empty for
    /// replayed corpus files unless a companion trace is loaded).
    pub edits: Vec<Edit>,
}

impl Instance {
    /// Wraps a bare net + library with default drivers and options — the
    /// constructor used when replaying `.msr` corpus files.
    pub fn from_net(name: impl Into<String>, net: Net, library: Vec<Repeater>) -> Self {
        let drivers = TerminalOptions::defaults(&net);
        let options = MsriOptions {
            allow_inverting: library.iter().any(|r| r.inverting),
            ..MsriOptions::default()
        };
        // Stable, content-derived stream seed so replays are reproducible.
        let check_seed = 0x5EED
            ^ (net.topology.vertex_count() as u64).wrapping_mul(0x9E37_79B9)
            ^ net.topology.total_wirelength().to_bits();
        Instance {
            name: name.into(),
            net,
            library,
            drivers,
            wire_options: vec![WireOption::unit()],
            options: MsriOptions::default(),
            root: TerminalId(0),
            check_seed,
            edits: Vec::new(),
        }
        .with_options(options)
    }

    fn with_options(mut self, options: MsriOptions) -> Self {
        self.options = options;
        self
    }

    /// Whether every terminal sits on a leaf (or isolated) vertex — the
    /// structural precondition of the MSRI dynamic program, which
    /// rejects internal (degree > 1) terminals.
    pub fn terminals_are_leaves(&self) -> bool {
        self.net.terminal_ids().all(|t| {
            let v = self.net.topology.terminal_vertex(t);
            self.net.topology.degree(v) <= 1
        })
    }
}

/// The topology classes of the regime grid, cycled by case index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyClass {
    /// Two end terminals joined by a chain of insertion points, with
    /// optional stub terminals hanging off Steiner vertices.
    Path,
    /// A central Steiner vertex with terminal legs, each optionally
    /// carrying an insertion point.
    Star,
    /// Steiner-routed random experiment net (paper §VI generator).
    RandomSteiner,
    /// Two distant terminal clusters (core-to-cache bus shape).
    Clustered,
    /// Adversarial geometry: zero-length edges, duplicate points,
    /// extreme R/C technology corners.
    Adversarial,
    /// Degenerate sizes: one terminal, two terminals with no insertion
    /// points, role-starved terminals.
    Degenerate,
}

const TOPOLOGY_CYCLE: [TopologyClass; 6] = [
    TopologyClass::Path,
    TopologyClass::Star,
    TopologyClass::RandomSteiner,
    TopologyClass::Clustered,
    TopologyClass::Adversarial,
    TopologyClass::Degenerate,
];

/// SplitMix-style avalanche so neighboring `(seed, index)` pairs get
/// unrelated case streams.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates case `index` of the stream rooted at `seed`, or `None` when
/// the drawn parameters fail to produce a valid net (rare; the runner
/// simply counts such cases as skipped).
pub fn generate(seed: u64, index: usize) -> Option<Instance> {
    let topo = TOPOLOGY_CYCLE[index % TOPOLOGY_CYCLE.len()];
    let mut rng = SplitMix64::seed_from_u64(mix(seed, index as u64));
    let check_seed = rng.next_u64();
    let tech = draw_tech(&mut rng, topo);
    // Asymmetric/inverting libraries make DP candidate sets grow
    // quadratically with insertion-point count, so those regimes pair
    // with coarser insertion grids — otherwise every DP oracle would be
    // skipped as intractable and the asymmetric cases never cross-check
    // the optimizer at all.
    let heavy_library = library_class(index) >= 3;
    let net = build_topology(&mut rng, topo, tech, heavy_library)?;
    let library = draw_library(&mut rng, index);
    let drivers = draw_drivers(&mut rng, &net);
    // Wire sizing on a sparse stripe of the grid; tiny nets only, so the
    // exhaustive wires oracle stays applicable.
    let wire_options = if index % 5 == 4 && net.topology.edge_count() <= 6 {
        vec![
            WireOption::unit(),
            WireOption::width("2W", 2.0, 0.0004),
        ]
    } else {
        vec![WireOption::unit()]
    };
    let options = MsriOptions {
        allow_inverting: library.iter().any(|r| r.inverting),
        ..MsriOptions::default()
    };
    let root = net
        .terminal_ids()
        .find(|&t| net.terminal(t).is_source())
        .unwrap_or(TerminalId(0));
    // A short edit trace for the incremental-session checks; seeded from
    // the case stream so every regime exercises the edit API too.
    let edits = random_trace(&net, check_seed, 3 + (check_seed % 4) as usize);
    Some(Instance {
        name: format!("case{index:04}-{topo:?}").to_lowercase(),
        net,
        library,
        drivers,
        wire_options,
        options,
        root,
        check_seed,
        edits,
    })
}

fn draw_tech(rng: &mut SplitMix64, topo: TopologyClass) -> Technology {
    if topo == TopologyClass::Adversarial {
        // Extreme R/C corners: ratios 10⁶ apart in both directions.
        match rng.gen_range(0..3u32) {
            0 => Technology::new(30.0, 3.5e-7),
            1 => Technology::new(3.0e-5, 0.35),
            _ => Technology::new(0.03, 0.000_35),
        }
    } else {
        Technology::new(0.03, 0.000_35)
    }
}

fn draw_terminal(rng: &mut SplitMix64, force_bidir: bool) -> Terminal {
    let at = rng.gen_range(0.0..200.0f64);
    let q = rng.gen_range(0.0..200.0f64);
    let cap = rng.gen_range(0.01..0.2f64);
    let res = rng.gen_range(20.0..400.0f64);
    if force_bidir {
        return Terminal::bidirectional(at, q, cap, res);
    }
    match rng.gen_range(0..4u32) {
        0 => Terminal::bidirectional(at, q, cap, res),
        1 => Terminal::source_only(at, cap, res),
        2 => Terminal::sink_only(q, cap),
        _ => Terminal::bidirectional(0.0, 0.0, cap, res),
    }
}

fn build_topology(
    rng: &mut SplitMix64,
    topo: TopologyClass,
    tech: Technology,
    heavy_library: bool,
) -> Option<Net> {
    match topo {
        TopologyClass::Path => build_path(rng, tech, false),
        TopologyClass::Star => build_star(rng, tech, false),
        TopologyClass::RandomSteiner => {
            let params = table1();
            let n = if heavy_library {
                rng.gen_range(4..7usize)
            } else {
                rng.gen_range(4..10usize)
            };
            let spacing = if heavy_library {
                [4000.0, 6000.0, 9000.0][rng.gen_range(0..3usize)]
            } else {
                [1000.0, 2000.0, 4000.0][rng.gen_range(0..3usize)]
            };
            let exp = if rng.gen_bool(0.3) {
                ExperimentNet::random_asymmetric(rng, n, 1 + n / 3, &params)
            } else {
                ExperimentNet::random(rng, n, &params)
            };
            Some(exp.ok()?.with_insertion_points(spacing))
        }
        TopologyClass::Clustered => {
            let params = table1();
            let left = rng.gen_range(2..4usize);
            let right = rng.gen_range(2..4usize);
            let exp = ExperimentNet::random_clustered(rng, left, right, &params).ok()?;
            let spacing = if heavy_library { 6000.0 } else { 3000.0 };
            Some(exp.with_insertion_points(spacing))
        }
        TopologyClass::Adversarial => {
            if rng.gen_bool(0.5) {
                build_path(rng, tech, true)
            } else {
                build_star(rng, tech, true)
            }
        }
        TopologyClass::Degenerate => build_degenerate(rng, tech),
    }
}

/// `t0 — [ip|steiner+stub]* — t1` chain. In adversarial mode segment
/// lengths may be zero and stub terminals may coincide with their
/// attachment point.
fn build_path(rng: &mut SplitMix64, tech: Technology, adversarial: bool) -> Option<Net> {
    let mut b = NetBuilder::new(tech);
    let segs = rng.gen_range(1..5usize);
    let seg_len = |rng: &mut SplitMix64| {
        if adversarial && rng.gen_bool(0.3) {
            0.0
        } else {
            rng.gen_range(100.0..4000.0f64)
        }
    };
    let t0 = b.terminal(Point::new(0.0, 0.0), draw_terminal(rng, true));
    let mut prev = t0;
    let mut x = 0.0;
    for _ in 0..segs {
        let len = seg_len(rng);
        x += len;
        if rng.gen_bool(0.7) {
            let ip = b.insertion_point(Point::new(x, 0.0));
            b.wire_with_length(prev, ip, len);
            prev = ip;
        } else {
            let s = b.steiner(Point::new(x, 0.0));
            b.wire_with_length(prev, s, len);
            // A stub terminal keeps the Steiner vertex at degree ≥ 3.
            let stub_len = seg_len(rng);
            let stub_pos = if adversarial && rng.gen_bool(0.3) {
                Point::new(x, 0.0) // duplicate point
            } else {
                Point::new(x, stub_len.max(1.0))
            };
            let stub = b.terminal(stub_pos, draw_terminal(rng, false));
            b.wire_with_length(s, stub, stub_len);
            prev = s;
        }
    }
    let end_len = seg_len(rng);
    x += end_len;
    let t1 = b.terminal(Point::new(x, 0.0), draw_terminal(rng, false));
    b.wire_with_length(prev, t1, end_len);
    b.build().ok()
}

/// Star: central Steiner vertex, 3–5 legs, each leg optionally through an
/// insertion point.
fn build_star(rng: &mut SplitMix64, tech: Technology, adversarial: bool) -> Option<Net> {
    let mut b = NetBuilder::new(tech);
    let center = b.steiner(Point::new(0.0, 0.0));
    let legs = rng.gen_range(3..6usize);
    for leg in 0..legs {
        let angle_x = [1.0, -1.0, 0.0, 0.0, 1.0][leg % 5];
        let angle_y = [0.0, 0.0, 1.0, -1.0, 1.0][leg % 5];
        let len = if adversarial && rng.gen_bool(0.25) {
            0.0
        } else {
            rng.gen_range(200.0..5000.0f64)
        };
        let tip = Point::new(angle_x * len, angle_y * len);
        let term = draw_terminal(rng, leg == 0);
        if rng.gen_bool(0.6) {
            let mid = Point::new(tip.x * 0.5, tip.y * 0.5);
            let ip = b.insertion_point(mid);
            b.wire_with_length(center, ip, len * 0.5);
            let t = b.terminal(tip, term);
            b.wire_with_length(ip, t, len * 0.5);
        } else {
            let t = b.terminal(tip, term);
            b.wire_with_length(center, t, len);
        }
    }
    b.build().ok()
}

/// Degenerate sizes: a single bidirectional terminal, a two-terminal net
/// with no insertion points, or a two-terminal net where one terminal is
/// neither source nor sink (no distinct pair exists).
fn build_degenerate(rng: &mut SplitMix64, tech: Technology) -> Option<Net> {
    let mut b = NetBuilder::new(tech);
    match rng.gen_range(0..3u32) {
        0 => {
            b.terminal(Point::new(0.0, 0.0), draw_terminal(rng, true));
        }
        1 => {
            let t0 = b.terminal(Point::new(0.0, 0.0), draw_terminal(rng, true));
            let t1 = b.terminal(
                Point::new(rng.gen_range(0.0..3000.0f64), 0.0),
                draw_terminal(rng, false),
            );
            b.wire(t0, t1);
        }
        _ => {
            let t0 = b.terminal(Point::new(0.0, 0.0), draw_terminal(rng, true));
            let mute = Terminal {
                arrival: f64::NEG_INFINITY,
                downstream: f64::NEG_INFINITY,
                cap: rng.gen_range(0.01..0.2f64),
                drive_res: 0.0,
                drive_intrinsic: 0.0,
            };
            let t1 = b.terminal(Point::new(1000.0, 0.0), mute);
            b.wire(t0, t1);
        }
    }
    b.build().ok()
}

/// The library-composition class for a case index (classes ≥ 3 contain
/// asymmetric or inverting repeaters; class 6 is the asymmetric
/// multi-cost regime with three distinct cost denominations).
fn library_class(index: usize) -> usize {
    (index / TOPOLOGY_CYCLE.len()) % 7
}

/// Library compositions, cycled so that symmetric, asymmetric and
/// inverting repeaters all appear regularly.
fn draw_library(rng: &mut SplitMix64, index: usize) -> Vec<Repeater> {
    let b1 = Buffer::new("1X", 50.0, 180.0, 0.05, 1.0);
    match library_class(index) {
        0 => vec![],
        1 => vec![Repeater::from_buffer_pair("rep1x", &b1, &b1)],
        2 => {
            let b3 = b1.scaled(3.0);
            vec![
                Repeater::from_buffer_pair("rep1x", &b1, &b1),
                Repeater::from_buffer_pair("rep3x", &b3, &b3),
            ]
        }
        3 => {
            let b2 = b1.scaled(2.0);
            vec![Repeater::from_buffer_pair("asym", &b1, &b2)]
        }
        4 => vec![
            Repeater::from_buffer_pair("rep1x", &b1, &b1),
            Repeater::from_buffer_pair("inv1x", &b1, &b1).inverting(),
        ],
        5 => {
            let k = rng.gen_range(1..5usize) as f64;
            let bk = b1.scaled(k);
            vec![
                Repeater::from_buffer_pair("asym", &b1, &bk),
                Repeater::from_buffer_pair("iasym", &bk, &b1).inverting(),
            ]
        }
        _ => {
            // Asymmetric multi-cost: three cost denominations whose
            // pairwise sums stay distinct — the Pareto-explosion regime
            // the join cutoffs and predictive pre-bounds target.
            let b2 = b1.scaled(2.0);
            let b4 = b1.scaled(4.0);
            vec![
                Repeater::from_buffer_pair("asym_s", &b1, &b2),
                Repeater::from_buffer_pair("rep2x", &b2, &b2),
                Repeater::from_buffer_pair("asym_l", &b2, &b4),
            ]
        }
    }
}

/// Driver menus: identity, costed identity, or a two-entry sizing menu
/// per terminal.
fn draw_drivers(rng: &mut SplitMix64, net: &Net) -> TerminalOptions {
    match rng.gen_range(0..3u32) {
        0 => TerminalOptions::defaults(net),
        1 => TerminalOptions::defaults_with_cost(net, 2.0),
        _ => {
            let menus = net
                .terminals
                .iter()
                .map(|t| {
                    let base = TerminalOption::from_terminal(t, 1.0);
                    let mut big = base.clone();
                    big.name = "2X".into();
                    big.cost = 3.0;
                    big.drive_res = if t.drive_res > 0.0 {
                        t.drive_res / 2.0
                    } else {
                        0.0
                    };
                    big.cap = t.cap * 2.0;
                    vec![base, big]
                })
                .collect();
            TerminalOptions::new(menus)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for i in 0..24 {
            let a = generate(7, i);
            let b = generate(7, i);
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.name, b.name);
                    assert_eq!(
                        a.net.topology.vertex_count(),
                        b.net.topology.vertex_count()
                    );
                    assert_eq!(a.check_seed, b.check_seed);
                    assert_eq!(a.library.len(), b.library.len());
                }
                _ => panic!("case {i} flip-flops"),
            }
        }
    }

    #[test]
    fn grid_covers_every_topology_and_library_class() {
        let mut saw_empty_lib = false;
        let mut saw_inverting = false;
        let mut saw_asymmetric = false;
        let mut saw_multicost = false;
        let mut saw_wires = false;
        let mut saw_single_terminal = false;
        let mut saw_zero_len = false;
        for i in 0..84 {
            let Some(inst) = generate(3, i) else { continue };
            assert!(inst.net.check().is_ok(), "case {i} invalid");
            saw_empty_lib |= inst.library.is_empty();
            saw_inverting |= inst.library.iter().any(|r| r.inverting);
            saw_asymmetric |= inst.library.iter().any(|r| !r.is_symmetric());
            let costs: std::collections::BTreeSet<u64> =
                inst.library.iter().map(|r| r.cost.to_bits()).collect();
            saw_multicost |= costs.len() >= 3;
            saw_wires |= inst.wire_options.len() > 1;
            saw_single_terminal |= inst.net.topology.terminal_count() == 1;
            saw_zero_len |= inst
                .net
                .topology
                .edges()
                .any(|e| inst.net.topology.length(e) == 0.0);
        }
        assert!(saw_empty_lib, "no empty-library case");
        assert!(saw_inverting, "no inverting case");
        assert!(saw_asymmetric, "no asymmetric case");
        assert!(saw_multicost, "no multi-cost-library case");
        assert!(saw_wires, "no wire-sizing case");
        assert!(saw_single_terminal, "no single-terminal case");
        assert!(saw_zero_len, "no zero-length-edge case");
    }

    #[test]
    fn different_seeds_draw_different_streams() {
        let a = generate(1, 0).unwrap();
        let b = generate(2, 0).unwrap();
        assert_ne!(a.check_seed, b.check_seed);
    }
}
