//! Augmented RC-diameter (ARD) computation.
//!
//! The ARD of a topology `T` is
//! `max over source u, sink w, u ≠ w of AT(u) + PD(u→w) + q(w)`
//! (paper Definition 2.1): the worst primary-input-to-primary-output
//! delay across the net. [`ard_naive`] evaluates it by one single-source
//! Elmore traversal per source (`O(n·|sources|)`); [`ard_linear`] is the
//! paper's §III / Fig. 2 algorithm: **one** depth-first pass computing,
//! for every subtree, the worst internal arrival, the worst delay to
//! internal sinks and the worst internal diameter — `O(n)` total, proving
//! the ARD is no harder than an RC-radius.

use msrnet_rctree::elmore::Elmore;
use msrnet_rctree::{Assignment, Net, Repeater, Rooted, TerminalId, VertexKind};

/// The result of an ARD evaluation.
///
/// # Examples
///
/// ```
/// use msrnet_geom::Point;
/// use msrnet_core::ard::{ard_linear, ard_naive};
/// use msrnet_rctree::{Assignment, NetBuilder, Technology, Terminal, TerminalId};
///
/// let mut b = NetBuilder::new(Technology::new(1.0, 1.0));
/// let t0 = b.terminal(Point::new(0.0, 0.0), Terminal::bidirectional(5.0, 1.0, 1.0, 3.0));
/// let t1 = b.terminal(Point::new(2.0, 0.0), Terminal::bidirectional(0.0, 9.0, 1.0, 3.0));
/// b.wire(t0, t1);
/// let net = b.build()?;
/// let rooted = net.rooted_at_terminal(TerminalId(0));
/// let asg = Assignment::empty(net.topology.vertex_count());
/// let fast = ard_linear(&net, &rooted, &[], &asg);
/// let slow = ard_naive(&net, &rooted, &[], &asg);
/// assert!((fast.ard - slow.ard).abs() < 1e-9);
/// assert_eq!(fast.critical, Some((TerminalId(0), TerminalId(1))));
/// # Ok::<(), msrnet_rctree::BuildNetError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArdReport {
    /// The augmented RC-diameter, ps; `-∞` when no distinct
    /// source/sink pair exists.
    pub ard: f64,
    /// The critical (source, sink) pair attaining the maximum, if any.
    pub critical: Option<(TerminalId, TerminalId)>,
}

/// A value tagged with the terminal responsible for it, for critical-path
/// reporting.
#[derive(Clone, Copy, Debug)]
struct Tagged {
    val: f64,
    tag: Option<TerminalId>,
}

impl Tagged {
    const NEG_INF: Tagged = Tagged {
        val: f64::NEG_INFINITY,
        tag: None,
    };

    fn max(self, other: Tagged) -> Tagged {
        if other.val > self.val {
            other
        } else {
            self
        }
    }

    fn plus(self, d: f64) -> Tagged {
        Tagged {
            val: self.val + d,
            tag: self.tag,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct PairTagged {
    val: f64,
    pair: Option<(TerminalId, TerminalId)>,
}

impl PairTagged {
    const NEG_INF: PairTagged = PairTagged {
        val: f64::NEG_INFINITY,
        pair: None,
    };

    fn max(self, other: PairTagged) -> PairTagged {
        if other.val > self.val {
            other
        } else {
            self
        }
    }

    fn combine(a: Tagged, s: Tagged) -> PairTagged {
        let val = a.val + s.val;
        match (a.tag, s.tag) {
            (Some(u), Some(w)) if val > f64::NEG_INFINITY => PairTagged {
                val,
                pair: Some((u, w)),
            },
            _ => PairTagged::NEG_INF,
        }
    }
}

/// Computes the ARD with the paper's linear-time algorithm (Fig. 2).
///
/// One bottom-up sweep maintains, per subtree rooted at `v`:
/// * `arr(v)` — the worst augmented arrival time at `v`'s parent-side pin
///   from sources inside the subtree;
/// * `dts(v)` — the worst augmented delay from that pin to sinks inside;
/// * `dia(v)` — the worst augmented diameter among internal pairs.
///
/// Cross-subtree pairs are combined at each branch with a top-two trick,
/// so the whole computation is `O(n)` after the two `O(n)` capacitance
/// passes of [`Elmore`].
///
/// Terminals need not be leaves: a non-leaf terminal contributes its
/// local source/sink roles at its own vertex.
pub fn ard_linear(
    net: &Net,
    rooted: &Rooted,
    library: &[Repeater],
    assignment: &Assignment,
) -> ArdReport {
    let elmore = Elmore::new(net, rooted, library, assignment);
    ard_linear_in(&elmore, net, rooted, &mut ArdWorkspace::new())
}

/// Reusable buffers for the per-subtree `a`/`s`/`D` sweep of
/// [`ard_linear_in`], so repeated ARD queries (incremental sessions,
/// batch loops) allocate nothing after warm-up.
#[derive(Debug, Default)]
pub struct ArdWorkspace {
    arr: Vec<Tagged>,
    dts: Vec<Tagged>,
    dia: Vec<PairTagged>,
}

impl ArdWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        ArdWorkspace::default()
    }
}

/// Like [`ard_linear`], reusing an already-built [`Elmore`] engine and
/// running the `a`/`s`/`D` sweep in `workspace`'s buffers, so repeated
/// queries allocate nothing. Bit-identical to [`ard_linear`] (same
/// traversal, same arithmetic).
pub fn ard_linear_in(
    elmore: &Elmore<'_>,
    net: &Net,
    rooted: &Rooted,
    workspace: &mut ArdWorkspace,
) -> ArdReport {
    let n = net.topology.vertex_count();
    let arr = &mut workspace.arr;
    let dts = &mut workspace.dts;
    let dia = &mut workspace.dia;
    arr.clear();
    arr.resize(n, Tagged::NEG_INF);
    dts.clear();
    dts.resize(n, Tagged::NEG_INF);
    dia.clear();
    dia.resize(n, PairTagged::NEG_INF);

    for v in rooted.postorder() {
        // Arrival/“delay to sinks” measured at v itself (child side of any
        // repeater at v), per incident child; plus v's own roles.
        let mut best_a = [Tagged::NEG_INF; 2]; // top-2 arrivals at v
        let mut best_s = [Tagged::NEG_INF; 2]; // top-2 sink delays from v
        let mut a_child = [usize::MAX; 2];
        let mut s_child = [usize::MAX; 2];
        let mut best_dia = PairTagged::NEG_INF;

        for (ci, &u) in rooted.children(v).iter().enumerate() {
            let a_i = arr[u.0].plus(elmore.edge_delay_up(u));
            let s_i = dts[u.0].plus(elmore.edge_delay_down(u));
            if a_i.val > best_a[0].val {
                best_a[1] = best_a[0];
                a_child[1] = a_child[0];
                best_a[0] = a_i;
                a_child[0] = ci;
            } else if a_i.val > best_a[1].val {
                best_a[1] = a_i;
                a_child[1] = ci;
            }
            if s_i.val > best_s[0].val {
                best_s[1] = best_s[0];
                s_child[1] = s_child[0];
                best_s[0] = s_i;
                s_child[0] = ci;
            } else if s_i.val > best_s[1].val {
                best_s[1] = s_i;
                s_child[1] = ci;
            }
            best_dia = best_dia.max(dia[u.0]);
        }

        // Cross-subtree pairs: best arrival with best sink delay from a
        // *different* child.
        for (ai, a) in best_a.iter().enumerate() {
            for (si, s) in best_s.iter().enumerate() {
                if a_child[ai] != usize::MAX
                    && s_child[si] != usize::MAX
                    && a_child[ai] != s_child[si]
                {
                    best_dia = best_dia.max(PairTagged::combine(*a, *s));
                }
            }
        }

        // v's own terminal roles.
        let mut local_arr = Tagged::NEG_INF;
        let mut local_dts = Tagged::NEG_INF;
        if let VertexKind::Terminal(t) = net.topology.kind(v) {
            let term = net.terminal(t);
            if term.is_source() {
                local_arr = Tagged {
                    val: term.arrival + elmore.driver_delay(t),
                    tag: Some(t),
                };
            }
            if term.is_sink() {
                local_dts = Tagged {
                    val: term.downstream,
                    tag: Some(t),
                };
            }
            // v as sink of an internal source, and v as source of an
            // internal sink.
            best_dia = best_dia.max(PairTagged::combine(best_a[0], local_dts));
            best_dia = best_dia.max(PairTagged::combine(local_arr, best_s[0]));
        }

        let at_v_arr = best_a[0].max(local_arr);
        let at_v_dts = best_s[0].max(local_dts);

        // Lift to the parent-side pin across any repeater at v.
        arr[v.0] = if at_v_arr.val > f64::NEG_INFINITY {
            at_v_arr.plus(elmore.crossing_up(v))
        } else {
            Tagged::NEG_INF
        };
        dts[v.0] = if at_v_dts.val > f64::NEG_INFINITY {
            at_v_dts.plus(elmore.crossing_down(v))
        } else {
            Tagged::NEG_INF
        };
        dia[v.0] = best_dia;
    }

    let top = dia[rooted.root().0];
    ArdReport {
        ard: top.val,
        critical: top.pair,
    }
}

/// Computes the ARD by |sources| single-source Elmore traversals
/// (`O(n·|sources|)`) — the baseline the paper's linear algorithm is
/// measured against, and the oracle for its correctness tests.
pub fn ard_naive(
    net: &Net,
    rooted: &Rooted,
    library: &[Repeater],
    assignment: &Assignment,
) -> ArdReport {
    let elmore = Elmore::new(net, rooted, library, assignment);
    let mut best = ArdReport {
        ard: f64::NEG_INFINITY,
        critical: None,
    };
    for u in net.terminal_ids() {
        if !net.terminal(u).is_source() {
            continue;
        }
        let delays = elmore.delays_from(u);
        let at = net.terminal(u).arrival;
        for w in net.terminal_ids() {
            if w == u || !net.terminal(w).is_sink() {
                continue;
            }
            let wv = net.topology.terminal_vertex(w);
            let total = at + delays[wv.0] + net.terminal(w).downstream;
            if total > best.ard {
                best = ArdReport {
                    ard: total,
                    critical: Some((u, w)),
                };
            }
        }
    }
    best
}

/// Per-terminal timing breakdown of a multisource net under a fixed
/// assignment — the reporting companion to [`ard_linear`].
///
/// For every ordered source/sink pair the augmented delay
/// `AT(u) + PD(u→w) + q(w)` is tabulated; per-terminal worst rows and
/// columns expose which agents limit the bus.
#[derive(Clone, Debug)]
pub struct ArdProfile {
    /// `delay[u][w]`: augmented delay from source `u` to sink `w`
    /// (`-∞` when `u` cannot drive, `w` cannot receive, or `u == w`).
    pub delay: Vec<Vec<f64>>,
    /// The overall ARD (the matrix maximum).
    pub ard: f64,
    /// The pair attaining it, if any.
    pub critical: Option<(TerminalId, TerminalId)>,
}

impl ArdProfile {
    /// The worst augmented delay of paths *driven by* terminal `u`, or
    /// `-∞` if `u` is not a source.
    pub fn worst_from(&self, u: TerminalId) -> f64 {
        self.delay[u.0]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The worst augmented delay of paths *received by* terminal `w`, or
    /// `-∞` if `w` is not a sink.
    pub fn worst_into(&self, w: TerminalId) -> f64 {
        self.delay
            .iter()
            .map(|row| row[w.0])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Per-pair slack against a timing spec: `spec − delay[u][w]`
    /// (`+∞` for infeasible pairs). Negative entries violate the spec.
    pub fn slacks(&self, spec: f64) -> Vec<Vec<f64>> {
        self.delay
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&d| {
                        if d == f64::NEG_INFINITY {
                            f64::INFINITY
                        } else {
                            spec - d
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Computes the full source×sink augmented delay matrix
/// (`O(n · |sources|)`: one Elmore traversal per source) together with
/// the ARD and its critical pair.
///
/// # Examples
///
/// ```
/// use msrnet_geom::Point;
/// use msrnet_core::ard::ard_profile;
/// use msrnet_rctree::{Assignment, NetBuilder, Technology, Terminal, TerminalId};
///
/// let mut b = NetBuilder::new(Technology::new(1.0, 1.0));
/// let t0 = b.terminal(Point::new(0.0, 0.0), Terminal::bidirectional(0.0, 0.0, 1.0, 3.0));
/// let t1 = b.terminal(Point::new(2.0, 0.0), Terminal::bidirectional(9.0, 0.0, 1.0, 3.0));
/// b.wire(t0, t1);
/// let net = b.build()?;
/// let rooted = net.rooted_at_terminal(TerminalId(0));
/// let profile = ard_profile(&net, &rooted, &[], &Assignment::empty(2));
/// assert_eq!(profile.delay[1][0], 9.0 + 16.0);
/// assert_eq!(profile.worst_into(TerminalId(0)), 25.0);
/// assert!(profile.slacks(30.0)[1][0] > 0.0);
/// # Ok::<(), msrnet_rctree::BuildNetError>(())
/// ```
pub fn ard_profile(
    net: &Net,
    rooted: &Rooted,
    library: &[Repeater],
    assignment: &Assignment,
) -> ArdProfile {
    let elmore = Elmore::new(net, rooted, library, assignment);
    let n = net.terminals.len();
    let mut delay = vec![vec![f64::NEG_INFINITY; n]; n];
    let mut ard = f64::NEG_INFINITY;
    let mut critical = None;
    for u in net.terminal_ids() {
        if !net.terminal(u).is_source() {
            continue;
        }
        let delays = elmore.delays_from(u);
        let at = net.terminal(u).arrival;
        for w in net.terminal_ids() {
            if w == u || !net.terminal(w).is_sink() {
                continue;
            }
            let wv = net.topology.terminal_vertex(w);
            let d = at + delays[wv.0] + net.terminal(w).downstream;
            delay[u.0][w.0] = d;
            if d > ard {
                ard = d;
                critical = Some((u, w));
            }
        }
    }
    ArdProfile {
        delay,
        ard,
        critical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrnet_geom::Point;
    use msrnet_rctree::{Buffer, NetBuilder, Orientation, Technology, Terminal};

    fn term(at: f64, q: f64) -> Terminal {
        Terminal::bidirectional(at, q, 1.0, 3.0)
    }

    fn check_match(net: &Net, library: &[Repeater], assignment: &Assignment) -> ArdReport {
        let rooted = net.rooted_at_terminal(TerminalId(0));
        let fast = ard_linear(net, &rooted, library, assignment);
        let slow = ard_naive(net, &rooted, library, assignment);
        assert!(
            (fast.ard - slow.ard).abs() < 1e-9,
            "linear {} != naive {}",
            fast.ard,
            slow.ard
        );
        // Ties may be broken differently; each reported pair must attain
        // the claimed maximum.
        let elmore =
            msrnet_rctree::elmore::Elmore::new(net, &rooted, library, assignment);
        for report in [&fast, &slow] {
            if let Some((u, w)) = report.critical {
                assert!(
                    (elmore.augmented_delay(u, w) - report.ard).abs() < 1e-9,
                    "critical pair does not attain the ARD"
                );
            }
        }
        fast
    }

    #[test]
    fn two_pin_symmetric() {
        let mut b = NetBuilder::new(Technology::new(1.0, 1.0));
        let t0 = b.terminal(Point::new(0.0, 0.0), term(0.0, 0.0));
        let t1 = b.terminal(Point::new(2.0, 0.0), term(0.0, 0.0));
        b.wire(t0, t1);
        let net = b.build().unwrap();
        let asg = Assignment::empty(net.topology.vertex_count());
        let r = check_match(&net, &[], &asg);
        assert!((r.ard - 16.0).abs() < 1e-12);
    }

    #[test]
    fn arrival_times_select_the_critical_source() {
        let mut b = NetBuilder::new(Technology::new(1.0, 1.0));
        let t0 = b.terminal(Point::new(0.0, 0.0), term(100.0, 0.0));
        let t1 = b.terminal(Point::new(2.0, 0.0), term(0.0, 0.0));
        b.wire(t0, t1);
        let net = b.build().unwrap();
        let asg = Assignment::empty(net.topology.vertex_count());
        let r = check_match(&net, &[], &asg);
        assert_eq!(r.critical, Some((TerminalId(0), TerminalId(1))));
        assert!((r.ard - 116.0).abs() < 1e-12);
    }

    #[test]
    fn downstream_delays_select_the_critical_sink() {
        let mut b = NetBuilder::new(Technology::new(1.0, 1.0));
        let t0 = b.terminal(Point::new(0.0, 0.0), term(0.0, 500.0));
        let t1 = b.terminal(Point::new(2.0, 0.0), term(0.0, 0.0));
        b.wire(t0, t1);
        let net = b.build().unwrap();
        let asg = Assignment::empty(net.topology.vertex_count());
        let r = check_match(&net, &[], &asg);
        // The worst pair ends at t0 because of its downstream delay.
        assert_eq!(r.critical, Some((TerminalId(1), TerminalId(0))));
    }

    #[test]
    fn star_net_cross_pairs() {
        let mut b = NetBuilder::new(Technology::new(1.0, 1.0));
        let t0 = b.terminal(Point::new(0.0, 0.0), term(0.0, 0.0));
        let s = b.steiner(Point::new(1.0, 0.0));
        let t1 = b.terminal(Point::new(2.0, 0.0), term(0.0, 0.0));
        let t2 = b.terminal(Point::new(1.0, 3.0), term(0.0, 0.0));
        b.wire(t0, s);
        b.wire(s, t1);
        b.wire(s, t2);
        let net = b.build().unwrap();
        let asg = Assignment::empty(net.topology.vertex_count());
        let r = check_match(&net, &[], &asg);
        // Longest leg is t2 (length 3): the worst pair involves t2.
        let (u, w) = r.critical.unwrap();
        assert!(u == TerminalId(2) || w == TerminalId(2));
    }

    #[test]
    fn source_only_and_sink_only_roles() {
        let mut b = NetBuilder::new(Technology::new(1.0, 1.0));
        let t0 = b.terminal(
            Point::new(0.0, 0.0),
            Terminal::source_only(0.0, 1.0, 3.0),
        );
        let s = b.steiner(Point::new(1.0, 0.0));
        let t1 = b.terminal(Point::new(2.0, 0.0), Terminal::sink_only(0.0, 1.0));
        let t2 = b.terminal(Point::new(1.0, 3.0), Terminal::sink_only(0.0, 1.0));
        b.wire(t0, s);
        b.wire(s, t1);
        b.wire(s, t2);
        let net = b.build().unwrap();
        let asg = Assignment::empty(net.topology.vertex_count());
        let r = check_match(&net, &[], &asg);
        // Only t0 can be the source.
        assert_eq!(r.critical.unwrap().0, TerminalId(0));
    }

    #[test]
    fn repeater_changes_the_ard_consistently() {
        let mut b = NetBuilder::new(Technology::new(1.0, 1.0));
        let t0 = b.terminal(Point::new(0.0, 0.0), term(0.0, 0.0));
        let ip = b.insertion_point(Point::new(1.0, 0.0));
        let t1 = b.terminal(Point::new(2.0, 0.0), term(0.0, 0.0));
        b.wire(t0, ip);
        b.wire(ip, t1);
        let net = b.build().unwrap();
        let buf = Buffer::new("1X", 2.0, 1.0, 0.2, 1.0);
        let lib = [Repeater::from_buffer_pair("r", &buf, &buf)];
        let mut asg = Assignment::empty(net.topology.vertex_count());
        asg.place(ip, 0, Orientation::AFacesParent);
        let with = check_match(&net, &lib, &asg);
        let without = check_match(&net, &lib, &Assignment::empty(net.topology.vertex_count()));
        assert!(with.ard.is_finite() && without.ard.is_finite());
        assert_ne!(with.ard, without.ard);
    }

    #[test]
    fn non_leaf_terminal_is_handled() {
        // A terminal in the middle of a path, without normalization.
        let mut b = NetBuilder::new(Technology::new(1.0, 1.0));
        let t0 = b.terminal(Point::new(0.0, 0.0), term(0.0, 0.0));
        let mid = b.terminal(Point::new(1.0, 0.0), term(0.0, 0.0));
        let t2 = b.terminal(Point::new(2.0, 0.0), term(0.0, 0.0));
        b.wire(t0, mid);
        b.wire(mid, t2);
        let net = b.build().unwrap();
        let asg = Assignment::empty(net.topology.vertex_count());
        let raw = check_match(&net, &[], &asg);
        // Normalizing to leaves must not change the ARD.
        let norm = net.normalized();
        let asg2 = Assignment::empty(norm.topology.vertex_count());
        let normalized = check_match(&norm, &[], &asg2);
        assert!((raw.ard - normalized.ard).abs() < 1e-9);
    }

    #[test]
    fn profile_agrees_with_linear_ard() {
        let mut b = NetBuilder::new(Technology::new(1.0, 1.0));
        let t0 = b.terminal(Point::new(0.0, 0.0), term(10.0, 5.0));
        let s = b.steiner(Point::new(1.0, 0.0));
        let t1 = b.terminal(Point::new(2.0, 0.0), term(0.0, 40.0));
        let t2 = b.terminal(Point::new(1.0, 3.0), Terminal::sink_only(7.0, 1.0));
        b.wire(t0, s);
        b.wire(s, t1);
        b.wire(s, t2);
        let net = b.build().unwrap();
        let rooted = net.rooted_at_terminal(TerminalId(0));
        let asg = Assignment::empty(net.topology.vertex_count());
        let profile = ard_profile(&net, &rooted, &[], &asg);
        let linear = ard_linear(&net, &rooted, &[], &asg);
        assert!((profile.ard - linear.ard).abs() < 1e-9);
        // Matrix entries match the Elmore engine pairwise.
        let elmore = msrnet_rctree::elmore::Elmore::new(&net, &rooted, &[], &asg);
        for u in net.terminal_ids() {
            for w in net.terminal_ids() {
                if u == w {
                    assert_eq!(profile.delay[u.0][w.0], f64::NEG_INFINITY);
                    continue;
                }
                let expect = elmore.augmented_delay(u, w);
                let got = profile.delay[u.0][w.0];
                if expect == f64::NEG_INFINITY {
                    assert_eq!(got, f64::NEG_INFINITY);
                } else {
                    assert!((got - expect).abs() < 1e-9);
                }
            }
        }
        // t2 is sink-only: its source row is all -inf.
        assert_eq!(profile.worst_from(TerminalId(2)), f64::NEG_INFINITY);
        assert!(profile.worst_into(TerminalId(2)).is_finite());
        // Slack signs follow the spec.
        let slacks = profile.slacks(profile.ard);
        let (u, w) = profile.critical.unwrap();
        assert!(slacks[u.0][w.0].abs() < 1e-9);
        assert!(slacks.iter().flatten().all(|&s| s >= -1e-9));
    }

    #[test]
    fn reentrant_ard_is_bit_identical_across_reuse() {
        let mut b = NetBuilder::new(Technology::new(1.0, 1.0));
        let t0 = b.terminal(Point::new(0.0, 0.0), term(10.0, 5.0));
        let s = b.steiner(Point::new(1.0, 0.0));
        let t1 = b.terminal(Point::new(2.0, 0.0), term(0.0, 40.0));
        let t2 = b.terminal(Point::new(1.0, 3.0), Terminal::sink_only(7.0, 1.0));
        b.wire(t0, s);
        b.wire(s, t1);
        b.wire(s, t2);
        let net = b.build().unwrap();
        let rooted = net.rooted_at_terminal(TerminalId(0));
        let asg = Assignment::empty(net.topology.vertex_count());
        let elmore = msrnet_rctree::elmore::Elmore::new(&net, &rooted, &[], &asg);
        let fresh = ard_linear(&net, &rooted, &[], &asg);
        let mut ws = ArdWorkspace::new();
        for _ in 0..3 {
            let again = ard_linear_in(&elmore, &net, &rooted, &mut ws);
            assert_eq!(again.ard.to_bits(), fresh.ard.to_bits());
            assert_eq!(again.critical, fresh.critical);
        }
    }

    #[test]
    fn no_feasible_pair_reports_neg_inf() {
        // Single bidirectional terminal pair where only t0 is source AND
        // only t0 is sink: no distinct pair exists.
        let mut b = NetBuilder::new(Technology::new(1.0, 1.0));
        let t0 = b.terminal(Point::new(0.0, 0.0), term(0.0, 0.0));
        let t1 = b.terminal(
            Point::new(2.0, 0.0),
            Terminal {
                arrival: f64::NEG_INFINITY,
                downstream: f64::NEG_INFINITY,
                cap: 1.0,
                drive_res: 0.0,
                drive_intrinsic: 0.0,
            },
        );
        b.wire(t0, t1);
        // Build bypassing the no-sink check is impossible via builder, so
        // construct the degenerate case directly at the report level.
        let net = b.build();
        // t1 is neither source nor sink, t0 is both: builder accepts it
        // (there IS a source and a sink), but no distinct pair exists.
        let net = net.unwrap();
        let rooted = net.rooted_at_terminal(TerminalId(0));
        let asg = Assignment::empty(net.topology.vertex_count());
        let fast = ard_linear(&net, &rooted, &[], &asg);
        assert_eq!(fast.ard, f64::NEG_INFINITY);
        assert_eq!(fast.critical, None);
        let slow = ard_naive(&net, &rooted, &[], &asg);
        assert_eq!(slow.ard, f64::NEG_INFINITY);
    }
}
