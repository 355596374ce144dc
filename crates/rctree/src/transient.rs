//! Numerical transient simulation of a driven multisource net — a
//! SPICE-like oracle for the delay models.
//!
//! The Elmore delay (first moment) and D2M (second moment) are *metrics*;
//! this module computes actual 50 %-crossing delays by integrating the
//! RC network's ODE with backward Euler, exploiting the tree structure to
//! solve each timestep in `O(n)` (one post-order elimination, one
//! pre-order back-substitution).
//!
//! Repeaters are modeled behaviorally, the way staged buffering is
//! normally analyzed: the net decomposes at repeaters into *stages*; each
//! stage is an RC tree driven through a Thevenin resistance by an ideal
//! step; a repeater fires its downstream stage when its input crosses the
//! threshold, after its intrinsic delay. That matches the additive stage
//! composition assumed by the Elmore engine, so the comparison isolates
//! the *within-stage* model error.
//!
//! Used by the `elmore_vs_spice` bench binary to validate that
//! Elmore-optimized solutions keep their ordering under the numerical
//! model.

use crate::elmore::Elmore;
use crate::{Assignment, Net, Repeater, Rooted, TerminalId, VertexId, VertexKind};

/// Simulation controls.
#[derive(Clone, Copy, Debug)]
pub struct TransientOptions {
    /// Switching threshold as a fraction of the supply (0.5 = 50 %).
    pub threshold: f64,
    /// Timesteps per stage time-constant estimate; larger is more
    /// accurate and slower.
    pub steps_per_tau: usize,
}

impl Default for TransientOptions {
    fn default() -> Self {
        TransientOptions {
            threshold: 0.5,
            steps_per_tau: 200,
        }
    }
}

/// Result of simulating one driving terminal: per-vertex absolute
/// threshold-crossing times (ps), `NaN` where the signal never arrives
/// (decoupled by a repeater facing away — cannot happen in valid
/// assignments — or simulation horizon exceeded).
#[derive(Clone, Debug)]
pub struct TransientResult {
    /// Crossing time per vertex, ps (driver intrinsic included; the
    /// terminal's `AT` is *not* included, mirroring
    /// [`Elmore::delays_from`]).
    pub crossing: Vec<f64>,
}

/// Simulates a step launched by `source`'s driver and returns the
/// threshold-crossing time at every vertex.
///
/// # Panics
///
/// Panics if the assignment references repeaters outside `library`.
pub fn simulate_from(
    net: &Net,
    rooted: &Rooted,
    library: &[Repeater],
    assignment: &Assignment,
    source: TerminalId,
    opts: &TransientOptions,
) -> TransientResult {
    let n = net.topology.vertex_count();
    let elmore = Elmore::new(net, rooted, library, assignment);
    let mut crossing = vec![f64::NAN; n];
    let src_v = net.topology.terminal_vertex(source);
    let term = net.terminal(source);
    // Stage queue: (entry vertex, drive resistance, intrinsic delay,
    // absolute start time, vertex we entered from — the far side of the
    // repeater — or None for the source stage).
    let mut stages = vec![(src_v, term.drive_res, term.drive_intrinsic, 0.0, None::<VertexId>)];
    while let Some((entry, r_drv, intrinsic, t0, from)) = stages.pop() {
        let stage = collect_stage(net, assignment, entry, from);
        let sim = simulate_stage(net, rooted, &elmore, assignment, library, &stage, entry, r_drv, opts);
        for (k, &v) in stage.nodes.iter().enumerate() {
            let t = t0 + intrinsic + sim[k];
            if crossing[v.0].is_nan() || t < crossing[v.0] {
                crossing[v.0] = t;
            }
        }
        // Fire downstream stages at frontier repeaters.
        for &(rep_v, next_v) in &stage.frontier {
            // msrnet-allow: panic frontier entries are built from placed repeaters only
            let placed = assignment.at(rep_v).expect("frontier has repeater");
            // msrnet-allow: panic placements index the library they were solved against
            let rep = &library[placed.repeater];
            let upward = rooted.parent(rep_v) == Some(next_v);
            let drive = if upward {
                rep.upstream_drive(placed.orientation)
            } else {
                rep.downstream_drive(placed.orientation)
            };
            let t_input = crossing[rep_v.0];
            stages.push((rep_v, drive.out_res, drive.intrinsic, t_input, Some(next_v)));
            // Mark where the new stage continues so collect_stage knows
            // which side of the repeater to expand.
        }
    }
    TransientResult { crossing }
}

/// One stage: the RC tree between repeaters, reachable from `entry`
/// without crossing a repeater (except leaving through the one we
/// entered at, when `from` names the next vertex).
struct Stage {
    /// Stage vertices; `nodes[0] == entry`.
    nodes: Vec<VertexId>,
    /// Stage-internal undirected edges as (node index, node index, R, C).
    edges: Vec<(usize, usize, f64, f64)>,
    /// Grounded capacitance per node (terminal loads, repeater input
    /// caps at the frontier).
    caps: Vec<f64>,
    /// Frontier repeaters: (repeater vertex, the vertex beyond it) —
    /// each fires a downstream stage.
    frontier: Vec<(VertexId, VertexId)>,
}

fn collect_stage(
    net: &Net,
    assignment: &Assignment,
    entry: VertexId,
    from: Option<VertexId>,
) -> Stage {
    let n = net.topology.vertex_count();
    let mut index = vec![usize::MAX; n];
    let mut nodes = vec![entry];
    index[entry.0] = 0;
    let mut edges = Vec::new();
    let mut caps = vec![0.0f64];
    let mut frontier = Vec::new();
    // Entry vertex own load: for a repeater entry we charge the *output*
    // side; its own input cap belongs to the previous stage, so the
    // entry contributes no grounded cap of its own. For a terminal entry
    // the terminal's cap hangs on the bus.
    if assignment.at(entry).is_none() {
        if let VertexKind::Terminal(t) = net.topology.kind(entry) {
            caps[0] = net.terminal(t).cap;
        }
    }
    // BFS; at a repeater entry only expand toward `from`.
    let mut queue = vec![entry];
    while let Some(v) = queue.pop() {
        let vi = index[v.0];
        for &(u, e) in net.topology.neighbors(v) {
            if v == entry && assignment.at(entry).is_some() && Some(u) != from {
                continue; // the other side of the entry repeater
            }
            if index[u.0] != usize::MAX {
                continue;
            }
            let r = net.edge_res(e);
            let c = net.edge_cap(e);
            if assignment.at(u).is_some() {
                // Frontier repeater: its input cap loads this stage at
                // node u; the stage does not continue past it.
                let ui = nodes.len();
                index[u.0] = ui;
                nodes.push(u);
                // The repeater's near-side input cap is added in
                // simulate_stage, where the rooted orientation is known.
                caps.push(0.0);
                edges.push((vi, ui, r, c));
                // Determine the onward vertex (degree-2 insertion point).
                let onward = net
                    .topology
                    .neighbors(u)
                    .iter()
                    .map(|&(w, _)| w)
                    .find(|&w| w != v)
                    // msrnet-allow: panic insertion points have degree 2, so a second neighbor exists
                    .expect("insertion points have degree 2");
                frontier.push((u, onward));
                continue;
            }
            let ui = nodes.len();
            index[u.0] = ui;
            nodes.push(u);
            let own = match net.topology.kind(u) {
                VertexKind::Terminal(t) => net.terminal(t).cap,
                _ => 0.0,
            };
            caps.push(own);
            edges.push((vi, ui, r, c));
            queue.push(u);
        }
    }
    Stage {
        nodes,
        edges,
        caps,
        frontier,
    }
}

#[allow(clippy::too_many_arguments)]
fn simulate_stage(
    net: &Net,
    rooted: &Rooted,
    elmore: &Elmore<'_>,
    assignment: &Assignment,
    library: &[Repeater],
    stage: &Stage,
    entry: VertexId,
    r_drv: f64,
    opts: &TransientOptions,
) -> Vec<f64> {
    let m = stage.nodes.len();
    // Node caps: grounded cap + half of each incident wire cap +
    // frontier repeater input caps.
    let mut cap = stage.caps.clone();
    for &(a, b, _r, c) in &stage.edges {
        cap[a] += 0.5 * c;
        cap[b] += 0.5 * c;
    }
    for &(rep_v, next_v) in &stage.frontier {
        // msrnet-allow: panic frontier entries are built from placed repeaters only
        let placed = assignment.at(rep_v).expect("repeater");
        // msrnet-allow: panic placements index the library they were solved against
        let rep = &library[placed.repeater];
        // The cap facing *us*: if the onward vertex is the repeater's
        // child (we came from above) the parent side faces us.
        let upward_onward = rooted.parent(rep_v) == Some(next_v);
        let c_in = if upward_onward {
            // Onward is the parent ⇒ we approached from the child side.
            rep.cap_facing_child(placed.orientation)
        } else {
            rep.cap_facing_parent(placed.orientation)
        };
        let idx = stage
            .nodes
            .iter()
            .position(|&v| v == rep_v)
            // msrnet-allow: panic stage.nodes includes every frontier repeater by construction
            .expect("frontier node indexed");
        cap[idx] += c_in;
    }
    let _ = (net, elmore, entry);

    // Build a spanning-tree parent structure over the stage graph (it is
    // a tree by construction, rooted at node 0 = entry).
    let mut children: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    for &(a, b, r, _c) in &stage.edges {
        // Edges were discovered parent-first in BFS order (a existing,
        // b new), so a is the stage-parent of b.
        // Zero-length wires get a tiny resistance to stay solvable.
        children[a].push((b, r.max(1e-9)));
    }

    // Timestep from the stage's dominant time constant estimate.
    let total_r: f64 = stage.edges.iter().map(|&(_, _, r, _)| r).sum::<f64>() + r_drv;
    let total_c: f64 = cap.iter().sum();
    let tau = (total_r * total_c).max(1e-3);
    let dt = tau / opts.steps_per_tau as f64;
    let t_max = 50.0 * tau;

    // Backward Euler: (G + C/dt) v_new = C/dt v_old + b, with the driver
    // contributing conductance 1/r_drv and source current V/r_drv at the
    // entry node. Solve by tree elimination each step.
    let g_drv = 1.0 / r_drv.max(1e-9);
    let mut v = vec![0.0f64; m];
    let mut crossing = vec![f64::NAN; m];
    let threshold = opts.threshold;
    let mut t = 0.0;
    // Pre/post orders for the elimination (node 0 is the root).
    let order = {
        let mut order = Vec::with_capacity(m);
        let mut stack = vec![0usize];
        while let Some(x) = stack.pop() {
            order.push(x);
            for &(c, _) in &children[x] {
                stack.push(c);
            }
        }
        order
    };
    let mut remaining = m;
    while remaining > 0 && t < t_max {
        t += dt;
        // Assemble per-node diagonal and rhs.
        let mut diag: Vec<f64> = cap.iter().map(|c| c / dt).collect();
        let mut rhs: Vec<f64> = v.iter().zip(&cap).map(|(vv, c)| c / dt * vv).collect();
        diag[0] += g_drv;
        rhs[0] += g_drv; // unit step source
        for x in &order {
            for &(c, r) in &children[*x] {
                let g = 1.0 / r;
                diag[*x] += g;
                diag[c] += g;
            }
        }
        // Eliminate children into parents (post-order = reverse preorder).
        let mut coeff = vec![0.0f64; m]; // g/diag[c] per child, reused
        for x in order.iter().rev() {
            for &(c, r) in &children[*x] {
                let g = 1.0 / r;
                let k = g / diag[c];
                coeff[c] = k;
                diag[*x] -= g * k;
                rhs[*x] += k * rhs[c];
            }
        }
        // Back-substitute root downward.
        let mut v_new = vec![0.0f64; m];
        v_new[0] = rhs[0] / diag[0];
        for x in &order {
            for &(c, r) in &children[*x] {
                let g = 1.0 / r;
                v_new[c] = (rhs[c] + g * v_new[*x]) / diag[c];
            }
        }
        // Record threshold crossings with linear interpolation.
        for k in 0..m {
            if crossing[k].is_nan() && v_new[k] >= threshold {
                let frac = if v_new[k] > v[k] {
                    (threshold - v[k]) / (v_new[k] - v[k])
                } else {
                    1.0
                };
                crossing[k] = t - dt + frac * dt;
                remaining -= 1;
            }
        }
        v = v_new;
    }
    crossing
}

/// The ARD under the numerical transient model: max simulated augmented
/// delay over all distinct source/sink pairs.
pub fn simulated_ard(
    net: &Net,
    rooted: &Rooted,
    library: &[Repeater],
    assignment: &Assignment,
    opts: &TransientOptions,
) -> f64 {
    let mut worst = f64::NEG_INFINITY;
    for u in net.terminal_ids() {
        if !net.terminal(u).is_source() {
            continue;
        }
        let res = simulate_from(net, rooted, library, assignment, u, opts);
        for w in net.terminal_ids() {
            if w == u || !net.terminal(w).is_sink() {
                continue;
            }
            let wv = net.topology.terminal_vertex(w);
            let d = net.terminal(u).arrival + res.crossing[wv.0] + net.terminal(w).downstream;
            worst = worst.max(d);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Buffer, NetBuilder, Orientation, Technology, Terminal};
    use msrnet_geom::Point;

    fn opts() -> TransientOptions {
        TransientOptions {
            threshold: 0.5,
            steps_per_tau: 400,
        }
    }

    /// Single-pole RC: the 50 % crossing of 1−e^{−t/RC} is RC·ln2.
    #[test]
    fn single_pole_matches_analytic() {
        let mut b = NetBuilder::new(Technology::new(0.0, 0.0));
        let t0 = b.terminal(Point::new(0.0, 0.0), Terminal::source_only(0.0, 0.0, 4.0));
        let t1 = b.terminal(Point::new(1.0, 0.0), Terminal::sink_only(0.0, 2.0));
        b.wire(t0, t1);
        let net = b.build().unwrap();
        let rooted = net.rooted_at_terminal(TerminalId(0));
        let asg = Assignment::empty(net.topology.vertex_count());
        let res = simulate_from(&net, &rooted, &[], &asg, TerminalId(0), &opts());
        let v1 = net.topology.terminal_vertex(TerminalId(1));
        let expect = 4.0 * 2.0 * std::f64::consts::LN_2;
        let got = res.crossing[v1.0];
        assert!(
            (got - expect).abs() / expect < 0.02,
            "simulated {got} vs analytic {expect}"
        );
    }

    /// On a distributed line the simulated 50 % delay must undershoot
    /// Elmore (Elmore is an upper bound for RC trees) but stay within
    /// the classical ~2× band.
    #[test]
    fn distributed_line_between_d2m_and_elmore() {
        let mut b = NetBuilder::new(Technology::new(0.03, 0.00035));
        let t0 = b.terminal(Point::new(0.0, 0.0), Terminal::source_only(0.0, 0.05, 180.0));
        let t1 = b.terminal(Point::new(8000.0, 0.0), Terminal::sink_only(0.0, 0.05));
        b.wire(t0, t1);
        let net = b.build().unwrap().with_insertion_points(800.0);
        let rooted = net.rooted_at_terminal(TerminalId(0));
        let asg = Assignment::empty(net.topology.vertex_count());
        let elmore = Elmore::new(&net, &rooted, &[], &asg);
        let elm = elmore.path_delay(TerminalId(0), TerminalId(1));
        let res = simulate_from(&net, &rooted, &[], &asg, TerminalId(0), &opts());
        let v1 = net.topology.terminal_vertex(TerminalId(1));
        let sim = res.crossing[v1.0];
        assert!(sim < elm, "Elmore must upper-bound the simulation");
        assert!(sim > 0.35 * elm, "simulation implausibly fast: {sim} vs {elm}");
    }

    /// Repeater stages compose: simulated delay through a buffered line
    /// equals the sum of simulated stage delays plus the intrinsic.
    #[test]
    fn repeater_stages_compose() {
        let mut b = NetBuilder::new(Technology::new(0.03, 0.00035));
        let t0 = b.terminal(Point::new(0.0, 0.0), Terminal::source_only(0.0, 0.05, 180.0));
        let ip = b.insertion_point(Point::new(4000.0, 0.0));
        let t1 = b.terminal(Point::new(8000.0, 0.0), Terminal::sink_only(0.0, 0.05));
        b.wire(t0, ip);
        b.wire(ip, t1);
        let net = b.build().unwrap();
        let buf = Buffer::new("1X", 50.0, 180.0, 0.05, 1.0);
        let lib = [Repeater::from_buffer_pair("r", &buf, &buf)];
        let rooted = net.rooted_at_terminal(TerminalId(0));
        let mut asg = Assignment::empty(net.topology.vertex_count());
        asg.place(ip, 0, Orientation::AFacesParent);
        let res = simulate_from(&net, &rooted, &lib, &asg, TerminalId(0), &opts());
        let v_ip = ip;
        let v1 = net.topology.terminal_vertex(TerminalId(1));
        // The sink fires after the repeater input, by at least the
        // intrinsic delay.
        assert!(res.crossing[v1.0] > res.crossing[v_ip.0] + 50.0 * 0.99);
        // And the whole thing is finite and ordered along the line.
        let v0 = net.topology.terminal_vertex(TerminalId(0));
        assert!(res.crossing[v0.0] < res.crossing[v_ip.0]);
    }

    /// The simulated ARD of a buffered solution beats the unbuffered one
    /// whenever the Elmore-optimized choice says so (sanity on a case
    /// where the improvement is large).
    #[test]
    fn simulated_ard_agrees_on_clear_improvements() {
        let mut b = NetBuilder::new(Technology::new(0.03, 0.00035));
        let term = || Terminal::bidirectional(0.0, 0.0, 0.05, 180.0);
        let t0 = b.terminal(Point::new(0.0, 0.0), term());
        let ip = b.insertion_point(Point::new(5000.0, 0.0));
        let t1 = b.terminal(Point::new(10_000.0, 0.0), term());
        b.wire(t0, ip);
        b.wire(ip, t1);
        let net = b.build().unwrap();
        let buf = Buffer::new("1X", 50.0, 180.0, 0.05, 1.0);
        let lib = [Repeater::from_buffer_pair("r", &buf, &buf)];
        let rooted = net.rooted_at_terminal(TerminalId(0));
        let empty = Assignment::empty(net.topology.vertex_count());
        let mut buffered = empty.clone();
        buffered.place(ip, 0, Orientation::AFacesParent);
        let o = opts();
        let bare = simulated_ard(&net, &rooted, &lib, &empty, &o);
        let with = simulated_ard(&net, &rooted, &lib, &buffered, &o);
        assert!(with < bare, "buffering must help: {with} vs {bare}");
    }
}
