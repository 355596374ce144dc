//! Incremental re-optimization sessions for multi-source nets.
//!
//! A production timing optimizer is queried repeatedly under engineering
//! changes — an arrival time moves, a sink load changes, a library cell
//! is swapped, the net is re-rooted. The Lillis–Cheng DP (paper §IV) is
//! bottom-up over the routing tree and each subtree's candidate set is a
//! pure function of that subtree's contents (it characterizes the
//! subtree as a function of the *external* capacitance `c_E`, so nothing
//! outside the subtree leaks in). That makes subtree solutions cacheable
//! across edits: a point edit invalidates only the leaf-to-root path
//! above it, and [`IncrementalOptimizer`] recomputes exactly those path
//! nodes against cached siblings — `O(depth × frontier)` per edit
//! instead of a full re-run, **bit-identical** to a from-scratch
//! recompute under the session's fixed capacitance bound.
//!
//! The session also serves fixed-assignment ARD queries
//! ([`IncrementalOptimizer::bare_ard`]): the bottom-up capacitance pass
//! (paper Eq. 1) is maintained incrementally along dirty paths, while
//! the top-down pass (Eq. 2) and the `a`/`s`/`D` sweep — which genuinely
//! depend on caps *outside* each subtree — are recomputed per query in
//! reusable buffers (`O(n)` scalar work, allocation-free).
//!
//! # Examples
//!
//! ```
//! use msrnet_geom::Point;
//! use msrnet_core::{MsriOptions, TerminalOptions, WireOption};
//! use msrnet_incremental::{Edit, IncrementalOptimizer};
//! use msrnet_rctree::{NetBuilder, Technology, Terminal, TerminalId};
//!
//! let mut b = NetBuilder::new(Technology::new(1.0, 1.0));
//! let t0 = b.terminal(Point::new(0.0, 0.0), Terminal::bidirectional(0.0, 0.0, 1.0, 3.0));
//! let ip = b.insertion_point(Point::new(2.0, 0.0));
//! let t1 = b.terminal(Point::new(4.0, 0.0), Terminal::bidirectional(5.0, 7.0, 1.0, 3.0));
//! b.wire(t0, ip);
//! b.wire(ip, t1);
//! let net = b.build()?;
//! let opts = TerminalOptions::defaults(&net);
//! let mut session = IncrementalOptimizer::new(
//!     net, TerminalId(0), vec![], opts, vec![WireOption::unit()], MsriOptions::default());
//! let (before, _) = session.recompute()?;
//! session.apply(&Edit::SetArrival { terminal: TerminalId(1), value: 50.0 })?;
//! let (after, stats) = session.recompute()?;
//! assert!(stats.nodes_recomputed <= stats.nodes_visited);
//! assert!(after.best_ard().ard > before.best_ard().ard);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

use std::fmt;

use msrnet_core::ard::{ard_linear_in, ArdReport, ArdWorkspace};
use msrnet_core::{
    optimize_incremental, required_cap_bound, DpCache, MsriError, MsriOptions, MsriWorkspace,
    RecomputeStats, TerminalOption, TerminalOptions, TradeoffCurve, WireOption,
};
use msrnet_geom::Point;
use msrnet_pwl::ArenaCheckpoint;
use msrnet_rctree::elmore::Elmore;
use msrnet_rctree::{
    Assignment, EdgeId, Net, Repeater, Rooted, StructuralRemap, Terminal, TerminalId, VertexId,
    VertexKind,
};
use msrnet_rng::{Rng, SeedableRng, SplitMix64};

pub mod json;
pub mod search;
mod trace;
pub use search::{Objective, SearchConfig, SearchOutcome, SearchStats, TopologySearch};
pub use trace::{parse_trace, trace_to_json, TraceError};

/// Multiplier applied to the configuration's required capacitance bound
/// when a session picks its fixed PWL domain bound: edits that grow the
/// net's total capacitance (loads, moves, wire widths, library swaps) up
/// to this factor stay within the session bound and keep the cache warm;
/// past it the session escalates (new bound, full invalidation).
pub const BOUND_HEADROOM: f64 = 4.0;

/// One typed engineering change to a net under optimization.
///
/// Every variant is a *point* edit except [`Edit::SwapLibrary`] and
/// [`Edit::Reroot`], which invalidate the whole cache (the repeater
/// library enters the DP at every insertion point; re-rooting changes
/// the tree orientation every subtree is expressed against).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Edit {
    /// Sets terminal `terminal`'s source arrival time `AT`, ps.
    SetArrival {
        /// Terminal to edit.
        terminal: TerminalId,
        /// New arrival time (may be `-∞` to disable the source role).
        value: f64,
    },
    /// Sets terminal `terminal`'s sink-side downstream delay `q`
    /// (required-time slack proxy), ps.
    SetRequired {
        /// Terminal to edit.
        terminal: TerminalId,
        /// New downstream delay (may be `-∞` to disable the sink role).
        value: f64,
    },
    /// Sets the pin capacitance terminal `terminal` presents to the net,
    /// pF. The terminal's driver-menu options all take the same pin cap
    /// (menus model drive alternatives of one physical pin).
    SetSinkLoad {
        /// Terminal to edit.
        terminal: TerminalId,
        /// New pin capacitance, ≥ 0.
        cap: f64,
    },
    /// Moves a leaf terminal to `(x, y)`; its single incident wire's
    /// length is re-derived as the L1 distance to the neighbor.
    MoveTerminal {
        /// Terminal to move (must be a leaf).
        terminal: TerminalId,
        /// New horizontal coordinate, µm.
        x: f64,
        /// New vertical coordinate, µm.
        y: f64,
    },
    /// Sets the width scaling of one wire (see
    /// `Topology::set_edge_scaling`).
    SetWireRc {
        /// Edge to edit.
        edge: EdgeId,
        /// Resistance scale, ≥ 0.
        res_scale: f64,
        /// Capacitance scale, ≥ 0.
        cap_scale: f64,
    },
    /// Re-sizes every repeater in the library by drive-strength factor
    /// `scale`: output resistances divide by it, input capacitances and
    /// costs multiply by it, intrinsic delays are unchanged. Power-of-two
    /// scales are exactly invertible.
    SwapLibrary {
        /// Drive-strength factor, > 0.
        scale: f64,
    },
    /// Makes `terminal` the DP root (the tree is re-oriented; the full
    /// cache is invalidated).
    Reroot {
        /// New root terminal.
        terminal: TerminalId,
    },
    /// Adds a new leaf terminal wired to existing Steiner vertex `at`
    /// (wire length is the L1 distance). Append-only: no existing vertex,
    /// edge or terminal changes id, so the cache stays warm off the new
    /// leaf's root path. The new terminal gets a single zero-cost
    /// identity driver option.
    AddTerminal {
        /// Existing Steiner vertex to wire the new terminal to.
        at: VertexId,
        /// New terminal's horizontal coordinate, µm.
        x: f64,
        /// New terminal's vertical coordinate, µm.
        y: f64,
        /// Timing/electrical parameters of the new terminal.
        terminal: Terminal,
    },
    /// Removes leaf terminal `terminal`, its vertex and its pendant
    /// edge. Ids compact by `swap_remove` (at most one vertex, edge and
    /// terminal are renumbered — see `StructuralRemap`); the cache is
    /// remapped in place and only the attachment vertex's root path is
    /// recomputed.
    RemoveTerminal {
        /// Terminal to remove (a leaf attached to a Steiner vertex; not
        /// the session root).
        terminal: TerminalId,
    },
    /// Splits wire `edge` at fraction `frac` of its length, inserting a
    /// degree-2 candidate repeater insertion point. Append-only (the
    /// split halves inherit the edge's width scaling; `edge` keeps its
    /// id as the root-side piece).
    AddInsertionPoint {
        /// Edge to split.
        edge: EdgeId,
        /// Position along the edge, in `[0, 1]` of its length.
        frac: f64,
    },
    /// Splices out insertion-point vertex `vertex`, merging its two
    /// wires into one of summed length. Ids compact by `swap_remove`;
    /// both incident wires must share the same width scaling.
    RemoveInsertionPoint {
        /// Insertion-point vertex to splice out.
        vertex: VertexId,
    },
}

impl Edit {
    /// The stable lowercase operation name used in JSON edit traces.
    pub fn op_name(&self) -> &'static str {
        match self {
            Edit::SetArrival { .. } => "set_arrival",
            Edit::SetRequired { .. } => "set_required",
            Edit::SetSinkLoad { .. } => "set_sink_load",
            Edit::MoveTerminal { .. } => "move_terminal",
            Edit::SetWireRc { .. } => "set_wire_rc",
            Edit::SwapLibrary { .. } => "swap_library",
            Edit::Reroot { .. } => "reroot",
            Edit::AddTerminal { .. } => "add_terminal",
            Edit::RemoveTerminal { .. } => "remove_terminal",
            Edit::AddInsertionPoint { .. } => "add_insertion_point",
            Edit::RemoveInsertionPoint { .. } => "remove_insertion_point",
        }
    }
}

/// Why an [`IncrementalOptimizer::apply`] call was rejected. Rejected
/// edits leave the session untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditError {
    /// The edit names a terminal the net does not have.
    UnknownTerminal(usize),
    /// The edit names an edge the net does not have.
    UnknownEdge(usize),
    /// A value that must be a number (or `-∞` where documented) is NaN
    /// or `+∞`.
    NonFinite(&'static str),
    /// A scale or capacitance that must be non-negative is negative
    /// (or zero where a positive value is required).
    OutOfRange(&'static str),
    /// `move_terminal` or `remove_terminal` targets a terminal that is
    /// not a leaf.
    NotALeaf(usize),
    /// A structural edit names a vertex the net does not have.
    UnknownVertex(usize),
    /// A structural edit targets a vertex of the wrong role (e.g.
    /// `add_terminal` at a non-Steiner vertex, `remove_insertion_point`
    /// at a non-insertion-point, or `remove_terminal` of a leaf hanging
    /// off an insertion point, which must keep degree 2).
    BadVertexKind(usize),
    /// `remove_terminal` targets the session's current DP root.
    IsRoot(usize),
    /// `remove_terminal` would leave the net without a source, without a
    /// sink, or with fewer than two terminals.
    WouldBreakNet(usize),
    /// `remove_insertion_point` targets a vertex whose two wires have
    /// different width scaling — the merged wire cannot represent both.
    ScalingMismatch(usize),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::UnknownTerminal(t) => write!(f, "unknown terminal t{t}"),
            EditError::UnknownEdge(e) => write!(f, "unknown edge e{e}"),
            EditError::NonFinite(what) => write!(f, "{what} must be finite"),
            EditError::OutOfRange(what) => write!(f, "{what} out of range"),
            EditError::NotALeaf(t) => write!(f, "terminal t{t} is not a leaf"),
            EditError::UnknownVertex(v) => write!(f, "unknown vertex v{v}"),
            EditError::BadVertexKind(v) => {
                write!(f, "vertex v{v} has the wrong role for this edit")
            }
            EditError::IsRoot(t) => write!(f, "terminal t{t} is the session root"),
            EditError::WouldBreakNet(t) => {
                write!(f, "removing terminal t{t} would break the net")
            }
            EditError::ScalingMismatch(v) => {
                write!(f, "insertion point v{v} sits between differently scaled wires")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// A long-lived optimization session over one net: owns the
/// configuration, a per-subtree DP cache, the PWL arena, and the
/// incremental state of the ARD capacitance pass. See the crate docs for
/// the caching model.
///
/// The session fixes its PWL capacitance bound at creation
/// ([`BOUND_HEADROOM`] × required) and holds it constant so successive
/// results are mutually bit-comparable; an edit that pushes the required
/// bound past the session bound triggers a transparent escalation
/// (counted by [`IncrementalOptimizer::escalations`]).
#[derive(Debug)]
pub struct IncrementalOptimizer {
    net: Net,
    root: TerminalId,
    library: Vec<Repeater>,
    term_opts: TerminalOptions,
    wire_options: Vec<WireOption>,
    options: MsriOptions,
    rooted: Rooted,
    cap_bound: f64,
    dirty: Vec<bool>,
    cache: DpCache,
    workspace: MsriWorkspace,
    checkpoint: Option<ArenaCheckpoint>,
    escalations: u64,
    // Fixed-assignment ARD state: Eq. 1 bottom-up caps for the empty
    // (unbuffered) assignment, maintained along dirty paths.
    empty_asg: Assignment,
    down_caps: Option<Vec<f64>>,
    ard_ws: ArdWorkspace,
    /// The id moves of the most recent successful structural *removal*
    /// (`None` after any other edit) — topology-search drivers use it to
    /// keep their own id lists in sync.
    last_remap: Option<StructuralRemap>,
    /// Test-only fault injection (see
    /// [`IncrementalOptimizer::set_skip_structural_dirty`]).
    skip_structural_dirty: bool,
}

impl IncrementalOptimizer {
    /// Creates a session with the default bound headroom. The first
    /// [`IncrementalOptimizer::recompute`] performs the initial full
    /// compute (everything starts dirty).
    pub fn new(
        net: Net,
        root: TerminalId,
        library: Vec<Repeater>,
        term_opts: TerminalOptions,
        wire_options: Vec<WireOption>,
        options: MsriOptions,
    ) -> Self {
        let bound =
            required_cap_bound(&net, &library, &term_opts, &wire_options) * BOUND_HEADROOM;
        Self::with_bound(net, root, library, term_opts, wire_options, options, bound)
    }

    /// Like [`IncrementalOptimizer::new`] with an explicit capacitance
    /// bound — used by oracles that must run a second session under the
    /// *same* bound as a first one so results compare bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `cap_bound` is below the configuration's required bound
    /// or not strictly positive and finite.
    #[allow(clippy::too_many_arguments)]
    pub fn with_bound(
        net: Net,
        root: TerminalId,
        library: Vec<Repeater>,
        term_opts: TerminalOptions,
        wire_options: Vec<WireOption>,
        options: MsriOptions,
        cap_bound: f64,
    ) -> Self {
        assert!(
            cap_bound.is_finite() && cap_bound > 0.0,
            "cap_bound must be positive and finite"
        );
        assert!(
            cap_bound >= required_cap_bound(&net, &library, &term_opts, &wire_options),
            "cap_bound below the configuration's required bound"
        );
        let rooted = net.rooted_at_terminal(root);
        let n = net.topology.vertex_count();
        IncrementalOptimizer {
            empty_asg: Assignment::empty(n),
            net,
            root,
            library,
            term_opts,
            wire_options,
            options,
            rooted,
            cap_bound,
            dirty: vec![true; n],
            cache: DpCache::new(),
            workspace: MsriWorkspace::new(),
            checkpoint: None,
            escalations: 0,
            down_caps: None,
            ard_ws: ArdWorkspace::new(),
            last_remap: None,
            skip_structural_dirty: false,
        }
    }

    /// The session's fixed PWL capacitance bound.
    pub fn cap_bound(&self) -> f64 {
        self.cap_bound
    }

    /// How many subtree candidate sets are currently resident in the DP
    /// cache. Memory-bounded hosts (the `msrnet-service` session server)
    /// use this to pick LRU eviction victims by retained weight.
    pub fn cached_subtrees(&self) -> usize {
        self.cache.cached_subtrees()
    }

    /// How many times an edit forced a new bound + full invalidation.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// The net in its current (edited) state.
    pub fn net(&self) -> &Net {
        &self.net
    }

    /// The current DP root terminal.
    pub fn root(&self) -> TerminalId {
        self.root
    }

    /// The current repeater library (reflecting any `swap_library`).
    pub fn library(&self) -> &[Repeater] {
        &self.library
    }

    /// The current per-terminal driver menus.
    pub fn term_opts(&self) -> &TerminalOptions {
        &self.term_opts
    }

    /// The wire sizing menu (fixed for the session's lifetime).
    pub fn wire_options(&self) -> &[WireOption] {
        &self.wire_options
    }

    /// The DP options (fixed for the session's lifetime).
    pub fn options(&self) -> &MsriOptions {
        &self.options
    }

    /// Per-vertex dirty flags consumed by the next
    /// [`IncrementalOptimizer::recompute`].
    pub fn dirty(&self) -> &[bool] {
        &self.dirty
    }

    /// Applies one edit: validates it, mutates the configuration, marks
    /// the edited vertex's root path dirty (or everything, for
    /// [`Edit::SwapLibrary`] / [`Edit::Reroot`]), and keeps the
    /// incremental ARD capacitance pass in sync. Structural edits
    /// additionally grow or compact the per-subtree cache in place (see
    /// the [`Edit`] variant docs) — the next
    /// [`IncrementalOptimizer::recompute`] still rebuilds only the dirty
    /// root path.
    ///
    /// # Errors
    ///
    /// Returns an [`EditError`] (leaving the session untouched) when the
    /// edit references unknown elements or carries invalid values.
    pub fn apply(&mut self, edit: &Edit) -> Result<(), EditError> {
        let out = self.apply_edit(edit);
        if out.is_ok()
            && !matches!(
                edit,
                Edit::RemoveTerminal { .. } | Edit::RemoveInsertionPoint { .. }
            )
        {
            self.last_remap = None;
        }
        out
    }

    fn apply_edit(&mut self, edit: &Edit) -> Result<(), EditError> {
        match *edit {
            Edit::SetArrival { terminal, value } => {
                self.check_terminal(terminal)?;
                if value.is_nan() || value == f64::INFINITY {
                    return Err(EditError::NonFinite("arrival"));
                }
                self.net.terminals[terminal.0].arrival = value;
                self.mark_path(self.net.topology.terminal_vertex(terminal));
            }
            Edit::SetRequired { terminal, value } => {
                self.check_terminal(terminal)?;
                if value.is_nan() || value == f64::INFINITY {
                    return Err(EditError::NonFinite("required"));
                }
                self.net.terminals[terminal.0].downstream = value;
                self.mark_path(self.net.topology.terminal_vertex(terminal));
            }
            Edit::SetSinkLoad { terminal, cap } => {
                self.check_terminal(terminal)?;
                if !cap.is_finite() {
                    return Err(EditError::NonFinite("sink load"));
                }
                if cap < 0.0 {
                    return Err(EditError::OutOfRange("sink load"));
                }
                self.net.terminals[terminal.0].cap = cap;
                let mut menu = self.term_opts.for_terminal(terminal).to_vec();
                for o in &mut menu {
                    o.cap = cap;
                }
                self.term_opts.set(terminal, menu);
                let v = self.net.topology.terminal_vertex(terminal);
                self.mark_path(v);
                self.refresh_down_path(v);
                self.maybe_escalate();
            }
            Edit::MoveTerminal { terminal, x, y } => {
                self.check_terminal(terminal)?;
                if !x.is_finite() || !y.is_finite() {
                    return Err(EditError::NonFinite("position"));
                }
                let v = self.net.topology.terminal_vertex(terminal);
                let &[(nbr, e)] = self.net.topology.neighbors(v) else {
                    return Err(EditError::NotALeaf(terminal.0));
                };
                let pos = Point::new(x, y);
                let len = pos.l1_distance(self.net.topology.position(nbr));
                self.net.topology.set_position(v, pos);
                self.net.topology.set_edge_length(e, len);
                self.mark_path(v);
                self.mark_path(nbr);
                self.refresh_down_path(self.lower_endpoint(e));
                self.maybe_escalate();
            }
            Edit::SetWireRc {
                edge,
                res_scale,
                cap_scale,
            } => {
                if edge.0 >= self.net.topology.edge_count() {
                    return Err(EditError::UnknownEdge(edge.0));
                }
                if !res_scale.is_finite() || !cap_scale.is_finite() {
                    return Err(EditError::NonFinite("wire scale"));
                }
                if res_scale < 0.0 || cap_scale < 0.0 {
                    return Err(EditError::OutOfRange("wire scale"));
                }
                self.net.topology.set_edge_scaling(edge, res_scale, cap_scale);
                let (a, b) = self.net.topology.endpoints(edge);
                self.mark_path(a);
                self.mark_path(b);
                self.refresh_down_path(self.lower_endpoint(edge));
                self.maybe_escalate();
            }
            Edit::SwapLibrary { scale } => {
                if !scale.is_finite() {
                    return Err(EditError::NonFinite("library scale"));
                }
                if scale <= 0.0 {
                    return Err(EditError::OutOfRange("library scale"));
                }
                for rep in &mut self.library {
                    rep.a_to_b.out_res /= scale;
                    rep.b_to_a.out_res /= scale;
                    rep.cap_a *= scale;
                    rep.cap_b *= scale;
                    rep.cost *= scale;
                }
                // Repeaters enter the DP at every insertion point: the
                // whole cache is stale. The unbuffered ARD caps are not
                // (no repeater is placed in the empty assignment).
                self.invalidate_all();
                self.maybe_escalate();
            }
            Edit::Reroot { terminal } => {
                self.check_terminal(terminal)?;
                self.root = terminal;
                self.rooted = self.net.rooted_at_terminal(terminal);
                // Every cached set (and the Eq. 1 vector) is expressed
                // against the old orientation.
                self.invalidate_all();
                self.down_caps = None;
            }
            Edit::AddTerminal { at, x, y, terminal } => {
                if at.0 >= self.net.topology.vertex_count() {
                    return Err(EditError::UnknownVertex(at.0));
                }
                // Only Steiner vertices can host a new pendant: hanging
                // one off an insertion point would break its degree-2
                // invariant, and off a terminal vertex would make that
                // terminal an internal node.
                if !matches!(self.net.topology.kind(at), VertexKind::Steiner) {
                    return Err(EditError::BadVertexKind(at.0));
                }
                if !x.is_finite() || !y.is_finite() {
                    return Err(EditError::NonFinite("position"));
                }
                if terminal.arrival.is_nan() || terminal.arrival == f64::INFINITY {
                    return Err(EditError::NonFinite("arrival"));
                }
                if terminal.downstream.is_nan() || terminal.downstream == f64::INFINITY {
                    return Err(EditError::NonFinite("required"));
                }
                if !terminal.cap.is_finite() {
                    return Err(EditError::NonFinite("sink load"));
                }
                if terminal.cap < 0.0 {
                    return Err(EditError::OutOfRange("sink load"));
                }
                if !terminal.drive_res.is_finite() {
                    return Err(EditError::NonFinite("drive resistance"));
                }
                if terminal.drive_res < 0.0 {
                    return Err(EditError::OutOfRange("drive resistance"));
                }
                if !terminal.drive_intrinsic.is_finite() {
                    return Err(EditError::NonFinite("drive intrinsic"));
                }
                let (_, v, _) = self.net.add_terminal(at, Point::new(x, y), terminal);
                self.term_opts
                    .push(vec![TerminalOption::from_terminal(&terminal, 0.0)]);
                self.sync_after_growth();
                self.mark_path(v);
                self.maybe_escalate();
            }
            Edit::RemoveTerminal { terminal } => {
                self.check_terminal(terminal)?;
                if terminal == self.root {
                    return Err(EditError::IsRoot(terminal.0));
                }
                let v = self.net.topology.terminal_vertex(terminal);
                let &[(nbr, _)] = self.net.topology.neighbors(v) else {
                    return Err(EditError::NotALeaf(terminal.0));
                };
                // Removing the pendant would leave the insertion point
                // at degree 1.
                if matches!(self.net.topology.kind(nbr), VertexKind::InsertionPoint) {
                    return Err(EditError::BadVertexKind(nbr.0));
                }
                let (mut sources, mut sinks, mut survivors) = (0usize, 0usize, 0usize);
                for (i, t) in self.net.terminals.iter().enumerate() {
                    if i == terminal.0 {
                        continue;
                    }
                    survivors += 1;
                    if t.is_source() {
                        sources += 1;
                    }
                    if t.is_sink() {
                        sinks += 1;
                    }
                }
                if survivors < 2 || sources == 0 || sinks == 0 {
                    return Err(EditError::WouldBreakNet(terminal.0));
                }
                let remap = self.net.remove_terminal(terminal);
                self.term_opts.swap_remove(terminal);
                if let Some((old, new)) = remap.terminal {
                    if self.root == old {
                        self.root = new;
                    }
                }
                self.cache
                    .structural_remove_vertex(v, &remap, &mut self.workspace);
                self.dirty.swap_remove(v.0);
                self.sync_after_removal();
                let start = remap.map_vertex(nbr);
                if self.skip_structural_dirty {
                    // Injected fault for the verify drill: leave the
                    // attachment vertex's stale set in place and dirty
                    // only from its parent upward.
                    if let Some(p) = self.rooted.parent(start) {
                        self.mark_path(p);
                    }
                } else {
                    self.mark_path(start);
                }
                self.last_remap = Some(remap);
            }
            Edit::AddInsertionPoint { edge, frac } => {
                if edge.0 >= self.net.topology.edge_count() {
                    return Err(EditError::UnknownEdge(edge.0));
                }
                if frac.is_nan() {
                    return Err(EditError::NonFinite("frac"));
                }
                if !(0.0..=1.0).contains(&frac) {
                    return Err(EditError::OutOfRange("frac"));
                }
                let (ip, _) = self.net.topology.split_edge(edge, frac);
                self.sync_after_growth();
                self.mark_path(ip);
                self.maybe_escalate();
            }
            Edit::RemoveInsertionPoint { vertex } => {
                if vertex.0 >= self.net.topology.vertex_count() {
                    return Err(EditError::UnknownVertex(vertex.0));
                }
                if !matches!(self.net.topology.kind(vertex), VertexKind::InsertionPoint) {
                    return Err(EditError::BadVertexKind(vertex.0));
                }
                let &[(a, e1), (b, e2)] = self.net.topology.neighbors(vertex) else {
                    // Insertion points are degree 2 by construction;
                    // defensive against a malformed topology.
                    return Err(EditError::BadVertexKind(vertex.0));
                };
                let (r1, c1) = self.net.topology.edge_scaling(e1);
                let (r2, c2) = self.net.topology.edge_scaling(e2);
                if r1.to_bits() != r2.to_bits() || c1.to_bits() != c2.to_bits() {
                    return Err(EditError::ScalingMismatch(vertex.0));
                }
                let (_, remap) = self.net.topology.splice_degree2(vertex);
                self.cache
                    .structural_remove_vertex(vertex, &remap, &mut self.workspace);
                self.dirty.swap_remove(vertex.0);
                self.sync_after_removal();
                self.mark_path(remap.map_vertex(a));
                self.mark_path(remap.map_vertex(b));
                self.last_remap = Some(remap);
                self.maybe_escalate();
            }
        }
        Ok(())
    }

    /// The exact inverse of `edit` **against the current session
    /// state** — compute it *before* applying `edit`. Returns `None`
    /// when no single edit restores the state bit-for-bit:
    ///
    /// * `set_sink_load` — only when the terminal's menu caps currently
    ///   all equal its pin cap (the edit collapses them to one value);
    /// * `move_terminal` — only when the incident wire's length is
    ///   currently the L1 distance to the neighbor (a custom length
    ///   cannot be re-derived from a position);
    /// * `swap_library` — only for power-of-two scales (division is then
    ///   exact and `1/scale` round-trips every field).
    pub fn inverse_of(&self, edit: &Edit) -> Option<Edit> {
        match *edit {
            Edit::SetArrival { terminal, .. } => Some(Edit::SetArrival {
                terminal,
                value: self.net.terminals.get(terminal.0)?.arrival,
            }),
            Edit::SetRequired { terminal, .. } => Some(Edit::SetRequired {
                terminal,
                value: self.net.terminals.get(terminal.0)?.downstream,
            }),
            Edit::SetSinkLoad { terminal, .. } => {
                let cap = self.net.terminals.get(terminal.0)?.cap;
                let uniform = self
                    .term_opts
                    .for_terminal(terminal)
                    .iter()
                    .all(|o| o.cap.to_bits() == cap.to_bits());
                uniform.then_some(Edit::SetSinkLoad { terminal, cap })
            }
            Edit::MoveTerminal { terminal, .. } => {
                if terminal.0 >= self.net.terminals.len() {
                    return None;
                }
                let v = self.net.topology.terminal_vertex(terminal);
                let &[(nbr, e)] = self.net.topology.neighbors(v) else {
                    return None;
                };
                let pos = self.net.topology.position(v);
                let derived = pos.l1_distance(self.net.topology.position(nbr));
                (self.net.topology.length(e).to_bits() == derived.to_bits()).then_some(
                    Edit::MoveTerminal {
                        terminal,
                        x: pos.x,
                        y: pos.y,
                    },
                )
            }
            Edit::SetWireRc { edge, .. } => {
                if edge.0 >= self.net.topology.edge_count() {
                    return None;
                }
                let (res_scale, cap_scale) = self.net.topology.edge_scaling(edge);
                Some(Edit::SetWireRc {
                    edge,
                    res_scale,
                    cap_scale,
                })
            }
            Edit::SwapLibrary { scale } => is_power_of_two(scale)
                .then_some(Edit::SwapLibrary { scale: 1.0 / scale }),
            Edit::Reroot { .. } => Some(Edit::Reroot {
                terminal: self.root,
            }),
            // The structural inverses below are *frontier-exact*: they
            // restore the net, menus and ids bit-for-bit wherever they
            // exist, and return `None` whenever any id or float would
            // not round-trip exactly.
            Edit::AddTerminal { .. } => Some(Edit::RemoveTerminal {
                // Appends always take the next free id, so the inverse
                // is a pure pop of the id the add is about to mint.
                terminal: TerminalId(self.net.terminals.len()),
            }),
            Edit::RemoveTerminal { terminal } => {
                // Exact only when the removal is a pure pop (terminal,
                // host vertex and pendant edge are all the last of their
                // id spaces — no swap-remaps to undo), the pendant hangs
                // off a Steiner vertex at unit wire scaling with its
                // length the L1 distance, and the menu is the default
                // one `add_terminal` would rebuild.
                if terminal.0 + 1 != self.net.terminals.len() {
                    return None;
                }
                let v = self.net.topology.terminal_vertex(terminal);
                if v.0 + 1 != self.net.topology.vertex_count() {
                    return None;
                }
                let &[(nbr, e)] = self.net.topology.neighbors(v) else {
                    return None;
                };
                if e.0 + 1 != self.net.topology.edge_count() {
                    return None;
                }
                if !matches!(self.net.topology.kind(nbr), VertexKind::Steiner) {
                    return None;
                }
                let (rs, cs) = self.net.topology.edge_scaling(e);
                let unit: f64 = 1.0;
                if rs.to_bits() != unit.to_bits() || cs.to_bits() != unit.to_bits() {
                    return None;
                }
                let pos = self.net.topology.position(v);
                let derived = pos.l1_distance(self.net.topology.position(nbr));
                if self.net.topology.length(e).to_bits() != derived.to_bits() {
                    return None;
                }
                let term = *self.net.terminal(terminal);
                if self.term_opts.for_terminal(terminal)
                    != [TerminalOption::from_terminal(&term, 0.0)]
                {
                    return None;
                }
                Some(Edit::AddTerminal {
                    at: nbr,
                    x: pos.x,
                    y: pos.y,
                    terminal: term,
                })
            }
            Edit::AddInsertionPoint { edge, frac } => {
                if edge.0 >= self.net.topology.edge_count() {
                    return None;
                }
                if !frac.is_finite() || !(0.0..=1.0).contains(&frac) {
                    return None;
                }
                // The later splice re-adds the two pieces; the split is
                // invertible exactly when that sum reproduces the
                // original length bitwise.
                let l = self.net.topology.length(edge);
                let l1 = l * frac;
                ((l1 + (l - l1)).to_bits() == l.to_bits()).then_some(
                    Edit::RemoveInsertionPoint {
                        vertex: VertexId(self.net.topology.vertex_count()),
                    },
                )
            }
            Edit::RemoveInsertionPoint { vertex } => {
                // Exact only when the splice is a pure pop of both the
                // vertex and its second edge, the surviving edge keeps
                // its `a` endpoint on the far side (the orientation
                // `split_edge` builds), and the split arithmetic
                // reconstructs both lengths and the interpolated
                // position bitwise.
                if vertex.0 >= self.net.topology.vertex_count() {
                    return None;
                }
                if !matches!(self.net.topology.kind(vertex), VertexKind::InsertionPoint) {
                    return None;
                }
                if vertex.0 + 1 != self.net.topology.vertex_count() {
                    return None;
                }
                let &[(x, e1), (y, e2)] = self.net.topology.neighbors(vertex) else {
                    return None;
                };
                if e2.0 + 1 != self.net.topology.edge_count() {
                    return None;
                }
                let (a1, _) = self.net.topology.endpoints(e1);
                if a1 != x {
                    return None;
                }
                let (a2, _) = self.net.topology.endpoints(e2);
                if a2 != vertex {
                    return None;
                }
                let (l1, l2) = (self.net.topology.length(e1), self.net.topology.length(e2));
                let total = l1 + l2;
                if total <= 0.0 {
                    return None;
                }
                let frac = l1 / total;
                if !frac.is_finite() {
                    return None;
                }
                if (total * frac).to_bits() != l1.to_bits() {
                    return None;
                }
                if (total - total * frac).to_bits() != l2.to_bits() {
                    return None;
                }
                let (px, py) = (
                    self.net.topology.position(x),
                    self.net.topology.position(y),
                );
                let pos = self.net.topology.position(vertex);
                let lerp_x = px.x + (py.x - px.x) * frac;
                let lerp_y = px.y + (py.y - px.y) * frac;
                if lerp_x.to_bits() != pos.x.to_bits() || lerp_y.to_bits() != pos.y.to_bits() {
                    return None;
                }
                Some(Edit::AddInsertionPoint { edge: e1, frac })
            }
        }
    }

    /// Recomputes the trade-off curve, rebuilding only dirty-path nodes
    /// (see [`optimize_incremental`]); on success the dirty set clears.
    /// The PWL arena is trimmed back to its post-first-compute level
    /// after every call so a long edit session cannot grow scratch
    /// memory without bound.
    ///
    /// # Errors
    ///
    /// See [`MsriError`]. On error the dirty set is retained, so a later
    /// call (after further edits) recomputes everything still pending.
    pub fn recompute(&mut self) -> Result<(TradeoffCurve, RecomputeStats), MsriError> {
        let out = optimize_incremental(
            &self.net,
            self.root,
            &self.library,
            &self.term_opts,
            &self.wire_options,
            &self.options,
            self.cap_bound,
            &self.dirty,
            &mut self.cache,
            &mut self.workspace,
        );
        if out.is_ok() {
            self.dirty.fill(false);
        }
        match self.checkpoint {
            Some(cp) => self.workspace.arena_restore(&cp),
            None => self.checkpoint = Some(self.workspace.arena_checkpoint()),
        }
        out
    }

    /// A from-scratch recompute of the current configuration under the
    /// session bound, using a throwaway cache — the oracle against which
    /// incremental results must be bit-identical. Leaves the session's
    /// cache and dirty set untouched.
    ///
    /// # Errors
    ///
    /// See [`MsriError`].
    pub fn from_scratch(&mut self) -> Result<(TradeoffCurve, RecomputeStats), MsriError> {
        let n = self.net.topology.vertex_count();
        let out = optimize_incremental(
            &self.net,
            self.root,
            &self.library,
            &self.term_opts,
            &self.wire_options,
            &self.options,
            self.cap_bound,
            &vec![true; n],
            &mut DpCache::new(),
            &mut self.workspace,
        );
        if let Some(cp) = self.checkpoint {
            self.workspace.arena_restore(&cp);
        }
        out
    }

    /// The ARD of the current net under the *empty* (unbuffered)
    /// assignment. The bottom-up capacitance pass (Eq. 1) is served from
    /// the session's incrementally maintained vector; the top-down pass
    /// and the `a`/`s`/`D` sweep run per query in reusable buffers.
    /// Bit-identical to `ard_linear` on the current net.
    pub fn bare_ard(&mut self) -> ArdReport {
        let caps = match self.down_caps.take() {
            Some(caps) => caps,
            None => {
                Elmore::new(&self.net, &self.rooted, &[], &self.empty_asg).into_down_caps()
            }
        };
        let elmore =
            Elmore::with_down_caps(&self.net, &self.rooted, &[], &self.empty_asg, caps);
        let report = ard_linear_in(&elmore, &self.net, &self.rooted, &mut self.ard_ws);
        self.down_caps = Some(elmore.into_down_caps());
        report
    }

    fn check_terminal(&self, t: TerminalId) -> Result<(), EditError> {
        if t.0 < self.net.terminals.len() {
            Ok(())
        } else {
            Err(EditError::UnknownTerminal(t.0))
        }
    }

    /// Marks `v` and all its ancestors dirty.
    fn mark_path(&mut self, v: VertexId) {
        let mut cur = Some(v);
        while let Some(u) = cur {
            self.dirty[u.0] = true;
            cur = self.rooted.parent(u);
        }
    }

    fn invalidate_all(&mut self) {
        self.dirty.fill(true);
        self.cache.clear();
    }

    /// The endpoint of `e` on the leaf side (the one whose parent edge
    /// is `e`).
    fn lower_endpoint(&self, e: EdgeId) -> VertexId {
        let (a, b) = self.net.topology.endpoints(e);
        if self.rooted.parent_edge(a) == Some(e) {
            a
        } else {
            b
        }
    }

    /// Re-derives the Eq. 1 bottom-up capacitances along `start`'s root
    /// path (the only entries a point edit can change), using the same
    /// per-vertex summation order as the full pass so the maintained
    /// vector stays bit-identical to a fresh one.
    fn refresh_down_path(&mut self, start: VertexId) {
        let Some(caps) = self.down_caps.as_mut() else {
            return;
        };
        let mut cur = Some(start);
        while let Some(v) = cur {
            let mut c = match self.net.topology.kind(v) {
                VertexKind::Terminal(t) => self.net.terminal(t).cap,
                _ => 0.0,
            };
            for &u in self.rooted.children(v) {
                // msrnet-allow: panic children of a rooted tree always have a parent edge
                let e = self.rooted.parent_edge(u).expect("child has a parent edge");
                c += self.net.edge_cap(e) + caps[u.0];
            }
            caps[v.0] = c;
            cur = self.rooted.parent(v);
        }
    }

    /// Re-derives the required bound after a cap-affecting edit; if it
    /// outgrew the session bound, adopts a new head-roomed bound and
    /// invalidates everything (cached sets are only valid under the
    /// bound they were computed with).
    fn maybe_escalate(&mut self) {
        let required = required_cap_bound(
            &self.net,
            &self.library,
            &self.term_opts,
            &self.wire_options,
        );
        if required > self.cap_bound {
            self.cap_bound = required * BOUND_HEADROOM;
            self.escalations += 1;
            self.invalidate_all();
        }
    }

    /// Re-syncs rooted/cache/dirty/ARD state after an append-only
    /// structural edit: new elements take the next free ids so every
    /// surviving id — and its cached candidate set — stays put. The
    /// appended slots join dirty.
    fn sync_after_growth(&mut self) {
        self.rooted = self.net.rooted_at_terminal(self.root);
        let n = self.net.topology.vertex_count();
        self.cache.grow(n);
        self.dirty.resize(n, true);
        self.empty_asg = Assignment::empty(n);
        self.down_caps = None;
    }

    /// Re-syncs after a swap-remove structural edit. The caller has
    /// already compacted the cache ([`DpCache::structural_remove_vertex`])
    /// and the dirty vector in the same swap-remove order, so only the
    /// rooted view and the ARD buffers need rebuilding here.
    fn sync_after_removal(&mut self) {
        self.rooted = self.net.rooted_at_terminal(self.root);
        debug_assert_eq!(self.dirty.len(), self.net.topology.vertex_count());
        self.empty_asg = Assignment::empty(self.net.topology.vertex_count());
        self.down_caps = None;
    }

    /// The id moves performed by the most recent successful structural
    /// removal (`remove_terminal` / `remove_insertion_point`): each
    /// populated pair is `(old_last_id, new_id)` for the element that
    /// filled the vacated slot. `None` after any other successful edit.
    /// Replayers use this to renumber later trace steps.
    pub fn last_remap(&self) -> Option<StructuralRemap> {
        self.last_remap
    }

    /// Test-only fault injection: when set, `remove_terminal` skips
    /// dirtying the attachment vertex (only its ancestors), leaving a
    /// stale cached set behind. Exists so the verify harness can prove
    /// its structural oracle catches exactly this class of bug.
    #[doc(hidden)]
    pub fn set_skip_structural_dirty(&mut self, on: bool) {
        self.skip_structural_dirty = on;
    }
}

/// `true` iff `x` is an exact (normal) power of two — the scales for
/// which [`Edit::SwapLibrary`] is exactly invertible.
fn is_power_of_two(x: f64) -> bool {
    const MANTISSA_MASK: u64 = (1 << 52) - 1;
    x.is_finite() && x > 0.0 && x.to_bits() & MANTISSA_MASK == 0
}

/// A seeded random edit trace against `net`: the fuzz driver behind the
/// verify harness's incremental checks and the batch/bench replay modes.
///
/// Edits reference only elements the *starting* net has; library and
/// wire scales are powers of two and insertion-point splits use
/// `frac = 0.5`, so non-structural edits (and `add_insertion_point`)
/// admit exact inverses (see [`IncrementalOptimizer::inverse_of`]).
/// Structural removals swap-renumber ids, so later edits in a trace may
/// be rejected by [`IncrementalOptimizer::apply`] — replayers tolerate
/// typed rejections. The trace does not depend on any session state, so
/// the same `(net, seed, count)` triple always yields the same edits.
pub fn random_trace(net: &Net, seed: u64, count: usize) -> Vec<Edit> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xED17_7ACE_0000_0000);
    let terms: Vec<TerminalId> = net.terminal_ids().collect();
    let edges = net.topology.edge_count();
    let steiners: Vec<VertexId> = (0..net.topology.vertex_count())
        .map(VertexId)
        .filter(|&v| matches!(net.topology.kind(v), VertexKind::Steiner))
        .collect();
    let ips: Vec<VertexId> = (0..net.topology.vertex_count())
        .map(VertexId)
        .filter(|&v| matches!(net.topology.kind(v), VertexKind::InsertionPoint))
        .collect();
    const SCALES: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let t = terms[rng.gen_range(0..terms.len())];
        let op = rng.gen_range(0..12u32);
        let edit = match op {
            0 | 1 => Edit::SetArrival {
                terminal: t,
                value: rng.gen_range(0.0..120.0),
            },
            2 => Edit::SetRequired {
                terminal: t,
                value: rng.gen_range(0.0..120.0),
            },
            3 => Edit::SetSinkLoad {
                terminal: t,
                cap: rng.gen_range(0.05..4.0),
            },
            4 => {
                let v = net.topology.terminal_vertex(t);
                let p = net.topology.position(v);
                Edit::MoveTerminal {
                    terminal: t,
                    x: p.x + rng.gen_range(-20.0..20.0),
                    y: p.y + rng.gen_range(-20.0..20.0),
                }
            }
            5 if edges > 0 => Edit::SetWireRc {
                edge: EdgeId(rng.gen_range(0..edges)),
                res_scale: SCALES[rng.gen_range(0..SCALES.len())],
                cap_scale: SCALES[rng.gen_range(0..SCALES.len())],
            },
            6 => Edit::SwapLibrary {
                scale: SCALES[rng.gen_range(0..SCALES.len())],
            },
            8 if !steiners.is_empty() => {
                let at = steiners[rng.gen_range(0..steiners.len())];
                let p = net.topology.position(at);
                Edit::AddTerminal {
                    at,
                    x: p.x + rng.gen_range(-40.0..40.0),
                    y: p.y + rng.gen_range(-40.0..40.0),
                    terminal: Terminal::bidirectional(
                        rng.gen_range(0.0..120.0),
                        rng.gen_range(0.0..120.0),
                        rng.gen_range(0.05..1.0),
                        rng.gen_range(60.0..360.0),
                    ),
                }
            }
            9 => Edit::RemoveTerminal { terminal: t },
            10 if edges > 0 => Edit::AddInsertionPoint {
                edge: EdgeId(rng.gen_range(0..edges)),
                // Halving is bitwise-exact, so the split always admits
                // an exact inverse.
                frac: 0.5,
            },
            11 if !ips.is_empty() => Edit::RemoveInsertionPoint {
                vertex: ips[rng.gen_range(0..ips.len())],
            },
            _ => Edit::Reroot { terminal: t },
        };
        out.push(edit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrnet_core::ard::ard_linear;
    use msrnet_netgen::{table1, ExperimentNet};
    use msrnet_rctree::Technology;

    /// A 6-terminal random net with insertion points and a 2-repeater
    /// symmetric library — small enough for exhaustive edit loops, big
    /// enough that paths are a strict subset of the tree.
    fn session() -> IncrementalOptimizer {
        let params = table1();
        let mut rng = SplitMix64::seed_from_u64(99);
        let exp = ExperimentNet::random(&mut rng, 6, &params).unwrap();
        let net = exp.with_insertion_points(4000.0);
        let library = vec![params.repeater(1.0), params.repeater(2.0)];
        let term_opts = TerminalOptions::defaults(&net);
        IncrementalOptimizer::new(
            net,
            TerminalId(0),
            library,
            term_opts,
            vec![WireOption::unit()],
            MsriOptions::default(),
        )
    }

    #[test]
    fn edit_replay_is_bit_identical_to_scratch() {
        let mut s = session();
        s.recompute().unwrap();
        let edits = random_trace(s.net(), 5, 24);
        let mut applied = 0;
        for edit in &edits {
            // Structural removals renumber ids, so later steps of a
            // random trace may reference elements that no longer fit;
            // typed rejections leave the session untouched.
            if s.apply(edit).is_err() {
                continue;
            }
            applied += 1;
            let (inc, stats) = s.recompute().unwrap();
            let (scratch, full) = s.from_scratch().unwrap();
            assert_eq!(inc.first_bit_difference(&scratch), None, "divergence after {edit:?}");
            assert!(stats.nodes_recomputed <= full.nodes_recomputed);
        }
        assert!(applied >= edits.len() / 2, "only {applied} edits applied");
    }

    #[test]
    fn point_edits_recompute_only_path_nodes() {
        let mut s = session();
        s.recompute().unwrap();
        let n = s.net().topology.vertex_count();
        s.apply(&Edit::SetArrival {
            terminal: TerminalId(1),
            value: 77.0,
        })
        .unwrap();
        let (_, stats) = s.recompute().unwrap();
        assert!(stats.nodes_recomputed > 0);
        assert!(
            stats.nodes_recomputed < stats.nodes_visited,
            "a path edit must not recompute the whole tree \
             ({} of {} nodes, n = {n})",
            stats.nodes_recomputed,
            stats.nodes_visited,
        );
        // Idempotence: nothing dirty, nothing recomputed.
        let (_, stats) = s.recompute().unwrap();
        assert_eq!(stats.nodes_recomputed, 0);
    }

    #[test]
    fn inverse_edits_restore_the_frontier() {
        let mut s = session();
        let (mut orig, _) = s.recompute().unwrap();
        let mut checked = 0;
        for edit in random_trace(s.net(), 17, 16) {
            let Some(inverse) = s.inverse_of(&edit) else {
                continue;
            };
            let esc = s.escalations();
            if s.apply(&edit).is_err() {
                continue;
            }
            s.recompute().unwrap();
            s.apply(&inverse).unwrap();
            let (back, _) = s.recompute().unwrap();
            if s.escalations() != esc {
                // The bound escalated mid-roundtrip: `orig` and `back`
                // were computed under different session bounds and are
                // not bit-comparable. The configuration is restored, so
                // re-baseline under the new bound and keep going.
                orig = back;
                continue;
            }
            assert_eq!(orig.first_bit_difference(&back), None, "inverse of {edit:?} failed");
            checked += 1;
        }
        assert!(checked > 0, "no inverse pair was actually checked");
    }

    #[test]
    fn bare_ard_tracks_edits_bit_identically() {
        let mut s = session();
        for edit in random_trace(s.net(), 23, 20) {
            if s.apply(&edit).is_err() {
                continue;
            }
            let got = s.bare_ard();
            let rooted = s.net().rooted_at_terminal(s.root());
            let asg = Assignment::empty(s.net().topology.vertex_count());
            let fresh = ard_linear(s.net(), &rooted, &[], &asg);
            assert_eq!(got.ard.to_bits(), fresh.ard.to_bits(), "after {edit:?}");
            assert_eq!(got.critical, fresh.critical);
        }
    }

    #[test]
    fn rejected_edits_leave_the_session_untouched() {
        let mut s = session();
        let (before, _) = s.recompute().unwrap();
        let bad = [
            Edit::SetArrival {
                terminal: TerminalId(99),
                value: 1.0,
            },
            Edit::SetArrival {
                terminal: TerminalId(0),
                value: f64::NAN,
            },
            Edit::SetSinkLoad {
                terminal: TerminalId(0),
                cap: -1.0,
            },
            Edit::SetWireRc {
                edge: EdgeId(9999),
                res_scale: 1.0,
                cap_scale: 1.0,
            },
            Edit::SwapLibrary { scale: 0.0 },
            Edit::Reroot {
                terminal: TerminalId(42),
            },
        ];
        for edit in &bad {
            assert!(s.apply(edit).is_err(), "{edit:?} must be rejected");
        }
        let (after, stats) = s.recompute().unwrap();
        assert_eq!(stats.nodes_recomputed, 0, "no dirt from rejected edits");
        assert_eq!(before.first_bit_difference(&after), None);
    }

    #[test]
    fn escalation_triggers_on_outsized_loads_and_stays_correct() {
        let mut s = session();
        s.recompute().unwrap();
        let bound = s.cap_bound();
        // A load far past the headroom forces a new bound.
        s.apply(&Edit::SetSinkLoad {
            terminal: TerminalId(1),
            cap: 1e4,
        })
        .unwrap();
        assert_eq!(s.escalations(), 1);
        assert!(s.cap_bound() > bound);
        let (inc, _) = s.recompute().unwrap();
        let (scratch, _) = s.from_scratch().unwrap();
        assert_eq!(inc.first_bit_difference(&scratch), None);
    }

    #[test]
    fn move_terminal_rederives_wire_length() {
        let mut s = session();
        s.recompute().unwrap();
        let t = TerminalId(2);
        let v = s.net().topology.terminal_vertex(t);
        let (nbr, e) = s.net().topology.neighbors(v)[0];
        let target = s.net().topology.position(nbr);
        s.apply(&Edit::MoveTerminal {
            terminal: t,
            x: target.x,
            y: target.y,
        })
        .unwrap();
        assert_eq!(s.net().topology.length(e), 0.0);
        let (inc, _) = s.recompute().unwrap();
        let (scratch, _) = s.from_scratch().unwrap();
        assert_eq!(inc.first_bit_difference(&scratch), None);
    }

    #[test]
    fn power_of_two_detection() {
        assert!(is_power_of_two(0.25));
        assert!(is_power_of_two(1.0));
        assert!(is_power_of_two(4.0));
        assert!(!is_power_of_two(3.0));
        assert!(!is_power_of_two(0.1));
        assert!(!is_power_of_two(0.0));
        assert!(!is_power_of_two(-2.0));
        assert!(!is_power_of_two(f64::INFINITY));
        assert!(!is_power_of_two(f64::NAN));
    }

    #[test]
    fn random_trace_is_deterministic_and_valid() {
        let s = session();
        let a = random_trace(s.net(), 7, 40);
        let b = random_trace(s.net(), 7, 40);
        assert_eq!(a, b);
        let mut s2 = session();
        let mut applied = 0;
        for e in &a {
            if s2.apply(e).is_ok() {
                applied += 1;
            }
        }
        assert!(applied * 2 >= a.len(), "only {applied}/40 edits applied");
        assert_ne!(a, random_trace(s.net(), 8, 40));
    }

    #[test]
    fn builder_net_quickstart_example_shape() {
        // Single-wire net: recompute works and reroot swaps orientation.
        let mut b = msrnet_rctree::NetBuilder::new(Technology::new(1.0, 1.0));
        let t0 = b.terminal(
            Point::new(0.0, 0.0),
            msrnet_rctree::Terminal::bidirectional(0.0, 0.0, 1.0, 3.0),
        );
        let t1 = b.terminal(
            Point::new(2.0, 0.0),
            msrnet_rctree::Terminal::bidirectional(5.0, 7.0, 1.0, 3.0),
        );
        b.wire(t0, t1);
        let net = b.build().unwrap();
        let opts = TerminalOptions::defaults(&net);
        let mut s = IncrementalOptimizer::new(
            net,
            TerminalId(0),
            vec![],
            opts,
            vec![WireOption::unit()],
            MsriOptions::default(),
        );
        let (c0, _) = s.recompute().unwrap();
        s.apply(&Edit::Reroot {
            terminal: TerminalId(1),
        })
        .unwrap();
        let (c1, _) = s.recompute().unwrap();
        // Rooting invariance of the ARD value (paper: the ARD is a net
        // property, not a rooting property).
        assert!((c0.best_ard().ard - c1.best_ard().ard).abs() < 1e-9);
    }

    /// A hand-built star net (t0 — hub — t1, hub — t2) with a known
    /// Steiner hub, for structural-edit tests that need full control
    /// over vertex kinds and ids.
    fn structural_session() -> IncrementalOptimizer {
        let params = table1();
        let tech = Technology::new(0.03, 0.00035);
        let mut b = msrnet_rctree::NetBuilder::new(tech);
        let t0 = b.terminal(
            Point::new(0.0, 0.0),
            Terminal::bidirectional(0.0, 0.0, 0.05, 180.0),
        );
        let t1 = b.terminal(
            Point::new(800.0, 0.0),
            Terminal::bidirectional(10.0, 5.0, 0.08, 200.0),
        );
        let t2 = b.terminal(
            Point::new(400.0, 600.0),
            Terminal::bidirectional(3.0, 9.0, 0.06, 150.0),
        );
        let hub = b.steiner(Point::new(400.0, 0.0));
        b.wire(t0, hub);
        b.wire(hub, t1);
        b.wire(hub, t2);
        let net = b.build().unwrap();
        let library = vec![params.repeater(1.0), params.repeater(2.0)];
        let term_opts = TerminalOptions::defaults(&net);
        IncrementalOptimizer::new(
            net,
            TerminalId(0),
            library,
            term_opts,
            vec![WireOption::unit()],
            MsriOptions::default(),
        )
    }

    /// The Steiner hub of [`structural_session`].
    const HUB: VertexId = VertexId(3);

    #[test]
    fn add_terminal_matches_scratch_and_grows_the_net() {
        let mut s = structural_session();
        s.recompute().unwrap();
        let n_before = s.net().topology.vertex_count();
        s.apply(&Edit::AddTerminal {
            at: HUB,
            x: 400.0,
            y: -500.0,
            terminal: Terminal::bidirectional(2.0, 4.0, 0.07, 160.0),
        })
        .unwrap();
        assert_eq!(s.net().topology.vertex_count(), n_before + 1);
        assert_eq!(s.net().terminals.len(), 4);
        assert!(s.last_remap().is_none(), "appends never remap");
        let (inc, _) = s.recompute().unwrap();
        let (scratch, _) = s.from_scratch().unwrap();
        assert_eq!(inc.first_bit_difference(&scratch), None);
    }

    #[test]
    fn add_remove_terminal_roundtrip_restores_the_frontier() {
        let mut s = structural_session();
        let (orig, _) = s.recompute().unwrap();
        let esc = s.escalations();
        let edit = Edit::AddTerminal {
            at: HUB,
            x: 300.0,
            y: -250.0,
            terminal: Terminal::bidirectional(1.0, 2.0, 0.09, 140.0),
        };
        let inverse = s.inverse_of(&edit).unwrap();
        assert_eq!(
            inverse,
            Edit::RemoveTerminal {
                terminal: TerminalId(3)
            }
        );
        s.apply(&edit).unwrap();
        s.recompute().unwrap();
        s.apply(&inverse).unwrap();
        assert_eq!(s.last_remap(), Some(StructuralRemap::default()));
        let (back, _) = s.recompute().unwrap();
        assert_eq!(s.escalations(), esc, "bound must not move in this regime");
        assert_eq!(orig.first_bit_difference(&back), None);
    }

    #[test]
    fn remove_interior_terminal_remaps_and_matches_scratch() {
        let mut s = structural_session();
        s.recompute().unwrap();
        // t1 is not the last terminal, so its removal swap-moves t2's
        // ids down — the remap must be populated and the incremental
        // result must still equal scratch on the renumbered net.
        s.apply(&Edit::RemoveTerminal {
            terminal: TerminalId(1),
        })
        .unwrap();
        let remap = s.last_remap().unwrap();
        assert_eq!(remap.terminal, Some((TerminalId(2), TerminalId(1))));
        assert!(remap.vertex.is_some());
        assert_eq!(s.net().terminals.len(), 2);
        let (inc, _) = s.recompute().unwrap();
        let (scratch, _) = s.from_scratch().unwrap();
        assert_eq!(inc.first_bit_difference(&scratch), None);
    }

    #[test]
    fn insertion_point_roundtrip_is_exact() {
        let mut s = structural_session();
        let (orig, _) = s.recompute().unwrap();
        let esc = s.escalations();
        let edit = Edit::AddInsertionPoint {
            edge: EdgeId(1),
            frac: 0.5,
        };
        let inverse = s.inverse_of(&edit).unwrap();
        assert_eq!(
            inverse,
            Edit::RemoveInsertionPoint {
                vertex: VertexId(4)
            }
        );
        s.apply(&edit).unwrap();
        // The repeater DP now sees one more legal site; the curve can
        // only stay equal or improve, and must match scratch exactly.
        let (mid, _) = s.recompute().unwrap();
        let (mid_scratch, _) = s.from_scratch().unwrap();
        assert_eq!(mid.first_bit_difference(&mid_scratch), None);
        s.apply(&inverse).unwrap();
        let (back, _) = s.recompute().unwrap();
        assert_eq!(s.escalations(), esc);
        assert_eq!(orig.first_bit_difference(&back), None);
    }

    #[test]
    fn structural_rejections_are_typed_and_harmless() {
        let mut s = structural_session();
        let (before, _) = s.recompute().unwrap();
        let term = Terminal::bidirectional(0.0, 0.0, 0.05, 180.0);
        let cases = [
            (
                Edit::AddTerminal {
                    at: VertexId(99),
                    x: 0.0,
                    y: 0.0,
                    terminal: term,
                },
                EditError::UnknownVertex(99),
            ),
            (
                // Vertex 0 hosts terminal t0: not a legal attachment.
                Edit::AddTerminal {
                    at: VertexId(0),
                    x: 0.0,
                    y: 0.0,
                    terminal: term,
                },
                EditError::BadVertexKind(0),
            ),
            (
                Edit::AddTerminal {
                    at: HUB,
                    x: f64::NAN,
                    y: 0.0,
                    terminal: term,
                },
                EditError::NonFinite("position"),
            ),
            (
                Edit::RemoveTerminal {
                    terminal: TerminalId(9),
                },
                EditError::UnknownTerminal(9),
            ),
            (
                Edit::RemoveTerminal {
                    terminal: TerminalId(0),
                },
                EditError::IsRoot(0),
            ),
            (
                Edit::AddInsertionPoint {
                    edge: EdgeId(77),
                    frac: 0.5,
                },
                EditError::UnknownEdge(77),
            ),
            (
                Edit::AddInsertionPoint {
                    edge: EdgeId(0),
                    frac: 1.5,
                },
                EditError::OutOfRange("frac"),
            ),
            (
                Edit::RemoveInsertionPoint {
                    vertex: VertexId(42),
                },
                EditError::UnknownVertex(42),
            ),
            (
                // The hub is Steiner, not an insertion point.
                Edit::RemoveInsertionPoint { vertex: HUB },
                EditError::BadVertexKind(3),
            ),
        ];
        for (edit, want) in &cases {
            assert_eq!(s.apply(edit).unwrap_err(), *want, "for {edit:?}");
        }
        let (after, stats) = s.recompute().unwrap();
        assert_eq!(stats.nodes_recomputed, 0);
        assert_eq!(before.first_bit_difference(&after), None);
    }

    #[test]
    fn remove_insertion_point_rejects_mismatched_scaling() {
        let mut s = structural_session();
        s.apply(&Edit::AddInsertionPoint {
            edge: EdgeId(0),
            frac: 0.5,
        })
        .unwrap();
        let ip = VertexId(4);
        // Rescale only one of the two half-edges: the splice would have
        // to merge differently scaled wire, which has no single-edge
        // representation.
        s.apply(&Edit::SetWireRc {
            edge: EdgeId(0),
            res_scale: 2.0,
            cap_scale: 2.0,
        })
        .unwrap();
        assert_eq!(
            s.apply(&Edit::RemoveInsertionPoint { vertex: ip }),
            Err(EditError::ScalingMismatch(4)),
        );
        // `inverse_of` judges geometry and ids only — the rejection
        // above comes from `apply`, which is the single gatekeeper.
        assert!(s
            .inverse_of(&Edit::RemoveInsertionPoint { vertex: ip })
            .is_some());
    }

    #[test]
    fn remove_terminal_rejects_breaking_the_net() {
        // A two-terminal net: removing the non-root end would leave a
        // single-terminal "net".
        let tech = Technology::new(0.03, 0.00035);
        let mut b = msrnet_rctree::NetBuilder::new(tech);
        let t0 = b.terminal(
            Point::new(0.0, 0.0),
            Terminal::bidirectional(0.0, 0.0, 0.05, 180.0),
        );
        let hub = b.steiner(Point::new(50.0, 0.0));
        let t1 = b.terminal(
            Point::new(100.0, 0.0),
            Terminal::bidirectional(0.0, 0.0, 0.05, 180.0),
        );
        b.wire(t0, hub);
        b.wire(hub, t1);
        let net = b.build().unwrap();
        let term_opts = TerminalOptions::defaults(&net);
        let mut s = IncrementalOptimizer::new(
            net,
            TerminalId(0),
            vec![],
            term_opts,
            vec![WireOption::unit()],
            MsriOptions::default(),
        );
        assert_eq!(
            s.apply(&Edit::RemoveTerminal {
                terminal: TerminalId(1)
            }),
            Err(EditError::WouldBreakNet(1)),
        );
    }

    #[test]
    fn skip_structural_dirty_knob_leaves_a_stale_set_behind() {
        let mut s = structural_session();
        s.recompute().unwrap();
        s.set_skip_structural_dirty(true);
        // Remove a non-last terminal so stale cache references stay
        // in-range (they alias the swapped-in ids) and the fault shows
        // up as a silent wrong answer, not a panic.
        s.apply(&Edit::RemoveTerminal {
            terminal: TerminalId(1),
        })
        .unwrap();
        let (inc, _) = s.recompute().unwrap();
        let (scratch, _) = s.from_scratch().unwrap();
        assert!(
            inc.first_bit_difference(&scratch).is_some(),
            "the injected fault must produce a detectable divergence"
        );
    }

    #[test]
    fn structural_edits_compose_with_wire_sizing_sessions() {
        let mut s = structural_session_with_wires();
        s.recompute().unwrap();
        let trace = [
            Edit::AddInsertionPoint {
                edge: EdgeId(2),
                frac: 0.5,
            },
            Edit::AddTerminal {
                at: HUB,
                x: 500.0,
                y: -300.0,
                terminal: Terminal::bidirectional(4.0, 1.0, 0.06, 170.0),
            },
            Edit::SetWireRc {
                edge: EdgeId(3),
                res_scale: 0.5,
                cap_scale: 2.0,
            },
            Edit::RemoveTerminal {
                terminal: TerminalId(3),
            },
        ];
        for edit in &trace {
            s.apply(edit).unwrap();
            let (inc, _) = s.recompute().unwrap();
            let (scratch, _) = s.from_scratch().unwrap();
            assert_eq!(inc.first_bit_difference(&scratch), None, "divergence after {edit:?}");
        }
    }

    /// [`structural_session`] with a two-width wire menu, exercising the
    /// wire-sizing DP (`optimize_with_wires_in` semantics) through the
    /// session cache.
    fn structural_session_with_wires() -> IncrementalOptimizer {
        let params = table1();
        let tech = Technology::new(0.03, 0.00035);
        let mut b = msrnet_rctree::NetBuilder::new(tech);
        let t0 = b.terminal(
            Point::new(0.0, 0.0),
            Terminal::bidirectional(0.0, 0.0, 0.05, 180.0),
        );
        let t1 = b.terminal(
            Point::new(800.0, 0.0),
            Terminal::bidirectional(10.0, 5.0, 0.08, 200.0),
        );
        let t2 = b.terminal(
            Point::new(400.0, 600.0),
            Terminal::bidirectional(3.0, 9.0, 0.06, 150.0),
        );
        let hub = b.steiner(Point::new(400.0, 0.0));
        b.wire(t0, hub);
        b.wire(hub, t1);
        b.wire(hub, t2);
        let net = b.build().unwrap();
        let library = vec![params.repeater(1.0)];
        let term_opts = TerminalOptions::defaults(&net);
        IncrementalOptimizer::new(
            net,
            TerminalId(0),
            library,
            term_opts,
            vec![WireOption::unit(), WireOption::width("2W", 2.0, 0.0004)],
            MsriOptions::default(),
        )
    }
}
