//! The shared edit-replay engine behind both `msrnet-cli edits` and the
//! server's `open`/`edit`/`recompute` requests.
//!
//! A [`Replayer`] owns one [`IncrementalOptimizer`] session plus the
//! replay's accumulated report state: one JSON row per step (step 0 is
//! the initial all-dirty compute, each later step replays one edit,
//! cross-checked bit-for-bit against a from-scratch oracle) and the
//! applied/rejected/mismatch counters. [`Replayer::report`] assembles
//! the exact `msrnet_edits` document the CLI prints.
//!
//! Because the CLI and the server drive this one implementation — and
//! the protocol passes the resulting text through verbatim — a served
//! `recompute` is byte-identical to a local `msrnet-cli edits` run on
//! the same net and trace *by construction*. The golden/oracle tests
//! assert that equality on raw bytes.

use msrnet_core::{required_cap_bound, MsriOptions, PruningStrategy, TerminalOptions, WireOption};
use msrnet_incremental::json::{json_num, json_str};
use msrnet_incremental::{Edit, IncrementalOptimizer};
use msrnet_rctree::{Net, Repeater, TerminalId};

/// One incremental session plus its replay report state.
pub struct Replayer {
    session: IncrementalOptimizer,
    /// Net label echoed into the report (the CLI passes the `.msr`
    /// path; served sessions pass the name uploaded with `open`).
    label: String,
    initial_root: TerminalId,
    rows: Vec<String>,
    edits_seen: usize,
    applied: usize,
    rejected: usize,
    mismatches: usize,
}

impl std::fmt::Debug for Replayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replayer")
            .field("label", &self.label)
            .field("root", &self.initial_root.0)
            .field("edits_seen", &self.edits_seen)
            .field("applied", &self.applied)
            .field("rejected", &self.rejected)
            .field("mismatches", &self.mismatches)
            .finish_non_exhaustive()
    }
}

impl Replayer {
    /// Builds a session the way `msrnet-cli edits` does — default-cost
    /// driver menus with the given driver cost, the unit wire menu,
    /// inverting repeaters allowed iff the library has any — and runs
    /// step 0 (the initial all-dirty compute) so the session is
    /// validated eagerly.
    ///
    /// # Errors
    ///
    /// A message (the CLI surfaces it verbatim) when the root index is
    /// out of range or the configuration's capacitance bound is
    /// degenerate. An *infeasible* initial solve is not an error: it
    /// becomes step 0's row, exactly as in the CLI.
    pub fn open(
        label: impl Into<String>,
        net: Net,
        root: TerminalId,
        library: Vec<Repeater>,
        driver_cost: f64,
        pruning: PruningStrategy,
        timing: bool,
    ) -> Result<Replayer, String> {
        Replayer::open_with_wires(
            label,
            net,
            root,
            library,
            vec![WireOption::unit()],
            driver_cost,
            pruning,
            timing,
        )
    }

    /// [`Replayer::open`] with an explicit wire-sizing menu, so an edit
    /// session replays through the same per-subtree cache the
    /// wire-sizing DP (`optimize_with_wires`) uses. The menu must be
    /// non-empty; `msrnet-cli edits --wire-widths` builds it the same
    /// way the `wires` subcommand does.
    ///
    /// # Errors
    ///
    /// As [`Replayer::open`], plus an empty wire menu.
    #[allow(clippy::too_many_arguments)]
    pub fn open_with_wires(
        label: impl Into<String>,
        net: Net,
        root: TerminalId,
        library: Vec<Repeater>,
        wire_options: Vec<WireOption>,
        driver_cost: f64,
        pruning: PruningStrategy,
        timing: bool,
    ) -> Result<Replayer, String> {
        if root.0 >= net.terminals.len() {
            return Err(format!("--root {} out of range", root.0));
        }
        if wire_options.is_empty() {
            return Err("wire menu must not be empty".into());
        }
        let term_opts = TerminalOptions::defaults_with_cost(&net, driver_cost);
        let options = MsriOptions {
            allow_inverting: library.iter().any(|r| r.inverting),
            pruning,
            ..MsriOptions::default()
        };
        let bound = required_cap_bound(&net, &library, &term_opts, &wire_options);
        if !bound.is_finite() || bound <= 0.0 {
            return Err(format!("degenerate configuration: cap bound {bound}"));
        }
        let session =
            IncrementalOptimizer::new(net, root, library, term_opts, wire_options, options);
        let mut rep = Replayer {
            session,
            label: label.into(),
            initial_root: root,
            rows: Vec::new(),
            edits_seen: 0,
            applied: 0,
            rejected: 0,
            mismatches: 0,
        };
        rep.recompute_row(0, "initial", timing);
        Ok(rep)
    }

    /// Replays one edit: apply, recompute, cross-check against a
    /// from-scratch oracle, append the row. Returns `false` if the edit
    /// was rejected (the row records the reason; the session state is
    /// unchanged).
    pub fn step(&mut self, edit: &Edit, timing: bool) -> bool {
        self.edits_seen += 1;
        let step = self.edits_seen;
        if let Err(e) = self.session.apply(edit) {
            self.rejected += 1;
            self.rows.push(format!(
                "    {{\"step\": {step}, \"op\": \"{}\", \"status\": \"rejected\", \
                 \"reason\": {}, \"bit_identical\": null, \"micros\": null}}",
                edit.op_name(),
                json_str(&e.to_string())
            ));
            return false;
        }
        self.applied += 1;
        self.recompute_row(step, edit.op_name(), timing);
        true
    }

    /// Replays a whole trace in order.
    pub fn replay(&mut self, edits: &[Edit], timing: bool) {
        for edit in edits {
            self.step(edit, timing);
        }
    }

    fn recompute_row(&mut self, step: usize, op: &str, timing: bool) {
        // msrnet-allow: wall-clock recompute latency is emitted only under the CLI's --timing flag; default output is byte-stable
        let t0 = timing.then(std::time::Instant::now);
        let inc = self.session.recompute();
        let micros = match t0 {
            Some(t) => format!("{}", t.elapsed().as_micros()),
            None => "null".into(),
        };
        let scratch = self.session.from_scratch();
        match (inc, scratch) {
            (Ok((a, sa)), Ok((b, _))) => {
                let bit = a.first_bit_difference(&b).is_none();
                if !bit {
                    self.mismatches += 1;
                }
                let best = a.best_ard();
                self.rows.push(format!(
                    "    {{\"step\": {step}, \"op\": \"{op}\", \"status\": \"ok\", \
                     \"nodes_visited\": {}, \"nodes_recomputed\": {}, \"nodes_reused\": {}, \
                     \"points\": {}, \"best_ard\": {}, \"min_cost\": {}, \
                     \"bit_identical\": {bit}, \"micros\": {micros}}}",
                    sa.nodes_visited,
                    sa.nodes_recomputed,
                    sa.nodes_reused,
                    a.len(),
                    json_num(best.ard),
                    json_num(a.min_cost().cost),
                ));
            }
            (Err(a), Err(b)) => {
                let bit = a == b;
                if !bit {
                    self.mismatches += 1;
                }
                self.rows.push(format!(
                    "    {{\"step\": {step}, \"op\": \"{op}\", \"status\": \"infeasible\", \
                     \"error\": {}, \"bit_identical\": {bit}, \"micros\": {micros}}}",
                    json_str(&a.to_string())
                ));
            }
            (inc, _) => {
                self.mismatches += 1;
                self.rows.push(format!(
                    "    {{\"step\": {step}, \"op\": \"{op}\", \"status\": \"mismatch\", \
                     \"error\": \"only one side solved (incremental ok: {})\", \
                     \"bit_identical\": false, \"micros\": {micros}}}",
                    inc.is_ok()
                ));
            }
        }
    }

    /// Assembles the full `msrnet_edits` report, byte-identical to what
    /// `msrnet-cli edits` prints for the same net (labelled by this
    /// session's label), root, and concatenated traces.
    pub fn report(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"msrnet_edits\",\n  \"net\": {},\n  \
             \"root\": {},\n  \"edits\": {},\n  \"applied\": {},\n  \
             \"rejected\": {},\n  \"escalations\": {},\n  \
             \"mismatches\": {},\n  \"steps\": [\n{}\n  ]\n}}\n",
            json_str(&self.label),
            self.initial_root.0,
            self.edits_seen,
            self.applied,
            self.rejected,
            self.session.escalations(),
            self.mismatches,
            self.rows.join(",\n"),
        )
    }

    /// The rows appended since index `from` (the server's `edit`
    /// response returns just the new rows, joined by newlines).
    pub fn rows_since(&self, from: usize) -> String {
        self.rows[from.min(self.rows.len())..].join("\n")
    }

    /// How many rows the replay has produced so far (step 0 included).
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The session's current trade-off curve as deterministic JSON
    /// (`msrnet_curve` schema: cost/ARD pairs in curve order, no
    /// timing fields).
    ///
    /// # Errors
    ///
    /// The optimizer's infeasibility message when the current state has
    /// no feasible solution.
    pub fn curve_json(&mut self) -> Result<String, String> {
        let (curve, _) = self.session.recompute().map_err(|e| e.to_string())?;
        let mut out = String::from("{\n  \"benchmark\": \"msrnet_curve\",\n  \"points\": [\n");
        let pts = curve.points();
        for (i, p) in pts.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"cost\": {}, \"ard\": {}}}{}\n",
                json_num(p.cost),
                json_num(p.ard),
                if i + 1 < pts.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        Ok(out)
    }

    /// Total edits replayed (rejected ones included).
    pub fn edits_seen(&self) -> usize {
        self.edits_seen
    }

    /// Edits accepted by the session.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Edits rejected (structurally invalid for the current net).
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Recomputes that diverged from the from-scratch oracle.
    pub fn mismatches(&self) -> usize {
        self.mismatches
    }

    /// Bound escalations (see `IncrementalOptimizer::escalations`).
    pub fn escalations(&self) -> u64 {
        self.session.escalations()
    }

    /// Resident DP-cache size, the session's retained-memory proxy.
    pub fn cached_subtrees(&self) -> usize {
        self.session.cached_subtrees()
    }

    /// The session's report label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The underlying session (read-only).
    pub fn session(&self) -> &IncrementalOptimizer {
        &self.session
    }
}
