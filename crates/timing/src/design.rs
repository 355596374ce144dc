//! The design model: cells, pins, and multisource nets bound together.
//!
//! A [`Design`] is a netlist at the granularity the closure loop works
//! at: *cells* expose input and output pins connected internally by
//! timing *arcs* (pin-to-pin delays); *nets* are full RC-tree
//! multisource nets whose terminals are bound to cell pins. The timing
//! graph (see [`crate::graph`]) has one node per pin and two edge
//! families — cell arcs (input pin → output pin, arc delay) and net
//! arcs (driver pin → sink pin, the net's current stage delay).

use msrnet_core::ard::ard_linear;
use msrnet_rctree::{Assignment, Net, Repeater, TerminalId};

/// Identifier of a pin in the design-wide pin table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PinId(pub usize);

/// Identifier of a cell in [`Design::cells`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellId(pub usize);

/// Identifier of a net in [`Design::nets`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct NetId(pub usize);

/// Whether a pin receives from a net (input) or drives one (output).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinDir {
    /// The pin is a cell input: a net sink terminal may be bound to it.
    Input,
    /// The pin is a cell output: a net driver terminal may be bound to
    /// it.
    Output,
}

/// One pin: its owning cell and direction.
#[derive(Clone, Copy, Debug)]
pub struct Pin {
    /// The owning cell.
    pub cell: CellId,
    /// Input or output.
    pub dir: PinDir,
}

/// What kind of timing element a cell is.
#[derive(Clone, Copy, Debug)]
pub enum CellKind {
    /// Primary input (or register output): a single output pin whose
    /// arrival time is fixed.
    Input {
        /// Arrival time at the output pin, ps.
        arrival: f64,
    },
    /// Primary output (or register input): a single input pin with a
    /// required time — a timing *endpoint*.
    Output {
        /// Required time at the input pin, ps.
        required: f64,
    },
    /// Combinational cell: delays flow through explicit arcs.
    Comb,
}

/// One pin-to-pin delay arc inside a cell, in cell-local pin indices.
#[derive(Clone, Copy, Debug)]
pub struct CellArc {
    /// Index into the cell's `inputs`.
    pub input: usize,
    /// Index into the cell's `outputs`.
    pub output: usize,
    /// Arc delay, ps.
    pub delay: f64,
}

/// A cell: named, typed, with pin lists and internal arcs.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Instance name (report label).
    pub name: String,
    /// Input / output / combinational.
    pub kind: CellKind,
    /// Input pins, in declaration order.
    pub inputs: Vec<PinId>,
    /// Output pins, in declaration order.
    pub outputs: Vec<PinId>,
    /// Internal delay arcs.
    pub arcs: Vec<CellArc>,
}

/// Binds one net terminal to one cell pin. Driver terminals
/// (`is_source`) bind to output pins, sink terminals (`is_sink`) to
/// input pins.
#[derive(Clone, Copy, Debug)]
pub struct PinBind {
    /// The net terminal.
    pub terminal: TerminalId,
    /// The cell pin it connects to.
    pub pin: PinId,
}

/// A multisource net embedded in the design: the RC tree, its repeater
/// library, its pin bindings, and its current *stage delay* — the
/// worst driver-to-sink delay under the net's current repeater
/// assignment, with zero boundary values (see [`stage_delay`]).
#[derive(Clone, Debug)]
pub struct DesignNet {
    /// Net name (report label).
    pub name: String,
    /// The optimization-ready RC-tree net (terminals are leaves,
    /// insertion points present).
    pub net: Net,
    /// Repeater library available on this net.
    pub library: Vec<Repeater>,
    /// Terminal-to-pin bindings. Each terminal binds to at most one
    /// pin; unbound terminals are allowed (dangling load).
    pub binds: Vec<PinBind>,
    /// Current stage delay, ps — every driver→sink graph arc of this
    /// net carries this value.
    pub delay: f64,
    /// Stage delay of the bare net (no repeaters), ps.
    pub bare_delay: f64,
    /// The repeater assignment realizing `delay` (`None` = bare).
    pub assignment: Option<Assignment>,
    /// Cost of the repeaters in `assignment`, in 1X-buffer equivalents.
    pub repeater_cost: f64,
    /// Whether the closure loop has already optimized (or given up on)
    /// this net.
    pub optimized: bool,
}

/// Errors from design construction or timing analysis.
#[derive(Clone, Debug, PartialEq)]
pub enum TimingError {
    /// A cell arc referenced a pin index the cell does not have.
    InvalidArc(String),
    /// A net binding was inconsistent (bad terminal, role/direction
    /// mismatch, double-bound pin or terminal).
    InvalidBind(String),
    /// The pin graph has a combinational cycle through this pin.
    CombinationalLoop(PinId),
    /// Design generation failed (propagated from net construction).
    Generate(String),
}

impl std::fmt::Display for TimingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimingError::InvalidArc(s) => write!(f, "invalid cell arc: {s}"),
            TimingError::InvalidBind(s) => write!(f, "invalid net binding: {s}"),
            TimingError::CombinationalLoop(p) => {
                write!(f, "combinational loop through pin {}", p.0)
            }
            TimingError::Generate(s) => write!(f, "design generation failed: {s}"),
        }
    }
}

impl std::error::Error for TimingError {}

/// A design: the global pin table, the cells, and the nets.
///
/// # Examples
///
/// A two-pin chain — primary input → net → primary output — built by
/// hand and propagated:
///
/// ```
/// use msrnet_geom::Point;
/// use msrnet_rctree::{NetBuilder, Technology, Terminal, TerminalId};
/// use msrnet_timing::{propagate, Design, PinBind};
///
/// let mut b = NetBuilder::new(Technology::new(0.03, 0.00035));
/// let t0 = b.terminal(Point::new(0.0, 0.0), Terminal::source_only(0.0, 0.05, 180.0));
/// let t1 = b.terminal(Point::new(2000.0, 0.0), Terminal::sink_only(0.0, 0.05));
/// b.wire(t0, t1);
/// let net = b.build()?;
///
/// let mut d = Design::new();
/// let pi = d.add_input("pi0", 10.0);
/// let po = d.add_output("po0", 100.0);
/// let binds = vec![
///     PinBind { terminal: TerminalId(0), pin: d.cells[pi.0].outputs[0] },
///     PinBind { terminal: TerminalId(1), pin: d.cells[po.0].inputs[0] },
/// ];
/// d.add_net("n0", net, vec![], binds)?;
///
/// let t = propagate(&d)?;
/// // One endpoint; its slack is required − (PI arrival + net delay).
/// assert_eq!(t.endpoints().len(), 1);
/// let slack = t.slack(d.cells[po.0].inputs[0]);
/// assert!((slack - (100.0 - 10.0 - d.nets[0].delay)).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Design {
    pins: Vec<Pin>,
    /// All cells, in creation order.
    pub cells: Vec<Cell>,
    /// All nets, in creation order.
    pub nets: Vec<DesignNet>,
}

impl Design {
    /// An empty design.
    pub fn new() -> Self {
        Design::default()
    }

    /// Number of pins in the design.
    pub fn pin_count(&self) -> usize {
        self.pins.len()
    }

    /// Looks up a pin.
    pub fn pin(&self, p: PinId) -> Pin {
        self.pins[p.0]
    }

    fn new_pin(&mut self, cell: CellId, dir: PinDir) -> PinId {
        let id = PinId(self.pins.len());
        self.pins.push(Pin { cell, dir });
        id
    }

    /// Adds a primary input with one output pin at the given arrival
    /// time.
    pub fn add_input(&mut self, name: impl Into<String>, arrival: f64) -> CellId {
        let id = CellId(self.cells.len());
        let out = self.new_pin(id, PinDir::Output);
        self.cells.push(Cell {
            name: name.into(),
            kind: CellKind::Input { arrival },
            inputs: Vec::new(),
            outputs: vec![out],
            arcs: Vec::new(),
        });
        id
    }

    /// Adds a primary output (endpoint) with one input pin at the given
    /// required time.
    pub fn add_output(&mut self, name: impl Into<String>, required: f64) -> CellId {
        let id = CellId(self.cells.len());
        let inp = self.new_pin(id, PinDir::Input);
        self.cells.push(Cell {
            name: name.into(),
            kind: CellKind::Output { required },
            inputs: vec![inp],
            outputs: Vec::new(),
            arcs: Vec::new(),
        });
        id
    }

    /// Adds a combinational cell with `n_in` inputs, `n_out` outputs
    /// and the given arcs (cell-local indices).
    ///
    /// # Errors
    ///
    /// [`TimingError::InvalidArc`] if an arc indexes a missing pin or
    /// carries a non-finite delay.
    pub fn add_comb(
        &mut self,
        name: impl Into<String>,
        n_in: usize,
        n_out: usize,
        arcs: Vec<CellArc>,
    ) -> Result<CellId, TimingError> {
        let name = name.into();
        for a in &arcs {
            if a.input >= n_in || a.output >= n_out || !a.delay.is_finite() {
                return Err(TimingError::InvalidArc(format!(
                    "cell `{name}`: arc {}→{} delay {}",
                    a.input, a.output, a.delay
                )));
            }
        }
        let id = CellId(self.cells.len());
        let inputs = (0..n_in).map(|_| self.new_pin(id, PinDir::Input)).collect();
        let outputs = (0..n_out)
            .map(|_| self.new_pin(id, PinDir::Output))
            .collect();
        self.cells.push(Cell {
            name,
            kind: CellKind::Comb,
            inputs,
            outputs,
            arcs,
        });
        Ok(id)
    }

    /// Adds a net with its bindings, computing its bare stage delay.
    ///
    /// Binding rules (checked): terminals exist and bind at most once;
    /// driver terminals (`is_source`) bind to output pins, sinks
    /// (`is_sink`) to input pins; an output pin drives at most one net
    /// and an input pin is fed by at most one net, design-wide.
    ///
    /// # Errors
    ///
    /// [`TimingError::InvalidBind`] on any violated rule.
    pub fn add_net(
        &mut self,
        name: impl Into<String>,
        net: Net,
        library: Vec<Repeater>,
        binds: Vec<PinBind>,
    ) -> Result<NetId, TimingError> {
        let name = name.into();
        let n_terms = net.terminals.len();
        let mut term_used = vec![false; n_terms];
        for b in &binds {
            if b.terminal.0 >= n_terms {
                return Err(TimingError::InvalidBind(format!(
                    "net `{name}`: terminal {} out of range",
                    b.terminal.0
                )));
            }
            if b.pin.0 >= self.pins.len() {
                return Err(TimingError::InvalidBind(format!(
                    "net `{name}`: pin {} out of range",
                    b.pin.0
                )));
            }
            if term_used[b.terminal.0] {
                return Err(TimingError::InvalidBind(format!(
                    "net `{name}`: terminal {} bound twice",
                    b.terminal.0
                )));
            }
            term_used[b.terminal.0] = true;
            let term = net.terminal(b.terminal);
            let dir = self.pins[b.pin.0].dir;
            let role_ok = match dir {
                PinDir::Output => term.is_source(),
                PinDir::Input => term.is_sink(),
            };
            if !role_ok {
                return Err(TimingError::InvalidBind(format!(
                    "net `{name}`: terminal {} role does not match pin {} direction",
                    b.terminal.0, b.pin.0
                )));
            }
        }
        // Design-wide single-driver / single-fanin per pin.
        for other in &self.nets {
            for ob in &other.binds {
                if binds.iter().any(|b| b.pin == ob.pin) {
                    return Err(TimingError::InvalidBind(format!(
                        "net `{name}`: pin {} already connected to net `{}`",
                        ob.pin.0, other.name
                    )));
                }
            }
        }
        let bare_delay = stage_delay(&net, &library, None);
        let id = NetId(self.nets.len());
        self.nets.push(DesignNet {
            name,
            net,
            library,
            binds,
            delay: bare_delay,
            bare_delay,
            assignment: None,
            repeater_cost: 0.0,
            optimized: false,
        });
        Ok(id)
    }

    /// Sets every primary output's required time to `required` —
    /// chip generation uses this to place the clock constraint after
    /// measuring the unconstrained graph delay.
    pub fn set_all_required(&mut self, required: f64) {
        for c in &mut self.cells {
            if let CellKind::Output { required: r } = &mut c.kind {
                *r = required;
            }
        }
    }
}

/// The *stage delay* of a net under an assignment: the worst
/// driver-to-sink Elmore delay with all boundary values zeroed
/// (driver `AT = 0`, sink `q = 0`), i.e. the pure driver-pin→sink-pin
/// delay the timing graph should carry for this net. `None` means the
/// bare net (empty assignment).
///
/// Returns `0.0` for degenerate nets with no driver/sink pair (such a
/// net contributes no graph arcs, so the value is never used).
pub fn stage_delay(net: &Net, library: &[Repeater], assignment: Option<&Assignment>) -> f64 {
    let mut ctx = net.clone();
    for t in &mut ctx.terminals {
        if t.is_source() {
            t.arrival = 0.0;
        }
        if t.is_sink() {
            t.downstream = 0.0;
        }
    }
    let Some(root) = ctx.terminal_ids().find(|&t| ctx.terminal(t).is_source()) else {
        return 0.0;
    };
    let rooted = ctx.rooted_at_terminal(root);
    let empty;
    let asg = match assignment {
        Some(a) => a,
        None => {
            empty = Assignment::empty(ctx.topology.vertex_count());
            &empty
        }
    };
    let ard = ard_linear(&ctx, &rooted, library, asg).ard;
    if ard.is_finite() {
        ard
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrnet_geom::Point;
    use msrnet_rctree::{NetBuilder, Technology, Terminal};

    fn two_pin_net() -> Net {
        let mut b = NetBuilder::new(Technology::new(0.03, 0.000_35));
        let t0 = b.terminal(Point::new(0.0, 0.0), Terminal::source_only(0.0, 0.05, 180.0));
        let t1 = b.terminal(Point::new(2000.0, 0.0), Terminal::sink_only(0.0, 0.05));
        b.wire(t0, t1);
        b.build().expect("valid 2-pin net")
    }

    #[test]
    fn binds_are_validated() {
        let mut d = Design::new();
        let pi = d.add_input("pi", 0.0);
        let po = d.add_output("po", 100.0);
        let out_pin = d.cells[pi.0].outputs[0];
        let in_pin = d.cells[po.0].inputs[0];

        // Role mismatch: sink terminal on an output pin.
        let err = d.add_net(
            "bad",
            two_pin_net(),
            vec![],
            vec![PinBind {
                terminal: TerminalId(1),
                pin: out_pin,
            }],
        );
        assert!(matches!(err, Err(TimingError::InvalidBind(_))));

        // Correct roles bind fine.
        let ok = d.add_net(
            "good",
            two_pin_net(),
            vec![],
            vec![
                PinBind {
                    terminal: TerminalId(0),
                    pin: out_pin,
                },
                PinBind {
                    terminal: TerminalId(1),
                    pin: in_pin,
                },
            ],
        );
        assert!(ok.is_ok());
        assert!(d.nets[0].delay > 0.0);
        assert_eq!(d.nets[0].delay, d.nets[0].bare_delay);

        // The input pin is now taken; a second net cannot feed it.
        let err = d.add_net(
            "dup",
            two_pin_net(),
            vec![],
            vec![PinBind {
                terminal: TerminalId(1),
                pin: in_pin,
            }],
        );
        assert!(matches!(err, Err(TimingError::InvalidBind(_))));
    }

    #[test]
    fn arc_indices_are_validated() {
        let mut d = Design::new();
        let err = d.add_comb(
            "u0",
            1,
            1,
            vec![CellArc {
                input: 1,
                output: 0,
                delay: 10.0,
            }],
        );
        assert!(matches!(err, Err(TimingError::InvalidArc(_))));
        let ok = d.add_comb(
            "u1",
            2,
            1,
            vec![
                CellArc {
                    input: 0,
                    output: 0,
                    delay: 10.0,
                },
                CellArc {
                    input: 1,
                    output: 0,
                    delay: 20.0,
                },
            ],
        );
        assert!(ok.is_ok());
        assert_eq!(d.pin_count(), 3);
    }

    #[test]
    fn stage_delay_is_positive_and_monotone_in_length() {
        let net = two_pin_net();
        let d1 = stage_delay(&net, &[], None);
        assert!(d1 > 0.0);

        let mut b = NetBuilder::new(Technology::new(0.03, 0.000_35));
        let t0 = b.terminal(Point::new(0.0, 0.0), Terminal::source_only(0.0, 0.05, 180.0));
        let t1 = b.terminal(Point::new(6000.0, 0.0), Terminal::sink_only(0.0, 0.05));
        b.wire(t0, t1);
        let longer = b.build().expect("valid 2-pin net");
        assert!(stage_delay(&longer, &[], None) > d1);
    }
}
