//! Timing optimization for multisource nets: the augmented RC-diameter
//! and optimal repeater insertion.
//!
//! This crate implements the primary contributions of Lillis & Cheng,
//! *"Timing Optimization for Multisource Nets: Characterization and
//! Optimal Repeater Insertion"* (DAC'97 / IEEE TCAD 18(3), 1999):
//!
//! * [`ard`] — the **augmented RC-diameter** performance measure and its
//!   linear-time computation (paper §III, Fig. 2), plus the naive
//!   per-source baseline;
//! * [`optimize`] — **optimal repeater insertion** (paper §IV): a
//!   bottom-up dynamic program over subsolutions characterized by scalars
//!   and piece-wise linear functions of the external capacitance, pruned
//!   with minimal-functional-subset dominance, returning the full
//!   cost-vs-ARD [`TradeoffCurve`] (and hence "min cost subject to
//!   ARD ≤ spec", Problem 2.1);
//! * driver sizing as a special case (paper §V): per-terminal
//!   [`TerminalOptions`] menus;
//! * [`exhaustive`] — a brute-force oracle used to verify optimality
//!   (paper Theorem 4.1) on small instances;
//! * inverting repeaters (paper §V extension) via
//!   [`MsriOptions::allow_inverting`].
//!
//! # Quick start
//!
//! ```
//! use msrnet_geom::Point;
//! use msrnet_core::{optimize, MsriOptions, TerminalOptions};
//! use msrnet_rctree::{Buffer, NetBuilder, Repeater, Technology, Terminal, TerminalId};
//!
//! // A 10 mm point-to-point bus with three candidate insertion points.
//! let tech = Technology::new(0.03, 0.00035);
//! let mut b = NetBuilder::new(tech);
//! let term = || Terminal::bidirectional(0.0, 0.0, 0.05, 180.0);
//! let t0 = b.terminal(Point::new(0.0, 0.0), term());
//! let mut prev = t0;
//! for i in 1..=3 {
//!     let ip = b.insertion_point(Point::new(2500.0 * i as f64, 0.0));
//!     b.wire(prev, ip);
//!     prev = ip;
//! }
//! let t1 = b.terminal(Point::new(10_000.0, 0.0), term());
//! b.wire(prev, t1);
//! let net = b.build()?;
//!
//! let buf = Buffer::new("1X", 50.0, 180.0, 0.05, 1.0);
//! let lib = [Repeater::from_buffer_pair("rep1x", &buf, &buf)];
//! let curve = optimize(
//!     &net,
//!     TerminalId(0),
//!     &lib,
//!     &TerminalOptions::defaults(&net),
//!     &MsriOptions::default(),
//! )?;
//! println!("{curve}");
//! assert!(curve.best_ard().ard < curve.min_cost().ard);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod ard;
mod dp;
pub mod exhaustive;
pub mod greedy;
mod options;
mod tradeoff;

pub use dp::{
    optimize, optimize_in, optimize_incremental, optimize_with_wires, required_cap_bound,
    DpCache, MsriStats, MsriWorkspace, RecomputeStats, StepStats,
};
pub use options::{
    MsriError, MsriOptions, PruningStrategy, TerminalOption, TerminalOptions, WireOption,
};
pub use tradeoff::{TradeoffCurve, TradeoffPoint};
