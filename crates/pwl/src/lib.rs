//! Piece-wise linear (PWL) function machinery for multisource timing
//! optimization.
//!
//! Lillis & Cheng (TCAD'99, §IV) characterize a subsolution of the
//! multisource repeater-insertion problem by three scalars and two
//! *functions of the external capacitance* `c_E`: the arrival time at the
//! subtree root from internal sources, and the internal augmented
//! RC-diameter. Under the Elmore model both are piece-wise linear in `c_E`
//! (slopes are accumulated upstream resistances), and the whole dynamic
//! program reduces to a handful of PWL primitives (paper Eq. 3):
//!
//! * pointwise **Max** of two PWLs (critical-source selection),
//! * **AddScalar** (intrinsic delays, downstream delays),
//! * **AddLinear** (wire delay `R_w · (C_w/2 + c_E)` adds a line),
//! * **Shift** of the argument (added sibling/wire capacitance shifts the
//!   external capacitance seen by a subtree),
//! * **Evaluate** at a known `c_E` (a repeater decouples, fixing `c_E` to
//!   its input capacitance).
//!
//! On top of the function algebra, this crate implements the paper's
//! **minimal functional subset** (MFS, Definition 4.3): dominance pruning
//! where each candidate is a tuple of scalars and PWLs, and a candidate is
//! discarded *on the region of `c_E`* where some other candidate is at
//! least as good in every dimension. Both the naive pairwise algorithm and
//! the paper's divide-and-conquer scheme (Fig. 4) are provided.
//!
//! # Conventions
//!
//! * A [`Pwl`] is a sorted list of non-overlapping closed segments; gaps in
//!   the domain mean *undefined*, which the optimization interprets as
//!   "pruned / +∞" (never better than any defined value).
//! * Segment values may be `-∞` (used for "no source in this subtree");
//!   such segments always carry slope 0.
//! * All domains live on the capacitance axis `c_E ≥ 0` and are typically
//!   clamped to `[0, C_total]` for the net being optimized.
//!
//! # Examples
//!
//! ```
//! use msrnet_pwl::Pwl;
//!
//! // Arrival from source u: 10 + 12·c_E; from source w: 16 + 7·c_E.
//! let from_u = Pwl::linear(10.0, 12.0, 0.0, 10.0);
//! let from_w = Pwl::linear(16.0, 7.0, 0.0, 10.0);
//! let arrival = from_u.max(&from_w);
//! // w dominates for small external load; u for large (paper Fig. 3c,
//! // with the crossover where the two lines meet).
//! assert_eq!(arrival.eval(0.0), Some(16.0));
//! assert_eq!(arrival.eval(5.0), Some(70.0));
//! assert_eq!(arrival.segments().len(), 2);
//! ```

#![warn(missing_docs)]

mod arena;
mod function;
mod interval;
mod mfs;
mod segment;

pub use arena::{ArenaCheckpoint, SegmentArena};
pub use function::{lower_envelope, upper_envelope, Pwl};
pub use interval::IntervalSet;
pub use mfs::{mfs_divide_conquer, mfs_naive, FuncPoint};
pub use segment::Segment;

/// Comparison tolerance used throughout the PWL algebra, in the units of
/// the function values (picoseconds in `msrnet`).
///
/// Two values within `EPS` of each other are considered equal when merging
/// collinear segments and when computing crossing points; dominance checks
/// use exact comparisons so that ties are broken deterministically by the
/// two-pass pruning order.
pub const EPS: f64 = 1e-9;
