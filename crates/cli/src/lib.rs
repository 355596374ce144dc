//! Command-line tooling for `msrnet`: flag parsing ([`args`]), Markdown
//! reports ([`report`]) and SVG rendering of topologies and solutions
//! ([`svg`]). The `.msr` net format the subcommands read and write is
//! `msrnet_netgen::format`.
//!
//! The `msrnet-cli` binary's subcommands:
//!
//! * `gen` — generate a random experiment net (paper §VI setup) and
//!   write it as a `.msr` file;
//! * `stats` — summarize a net file;
//! * `ard` — evaluate the augmented RC-diameter of a net file and report
//!   the critical source → sink pair;
//! * `optimize` — run optimal repeater insertion and print the
//!   cost-vs-ARD frontier (optionally answering a `--spec`);
//! * `batch` — optimize many nets on a worker pool, emitting a JSON
//!   report;
//! * `edits` — replay a JSON edit trace through an incremental
//!   re-optimization session, cross-checking every recompute against a
//!   from-scratch oracle;
//! * `timing` — generate a seeded chip (`msrnet-timing`), run the
//!   design-level timing-closure loop over its multisource nets, and
//!   emit the per-round WNS/TNS trajectory as byte-stable JSON;
//! * `render` — draw the topology (and optionally a solution) as SVG;
//! * `report` — write a Markdown optimization report;
//! * `verify` — run the seeded differential-verification harness
//!   (`msrnet-verify`): oracle cross-checks plus metamorphic properties
//!   over a generated case stream, shrinking any mismatch to a minimal
//!   `.msr` repro;
//! * `lint` — run the in-workspace static analyzer (`msrnet-analyzer`)
//!   over the source tree.
//!
//! # Examples
//!
//! ```
//! use msrnet_netgen::format::{parse_net_file, write_net_file};
//! use msrnet_netgen::{table1, ExperimentNet};
//! use msrnet_rng::SeedableRng;
//!
//! let params = table1();
//! let mut rng = msrnet_rng::rngs::StdRng::seed_from_u64(3);
//! let exp = ExperimentNet::random(&mut rng, 5, &params)?;
//! let net = exp.with_insertion_points(800.0);
//! let lib = vec![params.repeater(1.0)];
//!
//! let text = write_net_file(&net, &lib);
//! let parsed = parse_net_file(&text)?;
//! assert_eq!(parsed.net.topology.vertex_count(), net.topology.vertex_count());
//! assert_eq!(parsed.library.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod args;
pub mod report;
pub mod svg;
