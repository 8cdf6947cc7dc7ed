//! Experiment implementations behind the `repro` binary.
//!
//! Each function regenerates one table or figure of the PACStack paper and
//! returns structured results, so integration tests can assert on the
//! *shape* of every reproduced experiment (who wins, by what factor) while
//! the binary formats them for reading.
//!
//! Run `cargo run --release -p pacstack-bench --bin repro -- all` to print
//! everything; see `EXPERIMENTS.md` at the workspace root for the recorded
//! paper-vs-measured comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod experiments;
pub mod render;
pub mod tracecmd;

pub use pacstack_exec as exec;
