//! Synthetic workloads for the PACStack performance evaluation.
//!
//! The paper measures instrumentation overhead on SPEC CPU 2017 (§7.1) and
//! on NGINX serving SSL/TLS transactions (§7.2). Neither workload is
//! runnable inside a deterministic Rust simulator, so this crate builds
//! *profile-equivalent* programs in the toy IR: what determines a scheme's
//! overhead is the ratio of function-activation work (prologue + epilogue
//! cycles, which instrumentation inflates) to useful body work — i.e. the
//! call frequency and call-depth profile, which is exactly what the
//! profiles here encode per benchmark.
//!
//! * [`spec`] — one profile per SPEC CPU 2017 C/C++ benchmark in the
//!   paper's Figure 5, in SPECrate and SPECspeed flavours;
//! * [`nginx`] — an event-loop server whose per-connection work is
//!   dominated by a call-heavy TLS-handshake model (the paper's SSL TPS
//!   test is CPU-bound by design);
//! * [`measure`] — helpers that run a module under every scheme and report
//!   cycle overheads relative to the baseline;
//! * [`confirm`] — the §7.3 ConFIRM-style compatibility suite with a
//!   pass/fail runner;
//! * [`synth`] — deterministic random-program generation for fuzzing the
//!   instrumentation beyond the fixed profiles;
//! * [`supervisor`] — a crash-restart supervisor model replaying the
//!   paper's one-guess-per-crash online-attack economics (§4.3, §6.2)
//!   under always / capped / exponential-backoff restart policies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No `unwrap`/`expect` outside tests, which opt back in locally.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod confirm;
pub mod measure;
pub mod nginx;
pub mod spec;
pub mod supervisor;
pub mod synth;
