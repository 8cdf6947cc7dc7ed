//! Deterministic fault injection for the PACStack reproduction.
//!
//! PACStack's security argument is a claim about *failure behaviour*: a
//! corrupted `aret` must produce a non-canonical pointer that faults when
//! used, converting silent control-flow hijack into a process crash that
//! costs the adversary one guess per process lifetime (paper §4.3, §6.2).
//! The attack modules exercise faults they deliberately construct; this
//! crate perturbs the substrate itself and *measures* detection, turning
//! "crash on corruption" from an assumption into a coverage result.
//!
//! The engine interposes on the simulated CPU at instruction-retire
//! granularity ([`pacstack_aarch64::Cpu::run_observed`] segments) and injects
//! architectural faults from a seeded [`plan::InjectionPlan`]:
//!
//! * single/multi-bit flips in the chain register (CR/X28), the link
//!   register (LR/X30) and SP;
//! * bit flips in stack-memory words;
//! * PA key-register corruption and mid-run key zeroing;
//! * instruction skips (a classic glitch primitive);
//! * spurious asynchronous signal delivery at adversarially chosen points,
//!   prologue/epilogue windows included.
//!
//! Every trial terminates in exactly one [`engine::TrialOutcome`] —
//! `DetectedCrash(Fault)`, `SilentCorruption`, `Masked` or `Hang` — and
//! never unwinds the host process: the execution pipeline underneath
//! (`aarch64`, `pauth`) reports structured errors end to end.
//!
//! Campaigns ([`campaign::coverage`]) fan out over `pacstack-exec`, so the
//! detection-coverage matrix is byte-identical at any `--jobs` count.
//!
//! # Examples
//!
//! ```
//! use pacstack_chaos::{campaign, engine};
//!
//! let module = campaign::chaos_module();
//! let report = campaign::coverage(&module, 4, 0xC4A05).unwrap();
//! assert_eq!(report.len(), engine::TARGETS.len());
//! // Every trial classified, none lost to host panics.
//! for target in &report {
//!     assert_eq!(target.host_panics, 0);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod campaign;
pub mod engine;
pub mod plan;

pub use campaign::{coverage, CellCounts, TargetCoverage};
pub use engine::{ChaosError, PreparedTarget, Target, TrialOutcome, TARGETS};
pub use plan::{FaultClass, FaultKind, Injection, InjectionPlan};
