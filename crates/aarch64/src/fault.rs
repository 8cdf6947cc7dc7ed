//! Fault conditions the simulated CPU can raise.

use std::error::Error;
use std::fmt;

/// A synchronous fault that terminates the simulated process.
///
/// The paper's security argument rests on forged pointers *faulting*: a
/// failed `aut*` yields a non-canonical pointer, and using it (instruction
/// fetch or data access) raises a translation fault that kills the process,
/// costing the adversary their guess.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// An access through a pointer whose high bits are not canonical —
    /// what a stripped-and-corrupted PA pointer produces.
    TranslationFault {
        /// The offending virtual address.
        addr: u64,
    },
    /// A data access to unmapped (but canonical) memory.
    AccessFault {
        /// The offending virtual address.
        addr: u64,
    },
    /// A write to a non-writable page — the W⊕X policy (assumption A1).
    PermissionFault {
        /// The offending virtual address.
        addr: u64,
    },
    /// Instruction fetch from a non-executable or unmapped address.
    FetchFault {
        /// The program-counter value that could not be fetched.
        pc: u64,
    },
    /// `aut*` failed in FPAC mode (ARMv8.6-A), which faults immediately.
    PacFault {
        /// The pointer that failed authentication.
        pointer: u64,
    },
    /// The program ran past its instruction budget (likely divergence).
    Timeout,
    /// `sigreturn` validation failed in the ACS-protected signal model
    /// (paper Appendix B): the kernel kills the process.
    SigreturnViolation,
    /// Authentication failed while the PA key registers were known to be
    /// corrupted (chaos injection): the mismatch is attributable to the key
    /// material itself, not to a forged pointer.
    KeyFault {
        /// The pointer whose authentication failed under corrupted keys.
        pointer: u64,
    },
    /// A task was spawned at (or a call targeted) a symbol the program does
    /// not define — a structured replacement for the kernel's old
    /// `no function` host panic.
    NoSuchSymbol,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::TranslationFault { addr } => {
                write!(
                    f,
                    "translation fault at {addr:#018x} (non-canonical pointer)"
                )
            }
            Fault::AccessFault { addr } => write!(f, "access fault at {addr:#018x} (unmapped)"),
            Fault::PermissionFault { addr } => {
                write!(f, "permission fault at {addr:#018x} (W^X violation)")
            }
            Fault::FetchFault { pc } => write!(f, "instruction fetch fault at pc={pc:#018x}"),
            Fault::PacFault { pointer } => {
                write!(f, "pointer authentication fault on {pointer:#018x} (FPAC)")
            }
            Fault::Timeout => f.write_str("instruction budget exhausted"),
            Fault::SigreturnViolation => f.write_str("sigreturn validation failed"),
            Fault::KeyFault { pointer } => {
                write!(
                    f,
                    "authentication failed on {pointer:#018x} under corrupted PA keys"
                )
            }
            Fault::NoSuchSymbol => f.write_str("no such symbol in program image"),
        }
    }
}

impl Error for Fault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_display_their_addresses() {
        let s = Fault::TranslationFault {
            addr: 0x4000_0000_1234,
        }
        .to_string();
        assert!(s.contains("0x0000400000001234"));
        assert!(Fault::Timeout.to_string().contains("budget"));
    }

    #[test]
    fn key_fault_displays_pointer_and_cause() {
        let s = Fault::KeyFault {
            pointer: 0x007F_0000_BEEF,
        }
        .to_string();
        assert!(s.contains("0x0000007f0000beef"));
        assert!(s.contains("corrupted PA keys"));
    }

    #[test]
    fn every_fault_variant_displays_distinctly() {
        let faults = [
            Fault::TranslationFault { addr: 1 },
            Fault::AccessFault { addr: 1 },
            Fault::PermissionFault { addr: 1 },
            Fault::FetchFault { pc: 1 },
            Fault::PacFault { pointer: 1 },
            Fault::Timeout,
            Fault::SigreturnViolation,
            Fault::KeyFault { pointer: 1 },
            Fault::NoSuchSymbol,
        ];
        let rendered: Vec<String> = faults.iter().map(Fault::to_string).collect();
        for (i, a) in rendered.iter().enumerate() {
            assert!(!a.is_empty());
            for b in rendered.iter().skip(i + 1) {
                assert_ne!(a, b, "two fault variants render identically");
            }
        }
        assert!(Fault::NoSuchSymbol.to_string().contains("symbol"));
    }
}
