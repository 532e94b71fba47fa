use std::fmt;

use strata_machine::{MachineError, NativeError};

/// Errors produced by the SDT.
#[derive(Debug)]
pub enum SdtError {
    /// A configuration parameter was out of range.
    BadConfig {
        /// Which parameter.
        what: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// The fragment cache region is full.
    CacheFull {
        /// Bytes the cache can hold.
        capacity: u32,
    },
    /// The lookup-table region is full (e.g. too many per-site IBTC
    /// tables).
    TableSpaceExhausted {
        /// Bytes requested by the failed allocation.
        requested: u32,
    },
    /// The guest program used a trap code reserved for the SDT runtime.
    ReservedTrap {
        /// Offending code.
        code: u16,
        /// Application pc of the trap.
        pc: u32,
    },
    /// The application stored into its own (already translated) code —
    /// the translator's fragments would silently go stale, so execution is
    /// refused instead.
    SelfModifyingCode {
        /// Cache pc of the offending store.
        pc: u32,
        /// Application code address that was written.
        addr: u32,
    },
    /// The trace-replay engine lost sync with the recorded control-flow
    /// stream: an event does not match the translated fragment graph
    /// (wrong trace for the program, or a corrupted stream).
    ReplayDesync {
        /// Application pc of the offending trace event.
        pc: u32,
        /// What the replay expected instead.
        detail: String,
    },
    /// The underlying machine faulted.
    Machine(MachineError),
}

impl fmt::Display for SdtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdtError::BadConfig { what, detail } => write!(f, "bad config for {what}: {detail}"),
            SdtError::CacheFull { capacity } => {
                write!(f, "fragment cache of {capacity} bytes is full")
            }
            SdtError::TableSpaceExhausted { requested } => {
                write!(f, "lookup-table space exhausted allocating {requested} bytes")
            }
            SdtError::ReservedTrap { code, pc } => {
                write!(f, "application trap {code:#x} at {pc:#x} is reserved for the SDT runtime")
            }
            SdtError::SelfModifyingCode { pc, addr } => write!(
                f,
                "store to application code {addr:#x} (from {pc:#x}): self-modifying code is unsupported"
            ),
            SdtError::ReplayDesync { pc, detail } => {
                write!(f, "trace replay desynchronized at {pc:#x}: {detail}")
            }
            SdtError::Machine(e) => write!(f, "machine fault: {e}"),
        }
    }
}

impl std::error::Error for SdtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SdtError::Machine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MachineError> for SdtError {
    fn from(e: MachineError) -> SdtError {
        SdtError::Machine(e)
    }
}

impl From<NativeError> for SdtError {
    fn from(e: NativeError) -> SdtError {
        match e {
            NativeError::ReservedTrap { code, pc } => SdtError::ReservedTrap { code, pc },
            NativeError::Machine(e) => SdtError::Machine(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = SdtError::BadConfig {
            what: "ibtc entries",
            detail: "nope".into(),
        };
        assert!(e.to_string().contains("ibtc entries"));
        assert!(SdtError::CacheFull { capacity: 64 }
            .to_string()
            .contains("64"));
        let m: SdtError = MachineError::UnalignedPc { pc: 2 }.into();
        assert!(m.to_string().contains("unaligned"));
    }
}
