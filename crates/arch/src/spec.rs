//! The one error type of the command-line spec grammars: `--predictor`
//! ([`PredictorSpec::parse`](crate::PredictorSpec::parse)) here, and
//! `--config` / `--ib-policy` in strata-core. Each carries the byte span
//! of the offending token, so the driver renders every grammar's errors
//! with one caret line.

/// A spec parse failure, with the byte span of the offending token
/// inside the original spec (for caret diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What was wrong.
    pub msg: String,
    /// Byte offset of the offending token.
    pub start: usize,
    /// Byte length of the offending token (at least 1).
    pub len: usize,
}

impl SpecError {
    /// An error about the `len` bytes of the spec at `start` (an empty
    /// token still spans one byte, so a caret can point at it).
    pub fn new(msg: impl Into<String>, start: usize, len: usize) -> SpecError {
        SpecError {
            msg: msg.into(),
            start,
            len: len.max(1),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for SpecError {}
