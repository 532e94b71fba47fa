//! Compressed retire traces and SimPoint sampled simulation.
//!
//! The experiment suite's cost is dominated by guest interpretation:
//! every workload × mechanism × profile cell re-executes the guest from
//! scratch. This crate converts that cost into "trace bytes streamed":
//!
//! 1. **Record** ([`record`](fn@record)): one reference native run per workload
//!    captures every retired instruction as a
//!    [`CompactRetire`](strata_machine::observers::CompactRetire) — pc,
//!    control-flow outcome, target, mem-access class — while charging all
//!    four architecture cost models in the same pass, so the trace header
//!    carries the exact per-profile [`NativeRun`](strata_core::NativeRun)
//!    baselines for free.
//! 2. **Store** ([`file`](mod@file)): the stream is delta/varint packed into
//!    length-prefixed, FNV-1a-checksummed blocks (~1.5 bytes per
//!    instruction), so truncation and corruption are decode *errors*,
//!    never panics.
//! 3. **Phase analysis** ([`bbv`], [`kmeans`], [`simpoints`]): fixed-size
//!    intervals are summarized as hashed basic-block vectors, clustered
//!    with a seeded deterministic k-means, and each cluster elects
//!    weighted representative intervals (SimPoints).
//! 4. **Replay** (in `strata-expt`): dispatch mechanisms re-run over the
//!    recorded control-flow events of the sampled intervals only, and the
//!    per-cluster weights turn sampled counters into whole-run estimates
//!    with confidence intervals.

pub mod bbv;
pub mod codec;
pub mod file;
pub mod kmeans;
pub mod record;
pub mod simpoints;

pub use bbv::{bbvs, BBV_DIMS};
pub use codec::{decode_block, encode_block, visit_block, CodecError};
pub use file::{BlockWalker, NativeSummary, Trace, TraceError, TraceHeader, TraceInfo};
pub use record::{record, Recorded};
pub use simpoints::{select, SimPoint, SimPoints};

/// FNV-1a 64-bit hash — the workspace's one checksum: trace block and
/// header checksums here, cell-cache file names in `strata-expt`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Frozen reference values for the FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
