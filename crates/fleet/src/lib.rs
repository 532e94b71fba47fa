//! # strata-fleet — the wire codec of the retired fleet
//!
//! The fleet's coordinator, worker and TCP driver are gone: a run is split
//! across machines by `strata bench --filter IDS --cache` on each, with
//! the `results/cache/*.cell` files merged and rendered by one
//! `strata bench --cache` (DESIGN.md § Splitting a run).
//!
//! What remains is the [`protocol`] module, because the benchmark harness
//! (`benchmarks/src/layers.rs`) still times [`Frame::encode`] and
//! [`Frame::decode`] as its `fleet.frame_*_ns` probes. The harness's next
//! change retires those probes and drops this crate from its
//! dependencies; then the crate is deleted.

pub mod protocol;

pub use protocol::{Frame, ProtoError, MAX_PAYLOAD, PROTO_VERSION};
