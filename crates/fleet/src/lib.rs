//! # strata-fleet — distributed suite runs over TCP
//!
//! The full paper grid is embarrassingly parallel at the **cell** level
//! (one workload × config × architecture simulation), and `strata-expt`
//! already memoizes cells behind stable content keys. This crate spreads
//! that cell set across machines with nothing shared but a TCP
//! connection:
//!
//! * [`coordinator`] — the state machine behind `strata fleet serve`:
//!   loads the cell manifest for the selected experiments, queues the
//!   cells its disk cache does not hold (natives first, each kind in
//!   manifest order), and leases them to workers over the wire protocol. Results stream back, land in the same memoized
//!   [`Store`] a local run fills, and the final render goes through the
//!   same code path — so fleet output is **byte-identical** to a
//!   single-machine `strata bench` of the same selection.
//! * [`worker`] — the state machine behind `strata fleet work`:
//!   connects, verifies it derives the exact same manifest (fingerprint
//!   handshake), then pulls, executes, and streams results until the
//!   coordinator says the suite is done.
//! * [`protocol`] — the versioned, length-prefixed, checksummed frame
//!   format both sides speak. Hand-rolled and serde-free, like the rest
//!   of the workspace's serialization.
//! * [`tcp`] — the one driver: runs either state machine over TCP
//!   sockets and wall-clock time. Neither state machine does I/O or reads
//!   a clock, so `tests/sim.rs` runs both over a simulated network in
//!   virtual time.
//!
//! Crash-safety is end to end: a connection silent for a lease is closed
//! and its cells requeued, as are a departed or misbehaving worker's,
//! delivery is at-least-once with first-result-wins dedup at the
//! coordinator, and the disk cache doubles as a resume log — restarting
//! the coordinator redispatches only the cells without cached results.
//!
//! ```text
//! machine A$ strata fleet serve --filter fig4,fig7 --cache
//! machine B$ strata fleet work --connect a.example:7841
//! machine C$ strata fleet work --connect a.example:7841
//! ```
//!
//! [`Store`]: strata_expt::Store

pub mod coordinator;
pub mod protocol;
pub mod tcp;
pub mod worker;

pub use coordinator::{Coordinator, FleetReport, FleetStats, Progress, ServeOptions, MIN_LEASE};
pub use protocol::{Frame, ProtoError, MAX_PAYLOAD, PROTO_VERSION};
pub use tcp::{serve, work};
pub use worker::{WorkOptions, Worker, WorkerReport, HEARTBEAT};
