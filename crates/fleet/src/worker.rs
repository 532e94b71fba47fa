//! The fleet worker: connects to a coordinator, pulls cells one at a
//! time, executes them through the same [`cell_result`] path a local
//! `strata bench` uses, and streams serialized records back.
//!
//! Workers hold no suite state beyond a session-local memo [`Store`]
//! (so a translated cell reuses its native baseline when the
//! coordinator assigns both to the same worker). All durable state lives
//! at the coordinator; a worker can die at any moment and the only cost
//! is the lease it was holding.
//!
//! ## Manifest handshake
//!
//! The coordinator's `Welcome` carries the suite selection (filter,
//! scale, variant) plus a fingerprint of the expanded manifest. The
//! worker re-derives [`work_manifest`] locally and refuses to register
//! on a mismatch — a version-skewed binary would otherwise execute the
//! wrong cells under the right indices, and a worker in another
//! [`RunContext`] would stream a different kind of result under the right
//! keys. `Assign` frames still carry the full key string, which the
//! worker cross-checks per cell.
//!
//! ## Failure handling
//!
//! A lost connection is retried with bounded exponential backoff; the
//! consecutive-failure budget resets after each successful registration.
//! An executed-but-unsent result survives the reconnect and is resent
//! first (the coordinator dedupes, so at-least-once is safe). A
//! background thread heartbeats every couple of seconds so the
//! coordinator can tell "slow cell" from "dead worker".

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use strata_expt::{cell_result, render_record, work_manifest, CellKey, RunContext, Store};
use strata_workloads::Params;

use crate::protocol::Frame;

/// Options for one worker process.
#[derive(Debug, Clone)]
pub struct WorkOptions {
    /// Coordinator address, e.g. `10.0.0.1:7841`.
    pub connect: String,
    /// Name reported to the coordinator (shows up in progress lines).
    pub name: String,
    /// Consecutive connection failures tolerated before giving up.
    pub retries: u32,
    /// Initial reconnect backoff; doubles per consecutive failure,
    /// capped at 30s.
    pub backoff: Duration,
    /// Heartbeat interval while connected.
    pub heartbeat: Duration,
    /// The context cells execute under. Must equal the coordinator's: it
    /// salts the manifest fingerprint, so a mismatched worker is refused
    /// at handshake rather than mixing result kinds.
    pub context: RunContext,
    /// Test hook: exit abruptly (no result, no goodbye) after taking
    /// this many assignments. Simulates a mid-run crash.
    pub abandon_after: Option<usize>,
}

impl Default for WorkOptions {
    fn default() -> WorkOptions {
        WorkOptions {
            connect: "127.0.0.1:7841".into(),
            name: format!("worker-{}", std::process::id()),
            retries: 5,
            backoff: Duration::from_millis(500),
            heartbeat: Duration::from_secs(2),
            context: RunContext::default(),
            abandon_after: None,
        }
    }
}

/// What one worker did over its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Cells executed locally (whether or not the send was the winner).
    pub executed: usize,
    /// Sessions lost and re-established.
    pub reconnects: u32,
    /// True if the `abandon_after` test hook fired.
    pub abandoned: bool,
}

enum SessionEnd {
    /// Coordinator reported the suite complete.
    Finished,
    /// The `abandon_after` hook fired: drop everything on the floor.
    Abandoned,
    /// Connection lost (or protocol violation); reconnect and resume.
    Lost(String),
}

/// Session-local execution state that survives reconnects.
struct WorkerState {
    store: Store,
    /// Executed-but-unacknowledged result, resent after reconnect.
    pending: Option<Frame>,
    executed: usize,
    taken: usize,
}

/// Runs a worker until the coordinator reports the suite finished, the
/// retry budget is exhausted, or the crash-test hook fires.
///
/// # Errors
///
/// Returns an error when the coordinator stays unreachable past the
/// retry budget, or on a fatal handshake problem (manifest fingerprint
/// mismatch — a version-skewed binary must not execute cells).
pub fn work(opts: WorkOptions) -> Result<WorkerReport, String> {
    let mut state = WorkerState {
        store: Store::new(opts.context.clone(), None),
        pending: None,
        executed: 0,
        taken: 0,
    };
    let mut reconnects = 0u32;
    let mut failures = 0u32;
    loop {
        let stream = match TcpStream::connect(&opts.connect) {
            Ok(s) => s,
            Err(e) => {
                failures += 1;
                if failures > opts.retries {
                    return Err(format!(
                        "{}: gave up after {} attempt(s): connect {}: {e}",
                        opts.name, failures, opts.connect
                    ));
                }
                std::thread::sleep(backoff_delay(opts.backoff, failures));
                continue;
            }
        };
        match session(stream, &opts, &mut state, &mut failures)? {
            SessionEnd::Finished => {
                return Ok(WorkerReport {
                    executed: state.executed,
                    reconnects,
                    abandoned: false,
                })
            }
            SessionEnd::Abandoned => {
                return Ok(WorkerReport {
                    executed: state.executed,
                    reconnects,
                    abandoned: true,
                })
            }
            SessionEnd::Lost(why) => {
                reconnects += 1;
                failures += 1;
                if failures > opts.retries {
                    return Err(format!(
                        "{}: gave up after {} consecutive failure(s): {why}",
                        opts.name, failures
                    ));
                }
                std::thread::sleep(backoff_delay(opts.backoff, failures));
            }
        }
    }
}

/// Exponential backoff for the nth consecutive failure, capped at 30s.
fn backoff_delay(base: Duration, failures: u32) -> Duration {
    let factor = 1u32 << failures.saturating_sub(1).min(16);
    base.saturating_mul(factor).min(Duration::from_secs(30))
}

/// One connected session: handshake, register, then fetch/execute/send
/// until told to stop or the link drops.
fn session(
    stream: TcpStream,
    opts: &WorkOptions,
    state: &mut WorkerState,
    failures: &mut u32,
) -> Result<SessionEnd, String> {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(120)));
    let mut reader = stream;

    let (filter, params, manifest_len, fingerprint) = match Frame::read_from(&mut reader) {
        Ok(Frame::Welcome {
            filter,
            scale,
            variant,
            manifest_len,
            fingerprint,
        }) => (filter, Params { scale, variant }, manifest_len, fingerprint),
        Ok(_) => return Ok(SessionEnd::Lost("expected Welcome".into())),
        Err(e) => return Ok(SessionEnd::Lost(format!("welcome: {e}"))),
    };
    let filter_opt = if filter.is_empty() {
        None
    } else {
        Some(filter.as_str())
    };
    let cells = work_manifest(filter_opt, params)
        .map_err(|e| format!("{}: coordinator sent unusable selection: {e}", opts.name))?;
    if cells.len() != manifest_len as usize || opts.context.fingerprint(&cells) != fingerprint {
        // Fatal on purpose: executing under a skewed manifest would
        // stream wrong results under valid-looking indices.
        return Err(format!(
            "{}: manifest mismatch with coordinator (local {} cells, remote {}): \
             the two binaries differ, or --sampled/--predictor do",
            opts.name,
            cells.len(),
            manifest_len
        ));
    }

    // Writer shared between the main loop and the heartbeat thread. A
    // try_clone'd socket shares the fd, so the Mutex keeps frames whole.
    let writer = match reader.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(e) => return Ok(SessionEnd::Lost(format!("clone socket: {e}"))),
    };
    let send = |frame: &Frame| -> Result<(), String> {
        let mut w = writer.lock().expect("writer lock");
        frame.write_to(&mut *w).map_err(|e| e.to_string())
    };

    if send(&Frame::Register {
        worker: opts.name.clone(),
    })
    .is_err()
    {
        return Ok(SessionEnd::Lost("register: connection lost".into()));
    }
    // Registered: the consecutive-failure budget starts over.
    *failures = 0;

    let stop = Arc::new(AtomicBool::new(false));
    let heartbeat = {
        let writer = Arc::clone(&writer);
        let stop = Arc::clone(&stop);
        let every = opts.heartbeat;
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(every);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let mut w = writer.lock().expect("writer lock");
                if Frame::Ping.write_to(&mut *w).is_err() {
                    break;
                }
            }
        })
    };
    let end = session_loop(&mut reader, &send, opts, state, &cells);

    // Stop the heartbeat and actively shut the socket down: the
    // heartbeat thread holds a clone of the fd, so without the shutdown
    // the coordinator would not see the disconnect until the thread
    // wakes from its sleep and drops its clone.
    stop.store(true, Ordering::SeqCst);
    let _ = reader.shutdown(std::net::Shutdown::Both);
    let _ = heartbeat.join();
    Ok(end)
}

/// The registered fetch/execute/send loop; any send/read failure ends
/// the session with `Lost` and the caller reconnects.
fn session_loop(
    reader: &mut TcpStream,
    send: &dyn Fn(&Frame) -> Result<(), String>,
    opts: &WorkOptions,
    state: &mut WorkerState,
    cells: &[CellKey],
) -> SessionEnd {
    loop {
        if let Some(result) = state.pending.take() {
            if send(&result).is_err() {
                state.pending = Some(result);
                return SessionEnd::Lost("resend result: lost".into());
            }
        }
        if send(&Frame::Fetch).is_err() {
            return SessionEnd::Lost("fetch: lost".into());
        }
        match Frame::read_from(reader) {
            Ok(Frame::Assign { index, key }) => {
                state.taken += 1;
                if opts.abandon_after.is_some_and(|k| state.taken > k) {
                    return SessionEnd::Abandoned;
                }
                let Some(cell) = cells.get(index as usize) else {
                    return SessionEnd::Lost(format!("assigned out-of-range index {index}"));
                };
                if cell.key_string() != key {
                    return SessionEnd::Lost(format!("assigned key mismatch at index {index}"));
                }
                let result = cell_result(&state.store, cell);
                state.executed += 1;
                state.pending = Some(Frame::Result {
                    index,
                    key,
                    record: render_record(&cell.key_string(), &result),
                });
            }
            Ok(Frame::Wait { millis }) => {
                std::thread::sleep(Duration::from_millis(u64::from(millis.min(5_000))));
            }
            Ok(Frame::Finished) => return SessionEnd::Finished,
            Ok(_) => return SessionEnd::Lost("unexpected frame".into()),
            Err(e) => return SessionEnd::Lost(format!("read: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(500);
        assert_eq!(backoff_delay(base, 1), Duration::from_millis(500));
        assert_eq!(backoff_delay(base, 2), Duration::from_millis(1000));
        assert_eq!(backoff_delay(base, 3), Duration::from_millis(2000));
        assert_eq!(backoff_delay(base, 20), Duration::from_secs(30));
    }

    #[test]
    fn unreachable_coordinator_exhausts_retries() {
        let opts = WorkOptions {
            // Reserved port on localhost that nothing listens on.
            connect: "127.0.0.1:1".into(),
            retries: 1,
            backoff: Duration::from_millis(1),
            ..WorkOptions::default()
        };
        let err = work(opts).unwrap_err();
        assert!(err.contains("gave up"), "unexpected error: {err}");
    }
}
