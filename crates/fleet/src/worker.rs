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
//! ## Sans-IO
//!
//! [`Worker`] is the worker's state machine, in the coordinator's shape:
//! [`Worker::on`] takes the time and one [`Event`] and returns the
//! [`Action`]s that follow. It decides when to connect, what to send and
//! which cell to run; the driver ([`crate::tcp::work`], or the simulator)
//! connects, sends, and executes each `Execute { index }`, handing the
//! record back as `Executed { index, record }`.
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
//! A cell that finishes while the worker is disconnected is sent first
//! after the reconnect (the coordinator dedupes, so at-least-once is
//! safe; and it requeued the lease when the connection dropped, so a
//! result lost in flight costs time, never a cell). A registered worker
//! sends a `Ping` every [`HEARTBEAT`], so the coordinator can tell "slow
//! cell" from "dead worker".
//!
//! [`cell_result`]: strata_expt::cell_result
//! [`Store`]: strata_expt::Store

use std::time::Duration;

use strata_expt::{work_manifest, CellKey, RunContext};
use strata_workloads::Params;

use crate::protocol::Frame;

/// How often a registered worker sends a `Ping`.
pub const HEARTBEAT: Duration = Duration::from_secs(2);

/// The first reconnect delay; it doubles per consecutive failure, capped
/// at 30 s.
const BACKOFF: Duration = Duration::from_millis(500);

/// Options for one worker process.
#[derive(Debug, Clone)]
pub struct WorkOptions {
    /// Coordinator address, e.g. `10.0.0.1:7841`.
    pub connect: String,
    /// Name reported to the coordinator (shows up in progress lines).
    pub name: String,
    /// Consecutive connection failures tolerated before giving up.
    pub retries: u32,
    /// The context cells execute under. Must equal the coordinator's: it
    /// salts the manifest fingerprint, so a mismatched worker is refused
    /// at handshake rather than mixing result kinds.
    pub context: RunContext,
}

impl Default for WorkOptions {
    fn default() -> WorkOptions {
        WorkOptions {
            connect: "127.0.0.1:7841".into(),
            name: format!("worker-{}", std::process::id()),
            retries: 5,
            context: RunContext::default(),
        }
    }
}

/// What one worker did over its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Cells executed locally (whether or not the send was the winner).
    pub executed: usize,
    /// Registered sessions lost.
    pub reconnects: u32,
}

/// Something that happened to the worker.
#[derive(Debug)]
pub enum Event {
    /// Bytes arrived from the coordinator.
    Bytes(Vec<u8>),
    /// The connection failed to open, or was lost; the reason.
    Closed(String),
    /// Time passed.
    Tick,
    /// The cell of an [`Action::Execute`] ran; its serialized record.
    Executed {
        /// Manifest index of the cell.
        index: u32,
        /// [`strata_expt::render_record`] serialization of the result.
        record: String,
    },
}

/// What the driver must do next.
#[derive(Debug, PartialEq)]
pub enum Action {
    /// Open a connection to the coordinator; report [`Event::Closed`] if
    /// that fails.
    Connect,
    /// Write one encoded frame to the connection.
    Send(Vec<u8>),
    /// Close the connection.
    Close,
    /// Run one cell ([`Worker::cell`]) and report [`Event::Executed`].
    Execute {
        /// Manifest index of the cell.
        index: u32,
    },
    /// The worker is through: the suite finished, or it gave up.
    Done(Result<WorkerReport, String>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    /// Not connected; connect again at this time.
    Down(Duration),
    /// Connecting, or connected and waiting for `Welcome`.
    Connected,
    Registered,
    Finished,
}

/// The worker's state machine; see the module docs.
pub struct Worker {
    opts: WorkOptions,
    link: Link,
    inbox: Vec<u8>,
    /// When to send the next `Ping`.
    ping_at: Duration,
    /// When to fetch again after a `Wait`.
    fetch_at: Option<Duration>,
    /// The verified manifest.
    cells: Vec<CellKey>,
    /// Consecutive connection failures.
    failures: u32,
    /// The key of the cell being executed.
    running: Option<String>,
    /// A result not sent yet: it finished while the worker was
    /// disconnected.
    pending: Option<Vec<u8>>,
    report: WorkerReport,
}

impl Worker {
    /// A worker that connects on its first event.
    pub fn new(opts: WorkOptions) -> Worker {
        Worker {
            opts,
            link: Link::Down(Duration::ZERO),
            inbox: Vec::new(),
            ping_at: Duration::ZERO,
            fetch_at: None,
            cells: Vec::new(),
            failures: 0,
            running: None,
            pending: None,
            report: WorkerReport::default(),
        }
    }

    /// Advances the machine by one event at time `now` (any clock that
    /// never runs backwards) and returns what the driver must do.
    pub fn on(&mut self, now: Duration, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            _ if self.link == Link::Finished => return out,
            Event::Bytes(bytes) => {
                self.inbox.extend_from_slice(&bytes);
                while matches!(self.link, Link::Connected | Link::Registered) {
                    match Frame::next(&mut self.inbox) {
                        Ok(None) => break,
                        Ok(Some(frame)) => self.handle(now, frame, &mut out),
                        Err(e) => self.drop_link(now, format!("read: {e}"), &mut out),
                    }
                }
            }
            Event::Closed(why) => self.lost(now, why, &mut out),
            Event::Tick => {}
            Event::Executed { index, record } => {
                self.report.executed += 1;
                let key = self.running.take().expect("one cell runs at a time");
                self.pending = Some(Frame::Result { index, key, record }.encode());
                if self.link == Link::Registered {
                    self.fetch(&mut out);
                }
            }
        }
        match self.link {
            Link::Down(at) if now >= at => {
                self.link = Link::Connected;
                self.inbox.clear();
                self.fetch_at = None;
                out.push(Action::Connect);
            }
            Link::Registered => {
                if self.fetch_at.is_some_and(|at| now >= at) {
                    self.fetch_at = None;
                    self.fetch(&mut out);
                }
                if now >= self.ping_at {
                    self.ping_at = now + HEARTBEAT;
                    out.push(Action::Send(Frame::Ping.encode()));
                }
            }
            _ => {}
        }
        out
    }

    /// The manifest cell at `index`, as an [`Action::Execute`] names it.
    pub fn cell(&self, index: u32) -> &CellKey {
        &self.cells[index as usize]
    }

    fn handle(&mut self, now: Duration, frame: Frame, out: &mut Vec<Action>) {
        match frame {
            Frame::Welcome {
                filter,
                scale,
                variant,
                manifest_len,
                fingerprint,
            } if self.link == Link::Connected => {
                let name = &self.opts.name;
                let filter = (!filter.is_empty()).then_some(filter.as_str());
                // Refusals are fatal on purpose: executing under a skewed
                // manifest would stream wrong results under valid-looking
                // indices.
                let refusal = match work_manifest(filter, Params { scale, variant }) {
                    Ok(cells)
                        if cells.len() == manifest_len as usize
                            && self.opts.context.fingerprint(&cells) == fingerprint =>
                    {
                        let worker = name.clone();
                        out.push(Action::Send(Frame::Register { worker }.encode()));
                        (self.cells, self.failures) = (cells, 0);
                        (self.link, self.ping_at) = (Link::Registered, now + HEARTBEAT);
                        if self.running.is_none() {
                            self.fetch(out);
                        }
                        return;
                    }
                    Ok(cells) => format!(
                        "{name}: manifest mismatch with coordinator (local {} cells, remote \
                         {manifest_len}): the two binaries differ, or --sampled/--predictor do",
                        cells.len()
                    ),
                    Err(e) => format!("{name}: coordinator sent unusable selection: {e}"),
                };
                self.stop(Err(refusal), out);
            }
            Frame::Assign { index, key } if self.running.is_none() => {
                match self.cells.get(index as usize) {
                    Some(cell) if cell.key_string() == key => {
                        self.running = Some(key);
                        out.push(Action::Execute { index });
                    }
                    _ => self.drop_link(now, format!("assigned unknown cell {index} `{key}`"), out),
                }
            }
            Frame::Wait { millis } => {
                self.fetch_at = Some(now + Duration::from_millis(millis.min(5_000).into()));
            }
            Frame::Finished => self.stop(Ok(self.report.clone()), out),
            other => self.drop_link(now, format!("unexpected {other:?}"), out),
        }
    }

    /// Sends the pending result, if any, and asks for the next cell.
    fn fetch(&mut self, out: &mut Vec<Action>) {
        out.extend(self.pending.take().map(Action::Send));
        out.push(Action::Send(Frame::Fetch.encode()));
    }

    fn drop_link(&mut self, now: Duration, why: String, out: &mut Vec<Action>) {
        out.push(Action::Close);
        self.lost(now, why, out);
    }

    /// The connection is gone: back off, or give up past the retry
    /// budget.
    fn lost(&mut self, now: Duration, why: String, out: &mut Vec<Action>) {
        match self.link {
            Link::Down(_) | Link::Finished => return,
            Link::Connected => {}
            Link::Registered => self.report.reconnects += 1,
        }
        self.failures += 1;
        self.link = Link::Down(now + backoff_delay(self.failures));
        if self.failures > self.opts.retries {
            let (name, n) = (&self.opts.name, self.failures);
            let error = format!("{name}: gave up after {n} consecutive failure(s): {why}");
            self.stop(Err(error), out);
        }
    }

    /// Ends the run; the driver drops the connection.
    fn stop(&mut self, result: Result<WorkerReport, String>, out: &mut Vec<Action>) {
        self.link = Link::Finished;
        out.push(Action::Done(result));
    }
}

/// Exponential backoff for the nth consecutive failure, capped at 30s.
fn backoff_delay(failures: u32) -> Duration {
    let factor = 1u32 << failures.saturating_sub(1).min(16);
    BACKOFF.saturating_mul(factor).min(Duration::from_secs(30))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_delay(1), Duration::from_millis(500));
        assert_eq!(backoff_delay(2), Duration::from_millis(1000));
        assert_eq!(backoff_delay(3), Duration::from_millis(2000));
        assert_eq!(backoff_delay(20), Duration::from_secs(30));
    }

    #[test]
    fn unreachable_coordinator_exhausts_retries() {
        let mut worker = Worker::new(WorkOptions {
            retries: 1,
            ..WorkOptions::default()
        });
        let ms = Duration::from_millis;
        let refused = || Event::Closed("connect: refused".into());
        assert_eq!(worker.on(ms(0), Event::Tick), vec![Action::Connect]);
        assert!(worker.on(ms(0), refused()).is_empty());
        assert!(worker.on(ms(499), Event::Tick).is_empty());
        assert_eq!(worker.on(ms(500), Event::Tick), vec![Action::Connect]);
        match &worker.on(ms(500), refused())[..] {
            [Action::Done(Err(e))] => assert!(e.contains("gave up"), "unexpected error: {e}"),
            other => panic!("expected the worker to give up, got {other:?}"),
        }
        assert!(worker.on(ms(60_000), Event::Tick).is_empty());
    }
}
