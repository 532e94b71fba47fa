//! The fleet coordinator: owns the work manifest, leases cells to
//! workers, requeues what silent or departed connections held, and
//! renders the suite once every cell has streamed back.
//!
//! ## Sans-IO
//!
//! [`Coordinator`] is a state machine: [`Coordinator::on`] takes the
//! current time and one [`Event`] (a connection opened, bytes arrived, a
//! connection closed, time passed) and returns the [`Action`]s that follow
//! (send these bytes, close that connection, the run is done). It names no
//! socket, thread, lock or clock. [`crate::tcp`] drives it over TCP in
//! wall-clock time; `tests/sim.rs` drives it over a simulated network in
//! virtual time.
//!
//! ## Dispatch model
//!
//! The coordinator plans from the same work plan a local `strata bench`
//! does: [`SuiteOptions::manifest`] says which cells (the canonical
//! [`work_manifest`](strata_expt::work_manifest)) and [`dispatch_order`]
//! in what order — native baselines first, each kind in manifest order.
//! Cells already present in the disk cache are marked done and dropped
//! from the queue (a restarted coordinator resumes instead of
//! redispatching). Workers pull one cell at a time — pull-based dispatch
//! *is* the work-stealing: a fast worker simply comes back for more, so
//! skewed cell costs never strand the tail behind a static split.
//!
//! ## Robustness
//!
//! Every assignment is a **lease** held by one connection, and there is
//! one requeue rule: *a connection that delivers no frame for longer than
//! the lease is closed, and its leases go back to the front of the
//! queue.* Live workers heartbeat, so silence means a hung or vanished
//! peer. A connection that breaks the protocol — a corrupt frame, work
//! before `Register`, a second `Register`, a rejected result — is closed
//! at once, and a connection the peer closes is released the same way.
//! Delivery is therefore at-least-once, and the coordinator dedupes by
//! cell — the first result for a cell wins, later copies are counted and
//! dropped. Results are validated with the same [`parse_record`] path the
//! disk cache trusts, so a lying worker cannot poison the store.
//!
//! A cell that fails is a result like any other: its worker streams a
//! `kind=failed` record, which is accepted once and deduped by cell. A
//! deterministic failure is therefore never requeued, and no cell needs
//! an attempt counter or quarantine. The render names it (see
//! [`render_from_store`]).
//!
//! ## Byte-identical merge
//!
//! Results land in the same memoized [`Store`] a local `strata bench`
//! fills, and rendering goes through the same
//! [`render_from_store`] tail — so a fleet run's stdout and
//! artifacts are byte-identical to a single-machine run of the same
//! filter (the simulator, the socket smoke and CI diff them at
//! tolerance 0).

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use strata_expt::{
    dispatch_order, parse_record, render_from_store, CellKey, Store, SuiteOptions, SuiteReport,
};
use strata_stats::Json;

use crate::protocol::Frame;

/// The shortest lease a coordinator may run with: workers heartbeat every
/// [`HEARTBEAT`](crate::worker::HEARTBEAT), and a connection silent for
/// one lease is closed, so a lease must outlast two heartbeats.
pub const MIN_LEASE: Duration = Duration::from_secs(5);

/// How long a finished coordinator waits for its workers to read
/// `Finished` and hang up before it stops serving.
const DRAIN: Duration = Duration::from_secs(5);

/// A connection, numbered by the driver.
pub type ConnId = u64;

/// Something that happened to the coordinator.
#[derive(Debug)]
pub enum Event {
    /// A worker connected.
    Connected(ConnId),
    /// Bytes arrived on a connection, chunked however the transport liked.
    Bytes(ConnId, Vec<u8>),
    /// The peer closed the connection, or the transport lost it.
    Closed(ConnId),
    /// Time passed.
    Tick,
}

/// What the driver must do next.
#[derive(Debug, PartialEq, Eq)]
pub enum Action {
    /// Write one encoded frame to a connection.
    Send(ConnId, Vec<u8>),
    /// Close a connection (its leases are already requeued).
    Close(ConnId),
    /// Every cell has a result and the workers have been told; call
    /// [`Coordinator::finish`].
    Done,
}

/// How the coordinator reports long-run progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// One human-readable line per interval on stderr.
    Text,
    /// One JSON object per interval on stderr.
    Json,
    /// No periodic output.
    Silent,
}

impl Progress {
    /// Parses `text` / `json` / `none`.
    pub fn parse(s: &str) -> Result<Progress, String> {
        match s {
            "text" => Ok(Progress::Text),
            "json" => Ok(Progress::Json),
            "none" => Ok(Progress::Silent),
            other => Err(format!("unknown progress mode `{other}` (text|json|none)")),
        }
    }
}

/// Options for one coordinator run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:7841` (port 0 picks a free one).
    pub bind: String,
    /// Suite selection and rendering options — the same struct a local
    /// `strata bench` uses, so the two runs are comparable by
    /// construction. `cache_dir` doubles as the result store, and
    /// `context` salts the handshake fingerprint so only workers in the
    /// same context are admitted.
    pub suite: SuiteOptions,
    /// A connection that delivers no frame for this long is closed and
    /// its cells reassigned. At least [`MIN_LEASE`].
    pub lease: Duration,
    /// Progress reporting mode.
    pub progress: Progress,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            bind: "127.0.0.1:7841".into(),
            suite: SuiteOptions::default(),
            lease: Duration::from_secs(60),
            progress: Progress::Text,
        }
    }
}

/// Fleet-level counters for one coordinator run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Manifest size (distinct cells incl. implied natives).
    pub cells: usize,
    /// Cells satisfied from the disk cache before any dispatch.
    pub preloaded: usize,
    /// Results accepted from workers.
    pub received: usize,
    /// Leases sent back to the queue by a closed connection.
    pub requeued: u64,
    /// At-least-once duplicates dropped by key dedup.
    pub duplicates: u64,
    /// Results rejected (bad key/index or unparsable record).
    pub rejected: u64,
    /// Worker registrations over the run's lifetime.
    pub workers_seen: u32,
    /// Cells completed per worker name: a worker that reconnected
    /// registered several times but is one machine to the operator.
    pub per_worker: BTreeMap<String, u64>,
}

/// The outcome of a completed fleet run.
#[derive(Debug)]
pub struct FleetReport {
    /// The rendered suite — same shape as a local `run_suite`.
    pub suite: SuiteReport,
    /// Fleet-level counters.
    pub stats: FleetStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    Queued,
    Leased(ConnId),
    Done,
}

#[derive(Default)]
struct Conn {
    inbox: Vec<u8>,
    /// When the last whole frame arrived (the connect time before one).
    heard: Duration,
    /// The worker's name once registered.
    worker: Option<String>,
}

/// The coordinator's state machine; see the module docs.
pub struct Coordinator {
    opts: ServeOptions,
    store: Store,
    manifest: Vec<CellKey>,
    welcome: Vec<u8>,
    cells: Vec<Cell>,
    /// Cells to hand out, in dispatch order; entries no longer `Queued`
    /// are skipped.
    queue: VecDeque<u32>,
    conns: BTreeMap<ConnId, Conn>,
    stats: FleetStats,
    /// When the last cell arrived.
    finished_at: Option<Duration>,
}

impl Coordinator {
    /// Expands the manifest, preloads cached cells and queues the rest in
    /// dispatch order.
    ///
    /// # Errors
    ///
    /// Returns an error for a selection that is no plan (see
    /// [`SuiteOptions::manifest`]).
    pub fn new(opts: ServeOptions) -> Result<Coordinator, String> {
        let manifest = opts.suite.manifest()?;
        let store = Store::new(opts.suite.context.clone(), opts.suite.cache_dir.clone());
        // Resume: anything already in the cache is done before dispatch.
        let cells: Vec<Cell> = manifest
            .iter()
            .map(|cell| match store.cached(cell) {
                Some(_) => Cell::Done,
                None => Cell::Queued,
            })
            .collect();
        let stats = FleetStats {
            cells: manifest.len(),
            preloaded: cells.iter().filter(|&&c| c == Cell::Done).count(),
            ..FleetStats::default()
        };
        let queue = dispatch_order(&manifest)
            .into_iter()
            .filter(|&i| cells[i] == Cell::Queued)
            .map(|i| i as u32)
            .collect();
        let welcome = Frame::Welcome {
            filter: opts.suite.filter.clone().unwrap_or_default(),
            scale: opts.suite.params.scale,
            variant: opts.suite.params.variant,
            manifest_len: manifest.len() as u32,
            fingerprint: opts.suite.context.fingerprint(&manifest),
        }
        .encode();
        Ok(Coordinator {
            opts,
            store,
            manifest,
            welcome,
            cells,
            queue,
            conns: BTreeMap::new(),
            stats,
            finished_at: None,
        })
    }

    fn done(&self) -> usize {
        self.stats.preloaded + self.stats.received
    }

    /// Advances the machine by one event at time `now` (any clock that
    /// never runs backwards) and returns what the driver must do. Once it
    /// returns [`Action::Done`], the driver stops serving.
    pub fn on(&mut self, now: Duration, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Connected(id) => {
                self.conns.entry(id).or_default().heard = now;
                out.push(Action::Send(id, self.welcome.clone()));
            }
            Event::Bytes(id, bytes) => self.receive(now, id, &bytes, &mut out),
            Event::Closed(id) => self.release(id),
            Event::Tick => {}
        }
        let lease = self.opts.lease;
        let silent =
            |(&id, c): (&ConnId, &Conn)| (now.saturating_sub(c.heard) > lease).then_some(id);
        while let Some(id) = self.conns.iter().find_map(silent) {
            self.close(id, &mut out);
        }
        if self.done() == self.cells.len() {
            let since = *self.finished_at.get_or_insert(now);
            if self.conns.is_empty() || now >= since + DRAIN {
                out.push(Action::Done);
            }
        }
        out
    }

    fn receive(&mut self, now: Duration, id: ConnId, bytes: &[u8], out: &mut Vec<Action>) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.inbox.extend_from_slice(bytes);
        }
        while let Some(conn) = self.conns.get_mut(&id) {
            match Frame::next(&mut conn.inbox) {
                Ok(None) => return,
                Ok(Some(frame)) => {
                    conn.heard = now;
                    if !self.handle(id, frame, out) {
                        self.close(id, out);
                    }
                }
                Err(_) => self.close(id, out),
            }
        }
    }

    /// Serves one frame; `false` means the peer broke the protocol.
    fn handle(&mut self, id: ConnId, frame: Frame, out: &mut Vec<Action>) -> bool {
        let registered = self.conns[&id].worker.clone();
        match (frame, registered) {
            (Frame::Register { worker }, None) => {
                self.stats.workers_seen += 1;
                self.stats.per_worker.entry(worker.clone()).or_insert(0);
                self.conns.get_mut(&id).expect("open connection").worker = Some(worker);
            }
            (Frame::Fetch, Some(_)) => {
                let reply = self.assign(id);
                out.push(Action::Send(id, reply.encode()));
            }
            (Frame::Ping, Some(_)) => {}
            (Frame::Result { index, key, record }, Some(worker)) => {
                return self.accept(&worker, index, &key, &record, out);
            }
            // Work before `Register`, a second `Register`, or a frame
            // only a coordinator sends.
            _ => return false,
        }
        true
    }

    /// The reply to `id`'s `Fetch`: the first queued cell, leased to it.
    fn assign(&mut self, id: ConnId) -> Frame {
        if self.done() == self.cells.len() {
            return Frame::Finished;
        }
        while let Some(index) = self.queue.pop_front() {
            let i = index as usize;
            if self.cells[i] == Cell::Queued {
                self.cells[i] = Cell::Leased(id);
                let key = self.manifest[i].key_string();
                return Frame::Assign { index, key };
            }
        }
        Frame::Wait { millis: 200 }
    }

    /// Validates and ingests one streamed result from `worker`; `false`
    /// rejects it. The first result for a cell wins, whoever holds the
    /// lease.
    fn accept(
        &mut self,
        worker: &str,
        index: u32,
        key: &str,
        record: &str,
        out: &mut Vec<Action>,
    ) -> bool {
        let i = index as usize;
        let parsed = match self.manifest.get(i) {
            Some(cell) if cell.key_string() == key => parse_record(record, key),
            _ => None,
        };
        let Some(result) = parsed else {
            self.stats.rejected += 1;
            return false;
        };
        if self.cells[i] == Cell::Done {
            self.stats.duplicates += 1;
            return true;
        }
        self.store.put(&self.manifest[i], result);
        self.cells[i] = Cell::Done;
        self.stats.received += 1;
        *self.stats.per_worker.get_mut(worker).expect("registered") += 1;
        if self.done() == self.cells.len() {
            for (&id, conn) in &self.conns {
                if conn.worker.is_some() {
                    out.push(Action::Send(id, Frame::Finished.encode()));
                }
            }
        }
        true
    }

    /// Forgets connection `id` and puts every cell it held back at the
    /// front of the queue.
    fn release(&mut self, id: ConnId) {
        self.conns.remove(&id);
        for (i, cell) in self.cells.iter_mut().enumerate() {
            if *cell == Cell::Leased(id) {
                *cell = Cell::Queued;
                self.queue.push_front(i as u32);
                self.stats.requeued += 1;
            }
        }
    }

    fn close(&mut self, id: ConnId, out: &mut Vec<Action>) {
        if self.conns.contains_key(&id) {
            self.release(id);
            out.push(Action::Close(id));
        }
    }

    /// The store results land in: preloaded from the disk cache, then
    /// filled by workers.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Counters so far.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// Renders the suite from the populated store.
    ///
    /// # Errors
    ///
    /// Returns an error if the render fails (artifact assembly problems;
    /// a dead filter is already refused by [`Coordinator::new`]).
    pub fn finish(self) -> Result<FleetReport, String> {
        let suite = render_from_store(&self.store, &self.opts.suite)?;
        let stats = self.stats;
        Ok(FleetReport { suite, stats })
    }

    /// One progress report in the configured mode, `now` into the run;
    /// `None` when progress is silent.
    pub fn progress_line(&self, now: Duration) -> Option<String> {
        let s = &self.stats;
        let done = self.done();
        let elapsed = now.as_secs_f64().max(1e-9);
        let cells_per_sec = s.received as f64 / elapsed;
        let eta_secs =
            (cells_per_sec > 0.0).then(|| ((s.cells - done) as f64 / cells_per_sec).round() as u64);
        let leased = (self.cells.iter())
            .filter(|c| matches!(c, Cell::Leased(_)))
            .count();
        let queued = s.cells - leased - done;
        Some(match self.opts.progress {
            Progress::Silent => return None,
            Progress::Json => {
                let active = self.conns.values().filter(|c| c.worker.is_some()).count();
                let rate = Json::num((cells_per_sec * 1000.0).round() / 1000.0);
                Json::obj([
                    ("done", Json::uint(done as u64)),
                    ("total", Json::uint(s.cells as u64)),
                    ("preloaded", Json::uint(s.preloaded as u64)),
                    ("leased", Json::uint(leased as u64)),
                    ("queued", Json::uint(queued as u64)),
                    ("requeued", Json::uint(s.requeued)),
                    ("duplicates", Json::uint(s.duplicates)),
                    ("workers", Json::uint(active as u64)),
                    ("cells_per_sec", rate),
                    ("eta_secs", eta_secs.map_or(Json::Null, Json::uint)),
                ])
                .render()
            }
            Progress::Text => {
                let eta = eta_secs.map_or("ETA unknown".into(), |s| format!("ETA {s}s"));
                let workers: Vec<String> = (s.per_worker.iter())
                    .map(|(n, c)| format!("{n}:{c}"))
                    .collect();
                let workers = match workers.is_empty() {
                    true => String::new(),
                    false => format!(", workers [{}]", workers.join(" ")),
                };
                let duplicates = match s.duplicates {
                    0 => String::new(),
                    n => format!(", {n} duplicate(s)"),
                };
                format!(
                    "fleet: {done}/{} done ({} preloaded), {leased} leased, {queued} queued, \
                     {} requeued, {cells_per_sec:.2} cells/s, {eta}{workers}{duplicates}",
                    s.cells, s.preloaded, s.requeued,
                )
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_mode_parses() {
        assert_eq!(Progress::parse("text"), Ok(Progress::Text));
        assert_eq!(Progress::parse("json"), Ok(Progress::Json));
        assert_eq!(Progress::parse("none"), Ok(Progress::Silent));
        assert!(Progress::parse("loud").is_err());
    }

    /// The initial queue is the shared [`dispatch_order`] over the cells
    /// the cache holds no result for under the coordinator's own context:
    /// a sampled coordinator over the same directory finds none of the
    /// exact results and queues every cell.
    #[test]
    fn a_resumed_coordinator_queues_exactly_the_uncached_cells_in_dispatch_order() {
        use strata_expt::{work_manifest, Mode, RunContext};

        let dir = std::env::temp_dir().join(format!("strata-fleet-ns-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = work_manifest(Some("fig2"), Default::default()).expect("manifest");
        // fig2's manifest alternates native, translated. Three exact
        // results are already cached: the first translated cell (with its
        // native) and the second native.
        let cached = [0, 1, 2];
        {
            let store = Store::with_disk_cache(dir.clone());
            strata_expt::cell_result(&store, &manifest[1]);
            strata_expt::cell_result(&store, &manifest[2]);
            assert_eq!(store.stats().computed, cached.len() as u64);
        }

        let queue_under = |context: RunContext| -> Vec<usize> {
            let coordinator = Coordinator::new(ServeOptions {
                suite: SuiteOptions {
                    filter: Some("fig2".into()),
                    cache_dir: Some(dir.clone()),
                    context,
                    ..SuiteOptions::default()
                },
                ..ServeOptions::default()
            })
            .expect("plan");
            coordinator.queue.iter().map(|&i| i as usize).collect()
        };
        let sampled = RunContext {
            mode: Mode::Sampled {
                traces_dir: dir.join("traces"),
            },
            ..RunContext::default()
        };
        let mut uncached = dispatch_order(&manifest);
        uncached.retain(|i| !cached.contains(i));
        let exact_queue = queue_under(RunContext::default());
        assert_eq!(exact_queue, uncached);
        assert_eq!(queue_under(sampled), dispatch_order(&manifest));
        // Natives lead, each kind in manifest order.
        let natives = manifest.len() / 2 - 2;
        assert_eq!(exact_queue[..2], [4, 6]);
        assert_eq!(
            exact_queue[natives - 1..natives + 2],
            [manifest.len() - 2, 3, 5]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bind_rejects_dead_filters_and_bad_addresses() {
        let opts = ServeOptions {
            suite: SuiteOptions {
                filter: Some("zzz".into()),
                ..SuiteOptions::default()
            },
            ..ServeOptions::default()
        };
        assert!(Coordinator::new(opts)
            .err()
            .expect("rejects")
            .contains("zzz"));

        let opts = ServeOptions {
            bind: "256.0.0.1:0".into(),
            suite: table1(),
            ..ServeOptions::default()
        };
        assert!(crate::tcp::serve(opts, |_| {})
            .expect_err("rejects")
            .contains("bind"));
    }

    fn table1() -> SuiteOptions {
        SuiteOptions {
            filter: Some("table1".into()),
            ..SuiteOptions::default()
        }
    }

    fn wire(frames: &[Frame]) -> Vec<u8> {
        frames.iter().flat_map(Frame::encode).collect()
    }

    fn register() -> Frame {
        Frame::Register { worker: "w".into() }
    }

    /// Registers connection `id` and fetches: the frame the coordinator
    /// answers with.
    fn fetch_as(c: &mut Coordinator, id: ConnId) -> Frame {
        c.on(Duration::ZERO, Event::Connected(id));
        let reply = c.on(
            Duration::ZERO,
            Event::Bytes(id, wire(&[register(), Frame::Fetch])),
        );
        match &reply[..] {
            [Action::Send(to, bytes)] if *to == id => Frame::decode(bytes).expect("a frame").0,
            other => panic!("expected one reply, got {other:?}"),
        }
    }

    /// Work before `Register`, a second `Register` and a coordinator's
    /// own frame each close the connection; only first registrations
    /// count as workers.
    #[test]
    fn out_of_order_frames_close_the_connection() {
        let mut c = Coordinator::new(ServeOptions {
            suite: table1(),
            ..ServeOptions::default()
        })
        .expect("plan");
        let result = Frame::Result {
            index: 0,
            key: String::new(),
            record: String::new(),
        };
        for (id, frames) in [
            (1, vec![Frame::Fetch]),
            (2, vec![Frame::Ping]),
            (3, vec![result]),
            (4, vec![register(), register()]),
            (5, vec![register(), Frame::Finished]),
        ] {
            c.on(Duration::ZERO, Event::Connected(id));
            let actions = c.on(Duration::ZERO, Event::Bytes(id, wire(&frames)));
            assert_eq!(actions, vec![Action::Close(id)], "{frames:?}");
        }
        assert_eq!(c.stats().workers_seen, 2);
        assert_eq!(c.stats().requeued, 0);
    }

    /// A result under the wrong key closes its sender and requeues the
    /// lease at once; the sender's heartbeats cannot keep it alive.
    #[test]
    fn a_rejected_result_closes_the_sender_and_requeues_its_lease() {
        let mut c = Coordinator::new(ServeOptions {
            suite: table1(),
            ..ServeOptions::default()
        })
        .expect("plan");
        let Frame::Assign { index, key } = fetch_as(&mut c, 1) else {
            panic!("expected an assignment");
        };
        let lie = Frame::Result {
            index,
            key: format!("{key}-not"),
            record: String::new(),
        };
        let actions = c.on(Duration::ZERO, Event::Bytes(1, lie.encode()));
        assert_eq!(actions, vec![Action::Close(1)]);
        assert_eq!(fetch_as(&mut c, 2), Frame::Assign { index, key });
        let stats = c.stats();
        assert_eq!((stats.rejected, stats.requeued), (1, 1));
    }
}
