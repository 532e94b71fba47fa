//! The fleet coordinator: owns the work manifest, leases cells to
//! workers, requeues what crashed workers drop, and renders the suite
//! once every cell has streamed back.
//!
//! ## Dispatch model
//!
//! The coordinator plans from the same work plan a local `strata bench`
//! does: [`SuiteOptions::manifest`] says which cells (the canonical
//! [`work_manifest`](strata_expt::work_manifest)) and [`dispatch_order`]
//! in what order — native baselines first, longest observed budget first
//! (`results/cache/budgets.v1`), manifest order for unknown cells. Cells
//! already present in the disk cache are marked done and dropped from the
//! queue (a restarted coordinator resumes instead of redispatching).
//! Workers pull one cell at a time — pull-based dispatch *is* the
//! work-stealing: a fast worker simply comes back for more, so skewed
//! cell budgets never strand the tail behind a static split.
//!
//! ## Robustness
//!
//! Every assignment is a **lease**: it expires unless refreshed by the
//! owning connection's heartbeats, and a disconnect requeues the holder's
//! leases immediately. Delivery is therefore at-least-once, and the
//! coordinator dedupes by cell key — the first result for a cell wins,
//! later copies are counted and dropped. Unparsable or mis-keyed results
//! are rejected and the cell requeued, so a corrupt worker cannot poison
//! the store (results are validated with the same
//! [`parse_record`] path the disk cache trusts).
//!
//! ## Byte-identical merge
//!
//! Results land in the same memoized [`Store`] a local `strata bench`
//! fills, and rendering goes through the same
//! [`render_from_store`] tail — so a fleet run's stdout and
//! artifacts are byte-identical to a single-machine run of the same
//! filter (the e2e tests and the CI smoke diff them at tolerance 0).

use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use strata_expt::{
    dispatch_order, parse_record, render_from_store, CellKey, Store, SuiteOptions, SuiteReport,
};
use strata_stats::Json;

use crate::protocol::Frame;

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
    /// Lease duration: a cell unrefreshed for this long is reassigned.
    pub lease: Duration,
    /// Progress reporting mode.
    pub progress: Progress,
    /// Interval between progress reports.
    pub progress_every: Duration,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            bind: "127.0.0.1:7841".into(),
            suite: SuiteOptions::default(),
            lease: Duration::from_secs(60),
            progress: Progress::Text,
            progress_every: Duration::from_secs(5),
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
    /// Lease reassignments (expiry or worker disconnect).
    pub requeued: u64,
    /// At-least-once duplicates dropped by key dedup.
    pub duplicates: u64,
    /// Results rejected (bad key/index or unparsable record).
    pub rejected: u64,
    /// Distinct worker registrations over the run's lifetime.
    pub workers_seen: u32,
    /// Cells completed per worker, sorted by worker name.
    pub per_worker: Vec<(String, u64)>,
}

/// The outcome of a completed fleet run.
#[derive(Debug)]
pub struct FleetReport {
    /// The rendered suite — same shape as a local `run_suite`.
    pub suite: SuiteReport,
    /// Fleet-level counters.
    pub stats: FleetStats,
}

struct Lease {
    owner: u64,
    refreshed: Instant,
}

struct WorkerInfo {
    name: String,
    completed: u64,
    /// False once the connection closed; the entry is kept so the final
    /// stats cover workers that left before the run ended.
    active: bool,
}

/// Mutable dispatch state behind the coordinator's single mutex.
struct Dispatch {
    /// Indices awaiting assignment, in dispatch order.
    queue: VecDeque<u32>,
    /// Outstanding assignments by manifest index.
    leases: HashMap<u32, Lease>,
    /// Completion flags by manifest index.
    done: Vec<bool>,
    done_count: usize,
    preloaded: usize,
    received: usize,
    requeued: u64,
    duplicates: u64,
    rejected: u64,
    /// Per-connection worker info (registered connections only).
    workers: HashMap<u64, WorkerInfo>,
    workers_seen: u32,
    /// Connections currently being served (registered or not).
    open_conns: u32,
    /// Sum of predicted budgets for cells completed by workers.
    done_budget: u64,
    start: Instant,
}

struct Shared {
    manifest: Vec<CellKey>,
    keys: Vec<String>,
    budgets: Vec<u64>,
    fingerprint: u64,
    filter: String,
    scale: u32,
    variant: u64,
    lease: Duration,
    finished: AtomicBool,
    state: Mutex<Dispatch>,
}

/// A bound coordinator, ready to [`run`](Coordinator::run). Binding is
/// split from running so callers (tests, scripts) can learn the actual
/// port before starting workers.
pub struct Coordinator {
    listener: TcpListener,
    opts: ServeOptions,
    store: Arc<Store>,
    shared: Arc<Shared>,
}

impl Coordinator {
    /// Expands the manifest, preloads cached cells, queues the rest in
    /// dispatch order, and binds the listen socket.
    ///
    /// # Errors
    ///
    /// Returns an error for a selection that is no plan (see
    /// [`SuiteOptions::manifest`]) or an unbindable address.
    pub fn bind(opts: ServeOptions) -> Result<Coordinator, String> {
        let manifest = opts.suite.manifest()?;
        let keys: Vec<String> = manifest.iter().map(CellKey::key_string).collect();
        let fingerprint = opts.suite.context.fingerprint(&manifest);
        let store = Arc::new(Store::new(
            opts.suite.context.clone(),
            opts.suite.cache_dir.clone(),
        ));

        // Resume: anything already in the cache is done before dispatch.
        let mut done = vec![false; manifest.len()];
        let mut preloaded = 0usize;
        for (i, cell) in manifest.iter().enumerate() {
            if store.cached(cell).is_some() {
                done[i] = true;
                preloaded += 1;
            }
        }

        // Predicted cost per cell, for the progress line's ETA.
        let budgets: Vec<u64> = manifest
            .iter()
            .map(|cell| store.budget(cell).unwrap_or(0))
            .collect();
        let queue: VecDeque<u32> = dispatch_order(&store, &manifest)
            .into_iter()
            .filter(|&i| !done[i])
            .map(|i| i as u32)
            .collect();

        let listener =
            TcpListener::bind(&opts.bind).map_err(|e| format!("bind {}: {e}", opts.bind))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;

        let done_count = preloaded;
        let all_done = done_count == manifest.len();
        let shared = Arc::new(Shared {
            keys,
            budgets,
            fingerprint,
            filter: opts.suite.filter.clone().unwrap_or_default(),
            scale: opts.suite.params.scale,
            variant: opts.suite.params.variant,
            lease: opts.lease,
            finished: AtomicBool::new(all_done),
            state: Mutex::new(Dispatch {
                queue,
                leases: HashMap::new(),
                done,
                done_count,
                preloaded,
                received: 0,
                requeued: 0,
                duplicates: 0,
                rejected: 0,
                workers: HashMap::new(),
                workers_seen: 0,
                open_conns: 0,
                done_budget: 0,
                start: Instant::now(),
            }),
            manifest,
        });
        Ok(Coordinator {
            listener,
            opts,
            store,
            shared,
        })
    }

    /// The bound listen address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket error as a message.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    /// Serves workers until every manifest cell has a result, then
    /// flushes budgets and renders the suite from the populated store.
    ///
    /// # Errors
    ///
    /// Returns an error if the final render fails (dead filter — already
    /// caught at bind — or artifact assembly problems).
    pub fn run(self) -> Result<FleetReport, String> {
        let mut last_progress = Instant::now();
        let mut conn_id = 0u64;
        while !self.shared.finished.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    conn_id += 1;
                    let shared = Arc::clone(&self.shared);
                    let store = Arc::clone(&self.store);
                    let id = conn_id;
                    std::thread::spawn(move || handle_connection(id, stream, &shared, &store));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => {
                    // Transient accept failures (EMFILE, resets) should
                    // not kill a long run; note and keep serving.
                    eprintln!("fleet: accept: {e}");
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
            if self.opts.progress != Progress::Silent
                && last_progress.elapsed() >= self.opts.progress_every
            {
                eprintln!("{}", self.progress_line());
                last_progress = Instant::now();
            }
        }
        if self.opts.progress != Progress::Silent {
            eprintln!("{}", self.progress_line());
        }
        // Drain: give connected workers a moment to fetch their
        // `Finished` and hang up cleanly — without this, the process
        // exit kills handler threads mid-conversation and the worker
        // that delivered the last result burns its retry budget
        // reconnecting to a dead address. Late arrivals during the
        // grace period are still accepted and told the suite is done.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let open = self.shared.state.lock().expect("dispatch lock").open_conns;
            if open == 0 || Instant::now() >= deadline {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    conn_id += 1;
                    let shared = Arc::clone(&self.shared);
                    let store = Arc::clone(&self.store);
                    let id = conn_id;
                    std::thread::spawn(move || handle_connection(id, stream, &shared, &store));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        // Budgets observed this run (via Store::put) feed the next run's
        // LPT schedule; flush prunes keys the registry no longer makes.
        self.store.flush_budgets();
        let suite = render_from_store(&self.store, &self.opts.suite)?;
        Ok(FleetReport {
            suite,
            stats: self.stats(),
        })
    }

    fn stats(&self) -> FleetStats {
        let d = self.shared.state.lock().expect("dispatch lock");
        // Aggregate by name: a worker that reconnected shows up under
        // several connection ids but is one machine to the operator.
        let mut by_name = std::collections::BTreeMap::<String, u64>::new();
        for w in d.workers.values() {
            *by_name.entry(w.name.clone()).or_insert(0) += w.completed;
        }
        let per_worker: Vec<(String, u64)> = by_name.into_iter().collect();
        FleetStats {
            cells: self.shared.manifest.len(),
            preloaded: d.preloaded,
            received: d.received,
            requeued: d.requeued,
            duplicates: d.duplicates,
            rejected: d.rejected,
            workers_seen: d.workers_seen,
            per_worker,
        }
    }

    fn progress_line(&self) -> String {
        let d = self.shared.state.lock().expect("dispatch lock");
        let total = self.shared.manifest.len();
        let elapsed = d.start.elapsed().as_secs_f64().max(1e-9);
        let remaining_budget: u64 = (0..total)
            .filter(|&i| !d.done[i])
            .map(|i| self.shared.budgets[i])
            .sum();
        let cells_per_sec = d.received as f64 / elapsed;
        let cycle_rate = d.done_budget as f64 / elapsed;
        // ETA from remaining *predicted* budget when the book knows the
        // cells; cells-per-second otherwise.
        let eta_secs = if remaining_budget > 0 && cycle_rate > 0.0 {
            Some(remaining_budget as f64 / cycle_rate)
        } else if cells_per_sec > 0.0 {
            Some((total - d.done_count) as f64 / cells_per_sec)
        } else {
            None
        };
        let active = d.workers.values().filter(|w| w.active).count();
        let mut by_name = std::collections::BTreeMap::<&str, u64>::new();
        for w in d.workers.values() {
            *by_name.entry(w.name.as_str()).or_insert(0) += w.completed;
        }
        let workers: Vec<(&str, u64)> = by_name.into_iter().collect();
        match self.opts.progress {
            Progress::Json => Json::obj([
                ("done", Json::uint(d.done_count as u64)),
                ("total", Json::uint(total as u64)),
                ("preloaded", Json::uint(d.preloaded as u64)),
                ("leased", Json::uint(d.leases.len() as u64)),
                ("queued", Json::uint(d.queue.len() as u64)),
                ("requeued", Json::uint(d.requeued)),
                ("duplicates", Json::uint(d.duplicates)),
                ("workers", Json::uint(active as u64)),
                (
                    "cells_per_sec",
                    Json::num((cells_per_sec * 1000.0).round() / 1000.0),
                ),
                (
                    "eta_secs",
                    match eta_secs {
                        Some(s) => Json::uint(s.round() as u64),
                        None => Json::Null,
                    },
                ),
            ])
            .render(),
            _ => {
                let per_worker = workers
                    .iter()
                    .map(|(n, c)| format!("{n}:{c}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                let eta = match eta_secs {
                    Some(s) => format!("ETA {}s", s.round() as u64),
                    None => "ETA unknown".into(),
                };
                format!(
                    "fleet: {}/{} done ({} preloaded), {} leased, {} queued, {} requeued, \
                     {:.2} cells/s, {eta}{}{}",
                    d.done_count,
                    total,
                    d.preloaded,
                    d.leases.len(),
                    d.queue.len(),
                    d.requeued,
                    cells_per_sec,
                    if per_worker.is_empty() {
                        String::new()
                    } else {
                        format!(", workers [{per_worker}]")
                    },
                    if d.duplicates > 0 {
                        format!(", {} duplicate(s)", d.duplicates)
                    } else {
                        String::new()
                    },
                )
            }
        }
    }
}

/// Serves one worker connection: handshake, then a fetch/result loop.
/// Any read error — disconnect, timeout, corrupt frame — requeues the
/// connection's outstanding leases and drops the connection; the worker
/// reconnects (or another worker steals the cells).
fn handle_connection(conn_id: u64, stream: TcpStream, shared: &Shared, store: &Store) {
    let _ = stream.set_nodelay(true);
    // Heartbeats arrive every couple of seconds from live workers, so a
    // silent connection this long is dead even mid-compute.
    let read_timeout = (shared.lease * 2).max(Duration::from_secs(10));
    let _ = stream.set_read_timeout(Some(read_timeout));
    let mut stream = stream;

    shared.state.lock().expect("dispatch lock").open_conns += 1;
    let welcome = Frame::Welcome {
        filter: shared.filter.clone(),
        scale: shared.scale,
        variant: shared.variant,
        manifest_len: shared.manifest.len() as u32,
        fingerprint: shared.fingerprint,
    };
    if welcome.write_to(&mut stream).is_err() {
        release_connection(conn_id, shared);
        return;
    }

    loop {
        match Frame::read_from(&mut stream) {
            Ok(Frame::Register { worker }) => {
                let mut d = shared.state.lock().expect("dispatch lock");
                d.workers_seen += 1;
                d.workers.insert(
                    conn_id,
                    WorkerInfo {
                        name: worker,
                        completed: 0,
                        active: true,
                    },
                );
            }
            Ok(Frame::Fetch) => {
                let reply = next_assignment(conn_id, shared);
                if reply.write_to(&mut stream).is_err() {
                    break;
                }
            }
            Ok(Frame::Result { index, key, record }) => {
                accept_result(conn_id, shared, store, index, &key, &record);
            }
            Ok(Frame::Ping) => {
                let now = Instant::now();
                let mut d = shared.state.lock().expect("dispatch lock");
                for lease in d.leases.values_mut().filter(|l| l.owner == conn_id) {
                    lease.refreshed = now;
                }
            }
            // A coordinator-bound connection has no business sending
            // coordinator frames; treat as a protocol violation.
            Ok(_) | Err(_) => break,
        }
    }
    release_connection(conn_id, shared);
}

/// Picks the next cell for `conn_id`: queue head first, then any expired
/// lease (the work-stealing path for crashed-but-connected workers).
fn next_assignment(conn_id: u64, shared: &Shared) -> Frame {
    if shared.finished.load(Ordering::SeqCst) {
        return Frame::Finished;
    }
    let mut d = shared.state.lock().expect("dispatch lock");
    if d.queue.is_empty() {
        // Steal expired leases back onto the queue.
        let now = Instant::now();
        let expired: Vec<u32> = d
            .leases
            .iter()
            .filter(|(_, l)| now.duration_since(l.refreshed) > shared.lease)
            .map(|(&i, _)| i)
            .collect();
        for &i in &expired {
            d.leases.remove(&i);
            d.queue.push_back(i);
        }
        d.requeued += expired.len() as u64;
    }
    match d.queue.pop_front() {
        Some(index) => {
            d.leases.insert(
                index,
                Lease {
                    owner: conn_id,
                    refreshed: Instant::now(),
                },
            );
            Frame::Assign {
                index,
                key: shared.keys[index as usize].clone(),
            }
        }
        None if d.done_count == shared.manifest.len() => Frame::Finished,
        None => Frame::Wait { millis: 200 },
    }
}

/// Validates and ingests one streamed result. At-least-once delivery is
/// deduplicated here: the first result for a cell wins, duplicates are
/// counted and dropped, and malformed results requeue the cell.
fn accept_result(
    conn_id: u64,
    shared: &Shared,
    store: &Store,
    index: u32,
    key: &str,
    record: &str,
) {
    let i = index as usize;
    let valid_key = shared.keys.get(i).is_some_and(|k| k == key);
    let parsed = if valid_key {
        parse_record(record, key)
    } else {
        None
    };
    match parsed {
        Some(result) => {
            // Idempotent: the store keeps the first result for the key.
            store.put(&shared.manifest[i], result);
            let mut d = shared.state.lock().expect("dispatch lock");
            d.leases.remove(&index);
            if d.done[i] {
                d.duplicates += 1;
                return;
            }
            d.done[i] = true;
            d.done_count += 1;
            d.received += 1;
            d.done_budget += shared.budgets[i];
            if let Some(w) = d.workers.get_mut(&conn_id) {
                w.completed += 1;
            }
            if d.done_count == shared.manifest.len() {
                shared.finished.store(true, Ordering::SeqCst);
            }
        }
        None => {
            let mut d = shared.state.lock().expect("dispatch lock");
            d.rejected += 1;
            if !valid_key {
                return;
            }
            // Requeue so the run still converges, unless someone else
            // already finished or holds the cell.
            let held = d.leases.remove(&index).is_some();
            if !d.done[i] && (held || !d.queue.contains(&index)) {
                d.queue.push_front(index);
            }
        }
    }
}

/// Requeues every lease the departing connection holds — the crash path:
/// a killed worker's cells go back to the front of the queue immediately
/// instead of waiting out their leases.
fn release_connection(conn_id: u64, shared: &Shared) {
    let mut d = shared.state.lock().expect("dispatch lock");
    let held: Vec<u32> = d
        .leases
        .iter()
        .filter(|(_, l)| l.owner == conn_id)
        .map(|(&i, _)| i)
        .collect();
    for &i in &held {
        d.leases.remove(&i);
        d.queue.push_front(i);
    }
    d.requeued += held.len() as u64;
    if let Some(w) = d.workers.get_mut(&conn_id) {
        w.active = false;
    }
    d.open_conns = d.open_conns.saturating_sub(1);
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

    /// The initial queue is the shared [`dispatch_order`] over what the
    /// cache does not hold yet, read from the budgets recorded under the
    /// coordinator's own context: `Store::put` files a sampled run's
    /// observations under `sampled/`, so that is where a sampled
    /// coordinator has to look — never at the exact population.
    #[test]
    fn dispatch_order_follows_the_contexts_own_budgets() {
        use strata_expt::{work_manifest, BudgetBook, Mode, RunContext};

        let dir = std::env::temp_dir().join(format!("strata-fleet-ns-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = work_manifest(Some("fig2"), Default::default()).expect("manifest");
        // Exact budgets rank the manifest front to back, sampled budgets
        // back to front.
        let mut book = BudgetBook::new();
        for (i, cell) in manifest.iter().enumerate() {
            let key = cell.key_string();
            book.record(&key, 1000 - i as u64);
            book.record(&format!("sampled/{key}"), 1000 + i as u64);
        }
        book.save(&dir);
        // One exact result is already cached: a resumed coordinator must
        // not queue it.
        let cached = 0usize;
        {
            let store = Store::with_disk_cache(dir.clone());
            strata_expt::cell_result(&store, &manifest[cached]);
        }

        let queue_under = |context: RunContext| -> Vec<usize> {
            let coordinator = Coordinator::bind(ServeOptions {
                bind: "127.0.0.1:0".into(),
                suite: SuiteOptions {
                    filter: Some("fig2".into()),
                    cache_dir: Some(dir.clone()),
                    context,
                    ..SuiteOptions::default()
                },
                ..ServeOptions::default()
            })
            .expect("bind");
            let d = coordinator.shared.state.lock().expect("dispatch lock");
            d.queue.iter().map(|&i| i as usize).collect()
        };
        let sampled = RunContext {
            mode: Mode::Sampled {
                traces_dir: dir.join("traces"),
            },
            ..RunContext::default()
        };
        let planned = |context: &RunContext| {
            dispatch_order(&Store::new(context.clone(), Some(dir.clone())), &manifest)
        };
        let exact_queue = queue_under(RunContext::default());
        let mut expected = planned(&RunContext::default());
        expected.retain(|&i| i != cached);
        assert_eq!(exact_queue, expected);
        let sampled_queue = queue_under(sampled.clone());
        assert_eq!(sampled_queue, planned(&sampled));
        // fig2's manifest alternates native, translated: natives lead in
        // both, each kind by its own context's budgets.
        let natives = manifest.len() / 2;
        assert_eq!(exact_queue[..3], [2, 4, 6]);
        assert_eq!(exact_queue[natives - 1..natives + 2], [1, 3, 5]);
        let last = manifest.len() - 1;
        assert_eq!(sampled_queue[..2], [last - 1, last - 3]);
        assert_eq!(sampled_queue[natives..natives + 2], [last, last - 2]);
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
        assert!(Coordinator::bind(opts)
            .err()
            .expect("rejects")
            .contains("zzz"));

        let opts = ServeOptions {
            bind: "256.0.0.1:0".into(),
            suite: SuiteOptions {
                filter: Some("table1".into()),
                ..SuiteOptions::default()
            },
            ..ServeOptions::default()
        };
        assert!(Coordinator::bind(opts)
            .err()
            .expect("rejects")
            .contains("bind"));
    }
}
