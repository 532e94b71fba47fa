//! Deterministic simulation of a fleet run: one coordinator state
//! machine and several worker state machines in one process, talking
//! over a simulated network in virtual time. Everything random — which
//! faults strike, when, how the network chunks and delays bytes, how long
//! a cell takes — comes from one `SmallRng` seeded per run, so a seed is
//! a complete reproducer.
//!
//! Faults ([`Fault`]):
//! - `Delay`: frames are split into random chunks and delayed, so
//!   connections interleave;
//! - `Cut`: a connection is cut mid-frame;
//! - `Flip`: a bit flips in a frame on its way to the coordinator;
//! - `Kill`: a worker dies and restarts;
//! - `Hang`: a worker stops, connected but silent, and later resumes;
//! - `Restart`: the coordinator restarts over its disk cache;
//! - `Stale`: a worker with another context's fingerprint joins;
//! - `Resend`: a worker sends every result twice;
//! - `WrongKeys`: a worker sends its results under the wrong keys;
//! - `Poison`: one manifest cell fails on every worker, which returns a
//!   `Failed` record for it.
//!
//! Every run checks that it terminates within [`VIRTUAL_BOUND`], that
//! each manifest cell is accepted exactly once across coordinator
//! restarts, that the coordinator's store equals the local run's record
//! for record, and that the render is byte-identical to the local run's.
//! A poisoned cell is a result like any other: the local run it is
//! compared with holds the same `Failed` cell, the render names it as the
//! run's one failure, a coordinator accepts it once (a restarted one
//! again, since failures never reach its disk cache), and never assigns
//! it again once it holds it.
//!
//! A failure prints a one-line reproducer:
//! `STRATA_FLEET_SEED=<n> cargo test -p strata-fleet --test sim <test>`
//! runs that seed alone. `STRATA_FLEET_SEEDS=<count>` widens every test's
//! seed range (CI runs 5000 in release).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use strata_expt::{
    cell_result, parse_record, render_from_store, render_record, CellKey, CellResult, Mode,
    RunContext, Stage, Store, SuiteOptions,
};
use strata_fleet::coordinator::{self, ConnId, Coordinator};
use strata_fleet::worker::{self, WorkOptions, Worker, WorkerReport};
use strata_fleet::{Frame, Progress, ServeOptions};
use strata_stats::rng::SmallRng;

/// A run that has not finished after this much virtual time is wedged.
const VIRTUAL_BOUND: u64 = 30 * 60 * 1000;

/// Virtual milliseconds between ticks of every state machine.
const TICK: u64 = 500;

/// Seeds per test unless `STRATA_FLEET_SEEDS` says otherwise.
const DEFAULT_SEEDS: u64 = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Delay,
    Cut,
    Flip,
    Kill,
    Hang,
    Restart,
    Stale,
    Resend,
    WrongKeys,
    Poison,
}

const FAULTS: [Fault; 10] = [
    Fault::Delay,
    Fault::Cut,
    Fault::Flip,
    Fault::Kill,
    Fault::Hang,
    Fault::Restart,
    Fault::Stale,
    Fault::Resend,
    Fault::WrongKeys,
    Fault::Poison,
];

/// The selection every simulated run serves: twelve cells, cheap enough
/// to execute once and replay for every seed.
fn suite(cache_dir: Option<PathBuf>) -> SuiteOptions {
    SuiteOptions {
        jobs: 1,
        filter: Some("table1".into()),
        cache_dir,
        ..SuiteOptions::default()
    }
}

/// The local run every fleet run must reproduce.
struct Local {
    cells: Vec<CellKey>,
    records: Vec<String>,
    rendered: String,
    artifacts: Vec<(String, String)>,
}

fn local() -> &'static Local {
    static LOCAL: OnceLock<Local> = OnceLock::new();
    LOCAL.get_or_init(|| {
        let opts = suite(None);
        let cells = opts.manifest().expect("table1 plans");
        let store = Store::in_memory();
        std::thread::scope(|scope| {
            for half in [0, 1] {
                let (store, cells) = (&store, &cells);
                scope.spawn(move || {
                    cells.iter().skip(half).step_by(2).for_each(|cell| {
                        cell_result(store, cell);
                    })
                });
            }
        });
        let records = (cells.iter())
            .map(|cell| render_record(&cell.key_string(), &cell_result(&store, cell)))
            .collect();
        let report = render_from_store(&store, &opts).expect("local render");
        Local {
            cells,
            records,
            rendered: report.rendered,
            artifacts: report.artifacts,
        }
    })
}

/// The record every worker returns for a poisoned cell.
fn poisoned_record(index: usize) -> String {
    let failed = CellResult::Failed {
        stage: Stage::Run,
        error: "poisoned".into(),
    };
    render_record(&local().cells[index].key_string(), &failed)
}

/// The local run with cell `p` failed: the records a coordinator must
/// hold, and the render of a local store holding them.
fn poisoned_local(p: usize) -> Result<Local, String> {
    let local = local();
    let mut records = local.records.clone();
    records[p] = poisoned_record(p);
    let store = Store::in_memory();
    for (cell, record) in local.cells.iter().zip(&records) {
        let result = parse_record(record, &cell.key_string()).ok_or("a local record parses")?;
        store.put(cell, result);
    }
    let report = render_from_store(&store, &suite(None))?;
    Ok(Local {
        cells: local.cells.clone(),
        records,
        rendered: report.rendered,
        artifacts: report.artifacts,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Honest,
    Stale,
    Resend,
    WrongKeys,
}

struct SimWorker {
    role: Role,
    /// `None` while the process is dead.
    core: Option<Worker>,
    /// Bumped by each kill, so a dead process's cells never report back.
    life: u32,
    conn: Option<ConnId>,
    /// Events held while the process is stopped, replayed on resume.
    held: Option<Vec<worker::Event>>,
    outcome: Option<Result<WorkerReport, String>>,
}

/// One TCP connection through the simulated network.
struct Link {
    worker: usize,
    /// The coordinator incarnation it reached.
    life: u32,
    up: bool,
    /// When the last byte is due at the coordinator, and at the worker:
    /// a stream delivers in order.
    due: [u64; 2],
}

const TO_COORDINATOR: usize = 0;
const TO_WORKER: usize = 1;

/// Something scheduled to happen at a virtual time. `usize` fields name
/// a worker, `u32` lives a worker's incarnation.
enum Ev {
    /// Every state machine sees time pass.
    Tick,
    /// Bytes reach one end (`TO_COORDINATOR` or `TO_WORKER`) of a link.
    Deliver(ConnId, usize, Vec<u8>),
    /// One end of a link learns it is gone.
    Hangup(ConnId, usize),
    /// A worker's connect attempt reaches the coordinator's port.
    Dial(usize, u32, ConnId),
    /// A worker's cell finishes (manifest index last).
    Executed(usize, u32, u32),
    Kill(usize),
    Revive(usize),
    Hang(usize),
    Resume(usize),
    Restart,
    CoordinatorUp,
}

struct Sim {
    rng: SmallRng,
    faults: Vec<Fault>,
    now: u64,
    seq: u64,
    events: BTreeMap<(u64, u64), Ev>,
    serve: ServeOptions,
    coordinator: Option<Coordinator>,
    life: u32,
    /// Results accepted by coordinators that have since restarted.
    accepted_before: usize,
    links: BTreeMap<ConnId, Link>,
    next_conn: ConnId,
    workers: Vec<SimWorker>,
    /// The manifest index of the `Poison` fault's cell.
    poisoned: Option<usize>,
    /// Set when a coordinator assigns the poisoned cell it already holds.
    reassigned: bool,
}

impl Sim {
    fn has(&self, fault: Fault) -> bool {
        self.faults.contains(&fault)
    }

    fn at(&mut self, when: u64, ev: Ev) {
        self.seq += 1;
        self.events.insert((when, self.seq), ev);
    }

    fn chance(&mut self, fault: Fault, p: f64) -> bool {
        self.has(fault) && self.rng.gen_bool(p)
    }

    fn latency(&mut self) -> u64 {
        if self.has(Fault::Delay) {
            self.rng.gen_range(1..400)
        } else {
            1
        }
    }

    fn duration(&self) -> Duration {
        Duration::from_millis(self.now)
    }

    /// Puts `bytes` on the wire, in order behind what the link already
    /// carries that way.
    fn transmit(&mut self, conn: ConnId, dir: usize, bytes: &[u8]) {
        if !self.links.get(&conn).is_some_and(|l| l.up) {
            return;
        }
        let mut at = 0;
        while at < bytes.len() {
            let chunk = if self.has(Fault::Delay) {
                self.rng.gen_range(1..bytes.len() as u64 - at as u64 + 1) as usize
            } else {
                bytes.len()
            };
            let when = self.now + self.latency();
            let link = self.links.get_mut(&conn).expect("open link");
            link.due[dir] = link.due[dir].max(when);
            let due = link.due[dir];
            self.at(due, Ev::Deliver(conn, dir, bytes[at..at + chunk].to_vec()));
            at += chunk;
        }
    }

    /// The network drops the link: each end hears of it after whatever
    /// was already on its way to it.
    fn cut(&mut self, conn: ConnId) {
        let Some(link) = self.links.get_mut(&conn).filter(|l| l.up) else {
            return;
        };
        link.up = false;
        let due = link.due;
        let when = self.now + self.latency();
        for dir in [TO_COORDINATOR, TO_WORKER] {
            self.at(due[dir].max(when), Ev::Hangup(conn, dir));
        }
    }

    fn run_coordinator(&mut self, event: coordinator::Event) -> bool {
        let now = self.duration();
        let Some(core) = self.coordinator.as_mut() else {
            return false;
        };
        let mut done = false;
        let actions = core.on(now, event);
        // Whether the coordinator holds the poisoned cell's result, as of
        // the event (which carries at most one frame).
        let held = self
            .poisoned
            .filter(|&p| core.store().get(&local().cells[p]).is_some());
        for action in actions {
            match action {
                coordinator::Action::Send(conn, bytes) => {
                    if let (Some(p), Ok((Frame::Assign { index, .. }, _))) =
                        (held, Frame::decode(&bytes))
                    {
                        self.reassigned |= index as usize == p;
                    }
                    if self.chance(Fault::Cut, 0.02) {
                        let keep = self.rng.gen_range(1..bytes.len() as u64) as usize;
                        self.transmit(conn, TO_WORKER, &bytes[..keep]);
                        self.cut(conn);
                    } else {
                        self.transmit(conn, TO_WORKER, &bytes);
                    }
                }
                coordinator::Action::Close(conn) => self.cut(conn),
                coordinator::Action::Done => done = true,
            }
        }
        done
    }

    fn run_worker(&mut self, w: usize, event: worker::Event) {
        if let Some(held) = self.workers[w].held.as_mut() {
            if !matches!(event, worker::Event::Tick) {
                held.push(event);
            }
            return;
        }
        let now = self.duration();
        let Some(core) = self.workers[w].core.as_mut() else {
            return;
        };
        for action in core.on(now, event) {
            match action {
                worker::Action::Connect => {
                    self.next_conn += 1;
                    let (conn, when) = (self.next_conn, self.now + self.latency());
                    let life = self.workers[w].life;
                    self.at(when, Ev::Dial(w, life, conn));
                }
                worker::Action::Send(bytes) => self.worker_sends(w, bytes),
                worker::Action::Close => {
                    if let Some(conn) = self.workers[w].conn.take() {
                        self.cut(conn);
                    }
                }
                worker::Action::Execute { index } => {
                    let core = self.workers[w].core.as_ref().expect("alive");
                    assert_eq!(core.cell(index), &local().cells[index as usize]);
                    let when = self.now + self.rng.gen_range(20..1500);
                    let life = self.workers[w].life;
                    self.at(when, Ev::Executed(w, life, index));
                }
                worker::Action::Done(outcome) => {
                    // The process exits, dropping its connection.
                    let worker = &mut self.workers[w];
                    worker.outcome = Some(outcome);
                    worker.core = None;
                    if let Some(conn) = worker.conn.take() {
                        self.cut(conn);
                    }
                }
            }
        }
    }

    /// A worker's frame leaves through whatever its role and the network
    /// do to it.
    fn worker_sends(&mut self, w: usize, mut bytes: Vec<u8>) {
        let Some(conn) = self.workers[w].conn else {
            return;
        };
        let copies = match (self.workers[w].role, Frame::decode(&bytes)) {
            (Role::Resend, Ok((Frame::Result { .. }, _))) => 2,
            (Role::WrongKeys, Ok((Frame::Result { index, record, .. }, _))) => {
                let cells = &local().cells;
                let key = cells[(index as usize + 1) % cells.len()].key_string();
                bytes = Frame::Result { index, key, record }.encode();
                1
            }
            _ => 1,
        };
        if self.chance(Fault::Flip, 0.03) {
            let at = self.rng.gen_range(0..bytes.len() as u64) as usize;
            bytes[at] ^= 1u8 << self.rng.gen_range(0u32..8);
        }
        if self.chance(Fault::Cut, 0.02) {
            let keep = self.rng.gen_range(1..bytes.len() as u64) as usize;
            self.transmit(conn, TO_COORDINATOR, &bytes[..keep]);
            return self.cut(conn);
        }
        for _ in 0..copies {
            self.transmit(conn, TO_COORDINATOR, &bytes);
        }
    }

    fn spawn_worker(&mut self, role: Role) {
        self.workers.push(SimWorker {
            role,
            core: Some(worker_process(role, self.workers.len())),
            life: 0,
            conn: None,
            held: None,
            outcome: None,
        });
    }

    /// Handles one event; `true` once the coordinator is done.
    fn step(&mut self, ev: Ev) -> bool {
        match ev {
            Ev::Tick => {
                self.at(self.now + TICK, Ev::Tick);
                for w in 0..self.workers.len() {
                    self.run_worker(w, worker::Event::Tick);
                }
                return self.run_coordinator(coordinator::Event::Tick);
            }
            Ev::Dial(w, life, _) if self.workers[w].life != life => {}
            Ev::Dial(w, _, _) if self.coordinator.is_none() => {
                self.run_worker(w, worker::Event::Closed("connection refused".into()));
            }
            Ev::Dial(w, _, conn) => {
                let link = Link {
                    worker: w,
                    life: self.life,
                    up: true,
                    due: [self.now; 2],
                };
                self.links.insert(conn, link);
                self.workers[w].conn = Some(conn);
                return self.run_coordinator(coordinator::Event::Connected(conn));
            }
            Ev::Deliver(conn, TO_COORDINATOR, bytes) => {
                if self.links[&conn].life == self.life {
                    return self.run_coordinator(coordinator::Event::Bytes(conn, bytes));
                }
            }
            Ev::Deliver(conn, _, bytes) => {
                let w = self.links[&conn].worker;
                if self.workers[w].conn == Some(conn) {
                    self.run_worker(w, worker::Event::Bytes(bytes));
                }
            }
            Ev::Hangup(conn, TO_COORDINATOR) => {
                if self.links[&conn].life == self.life {
                    return self.run_coordinator(coordinator::Event::Closed(conn));
                }
            }
            Ev::Hangup(conn, _) => {
                let w = self.links[&conn].worker;
                if self.workers[w].conn == Some(conn) {
                    self.workers[w].conn = None;
                    self.run_worker(w, worker::Event::Closed("connection reset".into()));
                }
            }
            Ev::Executed(w, life, index) => {
                if self.workers[w].life == life {
                    let record = match self.poisoned {
                        Some(p) if p == index as usize => poisoned_record(p),
                        _ => local().records[index as usize].clone(),
                    };
                    self.run_worker(w, worker::Event::Executed { index, record });
                }
            }
            Ev::Kill(w) => {
                let worker = &mut self.workers[w];
                if worker.core.take().is_some() {
                    worker.life += 1;
                    worker.held = None;
                    if let Some(conn) = worker.conn.take() {
                        self.cut(conn);
                    }
                    let when = self.now + self.rng.gen_range(100..8000);
                    self.at(when, Ev::Revive(w));
                }
            }
            Ev::Revive(w) => {
                let worker = &mut self.workers[w];
                worker.core = Some(worker_process(worker.role, w));
                worker.outcome = None;
            }
            Ev::Hang(w) => {
                if self.workers[w].core.is_some() && self.workers[w].held.is_none() {
                    self.workers[w].held = Some(Vec::new());
                    let lease = self.serve.lease.as_millis() as u64;
                    let when = self.now + self.rng.gen_range(lease / 2..3 * lease);
                    self.at(when, Ev::Resume(w));
                }
            }
            Ev::Resume(w) => {
                for event in self.workers[w].held.take().unwrap_or_default() {
                    self.run_worker(w, event);
                }
            }
            Ev::Restart => {
                if let Some(old) = self.coordinator.take() {
                    // A failure is not cached, so the next coordinator
                    // accepts the poisoned cell again.
                    let poisoned = self.poisoned.map(|p| &local().cells[p]);
                    let again = poisoned.is_some_and(|cell| old.store().get(cell).is_some());
                    self.accepted_before += old.stats().received - usize::from(again);
                    self.life += 1;
                    let old_links: Vec<ConnId> = self.links.keys().copied().collect();
                    for conn in old_links {
                        self.cut(conn);
                    }
                    let when = self.now + self.rng.gen_range(100..5000);
                    self.at(when, Ev::CoordinatorUp);
                }
            }
            Ev::CoordinatorUp => {
                self.coordinator = Some(Coordinator::new(self.serve.clone()).expect("plan"));
                // Workers told the run was over have exited, but a failed
                // cell is never cached, so the new coordinator may need
                // one: they are started again, as an operator would.
                for w in 0..self.workers.len() {
                    if matches!(self.workers[w].outcome, Some(Ok(_))) {
                        self.at(self.now, Ev::Revive(w));
                    }
                }
            }
        }
        false
    }
}

/// A freshly started worker process in `role`.
fn worker_process(role: Role, n: usize) -> Worker {
    let context = match role {
        Role::Stale => RunContext {
            mode: Mode::Sampled {
                traces_dir: "unused".into(),
            },
            ..RunContext::default()
        },
        _ => RunContext::default(),
    };
    Worker::new(WorkOptions {
        connect: "sim".into(),
        name: format!("{role:?}-{n}"),
        retries: 20,
        context,
    })
}

/// Runs one seed under `faults` (`None`: a random subset) and checks
/// every invariant.
fn simulate(test: &str, seed: u64, faults: Option<&[Fault]>) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let faults: Vec<Fault> = match faults {
        Some(faults) => faults.to_vec(),
        None => FAULTS.into_iter().filter(|_| rng.gen_bool(0.5)).collect(),
    };
    // Only a restarting coordinator needs its disk cache.
    let dir = std::env::temp_dir().join(format!(
        "strata-fleet-sim-{}-{test}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = faults.contains(&Fault::Restart).then(|| dir.clone());
    let serve = ServeOptions {
        suite: suite(cache),
        lease: Duration::from_secs(rng.gen_range(5..30)),
        progress: Progress::Silent,
        ..ServeOptions::default()
    };
    let mut sim = Sim {
        rng,
        faults,
        now: 0,
        seq: 0,
        events: BTreeMap::new(),
        coordinator: Some(Coordinator::new(serve.clone()).expect("plan")),
        serve,
        life: 0,
        accepted_before: 0,
        links: BTreeMap::new(),
        next_conn: 0,
        workers: Vec::new(),
        poisoned: None,
        reassigned: false,
    };
    if sim.has(Fault::Poison) {
        sim.poisoned = Some(sim.rng.gen_range(0..local().cells.len() as u64) as usize);
    }
    let honest = sim.rng.gen_range(1..4);
    for _ in 0..honest {
        sim.spawn_worker(Role::Honest);
    }
    for (fault, role) in [
        (Fault::Stale, Role::Stale),
        (Fault::Resend, Role::Resend),
        (Fault::WrongKeys, Role::WrongKeys),
    ] {
        if sim.has(fault) {
            sim.spawn_worker(role);
        }
    }
    for (fault, make) in [
        (Fault::Kill, Ev::Kill as fn(usize) -> Ev),
        (Fault::Hang, Ev::Hang),
    ] {
        if sim.has(fault) {
            for _ in 0..sim.rng.gen_range(1..4) {
                let (when, w) = (sim.rng.gen_range(0..6_000), sim.rng.gen_range(0..honest));
                sim.at(when, make(w as usize));
            }
        }
    }
    if sim.has(Fault::Restart) {
        for _ in 0..sim.rng.gen_range(1..3) {
            let when = sim.rng.gen_range(0..6_000);
            sim.at(when, Ev::Restart);
        }
    }
    sim.at(0, Ev::Tick);

    let outcome = loop {
        let ((when, _), ev) = sim.events.pop_first().expect("ticks never run out");
        if when > VIRTUAL_BOUND {
            break Err(format!("no result after {VIRTUAL_BOUND} virtual ms"));
        }
        sim.now = when;
        if sim.step(ev) {
            break check(&sim);
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome.map_err(|e| format!("{e} (faults {:?})", sim.faults))
}

/// The four invariants of a finished run, plus the stale worker's
/// refusal.
fn check(sim: &Sim) -> Result<(), String> {
    let local = local();
    let coordinator = sim.coordinator.as_ref().expect("the finishing coordinator");
    let stats = coordinator.stats();
    let accepted = sim.accepted_before + stats.received;
    if accepted != local.cells.len() || stats.preloaded + stats.received != local.cells.len() {
        return Err(format!(
            "{accepted} results accepted for {} cells ({} preloaded by the last coordinator)",
            local.cells.len(),
            stats.preloaded
        ));
    }
    if sim.reassigned {
        return Err("the poisoned cell was assigned again after its result".into());
    }
    let poisoned = sim.poisoned.map(poisoned_local).transpose()?;
    let expected = poisoned.as_ref().unwrap_or(local);
    let store = coordinator.store();
    for (cell, record) in local.cells.iter().zip(&expected.records) {
        let key = cell.key_string();
        let stored = store.get(cell).ok_or(format!("{key} not stored"))?;
        if render_record(&key, &stored) != *record {
            return Err(format!("{key} stored a different record"));
        }
    }
    let report = render_from_store(store, &sim.serve.suite)?;
    if report.store_stats.computed != 0 {
        return Err("the coordinator simulated cells itself".into());
    }
    if report.rendered != expected.rendered || report.artifacts != expected.artifacts {
        return Err("render differs from the local run".into());
    }
    let named = |p: &usize| (local.cells[*p].key_string(), Stage::Run, "poisoned".into());
    if report.failures != sim.poisoned.iter().map(named).collect::<Vec<_>>() {
        return Err(format!("failed cells named as {:?}", report.failures));
    }
    for worker in sim.workers.iter().filter(|w| w.role == Role::Stale) {
        match &worker.outcome {
            Some(Err(e)) if e.contains("manifest mismatch") => {}
            other => return Err(format!("stale worker was not refused: {other:?}")),
        }
    }
    Ok(())
}

fn seeds() -> std::ops::Range<u64> {
    let var = |name| {
        std::env::var(name)
            .ok()
            .map(|v: String| v.parse::<u64>().expect(name))
    };
    match (var("STRATA_FLEET_SEED"), var("STRATA_FLEET_SEEDS")) {
        (Some(seed), _) => seed..seed + 1,
        (None, count) => 0..count.unwrap_or(DEFAULT_SEEDS),
    }
}

/// Runs `seeds` of one scenario; a failure names its reproducer.
fn scenario(test: &str, seeds: std::ops::Range<u64>, faults: Option<&[Fault]>) {
    for seed in seeds {
        let outcome = catch_unwind(AssertUnwindSafe(|| simulate(test, seed, faults)))
            .unwrap_or_else(|_| Err("panicked".into()));
        if let Err(e) = outcome {
            panic!(
                "seed {seed}: {e}\nreproduce: STRATA_FLEET_SEED={seed} cargo test -p strata-fleet \
                 --test sim {test}"
            );
        }
    }
}

/// A few seeds of one named fault, alone.
fn named(test: &str, faults: &[Fault]) {
    let mut range = seeds();
    range.end = range.end.min(range.start + 8);
    scenario(test, range, Some(faults));
}

#[test]
fn random_faults() {
    scenario("random_faults", seeds(), None);
}

#[test]
fn fault_free_runs_match_the_local_run() {
    named("fault_free_runs_match_the_local_run", &[]);
}

#[test]
fn worker_crash_mid_run() {
    named("worker_crash_mid_run", &[Fault::Kill, Fault::Delay]);
}

#[test]
fn hung_worker_does_not_wedge_the_run() {
    named("hung_worker_does_not_wedge_the_run", &[Fault::Hang]);
}

#[test]
fn corrupt_frame_mid_stream() {
    named(
        "corrupt_frame_mid_stream",
        &[Fault::Flip, Fault::Cut, Fault::Delay],
    );
}

#[test]
fn duplicate_delivery() {
    named("duplicate_delivery", &[Fault::Resend, Fault::Delay]);
}

#[test]
fn lying_worker_cannot_wedge_the_run() {
    named("lying_worker_cannot_wedge_the_run", &[Fault::WrongKeys]);
}

#[test]
fn stale_fingerprint_is_refused_fatally() {
    named("stale_fingerprint_is_refused_fatally", &[Fault::Stale]);
}

/// A cell that fails on every worker is accepted once and rendered as a
/// failure; the run finishes.
#[test]
fn poisoned_cell_is_a_result() {
    named("poisoned_cell_is_a_result", &[Fault::Poison]);
}

/// A restarted coordinator resumes from its disk cache.
#[test]
fn resume_from_cache() {
    named("resume_from_cache", &[Fault::Restart, Fault::Delay]);
}
