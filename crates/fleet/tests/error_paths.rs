//! Fleet error-path tests: the handshake and robustness behaviors the
//! happy-path e2e suite never exercises.
//!
//! Three scenarios, each driven over loopback with hand-rolled protocol
//! frames where a misbehaving peer is needed:
//!
//! 1. A coordinator announcing a **stale manifest fingerprint** must be
//!    refused by the worker — fatally, with no retry, because executing
//!    under a skewed manifest would stream wrong results under
//!    valid-looking indices.
//! 2. A worker sending a **corrupt frame mid-stream** (after taking a
//!    lease) must be dropped; its lease is requeued and a healthy worker
//!    finishes the suite with byte-identical output.
//! 3. **Double delivery** of the same cell's result must count as a
//!    duplicate and leave the render identical to a local run —
//!    first-result-wins, deterministically.

use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use strata_expt::exec::cell_result;
use strata_expt::{
    render_record, run_suite, work_manifest, Mode, OutputFormat, RunContext, Store, SuiteOptions,
};
use strata_fleet::protocol::Frame;
use strata_fleet::{work, Coordinator, FleetReport, Progress, ServeOptions, WorkOptions};
use strata_workloads::Params;

const FILTER: &str = "fig2";

fn suite_opts() -> SuiteOptions {
    SuiteOptions {
        jobs: 1,
        filter: Some(FILTER.into()),
        format: OutputFormat::Text,
        params: Params::default(),
        cache_dir: None,
        ..SuiteOptions::default()
    }
}

fn spawn_coordinator() -> (std::thread::JoinHandle<Result<FleetReport, String>>, String) {
    let serve = ServeOptions {
        bind: "127.0.0.1:0".into(),
        suite: suite_opts(),
        lease: Duration::from_secs(30),
        progress: Progress::Silent,
        progress_every: Duration::from_secs(5),
    };
    let coordinator = Coordinator::bind(serve).expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    (std::thread::spawn(move || coordinator.run()), addr)
}

fn worker_opts(addr: &str, name: &str) -> WorkOptions {
    WorkOptions {
        connect: addr.into(),
        name: name.into(),
        retries: 3,
        backoff: Duration::from_millis(50),
        heartbeat: Duration::from_millis(200),
        abandon_after: None,
        ..WorkOptions::default()
    }
}

/// Scenario 1: the worker re-derives the manifest locally and must
/// refuse to register under a fingerprint it cannot reproduce — a
/// version-skewed binary's, or a coordinator's in another run context
/// (an exact worker must never feed a sampled store). The refusal is
/// fatal — no reconnect attempts against a skewed peer.
#[test]
fn worker_refuses_stale_manifest_fingerprint() {
    let cells = work_manifest(Some(FILTER), Params::default()).expect("manifest");
    let sampled = RunContext {
        mode: Mode::Sampled {
            traces_dir: "unused".into(),
        },
        ..RunContext::default()
    };
    for bad_fingerprint in [
        RunContext::default().fingerprint(&cells) ^ 1,
        sampled.fingerprint(&cells),
    ] {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake coordinator");
        let addr = listener.local_addr().expect("addr").to_string();

        // Fake coordinator: correct filter, params, and manifest length,
        // but a fingerprint the worker cannot reproduce.
        let manifest_len = cells.len() as u32;
        let fake = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            Frame::Welcome {
                filter: FILTER.into(),
                scale: 1,
                variant: 0,
                manifest_len,
                fingerprint: bad_fingerprint,
            }
            .write_to(&mut conn)
            .expect("send welcome");
            // Hold the socket open until the worker hangs up, so the
            // worker's exit is its own decision rather than a dropped
            // connection.
            let _ = Frame::read_from(&mut conn);
        });

        let err = work(WorkOptions {
            // Zero retries: a fatal refusal must not consume any.
            retries: 0,
            ..worker_opts(&addr, "skewed")
        })
        .expect_err("worker must refuse a stale manifest");
        assert!(
            err.contains("manifest mismatch"),
            "refusal must name the manifest mismatch, got: {err}"
        );
        fake.join().expect("fake coordinator thread");
    }
}

/// Scenario 2: a peer that takes a lease and then emits garbage bytes is
/// dropped; its lease is requeued immediately and a healthy worker
/// drains the suite to a byte-identical render.
#[test]
fn corrupt_frame_mid_stream_requeues_the_lease() {
    let (coordinator, addr) = spawn_coordinator();

    // The corrupt client plays the protocol correctly up to and
    // including taking an assignment...
    let mut conn = TcpStream::connect(&addr).expect("connect");
    match Frame::read_from(&mut conn).expect("welcome") {
        Frame::Welcome { .. } => {}
        other => panic!("expected Welcome, got {other:?}"),
    }
    Frame::Register {
        worker: "corrupt".into(),
    }
    .write_to(&mut conn)
    .expect("register");
    Frame::Fetch.write_to(&mut conn).expect("fetch");
    match Frame::read_from(&mut conn).expect("assignment") {
        Frame::Assign { .. } => {}
        other => panic!("expected Assign, got {other:?}"),
    }
    // ...then sprays garbage mid-stream instead of a result.
    use std::io::Write;
    conn.write_all(&[0xFF; 64]).expect("garbage");
    conn.flush().expect("flush");

    let healthy = {
        let opts = worker_opts(&addr, "healthy");
        std::thread::spawn(move || work(opts))
    };
    let report = coordinator.join().expect("no panic").expect("fleet run");
    let worked = healthy.join().expect("no panic").expect("healthy worker");
    drop(conn);

    assert!(
        report.stats.requeued >= 1,
        "the corrupt connection's lease must be requeued (requeued = {})",
        report.stats.requeued
    );
    assert_eq!(report.stats.received, report.stats.cells);
    assert!(worked.executed >= 1);

    // The poisoned connection must not have perturbed the output.
    let local = run_suite(&suite_opts()).expect("local run");
    assert_eq!(report.suite.rendered, local.rendered);
    assert_eq!(report.suite.artifacts, local.artifacts);
}

/// Scenario 3: at-least-once delivery means the same cell's result can
/// arrive twice; the coordinator must count the duplicate, keep the
/// first result, and render exactly what a local run renders.
#[test]
fn duplicate_result_delivery_is_deduplicated() {
    let cells = work_manifest(Some(FILTER), Params::default()).expect("manifest");
    let (coordinator, addr) = spawn_coordinator();

    // A hand-rolled mini-worker: executes its first assignment honestly,
    // then delivers the identical result twice.
    let mut conn = TcpStream::connect(&addr).expect("connect");
    match Frame::read_from(&mut conn).expect("welcome") {
        Frame::Welcome { .. } => {}
        other => panic!("expected Welcome, got {other:?}"),
    }
    Frame::Register {
        worker: "echoer".into(),
    }
    .write_to(&mut conn)
    .expect("register");
    Frame::Fetch.write_to(&mut conn).expect("fetch");
    let (index, key) = match Frame::read_from(&mut conn).expect("assignment") {
        Frame::Assign { index, key } => (index, key),
        other => panic!("expected Assign, got {other:?}"),
    };
    let cell = &cells[index as usize];
    assert_eq!(cell.key_string(), key, "assignment key must match manifest");
    let store = Store::in_memory();
    let result = cell_result(&store, cell);
    let delivery = Frame::Result {
        index,
        key,
        record: render_record(&cell.key_string(), &result),
    };
    delivery.write_to(&mut conn).expect("first delivery");
    delivery.write_to(&mut conn).expect("second delivery");
    drop(conn);

    let healthy = {
        let opts = worker_opts(&addr, "healthy");
        std::thread::spawn(move || work(opts))
    };
    let report = coordinator.join().expect("no panic").expect("fleet run");
    healthy.join().expect("no panic").expect("healthy worker");

    assert!(
        report.stats.duplicates >= 1,
        "the second delivery must be counted as a duplicate (duplicates = {})",
        report.stats.duplicates
    );
    assert_eq!(
        report.stats.received, report.stats.cells,
        "dedup must not double-count toward completion"
    );
    assert_eq!(report.stats.rejected, 0);

    // First-result-wins is deterministic: the render matches a local run.
    let local = run_suite(&suite_opts()).expect("local run");
    assert_eq!(report.suite.rendered, local.rendered);
    assert_eq!(report.suite.artifacts, local.artifacts);
}
