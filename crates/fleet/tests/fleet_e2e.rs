//! The real-socket smoke: a coordinator and two in-process workers over
//! loopback must produce output **byte-identical** to a single-machine
//! `run_suite` of the same selection, and a coordinator over a complete
//! disk cache must finish without a worker. Every fault — crashes, hangs,
//! corrupt frames, duplicates, restarts — is exercised deterministically
//! by `tests/sim.rs` against the same state machines; these tests cover
//! what the simulator cannot, the TCP driver itself.

use std::path::PathBuf;
use std::sync::{mpsc, OnceLock};

use strata_expt::{run_suite, SuiteOptions, SuiteReport};
use strata_fleet::{serve, work, FleetReport, Progress, ServeOptions, WorkOptions};

fn suite_opts(cache_dir: Option<PathBuf>) -> SuiteOptions {
    SuiteOptions {
        jobs: 1,
        filter: Some("table1".into()),
        cache_dir,
        ..SuiteOptions::default()
    }
}

/// The local run both tests compare against; it also fills the disk
/// cache the resumed coordinator reads.
fn local() -> &'static (SuiteReport, PathBuf) {
    static LOCAL: OnceLock<(SuiteReport, PathBuf)> = OnceLock::new();
    LOCAL.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("strata-fleet-e2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = run_suite(&suite_opts(Some(dir.clone()))).expect("local run");
        (report, dir)
    })
}

/// Serves over loopback on a free port, starting `workers` workers once
/// the port is known.
fn serve_with(cache_dir: Option<PathBuf>, workers: usize) -> FleetReport {
    let opts = ServeOptions {
        bind: "127.0.0.1:0".into(),
        suite: suite_opts(cache_dir),
        progress: Progress::Silent,
        ..ServeOptions::default()
    };
    let (bound, addr) = mpsc::channel();
    let coordinator =
        std::thread::spawn(move || serve(opts, |addr| bound.send(addr).expect("the test waits")));
    let addr = addr.recv().expect("coordinator bound").to_string();
    let workers: Vec<_> = (0..workers)
        .map(|i| {
            let opts = WorkOptions {
                connect: addr.clone(),
                name: format!("w{i}"),
                retries: 3,
                ..WorkOptions::default()
            };
            std::thread::spawn(move || work(opts))
        })
        .collect();
    let report = coordinator.join().expect("no panic").expect("fleet run");
    let executed: usize = workers
        .into_iter()
        .map(|w| w.join().expect("no panic").expect("worker run").executed)
        .sum();
    assert!(
        executed >= report.stats.received,
        "every result was executed"
    );
    report
}

#[test]
fn fleet_run_is_byte_identical_to_local_run() {
    let report = serve_with(None, 2);
    assert_eq!(report.stats.received, report.stats.cells);
    assert_eq!(report.stats.preloaded, 0);
    // Nothing was simulated coordinator-side: the render came entirely
    // from streamed results.
    assert_eq!(report.suite.store_stats.computed, 0);

    let (local, _) = local();
    assert_eq!(report.suite.rendered, local.rendered);
    assert_eq!(report.suite.artifacts, local.artifacts);
    assert_eq!(report.suite.unique_cells, local.unique_cells);
}

#[test]
fn fleet_resumes_from_a_populated_cache() {
    let (local, dir) = local();
    let report = serve_with(Some(dir.clone()), 0);
    assert_eq!(report.stats.preloaded, report.stats.cells);
    assert_eq!(report.stats.received, 0);
    assert_eq!(report.stats.workers_seen, 0);
    assert_eq!(report.suite.rendered, local.rendered);
    assert_eq!(report.suite.artifacts, local.artifacts);
    let _ = std::fs::remove_dir_all(dir);
}
