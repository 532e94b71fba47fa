//! End-to-end fleet tests over loopback: a coordinator plus in-process
//! workers must produce output **byte-identical** to a single-machine
//! `run_suite` of the same selection — including when a worker crashes
//! mid-run and its leases are stolen back.

use std::time::Duration;

use strata_expt::{run_suite, OutputFormat, SuiteOptions};
use strata_fleet::{work, Coordinator, FleetReport, Progress, ServeOptions, WorkOptions};
use strata_workloads::Params;

fn suite_opts(filter: &str) -> SuiteOptions {
    SuiteOptions {
        jobs: 1,
        filter: Some(filter.into()),
        format: OutputFormat::Text,
        params: Params::default(),
        cache_dir: None,
        ..SuiteOptions::default()
    }
}

/// Binds a coordinator on an ephemeral loopback port, runs it on a
/// thread, and returns (join handle, connect address).
fn spawn_coordinator(
    opts: ServeOptions,
) -> (std::thread::JoinHandle<Result<FleetReport, String>>, String) {
    let coordinator = Coordinator::bind(opts).expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || coordinator.run());
    (handle, addr)
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

#[test]
fn fleet_run_is_byte_identical_to_local_run() {
    let serve = ServeOptions {
        bind: "127.0.0.1:0".into(),
        suite: suite_opts("fig2"),
        lease: Duration::from_secs(30),
        progress: Progress::Silent,
        progress_every: Duration::from_secs(5),
    };
    let (coordinator, addr) = spawn_coordinator(serve);

    let workers: Vec<_> = (0..2)
        .map(|i| {
            let opts = worker_opts(&addr, &format!("w{i}"));
            std::thread::spawn(move || work(opts))
        })
        .collect();

    let report = coordinator.join().expect("no panic").expect("fleet run");
    let mut executed = 0;
    for w in workers {
        let r = w.join().expect("no panic").expect("worker run");
        executed += r.executed;
    }

    assert_eq!(report.stats.received, report.stats.cells);
    assert_eq!(report.stats.preloaded, 0);
    assert_eq!(report.stats.workers_seen, 2);
    assert!(executed >= report.stats.cells, "every cell was executed");
    // Nothing was simulated coordinator-side: the render came entirely
    // from streamed results.
    assert_eq!(
        report.suite.store_stats.computed, 0,
        "coordinator must not simulate"
    );

    let local = run_suite(&suite_opts("fig2")).expect("local run");
    assert_eq!(report.suite.rendered, local.rendered);
    assert_eq!(report.suite.artifacts, local.artifacts);
    assert_eq!(report.suite.unique_cells, local.unique_cells);
}

#[test]
fn fleet_survives_a_worker_crash_mid_run() {
    let serve = ServeOptions {
        bind: "127.0.0.1:0".into(),
        suite: suite_opts("fig2"),
        // Short lease so even a lease-expiry path (not just the
        // disconnect path) could recover within the test budget.
        lease: Duration::from_secs(2),
        progress: Progress::Silent,
        progress_every: Duration::from_secs(5),
    };
    let (coordinator, addr) = spawn_coordinator(serve);

    // Worker A crashes after taking its second assignment: it abandons
    // one leased, unexecuted cell with no goodbye.
    let crasher = {
        let opts = WorkOptions {
            abandon_after: Some(1),
            retries: 0,
            ..worker_opts(&addr, "crasher")
        };
        std::thread::spawn(move || work(opts))
    };
    let survivor = {
        let opts = worker_opts(&addr, "survivor");
        std::thread::spawn(move || work(opts))
    };

    let report = coordinator.join().expect("no panic").expect("fleet run");
    let crashed = crasher.join().expect("no panic").expect("crash hook run");
    let survived = survivor.join().expect("no panic").expect("worker run");

    assert!(crashed.abandoned, "crash hook must have fired");
    assert!(
        report.stats.requeued >= 1,
        "the abandoned lease must have been requeued (requeued = {})",
        report.stats.requeued
    );
    assert_eq!(report.stats.received, report.stats.cells);
    assert!(survived.executed >= 1);

    // Despite the crash and reassignment, output is byte-identical to a
    // local run.
    let local = run_suite(&suite_opts("fig2")).expect("local run");
    assert_eq!(report.suite.rendered, local.rendered);
    assert_eq!(report.suite.artifacts, local.artifacts);
}

#[test]
fn fleet_resumes_from_a_populated_cache() {
    let dir = std::env::temp_dir().join(format!("strata-fleet-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Prime the cache with a full local run.
    let mut cached = suite_opts("fig2");
    cached.cache_dir = Some(dir.clone());
    let local = run_suite(&cached).expect("local run");

    // A fleet run over the same cache has nothing to dispatch: it
    // finishes without a single worker.
    let serve = ServeOptions {
        bind: "127.0.0.1:0".into(),
        suite: cached.clone(),
        lease: Duration::from_secs(30),
        progress: Progress::Silent,
        progress_every: Duration::from_secs(5),
    };
    let coordinator = Coordinator::bind(serve).expect("bind coordinator");
    let report = coordinator.run().expect("fleet run");

    assert_eq!(report.stats.preloaded, report.stats.cells);
    assert_eq!(report.stats.received, 0);
    assert_eq!(report.stats.workers_seen, 0);
    assert_eq!(report.suite.rendered, local.rendered);
    assert_eq!(report.suite.artifacts, local.artifacts);

    let _ = std::fs::remove_dir_all(&dir);
}
