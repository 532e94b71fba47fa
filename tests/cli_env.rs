//! No silently ignored configuration, through the real binary: the
//! `STRATA_*` variables earlier versions read as flag fallbacks are
//! rejected by name with the flag that replaces each, a `--flag` the verb
//! does not read is rejected by name instead of running on defaults, a
//! selection that is no plan is an error before any cell starts, and one
//! that is a plan runs: exact mode at the reference tier's scales too.

use std::process::Command;

const REMOVED: [(&str, &str); 6] = [
    ("STRATA_TIER", "--tier SPEC"),
    ("STRATA_SAMPLED", "--sampled [--traces DIR]"),
    ("STRATA_PREDICTOR", "--predictor SPEC"),
    ("STRATA_SCALE", "--scale N"),
    ("STRATA_VARIANT", "--variant N"),
    ("STRATA_CSV", "--format csv"),
];

/// What replaces every earlier way to partition a run.
const SPLIT: &str = "run `bench --filter IDS --cache` on each machine, merge the \
                     `results/cache/*.cell` files, and render with `bench --cache`";

fn strata(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_strata"));
    for (name, _) in REMOVED {
        cmd.env_remove(name);
    }
    cmd.args(args);
    cmd
}

/// Asserts that `cmd` refuses to run: the exit code, nothing on stdout,
/// and exactly `message` on stderr.
fn assert_refused(mut cmd: Command, code: i32, message: &str) {
    let out = cmd.output().expect("strata runs");
    assert_eq!(out.status.code(), Some(code), "{cmd:?}");
    assert!(out.stdout.is_empty(), "{cmd:?} still ran the verb");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.trim_end(), message, "{cmd:?}");
}

#[test]
fn removed_env_vars_are_rejected_by_name() {
    for (name, flag) in REMOVED {
        let mut cmd = strata(&["list"]);
        cmd.env(name, "1");
        let message = format!("{name} is no longer read; pass {flag}");
        assert_refused(cmd, 2, &message);
    }
    // The variable that is still read does not trip the check.
    let out = strata(&["list"])
        .env("STRATA_TIER_TIMING", "1")
        .output()
        .expect("strata runs");
    assert!(out.status.success());
}

#[test]
fn flags_a_verb_does_not_read_are_rejected_by_name() {
    // The typo'd flags used to be skipped: the whole of table1 ran on the
    // default job count.
    let typos = [
        "bench", "--filter", "table1", "--job", "1", "--shrad", "0/2",
    ];
    assert_refused(strata(&typos), 2, "unknown flag `--job` for `strata bench`");
    let verbs = [
        "list",
        "run",
        "compare",
        "verify",
        "bench",
        "trace record",
        "trace info",
        "trace simpoints",
    ];
    for verb in verbs {
        let mut args: Vec<&str> = verb.split(' ').collect();
        args.push("--bogus");
        let message = format!("unknown flag `--bogus` for `strata {verb}`");
        assert_refused(strata(&args), 2, &message);
    }
    // Another verb's flag is not this verb's, and a value is not optional.
    for (args, message) in [
        (
            &["trace", "info", "--jobs", "2"][..],
            "unknown flag `--jobs` for `strata trace info`",
        ),
        (
            &["bench", "--jobs"],
            "--jobs needs a value (`strata bench`)",
        ),
        (
            &["bench", "--shard", "0/2"],
            format!("--shard is gone; {SPLIT}").as_str(),
        ),
    ] {
        assert_refused(strata(args), 2, message);
    }
}

/// The fleet's verbs are gone, whatever follows them: each names the one
/// way left to split a run.
#[test]
fn fleet_verbs_are_gone_naming_the_split() {
    let message = format!("strata fleet is gone; {SPLIT}");
    for args in [
        &["fleet", "serve", "--filter", "table1", "--lease", "4"][..],
        &["fleet", "work", "--connect", "127.0.0.1:7841"],
        &["fleet"],
    ] {
        assert_refused(strata(args), 2, &message);
    }
}

#[test]
fn exact_mode_runs_at_sampled_scales() {
    // The reference tier's scales are not sampled-only: exact mode runs
    // them, so a sampled run there has an exact baseline to gate against.
    let args = [
        "bench",
        "--filter",
        "table1",
        "--scale",
        "10",
        "--no-artifacts",
    ];
    let out = strata(&args).output().expect("strata runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("cells: 12 unique"), "{stderr}");
}

#[test]
fn verify_all_refuses_the_specs_it_would_ignore() {
    // `verify --all --config frob` used to verify the sweep and exit 0.
    let message = "error: --all verifies its own sweep; it takes neither --config nor --ib-policy";
    for args in [
        &["verify", "--all", "--config", "frob"][..],
        &["verify", "perlbmk", "--ib-policy", "jump=sieve:64", "--all"],
    ] {
        assert_refused(strata(args), 1, message);
    }
}

#[test]
fn sampled_bench_refuses_a_non_legacy_predictor() {
    // Sampled natives come from the trace header, priced under the
    // legacy predictor: any other would divide cycles of two predictors.
    let args = [
        "bench",
        "--sampled",
        "--predictor",
        "ittage",
        "--no-artifacts",
    ];
    let message = "error: --predictor ittage:4 prices exact runs only: sampled (--sampled) \
                   native baselines come from the trace, priced under the legacy predictor";
    assert_refused(strata(&args), 1, message);
}
