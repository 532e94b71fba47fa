//! No silently ignored configuration: the `STRATA_*` variables earlier
//! versions read as flag fallbacks are rejected by name, through the
//! real binary, with the flag that replaces each.

use std::process::Command;

const REMOVED: [(&str, &str); 6] = [
    ("STRATA_TIER", "--tier SPEC"),
    ("STRATA_SAMPLED", "--sampled [--traces DIR]"),
    ("STRATA_PREDICTOR", "--predictor SPEC"),
    ("STRATA_SCALE", "--scale N"),
    ("STRATA_VARIANT", "--variant N"),
    ("STRATA_CSV", "--format csv"),
];

fn strata() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_strata"));
    for (name, _) in REMOVED {
        cmd.env_remove(name);
    }
    cmd.arg("list");
    cmd
}

#[test]
fn removed_env_vars_are_rejected_by_name() {
    for (name, flag) in REMOVED {
        let out = strata().env(name, "1").output().expect("strata runs");
        assert_eq!(out.status.code(), Some(2), "{name}");
        assert!(out.stdout.is_empty(), "{name} still ran the verb");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).trim_end(),
            format!("{name} is no longer read; pass {flag}")
        );
    }
    // The variables that are still read do not trip the check.
    let out = strata()
        .env("STRATA_TIER_TIMING", "1")
        .env("STRATA_BENCH_OUT", "-")
        .output()
        .expect("strata runs");
    assert!(out.status.success());
}
