//! Flag plumbing for the `strata` command-line driver, kept in the
//! library so it is unit-testable. The spec grammars live beside what
//! they build — `--config` and `--ib-policy` in
//! [`SdtConfig::parse`]/[`SdtConfig::parse_policy`], `--predictor` in
//! [`PredictorSpec::parse`] — and return a span-carrying [`SpecError`];
//! the thin wrappers here render it with the one caret renderer, so this
//! module builds no mechanism itself.

use strata_arch::{ArchProfile, PredictorSpec, SpecError};
use strata_core::SdtConfig;
use strata_expt::{Mode, OutputFormat, RunContext, SuiteOptions, DEFAULT_TRACES_DIR};
use strata_machine::{ExecTier, TierConfig};
use strata_workloads::Params;

/// Returns the value following `flag` in `args`, if present.
pub fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The one way to split a run across machines, named wherever an earlier
/// way to partition one (`--shard`, `strata fleet`) is asked for.
const SPLIT_A_RUN: &str = "run `bench --filter IDS --cache` on each machine, merge the \
                           `results/cache/*.cell` files, and render with `bench --cache`";

/// Flags earlier versions read, with what to do instead. Naming one is
/// an error like any unknown flag, with the replacement spelled out.
const REMOVED_FLAGS: [(&str, &str); 1] = [("--shard", SPLIT_A_RUN)];

/// Verbs earlier versions had, with what to do instead.
const REMOVED_VERBS: [(&str, &str); 1] = [("fleet", SPLIT_A_RUN)];

/// Refuses a verb earlier versions had — `strata fleet serve`, `strata
/// fleet work` — whatever follows it, with the replacement spelled out.
///
/// # Errors
///
/// Returns the message the driver exits 2 on.
pub fn check_verb(args: &[String]) -> Result<(), String> {
    let first = args.first().map(String::as_str);
    match REMOVED_VERBS.iter().find(|(verb, _)| first == Some(verb)) {
        Some((verb, instead)) => Err(format!("strata {verb} is gone; {instead}")),
        None => Ok(()),
    }
}

/// The words of a usage synopsis that name its verb: `trace`, `record`
/// for `strata trace record <workload|all> [--scale N] …`.
pub fn usage_verb(usage: &str) -> impl Iterator<Item = &str> {
    let words = usage.split_whitespace().skip(1);
    words.take_while(|w| w.chars().all(char::is_alphabetic))
}

/// Checks `args` against the verb's usage synopsis, which is thereby the
/// table of `--flags` the verb reads: every word of `args` starting with
/// `--` must appear in it, and where the synopsis follows a flag with a
/// value (`[--jobs N]`, not `[--cache]`) so must `args`. `parse_flag`
/// only looks for the names it knows, so without this a misspelled flag —
/// `--job 1` — would run the verb on its defaults without a word,
/// measuring something other than what was asked.
///
/// # Errors
///
/// Returns the message the driver exits 2 on: the unknown flag and the
/// verb, or the replacement of a removed flag.
pub fn check_flags(usage: &str, args: &[String]) -> Result<(), String> {
    let synopsis: Vec<&str> = usage
        .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
        .filter(|w| !w.is_empty())
        .collect();
    let verb = usage_verb(usage).collect::<Vec<_>>().join(" ");
    let mut words = args.iter();
    while let Some(word) = words.find(|w| w.starts_with("--")) {
        if let Some((flag, instead)) = REMOVED_FLAGS.iter().find(|(f, _)| f == word) {
            return Err(format!("{flag} is gone; {instead}"));
        }
        let Some(at) = synopsis.iter().position(|w| w == word) else {
            return Err(format!("unknown flag `{word}` for `strata {verb}`"));
        };
        let takes_value = synopsis.get(at + 1).is_some_and(|w| !w.starts_with("--"));
        if takes_value && words.next().is_none() {
            return Err(format!("{word} needs a value (`strata {verb}`)"));
        }
    }
    Ok(())
}

/// Parses `--arch x86|sparc|mips` into its cost-model profile (default
/// x86).
///
/// # Errors
///
/// Returns a message naming an unknown architecture.
pub fn parse_arch(args: &[String]) -> Result<ArchProfile, String> {
    match parse_flag(args, "--arch").as_deref() {
        None | Some("x86") => Ok(ArchProfile::x86_like()),
        Some("sparc") => Ok(ArchProfile::sparc_like()),
        Some("mips") => Ok(ArchProfile::mips_like()),
        Some(other) => Err(format!("unknown arch `{other}` (x86|sparc|mips)")),
    }
}

/// Parses `--scale N` / `--variant N` into workload [`Params`] (defaults
/// 1 and 0).
///
/// # Errors
///
/// Returns a message naming the flag whose value is not a number.
pub fn parse_params(args: &[String]) -> Result<Params, String> {
    let mut params = Params::default();
    if let Some(s) = parse_flag(args, "--scale") {
        params.scale = s.parse().map_err(|_| format!("bad --scale `{s}`"))?;
    }
    if let Some(v) = parse_flag(args, "--variant") {
        params.variant = v.parse().map_err(|_| format!("bad --variant `{v}`"))?;
    }
    Ok(params)
}

/// Builds the [`RunContext`] — the settings that change what a cell's
/// result *is* — from `--sampled`, `--traces DIR` and `--predictor SPEC`:
/// the one place any verb turns flags into a context. `always_sampled` is
/// for the `trace` verbs, which work on a traces directory whether or not
/// `--sampled` is spelled out; everywhere else `--traces` without
/// `--sampled` is rejected so a typo cannot silently run exact mode.
///
/// # Errors
///
/// Returns a message for a stray `--traces`, a malformed `--predictor`
/// (see [`parse_predictor`]), or a predictor other than `legacy` in
/// sampled mode: its native baselines come from the trace header, which
/// is priced under the legacy predictor, so the ratio would mix two.
pub fn parse_context(args: &[String], always_sampled: bool) -> Result<RunContext, String> {
    let sampled = always_sampled || args.iter().any(|a| a == "--sampled");
    let traces = parse_flag(args, "--traces");
    if traces.is_some() && !sampled {
        return Err("--traces only applies with --sampled".into());
    }
    let predictor = match parse_flag(args, "--predictor") {
        Some(spec) => parse_predictor(&spec)?,
        None => PredictorSpec::Legacy,
    };
    if sampled && predictor != PredictorSpec::Legacy {
        return Err(format!(
            "--predictor {} prices exact runs only: sampled (--sampled) native baselines \
             come from the trace, priced under the legacy predictor",
            predictor.label()
        ));
    }
    Ok(RunContext {
        mode: if sampled {
            Mode::Sampled {
                traces_dir: traces.unwrap_or_else(|| DEFAULT_TRACES_DIR.into()).into(),
            }
        } else {
            Mode::Exact
        },
        predictor,
    })
}

/// The suite selection `bench` reads: what to run and render, and where
/// its artifacts go.
#[derive(Debug)]
pub struct SuiteArgs {
    /// Filter, format, params, cache directory and context (`jobs` stays
    /// at its default; only `bench` reads `--jobs`).
    pub opts: SuiteOptions,
    /// `--artifacts-dir` (default `results`).
    pub artifacts_dir: String,
    /// False under `--no-artifacts`.
    pub write_artifacts: bool,
}

/// Parses `--filter`, `--format`, `--cache`, `--artifacts-dir` and
/// `--no-artifacts`, plus what [`parse_params`] and [`parse_context`]
/// read, into a [`SuiteArgs`] — the one suite front-end.
///
/// # Errors
///
/// Returns a message for a malformed `--format`, `--scale`, `--variant`,
/// `--predictor`, a stray `--traces`, or `--sampled` with a non-legacy
/// `--predictor`.
pub fn parse_suite(args: &[String]) -> Result<SuiteArgs, String> {
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let mut opts = SuiteOptions {
        params: parse_params(args)?,
        context: parse_context(args, false)?,
        filter: parse_flag(args, "--filter"),
        ..SuiteOptions::default()
    };
    if let Some(format) = parse_flag(args, "--format") {
        opts.format = OutputFormat::parse(&format)?;
    }
    if has("--cache") {
        opts.cache_dir = Some("results/cache".into());
    }
    Ok(SuiteArgs {
        opts,
        artifacts_dir: parse_flag(args, "--artifacts-dir").unwrap_or_else(|| "results".into()),
        write_artifacts: !has("--no-artifacts"),
    })
}

/// Resolves the execution-tier flags: `--tier interp|threaded[:threshold]`
/// plus the standalone `--tier-threshold N` knob (which implies
/// `--tier threaded`). Returns `None` when neither flag is present so
/// callers can fall through to their own default (the interpreter).
///
/// # Errors
///
/// Returns a caret diagnostic pointing at the offending token (the same
/// shape as `--ib-policy` and `--predictor` errors) for unknown tier
/// names, malformed thresholds, and the contradictory
/// `--tier interp --tier-threshold N`.
pub fn parse_tier(args: &[String]) -> Result<Option<ExecTier>, String> {
    let mut tier = match parse_flag(args, "--tier") {
        Some(spec) => match ExecTier::parse(&spec) {
            Ok(t) => Some(t),
            Err(_) => {
                let e = match spec.strip_prefix("threaded:") {
                    Some(n) => SpecError::new(
                        format!("bad --tier threshold `{n}` (expected a number, e.g. threaded:32)"),
                        "threaded:".len(),
                        n.len(),
                    ),
                    None => SpecError::new(
                        format!("unknown execution tier `{spec}` (interp|threaded[:threshold])"),
                        0,
                        spec.len(),
                    ),
                };
                return Err(point_at(&spec, e));
            }
        },
        None => None,
    };
    if let Some(raw) = parse_flag(args, "--tier-threshold") {
        let threshold: u32 = raw.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
            let msg = format!("bad --tier-threshold `{raw}` (expected an integer >= 1)");
            point_at(&raw, SpecError::new(msg, 0, raw.len()))
        })?;
        match &mut tier {
            Some(ExecTier::Threaded(cfg)) => cfg.threshold = threshold,
            Some(ExecTier::Interp) => {
                let msg = "--tier-threshold needs --tier threaded";
                return Err(point_at("interp", SpecError::new(msg, 0, "interp".len())));
            }
            None => {
                tier = Some(ExecTier::Threaded(TierConfig {
                    threshold,
                    ..TierConfig::default()
                }));
            }
        }
    }
    Ok(tier)
}

/// Renders a spec error with a caret line under the offending token —
/// the one diagnostic shape of `--config`, `--ib-policy`, `--predictor`
/// and `--tier`:
///
/// ```text
/// bad associativity `x` (only x2)
///   jump=ibtc:512x,call=sieve:64
///                ^
/// ```
fn point_at(spec: &str, e: SpecError) -> String {
    let start = e.start.min(spec.len());
    let len = e.len.clamp(1, (spec.len() - start).max(1));
    format!(
        "{msg}\n  {spec}\n  {blank}{carets}",
        msg = e.msg,
        blank = " ".repeat(start),
        carets = "^".repeat(len)
    )
}

/// Parses a `--config` spec into an [`SdtConfig`]. The grammar lives in
/// [`SdtConfig::parse`]; this wrapper renders its errors with a caret.
///
/// # Errors
///
/// Returns a multi-line message with a caret line pointing at the
/// offending token.
pub fn parse_config(spec: &str) -> Result<SdtConfig, String> {
    SdtConfig::parse(spec).map_err(|e| point_at(spec, e))
}

/// Parses an `--ib-policy` spec and applies it to `cfg`. The grammar
/// lives in [`SdtConfig::parse_policy`]; this wrapper renders its errors
/// with a caret.
///
/// # Errors
///
/// Returns a multi-line message with a caret line pointing at the
/// offending token.
pub fn parse_policy(spec: &str, cfg: &mut SdtConfig) -> Result<(), String> {
    cfg.parse_policy(spec).map_err(|e| point_at(spec, e))
}

/// Parses a `--predictor` spec into a [`PredictorSpec`]. The grammar
/// lives in [`PredictorSpec::parse`]; this wrapper renders its errors
/// with a caret:
///
/// ```text
/// bad --predictor: btb sets 12 must be a power of two in 1..=65536
///   btb:12x4
///       ^^
/// ```
///
/// # Errors
///
/// Returns a multi-line message with a caret line pointing at the
/// offending token.
pub fn parse_predictor(spec: &str) -> Result<PredictorSpec, String> {
    PredictorSpec::parse(spec).map_err(|e| {
        let msg = format!("bad --predictor: {}", e.msg);
        point_at(spec, SpecError { msg, ..e })
    })
}

/// The `verify --all` sweep, as `(--config, --ib-policy)` specs: every
/// registered mechanism in its canonical shapes (each IB mechanism
/// shared/per-site, inline/outline, 1/2-way, adaptive, predictive; each
/// return mechanism; flags elided), then the mixed-policy configurations
/// of the fig. 18 experiment, whose jump and call classes differ.
pub const VERIFY_SWEEP: [(&str, &str); 17] = [
    ("reentry", ""),
    ("ibtc:4096", ""),
    ("ibtc-outline:4096", ""),
    ("ibtc-persite:64", ""),
    ("ibtc:512", "jump=ibtc:512x2,call=ibtc:512x2"),
    ("sieve:4096", ""),
    ("ibtc:512", "jump=adaptive:64,256,4,call=adaptive:64,256,4"),
    ("ibtc:512", "jump=predictive:256,64,call=predictive:256,64"),
    ("tuned:512,1024", ""),
    ("fastret:4096", ""),
    ("shadow:4096,1024", ""),
    ("ibtc:4096+noflags", ""),
    ("sieve:1024+noflags", ""),
    ("tuned:512,1024", "jump=sieve:4096,call=ibtc:512x2"),
    ("tuned:4096,1024", "call=sieve:1024"),
    (
        "tuned:512,1024",
        "jump=sieve:4096,call=ibtc:512x2,ret=shadow:1024",
    ),
    ("tuned:512,1024", "jump=predictive:1024,64,call=ibtc:512x2"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_roundtrip_through_describe() {
        for (spec, described) in [
            ("reentry", "reentry"),
            ("ibtc:4096", "ibtc(4096,shared,inline)"),
            ("ibtc-outline:256", "ibtc(256,shared,outline)"),
            ("ibtc-persite:64", "ibtc(64,per-site,inline)"),
            ("sieve:1024", "sieve(1024)"),
            ("tuned:4096,512", "ibtc(4096,shared,inline)+rc(512)"),
            ("fastret:256", "ibtc(256,shared,inline)+fastret"),
            ("shadow:256,64", "ibtc(256,shared,inline)+shadow(64)"),
            ("sieve:64+noflags+nolink", "sieve(64)+noflags+nolink"),
        ] {
            let cfg = parse_config(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(cfg.describe(), described, "{spec}");
            assert!(cfg.validate().is_ok(), "{spec}");
        }
    }

    #[test]
    fn malformed_specs_rejected() {
        for bad in [
            "frob",
            "ibtc:abc",
            "tuned:4096",
            "shadow:256",
            "ibtc:256+wat",
            "",
            "reentry:5",
        ] {
            assert!(parse_config(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn policy_specs_roundtrip_through_describe() {
        for (spec, described) in [
            (
                "jump=sieve:4096,call=ibtc:512x2,ret=retcache:1024",
                "ibtc(4096,shared,inline)+rc(1024)\
                 +jump=sieve(4096)+call=ibtc(512,shared,inline)x2",
            ),
            (
                "jump=adaptive:512,1024,8",
                "ibtc(4096,shared,inline)+jump=adaptive(512,1024,8)",
            ),
            (
                "jump=adaptive",
                "ibtc(4096,shared,inline)+jump=adaptive(512,1024,8)",
            ),
            (
                "call=reentry,ret=fastret",
                "ibtc(4096,shared,inline)+fastret+call=reentry",
            ),
            (
                "jump=ibtc-persite:64,ret=shadow:256",
                "ibtc(4096,shared,inline)+shadow(256)+jump=ibtc(64,per-site,inline)",
            ),
            (
                "jump=inherit,call=inherit,ret=asib",
                "ibtc(4096,shared,inline)",
            ),
            (
                "ret=rc:512,call=adaptive:256,512,4",
                "ibtc(4096,shared,inline)+rc(512)+call=adaptive(256,512,4)",
            ),
            (
                "jump=predictive:2048,128",
                "ibtc(4096,shared,inline)+jump=predictive(2048,128)",
            ),
            (
                "jump=predictive",
                "ibtc(4096,shared,inline)+jump=predictive(1024,64)",
            ),
            (
                "call=predictive:256,32,ret=rc:512",
                "ibtc(4096,shared,inline)+rc(512)+call=predictive(256,32)",
            ),
        ] {
            let mut cfg = SdtConfig::ibtc_inline(4096);
            parse_policy(spec, &mut cfg).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(cfg.describe(), described, "{spec}");
            assert!(cfg.validate().is_ok(), "{spec}: {:?}", cfg.validate());
        }
    }

    #[test]
    fn malformed_policy_specs_rejected() {
        for bad in [
            "",
            "jump",
            "512,1024",
            "frob=sieve:64",
            "jump=frob",
            "jump=sieve:abc",
            "jump=ibtc:512x3",
            "jump=adaptive:512",
            "jump=adaptive:1,2,3,4",
            "jump=sieve:64,jump=sieve:128",
            "ret=sieve:64",
            "ret=frob",
            "jump=predictive:512",
            "jump=predictive:1,2,3",
            "jump=predictive:abc,64",
            "jump=inherit:1",
            "jump=reentry:9",
            "ret=asib:2",
            "ret=fastret:9",
        ] {
            let mut cfg = SdtConfig::ibtc_inline(4096);
            assert!(
                parse_policy(bad, &mut cfg).is_err(),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn policy_errors_point_at_offending_token() {
        // (spec, expected message fragment, caret column, caret width)
        for (spec, msg, col, width) in [
            ("call=ibtc:512x", "bad associativity `x`", 13, 1),
            ("call=ibtc:512x4", "bad associativity `x4`", 13, 2),
            ("jump=sieve:12kb", "bad size `12kb`", 11, 4),
            ("jump=sieve:64,jump=sieve:128", "assigned twice", 14, 4),
            ("frob=sieve:64", "unknown policy class `frob`", 0, 4),
            ("jump=frob", "unknown class strategy `frob`", 5, 4),
            ("ret=warp", "unknown ret strategy `warp`", 4, 4),
            ("ret=shadow:deep", "bad size `deep`", 11, 4),
            ("512,1024", "expected `class=strategy", 0, 3),
            (
                "jump=adaptive:512,1024,8,9",
                "too many adaptive parameters",
                25,
                1,
            ),
            ("call=adaptive:64,2x,4", "bad size `2x`", 17, 2),
            (
                "jump=predictive:512",
                "predictive needs `<sieve>,<probation>`",
                16,
                3,
            ),
            (
                "jump=predictive:1,2,3",
                "too many predictive parameters",
                20,
                1,
            ),
            ("call=predictive:64,many", "bad size `many`", 19, 4),
            ("jump=inherit:1", "`inherit` takes no argument", 13, 1),
            ("jump=reentry:9", "`reentry` takes no argument", 13, 1),
            ("ret=asib:2", "`asib` takes no argument", 9, 1),
            ("ret=fastret:9", "`fastret` takes no argument", 12, 1),
            // A missing size points at the end of its own token, also
            // where that token ends the spec.
            ("ret=rc,jump=sieve:64", "bad size ``", 6, 1),
            ("ret=rc", "bad size ``", 6, 1),
            ("jump=sieve,call=ibtc:64", "bad size ``", 10, 1),
        ] {
            let mut cfg = SdtConfig::ibtc_inline(4096);
            let err =
                parse_policy(spec, &mut cfg).expect_err(&format!("`{spec}` must be rejected"));
            let lines: Vec<&str> = err.lines().collect();
            assert!(lines[0].contains(msg), "`{spec}`: {err}");
            assert_eq!(lines[1], format!("  {spec}"), "`{spec}` echoed");
            assert_eq!(
                lines[2],
                format!("  {}{}", " ".repeat(col), "^".repeat(width)),
                "`{spec}` caret must sit under the offending token:\n{err}"
            );
        }
    }

    #[test]
    fn config_errors_point_at_offending_token() {
        // (spec, expected message fragment, caret column, caret width) —
        // the same diagnostic shape as `--ib-policy` errors above.
        for (spec, msg, col, width) in [
            ("frob", "unknown config kind `frob`", 0, 4),
            ("ibtc:abc", "bad size `abc`", 5, 3),
            ("ibtc:512x2", "bad size `512x2`", 5, 5),
            ("ibtc:512x4", "bad associativity `x4`", 8, 2),
            ("tuned:4096", "tuned needs `<ibtc>,<rc>`", 6, 4),
            ("shadow:256", "shadow needs `<ibtc>,<depth>`", 7, 3),
            ("shadow:256,deep", "bad size `deep`", 11, 4),
            ("fastret:256,5", "`fastret` takes no argument", 12, 1),
            (
                "sieve:64+noflags+wat",
                "unknown config modifier `+wat`",
                16,
                4,
            ),
            ("reentry:5", "`reentry` takes no argument", 8, 1),
            ("ibtc:64 ", "whitespace in config", 7, 1),
        ] {
            let err = parse_config(spec).expect_err(&format!("`{spec}` must be rejected"));
            let lines: Vec<&str> = err.lines().collect();
            assert!(lines[0].contains(msg), "`{spec}`: {err}");
            assert_eq!(lines[1], format!("  {spec}"), "`{spec}` echoed");
            assert_eq!(
                lines[2],
                format!("  {}{}", " ".repeat(col), "^".repeat(width)),
                "`{spec}` caret must sit under the offending token:\n{err}"
            );
        }
    }

    #[test]
    fn predictor_specs_roundtrip_through_label() {
        for (spec, label) in [
            ("legacy", "legacy"),
            ("none", "none"),
            ("ideal", "ideal"),
            ("btb:512", "btb:512"),
            ("btb:256x4", "btb:256x4"),
            ("ittage", "ittage:4"),
            ("ittage:6", "ittage:6"),
        ] {
            let parsed = parse_predictor(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(parsed.label(), label, "{spec}");
        }
    }

    #[test]
    fn predictor_errors_point_at_offending_token() {
        // (spec, expected message fragment, caret column, caret width) —
        // same diagnostic shape as `--ib-policy` errors above.
        for (spec, msg, col, width) in [
            ("frob", "unknown predictor 'frob'", 0, 4),
            ("legacy:4", "'legacy' takes no argument", 7, 1),
            ("btb", "btb needs a size", 3, 1),
            ("btb:12x4", "btb sets 12 must be a power of two", 4, 2),
            ("btb:256x32", "btb ways 32 must be in 1..=16", 8, 2),
            ("btb:12", "btb entries 12 must be 0 or a power of two", 4, 2),
            ("btb:abc", "must be a number, got 'abc'", 4, 3),
            ("ittage:9", "ittage tables 9 must be in 1..=8", 7, 1),
        ] {
            let err = parse_predictor(spec).expect_err(&format!("`{spec}` must be rejected"));
            let lines: Vec<&str> = err.lines().collect();
            assert!(lines[0].contains(msg), "`{spec}`: {err}");
            assert_eq!(lines[1], format!("  {spec}"), "`{spec}` echoed");
            assert_eq!(
                lines[2],
                format!("  {}{}", " ".repeat(col), "^".repeat(width)),
                "`{spec}` caret must sit under the offending token:\n{err}"
            );
        }
    }

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["gcc", "--arch", "sparc", "--scale", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_flag(&args, "--arch").as_deref(), Some("sparc"));
        assert_eq!(parse_flag(&args, "--scale").as_deref(), Some("2"));
        assert_eq!(parse_flag(&args, "--missing"), None);
        assert_eq!(parse_arch(&args).unwrap().name, "sparc-like");
        assert_eq!(parse_arch(&[]).unwrap().name, "x86-like");
        let mips = ["--arch".to_string(), "mips".to_string()];
        assert_eq!(parse_arch(&mips).unwrap().name, "mips-like");
        let arm = ["--arch".to_string(), "arm".to_string()];
        assert!(parse_arch(&arm).unwrap_err().contains("unknown arch `arm`"));
        // A trailing flag with no value yields None rather than panicking.
        let args = vec!["--arch".to_string()];
        assert_eq!(parse_flag(&args, "--arch"), None);
    }

    #[test]
    fn context_flag_parsing() {
        let parse = |words: &[&str], always_sampled| {
            let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
            parse_context(&args, always_sampled)
        };
        assert_eq!(parse(&[], false), Ok(RunContext::default()));
        assert_eq!(
            parse(&["--predictor", "legacy"], false),
            Ok(RunContext::default())
        );
        let sampled = |dir: &str, predictor| RunContext {
            mode: Mode::Sampled {
                traces_dir: dir.into(),
            },
            predictor,
        };
        assert_eq!(
            parse(&["--sampled"], false),
            Ok(sampled(DEFAULT_TRACES_DIR, PredictorSpec::Legacy))
        );
        assert_eq!(
            parse(
                &["--sampled", "--traces", "t", "--predictor", "legacy"],
                false
            ),
            Ok(sampled("t", PredictorSpec::Legacy))
        );
        // Sampled natives come from the trace, priced under the legacy
        // predictor: any other would divide cycles of two predictors.
        let err = parse(&["--sampled", "--predictor", "ittage"], false).unwrap_err();
        assert!(err.contains("--predictor ittage:4") && err.contains("legacy"));
        // `trace` verbs are sampled by construction; elsewhere a stray
        // `--traces` is an error, not a silent exact run.
        assert_eq!(
            parse(&["--traces", "t"], true),
            Ok(sampled("t", PredictorSpec::Legacy))
        );
        assert!(parse(&["--traces", "t"], false)
            .unwrap_err()
            .contains("--sampled"));
        assert!(parse(&["--predictor", "tage"], false)
            .unwrap_err()
            .contains("bad --predictor"));
    }

    #[test]
    fn tier_flag_parsing() {
        let to_args =
            |words: &[&str]| -> Vec<String> { words.iter().map(|s| s.to_string()).collect() };
        assert_eq!(parse_tier(&to_args(&[])), Ok(None));
        assert_eq!(
            parse_tier(&to_args(&["--tier", "interp"])),
            Ok(Some(ExecTier::Interp))
        );
        assert_eq!(
            parse_tier(&to_args(&["--tier", "threaded"])),
            Ok(Some(ExecTier::Threaded(TierConfig::default())))
        );
        // `threaded:N` and the standalone knob agree; the knob alone
        // implies the threaded tier.
        let expect = Some(ExecTier::Threaded(TierConfig {
            threshold: 16,
            ..TierConfig::default()
        }));
        assert_eq!(parse_tier(&to_args(&["--tier", "threaded:16"])), Ok(expect));
        assert_eq!(
            parse_tier(&to_args(&["--tier", "threaded", "--tier-threshold", "16"])),
            Ok(expect)
        );
        assert_eq!(
            parse_tier(&to_args(&["--tier-threshold", "16"])),
            Ok(expect)
        );
        for bad in [
            &["--tier", "jit"][..],
            &["--tier-threshold", "0"],
            &["--tier-threshold", "many"],
            &["--tier", "interp", "--tier-threshold", "4"],
        ] {
            assert!(
                parse_tier(&to_args(bad)).is_err(),
                "`{bad:?}` must be rejected"
            );
        }
    }

    #[test]
    fn tier_errors_point_at_offending_token() {
        // (args, echoed spec, expected message fragment, caret column,
        // caret width) — same diagnostic shape as `--ib-policy` and
        // `--predictor` errors above.
        for (args, spec, msg, col, width) in [
            (
                &["--tier", "jit"][..],
                "jit",
                "unknown execution tier `jit`",
                0,
                3,
            ),
            (
                &["--tier", "threaded:abc"],
                "threaded:abc",
                "bad --tier threshold `abc`",
                9,
                3,
            ),
            (
                &["--tier-threshold", "many"],
                "many",
                "bad --tier-threshold `many`",
                0,
                4,
            ),
            (
                &["--tier-threshold", "0"],
                "0",
                "bad --tier-threshold `0`",
                0,
                1,
            ),
            (
                &["--tier", "interp", "--tier-threshold", "4"],
                "interp",
                "--tier-threshold needs --tier threaded",
                0,
                6,
            ),
        ] {
            let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let err = parse_tier(&argv).expect_err(&format!("`{args:?}` must be rejected"));
            let lines: Vec<&str> = err.lines().collect();
            assert!(lines[0].contains(msg), "`{args:?}`: {err}");
            assert_eq!(lines[1], format!("  {spec}"), "`{args:?}` echoed");
            assert_eq!(
                lines[2],
                format!("  {}{}", " ".repeat(col), "^".repeat(width)),
                "`{args:?}` caret must sit under the offending token:\n{err}"
            );
        }
    }
}
