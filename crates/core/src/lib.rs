//! # strata-core — a software dynamic translator with pluggable
//! indirect-branch handling
//!
//! This crate is the reproduction of the system evaluated in *“Evaluating
//! Indirect Branch Handling Mechanisms in Software Dynamic Translation
//! Systems”* (Hiser, Williams, Hu, Davidson, Mars, Childers — CGO 2007): a
//! Strata-style SDT that executes a guest program from a *fragment cache*,
//! translating basic blocks on demand, linking direct branches
//! fragment-to-fragment, and handling indirect branches through one of
//! several mechanisms:
//!
//! * **Translator re-entry** ([`IbMechanism::Reentry`]) — every indirect
//!   branch performs a full context switch into the translator, which looks
//!   the target up in its fragment map. The baseline the paper starts from.
//! * **IBTC** ([`IbMechanism::Ibtc`]) — an *indirect branch translation
//!   cache*: emitted code hashes the target and probes a tagged software
//!   cache mapping application addresses to fragment addresses. Variants:
//!   one shared table vs. a table per indirect-branch site
//!   ([`IbtcScope`]), and lookup code inlined at each site vs. a shared
//!   out-of-line routine ([`IbtcPlacement`]).
//! * **Sieve** ([`IbMechanism::Sieve`]) — the target hash indexes a bucket
//!   table whose entries point at chains of compare-and-branch stanzas in
//!   the code cache; a hit ends in a *direct* jump (no BTB-hostile
//!   indirect transfer).
//! * **Return caches / fast returns** ([`RetMechanism`]) — returns are the
//!   most frequent indirect branches; a return cache jumps through a
//!   tagless table into a verification prologue, while fast returns push
//!   the *translated* return address (fastest, but transparency-violating).
//!
//! All mechanism code is emitted as real SimRISC instructions and executed
//! by the simulated machine, so overheads emerge from execution under a
//! pluggable [`ArchProfile`](strata_arch::ArchProfile) rather than from
//! closed-form estimates. Every emitted instruction carries an [`Origin`]
//! tag, letting [`RunReport`] attribute cycles to app work, lookup code,
//! context switches, trampolines, and the translator itself.
//!
//! ## Quick start
//!
//! ```
//! use strata_core::{run_native, Sdt, SdtConfig};
//! use strata_arch::ArchProfile;
//! use strata_machine::{layout, Program};
//! use strata_asm::assemble;
//!
//! // A toy program with an indirect jump.
//! let code = assemble(layout::APP_BASE, r"
//!     li   r9, done
//!     li   r4, 42
//!     trap 0x1        ; fold r4 into the checksum
//!     jr   r9
//! done:
//!     halt
//! ")?;
//! let program = Program::new("toy", code, Vec::new());
//!
//! let native = run_native(&program, ArchProfile::x86_like(), 10_000)?;
//! let mut sdt = Sdt::new(SdtConfig::ibtc_inline(512), &program)?;
//! let report = sdt.run(ArchProfile::x86_like(), 100_000)?;
//!
//! // Same observable behaviour...
//! assert_eq!(report.checksum, native.checksum);
//! // ...at a cost: translation and dispatch cycles on top of app work.
//! assert!(report.total_cycles > native.total_cycles);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod config;
mod dispatch;
mod emitter;
mod error;
mod fragment;
mod harness;
mod inspect;
mod meta;
mod origin;
pub mod protocol;
mod replay;
mod report;
mod runtime;
mod sdt;
mod strategy;
mod stubs;
mod tables;
mod translator;

pub use config::{
    BranchClass, ClassPolicy, DispatchPolicy, FlagsPolicy, IbMechanism, IbtcPlacement, IbtcScope,
    RetMechanism, SdtConfig,
};
pub use error::SdtError;
pub use fragment::FragKind;
pub use harness::{run_native, run_native_models, run_native_with_model, NativeRun};
pub use inspect::CacheLine;
pub use meta::{
    AdaptiveSiteMeta, AdaptiveStageMeta, BindMeta, CacheMeta, ExitSiteMeta, FragmentMeta,
    StubsMeta, TableKind, TableMeta,
};
pub use origin::Origin;
pub use replay::{rate, DispatchReplay};
pub use report::{ClassReport, FixedTable, MechanismStats, RunReport};
pub use sdt::Sdt;
pub use strategy::{mechanism_registry, MechanismInfo};
