//! # strata-arch — microarchitecture cost models
//!
//! Hiser et al.'s central cross-architecture finding is that the best
//! indirect-branch handling mechanism *depends on the underlying
//! implementation*: the cost of an indirect-branch misprediction, of saving
//! the flags register, of a trap into the runtime, and of instruction-cache
//! pressure all differ between the x86 and SPARC machines they measured.
//!
//! This crate models exactly those quantities. An [`ArchModel`] consumes the
//! per-retired-instruction [`RetireEvent`](strata_machine::RetireEvent)s
//! produced by `strata-machine` and charges cycles from:
//!
//! * a per-[`InstrClass`](strata_isa::InstrClass) base cost table,
//! * set-associative L1 instruction and data cache simulators ([`CacheSim`]),
//! * a gshare conditional-branch predictor,
//! * an indirect-target predictor from a closed zoo ([`PredictorSpec`],
//!   `--predictor`): the profile's direct-mapped [`Btb`] by default —
//!   profiles may have none, modeling era SPARC/MIPS parts with no
//!   indirect predictor — or a `sets × ways` true-LRU [`Btb`] of any
//!   geometry, an ITTAGE-class tagged-geometric target predictor
//!   ([`Ittage`]), or an ideal one; [`ArchModel`] counts their
//!   mispredictions,
//! * a return-address stack ([`Ras`]),
//! * per-event costs for flags save/restore and traps.
//!
//! Cost is counted, then priced: the retire path counts instructions by
//! class and steps only the stateful simulators, and the cycles are a dot
//! product of those counts with the profile's prices, taken when read. One
//! execution is priced under many models at once by a [`Pricer`]: it
//! counts each retire once for all of them and logs the events the
//! simulators read, and each model steps its caches and predictors over
//! that log a batch at a time — exact, because no simulator reads
//! another's state and each sees its own events in order.
//!
//! Three ready-made profiles bracket the design space:
//! [`ArchProfile::x86_like`], [`ArchProfile::sparc_like`], and
//! [`ArchProfile::mips_like`].
//!
//! ## Example
//!
//! ```
//! use strata_arch::{ArchModel, ArchProfile};
//! use strata_machine::{layout, Machine, StepOutcome};
//! use strata_asm::assemble;
//!
//! let code = assemble(layout::APP_BASE, "li r1, 100\nhalt\n")?;
//! let mut m = Machine::new(layout::DEFAULT_MEM_BYTES);
//! m.write_code(layout::APP_BASE, &code)?;
//! m.cpu_mut().pc = layout::APP_BASE;
//! let mut model = ArchModel::new(ArchProfile::x86_like());
//! assert_eq!(m.run(&mut model, 100)?, StepOutcome::Halted);
//! assert!(model.total_cycles() >= 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod cache;
mod model;
mod predictor;
mod pricer;
mod profile;
mod target;

pub use cache::{CacheConfig, CacheSim};
pub use model::{ArchModel, ModelStats, BUCKETS};
pub(crate) use predictor::CondPredictor;
pub use predictor::{Btb, Ras};
pub use pricer::Pricer;
pub use profile::ArchProfile;
pub use target::{Ittage, PredictorParseError, PredictorSpec, TargetPredictor};
