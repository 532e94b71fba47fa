//! # strata-machine — the simulated SimRISC machine
//!
//! A deterministic, instrumentable interpreter for SimRISC programs. This is
//! the substrate both the *native* baseline runs and the software dynamic
//! translator execute on: the SDT emits translated code into a region of
//! this machine's memory and the machine executes it instruction by
//! instruction, so every overhead instruction an indirect-branch handling
//! mechanism executes is really executed (and really costed by the
//! architecture models in `strata-arch`).
//!
//! Key pieces:
//!
//! * [`Memory`] — flat byte-addressed memory with a paged, self-invalidating
//!   predecode cache: 4 KiB code pages are decoded lazily, stores inside a
//!   registered executable region drop the affected page entry, and stores
//!   anywhere else skip invalidation entirely via a single range compare.
//!   Stores to code are still picked up immediately, which is what makes
//!   runtime code generation by the SDT safe.
//! * [`Cpu`] — 16 registers, `pc`, and the flags word.
//! * [`Machine`] — fetch/decode/execute stepping with [`StepOutcome`]s; traps
//!   suspend the machine and hand control to the embedder.
//! * [`ExecutionObserver`] — a per-retired-instruction hook receiving
//!   [`RetireEvent`]s; architecture cost models and the SDT's overhead
//!   attribution both plug in here.
//! * [`Program`] / [`layout`] — conventional guest memory layout shared by
//!   the workload generators and the SDT.
//! * [`run_to_halt`] / [`BranchCensus`] — the one native run loop and the
//!   dynamic branch count every native baseline reports.
//!
//! ## Example
//!
//! ```
//! use strata_machine::{Machine, NullObserver, StepOutcome, layout};
//! use strata_asm::assemble;
//!
//! let code = assemble(layout::APP_BASE, "li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n")?;
//! let mut m = Machine::new(layout::DEFAULT_MEM_BYTES);
//! m.write_code(layout::APP_BASE, &code)?;
//! m.cpu_mut().pc = layout::APP_BASE;
//! let outcome = m.run(&mut NullObserver, 100)?;
//! assert_eq!(outcome, StepOutcome::Halted);
//! assert_eq!(m.cpu().reg(strata_isa::Reg::R3), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod cpu;
mod event;
pub mod layout;
mod machine;
mod memory;
mod native;
pub mod observers;
mod program;
pub mod syscall;
mod tier;

pub use cpu::Cpu;
pub use event::{
    ControlEvent, ExecutionObserver, InstrCounter, MemAccess, NullObserver, RetireEvent,
};
pub use machine::{Machine, MachineError, StepOutcome};
pub use memory::Memory;
pub use native::{run_to_halt, BranchCensus, NativeError};
pub use program::Program;
pub use tier::{
    Cond as LoweredCond, ExecTier, Op as LoweredOp, TierBlockMeta, TierConfig, TierMutation,
    TierSlotMeta, TierStats,
};
