use strata_isa::{ControlKind, Instr, InstrClass};

/// A data-memory access performed by a retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address of the access.
    pub addr: u32,
    /// Access width in bytes (1 or 4).
    pub len: u8,
    /// `true` for stores, `false` for loads.
    pub is_store: bool,
}

/// Control-flow outcome of a retired instruction, as branch-prediction
/// hardware would see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlEvent {
    /// Static control kind of the instruction.
    pub kind: ControlKind,
    /// Whether control actually left the fall-through path.
    pub taken: bool,
    /// The address control transferred to (the next `pc`).
    pub target: u32,
    /// `true` when the *target* was computed at run time (indirect calls,
    /// `jr`, `jmem`, `ret`) — these are the transfers a BTB or
    /// return-address stack must predict.
    pub indirect: bool,
}

/// Everything an observer learns about one retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireEvent {
    /// Address the instruction was fetched from.
    pub pc: u32,
    /// The instruction itself.
    pub instr: Instr,
    /// Cost-model class (precomputed from `instr`).
    pub class: InstrClass,
    /// Data access, if the instruction touched memory. Stack operations
    /// report their implicit access.
    pub mem: Option<MemAccess>,
    /// Control-flow outcome.
    pub control: ControlEvent,
}

/// Per-retired-instruction hook.
///
/// Observers are how the architecture cost models (`strata-arch`) and the
/// SDT's overhead attribution see execution. [`Machine::run`] and
/// [`Machine::step`] are generic over the observer, so the hook is
/// statically dispatched in the hot loop.
///
/// An observer on the hot path should mark `on_retire` (and what it calls
/// per event) `#[inline(always)]`. The interpreter calls it from inside
/// each instruction's dispatch arm with the event's `class`,
/// `control.kind` and `mem.is_some()` as literals; inlined, the observer
/// keeps only the work that shape of instruction can cause. Plain
/// `#[inline]` leaves it to a heuristic that gives up on a body the size
/// of a cost model repeated across fifty arms.
///
/// [`Machine::run`]: crate::Machine::run
/// [`Machine::step`]: crate::Machine::step
pub trait ExecutionObserver {
    /// Called after each instruction retires, including `trap` and `halt`.
    fn on_retire(&mut self, event: &RetireEvent);
}

/// An observer that ignores all events (for functional-only runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl ExecutionObserver for NullObserver {
    #[inline]
    fn on_retire(&mut self, _event: &RetireEvent) {}
}

/// Counts retired instructions; handy in tests and as a minimal example of
/// an observer.
///
/// ```
/// use strata_machine::{ExecutionObserver, InstrCounter};
/// let counter = InstrCounter::default();
/// assert_eq!(counter.retired(), 0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct InstrCounter {
    retired: u64,
}

impl InstrCounter {
    /// Number of instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }
}

impl ExecutionObserver for InstrCounter {
    #[inline]
    fn on_retire(&mut self, _event: &RetireEvent) {
        self.retired += 1;
    }
}
