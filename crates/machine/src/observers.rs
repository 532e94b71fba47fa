//! Observer combinators and the trace recorder.
//!
//! [`Machine::run`](crate::Machine::run) takes a single observer; these
//! utilities compose several (e.g. an architecture cost model *and* a
//! trace recorder).

use strata_isa::ControlKind;

use crate::{ExecutionObserver, RetireEvent};

/// Memory behaviour of a retired instruction, reduced to the class the
/// trace tooling records (address and width are dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemClass {
    /// No data access.
    None,
    /// Load (including `pop`/`lwa`).
    Load,
    /// Store (including `push`/`swa`).
    Store,
}

/// One retired instruction compressed to the fields sampled simulation
/// needs: where it was, how control left it, and whether it touched
/// memory. This is the unit the `strata-trace` codec serializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactRetire {
    /// Address of the retired instruction.
    pub pc: u32,
    /// Static control kind.
    pub kind: ControlKind,
    /// Whether control left the fall-through path.
    pub taken: bool,
    /// Whether the target was computed at run time.
    pub indirect: bool,
    /// The next `pc` (fall-through when not taken).
    pub target: u32,
    /// Data-access class.
    pub mem: MemClass,
}

impl CompactRetire {
    /// Projects a full [`RetireEvent`] onto its compact form.
    #[inline]
    pub fn of(event: &RetireEvent) -> CompactRetire {
        CompactRetire {
            pc: event.pc,
            kind: event.control.kind,
            taken: event.control.taken,
            indirect: event.control.indirect,
            target: event.control.target,
            mem: match event.mem {
                None => MemClass::None,
                Some(m) if m.is_store => MemClass::Store,
                Some(_) => MemClass::Load,
            },
        }
    }

    /// Whether this is a control transfer — the only records trace replay
    /// reads; everything else it skips.
    #[inline]
    pub fn is_control(&self) -> bool {
        self.kind != ControlKind::None
    }
}

/// The trace recorder: captures every retired instruction as a
/// [`CompactRetire`], in retirement order. Compose with a cost model via
/// [`Chain`] to record and charge cycles in one pass.
#[derive(Debug, Default)]
pub struct RetireLog {
    records: Vec<CompactRetire>,
}

impl RetireLog {
    /// An empty log.
    pub fn new() -> RetireLog {
        RetireLog::default()
    }

    /// The recorded stream, oldest first.
    pub fn records(&self) -> &[CompactRetire] {
        &self.records
    }

    /// Consumes the log, yielding the recorded stream.
    pub fn into_records(self) -> Vec<CompactRetire> {
        self.records
    }
}

impl ExecutionObserver for RetireLog {
    #[inline]
    fn on_retire(&mut self, event: &RetireEvent) {
        self.records.push(CompactRetire::of(event));
    }
}

/// Runs two observers on every retired instruction.
///
/// Chains nest: `Chain::new(a, Chain::new(b, c))` observes with all three.
///
/// ```
/// use strata_machine::{observers::Chain, ExecutionObserver, InstrCounter};
/// let mut chained = Chain::new(InstrCounter::default(), InstrCounter::default());
/// assert_eq!(chained.first().retired(), 0);
/// ```
#[derive(Debug)]
pub struct Chain<A, B> {
    first: A,
    second: B,
}

impl<A: ExecutionObserver, B: ExecutionObserver> Chain<A, B> {
    /// Combines two observers.
    pub fn new(first: A, second: B) -> Chain<A, B> {
        Chain { first, second }
    }

    /// The first observer.
    pub fn first(&self) -> &A {
        &self.first
    }

    /// The second observer.
    pub fn second(&self) -> &B {
        &self.second
    }

    /// Splits the chain back into its parts.
    pub fn into_inner(self) -> (A, B) {
        (self.first, self.second)
    }
}

/// Force-inlined so a chain of force-inlined observers keeps their
/// bodies in each dispatch arm (see [`ExecutionObserver`]).
impl<A: ExecutionObserver, B: ExecutionObserver> ExecutionObserver for Chain<A, B> {
    #[inline(always)]
    fn on_retire(&mut self, event: &RetireEvent) {
        self.first.on_retire(event);
        self.second.on_retire(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{layout, InstrCounter, Machine, StepOutcome};
    use strata_asm::assemble;

    fn run_with<O: ExecutionObserver>(obs: &mut O) {
        let code = assemble(
            layout::APP_BASE,
            "li r1, 3\ntop:\naddi r1, r1, -1\ncmpi r1, 0\nbne top\nhalt\n",
        )
        .unwrap();
        let mut m = Machine::new(layout::DEFAULT_MEM_BYTES);
        m.write_code(layout::APP_BASE, &code).unwrap();
        m.cpu_mut().pc = layout::APP_BASE;
        assert_eq!(m.run(obs, 1000).unwrap(), StepOutcome::Halted);
    }

    #[test]
    fn chain_delivers_to_both() {
        let mut chained = Chain::new(InstrCounter::default(), InstrCounter::default());
        run_with(&mut chained);
        let (a, b) = chained.into_inner();
        assert_eq!(a.retired(), b.retired());
        assert!(a.retired() > 0);
    }

    #[test]
    fn retire_log_matches_live_stream() {
        // The compact projection of a chained live stream must equal the
        // log captured in the same run.
        #[derive(Default)]
        struct Projector(Vec<CompactRetire>);
        impl ExecutionObserver for Projector {
            fn on_retire(&mut self, event: &RetireEvent) {
                self.0.push(CompactRetire::of(event));
            }
        }
        let mut chained = Chain::new(RetireLog::new(), Projector::default());
        run_with(&mut chained);
        let (log, live) = chained.into_inner();
        assert!(!log.records().is_empty());
        assert_eq!(log.records(), &live.0[..]);
        // Branches record their taken edge; the backward bne is taken.
        assert!(log
            .records()
            .iter()
            .any(|r| r.kind == ControlKind::Conditional && r.taken));
        // Stack/alu mix shows up in the mem classes.
        assert!(log.records().iter().any(|r| r.mem == MemClass::None));
    }
}
