//! Translation validation: per-superblock symbolic equivalence checking
//! of the threaded tier's lowered code, and a declarative transfer
//! contract over the dispatch glue the word-level dataflow pass walks.
//!
//! ## Superblock validation
//!
//! For every superblock the threaded tier has translated (exported via
//! `Machine::tier_blocks`), each slot is checked by running two
//! independently written symbolic evaluators — one over the guest
//! instruction decoded from memory at the slot's pc, one over the
//! lowered op and its stored retire-event template — and requiring the
//! resulting [`SlotSem`](crate::sym::SlotSem)s to be syntactically
//! equal (see `crates/analysis/src/sym.rs` for why syntactic equality
//! is the right relation here). Per-slot equivalence plus the
//! structural obligations below covers every exit the dispatch loop
//! can take:
//!
//! * **fall-through / taken backedge / side exit** — every slot's next
//!   pc matches the guest's, and slots are pc-anchored (`base + 4·i`),
//!   so any entry/resume/backedge pc lands on the slot with the guest's
//!   semantics (induction over slots);
//! * **fault** — both evaluators expose the single data access a slot
//!   attempts before committing state; equal accesses mean equal fault
//!   pcs and no partial effects;
//! * **mid-block fuel boundary** — the loop stops *before* a slot, at
//!   its anchored pc, so the boundary is covered by anchoring; the
//!   boundary *inside* a fused pair resumes at `pc + 4`, which is the
//!   shadow `CondBr` slot, validated standalone;
//! * **macro-op fusion** — a fused `CmpBr`/`CmpiBr` must carry exactly
//!   its shadow's condition and target (the dispatch loop patches the
//!   branch event from the *fused* op's fields);
//! * **SMC side exit** — a store slot's side exit resumes at `pc + 4`
//!   with the store retired, which is exactly the guest's state; the
//!   obligation is that store-semantics ops really take the
//!   store-retire path, which the template's `is_store`/length check
//!   enforces.
//!
//! ## Transfer contract
//!
//! Dispatch stubs and glue must, on every maximal path, hand control to
//! an accepted landing: a translated fragment entry, application code,
//! a registered translator trap (`TRAP_MISS`/`TRAP_RC_MISS`), a
//! `jmem` transfer slot, or a lookup-routine return. The dataflow pass
//! already records every discovered edge; this pass re-walks its
//! results and flags any reachable overhead word where a path simply
//! stops — a dead end the word-level lints cannot attribute.

use std::collections::BTreeSet;

use strata_core::protocol::{SLOT_JUMP_TARGET, SLOT_RESUME, TRAP_MISS, TRAP_RC_MISS};
use strata_core::Origin;
use strata_isa::{decode, Instr};
use strata_machine::{
    run_to_halt, ExecTier, InstrCounter, LoweredOp as Op, Machine, Program, TierBlockMeta,
};
use strata_stats::Json;

use crate::cfg::Labels;
use crate::dataflow::DataflowResult;
use crate::diag::{Diagnostic, Lint, Severity, VerifyReport};
use crate::image::CacheImage;
use crate::sym::{first_difference, step_guest, step_op, Pred};

/// The result of validating one machine's translated superblocks.
#[derive(Debug, Clone)]
pub struct TierReport {
    /// Superblocks validated.
    pub blocks: usize,
    /// Lowered slots checked (including fall-through stubs).
    pub slots: usize,
    /// Macro-op-fused compare+branch pairs among them.
    pub fused_pairs: usize,
    /// Findings, sorted most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl TierReport {
    /// True when nothing at warning severity or above fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity() < Severity::Warning)
    }

    /// Renders the report as human-readable text.
    pub fn render_text(&self) -> String {
        let mut s = format!(
            "validate-tiers: {} superblocks, {} slots, {} fused pairs\n",
            self.blocks, self.slots, self.fused_pairs
        );
        if self.diagnostics.is_empty() {
            s.push_str("  clean: every translated slot proved equivalent\n");
            return s;
        }
        for d in &self.diagnostics {
            s.push_str(&format!(
                "{}[{}] at {:#010x} ({}): {}\n",
                d.severity().label(),
                d.lint.name(),
                d.addr,
                d.location,
                d.message
            ));
            for line in &d.excerpt {
                s.push_str(&format!("    {line}\n"));
            }
        }
        s
    }

    /// Renders the report as a JSON object. Carries the same
    /// [`SCHEMA_VERSION`](crate::SCHEMA_VERSION) as [`VerifyReport`]:
    /// both shapes version together.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::uint(crate::diag::SCHEMA_VERSION)),
            ("clean", Json::Bool(self.is_clean())),
            ("blocks", Json::uint(self.blocks as u64)),
            ("slots", Json::uint(self.slots as u64)),
            ("fused_pairs", Json::uint(self.fused_pairs as u64)),
            (
                "diagnostics",
                Json::arr(self.diagnostics.iter().map(|d| {
                    Json::obj([
                        ("lint", Json::str(d.lint.name())),
                        ("severity", Json::str(d.severity().label())),
                        ("addr", Json::uint(d.addr as u64)),
                        ("location", Json::str(&d.location)),
                        ("message", Json::str(&d.message)),
                    ])
                })),
            ),
        ])
    }
}

/// Validates every superblock `machine`'s threaded tier currently
/// holds, decoding the guest reference from the machine's own memory.
/// Machines without a tier (or with only stale blocks) yield an empty,
/// clean report.
pub fn validate_machine_tier(machine: &Machine) -> TierReport {
    let blocks = machine.tier_blocks();
    let mem = machine.mem();
    validate_tier_blocks(&blocks, &|pc| {
        mem.read_u32(pc).ok().and_then(|w| decode(w).ok())
    })
}

/// Runs `program` to completion natively under `tier` through
/// [`run_to_halt`] (no SDT in the loop — this is the reference execution
/// path), then validates every superblock the tier translated along the
/// way. This is the whole-workload entry point `strata verify
/// --validate-tiers` and the execution-tier experiment use: the blocks
/// checked are exactly the ones a real run promotes, not a synthetic
/// corpus.
///
/// # Errors
///
/// Returns the driver's error string when the program faults, raises a
/// reserved trap or exhausts `fuel` — validation needs a completed run.
pub fn validate_program_tier(
    program: &Program,
    tier: ExecTier,
    fuel: u64,
) -> Result<TierReport, String> {
    let mut counter = InstrCounter::default();
    let (_, machine) = run_to_halt(program, tier, fuel, &mut counter, InstrCounter::retired)
        .map_err(|e| e.to_string())?;
    Ok(validate_machine_tier(&machine))
}

/// Validates translated superblocks against the guest code `fetch`
/// exposes (`fetch` returns the decoded instruction at a guest pc, or
/// `None` where memory is unmapped/undecodable).
pub fn validate_tier_blocks(
    blocks: &[TierBlockMeta],
    fetch: &dyn Fn(u32) -> Option<Instr>,
) -> TierReport {
    let mut report = TierReport {
        blocks: blocks.len(),
        slots: 0,
        fused_pairs: 0,
        diagnostics: Vec::new(),
    };
    for block in blocks {
        validate_block(block, fetch, &mut report);
    }
    report
        .diagnostics
        .sort_by(|a, b| b.severity().cmp(&a.severity()).then(a.addr.cmp(&b.addr)));
    report
}

fn tier_diag(
    report: &mut TierReport,
    lint: Lint,
    block: &TierBlockMeta,
    i: usize,
    message: String,
    excerpt: Vec<String>,
) {
    let addr = block.base.wrapping_add(i as u32 * 4);
    report.diagnostics.push(Diagnostic {
        lint,
        addr,
        location: format!("tier@{:#x}+{i}", block.base),
        message,
        excerpt,
    });
}

/// Is `op` one of the terminators `translate` may end a block with?
fn is_terminator(op: &Op) -> bool {
    matches!(
        op,
        Op::Jmp { .. }
            | Op::CallD { .. }
            | Op::Jr { .. }
            | Op::Callr { .. }
            | Op::Ret
            | Op::Jmem { .. }
            | Op::Trap { .. }
            | Op::Halt
            | Op::FallThrough { .. }
    )
}

fn validate_block(
    block: &TierBlockMeta,
    fetch: &dyn Fn(u32) -> Option<Instr>,
    report: &mut TierReport,
) {
    if block.slots.is_empty() {
        tier_diag(
            report,
            Lint::TierStructure,
            block,
            0,
            "translated superblock has no slots".into(),
            Vec::new(),
        );
        return;
    }
    let last = block.slots.len() - 1;
    if !is_terminator(&block.slots[last].op) {
        tier_diag(
            report,
            Lint::TierStructure,
            block,
            last,
            format!(
                "superblock does not end in a terminator (last op {:?})",
                block.slots[last].op
            ),
            Vec::new(),
        );
    }
    for (i, slot) in block.slots.iter().enumerate() {
        report.slots += 1;
        let pc = block.base.wrapping_add(i as u32 * 4);

        // Pc anchoring: every resume/backedge/fuel-boundary pc the
        // dispatch loop materializes is `base + 4·i`, so the slot's
        // exported pc and its retire template must agree with it.
        if slot.pc != pc {
            tier_diag(
                report,
                Lint::TierStructure,
                block,
                i,
                format!("slot pc {:#010x} is not anchored at {pc:#010x}", slot.pc),
                Vec::new(),
            );
            continue;
        }

        if let Op::FallThrough { next } = slot.op {
            // The fuel stub retires nothing and must transfer to its own
            // anchored pc — anything else skews every fuel boundary and
            // block-cap resume that lands on it.
            if i != last {
                tier_diag(
                    report,
                    Lint::TierStructure,
                    block,
                    i,
                    "fall-through stub is not the last slot".into(),
                    Vec::new(),
                );
            }
            if i == 0 {
                tier_diag(
                    report,
                    Lint::TierStructure,
                    block,
                    i,
                    "superblock is a bare fall-through stub".into(),
                    Vec::new(),
                );
            }
            if next != slot.pc {
                tier_diag(
                    report,
                    Lint::TierStructure,
                    block,
                    i,
                    format!(
                        "fuel-boundary resume pc {next:#010x} skewed from the stub's \
                         anchored pc {:#010x}",
                        slot.pc
                    ),
                    Vec::new(),
                );
            }
            continue;
        }

        let Some(instr) = fetch(pc) else {
            tier_diag(
                report,
                Lint::TierStructure,
                block,
                i,
                "guest word at the slot's pc is unreadable or undecodable".into(),
                vec![format!("  lowered: {:?}", slot.op)],
            );
            continue;
        };

        // Fused pairs: the dispatch loop retires the branch using the
        // *fused* op's condition and target, with the shadow `CondBr`'s
        // template — the two must agree exactly, and the shadow is
        // additionally validated standalone (which also discharges the
        // fuel boundary falling between compare and branch: the resume
        // pc `pc + 4` is the shadow's anchored slot).
        if let Op::CmpBr { cond, target, .. } | Op::CmpiBr { cond, target, .. } = slot.op {
            report.fused_pairs += 1;
            match block.slots.get(i + 1).map(|s| &s.op) {
                Some(&Op::CondBr {
                    cond: scond,
                    target: starget,
                }) => {
                    if scond != cond || starget != target {
                        tier_diag(
                            report,
                            Lint::TierStructure,
                            block,
                            i,
                            format!(
                                "fused pair disagrees with its shadow branch: fused \
                                 {cond:?}->{target:#010x}, shadow {scond:?}->{starget:#010x}"
                            ),
                            Vec::new(),
                        );
                    }
                }
                other => {
                    tier_diag(
                        report,
                        Lint::TierStructure,
                        block,
                        i,
                        format!(
                            "fused compare+branch has no shadow CondBr at slot {} ({other:?})",
                            i + 1
                        ),
                        Vec::new(),
                    );
                    continue;
                }
            }
        }

        // Path-sensitive comparison: conditional branches are checked
        // under both assumed directions plus predicate agreement;
        // everything else has a single path.
        let guest_pred = Pred::of_instr(instr);
        if let Op::CondBr { cond, .. } = slot.op {
            match guest_pred {
                Some(p) if p == Pred::of_cond(cond) => {}
                _ => {
                    tier_diag(
                        report,
                        Lint::TierLowering,
                        block,
                        i,
                        format!(
                            "branch predicate differs: guest {instr:?} evaluates {guest_pred:?}, \
                             lowered CondBr evaluates {:?}",
                            Pred::of_cond(cond)
                        ),
                        Vec::new(),
                    );
                    continue;
                }
            }
        }
        let assumes: &[Option<bool>] = if guest_pred.is_some() {
            &[Some(false), Some(true)]
        } else {
            &[None]
        };
        for &assume in assumes {
            let guest = step_guest(pc, instr, assume);
            let lowered = match step_op(slot, assume) {
                Ok(sem) => sem,
                Err(msg) => {
                    tier_diag(
                        report,
                        Lint::TierStructure,
                        block,
                        i,
                        msg,
                        vec![format!("  lowered: {:?}", slot.op)],
                    );
                    break;
                }
            };
            if let Some(diff) = first_difference(&guest, &lowered) {
                let path = match assume {
                    Some(true) => " (taken path)",
                    Some(false) => " (not-taken path)",
                    None => "",
                };
                tier_diag(
                    report,
                    Lint::TierLowering,
                    block,
                    i,
                    format!("lowered slot is not equivalent to the guest{path}: {diff}"),
                    vec![
                        format!("  guest:   {instr:?}"),
                        format!("  lowered: {:?}", slot.op),
                    ],
                );
                break;
            }
        }
    }
}

/// Flags reachable overhead words where a dispatch path dead-ends
/// without reaching an accepted landing: a fragment entry, application
/// code, a registered translator trap, a `jmem` transfer slot, or a
/// lookup-routine return. Run over the dataflow pass's discovered
/// edges, so every maximal glue path is covered without re-walking.
pub(crate) fn check_transfer_contract(
    img: &CacheImage,
    labels: &Labels,
    flow: &DataflowResult,
    report: &mut VerifyReport,
) {
    let has_succ = |addr: u32| {
        flow.edges
            .range((addr, 0)..=(addr, u32::MAX))
            .next()
            .is_some()
    };
    let dead_ends: BTreeSet<u32> = flow
        .visited
        .iter()
        .copied()
        .filter(|&a| !has_succ(a))
        .collect();
    for addr in dead_ends {
        let Some(line) = img.line_at(addr) else {
            continue;
        };
        // Application code may do anything, including halting; the
        // contract constrains the translator's own glue.
        if line.origin == Origin::App {
            continue;
        }
        let Some(instr) = line.instr else {
            // Undecodable words are already an error from the audit pass.
            continue;
        };
        let accepted = match instr {
            // Control handed back to the translator at a registered
            // miss/fill trap.
            Instr::Trap { code } => code == TRAP_MISS || code == TRAP_RC_MISS,
            // Declared transfer points: the target provenance checks on
            // these live in the dataflow pass; the contract accepts the
            // transfer shape itself.
            Instr::Jmem { addr: a } => a == SLOT_JUMP_TARGET || a == SLOT_RESUME,
            // A lookup routine returning to its caller's continuation
            // (the continuation edge is modeled at the call site).
            Instr::Ret => true,
            // A return-cache `jr` with no filled entries yet: the table
            // walk found no in-cache successors, which is a state, not a
            // dead path (entries are installed by the runtime).
            Instr::Jr { .. } => true,
            _ => false,
        };
        if !accepted {
            report.diagnostics.push(Diagnostic {
                lint: Lint::TransferContract,
                addr,
                location: labels.locate(addr),
                message: format!(
                    "dispatch path dead-ends at {} without reaching a fragment entry, \
                     application code, a registered trap, or a transfer slot",
                    line.text()
                ),
                excerpt: img.excerpt(addr, 2),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_asm::assemble;
    use strata_machine::{layout, ExecTier, Machine, NullObserver, TierConfig, TierMutation};

    /// A machine running `src` under an aggressive threaded tier so a
    /// single pass through the code translates it.
    fn tiered_machine(src: &str, cfg: TierConfig) -> Machine {
        let code = assemble(layout::APP_BASE, src).unwrap();
        let mut m = Machine::new(layout::DEFAULT_MEM_BYTES);
        m.write_code(layout::APP_BASE, &code).unwrap();
        m.cpu_mut().pc = layout::APP_BASE;
        m.cpu_mut()
            .set_reg(strata_isa::Reg::SP, layout::APP_DATA_BASE);
        m.set_tier(ExecTier::Threaded(cfg));
        m.run(&mut NullObserver, 10_000).unwrap();
        m
    }

    fn hot() -> TierConfig {
        TierConfig {
            threshold: 1,
            ..TierConfig::default()
        }
    }

    /// Covers ALU/immediates, fused and unfused branches, memory, stack,
    /// calls, and an indirect return — every lowering family.
    const MIXED: &str = r"
        li r4, 5
        li r5, 3
    loop:
        sub r4, r4, r5
        addi r5, r5, -1
        push r5
        pop r6
        cmp r5, r0
        bne loop
        call fn
        halt
    fn:
        sw r4, -8(sp)
        lw r7, -8(sp)
        ret
    ";

    #[test]
    fn clean_translation_validates() {
        let m = tiered_machine(MIXED, hot());
        let report = validate_machine_tier(&m);
        assert!(report.blocks > 0, "tier translated nothing");
        assert!(report.fused_pairs > 0, "no fused pair exercised");
        assert!(
            report.is_clean(),
            "clean translation flagged:\n{}",
            report.render_text()
        );
    }

    #[test]
    fn every_mutation_class_is_caught() {
        for mutation in TierMutation::ALL {
            // A small block cap guarantees a fall-through stub exists for
            // the fuel-boundary mutation to target.
            let cfg = if mutation == TierMutation::FuelBoundarySkew {
                TierConfig {
                    max_block: 2,
                    ..hot()
                }
            } else {
                hot()
            };
            let mut m = tiered_machine(MIXED, cfg);
            assert!(
                m.corrupt_lowered_op(mutation),
                "no op eligible for {}",
                mutation.name()
            );
            let report = validate_machine_tier(&m);
            assert!(
                !report.is_clean(),
                "{} not caught by the validator",
                mutation.name()
            );
        }
    }

    #[test]
    fn untiered_machine_is_trivially_clean() {
        let code = assemble(layout::APP_BASE, "halt\n").unwrap();
        let mut m = Machine::new(layout::DEFAULT_MEM_BYTES);
        m.write_code(layout::APP_BASE, &code).unwrap();
        m.cpu_mut().pc = layout::APP_BASE;
        m.run(&mut NullObserver, 10).unwrap();
        let report = validate_machine_tier(&m);
        assert_eq!(report.blocks, 0);
        assert!(report.is_clean());
    }

    #[test]
    fn stale_blocks_are_not_exported_after_smc() {
        // Translate, then store over the translated code: the export
        // hook must withhold the now-stale blocks rather than let the
        // validator compare them against the new bytes.
        let src = r"
        loop:
            addi r4, r4, 1
            cmpi r4, 3
            blt loop
            halt
        ";
        let code = assemble(layout::APP_BASE, src).unwrap();
        let mut m = Machine::new(layout::DEFAULT_MEM_BYTES);
        m.write_code(layout::APP_BASE, &code).unwrap();
        m.cpu_mut().pc = layout::APP_BASE;
        m.set_tier(ExecTier::Threaded(hot()));
        m.run(&mut NullObserver, 10_000).unwrap();
        assert!(
            validate_machine_tier(&m).blocks > 0,
            "hot loop was not translated"
        );
        m.mem_mut()
            .write_u32(
                layout::APP_BASE,
                strata_isa::encode(&strata_isa::Instr::Nop),
            )
            .unwrap();
        let report = validate_machine_tier(&m);
        assert_eq!(
            report.blocks,
            0,
            "stale superblocks exported after SMC:\n{}",
            report.render_text()
        );
    }

    #[test]
    fn validator_is_read_only() {
        let m = tiered_machine(MIXED, hot());
        let before = m.tier_blocks();
        let _ = validate_machine_tier(&m);
        let after = m.tier_blocks();
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(after.iter()) {
            assert_eq!(a.base, b.base);
            assert_eq!(a.slots.len(), b.slots.len());
        }
    }

    #[test]
    fn report_json_shape() {
        let m = tiered_machine(MIXED, hot());
        let rendered = validate_machine_tier(&m).to_json().render();
        for key in [
            "\"clean\":",
            "\"blocks\":",
            "\"slots\":",
            "\"fused_pairs\":",
        ] {
            assert!(rendered.contains(key), "missing {key} in {rendered}");
        }
    }
}
