use strata_arch::{ArchModel, Pricer, BUCKETS};
use strata_machine::syscall::{SyscallState, SDT_TRAP_BASE};
use strata_machine::{
    layout, ExecutionObserver, Machine, MachineError, Program, RetireEvent, StepOutcome,
};

use crate::config::{BranchClass, IbtcPlacement, IbtcScope};
use crate::emitter::{Cache, Mark, TableAlloc};
use crate::fragment::{FragKind, FragMetaTable, FragmentMap, Site};
use crate::protocol::{bind_sentinel, MAX_BINDS, TRAP_MISS, TRAP_RC_MISS};
use crate::report::{ClassReport, HostStats, MechanismStats};
use crate::strategy::adaptive::AdaptiveSite;
use crate::strategy::{resolve_binds, Bind, RetTables, StrategySpec};
use crate::stubs::{emit_stubs, Stubs};
use crate::tables::{TableRef, Witness};
use crate::{FixedTable, Origin, RunReport, SdtConfig, SdtError};

/// Mutable translator state shared by the dispatch emitter, the
/// translator, and the runtime.
#[derive(Debug)]
pub(crate) struct SdtState {
    pub cfg: SdtConfig,
    pub cache: Cache,
    pub alloc: TableAlloc,
    pub stubs: Stubs,
    pub map: FragmentMap,
    pub sites: Vec<Site>,
    /// Strategy bindings: one per distinct resolved spec in the policy.
    pub binds: Vec<Bind>,
    /// Class→binding map: `[jump (also ret-as-IB), call]`.
    pub class_bind: [usize; 2],
    /// Host-side records of adaptive dispatch sites (cleared on flush).
    pub adaptive: Vec<AdaptiveSite>,
    pub rc_tab: Option<TableRef>,
    /// The highest index the host has hashed into `rc_tab`.
    pub rc_hashed: Witness,
    /// Shadow return stack region: (base, byte mask) when enabled.
    pub shadow: Option<(u32, u32)>,
    pub stats: HostStats,
    /// Control-flow metadata per translated fragment, for trace replay;
    /// cleared with the fragment map on flushes.
    pub frag_meta: FragMetaTable,
    /// Exit-site ids recorded by `emit_exit` during the current
    /// `translate_fragment` invocation (saved/restored around nested
    /// translations, so each fragment sees only its own exits).
    pub exit_scratch: Vec<u32>,
    /// Live (app_addr, guest counter slot) pairs for block instrumentation.
    pub block_counters: Vec<(u32, u32)>,
    /// Block counts folded in from before cache flushes.
    pub flushed_counts: std::collections::HashMap<u32, u64>,
    /// Cache cursor right after the shared stubs — the flush point.
    pub post_stub_cursor: u32,
    /// Table-allocator cursor after the fixed shared tables — per-site
    /// tables allocated beyond it are freed by a flush.
    pub alloc_floor: u32,
}

impl SdtState {
    /// The strategy binding serving `class`. Returns dispatch as a
    /// generic indirect branch routes through the jump binding.
    pub(crate) fn bind_for(&self, class: BranchClass) -> usize {
        match class {
            BranchClass::Jump | BranchClass::Ret => self.class_bind[0],
            BranchClass::Call => self.class_bind[1],
        }
    }

    /// The miss glue serving `bind`: its own glue stub under a multi-bind
    /// policy, the legacy shared glue otherwise.
    pub(crate) fn glue_for(&self, bind: usize) -> u32 {
        self.binds[bind].glue.unwrap_or(self.stubs.shared_miss_glue)
    }

    /// The per-class report rows — jump, call, ret — from each class's
    /// `(dispatches, misses)`; the mechanism labels and promotions come
    /// from the binding (or return strategy) serving the class.
    pub(crate) fn class_reports(&self, counts: [(u64, u64); 3]) -> Vec<ClassReport> {
        let promotions = [
            self.binds[self.class_bind[0]].promotions(),
            self.binds[self.class_bind[1]].promotions(),
            0,
        ];
        self.cfg
            .class_mechanisms()
            .into_iter()
            .zip(promotions)
            .zip(counts)
            .map(
                |(((class, mechanism), promotions), (dispatches, misses))| ClassReport {
                    class: class.label(),
                    mechanism,
                    dispatches,
                    misses,
                    promotions,
                },
            )
            .collect()
    }

    /// The run's [`MechanismStats`] from its jump, call and return
    /// dispatches and its indirect-branch and return misses; everything
    /// else is read off the translator's own counters.
    pub(crate) fn mechanism_stats(
        &self,
        [jump, call, ret]: [u64; 3],
        ib_misses: u64,
        rc_misses: u64,
    ) -> MechanismStats {
        let s = &self.stats;
        let (sieve_mean_chain, sieve_max_chain) = self.sieve_chain_stats();
        MechanismStats {
            ib_dispatches: jump + call,
            jump_dispatches: jump,
            call_dispatches: call,
            ib_misses,
            ret_dispatches: ret,
            rc_misses,
            exit_misses: s.exit_misses,
            exit_links: s.exit_links,
            translator_entries: s.translator_entries,
            fragments: s.fragments,
            translated_app_instrs: s.translated_app_instrs,
            cache_used_bytes: self.cache.used_bytes() as u64,
            cache_flushes: s.cache_flushes,
            elided_jumps: s.elided_jumps,
            adaptive_promotions: self.binds.iter().map(Bind::promotions).sum(),
            sieve_mean_chain,
            sieve_max_chain,
        }
    }

    /// (Re)initializes every binding's and the return mechanism's guest
    /// structures — at construction and after each cache flush.
    pub(crate) fn reset_mechanism_structures(
        &mut self,
        mem: &mut strata_machine::Memory,
    ) -> Result<(), SdtError> {
        for i in 0..self.binds.len() {
            let glue = self.glue_for(i);
            let bind = &mut self.binds[i];
            bind.spec.reset(bind, mem, glue)?;
        }
        self.cfg.ret.reset(self, mem)
    }
}

/// A software dynamic translator instance bound to one loaded program.
///
/// Construction loads the program into a fresh machine and emits the
/// runtime stubs; [`Sdt::run`] translates lazily from the program entry and
/// executes from the fragment cache under the [`ArchModel`] it is handed.
/// Running again continues with a *warm* cache (useful for measuring
/// steady-state behaviour).
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Sdt {
    pub(crate) machine: Machine,
    pub(crate) state: SdtState,
    pub(crate) syscalls: SyscallState,
    pub(crate) entry: u32,
    pub(crate) app_code: std::ops::Range<u32>,
}

impl Sdt {
    /// Creates an SDT for `program` under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`SdtError::BadConfig`] for invalid configurations
    /// (including a per-site IBTC combined with out-of-line lookup, which
    /// has no shared table for the routine to probe) and propagates
    /// machine errors if the program does not fit memory.
    pub fn new(config: SdtConfig, program: &Program) -> Result<Sdt, SdtError> {
        config.validate()?;
        for class in [BranchClass::Jump, BranchClass::Call] {
            if let StrategySpec::Ibtc {
                scope: IbtcScope::PerSite,
                placement: IbtcPlacement::OutOfLine,
                ..
            } = StrategySpec::resolve(&config, class)
            {
                return Err(SdtError::BadConfig {
                    what: "ibtc placement",
                    detail: "per-site tables require inline lookup code".into(),
                });
            }
        }

        let mut machine = Machine::new(layout::DEFAULT_MEM_BYTES);
        program.load(&mut machine)?;

        let cache_bytes = match config.cache_limit {
            Some(bytes) => {
                if bytes < 8192 || bytes % 4 != 0 {
                    return Err(SdtError::BadConfig {
                        what: "cache limit",
                        detail: format!("{bytes} must be a 4-byte multiple of at least 8192"),
                    });
                }
                bytes.min(layout::CACHE_BYTES)
            }
            None => layout::CACHE_BYTES,
        };
        let mut cache = Cache::new(layout::CACHE_BASE, cache_bytes);
        let FixedLayout {
            mut binds,
            class_bind,
            ret: (rc_tab, shadow),
            alloc,
        } = FixedLayout::of(&config)?;

        let stubs = emit_stubs(&mut cache, machine.mem_mut(), &config)?;
        // Per-binding miss glue (only under multi-bind policies — the
        // single-bind case keeps the legacy SITE_SHARED glue and with it
        // byte-identical stub emission), then per-binding stub support
        // (out-of-line lookup routines).
        let multi = binds.len() > 1;
        for (i, bind) in binds.iter_mut().enumerate() {
            if multi {
                let tail = stubs.miss_tail_stack_flags;
                bind.glue =
                    Some(cache.emit_site_glue(machine.mem_mut(), bind_sentinel(i), tail)?);
            }
            let miss_glue = bind.glue.unwrap_or(stubs.shared_miss_glue);
            bind.lookup_routine = bind.spec.emit_stub_support(
                &mut cache,
                machine.mem_mut(),
                bind.table,
                miss_glue,
            )?;
        }
        let post_stub_cursor = cache.addr();
        let alloc_floor = alloc.used_bytes();

        let mut state = SdtState {
            cfg: config,
            cache,
            alloc,
            stubs,
            map: FragmentMap::default(),
            sites: Vec::new(),
            binds,
            class_bind,
            adaptive: Vec::new(),
            rc_tab,
            rc_hashed: Witness::default(),
            shadow,
            stats: HostStats::default(),
            frag_meta: FragMetaTable::new(program.code_base, program.code.len()),
            exit_scratch: Vec::new(),
            block_counters: Vec::new(),
            flushed_counts: std::collections::HashMap::new(),
            post_stub_cursor,
            alloc_floor,
        };
        state.reset_mechanism_structures(machine.mem_mut())?;

        Ok(Sdt {
            machine,
            state,
            syscalls: SyscallState::new(),
            entry: program.entry,
            app_code: program.code_base..program.code_end(),
        })
    }

    /// The configuration this SDT runs under.
    pub fn config(&self) -> &SdtConfig {
        &self.state.cfg
    }

    /// The underlying machine, for inspection.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Number of fragments currently in the cache.
    pub fn fragments(&self) -> usize {
        self.state.map.len()
    }

    /// Fragment-cache bytes used so far.
    pub fn cache_used_bytes(&self) -> u32 {
        self.state.cache.used_bytes()
    }

    /// Per-class dispatch summary: `(class label, mechanism label)` for
    /// jump, call, and return dispatch under the active policy.
    pub fn policy_summary(&self) -> Vec<(&'static str, String)> {
        let classes = self.state.cfg.class_mechanisms().into_iter();
        classes
            .map(|(class, label)| (class.label(), label))
            .collect()
    }

    /// The fixed lookup tables — each binding's shared IBTC or sieve
    /// bucket table, then the return cache — with their sizes and the
    /// highest index the host has hashed into each so far.
    pub fn fixed_tables(&self) -> Vec<FixedTable> {
        let st = &self.state;
        let named = |name: String, table: TableRef, hashed: Witness| FixedTable {
            name,
            slots: table.mask + 1,
            ways: if table.entry_bytes == 16 { 2 } else { 1 },
            highest_hashed: hashed.highest(),
        };
        let mut tables = Vec::new();
        for (i, bind) in st.binds.iter().enumerate() {
            let (Some(table), Some(name)) = (bind.table, bind.spec.fixed_table_name()) else {
                continue;
            };
            // Two bindings serve a class each: the first jumps, the
            // second calls.
            let name = match st.binds.len() {
                1 => name.to_string(),
                _ => format!(
                    "{} {name}",
                    [BranchClass::Jump, BranchClass::Call][i].label()
                ),
            };
            tables.push(named(name, table, bind.hashed));
        }
        if let Some(rc) = st.rc_tab {
            tables.push(named("return cache".into(), rc, st.rc_hashed));
        }
        tables
    }

    /// Whether this SDT's run so far is, step for step, the run an SDT
    /// under `other` would make. That holds when:
    /// - `other` differs from this configuration only in fixed-table
    ///   sizes ([`SdtConfig::size_class`]), each no larger than here;
    /// - every fixed table keeps its base (a dry run of `other`'s layout);
    /// - the table allocator's floor stays put, if the run allocated
    ///   above it (per-site tables, block counters);
    /// - every index the host hashed into a table whose size differs is
    ///   below `other`'s size ([`Sdt::fixed_tables`]).
    ///
    /// Masks are powers of two, so such an index is the same under both
    /// masks, and every guest probe hit an entry the host filled for its
    /// target or missed into the host carrying it. The emission differs
    /// only in the hash's `andi` immediate, and neither table resets nor
    /// translator charges depend on the size. So every report of this
    /// run, relabelled for `other` ([`RunReport::relabelled`]), is that
    /// run's report under the same model.
    pub fn serves(&self, other: &SdtConfig) -> bool {
        let st = &self.state;
        if other.size_class() != st.cfg.size_class() || other.validate().is_err() {
            return false;
        }
        let Ok(theirs) = FixedLayout::of(other) else {
            return false;
        };
        let floor_holds =
            st.alloc.peak_bytes() == st.alloc_floor || theirs.alloc.used_bytes() == st.alloc_floor;
        let binds_fit = theirs.binds.len() == st.binds.len()
            && (st.binds.iter().zip(&theirs.binds))
                .all(|(ours, theirs)| fits(ours.table, ours.hashed, theirs.table));
        floor_holds
            && binds_fit
            && theirs.class_bind == st.class_bind
            && fits(st.rc_tab, st.rc_hashed, theirs.ret.0)
            && theirs.ret.1 == st.shadow
    }

    /// The [`Origin`] tag of the instruction at cache address `pc`, if
    /// the translator has emitted one there.
    pub fn origin_at(&self, pc: u32) -> Option<Origin> {
        self.state.cache.origin_at(pc)
    }

    /// Translator state, for in-crate metadata export.
    pub(crate) fn state(&self) -> &SdtState {
        &self.state
    }

    /// The program's entry application address.
    pub(crate) fn entry_app(&self) -> u32 {
        self.entry
    }

    /// Application code bounds as `(base, end)`.
    pub(crate) fn app_code_range(&self) -> (u32, u32) {
        (self.app_code.start, self.app_code.end)
    }

    /// Basic-block execution counts collected by
    /// [`SdtConfig::instrument_blocks`], as `(application address, count)`
    /// pairs sorted by descending count. Counts survive cache flushes.
    /// Empty when instrumentation is off.
    pub fn block_profile(&self) -> Vec<(u32, u64)> {
        let mut totals = self.state.flushed_counts.clone();
        for &(app_addr, slot) in &self.state.block_counters {
            let count = self.machine.mem().read_u32(slot).unwrap_or(0) as u64;
            *totals.entry(app_addr).or_insert(0) += count;
        }
        let mut out: Vec<(u32, u64)> = totals.into_iter().filter(|&(_, c)| c > 0).collect();
        out.sort_by_key(|&(addr, count)| (std::cmp::Reverse(count), addr));
        out
    }

    /// Executes the program under translation until `halt`, costing
    /// execution with `model` — the one model the run is priced under;
    /// an [`ArchProfile`](strata_arch::ArchProfile) means its
    /// legacy-predictor model, `ArchModel::with_predictor_spec` any other.
    /// [`Sdt::run_models`] with one model.
    ///
    /// `fuel` bounds retired guest instructions (application plus all
    /// translation overhead). A second call continues with a warm fragment
    /// cache; the returned checksum is cumulative across runs.
    ///
    /// # Errors
    ///
    /// As [`Sdt::run_models`].
    pub fn run(&mut self, model: impl Into<ArchModel>, fuel: u64) -> Result<RunReport, SdtError> {
        let mut reports = self.run_models(vec![model.into()], fuel)?;
        Ok(reports.remove(0))
    }

    /// Executes the program under translation until `halt` once, priced
    /// under every model of `models`: one [`RunReport`] per model, in
    /// order, each equal to what [`Sdt::run`] reports for that model
    /// alone. Translation does not depend on the model, so only the
    /// pricing differs. One [`Pricer`] prices the run: it counts each
    /// retired instruction once, by origin, for all models and logs the
    /// events their caches and predictors read, and every model steps
    /// over that log a batch at a time (exact: each structure sees its own
    /// events in retirement order). Translator work is charged to each
    /// model. A report's cycle and miss totals are its model's, so a model
    /// handed in cold prices exactly this run.
    ///
    /// Translated code runs through the fused [`Machine::run`] loop, like
    /// a native run: a *segment* lasts until a `trap` (translator miss or
    /// application syscall), `halt`, a fault, or the end of the budget.
    /// Each segment is handed what is left of `fuel` after the
    /// instructions retired so far, and the translator services the trap
    /// between segments.
    ///
    /// # Errors
    ///
    /// Returns [`SdtError::ReservedTrap`] if the application uses an
    /// SDT-reserved trap code, [`SdtError::CacheFull`] /
    /// [`SdtError::TableSpaceExhausted`] when resources run out, and
    /// machine faults as [`SdtError::Machine`] — running dry as
    /// [`MachineError::OutOfFuel`] naming `fuel` itself, not the slice the
    /// last segment was given.
    ///
    /// [`SdtError::SelfModifyingCode`] carries the `(pc, addr)` of the
    /// *first* store into application code. The machine cannot be stopped
    /// at that store, so the rest of its segment still executes; the error
    /// is raised when the segment ends, before its outcome is looked at.
    /// It therefore wins over a later fault, over fuel exhaustion and over
    /// the trap that ended the segment: no syscall is folded into the
    /// checksum and nothing is translated after the store.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn run_models(
        &mut self,
        models: Vec<ArchModel>,
        fuel: u64,
    ) -> Result<Vec<RunReport>, SdtError> {
        let mut pricer = Pricer::new(models);
        let mut marks = Marks::default();

        let before = self.state.stats.translated_app_instrs;
        let frag = self
            .state
            .ensure_fragment_flushing(self.machine.mem_mut(), self.entry, FragKind::Body)?
            .0;
        pricer.charge_translator(self.state.stats.translated_app_instrs - before, 1);
        self.machine.cpu_mut().pc = frag.entry;

        loop {
            let budget = fuel.saturating_sub(pricer.retired());
            let result = self.machine.run(
                &mut Attributing {
                    pricer: &mut pricer,
                    cache: &self.state.cache,
                    marks: &mut marks,
                    app_code: self.app_code.clone(),
                },
                budget,
            );
            // Before `result` is looked at: a store into application code
            // outranks whatever ended the segment after it.
            if let Some((pc, addr)) = marks.smc {
                return Err(SdtError::SelfModifyingCode { pc, addr });
            }
            match result {
                Ok(StepOutcome::Halted) => break,
                Ok(StepOutcome::Trap(TRAP_MISS)) => {
                    let w = self.state.handle_trap_miss(&mut self.machine)?;
                    pricer.charge_translator(w.new_instrs, w.lookups);
                }
                Ok(StepOutcome::Trap(TRAP_RC_MISS)) => {
                    let w = self.state.handle_trap_rc_miss(&mut self.machine)?;
                    pricer.charge_translator(w.new_instrs, w.lookups);
                }
                Ok(StepOutcome::Trap(code)) if code >= SDT_TRAP_BASE => {
                    unreachable!("translator never emits unknown SDT traps ({code:#x})")
                }
                Ok(StepOutcome::Trap(code)) => {
                    self.syscalls.handle(code, &self.machine);
                }
                Ok(StepOutcome::Running) => unreachable!("run returns only on halt/trap/error"),
                // `run` names the slice it was handed; report the caller's budget.
                Err(MachineError::OutOfFuel { .. }) => {
                    return Err(MachineError::OutOfFuel { steps: fuel }.into())
                }
                Err(fault) => return Err(fault.into()),
            }
        }

        let st = &self.state;
        let s = &st.stats;
        // Classes resolving to the same binding share its tables, and with
        // them the miss counter: the jump and call rows then report the
        // same (combined) misses. Returns-as-IB misses also land in the
        // jump binding's counter.
        let per_class = st.class_reports([
            (marks.jump_dispatches, st.binds[st.class_bind[0]].misses),
            (marks.call_dispatches, st.binds[st.class_bind[1]].misses),
            (marks.ret_dispatches, s.rc_misses),
        ]);
        let dispatches = [
            marks.jump_dispatches,
            marks.call_dispatches,
            marks.ret_dispatches,
        ];
        let mech = st.mechanism_stats(dispatches, s.ib_misses, s.rc_misses);
        let (config, checksum) = (st.cfg.describe(), self.syscalls.checksum());
        let (instructions, instrs_by_origin) = (pricer.retired(), pricer.by_bucket());
        Ok(pricer
            .finish()
            .iter()
            .map(|model| RunReport {
                config: config.clone(),
                arch: model.profile().name,
                halted: true,
                checksum,
                instructions,
                total_cycles: model.total_cycles(),
                cycles_by_origin: model.cycles_by_bucket(),
                instrs_by_origin,
                translator_cycles: model.translator_cycles(),
                mech,
                per_class: per_class.clone(),
                icache_misses: model.icache().misses(),
                dcache_misses: model.dcache().misses(),
                indirect_mispredicts: model.indirect_mispredicts(),
                cond_mispredicts: model.cond_mispredicts(),
            })
            .collect())
    }
}

/// The fixed tables a configuration allocates at construction, in
/// allocation order — each binding's, then the return mechanism's — and
/// the allocator left after them, whose cursor is the flush floor.
struct FixedLayout {
    binds: Vec<Bind>,
    class_bind: [usize; 2],
    ret: RetTables,
    alloc: TableAlloc,
}

impl FixedLayout {
    /// Lays out `config`'s fixed tables.
    fn of(config: &SdtConfig) -> Result<FixedLayout, SdtError> {
        let mut alloc = TableAlloc::new(layout::TABLES_BASE, layout::TABLES_END);
        let (mut binds, class_bind) = resolve_binds(config);
        assert!(
            binds.len() <= MAX_BINDS,
            "policy resolved to too many bindings"
        );
        for bind in binds.iter_mut() {
            bind.table = bind.spec.alloc_fixed(&mut alloc)?;
        }
        let ret = config.ret.alloc_fixed(&mut alloc)?;
        Ok(FixedLayout {
            binds,
            class_bind,
            ret,
            alloc,
        })
    }
}

/// Whether a fixed table `ours`, into which a run hashed at most
/// `hashed`, serves as `theirs`: the same base and entry size, no more
/// entries, and every index hashed below theirs.
fn fits(ours: Option<TableRef>, hashed: Witness, theirs: Option<TableRef>) -> bool {
    match (ours, theirs) {
        (None, None) => true,
        (Some(ours), Some(theirs)) => {
            ours.base == theirs.base
                && ours.entry_bytes == theirs.entry_bytes
                && theirs.mask <= ours.mask
                && hashed.below(theirs.mask + 1)
        }
        _ => false,
    }
}

// Origins are the cost model's attribution buckets.
const _: () = assert!(Origin::ALL.len() == BUCKETS);

/// Per-run dispatch marks and the self-modifying-code watch.
#[derive(Debug, Default)]
struct Marks {
    jump_dispatches: u64,
    call_dispatches: u64,
    ret_dispatches: u64,
    /// First store into translated application code, if any:
    /// `(cache pc, app code addr)`.
    smc: Option<(u32, u32)>,
}

/// The observer wired into the machine while running under translation:
/// records each retired instruction once in the pricer, under the
/// emitting code's [`Origin`].
struct Attributing<'a> {
    pricer: &'a mut Pricer,
    cache: &'a Cache,
    marks: &'a mut Marks,
    app_code: std::ops::Range<u32>,
}

impl ExecutionObserver for Attributing<'_> {
    #[inline(always)]
    fn on_retire(&mut self, ev: &RetireEvent) {
        let (origin, mark) = self
            .cache
            .tags_at(ev.pc)
            .unwrap_or((Origin::App, Mark::None));
        self.pricer.record(origin.index(), ev);
        match mark {
            Mark::None => {}
            Mark::JumpEntry => self.marks.jump_dispatches += 1,
            Mark::CallEntry => self.marks.call_dispatches += 1,
            Mark::RetEntry => self.marks.ret_dispatches += 1,
        }
        if self.marks.smc.is_none() {
            if let Some(mem) = ev.mem {
                if mem.is_store && self.app_code.contains(&mem.addr) {
                    self.marks.smc = Some((ev.pc, mem.addr));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_arch::ArchProfile;
    use strata_asm::assemble;
    use strata_isa::{decode, Instr, Reg};

    /// An SDT over `li r4, 9; li r1, 0; li r2, site; <body>` — `sw rX, k(r2)`
    /// in `body` stores into the program's own code. Returns it with the
    /// address of `site`.
    fn sdt_for(body: &str) -> (Sdt, u32) {
        let src = format!("li r4, 9\nli r1, 0\nli r2, site\n{body}\nsite:\nnop\nhalt\n");
        let code = assemble(layout::APP_BASE, &src).expect("assembles");
        let site = layout::APP_BASE + (code.len() as u32 - 2) * 4;
        let program = Program::new("t", code, Vec::new());
        let sdt = Sdt::new(SdtConfig::ibtc_inline(64), &program).expect("constructs");
        (sdt, site)
    }

    /// Runs to the SMC error and returns its `(pc, addr)`.
    fn smc(sdt: &mut Sdt, fuel: u64) -> (u32, u32) {
        match sdt.run(ArchProfile::x86_like(), fuel) {
            Err(SdtError::SelfModifyingCode { pc, addr }) => (pc, addr),
            other => panic!("fuel {fuel}: expected SelfModifyingCode, got {other:?}"),
        }
    }

    #[test]
    fn out_of_fuel_names_the_callers_budget() {
        // A syscall trap ends the first run segment; the loop then runs dry
        // on a slice of the budget, and the error must not name the slice.
        let code = assemble(layout::APP_BASE, "trap 0x1\ntop:\njmp top\n").unwrap();
        let mut sdt = Sdt::new(
            SdtConfig::ibtc_inline(64),
            &Program::new("t", code, Vec::new()),
        )
        .unwrap();
        match sdt.run(ArchProfile::x86_like(), 500) {
            Err(SdtError::Machine(MachineError::OutOfFuel { steps: 500 })) => {}
            other => panic!("expected OutOfFuel {{ steps: 500 }}, got {other:?}"),
        }
    }

    #[test]
    fn smc_outranks_fuel_exhaustion() {
        // The store is the 7th retired instruction and the segment it sits
        // in ends only at the loop's exit stub: budgets that run dry inside
        // the segment, after the store, still report the store.
        let body = "sw r1, 0(r2)\nnop\nnop\nnop\nnop\ntop:\njmp top";
        match sdt_for(body).0.run(ArchProfile::x86_like(), 6) {
            Err(SdtError::Machine(MachineError::OutOfFuel { steps: 6 })) => {}
            other => panic!("store not reached: expected OutOfFuel, got {other:?}"),
        }
        for fuel in [7, 8, 10, 10_000] {
            let (mut sdt, site) = sdt_for(body);
            assert_eq!(smc(&mut sdt, fuel).1, site, "fuel {fuel}");
        }
    }

    #[test]
    fn smc_outranks_a_later_fault() {
        let (mut sdt, _) = sdt_for("sw r1, 0(r2)\nli r5, 0xFFFFFFF0\nlw r3, 0(r5)");
        smc(&mut sdt, 10_000);
    }

    #[test]
    fn smc_outranks_the_trap_that_ended_the_segment() {
        let (mut sdt, _) = sdt_for("sw r1, 0(r2)\ntrap 0x1");
        smc(&mut sdt, 10_000);
        assert_eq!(
            sdt.syscalls.checksum(),
            SyscallState::new().checksum(),
            "the syscall after the store must not be serviced"
        );
        assert_eq!(sdt.fragments(), 1, "nothing is translated after the store");
    }

    #[test]
    fn smc_reports_the_first_store() {
        let (mut sdt, site) = sdt_for("sw r1, 4(r2)\nsw r3, 0(r2)");
        let (pc, addr) = smc(&mut sdt, 10_000);
        assert_eq!(addr, site + 4);
        let word = sdt.machine().mem().read_u32(pc).unwrap();
        assert_eq!(
            decode(word),
            Ok(Instr::Sw {
                rs2: Reg::R1,
                rs1: Reg::R2,
                off: 4
            })
        );
    }
}
