//! Trace-driven dispatch replay: feeds a recorded native control-flow
//! stream through the real translator and dispatch structures without
//! re-executing guest code.
//!
//! [`DispatchReplay`] owns a full [`Sdt`] — fragment cache, strategy
//! bindings, guest lookup tables — and walks a retire stream's *control
//! events*. Every hit/miss decision is made against the same guest-memory
//! structures exact execution would probe (IBTC tags, return-cache slots,
//! patched exit trampolines), and every miss is serviced by the *real*
//! runtime trap handlers, so fragments, fills, links, promotions, and
//! cache flushes are exact by construction. Only the structures exact
//! mode keeps in emitted code rather than in tables are mirrored
//! host-side: sieve chain membership, the shadow return stack, and the
//! elided-jump bookkeeping captured in
//! [`FragMeta`](crate::fragment::FragMeta).
//!
//! On a gap-free walk of a full trace the resulting mechanism counters
//! equal exact mode's [`RunReport::mech`](crate::RunReport); sampled
//! (SimPoint) execution instead [`seek`](DispatchReplay::seek)s between
//! intervals and pays only for the events it measures.
//!
//! A replay is handed the [`ArchModel`]s it is priced under, as an exact
//! [`Sdt::run_models`] is. Translator work is charged to each, and each
//! model's own indirect-target predictor and return-address stack — the
//! ones a [`Pricer`](strata_arch::Pricer) steps over the exact retire
//! stream — predict every replayed dispatch, keyed by dispatch-site shape
//! (see [`Key`]).
//! The replay path itself never reads a model: which fragment is entered,
//! which probe hits and what the translator does follow from the
//! configuration and the event stream alone. That is why one replay
//! serves any number of models, each priced exactly as if it had been
//! replayed alone.

use std::collections::HashSet;

use strata_arch::ArchModel;
use strata_machine::observers::CompactRetire;
use strata_machine::{Memory, Program};

use crate::config::{BranchClass, ClassPolicy, IbMechanism, IbtcPlacement, RetMechanism};
use crate::dispatch::ibtc_table_ref;
use crate::fragment::{FragKind, Site, Terminal};
use crate::protocol::{bind_sentinel, SITE_NOFILL, SITE_SHARED, SLOT_SITE, SLOT_TARGET};
use crate::report::{ClassReport, MechanismStats};
use crate::strategy::adaptive::AdaptiveStage;
use crate::strategy::StrategySpec;
use crate::tables::TableRef;
use crate::{Sdt, SdtConfig, SdtError};

/// Dispatch-model replay over a recorded retire stream.
#[derive(Debug)]
pub struct DispatchReplay {
    sdt: Sdt,
    /// The models the replay is priced under: translator work is charged
    /// to each and each one's predictors see every dispatch. Predictor
    /// state survives cache flushes: it models the CPU, not the
    /// translator.
    models: Vec<ArchModel>,
    /// Per model, in `models` order: mispredicted jump, call and return
    /// dispatches — the rows of [`rate::class`].
    mispredicts: Vec<[u64; 3]>,
    jump_dispatches: u64,
    call_dispatches: u64,
    ret_dispatches: u64,
    /// The fragment the replayed control flow is currently inside.
    cur: Option<(u32, FragKind)>,
    /// Sieve chain membership per `(binding, application target)` — the
    /// host-side mirror of the installed stanza chains.
    sim_sieve: HashSet<(usize, u32)>,
    /// Shadow return stack mirror: application return addresses per slot
    /// (empty unless the shadow-stack mechanism is configured).
    shadow_slots: Vec<u32>,
    shadow_sp: usize,
    /// How the model's predictors see each class's dispatch transfer.
    jump_key: Key,
    call_key: Key,
    ret_key: Key,
}

/// Where each counter sits in [`DispatchReplay::rate_counters`].
pub mod rate {
    pub const IB_DISPATCHES: usize = 0;
    pub const JUMP_DISPATCHES: usize = 1;
    pub const CALL_DISPATCHES: usize = 2;
    pub const RET_DISPATCHES: usize = 3;
    pub const IB_MISSES: usize = 4;
    pub const RC_MISSES: usize = 5;
    /// `(dispatches, misses)` of row `row` of
    /// [`per_class`](super::DispatchReplay::per_class), three rows.
    pub const fn class(row: usize) -> (usize, usize) {
        (6 + 2 * row, 7 + 2 * row)
    }
    pub const JUMP_MISPREDICTS: usize = 12;
    pub const CALL_MISPREDICTS: usize = 13;
    pub const RET_MISPREDICTS: usize = 14;
    /// How many counters there are.
    pub const COUNT: usize = 15;
}

/// How the hardware sees one class's dispatch transfer — what the
/// model's predictors are keyed by for it.
#[derive(Debug, Clone, Copy)]
enum Key {
    /// Per-site probe code retires its final indirect transfer at a
    /// distinct host pc per site: the application branch pc stands in.
    Site,
    /// One shared routine funnels every site through one transfer: a
    /// synthetic pc per class, outside the application address range so
    /// it never collides with a per-site key.
    Shared(u32),
    /// Fast returns jump straight to the pushed translated address: the
    /// host-level transfer is call/return paired, so the return-address
    /// stack predicts it.
    ReturnStack,
}

/// How `class` dispatches under `cfg`, as the hardware sees it. A
/// mechanism funnels through one transfer when it is the translator
/// re-entry context switch or an out-of-line IBTC routine; inline probes
/// (shared *table* or not), sieve hash stanzas and adaptive/predictive
/// sites emit per-site probe code. Returns other than fast returns
/// dispatch through an indirect *jump*, invisible to a return-address
/// stack: per site under a return cache or shadow stack, and keyed like
/// the IB mechanism when they dispatch as indirect branches.
fn dispatch_key(cfg: &SdtConfig, class: BranchClass) -> Key {
    let (policy, shared_pc) = match (class, cfg.ret) {
        (BranchClass::Jump, _) => (cfg.policy.jump, 0xFFFF_FF00),
        (BranchClass::Call, _) => (cfg.policy.call, 0xFFFF_FF04),
        (BranchClass::Ret, RetMechanism::AsIb) => (ClassPolicy::Inherit, 0xFFFF_FF08),
        (BranchClass::Ret, RetMechanism::FastReturn) => return Key::ReturnStack,
        (BranchClass::Ret, _) => return Key::Site,
    };
    let mech = match policy {
        ClassPolicy::Inherit => cfg.ib,
        ClassPolicy::Fixed { mech, .. } => mech,
        ClassPolicy::Adaptive { .. } | ClassPolicy::Predictive { .. } => return Key::Site,
    };
    let funnels = match mech {
        IbMechanism::Reentry => true,
        IbMechanism::Ibtc { placement, .. } => placement == IbtcPlacement::OutOfLine,
        IbMechanism::Sieve { .. } => false,
    };
    if funnels {
        Key::Shared(shared_pc)
    } else {
        Key::Site
    }
}

impl DispatchReplay {
    /// Builds a replay instance: a fresh [`Sdt`] for `config` and
    /// `program`, priced under `model` — an [`ArchProfile`] means its
    /// legacy-predictor model. [`DispatchReplay::with_models`] with one
    /// model.
    ///
    /// [`ArchProfile`]: strata_arch::ArchProfile
    ///
    /// # Errors
    ///
    /// Same contract as [`Sdt::new`].
    pub fn new(
        config: SdtConfig,
        program: &Program,
        model: impl Into<ArchModel>,
    ) -> Result<DispatchReplay, SdtError> {
        DispatchReplay::with_models(config, program, vec![model.into()])
    }

    /// Builds a replay instance priced under every model of `models`: one
    /// walk, whose counters each model reads as if it had been replayed
    /// alone ([`rate_counters_of`](Self::rate_counters_of),
    /// [`model_at`](Self::model_at)).
    ///
    /// # Errors
    ///
    /// Same contract as [`Sdt::new`].
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn with_models(
        config: SdtConfig,
        program: &Program,
        models: Vec<ArchModel>,
    ) -> Result<DispatchReplay, SdtError> {
        assert!(
            !models.is_empty(),
            "a replay is priced under at least one model"
        );
        let sdt = Sdt::new(config, program)?;
        let cfg = sdt.config();
        let depth = match cfg.ret {
            RetMechanism::ShadowStack { depth } => depth as usize,
            _ => 0,
        };
        Ok(DispatchReplay {
            jump_key: dispatch_key(cfg, BranchClass::Jump),
            call_key: dispatch_key(cfg, BranchClass::Call),
            ret_key: dispatch_key(cfg, BranchClass::Ret),
            sdt,
            mispredicts: vec![[0; 3]; models.len()],
            models,
            jump_dispatches: 0,
            call_dispatches: 0,
            ret_dispatches: 0,
            cur: None,
            sim_sieve: HashSet::new(),
            shadow_slots: vec![0; depth],
            shadow_sp: 0,
        })
    }

    /// The configuration under replay.
    pub fn config(&self) -> &SdtConfig {
        self.sdt.config()
    }

    /// (Re)positions the replay at application address `app_pc`,
    /// translating its fragment on demand — the replay analogue of the
    /// translator's initial entry, also used to jump between simulation
    /// intervals.
    ///
    /// # Errors
    ///
    /// Propagates translation failures ([`SdtError::CacheFull`] when the
    /// mechanism forbids flushing, reserved traps, machine faults).
    pub fn seek(&mut self, app_pc: u32) -> Result<(), SdtError> {
        self.translate_body(app_pc)?;
        self.cur = Some((app_pc, FragKind::Body));
        Ok(())
    }

    /// Feeds one recorded retire event. Non-control events return
    /// immediately; control events advance the replay through the
    /// fragment graph, probing and filling dispatch structures exactly as
    /// translated execution would.
    ///
    /// # Errors
    ///
    /// [`SdtError::ReplayDesync`] when the event stream does not match
    /// the fragment graph (wrong trace, or no [`seek`](Self::seek) yet);
    /// translation failures propagate as from [`Sdt::run`].
    pub fn step(&mut self, ev: &CompactRetire) -> Result<(), SdtError> {
        if !ev.is_control() {
            return Ok(());
        }
        let (cur_app, cur_kind) = self.cur.ok_or(SdtError::ReplayDesync {
            pc: ev.pc,
            detail: String::new(),
        })?;
        let table = &self.sdt.state.frag_meta;
        let meta = table
            .get(cur_app, cur_kind)
            .ok_or_else(|| SdtError::ReplayDesync {
                pc: ev.pc,
                detail: if table.covers(cur_app) {
                    format!("no metadata for fragment {cur_app:#x} ({cur_kind:?})")
                } else {
                    format!("fragment {cur_app:#x} is outside the program's code: no metadata")
                },
            })?;
        if ev.pc != meta.term_pc {
            if meta.elided_jmp_pcs.contains(&ev.pc) {
                // An elided direct jump: translation inlined its target,
                // so execution just continues inside this fragment.
                return Ok(());
            }
            return Err(SdtError::ReplayDesync {
                pc: ev.pc,
                detail: format!(
                    "expected terminal {:#x} of fragment {cur_app:#x}",
                    meta.term_pc
                ),
            });
        }
        match meta.terminal {
            Terminal::Cond {
                next_site,
                taken_site,
            } => {
                let site = if ev.taken { taken_site } else { next_site };
                self.traverse_exit(site, ev.target)?;
                self.cur = Some((ev.target, FragKind::Body));
            }
            Terminal::DirectJump { site } => {
                self.traverse_exit(site, ev.target)?;
                self.cur = Some((ev.target, FragKind::Body));
            }
            Terminal::DirectCall { site, ret_app } => {
                self.shadow_push(ret_app);
                self.push_return(ret_app);
                self.traverse_exit(site, ev.target)?;
                self.cur = Some((ev.target, FragKind::Body));
            }
            Terminal::IndirectJump { site } => {
                self.jump_dispatches += 1;
                self.predict(0, self.jump_key, ev);
                let bind = self.sdt.state.bind_for(BranchClass::Jump);
                self.dispatch_ib(bind, site, ev.target)?;
                self.cur = Some((ev.target, FragKind::Body));
            }
            Terminal::IndirectCall { site, ret_app } => {
                self.call_dispatches += 1;
                self.shadow_push(ret_app);
                self.push_return(ret_app);
                self.predict(1, self.call_key, ev);
                let bind = self.sdt.state.bind_for(BranchClass::Call);
                self.dispatch_ib(bind, site, ev.target)?;
                self.cur = Some((ev.target, FragKind::Body));
            }
            Terminal::Ret { site } => {
                self.predict(2, self.ret_key, ev);
                self.replay_ret(site, ev.target)?;
            }
            Terminal::Halt => {
                return Err(SdtError::ReplayDesync {
                    pc: ev.pc,
                    detail: "control event at a halt terminal".into(),
                });
            }
        }
        Ok(())
    }

    /// Has each model's predictors, keyed `key`, predict the dispatch
    /// transfer ending at `ev.target` (and train on it), counting a miss
    /// in row `row` of that model's mispredicts.
    #[inline(always)]
    fn predict(&mut self, row: usize, key: Key, ev: &CompactRetire) {
        for (model, missed) in self.models.iter_mut().zip(&mut self.mispredicts) {
            let correct = match key {
                Key::Site => model.predict_indirect(ev.pc, ev.target),
                Key::Shared(pc) => model.predict_indirect(pc, ev.target),
                Key::ReturnStack => model.predict_return(ev.target),
            };
            missed[row] += u64::from(!correct);
        }
    }

    /// Pushes a call's return address onto each model's return-address
    /// stack.
    fn push_return(&mut self, ret_app: u32) {
        for model in &mut self.models {
            model.push_return(ret_app);
        }
    }

    /// Charges translator work to each model.
    fn charge_translator(&mut self, instrs: u64, lookups: u64) {
        for model in &mut self.models {
            model.charge_translator(instrs, lookups);
        }
    }

    /// One return dispatch, per the configured mechanism.
    fn replay_ret(&mut self, site: Option<u32>, target: u32) -> Result<(), SdtError> {
        match self.sdt.state.cfg.ret {
            RetMechanism::FastReturn => {
                // Calls pushed the translated return address; the ret is a
                // single native instruction with no dispatch at all. On a
                // gap-free walk the return point always exists (the call's
                // translation created it), but after a seek the pushing
                // call may lie outside the replayed window — translate the
                // return point on demand, like the seek itself.
                self.ensure_body(target)?;
                self.cur = Some((target, FragKind::Body));
            }
            RetMechanism::ReturnCache { .. } => {
                self.ret_dispatches += 1;
                let rc = self.sdt.state.rc_tab.expect("return cache allocated");
                let slot = self.sdt.machine.mem().read_u32(rc.entry_addr(target))?;
                // The table is tagless: a hit requires the slot to hold
                // *this* return point's prologue (a colliding entry fails
                // the prologue's verification and re-traps).
                let hit = self
                    .sdt
                    .state
                    .map
                    .get(target, FragKind::ReturnPoint)
                    .is_some_and(|f| f.entry == slot);
                if !hit {
                    self.service_rc_miss(target)?;
                }
                self.cur = Some((target, FragKind::ReturnPoint));
            }
            RetMechanism::ShadowStack { .. } => {
                self.ret_dispatches += 1;
                let popped = self.shadow_pop();
                if popped != target {
                    // The emitted fallback jumps through the no-fill miss
                    // glue: translate/find the target, fill nothing.
                    self.service_miss(target, SITE_NOFILL)?;
                }
                self.cur = Some((target, FragKind::Body));
            }
            RetMechanism::AsIb => {
                self.ret_dispatches += 1;
                let bind = self.sdt.state.bind_for(BranchClass::Ret);
                self.dispatch_ib(bind, site, target)?;
                self.cur = Some((target, FragKind::Body));
            }
        }
        Ok(())
    }

    /// Translates a body fragment at `app_pc` if none exists yet — a
    /// no-op on gap-free walks, so exact-equivalence is unaffected; only
    /// seeked replays whose fragment-creating event fell in a skipped
    /// interval pay for it (as warmup translator work).
    fn ensure_body(&mut self, app_pc: u32) -> Result<(), SdtError> {
        if self
            .sdt
            .state
            .frag_meta
            .get(app_pc, FragKind::Body)
            .is_some()
        {
            return Ok(());
        }
        self.translate_body(app_pc)
    }

    /// Finds or translates the body fragment at `app_pc` as the
    /// translator's entry path would, charging the work.
    fn translate_body(&mut self, app_pc: u32) -> Result<(), SdtError> {
        let before = self.sdt.state.stats.translated_app_instrs;
        let flushes_before = self.sdt.state.stats.cache_flushes;
        self.sdt.state.ensure_fragment_flushing(
            self.sdt.machine.mem_mut(),
            app_pc,
            FragKind::Body,
        )?;
        self.charge_translator(self.sdt.state.stats.translated_app_instrs - before, 1);
        if self.sdt.state.stats.cache_flushes > flushes_before {
            self.clear_sim();
        }
        Ok(())
    }

    /// Walks a direct-branch exit trampoline: a linked head (patched into
    /// a direct jump) is a hit; an unlinked head traps into the translator
    /// exactly as the emitted context save would.
    fn traverse_exit(&mut self, site: u32, target: u32) -> Result<(), SdtError> {
        let Some(&Site::Exit { patch_addr, .. }) = self.sdt.state.sites.get(site as usize) else {
            return Err(SdtError::ReplayDesync {
                pc: target,
                detail: format!("exit site {site} unknown"),
            });
        };
        let head = self.sdt.machine.mem().read_u32(patch_addr)?;
        if strata_isa::is_jmp(head) {
            return Ok(());
        }
        self.service_miss(target, site)?;
        Ok(())
    }

    /// One indirect dispatch through strategy binding `bind`: probe the
    /// structures the emitted sequence reads; on a miss, trap into the
    /// real handler and mirror any sieve install.
    fn dispatch_ib(&mut self, bind: usize, site: Option<u32>, target: u32) -> Result<(), SdtError> {
        if self.probe_ib(bind, site, target)? {
            return Ok(());
        }
        // Route the miss as the emitted miss path would: per-site paths
        // store their site id; shared structures — and sieve-stage
        // adaptive probes, whose chains end in the binding's glue — store
        // the binding sentinel.
        let shared_word = if self.sdt.state.binds[bind].glue.is_some() {
            bind_sentinel(bind)
        } else {
            SITE_SHARED
        };
        let site_word = match site {
            Some(s) => match self.sdt.state.sites[s as usize] {
                Site::Adaptive { idx, .. }
                    if matches!(
                        self.sdt.state.adaptive[idx as usize].stage,
                        AdaptiveStage::Sieve
                    ) =>
                {
                    shared_word
                }
                _ => s,
            },
            None => shared_word,
        };
        // A predictive site still observing before this service: if the
        // service promotes it, the stanzas installed are exactly its
        // recorded targets — not necessarily this one (the tracked set
        // is capped).
        let was_observe = match site {
            Some(s) => match self.sdt.state.sites[s as usize] {
                Site::Adaptive { idx, .. } => matches!(
                    self.sdt.state.adaptive[idx as usize].stage,
                    AdaptiveStage::Observe
                ),
                _ => false,
            },
            None => false,
        };
        let flushed = self.service_miss(target, site_word)?;
        if flushed {
            return Ok(());
        }
        // Mirror stanza installs: a miss serviced by (or promoting into)
        // a sieve appended a chain entry for this target.
        let now_sieve = match site {
            None => match self.sdt.state.binds[bind].spec {
                StrategySpec::Sieve { .. }
                | StrategySpec::Adaptive { .. }
                | StrategySpec::Predictive { .. } => true,
                StrategySpec::Ibtc { .. } | StrategySpec::Reentry => false,
            },
            Some(s) => match self.sdt.state.sites[s as usize] {
                Site::Adaptive { idx, .. } => matches!(
                    self.sdt.state.adaptive[idx as usize].stage,
                    AdaptiveStage::Sieve
                ),
                _ => false,
            },
        };
        if now_sieve {
            if was_observe {
                // The service crossed a predictive promotion: mirror the
                // pre-installed hottest-first stanzas, which cover this
                // target only if it made the tracked set.
                if let Some(s) = site {
                    if let Site::Adaptive { idx, .. } = self.sdt.state.sites[s as usize] {
                        let targets = self.sdt.state.adaptive[idx as usize].targets.clone();
                        for t in targets {
                            self.sim_sieve.insert((bind, t));
                        }
                    }
                }
            } else {
                self.sim_sieve.insert((bind, target));
            }
        }
        Ok(())
    }

    /// Whether the dispatch structure serving (`bind`, `site`) currently
    /// hits for `target`, reading the same guest state the emitted probe
    /// sequence reads.
    fn probe_ib(&self, bind: usize, site: Option<u32>, target: u32) -> Result<bool, SdtError> {
        let st = &self.sdt.state;
        let mem = self.sdt.machine.mem();
        let hit = match site {
            // A site-less dispatch probes the binding's shared structure.
            None => match st.binds[bind].spec {
                StrategySpec::Sieve { .. }
                | StrategySpec::Adaptive { .. }
                | StrategySpec::Predictive { .. } => self.sim_sieve.contains(&(bind, target)),
                StrategySpec::Ibtc { .. } => {
                    let table = st.binds[bind].table.expect("shared table allocated");
                    probe_tagged(mem, table, target)?
                }
                StrategySpec::Reentry => false,
            },
            Some(s) => match st.sites[s as usize] {
                // Translator re-entry: every dispatch is a full context
                // switch (the runtime never fills anything).
                Site::Ib { table: None, .. } => false,
                Site::Ib {
                    table: Some(base), ..
                } => {
                    let (entries, ways) = st.binds[bind]
                        .spec
                        .site_table_geometry()
                        .expect("per-site table has a geometry");
                    probe_tagged(mem, ibtc_table_ref(base, entries, ways)?, target)?
                }
                Site::Adaptive { idx, .. } => {
                    let a = &st.adaptive[idx as usize];
                    match a.stage {
                        AdaptiveStage::Inline { .. } => a.targets.first() == Some(&target),
                        AdaptiveStage::Ibtc { table } => probe_tagged(mem, table, target)?,
                        AdaptiveStage::Sieve => self.sim_sieve.contains(&(bind, target)),
                        // An observing predictive site traps every
                        // dispatch by construction.
                        AdaptiveStage::Observe => false,
                    }
                }
                Site::Exit { .. } => {
                    return Err(SdtError::ReplayDesync {
                        pc: target,
                        detail: format!("indirect dispatch through exit site {s}"),
                    });
                }
            },
        };
        Ok(hit)
    }

    /// Stages `SLOT_TARGET`/`SLOT_SITE` like the emitted miss tail and
    /// runs the real `TRAP_MISS` handler. Returns whether the handler
    /// flushed the cache (invalidating every host-side mirror).
    fn service_miss(&mut self, target: u32, site_word: u32) -> Result<bool, SdtError> {
        let mem = self.sdt.machine.mem_mut();
        mem.write_u32(SLOT_TARGET, target)?;
        mem.write_u32(SLOT_SITE, site_word)?;
        let flushes_before = self.sdt.state.stats.cache_flushes;
        let w = self.sdt.state.handle_trap_miss(&mut self.sdt.machine)?;
        self.charge_translator(w.new_instrs, w.lookups);
        let flushed = self.sdt.state.stats.cache_flushes > flushes_before;
        if flushed {
            self.clear_sim();
        }
        Ok(flushed)
    }

    /// Stages `SLOT_TARGET` and runs the real `TRAP_RC_MISS` handler.
    fn service_rc_miss(&mut self, target: u32) -> Result<(), SdtError> {
        self.sdt.machine.mem_mut().write_u32(SLOT_TARGET, target)?;
        let flushes_before = self.sdt.state.stats.cache_flushes;
        let w = self.sdt.state.handle_trap_rc_miss(&mut self.sdt.machine)?;
        self.charge_translator(w.new_instrs, w.lookups);
        if self.sdt.state.stats.cache_flushes > flushes_before {
            self.clear_sim();
        }
        Ok(())
    }

    /// A cache flush discarded every fragment, site, and stanza chain and
    /// zeroed the guest shadow stack; drop the host-side mirrors with
    /// them.
    fn clear_sim(&mut self) {
        self.sim_sieve.clear();
        self.shadow_slots.fill(0);
        self.shadow_sp = 0;
    }

    /// Pushes a shadow-stack entry (no-op unless shadow returns are
    /// configured), mirroring the emitted circular-buffer write.
    fn shadow_push(&mut self, ret_app: u32) {
        let depth = self.shadow_slots.len();
        if depth == 0 {
            return;
        }
        self.shadow_slots[self.shadow_sp] = ret_app;
        self.shadow_sp = (self.shadow_sp + 1) % depth;
    }

    /// Pops the shadow stack, mirroring the emitted pre-decrement read.
    fn shadow_pop(&mut self) -> u32 {
        let depth = self.shadow_slots.len();
        debug_assert!(depth > 0, "shadow pop without a shadow stack");
        self.shadow_sp = (self.shadow_sp + depth - 1) % depth;
        self.shadow_slots[self.shadow_sp]
    }

    /// Mechanism counters in exact-mode shape. After a gap-free walk of a
    /// full trace these equal the exact run's
    /// [`RunReport::mech`](crate::RunReport).
    pub fn stats(&self) -> MechanismStats {
        let c = self.rate_counters();
        self.sdt.state.mechanism_stats(
            [
                c[rate::JUMP_DISPATCHES],
                c[rate::CALL_DISPATCHES],
                c[rate::RET_DISPATCHES],
            ],
            c[rate::IB_MISSES],
            c[rate::RC_MISSES],
        )
    }

    /// Per-branch-class dispatch breakdown, exact-mode shape.
    pub fn per_class(&self) -> Vec<ClassReport> {
        let c = self.rate_counters();
        self.sdt.state.class_reports(std::array::from_fn(|row| {
            let (dispatches, misses) = rate::class(row);
            (c[dispatches], c[misses])
        }))
    }

    /// The counters sampled replay extrapolates, cheap enough to read
    /// around every measured interval and laid out as [`rate`] names
    /// them, with the first model's mispredicts. [`stats`](Self::stats)
    /// and [`per_class`](Self::per_class) report these numbers; the three
    /// `*_MISPREDICTS` sum to the model's
    /// [`indirect_mispredicts`](ArchModel::indirect_mispredicts).
    pub fn rate_counters(&self) -> [u64; rate::COUNT] {
        self.rate_counters_of(0)
    }

    /// [`rate_counters`](Self::rate_counters) with the mispredicts of
    /// model `model` (an index into the models the replay was built
    /// with); every other counter is the same for all models.
    ///
    /// # Panics
    ///
    /// Panics if `model` is out of range.
    pub fn rate_counters_of(&self, model: usize) -> [u64; rate::COUNT] {
        let st = &self.sdt.state;
        let mut c = [0; rate::COUNT];
        c[rate::IB_DISPATCHES] = self.jump_dispatches + self.call_dispatches;
        c[rate::JUMP_DISPATCHES] = self.jump_dispatches;
        c[rate::CALL_DISPATCHES] = self.call_dispatches;
        c[rate::RET_DISPATCHES] = self.ret_dispatches;
        c[rate::IB_MISSES] = st.stats.ib_misses;
        c[rate::RC_MISSES] = st.stats.rc_misses;
        let rows = [
            (self.jump_dispatches, st.binds[st.class_bind[0]].misses),
            (self.call_dispatches, st.binds[st.class_bind[1]].misses),
            (self.ret_dispatches, st.stats.rc_misses),
        ];
        for (row, (dispatched, missed)) in rows.into_iter().enumerate() {
            let (dispatches, misses) = rate::class(row);
            (c[dispatches], c[misses]) = (dispatched, missed);
        }
        [
            c[rate::JUMP_MISPREDICTS],
            c[rate::CALL_MISPREDICTS],
            c[rate::RET_MISPREDICTS],
        ] = self.mispredicts[model];
        c
    }

    /// The (first) model the replay is priced under. The replay charges
    /// it nothing but translator work, so its `trap_cycles` are exact
    /// mode's [`RunReport::translator_cycles`](crate::RunReport)
    /// (translation work plus fragment-map lookups).
    pub fn model(&self) -> &ArchModel {
        self.model_at(0)
    }

    /// Model `model` of the ones the replay is priced under, as
    /// [`model`](Self::model) reads the first.
    ///
    /// # Panics
    ///
    /// Panics if `model` is out of range.
    pub fn model_at(&self, model: usize) -> &ArchModel {
        &self.models[model]
    }
}

/// Probes a tagged IBTC table exactly as the emitted sequence does: one
/// tag compare per way.
fn probe_tagged(mem: &Memory, table: TableRef, target: u32) -> Result<bool, SdtError> {
    let e = table.entry_addr(target);
    Ok(match table.entry_bytes {
        8 => mem.read_u32(e)? == target,
        16 => mem.read_u32(e)? == target || mem.read_u32(e + 8)? == target,
        other => unreachable!("tagged probe of {other}-byte entries"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_arch::ArchProfile;
    use strata_isa::{decode, Instr};
    use strata_stats::rng::SmallRng;

    #[test]
    fn the_link_test_agrees_with_the_decoder() {
        // `traverse_exit` asks `is_jmp` of a trampoline head where it
        // used to decode it: same answer for every opcode, whatever the
        // operand bits.
        let mut rng = SmallRng::seed_from_u64(0x114B);
        let mut jumps = 0;
        for opcode in 0..=u8::MAX {
            let lows = [0, 0x00FF_FFFF].into_iter();
            for low in lows.chain((0..64).map(|_| rng.gen_range(0u32..1 << 24))) {
                let word = u32::from(opcode) << 24 | low;
                let decoded = matches!(decode(word), Ok(Instr::Jmp { .. }));
                assert_eq!(strata_isa::is_jmp(word), decoded, "{word:#010x}");
                jumps += usize::from(decoded);
            }
        }
        assert_eq!(jumps, 66, "one opcode is `jmp`");
    }

    #[test]
    fn fragment_metadata_goes_with_a_flush_and_returns_with_translation() {
        let code = strata_asm::assemble(
            strata_machine::layout::APP_BASE,
            "top:\naddi r4, r4, 1\ncmpi r4, 9\nbne top\nhalt\n",
        )
        .expect("assembles");
        let prog = Program::new("loop", code, Vec::new());
        let profile = ArchProfile::x86_like();
        let mut rp = DispatchReplay::new(SdtConfig::ibtc_inline(64), &prog, profile).unwrap();
        let meta = |rp: &DispatchReplay| {
            let table = &rp.sdt.state.frag_meta;
            table.get(prog.entry, FragKind::Body).map(|m| m.term_pc)
        };
        assert_eq!(meta(&rp), None);
        rp.seek(prog.entry).unwrap();
        assert_eq!(meta(&rp), Some(prog.entry + 8));
        let sdt = &mut rp.sdt;
        sdt.state.flush_cache(sdt.machine.mem_mut()).unwrap();
        assert_eq!(meta(&rp), None, "flushed with the fragment");
        rp.seek(prog.entry).unwrap();
        assert_eq!(meta(&rp), Some(prog.entry + 8), "re-translated");
    }

    #[test]
    fn a_fragment_outside_the_code_desyncs_by_that_name() {
        // A guest executing its data gets fragments, but no metadata:
        // the table spans the program's code only.
        let code = strata_asm::assemble(strata_machine::layout::APP_BASE, "halt\n").unwrap();
        let halt = strata_isa::encode(&Instr::Halt).to_le_bytes().to_vec();
        let prog = Program::new("data", code, halt);
        let cfg = SdtConfig::ibtc_inline(64);
        let mut rp = DispatchReplay::new(cfg, &prog, ArchProfile::x86_like()).unwrap();
        rp.seek(prog.data_base).unwrap();
        let ev = CompactRetire {
            pc: prog.data_base,
            kind: strata_isa::ControlKind::Direct,
            taken: true,
            indirect: false,
            target: prog.entry,
            mem: strata_machine::observers::MemClass::None,
        };
        let err = rp.step(&ev).unwrap_err().to_string();
        assert!(err.contains("outside the program's code"), "{err}");
        rp.seek(prog.entry).unwrap();
        let err = rp.step(&ev).unwrap_err().to_string();
        assert!(err.contains("expected terminal"), "{err}");
    }
}
