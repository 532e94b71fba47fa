//! The basic-block translator: decodes application code and emits
//! fragments into the cache. Indirect control transfers are delegated to
//! the mechanism of the branch class's binding
//! ([`StrategySpec`](crate::strategy::StrategySpec), jumps/calls) or the
//! configured [`RetMechanism`](crate::config::RetMechanism) (returns,
//! direct-call return glue).

use strata_isa::{Instr, Reg};
use strata_machine::syscall::SDT_TRAP_BASE;
use strata_machine::Memory;

use crate::config::BranchClass;
use crate::dispatch::{CallPush, TargetSource};
use crate::fragment::{FragKind, FragMeta, Fragment, Site, Terminal};
use crate::protocol::{SLOT_R1, SLOT_R2, SLOT_R3, SLOT_SITE};
use crate::sdt::SdtState;
use crate::{Origin, SdtError};

impl SdtState {
    /// Returns the fragment for (`app_addr`, `kind`), translating it (and,
    /// under fast returns, any fall-through return-site fragments) on
    /// first request.
    pub(crate) fn ensure_fragment(
        &mut self,
        mem: &mut Memory,
        app_addr: u32,
        kind: FragKind,
    ) -> Result<Fragment, SdtError> {
        if let Some(f) = self.map.get(app_addr, kind) {
            return Ok(f);
        }
        self.translate_fragment(mem, app_addr, kind)
    }

    pub(crate) fn translate_fragment(
        &mut self,
        mem: &mut Memory,
        app_addr: u32,
        kind: FragKind,
    ) -> Result<Fragment, SdtError> {
        // The exit-site scratch is per-invocation: nested translations
        // (fast-return fall-through fragments, shadow return sites) must
        // not leak their exits into this fragment's terminal record.
        let saved = std::mem::take(&mut self.exit_scratch);
        let result = self.translate_fragment_inner(mem, app_addr, kind);
        self.exit_scratch = saved;
        result
    }

    fn translate_fragment_inner(
        &mut self,
        mem: &mut Memory,
        app_addr: u32,
        kind: FragKind,
    ) -> Result<Fragment, SdtError> {
        let entry = self.cache.addr();

        // Return-point fragments begin with the return-cache verification
        // prologue, then the restore sequence the dispatch skipped.
        let restore_entry = match kind {
            FragKind::ReturnPoint => {
                let d = Origin::Dispatch;
                self.cache.emit_li(mem, Reg::R2, app_addr, d)?;
                self.cache.emit(
                    mem,
                    Instr::Cmp {
                        rs1: Reg::R1,
                        rs2: Reg::R2,
                    },
                    d,
                )?;
                self.cache.emit(mem, Instr::Beq { off: 1 }, d)?;
                self.cache.emit(
                    mem,
                    Instr::Jmp {
                        target: self.stubs.rc_miss,
                    },
                    d,
                )?;
                let restore = self.cache.addr();
                let popf = self.cfg.flags == crate::FlagsPolicy::Always;
                self.cache.emit_scratch_restore(mem, popf, d)?;
                restore
            }
            FragKind::Body => entry,
        };

        // Injected basic-block counter: bump a per-fragment guest counter
        // without disturbing application state (addi does not touch flags).
        if self.cfg.instrument_blocks {
            let slot = self.alloc.alloc(4, 4)?;
            mem.write_u32(slot, 0)?; // the slot may be recycled post-flush
            self.block_counters.push((app_addr, slot));
            let o = Origin::Instrumentation;
            self.cache.emit(
                mem,
                Instr::Swa {
                    rs: Reg::R1,
                    addr: SLOT_R1,
                },
                o,
            )?;
            self.cache.emit(
                mem,
                Instr::Swa {
                    rs: Reg::R2,
                    addr: SLOT_R2,
                },
                o,
            )?;
            self.cache.emit_li(mem, Reg::R1, slot, o)?;
            self.cache.emit(
                mem,
                Instr::Lw {
                    rd: Reg::R2,
                    rs1: Reg::R1,
                    off: 0,
                },
                o,
            )?;
            self.cache.emit(
                mem,
                Instr::Addi {
                    rd: Reg::R2,
                    rs1: Reg::R2,
                    imm: 1,
                },
                o,
            )?;
            self.cache.emit(
                mem,
                Instr::Sw {
                    rs2: Reg::R2,
                    rs1: Reg::R1,
                    off: 0,
                },
                o,
            )?;
            self.cache.emit(
                mem,
                Instr::Lwa {
                    rd: Reg::R1,
                    addr: SLOT_R1,
                },
                o,
            )?;
            self.cache.emit(
                mem,
                Instr::Lwa {
                    rd: Reg::R2,
                    addr: SLOT_R2,
                },
                o,
            )?;
        }

        let body = self.cache.addr();
        let frag = Fragment {
            entry,
            restore_entry,
            body,
        };
        // Register before translating the body so fall-through recursion
        // (fast returns) terminates.
        self.map.insert(app_addr, kind, frag);
        self.stats.fragments += 1;

        let mut pc = app_addr;
        // Block starts already inlined into this fragment (jump elision).
        let mut elided: Vec<u32> = vec![app_addr];
        // Application pcs of the elided jumps themselves (for replay).
        let mut elided_jmp_pcs: Vec<u32> = Vec::new();
        let (term_pc, terminal) = loop {
            let instr = mem.fetch(pc)?;
            let next = pc + 4;
            self.stats.translated_app_instrs += 1;
            match instr {
                Instr::Trap { code } if code >= SDT_TRAP_BASE => {
                    return Err(SdtError::ReservedTrap { code, pc });
                }
                Instr::Beq { .. }
                | Instr::Bne { .. }
                | Instr::Blt { .. }
                | Instr::Bge { .. }
                | Instr::Bltu { .. }
                | Instr::Bgeu { .. } => {
                    let off = branch_off(instr);
                    let taken = next.wrapping_add((off as i32 as u32).wrapping_mul(4));
                    let bxx = self.cache.emit(mem, instr, Origin::App)?;
                    let scratch_base = self.exit_scratch.len();
                    self.emit_exit(mem, next)?;
                    let taken_head = self.emit_exit(mem, taken)?;
                    self.cache.patch_branch(mem, bxx, instr, taken_head)?;
                    break (
                        pc,
                        Terminal::Cond {
                            next_site: self.exit_scratch[scratch_base],
                            taken_site: self.exit_scratch[scratch_base + 1],
                        },
                    );
                }
                Instr::Jmp { target } => {
                    // Jump elision: keep translating at the target instead
                    // of ending the fragment, unless the target is already
                    // part of this fragment (a loop), already has its own
                    // fragment, or the duplication budget is spent.
                    if self.cfg.elide_direct_jumps
                        && elided.len() < 16
                        && !elided.contains(&target)
                        && self.map.get(target, FragKind::Body).is_none()
                    {
                        elided.push(target);
                        elided_jmp_pcs.push(pc);
                        self.stats.elided_jumps += 1;
                        pc = target;
                        continue;
                    }
                    let scratch_base = self.exit_scratch.len();
                    self.emit_exit(mem, target)?;
                    break (
                        pc,
                        Terminal::DirectJump {
                            site: self.exit_scratch[scratch_base],
                        },
                    );
                }
                Instr::Call { target } => {
                    let scratch_base = self.exit_scratch.len();
                    self.cfg.ret.emit_direct_call(self, mem, target, next)?;
                    debug_assert_eq!(
                        self.exit_scratch.len(),
                        scratch_base + 1,
                        "direct-call glue emits exactly one exit at this level"
                    );
                    break (
                        pc,
                        Terminal::DirectCall {
                            site: self.exit_scratch[scratch_base],
                            ret_app: next,
                        },
                    );
                }
                Instr::Callr { rs } => {
                    let push = self.cfg.ret.call_push(next);
                    let sites_before = self.sites.len();
                    let patch =
                        self.emit_ib_dispatch(mem, TargetSource::Reg(rs), push, BranchClass::Call)?;
                    let site = (self.sites.len() > sites_before).then_some(sites_before as u32);
                    if let Some(at) = patch {
                        let ret_frag = self.ensure_fragment(mem, next, FragKind::Body)?;
                        self.cache.patch_li(mem, at, Reg::R2, ret_frag.entry)?;
                    }
                    break (
                        pc,
                        Terminal::IndirectCall {
                            site,
                            ret_app: next,
                        },
                    );
                }
                Instr::Jr { rs } => {
                    let sites_before = self.sites.len();
                    self.emit_ib_dispatch(
                        mem,
                        TargetSource::Reg(rs),
                        CallPush::None,
                        BranchClass::Jump,
                    )?;
                    let site = (self.sites.len() > sites_before).then_some(sites_before as u32);
                    break (pc, Terminal::IndirectJump { site });
                }
                Instr::Jmem { addr } => {
                    let sites_before = self.sites.len();
                    self.emit_ib_dispatch(
                        mem,
                        TargetSource::MemSlot(addr),
                        CallPush::None,
                        BranchClass::Jump,
                    )?;
                    let site = (self.sites.len() > sites_before).then_some(sites_before as u32);
                    break (pc, Terminal::IndirectJump { site });
                }
                Instr::Ret => {
                    let sites_before = self.sites.len();
                    self.cfg.ret.emit_ret(self, mem)?;
                    let site = (self.sites.len() > sites_before).then_some(sites_before as u32);
                    break (pc, Terminal::Ret { site });
                }
                Instr::Halt => {
                    self.cache.emit(mem, Instr::Halt, Origin::App)?;
                    break (pc, Terminal::Halt);
                }
                other => {
                    self.cache.emit(mem, other, Origin::App)?;
                    pc = next;
                }
            }
        };
        self.frag_meta.insert(
            app_addr,
            kind,
            FragMeta {
                term_pc,
                elided_jmp_pcs,
                terminal,
            },
        );
        Ok(frag)
    }

    /// Emits the transparent direct-call glue shared by every return
    /// mechanism that keeps application return addresses on the stack:
    /// push the application return address and exit to the callee.
    pub(crate) fn emit_transparent_direct_call(
        &mut self,
        mem: &mut Memory,
        target: u32,
        ret_app: u32,
    ) -> Result<(), SdtError> {
        let g = Origin::CallGlue;
        self.cache.emit(
            mem,
            Instr::Swa {
                rs: Reg::R1,
                addr: SLOT_R1,
            },
            g,
        )?;
        self.cache.emit_li(mem, Reg::R1, ret_app, g)?;
        self.cache.emit(mem, Instr::Push { rs: Reg::R1 }, g)?;
        self.cache.emit(
            mem,
            Instr::Lwa {
                rd: Reg::R1,
                addr: SLOT_R1,
            },
            g,
        )?;
        self.emit_exit(mem, target)?;
        Ok(())
    }

    /// Emits a direct-branch exit trampoline for `target` and returns its
    /// head address. The head starts as the first instruction of a full
    /// context save + trap; when the runtime links the exit it patches the
    /// head into a direct jump to the target fragment.
    pub(crate) fn emit_exit(&mut self, mem: &mut Memory, target: u32) -> Result<u32, SdtError> {
        let o = Origin::ContextSwitch;
        let head = self.cache.emit(
            mem,
            Instr::Swa {
                rs: Reg::R1,
                addr: SLOT_R1,
            },
            o,
        )?;
        let site = self.new_site(Site::Exit {
            target,
            patch_addr: head,
        });
        self.exit_scratch.push(site);
        self.cache.emit_li(mem, Reg::R1, target, o)?;
        self.cache.emit(
            mem,
            Instr::Swa {
                rs: Reg::R2,
                addr: SLOT_R2,
            },
            o,
        )?;
        self.cache.emit_li(mem, Reg::R2, site, o)?;
        self.cache.emit(
            mem,
            Instr::Swa {
                rs: Reg::R2,
                addr: SLOT_SITE,
            },
            o,
        )?;
        self.cache.emit(
            mem,
            Instr::Swa {
                rs: Reg::R3,
                addr: SLOT_R3,
            },
            o,
        )?;
        self.cache.emit(
            mem,
            Instr::Jmp {
                target: self.stubs.miss_tail_reg_flags,
            },
            o,
        )?;
        Ok(head)
    }
}

fn branch_off(instr: Instr) -> i16 {
    match instr {
        Instr::Beq { off }
        | Instr::Bne { off }
        | Instr::Blt { off }
        | Instr::Bge { off }
        | Instr::Bltu { off }
        | Instr::Bgeu { off } => off,
        other => unreachable!("not a conditional branch: {other:?}"),
    }
}
