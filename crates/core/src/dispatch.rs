//! Emission of per-site indirect-branch dispatch sequences.
//!
//! Every sequence follows the register protocol documented in
//! [`crate::protocol`]: spill `r1`–`r3`, capture the target in `r1`,
//! optionally save flags, probe, and either transfer through
//! `jmem [SLOT_JUMP_TARGET]` (hit) or fall into a miss path that completes
//! a full context save and traps into the translator.
//!
//! The probe itself is owned by the mechanism of the branch class's
//! binding ([`StrategySpec`](crate::strategy::StrategySpec)) or, for
//! returns, the configured
//! [`RetMechanism`](crate::config::RetMechanism). This module owns every
//! sequence those probes share, one emitter each:
//!
//! * the dispatch frame — spill prologue, entry mark, call glue, flags
//!   push ([`SdtState::emit_dispatch_frame`]);
//! * the target hash ([`Cache::emit_hash`]);
//! * a tag-compare way ([`Cache::emit_tag_way`]) and the probe of ways,
//!   hit epilogues and miss path built from it
//!   ([`SdtState::emit_tag_probe`]);
//! * the sieve's bucket probe ([`Cache::emit_sieve_probe`]);
//! * the scratch restore — `[popf] ; lwa r1 ; lwa r2 ; lwa r3` —
//!   ([`Cache::emit_scratch_restore`]) and the hit epilogue that ends it
//!   in the jump-slot transfer ([`SdtState::emit_hit_epilogue`]);
//! * the site-id miss glue ([`Cache::emit_site_glue`]).
//!
//! The [`Cache`]-level emitters need nothing but the cache, so the shared
//! stubs and out-of-line routines emitted before any [`SdtState`] exists
//! compose them too. A mechanism composes these emitters, never
//! re-emits one: each sequence has exactly one emission site.

use strata_isa::{Instr, Reg};
use strata_machine::Memory;

use crate::config::{BranchClass, FlagsPolicy};
use crate::emitter::{Cache, Mark};
use crate::fragment::Site;
use crate::protocol::{SLOT_JUMP_TARGET, SLOT_R1, SLOT_R2, SLOT_R3, SLOT_SITE};
use crate::sdt::SdtState;
use crate::tables::TableRef;
use crate::{Origin, SdtError};

/// Builds the [`TableRef`] for an IBTC allocation of `entries` total
/// entries under the given associativity (two-way tables pair entries into
/// 16-byte sets). Rejects degenerate shapes — zero, non-power-of-two, or
/// fewer entries than ways — instead of silently underflowing the mask.
pub(crate) fn ibtc_table_ref(base: u32, entries: u32, ways: u8) -> Result<TableRef, SdtError> {
    if entries == 0 || !entries.is_power_of_two() || entries < ways as u32 {
        return Err(SdtError::BadConfig {
            what: "ibtc table shape",
            detail: format!("{entries} entries x {ways} ways is degenerate"),
        });
    }
    Ok(if ways == 2 {
        TableRef {
            base,
            mask: entries / 2 - 1,
            entry_bytes: 16,
        }
    } else {
        TableRef {
            base,
            mask: entries - 1,
            entry_bytes: 8,
        }
    })
}

/// Where the dispatch sequence finds the application-space branch target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TargetSource {
    /// An indirect jump/call through a register.
    Reg(Reg),
    /// A return: the target is popped from the application stack.
    PoppedReturn,
    /// An application `jmem [addr]`: the target is loaded from memory.
    MemSlot(u32),
}

/// Return-address push glue emitted by indirect calls before dispatching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CallPush {
    /// Not a call.
    None,
    /// Transparent mode: push the application return address.
    AppAddr(u32),
    /// Fast-return mode: push the *translated* return address. The
    /// constant is not yet known; the emitted `li` pair's address is
    /// returned for later patching.
    TranslatedPlaceholder,
    /// Shadow-stack mode: push the application return address on the
    /// application stack *and* an `(app, translated)` pair on the shadow
    /// stack. The translated constant's `li` address is returned for
    /// patching.
    AppAddrWithShadow(u32),
}

impl Cache {
    /// Emits `r2 = table.base + ((r1 >> 2) & mask) << log2(entry_bytes)`
    /// — the hash every mechanism shares. Tables aligned to 64 KiB load
    /// their base with a single `lui` (the shared tables are allocated
    /// that way; per-site tables pay the extra `ori`).
    pub(crate) fn emit_hash(&mut self, mem: &mut Memory, table: TableRef) -> Result<(), SdtError> {
        let d = Origin::Dispatch;
        self.emit(
            mem,
            Instr::Srli {
                rd: Reg::R2,
                rs1: Reg::R1,
                shamt: 2,
            },
            d,
        )?;
        self.emit(
            mem,
            Instr::Andi {
                rd: Reg::R2,
                rs1: Reg::R2,
                imm: table.mask as u16,
            },
            d,
        )?;
        self.emit(
            mem,
            Instr::Slli {
                rd: Reg::R2,
                rs1: Reg::R2,
                shamt: table.entry_bytes.trailing_zeros() as u8,
            },
            d,
        )?;
        if table.base & 0xFFFF == 0 {
            self.emit(
                mem,
                Instr::Lui {
                    rd: Reg::R3,
                    imm: (table.base >> 16) as u16,
                },
                d,
            )?;
        } else {
            self.emit_li(mem, Reg::R3, table.base, d)?;
        }
        self.emit(
            mem,
            Instr::Add {
                rd: Reg::R2,
                rs1: Reg::R2,
                rs2: Reg::R3,
            },
            d,
        )?;
        Ok(())
    }

    /// Emits one tag-compare way over the `{tag, fragment}` pair at
    /// `off(base)`: load the tag into `tag`, compare it with the target in
    /// `r1`, and on a match store the fragment to the jump slot (through
    /// `r3`). Returns the address of the `bne` the caller points at the
    /// next way or the miss path.
    pub(crate) fn emit_tag_way(
        &mut self,
        mem: &mut Memory,
        base: Reg,
        tag: Reg,
        off: i16,
    ) -> Result<u32, SdtError> {
        let d = Origin::Dispatch;
        self.emit(
            mem,
            Instr::Lw {
                rd: tag,
                rs1: base,
                off,
            },
            d,
        )?;
        self.emit(
            mem,
            Instr::Cmp {
                rs1: tag,
                rs2: Reg::R1,
            },
            d,
        )?;
        let bne = self.emit(mem, Instr::Bne { off: 0 }, d)?;
        self.emit(
            mem,
            Instr::Lw {
                rd: Reg::R3,
                rs1: base,
                off: off + 4,
            },
            d,
        )?;
        self.emit(
            mem,
            Instr::Swa {
                rs: Reg::R3,
                addr: SLOT_JUMP_TARGET,
            },
            d,
        )?;
        Ok(bne)
    }

    /// Emits the sieve's bucket probe: hash the target into `table`, load
    /// the bucket's stanza-chain head and transfer to it through the jump
    /// slot. Flags and `r1`–`r3` stay saved for the stanzas.
    pub(crate) fn emit_sieve_probe(
        &mut self,
        mem: &mut Memory,
        table: TableRef,
    ) -> Result<(), SdtError> {
        let d = Origin::Dispatch;
        self.emit_hash(mem, table)?;
        self.emit(
            mem,
            Instr::Lw {
                rd: Reg::R2,
                rs1: Reg::R2,
                off: 0,
            },
            d,
        )?;
        self.emit(
            mem,
            Instr::Swa {
                rs: Reg::R2,
                addr: SLOT_JUMP_TARGET,
            },
            d,
        )?;
        self.emit(
            mem,
            Instr::Jmem {
                addr: SLOT_JUMP_TARGET,
            },
            d,
        )?;
        Ok(())
    }

    /// Emits the scratch restore every dispatch exit shares: pop the
    /// flags word (when `popf`, i.e. under [`FlagsPolicy::Always`]), then
    /// reload `r1`–`r3` from their spill slots.
    pub(crate) fn emit_scratch_restore(
        &mut self,
        mem: &mut Memory,
        popf: bool,
        origin: Origin,
    ) -> Result<(), SdtError> {
        if popf {
            self.emit(mem, Instr::Popf, origin)?;
        }
        for (rd, addr) in [(Reg::R1, SLOT_R1), (Reg::R2, SLOT_R2), (Reg::R3, SLOT_R3)] {
            self.emit(mem, Instr::Lwa { rd, addr }, origin)?;
        }
        Ok(())
    }

    /// Emits site-id miss glue: record `site` (a site id or a sentinel) in
    /// [`SLOT_SITE`] and enter the miss `tail`. Returns the glue's first
    /// address.
    pub(crate) fn emit_site_glue(
        &mut self,
        mem: &mut Memory,
        site: u32,
        tail: u32,
    ) -> Result<u32, SdtError> {
        let o = Origin::ContextSwitch;
        let at = self.emit_li(mem, Reg::R2, site, o)?;
        self.emit(
            mem,
            Instr::Swa {
                rs: Reg::R2,
                addr: SLOT_SITE,
            },
            o,
        )?;
        self.emit(mem, Instr::Jmp { target: tail }, o)?;
        Ok(at)
    }
}

impl SdtState {
    /// Emits the generic indirect-branch dispatch sequence for `class`:
    /// the dispatch frame, then the probe of the class's bound strategy.
    /// Returns the patch address of the translated-return `li` pair when
    /// `push` is [`CallPush::TranslatedPlaceholder`].
    pub(crate) fn emit_ib_dispatch(
        &mut self,
        mem: &mut Memory,
        source: TargetSource,
        push: CallPush,
        class: BranchClass,
    ) -> Result<Option<u32>, SdtError> {
        let push_patch = self.emit_dispatch_frame(mem, source, push, class)?;
        let bind = self.bind_for(class);
        self.binds[bind].spec.emit_probe(self, mem, bind)?;
        Ok(push_patch)
    }

    /// Emits the strategy-independent dispatch frame: spill `r1`–`r3`
    /// with the branch target captured in `r1`, mark the entry with
    /// `class`, emit the call glue, and push the flags under
    /// [`FlagsPolicy::Always`]. Returns the patch address of the
    /// translated-return `li` pair when `push` is
    /// [`CallPush::TranslatedPlaceholder`].
    pub(crate) fn emit_dispatch_frame(
        &mut self,
        mem: &mut Memory,
        source: TargetSource,
        push: CallPush,
        class: BranchClass,
    ) -> Result<Option<u32>, SdtError> {
        let d = Origin::Dispatch;
        let entry = self.cache.emit(
            mem,
            Instr::Swa {
                rs: Reg::R1,
                addr: SLOT_R1,
            },
            d,
        )?;
        match source {
            TargetSource::Reg(rs) => {
                self.cache.emit(mem, Instr::Mov { rd: Reg::R1, rs }, d)?;
            }
            TargetSource::PoppedReturn => {
                self.cache.emit(mem, Instr::Pop { rd: Reg::R1 }, d)?;
            }
            TargetSource::MemSlot(addr) => {
                self.cache.emit_li(mem, Reg::R1, addr, d)?;
                self.cache.emit(
                    mem,
                    Instr::Lw {
                        rd: Reg::R1,
                        rs1: Reg::R1,
                        off: 0,
                    },
                    d,
                )?;
            }
        }
        self.cache.emit(
            mem,
            Instr::Swa {
                rs: Reg::R2,
                addr: SLOT_R2,
            },
            d,
        )?;
        self.cache.emit(
            mem,
            Instr::Swa {
                rs: Reg::R3,
                addr: SLOT_R3,
            },
            d,
        )?;
        let mark = match class {
            BranchClass::Jump => Mark::JumpEntry,
            BranchClass::Call => Mark::CallEntry,
            BranchClass::Ret => Mark::RetEntry,
        };
        self.cache.set_mark(entry, mark);

        // Call glue: push the return address while r2 is free.
        let mut push_patch = None;
        match push {
            CallPush::None => {}
            CallPush::AppAddr(addr) => {
                self.cache.emit_li(mem, Reg::R2, addr, Origin::CallGlue)?;
                self.cache
                    .emit(mem, Instr::Push { rs: Reg::R2 }, Origin::CallGlue)?;
            }
            CallPush::TranslatedPlaceholder => {
                push_patch = Some(self.cache.emit_li(mem, Reg::R2, 0, Origin::CallGlue)?);
                self.cache
                    .emit(mem, Instr::Push { rs: Reg::R2 }, Origin::CallGlue)?;
            }
            CallPush::AppAddrWithShadow(addr) => {
                self.cache.emit_li(mem, Reg::R2, addr, Origin::CallGlue)?;
                self.cache
                    .emit(mem, Instr::Push { rs: Reg::R2 }, Origin::CallGlue)?;
                push_patch = Some(crate::strategy::shadow::emit_shadow_push(self, mem, addr)?);
            }
        }

        if self.cfg.flags == FlagsPolicy::Always {
            self.cache.emit(mem, Instr::Pushf, d)?;
        }
        Ok(push_patch)
    }

    /// Emits a probe of `ways` tag-compare ways over the `{tag, fragment}`
    /// pairs `base` points at (way `i` at byte offset `8 * i`), each hit
    /// leaving through its own epilogue so an early hit pays nothing for
    /// the later ways, then the miss path: `site`'s miss glue when the
    /// probe belongs to a site, a jump to `glue` otherwise.
    pub(crate) fn emit_tag_probe(
        &mut self,
        mem: &mut Memory,
        base: Reg,
        tag: Reg,
        ways: u8,
        site: Option<u32>,
        glue: u32,
    ) -> Result<(), SdtError> {
        for way in 0..ways {
            let bne = self.cache.emit_tag_way(mem, base, tag, 8 * way as i16)?;
            self.close_way(mem, bne)?;
        }
        match site {
            Some(id) => {
                self.cache
                    .emit_site_glue(mem, id, self.stubs.miss_tail_stack_flags)?;
            }
            None => {
                self.cache
                    .emit(mem, Instr::Jmp { target: glue }, Origin::ContextSwitch)?;
            }
        }
        Ok(())
    }

    /// Ends a compare way whose fragment is already in the jump slot:
    /// emits the hit epilogue and points the way's `bne` at whatever the
    /// caller emits next (the next way or the miss path).
    pub(crate) fn close_way(&mut self, mem: &mut Memory, bne: u32) -> Result<(), SdtError> {
        self.emit_hit_epilogue(mem)?;
        let next = self.cache.addr();
        self.cache
            .patch_branch(mem, bne, Instr::Bne { off: 0 }, next)
    }

    /// Restores flags and `r1`–`r3`, then transfers through the jump slot.
    pub(crate) fn emit_hit_epilogue(&mut self, mem: &mut Memory) -> Result<(), SdtError> {
        let d = Origin::Dispatch;
        let popf = self.cfg.flags == FlagsPolicy::Always;
        self.cache.emit_scratch_restore(mem, popf, d)?;
        self.cache.emit(
            mem,
            Instr::Jmem {
                addr: SLOT_JUMP_TARGET,
            },
            d,
        )?;
        Ok(())
    }

    pub(crate) fn new_site(&mut self, site: Site) -> u32 {
        self.sites.push(site);
        (self.sites.len() - 1) as u32
    }
}
