use strata_isa::{encode, Instr, Reg};
use strata_machine::Memory;

use crate::{Origin, SdtError};

/// Per-word execution marker used for dispatch-rate accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Mark {
    #[default]
    None,
    /// First instruction of an indirect-jump dispatch sequence.
    JumpEntry,
    /// First instruction of an indirect-call dispatch sequence.
    CallEntry,
    /// First instruction of a return dispatch sequence.
    RetEntry,
}

/// The fragment cache: an emit cursor over a guest-memory region, plus
/// per-word [`Origin`] tags and execution [`Mark`]s.
///
/// All methods take the guest [`Memory`] explicitly so the cache
/// bookkeeping and the machine can be borrowed independently.
#[derive(Debug)]
pub(crate) struct Cache {
    base: u32,
    cursor: u32,
    limit: u32,
    /// `(origin, mark)` per *emitted* cache word (it grows and shrinks
    /// with the cursor) — one vector, so the retire path pays one bounds
    /// check for both ([`Cache::tags_at`]).
    tags: Vec<(Origin, Mark)>,
}

impl Cache {
    pub fn new(base: u32, bytes: u32) -> Cache {
        Cache {
            base,
            cursor: base,
            limit: base + bytes,
            tags: Vec::new(),
        }
    }

    /// Address the next emitted instruction will occupy.
    pub fn addr(&self) -> u32 {
        self.cursor
    }

    /// Bytes of cache space used so far.
    pub fn used_bytes(&self) -> u32 {
        self.cursor - self.base
    }

    /// Resets the emit cursor to `addr` (a flush), dropping the origin
    /// tags and marks of everything at or beyond it. Stubs emitted below
    /// `addr` survive.
    pub fn reset_to(&mut self, addr: u32) {
        debug_assert!(addr >= self.base && addr <= self.cursor && addr.is_multiple_of(4));
        self.tags.truncate(((addr - self.base) / 4) as usize);
        self.cursor = addr;
    }

    #[inline]
    fn slot(&self, addr: u32) -> usize {
        debug_assert!(addr >= self.base && addr < self.limit && addr.is_multiple_of(4));
        ((addr - self.base) / 4) as usize
    }

    /// Origin tag and execution mark of the instruction at `pc`, if one
    /// has been emitted there. An address below `base` wraps to a slot
    /// past the end, so the slice lookup is the only range check.
    #[inline(always)]
    pub fn tags_at(&self, pc: u32) -> Option<(Origin, Mark)> {
        self.tags
            .get((pc.wrapping_sub(self.base) / 4) as usize)
            .copied()
    }

    /// Origin tag of the instruction at `pc`, if one has been emitted there.
    pub fn origin_at(&self, pc: u32) -> Option<Origin> {
        self.tags_at(pc).map(|(origin, _)| origin)
    }

    /// Marks the instruction at `addr` (typically a dispatch entry).
    pub fn set_mark(&mut self, addr: u32, mark: Mark) {
        let slot = self.slot(addr);
        self.tags[slot].1 = mark;
    }

    /// Emits one instruction, returning its address.
    ///
    /// # Errors
    ///
    /// Returns [`SdtError::CacheFull`] when the region is exhausted.
    pub fn emit(
        &mut self,
        mem: &mut Memory,
        instr: Instr,
        origin: Origin,
    ) -> Result<u32, SdtError> {
        if self.cursor >= self.limit {
            return Err(SdtError::CacheFull {
                capacity: self.limit - self.base,
            });
        }
        let addr = self.cursor;
        mem.write_u32(addr, encode(&instr))?;
        self.tags.push((origin, Mark::None));
        self.cursor += 4;
        Ok(addr)
    }

    /// Emits a `lui`+`ori` pair loading `value` into `rd`; returns the
    /// address of the `lui` (pass it to [`Cache::patch_li`] to change the
    /// constant later).
    ///
    /// # Errors
    ///
    /// Returns [`SdtError::CacheFull`] when the region is exhausted.
    pub fn emit_li(
        &mut self,
        mem: &mut Memory,
        rd: Reg,
        value: u32,
        origin: Origin,
    ) -> Result<u32, SdtError> {
        let at = self.emit(
            mem,
            Instr::Lui {
                rd,
                imm: (value >> 16) as u16,
            },
            origin,
        )?;
        self.emit(
            mem,
            Instr::Ori {
                rd,
                rs1: rd,
                imm: (value & 0xFFFF) as u16,
            },
            origin,
        )?;
        Ok(at)
    }

    /// Overwrites the instruction at `addr` (used for fragment linking),
    /// optionally retagging its origin.
    pub fn patch(
        &mut self,
        mem: &mut Memory,
        addr: u32,
        instr: Instr,
        origin: Option<Origin>,
    ) -> Result<(), SdtError> {
        mem.write_u32(addr, encode(&instr))?;
        if let Some(o) = origin {
            let slot = self.slot(addr);
            self.tags[slot].0 = o;
        }
        Ok(())
    }

    /// Rewrites the constant of a `lui`+`ori` pair previously emitted with
    /// [`Cache::emit_li`] for register `rd`.
    pub fn patch_li(
        &mut self,
        mem: &mut Memory,
        at: u32,
        rd: Reg,
        value: u32,
    ) -> Result<(), SdtError> {
        mem.write_u32(
            at,
            encode(&Instr::Lui {
                rd,
                imm: (value >> 16) as u16,
            }),
        )?;
        mem.write_u32(
            at + 4,
            encode(&Instr::Ori {
                rd,
                rs1: rd,
                imm: (value & 0xFFFF) as u16,
            }),
        )?;
        Ok(())
    }

    /// Patches the conditional branch at `branch_addr` (emitted with a
    /// placeholder offset) to target `target_addr`.
    ///
    /// # Panics
    ///
    /// Panics if the distance does not fit the i16 word-offset field —
    /// dispatch sequences are short, so this is a code-generator bug, not a
    /// runtime condition.
    pub fn patch_branch(
        &mut self,
        mem: &mut Memory,
        branch_addr: u32,
        template: Instr,
        target_addr: u32,
    ) -> Result<(), SdtError> {
        let delta = (target_addr as i64 - (branch_addr as i64 + 4)) / 4;
        let off = i16::try_from(delta).expect("intra-sequence branch distance fits i16");
        let patched = match template {
            Instr::Beq { .. } => Instr::Beq { off },
            Instr::Bne { .. } => Instr::Bne { off },
            Instr::Blt { .. } => Instr::Blt { off },
            Instr::Bge { .. } => Instr::Bge { off },
            Instr::Bltu { .. } => Instr::Bltu { off },
            Instr::Bgeu { .. } => Instr::Bgeu { off },
            other => unreachable!("patch_branch on non-branch {other:?}"),
        };
        mem.write_u32(branch_addr, encode(&patched))?;
        Ok(())
    }
}

/// Bump allocator over the guest lookup-table region.
#[derive(Debug)]
pub(crate) struct TableAlloc {
    cursor: u32,
    limit: u32,
    /// The highest the cursor has been: resets do not lower it.
    peak: u32,
}

impl TableAlloc {
    pub fn new(base: u32, limit: u32) -> TableAlloc {
        TableAlloc {
            cursor: base,
            limit,
            peak: base,
        }
    }

    /// Allocates `bytes` aligned to `align` (a power of two).
    ///
    /// # Errors
    ///
    /// Returns [`SdtError::TableSpaceExhausted`] when the region is full.
    pub fn alloc(&mut self, bytes: u32, align: u32) -> Result<u32, SdtError> {
        debug_assert!(align.is_power_of_two());
        let start = (self.cursor + align - 1) & !(align - 1);
        let end = start.saturating_add(bytes);
        if end > self.limit {
            return Err(SdtError::TableSpaceExhausted { requested: bytes });
        }
        self.cursor = end;
        self.peak = self.peak.max(end);
        Ok(start)
    }

    /// Bytes of table space used.
    pub fn used_bytes(&self) -> u32 {
        self.cursor
    }

    /// The most table space ever used, across resets.
    pub fn peak_bytes(&self) -> u32 {
        self.peak
    }

    /// Resets the bump pointer to `addr` (frees every allocation at or
    /// beyond it).
    pub fn reset_to(&mut self, addr: u32) {
        debug_assert!(addr <= self.cursor);
        self.cursor = addr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_isa::decode;

    #[test]
    fn emit_advances_and_tags() {
        let mut mem = Memory::new(0x1000);
        let mut cache = Cache::new(0x100, 0x100);
        let a0 = cache.emit(&mut mem, Instr::Nop, Origin::App).unwrap();
        let a1 = cache.emit(&mut mem, Instr::Halt, Origin::Dispatch).unwrap();
        assert_eq!(a0, 0x100);
        assert_eq!(a1, 0x104);
        assert_eq!(cache.origin_at(0x100), Some(Origin::App));
        assert_eq!(cache.origin_at(0x104), Some(Origin::Dispatch));
        assert_eq!(cache.origin_at(0x99), None);
        assert_eq!(cache.used_bytes(), 8);
    }

    #[test]
    fn cache_full_detected() {
        let mut mem = Memory::new(0x1000);
        let mut cache = Cache::new(0x100, 8);
        cache.emit(&mut mem, Instr::Nop, Origin::App).unwrap();
        cache.emit(&mut mem, Instr::Nop, Origin::App).unwrap();
        assert!(matches!(
            cache.emit(&mut mem, Instr::Nop, Origin::App),
            Err(SdtError::CacheFull { .. })
        ));
    }

    #[test]
    fn li_emit_and_patch() {
        let mut mem = Memory::new(0x1000);
        let mut cache = Cache::new(0x100, 0x100);
        let at = cache
            .emit_li(&mut mem, Reg::R2, 0xAABB_CCDD, Origin::CallGlue)
            .unwrap();
        assert_eq!(
            decode(mem.read_u32(at).unwrap()).unwrap(),
            Instr::Lui {
                rd: Reg::R2,
                imm: 0xAABB
            }
        );
        cache.patch_li(&mut mem, at, Reg::R2, 0x1122_3344).unwrap();
        assert_eq!(
            decode(mem.read_u32(at + 4).unwrap()).unwrap(),
            Instr::Ori {
                rd: Reg::R2,
                rs1: Reg::R2,
                imm: 0x3344
            }
        );
    }

    #[test]
    fn branch_patching() {
        let mut mem = Memory::new(0x1000);
        let mut cache = Cache::new(0x100, 0x100);
        let b = cache
            .emit(&mut mem, Instr::Bne { off: 0 }, Origin::Dispatch)
            .unwrap();
        for _ in 0..3 {
            cache.emit(&mut mem, Instr::Nop, Origin::Dispatch).unwrap();
        }
        let target = cache.addr();
        cache.emit(&mut mem, Instr::Halt, Origin::Dispatch).unwrap();
        cache
            .patch_branch(&mut mem, b, Instr::Bne { off: 0 }, target)
            .unwrap();
        assert_eq!(
            decode(mem.read_u32(b).unwrap()).unwrap(),
            Instr::Bne { off: 3 }
        );
    }

    #[test]
    fn marks() {
        let mut mem = Memory::new(0x1000);
        let mut cache = Cache::new(0x100, 0x100);
        let a = cache.emit(&mut mem, Instr::Nop, Origin::Dispatch).unwrap();
        cache.set_mark(a, Mark::JumpEntry);
        assert_eq!(cache.tags_at(a), Some((Origin::Dispatch, Mark::JumpEntry)));
        assert_eq!(cache.tags_at(a + 4), None, "nothing emitted there yet");
        assert_eq!(cache.tags_at(0), None, "below the base");
        assert_eq!(cache.tags_at(0x200), None, "at the limit");
    }

    #[test]
    fn tags_after_a_flush_and_re_emit_equal_a_fresh_caches() {
        let mut mem = Memory::new(0x1000);
        // A stub that survives the flush, then `body` with a mark on its
        // second word.
        let fill = |cache: &mut Cache, mem: &mut Memory, body: &[Origin]| {
            let mut at = Vec::new();
            for &origin in body {
                at.push(cache.emit(mem, Instr::Nop, origin).unwrap());
            }
            cache.set_mark(at[1], Mark::RetEntry);
        };
        let mut flushed = Cache::new(0x100, 0x100);
        let stub = flushed
            .emit(&mut mem, Instr::Halt, Origin::ContextSwitch)
            .unwrap();
        let long = [Origin::Dispatch, Origin::CallGlue, Origin::App, Origin::App];
        fill(&mut flushed, &mut mem, &long);
        flushed.reset_to(stub + 4);
        assert_eq!(flushed.used_bytes(), 4);
        assert_eq!(flushed.origin_at(stub), Some(Origin::ContextSwitch));
        assert_eq!(flushed.tags_at(stub + 4), None, "flushed words lose tags");

        let short = [Origin::App, Origin::Dispatch];
        fill(&mut flushed, &mut mem, &short);
        let mut fresh = Cache::new(0x100, 0x100);
        fresh
            .emit(&mut mem, Instr::Halt, Origin::ContextSwitch)
            .unwrap();
        fill(&mut fresh, &mut mem, &short);
        assert_eq!(flushed.addr(), fresh.addr());
        for pc in (0x100..0x200).step_by(4) {
            assert_eq!(flushed.tags_at(pc), fresh.tags_at(pc), "pc {pc:#x}");
        }
    }

    #[test]
    fn table_alloc_alignment_and_exhaustion() {
        let mut t = TableAlloc::new(0x1004, 0x1100);
        let a = t.alloc(8, 16).unwrap();
        assert_eq!(a % 16, 0);
        assert!(a >= 0x1004);
        let b = t.alloc(8, 4).unwrap();
        assert!(b >= a + 8);
        assert!(matches!(
            t.alloc(0x1000, 4),
            Err(SdtError::TableSpaceExhausted { requested: 0x1000 })
        ));
    }
}
