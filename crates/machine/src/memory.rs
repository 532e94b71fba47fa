use std::sync::Mutex;

use strata_isa::{decode, Instr};

use crate::machine::MachineError;

/// log2 of the predecode page size in bytes.
pub(crate) const PAGE_SHIFT: u32 = 12;
/// Predecode page size in bytes (4 KiB).
pub(crate) const PAGE_BYTES: u32 = 1 << PAGE_SHIFT;
/// Instruction words per predecode page.
pub(crate) const PAGE_WORDS: usize = (PAGE_BYTES / 4) as usize;

/// log2 of the dirty-tracking chunk size in bytes (64 KiB).
const CHUNK_SHIFT: u32 = 16;

/// Images the process keeps parked at most: more machines than a worker
/// pool has alive at once (a cell has one, a lockstep comparison two).
const MAX_SPARES: usize = 8;

/// Images (and dirty maps) of dropped [`Memory`]s, parked for the next
/// [`Memory::new`] of their size.
type Spares = Mutex<Vec<(Vec<u8>, Vec<bool>)>>;

/// The spares of every [`Memory::new`]. Process-wide, so an image outlives
/// the thread that dropped it: a worker pool that exits and a second one
/// that starts (the executor's two phases) share one set of images, where
/// thread-local spares were freed with the first pool and the second's
/// were carved from the allocator's heap.
static SPARES: Spares = Mutex::new(Vec::new());

/// Locks a spare list. No update leaves it half-done, so a lock poisoned by
/// a panicking holder is still sound to use (and `Drop` must not panic).
fn lock(spares: &Spares) -> std::sync::MutexGuard<'_, Vec<(Vec<u8>, Vec<bool>)>> {
    spares.lock().unwrap_or_else(|e| e.into_inner())
}

/// One dense page of predecoded instructions. `None` means the word has
/// not been decoded (or failed to decode) since it was last written.
type CodePage = [Option<Instr>; PAGE_WORDS];

/// Flat, byte-addressed, little-endian guest memory with a paged
/// predecode cache.
///
/// Decoded instructions are memoized in dense 4 KiB *code pages*,
/// allocated lazily the first time execution touches a page (or eagerly
/// via [`Memory::register_code_region`]). Pages make two things cheap at
/// once:
///
/// * **Construction.** A fresh 16 MiB machine allocates a few thousand
///   page *slots*, not a decode entry per word. The image itself is
///   recycled: every store marks its 64 KiB chunk dirty, a dropped
///   `Memory` parks its image among a few process-wide spares, and the
///   next `Memory::new` of that size zeroes only the dirty
///   chunks instead of allocating — and so clearing — all 16 MiB again.
///   The experiment suite constructs one machine per cell, and without
///   the spares that cost 1.1–2.2 ms a cell (tens of microseconds with).
/// * **Store-side invalidation.** The union of allocated pages is
///   tracked as a single `[code_lo, code_hi)` byte range. A store first
///   does one range compare; only stores that overlap the executable
///   range walk their touched words. The overwhelming majority of guest
///   stores (stack, heap, IBTC/sieve lookup tables, register save area)
///   fall outside the range and skip invalidation entirely.
///
/// Stores that *do* land in a code page clear the touched word slots, so
/// runtime code generation (the SDT writing fragments, patching links,
/// appending sieve stanzas) is picked up immediately — the moral
/// equivalent of an instruction-cache flush after code modification.
#[derive(Debug)]
pub struct Memory {
    bytes: Vec<u8>,
    /// One flag per 64 KiB chunk of `bytes`, set by every store into it:
    /// the chunks a recycled image must zero (see [`Memory::new`]).
    dirty: Vec<bool>,
    /// Lazily allocated predecode pages, one slot per 4 KiB of memory.
    pages: Vec<Option<Box<CodePage>>>,
    /// Inclusive lower byte bound of the union of allocated code pages
    /// (`u32::MAX` when no page is allocated).
    code_lo: u32,
    /// Exclusive upper byte bound of the union of allocated code pages.
    code_hi: u32,
    /// Generation counter bumped every time a store invalidates decoded
    /// code. Consumers holding derived views of code (the translated
    /// superblocks of the threaded execution tier) compare it against
    /// the value they captured at derivation time and discard on
    /// mismatch — a cross-structure "icache flush" signal that costs
    /// nothing on the overwhelming store-misses-code path.
    code_version: u64,
    /// Where the image came from and is parked on drop; `None` for a
    /// [`Memory::fresh`] one, which does neither.
    spares: Option<&'static Spares>,
}

impl Memory {
    /// Creates a zero-initialized memory of `size` bytes (rounded up to a
    /// multiple of 4). When a dropped `Memory` of the same size is parked,
    /// its image is reused and only the chunks it stored to are cleared.
    pub fn new(size: u32) -> Memory {
        Memory::with_spares(size, Some(&SPARES))
    }

    /// [`Memory::new`] on an image allocated now, never a parked one, and
    /// not parked on drop either: the reference a recycled image is tested
    /// against.
    #[doc(hidden)]
    pub fn fresh(size: u32) -> Memory {
        Memory::with_spares(size, None)
    }

    fn with_spares(size: u32, spares: Option<&'static Spares>) -> Memory {
        let size = (size as usize).next_multiple_of(4);
        let pages = size.div_ceil(PAGE_BYTES as usize);
        let spare = spares.and_then(|spares| {
            let mut spares = lock(spares);
            let fits = spares.iter().position(|(bytes, _)| bytes.len() == size);
            fits.map(|i| spares.swap_remove(i))
        });
        let (bytes, dirty) = match spare {
            Some((mut bytes, mut dirty)) => {
                for (chunk, flag) in bytes.chunks_mut(1 << CHUNK_SHIFT).zip(&mut dirty) {
                    if std::mem::take(flag) {
                        chunk.fill(0);
                    }
                }
                (bytes, dirty)
            }
            None => (vec![0; size], vec![false; size.div_ceil(1 << CHUNK_SHIFT)]),
        };
        Memory {
            bytes,
            dirty,
            pages: (0..pages).map(|_| None).collect(),
            code_lo: u32::MAX,
            code_hi: 0,
            code_version: 0,
            spares,
        }
    }

    /// Memory size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// The code-invalidation generation: incremented whenever a store
    /// clears predecoded words. Structures derived from decoded code
    /// (translated superblocks) are stale once this moves.
    #[inline]
    pub fn code_version(&self) -> u64 {
        self.code_version
    }

    #[inline]
    fn check(&self, addr: u32, len: u32) -> Result<usize, MachineError> {
        let end = addr as u64 + len as u64;
        if end <= self.bytes.len() as u64 {
            Ok(addr as usize)
        } else {
            Err(MachineError::OutOfBounds { addr, len })
        }
    }

    /// Reads a little-endian word.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OutOfBounds`] if any touched byte is outside
    /// memory.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> Result<u32, MachineError> {
        let i = self.check(addr, 4)?;
        Ok(u32::from_le_bytes(
            self.bytes[i..i + 4].try_into().expect("4-byte slice"),
        ))
    }

    /// Writes a little-endian word, invalidating any cached decodes it
    /// touches.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OutOfBounds`] if any touched byte is outside
    /// memory.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MachineError> {
        let i = self.check(addr, 4)?;
        self.bytes[i..i + 4].copy_from_slice(&value.to_le_bytes());
        self.dirty[i >> CHUNK_SHIFT] = true;
        self.dirty[(i + 3) >> CHUNK_SHIFT] = true;
        self.maybe_invalidate(addr, 4);
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OutOfBounds`] if `addr` is outside memory.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> Result<u8, MachineError> {
        let i = self.check(addr, 1)?;
        Ok(self.bytes[i])
    }

    /// Writes one byte, invalidating the containing decode-cache word.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OutOfBounds`] if `addr` is outside memory.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MachineError> {
        let i = self.check(addr, 1)?;
        self.bytes[i] = value;
        self.dirty[i >> CHUNK_SHIFT] = true;
        self.maybe_invalidate(addr, 1);
        Ok(())
    }

    /// Copies a byte slice into memory.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OutOfBounds`] if the range does not fit.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), MachineError> {
        let i = self.check(addr, data.len() as u32)?;
        self.bytes[i..i + data.len()].copy_from_slice(data);
        if !data.is_empty() {
            self.dirty[i >> CHUNK_SHIFT..=(i + data.len() - 1) >> CHUNK_SHIFT].fill(true);
        }
        self.maybe_invalidate(addr, data.len() as u32);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OutOfBounds`] if the range does not fit.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<&[u8], MachineError> {
        let i = self.check(addr, len)?;
        Ok(&self.bytes[i..i + len as usize])
    }

    /// Declares `[addr, addr + len)` executable: allocates its predecode
    /// pages up front and predecodes every currently valid word, so the
    /// first execution of freshly loaded code never takes the decode slow
    /// path. Words that do not decode are left unmemoized (the error
    /// surfaces if they are ever fetched). Out-of-range portions are
    /// ignored — execution there fails bounds checks anyway.
    ///
    /// Registration is optional: fetching from an unregistered address
    /// allocates and fills its page on demand.
    pub fn register_code_region(&mut self, addr: u32, len: u32) {
        if len == 0 {
            return;
        }
        let end = (addr as u64 + len as u64).min(self.bytes.len() as u64) as u32;
        if addr >= end {
            return;
        }
        let mut word = addr & !3;
        self.ensure_pages(addr, end);
        while word < end {
            let slot = self.read_u32(word).ok().and_then(|w| decode(w).ok());
            let page = self.pages[(word >> PAGE_SHIFT) as usize]
                .as_deref_mut()
                .expect("page allocated by ensure_pages");
            page[(word as usize >> 2) & (PAGE_WORDS - 1)] = slot;
            word += 4;
        }
    }

    /// Allocates every predecode page overlapping `[lo, hi)` and extends
    /// the executable-range bounds to cover them.
    fn ensure_pages(&mut self, lo: u32, hi: u32) {
        let first = (lo >> PAGE_SHIFT) as usize;
        let last = ((hi - 1) >> PAGE_SHIFT) as usize;
        for idx in first..=last.min(self.pages.len().saturating_sub(1)) {
            if self.pages[idx].is_none() {
                self.pages[idx] = Some(Box::new([None; PAGE_WORDS]));
            }
        }
        self.code_lo = self.code_lo.min((first as u32) << PAGE_SHIFT);
        self.code_hi = self.code_hi.max(((last as u32) + 1) << PAGE_SHIFT);
    }

    /// The predecoded instruction at `pc`, if `pc` is aligned, in bounds,
    /// and its word has been decoded since it was last written. This is
    /// the fused run loop's fast path: two loads and two masks, no error
    /// construction.
    #[inline(always)]
    pub(crate) fn fetch_predecoded(&self, pc: u32) -> Option<Instr> {
        if pc & 3 != 0 {
            return None;
        }
        let page = self.pages.get((pc >> PAGE_SHIFT) as usize)?.as_deref()?;
        page[(pc as usize >> 2) & (PAGE_WORDS - 1)]
    }

    /// Fetches and decodes the instruction at `pc`, memoizing the decode.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::UnalignedPc`] for a misaligned `pc`,
    /// [`MachineError::OutOfBounds`] for a `pc` outside memory, and
    /// [`MachineError::Decode`] for invalid machine words.
    #[inline]
    pub fn fetch(&mut self, pc: u32) -> Result<Instr, MachineError> {
        if let Some(instr) = self.fetch_predecoded(pc) {
            return Ok(instr);
        }
        self.fetch_slow(pc)
    }

    /// Decode-miss path: validates `pc`, decodes the word, and memoizes
    /// it in its (possibly freshly allocated) code page.
    fn fetch_slow(&mut self, pc: u32) -> Result<Instr, MachineError> {
        if !pc.is_multiple_of(4) {
            return Err(MachineError::UnalignedPc { pc });
        }
        let word = self.read_u32(pc)?;
        let instr = decode(word).map_err(|source| MachineError::Decode { pc, source })?;
        self.ensure_pages(pc, pc + 4);
        let page = self.pages[(pc >> PAGE_SHIFT) as usize]
            .as_deref_mut()
            .expect("page allocated by ensure_pages");
        page[(pc as usize >> 2) & (PAGE_WORDS - 1)] = Some(instr);
        Ok(instr)
    }

    /// Store-side invalidation gate: one range compare against the union
    /// of allocated code pages. Decoded slots can only exist inside
    /// `[code_lo, code_hi)`, so stores outside it — the overwhelming
    /// majority — skip the word walk entirely.
    #[inline]
    fn maybe_invalidate(&mut self, addr: u32, len: u32) {
        if addr < self.code_hi && addr.wrapping_add(len) > self.code_lo {
            self.invalidate(addr, len);
        }
    }

    fn invalidate(&mut self, addr: u32, len: u32) {
        if len == 0 {
            // A zero-length write touches nothing; without this guard the
            // last-word computation below underflows for `addr == 0`.
            return;
        }
        self.code_version += 1;
        let first = addr >> 2;
        let last = (addr + len - 1) >> 2;
        for word in first..=last {
            if let Some(Some(page)) = self.pages.get_mut((word >> (PAGE_SHIFT - 2)) as usize) {
                page[(word as usize) & (PAGE_WORDS - 1)] = None;
            }
        }
    }
}

impl Drop for Memory {
    /// Parks the image for the next same-sized [`Memory::new`], unless
    /// `MAX_SPARES` images are parked already.
    fn drop(&mut self) {
        let Some(spares) = self.spares else { return };
        let mut spares = lock(spares);
        if spares.len() < MAX_SPARES {
            spares.push((
                std::mem::take(&mut self.bytes),
                std::mem::take(&mut self.dirty),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_isa::{encode, Reg};

    #[test]
    fn read_write_roundtrip() {
        let mut m = Memory::new(64);
        m.write_u32(0, 0xDEADBEEF).unwrap();
        assert_eq!(m.read_u32(0).unwrap(), 0xDEADBEEF);
        m.write_u8(5, 0xAB).unwrap();
        assert_eq!(m.read_u8(5).unwrap(), 0xAB);
        // Little-endian layout.
        assert_eq!(m.read_u8(0).unwrap(), 0xEF);
    }

    #[test]
    fn unaligned_word_access_is_supported() {
        let mut m = Memory::new(64);
        m.write_u32(3, 0x01020304).unwrap();
        assert_eq!(m.read_u32(3).unwrap(), 0x01020304);
    }

    #[test]
    fn out_of_bounds_reported() {
        let mut m = Memory::new(16);
        assert_eq!(
            m.read_u32(13),
            Err(MachineError::OutOfBounds { addr: 13, len: 4 })
        );
        assert_eq!(
            m.read_u32(16),
            Err(MachineError::OutOfBounds { addr: 16, len: 4 })
        );
        assert_eq!(
            m.write_u8(16, 0),
            Err(MachineError::OutOfBounds { addr: 16, len: 1 })
        );
        assert!(m.read_u32(12).is_ok());
    }

    #[test]
    fn fetch_decodes_and_caches() {
        let mut m = Memory::new(64);
        let nop = encode(&Instr::Nop);
        m.write_u32(8, nop).unwrap();
        assert_eq!(m.fetch(8).unwrap(), Instr::Nop);
        // Second fetch comes from the predecode page.
        assert_eq!(m.fetch_predecoded(8), Some(Instr::Nop));
        assert_eq!(m.fetch(8).unwrap(), Instr::Nop);
    }

    #[test]
    fn store_invalidates_decode_cache() {
        let mut m = Memory::new(64);
        m.write_u32(8, encode(&Instr::Nop)).unwrap();
        assert_eq!(m.fetch(8).unwrap(), Instr::Nop);
        m.write_u32(8, encode(&Instr::Halt)).unwrap();
        assert_eq!(m.fetch(8).unwrap(), Instr::Halt, "stale decode after store");
    }

    #[test]
    fn byte_store_invalidates_containing_word() {
        let mut m = Memory::new(64);
        m.write_u32(8, encode(&Instr::Push { rs: Reg::R1 }))
            .unwrap();
        m.fetch(8).unwrap();
        // Rewrite the opcode byte (little-endian: opcode is byte 3).
        m.write_u8(11, 0x51).unwrap(); // HALT opcode
        assert_eq!(m.fetch(8).unwrap(), Instr::Halt);
    }

    #[test]
    fn unaligned_pc_rejected() {
        let mut m = Memory::new(64);
        assert_eq!(m.fetch(2), Err(MachineError::UnalignedPc { pc: 2 }));
    }

    #[test]
    fn invalid_word_reports_decode_error() {
        let mut m = Memory::new(64);
        m.write_u32(0, 0xFF00_0000).unwrap();
        match m.fetch(0) {
            Err(MachineError::Decode { pc: 0, .. }) => {}
            other => panic!("expected decode error, got {other:?}"),
        }
    }

    #[test]
    fn zero_length_write_is_a_noop() {
        // Regression: `write_bytes` with an empty slice used to compute
        // `addr + len - 1` with `len == 0`, underflowing (a debug-build
        // panic) once the write range overlapped the code region.
        let mut m = Memory::new(64);
        m.write_u32(0, encode(&Instr::Nop)).unwrap();
        m.fetch(0).unwrap(); // allocate the page so the range compare passes
        m.write_bytes(0, &[]).unwrap();
        m.write_bytes(4, &[]).unwrap();
        assert_eq!(
            m.fetch(0).unwrap(),
            Instr::Nop,
            "empty write must not invalidate"
        );
        // Out-of-bounds starting address with zero length is still in
        // bounds (it touches nothing at the very end of memory).
        assert!(m.write_bytes(64, &[]).is_ok());
        assert_eq!(
            m.write_bytes(65, &[]),
            Err(MachineError::OutOfBounds { addr: 65, len: 0 })
        );
    }

    #[test]
    fn register_code_region_predecodes() {
        let mut m = Memory::new(8192);
        m.write_u32(4096, encode(&Instr::Nop)).unwrap();
        m.write_u32(4100, encode(&Instr::Halt)).unwrap();
        m.register_code_region(4096, 8);
        assert_eq!(m.fetch_predecoded(4096), Some(Instr::Nop));
        assert_eq!(m.fetch_predecoded(4100), Some(Instr::Halt));
        // Stores into a registered region are picked up.
        m.write_u32(4096, encode(&Instr::Halt)).unwrap();
        assert_eq!(m.fetch_predecoded(4096), None);
        assert_eq!(m.fetch(4096).unwrap(), Instr::Halt);
    }

    #[test]
    fn register_code_region_tolerates_edges() {
        let mut m = Memory::new(64);
        m.register_code_region(0, 0); // empty
        m.register_code_region(60, 400); // clamped to memory size
        m.register_code_region(100, 50); // entirely out of range
        assert_eq!(m.fetch_predecoded(0), None);
    }

    #[test]
    fn store_on_code_lo_boundary_invalidates() {
        // Register a region whose page starts at 4096, so code_lo == 4096
        // exactly. A store landing on the first byte of the boundary must
        // invalidate; the word just below must not.
        let mut m = Memory::new(3 * 4096);
        m.write_u32(4096, encode(&Instr::Nop)).unwrap();
        m.register_code_region(4096, 4);
        assert_eq!(m.fetch_predecoded(4096), Some(Instr::Nop));
        let v0 = m.code_version();

        // One word below the boundary: outside every code page, no
        // invalidation, version unchanged.
        m.write_u32(4092, 0xFFFF_FFFF).unwrap();
        assert_eq!(m.code_version(), v0, "store below code_lo must be free");
        assert_eq!(m.fetch_predecoded(4096), Some(Instr::Nop));

        // Exactly on code_lo: must clear the decoded slot and bump the
        // generation.
        m.write_u32(4096, encode(&Instr::Halt)).unwrap();
        assert!(m.code_version() > v0, "store at code_lo must invalidate");
        assert_eq!(m.fetch_predecoded(4096), None);
        assert_eq!(m.fetch(4096).unwrap(), Instr::Halt);
    }

    #[test]
    fn store_on_code_hi_boundary_is_outside() {
        // code_hi is exclusive: with one registered page [4096, 8192), a
        // store at 8192 is entirely outside and must not invalidate, while
        // a store at 8188 (last word of the page) must.
        let mut m = Memory::new(3 * 4096);
        m.write_u32(8188, encode(&Instr::Nop)).unwrap();
        m.register_code_region(4096, 4096);
        assert_eq!(m.fetch_predecoded(8188), Some(Instr::Nop));
        let v0 = m.code_version();

        m.write_u32(8192, 0xFFFF_FFFF).unwrap();
        assert_eq!(m.code_version(), v0, "store at code_hi must be free");
        assert_eq!(m.fetch_predecoded(8188), Some(Instr::Nop));

        m.write_u32(8188, encode(&Instr::Halt)).unwrap();
        assert!(m.code_version() > v0);
        assert_eq!(m.fetch_predecoded(8188), None);
    }

    #[test]
    fn straddling_stores_invalidate_across_boundaries() {
        // An unaligned word store straddling code_lo (bytes 4094..4098)
        // touches the first code word and must invalidate it.
        let mut m = Memory::new(3 * 4096);
        m.write_u32(4096, encode(&Instr::Nop)).unwrap();
        m.register_code_region(4096, 4);
        m.write_u32(4094, 0x1234_5678).unwrap();
        assert_eq!(
            m.fetch_predecoded(4096),
            None,
            "store straddling code_lo must invalidate the first code word"
        );

        // And one straddling code_hi from inside (bytes 8190..8194)
        // touches the last code word of the page.
        let mut m = Memory::new(3 * 4096);
        m.write_u32(8188, encode(&Instr::Nop)).unwrap();
        m.register_code_region(4096, 4096);
        m.write_u32(8190, 0x1234_5678).unwrap();
        assert_eq!(
            m.fetch_predecoded(8188),
            None,
            "store straddling code_hi must invalidate the last code word"
        );
    }

    #[test]
    fn cross_page_straddle_invalidates_both_pages() {
        // Two adjacent registered pages; a byte-span store crossing the
        // page boundary (4 bytes at 8190: bytes 8190..8194) must clear the
        // last word of page 1 and the first word of page 2.
        let mut m = Memory::new(3 * 4096);
        m.write_u32(8188, encode(&Instr::Nop)).unwrap();
        m.write_u32(8192, encode(&Instr::Halt)).unwrap();
        m.register_code_region(4096, 2 * 4096);
        assert_eq!(m.fetch_predecoded(8188), Some(Instr::Nop));
        assert_eq!(m.fetch_predecoded(8192), Some(Instr::Halt));
        let v0 = m.code_version();

        m.write_u32(8190, 0xAABB_CCDD).unwrap();
        assert_eq!(m.fetch_predecoded(8188), None, "tail of the lower page");
        assert_eq!(m.fetch_predecoded(8192), None, "head of the upper page");
        assert!(m.code_version() > v0);

        // An untouched word on each page survives.
        let mut m = Memory::new(3 * 4096);
        m.write_u32(4096, encode(&Instr::Nop)).unwrap();
        m.write_u32(8192, encode(&Instr::Nop)).unwrap();
        m.register_code_region(4096, 2 * 4096);
        m.write_bytes(8188, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(m.fetch_predecoded(4096), Some(Instr::Nop));
        assert_eq!(m.fetch_predecoded(8192), None);
    }

    #[test]
    fn code_version_tracks_only_real_invalidations() {
        let mut m = Memory::new(2 * 4096);
        assert_eq!(m.code_version(), 0);
        // No code pages yet: stores are free.
        m.write_u32(0, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.code_version(), 0);
        m.write_u32(0, encode(&Instr::Nop)).unwrap();
        m.fetch(0).unwrap(); // allocates the page
        let v1 = m.code_version();
        m.write_u8(1, 0x00).unwrap();
        assert!(m.code_version() > v1, "byte store into code invalidates");
        // Zero-length writes never bump the generation.
        let v2 = m.code_version();
        m.write_bytes(0, &[]).unwrap();
        assert_eq!(m.code_version(), v2);
        // Stores into the other, never-executed page are free.
        m.write_u32(4096, 7).unwrap();
        assert_eq!(m.code_version(), v2);
    }

    #[test]
    fn stores_outside_code_pages_skip_invalidation() {
        let mut m = Memory::new(2 * 4096);
        m.write_u32(0, encode(&Instr::Nop)).unwrap();
        m.fetch(0).unwrap();
        // A store in the other (never-executed) page must not disturb the
        // cached decode, and must be correct if that page later runs.
        m.write_u32(4096, encode(&Instr::Halt)).unwrap();
        assert_eq!(m.fetch_predecoded(0), Some(Instr::Nop));
        assert_eq!(m.fetch(4096).unwrap(), Instr::Halt);
        m.write_u32(4096, encode(&Instr::Nop)).unwrap();
        assert_eq!(
            m.fetch(4096).unwrap(),
            Instr::Nop,
            "post-fetch stores invalidate"
        );
    }

    /// A memory on a spare list of the test's own: what `Memory::new` does
    /// on the process's, which every other test of this binary shares.
    fn pooled(size: u32, spares: &'static Spares) -> Memory {
        Memory::with_spares(size, Some(spares))
    }

    fn parked(spares: &Spares) -> usize {
        lock(spares).len()
    }

    fn assert_pristine(m: &Memory) {
        let image = m.read_bytes(0, m.size()).unwrap();
        assert_eq!(image.iter().position(|&b| b != 0), None, "stale byte");
        assert!(m.dirty.iter().all(|&d| !d));
        assert!(m.pages.iter().all(Option::is_none));
        assert_eq!((m.code_lo, m.code_hi, m.code_version), (u32::MAX, 0, 0));
    }

    #[test]
    fn a_recycled_image_is_indistinguishable_from_a_first_one() {
        const CHUNK: u32 = 1 << CHUNK_SHIFT;
        const SIZE: u32 = 3 * CHUNK;
        static POOL: Spares = Mutex::new(Vec::new());
        // One store path at a time, so none can hide behind another's
        // dirty mark: each round starts from a recycled, cleared image.
        let stores: [fn(&mut Memory); 6] = [
            |m| m.write_u8(0, 0xAA).unwrap(),
            |m| m.write_u8(SIZE - 1, 0xBB).unwrap(),
            |m| m.write_u32(CHUNK - 2, 0xDEAD_BEEF).unwrap(),
            |m| m.write_u32(2 * CHUNK - 1, 0xDEAD_BEEF).unwrap(),
            |m| {
                m.write_bytes(CHUNK - 3, &vec![0xCC; CHUNK as usize + 6])
                    .unwrap()
            },
            |m| {
                m.write_u32(64, encode(&Instr::Nop)).unwrap();
                m.fetch(64).unwrap();
                m.write_u32(64, encode(&Instr::Halt)).unwrap();
                assert!(m.code_version() > 0 && m.fetch(64).is_ok());
            },
        ];
        for store in stores {
            let mut m = pooled(SIZE, &POOL);
            assert_pristine(&m);
            store(&mut m);
            drop(m);
            assert_eq!(parked(&POOL), 1);
        }
        // Machines alive together each get an image of their own, and
        // each gets it back.
        let mut pair = [pooled(SIZE, &POOL), pooled(SIZE, &POOL)];
        assert_eq!(parked(&POOL), 0, "the spare was taken over");
        pair[1].write_u8(7, 7).unwrap();
        drop(pair);
        let pair = [pooled(SIZE, &POOL), pooled(SIZE, &POOL)];
        assert_eq!(parked(&POOL), 0);
        pair.iter().for_each(assert_pristine);
    }

    #[test]
    fn an_image_outlives_the_thread_that_dropped_it() {
        // The executor's shape: a pool of short-lived workers builds and
        // drops machines, exits, and a second pool does the same. Both
        // phases' machines sit on the one image the first ever allocated.
        const SIZE: u32 = 5 << CHUNK_SHIFT;
        static POOL: Spares = Mutex::new(Vec::new());
        let worker = || {
            let mut m = pooled(SIZE, &POOL);
            assert_pristine(&m);
            m.write_u32(SIZE - 4, 0xFEED).unwrap();
            m.bytes.as_ptr() as usize
        };
        let mut images = Vec::new();
        for _phase in 0..2 {
            for _cell in 0..3 {
                images.push(std::thread::scope(|s| s.spawn(worker).join()).expect("runs"));
                assert_eq!(parked(&POOL), 1);
            }
        }
        assert!(images.iter().all(|&at| at == images[0]), "{images:x?}");
    }

    #[test]
    fn another_size_does_not_reuse_and_spares_are_bounded() {
        static POOL: Spares = Mutex::new(Vec::new());
        let mut big = pooled(1 << 18, &POOL);
        big.write_u32(100, 7).unwrap();
        drop(big);
        let small = pooled(1 << 17, &POOL);
        assert_eq!(parked(&POOL), 1, "a different size allocates");
        assert_pristine(&small);
        drop(small);
        assert_eq!(parked(&POOL), 2);
        // The bound is on the list, whatever the sizes in it.
        let more: Vec<Memory> = (0..MAX_SPARES + 3).map(|_| pooled(68, &POOL)).collect();
        drop(more);
        assert_eq!(parked(&POOL), MAX_SPARES);
        let sizes = |n| lock(&POOL).iter().filter(|(b, _)| b.len() == n).count();
        assert_eq!((sizes(1 << 18), sizes(1 << 17), sizes(68)), (1, 1, 6));
    }

    #[test]
    fn a_fresh_memory_stays_out_of_the_spares() {
        // Taking and parking both go through `spares`: `new` has the
        // process's list there, `fresh` none. No other test builds this
        // size, so the process's list can be asked about it.
        const SIZE: u32 = 7 << CHUNK_SHIFT;
        assert!(Memory::new(64)
            .spares
            .is_some_and(|s| std::ptr::eq(s, &SPARES)));
        let mut fresh = Memory::fresh(SIZE);
        assert!(fresh.spares.is_none());
        assert_pristine(&fresh);
        fresh.write_u8(9, 9).unwrap();
        drop(fresh);
        let parked = lock(&SPARES).iter().any(|(b, _)| b.len() == SIZE as usize);
        assert!(!parked, "a fresh image was parked");
    }
}
