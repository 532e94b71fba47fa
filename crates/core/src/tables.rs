//! Guest-memory lookup tables (IBTC, sieve buckets, return cache).

use strata_machine::{MachineError, Memory};

/// A table in guest memory: base address plus an index mask.
///
/// IBTC tables hold 8-byte `{tag, fragment}` entries; sieve bucket tables
/// and return caches hold 4-byte code addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TableRef {
    /// Guest base address.
    pub base: u32,
    /// `entries - 1`.
    pub mask: u32,
    /// Bytes per entry (4 or 8).
    pub entry_bytes: u32,
}

impl TableRef {
    /// Total size in bytes.
    pub fn size_bytes(&self) -> u32 {
        (self.mask + 1) * self.entry_bytes
    }

    /// The hash all emitted probe sequences implement:
    /// `(addr >> 2) & mask` — drop the alignment bits, mask to the table.
    #[inline]
    pub fn index_of(&self, app_addr: u32) -> u32 {
        (app_addr >> 2) & self.mask
    }

    /// Guest address of the entry for `app_addr`.
    #[inline]
    pub fn entry_addr(&self, app_addr: u32) -> u32 {
        self.base + self.index_of(app_addr) * self.entry_bytes
    }

    /// Fills the IBTC entry for `app_addr` with `{tag, value}` (8-byte
    /// entries only).
    pub fn fill_tagged(
        &self,
        mem: &mut Memory,
        app_addr: u32,
        value: u32,
    ) -> Result<(), MachineError> {
        debug_assert_eq!(self.entry_bytes, 8);
        let e = self.entry_addr(app_addr);
        mem.write_u32(e, app_addr)?;
        mem.write_u32(e + 4, value)
    }

    /// Fills the tagless entry for `app_addr` with a code address (4-byte
    /// entries only).
    pub fn fill_untagged(
        &self,
        mem: &mut Memory,
        app_addr: u32,
        value: u32,
    ) -> Result<(), MachineError> {
        debug_assert_eq!(self.entry_bytes, 4);
        mem.write_u32(self.entry_addr(app_addr), value)
    }

    /// Installs `{tag, value}` into the two-way set for `app_addr`: the
    /// previous way-0 entry shifts to way-1 (LRU-by-shifting) and the new
    /// entry takes way-0. 16-byte sets only.
    pub fn fill_tagged_2way(
        &self,
        mem: &mut Memory,
        app_addr: u32,
        value: u32,
    ) -> Result<(), MachineError> {
        debug_assert_eq!(self.entry_bytes, 16);
        let e = self.entry_addr(app_addr);
        let old_tag = mem.read_u32(e)?;
        let old_val = mem.read_u32(e + 4)?;
        mem.write_u32(e + 8, old_tag)?;
        mem.write_u32(e + 12, old_val)?;
        mem.write_u32(e, app_addr)?;
        mem.write_u32(e + 4, value)
    }

    /// Initializes every 4-byte entry to `value` (cold sieve buckets and
    /// return-cache slots point at their miss stubs).
    pub fn fill_all(&self, mem: &mut Memory, value: u32) -> Result<(), MachineError> {
        debug_assert_eq!(self.entry_bytes, 4);
        for i in 0..=self.mask {
            mem.write_u32(self.base + i * 4, value)?;
        }
        Ok(())
    }
}

/// The highest index the host has hashed into a fixed table — at every
/// fill and every miss through the table, never on the retire path.
/// Every guest probe of the table either hits an entry the host filled
/// for that target or misses into the host carrying it, so no probe
/// indexed above it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Witness(Option<u32>);

impl Witness {
    /// Notes that the host hashed `app_addr` into `table`.
    pub fn note(&mut self, table: TableRef, app_addr: u32) {
        self.0 = self.0.max(Some(table.index_of(app_addr)));
    }

    /// The highest index noted, if any.
    pub fn highest(self) -> Option<u32> {
        self.0
    }

    /// Whether every index noted is below `entries`.
    pub fn below(self, entries: u32) -> bool {
        self.0.is_none_or(|highest| highest < entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn witness_keeps_the_highest_index() {
        let t = TableRef {
            base: 0x1000,
            mask: 0xF,
            entry_bytes: 4,
        };
        let mut w = Witness::default();
        assert!(w.below(1) && w.highest().is_none());
        w.note(t, 0x0040_0020); // index 8
        w.note(t, 0x0040_0044); // index 1, after a wrap
        assert_eq!(w.highest(), Some(8));
        assert!(w.below(9) && !w.below(8));
    }

    #[test]
    fn index_and_entry_math() {
        let t = TableRef {
            base: 0x1000,
            mask: 0xF,
            entry_bytes: 8,
        };
        assert_eq!(t.size_bytes(), 128);
        assert_eq!(t.index_of(0x0040_0000), 0);
        assert_eq!(t.index_of(0x0040_0004), 1);
        assert_eq!(t.index_of(0x0040_0040), 0); // wraps at 16 entries
        assert_eq!(t.entry_addr(0x0040_0008), 0x1010);
    }

    #[test]
    fn tagged_fill() {
        let mut mem = Memory::new(0x2000);
        let t = TableRef {
            base: 0x1000,
            mask: 0xF,
            entry_bytes: 8,
        };
        t.fill_tagged(&mut mem, 0xBEEF0, 0x600_004).unwrap();
        let e = t.entry_addr(0xBEEF0);
        assert_eq!(mem.read_u32(e).unwrap(), 0xBEEF0);
        assert_eq!(mem.read_u32(e + 4).unwrap(), 0x600_004);
    }

    #[test]
    fn untagged_fill_and_init() {
        let mut mem = Memory::new(0x2000);
        let t = TableRef {
            base: 0x1000,
            mask: 0x7,
            entry_bytes: 4,
        };
        t.fill_all(&mut mem, 0xAAAA).unwrap();
        for i in 0..8 {
            assert_eq!(mem.read_u32(0x1000 + i * 4).unwrap(), 0xAAAA);
        }
        t.fill_untagged(&mut mem, 0x10_0004, 0xBBBB).unwrap();
        assert_eq!(mem.read_u32(t.entry_addr(0x10_0004)).unwrap(), 0xBBBB);
    }
}
