use std::collections::HashMap;

/// What kind of entry a fragment provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FragKind {
    /// A plain translated basic block, entered at its first body
    /// instruction.
    Body,
    /// A return-cache target: begins with a verification prologue
    /// (compare the actual return address in `r1` against the expected
    /// constant), then a restore sequence, then the body.
    ReturnPoint,
}

/// A translated fragment's addresses in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fragment {
    /// Entry address: the body for [`FragKind::Body`], the verification
    /// prologue for [`FragKind::ReturnPoint`].
    pub entry: u32,
    /// Address of the restore sequence (`ReturnPoint` only; equals `entry`
    /// for plain fragments).
    pub restore_entry: u32,
    /// First body instruction (after any prologue/restore).
    pub body: u32,
}

/// The translator's map from application addresses to fragments.
#[derive(Debug, Default)]
pub(crate) struct FragmentMap {
    map: HashMap<(u32, FragKind), Fragment>,
}

impl FragmentMap {
    pub fn get(&self, app_addr: u32, kind: FragKind) -> Option<Fragment> {
        self.map.get(&(app_addr, kind)).copied()
    }

    pub fn insert(&mut self, app_addr: u32, kind: FragKind, frag: Fragment) {
        let prev = self.map.insert((app_addr, kind), frag);
        debug_assert!(
            prev.is_none(),
            "fragment for {app_addr:#x} translated twice"
        );
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Iterates over `((app_addr, kind), fragment)` entries in map order.
    pub fn iter(&self) -> impl Iterator<Item = (&(u32, FragKind), &Fragment)> {
        self.map.iter()
    }
}

/// How a translated fragment's body ends, recorded at translation time so
/// the trace-replay engine ([`crate::DispatchReplay`]) can mirror control
/// flow without decoding cache code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Terminal {
    /// Conditional branch: fall-through and taken exit trampolines.
    Cond { next_site: u32, taken_site: u32 },
    /// Unconditional direct jump through an exit trampoline.
    DirectJump { site: u32 },
    /// Direct call: return glue (which may push a shadow-stack entry for
    /// `ret_app`), then an exit trampoline to the callee.
    DirectCall { site: u32, ret_app: u32 },
    /// Indirect jump dispatch (`jr`/`jmem`); `site` when the serving
    /// strategy gave the site its own id.
    IndirectJump { site: Option<u32> },
    /// Indirect call dispatch (`callr`); the call returns to `ret_app`.
    IndirectCall { site: Option<u32>, ret_app: u32 },
    /// Return dispatch (`site` only when returns dispatch through a
    /// per-site jump-class strategy).
    Ret { site: Option<u32> },
    /// The fragment ends the program.
    Halt,
}

/// Control-flow metadata for one translated fragment: where its body ends
/// and which direct jumps were elided (inlined) along the way. Keyed like
/// the fragment map and cleared with it on cache flushes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FragMeta {
    /// Application pc of the instruction that ends the fragment.
    pub term_pc: u32,
    /// Application pcs of direct jumps elided mid-fragment (tail
    /// duplication): their retire events are plain fall-through here.
    pub elided_jmp_pcs: Vec<u32>,
    /// The terminal's shape.
    pub terminal: Terminal,
}

/// [`FragMeta`] per translated fragment, addressed rather than hashed: a
/// replay looks one up per control event, so the table is dense over the
/// program's code — slot `2 × word + kind` holds one past the entry's index
/// in `metas`, 0 while the word heads no fragment of that kind. A fragment
/// headed outside the program's code (a guest executing its data) gets no
/// entry; nothing but replay reads the table, and a replay arriving there
/// reports the missing metadata as a desync.
#[derive(Debug)]
pub(crate) struct FragMetaTable {
    code_base: u32,
    slots: Vec<u32>,
    metas: Vec<FragMeta>,
}

impl FragMetaTable {
    /// An empty table over `code_words` words of code at `code_base`.
    pub fn new(code_base: u32, code_words: usize) -> FragMetaTable {
        FragMetaTable {
            code_base,
            slots: vec![0; 2 * code_words],
            metas: Vec::new(),
        }
    }

    fn slot(&self, app_addr: u32, kind: FragKind) -> Option<usize> {
        let word = app_addr.checked_sub(self.code_base)? / 4;
        Some(2 * word as usize + kind as usize)
    }

    #[inline]
    pub fn get(&self, app_addr: u32, kind: FragKind) -> Option<&FragMeta> {
        let at = *self.slots.get(self.slot(app_addr, kind)?)?;
        self.metas.get((at as usize).checked_sub(1)?)
    }

    /// Whether a fragment headed at `app_addr` has a slot at all.
    pub fn covers(&self, app_addr: u32) -> bool {
        (self.slot(app_addr, FragKind::Body)).is_some_and(|s| s < self.slots.len())
    }

    /// Records `meta` for the fragment, in place of what a translation of
    /// the same head recorded before.
    pub fn insert(&mut self, app_addr: u32, kind: FragKind, meta: FragMeta) {
        let slot = self.slot(app_addr, kind);
        let Some(slot) = slot.and_then(|s| self.slots.get_mut(s)) else {
            return;
        };
        match (*slot as usize).checked_sub(1) {
            Some(at) => self.metas[at] = meta,
            None => {
                self.metas.push(meta);
                *slot = u32::try_from(self.metas.len()).expect("fragments fit the cache, so u32");
            }
        }
    }

    /// Forgets every entry (a cache flush discarded the fragments).
    pub fn clear(&mut self) {
        self.slots.fill(0);
        self.metas.clear();
    }
}

/// A recorded miss site: who trapped, and what the runtime should do about
/// it. Site ids index into the site table and travel through
/// [`SLOT_SITE`](crate::protocol::SLOT_SITE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    /// A direct-branch exit trampoline: on first execution the runtime
    /// translates `target` and (if linking is enabled) patches the
    /// trampoline head at `patch_addr` into a direct jump.
    Exit { target: u32, patch_addr: u32 },
    /// An indirect-branch site owned by strategy binding `bind`; `table`
    /// is the per-site IBTC base, if the strategy gives each site its own
    /// table.
    Ib { bind: u8, table: Option<u32> },
    /// An adaptive dispatch site; `idx` indexes the host-side
    /// [`AdaptiveSite`](crate::strategy::adaptive::AdaptiveSite) records.
    Adaptive { bind: u8, idx: u32 },
}

/// A sieve hash bucket's chain, tracked host-side so new stanzas can be
/// linked in O(1).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SieveBucket {
    /// Address of the `jmp next` word of the chain's last stanza (patched
    /// when a stanza is appended), or `None` while the bucket is empty.
    pub last_link: Option<u32>,
    /// Chain length (for probe-distribution reporting).
    pub len: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_keep_fragments_separate() {
        let mut m = FragmentMap::default();
        let body = Fragment {
            entry: 0x100,
            restore_entry: 0x100,
            body: 0x100,
        };
        let rc = Fragment {
            entry: 0x200,
            restore_entry: 0x210,
            body: 0x220,
        };
        m.insert(0x1000, FragKind::Body, body);
        m.insert(0x1000, FragKind::ReturnPoint, rc);
        assert_eq!(m.get(0x1000, FragKind::Body), Some(body));
        assert_eq!(m.get(0x1000, FragKind::ReturnPoint), Some(rc));
        assert_eq!(m.get(0x1004, FragKind::Body), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn metadata_is_addressed_by_word_and_kind() {
        let meta = |term_pc| FragMeta {
            term_pc,
            elided_jmp_pcs: vec![term_pc - 4],
            terminal: Terminal::Halt,
        };
        let mut t = FragMetaTable::new(0x1000, 4);
        t.insert(0x1000, FragKind::Body, meta(0x1008));
        t.insert(0x1000, FragKind::ReturnPoint, meta(0x100C));
        t.insert(0x100C, FragKind::Body, meta(0x100C));
        assert_eq!(t.get(0x1000, FragKind::Body), Some(&meta(0x1008)));
        assert_eq!(t.get(0x1000, FragKind::ReturnPoint), Some(&meta(0x100C)));
        assert_eq!(t.get(0x100C, FragKind::Body), Some(&meta(0x100C)));
        assert_eq!(t.get(0x100C, FragKind::ReturnPoint), None);
        assert_eq!(t.get(0x1004, FragKind::Body), None);
        // Outside the program's code there is no slot: nothing is kept,
        // nothing is found, nothing panics.
        for outside in [0x0FFC, 0x1010, 0, u32::MAX] {
            t.insert(outside, FragKind::Body, meta(0x2000));
            assert_eq!(t.get(outside, FragKind::Body), None, "{outside:#x}");
            assert!(!t.covers(outside), "{outside:#x}");
        }
        assert!(t.covers(0x1000) && t.covers(0x100C));
        // A second translation of a head replaces the first's entry.
        t.insert(0x1000, FragKind::Body, meta(0x1004));
        assert_eq!(t.get(0x1000, FragKind::Body), Some(&meta(0x1004)));
        assert_eq!(t.get(0x1000, FragKind::ReturnPoint), Some(&meta(0x100C)));
        assert_eq!(t.metas.len(), 3, "and leaves no orphan");
        t.clear();
        assert_eq!(t.get(0x1000, FragKind::Body), None);
        t.insert(0x1000, FragKind::Body, meta(0x1004));
        assert_eq!(t.get(0x1000, FragKind::Body), Some(&meta(0x1004)));
    }
}
