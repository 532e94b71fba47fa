/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> u32 {
        self.sets * self.ways * self.line_bytes
    }
}

/// A set-associative, LRU, write-allocate cache simulator.
///
/// Only hit/miss behaviour is modeled (no data storage, no writeback
/// traffic) — the cost models charge a fixed penalty per miss.
///
/// ```
/// use strata_arch::{CacheConfig, CacheSim};
/// let mut c = CacheSim::new(CacheConfig { sets: 2, ways: 1, line_bytes: 16 });
/// assert!(!c.access(0x00));  // cold miss
/// assert!(c.access(0x04));   // same line
/// assert!(!c.access(0x20));  // same set, evicts
/// assert!(!c.access(0x00));  // brought back
/// assert_eq!(c.misses(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct CacheSim {
    config: CacheConfig,
    /// Resident lines, `ways` per set, each set in recency order (most
    /// recent first); `u64::MAX` = invalid, so invalid ways sit last.
    tags: Vec<u64>,
    /// `log2(line_bytes)`, so the per-access line computation is a shift
    /// instead of a hardware divide.
    line_shift: u32,
    /// `sets - 1` (sets is a power of two).
    set_mask: u32,
    /// Line of the previous access (`u64::MAX` before the first): the
    /// same-line filter in [`CacheSim::access`].
    last_line: u64,
    hits: u64,
    misses: u64,
}

impl CacheSim {
    /// Creates a cold cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_bytes` is not a power of two, or if any
    /// dimension is zero.
    pub fn new(config: CacheConfig) -> CacheSim {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.ways > 0, "associativity must be nonzero");
        let slots = (config.sets * config.ways) as usize;
        CacheSim {
            config,
            tags: vec![u64::MAX; slots],
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: config.sets - 1,
            last_line: u64::MAX,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Simulates an access to `addr`; returns `true` on hit. Misses
    /// allocate the line, evicting LRU.
    ///
    /// Each set is kept in recency order: the hit way, or on a miss the
    /// last (least recent or invalid) way, moves to the front.
    ///
    /// An access to the line touched by the previous access is answered
    /// without searching the set. That is exact under LRU: nothing
    /// intervened, so the line is resident and already at the front of its
    /// set. Most instruction fetches take this path.
    ///
    /// One access is stepped here; a [`Pricer`](crate::Pricer) steps a
    /// batch of them at once. Both search the set with the same body.
    #[inline(always)]
    pub fn access(&mut self, addr: u32) -> bool {
        let line = u64::from(addr >> self.line_shift);
        if line == self.last_line {
            self.hits += 1;
            return true;
        }
        self.last_line = line;
        let ways = self.config.ways as usize;
        let hit = Self::probe::<0>(&mut self.tags, self.set_mask, ways, line);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Steps the cache over `items` in order, as [`access`](Self::access)
    /// on each item's `addr`, and calls `on_miss` with every item that
    /// missed. The set search is specialised on the geometry's way count
    /// once per call, not per access.
    #[inline]
    pub(crate) fn access_all<T>(
        &mut self,
        items: &[T],
        addr: impl Fn(&T) -> u32,
        on_miss: impl FnMut(&T),
    ) {
        match self.config.ways {
            1 => self.access_all_in::<1, T>(items, addr, on_miss),
            2 => self.access_all_in::<2, T>(items, addr, on_miss),
            4 => self.access_all_in::<4, T>(items, addr, on_miss),
            8 => self.access_all_in::<8, T>(items, addr, on_miss),
            _ => self.access_all_in::<0, T>(items, addr, on_miss),
        }
    }

    /// Books `n` accesses known to repeat the previous access's line: hits
    /// that [`access`](Self::access) would answer without searching.
    pub(crate) fn book_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// [`access_all`](Self::access_all) with the way count `W` (0: the
    /// geometry's). The previous line and the counters live in locals for
    /// the whole batch.
    #[inline(always)]
    fn access_all_in<const W: usize, T>(
        &mut self,
        items: &[T],
        addr: impl Fn(&T) -> u32,
        mut on_miss: impl FnMut(&T),
    ) {
        let ways = self.config.ways as usize;
        let (shift, set_mask) = (self.line_shift, self.set_mask);
        let tags = &mut self.tags[..];
        let mut last = self.last_line;
        let mut misses = 0;
        for item in items {
            let line = u64::from(addr(item) >> shift);
            if line == last {
                continue;
            }
            last = line;
            if !Self::probe::<W>(tags, set_mask, ways, line) {
                misses += 1;
                on_miss(item);
            }
        }
        self.last_line = last;
        self.misses += misses;
        self.hits += items.len() as u64 - misses;
    }

    /// The set search, the one every access takes that leaves the previous
    /// access's line: finds `line` in its set of `tags` and moves it to the
    /// front, or on a miss moves it into the last way, and returns whether
    /// it was resident. `W` is the way count, or 0 to read `ways`: with `W`
    /// a constant the way scan and the move-to-front unroll.
    #[inline(always)]
    fn probe<const W: usize>(tags: &mut [u64], set_mask: u32, ways: usize, line: u64) -> bool {
        let ways = if W == 0 { ways } else { W };
        let base = ((line as u32) & set_mask) as usize * ways;
        let set = &mut tags[base..base + ways];
        let found = set.iter().position(|&tag| tag == line);
        let way = found.unwrap_or(ways - 1);
        for i in (1..=way).rev() {
            set[i] = set[i - 1];
        }
        set[0] = line;
        found.is_some()
    }

    /// Number of hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio in `0.0..=1.0` (0.0 when no accesses).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheSim {
        CacheSim::new(CacheConfig {
            sets: 4,
            ways: 2,
            line_bytes: 32,
        })
    }

    #[test]
    fn spatial_locality_hits() {
        let mut c = tiny();
        assert!(!c.access(0x100));
        for off in 1..32 {
            assert!(c.access(0x100 + off), "offset {off} shares the line");
        }
    }

    #[test]
    fn lru_within_set() {
        let mut c = tiny();
        // Three lines mapping to set 0 (line addresses multiples of 32*4).
        let a = 0x000;
        let b = 0x080;
        let d = 0x100;
        c.access(a);
        c.access(b);
        c.access(a); // a most recent
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a));
        assert!(!c.access(b));
    }

    #[test]
    fn capacity() {
        assert_eq!(tiny().config().capacity(), 4 * 2 * 32);
    }

    #[test]
    fn miss_ratio_tracks() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        assert_eq!(c.miss_ratio(), 0.5);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        CacheSim::new(CacheConfig {
            sets: 3,
            ways: 1,
            line_bytes: 32,
        });
    }
}
