/// A gshare conditional-branch predictor: a table of 2-bit saturating
/// counters indexed by `pc ⊕ global-history`.
///
/// ```
/// use strata_arch::CondPredictor;
/// let mut p = CondPredictor::new(10);
/// // An always-taken branch trains once the global history saturates.
/// let pc = 0x1000;
/// for _ in 0..16 { p.predict_and_update(pc, true); }
/// assert!(p.predict_and_update(pc, true));
/// ```
#[derive(Debug, Clone)]
pub struct CondPredictor {
    counters: Vec<u8>,
    mask: u32,
    index_bits: u32,
    /// Global-history register, masked to its *own* length — historically
    /// this reused the counter-index mask, silently clamping the history
    /// to `index_bits` outcomes.
    history: u32,
    hist_mask: u32,
    hits: u64,
    misses: u64,
}

impl CondPredictor {
    /// Creates a predictor with `2^index_bits` counters, initialized to
    /// weakly-not-taken, tracking `index_bits` of global history.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 24.
    pub fn new(index_bits: u32) -> CondPredictor {
        CondPredictor::with_history(index_bits, index_bits)
    }

    /// Creates a predictor with `2^index_bits` counters and a
    /// `history_bits`-deep global history register. Histories longer than
    /// the index are folded (XOR of `index_bits`-wide chunks) into the
    /// counter index; `history_bits == 0` degenerates to a bimodal
    /// (pc-indexed) predictor.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 24, or `history_bits`
    /// exceeds 32.
    pub fn with_history(index_bits: u32, history_bits: u32) -> CondPredictor {
        assert!(
            (1..=24).contains(&index_bits),
            "index_bits must be in 1..=24"
        );
        assert!(history_bits <= 32, "history_bits must be at most 32");
        CondPredictor {
            counters: vec![1; 1 << index_bits],
            mask: (1 << index_bits) - 1,
            index_bits,
            history: 0,
            hist_mask: if history_bits >= 32 {
                u32::MAX
            } else {
                (1u32 << history_bits).wrapping_sub(1)
            },
            hits: 0,
            misses: 0,
        }
    }

    /// The history register folded down to the counter-index width. When
    /// the history is no longer than the index this is the history itself,
    /// preserving the classic gshare indexing bit-for-bit.
    #[inline(always)]
    fn folded_history(&self) -> u32 {
        let mut h = self.history;
        let mut f = 0;
        while h != 0 {
            f ^= h & self.mask;
            h >>= self.index_bits;
        }
        f
    }

    /// Returns the prediction for (`pc`, current history), then updates the
    /// predictor with the actual outcome. The return value is whether the
    /// *prediction was correct*.
    #[inline(always)]
    pub fn predict_and_update(&mut self, pc: u32, taken: bool) -> bool {
        let idx = (((pc >> 2) ^ self.folded_history()) & self.mask) as usize;
        let counter = self.counters[idx];
        let predicted_taken = counter >= 2;
        let correct = predicted_taken == taken;
        self.counters[idx] = if taken {
            (counter + 1).min(3)
        } else {
            counter.saturating_sub(1)
        };
        self.history = ((self.history << 1) | taken as u32) & self.hist_mask;
        if correct {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        correct
    }

    /// Mispredictions so far.
    pub fn mispredicts(&self) -> u64 {
        self.misses
    }

    /// Correct predictions so far.
    pub fn correct(&self) -> u64 {
        self.hits
    }
}

/// A direct-mapped branch target buffer for indirect transfers.
///
/// Each entry remembers the last target observed for an indirect branch at
/// a given `pc`. A size of zero models architectures with no indirect-branch
/// predictor (every indirect transfer mispredicts), as on the era SPARC and
/// MIPS parts the paper measured.
#[derive(Debug, Clone)]
pub struct Btb {
    /// `(tag_pc, target)` pairs; empty vector = no BTB.
    entries: Vec<(u32, u32)>,
    /// `entries.len() - 1` when entries exist (power-of-two index mask),
    /// 0 otherwise.
    mask: usize,
    hits: u64,
    misses: u64,
}

impl Btb {
    /// Creates a BTB with `entries` slots (0 = no predictor; otherwise must
    /// be a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is nonzero and not a power of two.
    pub fn new(entries: u32) -> Btb {
        assert!(
            entries == 0 || entries.is_power_of_two(),
            "BTB entries must be 0 or a power of two"
        );
        Btb {
            entries: vec![(u32::MAX, 0); entries as usize],
            mask: (entries as usize).saturating_sub(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Predicts the target of the indirect branch at `pc`, then updates the
    /// entry with the actual `target`. Returns `true` if the prediction was
    /// correct.
    #[inline]
    pub fn predict_and_update(&mut self, pc: u32, target: u32) -> bool {
        if self.entries.is_empty() {
            self.misses += 1;
            return false;
        }
        let idx = ((pc >> 2) as usize) & self.mask;
        let (tag, predicted) = self.entries[idx];
        let correct = tag == pc && predicted == target;
        self.entries[idx] = (pc, target);
        if correct {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        correct
    }

    /// Mispredictions so far.
    pub fn mispredicts(&self) -> u64 {
        self.misses
    }

    /// Correct predictions so far.
    pub fn correct(&self) -> u64 {
        self.hits
    }
}

/// A fixed-depth return-address stack.
///
/// Calls push their fall-through address; returns pop and compare against
/// the actual target. Overflow wraps (overwriting the oldest entry), as in
/// real hardware.
#[derive(Debug, Clone)]
pub struct Ras {
    stack: Vec<u32>,
    top: usize,
    depth: usize,
    live: usize,
    hits: u64,
    misses: u64,
}

impl Ras {
    /// Creates a return-address stack of the given depth (0 disables it —
    /// every return mispredicts).
    pub fn new(depth: usize) -> Ras {
        Ras {
            stack: vec![0; depth.max(1)],
            top: 0,
            depth,
            live: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Records a call whose return will land at `return_addr`.
    #[inline(always)]
    pub fn push(&mut self, return_addr: u32) {
        if self.depth == 0 {
            return;
        }
        self.top = (self.top + 1) % self.depth;
        self.stack[self.top] = return_addr;
        self.live = (self.live + 1).min(self.depth);
    }

    /// Pops a prediction and compares it with the actual return target.
    /// Returns `true` if predicted correctly.
    #[inline(always)]
    pub fn pop_and_check(&mut self, target: u32) -> bool {
        if self.depth == 0 || self.live == 0 {
            self.misses += 1;
            return false;
        }
        let predicted = self.stack[self.top];
        self.top = (self.top + self.depth - 1) % self.depth;
        self.live -= 1;
        if predicted == target {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Mispredictions so far.
    pub fn mispredicts(&self) -> u64 {
        self.misses
    }

    /// Correct predictions so far.
    pub fn correct(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_learns_loop_branch() {
        let mut p = CondPredictor::new(8);
        let pc = 0x400;
        // Warm up until the global history saturates (all-taken) and the
        // final table entry trains, then expect sustained correct
        // predictions.
        for _ in 0..12 {
            p.predict_and_update(pc, true);
        }
        let before = p.mispredicts();
        for _ in 0..100 {
            p.predict_and_update(pc, true);
        }
        assert_eq!(p.mispredicts(), before);
    }

    #[test]
    fn history_length_is_decoupled_from_index_bits() {
        // Regression: history used to be masked with the counter-index
        // mask, so a "with more history" configuration silently behaved
        // like the short one. A period-6 pattern whose 4-outcome windows
        // are ambiguous (TTTT precedes both T and N) needs more than 4
        // bits of history to predict perfectly.
        let pattern = [true, true, true, true, true, false];
        let run = |mut p: CondPredictor| {
            for i in 0..600 {
                p.predict_and_update(0x1000, pattern[i % pattern.len()]);
            }
            let warm = p.mispredicts();
            for i in 600..1200 {
                p.predict_and_update(0x1000, pattern[i % pattern.len()]);
            }
            p.mispredicts() - warm
        };
        let short = run(CondPredictor::with_history(8, 4));
        let long = run(CondPredictor::with_history(8, 12));
        assert_eq!(long, 0, "12-bit history disambiguates the period");
        assert!(short > 0, "4-bit history stays ambiguous");
    }

    #[test]
    fn zero_history_degenerates_to_bimodal() {
        // An alternating branch defeats a pure bimodal predictor but is
        // trivial for any history-indexed one.
        let run = |mut p: CondPredictor| {
            for i in 0..200 {
                p.predict_and_update(0x2000, i % 2 == 0);
            }
            let warm = p.mispredicts();
            for i in 200..400 {
                p.predict_and_update(0x2000, i % 2 == 0);
            }
            p.mispredicts() - warm
        };
        assert_eq!(run(CondPredictor::new(10)), 0);
        assert!(run(CondPredictor::with_history(10, 0)) >= 100);
    }

    #[test]
    fn equal_history_matches_legacy_new() {
        // `new(n)` must stay bit-identical to `with_history(n, n)` — the
        // profiles set both fields equal precisely so charged cycles do
        // not move.
        let mut a = CondPredictor::new(8);
        let mut b = CondPredictor::with_history(8, 8);
        let mut state = 0x1234_5678_u32;
        for _ in 0..5000 {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let pc = 0x1000 + (state & 0xFFC);
            let taken = state & 0x10000 != 0;
            assert_eq!(
                a.predict_and_update(pc, taken),
                b.predict_and_update(pc, taken)
            );
        }
        assert_eq!(a.mispredicts(), b.mispredicts());
        assert_eq!(a.correct(), b.correct());
    }

    #[test]
    fn btb_monomorphic_vs_polymorphic() {
        let mut b = Btb::new(64);
        let pc = 0x800;
        b.predict_and_update(pc, 0x1000); // cold miss
        assert!(b.predict_and_update(pc, 0x1000));
        assert!(!b.predict_and_update(pc, 0x2000)); // target changed
        assert!(b.predict_and_update(pc, 0x2000));
    }

    #[test]
    fn zero_entry_btb_always_misses() {
        let mut b = Btb::new(0);
        assert!(!b.predict_and_update(0x100, 0x200));
        assert!(!b.predict_and_update(0x100, 0x200));
        assert_eq!(b.correct(), 0);
    }

    #[test]
    fn ras_matches_balanced_calls() {
        let mut r = Ras::new(8);
        r.push(0x104);
        r.push(0x204);
        assert!(r.pop_and_check(0x204));
        assert!(r.pop_and_check(0x104));
        // Underflow mispredicts.
        assert!(!r.pop_and_check(0x104));
    }

    #[test]
    fn ras_overflow_wraps() {
        let mut r = Ras::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // overwrites 1
        assert!(r.pop_and_check(3));
        assert!(r.pop_and_check(2));
        assert!(!r.pop_and_check(1));
    }

    #[test]
    fn zero_depth_ras() {
        let mut r = Ras::new(0);
        r.push(0x104);
        assert!(!r.pop_and_check(0x104));
    }
}
