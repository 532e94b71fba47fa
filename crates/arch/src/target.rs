//! Pluggable indirect-branch target prediction.
//!
//! The paper's mechanism rankings were measured on machines whose indirect
//! predictors ranged from nonexistent (UltraSPARC) to a simple
//! direct-mapped BTB (Pentium-era x86). Modern cores span a much wider
//! space — set-associative BTBs with true LRU and ITTAGE-class
//! tagged-geometric target predictors — and how well the *hardware*
//! predicts the translated dispatch sequence's final `jmem`/`jr` decides
//! how much a software mechanism's extra instructions actually cost.
//!
//! [`ArchModel`](crate::ArchModel) charges `mispredict_penalty` whenever
//! the active predictor misses on an indirect transfer, and counts the
//! miss itself: a predictor only answers [`TargetPredictor`]'s one
//! question. The zoo is closed — [`PredictorSpec`] lists it and the model
//! holds one of its members by value:
//!
//! * [`Btb`](crate::Btb) — a `sets × ways` true-LRU BTB. The default,
//!   [`PredictorSpec::Legacy`], builds the profile's direct-mapped one
//!   from `btb_entries`; zero entries (`none`, or a profile without a BTB
//!   such as the sparc-like one) is no predictor: every indirect transfer
//!   mispredicts, as on the era SPARC and MIPS parts.
//! * [`Ittage`] — an ITTAGE-class tagged-geometric target predictor:
//!   a tagless base table plus tagged tables indexed by folded global
//!   target history of geometrically increasing lengths.
//! * ideal — always correct; bounds prediction-limited speedup.
//!
//! A model is an explicit input: [`ArchModel::new`](crate::ArchModel::new)
//! builds the legacy one, and
//! [`ArchModel::with_predictor_spec`](crate::ArchModel::with_predictor_spec)
//! any other. A run is handed the model it is priced under — exact
//! execution and sampled replay alike — so the predictor lives in that
//! one model; this is how the CLI's `--predictor` flag reaches a run
//! (through `strata_expt::RunContext::model`) and how fig22 sweeps the
//! zoo in one process.

use crate::{ArchProfile, Btb};

/// An indirect-branch target predictor: one `predict → train` step per
/// indirect transfer.
pub trait TargetPredictor {
    /// Predicts the target of the indirect transfer at `pc`, then trains
    /// on the actual `target`. Returns whether the prediction was correct.
    fn predict_and_update(&mut self, pc: u32, target: u32) -> bool;
}

/// The predictor a [`PredictorSpec`] builds: the model matches on this
/// closed set on the retire path instead of calling through a vtable.
#[derive(Debug)]
pub(crate) enum Target {
    Btb(Btb),
    Ittage(Ittage),
    Ideal,
}

impl TargetPredictor for Target {
    #[inline(always)]
    fn predict_and_update(&mut self, pc: u32, target: u32) -> bool {
        match self {
            Target::Btb(btb) => btb.predict_and_update(pc, target),
            Target::Ittage(ittage) => ittage.predict_and_update(pc, target),
            Target::Ideal => true,
        }
    }
}

/// One ITTAGE tagged-table entry, eight bytes.
#[derive(Debug, Clone, Copy)]
struct TaggedEntry {
    /// The entry's tag; [`NO_TAG`], which no tag equals, while the entry
    /// has never been allocated.
    tag: u16,
    target: u32,
    /// Saturating confidence (0..=3): replacement target on 0.
    conf: u8,
    /// Saturating usefulness (0..=3): allocation victim on 0.
    useful: u8,
}

/// The tag of an entry never allocated: tags are `ITTAGE_TAG_BITS` wide.
const NO_TAG: u16 = u16::MAX;

const TAGGED_EMPTY: TaggedEntry = TaggedEntry {
    tag: NO_TAG,
    target: 0,
    conf: 0,
    useful: 0,
};

/// One tagged component's entries. Sized by type, like [`Ittage`]'s base
/// table, so an index masked to the width needs no bounds check.
type TaggedTable = Box<[TaggedEntry; 1 << ITTAGE_TABLE_BITS]>;

/// The entry index and tag of the transfer at `pc` under history `ghr` in
/// component `t`, whose history length is `4 << t`.
#[inline(always)]
fn slot(pc: u32, ghr: u64, t: usize) -> (usize, u16) {
    let h = ghr & history_mask(4 << t);
    let index = ((pc >> 2) ^ fold(h, ITTAGE_TABLE_BITS)) & ((1 << ITTAGE_TABLE_BITS) - 1);
    // A different fold width decorrelates the tag from the index.
    let folded = fold(h, ITTAGE_TAG_BITS).rotate_left(3);
    let tag = ((pc >> 2) ^ (pc >> 9) ^ folded) & ((1 << ITTAGE_TAG_BITS) - 1);
    (index as usize, tag as u16)
}

/// Folds `h` into `bits` bits: the XOR of its `bits`-wide chunks. Each
/// shift-XOR doubles the span folded onto the low chunk, so a 64-bit word
/// takes `log2(64 / bits)` steps, rounded up, whatever its chunk count. A
/// constant `bits` unrolls them, and a step that shifts past every bit
/// `h` is known to hold drops out.
#[inline(always)]
fn fold(mut h: u64, bits: u32) -> u32 {
    let mut span = bits;
    while span < u64::BITS {
        h ^= h >> span;
        span *= 2;
    }
    (h & ((1 << bits) - 1)) as u32
}

/// The global-history bits a component of history length `len` reads:
/// the low `len`, all 64 from 64 on.
fn history_mask(len: u32) -> u64 {
    u64::MAX >> u64::BITS.saturating_sub(len)
}

const ITTAGE_TAG_BITS: u32 = 9;
const ITTAGE_BASE_BITS: u32 = 9;
const ITTAGE_TABLE_BITS: u32 = 8;
/// Most tagged components an [`Ittage`] takes.
const ITTAGE_MAX_TABLES: usize = 8;

/// An ITTAGE-class indirect target predictor: a tagless direct-mapped base
/// table plus `tables` tagged components indexed by folded global target
/// history of geometrically increasing lengths (4, 8, 16, …). The
/// longest-history tag match provides the prediction; mispredictions
/// allocate into a longer-history component whose victim entry has gone
/// un-useful. Correlated target sequences a BTB can never capture (a site
/// alternating between callees in a repeating pattern) train in a few
/// hundred transfers.
#[derive(Debug)]
pub struct Ittage {
    /// Direct-mapped `(pc, target)` base pairs (`pc == u32::MAX` invalid).
    base: Box<[(u32, u32); 1 << ITTAGE_BASE_BITS]>,
    /// The tagged components, shortest history first.
    tables: Vec<TaggedTable>,
    /// Global target-path history: two target bits shifted in per transfer.
    ghr: u64,
}

impl Ittage {
    /// Creates a predictor with `tables` tagged components (`1..=8`).
    ///
    /// # Panics
    ///
    /// Panics if `tables` is not in `1..=8`.
    pub fn new(tables: u32) -> Ittage {
        assert!(
            (1..=ITTAGE_MAX_TABLES as u32).contains(&tables),
            "ittage tables must be in 1..=8"
        );
        Ittage {
            base: Box::new([(u32::MAX, 0); 1 << ITTAGE_BASE_BITS]),
            tables: (0..tables)
                .map(|_| Box::new([TAGGED_EMPTY; 1 << ITTAGE_TABLE_BITS]))
                .collect(),
            ghr: 0,
        }
    }

    /// [`predict_and_update`](TargetPredictor::predict_and_update) with
    /// `N` tagged components. With `N` a constant both walks unroll, and
    /// each component's folds keep only the steps its history length
    /// needs.
    #[inline(always)]
    fn update<const N: usize>(&mut self, pc: u32, target: u32) -> bool {
        let ghr = self.ghr;
        let tables: &mut [TaggedTable; N] = (&mut self.tables[..])
            .try_into()
            .expect("called with the component count");
        let base_idx = ((pc >> 2) as usize) & (self.base.len() - 1);

        // Provider: the longest-history tagged component whose entry
        // matches, else the base table. The walk folds each table's index
        // and tag once into `slots`; it visits every table above the
        // provider (all of them without one), which is exactly the set
        // the allocation walk below reads.
        let mut slots = [(0usize, NO_TAG); N];
        let mut provider: Option<(usize, usize)> = None;
        for (t, table) in tables.iter().enumerate().rev() {
            let (idx, tag) = slot(pc, ghr, t);
            slots[t] = (idx, tag);
            if table[idx].tag == tag {
                provider = Some((t, idx));
                break;
            }
        }
        let predicted = match provider {
            Some((t, idx)) => Some(tables[t][idx].target),
            None => {
                let (tag, tgt) = self.base[base_idx];
                (tag == pc).then_some(tgt)
            }
        };
        let correct = predicted == Some(target);

        // Train the provider.
        match provider {
            Some((t, idx)) => {
                let e = &mut tables[t][idx];
                if e.target == target {
                    e.conf = (e.conf + 1).min(3);
                    e.useful = (e.useful + 1).min(3);
                } else {
                    if e.conf == 0 {
                        e.target = target;
                        e.conf = 1;
                    } else {
                        e.conf -= 1;
                    }
                    e.useful = e.useful.saturating_sub(1);
                }
            }
            None => {
                self.base[base_idx] = (pc, target);
            }
        }
        // The base learns alongside a mispredicting tagged provider too,
        // so evictions fall back to the last observed target.
        if !correct {
            self.base[base_idx] = (pc, target);
        }

        // On a misprediction, allocate in one component with a longer
        // history than the provider (decaying usefulness when every
        // candidate victim is still protected).
        if !correct {
            let from = provider.map_or(0, |(t, _)| t + 1);
            let mut allocated = false;
            for (t, &(idx, tag)) in slots.iter().enumerate().skip(from) {
                let e = &mut tables[t][idx];
                // An entry never allocated is never useful.
                if e.useful == 0 {
                    *e = TaggedEntry {
                        tag,
                        target,
                        conf: 1,
                        useful: 0,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                for (t, &(idx, _)) in slots.iter().enumerate().skip(from) {
                    let e = &mut tables[t][idx];
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }

        // Shift two bits of the resolved target into the path history —
        // folded from the whole word, so any pair of distinct targets
        // produces distinct history symbols (aligned targets share their
        // low bits).
        self.ghr = (ghr << 2) | u64::from(fold(u64::from(target >> 2), 2));
        correct
    }
}

impl TargetPredictor for Ittage {
    /// Out of line: the table walk stays out of the retire arms the BTB
    /// is inlined into. One `Ittage::update` per component count.
    #[inline(never)]
    fn predict_and_update(&mut self, pc: u32, target: u32) -> bool {
        match self.tables.len() {
            1 => self.update::<1>(pc, target),
            2 => self.update::<2>(pc, target),
            3 => self.update::<3>(pc, target),
            4 => self.update::<4>(pc, target),
            5 => self.update::<5>(pc, target),
            6 => self.update::<6>(pc, target),
            7 => self.update::<7>(pc, target),
            _ => self.update::<ITTAGE_MAX_TABLES>(pc, target),
        }
    }
}

/// A `--predictor` specification: which target predictor the cost model
/// charges indirect transfers with.
///
/// Grammar (see [`PredictorSpec::parse`]):
///
/// ```text
/// legacy | none | ideal | btb:<entries> | btb:<sets>x<ways> | ittage[:<tables>]
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictorSpec {
    /// The profile's own direct-mapped BTB (`btb_entries`) — the default;
    /// byte-identical to the pre-predictor-layer cost model.
    #[default]
    Legacy,
    /// No indirect prediction at all, regardless of profile.
    None,
    /// Perfect prediction, regardless of profile.
    Ideal,
    /// A `sets × ways` true-LRU BTB (overrides the profile):
    /// `btb:<entries>` is the direct-mapped (1-way) case.
    Btb {
        /// Sets (0 = no predictor, else a power of two `1..=65536`).
        sets: u32,
        /// Ways (`1..=16`).
        ways: u32,
    },
    /// An ITTAGE-class tagged-geometric target predictor.
    Ittage {
        /// Tagged components (`1..=8`).
        tables: u32,
    },
}

/// A `--predictor` parse failure, with the byte span of the offending
/// token inside the original spec (for caret diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictorParseError {
    /// What was wrong.
    pub msg: String,
    /// Byte offset of the offending token.
    pub start: usize,
    /// Byte length of the offending token (at least 1).
    pub len: usize,
}

impl PredictorParseError {
    fn new(msg: impl Into<String>, start: usize, len: usize) -> PredictorParseError {
        PredictorParseError {
            msg: msg.into(),
            start,
            len: len.max(1),
        }
    }
}

impl std::fmt::Display for PredictorParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for PredictorParseError {}

fn parse_num(s: &str, what: &str, at: usize) -> Result<u32, PredictorParseError> {
    if s.is_empty() {
        return Err(PredictorParseError::new(format!("missing {what}"), at, 1));
    }
    if !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(PredictorParseError::new(
            format!("{what} must be a number, got '{s}'"),
            at,
            s.len(),
        ));
    }
    s.parse::<u32>()
        .map_err(|_| PredictorParseError::new(format!("{what} '{s}' out of range"), at, s.len()))
}

impl PredictorSpec {
    /// Parses a `--predictor` spec. Errors carry the offending token's
    /// span for caret diagnostics.
    pub fn parse(spec: &str) -> Result<PredictorSpec, PredictorParseError> {
        let (head, arg) = match spec.find(':') {
            Some(i) => (&spec[..i], Some((&spec[i + 1..], i + 1))),
            None => (spec, None),
        };
        let no_arg = |v: PredictorSpec| match arg {
            Some((a, at)) => Err(PredictorParseError::new(
                format!("'{head}' takes no argument"),
                at,
                a.len(),
            )),
            None => Ok(v),
        };
        match head {
            "legacy" => no_arg(PredictorSpec::Legacy),
            "none" => no_arg(PredictorSpec::None),
            "ideal" => no_arg(PredictorSpec::Ideal),
            "btb" => {
                let (a, at) = arg.ok_or_else(|| {
                    PredictorParseError::new(
                        "btb needs a size: btb:<entries> or btb:<sets>x<ways>",
                        spec.len(),
                        1,
                    )
                })?;
                match a.find('x') {
                    Some(i) => {
                        let sets = parse_num(&a[..i], "btb sets", at)?;
                        if !sets.is_power_of_two() || sets > 65536 {
                            return Err(PredictorParseError::new(
                                format!("btb sets {sets} must be a power of two in 1..=65536"),
                                at,
                                i,
                            ));
                        }
                        let ways = parse_num(&a[i + 1..], "btb ways", at + i + 1)?;
                        if !(1..=16).contains(&ways) {
                            return Err(PredictorParseError::new(
                                format!("btb ways {ways} must be in 1..=16"),
                                at + i + 1,
                                a.len() - i - 1,
                            ));
                        }
                        Ok(PredictorSpec::Btb { sets, ways })
                    }
                    None => {
                        let entries = parse_num(a, "btb entries", at)?;
                        if entries != 0 && (!entries.is_power_of_two() || entries > 65536) {
                            return Err(PredictorParseError::new(
                                format!("btb entries {entries} must be 0 or a power of two in 1..=65536"),
                                at,
                                a.len(),
                            ));
                        }
                        Ok(PredictorSpec::Btb {
                            sets: entries,
                            ways: 1,
                        })
                    }
                }
            }
            "ittage" => {
                let tables = match arg {
                    Some((a, at)) => {
                        let t = parse_num(a, "ittage tables", at)?;
                        if !(1..=8).contains(&t) {
                            return Err(PredictorParseError::new(
                                format!("ittage tables {t} must be in 1..=8"),
                                at,
                                a.len(),
                            ));
                        }
                        t
                    }
                    None => 4,
                };
                Ok(PredictorSpec::Ittage { tables })
            }
            other => Err(PredictorParseError::new(
                format!(
                    "unknown predictor '{other}' (expected legacy, none, ideal, btb:<n>, btb:<s>x<w>, or ittage[:<t>])"
                ),
                0,
                other.len(),
            )),
        }
    }

    /// Canonical stable label — used in store-key namespaces and as the
    /// row label in fig22.
    pub fn label(&self) -> String {
        match *self {
            PredictorSpec::Legacy => "legacy".to_string(),
            PredictorSpec::None => "none".to_string(),
            PredictorSpec::Ideal => "ideal".to_string(),
            PredictorSpec::Btb { sets, ways: 1 } => format!("btb:{sets}"),
            PredictorSpec::Btb { sets, ways } => format!("btb:{sets}x{ways}"),
            PredictorSpec::Ittage { tables } => format!("ittage:{tables}"),
        }
    }

    /// Builds the predictor this spec selects under `profile`.
    pub(crate) fn build(&self, profile: &ArchProfile) -> Target {
        match *self {
            PredictorSpec::Legacy => Target::Btb(Btb::new(profile.btb_entries)),
            PredictorSpec::None => Target::Btb(Btb::new(0)),
            PredictorSpec::Ideal => Target::Ideal,
            PredictorSpec::Btb { sets, ways } => Target::Btb(Btb::with_geometry(sets, ways)),
            PredictorSpec::Ittage { tables } => Target::Ittage(Ittage::new(tables)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_stats::rng::SmallRng;

    /// A synthetic indirect-branch trace: `sites` branch pcs, each with a
    /// target set whose element is chosen by a per-site repeating pattern.
    fn synthetic_trace(seed: u64, len: usize) -> Vec<(u32, u32)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let sites: Vec<(u32, Vec<u32>, usize)> = (0..8)
            .map(|i| {
                let pc = 0x1000 + i * 0x40;
                let arity = 1 + (rng.next_u64() % 4) as usize;
                let targets: Vec<u32> = (0..arity)
                    .map(|t| 0x20000 + (t as u32) * 0x100 + i)
                    .collect();
                let period = 1 + (rng.next_u64() % 6) as usize;
                (pc, targets, period)
            })
            .collect();
        let mut out = Vec::with_capacity(len);
        for step in 0..len {
            let (pc, targets, period) = &sites[(rng.next_u64() % sites.len() as u64) as usize];
            out.push((*pc, targets[(step / period) % targets.len()]));
        }
        out
    }

    /// `(correct, mispredicted)` over `trace`, counted from the verdicts.
    fn drive(mut p: impl TargetPredictor, trace: &[(u32, u32)]) -> (u64, u64) {
        let hits = trace
            .iter()
            .filter(|&&(pc, target)| p.predict_and_update(pc, target))
            .count() as u64;
        (hits, trace.len() as u64 - hits)
    }

    /// Mispredictions over `trace`.
    fn misses(p: &mut impl TargetPredictor, trace: &[(u32, u32)]) -> usize {
        trace
            .iter()
            .filter(|&&(pc, target)| !p.predict_and_update(pc, target))
            .count()
    }

    #[test]
    fn zoo_is_deterministic_on_seeded_traces() {
        // Same trace → same counters, for every model in the zoo.
        for seed in [1u64, 7, 42] {
            let trace = synthetic_trace(seed, 4000);
            let specs = [
                PredictorSpec::None,
                PredictorSpec::Ideal,
                PredictorSpec::Btb { sets: 64, ways: 1 },
                PredictorSpec::Btb { sets: 16, ways: 4 },
                PredictorSpec::Ittage { tables: 4 },
            ];
            for spec in specs {
                let profile = ArchProfile::x86_like();
                let a = drive(spec.build(&profile), &trace);
                let b = drive(spec.build(&profile), &trace);
                assert_eq!(a, b, "{} not deterministic (seed {seed})", spec.label());
                assert_eq!(a.0 + a.1, trace.len() as u64);
            }
        }
    }

    #[test]
    fn no_predict_and_oracle_bound_the_zoo() {
        let trace = synthetic_trace(3, 2000);
        let profile = ArchProfile::x86_like();
        let (none_hits, none_misses) = drive(PredictorSpec::None.build(&profile), &trace);
        let (ideal_hits, ideal_misses) = drive(PredictorSpec::Ideal.build(&profile), &trace);
        assert_eq!((none_hits, none_misses), (0, trace.len() as u64));
        assert_eq!((ideal_hits, ideal_misses), (trace.len() as u64, 0));
        for spec in [
            PredictorSpec::Btb { sets: 64, ways: 1 },
            PredictorSpec::Btb { sets: 16, ways: 4 },
            PredictorSpec::Ittage { tables: 4 },
        ] {
            let (hits, misses) = drive(spec.build(&profile), &trace);
            assert!(
                hits <= ideal_hits && misses <= none_misses,
                "{}",
                spec.label()
            );
        }
    }

    #[test]
    fn set_assoc_survives_conflicting_sites_where_direct_mapped_thrashes() {
        // Four monomorphic sites whose pcs alias in one set of a 4-set
        // table and in one entry of a 16-entry direct-mapped table: four
        // ways hold them all after the cold misses; one way of equal
        // capacity evicts on every access.
        let sets = 4u32;
        let trace: Vec<(u32, u32)> = (0..64)
            .flat_map(|_| (0..4).map(|i| 0x1000 + i * (sets * 4 * 16)))
            .map(|pc| (pc, pc + 0x100))
            .collect();
        let sa = misses(&mut Btb::with_geometry(sets, 4), &trace);
        assert_eq!(sa, 4, "4 ways hold 4 aliases");
        let dm = misses(&mut Btb::new(sets * 4), &trace);
        assert!(dm > 200, "direct-mapped aliases thrash: {dm}");
    }

    #[test]
    fn ittage_converges_on_patterned_site_btb_cannot() {
        // One site alternating A,B,A,B…: the last-target BTB mispredicts
        // every transfer after warmup; ITTAGE's history components lock on.
        let pc = 0x2000;
        let trace: Vec<(u32, u32)> = (0..1200)
            .map(|i| (pc, [0x30000u32, 0x30400][i % 2]))
            .collect();
        let (warmup, tail) = trace.split_at(1000);
        let mut btb = Btb::new(512);
        let mut it = Ittage::new(4);
        misses(&mut btb, warmup);
        misses(&mut it, warmup);
        assert_eq!(misses(&mut btb, tail), 200, "BTB never adapts");
        assert_eq!(misses(&mut it, tail), 0, "ITTAGE fully converged");
    }

    #[test]
    fn ittage_trains_monomorphic_site_quickly() {
        let mut it = Ittage::new(4);
        misses(&mut it, &[(0x4000, 0x50000); 8]);
        assert_eq!(misses(&mut it, &[(0x4000, 0x50000); 100]), 0);
    }

    /// The chunk-by-chunk fold the shift-XOR one replaces.
    fn fold_by_chunks(h: u64, len: u32, bits: u32) -> u32 {
        let mut h = if len >= 64 {
            h
        } else {
            h & ((1u64 << len) - 1)
        };
        let mut f = 0u64;
        while h != 0 {
            f ^= h & ((1u64 << bits) - 1);
            h >>= bits;
        }
        f as u32
    }

    #[test]
    fn folds_equal_the_chunk_loop_for_every_width_ittage_uses() {
        let mut rng = SmallRng::seed_from_u64(0xF01D);
        let words = [0, 1, u64::MAX, 0x8000_0000_0000_0000, 0x5555_5555_5555_5555];
        let words: Vec<u64> = words
            .into_iter()
            .chain((0..2000).map(|_| rng.next_u64()))
            .collect();
        // Every component `ittage:1..=8` builds folds its history into an
        // index and a tag; the history push folds a 30-bit target.
        let pairs = (0..ITTAGE_MAX_TABLES as u32)
            .map(|i| 4 << i)
            .flat_map(|len| [(len, ITTAGE_TABLE_BITS), (len, ITTAGE_TAG_BITS)])
            .chain([(32, 2)]);
        for (len, bits) in pairs {
            for &h in &words {
                let h = if len == 32 { h >> 34 } else { h };
                let want = fold_by_chunks(h, len, bits);
                assert_eq!(
                    fold(h & history_mask(len), bits),
                    want,
                    "{h:#x} {len} {bits}"
                );
            }
        }
    }

    #[test]
    fn every_component_count_predicts_as_the_chunk_loop_folds_did() {
        // Mispredictions per component count on two seeded traces, as
        // counted when every fold walked its history chunk by chunk and
        // one walk served every count.
        let pinned = [
            (11, [6889, 6871, 6898, 7023, 7142, 7145, 7143, 7143]),
            (5, [11041, 10947, 11001, 11067, 11104, 11105, 11105, 11105]),
        ];
        for (seed, want) in pinned {
            let trace = synthetic_trace(seed, 20_000);
            let got = (1..=8).map(|n| misses(&mut Ittage::new(n), &trace));
            assert_eq!(got.collect::<Vec<_>>(), want, "seed {seed}");
        }
    }

    #[test]
    fn spec_parses_and_labels_round_trip() {
        let cases = [
            ("legacy", PredictorSpec::Legacy),
            ("none", PredictorSpec::None),
            ("ideal", PredictorSpec::Ideal),
            (
                "btb:1024",
                PredictorSpec::Btb {
                    sets: 1024,
                    ways: 1,
                },
            ),
            ("btb:0", PredictorSpec::Btb { sets: 0, ways: 1 }),
            ("btb:256x4", PredictorSpec::Btb { sets: 256, ways: 4 }),
            ("ittage:6", PredictorSpec::Ittage { tables: 6 }),
        ];
        for (s, spec) in cases {
            assert_eq!(PredictorSpec::parse(s).unwrap(), spec, "{s}");
            assert_eq!(spec.label(), s, "label round-trips");
        }
        assert_eq!(
            PredictorSpec::parse("ittage").unwrap(),
            PredictorSpec::Ittage { tables: 4 },
            "default table count"
        );
        // One way is the direct-mapped BTB: one spec, one label.
        let one_way = PredictorSpec::parse("btb:64x1").unwrap();
        assert_eq!(one_way, PredictorSpec::parse("btb:64").unwrap());
        assert_eq!(one_way.label(), "btb:64");
    }

    #[test]
    fn spec_errors_carry_spans() {
        let err = PredictorSpec::parse("btb:12x4").unwrap_err();
        assert!(err.msg.contains("power of two"), "{}", err.msg);
        assert_eq!((err.start, err.len), (4, 2));

        let err = PredictorSpec::parse("btb:256xtwo").unwrap_err();
        assert!(err.msg.contains("must be a number"), "{}", err.msg);
        assert_eq!((err.start, err.len), (8, 3));

        let err = PredictorSpec::parse("tage").unwrap_err();
        assert!(err.msg.contains("unknown predictor"), "{}", err.msg);
        assert_eq!((err.start, err.len), (0, 4));

        let err = PredictorSpec::parse("ideal:3").unwrap_err();
        assert!(err.msg.contains("takes no argument"), "{}", err.msg);
        assert_eq!((err.start, err.len), (6, 1));

        let err = PredictorSpec::parse("ittage:9").unwrap_err();
        assert!(err.msg.contains("1..=8"), "{}", err.msg);
        assert_eq!((err.start, err.len), (7, 1));
    }

    #[test]
    fn legacy_spec_builds_profile_btb() {
        let profile = ArchProfile::sparc_like();
        let mut p = PredictorSpec::Legacy.build(&profile);
        // sparc has no BTB: every transfer misses, exactly like Btb::new(0).
        assert!(!p.predict_and_update(0x100, 0x200));
        assert!(!p.predict_and_update(0x100, 0x200));
        assert!(matches!(p, Target::Btb(_)));
    }
}
