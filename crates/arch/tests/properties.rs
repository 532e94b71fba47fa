//! Randomized tests for the microarchitecture simulators, driven by the
//! repo's deterministic [`SmallRng`] rather than an external
//! property-testing framework.

use strata_arch::{ArchProfile, Btb, CacheConfig, CacheSim, Ras, TargetPredictor};
use strata_stats::rng::SmallRng;

#[test]
fn cache_access_immediately_after_access_hits() {
    let mut rng = SmallRng::seed_from_u64(0xCAC4_0001);
    for _ in 0..50 {
        let mut c = CacheSim::new(CacheConfig {
            sets: 16,
            ways: 2,
            line_bytes: 32,
        });
        for _ in 0..rng.gen_range(1usize..200) {
            let a = rng.next_u32();
            c.access(a);
            assert!(
                c.access(a),
                "address {a:#x} must hit right after being brought in"
            );
        }
    }
}

#[test]
fn cache_counters_are_consistent() {
    let mut rng = SmallRng::seed_from_u64(0xCAC4_0002);
    for _ in 0..50 {
        let mut c = CacheSim::new(CacheConfig {
            sets: 8,
            ways: 4,
            line_bytes: 16,
        });
        let n = rng.gen_range(0usize..500);
        for _ in 0..n {
            c.access(rng.next_u32());
        }
        assert_eq!(c.hits() + c.misses(), n as u64);
        let r = c.miss_ratio();
        assert!((0.0..=1.0).contains(&r));
    }
}

#[test]
fn working_set_within_one_set_capacity_never_thrashes() {
    for ways in 1u32..8 {
        // `ways` distinct lines in the same set: after the cold pass, every
        // subsequent access hits (LRU keeps the whole working set).
        let cfg = CacheConfig {
            sets: 4,
            ways,
            line_bytes: 32,
        };
        let mut c = CacheSim::new(cfg);
        let set_stride = cfg.sets * cfg.line_bytes;
        let lines: Vec<u32> = (0..ways).map(|i| i * set_stride).collect();
        for &l in &lines {
            c.access(l);
        }
        let misses_after_warmup = c.misses();
        for _ in 0..5 {
            for &l in &lines {
                c.access(l);
            }
        }
        assert_eq!(c.misses(), misses_after_warmup);
    }
}

/// Textbook LRU with no shortcuts: each set is a recency-ordered list of
/// resident lines, most recent first.
struct ReferenceLru {
    config: CacheConfig,
    sets: Vec<Vec<u32>>,
}

impl ReferenceLru {
    fn access(&mut self, addr: u32) -> bool {
        let line = addr / self.config.line_bytes;
        let set = &mut self.sets[(line % self.config.sets) as usize];
        let found = set.iter().position(|&l| l == line);
        match found {
            Some(i) => drop(set.remove(i)),
            None => set.truncate(self.config.ways as usize - 1),
        }
        set.insert(0, line);
        found.is_some()
    }
}

#[test]
fn cache_matches_reference_lru_on_streams_with_same_line_runs() {
    // `CacheSim::access` answers a repeat of the previous line without
    // touching the set. Hit for hit, that must be indistinguishable from
    // plain LRU — on instruction-fetch-like streams (runs inside a line)
    // and across every geometry the profiles use, plus the degenerate ones.
    let mut geometries: Vec<CacheConfig> = ArchProfile::all()
        .iter()
        .flat_map(|p| [p.icache, p.dcache])
        .collect();
    geometries.extend([(64, 1, 32), (1, 4, 32), (1, 1, 4), (2, 1, 16)].map(
        |(sets, ways, line_bytes)| CacheConfig {
            sets,
            ways,
            line_bytes,
        },
    ));
    let mut rng = SmallRng::seed_from_u64(0xCAC4_0004);
    for config in geometries {
        for _ in 0..8 {
            let mut sim = CacheSim::new(config);
            let mut reference = ReferenceLru {
                config,
                sets: vec![Vec::new(); config.sets as usize],
            };
            // Lines drawn from 1x..4x capacity, so sets both fit and thrash.
            let span = config.capacity() * rng.gen_range(1u32..5);
            let (mut hits, mut n) = (0u64, 0u64);
            for _ in 0..rng.gen_range(200usize..600) {
                let addr = rng.gen_range(0u32..span);
                let line_base = addr & !(config.line_bytes - 1);
                // One fresh access, then (half the time) a run in its line.
                let run = rng.gen_range(0u32..2) * rng.gen_range(1u32..9);
                for i in 0..=run {
                    let a = if i == 0 {
                        addr
                    } else {
                        line_base + rng.gen_range(0u32..config.line_bytes)
                    };
                    let hit = sim.access(a);
                    assert_eq!(hit, reference.access(a), "{config:?}: access {n} ({a:#x})");
                    hits += hit as u64;
                    n += 1;
                }
            }
            assert_eq!((sim.hits(), sim.misses()), (hits, n - hits), "{config:?}");
        }
    }
}

#[test]
fn btb_predicts_stable_targets_after_one_miss() {
    let mut rng = SmallRng::seed_from_u64(0xCAC4_0003);
    for _ in 0..50 {
        // Few distinct pcs, fixed targets, big BTB: at most one miss per pc.
        let pcs: Vec<u32> = (0..rng.gen_range(1usize..20))
            .map(|_| rng.gen_range(0u32..64) * 4)
            .collect();
        let mut btb = Btb::new(256);
        let target = |pc: u32| pc.wrapping_mul(13) & !3;
        let mut misses = 0;
        for _ in 0..4 {
            for &pc in &pcs {
                misses += usize::from(!btb.predict_and_update(pc, target(pc)));
            }
        }
        let mut distinct = pcs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(misses <= distinct.len());
    }
}

#[test]
fn ras_is_perfect_on_balanced_nesting() {
    let mut rng = SmallRng::seed_from_u64(0xCAC4_0004);
    for _ in 0..50 {
        // Nested call/return sequences within the RAS depth never mispredict.
        let depths: Vec<usize> = (0..rng.gen_range(1usize..20))
            .map(|_| rng.gen_range(1usize..8))
            .collect();
        let mut ras = Ras::new(16);
        for (i, &d) in depths.iter().enumerate() {
            let base = (i as u32 + 1) * 0x1000;
            let frames: Vec<u32> = (0..d as u32).map(|j| base + j * 8).collect();
            for &f in &frames {
                ras.push(f);
            }
            for &f in frames.iter().rev() {
                assert!(ras.pop_and_check(f));
            }
        }
    }
}

/// The set-associative BTB as it was first written: a per-access stamp
/// clock, hit on a full-`pc` tag match, and on a miss the way with the
/// lowest stamp is evicted (lowest index on ties, so invalid ways fill
/// first). Zero sets is no predictor.
struct ReferenceBtb {
    /// `(pc, target, stamp)`, `ways` per set; `u32::MAX` is an invalid way.
    entries: Vec<(u32, u32, u64)>,
    sets: usize,
    ways: usize,
    tick: u64,
}

impl ReferenceBtb {
    fn new(sets: u32, ways: u32) -> ReferenceBtb {
        ReferenceBtb {
            entries: vec![(u32::MAX, 0, 0); (sets * ways) as usize],
            sets: sets as usize,
            ways: ways as usize,
            tick: 0,
        }
    }

    fn predict_and_update(&mut self, pc: u32, target: u32) -> bool {
        if self.sets == 0 {
            return false;
        }
        self.tick += 1;
        let base = ((pc >> 2) as usize % self.sets) * self.ways;
        let set = &mut self.entries[base..base + self.ways];
        if let Some(e) = set.iter_mut().find(|e| e.0 == pc) {
            let correct = e.1 == target;
            *e = (pc, target, self.tick);
            return correct;
        }
        let victim = (0..self.ways)
            .min_by_key(|&i| (set[i].2, i))
            .expect("ways >= 1");
        set[victim] = (pc, target, self.tick);
        false
    }
}

#[test]
fn btb_matches_reference_lru_on_aliasing_streams() {
    // Recency order within a set must be indistinguishable, hit for hit,
    // from the stamp-clock LRU — at every geometry fig22 and the profiles
    // reach, plus the degenerate ones (no entries, one entry, one set).
    let geometries = [(0, 1), (1, 1), (512, 1), (16, 4), (128, 4), (1, 16)];
    let mut rng = SmallRng::seed_from_u64(0xB7B0_0001);
    for (sets, ways) in geometries {
        for _ in 0..8 {
            let mut btb = Btb::with_geometry(sets, ways);
            let mut reference = ReferenceBtb::new(sets, ways);
            // Sites drawn so that many share a set: 1x..4x the capacity's
            // worth of pcs, spaced by whole multiples of the set count.
            let capacity = (sets * ways).max(1);
            let sites: Vec<u32> = (0..rng.gen_range(1..4 * capacity + 2))
                .map(|_| {
                    let set = rng.gen_range(0..sets.max(1));
                    let alias = rng.gen_range(0u32..4 * ways);
                    (alias * sets.max(1) + set) * 4
                })
                .collect();
            for n in 0..rng.gen_range(200usize..2000) {
                let pc = sites[rng.gen_range(0..sites.len())];
                // Mostly monomorphic sites, with some target churn.
                let target = 0x4_0000 + pc + 4 * rng.gen_range(0u32..2) * rng.gen_range(0u32..2);
                let hit = btb.predict_and_update(pc, target);
                assert_eq!(
                    hit,
                    reference.predict_and_update(pc, target),
                    "{sets}x{ways}: transfer {n} ({pc:#x} -> {target:#x})"
                );
            }
        }
    }
}
