//! Randomized tests for the microarchitecture simulators, driven by the
//! repo's deterministic [`SmallRng`] rather than an external
//! property-testing framework.

use strata_arch::{ArchProfile, Btb, CacheConfig, CacheSim, CondPredictor, Ras};
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
        for _ in 0..4 {
            for &pc in &pcs {
                btb.predict_and_update(pc, target(pc));
            }
        }
        let mut distinct = pcs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(btb.mispredicts() <= distinct.len() as u64);
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
        assert_eq!(ras.mispredicts(), 0);
    }
}

#[test]
fn gshare_total_counts_match() {
    let mut rng = SmallRng::seed_from_u64(0xCAC4_0005);
    for _ in 0..50 {
        let n = rng.gen_range(0usize..300);
        let mut p = CondPredictor::new(8);
        for i in 0..n {
            p.predict_and_update((i as u32 % 16) * 4, rng.gen_bool(0.5));
        }
        assert_eq!(p.correct() + p.mispredicts(), n as u64);
    }
}
