//! Per-cell cycle budgets and the one dispatch order.
//!
//! Whoever hands cells to workers — the local executor's work queue or
//! the fleet coordinator's lease queue — hands them out in list order, so
//! the *order* of the list determines the parallel makespan: with FIFO
//! order a multi-second gcc or perlbmk cell claimed last leaves every
//! other worker idle while it finishes. A [`BudgetBook`] records each
//! cell's observed `total_cycles` (an excellent proxy for host wall time —
//! the simulator's cost is linear in simulated work) in the disk-cache
//! directory, and [`dispatch_order`] feeds it back as a priority: native
//! baselines first (translated cells verify against them), then
//! known-expensive cells, so the tail of the schedule is made of cheap
//! cells.
//!
//! Longest-processing-time-first list scheduling is a classic 4/3-
//! approximation of optimal makespan; FIFO is only bounded by 2. The
//! ordering changes *when* each result is computed, never what it
//! contains, so rendered output stays byte-identical (the determinism
//! tests assert this).
//!
//! Missing data degrades gracefully: cells without a recorded budget keep
//! their manifest position relative to each other (after the known ones),
//! and an empty book reproduces manifest order within each kind exactly.

use std::collections::HashMap;
use std::path::Path;

use crate::cell::{CellKey, RunKind};
use crate::store::Store;

/// File name of the budget record inside the cache directory.
pub const BUDGET_FILE: &str = "budgets.v1";

/// Budget record format version; bump on any layout change.
const BUDGET_VERSION: &str = "strata-budgets-v1";

/// Observed `total_cycles` per cell key string.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BudgetBook {
    cycles: HashMap<String, u64>,
}

impl BudgetBook {
    /// An empty book (schedules degrade to FIFO).
    pub fn new() -> BudgetBook {
        BudgetBook::default()
    }

    /// Loads the book from `dir/budgets.v1`. A missing, unversioned, or
    /// partially corrupt file degrades to whatever lines parse — budgets
    /// are a scheduling hint, never a correctness input.
    pub fn load(dir: &Path) -> BudgetBook {
        let mut book = BudgetBook::new();
        let Ok(text) = std::fs::read_to_string(dir.join(BUDGET_FILE)) else {
            return book;
        };
        let mut lines = text.lines();
        if lines.next() != Some(BUDGET_VERSION) {
            return book;
        }
        for line in lines {
            if let Some((cycles, key)) = line.split_once('\t') {
                if let Ok(cycles) = cycles.parse() {
                    book.record(key, cycles);
                }
            }
        }
        book
    }

    /// Records the observed cost of a cell (last observation wins).
    pub fn record(&mut self, key: &str, total_cycles: u64) {
        self.cycles.insert(key.to_string(), total_cycles);
    }

    /// The recorded cost of a cell, if any.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.cycles.get(key).copied()
    }

    /// Number of recorded cells.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Whether the book holds no records.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// Folds another book's records into this one.
    pub fn merge(&mut self, other: &BudgetBook) {
        for (key, &cycles) in &other.cycles {
            self.record(key, cycles);
        }
    }

    /// Keeps only the records whose key satisfies `keep` — the pruning
    /// hook the store uses to drop keys the registry no longer produces.
    pub fn retain(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.cycles.retain(|key, _| keep(key));
    }

    /// Writes the book to `dir/budgets.v1`, sorted by key so the file is
    /// byte-stable for identical contents, via temp-file + atomic rename
    /// so a killed process never leaves a truncated book. Best-effort,
    /// like the cell cache: an unwritable directory costs scheduling
    /// quality only.
    pub fn save(&self, dir: &Path) {
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let mut entries: Vec<(&String, &u64)> = self.cycles.iter().collect();
        entries.sort();
        let mut out = String::from(BUDGET_VERSION);
        out.push('\n');
        for (key, cycles) in entries {
            out.push_str(&format!("{cycles}\t{key}\n"));
        }
        let _ = crate::fsutil::atomic_write(&dir.join(BUDGET_FILE), &out);
    }
}

/// The order `cells` are dispatched in, as indices into `cells`: native
/// baselines first, then longest recorded budget first within each kind.
/// [`Store::budget`] looks costs up under the store's own namespace, so
/// estimated budgets never steer the exact schedule. The local executor
/// and the fleet coordinator both hand out work in this order.
///
/// The sort is stable with unknown budgets treated as zero, so cells the
/// book has never seen keep their manifest order after the known ones,
/// and an empty book leaves each kind in manifest order.
pub fn dispatch_order(store: &Store, cells: &[CellKey]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by_cached_key(|&i| {
        (
            matches!(cells[i].kind, RunKind::Translated(_)),
            std::cmp::Reverse(store.budget(&cells[i]).unwrap_or(0)),
        )
    });
    order
}

/// Simulates a work queue: each of `jobs` workers takes the
/// next unclaimed cell whenever it goes idle. Returns the makespan of
/// running `durations` in list order. Used by the scheduler tests to show
/// longest-first never loses to FIFO on recorded budgets.
pub fn makespan(durations: &[u64], jobs: usize) -> u64 {
    let jobs = jobs.max(1);
    let mut loads = vec![0u64; jobs.min(durations.len().max(1))];
    for &d in durations {
        // The next cell goes to the worker that frees up first.
        let min = loads.iter_mut().min().expect("at least one worker");
        *min += d;
    }
    loads.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_arch::ArchProfile;
    use strata_core::SdtConfig;
    use strata_workloads::Params;

    fn cells(n: usize) -> Vec<CellKey> {
        let profile = ArchProfile::x86_like();
        (0..n)
            .map(|i| {
                CellKey::native(
                    "gzip",
                    profile.clone(),
                    Params {
                        scale: 1,
                        variant: i as u64,
                    },
                )
            })
            .collect()
    }

    /// A store whose budget book is `book`, loaded the way a run's is:
    /// from the cache directory, at construction.
    fn store_with(book: &BudgetBook, tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("strata-order-{tag}-{}", std::process::id()));
        book.save(&dir);
        let store = Store::with_disk_cache(dir.clone());
        let _ = std::fs::remove_dir_all(&dir);
        store
    }

    fn dispatched(store: &Store, set: &[CellKey]) -> Vec<CellKey> {
        dispatch_order(store, set)
            .into_iter()
            .map(|i| set[i].clone())
            .collect()
    }

    fn durations(order: &[CellKey], book: &BudgetBook) -> Vec<u64> {
        order
            .iter()
            .map(|c| book.get(&c.key_string()).unwrap_or(0))
            .collect()
    }

    #[test]
    fn empty_book_degrades_to_fifo() {
        let set = cells(5);
        assert_eq!(dispatched(&Store::in_memory(), &set), set);
    }

    #[test]
    fn natives_lead_and_each_kind_keeps_manifest_order() {
        // A cold run (no budgets) dispatches in the order the manifest
        // lists the cells, natives pulled to the front.
        let x86 = ArchProfile::x86_like();
        let p = Params::default();
        let sdt = |w| CellKey::translated(w, SdtConfig::reentry(), x86.clone(), p);
        let native = |w| CellKey::native(w, x86.clone(), p);
        let set = [native("gzip"), sdt("gzip"), native("gcc"), sdt("gcc")];
        assert_eq!(dispatch_order(&Store::in_memory(), &set), [0, 2, 1, 3]);
    }

    #[test]
    fn partial_budgets_keep_unknowns_in_fifo_order() {
        let set = cells(4);
        let mut book = BudgetBook::new();
        book.record(&set[2].key_string(), 100);
        let ordered = dispatched(&store_with(&book, "partial"), &set);
        // The known-expensive cell moves to the front; the unknown cells
        // keep their relative FIFO order.
        assert_eq!(ordered[0], set[2]);
        assert_eq!(
            &ordered[1..],
            &[set[0].clone(), set[1].clone(), set[3].clone()]
        );
    }

    #[test]
    fn longest_first_beats_fifo_on_a_tail_heavy_set() {
        // The pathological FIFO case: the expensive cell is claimed last.
        let set = cells(5);
        let mut book = BudgetBook::new();
        let costs = [10u64, 10, 10, 10, 100];
        for (cell, &cost) in set.iter().zip(&costs) {
            book.record(&cell.key_string(), cost);
        }
        let fifo = makespan(&durations(&set, &book), 2);
        let lpt = makespan(
            &durations(&dispatched(&store_with(&book, "tail"), &set), &book),
            2,
        );
        assert_eq!(fifo, 120, "three cheap cells wait behind the giant");
        assert_eq!(lpt, 100, "the giant starts first and hides the cheap tail");
    }

    #[test]
    fn longest_first_never_worse_than_fifo() {
        // Pseudo-random cost sets across several worker counts.
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for n in [1usize, 3, 8, 17, 40] {
            let set = cells(n);
            let mut book = BudgetBook::new();
            for cell in &set {
                book.record(&cell.key_string(), next() % 1000);
            }
            let ordered = dispatched(&store_with(&book, &format!("random{n}")), &set);
            for jobs in [1usize, 2, 4, 7] {
                let fifo = makespan(&durations(&set, &book), jobs);
                let lpt = makespan(&durations(&ordered, &book), jobs);
                assert!(lpt <= fifo, "n={n} jobs={jobs}: LPT {lpt} > FIFO {fifo}");
            }
        }
    }

    #[test]
    fn makespan_degenerate_cases() {
        assert_eq!(makespan(&[], 4), 0);
        assert_eq!(makespan(&[7], 0), 7, "jobs clamps to 1");
        assert_eq!(makespan(&[3, 4, 5], 1), 12, "serial sums");
        assert_eq!(makespan(&[5, 4, 3], 100), 5, "more workers than cells");
    }

    #[test]
    fn book_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("strata-budget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut book = BudgetBook::new();
        let key = CellKey::translated(
            "gcc",
            SdtConfig::ibtc_inline(4096),
            ArchProfile::x86_like(),
            Params::default(),
        )
        .key_string();
        book.record(&key, 123_456_789);
        book.record("other|native|x86-like|s1v0", 42);
        book.save(&dir);
        let back = BudgetBook::load(&dir);
        assert_eq!(back, book);
        // Corrupt lines degrade to the parseable subset.
        let path = dir.join(BUDGET_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not a record\nxyz\tabc\n");
        std::fs::write(&path, text).unwrap();
        assert_eq!(BudgetBook::load(&dir), book);
        // A wrong version header empties the book.
        std::fs::write(&path, "strata-budgets-v0\n1\tk\n").unwrap();
        assert!(BudgetBook::load(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
        assert!(BudgetBook::load(&dir).is_empty(), "missing dir loads empty");
    }

    #[test]
    fn retain_drops_rejected_keys() {
        let mut book = BudgetBook::new();
        book.record("keep", 1);
        book.record("drop", 2);
        book.retain(|k| k == "keep");
        assert_eq!(book.get("keep"), Some(1));
        assert_eq!(book.len(), 1);
    }

    #[test]
    fn merge_last_observation_wins() {
        let mut a = BudgetBook::new();
        a.record("k", 1);
        let mut b = BudgetBook::new();
        b.record("k", 2);
        b.record("j", 3);
        a.merge(&b);
        assert_eq!(a.get("k"), Some(2));
        assert_eq!(a.get("j"), Some(3));
        assert_eq!(a.len(), 2);
    }
}
