//! The shared, concurrent cell store.
//!
//! Results are memoized under the full [`CellKey::key_string`] so each
//! unique (workload, config, profile, params) cell is simulated at most
//! once per suite run, however many experiments request it. An optional
//! on-disk layer (`results/cache/`) makes re-runs resumable: cells are
//! persisted as versioned flat-text records that embed their full key, so
//! stale or hash-colliding files are ignored rather than trusted. A
//! failed cell is memoized like any result but never written to disk
//! (see [`Store::failures`]). The store is only that memo and that disk
//! cache, plus the run's trace bundles (held while the cells and renders
//! that read them run; see [`crate::sampled`]); it reads no other file
//! in the cache directory and deletes none.
//!
//! Every store belongs to one [`RunContext`] and keeps its memo entries
//! and disk records under that context's
//! [`namespace`](RunContext::namespace), so estimates or another predictor
//! model's results can never be served for exact legacy cells and vice
//! versa — the populations share a cache directory but are fully
//! disjoint.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

use strata_core::{MechanismStats, NativeRun, RunReport};
use strata_trace::fnv1a64;

use crate::cell::{CellKey, CellResult, Stage};
use crate::context::RunContext;
use crate::fsutil::atomic_write;
use crate::sampled::{Bundles, DEFAULT_TRACES_DIR};

/// On-disk record format version; bump on any layout change.
const DISK_VERSION: &str = "strata-cell-v2";

/// Hit/miss counters for one suite run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Cells actually simulated.
    pub computed: u64,
    /// Requests served from the in-memory map.
    pub memo_hits: u64,
    /// Cells loaded from the on-disk cache.
    pub disk_hits: u64,
}

/// What the exact translated executions behind a run's cells did — the
/// work, where [`StoreStats`] counts cells. Only exact translated
/// executions count: natives and sampled replays do not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Translated executions started (a run that fails counts too).
    pub run: u64,
    /// Execution groups served by a larger member of their size class
    /// instead of running (see [`strata_core::Sdt::serves`]).
    pub served: u64,
    /// Guest instructions the executions that ran to the end retired.
    pub instructions: u64,
}

/// Concurrent memoizing store for cell results.
pub struct Store {
    cells: Mutex<HashMap<String, Arc<CellResult>>>,
    disk: Option<PathBuf>,
    context: RunContext,
    /// `context.namespace()`, rendered once.
    namespace: String,
    computed: AtomicU64,
    memo_hits: AtomicU64,
    disk_hits: AtomicU64,
    /// [`ExecutionStats`]' counters.
    runs: AtomicU64,
    served: AtomicU64,
    retired: AtomicU64,
    /// Whether any result held is [`CellResult::Failed`]. Set under the
    /// cells lock and read with `Relaxed`: it publishes no data (a reader
    /// takes the lock to see the cells), and the reader that needs a set
    /// flag — a render's failure check — is ordered after the insert by
    /// the pool's phase boundary, a thread join.
    any_failed: AtomicBool,
    /// The run's trace bundles, from the context's traces directory (the
    /// default one in exact mode, where fig21 alone reads them).
    bundles: Bundles,
}

impl Store {
    /// A store for results produced under `context`. With a `disk_dir`,
    /// cells are additionally persisted there (created on first write)
    /// and read back from it on a memo miss.
    pub fn new(context: RunContext, disk_dir: Option<PathBuf>) -> Store {
        let traces = context
            .traces_dir()
            .unwrap_or(Path::new(DEFAULT_TRACES_DIR));
        let bundles = Bundles::new(traces.to_path_buf());
        Store {
            cells: Mutex::new(HashMap::new()),
            disk: disk_dir,
            namespace: context.namespace(),
            context,
            computed: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            served: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            any_failed: AtomicBool::new(false),
            bundles,
        }
    }

    /// A purely in-memory store in the default (exact, legacy-predictor)
    /// context.
    pub fn in_memory() -> Store {
        Store::new(RunContext::default(), None)
    }

    /// A disk-backed store in the default context.
    pub fn with_disk_cache(dir: PathBuf) -> Store {
        Store::new(RunContext::default(), Some(dir))
    }

    /// The context this store's results are produced under.
    pub fn context(&self) -> &RunContext {
        &self.context
    }

    /// The run's trace bundles.
    pub(crate) fn bundles(&self) -> &Bundles {
        &self.bundles
    }

    /// The namespaced key string results are stored under. In the default
    /// context this is exactly [`CellKey::key_string`], so exact-mode disk
    /// caches from before sampled mode remain valid.
    fn eff_key(&self, key: &CellKey) -> String {
        format!("{}{}", self.namespace, key.key_string())
    }

    /// Number of distinct cells held in memory.
    pub fn len(&self) -> usize {
        self.cells.lock().expect("store lock").len()
    }

    /// Whether the store holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters for this store's lifetime.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            computed: self.computed.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
        }
    }

    /// What this store's exact translated executions did so far.
    pub fn executions(&self) -> ExecutionStats {
        ExecutionStats {
            run: self.runs.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            instructions: self.retired.load(Ordering::Relaxed),
        }
    }

    /// Counts one translated execution started, and the instructions it
    /// retired if it ran to the end.
    pub(crate) fn count_run(&self, instructions: Option<u64>) {
        self.runs.fetch_add(1, Ordering::Relaxed);
        let retired = instructions.unwrap_or(0);
        self.retired.fetch_add(retired, Ordering::Relaxed);
    }

    /// Counts one execution group served by a larger member of its class.
    pub(crate) fn count_served(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    /// The memoized result for `key`, if already present in memory.
    pub fn get(&self, key: &CellKey) -> Option<Arc<CellResult>> {
        self.cells
            .lock()
            .expect("store lock")
            .get(&self.eff_key(key))
            .cloned()
    }

    /// Every memoized cell as `(key_string, result)`, sorted by key — the
    /// deterministic iteration order the per-cell artifact renders in.
    pub fn snapshot(&self) -> Vec<(String, Arc<CellResult>)> {
        let cells = self.cells.lock().expect("store lock");
        let mut all: Vec<(String, Arc<CellResult>)> = cells
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Every memoized failed cell as `(key, stage, error)`, sorted by key
    /// (namespaced, like [`Store::snapshot`]).
    pub fn failures(&self) -> Vec<(String, Stage, String)> {
        let cells = self.snapshot().into_iter();
        let failed = cells.filter_map(|(k, r)| r.as_failed().map(|(s, e)| (k, s, e.to_string())));
        failed.collect()
    }

    /// Whether the store holds a failed cell — what
    /// [`Store::failures`] answers without listing them.
    pub(crate) fn holds_failures(&self) -> bool {
        self.any_failed.load(Ordering::Relaxed)
    }

    /// Returns the results for `keys`, in order, computing the missing
    /// ones with one call to `compute` (after consulting the disk cache,
    /// when configured). `compute` is handed the indices into `keys` of
    /// the cells neither memoized nor on disk and returns their results
    /// in that order — a group of cells that share an execution computes
    /// them together. Each key counts as one memo hit, one disk hit or
    /// one computed cell, whatever the size of its group.
    ///
    /// The lock is not held while computing, so independent cells proceed
    /// in parallel. The orchestrator dedupes its work list by key, so two
    /// threads essentially never compute the same cell; if they ever do
    /// (both may race past the initial lookup), the first inserted result
    /// wins and the duplicate — identical, since simulation is pure — is
    /// discarded.
    ///
    /// # Panics
    ///
    /// Panics if `compute` returns a different number of results than it
    /// was handed indices.
    pub fn get_or_compute(
        &self,
        keys: &[CellKey],
        compute: impl FnOnce(&[usize]) -> Vec<CellResult>,
    ) -> Vec<Arc<CellResult>> {
        let mut held: Vec<Option<Arc<CellResult>>> =
            keys.iter().map(|key| self.cached(key)).collect();
        let missing: Vec<usize> = (0..keys.len()).filter(|&i| held[i].is_none()).collect();
        if !missing.is_empty() {
            self.computed
                .fetch_add(missing.len() as u64, Ordering::Relaxed);
            let results = compute(&missing);
            assert_eq!(results.len(), missing.len(), "one result per missing cell");
            for (i, result) in missing.into_iter().zip(results) {
                held[i] = Some(self.insert(self.eff_key(&keys[i]), result, true));
            }
        }
        held.into_iter().flatten().collect()
    }

    /// Inserts an externally computed result — e.g. one a test plants —
    /// exactly as if it had been computed locally. The first result for a
    /// key wins; a duplicate returns the existing result unchanged.
    pub fn put(&self, key: &CellKey, result: CellResult) -> Arc<CellResult> {
        let ks = self.eff_key(key);
        self.memoized(&ks)
            .unwrap_or_else(|| self.insert(ks, result, true))
    }

    /// The result for `key` from memory or the disk cache, **without
    /// computing it** on a miss, so a caller can tell what a cache holds
    /// without filling it.
    pub fn cached(&self, key: &CellKey) -> Option<Arc<CellResult>> {
        let ks = self.eff_key(key);
        self.memoized(&ks).or_else(|| {
            let result = self.load_from_disk(&ks)?;
            Some(self.insert(ks, result, false))
        })
    }

    /// The memoized result under `ks`, counted as a memo hit.
    fn memoized(&self, ks: &str) -> Option<Arc<CellResult>> {
        let hit = Arc::clone(self.cells.lock().expect("store lock").get(ks)?);
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// The one way a result enters the store: every result is memoized,
    /// and only a success that did not come from disk (`fresh`) is
    /// persisted — a failed cell is recomputed by the next run. The first
    /// result for a key wins.
    fn insert(&self, ks: String, result: CellResult, fresh: bool) -> Arc<CellResult> {
        if fresh && result.as_failed().is_none() {
            self.save_to_disk(&ks, &result);
        }
        let mut cells = self.cells.lock().expect("store lock");
        let held = Arc::clone(cells.entry(ks).or_insert_with(|| Arc::new(result)));
        if held.as_failed().is_some() {
            self.any_failed.store(true, Ordering::Relaxed);
        }
        held
    }

    /// The record under `ks` in the disk cache, counted as a disk hit.
    fn load_from_disk(&self, ks: &str) -> Option<CellResult> {
        let dir = self.disk.as_ref()?;
        let text = std::fs::read_to_string(dir.join(disk_file_name(ks))).ok()?;
        let result = parse_record(&text, ks)?;
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        Some(result)
    }

    fn save_to_disk(&self, ks: &str, result: &CellResult) {
        let Some(dir) = self.disk.as_ref() else {
            return;
        };
        // Cache writes are best-effort: an unwritable directory degrades
        // to recomputation on the next run, never to an error. The write
        // itself is temp-file + rename, so a killed process can truncate
        // nothing.
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let _ = atomic_write(&dir.join(disk_file_name(ks)), &render_record(ks, result));
    }
}

/// Disk file name for a namespaced key string. In the default context
/// this equals [`CellKey::cache_file_name`], so existing exact-mode caches
/// stay valid; every other namespace hashes to disjoint names.
fn disk_file_name(ks: &str) -> String {
    format!("{:016x}.cell", fnv1a64(ks.as_bytes()))
}

// --- flat-text serialization -------------------------------------------
//
// One `field=value` pair per line; u64 arrays comma-separated; f64 stored
// as IEEE-754 bit patterns in hex so round-trips are exact.
//
// A failed cell is a record too (`kind=failed`, its stage, and its error
// escaped onto one line). It never reaches disk, so adding it left
// `DISK_VERSION` alone.

/// Serializes a cell result as a versioned flat-text record embedding its
/// full key — the on-disk `*.cell` format.
pub fn render_record(key: &str, result: &CellResult) -> String {
    let mut out = String::new();
    out.push_str(DISK_VERSION);
    out.push('\n');
    out.push_str("key=");
    out.push_str(key);
    out.push('\n');
    match result {
        CellResult::Native(n) => {
            out.push_str("kind=native\n");
            let fields: [(&str, u64); 10] = [
                ("checksum", n.checksum as u64),
                ("total_cycles", n.total_cycles),
                ("instructions", n.instructions),
                ("indirect_jumps", n.indirect_jumps),
                ("indirect_calls", n.indirect_calls),
                ("returns", n.returns),
                ("direct_calls", n.direct_calls),
                ("cond_branches", n.cond_branches),
                ("icache_misses", n.icache_misses),
                ("dcache_misses", n.dcache_misses),
            ];
            for (name, value) in fields {
                out.push_str(&format!("{name}={value}\n"));
            }
            out.push_str(&format!(
                "regs={}\n",
                join_u64(n.regs.iter().map(|&r| r as u64))
            ));
        }
        CellResult::Translated(r) => {
            out.push_str("kind=translated\n");
            out.push_str(&format!("config={}\n", r.config));
            out.push_str(&format!("arch={}\n", r.arch));
            out.push_str(&format!("halted={}\n", r.halted as u64));
            let fields: [(&str, u64); 23] = [
                ("checksum", r.checksum as u64),
                ("instructions", r.instructions),
                ("total_cycles", r.total_cycles),
                ("translator_cycles", r.translator_cycles),
                ("icache_misses", r.icache_misses),
                ("dcache_misses", r.dcache_misses),
                ("indirect_mispredicts", r.indirect_mispredicts),
                ("cond_mispredicts", r.cond_mispredicts),
                ("ib_dispatches", r.mech.ib_dispatches),
                ("jump_dispatches", r.mech.jump_dispatches),
                ("call_dispatches", r.mech.call_dispatches),
                ("adaptive_promotions", r.mech.adaptive_promotions),
                ("ib_misses", r.mech.ib_misses),
                ("ret_dispatches", r.mech.ret_dispatches),
                ("rc_misses", r.mech.rc_misses),
                ("exit_misses", r.mech.exit_misses),
                ("exit_links", r.mech.exit_links),
                ("translator_entries", r.mech.translator_entries),
                ("fragments", r.mech.fragments),
                ("translated_app_instrs", r.mech.translated_app_instrs),
                ("cache_used_bytes", r.mech.cache_used_bytes),
                ("cache_flushes", r.mech.cache_flushes),
                ("elided_jumps", r.mech.elided_jumps),
            ];
            for (name, value) in fields {
                out.push_str(&format!("{name}={value}\n"));
            }
            out.push_str(&format!(
                "sieve_mean_chain={:016x}\n",
                r.mech.sieve_mean_chain.to_bits()
            ));
            out.push_str(&format!("sieve_max_chain={}\n", r.mech.sieve_max_chain));
            out.push_str(&format!(
                "cycles_by_origin={}\n",
                join_u64(r.cycles_by_origin.iter().copied())
            ));
            out.push_str(&format!(
                "instrs_by_origin={}\n",
                join_u64(r.instrs_by_origin.iter().copied())
            ));
            // One row per class: `mechanism|dispatches|misses|promotions`
            // (mechanism labels never contain `|` or `=`).
            for c in &r.per_class {
                out.push_str(&format!(
                    "class.{}={}|{}|{}|{}\n",
                    c.class, c.mechanism, c.dispatches, c.misses, c.promotions
                ));
            }
        }
        CellResult::Failed { stage, error } => {
            let error = escape(error);
            out.push_str(&format!("kind=failed\nstage={stage}\nerror={error}\n"));
        }
    }
    out
}

/// Parses a flat-text cell record, validating its version header and
/// embedded key against `expected_key`. Returns `None` for truncated,
/// stale-version, corrupt, or mis-keyed records — the disk cache
/// recomputes instead of trusting the bytes.
pub fn parse_record(text: &str, expected_key: &str) -> Option<CellResult> {
    let mut lines = text.lines();
    if lines.next()? != DISK_VERSION {
        return None;
    }
    let mut map: HashMap<&str, &str> = HashMap::new();
    for line in lines {
        let (k, v) = line.split_once('=')?;
        map.insert(k, v);
    }
    // A stale or hash-colliding file fails this check and is recomputed.
    if map.get("key").copied() != Some(expected_key) {
        return None;
    }
    let u = |name: &str| -> Option<u64> { map.get(name)?.parse().ok() };
    let u32_field = |name: &str| u32::try_from(u(name)?).ok();
    match map.get("kind").copied()? {
        "native" => {
            let regs_vec = split_u64(map.get("regs")?)?;
            let mut regs = [0u32; 16];
            if regs_vec.len() != regs.len() {
                return None;
            }
            for (slot, value) in regs.iter_mut().zip(regs_vec) {
                *slot = u32::try_from(value).ok()?;
            }
            Some(CellResult::Native(NativeRun {
                checksum: u32_field("checksum")?,
                total_cycles: u("total_cycles")?,
                instructions: u("instructions")?,
                indirect_jumps: u("indirect_jumps")?,
                indirect_calls: u("indirect_calls")?,
                returns: u("returns")?,
                direct_calls: u("direct_calls")?,
                cond_branches: u("cond_branches")?,
                icache_misses: u("icache_misses")?,
                dcache_misses: u("dcache_misses")?,
                regs,
            }))
        }
        "translated" => {
            let mech = MechanismStats {
                ib_dispatches: u("ib_dispatches")?,
                jump_dispatches: u("jump_dispatches")?,
                call_dispatches: u("call_dispatches")?,
                adaptive_promotions: u("adaptive_promotions")?,
                ib_misses: u("ib_misses")?,
                ret_dispatches: u("ret_dispatches")?,
                rc_misses: u("rc_misses")?,
                exit_misses: u("exit_misses")?,
                exit_links: u("exit_links")?,
                translator_entries: u("translator_entries")?,
                fragments: u("fragments")?,
                translated_app_instrs: u("translated_app_instrs")?,
                cache_used_bytes: u("cache_used_bytes")?,
                cache_flushes: u("cache_flushes")?,
                elided_jumps: u("elided_jumps")?,
                sieve_mean_chain: f64::from_bits(
                    u64::from_str_radix(map.get("sieve_mean_chain")?, 16).ok()?,
                ),
                sieve_max_chain: u32_field("sieve_max_chain")?,
            };
            let mut per_class = Vec::new();
            for class in ["jump", "call", "ret"] {
                let Some(row) = map.get(format!("class.{class}").as_str()) else {
                    continue;
                };
                let mut parts = row.split('|');
                let mechanism = parts.next()?.to_string();
                let dispatches: u64 = parts.next()?.parse().ok()?;
                let misses: u64 = parts.next()?.parse().ok()?;
                let promotions: u64 = parts.next()?.parse().ok()?;
                per_class.push(strata_core::ClassReport {
                    class: match class {
                        "jump" => "jump",
                        "call" => "call",
                        _ => "ret",
                    },
                    mechanism,
                    dispatches,
                    misses,
                    promotions,
                });
            }
            Some(CellResult::Translated(Box::new(RunReport {
                config: map.get("config")?.to_string(),
                arch: arch_static(map.get("arch")?)?,
                halted: u("halted")? != 0,
                checksum: u32_field("checksum")?,
                instructions: u("instructions")?,
                total_cycles: u("total_cycles")?,
                cycles_by_origin: fixed6(split_u64(map.get("cycles_by_origin")?)?)?,
                instrs_by_origin: fixed6(split_u64(map.get("instrs_by_origin")?)?)?,
                translator_cycles: u("translator_cycles")?,
                mech,
                per_class,
                icache_misses: u("icache_misses")?,
                dcache_misses: u("dcache_misses")?,
                indirect_mispredicts: u("indirect_mispredicts")?,
                cond_mispredicts: u("cond_mispredicts")?,
            })))
        }
        "failed" => Some(CellResult::Failed {
            stage: Stage::parse(map.get("stage")?)?,
            error: unescape(map.get("error")?),
        }),
        _ => None,
    }
}

/// `text` on one line: `\`, newline and carriage return as `\\`, `\n`
/// and `\r`, so a multi-line error fits a `field=value` line.
fn escape(text: &str) -> String {
    let text = text.replace('\\', "\\\\");
    text.replace('\n', "\\n").replace('\r', "\\r")
}

/// The inverse of [`escape`]: between the doubled backslashes, every
/// backslash left starts a `\n` or `\r`.
fn unescape(text: &str) -> String {
    let parts = text
        .split("\\\\")
        .map(|p| p.replace("\\n", "\n").replace("\\r", "\r"));
    parts.collect::<Vec<_>>().join("\\")
}

/// Maps a stored profile name back to the `&'static str` the live
/// profiles carry; unknown names invalidate the record.
fn arch_static(name: &str) -> Option<&'static str> {
    use strata_arch::ArchProfile;
    for profile in ArchProfile::all() {
        if profile.name == name {
            return Some(profile.name);
        }
    }
    let ideal = ArchProfile::ideal();
    (ideal.name == name).then_some(ideal.name)
}

fn join_u64(values: impl Iterator<Item = u64>) -> String {
    values.map(|v| v.to_string()).collect::<Vec<_>>().join(",")
}

fn split_u64(s: &str) -> Option<Vec<u64>> {
    s.split(',').map(|p| p.parse().ok()).collect()
}

fn fixed6(v: Vec<u64>) -> Option<[u64; 6]> {
    v.try_into().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_arch::ArchProfile;
    use strata_core::SdtConfig;
    use strata_workloads::Params;

    fn sample_native() -> NativeRun {
        NativeRun {
            checksum: 0xDEAD_BEEF,
            total_cycles: 123_456_789,
            instructions: 1_000_000,
            indirect_jumps: 11,
            indirect_calls: 22,
            returns: 33,
            direct_calls: 44,
            cond_branches: 55,
            icache_misses: 66,
            dcache_misses: 77,
            regs: [7; 16],
        }
    }

    fn sample_report() -> RunReport {
        RunReport {
            config: "ibtc(64,shared,inline)".into(),
            arch: ArchProfile::x86_like().name,
            halted: true,
            checksum: 42,
            instructions: 2_000_000,
            total_cycles: 9_999_999,
            cycles_by_origin: [1, 2, 3, 4, 5, 6],
            instrs_by_origin: [6, 5, 4, 3, 2, 1],
            translator_cycles: 1234,
            mech: MechanismStats {
                ib_dispatches: 10,
                sieve_mean_chain: 1.75,
                ..Default::default()
            },
            per_class: vec![strata_core::ClassReport {
                class: "jump",
                mechanism: "ibtc(64,shared,inline)".into(),
                dispatches: 10,
                misses: 3,
                promotions: 0,
            }],
            icache_misses: 8,
            dcache_misses: 9,
            indirect_mispredicts: 10,
            cond_mispredicts: 11,
        }
    }

    /// A failure whose error is multi-line and holds every character the
    /// record format treats specially.
    fn sample_failure() -> CellResult {
        CellResult::Failed {
            stage: Stage::Checksum,
            error: "flagged gzip:\n  a=b \\n is not a newline\r\nend\\".into(),
        }
    }

    #[test]
    fn records_roundtrip() {
        for result in [
            CellResult::Native(sample_native()),
            CellResult::Translated(Box::new(sample_report())),
            sample_failure(),
        ] {
            let text = render_record("some|key", &result);
            let back = parse_record(&text, "some|key").expect("parses");
            assert_eq!(back, result);
            // The embedded key is verified.
            assert!(parse_record(&text, "other|key").is_none());
        }
    }

    #[test]
    fn u32_fields_out_of_range_invalidate() {
        // A wider value must not truncate into a plausible one.
        let native = render_record("k", &CellResult::Native(sample_native()));
        let translated = render_record("k", &CellResult::Translated(Box::new(sample_report())));
        for (text, field) in [
            (&native, "checksum=3735928559\n"),
            (&translated, "checksum=42\n"),
            (&translated, "sieve_max_chain=0\n"),
        ] {
            assert!(text.contains(field), "{field}");
            let name = field.split('=').next().unwrap();
            let max = text.replace(field, &format!("{name}=4294967295\n"));
            assert!(parse_record(&max, "k").is_some(), "{name} at u32::MAX");
            let wide = text.replace(field, &format!("{name}=4294967297\n"));
            assert!(parse_record(&wide, "k").is_none(), "{name} beyond u32");
        }
    }

    #[test]
    fn version_mismatch_invalidates() {
        for result in [CellResult::Native(sample_native()), sample_failure()] {
            let text = render_record("k", &result);
            let old = text.replace(DISK_VERSION, "strata-cell-v0");
            assert!(parse_record(&old, "k").is_none());
        }
    }

    #[test]
    fn failed_records_fit_one_line_and_name_a_known_stage() {
        let text = render_record("k", &sample_failure());
        assert_eq!(text.lines().count(), 5, "{text}");
        assert!(text.contains("kind=failed\nstage=checksum\n"), "{text}");
        // An unknown stage does not parse.
        assert!(parse_record(&text.replace("=checksum", "=rerun"), "k").is_none());
        for stage in [
            Stage::Scale,
            Stage::Build,
            Stage::Translate,
            Stage::Estimate,
        ] {
            assert_eq!(Stage::parse(&stage.to_string()), Some(stage));
        }
    }

    /// A failed cell is memoized, so it is computed once per run, but a
    /// disk-backed store does not write its record, and the next run
    /// computes it again.
    #[test]
    fn failed_cells_are_memoized_but_never_persisted() {
        let dir = std::env::temp_dir().join(format!("strata-store-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = CellKey::native("gzip", ArchProfile::x86_like(), Params::default());
        for run in 0..2 {
            let store = Store::with_disk_cache(dir.clone());
            let mut calls = 0;
            for _ in 0..2 {
                let result = store.get_or_compute(std::slice::from_ref(&key), |_| {
                    calls += 1;
                    vec![sample_failure()]
                });
                assert_eq!(*result[0], sample_failure());
            }
            assert_eq!(calls, 1, "run {run}: computed once, then memoized");
            assert_eq!(store.failures().len(), 1);
            assert!(store.cached(&key).is_some(), "memoized");
            let cells = std::fs::read_dir(&dir).into_iter().flatten().flatten();
            let cells = cells.filter(|e| e.path().extension().is_some_and(|x| x == "cell"));
            assert_eq!(cells.count(), 0, "run {run}: no *.cell file");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_first_result_wins_and_persists() {
        let dir = std::env::temp_dir().join(format!("strata-store-put-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::with_disk_cache(dir.clone());
        let key = CellKey::native("gzip", ArchProfile::x86_like(), Params::default());
        let first = sample_native();
        let mut second = sample_native();
        second.total_cycles += 1;
        let a = store.put(&key, CellResult::Native(first.clone()));
        // At-least-once delivery: the duplicate is dropped, not applied.
        let b = store.put(&key, CellResult::Native(second));
        assert_eq!(a, b);
        assert_eq!(a.as_native().unwrap(), &first);
        assert_eq!(store.len(), 1);
        // The result is on disk under its key, loadable by a fresh store.
        let fresh = Store::with_disk_cache(dir.clone());
        let loaded = fresh.cached(&key).expect("disk hit");
        assert_eq!(loaded.as_native().unwrap(), &first);
        assert_eq!(fresh.stats().disk_hits, 1);
        assert!(fresh.cached(&key).is_some(), "memoized after first load");
        assert_eq!(fresh.stats().memo_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_never_computes() {
        let store = Store::in_memory();
        let key = CellKey::native("gzip", ArchProfile::x86_like(), Params::default());
        assert!(store.cached(&key).is_none());
        assert_eq!(store.stats(), StoreStats::default());
    }

    #[test]
    fn memoizes_and_counts() {
        let store = Store::in_memory();
        let key = CellKey::translated(
            "gzip",
            SdtConfig::ibtc_inline(64),
            ArchProfile::x86_like(),
            Params::default(),
        );
        let mut calls = 0;
        for _ in 0..3 {
            store.get_or_compute(std::slice::from_ref(&key), |_| {
                calls += 1;
                vec![CellResult::Native(sample_native())]
            });
        }
        assert_eq!(calls, 1);
        assert_eq!(
            store.stats(),
            StoreStats {
                computed: 1,
                memo_hits: 2,
                disk_hits: 0
            }
        );
        assert_eq!(store.len(), 1);
    }
}
