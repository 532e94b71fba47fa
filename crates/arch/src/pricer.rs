//! Batched pricing: one run's retire stream, logged once and stepped
//! through every model's structures a batch at a time.
//!
//! Stepping every model on every retire interleaves all their caches and
//! predictors, and repeats per model the tests that decide which of them
//! a retire reaches. A [`Pricer`] decides that once per retire and logs
//! the event into the stream of the structures it reaches: the fetch
//! stream (I-caches), the data stream (D-caches) and the control stream
//! (conditional predictor, target predictor, RAS). When the log holds
//! [`LOG_CAPACITY`] retires, and before any result is read, each model
//! steps each of its structures over that structure's stream in one loop.
//!
//! This is exact by construction: no structure reads another's state, and
//! each sees its own events in retirement order, so every count, miss and
//! mispredict equals what stepping event by event produces.

use strata_isa::ControlKind;
use strata_machine::{ExecutionObserver, RetireEvent};

use crate::model::Counts;
use crate::{ArchModel, BUCKETS};

/// Retires a [`Pricer`] logs before it steps its models over them. Each
/// stream holds at most one entry per retire, so this bounds all three.
pub(crate) const LOG_CAPACITY: usize = 4096;

/// A memory access in the fetch or data stream, tagged with its bucket.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Access {
    pub addr: u32,
    pub bucket: u8,
}

const NO_ACCESS: Access = Access { addr: 0, bucket: 0 };

/// What a retired control transfer asks of the predictors.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Transfer {
    /// A conditional branch: the conditional predictor.
    Cond { pc: u32, taken: bool },
    /// A direct call: the RAS pushes its return address.
    Call { pc: u32 },
    /// An indirect call: the RAS push, then the target predictor.
    IndirectCall { pc: u32, target: u32 },
    /// An indirect jump: the target predictor.
    Indirect { pc: u32, target: u32 },
    /// A return: the RAS pops and checks.
    Return { target: u32 },
}

impl Transfer {
    /// The predictor work of `ev`; `None` for one that reaches no
    /// predictor (no transfer, or a direct jump).
    #[inline(always)]
    pub fn of(ev: &RetireEvent) -> Option<Transfer> {
        let (pc, target) = (ev.pc, ev.control.target);
        Some(match ev.control.kind {
            ControlKind::None | ControlKind::Direct => return None,
            ControlKind::Conditional => Transfer::Cond {
                pc,
                taken: ev.control.taken,
            },
            ControlKind::Call if ev.control.indirect => Transfer::IndirectCall { pc, target },
            ControlKind::Call => Transfer::Call { pc },
            ControlKind::Indirect => Transfer::Indirect { pc, target },
            ControlKind::Return => Transfer::Return { target },
        })
    }
}

/// A control-stream entry: a transfer tagged with its bucket.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Control {
    pub bucket: u8,
    pub transfer: Transfer,
}

/// A fixed-capacity stream of log entries: an index masked to the
/// capacity needs no bounds check, and the pricer flushes before it
/// wraps.
#[derive(Debug)]
pub(crate) struct Stream<T> {
    items: Box<[T; LOG_CAPACITY]>,
    len: usize,
}

impl<T: Copy> Stream<T> {
    fn new(fill: T) -> Stream<T> {
        Stream {
            items: vec![fill; LOG_CAPACITY]
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!("the vec holds LOG_CAPACITY items")),
            len: 0,
        }
    }

    #[inline(always)]
    fn push(&mut self, item: T) {
        self.items[self.len & (LOG_CAPACITY - 1)] = item;
        self.len += 1;
    }

    /// The entries pushed since the last clear.
    pub fn entries(&self) -> &[T] {
        &self.items[..self.len]
    }
}

/// The events of up to [`LOG_CAPACITY`] retires, one stream per kind of
/// structure.
#[derive(Debug)]
pub(crate) struct Log {
    /// Fetches that left the previous retire's line.
    pub fetch: Stream<Access>,
    /// Fetches in the previous retire's line: hits in every I-cache.
    pub same_line: u64,
    /// Load and store addresses.
    pub data: Stream<Access>,
    /// Transfers that reach a predictor.
    pub control: Stream<Control>,
}

impl Log {
    fn new() -> Log {
        Log {
            fetch: Stream::new(NO_ACCESS),
            same_line: 0,
            data: Stream::new(NO_ACCESS),
            control: Stream::new(Control {
                bucket: 0,
                transfer: Transfer::Return { target: 0 },
            }),
        }
    }

    fn clear(&mut self) {
        self.fetch.len = 0;
        self.same_line = 0;
        self.data.len = 0;
        self.control.len = 0;
    }
}

/// Prices one run under several models: counts each retire once, logs
/// the events the models' structures read, and steps every model over the
/// log in batches. No structure reads another's state, and each sees its
/// own events in retirement order, so the batches are exact.
///
/// ```
/// use strata_arch::{ArchModel, ArchProfile, Pricer};
/// use strata_machine::{layout, Machine, StepOutcome};
/// use strata_asm::assemble;
///
/// let code = assemble(layout::APP_BASE, "li r1, 100\nhalt\n")?;
/// let mut m = Machine::new(layout::DEFAULT_MEM_BYTES);
/// m.write_code(layout::APP_BASE, &code)?;
/// m.cpu_mut().pc = layout::APP_BASE;
/// let models = vec![ArchModel::new(ArchProfile::x86_like()), ArchModel::new(ArchProfile::ideal())];
/// let mut pricer = Pricer::new(models);
/// assert_eq!(m.run(&mut pricer, 100)?, StepOutcome::Halted);
/// let models = pricer.finish();
/// assert_eq!(models[1].total_cycles(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Pricer {
    models: Vec<ArchModel>,
    counts: Counts,
    log: Log,
    /// `log2` of the finest I-cache line among the models: a fetch in the
    /// previous fetch's line at this size is in it at every model's size.
    line_shift: u32,
    /// Line of the previous fetch at that size (`u64::MAX` before the
    /// first).
    last_line: u64,
}

impl Pricer {
    /// A pricer over `models`, which keep whatever state they arrive
    /// with: cold models price exactly this run.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn new(models: Vec<ArchModel>) -> Pricer {
        let line_shift = models
            .iter()
            .map(|m| m.icache().config().line_bytes.trailing_zeros())
            .min()
            .expect("a run is priced under at least one model");
        Pricer {
            models,
            counts: Counts::default(),
            log: Log::new(),
            line_shift,
            last_line: u64::MAX,
        }
    }

    /// Counts one retired instruction in `bucket` and logs its events.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is not below [`BUCKETS`].
    #[inline(always)]
    pub fn record(&mut self, bucket: usize, ev: &RetireEvent) {
        self.counts.count(bucket, ev);
        let bucket = bucket as u8;
        let log = &mut self.log;
        let line = u64::from(ev.pc >> self.line_shift);
        if line == self.last_line {
            log.same_line += 1;
        } else {
            self.last_line = line;
            log.fetch.push(Access {
                addr: ev.pc,
                bucket,
            });
        }
        if let Some(mem) = ev.mem {
            log.data.push(Access {
                addr: mem.addr,
                bucket,
            });
        }
        if let Some(transfer) = Transfer::of(ev) {
            log.control.push(Control { bucket, transfer });
        }
        // Every `LOG_CAPACITY` retires: no stream can hold more entries.
        if self.counts.retired().is_multiple_of(LOG_CAPACITY as u64) {
            self.flush();
        }
    }

    /// Steps every model over the log and empties it.
    #[cold]
    #[inline(never)]
    fn flush(&mut self) {
        for model in &mut self.models {
            model.step_log(&self.log);
        }
        self.log.clear();
    }

    /// Instructions recorded so far, over every bucket.
    #[inline(always)]
    pub fn retired(&self) -> u64 {
        self.counts.retired()
    }

    /// Instructions recorded in each bucket.
    pub fn by_bucket(&self) -> [u64; BUCKETS] {
        self.counts.by_bucket()
    }

    /// Charges host-side translator work to every model
    /// ([`ArchModel::charge_translator`]).
    pub fn charge_translator(&mut self, instrs: u64, lookups: u64) {
        for model in &mut self.models {
            model.charge_translator(instrs, lookups);
        }
    }

    /// Steps every model over what is left in the log and hands each the
    /// run's counts: the models, in order, each pricing the recorded run.
    pub fn finish(mut self) -> Vec<ArchModel> {
        self.flush();
        for model in &mut self.models {
            model.absorb(&self.counts);
        }
        self.models
    }
}

/// A native run: every retire in bucket 0.
impl ExecutionObserver for Pricer {
    #[inline(always)]
    fn on_retire(&mut self, event: &RetireEvent) {
        self.record(0, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchProfile, CacheConfig, PredictorSpec};
    use strata_machine::{MachineError, StepOutcome};
    use strata_stats::rng::SmallRng;
    use strata_testgen::wordgen::WordProgram;

    /// At least `len` retire events, each with a bucket: the streams of
    /// random word programs (loads, stores, calls, returns, indirect
    /// jumps, self-modifying stores), back to back, run under fuel.
    fn stream(rng: &mut SmallRng, len: usize) -> Vec<(usize, RetireEvent)> {
        struct Capture(Vec<RetireEvent>);
        impl ExecutionObserver for Capture {
            fn on_retire(&mut self, ev: &RetireEvent) {
                self.0.push(*ev);
            }
        }
        let mut events = Capture(Vec::with_capacity(len));
        while events.0.len() < len {
            let mut machine = WordProgram::generate(rng).instantiate();
            for _ in 0..64 {
                match machine.run(&mut events, 512) {
                    Ok(StepOutcome::Trap(_)) | Err(MachineError::OutOfFuel { .. }) => {}
                    _ => break,
                }
            }
        }
        // Buckets in runs, as the SDT's origins come.
        let mut bucket = 0;
        let events = events.0.into_iter().map(|ev| {
            if rng.gen_range(0u32..8) == 0 {
                bucket = rng.gen_range(0..BUCKETS);
            }
            (bucket, ev)
        });
        events.collect()
    }

    fn with_lines(mut p: ArchProfile, (iline, iways): (u32, u32), dline: u32) -> ArchProfile {
        p.icache = CacheConfig {
            sets: p.icache.sets,
            ways: iways,
            line_bytes: iline,
        };
        p.dcache.line_bytes = dline;
        p
    }

    /// Model groups: every built-in profile, then custom profiles whose
    /// I-cache lines (16, 32 and 64 bytes) and way counts (1, 3, 8) differ
    /// inside one group, so the finest-line fetch filter and every set
    /// search shape are exercised. Predictor families rotate over each.
    fn groups() -> Vec<Vec<(ArchProfile, PredictorSpec)>> {
        let specs = [
            PredictorSpec::Legacy,
            PredictorSpec::None,
            PredictorSpec::Ideal,
            PredictorSpec::Btb { sets: 16, ways: 1 },
            PredictorSpec::Btb { sets: 64, ways: 4 },
            PredictorSpec::Ittage { tables: 3 },
            PredictorSpec::Ittage { tables: 8 },
        ];
        let mut builtin = ArchProfile::all();
        builtin.push(ArchProfile::ideal());
        let custom = vec![
            with_lines(ArchProfile::x86_like(), (16, 1), 64),
            with_lines(ArchProfile::mips_like(), (64, 8), 16),
            with_lines(ArchProfile::sparc_like(), (32, 3), 32),
            with_lines(ArchProfile::ideal(), (64, 2), 64),
        ];
        // The custom group picks up the families where the built-in one
        // stopped, so every family is in a group.
        let rotate = |profiles: Vec<ArchProfile>, from: usize| {
            let specs = specs.iter().cycle().skip(from);
            profiles.into_iter().zip(specs.copied()).collect()
        };
        let from = builtin.len();
        vec![rotate(builtin, 0), rotate(custom, from)]
    }

    fn build(group: &[(ArchProfile, PredictorSpec)]) -> Vec<ArchModel> {
        let models = group.iter().cloned();
        let models = models.map(|(p, spec)| ArchModel::with_predictor_spec(p, spec));
        models.collect()
    }

    /// Every structure's counters, which need no counts to read.
    fn structures(m: &ArchModel) -> [u64; 6] {
        let (i, d) = (m.icache(), m.dcache());
        [
            i.hits(),
            i.misses(),
            d.hits(),
            d.misses(),
            m.cond_mispredicts(),
            m.indirect_mispredicts(),
        ]
    }

    /// Prices `events` in batches, flushing early before each index of
    /// `flush_at` too, and per event under the same models; every
    /// structure must agree at each early flush, and every reading at
    /// the end.
    fn check(
        events: &[(usize, RetireEvent)],
        group: &[(ArchProfile, PredictorSpec)],
        flush_at: &[usize],
    ) {
        let mut pricer = Pricer::new(build(group));
        let mut reference = build(group);
        let mut counts = Counts::default();
        for (i, (bucket, ev)) in events.iter().enumerate() {
            if flush_at.contains(&i) {
                pricer.flush();
                for (a, b) in pricer.models.iter().zip(&reference) {
                    let name = a.profile().name;
                    assert_eq!(structures(a), structures(b), "{name} at {i}");
                }
            }
            pricer.record(*bucket, ev);
            counts.count(*bucket, ev);
            for model in &mut reference {
                model.step(*bucket, ev);
            }
        }
        assert_eq!(pricer.retired(), events.len() as u64);
        assert_eq!(pricer.by_bucket(), counts.by_bucket());
        let priced = pricer.finish();
        for (a, mut b) in priced.into_iter().zip(reference) {
            b.absorb(&counts);
            let name = a.profile().name;
            let what = format!("{name} after {} retires", events.len());
            assert_eq!(a.stats(), b.stats(), "{what}");
            assert_eq!(a.cycles_by_bucket(), b.cycles_by_bucket(), "{what}");
            assert_eq!(a.total_cycles(), b.total_cycles(), "{what}");
            assert_eq!(a.instructions(), b.instructions(), "{what}");
            assert_eq!(structures(&a), structures(&b), "{what}");
        }
    }

    #[test]
    fn batches_price_like_per_event_steps_at_random_flush_points() {
        let mut rng = SmallRng::seed_from_u64(0xBA7C_0001);
        for _ in 0..3 {
            let len = 3 * LOG_CAPACITY + rng.gen_range(0..LOG_CAPACITY);
            let events = stream(&mut rng, len);
            let mut flush_at: Vec<usize> = (0..6).map(|_| rng.gen_range(0..len)).collect();
            flush_at.sort_unstable();
            for group in groups() {
                check(&events, &group, &flush_at);
            }
        }
    }

    #[test]
    fn batches_price_like_per_event_steps_around_the_capacity() {
        let mut rng = SmallRng::seed_from_u64(0xBA7C_0002);
        let events = stream(&mut rng, 2 * LOG_CAPACITY + 1);
        let cap = LOG_CAPACITY;
        for len in [1, cap - 1, cap, cap + 1, 2 * cap, 2 * cap + 1] {
            for group in groups() {
                // Ending there; and flushing early one retire short of the
                // capacity, then again at it, or exactly at it.
                check(&events[..len], &group, &[]);
                check(&events[..len], &group, &[cap - 1]);
                check(&events[..len], &group, &[cap]);
            }
        }
    }

    #[test]
    fn a_same_line_fetch_is_a_hit_at_every_line_size() {
        // 16-, 32- and 64-byte lines in one group: the log drops the fetches
        // that stay in a 16-byte line, and each model still counts them.
        let mut rng = SmallRng::seed_from_u64(0xBA7C_0003);
        let events = stream(&mut rng, LOG_CAPACITY / 2);
        let group = &groups()[1];
        let mut pricer = Pricer::new(build(group));
        for (bucket, ev) in &events {
            pricer.record(*bucket, ev);
        }
        assert!(pricer.log.same_line > 0);
        assert_eq!(pricer.line_shift, 4);
        for model in pricer.finish() {
            let icache = model.icache();
            assert_eq!(icache.hits() + icache.misses(), events.len() as u64);
        }
    }
}
