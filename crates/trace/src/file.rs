//! The on-disk `.strace` container: header + checksummed record blocks.
//!
//! ```text
//! magic   8 bytes  "STRACE02"
//! header  u32 len ‖ u64 fnv1a64(payload) ‖ payload
//! blocks  repeated: u32 payload_len ‖ u32 record_count ‖
//!         u64 fnv1a64(payload) ‖ payload   (codec-packed records)
//! eof     u32 0xFFFF_FFFF
//! ```
//!
//! The header payload carries the workload identity (name, scale,
//! variant), the sampling interval the trace was cut for, the total
//! record count, the reference syscall checksum, and one full
//! [`NativeRun`] per architecture profile — captured in the same pass
//! that recorded the stream, so sampled mode serves native cells exactly
//! without re-running the guest.
//!
//! Everything is little-endian and byte-deterministic: recording the
//! same workload twice produces identical files. All read failures are
//! [`TraceError`] values.
//!
//! Reading is one loop, [`BlockWalker`]: it pulls a file through a
//! reusable block-sized buffer and checksum-verifies *every* block, and
//! unpacks the records only of the blocks its caller wants, streaming
//! them to a callback ([`BlockWalker::visit_ranges`]) with no vector in
//! between. A whole [`Trace`] (one range, pushed), a header summary
//! ([`Trace::info`], which unpacks nothing) and the records of a few
//! ranges (which unpacks only the blocks they overlap) are all walks of
//! it. Blocks are
//! self-contained (the codec's pc delta restarts in each) and end on the
//! header's sampling-interval boundaries: a block ends at the next
//! multiple of `interval` or after [`BLOCK_RECORDS`] records, whichever
//! comes first (64 Ki records a block when `interval` is 0). The walker
//! checks every block's count against that rule, so where each block
//! starts follows from the checksummed header without an index, and a
//! range of whole intervals — what a SimPoint bundle reads — covers whole
//! blocks only: no block is unpacked for records nobody wants.

use std::fs::File;
use std::io::{BufReader, Read};
use std::ops::Range;
use std::path::Path;

use strata_core::NativeRun;
use strata_isa::Reg;
use strata_machine::observers::CompactRetire;

use crate::codec::{encode_block, visit_block, CodecError};
use crate::fnv1a64;

/// File magic, first eight bytes of every `.strace`. `STRACE01` files
/// (fixed 64 Ki-record blocks) fail to open as [`TraceError::BadMagic`];
/// recording is deterministic, so their readers re-record them.
pub const MAGIC: &[u8; 8] = b"STRACE02";

/// Most records in one block. Blocks also end on every interval boundary
/// (see the module doc); within an interval longer than this, 64 Ki
/// records keeps blocks around 100 KiB packed — large enough to amortize
/// framing, small enough to bound the damage of a bad length field.
pub const BLOCK_RECORDS: usize = 1 << 16;

/// Upper bound on any length field; a corrupt length cannot OOM the
/// reader.
pub const MAX_BLOCK: u32 = 16 * 1024 * 1024;

/// End-of-blocks sentinel in the `payload_len` position.
const EOF_MARK: u32 = 0xFFFF_FFFF;

/// Why a trace failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Underlying filesystem error.
    Io(String),
    /// First eight bytes were not [`MAGIC`].
    BadMagic,
    /// File ended before the structure did.
    Truncated,
    /// A length field exceeded [`MAX_BLOCK`].
    Oversized(u32),
    /// A block or header checksum disagreed with its payload.
    BadChecksum,
    /// Header structure invalid (bad UTF-8, short fields, bad counts).
    Malformed(String),
    /// A record block failed to unpack.
    Codec(CodecError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not a strata trace (bad magic)"),
            TraceError::Truncated => write!(f, "trace truncated"),
            TraceError::Oversized(n) => write!(f, "block length {n} exceeds cap"),
            TraceError::BadChecksum => write!(f, "checksum mismatch (corrupt trace)"),
            TraceError::Malformed(m) => write!(f, "malformed trace: {m}"),
            TraceError::Codec(e) => write!(f, "record block: {e}"),
        }
    }
}

impl From<CodecError> for TraceError {
    fn from(e: CodecError) -> TraceError {
        TraceError::Codec(e)
    }
}

/// Per-profile native baseline captured at record time.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeSummary {
    /// Profile name (`ArchProfile::name`).
    pub profile: String,
    /// The full native measurement under that profile.
    pub run: NativeRun,
}

/// Everything a `.strace` carries ahead of its record blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Workload name.
    pub workload: String,
    /// Workload scale the trace was recorded at.
    pub scale: u32,
    /// Workload variant.
    pub variant: u64,
    /// Sampling interval (instructions) the trace was cut for.
    pub interval: u64,
    /// Total recorded instructions — the record count of the blocks.
    pub instructions: u64,
    /// Reference syscall checksum of the recorded run.
    pub checksum: u32,
    /// One native baseline per architecture profile.
    pub natives: Vec<NativeSummary>,
}

/// A loaded (or about-to-be-written) trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Workload name.
    pub workload: String,
    /// Workload scale the trace was recorded at.
    pub scale: u32,
    /// Workload variant.
    pub variant: u64,
    /// Sampling interval (instructions) the trace was cut for.
    pub interval: u64,
    /// Reference syscall checksum of the recorded run.
    pub checksum: u32,
    /// One native baseline per architecture profile.
    pub natives: Vec<NativeSummary>,
    /// The full retire stream.
    pub records: Vec<CompactRetire>,
}

/// What `strata trace info` prints: the header plus size accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceInfo {
    /// The file's header.
    pub header: TraceHeader,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Number of record blocks.
    pub blocks: u64,
}

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    push_u16(out, bytes.len() as u16);
    out.extend_from_slice(bytes);
}

/// Records in the block that starts at record `at` of a trace of
/// `records` records cut for `interval`: up to the next multiple of
/// `interval` (none when it is 0), at most [`BLOCK_RECORDS`], and no
/// further than the trace. The writer cuts by it and the walker checks
/// every block against it.
fn block_len(at: u64, records: u64, interval: u64) -> u64 {
    let boundary = at
        .checked_div(interval)
        .map_or(u64::MAX, |k| (k + 1).saturating_mul(interval));
    let end = records.min(at.saturating_add(BLOCK_RECORDS as u64));
    end.min(boundary).saturating_sub(at)
}

/// Fills `buf` from `src`; a short source is [`TraceError::Truncated`].
fn fill(src: &mut impl Read, buf: &mut [u8]) -> Result<(), TraceError> {
    src.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => TraceError::Truncated,
        _ => TraceError::Io(e.to_string()),
    })
}

/// The next `N` bytes of `src`, for `from_le_bytes`.
fn take<const N: usize>(src: &mut impl Read) -> Result<[u8; N], TraceError> {
    let mut buf = [0; N];
    fill(src, &mut buf)?;
    Ok(buf)
}

fn take_str(src: &mut impl Read) -> Result<String, TraceError> {
    let mut bytes = vec![0; u16::from_le_bytes(take(src)?) as usize];
    fill(src, &mut bytes)?;
    String::from_utf8(bytes).map_err(|_| TraceError::Malformed("non-UTF-8 string".into()))
}

fn encode_native(out: &mut Vec<u8>, s: &NativeSummary) {
    push_str(out, &s.profile);
    push_u32(out, s.run.checksum);
    for v in [
        s.run.total_cycles,
        s.run.instructions,
        s.run.indirect_jumps,
        s.run.indirect_calls,
        s.run.returns,
        s.run.direct_calls,
        s.run.cond_branches,
        s.run.icache_misses,
        s.run.dcache_misses,
    ] {
        push_u64(out, v);
    }
    push_u16(out, s.run.regs.len() as u16);
    for r in s.run.regs {
        push_u32(out, r);
    }
}

fn decode_native(r: &mut impl Read) -> Result<NativeSummary, TraceError> {
    let profile = take_str(r)?;
    let checksum = u32::from_le_bytes(take(r)?);
    let mut fields = [0u64; 9];
    for f in fields.iter_mut() {
        *f = u64::from_le_bytes(take(r)?);
    }
    let nregs = u16::from_le_bytes(take(r)?) as usize;
    if nregs != Reg::COUNT {
        return Err(TraceError::Malformed(format!(
            "native summary has {nregs} registers, expected {}",
            Reg::COUNT
        )));
    }
    let mut regs = [0u32; Reg::COUNT];
    for reg in regs.iter_mut() {
        *reg = u32::from_le_bytes(take(r)?);
    }
    Ok(NativeSummary {
        profile,
        run: NativeRun {
            checksum,
            total_cycles: fields[0],
            instructions: fields[1],
            indirect_jumps: fields[2],
            indirect_calls: fields[3],
            returns: fields[4],
            direct_calls: fields[5],
            cond_branches: fields[6],
            icache_misses: fields[7],
            dcache_misses: fields[8],
            regs,
        },
    })
}

impl TraceHeader {
    /// The native baseline for `profile`, if the header carries one.
    pub fn native_for(&self, profile: &str) -> Option<&NativeRun> {
        self.natives
            .iter()
            .find(|n| n.profile == profile)
            .map(|n| &n.run)
    }

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_str(&mut out, &self.workload);
        push_u32(&mut out, self.scale);
        push_u64(&mut out, self.variant);
        push_u64(&mut out, self.interval);
        push_u64(&mut out, self.instructions);
        push_u32(&mut out, self.checksum);
        push_u16(&mut out, self.natives.len() as u16);
        for n in &self.natives {
            encode_native(&mut out, n);
        }
        out
    }

    fn parse(mut payload: &[u8]) -> Result<TraceHeader, TraceError> {
        let h = &mut payload;
        let workload = take_str(h)?;
        let scale = u32::from_le_bytes(take(h)?);
        let variant = u64::from_le_bytes(take(h)?);
        let interval = u64::from_le_bytes(take(h)?);
        let instructions = u64::from_le_bytes(take(h)?);
        let checksum = u32::from_le_bytes(take(h)?);
        let native_count = u16::from_le_bytes(take(h)?);
        let mut natives = Vec::with_capacity(native_count as usize);
        for _ in 0..native_count {
            natives.push(decode_native(h)?);
        }
        if !h.is_empty() {
            return Err(TraceError::Malformed("trailing header bytes".into()));
        }
        Ok(TraceHeader {
            workload,
            scale,
            variant,
            interval,
            instructions,
            checksum,
            natives,
        })
    }
}

/// The one `.strace` parse loop. [`BlockWalker::open`] reads and checks
/// the header; every read then pulls the file through a reusable
/// block-sized buffer, verifying each block's framing and checksum
/// whether or not its records are unpacked.
#[derive(Debug)]
pub struct BlockWalker<R> {
    src: R,
    header: TraceHeader,
    payload: Vec<u8>,
    /// Records in the blocks walked so far — the next block's first.
    records: u64,
}

impl BlockWalker<BufReader<File>> {
    /// [`BlockWalker::open`] on the file at `path`, buffered so the small
    /// frame fields are not a read call each.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`TraceError::Io`]; structural
    /// defects as the other variants.
    pub fn open_path(path: &Path) -> Result<Self, TraceError> {
        let file = File::open(path).map_err(|e| TraceError::Io(e.to_string()))?;
        BlockWalker::open(BufReader::new(file))
    }
}

impl<R: Read> BlockWalker<R> {
    /// Reads magic and header off `src`, leaving it at the first block.
    ///
    /// # Errors
    ///
    /// Any structural defect yields a [`TraceError`].
    pub fn open(mut src: R) -> Result<Self, TraceError> {
        if &take::<8>(&mut src)? != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let header_len = u32::from_le_bytes(take(&mut src)?);
        if header_len > MAX_BLOCK {
            return Err(TraceError::Oversized(header_len));
        }
        let header_sum = u64::from_le_bytes(take(&mut src)?);
        let mut payload = vec![0; header_len as usize];
        fill(&mut src, &mut payload)?;
        if fnv1a64(&payload) != header_sum {
            return Err(TraceError::BadChecksum);
        }
        Ok(BlockWalker {
            src,
            header: TraceHeader::parse(&payload)?,
            payload,
            records: 0,
        })
    }

    /// The file's header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Reads and verifies the next block into `self.payload`, returning
    /// the index of its first record and its record count; `None` once
    /// the eof mark has been read, nothing follows it, and the blocks
    /// held as many records as the header promised. Never panics on
    /// arbitrary input.
    fn next_block(&mut self) -> Result<Option<(u64, u32)>, TraceError> {
        let payload_len = u32::from_le_bytes(take(&mut self.src)?);
        if payload_len == EOF_MARK {
            match fill(&mut self.src, &mut [0]) {
                Err(TraceError::Truncated) => {}
                Err(e) => return Err(e),
                Ok(()) => {
                    return Err(TraceError::Malformed(
                        "trailing bytes after eof mark".into(),
                    ))
                }
            }
            if self.records != self.header.instructions {
                return Err(TraceError::Malformed(format!(
                    "header promises {} records, blocks hold {}",
                    self.header.instructions, self.records
                )));
            }
            return Ok(None);
        }
        if payload_len > MAX_BLOCK {
            return Err(TraceError::Oversized(payload_len));
        }
        let count = u32::from_le_bytes(take(&mut self.src)?);
        let h = &self.header;
        let expected = block_len(self.records, h.instructions, h.interval);
        if count == 0 || u64::from(count) != expected {
            return Err(TraceError::Malformed(format!(
                "block at record {} holds {count} records, expected {expected}",
                self.records
            )));
        }
        let sum = u64::from_le_bytes(take(&mut self.src)?);
        self.payload.resize(payload_len as usize, 0);
        fill(&mut self.src, &mut self.payload)?;
        if fnv1a64(&self.payload) != sum {
            return Err(TraceError::BadChecksum);
        }
        let start = self.records;
        self.records += expected;
        Ok(Some((start, count)))
    }

    /// Walks every remaining block and streams the records of `ranges`
    /// (record-index ranges, sorted and disjoint, clipped to the trace) to
    /// `visit` in trace order, each with its index. Only blocks
    /// overlapping a range are unpacked. `visit` may have seen records by
    /// the time a defect further on is reported.
    ///
    /// # Errors
    ///
    /// Any structural defect, in a skipped block as in an unpacked one,
    /// yields a [`TraceError`]; so do ranges out of order.
    pub fn visit_ranges(
        &mut self,
        ranges: &[Range<u64>],
        mut visit: impl FnMut(u64, CompactRetire),
    ) -> Result<(), TraceError> {
        if ranges.windows(2).any(|w| w[0].end > w[1].start) {
            return Err(TraceError::Malformed("record ranges out of order".into()));
        }
        // The first range not wholly behind record `at`, or one no record
        // is in once the ranges are spent.
        let mut rest = ranges.iter();
        let mut next = |at: u64| {
            let found = rest.find(|r| r.end > at).cloned();
            found.unwrap_or(u64::MAX..u64::MAX)
        };
        let mut want = next(0);
        while let Some((start, count)) = self.next_block()? {
            if want.end <= start {
                want = next(start);
            }
            let end = start + u64::from(count);
            if end <= want.start {
                continue;
            }
            let mut index = start;
            if want.start <= start && end <= want.end {
                // Wholly wanted (every block of a whole-trace read): no
                // per-record range test.
                visit_block(&self.payload, count, |record| {
                    visit(index, record);
                    index += 1;
                })?;
                continue;
            }
            visit_block(&self.payload, count, |record| {
                if want.end <= index {
                    want = next(index);
                }
                if want.start <= index {
                    visit(index, record);
                }
                index += 1;
            })?;
        }
        Ok(())
    }
}

impl Trace {
    /// The header this trace serializes with.
    pub fn header(&self) -> TraceHeader {
        TraceHeader {
            workload: self.workload.clone(),
            scale: self.scale,
            variant: self.variant,
            interval: self.interval,
            instructions: self.records.len() as u64,
            checksum: self.checksum,
            natives: self.natives.clone(),
        }
    }

    /// Serializes the trace to bytes (the exact `.strace` file image).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.records.len() * 2 + 256);
        out.extend_from_slice(MAGIC);
        let header = self.header().payload();
        push_u32(&mut out, header.len() as u32);
        push_u64(&mut out, fnv1a64(&header));
        out.extend_from_slice(&header);
        let n = self.records.len() as u64;
        let mut at = 0;
        while at < n {
            let len = block_len(at, n, self.interval);
            let chunk = &self.records[at as usize..(at + len) as usize];
            at += len;
            let payload = encode_block(chunk);
            push_u32(&mut out, payload.len() as u32);
            push_u32(&mut out, chunk.len() as u32);
            push_u64(&mut out, fnv1a64(&payload));
            out.extend_from_slice(&payload);
        }
        push_u32(&mut out, EOF_MARK);
        out
    }

    fn from_walker(mut walker: BlockWalker<impl Read>) -> Result<Trace, TraceError> {
        let mut records = Vec::new();
        let whole = std::slice::from_ref(&(0..u64::MAX));
        walker.visit_ranges(whole, |_, record| records.push(record))?;
        let h = walker.header;
        Ok(Trace {
            workload: h.workload,
            scale: h.scale,
            variant: h.variant,
            interval: h.interval,
            checksum: h.checksum,
            natives: h.natives,
            records,
        })
    }

    /// Parses a `.strace` image.
    ///
    /// # Errors
    ///
    /// Any structural defect yields a [`TraceError`]; this function never
    /// panics on arbitrary input.
    pub fn from_bytes(buf: &[u8]) -> Result<Trace, TraceError> {
        Trace::from_walker(BlockWalker::open(buf)?)
    }

    /// Reads a trace from disk.
    ///
    /// # Errors
    ///
    /// Filesystem failures surface as [`TraceError::Io`]; structural
    /// defects as the other variants.
    pub fn read(path: &Path) -> Result<Trace, TraceError> {
        Trace::from_walker(BlockWalker::open_path(path)?)
    }

    /// Header-only summary of a trace file on disk: every block is
    /// checksum-verified and counted, none is unpacked.
    ///
    /// # Errors
    ///
    /// Same contract as [`Trace::read`].
    pub fn info(path: &Path) -> Result<TraceInfo, TraceError> {
        let mut walker = BlockWalker::open_path(path)?;
        let mut blocks = 0;
        while walker.next_block()?.is_some() {
            blocks += 1;
        }
        let file = std::fs::metadata(path).map_err(|e| TraceError::Io(e.to_string()))?;
        Ok(TraceInfo {
            header: walker.header,
            file_bytes: file.len(),
            blocks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_isa::ControlKind;
    use strata_machine::observers::MemClass;
    use strata_stats::rng::SmallRng;

    fn sample_trace(n: usize) -> Trace {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut records = Vec::with_capacity(n);
        let mut pc = 0x1000u32;
        for _ in 0..n {
            let branch = rng.gen_bool(0.2);
            let (kind, taken, target) = if branch {
                let t = rng.gen_range(0x1000u32..0x9000) & !3;
                (ControlKind::Direct, true, t)
            } else {
                (ControlKind::None, false, pc.wrapping_add(4))
            };
            records.push(CompactRetire {
                pc,
                kind,
                taken,
                indirect: false,
                target,
                mem: MemClass::None,
            });
            pc = target;
        }
        Trace {
            workload: "gzip".into(),
            scale: 1,
            variant: 0,
            interval: 2000,
            checksum: 0xdead_beef,
            natives: vec![NativeSummary {
                profile: "x86-like".into(),
                run: NativeRun {
                    checksum: 0xdead_beef,
                    total_cycles: 123_456,
                    instructions: n as u64,
                    indirect_jumps: 7,
                    indirect_calls: 3,
                    returns: 11,
                    direct_calls: 11,
                    cond_branches: 99,
                    icache_misses: 5,
                    dcache_misses: 6,
                    regs: [1; Reg::COUNT],
                },
            }],
            records,
        }
    }

    /// [`sample_trace`] cut for `interval`.
    fn cut_for(n: usize, interval: u64) -> Trace {
        Trace {
            interval,
            ..sample_trace(n)
        }
    }

    #[test]
    fn round_trips_including_multi_block() {
        let b = BLOCK_RECORDS;
        let cases = [
            (0, 2000),
            (5, 2000),
            (1999, 2000),
            (2001, 2000),
            (b + 13, 2000),
            (0, 0),
            (5, 0),
            (b, 0),
            (b + 13, 0),
            (b + 13, b as u64 + 1),
            (2 * b + 13, b as u64 + 7),
        ];
        for (n, interval) in cases {
            let t = cut_for(n, interval);
            let bytes = t.to_bytes();
            assert_eq!(frame_counts(&bytes), block_counts(n as u64, interval));
            let back = Trace::from_bytes(&bytes).unwrap();
            assert_eq!(back, t, "n = {n}, interval = {interval}");
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        let t = sample_trace(10_000);
        assert_eq!(t.to_bytes(), t.to_bytes());
    }

    #[test]
    fn native_lookup_by_profile() {
        let h = sample_trace(10).header();
        assert!(h.native_for("x86-like").is_some());
        assert!(h.native_for("sparc-like").is_none());
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn every_prefix_truncation_is_an_error() {
        let bytes = sample_trace(300).to_bytes();
        for cut in 0..bytes.len() {
            let full = Trace::from_bytes(&bytes[..cut]).map(|_| ());
            assert!(full.is_err(), "prefix of {cut} bytes parsed cleanly");
            // A visit of a few records, or of none, fails the same way.
            for ranges in [&[10..20u64][..], &[]] {
                assert_eq!(ranged(&bytes[..cut], ranges).map(|_| ()), full, "{cut}");
            }
        }
    }

    #[test]
    fn every_byte_corruption_is_an_error() {
        // Unlike the raw codec, the framed file detects *every* flip:
        // header and blocks are checksummed, lengths are bounded, and
        // the eof mark is position-checked.
        let bytes = sample_trace(200).to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Trace::from_bytes(&bad).is_err(),
                "flipping byte {i} went undetected"
            );
        }
    }

    /// The two multi-block layouts, each with its file image: four whole
    /// intervals of 7000 records (which does not divide [`BLOCK_RECORDS`])
    /// and a partial one, a block each; and intervals of 100 000 records,
    /// so each is cut at [`BLOCK_RECORDS`] as well as at its end.
    fn multi_block() -> [(Trace, Vec<u8>); 2] {
        [
            cut_for(4 * 7000 + 1234, 7000),
            cut_for(3 * BLOCK_RECORDS + 1234, 100_000),
        ]
        .map(|t| {
            let bytes = t.to_bytes();
            (t, bytes)
        })
    }

    /// The record count of each block of a trace of `n` records cut for
    /// `interval`, derived from the rule afresh: every interval (the
    /// whole trace when `interval` is 0) is cut into [`BLOCK_RECORDS`]
    /// pieces, the last possibly shorter.
    fn block_counts(n: u64, interval: u64) -> Vec<u32> {
        let span = if interval == 0 { n.max(1) } else { interval };
        let mut out = Vec::new();
        for start in (0..n).step_by(span as usize) {
            let len = span.min(n - start);
            for at in (0..len).step_by(BLOCK_RECORDS) {
                out.push((len - at).min(BLOCK_RECORDS as u64) as u32);
            }
        }
        out
    }

    /// The record count field of each block frame of `bytes`.
    fn frame_counts(bytes: &[u8]) -> Vec<u32> {
        let frames = frame_offsets(bytes);
        let field = |at: usize| u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        frames[..frames.len() - 1]
            .iter()
            .map(|&at| field(at))
            .collect()
    }

    /// The index of each block's first record, then the record count.
    fn block_starts(t: &Trace) -> Vec<u64> {
        let counts = block_counts(t.records.len() as u64, t.interval);
        let mut at = 0;
        let mut out = vec![0];
        out.extend(counts.iter().map(|&c| {
            at += u64::from(c);
            at
        }));
        out
    }

    #[test]
    fn blocks_end_on_interval_boundaries() {
        let [(small, small_bytes), (big, big_bytes)] = multi_block();
        assert_eq!(frame_counts(&small_bytes), [7000, 7000, 7000, 7000, 1234]);
        let b = BLOCK_RECORDS as u32;
        let tail = 3 * b + 1234 - 100_000 - b;
        assert_eq!(frame_counts(&big_bytes), [b, 100_000 - b, b, tail]);
        assert_eq!(block_starts(&big)[..3], [0, b.into(), 100_000]);
        // Every block lies within one interval, so a range of whole
        // intervals covers whole blocks.
        for t in [&small, &big] {
            let starts = block_starts(t);
            for w in starts.windows(2) {
                assert_eq!(w[0] / t.interval, (w[1] - 1) / t.interval, "{w:?}");
            }
        }
    }

    /// The streamed visit of `ranges`, as (index, record) pairs.
    fn ranged(
        bytes: &[u8],
        ranges: &[Range<u64>],
    ) -> Result<Vec<(u64, CompactRetire)>, TraceError> {
        let mut seen = Vec::new();
        BlockWalker::open(bytes)?.visit_ranges(ranges, |i, r| seen.push((i, r)))?;
        Ok(seen)
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn ranged_reads_equal_slices_of_the_full_read() {
        for (t, bytes) in multi_block() {
            let full = Trace::from_bytes(&bytes).unwrap().records;
            assert_eq!(full, t.records);
            let starts = block_starts(&t);
            let (s1, s2, s3) = (starts[1], starts[2], starts[3]);
            let last = starts[starts.len() - 2];
            let n = full.len() as u64;
            let mut sets: Vec<Vec<Range<u64>>> = vec![
                vec![],
                vec![5..5],
                vec![s1 - 3..s1 + 3],
                vec![n - 100..n],
                vec![n - 100..n + 500],
                vec![n + 1..n + 9],
                vec![0..n],
                vec![0..u64::MAX],
                vec![0..1, s1 - 1..s1, s1..s1 + 1, s2 - 7..s3 + 7],
                // Whole blocks, adjacent and not.
                vec![0..s1, s2..s3],
                vec![s1..s2, s2..s3, last..n],
                // The last interval of a trace is partial, and may be alone
                // in the last block.
                vec![last - 2000..last, last..n],
            ];
            let mut rng = SmallRng::seed_from_u64(17);
            for _ in 0..40 {
                let mut cuts: Vec<u64> = (0..2 * rng.gen_range(0usize..6))
                    .map(|_| rng.gen_range(0..n + 1))
                    .collect();
                cuts.sort_unstable();
                sets.push(cuts.chunks(2).map(|c| c[0]..c[1]).collect());
            }
            for ranges in sets {
                let want: Vec<(u64, CompactRetire)> = ranges
                    .iter()
                    .flat_map(|r| r.start.min(n)..r.end.min(n))
                    .map(|i| (i, full[i as usize]))
                    .collect();
                assert_eq!(ranged(&bytes, &ranges).unwrap(), want, "{ranges:?}");
            }
            // One pass cannot serve ranges that overlap or go backwards.
            for ranges in [vec![s1..s2 + 5, 7..s1 + 9], vec![0..9, 8..20]] {
                assert!(
                    matches!(ranged(&bytes, &ranges), Err(TraceError::Malformed(_))),
                    "{ranges:?}"
                );
            }
        }
    }

    /// Byte offsets of the block frames of `bytes`, then of the eof mark.
    fn frame_offsets(bytes: &[u8]) -> Vec<usize> {
        let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let mut at = 8 + 4 + 8 + header_len;
        let mut out = vec![at];
        while bytes[at..at + 4] != EOF_MARK.to_le_bytes() {
            at += 16 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            out.push(at);
        }
        out
    }

    #[test]
    fn a_skipped_block_is_verified_like_a_decoded_one() {
        // A read of records from block 1 alone, a header-only walk and a
        // full decode must all reject the same damage with the same
        // error, wherever in the file it sits.
        for (t, bytes) in multi_block() {
            a_skipped_block_is_verified_in(&t, &bytes);
        }
    }

    #[allow(clippy::single_range_in_vec_init)]
    fn a_skipped_block_is_verified_in(t: &Trace, bytes: &[u8]) {
        let starts = block_starts(t);
        let (s1, s2, n) = (starts[1], starts[2], t.records.len() as u64);
        let frames = frame_offsets(bytes);
        assert_eq!(
            frames.len(),
            starts.len(),
            "a frame per block and the eof mark"
        );
        let walk_only = |bytes: &[u8]| -> Result<(), TraceError> {
            let mut w = BlockWalker::open(bytes)?;
            while w.next_block()?.is_some() {}
            Ok(())
        };
        let check = |bad: &[u8], what: String| {
            let full = Trace::from_bytes(bad).map(|_| ()).unwrap_err();
            assert_eq!(
                ranged(bad, &[s1 + 10..s1 + 20]).unwrap_err(),
                full,
                "{what}"
            );
            assert_eq!(walk_only(bad).unwrap_err(), full, "{what}");
        };

        let mut rng = SmallRng::seed_from_u64(23);
        for (k, frame) in frames.windows(2).enumerate() {
            // Every byte of the block's frame fields, and a sample of its
            // payload (first and last byte included).
            let payload = frame[0] + 16..frame[1];
            let flips = (frame[0]..payload.start)
                .chain([payload.start, payload.end - 1])
                .chain((0..24).map(|_| rng.gen_range(payload.clone())));
            for i in flips.collect::<Vec<_>>() {
                let mut bad = bytes.to_vec();
                bad[i] ^= 1 << rng.gen_range(0u32..8);
                check(&bad, format!("flip at byte {i} (block {k})"));
            }
        }
        // Truncation at each block boundary (the last is the eof mark's),
        // inside the frame that follows it, and anywhere.
        let cuts = frames.iter().flat_map(|&cut| [cut, cut + 3]);
        for cut in cuts.chain((0..48).map(|_| rng.gen_range(0..bytes.len()))) {
            check(&bytes[..cut], format!("cut at byte {cut}"));
        }

        // A payload that checksums but does not unpack is a codec error
        // to whoever unpacks it, mid-visit as in a full read; a read of
        // whole blocks on both sides of it never unpacks it.
        let mut bad = bytes.to_vec();
        bad[frames[1] + 16] = 0xFF;
        let sum = fnv1a64(&bad[frames[1] + 16..frames[2]]);
        bad[frames[1] + 8..frames[1] + 16].copy_from_slice(&sum.to_le_bytes());
        let full = Trace::from_bytes(&bad).map(|_| ()).unwrap_err();
        assert!(matches!(full, TraceError::Codec(_)), "{full:?}");
        assert_eq!(ranged(&bad, &[s1 - 1..s1 + 20]).unwrap_err(), full);
        assert_eq!(ranged(&bad, &[s2 - 1..s2 + 1]).unwrap_err(), full);
        assert_eq!(ranged(&bad, &[0..s1, s2..n]).map(|_| ()), Ok(()));
    }

    #[test]
    fn info_counts_blocks_without_decoding() {
        for (k, (t, bytes)) in multi_block().into_iter().enumerate() {
            let name = format!("strata-info-{}-{k}.strace", std::process::id());
            let path = std::env::temp_dir().join(name);
            std::fs::write(&path, &bytes).unwrap();
            let info = Trace::info(&path).unwrap();
            assert_eq!(info.header, t.header());
            let blocks = block_starts(&t).len() as u64 - 1;
            assert_eq!((info.blocks, info.file_bytes), (blocks, bytes.len() as u64));

            // A payload that checksums but does not decode: `read` refuses
            // it, `info` never looks inside.
            let frames = frame_offsets(&bytes);
            let mut bad = bytes.clone();
            bad[frames[0] + 16] = 0xFF;
            let sum = fnv1a64(&bad[frames[0] + 16..frames[1]]);
            bad[frames[0] + 8..frames[0] + 16].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &bad).unwrap();
            assert!(matches!(Trace::read(&path), Err(TraceError::Codec(_))));
            assert_eq!(Trace::info(&path).unwrap(), info);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample_trace(10).to_bytes();
        bytes.push(0);
        assert_eq!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Malformed(
                "trailing bytes after eof mark".into()
            ))
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_trace(10).to_bytes();
        bytes[0] ^= 0xff;
        assert_eq!(Trace::from_bytes(&bytes), Err(TraceError::BadMagic));
    }
}
