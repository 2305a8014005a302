//! Fetch-stream reconstruction.
//!
//! CBP-5-style traces record only branches. The paper (§IV.A) reconstructs
//! "the block address of every instruction fetch group by inferring the
//! missing instructions between branch targets": after a branch resolves to
//! its successor address, instructions execute sequentially until the next
//! branch record's PC.
//!
//! [`FetchStream`] turns a branch-record iterator into a stream of
//! [`FetchChunk`]s. A chunk is a maximal run of sequential instructions that
//! (a) stays within one cache block and (b) ends at a branch if the branch is
//! in that block. The front-end simulator performs one I-cache access per
//! chunk and one BTB/direction-predictor access per chunk that carries a
//! branch.

#![forbid(unsafe_code)]

use crate::record::{BranchRecord, INSTRUCTION_BYTES};

/// A maximal sequential fetch group within a single cache block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchChunk {
    /// Block-aligned address of the I-cache block this chunk occupies.
    pub block_addr: u64,
    /// Address of the first instruction in the chunk.
    pub first_pc: u64,
    /// Number of instructions in the chunk (always ≥ 1).
    pub n_instr: u32,
    /// The branch that terminates this chunk, if the next branch in the
    /// trace falls inside this block. Its `pc` is the chunk's last
    /// instruction.
    pub branch: Option<BranchRecord>,
    /// Whether this chunk begins a new *fetch group* — i.e. whether a real
    /// front-end would perform a fresh I-cache access for it. A chunk
    /// continues the previous group (no new access) when it stays in the
    /// same block and the previous chunk ended with a not-taken branch:
    /// fetch proceeds sequentially within the block. Taken branches and
    /// block changes start a new group (§IV.A: "the block address of every
    /// instruction fetch group").
    pub starts_group: bool,
}

impl FetchChunk {
    /// Address of the last instruction in the chunk.
    pub fn last_pc(&self) -> u64 {
        self.first_pc + (u64::from(self.n_instr) - 1) * INSTRUCTION_BYTES
    }
}

/// Iterator reconstructing [`FetchChunk`]s from a branch trace.
///
/// ```
/// use fe_trace::{BranchKind, BranchRecord};
/// use fe_trace::fetch::FetchStream;
///
/// // A branch at 0x104 jumping to 0x400, then a branch at 0x408.
/// let records = vec![
///     BranchRecord::new(0x104, BranchKind::UncondDirect, true, 0x400),
///     BranchRecord::new(0x408, BranchKind::UncondDirect, true, 0x100),
/// ];
/// let chunks: Vec<_> = FetchStream::new(records.into_iter(), 64).collect();
/// assert_eq!(chunks.len(), 2);
/// assert_eq!(chunks[0].block_addr, 0x100);
/// assert_eq!(chunks[0].n_instr, 1); // the trace begins at the first branch
/// assert_eq!(chunks[1].block_addr, 0x400);
/// assert_eq!(chunks[1].n_instr, 3); // 0x400, 0x404, 0x408
/// ```
///
/// Internal iteration (`fold`, `for_each`) drives the record source's own
/// `fold` and emits every chunk of a record in one inner loop; for a
/// [`crate::corpus::CorpusCursor`] that is its chunk-free column walk. It
/// yields exactly what repeated `next()` calls yield.
#[derive(Debug)]
pub struct FetchStream<I> {
    records: I,
    /// Branch we are currently walking toward.
    pending: Option<BranchRecord>,
    total_instructions: u64,
    walk: Walk,
}

/// The block walk's state between chunks, apart from the record source.
#[derive(Debug)]
struct Walk {
    block_bytes: u64,
    /// Next instruction address to fetch; `None` before the first record.
    pc: Option<u64>,
    /// Block of the previously yielded chunk, and whether it ended with a
    /// taken branch (fetch-group boundary tracking).
    prev_block: Option<u64>,
    prev_ended_taken: bool,
}

impl Walk {
    /// Where fetch toward `rec` starts: the next sequential address, or
    /// `rec`'s own PC for the first record of the trace or a
    /// discontinuity (the recorded branch PC is behind the sequential PC —
    /// e.g. a trap or trace gap).
    #[inline]
    fn begin(&self, rec: &BranchRecord) -> u64 {
        match self.pc {
            Some(pc) if pc <= rec.pc => pc,
            _ => rec.pc,
        }
    }

    /// The chunk starting at `pc` on the way to `rec`: it ends at `rec`
    /// (and carries it) when `rec` lies in `pc`'s block, and at the block's
    /// end otherwise. Advances the walk past it.
    #[inline]
    fn chunk(&mut self, pc: u64, rec: &BranchRecord) -> FetchChunk {
        debug_assert!(pc <= rec.pc);
        let block = pc & !(self.block_bytes - 1);
        let block_end = block + self.block_bytes; // exclusive
        let starts_group = self.prev_block != Some(block) || self.prev_ended_taken;
        let reaches_branch = rec.pc < block_end;
        let (n, next_pc) = if reaches_branch {
            ((rec.pc - pc) / INSTRUCTION_BYTES + 1, rec.successor())
        } else {
            // Sequential run to the end of the block.
            ((block_end - pc) / INSTRUCTION_BYTES, block_end)
        };
        // Truncation-safe: n ≤ block_bytes / INSTRUCTION_BYTES, far below
        // u32::MAX.
        #[allow(clippy::cast_possible_truncation)]
        let n_instr = n as u32;
        self.pc = Some(next_pc);
        self.prev_block = Some(block);
        self.prev_ended_taken = !reaches_branch || rec.taken;
        FetchChunk {
            block_addr: block,
            first_pc: pc,
            n_instr,
            branch: reaches_branch.then_some(*rec),
            starts_group,
        }
    }

    /// Feed `f` every chunk from `pc` up to and including the one that
    /// ends at `rec`.
    #[inline]
    fn run<B, F>(&mut self, mut pc: u64, rec: &BranchRecord, mut acc: B, f: &mut F) -> B
    where
        F: FnMut(B, FetchChunk) -> B,
    {
        loop {
            let chunk = self.chunk(pc, rec);
            acc = f(acc, chunk);
            if chunk.branch.is_some() {
                return acc;
            }
            pc = chunk.block_addr + self.block_bytes;
        }
    }
}

impl<I: Iterator<Item = BranchRecord>> FetchStream<I> {
    /// Create a fetch stream over `records` with the given cache block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two at least
    /// [`INSTRUCTION_BYTES`].
    pub fn new(records: I, block_bytes: u64) -> FetchStream<I> {
        assert!(
            block_bytes.is_power_of_two() && block_bytes >= INSTRUCTION_BYTES,
            "block size must be a power of two >= {INSTRUCTION_BYTES}, got {block_bytes}"
        );
        FetchStream {
            records,
            pending: None,
            total_instructions: 0,
            walk: Walk {
                block_bytes,
                pc: None,
                prev_block: None,
                prev_ended_taken: true,
            },
        }
    }

    /// Instructions emitted so far (sum of `n_instr` over yielded chunks).
    pub fn instructions(&self) -> u64 {
        self.total_instructions
    }
}

impl<'a> FetchStream<crate::corpus::CorpusCursor<'a>> {
    /// Chunked structure-of-arrays fast path: reconstruct fetch groups
    /// straight from a corpus trace.
    ///
    /// The returned stream is fully monomorphized over
    /// [`crate::corpus::CorpusCursor`] — records decode from the shared
    /// column buffer with no boxing, no virtual dispatch, and no
    /// per-record allocation anywhere in the chain; internal iteration
    /// walks the columns directly.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two at least
    /// [`INSTRUCTION_BYTES`] (as [`FetchStream::new`]).
    pub fn from_corpus(trace: &'a crate::corpus::CorpusTrace, block_bytes: u64) -> Self {
        FetchStream::new(trace.cursor(), block_bytes)
    }
}

impl<I: Iterator<Item = BranchRecord>> Iterator for FetchStream<I> {
    type Item = FetchChunk;

    fn next(&mut self) -> Option<FetchChunk> {
        // Resume the branch being walked toward, or acquire the next one.
        let (rec, pc) = if let (Some(rec), Some(pc)) = (self.pending, self.walk.pc) {
            (rec, pc)
        } else {
            let rec = self.records.next()?;
            self.pending = Some(rec);
            (rec, self.walk.begin(&rec))
        };
        let chunk = self.walk.chunk(pc, &rec);
        if chunk.branch.is_some() {
            self.pending = None;
        }
        self.total_instructions += u64::from(chunk.n_instr);
        Some(chunk)
    }

    /// Internal iteration: finish the branch a partly consumed stream is
    /// walking toward, then fold the record source, emitting each
    /// record's chunks in one inner loop.
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, FetchChunk) -> B,
    {
        let FetchStream {
            records,
            pending,
            mut walk,
            ..
        } = self;
        let mut acc = init;
        if let (Some(rec), Some(pc)) = (pending, walk.pc) {
            acc = walk.run(pc, &rec, acc, &mut f);
        }
        records.fold(acc, |acc, rec| {
            let pc = walk.begin(&rec);
            walk.run(pc, &rec, acc, &mut f)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusBuilder};
    use crate::record::BranchKind;
    use proptest::prelude::*;

    fn cond(pc: u64, taken: bool, target: u64) -> BranchRecord {
        BranchRecord::new(pc, BranchKind::CondDirect, taken, target)
    }

    #[test]
    fn single_branch_single_block() {
        let recs = vec![cond(0x10, true, 0x80)];
        let chunks: Vec<_> = FetchStream::new(recs.into_iter(), 64).collect();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].block_addr, 0x0);
        assert_eq!(chunks[0].first_pc, 0x10);
        assert_eq!(chunks[0].n_instr, 1);
        assert!(chunks[0].branch.is_some());
    }

    #[test]
    fn sequential_run_spans_blocks() {
        // Branch at 0x0 taken to 0x100; next branch at 0x1BC.
        // Sequential range 0x100..=0x1BC covers blocks 0x100, 0x140, 0x180.
        let recs = vec![cond(0x0, true, 0x100), cond(0x1bc, true, 0x0)];
        let chunks: Vec<_> = FetchStream::new(recs.into_iter(), 64).collect();
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].block_addr, 0x0);
        let (b1, b2, b3) = (&chunks[1], &chunks[2], &chunks[3]);
        assert_eq!(
            (b1.block_addr, b1.n_instr, b1.branch.is_none()),
            (0x100, 16, true)
        );
        assert_eq!(
            (b2.block_addr, b2.n_instr, b2.branch.is_none()),
            (0x140, 16, true)
        );
        assert_eq!(
            (b3.block_addr, b3.n_instr, b3.branch.is_some()),
            (0x180, 16, true)
        );
        // 0x180..=0x1BC inclusive is 16 instructions.
        assert_eq!(b3.last_pc(), 0x1bc);
    }

    #[test]
    fn not_taken_continues_in_same_block() {
        let recs = vec![cond(0x10, false, 0x80), cond(0x18, true, 0x200)];
        let chunks: Vec<_> = FetchStream::new(recs.into_iter(), 64).collect();
        assert_eq!(chunks.len(), 2);
        // Fall-through from 0x10 is 0x14; next chunk starts there.
        assert_eq!(chunks[1].first_pc, 0x14);
        assert_eq!(chunks[1].n_instr, 2); // 0x14, 0x18
        assert_eq!(chunks[1].block_addr, 0x0);
    }

    #[test]
    fn branch_on_block_boundary() {
        // Branch target is the last slot of a block; branch sits exactly there.
        let recs = vec![cond(0x0, true, 0x7c), cond(0x7c, true, 0x0)];
        let chunks: Vec<_> = FetchStream::new(recs.into_iter(), 64).collect();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].block_addr, 0x40);
        assert_eq!(chunks[1].first_pc, 0x7c);
        assert_eq!(chunks[1].n_instr, 1);
    }

    #[test]
    fn discontinuity_restarts_at_branch_pc() {
        // Second record's PC is *behind* the fall-through of the first:
        // treated as a redirect, not an underflow.
        let recs = vec![cond(0x1000, false, 0x2000), cond(0x500, true, 0x1000)];
        let chunks: Vec<_> = FetchStream::new(recs.into_iter(), 64).collect();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].first_pc, 0x500);
        assert_eq!(chunks[1].n_instr, 1);
    }

    #[test]
    fn instruction_count_accumulates() {
        let recs = vec![cond(0x0, true, 0x100), cond(0x1bc, true, 0x0)];
        let mut fs = FetchStream::new(recs.into_iter(), 64);
        while fs.next().is_some() {}
        // 1 (branch at 0) + 48 (0x100..=0x1BC).
        assert_eq!(fs.instructions(), 49);
    }

    #[test]
    fn tight_loop_reaccesses_same_block() {
        // Loop body entirely within one block, 10 iterations.
        let mut recs = Vec::new();
        for _ in 0..9 {
            recs.push(cond(0x120, true, 0x100));
        }
        recs.push(cond(0x120, false, 0x100));
        let chunks: Vec<_> = FetchStream::new(recs.into_iter(), 64).collect();
        assert_eq!(chunks.len(), 10);
        assert!(chunks.iter().all(|c| c.block_addr == 0x100));
        // First chunk starts at the branch PC (trace start), later ones at
        // the loop head.
        assert_eq!(chunks[0].n_instr, 1);
        assert!(chunks[1..].iter().all(|c| c.n_instr == 9)); // 0x100..=0x120
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_block_size_panics() {
        let _ = FetchStream::new(std::iter::empty::<BranchRecord>(), 48);
    }

    #[test]
    fn empty_trace_yields_nothing() {
        let mut fs = FetchStream::new(std::iter::empty::<BranchRecord>(), 64);
        assert!(fs.next().is_none());
        assert_eq!(fs.instructions(), 0);
    }

    #[test]
    fn corpus_fast_path_matches_record_iterator() {
        use crate::corpus::{Corpus, CorpusBuilder};
        // A mix that exercises sequential runs, loops and discontinuities,
        // long enough to span several cursor chunks.
        let mut recs = Vec::new();
        for i in 0..1000u64 {
            recs.push(cond(0x1000 + i * 0x40, i % 2 == 0, 0x1000 + (i + 1) * 0x40));
            recs.push(cond(0x120, i % 3 == 0, 0x100));
        }
        let mut b = CorpusBuilder::new();
        b.push_trace("fetch", 0, &recs).unwrap();
        let corpus = Corpus::from_bytes(b.finish()).unwrap();
        let trace = corpus.get(0).unwrap();
        for block_bytes in [16, 64, 256] {
            let via_corpus: Vec<_> = FetchStream::from_corpus(&trace, block_bytes).collect();
            let via_iter: Vec<_> = FetchStream::new(recs.iter().copied(), block_bytes).collect();
            assert_eq!(via_corpus, via_iter);
        }
    }

    #[test]
    fn min_block_size_is_one_instruction() {
        let recs = vec![cond(0x0, true, 0x10), cond(0x14, true, 0x0)];
        let chunks: Vec<_> = FetchStream::new(recs.into_iter(), 4).collect();
        // 0x0 (branch), 0x10, 0x14 (branch) — one chunk per instruction.
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| c.n_instr == 1));
    }

    /// Every chunk, through `next()` only.
    fn by_next<I: Iterator<Item = BranchRecord>>(mut s: FetchStream<I>) -> Vec<FetchChunk> {
        std::iter::from_fn(|| s.next()).collect()
    }

    /// Check `fold` and `for_each` against `want` (the `next()` output
    /// of the whole stream), each after `skip` chunks taken by `next()`.
    fn check_internal_iteration<I: Iterator<Item = BranchRecord>>(
        make: impl Fn() -> FetchStream<I>,
        want: &[FetchChunk],
        skip: usize,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(by_next(make()), want.to_vec());
        let mut folded = make();
        let head: Vec<_> = (0..skip).map_while(|_| folded.next()).collect();
        prop_assert_eq!(head.as_slice(), &want[..head.len()]);
        let rest = folded.fold(head, |mut v, c| {
            v.push(c);
            v
        });
        prop_assert_eq!(rest, want.to_vec());
        let mut visited = make();
        let mut all: Vec<_> = (0..skip).map_while(|_| visited.next()).collect();
        visited.for_each(|c| all.push(c));
        prop_assert_eq!(all, want.to_vec());
        Ok(())
    }

    /// Records over a few kilobytes of code, so sequential runs, loops
    /// and discontinuities (a PC behind the fall-through) all occur; PCs
    /// are mostly instruction-aligned.
    fn arb_records() -> impl Strategy<Value = Vec<BranchRecord>> {
        prop::collection::vec(
            (0u64..0x2000, 0u64..0x2000, 0u8..6, any::<bool>(), 0u8..8).prop_map(
                |(pc, target, kind, taken, skew)| {
                    let align = if skew == 0 { 1 } else { INSTRUCTION_BYTES };
                    let kind = BranchKind::from_u8(kind).unwrap_or(BranchKind::CondDirect);
                    BranchRecord::new(pc / align * align, kind, taken, target / align * align)
                },
            ),
            1..300,
        )
    }

    proptest! {
        #[test]
        fn fold_and_for_each_match_next(
            recs in arb_records(),
            log_block in 2u32..=8,
            skip in 0usize..40,
            range in (0usize..300, 0usize..300),
        ) {
            let block_bytes = 1u64 << log_block;
            let want = by_next(FetchStream::new(recs.iter().copied(), block_bytes));
            check_internal_iteration(
                || FetchStream::new(recs.iter().copied(), block_bytes),
                &want,
                skip,
            )?;
            let mut b = CorpusBuilder::new();
            b.push_trace("fetch", 0, &recs).unwrap();
            let corpus = Corpus::from_bytes(b.finish()).unwrap();
            let trace = corpus.get(0).unwrap();
            check_internal_iteration(
                || FetchStream::from_corpus(&trace, block_bytes),
                &want,
                skip,
            )?;
            let lo = range.0.min(recs.len());
            let hi = range.1.clamp(lo, recs.len());
            let want = by_next(FetchStream::new(recs[lo..hi].iter().copied(), block_bytes));
            check_internal_iteration(
                || FetchStream::new(trace.cursor_range(lo as u64, hi as u64), block_bytes),
                &want,
                skip,
            )?;
        }
    }
}
