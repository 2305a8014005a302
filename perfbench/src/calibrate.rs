//! Host-speed calibration.
//!
//! On a shared virtual machine the simulator's speed can drift by up to
//! ~1.8× over minutes: other tenants contend for the physical core, and
//! thread CPU time slows together with wall time. A fixed kernel,
//! compiled into the benchmark and independent of the simulator crates,
//! runs between the timed rounds, and the throughput metric is expressed
//! in units of its run time. The kernel is a miniature front end (hashed
//! perceptron, SRRIP I-cache, LRU BTB) over a fixed synthetic branch
//! stream, so contention slows it in the same direction as the
//! simulator, though less (see README.md). It must never change: a
//! change would rescale every figure measured with it.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's single-thread run time on an uncontended core of the
/// host the benchmark was built on. A calibrated second is a wall second
/// scaled by this over the kernel time measured next to it: the time the
/// work would have taken at that reference speed.
pub const REFERENCE_SECONDS: f64 = 0.020;

/// Branch records of the kernel's input: `(pc, taken)`.
const RECORDS: usize = 400_000;
/// Code blocks the input walks over.
const BLOCKS: usize = 6000;
const SEED: u64 = 0x5EED_CA11_B4A7_E001;

/// xorshift64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next() % n as u64).unwrap_or(0)
    }
}

/// The calibration kernel and its fixed input.
pub struct Calibration {
    records: Vec<(u64, bool)>,
}

impl Calibration {
    /// Build the fixed input: a walk over `BLOCKS` code blocks with
    /// per-block taken bias and target, and occasional jumps into the
    /// first 200 blocks.
    pub fn new() -> Calibration {
        let mut r = Rng(SEED);
        let base: Vec<u64> = (0..BLOCKS)
            .map(|i| 0x40_0000 + i as u64 * 48 + (r.next() % 16) * 4)
            .collect();
        let bias: Vec<u64> = (0..BLOCKS).map(|_| r.next() % 100).collect();
        let target: Vec<usize> = (0..BLOCKS).map(|_| r.below(BLOCKS)).collect();
        let mut records = Vec::with_capacity(RECORDS);
        let mut b = 0usize;
        for _ in 0..RECORDS {
            let taken = r.next() % 100 < bias[b];
            let next = if taken { target[b] } else { (b + 1) % BLOCKS };
            records.push((base[b] + 20, taken));
            b = if r.next().is_multiple_of(64) {
                r.below(200)
            } else {
                next
            };
        }
        Calibration { records }
    }

    /// Wall seconds of one kernel run, run on `threads` threads at once
    /// (as many as the timed call uses), averaged over the threads.
    pub fn seconds(&self, threads: usize) -> f64 {
        if threads <= 1 {
            return self.timed_run();
        }
        let total: f64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| self.timed_run()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration kernel panicked"))
                .sum()
        });
        total / threads as f64
    }

    fn timed_run(&self) -> f64 {
        let t = Instant::now();
        black_box(kernel(black_box(&self.records)));
        t.elapsed().as_secs_f64()
    }
}

/// The kernel: for every record, an I-cache access on a new 64 B block
/// (8-way, 128 sets, SRRIP), a 16-table hashed-perceptron prediction and
/// training step, and a BTB lookup (4-way, 1024 sets, LRU) when taken.
/// Returns a checksum of the events.
fn kernel(records: &[(u64, bool)]) -> u64 {
    const TABLES: usize = 16;
    const ENTRIES: usize = 1024;
    let mut weights = vec![0i8; TABLES * ENTRIES];
    let mut history = 0u64;
    let mut cache_tag = vec![u64::MAX; 128 * 8];
    let mut cache_rrpv = vec![3u8; 128 * 8];
    let mut btb_tag = vec![u64::MAX; 1024 * 4];
    let mut btb_age = vec![0u32; 1024 * 4];
    let mut clock = 0u32;
    let mut events = 0u64;
    let mut last_block = u64::MAX;
    for &(pc, taken) in records {
        let block = pc >> 6;
        if block != last_block {
            last_block = block;
            let set = usize::try_from(block & 127).unwrap_or(0) * 8;
            let ways = &mut cache_tag[set..set + 8];
            let rrpv = &mut cache_rrpv[set..set + 8];
            if let Some(i) = ways.iter().position(|&t| t == block) {
                rrpv[i] = 0;
            } else {
                events += 3;
                loop {
                    if let Some(i) = rrpv.iter().position(|&x| x == 3) {
                        ways[i] = block;
                        rrpv[i] = 2;
                        break;
                    }
                    for x in rrpv.iter_mut() {
                        *x += 1;
                    }
                }
            }
        }
        let mut sum = 0i32;
        let mut index = [0usize; TABLES];
        for (t, slot) in index.iter_mut().enumerate() {
            let h = (pc >> 2) ^ ((history >> (t * 4)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 50);
            *slot = t * ENTRIES + usize::try_from(h).unwrap_or(0) % ENTRIES;
            sum += i32::from(weights[*slot]);
        }
        let predicted = sum >= 0;
        if predicted != taken {
            events += 7;
        }
        if predicted != taken || sum.abs() < 40 {
            for &i in &index {
                weights[i] = if taken {
                    weights[i].saturating_add(1)
                } else {
                    weights[i].saturating_sub(1)
                };
            }
        }
        history = (history << 1) | u64::from(taken);
        if taken {
            clock += 1;
            let set = usize::try_from((pc >> 2) & 1023).unwrap_or(0) * 4;
            let ways = &mut btb_tag[set..set + 4];
            let age = &mut btb_age[set..set + 4];
            if let Some(i) = ways.iter().position(|&t| t == pc) {
                age[i] = clock;
            } else {
                events += 1;
                let oldest = (0..4).min_by_key(|&i| age[i]).unwrap_or(0);
                ways[oldest] = pc;
                age[oldest] = clock;
            }
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel's input and work are fixed: its checksum must never
    /// change (a change would rescale every calibrated figure).
    #[test]
    fn kernel_is_fixed() {
        let c = Calibration::new();
        assert_eq!(c.records.len(), RECORDS);
        assert_eq!(kernel(&c.records), 1_924_085);
        assert!(c.seconds(2) > 0.0);
    }
}
