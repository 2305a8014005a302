//! Counter-based dead block prediction (Kharbutli & Solihin, §II.B).
//!
//! The Access Interval Predictor (AIP) family associates each block with
//! an access counter and learns, per program location, how many accesses
//! a block typically receives before dying. Once a resident block's
//! counter exceeds its learned threshold it is predicted dead. For
//! instruction streams the "program location" is the block address
//! itself (the PC forms the index, §II.A), making this another PC-class
//! baseline to contrast with GHRP's path-based signatures.

#![forbid(unsafe_code)]

use fe_cache::{AccessContext, CacheConfig, ReplacementPolicy};

/// One learning-table entry: the maximum access count seen in the
/// block's last two generations, with a confidence bit.
#[derive(Debug, Clone, Copy, Default)]
struct Learned {
    /// Access count of the most recently completed generation.
    last: u8,
    /// Running maximum (decayed on mispredictions).
    threshold: u8,
    /// Whether two consecutive generations agreed.
    confident: bool,
}

/// Counter-based dead block predictor driving replacement.
#[derive(Debug, Clone)]
pub struct CounterDbpPolicy {
    ways: usize,
    /// Per-frame access counter for the current generation.
    access_count: Vec<u8>,
    /// Per-frame learned-entry index (block-address hash).
    frame_key: Vec<usize>,
    /// LRU stamps for fallback.
    stamps: Vec<u64>,
    clock: u64,
    /// Learning table, indexed by hashed block address.
    table: Vec<Learned>,
    table_mask: usize,
    pc_shift: u32,
}

impl CounterDbpPolicy {
    /// Create the policy with a learning table of `table_entries` slots
    /// (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `table_entries` is not a nonzero power of two.
    pub fn new(cache_cfg: CacheConfig, table_entries: usize) -> CounterDbpPolicy {
        assert!(
            table_entries.is_power_of_two() && table_entries > 0,
            "table_entries must be a power of two"
        );
        CounterDbpPolicy {
            ways: cache_cfg.ways() as usize,
            access_count: vec![0; cache_cfg.frames()],
            frame_key: vec![0; cache_cfg.frames()],
            stamps: vec![0; cache_cfg.frames()],
            clock: 0,
            table: vec![Learned::default(); table_entries],
            table_mask: table_entries - 1,
            pc_shift: cache_cfg.offset_bits(),
        }
    }

    fn key(&self, block_addr: u64) -> usize {
        let x = (block_addr >> self.pc_shift).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((x >> 24) as usize) & self.table_mask
    }

    fn frame_predicted_dead(&self, f: usize) -> bool {
        let l = self.table[self.frame_key[f]];
        l.confident && l.threshold > 0 && self.access_count[f] >= l.threshold
    }

    fn close_generation(&mut self, f: usize) {
        let count = self.access_count[f];
        let key = self.frame_key[f];
        let l = &mut self.table[key];
        // Two consecutive generations with the same access count make the
        // threshold confident; disagreement retrains.
        if l.last == count && count > 0 {
            l.confident = true;
            l.threshold = count;
        } else {
            l.confident = false;
            l.threshold = l.threshold.max(count);
        }
        l.last = count;
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.stamps[set * self.ways + way] = self.clock;
    }
}

impl ReplacementPolicy for CounterDbpPolicy {
    fn on_hit(&mut self, way: usize, ctx: &AccessContext) {
        let f = ctx.set * self.ways + way;
        self.access_count[f] = self.access_count[f].saturating_add(1);
        self.touch(ctx.set, way);
    }

    fn choose_victim(&mut self, ctx: &AccessContext) -> usize {
        let base = ctx.set * self.ways;
        if let Some(w) = (0..self.ways).find(|&w| self.frame_predicted_dead(base + w)) {
            return w;
        }
        (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .unwrap_or(0) // ways >= 1 by construction; hot path stays panic-free
    }

    fn on_evict(&mut self, way: usize, _victim_block: u64, ctx: &AccessContext) {
        self.close_generation(ctx.set * self.ways + way);
    }

    fn on_fill(&mut self, way: usize, ctx: &AccessContext) {
        let f = ctx.set * self.ways + way;
        self.access_count[f] = 1;
        self.frame_key[f] = self.key(ctx.block_addr);
        self.touch(ctx.set, way);
    }

    fn reset(&mut self) {
        self.access_count.fill(0);
        self.frame_key.fill(0);
        self.stamps.fill(0);
        self.clock = 0;
        self.table.fill(Learned::default());
    }

    fn name(&self) -> String {
        "CounterDBP".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fe_cache::Cache;

    fn mk() -> Cache<CounterDbpPolicy> {
        let cfg = CacheConfig::with_sets(2, 2, 64).unwrap();
        Cache::new(cfg, CounterDbpPolicy::new(cfg, 1024))
    }

    #[test]
    fn learns_stable_access_count() {
        let mut c = mk();
        // Block 0x000: exactly 3 accesses per generation, evicted by
        // conflict traffic in between (blocks 0x100, 0x200 share set 0).
        for _ in 0..4 {
            for _ in 0..3 {
                c.access(0x000, 0);
            }
            c.access(0x100, 0);
            c.access(0x200, 0); // evicts 0x000 (LRU)
        }
        let p = c.policy();
        let key = p.key(0x000);
        assert!(p.table[key].confident, "stable count should be learned");
        assert_eq!(p.table[key].threshold, 3);
    }

    #[test]
    fn predicted_dead_block_evicted_before_lru() {
        let mut c = mk();
        // Train 0x000 to die after exactly 1 access per generation, using
        // *different* conflict blocks each generation so only 0x000
        // becomes confidently learned.
        for g in 0..4u64 {
            c.access(0x000, 0);
            c.access(0x100 + g * 0x1000, 0);
            c.access(0x200 + g * 0x1000, 0);
        }
        // Fresh generation in set 0: an untrained block, then 0x000
        // (1 access = its learned threshold → predicted dead, and MRU).
        c.access(0x9100, 0); // untrained, becomes LRU
        c.access(0x000, 0); // MRU but predicted dead
        let r = c.access(0xA200, 0);
        assert_eq!(
            r,
            fe_cache::AccessResult::Miss {
                evicted: Some(0x000)
            },
            "dead-predicted block chosen over LRU"
        );
    }

    #[test]
    fn unstable_counts_stay_unconfident() {
        let mut c = mk();
        // Alternate 1-access and 5-access generations.
        for gen in 0..6 {
            let n = if gen % 2 == 0 { 1 } else { 5 };
            for _ in 0..n {
                c.access(0x000, 0);
            }
            c.access(0x100, 0);
            c.access(0x200, 0);
        }
        let p = c.policy();
        assert!(!p.table[p.key(0x000)].confident);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_table_size_panics() {
        let cfg = CacheConfig::with_sets(2, 2, 64).unwrap();
        let _ = CounterDbpPolicy::new(cfg, 1000);
    }
}
