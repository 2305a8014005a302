//! Least-recently-used replacement — the paper's baseline.

#![forbid(unsafe_code)]

use super::{next_stamp, AccessContext, ReplacementPolicy};
use crate::CacheConfig;

/// True LRU via per-frame virtual timestamps.
///
/// Behaviourally identical to the 3-bit LRU-stack encoding hardware uses
/// for 8 ways; timestamps keep the implementation simple and exact at any
/// associativity.
#[derive(Debug, Clone)]
pub struct Lru {
    ways: usize,
    /// Last-touch time per frame, `sets × ways` (see
    /// [`super::next_stamp`] for the wrap handling).
    stamps: Vec<u32>,
    clock: u32,
}

impl Lru {
    /// Create LRU state for the given geometry.
    pub fn new(cfg: CacheConfig) -> Lru {
        Lru {
            ways: cfg.ways() as usize,
            stamps: vec![0; cfg.frames()],
            clock: 0,
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        let stamp = next_stamp(&mut self.clock, &mut self.stamps, self.ways);
        self.stamps[set * self.ways + way] = stamp;
    }
}

impl ReplacementPolicy for Lru {
    fn on_hit(&mut self, way: usize, ctx: &AccessContext) {
        self.touch(ctx.set, way);
    }

    fn choose_victim(&mut self, ctx: &AccessContext) -> usize {
        let base = ctx.set * self.ways;
        (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .unwrap_or(0) // ways >= 1 by construction; hot path stays panic-free
    }

    fn on_evict(&mut self, _way: usize, _victim_block: u64, _ctx: &AccessContext) {}

    fn on_fill(&mut self, way: usize, ctx: &AccessContext) {
        self.touch(ctx.set, way);
    }

    fn reset(&mut self) {
        self.stamps.fill(0);
        self.clock = 0;
    }

    fn name(&self) -> String {
        "LRU".to_owned()
    }
}

impl super::PolicyInvariants for Lru {
    fn check_invariants(&self) -> Result<(), String> {
        // The stamp ordering within each set must be a permutation of the
        // ways (the LRU stack property).
        super::check_lru_stack(&self.stamps, self.ways, self.clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessResult, Cache};

    #[test]
    fn evicts_least_recently_used() {
        let cfg = CacheConfig::with_sets(1, 4, 64).unwrap();
        let mut c = Cache::new(cfg, Lru::new(cfg));
        for b in [0x000u64, 0x040, 0x080, 0x0c0] {
            c.access(b, 0);
        }
        // Touch 0x000 so 0x040 becomes LRU.
        c.access(0x000, 0);
        let r = c.access(0x100, 0);
        assert_eq!(
            r,
            AccessResult::Miss {
                evicted: Some(0x040)
            }
        );
    }

    #[test]
    fn lru_order_follows_hits() {
        let cfg = CacheConfig::with_sets(1, 2, 64).unwrap();
        let mut c = Cache::new(cfg, Lru::new(cfg));
        c.access(0x000, 0);
        c.access(0x040, 0);
        c.access(0x000, 0); // MRU = 0x000
        assert_eq!(
            c.access(0x080, 0),
            AccessResult::Miss {
                evicted: Some(0x040)
            }
        );
        assert!(c.contains(0x000));
    }

    /// Reference LRU with unbounded `u64` stamps (the pre-`u32` layout).
    struct WideLru {
        ways: usize,
        stamps: Vec<u64>,
        clock: u64,
    }

    impl ReplacementPolicy for WideLru {
        fn on_hit(&mut self, way: usize, ctx: &AccessContext) {
            self.clock += 1;
            self.stamps[ctx.set * self.ways + way] = self.clock;
        }
        fn choose_victim(&mut self, ctx: &AccessContext) -> usize {
            let base = ctx.set * self.ways;
            (0..self.ways)
                .min_by_key(|&w| self.stamps[base + w])
                .unwrap_or(0)
        }
        fn on_evict(&mut self, _way: usize, _victim_block: u64, _ctx: &AccessContext) {}
        fn on_fill(&mut self, way: usize, ctx: &AccessContext) {
            self.on_hit(way, ctx);
        }
        fn reset(&mut self) {}
        fn name(&self) -> String {
            "WideLRU".to_owned()
        }
    }

    #[test]
    fn wrapping_u32_stamps_match_u64_reference() {
        let cfg = CacheConfig::with_sets(4, 4, 64).unwrap();
        let mut narrow = Cache::new(cfg, Lru::new(cfg));
        let mut wide = Cache::new(
            cfg,
            WideLru {
                ways: 4,
                stamps: vec![0; cfg.frames()],
                clock: 0,
            },
        );
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..20_000u32 {
            // Force the clock to the wrap point again and again.
            if i % 997 == 0 {
                narrow.policy_mut().clock = u32::MAX - 3;
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = (x % 40) * 64;
            assert_eq!(narrow.access(addr, 0), wide.access(addr, 0), "access {i}");
            assert!(super::super::check_lru_stack(
                &narrow.policy().stamps,
                4,
                narrow.policy().clock
            )
            .is_ok());
        }
    }

    #[test]
    fn sets_are_independent() {
        let cfg = CacheConfig::with_sets(2, 1, 64).unwrap();
        let mut c = Cache::new(cfg, Lru::new(cfg));
        c.access(0x000, 0); // set 0
        c.access(0x040, 0); // set 1
        assert!(c.contains(0x000) && c.contains(0x040));
        // Evict in set 0 only.
        c.access(0x080, 0);
        assert!(!c.contains(0x000));
        assert!(c.contains(0x040));
    }
}
