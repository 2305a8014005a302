//! First-in-first-out replacement (Smith & Goodman's early I-cache study).

#![forbid(unsafe_code)]

use super::{next_stamp, AccessContext, ReplacementPolicy};
use crate::CacheConfig;

/// FIFO: evict the block that was *filled* earliest, ignoring hits.
#[derive(Debug, Clone)]
pub struct Fifo {
    ways: usize,
    fill_time: Vec<u32>,
    clock: u32,
}

impl Fifo {
    /// Create FIFO state for the given geometry.
    pub fn new(cfg: CacheConfig) -> Fifo {
        Fifo {
            ways: cfg.ways() as usize,
            fill_time: vec![0; cfg.frames()],
            clock: 0,
        }
    }
}

impl ReplacementPolicy for Fifo {
    fn on_hit(&mut self, _way: usize, _ctx: &AccessContext) {}

    fn choose_victim(&mut self, ctx: &AccessContext) -> usize {
        let base = ctx.set * self.ways;
        (0..self.ways)
            .min_by_key(|&w| self.fill_time[base + w])
            .unwrap_or(0) // ways >= 1 by construction; hot path stays panic-free
    }

    fn on_evict(&mut self, _way: usize, _victim_block: u64, _ctx: &AccessContext) {}

    fn on_fill(&mut self, way: usize, ctx: &AccessContext) {
        let stamp = next_stamp(&mut self.clock, &mut self.fill_time, self.ways);
        self.fill_time[ctx.set * self.ways + way] = stamp;
    }

    fn reset(&mut self) {
        self.fill_time.fill(0);
        self.clock = 0;
    }

    fn name(&self) -> String {
        "FIFO".to_owned()
    }
}

impl super::PolicyInvariants for Fifo {
    fn check_invariants(&self) -> Result<(), String> {
        // Fill times are issued from a monotone clock, so the same stack
        // property as LRU applies: per-set fill order is a permutation.
        super::check_lru_stack(&self.fill_time, self.ways, self.clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessResult, Cache};

    #[test]
    fn hits_do_not_protect_blocks() {
        let cfg = CacheConfig::with_sets(1, 2, 64).unwrap();
        let mut c = Cache::new(cfg, Fifo::new(cfg));
        c.access(0x000, 0);
        c.access(0x040, 0);
        // Hit 0x000 repeatedly; FIFO must still evict it first.
        for _ in 0..5 {
            assert!(c.access(0x000, 0).is_hit());
        }
        assert_eq!(
            c.access(0x080, 0),
            AccessResult::Miss {
                evicted: Some(0x000)
            }
        );
    }

    #[test]
    fn fill_order_survives_clock_wrap() {
        let cfg = CacheConfig::with_sets(1, 4, 64).unwrap();
        let mut c = Cache::new(cfg, Fifo::new(cfg));
        c.policy_mut().clock = u32::MAX - 2;
        for b in [0x000u64, 0x040, 0x080, 0x0c0] {
            c.access(b, 0);
        }
        // The fourth fill wrapped the clock; fill order must be intact.
        for (incoming, evicted) in [(0x100, 0x000), (0x140, 0x040), (0x180, 0x080)] {
            assert_eq!(
                c.access(incoming, 0),
                AccessResult::Miss {
                    evicted: Some(evicted)
                }
            );
        }
    }

    #[test]
    fn eviction_order_is_fill_order() {
        let cfg = CacheConfig::with_sets(1, 4, 64).unwrap();
        let mut c = Cache::new(cfg, Fifo::new(cfg));
        for b in [0x000u64, 0x040, 0x080, 0x0c0] {
            c.access(b, 0);
        }
        assert_eq!(
            c.access(0x100, 0),
            AccessResult::Miss {
                evicted: Some(0x000)
            }
        );
        assert_eq!(
            c.access(0x140, 0),
            AccessResult::Miss {
                evicted: Some(0x040)
            }
        );
    }
}
