//! Debug-mode invariant validation for replacement policies.
//!
//! [`ValidatingPolicy`] wraps any policy that implements
//! [`PolicyInvariants`] and re-checks the policy's internal invariants
//! after **every** trait callback. The checks run only in debug builds
//! (`debug_assertions`), so release-mode simulation speed is unaffected;
//! the property-test suites (`tests/properties.rs`,
//! `tests/btb_properties.rs`) drive every policy through the wrapper so
//! any state corruption trips immediately, at the access that caused it,
//! instead of surfacing later as a silently wrong MPKI.

#![forbid(unsafe_code)]

use super::{AccessContext, ReplacementPolicy};

/// Internal-consistency checks for a replacement policy.
///
/// Implementations report the *first* violated invariant as a
/// human-readable description. The contract per policy family:
///
/// * recency policies (LRU/FIFO/GHRP): the per-set recency stamps encode
///   a permutation of the ways (no two ways share a stamp);
/// * RRIP policies: every RRPV is within `0 ..= max_rrpv`, PSEL within
///   `0 ..= psel_max`;
/// * GHRP: every table counter is within `[0, counter_max]`, skewed
///   table indices stay in bounds, and misprediction recovery restores
///   exactly the retired history (paper §III.F).
pub trait PolicyInvariants {
    /// Check all internal invariants; `Err` describes the first
    /// violation found.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Shared helper: per-set recency stamps must act as an LRU stack — i.e.
/// the stamp ordering within each set is a permutation of the ways, which
/// for monotone-clock stamps means no two *non-zero* stamps in a set are
/// equal (zero marks never-touched frames) and no stamp exceeds `clock`.
///
/// # Errors
///
/// Returns a description naming the offending set.
pub fn check_lru_stack(stamps: &[u32], ways: usize, clock: u32) -> Result<(), String> {
    if ways == 0 {
        return Err("policy configured with zero ways".into());
    }
    for (set, frame) in stamps.chunks(ways).enumerate() {
        for (w, &s) in frame.iter().enumerate() {
            if s > clock {
                return Err(format!(
                    "set {set} way {w}: stamp {s} is ahead of the clock {clock}"
                ));
            }
            if s != 0 && frame[..w].contains(&s) {
                return Err(format!(
                    "set {set}: duplicate stamp {s}; recency order is not a \
                     permutation of the ways"
                ));
            }
        }
    }
    Ok(())
}

/// A policy wrapper that validates the inner policy's invariants after
/// every callback (debug builds only).
///
/// Transparent to the simulation: all decisions, statistics and the
/// [`ReplacementPolicy::name`] come from the inner policy.
#[derive(Debug, Clone)]
pub struct ValidatingPolicy<P> {
    inner: P,
}

impl<P: PolicyInvariants> ValidatingPolicy<P> {
    /// Wrap `inner`, validating it once up front so construction bugs are
    /// caught before the first access.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the freshly constructed policy already
    /// violates an invariant.
    pub fn new(inner: P) -> ValidatingPolicy<P> {
        let wrapped = ValidatingPolicy { inner };
        wrapped.check("construction");
        wrapped
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped policy.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Unwrap, returning the inner policy.
    pub fn into_inner(self) -> P {
        self.inner
    }

    fn check(&self, op: &str) {
        if cfg!(debug_assertions) {
            if let Err(e) = self.inner.check_invariants() {
                panic!("policy invariant violated after {op}: {e}");
            }
        }
    }
}

impl<P: ReplacementPolicy + PolicyInvariants> ReplacementPolicy for ValidatingPolicy<P> {
    fn on_access(&mut self, ctx: &AccessContext) {
        self.inner.on_access(ctx);
        self.check("on_access");
    }

    fn on_hit(&mut self, way: usize, ctx: &AccessContext) {
        self.inner.on_hit(way, ctx);
        self.check("on_hit");
    }

    fn should_bypass(&mut self, ctx: &AccessContext) -> bool {
        let r = self.inner.should_bypass(ctx);
        self.check("should_bypass");
        r
    }

    fn choose_victim(&mut self, ctx: &AccessContext) -> usize {
        let w = self.inner.choose_victim(ctx);
        self.check("choose_victim");
        w
    }

    fn on_evict(&mut self, way: usize, victim_block: u64, ctx: &AccessContext) {
        self.inner.on_evict(way, victim_block, ctx);
        self.check("on_evict");
    }

    fn on_fill(&mut self, way: usize, ctx: &AccessContext) {
        self.inner.on_fill(way, ctx);
        self.check("on_fill");
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.check("reset");
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

impl<P: PolicyInvariants> PolicyInvariants for ValidatingPolicy<P> {
    fn check_invariants(&self) -> Result<(), String> {
        self.inner.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cache, CacheConfig};

    /// A policy whose state can be corrupted on demand.
    struct Corruptible {
        broken: bool,
    }

    impl ReplacementPolicy for Corruptible {
        fn on_hit(&mut self, _way: usize, _ctx: &AccessContext) {}
        fn choose_victim(&mut self, _ctx: &AccessContext) -> usize {
            0
        }
        fn on_evict(&mut self, _way: usize, _victim_block: u64, _ctx: &AccessContext) {}
        fn on_fill(&mut self, _way: usize, _ctx: &AccessContext) {
            self.broken = true;
        }
        fn reset(&mut self) {
            self.broken = false;
        }
        fn name(&self) -> String {
            "Corruptible".to_owned()
        }
    }

    impl PolicyInvariants for Corruptible {
        fn check_invariants(&self) -> Result<(), String> {
            if self.broken {
                Err("state marked broken".into())
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn healthy_policy_passes_through() {
        let cfg = CacheConfig::with_sets(2, 2, 64).unwrap();
        let mut c = Cache::new(cfg, ValidatingPolicy::new(super::super::Lru::new(cfg)));
        for b in 0..16u64 {
            c.access(b * 64, 0);
        }
        assert_eq!(c.policy().name(), "LRU");
        assert!(c.policy().check_invariants().is_ok());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "invariant violated"))]
    fn corruption_is_caught_at_the_faulting_callback() {
        let mut p = ValidatingPolicy::new(Corruptible { broken: false });
        let ctx = AccessContext {
            addr: 0,
            block_addr: 0,
            set: 0,
        };
        p.on_fill(0, &ctx);
        // Release builds skip validation; satisfy should_panic vacuously.
        #[allow(clippy::assertions_on_constants)] // cfg!() folds to a constant by design
        {
            assert!(
                cfg!(debug_assertions),
                "invariant violated (release-mode placeholder)"
            );
        }
    }

    #[test]
    fn lru_stack_checker() {
        assert!(check_lru_stack(&[1, 2, 3, 4], 2, 4).is_ok());
        assert!(check_lru_stack(&[0, 0, 0, 0], 4, 0).is_ok());
        let dup = check_lru_stack(&[5, 5], 2, 9);
        assert!(dup.is_err_and(|e| e.contains("duplicate")));
        let ahead = check_lru_stack(&[7, 1], 2, 3);
        assert!(ahead.is_err_and(|e| e.contains("ahead of the clock")));
        assert!(check_lru_stack(&[], 0, 0).is_err());
    }
}
