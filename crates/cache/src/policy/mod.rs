//! Replacement policy interface and baseline policies.
//!
//! The cache core ([`crate::Cache`]) owns tags and validity. Everything
//! else — recency state, prediction metadata, bypass decisions, victim
//! choice — belongs to the policy. Predictive policies (GHRP, SDBP) live in
//! sibling crates and implement the same [`ReplacementPolicy`] trait.

#![forbid(unsafe_code)]

mod belady;
mod drrip;
mod duel;
mod fifo;
mod lru;
mod random;
mod recency;
mod srrip;
mod validate;

pub use belady::BeladyOpt;
pub use drrip::Drrip;
pub use duel::{
    DuelConfig, DuelSelect, PhaseAdaptive, DUEL_DEFAULT_WINDOW, DUEL_PSEL_BITS, DUEL_PSEL_MAX,
    DUEL_WINDOW_BITS, MAX_DUEL_CANDIDATES,
};
pub use fifo::Fifo;
pub use lru::Lru;
pub use random::RandomPolicy;
pub use recency::next_stamp;
pub use srrip::Srrip;
pub use validate::{check_lru_stack, PolicyInvariants, ValidatingPolicy};

/// Per-access information handed to the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessContext {
    /// The full address being accessed (not block-aligned).
    pub addr: u64,
    /// Block-aligned address.
    pub block_addr: u64,
    /// Set index the access maps to.
    pub set: usize,
}

/// A replacement (and bypass) policy for a set-associative structure.
///
/// Call protocol, enforced by [`crate::Cache`]:
///
/// 1. [`on_access`](ReplacementPolicy::on_access) — once per access, before
///    the hit/miss outcome is known. Policies that keep global history
///    (e.g. GHRP's path history) advance it here.
/// 2. On a hit: [`on_hit`](ReplacementPolicy::on_hit).
/// 3. On a miss: [`should_bypass`](ReplacementPolicy::should_bypass); if
///    `true`, nothing else happens. Otherwise, if the set is full,
///    [`choose_victim`](ReplacementPolicy::choose_victim) then
///    [`on_evict`](ReplacementPolicy::on_evict); finally
///    [`on_fill`](ReplacementPolicy::on_fill) for the incoming block.
pub trait ReplacementPolicy {
    /// Advance any global (per-access) state. Called exactly once per
    /// access, before the outcome is known.
    fn on_access(&mut self, _ctx: &AccessContext) {}

    /// The access hit `way` in `ctx.set`.
    fn on_hit(&mut self, way: usize, ctx: &AccessContext);

    /// The access missed; return `true` to skip the fill entirely.
    fn should_bypass(&mut self, _ctx: &AccessContext) -> bool {
        false
    }

    /// The access missed, the set is full: pick the way to evict.
    ///
    /// The returned way must be `< ways`.
    fn choose_victim(&mut self, ctx: &AccessContext) -> usize;

    /// The block in `way` (holding `victim_block`) is being evicted.
    fn on_evict(&mut self, way: usize, victim_block: u64, ctx: &AccessContext);

    /// The incoming block now occupies `way`.
    fn on_fill(&mut self, way: usize, ctx: &AccessContext);

    /// Restore the policy to its freshly-constructed state, reusing its
    /// allocations.
    ///
    /// After `reset` the policy must behave **bit-identically** to one
    /// rebuilt with the same constructor arguments (seeded RNGs restart
    /// from their seed, learned tables clear to their initial values,
    /// recency clocks rewind). Per-worker lane arenas rely on this to
    /// recycle policy state across suite tasks instead of reallocating
    /// it; the scheduler equivalence suite checks the contract.
    ///
    /// A predictor trainer *shared between* policy instances (GHRP's
    /// history, shadow array and tables behind a `SharedGhrp` handle,
    /// SDBP's sampler behind an `SdbpTrainer`) is rewound by every
    /// sharer's `reset`. That reset is idempotent, and every sharer must
    /// be reset before any of them sees the next access.
    fn reset(&mut self);

    /// Short human-readable policy name (used in experiment output).
    fn name(&self) -> String;
}

impl<P: ReplacementPolicy + ?Sized> ReplacementPolicy for Box<P> {
    fn on_access(&mut self, ctx: &AccessContext) {
        (**self).on_access(ctx);
    }
    fn on_hit(&mut self, way: usize, ctx: &AccessContext) {
        (**self).on_hit(way, ctx);
    }
    fn should_bypass(&mut self, ctx: &AccessContext) -> bool {
        (**self).should_bypass(ctx)
    }
    fn choose_victim(&mut self, ctx: &AccessContext) -> usize {
        (**self).choose_victim(ctx)
    }
    fn on_evict(&mut self, way: usize, victim_block: u64, ctx: &AccessContext) {
        (**self).on_evict(way, victim_block, ctx);
    }
    fn on_fill(&mut self, way: usize, ctx: &AccessContext) {
        (**self).on_fill(way, ctx);
    }
    fn reset(&mut self) {
        (**self).reset();
    }
    fn name(&self) -> String {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cache, CacheConfig};

    /// The boxed-policy blanket impl must forward every method.
    #[test]
    fn boxed_policy_works_in_cache() {
        let cfg = CacheConfig::with_sets(4, 2, 64).unwrap();
        let boxed: Box<dyn ReplacementPolicy> = Box::new(Lru::new(cfg));
        let mut cache = Cache::new(cfg, boxed);
        assert!(cache.access(0x0, 0x0).is_miss());
        assert!(cache.access(0x0, 0x0).is_hit());
        assert_eq!(cache.policy().name(), "LRU");
    }
}
