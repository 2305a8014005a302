//! GHRP as an I-cache replacement policy (Algorithm 1 of the paper).

#![forbid(unsafe_code)]

use crate::shared::SharedGhrp;
use fe_cache::policy::next_stamp;
use fe_cache::{AccessContext, CacheConfig, ReplacementPolicy};
use serde::{Deserialize, Serialize};

/// Diagnostic counters for a GHRP policy instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GhrpPolicyStats {
    /// Victims chosen because they were predicted dead.
    pub dead_victims: u64,
    /// Victims chosen by LRU fallback (no dead block in the set).
    pub lru_victims: u64,
    /// Misses bypassed by prediction.
    pub bypasses: u64,
    /// Hits to blocks whose prediction bit said dead (false-dead
    /// predictions that did not yet cost a miss).
    pub false_dead_hits: u64,
    /// Evictions of blocks whose prediction bit said live (deaths the
    /// predictor missed — lost coverage).
    pub unpredicted_deaths: u64,
}

/// GHRP replacement + bypass for the instruction cache.
///
/// Implements the access protocol of [`ReplacementPolicy`] following
/// Algorithm 1:
///
/// * every access computes the current signature and advances the shared
///   speculative path history;
/// * hits decrement the counters under the block's old signature, then
///   re-tag the block with the current signature and a fresh prediction;
/// * misses may bypass; otherwise the victim is the first predicted-dead
///   block, else the LRU block; the victim's stored signature trains the
///   tables dead; the incoming block is tagged with the current signature.
///
/// With [`crate::GhrpConfig::shadow_training`] enabled (the default), the
/// train-on-hit/train-on-evict events come from a shadow LRU tag array of
/// the same geometry rather than from the policy's own decisions, which
/// keeps the learned label a stable "dead under LRU" (see the config
/// field's documentation for the rationale). The history, shadow array
/// and tables then live in a trainer that lanes may share
/// ([`SharedGhrp::new_lane`]); this policy keeps only per-frame state.
#[derive(Debug, Clone)]
// The bools are hot-path caches of independent GhrpConfig flags, not state.
#[allow(clippy::struct_excessive_bools)]
pub struct GhrpPolicy {
    shared: SharedGhrp,
    ways: usize,
    /// LRU stamps per frame (the paper's 3 LRU-stack bits, implemented as
    /// exact timestamps).
    stamps: Vec<u32>,
    clock: u32,
    /// Demand accesses seen: this policy's position in the trainer's
    /// step sequence.
    accesses: u64,
    /// Signature of the in-flight access, read back in `on_access`.
    current_sig: u16,
    shadow_training: bool,
    // Immutable-after-construction config flags, cached out of the shared
    // state so the hot path skips a borrow + config copy per query.
    enable_bypass: bool,
    protect_mru: bool,
    prefer_young_dead: bool,
    fresh_victim_prediction: bool,
    stats: GhrpPolicyStats,
}

impl GhrpPolicy {
    /// Create a GHRP policy for a cache with geometry `cfg`, backed by the
    /// `shared` predictor (which the BTB may also hold). Sizes the
    /// handle's metadata column for `cfg` ([`SharedGhrp::attach_icache`]).
    pub fn new(cfg: CacheConfig, shared: SharedGhrp) -> GhrpPolicy {
        let gcfg = shared.config();
        shared.attach_icache(cfg);
        GhrpPolicy {
            shared,
            ways: cfg.ways() as usize,
            stamps: vec![0; cfg.frames()],
            clock: 0,
            accesses: 0,
            current_sig: 0,
            shadow_training: gcfg.shadow_training,
            enable_bypass: gcfg.enable_bypass,
            protect_mru: gcfg.protect_mru,
            prefer_young_dead: gcfg.prefer_young_dead,
            fresh_victim_prediction: gcfg.fresh_victim_prediction,
            stats: GhrpPolicyStats::default(),
        }
    }

    /// Handle to the shared predictor.
    pub fn shared(&self) -> &SharedGhrp {
        &self.shared
    }

    /// Diagnostic counters.
    pub fn stats(&self) -> GhrpPolicyStats {
        self.stats
    }

    fn touch(&mut self, set: usize, way: usize) {
        let stamp = next_stamp(&mut self.clock, &mut self.stamps, self.ways);
        self.stamps[set * self.ways + way] = stamp;
    }
}

impl ReplacementPolicy for GhrpPolicy {
    fn on_access(&mut self, ctx: &AccessContext) {
        // Signature from the history *excluding* this access, history
        // update and shadow training happen once per access in the
        // (possibly shared) trainer.
        self.accesses += 1;
        self.current_sig = self.shared.access(self.accesses, ctx.block_addr, ctx.set);
    }

    fn on_hit(&mut self, way: usize, ctx: &AccessContext) {
        // The block proved live under the conditions of its previous
        // access (Algorithm 1 lines 21–25). With shadow training the
        // equivalent event was already recorded by the shadow array, so
        // the old signature trains live only in direct-training mode.
        // Re-tag with the current signature and a fresh prediction bit.
        let old = self.shared.rehit(
            ctx.set * self.ways + way,
            ctx.block_addr,
            self.current_sig,
            !self.shadow_training,
        );
        if old.is_some_and(|o| o.predicted_dead) {
            self.stats.false_dead_hits += 1;
        }
        self.touch(ctx.set, way);
    }

    fn should_bypass(&mut self, _ctx: &AccessContext) -> bool {
        if !self.enable_bypass {
            return false;
        }
        let bypass = self.shared.bypass_vote();
        if bypass {
            self.stats.bypasses += 1;
        }
        bypass
    }

    fn choose_victim(&mut self, ctx: &AccessContext) -> usize {
        let base = ctx.set * self.ways;
        let stamps = &self.stamps[base..base + self.ways];
        // Algorithm 5: first predicted-dead block, else LRU. Optionally
        // exempt the MRU way (see `GhrpConfig::protect_mru`).
        let mru = (0..self.ways).max_by_key(|&w| stamps[w]).unwrap_or(0); // ways >= 1 by construction; hot path stays panic-free
        let (protect_mru, prefer_young) = (self.protect_mru, self.prefer_young_dead);
        let dead = self
            .shared
            .with_dead_votes(self.fresh_victim_prediction, |votes| {
                let mut best: Option<(u32, usize)> = None;
                for (w, &stamp) in stamps.iter().enumerate() {
                    if (protect_mru && w == mru) || !votes.is_dead(base + w) {
                        continue;
                    }
                    if !prefer_young {
                        return Some(w);
                    }
                    if best.is_none_or(|(s, _)| stamp > s) {
                        best = Some((stamp, w));
                    }
                }
                best.map(|(_, w)| w)
            });
        if let Some(w) = dead {
            self.stats.dead_victims += 1;
            return w;
        }
        self.stats.lru_victims += 1;
        (0..self.ways).min_by_key(|&w| stamps[w]).unwrap_or(0) // ways >= 1 by construction; hot path stays panic-free
    }

    fn on_evict(&mut self, way: usize, victim_block: u64, ctx: &AccessContext) {
        // The victim just proved dead (Algorithm 1 lines 15–17, Algorithm
        // 6). With shadow training the dead label instead comes from the
        // shadow array's own eviction of this block, so the signature
        // trains dead only in direct-training mode.
        let meta = self.shared.evict(
            ctx.set * self.ways + way,
            victim_block,
            !self.shadow_training,
        );
        if meta.is_some_and(|m| !m.predicted_dead) {
            self.stats.unpredicted_deaths += 1;
        }
    }

    fn on_fill(&mut self, way: usize, ctx: &AccessContext) {
        self.shared
            .fill(ctx.set * self.ways + way, ctx.block_addr, self.current_sig);
        self.touch(ctx.set, way);
    }

    fn reset(&mut self) {
        // The shared trainer's reset is idempotent: every lane sharing it
        // resets it before the next access.
        self.shared.reset();
        self.stamps.fill(0);
        self.clock = 0;
        self.accesses = 0;
        self.current_sig = 0;
        self.stats = GhrpPolicyStats::default();
    }

    fn name(&self) -> String {
        "GHRP".to_owned()
    }
}

impl fe_cache::policy::PolicyInvariants for GhrpPolicy {
    fn check_invariants(&self) -> Result<(), String> {
        // Recency stamps must form an LRU stack per set (the shadow
        // array's are checked with the trainer below).
        fe_cache::policy::check_lru_stack(&self.stamps, self.ways, self.clock)?;
        // Every resident frame must carry metadata the BTB side can find
        // by scanning the block's set.
        self.shared.check_metadata()?;
        // Counter ranges, skewed-index bounds, exact misprediction
        // recovery (paper §III.F) and the shadow LRU stack live in the
        // shared trainer.
        self.shared.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::BlockMeta;
    use crate::GhrpConfig;
    use fe_cache::Cache;

    fn mk(cfg_mod: impl FnOnce(&mut GhrpConfig)) -> (Cache<GhrpPolicy>, SharedGhrp) {
        let cache_cfg = CacheConfig::with_sets(4, 2, 64).unwrap();
        let mut gcfg = GhrpConfig::default();
        cfg_mod(&mut gcfg);
        let shared = SharedGhrp::new(gcfg, cache_cfg.offset_bits());
        let cache = Cache::new(cache_cfg, GhrpPolicy::new(cache_cfg, shared.clone()));
        (cache, shared)
    }

    #[test]
    fn behaves_like_lru_before_training() {
        let (mut c, _s) = mk(|c| c.enable_bypass = false);
        // Set 0 holds blocks 0x000 and 0x100 (4 sets × 64B).
        c.access(0x000, 0);
        c.access(0x100, 0);
        c.access(0x000, 0); // MRU
        let r = c.access(0x200, 0);
        assert_eq!(
            r,
            fe_cache::AccessResult::Miss {
                evicted: Some(0x100)
            }
        );
    }

    #[test]
    fn metadata_tracks_residency() {
        let (mut c, s) = mk(|c| c.enable_bypass = false);
        c.access(0x000, 0);
        assert!(s.meta(0x000).is_some());
        c.access(0x100, 0);
        c.access(0x200, 0); // evicts one of them
        let live = [0x000u64, 0x100, 0x200]
            .iter()
            .filter(|&&b| s.meta(b).is_some())
            .count();
        assert_eq!(live, 2);
        assert_eq!(s.meta_len(), 2);
    }

    #[test]
    fn eviction_trains_dead_and_reuse_trains_live() {
        let (mut c, s) = mk(|c| c.enable_bypass = false);
        for _ in 0..50 {
            for b in [0x000u64, 0x100, 0x200] {
                c.access(b, 0);
            }
        }
        assert!(
            s.table_saturation() > 0.0,
            "training must move some counters"
        );
    }

    #[test]
    fn direct_training_mode_trains_from_policy_events() {
        let (mut c, s) = mk(|c| {
            c.enable_bypass = false;
            c.shadow_training = false;
        });
        for _ in 0..50 {
            for b in [0x000u64, 0x100, 0x200] {
                c.access(b, 0);
            }
        }
        assert!(s.table_saturation() > 0.0);
    }

    #[test]
    fn dead_predicted_victim_preferred_over_lru() {
        let (mut c, s) = mk(|c| {
            c.enable_bypass = false;
            // Drive the decision from the stored prediction bits alone so
            // the test controls exactly which block is marked dead.
            c.protect_mru = false;
            c.shadow_training = false;
            c.fresh_victim_prediction = false;
        });
        c.access(0x000, 0);
        c.access(0x100, 0);
        // Mark the MRU block (0x100) dead via its stored prediction bit.
        let meta = s.meta(0x100).unwrap();
        s.set_meta(
            0x100,
            BlockMeta {
                signature: meta.signature,
                predicted_dead: true,
            },
        );
        // Miss: GHRP should evict predicted-dead 0x100, not LRU 0x000.
        let r = c.access(0x200, 0);
        assert_eq!(
            r,
            fe_cache::AccessResult::Miss {
                evicted: Some(0x100)
            }
        );
        assert_eq!(c.policy().stats().dead_victims, 1);
    }

    #[test]
    fn mru_protection_exempts_most_recent_way() {
        let (mut c, s) = mk(|c| {
            c.enable_bypass = false;
            c.protect_mru = true;
        });
        c.access(0x000, 0);
        c.access(0x100, 0); // 0x100 is MRU
                            // Mark MRU 0x100 dead; with protection the victim must be LRU
                            // 0x000 instead.
        let meta = s.meta(0x100).unwrap();
        s.set_meta(
            0x100,
            BlockMeta {
                signature: meta.signature,
                predicted_dead: true,
            },
        );
        let r = c.access(0x200, 0);
        assert_eq!(
            r,
            fe_cache::AccessResult::Miss {
                evicted: Some(0x000)
            }
        );
    }

    #[test]
    fn bypass_skips_fill_after_saturation() {
        let (mut c, s) = mk(|c| c.enable_bypass = true);
        for _ in 0..300 {
            for b in [0x000u64, 0x100, 0x200, 0x300] {
                c.access(b, 0);
            }
        }
        let st = c.policy().stats();
        assert!(
            st.bypasses > 0,
            "cyclic thrash must eventually trigger bypasses (stats {st:?}, sat {})",
            s.table_saturation()
        );
    }

    #[test]
    fn bypass_disabled_never_bypasses() {
        let (mut c, _s) = mk(|c| c.enable_bypass = false);
        for i in 0..500u64 {
            c.access((i % 5) * 0x100, 0);
        }
        assert_eq!(c.policy().stats().bypasses, 0);
        assert_eq!(c.stats().bypasses, 0);
    }

    #[test]
    fn ghrp_beats_lru_on_predictable_streaming_mix() {
        // A hot block is reused every iteration; a stream of cold blocks
        // passes through the same set. Under LRU the stream evicts the hot
        // block; GHRP learns the stream's path signatures are dead and
        // protects the hot block.
        let cache_cfg = CacheConfig::with_sets(1, 2, 64).unwrap();
        let run_lru = {
            let mut c = Cache::new(cache_cfg, fe_cache::policy::Lru::new(cache_cfg));
            let mut miss = 0u64;
            for i in 0..3000u64 {
                if c.access(0x0, 0).is_miss() {
                    miss += 1;
                }
                let cold = 0x1000 + (i % 8) * 0x40;
                if c.access(cold, 0).is_miss() {
                    miss += 1;
                }
            }
            miss
        };
        let run_ghrp = {
            let shared = SharedGhrp::new(GhrpConfig::default(), cache_cfg.offset_bits());
            let mut c = Cache::new(cache_cfg, GhrpPolicy::new(cache_cfg, shared));
            let mut miss = 0u64;
            for i in 0..3000u64 {
                if c.access(0x0, 0).is_miss() {
                    miss += 1;
                }
                let cold = 0x1000 + (i % 8) * 0x40;
                if c.access(cold, 0).is_miss() {
                    miss += 1;
                }
            }
            miss
        };
        assert!(
            run_ghrp < run_lru,
            "GHRP misses {run_ghrp} should beat LRU misses {run_lru}"
        );
    }

    #[test]
    fn invariants_require_reachable_metadata_for_resident_frames() {
        use fe_cache::policy::PolicyInvariants;
        let (mut c, s) = mk(|c| c.enable_bypass = false);
        for b in [0x000u64, 0x040, 0x100] {
            c.access(b, 0);
        }
        assert!(c.policy().check_invariants().is_ok());
        // Frame 0 (set 0) claims a block of set 1: the set scan the BTB
        // uses can no longer find it.
        s.corrupt_frame(0, 0x040);
        let err = c.policy().check_invariants().unwrap_err();
        assert!(err.contains("no reachable metadata"), "{err}");
    }

    /// Victims, bypasses and hit/miss outcomes with every recency clock
    /// forced to the `u32` wrap point again and again must equal a run
    /// whose clocks never come near it (where `u32` stamps behave as the
    /// unbounded `u64` reference).
    #[test]
    fn wrapping_u32_stamps_choose_the_same_victims() {
        for shadow in [true, false] {
            let tweak = |c: &mut GhrpConfig| {
                c.shadow_training = shadow;
                c.prefer_young_dead = true;
            };
            let (mut reference, _) = mk(tweak);
            let (mut wrapped, ws) = mk(tweak);
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..20_000u32 {
                if i % 613 == 0 {
                    wrapped.policy_mut().clock = u32::MAX - 2;
                    ws.force_shadow_clock(u32::MAX - 1);
                }
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let block = (x % 24) * 64;
                assert_eq!(
                    wrapped.access(block, 0),
                    reference.access(block, 0),
                    "access {i} (shadow {shadow})"
                );
            }
            assert_eq!(wrapped.policy().stats(), reference.policy().stats());
            assert!(reference.policy().stats().dead_victims > 0);
        }
    }
}
