//! Branch target buffer models.
//!
//! The BTB caches the targets of previously taken branches. This crate
//! models a set-associative BTB (the paper's 4,096-entry, 4-way Mongoose
//! configuration by default) on top of the `fe-cache` tag framework:
//! entries are indexed by the branch PC at instruction granularity
//! (*modulo indexing*, so branches within one I-cache block map to
//! distinct BTB sets — §III.E point 3), tagged with the full PC, and
//! managed by any [`ReplacementPolicy`].
//!
//! Per the paper's model, only **taken** branches allocate or refresh BTB
//! entries: "a branch that is never taken will not get a BTB entry", and a
//! seldom-taken branch's entry ages toward LRU between takes. BTB MPKI
//! counts taken branches that miss.
//!
//! [`GhrpBtbPolicy`] implements the paper's §III.E coupling: the dead-entry
//! prediction for a BTB entry is made with the signature stored in the
//! I-cache block containing the branch, read through the shared
//! [`SharedGhrp`] predictor; each BTB entry carries a single extra
//! prediction bit and no other GHRP state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fe_cache::policy::next_stamp;
use fe_cache::{AccessContext, Cache, CacheConfig, ConfigError, ReplacementPolicy};
use fe_trace::record::INSTRUCTION_BYTES;
use ghrp_core::SharedGhrp;

// Canonical BTB design-point constants (§IV.A; Mongoose-like geometry).
// The `budget-key:` markers are consumed by `cargo xtask audit`.

/// Nominal BTB capacity in entries.
///
/// budget-key: `btb.entries`
pub const PAPER_BTB_ENTRIES: u32 = 1 << 12;

/// Nominal BTB associativity.
///
/// budget-key: `btb.ways`
pub const PAPER_BTB_WAYS: u32 = 4;

/// GHRP adds one dead-prediction bit per BTB entry (§III.E).
///
/// budget-key: `btb.prediction_bits`
pub const PAPER_BTB_PREDICTION_BITS: u32 = 1;

/// The nominal BTB geometry (4,096 entries, 4-way).
///
/// # Errors
///
/// Never fails for the pinned constants; the `Result` is
/// [`btb_config`]'s contract.
pub fn paper_btb_config() -> Result<CacheConfig, ConfigError> {
    btb_config(PAPER_BTB_ENTRIES, PAPER_BTB_WAYS)
}

/// Statistics for a BTB instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BtbStats {
    /// Taken-branch lookups.
    pub lookups: u64,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found no entry (the figure-of-merit misses).
    pub misses: u64,
    /// Hits whose stored target was stale (retargeted branches).
    pub target_mismatches: u64,
}

/// A set-associative branch target buffer.
///
/// ```
/// use fe_btb::{btb_config, Btb};
/// use fe_cache::policy::Lru;
///
/// let cfg = btb_config(4096, 4)?; // 4K entries, 4-way
/// let mut btb = Btb::new(cfg, Lru::new(cfg));
/// assert!(!btb.lookup_and_update(0x4000, 0x5000)); // cold miss, allocates
/// assert!(btb.lookup_and_update(0x4000, 0x5000));  // hit
/// # Ok::<(), fe_cache::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct Btb<P> {
    entries: Cache<P>,
    /// Stored target per frame, parallel to the tag array. A taken branch
    /// writes its entry's slot on every hit/fill (the hot path — one per
    /// taken branch per policy lane), so this is a flat array indexed by
    /// the frame the tag store reports rather than a map keyed by PC; the
    /// tag array already says which entry a PC owns.
    targets: Vec<u64>,
    stats: BtbStats,
}

/// Geometry for a BTB of `entries` total entries and `ways` associativity.
/// Entries are "blocks" of one instruction, giving the paper's modulo
/// indexing by branch PC.
///
/// # Errors
///
/// Returns an error when `entries / ways` is not a power of two.
pub fn btb_config(entries: u32, ways: u32) -> Result<CacheConfig, ConfigError> {
    CacheConfig::with_sets(entries / ways, ways, INSTRUCTION_BYTES)
}

impl<P: ReplacementPolicy> Btb<P> {
    /// Create an empty BTB.
    pub fn new(cfg: CacheConfig, policy: P) -> Btb<P> {
        Btb {
            entries: Cache::new(cfg, policy),
            targets: vec![0; cfg.frames()],
            stats: BtbStats::default(),
        }
    }

    /// Side-effect-free probe: the predicted target for the branch at
    /// `pc`, if an entry exists.
    pub fn predict(&self, pc: u64) -> Option<u64> {
        self.entries.locate(pc).map(|frame| self.targets[frame])
    }

    /// Process a **taken** branch at `pc` with actual target `target`:
    /// refresh or allocate its entry (subject to the policy's bypass
    /// decision) and record hit/miss. Returns `true` on a hit.
    pub fn lookup_and_update(&mut self, pc: u64, target: u64) -> bool {
        self.stats.lookups += 1;
        let (result, frame) = self.entries.access_locate(pc, pc);
        match result {
            fe_cache::AccessResult::Hit => {
                self.stats.hits += 1;
                if let Some(frame) = frame {
                    if self.targets[frame] != target {
                        self.stats.target_mismatches += 1;
                    }
                    self.targets[frame] = target;
                }
                true
            }
            fe_cache::AccessResult::Miss { evicted: _ } => {
                self.stats.misses += 1;
                // The fill overwrote the victim's frame, so its stale
                // target needs no separate removal.
                if let Some(frame) = frame {
                    self.targets[frame] = target;
                }
                false
            }
            fe_cache::AccessResult::Bypassed => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Running statistics.
    pub fn stats(&self) -> BtbStats {
        self.stats
    }

    /// Reset statistics (after warm-up), preserving contents.
    pub fn reset_stats(&mut self) {
        self.stats = BtbStats::default();
        self.entries.reset_stats();
    }

    /// Restore the BTB to its freshly-constructed state (entries
    /// invalidated, targets and statistics zeroed, policy rewound),
    /// keeping every allocation. See [`Cache::reset`].
    pub fn reset(&mut self) {
        self.entries.reset();
        self.targets.fill(0);
        self.stats = BtbStats::default();
    }

    /// The underlying tag store (for efficiency tracking etc.).
    pub fn entries(&self) -> &Cache<P> {
        &self.entries
    }

    /// Mutable access to the underlying tag store.
    pub fn entries_mut(&mut self) -> &mut Cache<P> {
        &mut self.entries
    }
}

/// GHRP-driven BTB replacement (§III.E).
///
/// Holds a clone of the I-cache's [`SharedGhrp`]. On each BTB access the
/// branch's I-cache block metadata (found by scanning the block's set in
/// the I-cache's frame-indexed metadata column) provides the signature;
/// the shared tables vote with the separately tuned BTB threshold; the
/// entry's prediction bit is refreshed. Victims are predicted-dead entries first,
/// then LRU. The shared history is *not* advanced by BTB accesses (the
/// I-cache access to the branch's block already advanced it), and the BTB
/// performs no table training of its own — that is what makes the BTB
/// adaptation nearly free (one bit per entry).
#[derive(Debug, Clone)]
// The bools are hot-path caches of independent GhrpConfig flags, not state.
#[allow(clippy::struct_excessive_bools)]
pub struct GhrpBtbPolicy {
    shared: SharedGhrp,
    ways: usize,
    /// I-cache block mask, to map a branch PC to its fetch block.
    icache_block_mask: u64,
    stamps: Vec<u32>,
    clock: u32,
    predicted_dead: Vec<bool>,
    /// Branch PC resident in each frame (simulator-side mirror, used to
    /// recompute fresh predictions during victim selection).
    frame_pc: Vec<Option<u64>>,
    current_pred: bool,
    // Immutable-after-construction config flags, cached out of the shared
    // state so the hot path skips a borrow + config copy per query.
    btb_enable_bypass: bool,
    fresh_victim_prediction: bool,
    absent_block_is_dead: bool,
    /// How many predictions fell back to the PC signature because the
    /// branch's block was absent from the I-cache.
    pub fallback_predictions: u64,
    /// Victims chosen by dead prediction.
    pub dead_victims: u64,
}

impl GhrpBtbPolicy {
    /// Fresh victim-scan dead prediction for the branch at `pc` (see
    /// [`ghrp_core::GhrpConfig::btb_absent_block_is_dead`] for the
    /// absent-block behaviour).
    fn predict_for_victim(&self, pc: u64) -> bool {
        let block = pc & self.icache_block_mask;
        self.shared
            .btb_victim_is_dead(block, pc >> 2, self.absent_block_is_dead)
    }

    /// Create the policy for a BTB of geometry `btb_cfg`, coupled to the
    /// I-cache GHRP `shared` state. `icache_block_bytes` must match the
    /// I-cache the shared predictor serves.
    ///
    /// # Panics
    ///
    /// Panics if `icache_block_bytes` is not a power of two.
    pub fn new(btb_cfg: CacheConfig, shared: SharedGhrp, icache_block_bytes: u64) -> GhrpBtbPolicy {
        assert!(
            icache_block_bytes.is_power_of_two(),
            "icache_block_bytes must be a power of two"
        );
        let gcfg = shared.config();
        GhrpBtbPolicy {
            shared,
            ways: btb_cfg.ways() as usize,
            icache_block_mask: !(icache_block_bytes - 1),
            stamps: vec![0; btb_cfg.frames()],
            clock: 0,
            predicted_dead: vec![false; btb_cfg.frames()],
            frame_pc: vec![None; btb_cfg.frames()],
            current_pred: false,
            btb_enable_bypass: gcfg.btb_enable_bypass,
            fresh_victim_prediction: gcfg.fresh_victim_prediction,
            absent_block_is_dead: gcfg.btb_absent_block_is_dead,
            fallback_predictions: 0,
            dead_victims: 0,
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        let stamp = next_stamp(&mut self.clock, &mut self.stamps, self.ways);
        self.stamps[set * self.ways + way] = stamp;
    }
}

impl ReplacementPolicy for GhrpBtbPolicy {
    fn on_access(&mut self, ctx: &AccessContext) {
        let block = ctx.addr & self.icache_block_mask;
        let (fallback, pred) = self.shared.btb_access_prediction(block, ctx.addr >> 2);
        if fallback {
            self.fallback_predictions += 1;
        }
        self.current_pred = pred;
    }

    fn on_hit(&mut self, way: usize, ctx: &AccessContext) {
        self.predicted_dead[ctx.set * self.ways + way] = self.current_pred;
        self.frame_pc[ctx.set * self.ways + way] = Some(ctx.addr);
        self.touch(ctx.set, way);
    }

    fn should_bypass(&mut self, _ctx: &AccessContext) -> bool {
        self.btb_enable_bypass && self.current_pred
    }

    fn choose_victim(&mut self, ctx: &AccessContext) -> usize {
        let base = ctx.set * self.ways;
        let fresh = self.fresh_victim_prediction;
        for w in 0..self.ways {
            let dead = if fresh {
                self.frame_pc[base + w].is_some_and(|pc| self.predict_for_victim(pc))
            } else {
                self.predicted_dead[base + w]
            };
            if dead {
                self.dead_victims += 1;
                return w;
            }
        }
        (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .unwrap_or(0) // ways >= 1 by construction; hot path stays panic-free
    }

    fn on_evict(&mut self, way: usize, _victim_block: u64, ctx: &AccessContext) {
        self.predicted_dead[ctx.set * self.ways + way] = false;
        self.frame_pc[ctx.set * self.ways + way] = None;
    }

    fn on_fill(&mut self, way: usize, ctx: &AccessContext) {
        self.predicted_dead[ctx.set * self.ways + way] = self.current_pred;
        self.frame_pc[ctx.set * self.ways + way] = Some(ctx.addr);
        self.touch(ctx.set, way);
    }

    fn reset(&mut self) {
        // The coupled `SharedGhrp` belongs to the I-cache policy, whose
        // `reset` rewinds it; this rewinds only the BTB-side state.
        self.stamps.fill(0);
        self.clock = 0;
        self.predicted_dead.fill(false);
        self.frame_pc.fill(None);
        self.current_pred = false;
        self.fallback_predictions = 0;
        self.dead_victims = 0;
    }

    fn name(&self) -> String {
        "GHRP".to_owned()
    }
}

impl fe_cache::policy::PolicyInvariants for GhrpBtbPolicy {
    fn check_invariants(&self) -> Result<(), String> {
        fe_cache::policy::check_lru_stack(&self.stamps, self.ways, self.clock)?;
        if self.predicted_dead.len() != self.stamps.len()
            || self.frame_pc.len() != self.stamps.len()
        {
            return Err("per-frame arrays disagree on the frame count".into());
        }
        self.shared.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fe_cache::policy::Lru;
    use ghrp_core::{BlockMeta, GhrpConfig};

    /// A predictor coupled to a 64-set, 4-way I-cache of 64-byte blocks
    /// (the geometry its metadata column is laid out in).
    fn attached(cfg: GhrpConfig) -> SharedGhrp {
        let shared = SharedGhrp::new(cfg, 6);
        shared.attach_icache(CacheConfig::with_sets(64, 4, 64).unwrap());
        shared
    }

    fn lru_btb(entries: u32, ways: u32) -> Btb<Lru> {
        let cfg = btb_config(entries, ways).unwrap();
        Btb::new(cfg, Lru::new(cfg))
    }

    #[test]
    fn modulo_indexing_separates_same_block_branches() {
        let cfg = btb_config(256, 8).unwrap();
        // Two branches 4 bytes apart (same 64B I-cache block) map to
        // different BTB sets.
        assert_ne!(cfg.set_of(0x1000), cfg.set_of(0x1004));
    }

    #[test]
    fn hit_after_allocate() {
        let mut btb = lru_btb(64, 4);
        assert!(!btb.lookup_and_update(0x4000, 0x5000));
        assert!(btb.lookup_and_update(0x4000, 0x5000));
        assert_eq!(btb.predict(0x4000), Some(0x5000));
        let s = btb.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (2, 1, 1));
    }

    #[test]
    fn retarget_counts_mismatch() {
        let mut btb = lru_btb(64, 4);
        btb.lookup_and_update(0x4000, 0x5000);
        btb.lookup_and_update(0x4000, 0x6000);
        assert_eq!(btb.stats().target_mismatches, 1);
        assert_eq!(btb.predict(0x4000), Some(0x6000));
    }

    #[test]
    fn eviction_removes_target() {
        // 1-way, 16 sets: two PCs 16 instructions apart collide.
        let mut btb = lru_btb(16, 1);
        let a = 0x1000;
        let b = a + 16 * 4;
        btb.lookup_and_update(a, 0xAA);
        btb.lookup_and_update(b, 0xBB);
        assert_eq!(btb.predict(a), None, "a was evicted");
        assert!(!btb.lookup_and_update(a, 0xAA), "re-allocate misses");
    }

    #[test]
    fn capacity_pressure_produces_misses() {
        let mut btb = lru_btb(64, 4);
        // 128 distinct branches round-robin: 2x capacity → mostly misses.
        for round in 0..10 {
            for i in 0..128u64 {
                btb.lookup_and_update(0x1000 + i * 4, 0x9000 + i);
            }
            let _ = round;
        }
        let s = btb.stats();
        assert!(s.misses > s.hits, "misses {} hits {}", s.misses, s.hits);
    }

    fn ghrp_btb(shared: &SharedGhrp) -> Btb<GhrpBtbPolicy> {
        let cfg = btb_config(16, 2).unwrap();
        Btb::new(cfg, GhrpBtbPolicy::new(cfg, shared.clone(), 64))
    }

    #[test]
    fn ghrp_btb_uses_icache_metadata_signature() {
        let cfg = GhrpConfig {
            btb_enable_bypass: true, // this test exercises the bypass path
            ..GhrpConfig::default()
        };
        let shared = attached(cfg);
        // Train a signature to saturation and attach it to block 0x1000.
        let sig = 0x123;
        for _ in 0..3 {
            shared.train(sig, true);
        }
        assert!(shared.set_meta(
            0x1000,
            BlockMeta {
                signature: sig,
                predicted_dead: true,
            },
        ));
        let mut btb = ghrp_btb(&shared);
        // Bypass: branch in block 0x1000 predicts dead → never allocated.
        assert!(!btb.lookup_and_update(0x1004, 0x42));
        assert_eq!(btb.predict(0x1004), None, "bypassed, not allocated");
        // A branch in a block with no metadata falls back to PC signature
        // (untrained → live → allocated).
        assert!(!btb.lookup_and_update(0x2004, 0x43));
        assert!(btb.lookup_and_update(0x2004, 0x43));
        assert!(btb.entries().policy().fallback_predictions > 0);
    }

    #[test]
    fn ghrp_btb_evicts_predicted_dead_first() {
        let cfg = GhrpConfig {
            btb_enable_bypass: false,
            ..GhrpConfig::default()
        };
        let shared = attached(cfg);
        let mut btb = ghrp_btb(&shared);
        // Two branches in one BTB set (8 sets × 2 ways; pc step = 8*4
        // bytes). Both allocate live.
        let a = 0x1000u64;
        let b = a + 8 * 4;
        let c = b + 8 * 4;
        btb.lookup_and_update(a, 1);
        btb.lookup_and_update(b, 2);
        // Mark a's block metadata dead with a saturated signature.
        let sig = 0x77;
        for _ in 0..3 {
            shared.train(sig, true);
        }
        assert!(shared.set_meta(
            a & !63,
            BlockMeta {
                signature: sig,
                predicted_dead: true,
            },
        ));
        // Refresh a's prediction bit (hit) so the entry is marked dead,
        // then insert c — the victim must be a (dead), not LRU order.
        btb.lookup_and_update(a, 1); // a is now MRU but predicted dead
        btb.lookup_and_update(c, 3);
        assert_eq!(btb.predict(a), None, "dead-predicted entry evicted");
        assert_eq!(btb.predict(b), Some(2), "LRU entry survived");
    }

    #[test]
    fn ghrp_btb_lru_order_survives_clock_wrap() {
        let cfg = GhrpConfig {
            btb_enable_bypass: false,
            btb_absent_block_is_dead: false,
            ..GhrpConfig::default()
        };
        let shared = attached(cfg);
        let mut btb = ghrp_btb(&shared);
        btb.entries_mut().policy_mut().clock = u32::MAX - 1;
        // Three branches in one 2-way set (8 sets; pc step = 8 * 4 bytes).
        let (a, b, c) = (0x1000u64, 0x1020, 0x1040);
        btb.lookup_and_update(a, 1);
        btb.lookup_and_update(b, 2); // wraps the clock
        btb.lookup_and_update(a, 1); // a is MRU again
        btb.lookup_and_update(c, 3);
        assert_eq!(btb.predict(b), None, "LRU entry evicted after the wrap");
        assert_eq!(btb.predict(a), Some(1));
    }

    /// The nominal geometry the storage audit budgets against: 4,096
    /// entries in 1,024 sets of 4 ways.
    #[test]
    fn paper_geometry_is_valid() {
        let cfg = paper_btb_config().unwrap();
        assert_eq!(cfg.sets(), 1024);
        assert_eq!(cfg.ways(), 4);
        assert_eq!(cfg.frames(), 4096);
    }
}
