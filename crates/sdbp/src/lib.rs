//! Modified Sampling Dead Block Prediction (SDBP) for instruction streams.
//!
//! SDBP (Khan, Tian & Jiménez, MICRO 2010) predicts dead blocks from the PC
//! of the most recent access, learning access/eviction patterns in a small
//! set of *sampler* sets. The GHRP paper shows (§II.A) that set-sampling
//! cannot work for the I-cache or BTB — the PC itself forms the index, so a
//! given PC only ever touches one set and sampled sets cannot generalize.
//! The paper therefore evaluates a **modified SDBP** (§IV.A), reproduced
//! here:
//!
//! * the sampler is as large as the cache (same sets, same associativity);
//! * 8-bit counters instead of 2-bit;
//! * three skewed prediction tables;
//! * sampler entries hold a valid bit, a prediction bit, 3 LRU bits, a
//!   12-bit partial-PC signature and a 16-bit partial tag;
//! * dead and bypass thresholds tuned for instruction streams;
//! * votes aggregate by **summation** (original SDBP), not majority.
//!
//! For instruction fetch the "PC of the most recent access" to a block *is*
//! the block's own address, so SDBP degenerates to an address-indexed
//! predictor without path information — which is exactly why it struggles
//! on I-streams with multiple reuses per generation, per the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter_dbp;
pub mod ship;

pub use counter_dbp::CounterDbpPolicy;
pub use ship::{ShipConfig, ShipPolicy};

use fe_cache::policy::next_stamp;
use fe_cache::{AccessContext, CacheConfig, ReplacementPolicy, INVALID_TAG};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;

// Canonical §IV.A design-point constants. The `budget-key:` markers are
// consumed by `cargo xtask audit`, which re-derives the comparison
// predictor's storage (3×4096×8-bit tables, 33-bit sampler entries) and
// diffs it against `budgets.toml`.

/// Entries per skewed SDBP prediction table.
///
/// budget-key: `sdbp.table_entries`
pub const PAPER_SDBP_TABLE_ENTRIES: usize = 1 << 12;

/// Number of skewed SDBP prediction tables.
///
/// budget-key: `sdbp.num_tables`
pub const PAPER_SDBP_NUM_TABLES: usize = 3;

/// SDBP counter width: 8 bits (§IV.A widens the original 2-bit design).
///
/// budget-key: `sdbp.counter_bits`
pub const PAPER_SDBP_COUNTER_BITS: u32 = 8;

/// Valid bits per sampler entry.
///
/// budget-key: `sdbp.sampler_valid_bits`
pub const PAPER_SDBP_SAMPLER_VALID_BITS: u32 = 1;

/// Prediction bits per sampler entry.
///
/// budget-key: `sdbp.sampler_prediction_bits`
pub const PAPER_SDBP_SAMPLER_PREDICTION_BITS: u32 = 1;

/// LRU-position bits per sampler entry.
///
/// budget-key: `sdbp.sampler_lru_bits`
pub const PAPER_SDBP_SAMPLER_LRU_BITS: u32 = 3;

/// Partial-PC signature bits per sampler entry.
///
/// budget-key: `sdbp.sampler_signature_bits`
pub const PAPER_SDBP_SAMPLER_SIGNATURE_BITS: u32 = 12;

/// Partial-tag bits per sampler entry.
///
/// budget-key: `sdbp.sampler_tag_bits`
pub const PAPER_SDBP_SAMPLER_TAG_BITS: u32 = 16;

/// Configuration of the modified SDBP predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SdbpConfig {
    /// Entries per prediction table (power of two).
    pub table_entries: usize,
    /// Number of skewed tables.
    pub num_tables: usize,
    /// Counter saturation maximum (255 for the paper's 8-bit counters).
    pub counter_max: u8,
    /// Sum of the three counters at or above which a block predicts dead.
    pub dead_threshold: u32,
    /// Sum threshold for bypassing a fill (higher = more conservative).
    pub bypass_threshold: u32,
    /// Bits of partial PC kept as the signature.
    pub signature_bits: u32,
    /// Whether bypass is enabled.
    pub enable_bypass: bool,
    /// Train from every `sampler_every`-th set only. `1` (the paper's
    /// §IV.A modification) trains on every set — a full-size sampler.
    /// Larger values reproduce the original LLC-style set-sampling, which
    /// §II.A shows cannot generalize for instruction streams because a PC
    /// only ever touches one set.
    pub sampler_every: u32,
}

impl Default for SdbpConfig {
    fn default() -> SdbpConfig {
        SdbpConfig {
            table_entries: PAPER_SDBP_TABLE_ENTRIES,
            num_tables: PAPER_SDBP_NUM_TABLES,
            counter_max: 255,
            dead_threshold: 12,
            bypass_threshold: 96,
            signature_bits: PAPER_SDBP_SAMPLER_SIGNATURE_BITS,
            enable_bypass: true,
            sampler_every: 1,
        }
    }
}

impl SdbpConfig {
    fn validate(&self) {
        assert!(
            self.table_entries.is_power_of_two() && self.table_entries > 0,
            "table_entries must be a power of two"
        );
        assert!(
            (1..=8).contains(&self.num_tables),
            "num_tables must be 1..=8"
        );
        assert!(
            (1..=16).contains(&self.signature_bits),
            "signature_bits must be 1..=16"
        );
        assert!(self.sampler_every >= 1, "sampler_every must be >= 1");
    }
}

/// One sampler entry (§IV.A: 1 valid + 1 prediction + 3 LRU-position bits
/// + 12-bit partial PC + 16-bit tag).
///
/// The LRU position is kept as a stamp in a parallel column.
#[derive(Debug, Clone, Copy, Default)]
struct SamplerEntry {
    valid: bool,
    partial_tag: u16,
    signature: u16,
}

/// Diagnostic counters for SDBP.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SdbpStats {
    /// Victims chosen by dead prediction.
    pub dead_victims: u64,
    /// Victims chosen by LRU fallback.
    pub lru_victims: u64,
    /// Bypassed fills.
    pub bypasses: u64,
    /// Sampler hits.
    pub sampler_hits: u64,
    /// Sampler misses.
    pub sampler_misses: u64,
}

/// The policy-independent half of SDBP: the sampler and the prediction
/// tables it trains, plus the current access's signature and votes.
#[derive(Debug)]
struct Trainer {
    cfg: SdbpConfig,
    ways: usize,
    /// Shift turning an address into the "PC" the signature derives from
    /// (block-offset bits for an I-cache).
    pc_shift: u32,
    /// Skewed counter tables, flat: table `t` starts at
    /// `t * cfg.table_entries`.
    tables: Vec<u8>,
    /// Full-size sampler: same geometry as the cache.
    sampler: Vec<SamplerEntry>,
    sampler_stamps: Vec<u32>,
    clock: u32,
    /// Demand accesses stepped so far.
    steps: u64,
    /// Block of the latest step (lockstep check).
    last_block: u64,
    /// Signature of the latest step and its dead and bypass votes.
    sig: u16,
    dead: bool,
    bypass: bool,
    sampler_hits: u64,
    sampler_misses: u64,
}

impl Trainer {
    fn new(cache_cfg: CacheConfig, cfg: SdbpConfig) -> Trainer {
        cfg.validate();
        Trainer {
            cfg,
            ways: cache_cfg.ways() as usize,
            pc_shift: cache_cfg.offset_bits(),
            tables: vec![0u8; cfg.table_entries * cfg.num_tables],
            sampler: vec![SamplerEntry::default(); cache_cfg.frames()],
            sampler_stamps: vec![0; cache_cfg.frames()],
            clock: 0,
            steps: 0,
            last_block: INVALID_TAG,
            sig: 0,
            dead: false,
            bypass: false,
            sampler_hits: 0,
            sampler_misses: 0,
        }
    }

    fn signature_of(&self, block_addr: u64) -> u16 {
        let pc = block_addr >> self.pc_shift;
        // Truncation-safe: masked to signature_bits ≤ 16 bits.
        #[allow(clippy::cast_possible_truncation)]
        let sig = (pc & ((1 << self.cfg.signature_bits) - 1)) as u16;
        sig
    }

    fn partial_tag(&self, block_addr: u64) -> u16 {
        ((block_addr >> self.pc_shift) & 0xFFFF) as u16
    }

    /// Flat position of `sig`'s counter in `table`: skewed indices via
    /// per-table multiplicative hashing.
    fn slot(&self, sig: u16, table: usize) -> usize {
        const MULT: [u32; 8] = [
            0x9E37_79B9,
            0x85EB_CA6B,
            0xC2B2_AE35,
            0x27D4_EB2F,
            0x1656_67B1,
            0xB529_7A4D,
            0x68E3_1DA5,
            0x71D6_7FFF,
        ];
        let x = u32::from(sig).wrapping_mul(MULT[table]);
        let x = x ^ (x >> 16);
        table * self.cfg.table_entries + ((x as usize) & (self.cfg.table_entries - 1))
    }

    fn counter_sum(&self, sig: u16) -> u32 {
        (0..self.cfg.num_tables)
            .map(|t| u32::from(self.tables[self.slot(sig, t)]))
            .sum()
    }

    fn train(&mut self, sig: u16, is_dead: bool) {
        for t in 0..self.cfg.num_tables {
            let i = self.slot(sig, t);
            let c = &mut self.tables[i];
            if is_dead {
                *c = c.saturating_add(1).min(self.cfg.counter_max);
            } else {
                *c = c.saturating_sub(1);
            }
        }
    }

    /// Advance by one demand access: signature, sampler training (on
    /// sampled sets), then the votes for the signature.
    fn step(&mut self, ctx: &AccessContext) {
        self.sig = self.signature_of(ctx.block_addr);
        if (ctx.set as u64).is_multiple_of(u64::from(self.cfg.sampler_every)) {
            self.sample(ctx);
        }
        self.steps += 1;
        self.last_block = ctx.block_addr;
        let sum = self.counter_sum(self.sig);
        self.dead = sum >= self.cfg.dead_threshold;
        self.bypass = sum >= self.cfg.bypass_threshold;
    }

    /// Run the sampler for this access (the training side of SDBP).
    fn sample(&mut self, ctx: &AccessContext) {
        let tag = self.partial_tag(ctx.block_addr);
        let base = ctx.set * self.ways;
        let stamp = next_stamp(&mut self.clock, &mut self.sampler_stamps, self.ways);
        // Sampler hit: the entry's previous signature proved live.
        for f in base..base + self.ways {
            let e = self.sampler[f];
            if e.valid && e.partial_tag == tag {
                self.sampler_hits += 1;
                self.train(e.signature, false);
                self.sampler[f].signature = self.sig;
                self.sampler_stamps[f] = stamp;
                return;
            }
        }
        self.sampler_misses += 1;
        // Sampler miss: evict the LRU sampler entry, training its
        // signature dead if it was valid.
        let victim = (base..base + self.ways)
            .min_by_key(|&f| (self.sampler[f].valid, self.sampler_stamps[f]))
            .unwrap_or(base); // ways >= 1 by construction; hot path stays panic-free
        let old = self.sampler[victim];
        if old.valid {
            self.train(old.signature, true);
        }
        self.sampler[victim] = SamplerEntry {
            valid: true,
            partial_tag: tag,
            signature: self.sig,
        };
        self.sampler_stamps[victim] = stamp;
    }

    fn reset(&mut self) {
        self.tables.fill(0);
        self.sampler.fill(SamplerEntry::default());
        self.sampler_stamps.fill(0);
        self.clock = 0;
        self.steps = 0;
        self.last_block = INVALID_TAG;
        self.sig = 0;
        self.dead = false;
        self.bypass = false;
        self.sampler_hits = 0;
        self.sampler_misses = 0;
    }
}

/// Clonable handle to an SDBP sampler and its tables.
///
/// The sampler's training events depend only on the access stream, so
/// policies on caches of one geometry that see the same demand accesses
/// may share one trainer ([`SdbpPolicy::with_trainer`]): the first to
/// reach access *n* steps it, the others read the cached signature and
/// votes.
#[derive(Debug, Clone)]
pub struct SdbpTrainer(Rc<RefCell<Trainer>>);

impl SdbpTrainer {
    /// A fresh trainer for a cache of geometry `cache_cfg`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`SdbpConfig`].
    pub fn new(cache_cfg: CacheConfig, cfg: SdbpConfig) -> SdbpTrainer {
        SdbpTrainer(Rc::new(RefCell::new(Trainer::new(cache_cfg, cfg))))
    }
}

/// The modified-SDBP replacement policy.
#[derive(Debug, Clone)]
pub struct SdbpPolicy {
    trainer: SdbpTrainer,
    ways: usize,
    /// Main-cache per-frame prediction bits.
    predicted_dead: Vec<bool>,
    /// Main-cache LRU stamps.
    stamps: Vec<u32>,
    clock: u32,
    /// Demand accesses seen: this policy's position in the trainer's
    /// step sequence.
    accesses: u64,
    /// The in-flight access's dead and bypass votes (the tables change
    /// only when the trainer steps).
    current_dead: bool,
    current_bypass: bool,
    /// [`SdbpConfig::enable_bypass`], cached out of the trainer.
    enable_bypass: bool,
    /// Victim and bypass counters (the sampler counters live in the
    /// trainer).
    stats: SdbpStats,
}

impl SdbpPolicy {
    /// Create an SDBP policy for a cache of geometry `cache_cfg`, with its
    /// own trainer.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`SdbpConfig`].
    pub fn new(cache_cfg: CacheConfig, cfg: SdbpConfig) -> SdbpPolicy {
        SdbpPolicy::with_trainer(cache_cfg, SdbpTrainer::new(cache_cfg, cfg))
    }

    /// Create an SDBP policy for a cache of geometry `cache_cfg` that
    /// shares `trainer` (built for the same geometry) with every other
    /// policy holding it. All of them must see the same demand accesses.
    pub fn with_trainer(cache_cfg: CacheConfig, trainer: SdbpTrainer) -> SdbpPolicy {
        let enable_bypass = {
            let t = trainer.0.borrow();
            debug_assert_eq!(t.sampler.len(), cache_cfg.frames());
            t.cfg.enable_bypass
        };
        SdbpPolicy {
            trainer,
            ways: cache_cfg.ways() as usize,
            predicted_dead: vec![false; cache_cfg.frames()],
            stamps: vec![0; cache_cfg.frames()],
            clock: 0,
            accesses: 0,
            current_dead: false,
            current_bypass: false,
            enable_bypass,
            stats: SdbpStats::default(),
        }
    }

    /// Diagnostic counters.
    pub fn stats(&self) -> SdbpStats {
        let t = self.trainer.0.borrow();
        SdbpStats {
            sampler_hits: t.sampler_hits,
            sampler_misses: t.sampler_misses,
            ..self.stats
        }
    }

    /// The partial-PC signature for an access to `block_addr`.
    pub fn signature_of(&self, block_addr: u64) -> u16 {
        self.trainer.0.borrow().signature_of(block_addr)
    }

    /// Sum of the counters selected by `sig` (SDBP aggregates by
    /// summation).
    pub fn counter_sum(&self, sig: u16) -> u32 {
        self.trainer.0.borrow().counter_sum(sig)
    }

    /// Current dead prediction for a signature.
    pub fn predict_dead(&self, sig: u16) -> bool {
        let t = self.trainer.0.borrow();
        t.counter_sum(sig) >= t.cfg.dead_threshold
    }

    fn touch(&mut self, set: usize, way: usize) {
        let stamp = next_stamp(&mut self.clock, &mut self.stamps, self.ways);
        self.stamps[set * self.ways + way] = stamp;
    }
}

impl ReplacementPolicy for SdbpPolicy {
    fn on_access(&mut self, ctx: &AccessContext) {
        self.accesses += 1;
        let mut t = self.trainer.0.borrow_mut();
        if t.steps < self.accesses {
            debug_assert_eq!(t.steps + 1, self.accesses, "an SDBP lane skipped a step");
            t.step(ctx);
        } else {
            debug_assert!(
                t.steps == self.accesses && t.last_block == ctx.block_addr,
                "SDBP lanes out of lockstep: trainer at access {}, lane at {}",
                t.steps,
                self.accesses
            );
        }
        self.current_dead = t.dead;
        self.current_bypass = t.bypass;
    }

    fn on_hit(&mut self, way: usize, ctx: &AccessContext) {
        // Refresh this frame's prediction under the current access.
        self.predicted_dead[ctx.set * self.ways + way] = self.current_dead;
        self.touch(ctx.set, way);
    }

    fn should_bypass(&mut self, _ctx: &AccessContext) -> bool {
        let b = self.enable_bypass && self.current_bypass;
        if b {
            self.stats.bypasses += 1;
        }
        b
    }

    fn choose_victim(&mut self, ctx: &AccessContext) -> usize {
        let base = ctx.set * self.ways;
        if let Some(w) = (0..self.ways).find(|&w| self.predicted_dead[base + w]) {
            self.stats.dead_victims += 1;
            return w;
        }
        self.stats.lru_victims += 1;
        (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .unwrap_or(0) // ways >= 1 by construction; hot path stays panic-free
    }

    fn on_evict(&mut self, way: usize, _victim_block: u64, ctx: &AccessContext) {
        self.predicted_dead[ctx.set * self.ways + way] = false;
    }

    fn on_fill(&mut self, way: usize, ctx: &AccessContext) {
        self.predicted_dead[ctx.set * self.ways + way] = self.current_dead;
        self.touch(ctx.set, way);
    }

    fn reset(&mut self) {
        // Idempotent on a shared trainer: every sharer resets it before
        // the next access.
        self.trainer.0.borrow_mut().reset();
        self.predicted_dead.fill(false);
        self.stamps.fill(0);
        self.clock = 0;
        self.accesses = 0;
        self.current_dead = false;
        self.current_bypass = false;
        self.stats = SdbpStats::default();
    }

    fn name(&self) -> String {
        "SDBP".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fe_cache::Cache;

    fn mk(enable_bypass: bool) -> Cache<SdbpPolicy> {
        let cache_cfg = CacheConfig::with_sets(4, 2, 64).unwrap();
        let cfg = SdbpConfig {
            enable_bypass,
            ..SdbpConfig::default()
        };
        Cache::new(cache_cfg, SdbpPolicy::new(cache_cfg, cfg))
    }

    #[test]
    fn acts_like_lru_untrained() {
        let mut c = mk(false);
        c.access(0x000, 0);
        c.access(0x100, 0);
        c.access(0x000, 0);
        let r = c.access(0x200, 0);
        assert_eq!(
            r,
            fe_cache::AccessResult::Miss {
                evicted: Some(0x100)
            }
        );
    }

    #[test]
    fn sampler_tracks_hits_and_misses() {
        let mut c = mk(false);
        c.access(0x000, 0);
        c.access(0x000, 0);
        let st = c.policy().stats();
        assert_eq!(st.sampler_hits, 1);
        assert_eq!(st.sampler_misses, 1);
    }

    #[test]
    fn dead_training_accumulates_on_thrash() {
        let mut c = mk(false);
        // Three blocks cycling through a 2-way set: every generation dies.
        for _ in 0..100 {
            for b in [0x000u64, 0x100, 0x200] {
                c.access(b, 0);
            }
        }
        let p = c.policy();
        let sig = p.signature_of(0x000);
        assert!(
            p.counter_sum(sig) >= SdbpConfig::default().dead_threshold,
            "sum {}",
            p.counter_sum(sig)
        );
    }

    #[test]
    fn reused_blocks_stay_live() {
        let mut c = mk(false);
        for _ in 0..200 {
            c.access(0x000, 0);
        }
        let p = c.policy();
        assert!(!p.predict_dead(p.signature_of(0x000)));
        assert_eq!(p.stats().sampler_hits, 199);
    }

    #[test]
    fn bypass_fires_only_when_enabled() {
        let run = |bypass: bool| {
            let mut c = mk(bypass);
            for _ in 0..400 {
                for b in [0x000u64, 0x100, 0x200, 0x300, 0x400] {
                    c.access(b, 0);
                }
            }
            c.policy().stats().bypasses
        };
        assert_eq!(run(false), 0);
        assert!(run(true) > 0, "thrashing blocks should eventually bypass");
    }

    #[test]
    fn signature_is_partial_pc() {
        let cache_cfg = CacheConfig::with_sets(4, 2, 64).unwrap();
        let p = SdbpPolicy::new(cache_cfg, SdbpConfig::default());
        // Same low 12 bits of block-granular address → same signature.
        let a = p.signature_of(0x0004_0000);
        let b = p.signature_of(0x1004_0000);
        assert_eq!(a, b, "bits above the signature width are ignored");
        assert_ne!(p.signature_of(0x40), p.signature_of(0x80));
    }

    #[test]
    fn dead_victim_selection_engages_after_training() {
        let mut c = mk(false);
        for _ in 0..200 {
            for b in [0x000u64, 0x100, 0x200] {
                c.access(b, 0);
            }
        }
        assert!(c.policy().stats().dead_victims > 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_config_panics() {
        let cache_cfg = CacheConfig::with_sets(4, 2, 64).unwrap();
        let cfg = SdbpConfig {
            table_entries: 1000,
            ..SdbpConfig::default()
        };
        let _ = SdbpPolicy::new(cache_cfg, cfg);
    }

    /// The runtime default must realize the §IV.A design point the
    /// storage audit budgets against.
    #[test]
    fn default_matches_paper_constants() {
        let cfg = SdbpConfig::default();
        assert_eq!(cfg.table_entries, PAPER_SDBP_TABLE_ENTRIES);
        assert_eq!(cfg.num_tables, PAPER_SDBP_NUM_TABLES);
        assert_eq!(
            u32::from(cfg.counter_max),
            (1 << PAPER_SDBP_COUNTER_BITS) - 1,
            "counter_max must saturate exactly at the audited width"
        );
        assert_eq!(cfg.signature_bits, PAPER_SDBP_SAMPLER_SIGNATURE_BITS);
    }

    /// §IV.A sampler entry layout: 1 + 1 + 3 + 12 + 16 = 33 bits.
    #[test]
    fn sampler_entry_is_thirty_three_bits() {
        let bits = PAPER_SDBP_SAMPLER_VALID_BITS
            + PAPER_SDBP_SAMPLER_PREDICTION_BITS
            + PAPER_SDBP_SAMPLER_LRU_BITS
            + PAPER_SDBP_SAMPLER_SIGNATURE_BITS
            + PAPER_SDBP_SAMPLER_TAG_BITS;
        assert_eq!(bits, 33);
    }

    #[test]
    fn shared_trainer_matches_private_trainers() {
        let cache_cfg = CacheConfig::with_sets(4, 2, 64).unwrap();
        let cfg = SdbpConfig::default();
        let trainer = SdbpTrainer::new(cache_cfg, cfg);
        // Two caches stepping one trainer vs two with their own.
        let mut shared = [0, 1].map(|_| {
            Cache::new(
                cache_cfg,
                SdbpPolicy::with_trainer(cache_cfg, trainer.clone()),
            )
        });
        let mut private = [0, 1].map(|_| Cache::new(cache_cfg, SdbpPolicy::new(cache_cfg, cfg)));
        assert!(Rc::ptr_eq(
            &shared[0].policy().trainer.0,
            &shared[1].policy().trainer.0
        ));
        for i in 0..3_000u64 {
            let b = ((i * 7) % 11) * 0x100;
            for (s, p) in shared.iter_mut().zip(&mut private) {
                assert_eq!(s.access(b, 0), p.access(b, 0), "access {i}");
            }
        }
        for (s, p) in shared.iter().zip(&private) {
            assert_eq!(s.policy().stats(), p.policy().stats());
        }
    }

    /// Forcing both recency clocks to the `u32` wrap point again and
    /// again must not change a single decision against a run whose
    /// clocks never come near it (where `u32` stamps behave as the
    /// unbounded `u64` reference).
    #[test]
    fn wrapping_u32_stamps_choose_the_same_victims() {
        let mut reference = mk(true);
        let mut wrapped = mk(true);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..20_000u32 {
            if i % 509 == 0 {
                let p = wrapped.policy_mut();
                p.clock = u32::MAX - 2;
                p.trainer.0.borrow_mut().clock = u32::MAX - 1;
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let b = (x % 20) * 0x40;
            assert_eq!(wrapped.access(b, 0), reference.access(b, 0), "access {i}");
        }
        assert_eq!(wrapped.policy().stats(), reference.policy().stats());
        assert!(reference.policy().stats().dead_victims > 0);
    }
}
