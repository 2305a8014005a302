//! Shared GHRP predictor state.
//!
//! One GHRP instance serves both the I-cache and the BTB (§III.E: "All of
//! the other structures for the GHRP algorithm are already present for use
//! by the I-cache dead block prediction, so BTB replacement comes with
//! almost no additional overhead"). [`SharedGhrp`] is a cheaply clonable
//! handle (`Rc<RefCell<…>>` — the simulator is single-threaded) that the
//! I-cache policy ([`crate::GhrpPolicy`]) and the BTB policy (in `fe-btb`)
//! both hold.
//!
//! The state splits in two halves:
//!
//! * the **trainer** — speculative and retired path history, the shadow
//!   LRU array, the prediction tables, and the signature and dead/bypass
//!   votes of the current access. With shadow training on, all of it is a
//!   function of the demand access stream alone, so every policy lane of
//!   one I-cache geometry can share one trainer ([`SharedGhrp::new_lane`]):
//!   the first lane to reach demand access *n* steps it, the others read
//!   the cached result;
//! * the **metadata column** — per I-cache frame, the resident block and
//!   its signature and prediction bit. It depends on the lane's own
//!   replacement decisions, so every handle owns one. The BTB finds a
//!   branch's block by scanning the block's I-cache set in this column:
//!   "the signature recorded for that I-cache block is used to index the
//!   I-cache GHRP prediction tables to generate … a dead-entry prediction
//!   for that BTB entry".

#![forbid(unsafe_code)]

use crate::config::GhrpConfig;
use crate::history::SpeculativeHistory;
use crate::signature::signature;
use crate::tables::PredictionTables;
use fe_cache::policy::{check_lru_stack, next_stamp};
use fe_cache::{CacheConfig, INVALID_TAG};
use std::cell::RefCell;
use std::rc::Rc;

// The checked index primitives every predictor-side index computation
// must go through (enforced by `cargo xtask lint`): `mask` for
// power-of-two bucket selection, `idx` for bounds-checked `u64 → usize`
// narrowing. Canonical implementations live in `fe_cache::index`; this
// re-export is the predictor-facing path.
pub use fe_cache::index::{idx, mask};

/// Per-I-cache-block GHRP metadata (16-bit signature + prediction bit;
/// the valid and LRU bits live in the policy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockMeta {
    /// Signature recorded at fill or last reuse.
    pub signature: u16,
    /// Dead-block prediction bit, refreshed on each access to the block.
    pub predicted_dead: bool,
}

/// The shadow LRU tag array: an LRU cache of the I-cache's geometry
/// whose hits and evictions are the policy-independent training events
/// (see [`GhrpConfig::shadow_training`]).
#[derive(Debug, Clone)]
struct ShadowArray {
    ways: usize,
    tag: Vec<u64>,
    sig: Vec<u16>,
    stamp: Vec<u32>,
    clock: u32,
}

impl ShadowArray {
    fn new(frames: usize, ways: usize) -> ShadowArray {
        ShadowArray {
            ways,
            tag: vec![INVALID_TAG; frames],
            sig: vec![0; frames],
            stamp: vec![0; frames],
            clock: 0,
        }
    }

    /// Drive one access to `block` in `set` under `sig`. Returns the
    /// training event: the signature that led to a reuse (`false`) or to
    /// an eviction (`true`), if any.
    fn access(&mut self, set: usize, block: u64, sig: u16) -> Option<(u16, bool)> {
        let base = set * self.ways;
        let stamp = next_stamp(&mut self.clock, &mut self.stamp, self.ways);
        if let Some(f) = (base..base + self.ways).find(|&f| self.tag[f] == block) {
            // Shadow hit: the previous signature led to a reuse.
            let old = self.sig[f];
            self.sig[f] = sig;
            self.stamp[f] = stamp;
            return Some((old, false));
        }
        // Shadow miss: evict shadow-LRU (invalid frames first), training
        // its signature dead.
        let victim = (base..base + self.ways)
            .min_by_key(|&f| (self.tag[f] != INVALID_TAG, self.stamp[f]))
            .unwrap_or(base); // ways >= 1 by construction; hot path stays panic-free
        let event = (self.tag[victim] != INVALID_TAG).then_some((self.sig[victim], true));
        self.tag[victim] = block;
        self.sig[victim] = sig;
        self.stamp[victim] = stamp;
        event
    }

    fn reset(&mut self) {
        self.tag.fill(INVALID_TAG);
        self.sig.fill(0);
        self.stamp.fill(0);
        self.clock = 0;
    }
}

/// The policy-independent half of GHRP, shared by every lane of one
/// I-cache geometry when shadow training is on.
#[derive(Debug)]
struct GhrpTrainer {
    cfg: GhrpConfig,
    tables: PredictionTables,
    history: SpeculativeHistory,
    /// Right-shift applied to I-cache block addresses before they enter
    /// the history/signature (the block offset width).
    icache_shift: u32,
    /// Present (non-empty) once an I-cache geometry is attached with
    /// shadow training on.
    shadow: ShadowArray,
    /// Demand accesses stepped so far.
    steps: u64,
    /// Block of the latest step (lockstep check).
    last_block: u64,
    /// Signature of the latest step, computed from the history before it.
    sig: u16,
    /// `sig`'s votes under the I-cache dead and bypass thresholds.
    dead: bool,
    bypass: bool,
}

impl GhrpTrainer {
    fn new(cfg: GhrpConfig, icache_shift: u32) -> GhrpTrainer {
        GhrpTrainer {
            tables: PredictionTables::new(&cfg),
            history: SpeculativeHistory::new(&cfg),
            cfg,
            icache_shift,
            shadow: ShadowArray::new(0, 0),
            steps: 0,
            last_block: INVALID_TAG,
            sig: 0,
            dead: false,
            bypass: false,
        }
    }

    fn signature(&self, shifted_pc: u64) -> u16 {
        signature(
            self.history.speculative(),
            shifted_pc,
            self.cfg.history_bits.min(16),
        )
    }

    /// Size the shadow array for `icache` (once; every lane sharing this
    /// trainer has the same geometry).
    fn attach(&mut self, icache: CacheConfig) {
        debug_assert_eq!(icache.offset_bits(), self.icache_shift);
        let ways = icache.ways() as usize;
        if self.cfg.shadow_training && self.shadow.ways == 0 {
            self.shadow = ShadowArray::new(icache.frames(), ways);
        }
        debug_assert!(
            !self.cfg.shadow_training || self.shadow.tag.len() == icache.frames(),
            "one GHRP trainer serves one I-cache geometry"
        );
    }

    /// Advance by one demand access: signature from the history *before*
    /// the access, history update, shadow training, fresh votes.
    fn step(&mut self, block_addr: u64, set: usize) {
        let pc = block_addr >> self.icache_shift;
        let sig = self.signature(pc);
        self.history.update_speculative(pc);
        if self.shadow.ways > 0 {
            if let Some((old, dead)) = self.shadow.access(set, block_addr, sig) {
                self.tables.update(old, dead);
            }
        }
        self.steps += 1;
        self.last_block = block_addr;
        self.sig = sig;
        self.refresh_votes();
    }

    fn refresh_votes(&mut self) {
        let (dead, bypass) =
            self.tables
                .predict_pair(self.sig, self.cfg.dead_threshold, self.cfg.bypass_threshold);
        self.dead = dead;
        self.bypass = bypass;
    }

    /// Train `sig` and keep the cached votes current (direct training
    /// trains between an access's step and its fill).
    fn train(&mut self, sig: u16, is_dead: bool) {
        self.tables.update(sig, is_dead);
        self.refresh_votes();
    }

    fn reset(&mut self) {
        self.tables.clear();
        self.history.reset();
        self.shadow.reset();
        self.steps = 0;
        self.last_block = INVALID_TAG;
        self.sig = 0;
        self.dead = false;
        self.bypass = false;
    }
}

/// Per-frame I-cache block metadata of one lane.
#[derive(Debug, Clone, Default)]
struct MetaColumn {
    sets: usize,
    ways: usize,
    offset_bits: u32,
    /// Resident block per frame ([`INVALID_TAG`] = empty).
    block: Vec<u64>,
    meta: Vec<BlockMeta>,
}

impl MetaColumn {
    fn new(icache: CacheConfig) -> MetaColumn {
        MetaColumn {
            sets: icache.sets() as usize,
            ways: icache.ways() as usize,
            offset_bits: icache.offset_bits(),
            block: vec![INVALID_TAG; icache.frames()],
            meta: vec![BlockMeta::default(); icache.frames()],
        }
    }

    /// First frame of `block_addr`'s set (meaningless when unattached).
    fn set_base(&self, block_addr: u64) -> usize {
        mask(block_addr >> self.offset_bits, self.sets.max(1)) * self.ways
    }

    /// The frame holding `block_addr`, by a scan of its set.
    fn frame_of(&self, block_addr: u64) -> Option<usize> {
        let base = self.set_base(block_addr);
        (base..base + self.ways).find(|&f| self.block[f] == block_addr)
    }

    fn get(&self, block_addr: u64) -> Option<BlockMeta> {
        self.frame_of(block_addr).map(|f| self.meta[f])
    }

    /// The metadata of `frame` if it holds `block_addr`.
    fn at(&self, frame: usize, block_addr: u64) -> Option<BlockMeta> {
        (self.block[frame] == block_addr).then_some(self.meta[frame])
    }

    fn reset(&mut self) {
        self.block.fill(INVALID_TAG);
        self.meta.fill(BlockMeta::default());
    }
}

/// Read access to one lane's dead votes during a victim scan (both
/// halves borrowed once for the whole scan).
pub(crate) struct DeadVotes<'a> {
    trainer: &'a GhrpTrainer,
    column: &'a MetaColumn,
    fresh: bool,
}

impl DeadVotes<'_> {
    /// Whether the block in `frame` is considered dead — by a fresh table
    /// vote on its stored signature, or by its stored prediction bit.
    /// Empty frames are live.
    pub(crate) fn is_dead(&self, frame: usize) -> bool {
        if self.column.block[frame] == INVALID_TAG {
            return false;
        }
        let m = self.column.meta[frame];
        if self.fresh {
            self.trainer
                .tables
                .predict(m.signature, self.trainer.cfg.dead_threshold)
        } else {
            m.predicted_dead
        }
    }
}

/// Clonable handle to the GHRP predictor of one lane: a (possibly shared)
/// trainer plus the lane's own I-cache metadata column.
#[derive(Debug, Clone)]
pub struct SharedGhrp {
    trainer: Rc<RefCell<GhrpTrainer>>,
    column: Rc<RefCell<MetaColumn>>,
}

impl SharedGhrp {
    /// Create a fresh predictor with its own trainer.
    ///
    /// `icache_offset_bits` is the I-cache block-offset width: I-cache
    /// accesses enter the history at fetch-block granularity, so the low
    /// (always-zero) offset bits are shifted away first. The metadata
    /// column and the shadow array are sized when an I-cache geometry is
    /// attached ([`SharedGhrp::attach_icache`], which
    /// [`crate::GhrpPolicy::new`] calls).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`GhrpConfig::validate`].
    pub fn new(cfg: GhrpConfig, icache_offset_bits: u32) -> SharedGhrp {
        SharedGhrp {
            trainer: Rc::new(RefCell::new(GhrpTrainer::new(cfg, icache_offset_bits))),
            column: Rc::new(RefCell::new(MetaColumn::default())),
        }
    }

    /// A handle for another lane: same trainer, own (empty) metadata
    /// column. Every lane sharing a trainer must see the same demand
    /// access stream on an I-cache of the same geometry, which holds for
    /// the engine's lanes when [`GhrpConfig::shadow_training`] is on.
    #[must_use]
    pub fn new_lane(&self) -> SharedGhrp {
        SharedGhrp {
            trainer: Rc::clone(&self.trainer),
            column: Rc::new(RefCell::new(MetaColumn::default())),
        }
    }

    /// Whether `self` and `other` step the same trainer.
    pub fn shares_trainer_with(&self, other: &SharedGhrp) -> bool {
        Rc::ptr_eq(&self.trainer, &other.trainer)
    }

    /// Size this handle's metadata column (and the trainer's shadow
    /// array) for the I-cache geometry `icache`, dropping any metadata.
    pub fn attach_icache(&self, icache: CacheConfig) {
        self.trainer.borrow_mut().attach(icache);
        *self.column.borrow_mut() = MetaColumn::new(icache);
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> GhrpConfig {
        self.trainer.borrow().cfg
    }

    /// Compute the signature for an I-cache access to `block_addr` under
    /// the *current* speculative history (before the access updates it).
    pub fn icache_signature(&self, block_addr: u64) -> u16 {
        let t = self.trainer.borrow();
        t.signature(block_addr >> t.icache_shift)
    }

    /// Compute a signature for an arbitrary (pre-shifted) PC — the BTB
    /// fallback when the branch's I-cache block has no metadata.
    pub fn pc_signature(&self, shifted_pc: u64) -> u16 {
        self.trainer.borrow().signature(shifted_pc)
    }

    /// Advance the speculative history with an I-cache access.
    pub fn update_history(&self, block_addr: u64) {
        let mut t = self.trainer.borrow_mut();
        let pc = block_addr >> t.icache_shift;
        t.history.update_speculative(pc);
    }

    /// Hot-path demand access number `seen` (1-based, counted by the
    /// calling policy) to `block_addr` in I-cache set `set`: the first
    /// lane to reach access `seen` steps the trainer — signature from the
    /// history excluding this access, history update, shadow training —
    /// and every lane reads the access's signature back.
    pub(crate) fn access(&self, seen: u64, block_addr: u64, set: usize) -> u16 {
        let mut t = self.trainer.borrow_mut();
        if t.steps < seen {
            debug_assert_eq!(t.steps + 1, seen, "a lane skipped a GHRP trainer step");
            t.step(block_addr, set);
        } else {
            debug_assert!(
                t.steps == seen && t.last_block == block_addr,
                "GHRP lanes out of lockstep: trainer at access {} ({:#x}), lane at {seen} ({block_addr:#x})",
                t.steps,
                t.last_block
            );
        }
        t.sig
    }

    /// Hot-path re-tag on an I-cache hit in `frame` (Algorithm 1 lines
    /// 21–25): optionally train the block's old signature live
    /// (`train_live`, i.e. direct-training mode), then store the current
    /// access's signature `sig` with its fresh dead vote. Returns the
    /// previous metadata, if `frame` held `block_addr`.
    pub(crate) fn rehit(
        &self,
        frame: usize,
        block_addr: u64,
        sig: u16,
        train_live: bool,
    ) -> Option<BlockMeta> {
        let mut c = self.column.borrow_mut();
        let old = c.at(frame, block_addr);
        let dead = if train_live {
            let mut t = self.trainer.borrow_mut();
            if let Some(o) = old {
                t.train(o.signature, false);
            }
            t.dead
        } else {
            self.trainer.borrow().dead
        };
        c.block[frame] = block_addr;
        c.meta[frame] = BlockMeta {
            signature: sig,
            predicted_dead: dead,
        };
        old
    }

    /// Hot-path fill: `frame` now holds `block_addr`, tagged with the
    /// current access's signature `sig` and its fresh dead vote.
    pub(crate) fn fill(&self, frame: usize, block_addr: u64, sig: u16) {
        let dead = self.trainer.borrow().dead;
        let mut c = self.column.borrow_mut();
        c.block[frame] = block_addr;
        c.meta[frame] = BlockMeta {
            signature: sig,
            predicted_dead: dead,
        };
    }

    /// Hot-path eviction of `block_addr` from `frame` (Algorithm 1 lines
    /// 15–17): drop its metadata, optionally training its signature dead
    /// (`train_dead`, i.e. direct-training mode). Returns the dropped
    /// metadata.
    pub(crate) fn evict(
        &self,
        frame: usize,
        block_addr: u64,
        train_dead: bool,
    ) -> Option<BlockMeta> {
        let mut c = self.column.borrow_mut();
        let old = c.at(frame, block_addr);
        if old.is_some() {
            c.block[frame] = INVALID_TAG;
        }
        if train_dead {
            if let Some(o) = old {
                self.trainer.borrow_mut().train(o.signature, true);
            }
        }
        old
    }

    /// The current access's vote under the I-cache bypass threshold.
    pub(crate) fn bypass_vote(&self) -> bool {
        self.trainer.borrow().bypass
    }

    /// Run `scan` with read access to this lane's per-frame dead votes
    /// (see [`DeadVotes::is_dead`]; `fresh` re-votes each stored
    /// signature instead of reading its stored bit).
    pub(crate) fn with_dead_votes<R>(
        &self,
        fresh: bool,
        scan: impl FnOnce(&DeadVotes<'_>) -> R,
    ) -> R {
        let t = self.trainer.borrow();
        let c = self.column.borrow();
        scan(&DeadVotes {
            trainer: &t,
            column: &c,
            fresh,
        })
    }

    /// Hot-path BTB access prediction (§III.E): look up the I-cache
    /// metadata for the branch's block; fall back to a PC signature when
    /// the block is absent. Returns `(used_fallback, predicted_dead)`
    /// under the BTB's own threshold.
    pub fn btb_access_prediction(&self, block_addr: u64, shifted_pc: u64) -> (bool, bool) {
        let t = self.trainer.borrow();
        let (fallback, sig) = match self.column.borrow().get(block_addr) {
            Some(m) => (false, m.signature),
            None => (true, t.signature(shifted_pc)),
        };
        (fallback, t.tables.predict(sig, t.cfg.btb_dead_threshold))
    }

    /// Hot-path BTB victim scan: dead prediction for the BTB entry whose
    /// branch lives at `shifted_pc` in I-cache block `block_addr`. When
    /// the block has no metadata, `absent_is_dead` short-circuits the
    /// vote (see [`GhrpConfig::btb_absent_block_is_dead`]).
    pub fn btb_victim_is_dead(
        &self,
        block_addr: u64,
        shifted_pc: u64,
        absent_is_dead: bool,
    ) -> bool {
        let t = self.trainer.borrow();
        let sig = match self.column.borrow().get(block_addr) {
            Some(m) => m.signature,
            None if absent_is_dead => return true,
            None => t.signature(shifted_pc),
        };
        t.tables.predict(sig, t.cfg.btb_dead_threshold)
    }

    /// Advance the retired (non-speculative) history with a committed
    /// access.
    pub fn retire(&self, block_addr: u64) {
        let mut t = self.trainer.borrow_mut();
        let pc = block_addr >> t.icache_shift;
        t.history.retire(pc);
    }

    /// Branch-misprediction recovery: restore the speculative history
    /// from the retired one (§III.F).
    pub fn recover(&self) {
        self.trainer.borrow_mut().history.recover();
    }

    /// Current speculative history value (diagnostics/tests).
    pub fn speculative_history(&self) -> u64 {
        self.trainer.borrow().history.speculative()
    }

    /// Dead-block prediction for replacement (I-cache threshold).
    pub fn predict_dead(&self, sig: u16) -> bool {
        let t = self.trainer.borrow();
        t.tables.predict(sig, t.cfg.dead_threshold)
    }

    /// Dead-block prediction for bypass (higher threshold).
    pub fn predict_bypass(&self, sig: u16) -> bool {
        let t = self.trainer.borrow();
        t.tables.predict(sig, t.cfg.bypass_threshold)
    }

    /// Dead-entry prediction for the BTB (independently tuned threshold,
    /// §III.E point 4).
    pub fn predict_btb_dead(&self, sig: u16) -> bool {
        let t = self.trainer.borrow();
        t.tables.predict(sig, t.cfg.btb_dead_threshold)
    }

    /// Train the tables: the block carrying `sig` proved dead (eviction
    /// without reuse) or live (reuse).
    pub fn train(&self, sig: u16, is_dead: bool) {
        self.trainer.borrow_mut().train(sig, is_dead);
    }

    /// Look up the I-cache metadata for `block_addr` (a scan of its set).
    pub fn meta(&self, block_addr: u64) -> Option<BlockMeta> {
        self.column.borrow().get(block_addr)
    }

    /// Install or update metadata for `block_addr`, as an I-cache fill
    /// would: in the block's frame if it is resident, else in the first
    /// empty frame of its set. Returns `false` (storing nothing) when the
    /// set is full or no I-cache is attached.
    pub fn set_meta(&self, block_addr: u64, meta: BlockMeta) -> bool {
        let mut c = self.column.borrow_mut();
        let base = c.set_base(block_addr);
        let frame = c
            .frame_of(block_addr)
            .or_else(|| (base..base + c.ways).find(|&f| c.block[f] == INVALID_TAG));
        let Some(f) = frame else {
            return false;
        };
        c.block[f] = block_addr;
        c.meta[f] = meta;
        true
    }

    /// Remove and return metadata for an evicted I-cache block.
    pub fn take_meta(&self, block_addr: u64) -> Option<BlockMeta> {
        let mut c = self.column.borrow_mut();
        let f = c.frame_of(block_addr)?;
        c.block[f] = INVALID_TAG;
        Some(c.meta[f])
    }

    /// Restore the predictor to its freshly-constructed state, reusing
    /// every allocation: counters zeroed, both history registers cleared,
    /// the shadow array emptied, and this lane's metadata dropped.
    ///
    /// Idempotent, so every lane sharing a trainer may reset it; all of
    /// them must do so before the next access.
    pub fn reset(&self) {
        self.trainer.borrow_mut().reset();
        self.column.borrow_mut().reset();
    }

    /// Number of blocks currently carrying metadata.
    pub fn meta_len(&self) -> usize {
        self.column
            .borrow()
            .block
            .iter()
            .filter(|&&b| b != INVALID_TAG)
            .count()
    }

    /// Fraction of saturated counters (diagnostics).
    pub fn table_saturation(&self) -> f64 {
        self.trainer.borrow().tables.saturation()
    }

    /// Validate the shared predictor state: table counters within
    /// `[0, counter_max]` and in-bounds skewed indices
    /// ([`PredictionTables::check_invariants`]), the dual-history width
    /// and exact misprediction recovery
    /// ([`SpeculativeHistory::check_invariants`], §III.F), and the shadow
    /// array's LRU stack.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let t = self.trainer.borrow();
        t.tables.check_invariants()?;
        t.history.check_invariants()?;
        if t.shadow.ways > 0 {
            check_lru_stack(&t.shadow.stamp, t.shadow.ways, t.shadow.clock)?;
        }
        Ok(())
    }

    /// Validate the metadata column: every resident block sits in its
    /// own set, exactly once, so the set scan the BTB uses finds its
    /// metadata.
    ///
    /// # Errors
    ///
    /// Returns a description of the first resident frame whose metadata
    /// the lookup cannot reach.
    pub(crate) fn check_metadata(&self) -> Result<(), String> {
        let c = self.column.borrow();
        for (frame, &b) in c.block.iter().enumerate() {
            if b != INVALID_TAG && c.frame_of(b) != Some(frame) {
                return Err(format!(
                    "frame {frame}: resident block {b:#x} has no reachable metadata"
                ));
            }
        }
        Ok(())
    }

    /// Move the shadow array's clock (wrap tests only).
    #[cfg(test)]
    pub(crate) fn force_shadow_clock(&self, clock: u32) {
        self.trainer.borrow_mut().shadow.clock = clock;
    }

    /// Overwrite the block recorded in `frame` (invariant tests only).
    #[cfg(test)]
    pub(crate) fn corrupt_frame(&self, frame: usize, block_addr: u64) {
        self.column.borrow_mut().block[frame] = block_addr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> SharedGhrp {
        SharedGhrp::new(GhrpConfig::default(), 6)
    }

    fn attached() -> SharedGhrp {
        let s = shared();
        s.attach_icache(CacheConfig::with_sets(4, 2, 64).unwrap());
        s
    }

    #[test]
    fn clones_share_state() {
        let a = attached();
        let b = a.clone();
        a.update_history(0x40);
        assert_eq!(a.speculative_history(), b.speculative_history());
        assert!(a.set_meta(
            0x40,
            BlockMeta {
                signature: 7,
                predicted_dead: false,
            },
        ));
        assert_eq!(b.meta(0x40).unwrap().signature, 7);
    }

    #[test]
    fn lanes_share_the_trainer_but_not_metadata() {
        let a = attached();
        let b = a.new_lane();
        b.attach_icache(CacheConfig::with_sets(4, 2, 64).unwrap());
        assert!(a.shares_trainer_with(&b));
        assert!(!a.shares_trainer_with(&shared()));
        // The first lane to reach access 1 steps the trainer; the second
        // reads the same signature without stepping again.
        let sig = a.access(1, 0x1000, 0);
        let history = a.speculative_history();
        assert_eq!(b.access(1, 0x1000, 0), sig);
        assert_eq!(b.speculative_history(), history);
        a.fill(0, 0x1000, sig);
        assert!(a.meta(0x1000).is_some());
        assert_eq!(b.meta(0x1000), None);
    }

    #[test]
    fn unattached_handle_stores_no_metadata() {
        let s = shared();
        assert!(!s.set_meta(0x40, BlockMeta::default()));
        assert_eq!(s.meta(0x40), None);
        assert_eq!(s.meta_len(), 0);
    }

    #[test]
    fn signature_uses_block_granularity() {
        let s = shared();
        // Same block, different offsets → same signature.
        assert_eq!(s.icache_signature(0x1000), s.icache_signature(0x103f));
        assert_ne!(s.icache_signature(0x1000), s.icache_signature(0x1040));
    }

    #[test]
    fn signature_changes_with_history() {
        let s = shared();
        let before = s.icache_signature(0x1000);
        s.update_history(0x2040);
        let after = s.icache_signature(0x1000);
        assert_ne!(before, after);
    }

    #[test]
    fn train_and_predict_roundtrip() {
        let s = shared();
        let cfg = s.config();
        let sig = s.icache_signature(0x8000);
        assert!(!s.predict_dead(sig));
        for _ in 0..cfg.dead_threshold {
            s.train(sig, true);
        }
        assert!(s.predict_dead(sig));
        // The bypass threshold is strictly higher than the dead threshold.
        assert!(!s.predict_bypass(sig));
        for _ in cfg.dead_threshold..cfg.bypass_threshold {
            s.train(sig, true);
        }
        assert!(s.predict_bypass(sig));
    }

    #[test]
    fn meta_lifecycle() {
        let s = attached();
        assert_eq!(s.meta(0x40), None);
        assert!(s.set_meta(
            0x40,
            BlockMeta {
                signature: 0xAB,
                predicted_dead: true,
            },
        ));
        assert_eq!(s.meta_len(), 1);
        let taken = s.take_meta(0x40).unwrap();
        assert!(taken.predicted_dead);
        assert_eq!(s.meta_len(), 0);
        assert_eq!(s.take_meta(0x40), None);
    }

    #[test]
    fn set_meta_refuses_a_full_set() {
        // 4 sets × 2 ways of 64 B: 0x000, 0x100 and 0x200 share set 0.
        let s = attached();
        assert!(s.set_meta(0x000, BlockMeta::default()));
        assert!(s.set_meta(0x100, BlockMeta::default()));
        assert!(!s.set_meta(0x200, BlockMeta::default()));
        assert!(s.set_meta(0x100, BlockMeta::default()), "resident: update");
        assert!(s.check_metadata().is_ok());
    }

    #[test]
    fn recovery_matches_retired_stream() {
        let s = shared();
        s.update_history(0x40);
        s.retire(0x40);
        s.update_history(0x80); // speculative-only (wrong path)
        s.recover();
        let expected = {
            let t = shared();
            t.update_history(0x40);
            t.speculative_history()
        };
        assert_eq!(s.speculative_history(), expected);
    }

    #[test]
    fn reset_restores_a_fresh_trainer() {
        let s = attached();
        let fresh = attached();
        for (i, b) in [0x000u64, 0x100, 0x200, 0x000, 0x300].iter().enumerate() {
            s.access(i as u64 + 1, *b, 0);
        }
        s.retire(0x40);
        s.reset();
        for (i, b) in [0x040u64, 0x140, 0x040].iter().enumerate() {
            let n = i as u64 + 1;
            assert_eq!(s.access(n, *b, 1), fresh.access(n, *b, 1));
            assert_eq!(s.bypass_vote(), fresh.bypass_vote());
        }
        assert_eq!(s.speculative_history(), fresh.speculative_history());
        assert!(s.check_invariants().is_ok());
    }
}
