//! Hashed perceptron predictor (Tarjan & Skadron, TACO 2005).
//!
//! Merges gshare, path-based and perceptron prediction: instead of one
//! weight per history bit, *segments* of the global outcome history and the
//! path history are hashed (together with the PC) to index several weight
//! tables; the prediction is the sign of the summed weights. Training is
//! perceptron-style — on a misprediction, or while the magnitude of the sum
//! is below an adaptively trained threshold, every selected weight moves
//! toward the outcome.
//!
//! Each table hashes its history segments *folded* to the table's index
//! width. As in hardware, the folds are registers that advance by rotates
//! and XORs per branch instead of being recomputed from the raw histories
//! (DESIGN.md §9.2).

#![forbid(unsafe_code)]

use fe_cache::index::mask;

use crate::DirectionPredictor;

/// Path-history bits shifted in per branch (PC bits 2 to 4).
const PATH_BITS: u32 = 3;
/// Mask of one branch's path-history bits.
const PATH_MASK: u64 = (1 << PATH_BITS) - 1;
/// Width of the raw global and path history registers.
const HISTORY_BITS: u32 = 64;
/// Longest path-history window: the 21 most recent branches.
const MAX_PATH_WINDOW: u32 = 63;
/// Smallest table whose folded registers hold one path shift.
const MIN_TABLE_ENTRIES: usize = 1 << PATH_BITS;

/// Configuration for [`HashedPerceptron`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerceptronConfig {
    /// Number of weight tables (1 to 8).
    pub num_tables: usize,
    /// Entries per table (a power of two, at least 8).
    pub table_entries: usize,
    /// Weight saturation magnitude (symmetric, fits 8-bit weights).
    pub weight_max: i16,
    /// History length (in branches, at most 64) seen by each table.
    /// Table 0 conventionally uses length 0 (bias/PC-only, the "gshare
    /// with zero history" component).
    pub history_lengths: [u32; 8],
    /// Initial training threshold.
    pub initial_theta: i32,
}

impl Default for PerceptronConfig {
    fn default() -> PerceptronConfig {
        PerceptronConfig {
            num_tables: 8,
            table_entries: 4096,
            weight_max: 127,
            // Roughly geometric lengths, capped by the 64-bit registers.
            history_lengths: [0, 3, 6, 10, 16, 25, 40, 60],
            initial_theta: 18,
        }
    }
}

/// How one table's folded registers advance, fixed at construction so
/// the per-branch update needs no `%`.
///
/// A window of `L` history bits folds to `b` index bits with bit `i` at
/// position `i mod b`. Shifting `s` new bits in rotates the register left
/// by `s`; the `s` bits that leave the window land, after that rotate, at
/// `L mod b` onward, where XOR-ing them again cancels them. An unused or
/// zero-length window has `live` zero and stays zero.
#[derive(Debug, Clone, Copy, Default)]
struct FoldShape {
    /// The low `b` bits when the table reads history, else 0.
    live: u64,
    /// The global-history bit that leaves the window next (bit `L - 1`).
    g_out: u64,
    /// Left rotation taking that bit to `L mod b`.
    g_out_rot: u32,
    /// The path-history bits that leave the window next (the top three
    /// of the path window `P = min(3L, 63)`).
    p_out: u64,
    /// Left rotation taking the lowest of them to `P mod b`.
    p_out_rot: u32,
}

impl FoldShape {
    fn new(len: u32, bits: u32) -> FoldShape {
        if len == 0 {
            return FoldShape::default();
        }
        let path = (len * PATH_BITS).min(MAX_PATH_WINDOW);
        FoldShape {
            live: (1 << bits) - 1,
            g_out: 1 << (len - 1),
            g_out_rot: (len % bits).wrapping_sub(len - 1) % HISTORY_BITS,
            p_out: PATH_MASK << (path - PATH_BITS),
            p_out_rot: (path % bits).wrapping_sub(path - PATH_BITS) % HISTORY_BITS,
        }
    }
}

/// The hashed perceptron predictor.
#[derive(Debug, Clone)]
pub struct HashedPerceptron {
    cfg: PerceptronConfig,
    /// Every table's weights, table-major: table `t` owns
    /// `t * table_entries .. (t + 1) * table_entries`.
    weights: Vec<i16>,
    /// Global outcome history (1 bit per branch).
    ghist: u64,
    /// Path history (3 low PC bits per branch).
    phist: u64,
    /// Per table: `ghist` folded over the table's window.
    gfold: [u64; 8],
    /// Per table: `phist` folded over the table's window.
    pfold: [u64; 8],
    /// Per table: how `gfold` and `pfold` advance.
    shapes: [FoldShape; 8],
    /// Index bits `b` per table.
    index_bits: u32,
    /// Adaptive threshold (O-GEHL style).
    theta: i32,
    /// Threshold-training counter.
    tc: i32,
}

impl HashedPerceptron {
    /// Create a predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `table_entries` is not a power of two of at least 8,
    /// `num_tables` is not in `1..=8`, a used history length exceeds 64,
    /// or `weight_max` is negative or `i16::MAX`.
    pub fn new(cfg: PerceptronConfig) -> HashedPerceptron {
        assert!(
            cfg.table_entries.is_power_of_two() && cfg.table_entries >= MIN_TABLE_ENTRIES,
            "table_entries must be a power of two >= {MIN_TABLE_ENTRIES}, got {}",
            cfg.table_entries
        );
        assert!(
            (1..=8).contains(&cfg.num_tables),
            "num_tables must be 1..=8"
        );
        let lengths = &cfg.history_lengths[..cfg.num_tables];
        assert!(
            lengths.iter().all(|&len| len <= HISTORY_BITS),
            "history_lengths must be at most {HISTORY_BITS}, got {lengths:?}"
        );
        assert!(
            (0..i16::MAX).contains(&cfg.weight_max),
            "weight_max must be in 0..{}, got {}",
            i16::MAX,
            cfg.weight_max
        );
        let bits = cfg.table_entries.trailing_zeros();
        let mut shapes = [FoldShape::default(); 8];
        for (shape, &len) in shapes.iter_mut().zip(lengths) {
            *shape = FoldShape::new(len, bits);
        }
        HashedPerceptron {
            weights: vec![0i16; cfg.table_entries.saturating_mul(cfg.num_tables)],
            ghist: 0,
            phist: 0,
            gfold: [0; 8],
            pfold: [0; 8],
            shapes,
            index_bits: bits,
            theta: cfg.initial_theta,
            tc: 0,
            cfg,
        }
    }

    /// Position of table `t`'s weight for `pc` in `weights`.
    #[inline]
    fn slot(&self, t: usize, pc: u64) -> usize {
        let entries = self.cfg.table_entries;
        let h = (pc >> 2) ^ (self.gfold[t] << 1) ^ self.pfold[t] ^ ((t as u64) << 5);
        // Final avalanche so adjacent PCs spread across the table.
        let h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        t * entries + mask(h >> 13, entries)
    }

    fn sum(&self, pc: u64) -> i32 {
        (0..self.cfg.num_tables)
            .map(|t| i32::from(self.weights[self.slot(t, pc)]))
            .sum()
    }

    /// Shift one branch into both histories and advance every folded
    /// register to match: rotate it by the shift (the bits rotated past
    /// `b` come back in at the bottom), XOR in the entering bits, and XOR
    /// the leaving bits out again at their folded positions. A leaving
    /// path bit rotated past `b` wraps around the same way.
    #[inline]
    fn advance(&mut self, pc: u64, taken: bool) {
        let bits = self.index_bits;
        let (ghist, phist) = (self.ghist, self.phist);
        let g_in = u64::from(taken);
        let p_in = (pc >> 2) & PATH_MASK;
        let regs = self.gfold.iter_mut().zip(&mut self.pfold);
        for ((g, p), s) in regs.zip(&self.shapes) {
            let g_out = (ghist & s.g_out).rotate_left(s.g_out_rot);
            *g = ((*g << 1) ^ (*g >> (bits - 1)) ^ g_out ^ g_in) & s.live;
            let p_out = (phist & s.p_out).rotate_left(s.p_out_rot);
            *p = ((*p << PATH_BITS) ^ (*p >> (bits - PATH_BITS)) ^ p_out ^ (p_out >> bits) ^ p_in)
                & s.live;
        }
        self.ghist = (ghist << 1) | g_in;
        self.phist = (phist << PATH_BITS) | p_in;
    }

    /// Current adaptive threshold (diagnostics).
    pub fn theta(&self) -> i32 {
        self.theta
    }

    /// Restore the predictor to its freshly-constructed state, reusing
    /// the weight-table allocation.
    pub fn reset(&mut self) {
        self.weights.fill(0);
        self.ghist = 0;
        self.phist = 0;
        self.gfold = [0; 8];
        self.pfold = [0; 8];
        self.theta = self.cfg.initial_theta;
        self.tc = 0;
    }

    /// Predict `pc` and train on the actual `taken` outcome in one step,
    /// returning the prediction.
    ///
    /// Identical to [`DirectionPredictor::predict`] followed by
    /// [`DirectionPredictor::update`], but each table's weight is located
    /// once instead of twice. The simulator observes every conditional
    /// branch through this call.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let n = self.cfg.num_tables;
        let mut slots = [0usize; 8];
        let mut sum = 0i32;
        for (t, slot) in slots.iter_mut().enumerate().take(n) {
            *slot = self.slot(t, pc);
            sum += i32::from(self.weights[*slot]);
        }
        let predicted = sum >= 0;
        let mispredicted = predicted != taken;
        let low_confidence = sum.abs() <= self.theta;
        if mispredicted || low_confidence {
            // Weights stay within ±weight_max, so a step toward the
            // outcome can only ever cross the bound it moves toward.
            let step = if taken { 1 } else { -1 };
            let w_max = self.cfg.weight_max;
            for &slot in &slots[..n] {
                let w = &mut self.weights[slot];
                *w = (*w + step).clamp(-w_max, w_max);
            }
        }
        // Adaptive threshold training (Seznec): raise theta on
        // mispredictions, lower it when training fires with a correct,
        // low-confidence prediction.
        if mispredicted {
            self.tc += 1;
            if self.tc >= 32 {
                self.theta += 1;
                self.tc = 0;
            }
        } else if low_confidence {
            self.tc -= 1;
            if self.tc <= -32 {
                self.theta = (self.theta - 1).max(1);
                self.tc = 0;
            }
        }
        self.advance(pc, taken);
        predicted
    }
}

impl Default for HashedPerceptron {
    fn default() -> HashedPerceptron {
        HashedPerceptron::new(PerceptronConfig::default())
    }
}

impl DirectionPredictor for HashedPerceptron {
    fn predict(&self, pc: u64) -> bool {
        self.sum(pc) >= 0
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let _ = self.predict_and_update(pc, taken);
    }

    fn name(&self) -> String {
        "hashed-perceptron".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference fold: XOR the low `bits` bits of `x` together in
    /// `out_bits`-wide chunks, so bit `i` lands at `i mod out_bits`.
    fn fold(mut x: u64, bits: u32, out_bits: u32) -> u64 {
        if bits == 0 {
            return 0;
        }
        let mask = if bits >= 64 {
            u64::MAX
        } else {
            (1 << bits) - 1
        };
        x &= mask;
        let mut folded = 0u64;
        while x != 0 {
            folded ^= x & ((1 << out_bits) - 1);
            x >>= out_bits;
        }
        folded
    }

    /// Every used table's registers against the reference fold of the
    /// raw histories.
    fn registers_match_reference(p: &HashedPerceptron) -> Result<(), String> {
        let bits = p.index_bits;
        for t in 0..p.cfg.num_tables {
            let len = p.cfg.history_lengths[t];
            let want_g = fold(p.ghist, len, bits);
            let want_p = fold(p.phist, (len * 3).min(63), bits);
            if (p.gfold[t], p.pfold[t]) != (want_g, want_p) {
                return Err(format!(
                    "table {t} (len {len}, {bits} bits): folds {:#x}/{:#x}, \
                     reference {want_g:#x}/{want_p:#x}",
                    p.gfold[t], p.pfold[t]
                ));
            }
        }
        Ok(())
    }

    /// The predictor as it was before its folds became registers:
    /// per-table weight vectors, every index re-folded from the raw
    /// histories, and a branchy saturating update.
    struct Refolding {
        cfg: PerceptronConfig,
        weights: Vec<Vec<i16>>,
        ghist: u64,
        phist: u64,
        theta: i32,
        tc: i32,
    }

    impl Refolding {
        fn new(cfg: PerceptronConfig) -> Refolding {
            Refolding {
                weights: vec![vec![0; cfg.table_entries]; cfg.num_tables],
                ghist: 0,
                phist: 0,
                theta: cfg.initial_theta,
                tc: 0,
                cfg,
            }
        }

        fn index(&self, table: usize, pc: u64) -> usize {
            let bits = self.cfg.table_entries.trailing_zeros();
            let len = self.cfg.history_lengths[table];
            let g = fold(self.ghist, len, bits);
            let p = fold(self.phist, (len * 3).min(63), bits);
            let h = (pc >> 2) ^ (g << 1) ^ p ^ ((table as u64) << 5);
            let h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            mask(h >> 13, self.cfg.table_entries)
        }

        fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
            let n = self.cfg.num_tables;
            let idxs: Vec<usize> = (0..n).map(|t| self.index(t, pc)).collect();
            let sum: i32 = (0..n).map(|t| i32::from(self.weights[t][idxs[t]])).sum();
            let predicted = sum >= 0;
            let mispredicted = predicted != taken;
            if mispredicted || sum.abs() <= self.theta {
                for (t, &i) in idxs.iter().enumerate() {
                    let w = &mut self.weights[t][i];
                    if taken {
                        *w = (*w + 1).min(self.cfg.weight_max);
                    } else {
                        *w = (*w - 1).max(-self.cfg.weight_max);
                    }
                }
            }
            if mispredicted {
                self.tc += 1;
                if self.tc >= 32 {
                    self.theta += 1;
                    self.tc = 0;
                }
            } else if sum.abs() <= self.theta {
                self.tc -= 1;
                if self.tc <= -32 {
                    self.theta = (self.theta - 1).max(1);
                    self.tc = 0;
                }
            }
            self.ghist = (self.ghist << 1) | u64::from(taken);
            self.phist = (self.phist << 3) | ((pc >> 2) & 0x7);
            predicted
        }
    }

    /// Any accepted configuration: 1–8 tables, 8 to 4096 entries and
    /// every history length from 0 to 64.
    fn arb_config() -> impl Strategy<Value = PerceptronConfig> {
        (
            1usize..=8,
            0u32..=9,
            prop::collection::vec(0u32..=64, 8),
            0u32..=3,
        )
            .prop_map(|(num_tables, shift, lens, w)| {
                let mut history_lengths = [0u32; 8];
                history_lengths.copy_from_slice(&lens);
                PerceptronConfig {
                    num_tables,
                    table_entries: MIN_TABLE_ENTRIES << shift,
                    weight_max: [0, 1, 7, 127][w as usize],
                    history_lengths,
                    initial_theta: 18,
                }
            })
    }

    /// Branch streams over a handful of PCs, so tables revisit entries.
    fn arb_branches() -> impl Strategy<Value = Vec<(u64, bool)>> {
        prop::collection::vec(
            (0u64..64, any::<u64>(), any::<bool>())
                .prop_map(|(i, hi, taken)| ((hi << 40) | (i * 4), taken)),
            0..400,
        )
    }

    proptest! {
        #[test]
        fn folded_registers_equal_reference_fold(
            cfg in arb_config(),
            branches in arb_branches(),
        ) {
            let mut p = HashedPerceptron::new(cfg);
            for (pc, taken) in branches {
                let _ = p.predict_and_update(pc, taken);
                let checked = registers_match_reference(&p);
                prop_assert!(checked.is_ok(), "{checked:?}");
            }
        }

        #[test]
        fn predictions_and_weights_equal_the_refolding_predictor(
            cfg in arb_config(),
            branches in arb_branches(),
        ) {
            let mut p = HashedPerceptron::new(cfg);
            let mut r = Refolding::new(cfg);
            for (pc, taken) in branches {
                let peek = p.predict(pc);
                let got = p.predict_and_update(pc, taken);
                let want = r.predict_and_update(pc, taken);
                prop_assert_eq!((peek, got, p.theta, p.tc), (want, want, r.theta, r.tc));
            }
            prop_assert_eq!(p.weights, r.weights.concat());
        }
    }

    #[test]
    fn folded_registers_track_reference_over_long_runs() {
        // The smallest table, and one whose leaving path bits wrap
        // around the top of the register (`P mod b` = 3 of 4 bits).
        let narrow = |table_entries| PerceptronConfig {
            table_entries,
            history_lengths: [0, 1, 2, 20, 21, 22, 63, 64],
            ..PerceptronConfig::default()
        };
        for cfg in [
            PerceptronConfig::default(),
            narrow(MIN_TABLE_ENTRIES),
            narrow(16),
        ] {
            let mut p = HashedPerceptron::new(cfg);
            let mut x = 0x9E37_79B9_u64;
            for step in 0..50_000 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let _ = p.predict_and_update(x >> 20, x >> 63 == 1);
                if let Err(why) = registers_match_reference(&p) {
                    panic!("step {step}: {why}");
                }
            }
        }
    }

    #[test]
    fn reset_clears_the_folded_registers() {
        let mut p = HashedPerceptron::default();
        for i in 0..100u64 {
            let _ = p.predict_and_update(0x1000 + i * 4, i % 3 == 0);
        }
        p.reset();
        let fresh = HashedPerceptron::default();
        assert_eq!((p.gfold, p.pfold), (fresh.gfold, fresh.pfold));
        assert_eq!((p.ghist, p.phist, p.theta), (0, 0, fresh.theta));
        assert!(p.weights.iter().all(|&w| w == 0));
    }

    #[test]
    fn learns_long_period_pattern() {
        // Period-7 pattern: needs real history capacity.
        let pattern = [true, true, false, true, false, false, true];
        let mut p = HashedPerceptron::default();
        let mut correct = 0;
        let total = 7000;
        for i in 0..total {
            let taken = pattern[i % 7];
            if p.predict(0x1234) == taken {
                correct += 1;
            }
            p.update(0x1234, taken);
        }
        let acc = f64::from(correct) / total as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn learns_correlated_branches() {
        // Branch B's outcome equals branch A's previous outcome.
        let mut p = HashedPerceptron::default();
        let mut a_prev = false;
        let mut correct = 0;
        let total = 4000;
        for i in 0..total {
            let a = (i / 3) % 2 == 0;
            let _ = p.predict(0x100);
            p.update(0x100, a);
            let b = a_prev;
            if p.predict(0x200) == b {
                correct += 1;
            }
            p.update(0x200, b);
            a_prev = a;
        }
        let acc = f64::from(correct) / f64::from(total);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn weights_saturate() {
        let cfg = PerceptronConfig {
            weight_max: 7,
            ..PerceptronConfig::default()
        };
        let mut p = HashedPerceptron::new(cfg);
        for _ in 0..1000 {
            p.update(0x40, true);
        }
        assert!(p.weights.iter().all(|&w| (-7..=7).contains(&w)));
    }

    #[test]
    fn theta_adapts_upward_under_noise() {
        let mut p = HashedPerceptron::default();
        let before = p.theta();
        // Random-ish (incompressible) outcomes force mispredictions.
        let mut x = 0x1234_5678_u64;
        for i in 0..20_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let taken = (x >> 62) & 1 == 1;
            let _ = p.predict(0x1000 + (i % 16) * 4);
            p.update(0x1000 + (i % 16) * 4, taken);
        }
        assert!(p.theta() > before, "theta {} -> {}", before, p.theta());
    }

    #[test]
    fn fold_handles_extremes() {
        assert_eq!(fold(0xFFFF, 0, 12), 0);
        assert_eq!(fold(0xABC, 12, 12), 0xABC);
        let f = fold(u64::MAX, 64, 12);
        assert!(f < 4096);
    }

    #[test]
    #[should_panic(expected = "num_tables")]
    fn zero_tables_panics() {
        let cfg = PerceptronConfig {
            num_tables: 0,
            ..PerceptronConfig::default()
        };
        let _ = HashedPerceptron::new(cfg);
    }

    /// One entry per table means zero index bits: nothing to fold into.
    #[test]
    #[should_panic(expected = "table_entries")]
    fn single_entry_tables_panic() {
        let cfg = PerceptronConfig {
            table_entries: 1,
            ..PerceptronConfig::default()
        };
        let _ = HashedPerceptron::new(cfg);
    }

    /// Four entries is two index bits, too narrow for a 3-bit path shift.
    #[test]
    #[should_panic(expected = "table_entries")]
    fn tables_narrower_than_a_path_shift_panic() {
        let cfg = PerceptronConfig {
            table_entries: 4,
            ..PerceptronConfig::default()
        };
        let _ = HashedPerceptron::new(cfg);
    }

    #[test]
    #[should_panic(expected = "table_entries")]
    fn non_power_of_two_tables_panic() {
        let cfg = PerceptronConfig {
            table_entries: 1000,
            ..PerceptronConfig::default()
        };
        let _ = HashedPerceptron::new(cfg);
    }

    #[test]
    #[should_panic(expected = "history_lengths")]
    fn history_longer_than_the_register_panics() {
        let mut cfg = PerceptronConfig::default();
        cfg.history_lengths[7] = 65;
        let _ = HashedPerceptron::new(cfg);
    }

    #[test]
    fn unused_history_lengths_are_not_checked() {
        let mut cfg = PerceptronConfig {
            num_tables: 4,
            ..PerceptronConfig::default()
        };
        cfg.history_lengths[7] = 1000;
        let mut p = HashedPerceptron::new(cfg);
        let _ = p.predict_and_update(0x40, true);
    }

    #[test]
    #[should_panic(expected = "weight_max")]
    fn negative_weight_bound_panics() {
        let cfg = PerceptronConfig {
            weight_max: -1,
            ..PerceptronConfig::default()
        };
        let _ = HashedPerceptron::new(cfg);
    }
}
