//! Property-based tests for the BTB and the GHRP BTB coupling.

#![forbid(unsafe_code)]

use ghrp_repro::btb::{btb_config, Btb, GhrpBtbPolicy};
use ghrp_repro::cache::policy::{Lru, ValidatingPolicy};
use ghrp_repro::ghrp::{GhrpConfig, SharedGhrp};
use proptest::prelude::*;

/// Strategy: a stream of (branch pc, target) pairs over a modest PC range.
fn arb_branches() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..512, 0u64..4096), 1..300).prop_map(|v| {
        v.into_iter()
            .map(|(pc4, t4)| (0x1_0000 + pc4 * 4, 0x8_0000 + t4 * 4))
            .collect()
    })
}

proptest! {
    /// BTB bookkeeping invariants hold for any taken-branch stream:
    /// lookups = hits + misses, a hit always returns the latest target,
    /// and a predicted target (when present) is the last one installed.
    #[test]
    fn btb_bookkeeping(branches in arb_branches()) {
        let cfg = btb_config(64, 4).unwrap();
        let mut btb = Btb::new(cfg, ValidatingPolicy::new(Lru::new(cfg)));
        let mut last_target = std::collections::HashMap::new();
        for &(pc, target) in &branches {
            if let Some(pred) = btb.predict(pc) {
                // Any prediction must be the most recent target installed.
                prop_assert_eq!(pred, last_target[&pc]);
            }
            btb.lookup_and_update(pc, target);
            last_target.insert(pc, target);
            // Immediately after an update the entry is resident.
            prop_assert_eq!(btb.predict(pc), Some(target));
        }
        let s = btb.stats();
        prop_assert_eq!(s.hits + s.misses, s.lookups);
        prop_assert_eq!(s.lookups, branches.len() as u64);
    }

    /// The GHRP-coupled BTB never panics or violates bookkeeping for any
    /// interleaving of branch updates and (simulated) I-cache metadata.
    #[test]
    fn ghrp_btb_robust_under_arbitrary_metadata(
        branches in arb_branches(),
        sigs in prop::collection::vec(any::<u16>(), 1..50),
    ) {
        let cfg = btb_config(64, 4).unwrap();
        let gcfg = GhrpConfig {
            btb_enable_bypass: false,
            ..GhrpConfig::default()
        };
        let shared = SharedGhrp::new(gcfg, 6);
        // The metadata column is laid out for a 64-set I-cache of 64-byte
        // blocks, so each of the (< 64) blocks below gets its own set.
        shared.attach_icache(ghrp_repro::cache::CacheConfig::with_sets(64, 4, 64).unwrap());
        // Install arbitrary block metadata / training, as the I-cache side
        // would.
        for (i, &sig) in sigs.iter().enumerate() {
            let block = (i as u64) * 64;
            let meta = ghrp_repro::ghrp::BlockMeta { signature: sig, predicted_dead: i % 2 == 0 };
            prop_assert!(shared.set_meta(block, meta));
            prop_assert_eq!(shared.meta(block), Some(meta));
            shared.train(sig, i % 3 == 0);
        }
        let mut btb = Btb::new(cfg, ValidatingPolicy::new(GhrpBtbPolicy::new(cfg, shared, 64)));
        for &(pc, target) in &branches {
            btb.lookup_and_update(pc, target);
            prop_assert_eq!(btb.predict(pc), Some(target));
        }
        let s = btb.stats();
        prop_assert_eq!(s.hits + s.misses, s.lookups);
    }

    /// With bypass enabled, a bypassed allocation leaves no entry, and
    /// the miss is still counted.
    #[test]
    fn ghrp_btb_bypass_counts_misses(pcs in prop::collection::vec(0u64..64, 1..100)) {
        let cfg = btb_config(32, 2).unwrap();
        let gcfg = GhrpConfig {
            btb_enable_bypass: true,
            btb_dead_threshold: 1,
            ..GhrpConfig::default()
        };
        let shared = SharedGhrp::new(gcfg, 6);
        // Saturate every signature dead so the PC fallback predicts dead
        // and everything bypasses.
        for sig in 0..=u16::MAX {
            shared.train(sig, true);
            if usize::from(sig) > 1 << 14 {
                break; // enough coverage for the hashed indices
            }
        }
        let mut btb = Btb::new(cfg, ValidatingPolicy::new(GhrpBtbPolicy::new(cfg, shared, 64)));
        for &pc4 in &pcs {
            btb.lookup_and_update(0x4_0000 + pc4 * 4, 0x9000);
        }
        let s = btb.stats();
        prop_assert_eq!(s.hits + s.misses, s.lookups);
    }
}
