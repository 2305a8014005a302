//! Set-associative cache framework for front-end simulation.
//!
//! This crate provides the cache substrate that the GHRP paper's evaluation
//! rests on:
//!
//! * [`CacheConfig`] — geometry (sets × ways × block size) and address
//!   slicing.
//! * [`Cache`] — a tag-array simulator parameterized by a
//!   [`ReplacementPolicy`]. The cache owns tags and validity; the *policy*
//!   owns all recency/prediction metadata, decides bypass on misses, and
//!   chooses victims. This split is what lets predictive policies like GHRP
//!   and SDBP (implemented in sibling crates) carry per-block signatures
//!   and prediction bits.
//! * Baseline policies: [`policy::Lru`], [`policy::Fifo`],
//!   [`policy::RandomPolicy`], [`policy::Srrip`], and the oracle-ish
//!   [`policy::BeladyOpt`] for offline bound studies.
//! * [`EfficiencyTracker`] — per-frame live-time accounting reproducing the
//!   paper's Figure 1/5 heat maps (cache efficiency = fraction of resident
//!   time a block is live, i.e. still has a future use).
//!
//! # Example
//!
//! ```
//! use fe_cache::{Cache, CacheConfig, policy::Lru};
//!
//! let cfg = CacheConfig::with_capacity(16 * 1024, 8, 64).unwrap();
//! let mut cache = Cache::new(cfg, Lru::new(cfg));
//! let first = cache.access(0x4000, 0x4000);
//! assert!(first.is_miss());
//! let second = cache.access(0x4000, 0x4000);
//! assert!(second.is_hit());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod efficiency;
pub mod fastmap;
pub mod index;
pub mod policy;

pub use crate::cache::{AccessResult, Cache, CacheStats, INVALID_TAG};
pub use config::{CacheConfig, ConfigError};
pub use efficiency::{EfficiencyMap, EfficiencyTracker};
pub use fastmap::{FastHasher, FastMap};
pub use index::{idx, mask};
pub use policy::{AccessContext, ReplacementPolicy};
