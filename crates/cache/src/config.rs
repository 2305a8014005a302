//! Cache geometry and address slicing.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};

/// Error constructing a [`CacheConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A geometry parameter was zero or not a power of two.
    NotPowerOfTwo {
        /// Which parameter was invalid.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
    /// Capacity is not divisible into `ways × block_bytes` sets.
    CapacityMismatch {
        /// Requested capacity in bytes.
        capacity: u64,
        /// Requested associativity.
        ways: u32,
        /// Requested block size in bytes.
        block_bytes: u64,
    },
    /// A one-byte block: every address would be block-aligned, leaving
    /// no value for [`crate::INVALID_TAG`] to mark an empty frame with.
    BlockTooSmall {
        /// The offending block size.
        block_bytes: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { field, value } => {
                write!(f, "{field} must be a nonzero power of two, got {value}")
            }
            ConfigError::CapacityMismatch {
                capacity,
                ways,
                block_bytes,
            } => write!(
                f,
                "capacity {capacity} is not a power-of-two multiple of {ways} ways x {block_bytes}B blocks"
            ),
            ConfigError::BlockTooSmall { block_bytes } => {
                write!(f, "block_bytes must be at least 2, got {block_bytes}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Geometry of a set-associative cache.
///
/// `Copy` by design: configs are tiny and passed around freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    sets: u32,
    ways: u32,
    block_bytes: u64,
}

impl CacheConfig {
    /// Build a config from total capacity in bytes.
    ///
    /// ```
    /// use fe_cache::CacheConfig;
    /// let cfg = CacheConfig::with_capacity(64 * 1024, 8, 64)?;
    /// assert_eq!(cfg.sets(), 128);
    /// # Ok::<(), fe_cache::ConfigError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when any parameter is not a power of two or
    /// the capacity does not divide evenly.
    pub fn with_capacity(
        capacity_bytes: u64,
        ways: u32,
        block_bytes: u64,
    ) -> Result<CacheConfig, ConfigError> {
        let way_bytes = u64::from(ways) * block_bytes;
        if way_bytes == 0 || !capacity_bytes.is_multiple_of(way_bytes) {
            return Err(ConfigError::CapacityMismatch {
                capacity: capacity_bytes,
                ways,
                block_bytes,
            });
        }
        let sets = capacity_bytes / way_bytes;
        Self::with_sets(
            u32::try_from(sets).map_err(|_| ConfigError::NotPowerOfTwo {
                field: "sets",
                value: sets,
            })?,
            ways,
            block_bytes,
        )
    }

    /// Build a config directly from a set count.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NotPowerOfTwo`] for invalid parameters and
    /// [`ConfigError::BlockTooSmall`] for one-byte blocks.
    pub fn with_sets(sets: u32, ways: u32, block_bytes: u64) -> Result<CacheConfig, ConfigError> {
        for (field, value) in [
            ("sets", u64::from(sets)),
            ("ways", u64::from(ways)),
            ("block_bytes", block_bytes),
        ] {
            if value == 0 || !value.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo { field, value });
            }
        }
        if block_bytes < 2 {
            return Err(ConfigError::BlockTooSmall { block_bytes });
        }
        Ok(CacheConfig {
            sets,
            ways,
            block_bytes,
        })
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// Associativity (ways per set).
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.sets) * u64::from(self.ways) * self.block_bytes
    }

    /// Total number of block frames.
    pub fn frames(&self) -> usize {
        self.sets as usize * self.ways as usize
    }

    /// Block-aligned address containing `addr`.
    pub fn block_of(&self, addr: u64) -> u64 {
        addr & !(self.block_bytes - 1)
    }

    /// Set index for `addr`.
    pub fn set_of(&self, addr: u64) -> usize {
        // Power-of-two geometry is enforced at construction, so masking
        // is exact — and unlike `%`, it cannot silently "work" for a
        // non-power-of-two set count that skews the index distribution.
        crate::index::mask(addr >> self.offset_bits(), self.sets as usize)
    }

    /// Number of bits in the set index.
    pub fn set_bits(&self) -> u32 {
        self.sets.trailing_zeros()
    }

    /// Number of bits in the block offset.
    pub fn offset_bits(&self) -> u32 {
        self.block_bytes.trailing_zeros()
    }
}

impl std::fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cap = self.capacity_bytes();
        if cap.is_multiple_of(1024) {
            write!(
                f,
                "{}KB {}-way {}B-block",
                cap / 1024,
                self.ways,
                self.block_bytes
            )
        } else {
            write!(f, "{cap}B {}-way {}B-block", self.ways, self.block_bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_derives_sets() {
        let cfg = CacheConfig::with_capacity(64 * 1024, 8, 64).unwrap();
        assert_eq!(cfg.sets(), 128);
        assert_eq!(cfg.ways(), 8);
        assert_eq!(cfg.block_bytes(), 64);
        assert_eq!(cfg.capacity_bytes(), 64 * 1024);
        assert_eq!(cfg.frames(), 1024);
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(CacheConfig::with_sets(3, 8, 64).is_err());
        assert!(CacheConfig::with_sets(128, 6, 64).is_err());
        assert!(CacheConfig::with_sets(128, 8, 48).is_err());
        assert!(CacheConfig::with_sets(0, 8, 64).is_err());
    }

    #[test]
    fn rejects_one_byte_blocks() {
        assert_eq!(
            CacheConfig::with_sets(4, 2, 1),
            Err(ConfigError::BlockTooSmall { block_bytes: 1 })
        );
        assert!(CacheConfig::with_sets(4, 2, 2).is_ok());
    }

    #[test]
    fn rejects_capacity_mismatch() {
        match CacheConfig::with_capacity(1000, 8, 64) {
            Err(ConfigError::CapacityMismatch { .. }) => {}
            other => panic!("expected CapacityMismatch, got {other:?}"),
        }
    }

    #[test]
    fn address_slicing() {
        let cfg = CacheConfig::with_sets(128, 8, 64).unwrap();
        assert_eq!(cfg.block_of(0x1234), 0x1200);
        assert_eq!(cfg.set_of(0x1240), (0x1240u64 / 64) as usize);
        assert_eq!(cfg.set_bits(), 7);
        assert_eq!(cfg.offset_bits(), 6);
    }

    #[test]
    fn same_block_same_set() {
        let cfg = CacheConfig::with_sets(64, 4, 64).unwrap();
        assert_eq!(cfg.set_of(0x1000), cfg.set_of(0x103f));
        assert_ne!(cfg.set_of(0x1000), cfg.set_of(0x1040));
    }

    #[test]
    fn display_formats_kilobytes() {
        let cfg = CacheConfig::with_capacity(16 * 1024, 8, 64).unwrap();
        assert_eq!(cfg.to_string(), "16KB 8-way 64B-block");
    }

    #[test]
    fn error_display_nonempty() {
        let e = CacheConfig::with_sets(3, 8, 64).unwrap_err();
        assert!(e.to_string().contains("power of two"));
    }
}
