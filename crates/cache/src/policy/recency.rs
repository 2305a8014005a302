//! `u32` recency stamps with exact renormalisation when the clock wraps.
//!
//! Recency policies (LRU, FIFO fill times, GHRP and its shadow array,
//! SDBP and its sampler) stamp a frame with a monotone clock and compare
//! stamps only *within one set*. Only the order of a set's stamps
//! matters, so a `u32` clock is enough: when it is about to wrap, every
//! set's stamps are replaced by their rank in that set and the clock
//! continues from the largest rank. Each comparison a policy makes
//! afterwards gives the same answer as with unbounded stamps.

#![forbid(unsafe_code)]

/// Advance `clock` and return the new stamp. When the clock is about to
/// wrap, `stamps` (`sets × ways`, `0` = never touched) is renormalised
/// first.
#[inline]
pub fn next_stamp(clock: &mut u32, stamps: &mut [u32], ways: usize) -> u32 {
    if *clock == u32::MAX {
        *clock = renormalize(stamps, ways);
    }
    *clock += 1;
    *clock
}

/// Replace every set's non-zero stamps by their dense rank in the set
/// (`1` = oldest; equal stamps share a rank), leaving `0` in place.
/// Returns the largest rank, from which the clock continues.
#[cold]
fn renormalize(stamps: &mut [u32], ways: usize) -> u32 {
    let mut order: Vec<(u32, usize)> = Vec::with_capacity(ways);
    let mut top = 0u32;
    for set in stamps.chunks_mut(ways.max(1)) {
        order.clear();
        order.extend(
            set.iter()
                .enumerate()
                .filter(|&(_, &s)| s != 0)
                .map(|(w, &s)| (s, w)),
        );
        order.sort_unstable();
        let (mut rank, mut prev) = (0u32, 0u32);
        for &(s, w) in &order {
            if s != prev {
                rank += 1;
                prev = s;
            }
            set[w] = rank;
        }
        top = top.max(rank);
    }
    top
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renormalize_keeps_per_set_order_and_zeros() {
        let mut stamps = vec![7, 0, 3, 9, 100, 50, 0, 75];
        let top = renormalize(&mut stamps, 4);
        assert_eq!(stamps, [2, 0, 1, 3, 3, 1, 0, 2]);
        assert_eq!(top, 3);
    }

    #[test]
    fn clock_continues_above_every_rank_after_wrap() {
        let mut stamps = vec![u32::MAX - 1, u32::MAX, 0, 5];
        let mut clock = u32::MAX;
        let s = next_stamp(&mut clock, &mut stamps, 2);
        assert_eq!(stamps, [1, 2, 0, 1]);
        assert_eq!(s, 3);
        assert_eq!(clock, 3);
    }
}
