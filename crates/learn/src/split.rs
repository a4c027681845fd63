//! Train/test splitting utilities.
//!
//! The paper's protocol (§7.2): "A time stamp was randomly chosen to divide the
//! performance data … into two parts: 50% of the data was used to train … and
//! the other 50% was used as test set", repeated as "ten-fold cross
//! validation". [`random_contiguous_split`] implements one such draw;
//! [`repeated_splits`] the repetition.

use simrng::Rng64;

/// A train/test index split over `0..len`.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// The training range `[0, cut)`.
    pub train: std::ops::Range<usize>,
    /// The held-out range.
    pub test: std::ops::Range<usize>,
}

/// Splits `0..len` at a uniformly random cut point such that both sides hold at
/// least `min_each` elements and the expected split is 50/50: the cut is drawn
/// from `[len/2 - jitter, len/2 + jitter]` where `jitter = len/4`, mimicking
/// the paper's "randomly chosen timestamp" around the trace midpoint.
///
/// Returns `None` if `len < 2 * min_each`.
pub fn random_contiguous_split<R: Rng64 + ?Sized>(
    len: usize,
    min_each: usize,
    rng: &mut R,
) -> Option<Split> {
    if min_each == 0 || len < 2 * min_each {
        return None;
    }
    let mid = len / 2;
    let jitter = (len / 4).min(mid.saturating_sub(min_each));
    let lo = mid - jitter;
    let hi = (mid + jitter).min(len - min_each);
    let cut = if hi > lo { lo + rng.next_below((hi - lo + 1) as u64) as usize } else { lo };
    Some(Split { train: 0..cut, test: cut..len })
}

/// Draws `folds` independent random contiguous splits (the paper's ten-fold
/// repetition with `folds = 10`). Returns fewer than `folds` only when the
/// series is too short for even one split (then the list is empty).
pub fn repeated_splits<R: Rng64 + ?Sized>(
    len: usize,
    min_each: usize,
    folds: usize,
    rng: &mut R,
) -> Vec<Split> {
    (0..folds).filter_map(|_| random_contiguous_split(len, min_each, rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::Xoshiro256pp;

    #[test]
    fn random_split_respects_minimums() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..200 {
            let s = random_contiguous_split(100, 20, &mut rng).unwrap();
            assert!(s.train.len() >= 20, "{s:?}");
            assert!(s.test.len() >= 20, "{s:?}");
            assert_eq!(s.train.end, s.test.start);
            assert_eq!(s.test.end, 100);
            assert_eq!(s.train.start, 0);
        }
    }

    #[test]
    fn random_split_is_roughly_balanced() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let cuts: Vec<usize> = (0..500)
            .map(|_| random_contiguous_split(1000, 10, &mut rng).unwrap().train.end)
            .collect();
        let mean = cuts.iter().sum::<usize>() as f64 / cuts.len() as f64;
        assert!((mean - 500.0).abs() < 30.0, "mean cut {mean}");
        // And it actually varies (it is random).
        assert!(cuts.iter().any(|&c| c != cuts[0]));
    }

    #[test]
    fn random_split_too_short_is_none() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        assert!(random_contiguous_split(10, 6, &mut rng).is_none());
        assert!(random_contiguous_split(10, 0, &mut rng).is_none());
    }

    #[test]
    fn repeated_splits_count() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        assert_eq!(repeated_splits(100, 10, 10, &mut rng).len(), 10);
        assert!(repeated_splits(5, 10, 10, &mut rng).is_empty());
    }
}
