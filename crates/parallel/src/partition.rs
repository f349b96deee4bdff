//! Partitioning of the all-pair workload.
//!
//! The paper partitions pairs like a parallel block nested-loop join: each
//! partition is a group of *rows* of the correlation matrix (a subset of
//! series paired with every later series), processed row by row, so that the
//! statistics of the row's series stay hot while its pairs are computed. For
//! load balancing every partition receives (almost) the same number of pairs.
//!
//! **No product caller.** The engine's queries sweep the same contiguous runs
//! as index ranges ([`tsubasa_core::plan::runs_for_workers`]) and never
//! materialize a pair list; this module is kept for the benchmark ledger's
//! traced `pile-ooc` decomposition, which imports it, and as the per-pair
//! oracle of the tests.

use tsubasa_core::plan::even_sizes;
use tsubasa_core::sketch::unpack_pair_index;
use tsubasa_core::SeriesId;

/// One partition: a contiguous run of unordered pairs in row-major order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairPartition {
    /// Partition index.
    pub id: usize,
    /// The unordered pairs `(i, j)`, `i < j`, assigned to this partition, in
    /// row-major order.
    pub pairs: Vec<(SeriesId, SeriesId)>,
}

impl PairPartition {
    /// Number of pairs in the partition.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the partition holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Split the `n(n−1)/2` unordered pairs of `n` series into `parts` partitions
/// of (nearly) equal size, preserving row-major order inside each partition
/// so that consecutive pairs share their first series. Each partition is a
/// contiguous run of the packed upper triangle — the property the carve-and-
/// write result assembly and the block-kernel row tiles rely on — generated
/// directly from its packed start index rather than by slicing a
/// materialized list of every pair.
pub fn partition_pairs(n: usize, parts: usize) -> Vec<PairPartition> {
    let total = n * n.saturating_sub(1) / 2;
    let sizes = even_sizes(total, parts);
    let mut out = Vec::with_capacity(sizes.len());
    let mut cursor = 0;
    for (id, size) in sizes.into_iter().enumerate() {
        let mut pairs = Vec::with_capacity(size);
        if size > 0 {
            let (mut i, mut j) = unpack_pair_index(cursor, n);
            for _ in 0..size {
                pairs.push((i, j));
                j += 1;
                if j == n {
                    i += 1;
                    j = i + 1;
                }
            }
        }
        cursor += size;
        out.push(PairPartition { id, pairs });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn partitions_cover_all_pairs_exactly_once() {
        let parts = partition_pairs(10, 4);
        assert_eq!(parts.len(), 4);
        let mut seen = HashSet::new();
        for p in &parts {
            for &pair in &p.pairs {
                assert!(seen.insert(pair), "duplicate pair {pair:?}");
            }
        }
        assert_eq!(seen.len(), 45);
    }

    #[test]
    fn partition_sizes_are_balanced() {
        let parts = partition_pairs(20, 7);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 190);
    }

    #[test]
    fn more_partitions_than_pairs_yields_empty_tails() {
        let parts = partition_pairs(3, 10);
        assert_eq!(parts.len(), 10);
        let non_empty: usize = parts.iter().filter(|p| !p.is_empty()).count();
        assert_eq!(non_empty, 3);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 3);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(
            partition_pairs(0, 4).iter().map(|p| p.len()).sum::<usize>(),
            0
        );
        assert_eq!(partition_pairs(1, 1)[0].len(), 0);
        // parts == 0 is clamped to 1.
        let single = partition_pairs(5, 0);
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].len(), 10);
    }

    #[test]
    fn pairs_keep_row_major_order_within_partition() {
        let parts = partition_pairs(8, 3);
        for p in &parts {
            for w in p.pairs.windows(2) {
                assert!(w[0] < w[1], "pairs out of order: {:?}", w);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_partition_is_exact_cover(n in 0usize..40, parts in 1usize..16) {
            let partitions = partition_pairs(n, parts);
            let total: usize = partitions.iter().map(|p| p.len()).sum();
            prop_assert_eq!(total, n * n.saturating_sub(1) / 2);
            let sizes: Vec<usize> = partitions.iter().map(|p| p.len()).collect();
            let min = sizes.iter().min().copied().unwrap_or(0);
            let max = sizes.iter().max().copied().unwrap_or(0);
            prop_assert!(max - min <= 1);
        }
    }
}
