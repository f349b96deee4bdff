//! Edge subscriptions over the sliding updaters: the per-tick change of the
//! θ-thresholded network.
//!
//! A sliding tick ([`crate::incremental::SlidingState::slide_in`]) is one
//! Lemma 2 sweep that leaves every pair's post-tick correlation in the packed
//! `corrs` triangle. A subscribed engine then hands that triangle to
//! [`EdgeWatch::observe`]: one pass that re-thresholds every pair against the
//! edge bit the watch holds and records the pairs that flipped as an
//! [`EdgeDelta`]. The consumer never clones a matrix or diffs two snapshots,
//! and what reaches it is proportional to the edges that changed. The tick
//! itself stays `O(N²)`: the sweep must compute every `c_new` (it feeds the
//! next tick's recursion), and once it has, `c_new > θ` answers the edge
//! question in one compare.

use crate::error::{Error, Result};
use crate::matrix::AdjacencyMatrix;

/// The edge-level change of one ingest tick, as emitted by a subscribed
/// sliding updater: applying `appeared`/`vanished` to the previous snapshot
/// reproduces a full re-threshold of the post-tick correlations exactly
/// (same edge set, same NaN audit).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EdgeDelta {
    /// Node (series) count of the network the delta applies to.
    pub nodes: usize,
    /// Pairs `(i, j)`, `i < j`, that became edges this tick, in ascending
    /// packed-pair order.
    pub appeared: Vec<(usize, usize)>,
    /// Pairs that stopped being edges this tick, in ascending packed-pair
    /// order.
    pub vanished: Vec<(usize, usize)>,
    /// Pairs whose post-tick correlation is NaN (audited, never silently
    /// skipped) — the `nan_pair_count` a full lenient re-threshold would
    /// report.
    pub nan_pairs: usize,
    /// Always 0: no bound, nothing re-checked; kept for the benchmark crate.
    pub rechecked_pairs: usize,
    /// Total pairs swept this tick (`N(N−1)/2`).
    pub total_pairs: usize,
}

impl EdgeDelta {
    /// Apply this delta to the snapshot it was emitted against, advancing it
    /// to the post-tick network (edge bits and NaN audit count). Returns
    /// [`Error::Mismatch`] and leaves `snapshot` unchanged when it covers a
    /// different node set or the delta's pairs do not fit its edges (see
    /// [`EdgeDelta::check_pairs`]).
    pub fn apply_to(&self, snapshot: &mut AdjacencyMatrix) -> Result<()> {
        if snapshot.len() != self.nodes {
            return Err(Error::Mismatch {
                expected: self.nodes,
                found: snapshot.len(),
            });
        }
        self.check_pairs(|i, j| snapshot.has_edge(i, j))?;
        for &(i, j) in &self.appeared {
            snapshot.set_edge(i, j, true);
        }
        for &(i, j) in &self.vanished {
            snapshot.set_edge(i, j, false);
        }
        snapshot.set_nan_pair_count(self.nan_pairs);
        Ok(())
    }

    /// Check this delta's pairs against a target over the same `nodes` whose
    /// current edge bits `has_edge` reports: both lists hold pairs
    /// `i < j < nodes` in strictly ascending order (so none repeats), every
    /// `appeared` pair is absent and every `vanished` pair present. Appliers
    /// call this before touching their state, so a delta that does not fit —
    /// replayed twice, say — is a typed [`Error::Mismatch`] rather than a
    /// panic or a wrapped edge count.
    pub fn check_pairs(&self, has_edge: impl Fn(usize, usize) -> bool) -> Result<()> {
        for (pairs, present) in [(&self.appeared, false), (&self.vanished, true)] {
            for (k, &(i, j)) in pairs.iter().enumerate() {
                let in_range = i < j && j < self.nodes;
                let ascending = k == 0 || pairs[k - 1] < (i, j);
                if !(in_range && ascending && has_edge(i, j) == present) {
                    return Err(Error::Mismatch {
                        expected: self.nodes,
                        found: i.max(j),
                    });
                }
            }
        }
        Ok(())
    }

    /// `true` when the tick changed no edge (the NaN count may still differ
    /// from the previous tick's).
    pub fn is_empty(&self) -> bool {
        self.appeared.is_empty() && self.vanished.is_empty()
    }
}

/// A θ-pinned subscription over a sliding updater's edge set: holds the
/// current edge bits and, after every ingest tick, the [`EdgeDelta`] that
/// [`EdgeWatch::observe`] found.
#[derive(Debug, Clone)]
pub struct EdgeWatch {
    theta: f64,
    nodes: usize,
    edges: Vec<bool>,
    last: Option<EdgeDelta>,
}

impl EdgeWatch {
    /// Subscribe at threshold `theta` over the current packed correlations:
    /// an empty watch that observes `corrs` once. Returns the watch plus the
    /// baseline snapshot (identical to a lenient re-threshold of `corrs`, NaN
    /// audit included) that subsequent deltas advance.
    pub fn new(theta: f64, nodes: usize, corrs: &[f64]) -> Result<(Self, AdjacencyMatrix)> {
        if !(-1.0..=1.0).contains(&theta) {
            return Err(Error::InvalidThreshold(theta));
        }
        let mut watch = Self {
            theta,
            nodes,
            edges: vec![false; corrs.len()],
            last: None,
        };
        let nan_pairs = watch.observe(corrs).nan_pairs;
        watch.last = None;
        let mut baseline = AdjacencyMatrix::from_upper_triangle(nodes, watch.edges.clone());
        baseline.set_nan_pair_count(nan_pairs);
        Ok((watch, baseline))
    }

    /// Re-threshold the post-tick packed correlations against the held edge
    /// bits, with the lenient semantics of
    /// [`CorrelationMatrix::threshold_lenient`](crate::matrix::CorrelationMatrix::threshold_lenient):
    /// a NaN pair is counted in `nan_pairs` and is never an edge, any other
    /// pair is an edge iff `c > θ`. Pairs whose bit flipped are recorded in
    /// ascending packed order; the resulting delta is returned and kept as
    /// [`EdgeWatch::last`].
    ///
    /// # Panics
    ///
    /// If `corrs` is not the packed triangle the watch was created over.
    pub fn observe(&mut self, corrs: &[f64]) -> &EdgeDelta {
        assert_eq!(corrs.len(), self.edges.len(), "packed triangle size");
        let mut delta = EdgeDelta {
            nodes: self.nodes,
            total_pairs: corrs.len(),
            ..EdgeDelta::default()
        };
        // Branch-free over each chunk of a triangle row; only the set bits of
        // its flip mask are walked, and a tick flips few pairs.
        let mut scan = |i: usize, j0: usize, edges: &mut [bool], corrs: &[f64]| {
            let (mut flips, nans) = chunk_flips(edges, corrs, self.theta);
            delta.nan_pairs += nans;
            while flips != 0 {
                let bit = flips.trailing_zeros() as usize;
                flips &= flips - 1;
                edges[bit] = !edges[bit];
                let pairs = match edges[bit] {
                    true => &mut delta.appeared,
                    false => &mut delta.vanished,
                };
                pairs.push((i, j0 + bit));
            }
        };
        let mut start = 0;
        for i in 0..self.nodes {
            let row = start..start + self.nodes - 1 - i;
            start = row.end;
            let mut chunks = self.edges[row.clone()].chunks_exact_mut(CHUNK);
            let mut corr_chunks = corrs[row].chunks_exact(CHUNK);
            let mut j0 = i + 1;
            for (edges, corrs) in (&mut chunks).zip(&mut corr_chunks) {
                scan(i, j0, edges, corrs);
                j0 += CHUNK;
            }
            scan(i, j0, chunks.into_remainder(), corr_chunks.remainder());
        }
        self.last.insert(delta)
    }

    /// The subscribed threshold θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The delta of the most recent [`EdgeWatch::observe`] (`None` before the
    /// first tick after subscribing).
    pub fn last(&self) -> Option<&EdgeDelta> {
        self.last.as_ref()
    }
}

/// Pairs per chunk of [`EdgeWatch::observe`]'s scan.
const CHUNK: usize = 16;

/// The flip mask of one chunk of at most [`CHUNK`] pairs (bit `k` set when
/// `c_k > θ` differs from edge bit `k`; NaN compares false, so a NaN pair is
/// never an edge) and its NaN count.
#[inline(always)]
fn chunk_flips(edges: &[bool], corrs: &[f64], theta: f64) -> (u32, usize) {
    let (mut flips, mut nans) = (0u32, 0usize);
    for (k, (&edge, &c)) in edges.iter().zip(corrs).enumerate() {
        flips |= u32::from((c > theta) != edge) << k;
        nans += usize::from(c.is_nan());
    }
    (flips, nans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CorrelationMatrix;

    #[test]
    fn watch_baseline_matches_lenient_threshold() {
        let corrs = vec![0.9, -0.2, f64::NAN, 0.31, 0.3, 0.8];
        for theta in [0.3, -1.0, 1.0] {
            let (watch, baseline) = EdgeWatch::new(theta, 4, &corrs).unwrap();
            let expected =
                CorrelationMatrix::from_upper_triangle(4, corrs.clone()).threshold_lenient(theta);
            assert_eq!(baseline, expected);
            assert_eq!(baseline.nan_pair_count(), expected.nan_pair_count());
            assert_eq!(watch.theta(), theta);
            assert!(watch.last().is_none());
        }
    }

    #[test]
    fn observe_reports_flips_in_packed_order_with_lenient_nan_semantics() {
        // Packed order over 4 nodes: (0,1) (0,2) (0,3) (1,2) (1,3) (2,3).
        let before = [0.9, 0.1, f64::NAN, 0.8, 0.2, 0.7];
        let (mut watch, mut snapshot) = EdgeWatch::new(0.5, 4, &before).unwrap();
        // (0,1): edge turns NaN; (0,2): appears; (0,3): NaN turns finite above
        // θ; (1,2): stays an edge; (1,3): stays absent; (2,3): vanishes.
        let after = [f64::NAN, 0.6, 0.9, 0.8, f64::NAN, 0.5];
        let delta = watch.observe(&after).clone();
        assert_eq!(
            delta,
            EdgeDelta {
                nodes: 4,
                appeared: vec![(0, 2), (0, 3)],
                vanished: vec![(0, 1), (2, 3)],
                nan_pairs: 2,
                rechecked_pairs: 0,
                total_pairs: 6,
            }
        );
        assert_eq!(watch.last(), Some(&delta));
        delta.apply_to(&mut snapshot).unwrap();
        let full = CorrelationMatrix::from_upper_triangle(4, after.to_vec()).threshold_lenient(0.5);
        assert_eq!(snapshot, full);
        assert_eq!(snapshot.nan_pair_count(), 2);

        // An unchanged triangle is an empty delta that keeps the NaN audit.
        let quiet = watch.observe(&after);
        assert!(quiet.is_empty());
        assert_eq!(quiet.nan_pairs, 2);
    }

    /// The one-pair-at-a-time scan `observe` ran before its chunked
    /// flip-mask rewrite: the oracle of the property test below.
    fn serial_observe(edges: &mut [bool], nodes: usize, theta: f64, corrs: &[f64]) -> EdgeDelta {
        let mut delta = EdgeDelta {
            nodes,
            total_pairs: corrs.len(),
            ..EdgeDelta::default()
        };
        let mut slots = edges.iter_mut().zip(corrs);
        for i in 0..nodes {
            for (j, (edge, &c)) in (i + 1..nodes).zip(&mut slots) {
                delta.nan_pairs += usize::from(c.is_nan());
                let now = c > theta;
                if now != *edge {
                    *edge = now;
                    if now {
                        delta.appeared.push((i, j));
                    } else {
                        delta.vanished.push((i, j));
                    }
                }
            }
        }
        delta
    }

    #[test]
    fn observe_equals_the_serial_scan() {
        // Values on a coarse grid, so θ equals stored values (and sits one
        // ulp below one) as well as between them; NaN planted at the 16-pair
        // chunk edges and at the ends of rows, and moved every tick.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = move |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        let grid = [-0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 0.25f64.next_up()];
        for nodes in (2..=40).chain([65]) {
            let pairs = nodes * (nodes - 1) / 2;
            let row_start = |i: usize| i * nodes - i * (i + 1) / 2;
            for theta in [0.25, 0.3, -0.5, 0.75, 1.0, -1.0] {
                let mut corrs: Vec<f64> = (0..pairs).map(|_| grid[below(grid.len())]).collect();
                let (mut watch, _) = EdgeWatch::new(theta, nodes, &corrs).unwrap();
                let mut oracle = watch.edges.clone();
                for tick in 0..6 {
                    for c in corrs.iter_mut() {
                        if below(4) == 0 {
                            *c = grid[below(grid.len())];
                        }
                    }
                    for i in 0..nodes - 1 {
                        let row_len = nodes - 1 - i;
                        for at in [0, 15, 16, 31, 32, row_len - 1] {
                            if at < row_len && below(3) == 0 {
                                corrs[row_start(i) + at] = f64::NAN;
                            }
                        }
                    }
                    let want = serial_observe(&mut oracle, nodes, theta, &corrs);
                    let got = watch.observe(&corrs);
                    assert_eq!(got, &want, "nodes {nodes} θ {theta} tick {tick}");
                    assert_eq!(watch.edges, oracle, "nodes {nodes} θ {theta} tick {tick}");
                }
            }
        }
    }

    #[test]
    fn observe_threshold_boundaries() {
        // θ = 1.0: `c > θ` never holds, not even for a perfect correlation.
        let (mut top, baseline) = EdgeWatch::new(1.0, 3, &[1.0, 0.99, -1.0]).unwrap();
        assert_eq!(baseline.edge_count(), 0);
        assert!(top.observe(&[1.0, 1.0, 1.0]).is_empty());
        // θ = −1.0: everything but an exact −1.0 (and NaN) is an edge.
        let (mut bottom, baseline) = EdgeWatch::new(-1.0, 3, &[-1.0, -0.99, 1.0]).unwrap();
        assert_eq!(baseline.iter_edges().collect::<Vec<_>>(), [(0, 2), (1, 2)]);
        let delta = bottom.observe(&[-0.5, -1.0, f64::NAN]);
        assert_eq!(delta.appeared, [(0, 1)]);
        assert_eq!(delta.vanished, [(0, 2), (1, 2)]);
        assert_eq!(delta.nan_pairs, 1);
    }

    #[test]
    fn watch_rejects_invalid_theta() {
        assert!(matches!(
            EdgeWatch::new(1.5, 3, &[0.0; 3]),
            Err(Error::InvalidThreshold(_))
        ));
        assert!(matches!(
            EdgeWatch::new(f64::NAN, 3, &[0.0; 3]),
            Err(Error::InvalidThreshold(_))
        ));
    }

    #[test]
    fn apply_to_rejects_mismatched_node_counts() {
        let delta = EdgeDelta {
            nodes: 4,
            ..EdgeDelta::default()
        };
        let mut wrong = AdjacencyMatrix::empty(3);
        assert!(matches!(
            delta.apply_to(&mut wrong),
            Err(Error::Mismatch {
                expected: 4,
                found: 3
            })
        ));
    }

    #[test]
    fn apply_to_rejects_a_delta_that_does_not_fit_and_leaves_the_snapshot() {
        let mut snapshot = AdjacencyMatrix::empty(3);
        snapshot.set_edge(0, 1, true);
        snapshot.set_nan_pair_count(1);
        let before = snapshot.clone();
        let delta = |appeared: &[(usize, usize)], vanished: &[(usize, usize)]| EdgeDelta {
            nodes: 3,
            appeared: appeared.to_vec(),
            vanished: vanished.to_vec(),
            nan_pairs: 0,
            rechecked_pairs: 0,
            total_pairs: 3,
        };
        let misfits = [
            delta(&[(1, 3)], &[]),               // node out of range
            delta(&[(2, 2)], &[]),               // self-loop
            delta(&[(2, 1)], &[]),               // not i < j
            delta(&[(0, 1)], &[]),               // appeared, but already present
            delta(&[], &[(1, 2)]),               // vanished, but absent
            delta(&[(1, 2), (0, 2)], &[]),       // not ascending
            delta(&[(0, 2), (0, 2)], &[]),       // repeated pair
            delta(&[(0, 2)], &[(0, 2)]),         // both appeared and vanished
            delta(&[(1, 2)], &[(0, 1), (0, 2)]), // valid prefix, then a misfit
        ];
        for misfit in &misfits {
            assert!(
                matches!(misfit.apply_to(&mut snapshot), Err(Error::Mismatch { .. })),
                "{misfit:?}"
            );
            assert_eq!(snapshot, before, "{misfit:?}");
            assert_eq!(snapshot.nan_pair_count(), 1, "{misfit:?}");
        }
        // The same delta replayed: fits once, not twice.
        let fits = delta(&[(1, 2)], &[(0, 1)]);
        fits.apply_to(&mut snapshot).unwrap();
        let applied = snapshot.clone();
        assert!(matches!(
            fits.apply_to(&mut snapshot),
            Err(Error::Mismatch { .. })
        ));
        assert_eq!(snapshot, applied);
    }

    #[test]
    fn apply_to_advances_edges_and_nan_audit() {
        let mut snapshot = AdjacencyMatrix::empty(3);
        snapshot.set_edge(0, 1, true);
        let delta = EdgeDelta {
            nodes: 3,
            appeared: vec![(1, 2)],
            vanished: vec![(0, 1)],
            nan_pairs: 2,
            rechecked_pairs: 0,
            total_pairs: 3,
        };
        delta.apply_to(&mut snapshot).unwrap();
        assert!(!snapshot.has_edge(0, 1));
        assert!(snapshot.has_edge(1, 2));
        assert_eq!(snapshot.nan_pair_count(), 2);
        assert!(!delta.is_empty());
        assert!(EdgeDelta::default().is_empty());
    }
}
