//! Network dynamics: analysing how the climate network changes over a
//! sequence of query windows.
//!
//! The paper motivates TSUBASA with network-dynamics studies (Berezin et al.,
//! "Stability of Climate Networks with Time"): scientists construct one
//! network per hypothesized time window and study how edges appear, vanish,
//! and persist. This module provides the bookkeeping for such studies on top
//! of a sequence of [`AdjacencyMatrix`] snapshots (produced either by
//! repeated historical queries or by the real-time updater).

use tsubasa_core::delta::EdgeDelta;
use tsubasa_core::error::{Error, Result};
use tsubasa_core::matrix::AdjacencyMatrix;
use tsubasa_core::sketch::pair_index;

/// Edge-level change between two consecutive network snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotDelta {
    /// Edges present in the new snapshot but not the previous one.
    pub appeared: usize,
    /// Edges present in the previous snapshot but not the new one.
    pub vanished: usize,
    /// Edges present in both.
    pub persisted: usize,
}

impl SnapshotDelta {
    /// Compare two consecutive snapshots. Returns
    /// [`Error::Mismatch`] when the node counts differ (this used to panic,
    /// which took down real-time consumers on a mis-routed snapshot).
    pub fn between(previous: &AdjacencyMatrix, current: &AdjacencyMatrix) -> Result<Self> {
        if previous.len() != current.len() {
            return Err(Error::Mismatch {
                expected: previous.len(),
                found: current.len(),
            });
        }
        let mut delta = SnapshotDelta::default();
        for (p, c) in previous
            .upper_triangle()
            .iter()
            .zip(current.upper_triangle())
        {
            match (p, c) {
                (false, true) => delta.appeared += 1,
                (true, false) => delta.vanished += 1,
                (true, true) => delta.persisted += 1,
                (false, false) => {}
            }
        }
        Ok(delta)
    }

    /// Jaccard stability of the edge set: persisted edges over the union of
    /// both edge sets (1.0 when nothing changed, 0.0 when the edge sets are
    /// disjoint; defined as 1.0 when both snapshots are edge-less).
    pub fn stability(&self) -> f64 {
        let union = self.appeared + self.vanished + self.persisted;
        if union == 0 {
            1.0
        } else {
            self.persisted as f64 / union as f64
        }
    }
}

/// Accumulated statistics over a whole sequence of network snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsSummary {
    /// Number of snapshots observed.
    pub snapshots: usize,
    /// Number of nodes.
    pub nodes: usize,
    /// Edge count of every snapshot, in order.
    pub edge_counts: Vec<usize>,
    /// Per-transition deltas (one fewer than `snapshots`).
    pub deltas: Vec<SnapshotDelta>,
    /// For every unordered pair (packed upper-triangle order), the number of
    /// snapshots in which it was an edge.
    edge_presence: Vec<usize>,
    /// For every unordered pair, the number of edge ↔ non-edge state flips
    /// across consecutive snapshots.
    flip_counts: Vec<usize>,
}

impl DynamicsSummary {
    /// Fraction of snapshots in which the pair `(i, j)` was connected.
    pub fn edge_persistence(&self, i: usize, j: usize) -> f64 {
        if self.snapshots == 0 || i == j {
            return 0.0;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.edge_presence[pair_index(a, b, self.nodes)] as f64 / self.snapshots as f64
    }

    /// Number of state flips of the pair `(i, j)` across the sequence.
    pub fn flip_count(&self, i: usize, j: usize) -> usize {
        if i == j {
            return 0;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.flip_counts[pair_index(a, b, self.nodes)]
    }

    /// Pairs that were edges in *every* snapshot — the stable backbone of the
    /// evolving network.
    pub fn backbone(&self) -> Vec<(usize, usize)> {
        if self.snapshots == 0 {
            return Vec::new();
        }
        self.pairs_where(|idx| self.edge_presence[idx] == self.snapshots)
    }

    /// Pairs that changed state (edge ↔ non-edge) at least `min_flips` times
    /// across the sequence — the "blinking links" climate studies track
    /// around events such as El Niño.
    pub fn blinking_links(&self, min_flips: usize) -> Vec<(usize, usize)> {
        self.pairs_where(|idx| self.flip_counts[idx] >= min_flips)
    }

    /// Mean Jaccard stability across consecutive snapshots.
    pub fn mean_stability(&self) -> f64 {
        if self.deltas.is_empty() {
            return 1.0;
        }
        self.deltas.iter().map(|d| d.stability()).sum::<f64>() / self.deltas.len() as f64
    }

    fn pairs_where(&self, predicate: impl Fn(usize) -> bool) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..self.nodes {
            for j in (i + 1)..self.nodes {
                if predicate(pair_index(i, j, self.nodes)) {
                    out.push((i, j));
                }
            }
        }
        out
    }
}

/// Incrementally tracks network dynamics as snapshots arrive.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsTracker {
    nodes: usize,
    snapshots: usize,
    edge_counts: Vec<usize>,
    deltas: Vec<SnapshotDelta>,
    edge_presence: Vec<usize>,
    flip_counts: Vec<usize>,
    previous: Option<AdjacencyMatrix>,
}

impl DynamicsTracker {
    /// Create a tracker for networks over `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        let pairs = nodes * nodes.saturating_sub(1) / 2;
        Self {
            nodes,
            snapshots: 0,
            edge_counts: Vec::new(),
            deltas: Vec::new(),
            edge_presence: vec![0; pairs],
            flip_counts: vec![0; pairs],
            previous: None,
        }
    }

    /// Record one snapshot. Returns [`Error::Mismatch`] when the node count
    /// differs from the tracker's, leaving the tracker untouched (this used
    /// to panic).
    pub fn observe(&mut self, snapshot: &AdjacencyMatrix) -> Result<()> {
        if snapshot.len() != self.nodes {
            return Err(Error::Mismatch {
                expected: self.nodes,
                found: snapshot.len(),
            });
        }
        self.snapshots += 1;
        self.edge_counts.push(snapshot.edge_count());
        for (slot, present) in self.edge_presence.iter_mut().zip(snapshot.upper_triangle()) {
            *slot += usize::from(*present);
        }
        if let Some(prev) = &self.previous {
            self.deltas.push(SnapshotDelta::between(prev, snapshot)?);
            for ((flips, was), is) in self
                .flip_counts
                .iter_mut()
                .zip(prev.upper_triangle())
                .zip(snapshot.upper_triangle())
            {
                if was != is {
                    *flips += 1;
                }
            }
        }
        self.previous = Some(snapshot.clone());
        Ok(())
    }

    /// Number of snapshots observed so far.
    pub fn snapshots(&self) -> usize {
        self.snapshots
    }

    /// Finish tracking and produce the summary.
    pub fn summarize(self) -> DynamicsSummary {
        DynamicsSummary {
            snapshots: self.snapshots,
            nodes: self.nodes,
            edge_counts: self.edge_counts,
            deltas: self.deltas,
            edge_presence: self.edge_presence,
            flip_counts: self.flip_counts,
        }
    }
}

/// Builds a [`DynamicsSummary`] directly from a baseline snapshot plus the
/// [`EdgeDelta`] stream of a subscribed sliding updater — no snapshot
/// sequence is ever materialized, and each tick costs `O(changed edges)`
/// instead of the tracker's `O(N²)` snapshot scan.
///
/// [`DynamicsBuilder::summarize`] is guaranteed equal (`PartialEq` on
/// [`DynamicsSummary`]) to feeding [`DynamicsTracker`] the full re-thresholded
/// snapshot after every tick: per-pair presence is accounted with run-length
/// credits (a pair's presence counter is settled only when its edge run ends,
/// or at summarize time for still-open runs).
#[derive(Debug, Clone)]
pub struct DynamicsBuilder {
    nodes: usize,
    snapshots: usize,
    edge_counts: Vec<usize>,
    deltas: Vec<SnapshotDelta>,
    /// Presence credit from *closed* edge runs; open runs are settled lazily.
    edge_presence: Vec<usize>,
    flip_counts: Vec<usize>,
    /// Current edge bit per packed pair.
    edges: Vec<bool>,
    /// For pairs whose bit is currently set: snapshot index where the run
    /// started (undefined otherwise).
    run_start: Vec<usize>,
}

impl DynamicsBuilder {
    /// Start from the baseline snapshot a subscription returned (e.g.
    /// [`SlidingState::subscribe_edges`] of either sliding engine). The
    /// baseline counts as the first observed snapshot.
    ///
    /// [`SlidingState::subscribe_edges`]:
    ///     tsubasa_core::incremental::SlidingState::subscribe_edges
    pub fn new(initial: &AdjacencyMatrix) -> Self {
        let nodes = initial.len();
        let edges: Vec<bool> = initial.upper_triangle().to_vec();
        let pairs = edges.len();
        // Pairs present in the baseline open their run at snapshot 0, which
        // the zero-initialised `run_start` already encodes.
        let run_start = vec![0usize; pairs];
        Self {
            nodes,
            snapshots: 1,
            edge_counts: vec![initial.edge_count()],
            deltas: Vec::new(),
            edge_presence: vec![0; pairs],
            flip_counts: vec![0; pairs],
            edges,
            run_start,
        }
    }

    /// Fold in the delta of one ingest tick. Returns [`Error::Mismatch`]
    /// when the delta covers a different node set or its pairs do not fit
    /// the builder's current edges (an edge appearing while present or
    /// vanishing while absent, as when a delta is replayed twice; see
    /// [`EdgeDelta::check_pairs`]), leaving the builder untouched.
    pub fn push_delta(&mut self, delta: &EdgeDelta) -> Result<()> {
        if delta.nodes != self.nodes {
            return Err(Error::Mismatch {
                expected: self.nodes,
                found: delta.nodes,
            });
        }
        delta.check_pairs(|i, j| self.edges[pair_index(i, j, self.nodes)])?;
        let s = self.snapshots; // index of the snapshot this delta produces
        let prev_edges = *self.edge_counts.last().expect("baseline always present");
        for &(i, j) in &delta.appeared {
            let p = pair_index(i, j, self.nodes);
            self.edges[p] = true;
            self.run_start[p] = s;
            self.flip_counts[p] += 1;
        }
        for &(i, j) in &delta.vanished {
            let p = pair_index(i, j, self.nodes);
            self.edges[p] = false;
            self.edge_presence[p] += s - self.run_start[p];
            self.flip_counts[p] += 1;
        }
        self.deltas.push(SnapshotDelta {
            appeared: delta.appeared.len(),
            vanished: delta.vanished.len(),
            persisted: prev_edges - delta.vanished.len(),
        });
        self.edge_counts
            .push(prev_edges + delta.appeared.len() - delta.vanished.len());
        self.snapshots += 1;
        Ok(())
    }

    /// Number of snapshots covered so far (baseline included).
    pub fn snapshots(&self) -> usize {
        self.snapshots
    }

    /// Finish and produce the summary, settling the presence credit of every
    /// still-open edge run.
    pub fn summarize(mut self) -> DynamicsSummary {
        for (p, &present) in self.edges.iter().enumerate() {
            if present {
                self.edge_presence[p] += self.snapshots - self.run_start[p];
            }
        }
        DynamicsSummary {
            snapshots: self.snapshots,
            nodes: self.nodes,
            edge_counts: self.edge_counts,
            deltas: self.deltas,
            edge_presence: self.edge_presence,
            flip_counts: self.flip_counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adjacency(n: usize, edges: &[(usize, usize)]) -> AdjacencyMatrix {
        let mut adj = AdjacencyMatrix::empty(n);
        for &(a, b) in edges {
            adj.set_edge(a, b, true);
        }
        adj
    }

    #[test]
    fn delta_counts_edge_changes() {
        let a = adjacency(4, &[(0, 1), (1, 2)]);
        let b = adjacency(4, &[(1, 2), (2, 3)]);
        let d = SnapshotDelta::between(&a, &b).unwrap();
        assert_eq!(d.appeared, 1);
        assert_eq!(d.vanished, 1);
        assert_eq!(d.persisted, 1);
        assert!((d.stability() - 1.0 / 3.0).abs() < 1e-12);
        // Identical snapshots are perfectly stable.
        assert_eq!(SnapshotDelta::between(&a, &a).unwrap().stability(), 1.0);
        // Edge-less snapshots are defined as stable too.
        let empty = adjacency(4, &[]);
        assert_eq!(
            SnapshotDelta::between(&empty, &empty).unwrap().stability(),
            1.0
        );
    }

    #[test]
    fn delta_rejects_mismatched_sizes() {
        let err = SnapshotDelta::between(&adjacency(3, &[]), &adjacency(4, &[])).unwrap_err();
        assert_eq!(
            err,
            Error::Mismatch {
                expected: 3,
                found: 4
            }
        );
        assert!(err.to_string().contains("same node set"));
    }

    #[test]
    fn tracker_accumulates_presence_flips_and_backbone() {
        let mut tracker = DynamicsTracker::new(4);
        tracker.observe(&adjacency(4, &[(0, 1), (1, 2)])).unwrap();
        tracker.observe(&adjacency(4, &[(0, 1), (2, 3)])).unwrap();
        tracker.observe(&adjacency(4, &[(0, 1), (1, 2)])).unwrap();
        assert_eq!(tracker.snapshots(), 3);
        let summary = tracker.summarize();

        assert_eq!(summary.edge_counts, vec![2, 2, 2]);
        assert_eq!(summary.deltas.len(), 2);
        assert!((summary.edge_persistence(0, 1) - 1.0).abs() < 1e-12);
        assert!((summary.edge_persistence(1, 2) - 2.0 / 3.0).abs() < 1e-12);
        assert!((summary.edge_persistence(2, 3) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(summary.edge_persistence(1, 1), 0.0);

        assert_eq!(summary.backbone(), vec![(0, 1)]);
        // (1,2) flipped off then on again → 2 flips; (2,3) flipped on then
        // off → 2 flips; (0,1) never flipped.
        assert_eq!(summary.flip_count(1, 2), 2);
        assert_eq!(summary.flip_count(2, 3), 2);
        assert_eq!(summary.flip_count(0, 1), 0);
        let blinking = summary.blinking_links(2);
        assert!(blinking.contains(&(1, 2)));
        assert!(blinking.contains(&(2, 3)));
        assert!(!blinking.contains(&(0, 1)));
        assert!(summary.mean_stability() > 0.0 && summary.mean_stability() < 1.0);
    }

    #[test]
    fn empty_tracker_summarizes_cleanly() {
        let summary = DynamicsTracker::new(3).summarize();
        assert_eq!(summary.snapshots, 0);
        assert!(summary.backbone().is_empty());
        assert_eq!(summary.mean_stability(), 1.0);
        assert_eq!(summary.edge_persistence(0, 1), 0.0);
        assert!(summary.blinking_links(1).is_empty());
    }

    #[test]
    fn tracker_rejects_mismatched_snapshots() {
        let mut tracker = DynamicsTracker::new(3);
        let err = tracker.observe(&adjacency(4, &[])).unwrap_err();
        assert_eq!(
            err,
            Error::Mismatch {
                expected: 3,
                found: 4
            }
        );
        assert!(err.to_string().contains("node count mismatch"));
        // The failed observe left the tracker untouched.
        assert_eq!(tracker.snapshots(), 0);
        tracker.observe(&adjacency(3, &[(0, 1)])).unwrap();
        assert_eq!(tracker.snapshots(), 1);
    }

    /// Replay a snapshot sequence two ways — full snapshots through the
    /// tracker, baseline + hand-built deltas through the builder — and
    /// require identical summaries.
    fn assert_builder_matches_tracker(snapshots: &[AdjacencyMatrix]) {
        let mut tracker = DynamicsTracker::new(snapshots[0].len());
        for s in snapshots {
            tracker.observe(s).unwrap();
        }

        let mut builder = DynamicsBuilder::new(&snapshots[0]);
        for pair in snapshots.windows(2) {
            let (prev, cur) = (&pair[0], &pair[1]);
            let mut delta = EdgeDelta {
                nodes: cur.len(),
                total_pairs: cur.upper_triangle().len(),
                ..EdgeDelta::default()
            };
            for i in 0..cur.len() {
                for j in (i + 1)..cur.len() {
                    match (prev.has_edge(i, j), cur.has_edge(i, j)) {
                        (false, true) => delta.appeared.push((i, j)),
                        (true, false) => delta.vanished.push((i, j)),
                        _ => {}
                    }
                }
            }
            builder.push_delta(&delta).unwrap();
        }
        assert_eq!(builder.snapshots(), snapshots.len());
        assert_eq!(builder.summarize(), tracker.summarize());
    }

    #[test]
    fn builder_from_deltas_equals_tracker_from_snapshots() {
        assert_builder_matches_tracker(&[
            adjacency(4, &[(0, 1), (1, 2)]),
            adjacency(4, &[(0, 1), (2, 3)]),
            adjacency(4, &[(0, 1), (1, 2)]),
            adjacency(4, &[(0, 1), (1, 2)]),
            adjacency(4, &[]),
            adjacency(4, &[(0, 3), (1, 2), (2, 3)]),
        ]);
        // Single-snapshot sequence: summary is just the baseline.
        assert_builder_matches_tracker(&[adjacency(3, &[(0, 2)])]);
    }

    #[test]
    fn builder_rejects_mismatched_delta() {
        let mut builder = DynamicsBuilder::new(&adjacency(4, &[(0, 1)]));
        let bad = EdgeDelta {
            nodes: 5,
            ..EdgeDelta::default()
        };
        assert_eq!(
            builder.push_delta(&bad).unwrap_err(),
            Error::Mismatch {
                expected: 4,
                found: 5
            }
        );
        assert_eq!(builder.snapshots(), 1);
    }

    #[test]
    fn builder_rejects_a_delta_that_does_not_fit_and_stays_untouched() {
        let delta = |appeared: &[(usize, usize)], vanished: &[(usize, usize)]| EdgeDelta {
            nodes: 3,
            appeared: appeared.to_vec(),
            vanished: vanished.to_vec(),
            ..EdgeDelta::default()
        };
        let mut builder = DynamicsBuilder::new(&adjacency(3, &[(0, 1)]));
        let step = delta(&[(1, 2)], &[(0, 1)]);
        builder.push_delta(&step).unwrap();
        let expected = builder.clone().summarize();

        // Replayed: (1,2) is already present, (0,1) already absent. In the
        // last case the edge count would otherwise go 1 − 2.
        let misfits = [
            step,
            delta(&[], &[(0, 1)]),
            delta(&[(1, 3)], &[]),
            delta(&[(2, 2)], &[]),
            delta(&[], &[(1, 2), (1, 2)]),
        ];
        for misfit in &misfits {
            assert!(
                matches!(builder.push_delta(misfit), Err(Error::Mismatch { .. })),
                "{misfit:?}"
            );
            assert_eq!(builder.clone().summarize(), expected, "{misfit:?}");
        }
    }
}
