//! Edge watches: the change of a θ-network from one scan of its
//! correlations to the next.
//!
//! An [`EdgeWatch`] holds one edge bit per pair and an [`EdgeRule`], and is
//! a [`TileSink`], so any sweep can feed it: a sliding tick's or a served
//! epoch's packed triangle ([`EdgeWatch::observe`]), or a plan's pooled
//! streamed sweep, one run of the watch per worker
//! ([`SourcePlan::scan`](crate::source::SourcePlan::scan)). A scan re-tests
//! every pair against its held bit and records the pairs that flipped as an
//! [`EdgeDelta`]. A watch starts with no edge,
//! so its first scan's `appeared` list is the whole network, in ascending
//! order. The consumer never clones a matrix or diffs two snapshots, and
//! what reaches it is proportional to the edges that changed.

use std::ops::Range;

use crate::error::{Error, Result};
use crate::matrix::AdjacencyMatrix;
use crate::sketch::packed_pairs;
use crate::sweep::{pass_mask, set_bits, sweep_packed, EdgeRule, TileSink, MASK_CHUNK};

/// The edge-level change of one scan, as an [`EdgeWatch`] records it:
/// applying `appeared`/`vanished` to the network of the previous scan
/// reproduces a full re-threshold of the scanned correlations exactly (same
/// edge set, same NaN audit).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EdgeDelta {
    /// Node (series) count of the network the delta applies to.
    pub nodes: usize,
    /// Pairs `(i, j)`, `i < j`, that became edges, in ascending packed-pair
    /// order.
    pub appeared: Vec<(usize, usize)>,
    /// Pairs that stopped being edges, in ascending packed-pair order.
    pub vanished: Vec<(usize, usize)>,
    /// Pairs whose scanned correlation is NaN (audited, never silently
    /// skipped) — the `nan_pair_count` a full lenient re-threshold would
    /// report.
    pub nan_pairs: usize,
    /// Always 0: no bound, nothing re-checked; kept for the benchmark crate.
    pub rechecked_pairs: usize,
    /// Total pairs scanned (`N(N−1)/2`).
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

/// A subscription to a θ-network under one [`EdgeRule`]: the current edge
/// bits from pair `first` on (pair 0, but for a run of a pooled scan) and
/// the [`EdgeDelta`] of the latest scan. As a [`TileSink`], it takes one
/// scan's tiles in ascending pair order.
#[derive(Debug, Clone)]
pub struct EdgeWatch {
    rule: EdgeRule,
    first: usize,
    edges: Vec<bool>,
    delta: EdgeDelta,
}

impl EdgeWatch {
    /// A watch under `rule` over the pairs of `nodes` series, holding no edge
    /// yet: its first scan's `appeared` list is every edge.
    pub fn new(rule: EdgeRule, nodes: usize) -> Self {
        let delta = EdgeDelta::none(nodes);
        let edges = vec![false; delta.total_pairs];
        Self {
            rule,
            first: 0,
            edges,
            delta,
        }
    }

    /// One scan over a packed triangle of correlations. The returned delta
    /// holds the pairs whose bit flipped, in ascending order, with the
    /// lenient semantics of
    /// [`CorrelationMatrix::threshold_lenient`](crate::matrix::CorrelationMatrix::threshold_lenient):
    /// a NaN pair is counted in `nan_pairs` and is never an edge.
    ///
    /// # Panics
    ///
    /// If `corrs` is not the packed triangle of the watch's node count.
    pub fn observe(&mut self, corrs: &[f64]) -> &EdgeDelta {
        assert_eq!(corrs.len(), self.edges.len(), "packed triangle size");
        self.take_delta();
        sweep_packed(self.delta.nodes, corrs, usize::MAX, self);
        &self.delta
    }

    /// The delta of the latest scan (empty before the first).
    pub fn delta(&self) -> &EdgeDelta {
        &self.delta
    }

    /// Move the latest scan's delta out, leaving an empty one.
    pub fn take_delta(&mut self) -> EdgeDelta {
        let none = EdgeDelta::none(self.delta.nodes);
        std::mem::replace(&mut self.delta, none)
    }

    /// A watch over the pairs `run` only, with their bits: one sink of a
    /// pooled scan, handed back through [`EdgeWatch::absorb`].
    pub(crate) fn run(&self, run: Range<usize>) -> Self {
        Self {
            rule: self.rule,
            first: run.start,
            edges: self.edges[run].to_vec(),
            delta: EdgeDelta::none(self.delta.nodes),
        }
    }

    /// Take back a run's bits and append its delta, runs in ascending order.
    pub(crate) fn absorb(&mut self, run: Self) {
        self.edges[run.first..][..run.edges.len()].copy_from_slice(&run.edges);
        self.delta.appeared.extend(run.delta.appeared);
        self.delta.vanished.extend(run.delta.vanished);
        self.delta.nan_pairs += run.delta.nan_pairs;
    }
}

impl TileSink for EdgeWatch {
    fn consume(&mut self, i: usize, j0: usize, pair0: usize, corrs: &[f64]) {
        let edges = &mut self.edges[pair0 - self.first..][..corrs.len()];
        flip_scan(edges, corrs, i, j0, self.rule, &mut self.delta);
    }
}

impl EdgeDelta {
    /// The delta of a scan over `nodes` series that flipped nothing.
    fn none(nodes: usize) -> Self {
        let total_pairs = packed_pairs(nodes);
        Self {
            nodes,
            total_pairs,
            ..Self::default()
        }
    }
}

/// Re-test the tile `(i, j0), …` against its edge bits under `rule`, one
/// [`MASK_CHUNK`] of pairs at a time: a chunk's pass mask ([`pass_mask`]:
/// `rule.passes` per pair, NaN never passes) XOR its held edge bits is its
/// flip mask, both built without a branch, and only the flip mask's set bits
/// are walked (a scan flips few pairs), flipped pairs recorded in ascending
/// order.
#[inline(never)]
fn flip_scan(
    edges: &mut [bool],
    corrs: &[f64],
    i: usize,
    j0: usize,
    rule: EdgeRule,
    delta: &mut EdgeDelta,
) {
    let chunks = edges.chunks_mut(MASK_CHUNK).zip(corrs.chunks(MASK_CHUNK));
    for (at, (edges, corrs)) in (j0..).step_by(MASK_CHUNK).zip(chunks) {
        let (pass, nans) = pass_mask(corrs, rule.floor());
        let held = match <&[bool; MASK_CHUNK]>::try_from(&*edges) {
            Ok(full) => bits(full),
            Err(_) => bits(edges),
        };
        delta.nan_pairs += nans;
        for bit in set_bits(pass ^ held) {
            edges[bit] = !edges[bit];
            let pairs = match edges[bit] {
                true => &mut delta.appeared,
                false => &mut delta.vanished,
            };
            pairs.push((i, at + bit));
        }
    }
}

/// The held edge bits of a chunk as a mask, bit `k` for `edges[k]`.
#[inline(always)]
fn bits(edges: &[bool]) -> u64 {
    let bit = |(k, &edge): (usize, &bool)| u64::from(edge) << k;
    edges
        .iter()
        .enumerate()
        .map(bit)
        .fold(0, |held, b| held | b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CorrelationMatrix;
    use crate::plan::PlanMethod;
    use crate::sketch::pair_index;

    /// An exact watch after its first scan over `corrs`, and the network
    /// that scan's delta builds from no edges.
    fn exact_watch(theta: f64, nodes: usize, corrs: &[f64]) -> (EdgeWatch, AdjacencyMatrix) {
        let mut watch = EdgeWatch::new(EdgeRule::new(PlanMethod::Exact, theta), nodes);
        let mut baseline = AdjacencyMatrix::empty(nodes);
        watch.observe(corrs).apply_to(&mut baseline).unwrap();
        (watch, baseline)
    }

    #[test]
    fn watch_baseline_matches_lenient_threshold() {
        let corrs = vec![0.9, -0.2, f64::NAN, 0.31, 0.3, 0.8];
        for theta in [0.3, -1.0, 1.0] {
            assert!(EdgeWatch::new(EdgeRule::new(PlanMethod::Exact, theta), 4)
                .delta()
                .is_empty());
            // The first scan's `appeared` list is the whole network.
            let (watch, baseline) = exact_watch(theta, 4, &corrs);
            let expected =
                CorrelationMatrix::from_upper_triangle(4, corrs.clone()).threshold_lenient(theta);
            assert!(watch.delta().vanished.is_empty());
            assert_eq!(baseline, expected);
            assert_eq!(baseline.nan_pair_count(), expected.nan_pair_count());
        }
    }

    #[test]
    fn observe_reports_flips_in_packed_order_with_lenient_nan_semantics() {
        // Packed order over 4 nodes: (0,1) (0,2) (0,3) (1,2) (1,3) (2,3).
        let before = [0.9, 0.1, f64::NAN, 0.8, 0.2, 0.7];
        let (mut watch, mut snapshot) = exact_watch(0.5, 4, &before);
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
        assert_eq!(watch.delta(), &delta);
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
    /// flip-mask rewrite, with the edge test spelled out by the caller: the
    /// oracle of the property test below.
    fn serial_observe(
        edges: &mut [bool],
        nodes: usize,
        passes: impl Fn(f64) -> bool,
        corrs: &[f64],
    ) -> EdgeDelta {
        let mut delta = EdgeDelta {
            nodes,
            total_pairs: corrs.len(),
            ..EdgeDelta::default()
        };
        let mut slots = edges.iter_mut().zip(corrs);
        for i in 0..nodes {
            for (j, (edge, &c)) in (i + 1..nodes).zip(&mut slots) {
                delta.nan_pairs += usize::from(c.is_nan());
                let now = passes(c);
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
        // chunk edges and at the ends of rows, and moved every tick. Both
        // rules, each spelled out for the oracle.
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
            for theta in [0.25f64, 0.3, -0.5, 0.75, 1.0, -1.0] {
                let radius = (2.0 * (1.0 - theta)).sqrt();
                let within = move |c: f64| {
                    !c.is_nan() && (2.0 * (1.0 - c.clamp(-1.0, 1.0))).max(0.0).sqrt() <= radius
                };
                for method in [PlanMethod::Exact, PlanMethod::Approximate] {
                    let passes = |c: f64| match method {
                        PlanMethod::Exact => c > theta,
                        PlanMethod::Approximate => within(c),
                    };
                    let mut corrs: Vec<f64> = (0..pairs).map(|_| grid[below(grid.len())]).collect();
                    let mut watch = EdgeWatch::new(EdgeRule::new(method, theta), nodes);
                    let mut oracle = vec![false; pairs];
                    for tick in 0..6 {
                        let want = serial_observe(&mut oracle, nodes, passes, &corrs);
                        let got = watch.observe(&corrs);
                        let label = format!("{method:?} nodes {nodes} θ {theta} tick {tick}");
                        assert_eq!(got, &want, "{label}");
                        assert_eq!(watch.edges, oracle, "{label}");
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
                    }
                }
            }
        }
    }

    #[test]
    fn a_scan_in_runs_equals_one_pass() {
        // Three runs fed by hand, as a pooled sweep feeds them, one row
        // segment per tile: absorbed in order, they equal one pass.
        use crate::plan::row_segments;
        let nodes = 7;
        let pairs = packed_pairs(nodes);
        let before: Vec<f64> = (0..pairs).map(|p| (p as f64 * 0.7).sin()).collect();
        let mut after: Vec<f64> = before.iter().map(|c| (c * 2.9).cos()).collect();
        after[2] = f64::NAN;
        after[pair_index(4, 5, nodes)..pair_index(5, 6, nodes)].fill(-1.0);
        let rule = EdgeRule::new(PlanMethod::Approximate, 0.3);
        let mut one = EdgeWatch::new(rule, nodes);
        one.observe(&before);
        let mut pooled = one.clone();
        let want = one.observe(&after).clone();
        let runs: Vec<EdgeWatch> = [0..5, 5..12, 12..pairs]
            .into_iter()
            .map(|run| {
                let mut sink = pooled.run(run.clone());
                for (i, j0, len) in row_segments(run.start, run.len(), nodes) {
                    let p0 = pair_index(i, j0, nodes);
                    sink.consume(i, j0, p0, &after[p0..p0 + len]);
                }
                sink
            })
            .collect();
        pooled.take_delta();
        for run in runs {
            pooled.absorb(run);
        }
        assert_eq!(pooled.delta(), &want);
        assert!(!want.vanished.is_empty());
        assert_eq!(pooled.edges, one.edges);
    }

    #[test]
    fn observe_threshold_boundaries() {
        // θ = 1.0: `c > θ` never holds, not even for a perfect correlation.
        let (mut top, baseline) = exact_watch(1.0, 3, &[1.0, 0.99, -1.0]);
        assert_eq!(baseline.edge_count(), 0);
        assert!(top.observe(&[1.0, 1.0, 1.0]).is_empty());
        // θ = −1.0: everything but an exact −1.0 (and NaN) is an edge.
        let (mut bottom, baseline) = exact_watch(-1.0, 3, &[-1.0, -0.99, 1.0]);
        assert_eq!(baseline.iter_edges().collect::<Vec<_>>(), [(0, 2), (1, 2)]);
        let delta = bottom.observe(&[-0.5, -1.0, f64::NAN]);
        assert_eq!(delta.appeared, [(0, 1)]);
        assert_eq!(delta.vanished, [(0, 2), (1, 2)]);
        assert_eq!(delta.nan_pairs, 1);
        // The radius rule keeps a pair at exactly θ, and at θ = 1.0 a perfect
        // correlation.
        let mut radius = EdgeWatch::new(EdgeRule::new(PlanMethod::Approximate, 0.5), 3);
        assert_eq!(
            radius.observe(&[0.5, 0.4999, 1.0]).appeared,
            [(0, 1), (1, 2)]
        );
        let mut top = EdgeWatch::new(EdgeRule::new(PlanMethod::Approximate, 1.0), 3);
        assert_eq!(top.observe(&[1.0, 0.99, -1.0]).appeared, [(0, 1)]);
    }

    #[test]
    fn watch_rejects_invalid_theta() {
        // A watch takes a rule, and a method's rule refuses θ outside [-1, 1].
        for method in [PlanMethod::Exact, PlanMethod::Approximate] {
            for theta in [1.5, -1.01, f64::NAN] {
                assert!(matches!(
                    EdgeRule::for_method(method, theta).map(|rule| EdgeWatch::new(rule, 3)),
                    Err(Error::InvalidThreshold(_))
                ));
            }
        }
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
