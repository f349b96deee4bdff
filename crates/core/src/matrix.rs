//! Correlation matrices and thresholded (boolean) network matrices.
//!
//! Both types store only the strict upper triangle of the symmetric `n × n`
//! matrix; the diagonal is implicit (1.0 for correlations, no self-loop for
//! networks). This halves memory, which matters when `n` reaches the tens of
//! thousands of grid cells used in the scalability experiments.

use crate::error::{Error, Result};
use crate::plan::PlanMethod::Exact;
use crate::sketch::pair_index;
use crate::sweep::EdgeRule;

/// A symmetric all-pair Pearson correlation matrix with an implicit unit
/// diagonal.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationMatrix {
    n: usize,
    /// Packed strict upper triangle, row-major: (0,1), (0,2), ..., (n-2,n-1).
    values: Vec<f64>,
}

impl CorrelationMatrix {
    /// The `n × n` identity-like matrix: every off-diagonal correlation 0.
    pub fn identity(n: usize) -> Self {
        Self {
            n,
            values: vec![0.0; n * n.saturating_sub(1) / 2],
        }
    }

    /// Build a matrix from the packed strict upper triangle.
    ///
    /// Panics if the length does not equal `n(n-1)/2` — constructing from a
    /// mismatched buffer is a programming error.
    pub fn from_upper_triangle(n: usize, values: Vec<f64>) -> Self {
        assert_eq!(
            values.len(),
            n * n.saturating_sub(1) / 2,
            "upper triangle of an {n}x{n} matrix has {} entries",
            n * n.saturating_sub(1) / 2
        );
        Self { n, values }
    }

    /// Number of series (rows/columns).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate 0 × 0 matrix.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The correlation of series `i` and `j` (symmetric; 1.0 on the
    /// diagonal).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index ({i},{j}) out of range");
        if i == j {
            return 1.0;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.values[pair_index(a, b, self.n)]
    }

    /// Set the correlation of the unordered pair `(i, j)`, `i != j`.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n && i != j, "invalid pair ({i},{j})");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.values[pair_index(a, b, self.n)] = value;
    }

    /// The packed strict upper triangle, row-major.
    pub fn upper_triangle(&self) -> &[f64] {
        &self.values
    }

    /// Apply a correlation threshold θ and return the boolean network matrix:
    /// an edge between `i` and `j` iff `corr(i,j) > θ` (the paper thresholds
    /// on positive correlation; use [`CorrelationMatrix::threshold_abs`] for
    /// |corr| thresholding).
    ///
    /// Errors with [`Error::NanCorrelations`] if any entry is NaN — NaN
    /// appears in matrices assembled from store records whose sketch method
    /// does not match the query method, and treating it as "no edge" would
    /// silently yield a plausible-looking but wrong network. Callers that
    /// accept missing pairs use [`CorrelationMatrix::threshold_lenient`].
    pub fn threshold(&self, theta: f64) -> Result<AdjacencyMatrix> {
        Self::without_nan(self.threshold_lenient(theta))
    }

    /// Threshold on the absolute correlation: edge iff `|corr(i,j)| > θ`.
    /// Climate-network studies that treat strong anti-correlation as
    /// information flow use this variant. Same NaN policy as
    /// [`CorrelationMatrix::threshold`].
    pub fn threshold_abs(&self, theta: f64) -> Result<AdjacencyMatrix> {
        let abs = |c: f64| c.abs() > theta;
        Self::without_nan(AdjacencyMatrix::threshold_with(self.n, &self.values, abs))
    }

    /// Lenient variant of [`CorrelationMatrix::threshold`]: NaN entries get
    /// no edge, and their count is recorded on the result
    /// ([`AdjacencyMatrix::nan_pair_count`]) so the caller can audit how many
    /// pairs were skipped.
    pub fn threshold_lenient(&self, theta: f64) -> AdjacencyMatrix {
        AdjacencyMatrix::threshold_packed(self.n, &self.values, EdgeRule::new(Exact, theta))
    }

    /// `net`, or [`Error::NanCorrelations`] when it counted a NaN pair.
    fn without_nan(net: AdjacencyMatrix) -> Result<AdjacencyMatrix> {
        match net.nan_pairs {
            0 => Ok(net),
            pairs => Err(Error::NanCorrelations { pairs }),
        }
    }

    /// Maximum absolute difference to another matrix of the same size —
    /// convenient for comparing exact vs approximate matrices.
    pub fn max_abs_diff(&self, other: &CorrelationMatrix) -> f64 {
        assert_eq!(self.n, other.n, "matrices must have the same size");
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Mean absolute difference to another matrix of the same size.
    pub fn mean_abs_diff(&self, other: &CorrelationMatrix) -> f64 {
        assert_eq!(self.n, other.n, "matrices must have the same size");
        if self.values.is_empty() {
            return 0.0;
        }
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / self.values.len() as f64
    }

    /// Iterate over `(i, j, corr)` for every unordered pair.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let n = self.n;
        (0..n)
            .flat_map(move |i| ((i + 1)..n).map(move |j| (i, j)))
            .zip(self.values.iter().copied())
            .map(|((i, j), c)| (i, j, c))
    }
}

/// The boolean climate-network matrix obtained by thresholding a
/// [`CorrelationMatrix`]: `edges[pair] == true` means the two locations are
/// connected.
#[derive(Debug, Clone)]
pub struct AdjacencyMatrix {
    n: usize,
    edges: Vec<bool>,
    /// Pairs whose correlation was NaN when this network was thresholded
    /// leniently (always 0 for the strict constructors). Excluded from
    /// equality: two networks with the same topology compare equal.
    nan_pairs: usize,
}

/// Equality is over the topology (node count + edge set) only; the NaN audit
/// count is metadata and deliberately ignored.
impl PartialEq for AdjacencyMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.edges == other.edges
    }
}

impl Eq for AdjacencyMatrix {}

impl AdjacencyMatrix {
    /// An edge-less network over `n` nodes.
    pub fn empty(n: usize) -> Self {
        Self {
            n,
            edges: vec![false; n * n.saturating_sub(1) / 2],
            nan_pairs: 0,
        }
    }

    /// Build from the packed strict upper triangle.
    pub fn from_upper_triangle(n: usize, edges: Vec<bool>) -> Self {
        assert_eq!(edges.len(), n * n.saturating_sub(1) / 2);
        Self {
            n,
            edges,
            nan_pairs: 0,
        }
    }

    /// Lenient threshold of a packed strict upper triangle of correlations
    /// under `rule`: NaN entries get no edge and are counted. The one
    /// thresholding pass behind every `CorrelationMatrix::threshold*` and
    /// the sliding engines' `network`.
    pub(crate) fn threshold_packed(n: usize, values: &[f64], rule: EdgeRule) -> Self {
        Self::threshold_with(n, values, |c| rule.passes(c))
    }

    /// [`AdjacencyMatrix::threshold_packed`] with the test spelled out (for
    /// `|c| > θ`). One branch-free pass writes each edge lane and counts
    /// NaN. The lanes are the output here, so they are written directly:
    /// packing them into the sinks' `pass_mask` bits and unpacking those
    /// again measured 0.60 against 0.38 ns per pair.
    fn threshold_with(n: usize, values: &[f64], edge: impl Fn(f64) -> bool) -> Self {
        let mut edges = vec![false; values.len()];
        let mut nan_pairs = 0;
        for (lane, &c) in edges.iter_mut().zip(values) {
            *lane = edge(c);
            nan_pairs += usize::from(c.is_nan());
        }
        Self {
            n,
            edges,
            nan_pairs,
        }
    }

    /// Build from an iterator of `(i, j)` node pairs (order-insensitive,
    /// self-loops rejected by the same assertion as
    /// [`AdjacencyMatrix::set_edge`]). This is how streamed edge lists become
    /// networks without a dense correlation matrix in between.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut net = Self::empty(n);
        for (i, j) in edges {
            net.set_edge(i, j, true);
        }
        net
    }

    /// Number of pairs whose correlation was NaN when this network was built
    /// by a lenient thresholding pass (0 for strict/explicit constructors).
    pub fn nan_pair_count(&self) -> usize {
        self.nan_pairs
    }

    /// Record the number of NaN correlations skipped while building this
    /// network (used by streamed sinks, which observe NaN tile by tile).
    pub fn set_nan_pair_count(&mut self, count: usize) {
        self.nan_pairs = count;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate 0-node network.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether nodes `i` and `j` are connected (no self-loops).
    pub fn has_edge(&self, i: usize, j: usize) -> bool {
        assert!(i < self.n && j < self.n);
        if i == j {
            return false;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.edges[pair_index(a, b, self.n)]
    }

    /// Add or remove the edge between `i` and `j`.
    pub fn set_edge(&mut self, i: usize, j: usize, present: bool) {
        assert!(i < self.n && j < self.n && i != j);
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.edges[pair_index(a, b, self.n)] = present;
    }

    /// Number of edges in the network — one of the two accuracy measures of
    /// the paper's Figure 5a.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().filter(|&&e| e).count()
    }

    /// Edge density: edges divided by the number of possible edges.
    pub fn density(&self) -> f64 {
        if self.edges.is_empty() {
            return 0.0;
        }
        self.edge_count() as f64 / self.edges.len() as f64
    }

    /// Degree of node `i`.
    pub fn degree(&self, i: usize) -> usize {
        (0..self.n)
            .filter(|&j| j != i && self.has_edge(i, j))
            .count()
    }

    /// The correlation similarity ratio `D_p` of the paper (§4.1): the
    /// fraction of unordered pairs on which the two networks agree.
    ///
    /// `D_p = 2 Σ_{i<j} (1 − |a_ij − b_ij|) / (n(n−1))`.
    pub fn similarity_ratio(&self, other: &AdjacencyMatrix) -> f64 {
        assert_eq!(self.n, other.n, "networks must have the same node count");
        if self.edges.is_empty() {
            return 1.0;
        }
        let agreeing = self
            .edges
            .iter()
            .zip(&other.edges)
            .filter(|(a, b)| a == b)
            .count();
        agreeing as f64 / self.edges.len() as f64
    }

    /// Iterate over the `(i, j)` node pairs that are connected.
    pub fn iter_edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n = self.n;
        (0..n)
            .flat_map(move |i| ((i + 1)..n).map(move |j| (i, j)))
            .zip(self.edges.iter())
            .filter(|(_, &e)| e)
            .map(|(pair, _)| pair)
    }

    /// The packed strict upper triangle.
    pub fn upper_triangle(&self) -> &[bool] {
        &self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-pass lenient threshold against the per-pair rule, over the
    /// mask-scan grid's inputs under every rule of both methods.
    #[test]
    fn threshold_packed_equals_the_per_pair_oracle() {
        use crate::plan::PlanMethod::Approximate;
        use crate::sweep::{mask_grid_inputs, GRID_NODES};
        for method in [Exact, Approximate] {
            for theta in [0.5, 0.0, -1.0, 1.0] {
                let rule = EdgeRule::for_method(method, theta).unwrap();
                for values in mask_grid_inputs(rule.floor()) {
                    let net = AdjacencyMatrix::threshold_packed(GRID_NODES, &values, rule);
                    let edges: Vec<bool> = values.iter().map(|&c| rule.passes(c)).collect();
                    let nans = values.iter().filter(|c| c.is_nan()).count();
                    let case = format!("{method:?} θ {theta}");
                    assert_eq!(net.upper_triangle(), &edges[..], "{case}");
                    assert_eq!(net.nan_pair_count(), nans, "{case}");
                }
            }
        }
    }

    #[test]
    fn correlation_matrix_get_set_symmetry() {
        let mut m = CorrelationMatrix::identity(4);
        m.set(1, 3, 0.7);
        m.set(3, 0, -0.2);
        assert_eq!(m.get(1, 3), 0.7);
        assert_eq!(m.get(3, 1), 0.7);
        assert_eq!(m.get(0, 3), -0.2);
        assert_eq!(m.get(2, 2), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn correlation_matrix_get_out_of_range_panics() {
        CorrelationMatrix::identity(3).get(0, 3);
    }

    #[test]
    fn threshold_produces_expected_edges() {
        let mut m = CorrelationMatrix::identity(3);
        m.set(0, 1, 0.9);
        m.set(0, 2, -0.95);
        m.set(1, 2, 0.5);
        let net = m.threshold(0.75).unwrap();
        assert!(net.has_edge(0, 1));
        assert!(!net.has_edge(0, 2));
        assert!(!net.has_edge(1, 2));
        assert_eq!(net.edge_count(), 1);
        assert_eq!(net.nan_pair_count(), 0);

        let net_abs = m.threshold_abs(0.75).unwrap();
        assert!(net_abs.has_edge(0, 2));
        assert_eq!(net_abs.edge_count(), 2);
    }

    #[test]
    fn strict_threshold_rejects_nan() {
        let mut m = CorrelationMatrix::identity(3);
        m.set(0, 1, 0.9);
        m.set(0, 2, f64::NAN);
        m.set(1, 2, f64::NAN);
        assert_eq!(m.threshold(0.5), Err(Error::NanCorrelations { pairs: 2 }));
        assert_eq!(
            m.threshold_abs(0.5),
            Err(Error::NanCorrelations { pairs: 2 })
        );
    }

    #[test]
    fn lenient_threshold_counts_nan_and_skips() {
        let mut m = CorrelationMatrix::identity(3);
        m.set(0, 1, 0.9);
        m.set(0, 2, f64::NAN);
        m.set(1, 2, 0.1);
        let net = m.threshold_lenient(0.5);
        assert!(net.has_edge(0, 1));
        assert!(!net.has_edge(0, 2));
        assert_eq!(net.edge_count(), 1);
        assert_eq!(net.nan_pair_count(), 1);
    }

    #[test]
    fn equality_ignores_nan_audit_count() {
        let a = AdjacencyMatrix::from_edges(3, [(0, 1)]);
        let mut b = AdjacencyMatrix::from_edges(3, [(1, 0)]);
        b.set_nan_pair_count(2);
        assert_eq!(a, b);
        assert_eq!(b.nan_pair_count(), 2);
    }

    #[test]
    fn similarity_ratio_matches_paper_example() {
        // The paper's §4.1 example: 3-node networks A and B that agree on two
        // of the three off-diagonal pairs → D_p = 2/3.
        let a = AdjacencyMatrix::from_upper_triangle(3, vec![true, false, true]);
        let b = AdjacencyMatrix::from_upper_triangle(3, vec![false, false, true]);
        assert!((a.similarity_ratio(&b) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.similarity_ratio(&a), 1.0);
        // Symmetric.
        assert_eq!(a.similarity_ratio(&b), b.similarity_ratio(&a));
    }

    #[test]
    fn degree_density_and_edge_iteration() {
        let mut net = AdjacencyMatrix::empty(4);
        net.set_edge(0, 1, true);
        net.set_edge(2, 0, true);
        assert_eq!(net.degree(0), 2);
        assert_eq!(net.degree(3), 0);
        assert!((net.density() - 2.0 / 6.0).abs() < 1e-12);
        let edges: Vec<_> = net.iter_edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2)]);
        assert!(!net.has_edge(1, 1));
    }

    #[test]
    fn diff_metrics() {
        let mut a = CorrelationMatrix::identity(3);
        let mut b = CorrelationMatrix::identity(3);
        a.set(0, 1, 0.5);
        b.set(0, 1, 0.1);
        b.set(1, 2, 0.2);
        assert!((a.max_abs_diff(&b) - 0.4).abs() < 1e-12);
        assert!((a.mean_abs_diff(&b) - (0.4 + 0.0 + 0.2) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn iter_pairs_yields_all_upper_triangle_entries() {
        let mut m = CorrelationMatrix::identity(3);
        m.set(0, 1, 0.1);
        m.set(0, 2, 0.2);
        m.set(1, 2, 0.3);
        let got: Vec<_> = m.iter_pairs().collect();
        assert_eq!(got, vec![(0, 1, 0.1), (0, 2, 0.2), (1, 2, 0.3)]);
    }

    #[test]
    fn empty_and_single_node_matrices() {
        let m = CorrelationMatrix::identity(1);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.threshold(0.5).unwrap().edge_count(), 0);
        let e = AdjacencyMatrix::empty(0);
        assert!(e.is_empty());
        assert_eq!(e.density(), 0.0);
    }
}
