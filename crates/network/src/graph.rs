//! The annotated climate-network graph.

use tsubasa_core::error::{Error, Result};
use tsubasa_core::matrix::{AdjacencyMatrix, CorrelationMatrix};
use tsubasa_core::sweep::{EdgeList, EdgeRule};
use tsubasa_core::{GeoLocation, SeriesCollection};

/// A climate network: the thresholded adjacency matrix plus the geographic
/// metadata of its nodes. Nodes are identified by their series id.
#[derive(Debug, Clone, PartialEq)]
pub struct ClimateNetwork {
    adjacency: AdjacencyMatrix,
    names: Vec<String>,
    locations: Vec<GeoLocation>,
    threshold: f64,
}

impl ClimateNetwork {
    /// Build a network from a correlation matrix, the collection that
    /// produced it (for node metadata), and a threshold θ.
    pub fn from_matrix(
        collection: &SeriesCollection,
        matrix: &CorrelationMatrix,
        threshold: f64,
    ) -> Result<Self> {
        if matrix.len() != collection.len() {
            return Err(Error::SketchMismatch {
                requested: format!("{} nodes", collection.len()),
                available: format!("{}x{} matrix", matrix.len(), matrix.len()),
            });
        }
        EdgeRule::check_theta(threshold)?;
        Ok(Self {
            adjacency: matrix.threshold(threshold)?,
            names: collection.iter().map(|s| s.name.clone()).collect(),
            locations: collection.iter().map(|s| s.location).collect(),
            threshold,
        })
    }

    /// Build a network from a streamed-sweep [`EdgeList`]
    /// (`network_streamed` / the parallel engine's store-backed sweep) —
    /// the dense correlation matrix never has to exist. The edge list's NaN
    /// audit count is carried onto the adjacency matrix.
    pub fn from_edge_list(
        collection: &SeriesCollection,
        edges: &EdgeList,
        threshold: f64,
    ) -> Result<Self> {
        if edges.node_count() != collection.len() {
            return Err(Error::SketchMismatch {
                requested: format!("{} nodes", collection.len()),
                available: format!("{} edge-list nodes", edges.node_count()),
            });
        }
        EdgeRule::check_theta(threshold)?;
        Ok(Self {
            adjacency: edges.to_adjacency(),
            names: collection.iter().map(|s| s.name.clone()).collect(),
            locations: collection.iter().map(|s| s.location).collect(),
            threshold,
        })
    }

    /// Wrap an existing adjacency matrix with node metadata.
    pub fn from_adjacency(
        collection: &SeriesCollection,
        adjacency: AdjacencyMatrix,
        threshold: f64,
    ) -> Result<Self> {
        if adjacency.len() != collection.len() {
            return Err(Error::SketchMismatch {
                requested: format!("{} nodes", collection.len()),
                available: format!("{} adjacency nodes", adjacency.len()),
            });
        }
        Ok(Self {
            adjacency,
            names: collection.iter().map(|s| s.name.clone()).collect(),
            locations: collection.iter().map(|s| s.location).collect(),
            threshold,
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.edge_count()
    }

    /// The threshold the network was built with.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The underlying adjacency matrix.
    pub fn adjacency(&self) -> &AdjacencyMatrix {
        &self.adjacency
    }

    /// Name of node `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Location of node `i`.
    pub fn location(&self, i: usize) -> GeoLocation {
        self.locations[i]
    }

    /// Whether nodes `i` and `j` are connected.
    pub fn has_edge(&self, i: usize, j: usize) -> bool {
        self.adjacency.has_edge(i, j)
    }

    /// The neighbours of node `i`.
    pub fn neighbours(&self, i: usize) -> Vec<usize> {
        (0..self.node_count())
            .filter(|&j| j != i && self.adjacency.has_edge(i, j))
            .collect()
    }

    /// Degree of node `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.adjacency.degree(i)
    }

    /// Iterate over all edges as `(i, j)` with `i < j`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adjacency.iter_edges()
    }

    /// Geodesic length (km) of an edge — useful for studying the
    /// teleconnection structure of the network (long edges connect distant,
    /// yet correlated, locations).
    pub fn edge_length_km(&self, i: usize, j: usize) -> f64 {
        self.locations[i].distance_km(&self.locations[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsubasa_core::{GeoLocation, TimeSeries};

    fn collection() -> SeriesCollection {
        SeriesCollection::new(vec![
            TimeSeries::new("a", GeoLocation::new(40.0, -75.0), vec![1.0, 2.0, 3.0, 4.0]),
            TimeSeries::new("b", GeoLocation::new(41.0, -75.0), vec![2.0, 4.0, 6.0, 8.0]),
            TimeSeries::new("c", GeoLocation::new(60.0, 20.0), vec![4.0, 3.0, 2.0, 1.0]),
        ])
        .unwrap()
    }

    fn matrix() -> CorrelationMatrix {
        let mut m = CorrelationMatrix::identity(3);
        m.set(0, 1, 0.99);
        m.set(0, 2, -0.99);
        m.set(1, 2, 0.1);
        m
    }

    #[test]
    fn build_from_matrix_and_query_structure() {
        let net = ClimateNetwork::from_matrix(&collection(), &matrix(), 0.9).unwrap();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.edge_count(), 1);
        assert!(net.has_edge(0, 1));
        assert!(!net.has_edge(0, 2));
        assert_eq!(net.neighbours(0), vec![1]);
        assert_eq!(net.degree(2), 0);
        assert_eq!(net.name(1), "b");
        assert_eq!(net.threshold(), 0.9);
        assert_eq!(net.edges().collect::<Vec<_>>(), vec![(0, 1)]);
        // Nodes a and b are ~111 km apart (1 degree of latitude).
        let d = net.edge_length_km(0, 1);
        assert!((100.0..125.0).contains(&d), "distance {d}");
    }

    #[test]
    fn build_validates_inputs() {
        let c = collection();
        let m = CorrelationMatrix::identity(5);
        assert!(ClimateNetwork::from_matrix(&c, &m, 0.5).is_err());
        assert!(ClimateNetwork::from_matrix(&c, &matrix(), 1.5).is_err());
        let adj = AdjacencyMatrix::empty(2);
        assert!(ClimateNetwork::from_adjacency(&c, adj, 0.5).is_err());
    }

    #[test]
    fn from_edge_list_matches_from_matrix() {
        let c = collection();
        let m = matrix();
        let dense = ClimateNetwork::from_matrix(&c, &m, 0.9).unwrap();
        let mut sink = tsubasa_core::sweep::EdgeSink::new(0.9);
        tsubasa_core::sweep::sweep_matrix(&m, 16, &mut sink);
        let streamed = ClimateNetwork::from_edge_list(&c, &sink.finish(3), 0.9).unwrap();
        assert_eq!(streamed, dense);
        // Validation still applies.
        let empty = EdgeList::from_parts(2, vec![], 0);
        assert!(ClimateNetwork::from_edge_list(&c, &empty, 0.9).is_err());
        let ok = EdgeList::from_parts(3, vec![(0, 1)], 0);
        assert!(ClimateNetwork::from_edge_list(&c, &ok, 1.5).is_err());
    }

    #[test]
    fn from_adjacency_preserves_edges() {
        let mut adj = AdjacencyMatrix::empty(3);
        adj.set_edge(1, 2, true);
        let net = ClimateNetwork::from_adjacency(&collection(), adj, 0.75).unwrap();
        assert!(net.has_edge(2, 1));
        assert_eq!(net.edge_count(), 1);
        assert_eq!(net.location(0).lat, 40.0);
    }
}
