//! Directed communication topologies.
//!
//! The paper's election algorithm runs on **anonymous unidirectional
//! rings**; Theorem 1 and the synchroniser experiments use richer graphs.
//! A [`Topology`] is a directed multigraph over `n` nodes with stable edge
//! indices — protocols address neighbours through *ports* (positions in a
//! node's out-edge list), never through node identities, which is how the
//! runtime enforces anonymity.

use std::fmt;
use std::ops::Range;

use abe_sim::Xoshiro256PlusPlus;

use crate::error::TopologyError;

/// Index of a node in a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub fn new(index: u32) -> Self {
        Self(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of a directed edge in a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(u32);

impl EdgeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Reconstructs an [`EdgeId`] from a raw index held by the network runtime.
///
/// Not public API: topology indices are dense and issued only by
/// [`Topology`], so the runtime can round-trip them through its event type.
pub(crate) fn edge_id_from_raw(raw: u32) -> EdgeId {
    EdgeId(raw)
}

/// A directed edge `src → dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

/// A directed communication graph with stable node and edge indices.
///
/// # Examples
///
/// ```
/// use abe_core::topology::Topology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ring = Topology::unidirectional_ring(5)?;
/// assert_eq!(ring.node_count(), 5);
/// assert_eq!(ring.edge_count(), 5);
/// assert!(ring.is_strongly_connected());
/// assert_eq!(ring.diameter(), Some(4));
/// # Ok(())
/// # }
/// ```
///
/// Adjacency is stored in compressed sparse row (CSR) form: node `v`'s
/// out-edges are `out[out_off[v]..out_off[v + 1]]` in port order, and
/// likewise its in-edges in `inc`. Two per-edge tables computed once at
/// construction make the delivery path O(1): each edge's in-port at its
/// destination, and each in-slot's reply port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n: u32,
    edges: Vec<Edge>,
    out_off: Vec<u32>,
    out: Vec<EdgeId>,
    in_off: Vec<u32>,
    inc: Vec<EdgeId>,
    /// Per edge id: the edge's in-port at its destination.
    in_port: Vec<u32>,
    /// Indexed like `inc`: the out-port at the in-edge's destination whose
    /// edge points back to its source, or [`NO_REPLY`].
    reply: Vec<u32>,
}

/// Reply-port entry of an in-port with no reverse edge (see
/// [`Topology::reply_ports`]).
pub const NO_REPLY: u32 = u32::MAX;

/// Groups edge ids by `key(edge)` with a stable counting sort: returns the
/// `n + 1` offsets and the edge ids, ascending within each group.
fn csr(n: u32, edges: &[Edge], key: impl Fn(&Edge) -> usize) -> (Vec<u32>, Vec<EdgeId>) {
    let mut off = vec![0u32; n as usize + 1];
    for e in edges {
        off[key(e) + 1] += 1;
    }
    for v in 0..n as usize {
        off[v + 1] += off[v];
    }
    let mut next = off.clone();
    let mut ids = vec![EdgeId(0); edges.len()];
    for (i, e) in edges.iter().enumerate() {
        let slot = &mut next[key(e)];
        ids[*slot as usize] = EdgeId(i as u32);
        *slot += 1;
    }
    (off, ids)
}

impl Topology {
    /// Builds a topology from explicit `(src, dst)` pairs over `n` nodes.
    ///
    /// Self-loops and parallel edges are permitted (a self-loop models a
    /// node that can message itself, used by single-node rings).
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0` or any endpoint is out of range.
    pub fn from_edges(
        n: u32,
        pairs: impl IntoIterator<Item = (u32, u32)>,
    ) -> Result<Self, TopologyError> {
        if n == 0 {
            return Err(TopologyError::Empty);
        }
        let pairs = pairs.into_iter();
        let mut edges = Vec::with_capacity(pairs.size_hint().0);
        for (src, dst) in pairs {
            for &endpoint in &[src, dst] {
                if endpoint >= n {
                    return Err(TopologyError::NodeOutOfRange {
                        index: endpoint,
                        node_count: n,
                    });
                }
            }
            edges.push(Edge {
                src: NodeId(src),
                dst: NodeId(dst),
            });
        }
        let (out_off, out) = csr(n, &edges, |e| e.src.index());
        let (in_off, inc) = csr(n, &edges, |e| e.dst.index());
        let mut in_port = vec![0u32; edges.len()];
        for (slot, e) in inc.iter().enumerate() {
            in_port[e.index()] = slot as u32 - in_off[edges[e.index()].dst.index()];
        }
        // Reply ports: `first_to[w]` holds the first out-port of the node at
        // hand whose edge reaches `w`, set and then cleared per node, so
        // the whole table costs O(n + edges).
        let mut reply = vec![NO_REPLY; edges.len()];
        let mut first_to = vec![NO_REPLY; n as usize];
        for v in 0..n as usize {
            let outs = &out[out_off[v] as usize..out_off[v + 1] as usize];
            for (port, e) in outs.iter().enumerate().rev() {
                first_to[edges[e.index()].dst.index()] = port as u32;
            }
            for slot in in_off[v] as usize..in_off[v + 1] as usize {
                reply[slot] = first_to[edges[inc[slot].index()].src.index()];
            }
            for e in outs {
                first_to[edges[e.index()].dst.index()] = NO_REPLY;
            }
        }
        Ok(Self {
            n,
            edges,
            out_off,
            out,
            in_off,
            inc,
            in_port,
            reply,
        })
    }

    /// Unidirectional ring `0 → 1 → … → n-1 → 0` (the paper's topology).
    ///
    /// A ring of size 1 is a self-loop, so the election algorithm's
    /// "message returns to its originator" reasoning still applies.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0`.
    pub fn unidirectional_ring(n: u32) -> Result<Self, TopologyError> {
        Self::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
    }

    /// Bidirectional ring: both orientations of each ring edge.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0`.
    pub fn bidirectional_ring(n: u32) -> Result<Self, TopologyError> {
        let forward = (0..n).map(|i| (i, (i + 1) % n));
        let backward = (0..n).map(|i| ((i + 1) % n, i));
        Self::from_edges(n, forward.chain(backward))
    }

    /// Path `0 ↔ 1 ↔ … ↔ n-1` (both directions of each segment).
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0`.
    pub fn line(n: u32) -> Result<Self, TopologyError> {
        let forward = (0..n.saturating_sub(1)).map(|i| (i, i + 1));
        let backward = (0..n.saturating_sub(1)).map(|i| (i + 1, i));
        Self::from_edges(n, forward.chain(backward))
    }

    /// Star with node 0 as hub, bidirectional spokes.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0`.
    pub fn star(n: u32) -> Result<Self, TopologyError> {
        let out = (1..n).map(|i| (0, i));
        let back = (1..n).map(|i| (i, 0));
        Self::from_edges(n, out.chain(back))
    }

    /// Complete directed graph (every ordered pair of distinct nodes).
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0`.
    pub fn complete(n: u32) -> Result<Self, TopologyError> {
        let pairs = (0..n).flat_map(move |i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)));
        Self::from_edges(n, pairs)
    }

    /// `width × height` torus (wrap-around grid), 4 bidirectional
    /// neighbours per node — a standard sensor-network layout.
    ///
    /// # Errors
    ///
    /// Returns an error if either dimension is 0.
    pub fn torus(width: u32, height: u32) -> Result<Self, TopologyError> {
        if width == 0 || height == 0 {
            return Err(TopologyError::Empty);
        }
        let n = width * height;
        let idx = move |x: u32, y: u32| (y % height) * width + (x % width);
        let mut pairs = Vec::new();
        for y in 0..height {
            for x in 0..width {
                let here = idx(x, y);
                pairs.push((here, idx(x + 1, y)));
                pairs.push((here, idx(x, y + 1)));
                pairs.push((idx(x + 1, y), here));
                pairs.push((idx(x, y + 1), here));
            }
        }
        Self::from_edges(n, pairs)
    }

    /// `dim`-dimensional hypercube: `2^dim` nodes, an edge in **both**
    /// directions between every pair of nodes differing in exactly one
    /// bit. Diameter `dim`, degree `dim` — the classic log-diameter
    /// interconnect, and a natural shape for synchroniser sweeps beyond
    /// rings and tori.
    ///
    /// `dim = 0` is the single node with no edges.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DimensionTooLarge`] if `dim > 20`
    /// (over a million nodes).
    pub fn hypercube(dim: u32) -> Result<Self, TopologyError> {
        const MAX_DIM: u32 = 20;
        if dim > MAX_DIM {
            return Err(TopologyError::DimensionTooLarge { dim, max: MAX_DIM });
        }
        let n = 1u32 << dim;
        // Each ordered pair appears exactly once: i → i^bit for every
        // (i, bit), and the reverse edge arises at i^bit.
        let pairs = (0..n).flat_map(move |i| (0..dim).map(move |b| (i, i ^ (1 << b))));
        Self::from_edges(n, pairs)
    }

    /// Random `d`-regular graph on `n` nodes (configuration model), with
    /// **both** directions of every undirected edge, resampled until the
    /// pairing is simple (no self-loops or parallel edges) and the graph
    /// is connected. Deterministic in `(n, d, seed)`: randomness flows
    /// from the `"random-regular"` child stream of `seed`, independent of
    /// every simulation stream.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidDegree`] unless `1 ≤ d < n` and
    /// `n·d` is even (a d-regular graph exists), or
    /// [`TopologyError::NotConnected`] if no simple connected pairing is
    /// found within the internal retry budget.
    pub fn random_regular(n: u32, d: u32, seed: u64) -> Result<Self, TopologyError> {
        if n == 0 {
            return Err(TopologyError::Empty);
        }
        if d == 0 || d >= n || !(n as u64 * d as u64).is_multiple_of(2) {
            return Err(TopologyError::InvalidDegree { n, d });
        }
        let mut rng = abe_sim::SeedStream::new(seed).stream("random-regular", 0);
        // Configuration model: d stubs per node, shuffled and paired;
        // reject pairings with loops/multi-edges and resample. For d ≥ 3
        // the acceptance probability is bounded away from zero, so the
        // retry budget is generous rather than tight.
        const RETRIES: u32 = 500;
        let mut stubs: Vec<u32> = (0..n)
            .flat_map(|i| std::iter::repeat_n(i, d as usize))
            .collect();
        for _ in 0..RETRIES {
            // Fisher–Yates shuffle driven by the dedicated stream.
            for i in (1..stubs.len()).rev() {
                let j = (rng.uniform_f64() * (i + 1) as f64) as usize;
                stubs.swap(i, j.min(i));
            }
            let mut seen = std::collections::HashSet::new();
            let mut simple = true;
            for pair in stubs.chunks_exact(2) {
                let (a, b) = (pair[0], pair[1]);
                if a == b || !seen.insert((a.min(b), a.max(b))) {
                    simple = false;
                    break;
                }
            }
            if !simple {
                continue;
            }
            let pairs = stubs
                .chunks_exact(2)
                .flat_map(|p| [(p[0], p[1]), (p[1], p[0])]);
            let topo = Self::from_edges(n, pairs)?;
            if topo.is_strongly_connected() {
                return Ok(topo);
            }
        }
        Err(TopologyError::NotConnected)
    }

    /// Erdős–Rényi digraph `G(n, p)` with both orientations sampled
    /// independently, retried until strongly connected.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NotConnected`] if no strongly connected
    /// sample is found within `retries` attempts, or
    /// [`TopologyError::Empty`] if `n == 0`.
    pub fn erdos_renyi(
        n: u32,
        p: f64,
        rng: &mut Xoshiro256PlusPlus,
        retries: u32,
    ) -> Result<Self, TopologyError> {
        if n == 0 {
            return Err(TopologyError::Empty);
        }
        for _ in 0..retries.max(1) {
            let mut pairs = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    if i != j && rng.uniform_f64() < p {
                        pairs.push((i, j));
                    }
                }
            }
            let topo = Self::from_edges(n, pairs)?;
            if topo.is_strongly_connected() {
                return Ok(topo);
            }
        }
        Err(TopologyError::NotConnected)
    }

    /// Symmetric Erdős–Rényi graph: each unordered pair is connected with
    /// probability `p` by **both** directed edges, retried until strongly
    /// connected. Suitable for wave algorithms that need
    /// [`reverse_port`](Self::reverse_port) everywhere.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NotConnected`] if no connected sample is
    /// found within `retries` attempts, or [`TopologyError::Empty`] if
    /// `n == 0`.
    pub fn erdos_renyi_symmetric(
        n: u32,
        p: f64,
        rng: &mut Xoshiro256PlusPlus,
        retries: u32,
    ) -> Result<Self, TopologyError> {
        if n == 0 {
            return Err(TopologyError::Empty);
        }
        for _ in 0..retries.max(1) {
            let mut pairs = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.uniform_f64() < p {
                        pairs.push((i, j));
                        pairs.push((j, i));
                    }
                }
            }
            let topo = Self::from_edges(n, pairs)?;
            if topo.is_strongly_connected() {
                return Ok(topo);
            }
        }
        Err(TopologyError::NotConnected)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.n
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId)
    }

    /// Iterator over `(EdgeId, Edge)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), *e))
    }

    /// The endpoints of `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` does not belong to this topology.
    pub fn edge(&self, edge: EdgeId) -> Edge {
        self.edges[edge.index()]
    }

    /// Out-edges of `node` in port order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.out[self.out_range(node)]
    }

    /// In-edges of `node` in port order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.inc[self.in_range(node)]
    }

    /// Out-degree of `node`.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_range(node).len()
    }

    /// In-degree of `node`.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_range(node).len()
    }

    /// The in-port index of `edge` at its destination.
    ///
    /// # Panics
    ///
    /// Panics if `edge` does not belong to this topology.
    pub fn in_port(&self, edge: EdgeId) -> usize {
        self.in_port[edge.index()] as usize
    }

    /// `node`'s reply ports, indexed by in-port: the out-port whose edge
    /// points back to that in-edge's source (the first such port, if
    /// several do), or [`NO_REPLY`] when no reverse edge exists.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn reply_ports(&self, node: NodeId) -> &[u32] {
        &self.reply[self.in_range(node)]
    }

    /// The out-port of `node` whose edge points back along the in-edge at
    /// `in_port`, if the reverse edge exists.
    ///
    /// This is the "bidirectional channel" convention used by wave
    /// algorithms (echo/PIF): a node can reply to whoever it heard from
    /// without learning any identity. Returns `None` on asymmetric edges
    /// (e.g. a unidirectional ring) or out-of-range ports.
    pub fn reverse_port(&self, node: NodeId, in_port: usize) -> Option<usize> {
        if node.index() >= self.n as usize {
            return None;
        }
        let port = *self.reply_ports(node).get(in_port)?;
        (port != NO_REPLY).then_some(port as usize)
    }

    /// CSR position of `node`'s first out-edge: its port `p` is at
    /// position `out_offset(node) + p`. Positions order the edges
    /// source-major, so a node range owns one contiguous position range.
    pub(crate) fn out_offset(&self, node: NodeId) -> usize {
        self.out_off[node.index()] as usize
    }

    /// The edge at CSR position `pos`.
    pub(crate) fn out_edge_at(&self, pos: usize) -> EdgeId {
        self.out[pos]
    }

    /// CSR position of `edge`: a binary search of its source's out-edges,
    /// which [`csr`] leaves ascending by edge id.
    pub(crate) fn out_position(&self, edge: EdgeId) -> usize {
        let range = self.out_range(self.edges[edge.index()].src);
        let port = self.out[range.clone()].binary_search(&edge);
        range.start + port.expect("an edge is among its source's out-edges")
    }

    /// Positions of `node`'s out-edges in `out`.
    fn out_range(&self, node: NodeId) -> Range<usize> {
        let v = node.index();
        self.out_off[v] as usize..self.out_off[v + 1] as usize
    }

    /// Positions of `node`'s in-edges in `inc` and `reply`.
    fn in_range(&self, node: NodeId) -> Range<usize> {
        let v = node.index();
        self.in_off[v] as usize..self.in_off[v + 1] as usize
    }

    /// BFS hop distances from `from`; `None` for unreachable nodes.
    pub fn bfs_distances(&self, from: NodeId) -> Vec<Option<u32>> {
        self.bfs(from, false)
    }

    /// BFS hop distances from `from` along out-edges, or against in-edges
    /// when `reversed` (distances *to* `from`).
    fn bfs(&self, from: NodeId, reversed: bool) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.n as usize];
        let mut queue = std::collections::VecDeque::new();
        dist[from.index()] = Some(0);
        queue.push_back(from);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].expect("queued nodes have distances");
            let hops = if reversed {
                self.in_edges(u)
            } else {
                self.out_edges(u)
            };
            for &e in hops {
                let edge = self.edges[e.index()];
                let v = if reversed { edge.src } else { edge.dst };
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Whether every node reaches every other node along directed edges.
    pub fn is_strongly_connected(&self) -> bool {
        // Node 0 reaches every node and every node reaches node 0 ⇔
        // strong connectivity.
        [false, true]
            .into_iter()
            .all(|reversed| self.bfs(NodeId(0), reversed).iter().all(Option::is_some))
    }

    /// Longest shortest-path distance over all ordered pairs, or `None`
    /// if the graph is not strongly connected.
    pub fn diameter(&self) -> Option<u32> {
        let mut best = 0;
        for node in self.nodes() {
            for d in self.bfs_distances(node) {
                best = best.max(d?);
            }
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ring_structure() {
        let ring = Topology::unidirectional_ring(4).unwrap();
        assert_eq!(ring.node_count(), 4);
        assert_eq!(ring.edge_count(), 4);
        for node in ring.nodes() {
            assert_eq!(ring.out_degree(node), 1);
            assert_eq!(ring.in_degree(node), 1);
            let e = ring.edge(ring.out_edges(node)[0]);
            assert_eq!(e.src, node);
            assert_eq!(e.dst.index(), (node.index() + 1) % 4);
        }
    }

    #[test]
    fn single_node_ring_is_self_loop() {
        let ring = Topology::unidirectional_ring(1).unwrap();
        assert_eq!(ring.edge_count(), 1);
        let e = ring.edge(ring.out_edges(NodeId::new(0))[0]);
        assert_eq!(e.src, e.dst);
        assert!(ring.is_strongly_connected());
    }

    #[test]
    fn zero_nodes_rejected() {
        assert_eq!(
            Topology::unidirectional_ring(0).unwrap_err(),
            TopologyError::Empty
        );
        assert!(Topology::from_edges(0, []).is_err());
        assert!(Topology::torus(0, 3).is_err());
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let err = Topology::from_edges(3, [(0, 5)]).unwrap_err();
        assert_eq!(
            err,
            TopologyError::NodeOutOfRange {
                index: 5,
                node_count: 3
            }
        );
    }

    #[test]
    fn bidirectional_ring_degrees() {
        let ring = Topology::bidirectional_ring(5).unwrap();
        assert_eq!(ring.edge_count(), 10);
        for node in ring.nodes() {
            assert_eq!(ring.out_degree(node), 2);
            assert_eq!(ring.in_degree(node), 2);
        }
        assert!(ring.is_strongly_connected());
        assert_eq!(ring.diameter(), Some(2));
    }

    #[test]
    fn line_is_strongly_connected_bidirectionally() {
        let line = Topology::line(6).unwrap();
        assert!(line.is_strongly_connected());
        assert_eq!(line.diameter(), Some(5));
        let single = Topology::line(1).unwrap();
        assert_eq!(single.edge_count(), 0);
        assert!(single.is_strongly_connected());
    }

    #[test]
    fn star_has_hub() {
        let star = Topology::star(5).unwrap();
        assert_eq!(star.out_degree(NodeId::new(0)), 4);
        assert_eq!(star.in_degree(NodeId::new(0)), 4);
        for i in 1..5 {
            assert_eq!(star.out_degree(NodeId::new(i)), 1);
        }
        assert!(star.is_strongly_connected());
        assert_eq!(star.diameter(), Some(2));
    }

    #[test]
    fn complete_graph_diameter_one() {
        let k = Topology::complete(4).unwrap();
        assert_eq!(k.edge_count(), 12);
        assert_eq!(k.diameter(), Some(1));
    }

    #[test]
    fn torus_is_regular() {
        let t = Topology::torus(4, 3).unwrap();
        assert_eq!(t.node_count(), 12);
        for node in t.nodes() {
            assert_eq!(t.out_degree(node), 4);
            assert_eq!(t.in_degree(node), 4);
        }
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn ring_diameter_is_n_minus_one() {
        let ring = Topology::unidirectional_ring(7).unwrap();
        assert_eq!(ring.diameter(), Some(6));
    }

    #[test]
    fn disconnected_graph_detected() {
        let topo = Topology::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)]).unwrap();
        assert!(!topo.is_strongly_connected());
        assert_eq!(topo.diameter(), None);
    }

    #[test]
    fn one_way_pair_is_not_strongly_connected() {
        let topo = Topology::from_edges(2, [(0, 1)]).unwrap();
        assert!(!topo.is_strongly_connected());
    }

    #[test]
    fn bfs_distances_on_ring() {
        let ring = Topology::unidirectional_ring(5).unwrap();
        let d = ring.bfs_distances(NodeId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn in_port_maps_edges_to_positions() {
        let topo = Topology::from_edges(3, [(0, 2), (1, 2)]).unwrap();
        let edges: Vec<EdgeId> = topo.edges().map(|(id, _)| id).collect();
        assert_eq!(topo.in_port(edges[0]), 0);
        assert_eq!(topo.in_port(edges[1]), 1);
    }

    #[test]
    fn hypercube_structure() {
        let h = Topology::hypercube(3).unwrap();
        assert_eq!(h.node_count(), 8);
        assert_eq!(h.edge_count(), 24); // 2 · dim · 2^(dim-1)
        for node in h.nodes() {
            assert_eq!(h.out_degree(node), 3);
            assert_eq!(h.in_degree(node), 3);
            // Every neighbour differs in exactly one bit.
            for &e in h.out_edges(node) {
                let diff = (node.index() ^ h.edge(e).dst.index()).count_ones();
                assert_eq!(diff, 1);
            }
            // Every in-edge has its reverse (wave algorithms need this).
            for in_port in 0..h.in_degree(node) {
                assert!(h.reverse_port(node, in_port).is_some());
            }
        }
        assert!(h.is_strongly_connected());
        assert_eq!(h.diameter(), Some(3));
    }

    #[test]
    fn hypercube_degenerate_and_oversized() {
        let point = Topology::hypercube(0).unwrap();
        assert_eq!(point.node_count(), 1);
        assert_eq!(point.edge_count(), 0);
        assert!(point.is_strongly_connected());
        assert_eq!(Topology::hypercube(1).unwrap().edge_count(), 2);
        assert_eq!(
            Topology::hypercube(21).unwrap_err(),
            TopologyError::DimensionTooLarge { dim: 21, max: 20 }
        );
    }

    #[test]
    fn random_regular_is_regular_simple_and_deterministic() {
        let a = Topology::random_regular(16, 3, 7).unwrap();
        let b = Topology::random_regular(16, 3, 7).unwrap();
        assert_eq!(a, b);
        assert!(a.is_strongly_connected());
        let mut undirected = std::collections::HashSet::new();
        for (_, e) in a.edges() {
            // No self-loops; each undirected pair carried by exactly two
            // directed edges.
            assert_ne!(e.src, e.dst);
            let key = (
                e.src.index().min(e.dst.index()),
                e.src.index().max(e.dst.index()),
            );
            undirected.insert(key);
        }
        assert_eq!(undirected.len() * 2, a.edge_count());
        for node in a.nodes() {
            assert_eq!(a.out_degree(node), 3);
            assert_eq!(a.in_degree(node), 3);
            for in_port in 0..a.in_degree(node) {
                assert!(a.reverse_port(node, in_port).is_some());
            }
        }
        // Different seeds give different graphs (overwhelmingly likely).
        assert_ne!(a, Topology::random_regular(16, 3, 8).unwrap());
    }

    #[test]
    fn random_regular_rejects_infeasible_degrees() {
        assert_eq!(
            Topology::random_regular(0, 2, 1).unwrap_err(),
            TopologyError::Empty
        );
        for (n, d) in [(8, 0), (4, 4), (4, 7), (5, 3)] {
            assert_eq!(
                Topology::random_regular(n, d, 1).unwrap_err(),
                TopologyError::InvalidDegree { n, d },
                "n={n} d={d}"
            );
        }
        // n·d even and d < n: the smallest cycle cases work.
        assert!(Topology::random_regular(3, 2, 1).is_ok());
        assert!(Topology::random_regular(4, 3, 1).is_ok());
    }

    #[test]
    fn erdos_renyi_is_connected_and_deterministic() {
        let mut rng_a = Xoshiro256PlusPlus::seed_from_u64(11);
        let mut rng_b = Xoshiro256PlusPlus::seed_from_u64(11);
        let a = Topology::erdos_renyi(20, 0.3, &mut rng_a, 50).unwrap();
        let b = Topology::erdos_renyi(20, 0.3, &mut rng_b, 50).unwrap();
        assert!(a.is_strongly_connected());
        assert_eq!(a, b);
    }

    #[test]
    fn erdos_renyi_sparse_fails_connectivity() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(12);
        let err = Topology::erdos_renyi(30, 0.0, &mut rng, 3).unwrap_err();
        assert_eq!(err, TopologyError::NotConnected);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::new(3).to_string(), "n3");
        let ring = Topology::unidirectional_ring(2).unwrap();
        let (eid, _) = ring.edges().next().unwrap();
        assert_eq!(eid.to_string(), "e0");
    }

    #[test]
    fn reverse_port_on_bidirectional_ring() {
        let ring = Topology::bidirectional_ring(5).unwrap();
        for node in ring.nodes() {
            for in_port in 0..ring.in_degree(node) {
                let out_port = ring
                    .reverse_port(node, in_port)
                    .expect("bidirectional ring has all reverse edges");
                // The out edge must point back to the in edge's source.
                let in_edge = ring.edge(ring.in_edges(node)[in_port]);
                let out_edge = ring.edge(ring.out_edges(node)[out_port]);
                assert_eq!(out_edge.dst, in_edge.src);
            }
        }
    }

    #[test]
    fn reverse_port_missing_on_unidirectional_ring() {
        let ring = Topology::unidirectional_ring(4).unwrap();
        for node in ring.nodes() {
            assert_eq!(ring.reverse_port(node, 0), None);
        }
    }

    #[test]
    fn reverse_port_out_of_range_is_none() {
        let ring = Topology::bidirectional_ring(3).unwrap();
        assert_eq!(ring.reverse_port(NodeId::new(0), 99), None);
    }

    #[test]
    fn reverse_port_on_self_loop() {
        // A self-loop is its own reverse.
        let topo = Topology::unidirectional_ring(1).unwrap();
        assert_eq!(topo.reverse_port(NodeId::new(0), 0), Some(0));
    }

    #[test]
    fn symmetric_erdos_renyi_has_all_reverse_edges() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(21);
        let topo = Topology::erdos_renyi_symmetric(16, 0.3, &mut rng, 50).unwrap();
        assert!(topo.is_strongly_connected());
        for node in topo.nodes() {
            assert_eq!(topo.in_degree(node), topo.out_degree(node));
            for in_port in 0..topo.in_degree(node) {
                assert!(topo.reverse_port(node, in_port).is_some());
            }
        }
    }

    #[test]
    fn symmetric_erdos_renyi_rejects_unconnectable() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(22);
        assert_eq!(
            Topology::erdos_renyi_symmetric(10, 0.0, &mut rng, 3).unwrap_err(),
            TopologyError::NotConnected
        );
    }

    #[test]
    fn parallel_edges_allowed() {
        let topo = Topology::from_edges(2, [(0, 1), (0, 1), (1, 0)]).unwrap();
        assert_eq!(topo.out_degree(NodeId::new(0)), 2);
        assert!(topo.is_strongly_connected());
    }
}
