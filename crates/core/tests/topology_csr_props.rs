//! Property tests for the compressed adjacency of [`Topology`].
//!
//! Every accessor is compared with a naive reference built from the same
//! `(src, dst)` pairs: one `Vec` of edge ids per node and direction, the
//! in-port found by scanning the destination's in-edges, and the reply
//! port found by the O(in · out) scan "first out-port whose edge points
//! back to the in-edge's source". Random pair lists over at most 64 nodes
//! hit self-loops, parallel edges and isolated nodes often; the named
//! constructors are checked the same way.

use proptest::prelude::*;

use abe_core::topology::{EdgeId, NodeId, NO_REPLY};
use abe_core::Topology;

/// The adjacency as one `Vec` per node, in edge-id (= port) order.
struct Naive {
    pairs: Vec<(u32, u32)>,
    out: Vec<Vec<usize>>,
    inc: Vec<Vec<usize>>,
}

impl Naive {
    fn new(n: u32, pairs: &[(u32, u32)]) -> Self {
        let mut out = vec![Vec::new(); n as usize];
        let mut inc = vec![Vec::new(); n as usize];
        for (id, &(src, dst)) in pairs.iter().enumerate() {
            out[src as usize].push(id);
            inc[dst as usize].push(id);
        }
        Self {
            pairs: pairs.to_vec(),
            out,
            inc,
        }
    }

    fn in_port(&self, edge: usize) -> usize {
        let dst = self.pairs[edge].1 as usize;
        self.inc[dst].iter().position(|&e| e == edge).unwrap()
    }

    fn reverse_port(&self, node: usize, in_port: usize) -> Option<usize> {
        let src = self.pairs[self.inc[node][in_port]].0;
        self.out[node].iter().position(|&e| self.pairs[e].1 == src)
    }
}

/// Checks every adjacency accessor of `topo` against the naive reference.
fn check(topo: &Topology) -> Result<(), TestCaseError> {
    let n = topo.node_count();
    let pairs: Vec<(u32, u32)> = topo
        .edges()
        .map(|(_, e)| (e.src.index() as u32, e.dst.index() as u32))
        .collect();
    let naive = Naive::new(n, &pairs);
    let ids = |edges: &[EdgeId]| edges.iter().map(|e| e.index()).collect::<Vec<_>>();
    for v in 0..n as usize {
        let node = NodeId::new(v as u32);
        prop_assert_eq!(ids(topo.out_edges(node)), naive.out[v].clone());
        prop_assert_eq!(ids(topo.in_edges(node)), naive.inc[v].clone());
        prop_assert_eq!(topo.out_degree(node), naive.out[v].len());
        prop_assert_eq!(topo.in_degree(node), naive.inc[v].len());
        let replies = topo.reply_ports(node);
        prop_assert_eq!(replies.len(), naive.inc[v].len());
        for (in_port, &reply) in replies.iter().enumerate() {
            let expected = naive.reverse_port(v, in_port);
            prop_assert_eq!(topo.reverse_port(node, in_port), expected);
            prop_assert_eq!((reply != NO_REPLY).then_some(reply as usize), expected);
        }
        prop_assert_eq!(topo.reverse_port(node, naive.inc[v].len()), None);
    }
    for (id, _) in topo.edges() {
        prop_assert_eq!(topo.in_port(id), naive.in_port(id.index()));
    }
    prop_assert_eq!(topo.reverse_port(NodeId::new(n), 0), None);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random multigraphs: each `u64` becomes one `(src, dst)` pair.
    #[test]
    fn csr_matches_naive_adjacency(
        n in 1u32..=64,
        raw in prop::collection::vec(any::<u64>(), 0..160),
    ) {
        let pairs: Vec<(u32, u32)> = raw
            .iter()
            .map(|&r| ((r % n as u64) as u32, ((r >> 32) % n as u64) as u32))
            .collect();
        let topo = Topology::from_edges(n, pairs.iter().copied()).unwrap();
        prop_assert_eq!(topo.edge_count(), pairs.len());
        for (id, e) in topo.edges() {
            prop_assert_eq!((e.src.index() as u32, e.dst.index() as u32), pairs[id.index()]);
        }
        check(&topo)?;
    }

    /// Dense multigraphs on few nodes: self-loops and parallel edges in
    /// nearly every case.
    #[test]
    fn csr_matches_naive_on_dense_multigraphs(
        n in 1u32..=4,
        raw in prop::collection::vec(any::<u64>(), 0..40),
    ) {
        let pairs = raw
            .iter()
            .map(|&r| ((r % n as u64) as u32, ((r >> 32) % n as u64) as u32));
        check(&Topology::from_edges(n, pairs).unwrap())?;
    }
}

#[test]
fn csr_matches_naive_on_named_constructors() {
    for n in 1..=9 {
        for topo in [
            Topology::unidirectional_ring(n),
            Topology::bidirectional_ring(n),
            Topology::line(n),
            Topology::star(n),
            Topology::complete(n),
        ] {
            check(&topo.unwrap()).unwrap();
        }
    }
    for (w, h) in [(1, 1), (1, 4), (2, 2), (3, 4), (5, 3)] {
        check(&Topology::torus(w, h).unwrap()).unwrap();
    }
}

#[test]
fn isolated_nodes_have_empty_adjacency() {
    let topo = Topology::from_edges(5, [(1, 3), (3, 1)]).unwrap();
    for v in [0, 2, 4] {
        let node = NodeId::new(v);
        assert!(topo.out_edges(node).is_empty());
        assert!(topo.in_edges(node).is_empty());
        assert!(topo.reply_ports(node).is_empty());
    }
    check(&topo).unwrap();
}
