//! The frozen forwarding table: a flat next-hop cache plus path resolution.
//!
//! [`crate::Network::compute_routes`] runs one reverse Dijkstra per
//! destination and writes each pass's equal-cost next hops straight into
//! a [`RoutingTable`]: a dense CSR-style `(destination, node) →
//! [next-hop links]` array, destination-major, members in the node's
//! out-link order. Resolving one hop is two array indexes — an offset
//! lookup and an ECMP member pick. The table also snapshots each link's
//! `(to, bw, prop)` so walking a route ([`RoutingTable::walk`]) or
//! materializing it ([`RoutingTable::resolve_path`]) needs no access to
//! the `Network` at all.
//!
//! The handle doubles as the API's proof of route finalization: packet
//! injection ([`crate::Network::inject`]) takes `&RoutingTable`, so
//! "inject before routing" fails to compile instead of panicking at run
//! time.
//!
//! ECMP determinism: a flow's hash ([`RoutingTable::flow_hash`]) depends
//! only on the flow id, so it is computed **once** per walk and reused at
//! every hop, and a flow keeps one path for its whole life (original and
//! replay runs see identical paths). The integration proptest checks the
//! table against an independent Floyd–Warshall oracle on random
//! connected topologies.
//!
//! # Route memo
//!
//! The table is a pure function of the wired graph: the node count, each
//! node's out-links in order, and each link's `(from, to, bw, prop)`.
//! [`crate::Network::compute_routes`] keeps the most recent distinct
//! graph together with its table and hands the same `Arc` back when the
//! next graph is *equal* to it — compared field by field, never by hash.
//! Sweep grids enumerate cells topology-major, so back-to-back builds of
//! one topology route it once. Only the immutable table is shared; every
//! build still owns a fresh `Network`.

use crate::link::Link;
use crate::node::Node;
use crate::packet::{FlowId, LinkId, NodeId, Path};
use std::sync::{Arc, Mutex, PoisonError};
use ups_sim::{Bandwidth, Dur};

/// Paths longer than this are treated as routing loops.
const MAX_HOPS: usize = 64;

/// Immutable, flat forwarding state computed from a wired [`crate::Network`].
#[derive(Debug)]
pub struct RoutingTable {
    /// Number of nodes (the table is dense over `n × n` pairs).
    n: usize,
    /// CSR offsets, destination-major: the equal-cost next hops of
    /// `(node, dest)` are `hops[off[dest·n + node] .. off[dest·n + node + 1]]`.
    /// An empty range means unreachable (or `node == dest`).
    off: Box<[u32]>,
    /// Concatenated ECMP member links for every `(node, dest)` pair.
    hops: Box<[LinkId]>,
    /// Per-link receiving node, indexed by `LinkId`.
    link_to: Box<[NodeId]>,
    /// Per-link serialization rate, indexed by `LinkId`.
    link_bw: Box<[Bandwidth]>,
    /// Per-link propagation delay, indexed by `LinkId`.
    link_prop: Box<[Dur]>,
}

impl RoutingTable {
    /// Shortest-path next hops for every (node, destination) pair. Link
    /// cost = propagation delay + transmission time of a 1500-byte
    /// packet; the equal-cost members of a pair keep the node's out-link
    /// order.
    fn compute(nodes: &[Node], links: &[Link]) -> RoutingTable {
        let n = nodes.len();
        // in_links[v] = links arriving at v (for the reverse Dijkstra).
        let mut in_links: Vec<Vec<LinkId>> = vec![Vec::new(); n];
        for l in links {
            in_links[l.to.0 as usize].push(l.id);
        }
        // Per-link cost, computed once: `tx_time` is a 128-bit division,
        // and the relaxation loops below would otherwise repeat it for
        // every (destination, edge) pair.
        let cost: Vec<u64> = links
            .iter()
            .map(|l| (l.prop + l.bw.tx_time(1500)).as_ps())
            .collect();

        let mut off = Vec::with_capacity(n * n + 1);
        let mut hops = Vec::new();
        off.push(0u32);
        // One reverse Dijkstra per destination, in destination order, so
        // each pass appends exactly its own CSR rows. The scratch vectors
        // are reused across destinations.
        let mut dist: Vec<u64> = Vec::new();
        let mut heap = std::collections::BinaryHeap::new();
        for dest in 0..n {
            dist.clear();
            dist.resize(n, u64::MAX);
            dist[dest] = 0;
            heap.clear();
            heap.push(std::cmp::Reverse((0u64, dest as u32)));
            while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
                if d > dist[v as usize] {
                    continue;
                }
                for &lid in &in_links[v as usize] {
                    let u = links[lid.0 as usize].from.0 as usize;
                    let nd = d + cost[lid.0 as usize];
                    if nd < dist[u] {
                        dist[u] = nd;
                        heap.push(std::cmp::Reverse((nd, u as u32)));
                    }
                }
            }
            // Row (dest, u): every outgoing link of u on a shortest path.
            for (u, node) in nodes.iter().enumerate() {
                if u != dest && dist[u] != u64::MAX {
                    for &lid in &node.out_links {
                        let to = links[lid.0 as usize].to.0 as usize;
                        if dist[to] != u64::MAX && cost[lid.0 as usize] + dist[to] == dist[u] {
                            hops.push(lid);
                        }
                    }
                }
                off.push(u32::try_from(hops.len()).expect("routing table exceeds u32 offsets"));
            }
        }
        RoutingTable {
            n,
            off: off.into(),
            hops: hops.into(),
            link_to: links.iter().map(|l| l.to).collect(),
            link_bw: links.iter().map(|l| l.bw).collect(),
            link_prop: links.iter().map(|l| l.prop).collect(),
        }
    }

    /// The deterministic ECMP hash of a flow id (SplitMix-style
    /// avalanche, so consecutive flow ids spread across an ECMP set).
    /// Hop-invariant by construction, so callers hash once per walk.
    pub fn flow_hash(flow: FlowId) -> u64 {
        let mut z = flow.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next link from `node` toward `dest` for a flow with the given
    /// precomputed [`flow_hash`](RoutingTable::flow_hash). Two array
    /// indexes: the CSR offset pair, then the hash-picked ECMP member.
    /// `None` if unreachable (or `node == dest`).
    #[inline]
    pub fn next_hop(&self, node: NodeId, dest: NodeId, hash: u64) -> Option<LinkId> {
        let idx = dest.0 as usize * self.n + node.0 as usize;
        let (lo, hi) = (self.off[idx] as usize, self.off[idx + 1] as usize);
        match hi - lo {
            0 => None,
            1 => Some(self.hops[lo]),
            w => Some(self.hops[lo + (hash % w as u64) as usize]),
        }
    }

    /// Number of equal-cost next hops from `node` toward `dest`
    /// (0 = unreachable).
    pub fn ecmp_width(&self, node: NodeId, dest: NodeId) -> usize {
        let idx = dest.0 as usize * self.n + node.0 as usize;
        (self.off[idx + 1] - self.off[idx]) as usize
    }

    /// Walk the route of `flow` from `src` to `dst` link by link, without
    /// allocating. The iterator panics if no route exists; routes longer
    /// than 64 hops are treated as routing loops.
    pub fn walk(&self, src: NodeId, dst: NodeId, flow: FlowId) -> Walk<'_> {
        Walk {
            table: self,
            src,
            at: src,
            dst,
            hash: Self::flow_hash(flow),
            hops: 0,
        }
    }

    /// Resolve the full source route for `flow` from `src` to `dst`: the
    /// [`walk`](RoutingTable::walk) with each link's bandwidth and delay.
    /// Panics if no route exists.
    pub fn resolve_path(&self, src: NodeId, dst: NodeId, flow: FlowId) -> Arc<Path> {
        let links: Box<[LinkId]> = self.walk(src, dst, flow).collect();
        Arc::new(Path {
            bw: links.iter().map(|l| self.link_bw[l.0 as usize]).collect(),
            prop: links.iter().map(|l| self.link_prop[l.0 as usize]).collect(),
            links,
        })
    }
}

/// The links of one route in forwarding order; see [`RoutingTable::walk`].
#[derive(Debug)]
pub struct Walk<'a> {
    table: &'a RoutingTable,
    src: NodeId,
    at: NodeId,
    dst: NodeId,
    hash: u64,
    hops: usize,
}

impl Iterator for Walk<'_> {
    type Item = LinkId;

    #[inline]
    fn next(&mut self) -> Option<LinkId> {
        if self.at == self.dst {
            return None;
        }
        let (at, dst) = (self.at, self.dst);
        let hop = self
            .table
            .next_hop(at, dst, self.hash)
            .unwrap_or_else(|| panic!("no route {at:?} -> {dst:?}"));
        self.hops += 1;
        assert!(
            self.hops <= MAX_HOPS,
            "routing loop {:?} -> {dst:?}",
            self.src
        );
        self.at = self.table.link_to[hop.0 as usize];
        Some(hop)
    }
}

/// Everything [`RoutingTable::compute`] reads from the wired graph.
#[derive(Debug)]
struct Graph {
    /// Each node's out-links, in order.
    out: Box<[Box<[LinkId]>]>,
    /// Per-link `(from, to, bw, prop)`, indexed by `LinkId`.
    links: Box<[(NodeId, NodeId, Bandwidth, Dur)]>,
}

impl Graph {
    fn of(nodes: &[Node], links: &[Link]) -> Graph {
        Graph {
            out: nodes
                .iter()
                .map(|n| n.out_links.as_slice().into())
                .collect(),
            links: links.iter().map(|l| (l.from, l.to, l.bw, l.prop)).collect(),
        }
    }

    /// Field-by-field equality with the graph `(nodes, links)`.
    fn is(&self, nodes: &[Node], links: &[Link]) -> bool {
        self.out.len() == nodes.len()
            && self.links.len() == links.len()
            && self
                .out
                .iter()
                .zip(nodes)
                .all(|(o, n)| o[..] == n.out_links[..])
            && self
                .links
                .iter()
                .zip(links)
                .all(|(&k, l)| k == (l.from, l.to, l.bw, l.prop))
    }
}

/// The most recent distinct graph and its table (see the module docs).
static LAST: Mutex<Option<(Graph, Arc<RoutingTable>)>> = Mutex::new(None);

/// The routing table of the graph `(nodes, links)`: the memoized one if
/// the graph equals the last one routed, else a fresh computation that
/// replaces the memo.
pub(crate) fn routes_for(nodes: &[Node], links: &[Link]) -> Arc<RoutingTable> {
    // Every update of `LAST` is one assignment, so a poisoned lock still
    // guards a consistent value.
    let last = || LAST.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((graph, table)) = &*last() {
        if graph.is(nodes, links) {
            return Arc::clone(table);
        }
    }
    // Computed outside the lock, so workers routing different graphs run
    // in parallel; racing workers on one graph compute equal tables.
    let table = Arc::new(RoutingTable::compute(nodes, links));
    *last() = Some((Graph::of(nodes, links), Arc::clone(&table)));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_hash_is_deterministic_and_spreads() {
        let mut counts = [0u32; 4];
        for f in 0..4000 {
            let h = RoutingTable::flow_hash(FlowId(f));
            assert_eq!(h, RoutingTable::flow_hash(FlowId(f)));
            counts[(h % 4) as usize] += 1;
        }
        for c in counts {
            assert!(c > 700, "skewed ECMP spread: {counts:?}");
        }
    }
}
