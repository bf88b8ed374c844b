//! An independent routing oracle for the integration tests, and the
//! random connected topologies it is checked on.
//!
//! The oracle shares nothing with `RoutingTable`'s construction except
//! the link cost and the flow hash: distances come from Floyd–Warshall
//! over the whole graph, not a per-destination Dijkstra, and each ECMP
//! set is read off those distances in the node's out-link order.

use ups::net::{FlowId, LinkId, Network, NodeId, RoutingTable, TraceLevel};
use ups::sim::{Bandwidth, Dur};

/// SplitMix64 step — a tiny deterministic generator so one `u64` seed
/// expands into a whole random topology.
pub fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build a random connected topology: a random spanning tree over `n`
/// routers plus `extra` random duplex links (parallel links allowed —
/// they form equal-cost sets).
pub fn random_connected(n: u32, extra: u32, seed: u64) -> Network {
    let mut s = seed;
    let mut net = Network::new(TraceLevel::Off);
    let bws = [Bandwidth::gbps(1), Bandwidth::gbps(10), Bandwidth::gbps(40)];
    let props = [
        Dur::from_micros(1),
        Dur::from_micros(5),
        Dur::from_micros(10),
    ];
    for i in 0..n {
        net.add_router(format!("r{i}"));
    }
    for i in 1..n {
        let parent = NodeId((mix(&mut s) % i as u64) as u32);
        let bw = bws[(mix(&mut s) % 3) as usize];
        let prop = props[(mix(&mut s) % 3) as usize];
        net.add_duplex(NodeId(i), parent, bw, prop);
    }
    for _ in 0..extra {
        let a = NodeId((mix(&mut s) % n as u64) as u32);
        let b = NodeId((mix(&mut s) % n as u64) as u32);
        if a == b {
            continue;
        }
        let bw = bws[(mix(&mut s) % 3) as usize];
        let prop = props[(mix(&mut s) % 3) as usize];
        net.add_duplex(a, b, bw, prop);
    }
    net
}

/// The ECMP set of every `(node, dest)` pair, indexed `node · n + dest`.
pub struct Oracle {
    n: usize,
    ecmp: Vec<Vec<LinkId>>,
}

impl Oracle {
    /// All-pairs shortest paths by Floyd–Warshall on the routing cost
    /// (propagation delay + one 1500-byte transmission), then per pair
    /// every out-link of the node that starts a shortest path.
    pub fn of(net: &Network) -> Oracle {
        let n = net.nodes.len();
        let cost: Vec<u64> = net
            .links
            .iter()
            .map(|l| (l.prop + l.bw.tx_time(1500)).as_ps())
            .collect();
        let mut d = vec![u64::MAX; n * n];
        for i in 0..n {
            d[i * n + i] = 0;
        }
        for l in &net.links {
            let e = &mut d[l.from.0 as usize * n + l.to.0 as usize];
            *e = (*e).min(cost[l.id.0 as usize]);
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let (ik, kj) = (d[i * n + k], d[k * n + j]);
                    if ik != u64::MAX && kj != u64::MAX && ik + kj < d[i * n + j] {
                        d[i * n + j] = ik + kj;
                    }
                }
            }
        }
        let mut ecmp = Vec::with_capacity(n * n);
        for (u, node) in net.nodes.iter().enumerate() {
            for t in 0..n {
                let set = node
                    .out_links
                    .iter()
                    .copied()
                    .filter(|&lid| {
                        let to = net.links[lid.0 as usize].to.0 as usize;
                        u != t
                            && d[to * n + t] != u64::MAX
                            && cost[lid.0 as usize] + d[to * n + t] == d[u * n + t]
                    })
                    .collect();
                ecmp.push(set);
            }
        }
        Oracle { n, ecmp }
    }

    /// The equal-cost next hops from `node` toward `dest`.
    pub fn ecmp(&self, node: NodeId, dest: NodeId) -> &[LinkId] {
        &self.ecmp[node.0 as usize * self.n + dest.0 as usize]
    }

    /// The oracle's pick for a flow hash: the same modulo rule as the
    /// forwarding table.
    pub fn next_hop(&self, node: NodeId, dest: NodeId, hash: u64) -> Option<LinkId> {
        let set = self.ecmp(node, dest);
        (!set.is_empty()).then(|| set[(hash % set.len() as u64) as usize])
    }

    /// The route of `flow`, walked hop by hop through the oracle's sets.
    pub fn path(&self, net: &Network, src: NodeId, dst: NodeId, flow: FlowId) -> Vec<LinkId> {
        let hash = RoutingTable::flow_hash(flow);
        let mut links = Vec::new();
        let mut at = src;
        while at != dst {
            let hop = self
                .next_hop(at, dst, hash)
                .unwrap_or_else(|| panic!("oracle: no route {at:?} -> {dst:?}"));
            links.push(hop);
            at = net.links[hop.0 as usize].to;
            assert!(links.len() <= net.nodes.len(), "oracle: routing loop");
        }
        links
    }

    /// Check `table` against the oracle for `net`: every pair's ECMP
    /// width and next hop under each of `flows`, and every route's links,
    /// bandwidths and delays. Returns the first mismatch.
    pub fn check(&self, net: &Network, table: &RoutingTable, flows: &[u64]) -> Result<(), String> {
        for u in 0..self.n as u32 {
            for t in 0..self.n as u32 {
                let (u, t) = (NodeId(u), NodeId(t));
                let want = self.ecmp(u, t).len();
                if table.ecmp_width(u, t) != want {
                    return Err(format!("ecmp_width {u:?}->{t:?}: want {want}"));
                }
                for &f in flows {
                    let hash = RoutingTable::flow_hash(FlowId(f));
                    if table.next_hop(u, t, hash) != self.next_hop(u, t, hash) {
                        return Err(format!("next_hop {u:?}->{t:?} flow {f}"));
                    }
                    if u == t {
                        continue;
                    }
                    let path = table.resolve_path(u, t, FlowId(f));
                    if path.links[..] != self.path(net, u, t, FlowId(f))[..] {
                        return Err(format!("resolve_path {u:?}->{t:?} flow {f}"));
                    }
                    for (k, &lid) in path.links.iter().enumerate() {
                        let l = &net.links[lid.0 as usize];
                        if (path.bw[k], path.prop[k]) != (l.bw, l.prop) {
                            return Err(format!("link {lid:?} rate or delay on {u:?}->{t:?}"));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}
