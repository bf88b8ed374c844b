//! Nodes (hosts and routers) and their out-links.
//!
//! A node holds no routing state of its own: routes are computed once
//! per wired graph into the shared [`crate::RoutingTable`]
//! ([`crate::network::Network::compute_routes`]), and packets are
//! source-routed along paths resolved from that table at injection
//! time — the paper's model takes `path(p)` as part of the input.

use crate::packet::{LinkId, NodeId};

/// Whether a node sources/sinks traffic or only forwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// End host: packets originate and terminate here.
    Host,
    /// Store-and-forward router.
    Router,
}

/// A network node.
#[derive(Debug)]
pub struct Node {
    /// Dense id (index into `Network::nodes`).
    pub id: NodeId,
    /// Human-readable name (topology builders set e.g. `"core:CHIC"`).
    pub name: String,
    /// Host or router.
    pub kind: NodeKind,
    /// Outgoing links, in creation order.
    pub out_links: Vec<LinkId>,
}

impl Node {
    /// Create a node with no links.
    pub fn new(id: NodeId, name: String, kind: NodeKind) -> Node {
        Node {
            id,
            name,
            kind,
            out_links: Vec::new(),
        }
    }

    /// True if this node is an end host.
    pub fn is_host(&self) -> bool {
        self.kind == NodeKind::Host
    }
}
