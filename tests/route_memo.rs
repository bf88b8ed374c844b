//! The route memo under `Network::compute_routes`: a graph equal to the
//! last one routed gets the same table back, and any difference in the
//! routing input — one link's rate or delay, one node's out-link order —
//! gets a fresh table that matches the independent oracle.
//!
//! The memo is process-wide, so these tests serialize on one lock: a
//! concurrent test routing another graph between two builds would
//! replace the memo and turn an expected hit into a miss.

mod support;

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use support::{random_connected, Oracle};
use ups::net::{Network, NodeId, RoutingTable, TraceLevel};
use ups::sim::{Bandwidth, Dur};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const FLOWS: [u64; 6] = [0, 1, 2, 3, 97, u64::MAX];

/// Route `net` and check the table against the oracle.
fn routed(net: &mut Network) -> Arc<RoutingTable> {
    let table = net.compute_routes();
    assert_eq!(Oracle::of(net).check(net, &table, &FLOWS), Ok(()));
    table
}

/// Two equal-cost routes from `a` to `d` (via `b`, then via `c`), so the
/// order of `a`'s out-links decides which flow takes which route.
fn diamond() -> Network {
    let mut net = Network::new(TraceLevel::Off);
    let [a, b, c, d] = ["a", "b", "c", "d"].map(|name| net.add_router(name));
    for (x, y) in [(a, b), (a, c), (b, d), (c, d)] {
        net.add_duplex(x, y, Bandwidth::gbps(10), Dur::from_micros(5));
    }
    net
}

#[test]
fn an_identical_graph_shares_its_table() {
    let _serial = serial();
    let first = routed(&mut random_connected(9, 6, 11));
    let second = routed(&mut random_connected(9, 6, 11));
    assert!(
        Arc::ptr_eq(&first, &second),
        "equal graphs must share a table"
    );
}

#[test]
fn one_link_rate_or_delay_changes_the_table() {
    let _serial = serial();
    let base = routed(&mut random_connected(9, 6, 12));
    let mut slower = random_connected(9, 6, 12);
    slower.links[0].bw = Bandwidth::mbps(100);
    let slower_table = routed(&mut slower);
    assert!(!Arc::ptr_eq(&base, &slower_table), "bw is routing input");
    let mut longer = random_connected(9, 6, 12);
    longer.links[0].prop = Dur::from_micros(500);
    let longer_table = routed(&mut longer);
    assert!(
        !Arc::ptr_eq(&slower_table, &longer_table),
        "prop is routing input"
    );
}

#[test]
fn out_link_order_changes_the_table() {
    let _serial = serial();
    let (a, d) = (NodeId(0), NodeId(3));
    let mut net = diamond();
    let table = routed(&mut net);
    assert_eq!(table.ecmp_width(a, d), 2);
    let mut swapped = diamond();
    swapped.nodes[0].out_links.reverse();
    let swapped_table = routed(&mut swapped);
    assert!(
        !Arc::ptr_eq(&table, &swapped_table),
        "out-link order is routing input"
    );
    // The equal-cost members trade places, so every flow hash picks the
    // other route.
    for hash in 0..4 {
        assert_ne!(
            table.next_hop(a, d, hash),
            swapped_table.next_hop(a, d, hash)
        );
    }
}

#[test]
fn alternating_graphs_stay_correct() {
    let _serial = serial();
    let a1 = routed(&mut random_connected(10, 8, 13));
    let b = routed(&mut random_connected(10, 8, 14));
    let a2 = routed(&mut random_connected(10, 8, 13));
    assert!(!Arc::ptr_eq(&a1, &b));
    // Only the most recent graph is kept, so A is routed again.
    assert!(!Arc::ptr_eq(&a1, &a2), "the memo holds one graph");
    let a3 = routed(&mut random_connected(10, 8, 13));
    assert!(Arc::ptr_eq(&a2, &a3));
}
