//! The practical side of universality (§3): one LSTF slack heuristic per
//! network-wide objective, compared with the specialist scheduler for
//! that objective — on a dumbbell so the effects are easy to see.
//!
//! ```sh
//! cargo run --release --example objectives
//! ```

use ups::core::objectives::Scheme;
use ups::core::{run_fairness, run_fct, run_goodput, run_tail_delays};
use ups::metrics::Cdf;
use ups::net::{FlowId, TraceLevel};
use ups::sim::{Bandwidth, Dur, Time};
use ups::topo::simple::dumbbell;
use ups::transport::FlowDesc;

fn topo() -> ups::topo::Topology {
    dumbbell(
        8,
        Bandwidth::gbps(10),
        Bandwidth::gbps(1),
        Dur::from_micros(20),
        TraceLevel::Delivery,
    )
}

fn main() {
    // --- Objective 1: mean flow completion time (§3.1) ---------------
    // Two mice and six elephants race across the bottleneck; SJF-style
    // slack (flow_size × D) should protect the mice, FIFO should not.
    let t = topo();
    let flows: Vec<FlowDesc> = (0..8)
        .map(|i| FlowDesc {
            id: FlowId(i),
            src: t.hosts[i as usize],
            dst: t.hosts[8 + i as usize],
            pkts: if i < 2 { 20 } else { 500 },
            start: Time::ZERO,
            deadline: None,
        })
        .collect();
    println!("== mean FCT (two 20-packet mice vs six 500-packet elephants) ==");
    for scheme in [
        Scheme::Fifo,
        Scheme::Sjf,
        Scheme::LstfFct {
            d: Dur::from_secs(1),
        },
    ] {
        let res = run_fct(topo(), &flows, &scheme, 500_000, Time::from_secs(5));
        let mouse_fct: Vec<f64> = res
            .iter()
            .filter(|r| r.desc.pkts < 100)
            .filter_map(|r| r.fct().map(|d| d.as_secs_f64() * 1e3))
            .collect();
        println!(
            "{:<12} mouse FCTs: {:?} ms",
            scheme.label(),
            mouse_fct
                .iter()
                .map(|f| (f * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
    }

    // --- Objective 2: tail packet delay (§3.2) ------------------------
    let t = topo();
    let flows: Vec<FlowDesc> = (0..8)
        .map(|i| FlowDesc {
            id: FlowId(i),
            src: t.hosts[i as usize],
            dst: t.hosts[8 + (i as usize + 1) % 8],
            pkts: 200,
            start: Time::from_micros(11 * i),
            deadline: None,
        })
        .collect();
    println!("\n== tail packet delay (UDP, identical load) ==");
    for scheme in [
        Scheme::Fifo,
        Scheme::LstfConst {
            slack: Dur::from_secs(1),
        },
    ] {
        let delays = run_tail_delays(topo(), &flows, &scheme, 1500, None);
        let cdf = Cdf::new(delays);
        println!(
            "{:<12} mean {:.1}us p99 {:.1}us max {:.1}us",
            scheme.label(),
            cdf.mean() * 1e6,
            cdf.quantile(0.99) * 1e6,
            cdf.quantile(1.0) * 1e6
        );
    }

    // --- Objective 3: fairness (§3.3) ---------------------------------
    let t = topo();
    let flows: Vec<FlowDesc> = (0..8)
        .map(|i| FlowDesc {
            id: FlowId(i),
            src: t.hosts[i as usize],
            dst: t.hosts[8 + i as usize],
            pkts: u64::MAX / 2,
            start: Time::from_micros(40 * i),
            deadline: None,
        })
        .collect();
    println!("\n== fairness (8 long-lived TCP flows share 1 Gbps) ==");
    for scheme in [
        Scheme::Fifo,
        Scheme::Fq,
        Scheme::LstfVc {
            rest: Bandwidth::mbps(10),
        },
    ] {
        let pts = run_fairness(
            topo(),
            &flows,
            &scheme,
            Dur::from_millis(1),
            Time::from_millis(15),
            None,
        );
        let series: Vec<f64> = pts
            .iter()
            .map(|p| (p.jain * 1000.0).round() / 1000.0)
            .collect();
        println!("{:<12} Jain index per ms: {series:?}", scheme.label());
    }

    // --- Weighted fairness (§3.3 extension) ---------------------------
    // "Different values of rest for different flows, in proportion to
    // the desired weights": four long-lived flows with weights 4:2:1:1
    // should split the bottleneck's goodput in that proportion.
    let flows: Vec<FlowDesc> = flows[..4]
        .iter()
        .enumerate()
        .map(|(i, f)| FlowDesc {
            start: Time::from_micros(13 * i as u64),
            ..f.clone()
        })
        .collect();
    let wanted = [4.0, 2.0, 1.0, 1.0];
    let weighted = Scheme::LstfVcWeighted {
        base: Bandwidth::mbps(50),
        weights: flows.iter().map(|f| f.id).zip(wanted).collect(),
    };
    println!("\n== weighted fairness (4 long-lived TCP flows, weights {wanted:?}) ==");
    for scheme in [
        Scheme::LstfVc {
            rest: Bandwidth::mbps(50),
        },
        weighted,
    ] {
        let bytes = run_goodput(topo(), &flows, &scheme, Time::from_millis(30), None);
        let total = bytes.iter().sum::<u64>() as f64;
        let shares: Vec<f64> = bytes
            .iter()
            .map(|&b| (1000.0 * b as f64 / total).round() / 10.0)
            .collect();
        println!(
            "{:<12} goodput share per flow: {shares:?} %",
            scheme.label()
        );
    }
}
