//! Metric names, units, and the per-layer reduction of a composed run.

use crate::compose::{CellRun, Composed};
use crate::trace::{count, self_ms, self_times};

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("hops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topo.build_ms", "ms"),
    ("topo.builds", "count"),
    ("topo.build_repeat_share", "share"),
    ("flowgen.build_ms", "ms"),
    ("flowgen.flows", "count"),
    ("flowgen.pkts", "count"),
    ("core.record_ms", "ms"),
    ("core.records", "count"),
    ("core.record_repeat_share", "share"),
    ("core.replay_ms", "ms"),
    ("core.replays", "count"),
    ("core.record_ns_per_hop", "ns/hop"),
    ("core.replay_ns_per_hop", "ns/hop"),
    ("core.score_ms", "ms"),
    ("core.deadline_stats_ms", "ms"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns/event"),
    ("net.hops", "count"),
    ("net.peak_in_flight", "count"),
    ("net.drops", "count"),
    ("net.teardown_ms", "ms"),
    ("sched.enqueued", "count"),
    ("sched.max_queue_pkts", "count"),
    ("sweep.cells", "count"),
    ("sweep.artifact_ms", "ms"),
    ("sweep.artifact_bytes", "bytes"),
    ("sweep.traced_total_ms", "ms"),
    ("sweep.residual_ms", "ms"),
    ("bench.trace_overhead_ms", "ms"),
];

/// Spans that stand for a layer's work. The root (`sweep.grid`) and
/// per-job (`sweep.cell`) spans are structure: their self time — engine
/// bookkeeping, metric reduction, counter reads — is the residual.
pub const LAYER_SPANS: &[&str] = &[
    "topo.build",
    "flowgen.build",
    "core.record",
    "core.replay",
    "core.score",
    "core.deadline_stats",
    "net.teardown",
    "sweep.artifact",
];

/// Unit of a metric listed in [`END_TO_END`] or [`PER_LAYER`].
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .expect("every reported metric is listed")
}

/// Packet-hops simulated over every record and replay leg.
pub fn hops(c: &Composed) -> u64 {
    c.cells.iter().map(|r| r.record.hops + r.replay.hops).sum()
}

/// Host milliseconds a composed run spent in its record and replay legs.
pub fn legs_ms(c: &Composed) -> f64 {
    let selfs = self_times(&c.spans);
    self_ms(&c.spans, &selfs, "core.record") + self_ms(&c.spans, &selfs, "core.replay")
}

/// `hops_per_s`: packet-hops per host second of the record and replay
/// legs. The untraced grid's wall time is split by the share of the
/// traced total the composed pass spent in those legs, so build,
/// workload and artifact time cancel out of the rate, and so does a
/// seed that draws more or fewer hops.
pub fn hops_per_s(hops: u64, wall_s: f64, legs_ms: f64, traced_ms: f64) -> f64 {
    hops as f64 / (wall_s * legs_ms / traced_ms)
}

/// The per-layer metrics of a composed run, in [`PER_LAYER`] order. The
/// driver adds the rest: the two repeat shares, which it computes from
/// the grid spec before anything runs, and `bench.trace_overhead_ms`,
/// which needs the untraced wall time.
pub fn per_layer(c: &Composed) -> Vec<(&'static str, f64)> {
    let selfs = self_times(&c.spans);
    let ms = |name| self_ms(&c.spans, &selfs, name);
    let sum = |f: &dyn Fn(&CellRun) -> u64| c.cells.iter().map(f).sum::<u64>() as f64;
    let max = |f: &dyn Fn(&CellRun) -> u64| c.cells.iter().map(f).max().unwrap_or(0) as f64;
    let total_ms = c.spans[0].duration_ns() as f64 / 1e6;
    let layers_ms: f64 = LAYER_SPANS.iter().map(|n| ms(n)).sum();
    let record_hops = sum(&|r| r.record.hops).max(1.0);
    let replay_hops = sum(&|r| r.replay.hops).max(1.0);
    let events = sum(&|r| r.record.events + r.replay.events);
    vec![
        ("topo.build_ms", ms("topo.build")),
        ("topo.builds", count(&c.spans, "topo.build") as f64),
        ("flowgen.build_ms", ms("flowgen.build")),
        ("flowgen.flows", sum(&|r| r.flows)),
        ("flowgen.pkts", sum(&|r| r.flow_pkts)),
        ("core.record_ms", ms("core.record")),
        ("core.records", count(&c.spans, "core.record") as f64),
        ("core.replay_ms", ms("core.replay")),
        ("core.replays", count(&c.spans, "core.replay") as f64),
        (
            "core.record_ns_per_hop",
            ms("core.record") * 1e6 / record_hops,
        ),
        (
            "core.replay_ns_per_hop",
            ms("core.replay") * 1e6 / replay_hops,
        ),
        ("core.score_ms", ms("core.score")),
        ("core.deadline_stats_ms", ms("core.deadline_stats")),
        ("sim.events", events),
        (
            "sim.ns_per_event",
            (ms("core.record") + ms("core.replay")) * 1e6 / events.max(1.0),
        ),
        ("net.hops", hops(c) as f64),
        (
            "net.peak_in_flight",
            max(&|r| r.record.peak_in_flight.max(r.replay.peak_in_flight)),
        ),
        ("net.drops", sum(&|r| r.record.dropped + r.replay.dropped)),
        ("net.teardown_ms", ms("net.teardown")),
        (
            "sched.enqueued",
            sum(&|r| r.record.enqueued + r.replay.enqueued),
        ),
        (
            "sched.max_queue_pkts",
            max(&|r| r.record.max_queue_pkts.max(r.replay.max_queue_pkts)),
        ),
        ("sweep.cells", c.cells.len() as f64),
        ("sweep.artifact_ms", ms("sweep.artifact")),
        ("sweep.artifact_bytes", c.artifact_bytes as f64),
        ("sweep.traced_total_ms", total_ms),
        ("sweep.residual_ms", total_ms - layers_ms),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose;
    use crate::trace::Clock;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::atomic::{AtomicU64, Ordering};
    use ups_sim::Dur;
    use ups_sweep::scenario;
    use ups_sweep::{Json, SimScale};

    /// Whether `name` matches `[A-Za-z0-9_.-]+`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad metric name `{n}`");
        }
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        assert!(!valid_name("a b") && !valid_name("") && !valid_name("ms/op"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Json::Obj(top) = &doc else {
                panic!("not an object")
            };
            let Some((_, Json::Arr(items))) = top.iter().find(|(k, _)| k == key) else {
                panic!("no `{key}` array")
            };
            items
                .iter()
                .map(|m| {
                    let Json::Obj(m) = m else {
                        panic!("metric is not an object")
                    };
                    let field = |f: &str| match m.iter().find(|(k, _)| k == f) {
                        Some((_, Json::Str(s))) => s.clone(),
                        _ => panic!("metric without `{f}`"),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn only_the_legs_move_the_hop_rate() {
        let base = hops_per_s(1_000, 2.0, 500.0, 2_000.0);
        assert_eq!(base, 2_000.0);
        // Two more seconds of building, in the grid and the traced pass.
        assert_eq!(hops_per_s(1_000, 4.0, 500.0, 4_000.0), base);
        // Twice the hops in twice the leg time.
        assert_eq!(hops_per_s(2_000, 2.5, 1_000.0, 2_500.0), base);
        // Legs twice as fast.
        assert_eq!(hops_per_s(1_000, 1.75, 250.0, 1_750.0), 2.0 * base);
    }

    /// A clock that advances 1 µs per reading.
    struct Ticks(AtomicU64);

    impl Clock for Ticks {
        fn now_ns(&self) -> u64 {
            self.0.fetch_add(1_000, Ordering::Relaxed) + 1_000
        }
    }

    fn composed(seed: u64, dir: &str) -> Composed {
        let s = scenario::find("i2-deadline-mix").unwrap();
        let sim = SimScale {
            edges_per_core: 2,
            horizon: Dur::from_millis(2),
            fattree_k: 4,
            label: "tiny",
        };
        let out = std::env::temp_dir().join(format!("perfbench-{}-{dir}", std::process::id()));
        let spec = s.spec().with_seed(seed);
        let c = compose::run(s, &spec, &sim, &out, Ticks(AtomicU64::new(0)))
            .expect("composed run writes its artifacts");
        std::fs::remove_dir_all(&out).expect("remove scratch artifacts");
        c
    }

    #[test]
    fn the_split_accounts_for_the_total_and_the_seed_moves_the_hops() {
        let a = composed(1, "a");
        let m: BTreeMap<_, _> = per_layer(&a).into_iter().collect();
        assert_eq!(m.len(), PER_LAYER.len() - 3);
        assert_eq!(m["sweep.cells"], 2.0);
        assert_eq!(m["topo.builds"], 4.0);
        assert_eq!(m["core.records"], 2.0);
        assert!(m["net.hops"] > 0.0 && m["sim.events"] > 0.0);
        assert!(a.cells.iter().all(|c| c.violations().is_empty()));
        // Layer self times plus the residual are the traced total.
        let split: f64 = [
            "topo.build_ms",
            "flowgen.build_ms",
            "core.record_ms",
            "core.replay_ms",
            "core.score_ms",
            "core.deadline_stats_ms",
            "net.teardown_ms",
            "sweep.artifact_ms",
            "sweep.residual_ms",
        ]
        .iter()
        .map(|k| m[k])
        .sum();
        assert!((split - m["sweep.traced_total_ms"]).abs() < 1e-9);
        assert!(m["sweep.residual_ms"] > 0.0);
        let b = composed(2, "b");
        assert_ne!(hops(&a), hops(&b), "a new seed draws a new workload");
    }
}
