//! Figure runners: each builds a [`FigSpec`] and runs it on the sweep
//! engine, one [`DistMetrics`] payload per (series, seed) cell. The
//! `sweep` binary reaches them through [`crate::grids::find`], and the
//! integration tests call them at a reduced [`Scale`].

use crate::scale::Scale;
use ups_core::objectives::Scheme;
use ups_core::replay::{record_original, ReplayMode};
use ups_core::workload::{default_udp_workload, to_flow_descs};
use ups_metrics::{bucket_means, Cdf, SizeBuckets};
use ups_net::TraceLevel;
use ups_sched::SchedKind;
use ups_sim::{Bandwidth, Dur, Time};
use ups_sweep::{
    record_and_replay, run_fig_with, CellCoord, ChaosSpec, DistMetrics, FigAxis, FigReport,
    FigSpec, TopoKind,
};
use ups_topo::internet2::{self, I2Config, I2Variant};

/// Every figure runs on the default Internet2 topology unless it says
/// otherwise.
const I2: TopoKind = TopoKind::I2(I2Variant::Default1g10g);

/// One Figure-1 cell: record `orig`'s schedule at `seed`, replay it
/// under LSTF, and sample the queueing-delay ratio CDF at `xs`; scalars
/// are the packet count, the median and the 90th percentile.
fn fig1_cell(scale: &Scale, orig: SchedKind, seed: u64, xs: &[f64]) -> DistMetrics {
    let coord = CellCoord {
        topo: I2,
        sched: orig,
        util: 0.7,
        chaos: ChaosSpec::OFF,
    };
    let run = record_and_replay(&coord, &scale.sim(), seed, ReplayMode::lstf());
    let cdf = Cdf::new(run.report.qdelay_ratios);
    if cdf.is_empty() {
        return DistMetrics {
            scalars: vec![0.0; 3],
            points: vec![0.0; xs.len()],
        };
    }
    DistMetrics {
        scalars: vec![cdf.len() as f64, cdf.quantile(0.5), cdf.quantile(0.9)],
        points: cdf.at_many(xs),
    }
}

/// Figure 1: the CDF of the queueing-delay ratio (LSTF replay :
/// original) for six original schedulers on Internet2 at 70%, on a
/// fixed ratio axis with mean ± stddev per point over seed replicates.
pub fn fig1_report(scale: &Scale) -> FigReport {
    let originals = [
        SchedKind::Random,
        SchedKind::Fifo,
        SchedKind::Fq,
        SchedKind::Sjf,
        SchedKind::Lifo,
        SchedKind::FqFifoPlusMix,
    ];
    // 0.0 to 2.0 in steps of 0.1 — the paper's plotted range. i/10 (not
    // i*0.1): the division rounds to the double nearest the decimal, so
    // artifact x values print as `1.2`, not `1.2000000000000002`.
    let xs: Vec<f64> = (0..=20).map(|i| i as f64 / 10.0).collect();
    let spec = FigSpec::new(
        "fig1",
        "Figure 1 — CDF of queueing-delay ratio (LSTF replay : original)",
        originals.iter().map(|o| o.label().to_string()).collect(),
        FigAxis::numeric("ratio", xs.clone()),
    )
    .with_scalars(&["packets", "median", "p90"])
    .with_replicates(scale.replicates)
    .with_seed(scale.seed);
    run_fig_with(&spec, scale.label, scale.jobs, |job| {
        fig1_cell(scale, originals[job.series], job.seed, &xs)
    })
}

/// One Figure-2 cell: TCP flows (seed-drawn workload, 5 MB buffers)
/// under `scheme`; scalars are the mean FCT and the completed and total
/// flow counts, points the mean FCT per flow-size bucket.
fn fig2_cell(scale: &Scale, buckets: &SizeBuckets, scheme: &Scheme, seed: u64) -> DistMetrics {
    let topo = I2.build(&scale.sim());
    let flows = default_udp_workload(&topo, 0.7, scale.horizon, seed);
    drop(topo);
    let horizon = Time::ZERO + scale.horizon * 40 + Dur::from_secs(2);
    let buffer = 5_000_000; // 5 MB, as in §3.1
    let res = ups_core::run_fct(I2.build(&scale.sim()), &flows, scheme, buffer, horizon);
    let done: Vec<_> = res.iter().filter(|r| r.completed.is_some()).collect();
    let sizes: Vec<u64> = done.iter().map(|r| r.desc.pkts).collect();
    let fcts: Vec<f64> = done
        .iter()
        .map(|r| r.fct().expect("completed").as_secs_f64())
        .collect();
    let mean = if fcts.is_empty() {
        0.0
    } else {
        fcts.iter().sum::<f64>() / fcts.len() as f64
    };
    DistMetrics {
        scalars: vec![mean, done.len() as f64, res.len() as f64],
        points: bucket_means(buckets, &sizes, &fcts)
            .into_iter()
            .map(|(mean, _)| mean)
            .collect(),
    }
}

/// Figure 2: mean FCT by flow-size bucket under FIFO / SJF / SRPT /
/// LSTF(fs×D), TCP with finite buffers, with mean ± stddev over seed
/// replicates. Buckets with no completed flows in a replicate contribute
/// 0 to that replicate's point (see the artifact schema in `ups-sweep`'s
/// crate docs).
pub fn fig2_report(scale: &Scale) -> FigReport {
    let buckets = SizeBuckets::paper_fig2();
    let schemes = [
        Scheme::Fifo,
        Scheme::Sjf,
        Scheme::Srpt,
        Scheme::LstfFct {
            d: Dur::from_secs(1),
        },
    ];
    let labels = (0..buckets.count()).map(|b| buckets.label(b)).collect();
    let spec = FigSpec::new(
        "fig2",
        "Figure 2 — mean FCT by flow size (TCP, 5 MB buffers)",
        schemes.iter().map(|s| s.label()).collect(),
        FigAxis::categorical("bucket_pkts", labels),
    )
    .with_scalars(&["mean_fct_s", "completed_flows", "total_flows"])
    .with_replicates(scale.replicates)
    .with_seed(scale.seed);
    run_fig_with(&spec, scale.label, scale.jobs, |job| {
        fig2_cell(scale, &buckets, &schemes[job.series], job.seed)
    })
}

/// One Figure-3 cell: per-packet delays under `scheme` on a seed-drawn
/// open-loop UDP workload (identical load across schemes at one seed);
/// scalars are the mean delay and the packet count, points the delay at
/// each of `ps` (quantiles in `[0, 1]`). An empty workload (e.g.
/// `--horizon-ms 0`) yields all-zero statistics rather than a quantile
/// panic.
fn fig3_cell(scale: &Scale, scheme: &Scheme, seed: u64, ps: &[f64]) -> DistMetrics {
    let topo = I2.build(&scale.sim());
    let flows = default_udp_workload(&topo, 0.7, scale.horizon, seed);
    drop(topo);
    let delays = ups_core::run_tail_delays(I2.build(&scale.sim()), &flows, scheme, 1500, None);
    let cdf = Cdf::new(delays);
    if cdf.is_empty() {
        return DistMetrics {
            scalars: vec![0.0; 2],
            points: vec![0.0; ps.len()],
        };
    }
    DistMetrics {
        scalars: vec![cdf.mean(), cdf.len() as f64],
        points: cdf.quantiles(ps),
    }
}

/// Figure 3: per-packet delay at fixed percentiles under FIFO vs LSTF
/// with constant slack (≡ FIFO+), open-loop UDP so the load is
/// identical, with mean ± stddev over seed replicates.
pub fn fig3_report(scale: &Scale) -> FigReport {
    let schemes = [
        Scheme::Fifo,
        Scheme::LstfConst {
            slack: Dur::from_secs(1),
        },
    ];
    let xs = vec![50.0, 90.0, 95.0, 99.0, 99.9, 100.0];
    let ps: Vec<f64> = xs.iter().map(|&p| p / 100.0).collect();
    let spec = FigSpec::new(
        "fig3",
        "Figure 3 — tail packet delay percentiles, FIFO vs LSTF(const)",
        schemes.iter().map(|s| s.label()).collect(),
        FigAxis::numeric("percentile", xs),
    )
    .with_scalars(&["mean_s", "packets"])
    .with_replicates(scale.replicates)
    .with_seed(scale.seed);
    run_fig_with(&spec, scale.label, scale.jobs, |job| {
        fig3_cell(scale, &schemes[job.series], job.seed, &ps)
    })
}

/// Figure 4's measurement windows: 1 ms windows over a 20 ms horizon
/// (fixed — convergence behavior, not workload volume, is the subject).
fn fig4_windows() -> (Dur, Time) {
    (Dur::from_millis(1), Time::from_millis(20))
}

/// One Figure-4 cell: the Jain-index time series for long-lived TCP
/// flows (jittered starts drawn from `seed`) under `scheme`, one point
/// per window; scalars are the final and the mean index.
///
/// Per the paper: Internet2 with 10 Gbps edges so all congestion is in
/// the core, shortened propagation delays, jittered flow starts, and
/// LSTF slack from the virtual-clock rule at several `rest` estimates.
fn fig4_cell(scale: &Scale, scheme: &Scheme, seed: u64) -> DistMetrics {
    let factory = || {
        internet2::build(
            &I2Config {
                variant: I2Variant::Access10g10g,
                core_bw: Bandwidth::gbps(10),
                edges_per_core: scale.edges_per_core,
                core_prop_scale_percent: 10,
                ..Default::default()
            },
            TraceLevel::Delivery,
        )
    };
    let topo = factory();
    let n_flows = (topo.hosts.len() * 9 / 10).max(2);
    let flows = to_flow_descs(&ups_flowgen::long_lived_flows(
        &topo,
        n_flows,
        Dur::from_millis(5),
        seed,
    ));
    drop(topo);
    let (window, horizon) = fig4_windows();
    let jains: Vec<f64> = ups_core::run_fairness(factory(), &flows, scheme, window, horizon, None)
        .iter()
        .map(|p| p.jain)
        .collect();
    let mean = jains.iter().sum::<f64>() / jains.len() as f64;
    DistMetrics {
        scalars: vec![*jains.last().expect("windows"), mean],
        points: jains,
    }
}

/// Figure 4: Jain fairness convergence for long-lived TCP flows under
/// FIFO, FQ, and LSTF with virtual-clock slack at five `rest`
/// estimates; the per-window index with mean ± stddev over seed
/// replicates.
pub fn fig4_report(scale: &Scale) -> FigReport {
    let mut schemes = vec![Scheme::Fifo, Scheme::Fq];
    for rest_mbps in [1000, 500, 100, 50, 10] {
        schemes.push(Scheme::LstfVc {
            rest: Bandwidth::mbps(rest_mbps),
        });
    }
    let (window, horizon) = fig4_windows();
    // div_ceil, matching ups_metrics::throughput_fairness_series — a
    // floor here would desync the axis from the payload length if the
    // horizon ever stops being a multiple of the window.
    let n_windows = horizon.as_ps().div_ceil(window.as_ps()) as usize;
    let xs: Vec<f64> = (1..=n_windows).map(|w| w as f64).collect();
    let spec = FigSpec::new(
        "fig4",
        "Figure 4 — Jain fairness index over time (long-lived TCP)",
        schemes.iter().map(|s| s.label()).collect(),
        FigAxis::numeric("t_ms", xs),
    )
    .with_scalars(&["jain_final", "jain_mean"])
    .with_replicates(scale.replicates)
    .with_seed(scale.seed);
    run_fig_with(&spec, scale.label, scale.jobs, |job| {
        fig4_cell(scale, &schemes[job.series], job.seed)
    })
}

/// The congestion-point histogram's buckets: 0 to 7, then 8 or more.
const CP_BUCKETS: usize = 9;

/// One congestion-point cell: record the Random original at 70% on
/// `kind`; points are the share of packets per congestion-point bucket,
/// the scalar is the mean slack (µs).
fn congestion_points_cell(scale: &Scale, kind: TopoKind, seed: u64) -> DistMetrics {
    let mut topo = kind.build(&scale.sim());
    let flows = default_udp_workload(&topo, 0.7, scale.horizon, seed);
    let schedule = record_original(&mut topo, &flows, SchedKind::Random, seed, 1500);
    let mut counts = [0usize; CP_BUCKETS];
    for (cp, n) in schedule
        .congestion_point_histogram()
        .into_iter()
        .enumerate()
    {
        counts[cp.min(CP_BUCKETS - 1)] += n;
    }
    let total = counts.iter().sum::<usize>().max(1) as f64;
    DistMetrics {
        scalars: vec![schedule.mean_slack() / 1e6],
        points: counts.iter().map(|&n| n as f64 / total).collect(),
    }
}

/// §2.2 diagnostic: the share of packets per congestion-point count
/// under the Random original, one series per topology. The replay
/// theorems are stated in these terms: ≤2 congestion points ⇒ LSTF
/// replays perfectly; ≥3 ⇒ no UPS can.
pub fn congestion_points_report(scale: &Scale) -> FigReport {
    let topos = [
        I2,
        TopoKind::I2(I2Variant::Access1g1g),
        TopoKind::I2(I2Variant::Access10g10g),
        TopoKind::RocketFuel,
        TopoKind::FatTree,
    ];
    let labels = (0..CP_BUCKETS)
        .map(|k| match k {
            k if k + 1 < CP_BUCKETS => k.to_string(),
            k => format!("{k}+"),
        })
        .collect();
    let spec = FigSpec::new(
        "congestion-points",
        "Congestion points per packet (Random original, 70%)",
        topos.iter().map(|t| t.label()).collect(),
        FigAxis::categorical("cp", labels),
    )
    .with_scalars(&["mean_slack_us"])
    .with_replicates(scale.replicates)
    .with_seed(scale.seed);
    run_fig_with(&spec, scale.label, scale.jobs, |job| {
        congestion_points_cell(scale, topos[job.series], job.seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_report_aggregates_replicates() {
        // fig3 is the cheapest multi-scheme figure (two open-loop UDP
        // runs per replicate), so it carries the multi-replicate wiring
        // check; fig4's 20 ms TCP sims would cost ~50s here.
        let scale = Scale {
            edges_per_core: 2,
            horizon: Dur::from_millis(2),
            fattree_k: 4,
            seed: 7,
            jobs: 2,
            replicates: 2,
            label: "tiny",
        };
        let report = fig3_report(&scale);
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.axis.xs, [50.0, 90.0, 95.0, 99.0, 99.9, 100.0]);
        for r in &report.results {
            assert_eq!(r.replicates, 2);
            // Percentile curve is monotone in the mean.
            for w in r.points.windows(2) {
                assert!(w[0].mean <= w[1].mean, "{}: non-monotone", r.series);
            }
            // Two seeds draw different workloads → different packet
            // counts → nonzero spread on the count scalar.
            assert!(r.scalars[1].mean > 0.0, "{}: no packets", r.series);
            assert!(
                r.scalars[1].stddev > 0.0,
                "{}: replicates did not vary the seed",
                r.series
            );
        }
    }
}
