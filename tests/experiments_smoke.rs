//! Smoke tests of every experiment grid at a tiny scale, through the
//! entry points the `sweep` binary uses: `ups_bench::grids::find` and
//! the runner each name resolves to. Every table, figure and ablation
//! runs end to end and produces structurally sane output.

use ups_bench::grids::{self, Ablation, Grid};
use ups_bench::Scale;
use ups_sim::Dur;
use ups_sweep::{run_sweep, scenario, FigReport, SweepReport, TopoKind};
use ups_topo::internet2::I2Variant;

fn tiny() -> Scale {
    Scale {
        edges_per_core: 2,
        horizon: Dur::from_millis(2),
        fattree_k: 4,
        seed: 3,
        // jobs > 1 makes this suite exercise the parallel worker pool
        // under `cargo test`.
        jobs: 4,
        replicates: 1,
        label: "tiny",
    }
}

fn table(name: &str) -> SweepReport {
    let Some(Grid::Table(spec)) = grids::find(name) else {
        panic!("`{name}` is not a table grid");
    };
    let scale = tiny();
    run_sweep(&spec().with_seed(scale.seed), &scale.sim(), scale.jobs)
}

fn figure(name: &str) -> FigReport {
    let Some(Grid::Figure(runner)) = grids::find(name) else {
        panic!("`{name}` is not a figure grid");
    };
    runner(&tiny())
}

fn ablation(name: &str) -> (&'static Ablation, Vec<SweepReport>) {
    let Some(Grid::Ablation(a)) = grids::find(name) else {
        panic!("`{name}` is not an ablation");
    };
    let scale = tiny();
    let spec = a.spec().with_seed(scale.seed);
    (a, a.run_spec(&spec, &scale.sim(), scale.jobs))
}

#[test]
fn table1_produces_all_fourteen_rows() {
    let report = table("table1");
    let rows = &report.results;
    assert_eq!(rows.len(), 14);
    for r in rows {
        let topo = r.coord.topo.label();
        assert!(r.total.mean > 0.0, "{topo}: empty run");
        assert!(r.frac_overdue.mean <= 1.0 && r.frac_gt_t.mean <= r.frac_overdue.mean);
        assert!(r.t_us.mean > 0.0);
        if r.coord.topo == TopoKind::I2(I2Variant::Default1g10g) {
            // T is one 1500 B transmission at the 1 Gb/s edge.
            assert_eq!(r.t_us.mean, 12.0, "{topo}: threshold T");
        }
    }
    // The table covers all three topology families.
    let topos: Vec<String> = rows.iter().map(|r| r.coord.topo.label()).collect();
    assert!(topos.iter().any(|t| t.starts_with("I2")));
    assert!(topos.iter().any(|t| t == "RocketFuel"));
    assert!(topos.iter().any(|t| t == "Datacenter"));
    // And the five original schedulers of row 5.
    for orig in ["FIFO", "FQ", "SJF", "LIFO", "FQ/FIFO+"] {
        assert!(
            rows.iter().any(|r| r.coord.sched.label() == orig),
            "missing {orig}"
        );
    }
}

#[test]
fn fig1_cdfs_show_lstf_reducing_queueing() {
    let report = figure("fig1");
    assert_eq!(report.results.len(), 6);
    let at_ratio_1 = report
        .axis
        .xs
        .iter()
        .position(|&x| x == 1.0)
        .expect("fig1 axis covers ratio 1.0");
    for r in &report.results {
        // Scalars: [packets, median, p90].
        assert!(r.scalars[0].mean > 0.0, "{}: empty ratio CDF", r.series);
        // The paper's observation: a large share of packets see *less*
        // queueing in the replay (ratio <= 1). Loosely asserted.
        let share = r.points[at_ratio_1].mean;
        assert!(
            share > 0.3,
            "{}: only {share:.2} of packets at ratio<=1",
            r.series
        );
    }
}

#[test]
fn fig2_reports_buckets_for_every_scheme() {
    let report = figure("fig2");
    assert_eq!(report.results.len(), 4);
    // paper_fig2: ten bucket edges plus the open tail.
    assert_eq!(report.axis.xs.len(), 11);
    assert_eq!(report.axis.labels.as_ref().unwrap().len(), 11);
    for r in &report.results {
        assert_eq!(r.points.len(), 11);
        // Scalars: [mean_fct_s, completed_flows, total_flows].
        assert!(r.scalars[0].mean > 0.0, "{}: zero mean FCT", r.series);
        assert!(r.scalars[1].mean > 0.0, "{}: nothing completed", r.series);
        assert!(r.scalars[1].mean <= r.scalars[2].mean);
    }
}

#[test]
fn fig3_produces_tail_stats() {
    let report = figure("fig3");
    assert_eq!(report.results.len(), 2);
    let at = |p: f64| report.axis.xs.iter().position(|&x| x == p).unwrap();
    let (p99, p999, max) = (at(99.0), at(99.9), at(100.0));
    for r in &report.results {
        // Scalars: [mean_s, packets].
        let mean = r.scalars[0].mean;
        assert!(mean > 0.0 && r.points[p99].mean >= mean, "{}", r.series);
        assert!(r.points[max].mean >= r.points[p999].mean, "{}", r.series);
        for w in r.points.windows(2) {
            assert!(w[0].mean <= w[1].mean, "{}: non-monotone", r.series);
        }
    }
    // Identical open-loop load: packet counts match.
    assert_eq!(
        report.results[0].scalars[1].mean,
        report.results[1].scalars[1].mean
    );
}

#[test]
fn fig4_fairness_series_has_all_schemes() {
    let report = figure("fig4");
    assert_eq!(report.results.len(), 7); // FIFO, FQ, five rest values
    assert_eq!(report.axis.xs.len(), 20);
    for r in &report.results {
        assert_eq!(r.points.len(), 20, "{}: wrong window count", r.series);
        assert!(r.points.iter().all(|s| (0.0..=1.0).contains(&s.mean)));
    }
    // FQ converges to near-perfect fairness.
    let fq = &report.results[1];
    assert_eq!(fq.series, "FQ");
    let last = fq.points.last().unwrap();
    assert!(last.mean > 0.9, "FQ final {}", last.mean);
}

#[test]
fn ablations_run_and_are_consistent() {
    let (a, reports) = ablation("ablation-candidates");
    assert_eq!(reports.len(), 4);
    let by_mode = |mode: &str| {
        let name = format!("{}_{mode}", a.name);
        let r = reports.iter().find(|r| r.name == name).unwrap();
        r.results[0].frac_overdue.mean
    };
    assert_eq!(by_mode("lstf"), by_mode("edf"), "EDF != LSTF");
    assert_eq!(by_mode("omniscient"), 0.0, "omniscient must be perfect");

    let (_, keys) = ablation("ablation-lstf-key");
    assert_eq!(keys.len(), 2);
    assert_eq!(
        keys[0].results[0].frac_overdue, keys[1].results[0].frac_overdue,
        "key modes must coincide for uniform packet sizes"
    );

    let (_, pre) = ablation("ablation-preempt");
    assert_eq!(pre.len(), 2);
    assert!(pre.iter().all(|r| r.results.len() == 4));
}

#[test]
fn congestion_points_cover_topologies() {
    let report = figure("congestion-points");
    assert_eq!(report.results.len(), 5);
    assert_eq!(report.axis.xs.len(), 9);
    for r in &report.results {
        let total: f64 = r.points.iter().map(|s| s.mean).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "{}: shares sum to {total}",
            r.series
        );
    }
}

#[test]
fn every_grid_name_resolves_and_none_shadows_a_scenario() {
    let names = grids::names();
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate grid names");
    for name in &names {
        assert!(grids::find(name).is_some(), "`{name}` does not resolve");
    }
    for name in scenario::names() {
        assert!(
            matches!(grids::find(name), Some(Grid::Scenario(s)) if s.name == name),
            "`{name}` is shadowed by an earlier grid"
        );
    }
    assert!(grids::find("no-such-grid").is_none());
}
