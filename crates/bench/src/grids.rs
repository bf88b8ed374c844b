//! The `--grid` catalogue: one name lookup from a grid name to the
//! runner behind it. Names resolve in a fixed order — named table
//! grids, figures, ablations, then the scenario registry — and no
//! earlier name shadows a scenario.

use crate::runners::{
    congestion_points_report, fig1_report, fig2_report, fig3_report, fig4_report,
};
use crate::scale::Scale;
use ups_core::replay::ReplayMode;
use ups_sched::{LstfKeyMode, SchedKind};
use ups_sweep::scenario::{self, Scenario};
use ups_sweep::{
    record_and_replay, run_sweep_with, FigReport, SimScale, SweepReport, SweepSpec, TopoKind,
};
use ups_topo::internet2::I2Variant;

/// What a `--grid` name runs.
#[derive(Debug, Clone, Copy)]
pub enum Grid {
    /// A named table grid on the classic record-and-replay pipeline.
    Table(fn() -> SweepSpec),
    /// A figure grid: series × a fixed x-axis.
    Figure(fn(&Scale) -> FigReport),
    /// A table grid run once per replay mode.
    Ablation(&'static Ablation),
    /// A registered scenario.
    Scenario(&'static Scenario),
}

/// The named table grids, then the figure grids, in lookup order.
const NAMED: &[(&str, Grid)] = &[
    ("table1", Grid::Table(SweepSpec::table1)),
    ("smoke", Grid::Table(SweepSpec::smoke)),
    ("sched", Grid::Table(SweepSpec::sched_grid)),
    ("topo", Grid::Table(SweepSpec::topo_grid)),
    ("fig1", Grid::Figure(fig1_report)),
    ("fig2", Grid::Figure(fig2_report)),
    ("fig3", Grid::Figure(fig3_report)),
    ("fig4", Grid::Figure(fig4_report)),
    ("congestion-points", Grid::Figure(congestion_points_report)),
];

/// An ablation: original schedulers on the default Internet2 topology
/// at 70%, each recorded and then replayed under several modes. Every
/// mode writes its own table artifact, `<grid>_<mode>`.
#[derive(Debug)]
pub struct Ablation {
    /// Grid name (kebab-case).
    pub name: &'static str,
    /// What the ablation compares.
    pub title: &'static str,
    /// The original schedulers, one cell each.
    pub originals: &'static [SchedKind],
    /// The replay modes, each with its kebab-case artifact suffix.
    pub modes: &'static [(&'static str, ReplayMode)],
}

/// The ablation grids, in lookup order.
pub const ABLATIONS: &[Ablation] = &[
    Ablation {
        name: "ablation-preempt",
        title: "§2.3(5) — non-preemptive vs preemptive LSTF on the hard replays",
        originals: &[
            SchedKind::Sjf,
            SchedKind::Lifo,
            SchedKind::Fifo,
            SchedKind::Random,
        ],
        modes: &[
            ("lstf", ReplayMode::lstf()),
            ("lstf-preemptive", ReplayMode::lstf_preemptive()),
        ],
    },
    Ablation {
        name: "ablation-candidates",
        title: "§2.3(7) — one Random original replayed by every candidate UPS",
        originals: &[SchedKind::Random],
        modes: &[
            ("lstf", ReplayMode::lstf()),
            ("priority", ReplayMode::Priority),
            ("edf", ReplayMode::Edf),
            ("omniscient", ReplayMode::Omniscient),
        ],
    },
    Ablation {
        name: "ablation-lstf-key",
        title: "LSTF key — last-bit vs pure deadline (equal for uniform packet sizes)",
        originals: &[SchedKind::Random],
        modes: &[
            ("last-bit", ReplayMode::lstf()),
            (
                "pure-deadline",
                ReplayMode::Lstf {
                    preemptive: false,
                    key: LstfKeyMode::PureDeadline,
                },
            ),
        ],
    },
];

impl Ablation {
    /// The grid's cells, named after the ablation.
    pub fn spec(&self) -> SweepSpec {
        SweepSpec::cartesian(
            self.name,
            &[TopoKind::I2(I2Variant::Default1g10g)],
            self.originals,
            &[0.7],
        )
    }

    /// Run `spec` (from [`Ablation::spec`], with the caller's seed and
    /// replicates) once per mode. Report `i` is named
    /// `<spec name>_<mode i suffix>`, and each is byte-identical for
    /// every `jobs` value. Each mode records the originals again; see
    /// ROADMAP's "Record once, replay many".
    pub fn run_spec(&self, spec: &SweepSpec, sim: &SimScale, jobs: usize) -> Vec<SweepReport> {
        self.modes
            .iter()
            .map(|&(suffix, mode)| {
                let spec = SweepSpec {
                    name: format!("{}_{suffix}", spec.name),
                    ..spec.clone()
                };
                run_sweep_with(&spec, sim.label, jobs, |job| {
                    record_and_replay(&job.coord, sim, job.seed, mode).metrics()
                })
            })
            .collect()
    }
}

/// Look up a `--grid` name: named table grids, figures, ablations, then
/// the scenario registry.
pub fn find(name: &str) -> Option<Grid> {
    NAMED
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, grid)| grid)
        .or_else(|| {
            ABLATIONS
                .iter()
                .find(|a| a.name == name)
                .map(Grid::Ablation)
        })
        .or_else(|| scenario::find(name).map(Grid::Scenario))
}

/// Every `--grid` name, in lookup order.
pub fn names() -> Vec<&'static str> {
    NAMED
        .iter()
        .map(|&(n, _)| n)
        .chain(ABLATIONS.iter().map(|a| a.name))
        .chain(scenario::names())
        .collect()
}
