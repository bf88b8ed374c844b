//! The benchmark's workloads: registered scenarios at quick scale, and
//! the input properties a sharing optimisation would exploit, computed
//! from the grid spec before anything runs.

use std::collections::BTreeSet;
use ups_sweep::scenario::{self, Scenario};
use ups_sweep::{CellPipeline, SimScale, SweepSpec};

/// One benchmark workload: a registered scenario plus how much of it a
/// run measures.
#[derive(Debug)]
pub struct Workload {
    /// The scenario's registry name, which is also the workload name.
    pub name: &'static str,
    /// Seed replicates per grid cell. More replicates put more work in
    /// one grid, which averages out seed-to-seed workload variation.
    pub replicates: usize,
    /// Fresh processes that each time one cold set-up.
    pub setup_samples: usize,
}

/// Every workload, in presentation order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dc-k8-web",
        replicates: 2,
        setup_samples: 9,
    },
    Workload {
        name: "dc-k8-deadline-replay",
        replicates: 1,
        setup_samples: 9,
    },
    Workload {
        name: "rocketfuel-full",
        replicates: 4,
        setup_samples: 5,
    },
];

/// The committed artifact the `dc-k8-web` runs are checked against, and
/// the settings it was written at.
pub struct Baseline {
    /// Workload whose scenario the baseline pins.
    pub workload: &'static str,
    /// Path relative to the repository root.
    pub path: &'static str,
    /// Base seed of the committed run.
    pub seed: u64,
    /// Replicates of the committed run.
    pub replicates: usize,
}

/// The one baseline a run checks byte for byte.
pub const BASELINE: Baseline = Baseline {
    workload: "dc-k8-web",
    path: "baselines/dc-k8-web_quick.json",
    seed: 1,
    replicates: 2,
};

/// Look up a workload by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The quick scale every workload runs at (the `sweep` CLI default).
pub fn sim() -> SimScale {
    ups_bench::scale::Scale::quick().sim()
}

impl Workload {
    /// The registered scenario this workload runs.
    pub fn scenario(&self) -> &'static Scenario {
        scenario::find(self.name).expect("every workload names a registered scenario")
    }

    /// The grid one run measures: the scenario's cells at `seed`.
    pub fn spec(&self, seed: u64) -> SweepSpec {
        self.scenario()
            .spec()
            .with_seed(seed)
            .with_replicates(self.replicates)
    }
}

/// Shares of a grid's work that repeat work done earlier in the same
/// grid — what a record-once or build-once optimisation would skip.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RepeatShares {
    /// Share of recordings whose inputs equal an earlier recording's.
    pub record: f64,
    /// Share of topology builds that repeat an earlier build.
    pub topo_build: f64,
}

/// Compute [`RepeatShares`] from the grid spec alone.
///
/// A recording is a pure function of (topology, utilisation, seed, and
/// — under the classic pipeline — the original scheduler); the deadline
/// pipeline always records EDF, so its scheduler coordinate (the replay
/// candidate) does not enter the key. Every job builds its topology
/// twice (record and replay leg), and a build depends on the topology
/// kind only.
pub fn repeat_shares(scenario: &Scenario, spec: &SweepSpec) -> RepeatShares {
    let jobs = spec.jobs();
    let records: BTreeSet<_> = jobs
        .iter()
        .map(|j| {
            let original = match scenario.pipeline {
                CellPipeline::Replay => Some(j.coord.sched.label()),
                CellPipeline::DeadlineReplay => None,
            };
            (
                j.coord.topo.label(),
                j.coord.util.to_bits(),
                j.seed,
                original,
            )
        })
        .collect();
    let builds: BTreeSet<_> = jobs.iter().map(|j| j.coord.topo.label()).collect();
    let share = |distinct: usize, total: usize| 1.0 - distinct as f64 / total as f64;
    RepeatShares {
        record: share(records.len(), jobs.len()),
        topo_build: share(builds.len(), 2 * jobs.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_is_a_registered_scenario() {
        for w in WORKLOADS {
            assert_eq!(w.scenario().name, w.name);
            assert!(!w.spec(1).cells.is_empty());
        }
        assert!(find(BASELINE.workload).is_some());
        assert!(find("no-such-workload").is_none());
    }

    #[test]
    fn repeat_shares_follow_the_grid() {
        let share = |name: &str, replicates: usize| {
            let s = scenario::find(name).unwrap();
            repeat_shares(s, &s.spec().with_replicates(replicates))
        };
        // Nine deadline cells record three distinct EDF schedules.
        let d = share("dc-k8-deadline-replay", 1);
        assert!((d.record - 2.0 / 3.0).abs() < 1e-12);
        assert!((d.topo_build - 17.0 / 18.0).abs() < 1e-12);
        // Classic cells each record their own original.
        assert_eq!(share("dc-k8-web", 2).record, 0.0);
        assert_eq!(share("rocketfuel-full", 1).topo_build, 0.75);
    }
}
