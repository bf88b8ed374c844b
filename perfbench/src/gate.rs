//! Result-level correctness checks that hold for every seed.

use ups_sched::SchedKind;
use ups_sweep::scenario::Scenario;
use ups_sweep::{CellPipeline, SweepReport, SweepResult};

/// The Appendix E identity on a deadline-replay report: for every
/// utilisation, the LSTF row equals the EDF row in every column but the
/// scheduler label, and both have no overdue packet. Returns one
/// message per LSTF cell that breaks it; empty for other pipelines.
pub fn edf_lstf_identity(scenario: &Scenario, report: &SweepReport) -> Vec<String> {
    if scenario.pipeline != CellPipeline::DeadlineReplay {
        return Vec::new();
    }
    let rows = |sched: SchedKind| {
        report
            .results
            .iter()
            .filter(move |r| r.coord.sched == sched)
    };
    let mut out = Vec::new();
    for lstf in rows(SchedKind::Lstf) {
        let peer =
            |r: &&SweepResult| r.coord.util == lstf.coord.util && r.coord.chaos == lstf.coord.chaos;
        let Some(edf) = rows(SchedKind::Edf).find(peer) else {
            out.push(format!("util {}: LSTF row has no EDF row", lstf.coord.util));
            continue;
        };
        if render_as_edf(lstf) != render_as_edf(edf) {
            out.push(format!(
                "util {}: LSTF row differs from the EDF row",
                lstf.coord.util
            ));
        }
        if edf.frac_overdue.mean != 0.0 || lstf.frac_overdue.mean != 0.0 {
            out.push(format!(
                "util {}: FracOverdue EDF {} LSTF {}, want 0",
                lstf.coord.util, edf.frac_overdue.mean, lstf.frac_overdue.mean
            ));
        }
    }
    out
}

/// One row rendered through the artifact writer with its scheduler
/// label set to EDF, so two rows compare in every column the artifact
/// has, today's and any added later.
fn render_as_edf(row: &SweepResult) -> String {
    let mut row = row.clone();
    row.coord.sched = SchedKind::Edf;
    SweepReport {
        name: String::new(),
        scale: String::new(),
        base_seed: 0,
        replicates: row.replicates,
        results: vec![row],
    }
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_sweep::scenario;
    use ups_sweep::{DeadlineAgg, Stat};

    fn stat(mean: f64) -> Stat {
        Stat {
            mean,
            stddev: 0.0,
            stderr: 0.0,
        }
    }

    /// A deadline-replay report whose EDF and LSTF rows agree.
    fn report(s: &Scenario) -> SweepReport {
        let results = s
            .spec()
            .cells
            .iter()
            .map(|&coord| SweepResult {
                coord,
                replicates: 1,
                total: stat(1000.0 * coord.util),
                frac_overdue: stat(if coord.sched == SchedKind::Priority {
                    0.1
                } else {
                    0.0
                }),
                frac_gt_t: stat(0.0),
                t_us: stat(1.2),
                max_cp: stat(3.0),
                mean_slack_us: stat(4.5),
                deadline: Some(DeadlineAgg {
                    tagged: stat(40.0),
                    miss_rate: stat(coord.util / 10.0),
                    mean_lateness_us: stat(7.0),
                    p99_lateness_us: stat(16.0),
                }),
                chaos: None,
            })
            .collect();
        SweepReport {
            name: s.name.to_string(),
            scale: "quick".to_string(),
            base_seed: 1,
            replicates: 1,
            results,
        }
    }

    #[test]
    fn a_perturbed_lstf_row_fails_the_gate() {
        let s = scenario::find("dc-k8-deadline-replay").unwrap();
        let good = report(s);
        assert!(edf_lstf_identity(s, &good).is_empty());
        let lstf = |r: &mut SweepReport| {
            let i = r
                .results
                .iter()
                .position(|c| c.coord.sched == SchedKind::Lstf)
                .unwrap();
            r.results.remove(i)
        };
        // A column the identity does not name explicitly still counts.
        let mut bad = good.clone();
        let mut row = lstf(&mut bad);
        row.deadline.as_mut().unwrap().p99_lateness_us = stat(32.0);
        bad.results.push(row);
        assert_eq!(edf_lstf_identity(s, &bad).len(), 1);
        // Identical rows that are both overdue break it too.
        let mut late = good.clone();
        for r in &mut late.results {
            r.frac_overdue = stat(0.01);
        }
        assert_eq!(edf_lstf_identity(s, &late).len(), 3);
        // A missing EDF partner is a failure, not a pass.
        let mut orphan = good.clone();
        orphan.results.retain(|r| r.coord.sched != SchedKind::Edf);
        assert_eq!(edf_lstf_identity(s, &orphan).len(), 3);
    }

    #[test]
    fn classic_pipelines_have_no_identity_to_check() {
        let s = scenario::find("dc-k8-web").unwrap();
        let d = scenario::find("dc-k8-deadline-replay").unwrap();
        assert!(edf_lstf_identity(s, &report(d)).is_empty());
    }
}
