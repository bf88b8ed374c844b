//! Experiment scale parsed from the command line.

use std::path::PathBuf;
use ups_sim::Dur;
use ups_sweep::SimScale;

/// Flag reference (no `usage:` synopsis line, so `sweep` can print its
/// own synopsis above it).
pub const SCALE_FLAGS: &str = "\
scale flags:
  --full          paper-like scale (default: quick)
  --seed N        base RNG seed (default: 1)
  --horizon-ms N  flow-arrival horizon in milliseconds
  --edges N       edge routers per core router on WAN topologies
  --jobs N        worker threads (default: available parallelism;
                  output is identical for every value)
  --replicates N  seed replicates per grid cell, reported as
                  mean +/- stddev (default: 1)";

/// Remove every `--out DIR` from `args`, returning the last directory
/// given (default: `target/sweep`) — the artifact-directory flag of
/// every `sweep` run path.
pub fn take_out_flag(args: &mut Vec<String>) -> Result<PathBuf, String> {
    let mut out = PathBuf::from("target/sweep");
    while let Some(i) = args.iter().position(|a| a == "--out") {
        args.remove(i);
        if i >= args.len() {
            return Err("--out requires a value".to_string());
        }
        let value = args.remove(i);
        // A following flag means the DIR was forgotten; consuming it
        // silently would both mis-scale the run and write artifacts to
        // a `./--flag/` directory.
        if value.starts_with('-') {
            return Err(format!("--out requires a value, got flag `{value}`"));
        }
        out = PathBuf::from(value);
    }
    Ok(out)
}

/// Knobs that trade fidelity for runtime.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Edge routers (and hosts) per core router on WAN topologies
    /// (paper: 10).
    pub edges_per_core: usize,
    /// Flow-arrival horizon for open-loop workloads.
    pub horizon: Dur,
    /// Fat-tree arity.
    pub fattree_k: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads. Results are byte-identical for every value; this
    /// only trades wall-clock.
    pub jobs: usize,
    /// Seed replicates per sweep cell (mean ± stddev aggregation).
    pub replicates: usize,
    /// Human label for report headers.
    pub label: &'static str,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Scale {
    /// Fast scale: the paper's topology size (10 edge routers per core,
    /// 100 hosts on Internet2 — replay quality depends on this mixing),
    /// with a short workload horizon. Each experiment takes seconds.
    pub fn quick() -> Scale {
        Scale {
            edges_per_core: 10,
            horizon: Dur::from_millis(10),
            fattree_k: 4,
            seed: 1,
            jobs: default_jobs(),
            replicates: 1,
            label: "quick",
        }
    }

    /// Paper-like scale: longer horizon for tighter fractions, k=8
    /// fat-tree (128 hosts).
    pub fn full() -> Scale {
        Scale {
            edges_per_core: 10,
            horizon: Dur::from_millis(40),
            fattree_k: 8,
            seed: 1,
            jobs: default_jobs(),
            replicates: 1,
            label: "full",
        }
    }

    /// The simulation-size subset the sweep engine needs.
    pub fn sim(&self) -> SimScale {
        SimScale {
            edges_per_core: self.edges_per_core,
            horizon: self.horizon,
            fattree_k: self.fattree_k,
            label: self.label,
        }
    }

    /// Parse an argument vector (without the program name). Unknown
    /// flags, bare arguments, and missing or unparseable values are
    /// errors — not silently ignored.
    pub fn parse(args: &[String]) -> Result<Scale, String> {
        let mut s = if args.iter().any(|a| a == "--full") {
            Scale::full()
        } else {
            Scale::quick()
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = |flag: &str| -> Result<u64, String> {
                let v = it
                    .next()
                    .ok_or_else(|| format!("{flag} requires a value"))?;
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: expected an integer, got `{v}`"))
            };
            match a.as_str() {
                "--full" => {}
                "--seed" => s.seed = value("--seed")?,
                "--horizon-ms" => s.horizon = Dur::from_millis(value("--horizon-ms")?),
                "--edges" => s.edges_per_core = value("--edges")?.max(1) as usize,
                "--jobs" => s.jobs = value("--jobs")?.max(1) as usize,
                "--replicates" => s.replicates = value("--replicates")?.max(1) as usize,
                other if other.starts_with('-') => {
                    return Err(format!("unknown flag `{other}`"));
                }
                other => return Err(format!("unexpected argument `{other}`")),
            }
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Scale, String> {
        Scale::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn quick_is_smaller_than_full() {
        let (q, f) = (Scale::quick(), Scale::full());
        assert!(q.horizon < f.horizon);
        assert!(q.fattree_k < f.fattree_k);
        // Both use the paper's WAN topology size — replay quality depends
        // on that host-level statistical mixing.
        assert_eq!(q.edges_per_core, 10);
    }

    #[test]
    fn empty_args_give_quick_defaults() {
        let s = parse(&[]).unwrap();
        assert_eq!(s.label, "quick");
        assert_eq!(s.seed, 1);
        assert_eq!(s.replicates, 1);
        assert!(s.jobs >= 1);
    }

    #[test]
    fn full_flag_and_values_are_consumed() {
        let s = parse(&[
            "--full",
            "--seed",
            "9",
            "--horizon-ms",
            "25",
            "--edges",
            "4",
            "--jobs",
            "3",
            "--replicates",
            "5",
        ])
        .unwrap();
        assert_eq!(s.label, "full");
        assert_eq!(s.seed, 9);
        assert_eq!(s.horizon, Dur::from_millis(25));
        assert_eq!(s.edges_per_core, 4);
        assert_eq!(s.jobs, 3);
        assert_eq!(s.replicates, 5);
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = parse(&["--frobnicate"]).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
    }

    #[test]
    fn bare_argument_is_an_error() {
        let err = parse(&["17"]).unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = parse(&["--seed"]).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn unparseable_value_is_an_error() {
        let err = parse(&["--jobs", "many"]).unwrap_err();
        assert!(err.contains("expected an integer"), "{err}");
        // The old parser silently ignored this and also treated the
        // value as a bare argument; both are now rejected.
        assert!(parse(&["--seed", "-3"]).is_err());
    }

    #[test]
    fn zero_jobs_and_replicates_clamp_to_one() {
        let s = parse(&["--jobs", "0", "--replicates", "0"]).unwrap();
        assert_eq!(s.jobs, 1);
        assert_eq!(s.replicates, 1);
    }

    #[test]
    fn take_out_flag_strips_and_defaults() {
        let mut args: Vec<String> = ["--seed", "3", "--out", "some/dir", "--jobs", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = take_out_flag(&mut args).unwrap();
        assert_eq!(out, PathBuf::from("some/dir"));
        assert_eq!(args, ["--seed", "3", "--jobs", "2"]);
        // Scale parsing then succeeds on the remainder.
        assert!(Scale::parse(&args).is_ok());

        let mut none: Vec<String> = vec![];
        assert_eq!(
            take_out_flag(&mut none).unwrap(),
            PathBuf::from("target/sweep")
        );

        let mut dangling: Vec<String> = vec!["--out".to_string()];
        assert!(take_out_flag(&mut dangling).is_err());

        // A forgotten DIR before another flag must error, not silently
        // swallow the flag as the directory.
        let mut swallowed: Vec<String> =
            ["--out", "--full"].iter().map(|s| s.to_string()).collect();
        assert!(take_out_flag(&mut swallowed).is_err());
    }

    #[test]
    fn sim_subset_matches() {
        let s = parse(&["--edges", "3", "--horizon-ms", "7"]).unwrap();
        let sim = s.sim();
        assert_eq!(sim.edges_per_core, 3);
        assert_eq!(sim.horizon, Dur::from_millis(7));
        assert_eq!(sim.fattree_k, s.fattree_k);
        assert_eq!(sim.label, "quick");
    }
}
