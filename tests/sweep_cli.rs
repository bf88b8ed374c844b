//! `sweep`'s command line: `--grid NAME …` and `scenarios run NAME …`
//! go through one parser, so both reject the same bad input with a
//! usage error (exit 2) before running anything, and a flag the named
//! grid cannot honour is refused rather than ignored.

use std::path::PathBuf;
use std::process::Command;

/// A fresh scratch directory to run `sweep` in, so a mis-parsed flag
/// that became a relative artifact directory would land here.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ups-sweep-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run `sweep` with `args` inside `dir`; returns the exit code.
fn sweep_in(dir: &PathBuf, args: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn sweep")
        .status
        .code()
        .expect("sweep exited by signal")
}

#[test]
fn a_flag_after_out_is_a_usage_error_on_every_run_path() {
    for (tag, args) in [
        ("grid", &["--grid", "smoke", "--out", "--full"][..]),
        (
            "scenario",
            &["scenarios", "run", "dc-k4-incast-sched", "--out", "--full"][..],
        ),
    ] {
        let dir = scratch_dir(tag);
        assert_eq!(sweep_in(&dir, args), 2, "{args:?} must be a usage error");
        assert!(
            !dir.join("--full").exists(),
            "{args:?} wrote artifacts to a `--full` directory"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn flags_a_grid_cannot_honour_are_refused() {
    let dir = scratch_dir("refuse");
    for args in [
        &["--grid", "fig1", "--telemetry"][..],
        &["--grid", "congestion-points", "--chaos-drop-ppm", "1000"][..],
        &["--grid", "ablation-lstf-key", "--telemetry"][..],
        &["--grid", "ablation-candidates", "--chaos-drop-ppm", "1000"][..],
        &["--grid", "smoke", "--grid", "topo"][..],
        &["--grid", "no-such-grid"][..],
    ] {
        assert_eq!(sweep_in(&dir, args), 2, "{args:?} must be a usage error");
    }
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "a refused run wrote files"
    );
    std::fs::remove_dir_all(&dir).ok();
}
