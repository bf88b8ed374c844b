//! Binary-level regression test for the PR 8 wart: `sweep ... | head`
//! used to die before writing artifacts. Rust ignores SIGPIPE, so once
//! `head` closes the pipe every `println!` panics with a broken-pipe
//! IO error — killing the run *after* the cells were computed but
//! *before* `<out>/<grid>.json` landed on disk. The binary now routes
//! every stdout write through an error-swallowing macro; this test
//! closes the read end of the child's stdout immediately (the worst
//! case: every progress line hits EPIPE) and requires a zero exit and
//! complete artifacts anyway.

use std::process::{Command, Stdio};

/// Run `sweep --grid <grid>` at a tiny scale with the read end of its
/// stdout closed before it prints anything (a `| head -1` that exited
/// instantly, so every stdout write in the child fails with EPIPE);
/// require a zero exit and complete `<stem>.json`/`.csv` artifacts of
/// the given `kind`.
fn run_with_closed_stdout(grid: &str, stem: &str, kind: &str) {
    let out = std::env::temp_dir().join(format!("ups-sweep-sigpipe-{grid}-{}", std::process::id()));
    std::fs::remove_dir_all(&out).ok();

    let mut child = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args([
            "--grid",
            grid,
            "--jobs",
            "2",
            "--edges",
            "2",
            "--horizon-ms",
            "1",
        ])
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sweep");
    drop(child.stdout.take());
    let status = child.wait().expect("wait for sweep");
    assert!(
        status.success(),
        "sweep --grid {grid} died on a closed stdout pipe: {status:?}"
    );

    let json = std::fs::read_to_string(out.join(format!("{stem}.json")))
        .unwrap_or_else(|_| panic!("{stem}.json missing: artifacts were not written"));
    assert!(
        json.contains(&format!("\"kind\": \"{kind}\"")),
        "{stem}.json truncated or malformed"
    );
    let csv = std::fs::read_to_string(out.join(format!("{stem}.csv")))
        .unwrap_or_else(|_| panic!("{stem}.csv missing"));
    assert!(csv.lines().count() > 1, "{stem}.csv has no data rows");
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn sweep_writes_artifacts_even_when_stdout_closes_early() {
    run_with_closed_stdout("smoke", "smoke", "table");
}

/// Figures print through the same EPIPE-safe macros as tables.
#[test]
fn figure_grid_writes_artifacts_even_when_stdout_closes_early() {
    run_with_closed_stdout("congestion-points", "congestion-points", "figure");
}
