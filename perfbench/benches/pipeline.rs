//! The scenario-pipeline benchmark driver (see `perfbench/README.md`).
//!
//! ```sh
//! cargo bench -q --manifest-path perfbench/Cargo.toml --bench pipeline -- \
//!     --workload dc-k8-web --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One run measures one workload: cold set-ups and untraced grids, each
//! in a fresh process of this executable (so peak memory is per grid),
//! then one composed pass that checks correctness, counts the inner
//! layers and — with `--trace 1` — splits the time by layer. The last
//! line of standard output is the result as one JSON object.

// Wall-clock reads here measure the pipeline, never feed it: they time
// the runs and stamp spans, and no simulation input depends on them.
#![allow(clippy::disallowed_methods)]

use perfbench::compose::{self, Composed};
use perfbench::trace::{self, Clock};
use perfbench::workload::{self, RepeatShares, Workload, BASELINE};
use perfbench::{gate, metrics};
use std::fmt::Write as _;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use ups_sweep::Json;

/// A run must end within this budget; children still running at its
/// end are killed and counted as failed.
const RUN_BUDGET: Duration = Duration::from_secs(170);

/// Violations a composed pass reports by name; the rest are counted.
const MAX_REPORTED: usize = 20;

const USAGE: &str = "usage: pipeline --workload NAME --seed N --seconds N --trace 0|1\n\
                     workloads: dc-k8-web, dc-k8-deadline-replay, rocketfuel-full";

fn main() -> ExitCode {
    // `cargo bench` appends `--bench` to the arguments it passes.
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    if args.first().map(String::as_str) == Some("child") {
        return match child(&args[1..]) {
            Ok(out) => {
                print!("{}", out.render());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match Args::parse(&args) {
        Ok(a) => drive(&a),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Checked command-line arguments.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        workload::find(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.clamp(1, 120)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                    })
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Where runs leave artifacts and traces (ignored by git).
fn out_dir(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(workload)
}

/// Median of a non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Number member `key` of a child's JSON object.
fn num(j: &Json, key: &str) -> Result<f64, String> {
    member(j, key)
        .and_then(as_f64)
        .ok_or_else(|| format!("child output has no number `{key}`"))
}

/// Member `key` of a child's JSON object.
fn member<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
    let Json::Obj(members) = j else { return None };
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Run this executable as a child and parse its JSON output; a child
/// that fails, or outlives `deadline`, is an error.
fn run_child(args: &[&str], deadline: Instant) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the driver: {e}"))?;
    let mut child = Command::new(exe)
        .arg("child")
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting child {args:?}: {e}"))?;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("child {args:?} ran past the run budget"));
            }
            Err(e) => return Err(format!("waiting for child {args:?}: {e}")),
        }
    };
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut out)
        .map_err(|e| format!("reading child {args:?}: {e}"))?;
    if !status.success() {
        return Err(format!("child {args:?} failed: {status}"));
    }
    Json::parse(&out).map_err(|e| format!("child {args:?} output: {e}"))
}

/// Everything one run learned, before it is reduced to metrics.
#[derive(Default)]
struct Run {
    /// Input properties, from the grid spec before anything runs.
    shares: RepeatShares,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    rss_mb: Vec<f64>,
    composed: Option<Json>,
}

impl Run {
    /// Count `cells` attempted, all failed if `result` is an error.
    fn attempt<T>(&mut self, cells: u64, result: Result<T, String>) -> Option<T> {
        self.attempted += cells;
        result
            .map_err(|e| {
                self.failed += cells;
                self.errors.push(e);
            })
            .ok()
    }
}

fn drive(a: &Args) -> ExitCode {
    let start = Instant::now();
    let deadline = start + RUN_BUDGET;
    let w = a.workload;
    let jobs = w.spec(a.seed).jobs().len() as u64;
    let out = out_dir(w.name);
    if out.exists() {
        if let Err(e) = std::fs::remove_dir_all(&out) {
            eprintln!("error: clearing {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    let (grid_dir, compose_dir) = (out.join("grid"), out.join("compose"));
    let seed = a.seed.to_string();
    let mut run = Run {
        shares: workload::repeat_shares(w.scenario(), &w.spec(a.seed)),
        ..Run::default()
    };
    eprintln!(
        "{}: {:.3} of recordings and {:.3} of topology builds repeat earlier ones",
        w.name, run.shares.record, run.shares.topo_build
    );

    // Cold set-ups, each in a fresh process, before any grid runs. A
    // failed set-up counts as the first cell failing.
    for _ in 0..w.setup_samples {
        match run_child(&["setup", w.name, &seed], deadline).and_then(|j| num(&j, "setup_ns")) {
            Ok(ns) => run.setup_s.push(ns / 1e9),
            Err(e) => {
                run.attempted += 1;
                run.failed += 1;
                run.errors.push(e);
            }
        }
    }

    // The committed baseline, at its own settings; untimed.
    if w.name == BASELINE.workload {
        let cells = (w.scenario().spec().cells.len() * BASELINE.replicates) as u64;
        let check =
            run_child(&["baseline"], deadline).and_then(|j| match member(&j, "identical") {
                Some(Json::Str(s)) if s == "yes" => Ok(()),
                _ => Err(format!(
                    "{} differs from the scenario's artifact",
                    BASELINE.path
                )),
            });
        run.attempt(cells, check);
    }

    // Untraced grids, each in a fresh process, for the measuring time.
    let grid_path = grid_dir.to_string_lossy().into_owned();
    let measure = Instant::now();
    loop {
        // After the first grid, stop once the next one would mostly fall
        // outside the window, or leave no room for the composed pass.
        if let Some(&last) = run.wall_s.last() {
            let in_window = measure.elapsed().as_secs_f64() + last / 2.0 < a.seconds as f64;
            let in_budget = start.elapsed().as_secs_f64() + 3.0 * last < RUN_BUDGET.as_secs_f64();
            if !(in_window && in_budget) {
                break;
            }
        }
        let grid = run_child(&["grid", w.name, &seed, &grid_path], deadline)
            .and_then(|j| Ok((num(&j, "wall_ns")?, num(&j, "vmhwm_kb")?)));
        match run.attempt(jobs, grid) {
            Some((wall_ns, kb)) => {
                run.wall_s.push(wall_ns / 1e9);
                run.rss_mb.push(kb / 1024.0);
            }
            None => break,
        }
    }

    // The composed pass: correctness, counts and the layer split.
    let compose_path = compose_dir.to_string_lossy().into_owned();
    let composed = run_child(&["compose", w.name, &seed, &compose_path], deadline);
    if let Some(j) = run.attempt(jobs, composed) {
        let failed = num(&j, "failed_cells").unwrap_or(jobs as f64) as u64;
        run.failed += failed;
        if let Some(Json::Arr(vs)) = member(&j, "violations") {
            run.errors.extend(vs.iter().filter_map(|v| match v {
                Json::Str(s) => Some(s.clone()),
                _ => None,
            }));
        }
        run.composed = Some(j);
        // Faithfulness: the composition's artifacts are the pipeline's.
        if let Err(e) = same_files(&grid_dir, &compose_dir) {
            run.failed += jobs;
            run.errors
                .push(format!("composed artifacts differ from Scenario::run: {e}"));
        }
    }
    report(a, &run)
}

/// Check that two artifact directories hold the same files, byte for byte.
fn same_files(a: &Path, b: &Path) -> Result<(), String> {
    let list = |d: &Path| -> Result<Vec<PathBuf>, String> {
        let mut names = std::fs::read_dir(d)
            .map_err(|e| format!("{}: {e}", d.display()))?
            .map(|e| e.map(|e| PathBuf::from(e.file_name())))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("{}: {e}", d.display()))?;
        names.sort();
        Ok(names)
    };
    let names = list(a)?;
    if names != list(b)? {
        return Err(format!("file sets differ: {names:?} vs {:?}", list(b)?));
    }
    for n in names {
        let read =
            |d: &Path| std::fs::read(d.join(&n)).map_err(|e| format!("{}: {e}", n.display()));
        if read(a)? != read(b)? {
            return Err(format!("{} differs", n.display()));
        }
    }
    Ok(())
}

/// Print the result line and return the exit code.
fn report(a: &Args, run: &Run) -> ExitCode {
    for e in run.errors.iter().take(MAX_REPORTED) {
        eprintln!("check failed: {e}");
    }
    let complete = !run.wall_s.is_empty() && !run.setup_s.is_empty() && run.composed.is_some();
    let mut values: Vec<(&str, f64)> = Vec::new();
    if complete {
        let composed = run.composed.as_ref().expect("checked above");
        let wall_s = median(run.wall_s.clone());
        if a.trace {
            if let Some(Json::Obj(layers)) = member(composed, "per_layer") {
                for (name, v) in layers {
                    let name = metrics::PER_LAYER
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|&(n, _)| n);
                    if let (Some(name), Some(x)) = (name, as_f64(v)) {
                        values.push((name, x));
                    }
                }
            }
            values.push(("topo.build_repeat_share", run.shares.topo_build));
            values.push(("core.record_repeat_share", run.shares.record));
            let traced_ms = num(composed, "traced_total_ns").unwrap_or(0.0) / 1e6;
            values.push(("bench.trace_overhead_ms", traced_ms - wall_s * 1e3));
        } else {
            let [hops, legs_ms, traced_ns] =
                ["hops", "legs_ms", "traced_total_ns"].map(|k| num(composed, k).unwrap_or(0.0));
            values.push(("wall_s", wall_s));
            values.push(("setup_s", median(run.setup_s.clone())));
            values.push((
                "hops_per_s",
                metrics::hops_per_s(hops as u64, wall_s, legs_ms, traced_ns / 1e6),
            ));
            values.push(("peak_rss_mb", median(run.rss_mb.clone())));
        }
    }
    let wanted = if a.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let all_present = wanted
        .iter()
        .all(|(n, _)| values.iter().any(|(v, _)| v == n));
    let correct = complete && all_present && run.failed == 0 && run.errors.is_empty();
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.attempted.max(1),
        run.failed
    );
    for (i, (name, value)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metrics::unit(name)
        )
        .expect("write to String");
    }
    line.push_str("}}");
    eprintln!(
        "{}: seed {}, {} job(s) per grid, grid walls {:.3?} s, set-ups {:.3?} s",
        a.workload.name,
        a.seed,
        a.workload.spec(a.seed).jobs().len(),
        run.wall_s,
        run.setup_s,
    );
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn as_f64(v: &Json) -> Option<f64> {
    match v {
        Json::UInt(n) => Some(*n as f64),
        Json::Num(x) => Some(*x),
        _ => None,
    }
}

/// The wall clock, as the composed pass's span clock.
struct Wall(Instant);

impl Clock for Wall {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The work of one child process; returns the JSON it prints.
fn child(args: &[String]) -> Result<Json, String> {
    let arg = |i: usize| {
        args.get(i)
            .map(String::as_str)
            .ok_or("child: missing argument")
    };
    let w = || {
        workload::find(arg(1)?).ok_or_else(|| format!("child: unknown workload {:?}", args.get(1)))
    };
    let seed = || {
        arg(2)?
            .parse::<u64>()
            .map_err(|e| format!("child: seed: {e}"))
    };
    let sim = workload::sim();
    match arg(0)? {
        "setup" => {
            // The first cell's build and workload, cold, as its record
            // leg does them.
            let (w, seed) = (w()?, seed()?);
            let job = w.spec(seed).jobs()[0];
            let t = Instant::now();
            let topo = job.coord.topo.build(&sim);
            let flows = w
                .scenario()
                .workload
                .build(&topo, job.coord.util, sim.horizon, job.seed);
            let ns = t.elapsed().as_nanos() as u64;
            std::hint::black_box((&topo, &flows));
            Ok(Json::obj(vec![("setup_ns", Json::UInt(ns))]))
        }
        "grid" => {
            let (w, seed, dir) = (w()?, seed()?, PathBuf::from(arg(3)?));
            let s = w.scenario();
            let t = Instant::now();
            let report = s.run_spec(&w.spec(seed), &sim, 1);
            report
                .write(&dir)
                .map_err(|e| format!("writing artifacts: {e}"))?;
            if let Some(fig) = s.miss_curves(&report) {
                fig.write(&dir)
                    .map_err(|e| format!("writing artifacts: {e}"))?;
            }
            let ns = t.elapsed().as_nanos() as u64;
            Ok(Json::obj(vec![
                ("wall_ns", Json::UInt(ns)),
                ("vmhwm_kb", Json::UInt(vmhwm_kb()?)),
            ]))
        }
        "baseline" => {
            let w = workload::find(BASELINE.workload).expect("the baseline names a workload");
            let spec = w
                .scenario()
                .spec()
                .with_seed(BASELINE.seed)
                .with_replicates(BASELINE.replicates);
            let json = w.scenario().run_spec(&spec, &sim, 1).to_json();
            let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join(BASELINE.path);
            let committed =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let same = if json == committed { "yes" } else { "no" };
            Ok(Json::obj(vec![("identical", Json::Str(same.to_string()))]))
        }
        "compose" => {
            let (w, seed, dir) = (w()?, seed()?, PathBuf::from(arg(3)?));
            let spec = w.spec(seed);
            let c = compose::run(w.scenario(), &spec, &sim, &dir, Wall(Instant::now()))
                .map_err(|e| format!("composed pass: {e}"))?;
            write_trace(w, seed, &c, &dir)?;
            Ok(composed_json(w, &spec, &c))
        }
        other => Err(format!("child: unknown mode `{other}`")),
    }
}

/// The composed pass's report to the driver: correctness, counts and
/// the per-layer metrics.
fn composed_json(w: &Workload, spec: &ups_sweep::SweepSpec, c: &Composed) -> Json {
    let mut violations = Vec::new();
    let mut failed = 0;
    for cell in &c.cells {
        let v = cell.violations();
        failed += u64::from(!v.is_empty());
        violations.extend(v);
    }
    let rows = gate::edf_lstf_identity(w.scenario(), &c.report);
    failed += (rows.len() * spec.replicates) as u64;
    violations.extend(rows);
    Json::obj(vec![
        ("cells", Json::UInt(c.cells.len() as u64)),
        ("failed_cells", Json::UInt(failed)),
        (
            "violations",
            Json::Arr(
                violations
                    .into_iter()
                    .take(MAX_REPORTED)
                    .map(Json::Str)
                    .collect(),
            ),
        ),
        ("hops", Json::UInt(metrics::hops(c))),
        ("legs_ms", Json::Num(metrics::legs_ms(c))),
        ("traced_total_ns", Json::UInt(c.spans[0].duration_ns())),
        (
            "per_layer",
            Json::Obj(
                metrics::per_layer(c)
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(v)))
                    .collect(),
            ),
        ),
    ])
}

/// Write the composed pass's spans next to its artifacts' directory.
fn write_trace(w: &Workload, seed: u64, c: &Composed, dir: &Path) -> Result<(), String> {
    let doc = Json::obj(vec![
        ("workload", Json::Str(w.name.to_string())),
        ("seed", Json::UInt(seed)),
        ("spans", trace::to_json(&c.spans)),
    ]);
    let path = dir.with_file_name("trace.json");
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))
}

/// This process's peak resident set (`VmHWM`), in KiB.
fn vmhwm_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
