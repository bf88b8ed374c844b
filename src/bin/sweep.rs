//! `sweep` — the declarative, parallel experiment-sweep CLI and the one
//! way to run an experiment.
//!
//! `--grid NAME` names a table grid (default: the paper's Table 1), a
//! figure (`fig1`–`fig4`, `congestion-points`), an ablation, or a
//! registered scenario (`ups_bench::grids::find` is the lookup). The
//! grid expands into cells × seed replicates, the jobs run on a
//! scoped-thread worker pool, per-cell mean ± stddev is printed, and
//! JSON + CSV artifacts land under `target/sweep/` (override with `--out
//! DIR`). The artifacts are byte-identical for every `--jobs` value.
//!
//! The `scenarios` subcommand lists, describes, and runs the scenario
//! registry (`ups_sweep::scenario` — topology × workload × grid; the
//! catalogue is documented in `docs/SCENARIOS.md`). The `diff`
//! subcommand compares two JSON artifacts (table or figure)
//! structurally, keyed by grid coordinate, and exits nonzero when they
//! diverge beyond the given tolerance — the cross-run regression check.
//! The `bench` subcommand times end-to-end fat-tree forwarding, appends
//! the result to a machine-readable perf history
//! (`target/sweep/perf-history.jsonl`), and with `--gate-pct` exits
//! nonzero when the run regressed past the best prior entry:
//!
//! ```sh
//! cargo run --release --bin sweep -- --jobs 4 --replicates 3
//! cargo run --release --bin sweep -- --grid dc-k8-incast --jobs 4
//! cargo run --release --bin sweep -- --grid fig1 --replicates 2
//! cargo run --release --bin sweep -- --grid ablation-candidates
//! cargo run --release --bin sweep -- scenarios list
//! cargo run --release --bin sweep -- scenarios describe rocketfuel-full
//! cargo run --release --bin sweep -- scenarios run dc-k4-incast-sched
//! cargo run --release --bin sweep -- diff baseline.json target/sweep/table1.json
//! cargo run --release --bin sweep -- bench --iters 5 --gate-pct 20
//! ```

use std::path::{Path, PathBuf};
use ups_bench::grids::{self, Ablation, Grid};
use ups_bench::scale::{take_out_flag, SCALE_FLAGS};
use ups_bench::Scale;
use ups_core::WorkloadKind;
use ups_net::TraceLevel;
use ups_sim::Dur;
use ups_sweep::scenario::{self, Scenario};
use ups_sweep::{
    diff_artifacts, perf, run_sweep_with, run_telemetry_sweep, CellPipeline, ChaosSpec,
    DiffOptions, FigReport, PerfEntry, SweepReport, SweepSpec, TelemetryReport,
};

/// Write a line to stdout, swallowing write failures: when stdout is
/// piped through e.g. `head`, the reader can close the pipe before the
/// sweep finishes, and std maps the resulting `EPIPE` to a `println!`
/// panic (Rust ignores SIGPIPE). The sweep must still write its JSON/CSV
/// artifacts and exit cleanly in that case, so every stdout write in
/// this binary goes through `out!`/`out_inline!` instead. Diagnostics on
/// stderr keep using `eprintln!`.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// [`out!`] without the trailing newline (the `print!` analogue).
macro_rules! out_inline {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = write!(std::io::stdout(), $($arg)*);
    }};
}

fn usage_exit(err: &str) -> ! {
    eprintln!(
        "error: {err}\n\
         usage: sweep [--grid NAME] [--out DIR] [--telemetry] [scale flags]\n       \
         sweep scenarios [list | describe NAME | run NAME [--out DIR] [scale flags]]\n       \
         sweep diff OLD.json NEW.json [--rel-tol X] [--abs-tol X]\n       \
         sweep bench [--iters N] [--gate-pct X] [--handicap F] [--trace-out FILE]\n             \
         [--history FILE] [--out DIR] [scale flags]\n  \
         --grid NAME  grid to run (default table1): {}\n  \
         --out DIR    artifact directory (default: target/sweep)\n  \
         --telemetry  sample queue/utilization time series on the event wheel and\n               \
         additionally write <grid>_telemetry.json/.csv\n  \
         --telemetry-interval-us N  sampling cadence in µs (default 250; implies --telemetry)\n  \
         --chaos-drop-ppm N     perturb every cell's replay leg: i.i.d. drop rate in ppm\n  \
         --chaos-seed N         chaos RNG seed (default: the fixed chaos seed)\n  \
         --chaos-fail-period-us N / --chaos-fail-down-us N   periodic link failures\n  \
         --chaos-jam-period-us N / --chaos-jam-burst-us N    periodic jamming windows\n  \
         --rel-tol X  diff: relative tolerance per numeric value (default 0 = exact)\n  \
         --abs-tol X  diff: absolute tolerance per numeric value (default 0 = exact)\n  \
         --iters N    bench: timed iterations (default 5)\n  \
         --gate-pct X bench: fail (exit 1) when min time regresses more than X%\n               \
         past the best prior history entry for this bench+scale\n  \
         --handicap F bench: multiply measured times by F (gate self-test)\n  \
         --trace-out FILE  bench: export the warmup run's packet lifecycle\n               \
         ring as JSON Lines\n  \
         --history FILE    bench: perf history path (default: <out>/perf-history.jsonl)\n\
         {SCALE_FLAGS}",
        grids::names()
            .chunks(4)
            .map(|names| names.join(", "))
            .collect::<Vec<_>>()
            .join(",\n               ")
    );
    std::process::exit(2);
}

/// Strip `--telemetry` / `--telemetry-interval-us N` out of `args`
/// (they would trip `Scale::parse`'s strict unknown-flag check);
/// returns the sampling cadence when telemetry was requested.
fn take_telemetry_flags(args: &mut Vec<String>) -> Result<Option<Dur>, String> {
    let mut on = false;
    let mut interval_us: u64 = 250;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--telemetry" => {
                on = true;
                args.remove(i);
            }
            "--telemetry-interval-us" => {
                let Some(v) = args.get(i + 1) else {
                    return Err("--telemetry-interval-us requires a value".to_string());
                };
                interval_us = match v.parse::<u64>() {
                    Ok(x) if x > 0 => x,
                    _ => {
                        return Err(
                            "--telemetry-interval-us: expected a positive integer".to_string()
                        )
                    }
                };
                on = true;
                args.drain(i..i + 2);
            }
            _ => i += 1,
        }
    }
    Ok(on.then(|| Dur::from_micros(interval_us)))
}

/// Strip the `--chaos-*` flags out of `args` (they would trip
/// `Scale::parse`'s strict unknown-flag check); returns the
/// [`ChaosSpec`] override when any chaos flag was given — the caller
/// applies it to *every* cell of the grid it runs.
fn take_chaos_flags(args: &mut Vec<String>) -> Result<Option<ChaosSpec>, String> {
    let mut spec = ChaosSpec::OFF;
    let mut any = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let known = matches!(
            flag.as_str(),
            "--chaos-drop-ppm"
                | "--chaos-seed"
                | "--chaos-fail-period-us"
                | "--chaos-fail-down-us"
                | "--chaos-jam-period-us"
                | "--chaos-jam-burst-us"
        );
        if !known {
            i += 1;
            continue;
        }
        let Some(v) = args.get(i + 1) else {
            return Err(format!("{flag} requires a value"));
        };
        let parsed: u64 = v
            .parse()
            .map_err(|_| format!("{flag}: expected a non-negative integer"))?;
        let as_u32 =
            |x: u64| u32::try_from(x).map_err(|_| format!("{flag}: value too large ({x})"));
        match flag.as_str() {
            "--chaos-drop-ppm" => {
                spec.drop_ppm = as_u32(parsed)?;
                if spec.drop_ppm > 1_000_000 {
                    return Err("--chaos-drop-ppm: at most 1000000 (= drop everything)".to_string());
                }
            }
            "--chaos-seed" => spec.seed = parsed,
            "--chaos-fail-period-us" => spec.fail_period_us = as_u32(parsed)?,
            "--chaos-fail-down-us" => spec.fail_down_us = as_u32(parsed)?,
            "--chaos-jam-period-us" => spec.jam_period_us = as_u32(parsed)?,
            "--chaos-jam-burst-us" => spec.jam_burst_us = as_u32(parsed)?,
            _ => unreachable!(),
        }
        any = true;
        args.drain(i..i + 2);
    }
    if spec.fail_period_us > 0 && spec.fail_down_us >= spec.fail_period_us {
        return Err("--chaos-fail-down-us must be less than --chaos-fail-period-us".to_string());
    }
    if spec.fail_down_us > 0 && spec.fail_period_us == 0 {
        return Err("--chaos-fail-down-us requires --chaos-fail-period-us".to_string());
    }
    if spec.jam_period_us > 0 && spec.jam_burst_us >= spec.jam_period_us {
        return Err("--chaos-jam-burst-us must be less than --chaos-jam-period-us".to_string());
    }
    if spec.jam_burst_us > 0 && spec.jam_period_us == 0 {
        return Err("--chaos-jam-burst-us requires --chaos-jam-period-us".to_string());
    }
    Ok(any.then_some(spec))
}

/// Apply a `--chaos-*` override to every cell of the grid.
fn apply_chaos(mut spec: SweepSpec, chaos: Option<ChaosSpec>) -> SweepSpec {
    if let Some(c) = chaos {
        out!(
            "chaos: overriding every cell (drop {} ppm, fail {}/{} us, jam {}/{} us, seed {})",
            c.drop_ppm,
            c.fail_down_us,
            c.fail_period_us,
            c.jam_burst_us,
            c.jam_period_us,
            c.seed
        );
        for cell in &mut spec.cells {
            cell.chaos = c;
        }
    }
    spec
}

/// `sweep diff OLD NEW [--rel-tol X] [--abs-tol X]`: exit 0 when the
/// artifacts match under the tolerance, 1 when they diverge (the
/// regression signal for CI), 2 on usage/IO/parse errors.
fn run_diff(args: &[String]) -> ! {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut opts = DiffOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut tol = |flag: &str| -> f64 {
            match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(x)) if x >= 0.0 => x,
                Some(_) => usage_exit(&format!("{flag}: expected a non-negative number")),
                None => usage_exit(&format!("{flag} requires a value")),
            }
        };
        match a.as_str() {
            "--rel-tol" => opts.rel_tol = tol("--rel-tol"),
            "--abs-tol" => opts.abs_tol = tol("--abs-tol"),
            other if other.starts_with('-') => usage_exit(&format!("unknown diff flag `{other}`")),
            path => paths.push(PathBuf::from(path)),
        }
    }
    let [old_path, new_path] = &paths[..] else {
        usage_exit("diff takes exactly two artifact paths");
    };
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("error: reading {}: {e}", p.display());
            std::process::exit(2);
        })
    };
    let (old, new) = (read(old_path), read(new_path));
    let report = diff_artifacts(&old, &new, &opts).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    out!(
        "sweep diff: {} vs {}",
        old_path.display(),
        new_path.display()
    );
    out_inline!("{}", report.render());
    if report.is_clean() {
        out!("artifacts match");
        std::process::exit(0);
    }
    out!("artifacts DIFFER");
    std::process::exit(1);
}

/// `sweep bench`: time end-to-end fat-tree web forwarding (the
/// `large_topo` criterion bench's shape — build topology, inject the
/// Poisson web workload, run the event loop to completion), append a
/// [`PerfEntry`] to the JSONL perf history, and optionally gate against
/// the best prior entry for the same bench + scale.
///
/// The warmup iteration doubles as the lifecycle-trace capture: it runs
/// with a bounded [`ups_obs::LifecycleRing`] enabled so `--trace-out`
/// can export the packet-event story without perturbing the timed
/// iterations (which run with telemetry's default-off tracing).
// Wall-clock here measures the engine, never the simulation: walltime
// feeds perf.json as measurement output (allowed in lint.toml too).
#[allow(clippy::disallowed_methods)]
fn run_bench(args: &[String]) -> ! {
    let mut rest: Vec<String> = args.to_vec();
    let out = take_out_flag(&mut rest).unwrap_or_else(|e| usage_exit(&e));
    let mut iters: u64 = 5;
    let mut gate_pct: Option<f64> = None;
    let mut handicap: f64 = 1.0;
    let mut trace_out: Option<PathBuf> = None;
    let mut history_path: Option<PathBuf> = None;
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].clone();
        let mut value = || -> String {
            match rest.get(i + 1) {
                Some(v) => {
                    let v = v.clone();
                    rest.drain(i..i + 2);
                    v
                }
                None => usage_exit(&format!("{flag} requires a value")),
            }
        };
        match flag.as_str() {
            "--iters" => {
                iters = match value().parse::<u64>() {
                    Ok(n) if n > 0 => n,
                    _ => usage_exit("--iters: expected a positive integer"),
                }
            }
            "--gate-pct" => {
                gate_pct = match value().parse::<f64>() {
                    Ok(x) if x >= 0.0 => Some(x),
                    _ => usage_exit("--gate-pct: expected a non-negative number"),
                }
            }
            "--handicap" => {
                handicap = match value().parse::<f64>() {
                    Ok(x) if x > 0.0 => x,
                    _ => usage_exit("--handicap: expected a positive number"),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value())),
            "--history" => history_path = Some(PathBuf::from(value())),
            _ => i += 1,
        }
    }
    let scale = match Scale::parse(&rest) {
        Ok(s) => s,
        Err(e) => usage_exit(&e),
    };
    let history_path = history_path.unwrap_or_else(|| out.join("perf-history.jsonl"));
    let k = scale.fattree_k;
    let bench_name = format!("fattree_k{k}_web_forwarding");
    out!(
        "bench {bench_name}: scale {}, {iters} timed iteration(s){}",
        scale.label,
        if handicap != 1.0 {
            format!(", handicap x{handicap}")
        } else {
            String::new()
        }
    );

    let build_topo =
        || ups_topo::fattree::build(&ups_topo::fattree::FatTreeConfig::for_k(k), TraceLevel::Off);
    let topo = build_topo();
    let flows = WorkloadKind::Web.build(&topo, 0.7, scale.horizon, scale.seed);
    let pkts: u64 = flows.iter().map(|f| f.pkts).sum();
    drop(topo);

    let run_once = |lifecycle_cap: Option<usize>| {
        let mut topo = build_topo();
        if let Some(cap) = lifecycle_cap {
            topo.net.telemetry.enable_lifecycle(cap);
        }
        let mut stamper = ups_transport::HeaderStamper::zero();
        let routes = std::sync::Arc::clone(&topo.routes);
        ups_transport::inject_udp_flows(&mut topo.net, &routes, &flows, 1500, &mut stamper);
        topo.net.run_to_completion();
        topo
    };

    // Warmup + trace capture (untimed).
    let warm = run_once(Some(65_536));
    let delivered = warm.net.telemetry.counters.delivered;
    if let Some(ring) = warm.net.telemetry.lifecycle.as_ref() {
        out!(
            "warmup: {delivered} pkts delivered, {} lifecycle events ({} retained)",
            ring.total(),
            ring.len()
        );
        if let Some(path) = &trace_out {
            if let Err(e) = std::fs::write(path, ring.to_jsonl()) {
                eprintln!("error: writing {}: {e}", path.display());
                std::process::exit(2);
            }
            out!("wrote lifecycle trace {}", path.display());
        }
    }
    drop(warm);

    let mut times_ms: Vec<f64> = Vec::with_capacity(iters as usize);
    for n in 1..=iters {
        let t0 = std::time::Instant::now();
        let topo = run_once(None);
        let ms = t0.elapsed().as_secs_f64() * 1e3 * handicap;
        std::hint::black_box(topo.net.telemetry.counters.delivered);
        out!("  iter {n}: {ms:.3} ms");
        times_ms.push(ms);
    }
    let min_ms = times_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let mean_ms = times_ms.iter().sum::<f64>() / times_ms.len() as f64;
    let entry = PerfEntry {
        bench: bench_name,
        scale: scale.label.to_string(),
        iters,
        pkts,
        min_ms,
        mean_ms,
        pkts_per_sec: pkts as f64 / (min_ms / 1e3),
    };
    out!(
        "{}: min {min_ms:.3} ms, mean {mean_ms:.3} ms, {:.0} pkts/s",
        entry.bench,
        entry.pkts_per_sec
    );

    let prior_text = std::fs::read_to_string(&history_path).unwrap_or_default();
    let history = match perf::parse_history(&prior_text) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: {e} (in {})", history_path.display());
            std::process::exit(2);
        }
    };
    // Append before gating: the history records what ran; the gate keys
    // on the best prior entry, so a slow run cannot raise the bar.
    if let Some(dir) = history_path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: creating {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let mut text = prior_text;
    text.push_str(&entry.to_json_line());
    text.push('\n');
    if let Err(e) = std::fs::write(&history_path, text) {
        eprintln!("error: writing {}: {e}", history_path.display());
        std::process::exit(2);
    }
    out!(
        "appended to {} ({} prior entries)",
        history_path.display(),
        history.len()
    );

    let Some(pct) = gate_pct else {
        std::process::exit(0);
    };
    match perf::gate(&history, &entry, pct) {
        Ok(None) => {
            out!("perf gate: no prior baseline for this bench + scale; recorded");
            std::process::exit(0);
        }
        Ok(Some(best)) => {
            out!("perf gate: OK — min {min_ms:.3} ms vs prior best {best:.3} ms (+{pct}% allowed)");
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
}

/// `sweep scenarios [list | describe NAME | run NAME ...]`.
fn run_scenarios(args: &[String]) -> ! {
    match args.first().map(String::as_str) {
        None | Some("list") => {
            out_inline!("{}", scenario::render_list());
            out!("\nrun one:  sweep --grid <name>  (or: sweep scenarios run <name>)");
            out!("details:  sweep scenarios describe <name>  ·  docs/SCENARIOS.md");
            std::process::exit(0);
        }
        Some("describe") => {
            let Some(name) = args.get(1) else {
                usage_exit("scenarios describe takes a scenario name");
            };
            let Some(s) = scenario::find(name) else {
                usage_exit(&format!(
                    "unknown scenario `{name}` (see `sweep scenarios list`)"
                ));
            };
            out_inline!("{}", s.describe());
            std::process::exit(0);
        }
        Some("run") => {
            let Some(name) = args.get(1) else {
                usage_exit("scenarios run takes a scenario name");
            };
            if scenario::find(name).is_none() {
                usage_exit(&format!(
                    "unknown scenario `{name}` (see `sweep scenarios list`)"
                ));
            }
            let mut run = vec!["--grid".to_string(), name.clone()];
            run.extend_from_slice(&args[2..]);
            run_grid(parse_run(run));
        }
        Some(other) => usage_exit(&format!(
            "unknown scenarios action `{other}` (list, describe, run)"
        )),
    }
}

/// A parsed `--grid NAME …` or `scenarios run NAME …` invocation.
struct RunArgs {
    grid: String,
    out: PathBuf,
    telemetry: Option<Dur>,
    chaos: Option<ChaosSpec>,
    scale: Scale,
}

/// The one parser behind both run paths: `--grid NAME`, `--out DIR`, the
/// telemetry and chaos flags, then the scale flags. A repeated `--grid`,
/// a flag where a value belongs, or an unknown flag exits 2.
fn parse_run(mut args: Vec<String>) -> RunArgs {
    let mut grid = "table1".to_string();
    if let Some(i) = args.iter().position(|a| a == "--grid") {
        args.remove(i);
        match args.get(i) {
            Some(v) if !v.starts_with('-') => grid = args.remove(i),
            Some(v) => usage_exit(&format!("--grid requires a value, got flag `{v}`")),
            None => usage_exit("--grid requires a value"),
        }
    }
    if args.iter().any(|a| a == "--grid") {
        usage_exit("--grid given more than once");
    }
    let out = take_out_flag(&mut args).unwrap_or_else(|e| usage_exit(&e));
    let telemetry = take_telemetry_flags(&mut args).unwrap_or_else(|e| usage_exit(&e));
    let chaos = take_chaos_flags(&mut args).unwrap_or_else(|e| usage_exit(&e));
    let scale = Scale::parse(&args).unwrap_or_else(|e| usage_exit(&e));
    RunArgs {
        grid,
        out,
        telemetry,
        chaos,
        scale,
    }
}

/// Exit 2 when `run` carries a flag a grid of this kind cannot honour.
fn refuse_unsupported(run: &RunArgs, kind: &str) {
    if run.telemetry.is_some() {
        usage_exit(&format!(
            "--telemetry does not apply to {kind} `{}`",
            run.grid
        ));
    }
    if run.chaos.is_some() {
        usage_exit(&format!(
            "--chaos-* flags do not apply to {kind} `{}`",
            run.grid
        ));
    }
}

/// Run the grid `run` names, print it, write its artifacts and exit.
fn run_grid(run: RunArgs) -> ! {
    let Some(grid) = grids::find(&run.grid) else {
        usage_exit(&format!("unknown grid `{}`", run.grid));
    };
    match grid {
        Grid::Table(spec) => run_table(spec(), WorkloadKind::Web, CellPipeline::Replay, None, &run),
        Grid::Scenario(s) => {
            out!("scenario {}: {} [{}]", s.name, s.title, s.workload.label());
            run_table(s.spec(), s.workload, s.pipeline, Some(s), &run)
        }
        Grid::Figure(runner) => {
            refuse_unsupported(&run, "figure");
            let report = runner(&run.scale);
            print_fig_report(&report);
            write_and_exit(&run.out, || {
                let (json, csv) = report.write(&run.out)?;
                out!("\nwrote {} and {}", json.display(), csv.display());
                Ok(())
            })
        }
        Grid::Ablation(a) => run_ablation(a, &run),
    }
}

/// Write a run's artifacts and exit: 0 when every write succeeded, 1 on
/// an IO error.
fn write_and_exit(out: &Path, write: impl FnOnce() -> std::io::Result<()>) -> ! {
    match write() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("error: writing artifacts to {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}

fn announce(spec: &SweepSpec, scale: &Scale) {
    out!(
        "sweep `{}`: {} cells x {} replicate(s) = {} jobs on {} worker(s), scale {}",
        spec.name,
        spec.cells.len(),
        spec.replicates,
        spec.cells.len() * spec.replicates,
        scale.jobs,
        scale.label
    );
}

/// Run a table grid (named or scenario) with its workload family and
/// cell pipeline, with or without event-wheel telemetry sampling, then
/// print the table and write every artifact the run produced — table
/// JSON/CSV, optional telemetry series, and (for deadline-replay
/// scenarios) the miss-rate-vs-utilization figure.
fn run_table(
    spec: SweepSpec,
    workload: WorkloadKind,
    pipeline: CellPipeline,
    s: Option<&Scenario>,
    run: &RunArgs,
) -> ! {
    let scale = &run.scale;
    let spec = apply_chaos(
        spec.with_seed(scale.seed).with_replicates(scale.replicates),
        run.chaos,
    );
    announce(&spec, scale);
    let sim = scale.sim();
    let (report, telem): (SweepReport, Option<TelemetryReport>) = match run.telemetry {
        None => {
            let report = run_sweep_with(&spec, sim.label, scale.jobs, |job| {
                pipeline.cell(&job.coord, &sim, job.seed, workload)
            });
            (report, None)
        }
        Some(interval) => {
            out!(
                "telemetry: sampling every {} us on the event wheel",
                interval.as_ps() / 1_000_000
            );
            let (report, telem) =
                run_telemetry_sweep(&spec, &sim, scale.jobs, workload, pipeline, interval);
            (report, Some(telem))
        }
    };
    print_report(&report);
    write_and_exit(&run.out, || {
        let (json, csv) = report.write(&run.out)?;
        out!("\nwrote {} and {}", json.display(), csv.display());
        if let Some(t) = &telem {
            let (tj, tc) = t.write(&run.out)?;
            out!("wrote {} and {}", tj.display(), tc.display());
        }
        if let Some(fig) = s.and_then(|s| s.miss_curves(&report)) {
            let (fj, fc) = fig.write(&run.out)?;
            out!(
                "wrote {} and {} (miss-rate-vs-utilization curves)",
                fj.display(),
                fc.display()
            );
        }
        Ok(())
    })
}

/// Run an ablation's cells once per replay mode and write one table
/// artifact per mode.
fn run_ablation(a: &Ablation, run: &RunArgs) -> ! {
    refuse_unsupported(run, "ablation");
    let scale = &run.scale;
    let spec = a
        .spec()
        .with_seed(scale.seed)
        .with_replicates(scale.replicates);
    out!("ablation {}: {}", a.name, a.title);
    announce(&spec, scale);
    let reports = a.run_spec(&spec, &scale.sim(), scale.jobs);
    for (report, (_, mode)) in reports.iter().zip(a.modes) {
        out!("\n{}: replayed under {}", report.name, mode.label());
        print_report(report);
    }
    write_and_exit(&run.out, || {
        out!();
        for report in &reports {
            let (json, csv) = report.write(&run.out)?;
            out!("wrote {} and {}", json.display(), csv.display());
        }
        Ok(())
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("diff") => run_diff(&args[1..]),
        Some("scenarios") => run_scenarios(&args[1..]),
        Some("bench") => run_bench(&args[1..]),
        _ => run_grid(parse_run(args)),
    }
}

fn print_report(report: &SweepReport) {
    out!(
        "\n{:<18} {:>5} {:<9} {:>9} {:>22} {:>22} {:>14}",
        "Topology",
        "Util",
        "Original",
        "Packets",
        "FracOverdue",
        "Frac>T",
        "MeanSlack(us)"
    );
    for r in &report.results {
        out!(
            "{:<18} {:>4.0}% {:<9} {:>9.0} {:>12.6} ±{:>8.6} {:>12.6} ±{:>8.6} {:>14.1}",
            r.coord.topo.label(),
            r.coord.util * 100.0,
            r.coord.sched.label(),
            r.total.mean,
            r.frac_overdue.mean,
            r.frac_overdue.stddev,
            r.frac_gt_t.mean,
            r.frac_gt_t.stddev,
            r.mean_slack_us.mean
        );
    }
}

/// Print a figure report: header, per-series scalar summaries, then the
/// mean ± stddev curve table (one column per series, one row per x-axis
/// point).
fn print_fig_report(report: &FigReport) {
    out!("\n=== {} ===", report.title);
    out!(
        "scale {}, {} replicate(s), base seed {} (output is identical for every --jobs value)",
        report.scale,
        report.replicates,
        report.base_seed
    );
    if !report.scalar_names.is_empty() {
        out_inline!("\n{:<16}", "series");
        for name in &report.scalar_names {
            out_inline!(" {name:>22}");
        }
        out!();
        for r in &report.results {
            out_inline!("{:<16}", r.series);
            for s in &r.scalars {
                out_inline!(" {:>13.4} ±{:>7.4}", s.mean, s.stddev);
            }
            out!();
        }
    }
    out_inline!("\n{:<12}", report.axis.name);
    for r in &report.results {
        out_inline!(" {:>20}", r.series);
    }
    out!();
    for (i, &x) in report.axis.xs.iter().enumerate() {
        let row_label = report
            .axis
            .labels
            .as_ref()
            .map_or_else(|| format!("{x}"), |labels| labels[i].clone());
        out_inline!("{row_label:<12}");
        for r in &report.results {
            let s = &r.points[i];
            out_inline!(" {:>11.4} ±{:>7.4}", s.mean, s.stddev);
        }
        out!();
    }
}
