//! The scenario pipeline composed from its public calls, with a span
//! around each call and the inner layers' counters read from the
//! `Network` after each leg.
//!
//! The composition mirrors `ups_sweep::CellPipeline::cell` step for step
//! and aggregates through the same engine (`run_sweep_with`, one
//! worker), so its artifacts must be byte-identical to an untraced
//! `Scenario::run_spec` — the driver checks that, which is what keeps
//! the per-layer split honest if the pipeline is ever restructured.

use crate::trace::{Clock, Span, Tracer};
use std::io;
use std::path::Path;
use std::sync::Mutex;
use ups_core::deadline::{
    deadline_flow_stats, record_deadline_original, replay_deadline, DeadlineMode,
};
use ups_core::replay::{record_original, replay_schedule, ReplayMode};
use ups_net::Network;
use ups_sweep::scenario::Scenario;
use ups_sweep::{
    run_sweep_with, CellMetrics, CellPipeline, DeadlineCell, Job, SimScale, SweepReport, SweepSpec,
};

/// The MTU every scenario cell records and replays with.
const MTU: u32 = 1500;

/// Counters of one simulation leg (record or replay), read from the
/// `Network` once the leg has run to completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LegCounters {
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Events the wheel processed (sim layer).
    pub events: u64,
    /// Completed link transmissions, i.e. packet-hops (net layer).
    pub hops: u64,
    /// Packets admitted to a port's scheduler (sched layer).
    pub enqueued: u64,
    /// Deepest scheduler queue on any port, in packets.
    pub max_queue_pkts: u64,
    /// Packet arena high-water mark.
    pub peak_in_flight: u64,
}

impl LegCounters {
    /// Read a finished leg's counters.
    pub fn of(net: &Network) -> LegCounters {
        let c = &net.telemetry.counters;
        LegCounters {
            injected: c.injected,
            delivered: c.delivered,
            dropped: c.dropped,
            events: c.events,
            hops: net.links.iter().map(|l| l.stats.tx_done).sum(),
            enqueued: net.links.iter().map(|l| l.stats.enqueued).sum(),
            max_queue_pkts: net
                .links
                .iter()
                .map(|l| l.stats.max_queue_pkts as u64)
                .max()
                .unwrap_or(0),
            peak_in_flight: net.peak_packets_in_flight() as u64,
        }
    }
}

/// What one job of the composed grid did.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The job (cell coordinate and seed).
    pub job: Job,
    /// Flows the workload generated.
    pub flows: u64,
    /// Packets those flows carry.
    pub flow_pkts: u64,
    /// Packets in the recorded schedule.
    pub recorded: u64,
    /// Packets the replay scored.
    pub replayed: u64,
    /// Record-leg counters.
    pub record: LegCounters,
    /// Replay-leg counters.
    pub replay: LegCounters,
}

impl CellRun {
    /// Broken invariants of this job, each naming the cell and seed.
    /// In each leg every injected packet is delivered or dropped, and
    /// the replay injects and scores exactly the recorded packets.
    pub fn violations(&self) -> Vec<String> {
        let at = format!(
            "{} {} util {} seed {}",
            self.job.coord.topo.label(),
            self.job.coord.sched.label(),
            self.job.coord.util,
            self.job.seed
        );
        let mut out = Vec::new();
        for (leg, c) in [("record", &self.record), ("replay", &self.replay)] {
            if c.injected != c.delivered + c.dropped {
                out.push(format!(
                    "{at}: {leg} leg injected {} != delivered {} + dropped {}",
                    c.injected, c.delivered, c.dropped
                ));
            }
        }
        if self.replay.injected != self.recorded || self.replayed != self.recorded {
            out.push(format!(
                "{at}: replay injected {} and scored {} of {} recorded packets",
                self.replay.injected, self.replayed, self.recorded
            ));
        }
        out
    }
}

/// Everything a composed run produced.
#[derive(Debug)]
pub struct Composed {
    /// The aggregated table report.
    pub report: SweepReport,
    /// One entry per job, in job order.
    pub cells: Vec<CellRun>,
    /// The trace; span 0 is the root around the whole grid.
    pub spans: Vec<Span>,
    /// Bytes of artifacts written.
    pub artifact_bytes: u64,
}

/// Tracing state shared with the engine's job runner (one worker, so
/// the lock is never contended).
struct State<C> {
    tracer: Tracer<C>,
    cells: Vec<CellRun>,
}

struct Traced<C>(Mutex<State<C>>);

impl<C: Clock> Traced<C> {
    fn enter(&self, name: &'static str) -> usize {
        self.0.lock().expect("tracer poisoned").tracer.enter(name)
    }

    fn exit(&self, id: usize) {
        self.0.lock().expect("tracer poisoned").tracer.exit(id);
    }

    /// Run `f` inside a span named `name`.
    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }
}

/// Run `spec` (a clean grid of `scenario`) through the composed
/// pipeline on one worker and write its artifacts to `out`.
pub fn run<C: Clock + Send>(
    scenario: &Scenario,
    spec: &SweepSpec,
    sim: &SimScale,
    out: &Path,
    clock: C,
) -> io::Result<Composed> {
    if spec.cells.iter().any(|c| c.chaos.enabled()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "the composed pipeline covers clean (chaos-free) cells only",
        ));
    }
    let traced = Traced(Mutex::new(State {
        tracer: Tracer::new(clock),
        cells: Vec::new(),
    }));
    let root = traced.enter("sweep.grid");
    let report = run_sweep_with(spec, sim.label, 1, |job| {
        traced.span("sweep.cell", || cell(&traced, scenario, job, sim))
    });
    let artifact_bytes = traced.span("sweep.artifact", || -> io::Result<u64> {
        let mut paths = vec![report.write(out)?];
        if let Some(fig) = scenario.miss_curves(&report) {
            paths.push(fig.write(out)?);
        }
        let mut bytes = 0;
        for (json, csv) in paths {
            bytes += std::fs::metadata(json)?.len() + std::fs::metadata(csv)?.len();
        }
        Ok(bytes)
    })?;
    traced.exit(root);
    let state = traced.0.into_inner().expect("tracer poisoned");
    Ok(Composed {
        report,
        cells: state.cells,
        spans: state.tracer.into_spans(),
        artifact_bytes,
    })
}

/// One job, step for step as `CellPipeline::cell` runs it on a clean
/// cell: build, generate, record, drop, rebuild, replay, deadline
/// outcomes, drop, score.
fn cell<C: Clock>(
    traced: &Traced<C>,
    scenario: &Scenario,
    job: &Job,
    sim: &SimScale,
) -> CellMetrics {
    let coord = &job.coord;
    let mut orig = traced.span("topo.build", || coord.topo.build(sim));
    let flows = traced.span("flowgen.build", || {
        scenario
            .workload
            .build(&orig, coord.util, sim.horizon, job.seed)
    });
    let (metrics, record, replay, recorded, replayed) = match scenario.pipeline {
        CellPipeline::Replay => {
            let schedule = traced.span("core.record", || {
                record_original(&mut orig, &flows, coord.sched, job.seed, MTU)
            });
            let record = LegCounters::of(&orig.net);
            traced.span("net.teardown", || drop(orig));
            let mut topo = traced.span("topo.build", || coord.topo.build(sim));
            let report = traced.span("core.replay", || {
                replay_schedule(&mut topo, &schedule, ReplayMode::lstf())
            });
            let replay = LegCounters::of(&topo.net);
            let outcomes = deadline(traced, &flows, &topo.net);
            traced.span("net.teardown", || drop(topo));
            let mut metrics = traced.span("core.score", || CellMetrics::of(&report, &schedule));
            metrics.deadline = outcomes;
            (metrics, record, replay, schedule.len(), report.total)
        }
        CellPipeline::DeadlineReplay => {
            let mode = DeadlineMode::from_sched(coord.sched)
                .expect("deadline-replay cells name EDF, LSTF or Priority");
            let ds = traced.span("core.record", || {
                record_deadline_original(&mut orig, &flows, MTU)
            });
            let record = LegCounters::of(&orig.net);
            traced.span("net.teardown", || drop(orig));
            let mut topo = traced.span("topo.build", || coord.topo.build(sim));
            let report = traced.span("core.replay", || replay_deadline(&mut topo, &ds, mode));
            let replay = LegCounters::of(&topo.net);
            let outcomes = deadline(traced, &flows, &topo.net);
            traced.span("net.teardown", || drop(topo));
            let mut metrics = traced.span("core.score", || CellMetrics::of(&report, &ds.schedule));
            metrics.deadline = outcomes;
            (metrics, record, replay, ds.schedule.len(), report.total)
        }
    };
    traced
        .0
        .lock()
        .expect("tracer poisoned")
        .cells
        .push(CellRun {
            job: *job,
            flows: flows.len() as u64,
            flow_pkts: flows.iter().map(|f| f.pkts).sum(),
            recorded: recorded as u64,
            replayed: replayed as u64,
            record,
            replay,
        });
    metrics
}

/// The replay's deadline outcomes, reduced exactly as the sweep cell
/// reduces them.
fn deadline<C: Clock>(
    traced: &Traced<C>,
    flows: &[ups_transport::FlowDesc],
    net: &Network,
) -> Option<DeadlineCell> {
    traced
        .span("core.deadline_stats", || {
            deadline_flow_stats(flows, &net.telemetry)
        })
        .map(|stats| DeadlineCell {
            tagged: stats.tagged,
            missed: stats.missed,
            miss_rate: stats.miss_rate(),
            mean_lateness_us: stats.mean_lateness_us,
            p99_lateness_us: stats.p99_lateness_us,
        })
}
