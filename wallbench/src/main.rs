//! Wall-clock benchmark of the ECLAIR Demonstrate -> Execute -> Validate
//! loop over the task corpus. See `README.md` for the command, the
//! workloads and the metrics.

mod automate;
mod fleet;
mod host;
mod probe;
mod speed;
mod stats;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use eclair_sites::TaskSpec;
use eclair_trace::perf::{self, PerfCounters};

use crate::automate::AgentLoad;
use crate::fleet::FleetLoad;
use crate::probe::Layers;
use crate::speed::{Speed, Timing};
use crate::stats::{median, percentile, ratio, Slots};

/// The seed [`Workload::recorded_digest`] was taken at.
const DEFAULT_SEED: u64 = 1;
/// Seconds of repeated set-up after each timed pass, and before the
/// traced run; `setup_s` is the median of all set-ups in a run.
const SETUP_SECONDS: f64 = 0.4;
/// Copies of the corpus one pass runs. Each copy draws its own model
/// noise (fleet run seeds derive from the run id; each copy has its own
/// agent seed), so a pass averages over more noise draws and runs at
/// different seeds differ less in how much work they do.
const CORPUS_COPIES: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FleetCorpus,
    AutomateWdkf,
    ChaosHybrid,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::FleetCorpus,
        Workload::AutomateWdkf,
        Workload::ChaosHybrid,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::FleetCorpus => "fleet-corpus",
            Workload::AutomateWdkf => "automate-wdkf",
            Workload::ChaosHybrid => "chaos-hybrid",
        }
    }

    /// Every pass's digest at [`DEFAULT_SEED`]. Passes at that seed are
    /// checked against it; at any other seed, against an untimed
    /// reference pass.
    fn recorded_digest(self) -> &'static str {
        match self {
            Workload::FleetCorpus => "ab44d9a2778346d5",
            Workload::AutomateWdkf => "14b3c0f39c3a0cc8",
            Workload::ChaosHybrid => "0056b556c3a91722",
        }
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: eclair-wallbench --workload <fleet-corpus|automate-wdkf|chaos-hybrid> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Workflows attempted and failed. A pass that panics, errors or whose
/// digest differs from the reference fails every workflow in it.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count a pass of `workflows` given its digest, or the error it
    /// failed with; true when it ran and its digest matched `reference`.
    fn check(&mut self, workflows: usize, digest: Result<&str, &String>, reference: &str) -> bool {
        self.attempted += workflows as u64;
        let problem = match digest {
            Ok(d) if d == reference => return true,
            Ok(d) => format!("digest {d} differs from reference {reference}"),
            Err(e) => e.clone(),
        };
        eprintln!("failed pass of {workflows} workflows: {problem}");
        self.failed += workflows as u64;
        false
    }
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// Timed set-ups: expanding the corpus and building the workload's inputs
/// from it, each one block scaled to the reference speed. The end-to-end
/// runs repeat set-up after every timed pass, so its median samples the
/// host over the whole run, as the passes do.
struct SetUp<F> {
    build: F,
    whole_s: Vec<f64>,
    expand_s: Vec<f64>,
}

impl<T, F: Fn(&[TaskSpec]) -> T> SetUp<F> {
    fn new(build: F) -> Self {
        Self {
            build,
            whole_s: Vec::new(),
            expand_s: Vec::new(),
        }
    }

    /// One timed set-up.
    fn once(&mut self) -> T {
        let mut timing = Timing::default();
        let mut expand_s = 0.0;
        let (input, scale) = Speed::new().block(&mut timing, || {
            let start = Instant::now();
            let corpus = eclair_corpus::generate(eclair_corpus::CORPUS_SEED)
                .unwrap_or_else(|e| panic!("the default corpus must expand: {e}"));
            expand_s = start.elapsed().as_secs_f64();
            (self.build)(&corpus.tasks)
        });
        self.expand_s.push(expand_s * scale);
        self.whole_s.push(timing.scaled_wall);
        input
    }

    /// Timed set-ups for [`SETUP_SECONDS`], at least one; their inputs
    /// are dropped.
    fn repeat(&mut self) {
        let deadline = Instant::now() + Duration::from_secs_f64(SETUP_SECONDS);
        loop {
            drop(self.once());
            if Instant::now() >= deadline {
                break;
            }
        }
    }
}

/// The digest passes are checked against: the recorded one at the
/// default seed, else whatever `compute` (an untimed sequential pass)
/// yields. An unavailable reference fails every pass.
fn reference(args: &Args, compute: impl FnOnce() -> Result<String, String>) -> String {
    let (digest, source) = if args.seed == DEFAULT_SEED {
        (args.workload.recorded_digest().to_string(), "recorded")
    } else {
        match guarded(compute) {
            Ok(d) => (d, "sequential pass"),
            Err(e) => {
                eprintln!("reference pass failed: {e}");
                ("unavailable".into(), "none")
            }
        }
    };
    eprintln!(
        "reference digest {}/{}: {digest} ({source})",
        args.workload.name(),
        args.seed
    );
    digest
}

/// Run `round` at least once, and again while another round as long as
/// the last one still ends within `seconds` of the start.
fn for_seconds(seconds: f64, mut round: impl FnMut()) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let start = Instant::now();
        round();
        let now = Instant::now();
        if now + (now - start) > deadline {
            break;
        }
    }
}

/// Report an untimed warm-up pass's digest (at the default seed, the
/// value to record in [`Workload::recorded_digest`]) and pass it on.
fn warm_up(digest: Result<String, String>) -> Result<String, String> {
    match &digest {
        Ok(d) => eprintln!("warm-up digest: {d}"),
        Err(e) => eprintln!("warm-up pass failed: {e}"),
    }
    digest
}

/// What a run's timed passes add up to. Every pass does the same work,
/// and its times come scaled to the reference speed (`speed.rs`). Each
/// slot (a corpus copy of a `Fleet::run` or agent pass, a single workflow
/// of a latency pass) takes its median time over the run's passes, which
/// drops the odd slot a pause or a passing spell of load hit; the
/// metrics are computed from those medians.
#[derive(Default)]
struct Passes {
    workflows: f64,
    wall_s: Slots,
    cpu_s: Slots,
    latency_ms: Slots,
}

impl Passes {
    fn new(workflows: usize) -> Self {
        Self {
            workflows: workflows as f64,
            ..Self::default()
        }
    }

    /// One pass's scaled wall and CPU seconds, slot by slot.
    fn throughput(&mut self, wall_s: &[f64], cpu_s: &[f64]) {
        let (wall, cpu) = (wall_s.iter().sum::<f64>(), cpu_s.iter().sum::<f64>());
        eprintln!(
            "pass: {:.1} runs/s, {:.4} cpu ms/run",
            ratio(self.workflows, wall),
            ratio(cpu * 1e3, self.workflows)
        );
        self.wall_s.add(wall_s);
        self.cpu_s.add(cpu_s);
    }

    /// One pass's scaled per-workflow wall times.
    fn latency(&mut self, samples_ms: &[f64]) {
        eprintln!(
            "pass: workflow p50 {:.4} ms, p99 {:.4} ms",
            median(samples_ms),
            percentile(samples_ms, 99.0)
        );
        self.latency_ms.add(samples_ms);
    }

    fn metrics(&self, setup_s: f64, completion_rate: f64, tokens_per_run: f64) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        let latency_ms = self.latency_ms.medians();
        let sum = |slots: &Slots| slots.medians().iter().sum::<f64>();
        vec![
            m("setup_s", setup_s, "s"),
            m(
                "runs_per_s",
                ratio(self.workflows, sum(&self.wall_s)),
                "1/s",
            ),
            m("workflow_ms_p50", median(&latency_ms), "ms"),
            m("workflow_ms_p99", percentile(&latency_ms, 99.0), "ms"),
            m(
                "cpu_ms_per_run",
                ratio(sum(&self.cpu_s) * 1e3, self.workflows),
                "ms",
            ),
            m("peak_rss_mb", host::peak_rss_mb(), "MB"),
            m("completion_rate", completion_rate, "ratio"),
            m("fm_tokens_per_run", tokens_per_run, "count"),
        ]
    }
}

/// Fleet workloads with tracing off: rounds of one `Fleet::run` pass
/// (throughput, CPU) and one sequential pass (per-workflow latency) until
/// the time is up.
fn fleet_end_to_end(args: &Args, chaos: bool, workers: usize) -> (Tally, Vec<Metric>) {
    let mut set_up = SetUp::new(|c: &[TaskSpec]| FleetLoad::new(c, args.seed, chaos, workers));
    let load = set_up.once();
    let n = load.specs.len();
    let reference = reference(args, || load.reference());
    let _ = warm_up(guarded(|| load.fleet_pass().map(|p| p.digest)));
    let mut tally = Tally::default();
    let mut passes = Passes::new(n);
    let (mut completion, mut tokens) = (0.0, 0.0);
    for_seconds(args.seconds, || {
        let pass = guarded(|| load.fleet_pass());
        if tally.check(n, pass.as_ref().map(|p| p.digest.as_str()), &reference) {
            let p = pass.as_ref().expect("a matching pass ran");
            passes.throughput(&p.copy_wall, &p.copy_cpu);
            completion = ratio(p.totals.succeeded as f64, n as f64);
            tokens = ratio(p.totals.tokens as f64, n as f64);
        }
        let mut latency = Vec::with_capacity(n);
        let seq = guarded(|| load.sequential_pass(&mut latency));
        if tally.check(n, seq.as_ref().map(|p| p.digest.as_str()), &reference) {
            passes.latency(&latency);
        }
        set_up.repeat();
    });
    (
        tally,
        passes.metrics(median(&set_up.whole_s), completion, tokens),
    )
}

/// `automate-wdkf` with tracing off: passes of one closed-loop caller
/// until the time is up.
fn automate_end_to_end(args: &Args) -> (Tally, Vec<Metric>) {
    let mut set_up = SetUp::new(|c: &[TaskSpec]| AgentLoad::new(c, args.seed));
    let load = set_up.once();
    let n = load.workflows();
    let reference = reference(args, || Ok(load.pass(&mut Vec::new()).digest));
    // Away from the default seed, the reference pass has already warmed
    // up the timed code path.
    if args.seed == DEFAULT_SEED {
        let _ = warm_up(guarded(|| Ok(load.pass(&mut Vec::new()).digest)));
    }
    let mut tally = Tally::default();
    let mut passes = Passes::new(n);
    let (mut completion, mut tokens) = (0.0, 0.0);
    for_seconds(args.seconds, || {
        let mut latency = Vec::with_capacity(n);
        let pass = guarded(|| Ok(load.pass(&mut latency)));
        if tally.check(n, pass.as_ref().map(|p| p.digest.as_str()), &reference) {
            let p = pass.as_ref().expect("a matching pass ran");
            passes.throughput(&p.copy_wall, &p.copy_cpu);
            passes.latency(&latency);
            completion = ratio(p.completed as f64, n as f64);
            tokens = ratio(p.tokens as f64, n as f64);
        }
        set_up.repeat();
    });
    (
        tally,
        passes.metrics(median(&set_up.whole_s), completion, tokens),
    )
}

/// One traced round: an untraced pass, then the traced replica of the
/// same pass. Each per-layer metric is a median over rounds.
#[derive(Default)]
struct Round {
    workers: f64,
    workflows: f64,
    layers: Layers,
    /// The traced thread's cache counters over the replica pass.
    perf: PerfCounters,
    /// The untraced single-thread pass the replica reproduces.
    plain: Duration,
    tokens: f64,
    fm_calls: f64,
    attempts: f64,
    faults: f64,
    export: Duration,
    export_bytes: f64,
    /// The untraced `Fleet::run` pass (fleet workloads only).
    fleet_run_wall: f64,
    fleet_run_cpu: f64,
    submit_waits: f64,
    shared_hit_rate: f64,
    shared_coalesced: f64,
    /// Per-workflow latency of the sequential pass (fleet workloads only).
    run_us_p50: f64,
    run_us_p99: f64,
}

type PerRound = (&'static str, &'static str, fn(&Round) -> f64);

/// Per-layer metrics read off each round (`busy_ms` and counts per pass).
const PER_ROUND: &[PerRound] = &[
    ("sites.launch.calls", "count", |r| {
        r.layers.launch.calls as f64
    }),
    ("sites.launch.busy_ms", "ms", |r| r.layers.launch.ms()),
    ("gui.screenshot.calls", "count", |r| {
        r.layers.screenshot.calls as f64
    }),
    ("gui.screenshot.busy_ms", "ms", |r| r.layers.screenshot.ms()),
    ("gui.dispatch.calls", "count", |r| {
        r.layers.dispatch.calls as f64
    }),
    ("gui.dispatch.busy_ms", "ms", |r| r.layers.dispatch.ms()),
    ("gui.frame_cache_hit_rate", "ratio", |r| {
        r.perf.frame_cache_hit_rate()
    }),
    ("gui.layout.full_walks", "count", |r| {
        r.perf.relayouts_full as f64
    }),
    ("gui.layout.cache_replays", "count", |r| {
        r.perf.layout_cache_hits as f64
    }),
    ("gui.layout.partial", "count", |r| {
        r.perf.relayouts_partial as f64
    }),
    ("fm.perceive.calls", "count", |r| {
        r.layers.perceive.calls as f64
    }),
    ("fm.perceive.busy_ms", "ms", |r| r.layers.perceive.ms()),
    ("fm.calls_per_run", "count", |r| {
        ratio(r.fm_calls, r.workflows)
    }),
    ("fm.memo_hit_rate", "ratio", |r| r.perf.perceive_memo_rate()),
    ("fm.cached_token_share", "ratio", |r| {
        ratio(
            (r.perf.cached_tokens + r.perf.shared_cached_tokens) as f64,
            r.tokens,
        )
    }),
    ("vision.keyframes.calls", "count", |r| {
        r.layers.keyframes.calls as f64
    }),
    ("vision.keyframes.busy_ms", "ms", |r| {
        r.layers.keyframes.ms()
    }),
    ("demonstrate.record.busy_ms", "ms", |r| r.layers.record.ms()),
    ("demonstrate.sop.busy_ms", "ms", |r| r.layers.sop.ms()),
    ("execute.run.calls", "count", |r| {
        r.layers.execute.calls as f64
    }),
    ("execute.run.busy_ms", "ms", |r| r.layers.execute.ms()),
    ("execute.self_ms", "ms", |r| r.layers.execute_self_ms()),
    ("validate.completion.busy_ms", "ms", |r| {
        r.layers.completion.ms()
    }),
    ("validate.trajectory.busy_ms", "ms", |r| {
        r.layers.trajectory.ms()
    }),
    ("hybrid.compile.busy_ms", "ms", |r| r.layers.compile.ms()),
    ("hybrid.run.busy_ms", "ms", |r| r.layers.hybrid.ms()),
    ("hybrid.fallback_share", "ratio", |r| {
        ratio(
            r.layers.hybrid_fallbacks as f64,
            r.layers.hybrid_steps as f64,
        )
    }),
    ("hybrid.rescue_share", "ratio", |r| {
        ratio(r.layers.rescues as f64, r.layers.hybrid_attempts as f64)
    }),
    ("chaos.faults_per_run", "count", |r| {
        ratio(r.faults, r.workflows)
    }),
    ("fleet.run_us_p50", "us", |r| r.run_us_p50),
    ("fleet.run_us_p99", "us", |r| r.run_us_p99),
    ("fleet.attempts_per_run", "count", |r| {
        ratio(r.attempts, r.workflows)
    }),
    ("fleet.submit_waits", "count", |r| r.submit_waits),
    ("fleet.cpu_util", "ratio", |r| {
        ratio(r.fleet_run_cpu, r.fleet_run_wall * r.workers)
    }),
    ("fleet.parallel_efficiency", "ratio", |r| {
        ratio(r.layers.total.as_secs_f64(), r.fleet_run_wall * r.workers)
    }),
    ("shared.hit_rate", "ratio", |r| r.shared_hit_rate),
    ("shared.coalesced", "count", |r| r.shared_coalesced),
    ("trace.export.busy_ms", "ms", |r| {
        r.export.as_secs_f64() * 1e3
    }),
    ("trace.bytes_per_run", "bytes", |r| {
        ratio(r.export_bytes, r.workflows)
    }),
    ("tracing_overhead_share", "ratio", |r| {
        ratio(r.layers.total.as_secs_f64(), r.plain.as_secs_f64()) - 1.0
    }),
    ("unattributed_share", "ratio", |r| {
        r.layers.unattributed_share()
    }),
];

/// The traced run: rounds until the time is up, then every per-layer
/// metric as a median over rounds. `round` runs one round, checking each
/// of its passes against the reference.
fn traced(
    args: &Args,
    expand_s: f64,
    mut round: impl FnMut(&mut Tally) -> Round,
) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let mut rounds = Vec::new();
    for_seconds(args.seconds, || {
        rounds.push(round(&mut tally));
    });
    let mut metrics: Vec<Metric> = PER_ROUND
        .iter()
        .map(|&(name, unit, f)| Metric {
            name,
            value: median(&rounds.iter().map(f).collect::<Vec<_>>()),
            unit,
        })
        .collect();
    metrics.extend([
        Metric {
            name: "corpus.expand.busy_ms",
            value: expand_s * 1e3,
            unit: "ms",
        },
        Metric {
            name: "gui.intern_table_size",
            value: eclair_gui::intern::table_size() as f64,
            unit: "count",
        },
    ]);
    (tally, metrics)
}

fn fleet_traced(args: &Args, chaos: bool, workers: usize) -> (Tally, Vec<Metric>) {
    let mut set_up = SetUp::new(|c: &[TaskSpec]| FleetLoad::new(c, args.seed, chaos, workers));
    let load = set_up.once();
    set_up.repeat();
    let expand_s = median(&set_up.expand_s);
    let n = load.specs.len();
    let reference = reference(args, || load.reference());
    let _ = warm_up(guarded(|| load.fleet_pass().map(|p| p.digest)));
    traced(args, expand_s, |tally| {
        let mut r = Round {
            workers: workers as f64,
            workflows: n as f64,
            ..Round::default()
        };
        let pass = guarded(|| load.fleet_pass());
        if tally.check(n, pass.as_ref().map(|p| p.digest.as_str()), &reference) {
            let p = pass.expect("a matching pass ran");
            r.export = p.export;
            r.export_bytes = p.export_bytes as f64;
            r.fleet_run_wall = p.run_wall.as_secs_f64();
            r.fleet_run_cpu = p.run_cpu;
            r.submit_waits = p.submit_waits as f64;
            r.shared_hit_rate = p.shared.hit_rate();
            r.shared_coalesced = p.shared.coalesced as f64;
        }
        let mut run_ms = Vec::with_capacity(n);
        let seq = guarded(|| load.sequential_pass(&mut run_ms));
        if tally.check(n, seq.as_ref().map(|p| p.digest.as_str()), &reference) {
            r.plain = seq.expect("a matching pass ran").time;
            r.run_us_p50 = median(&run_ms) * 1e3;
            r.run_us_p99 = percentile(&run_ms, 99.0) * 1e3;
        }
        perf::reset();
        let traced = guarded(|| load.traced_pass());
        r.perf = perf::snapshot();
        if tally.check(n, traced.as_ref().map(|p| p.digest.as_str()), &reference) {
            let t = traced.expect("a matching pass ran");
            r.layers = t.layers;
            r.tokens = t.totals.tokens as f64;
            r.fm_calls = t.totals.fm_calls as f64;
            r.attempts = t.totals.attempts as f64;
            r.faults = t.totals.faults as f64;
        }
        r
    })
}

fn automate_traced(args: &Args) -> (Tally, Vec<Metric>) {
    let mut set_up = SetUp::new(|c: &[TaskSpec]| AgentLoad::new(c, args.seed));
    let load = set_up.once();
    set_up.repeat();
    let expand_s = median(&set_up.expand_s);
    let n = load.workflows();
    let warm = warm_up(guarded(|| Ok(load.pass(&mut Vec::new()).digest)));
    let reference = reference(args, || warm);
    traced(args, expand_s, |tally| {
        let mut r = Round {
            workers: 1.0,
            workflows: n as f64,
            ..Round::default()
        };
        let pass = guarded(|| Ok(load.pass(&mut Vec::new())));
        if tally.check(n, pass.as_ref().map(|p| p.digest.as_str()), &reference) {
            let p = pass.expect("a matching pass ran");
            r.plain = p.wall - p.export;
            r.export = p.export;
            r.export_bytes = p.export_bytes as f64;
        }
        perf::reset();
        let traced = guarded(|| Ok(load.traced_pass()));
        r.perf = perf::snapshot();
        if tally.check(n, traced.as_ref().map(|p| p.digest.as_str()), &reference) {
            let t = traced.expect("a matching pass ran");
            r.layers = t.layers;
            r.tokens = t.tokens as f64;
            r.fm_calls = t.fm_calls as f64;
        }
        r
    })
}

fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                host::quote(m.name),
                host::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The fleet workloads run `nproc` workers; `automate-wdkf` has one
    // caller.
    let workers = match args.workload {
        Workload::AutomateWdkf => 1,
        Workload::FleetCorpus | Workload::ChaosHybrid => host::nproc(),
    };
    println!(
        "{}",
        host::facts_json(args.workload.name(), args.seed, workers)
    );
    let (tally, metrics) = match (args.workload, args.trace) {
        (Workload::FleetCorpus, false) => fleet_end_to_end(&args, false, workers),
        (Workload::ChaosHybrid, false) => fleet_end_to_end(&args, true, workers),
        (Workload::AutomateWdkf, false) => automate_end_to_end(&args),
        (Workload::FleetCorpus, true) => fleet_traced(&args, false, workers),
        (Workload::ChaosHybrid, true) => fleet_traced(&args, true, workers),
        (Workload::AutomateWdkf, true) => automate_traced(&args),
    };
    println!("{}", result_json(&tally, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_digest_mismatch_fails_every_workflow_of_the_pass() {
        let load = FleetLoad::new(&eclair_corpus::corpus_tasks()[..1], 3, false, 1);
        assert_eq!(load.specs.len(), CORPUS_COPIES);
        let reference = load.reference().unwrap();
        let pass = guarded(|| load.fleet_pass());
        let mut tally = Tally::default();
        assert!(tally.check(3, pass.as_ref().map(|p| p.digest.as_str()), &reference));
        assert!(!tally.check(
            3,
            pass.as_ref().map(|p| p.digest.as_str()),
            "0000000000000000"
        ));
        let panicked: Result<String, String> = guarded(|| panic!("boom"));
        assert_eq!(panicked, Err("panicked: boom".to_string()));
        assert!(!tally.check(3, panicked.as_deref(), &reference));
        assert_eq!((tally.attempted, tally.failed), (9, 6));
        assert!(result_json(&tally, &[])
            .starts_with("{\"correct\": false, \"attempted\": 9, \"failed\": 6"));
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert_eq!(
            parse("--workload chaos-hybrid --seed 7 --seconds 2 --trace 1"),
            Ok(Args {
                workload: Workload::ChaosHybrid,
                seed: 7,
                seconds: 2.0,
                trace: true
            })
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload fleet-corpus --trace 2").is_err());
        assert!(parse("--workload fleet-corpus --seconds 0").is_err());
    }

    #[test]
    fn result_json_has_every_metric_with_its_unit() {
        let tally = Tally {
            attempted: 4,
            failed: 0,
        };
        let metrics = [
            Metric {
                name: "runs_per_s",
                value: 12.5,
                unit: "1/s",
            },
            Metric {
                name: "setup_s",
                value: f64::NAN,
                unit: "s",
            },
        ];
        assert_eq!(
            result_json(&tally, &metrics),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"runs_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
