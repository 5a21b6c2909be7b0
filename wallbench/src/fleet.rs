//! `fleet-corpus` and `chaos-hybrid`: one GPT-4V run per corpus task on
//! `Fleet::run`, plain or under chaos with the hybrid bot, plus a traced
//! replica of the fleet worker built from public functions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use eclair_chaos::{ChaosProfile, ChaosSchedule, ChaosSession};
use eclair_core::execute::executor::{run_on_session, ExecConfig, RunResult};
use eclair_fleet::{
    derive_seed, execute_spec_shared, pricing_for, CancelToken, Fleet, FleetConfig, FleetReport,
    FleetTiming, RetryPolicy, RunOutcome, RunRecord, RunSpec,
};
use eclair_fm::{shared_percept_cache, FmModel, FmProfile, SharedPerceptCache, TokenMeter};
use eclair_gui::{GuiSurface, Screenshot, Session};
use eclair_hybrid::{compile_task, run_hybrid_on_session, HybridPolicy, HybridScript};
use eclair_shared::StatsSnapshot;
use eclair_sites::TaskSpec;
use eclair_trace::{RunSummary, TraceEvent, VirtualClock};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host::cpu_seconds;
use crate::probe::{replay_perception, Layers, Timed};
use crate::speed::{Speed, Timing, BLOCK_WORKFLOWS};
use crate::stats::digest;
use crate::CORPUS_COPIES;

/// Seed streams derived from the workload seed.
const FLEET_STREAM: u64 = 1;
const CHAOS_STREAM: u64 = 2;
/// Share of executor steps that draw a fault under chaos.
const CHAOS_RATE: f64 = 0.25;
/// The stream the fleet worker draws backoff jitter from, and the virtual
/// microseconds one backoff step costs (`eclair_fleet`'s private
/// `BACKOFF_STREAM` and `BACKOFF_STEP_US`).
const BACKOFF_STREAM: u64 = u64::MAX;
const BACKOFF_STEP_US: u64 = 250_000;

/// A fleet workload's inputs.
pub struct FleetLoad {
    pub config: FleetConfig,
    pub specs: Vec<RunSpec>,
    /// Specs per corpus copy.
    copy_len: usize,
}

/// Counts summed over a pass's corpus copies.
#[derive(Debug, Default)]
pub struct Totals {
    pub succeeded: u64,
    pub tokens: u64,
    pub fm_calls: u64,
    pub attempts: u64,
    pub faults: u64,
}

/// A pass's output, copy by copy in copy order: each copy's outcome JSON
/// and merged trace JSONL.
#[derive(Default)]
struct Output {
    parts: Vec<String>,
    trace_bytes: usize,
    totals: Totals,
}

impl Output {
    fn add(&mut self, report: &FleetReport) -> Result<(), String> {
        let jsonl = report.merged_trace_jsonl().map_err(|e| e.to_string())?;
        self.add_exported(report, jsonl);
        Ok(())
    }

    fn add_exported(&mut self, report: &FleetReport, jsonl: String) {
        let outcome = &report.outcome;
        self.totals.succeeded += outcome.succeeded;
        self.totals.tokens += outcome.tokens.total_tokens();
        self.totals.fm_calls += outcome.tokens.calls;
        self.totals.attempts += outcome
            .records
            .iter()
            .map(|r| r.attempts as u64)
            .sum::<u64>();
        self.totals.faults += outcome.faults_injected_total();
        self.trace_bytes += jsonl.len();
        self.parts.push(outcome.to_json());
        self.parts.push(jsonl);
    }

    /// The check digest of the pass.
    fn digest(&self) -> String {
        digest(self.parts.iter().map(|s| s.as_bytes()))
    }
}

/// One pass of a fresh `Fleet::run` per corpus copy, each followed by its
/// trace export, timed.
pub struct FleetPass {
    pub digest: String,
    pub totals: Totals,
    /// Wall and process CPU seconds of each copy, scaled to the reference
    /// speed: its `Fleet::run` and export.
    pub copy_wall: Vec<f64>,
    pub copy_cpu: Vec<f64>,
    /// `Fleet::run` alone, summed over copies: wall and process CPU.
    pub run_wall: Duration,
    pub run_cpu: f64,
    pub export: Duration,
    pub export_bytes: usize,
    pub submit_waits: u64,
    /// Each copy's shared-cache statistics, summed.
    pub shared: StatsSnapshot,
}

/// One sequential pass: its digest and its time as measured.
pub struct SequentialPass {
    pub digest: String,
    pub time: Duration,
}

/// One traced replica pass.
pub struct TracedPass {
    pub digest: String,
    pub totals: Totals,
    pub layers: Layers,
}

impl FleetLoad {
    /// One GPT-4V spec per task of each corpus copy, run ids counting up
    /// across copies, default retries; under `chaos` every spec also
    /// carries a full chaos profile and the hybrid policy.
    pub fn new(corpus: &[TaskSpec], seed: u64, chaos: bool, workers: usize) -> Self {
        let fleet_seed = derive_seed(seed, FLEET_STREAM);
        let chaos_profile = ChaosProfile::full(derive_seed(seed, CHAOS_STREAM), CHAOS_RATE);
        let specs = (0..CORPUS_COPIES)
            .flat_map(|_| corpus)
            .enumerate()
            .map(|(i, task)| {
                let spec = RunSpec::for_task(fleet_seed, i as u64, task.clone(), FmProfile::Gpt4V);
                if chaos {
                    spec.with_chaos(chaos_profile.clone())
                        .with_hybrid(HybridPolicy::default())
                } else {
                    spec
                }
            })
            .collect();
        let config = FleetConfig::default()
            .with_workers(workers)
            .with_seed(fleet_seed);
        Self {
            config,
            specs,
            copy_len: corpus.len().max(1),
        }
    }

    /// The specs of each corpus copy, in order.
    fn copies(&self) -> std::slice::Chunks<'_, RunSpec> {
        self.specs.chunks(self.copy_len)
    }

    /// The reference digest: an untimed `Fleet::run_sequential` per copy.
    pub fn reference(&self) -> Result<String, String> {
        let mut out = Output::default();
        for copy in self.copies() {
            let fleet = Fleet::new(self.config.clone());
            let report = fleet
                .run_sequential(copy.to_vec())
                .map_err(|e| e.to_string())?;
            out.add(&report)?;
        }
        Ok(out.digest())
    }

    /// The production path: per corpus copy, a fresh `Fleet` runs every
    /// spec on its workers and the merged trace is exported. Each copy is
    /// one timed block, with a host speed sample between copies.
    pub fn fleet_pass(&self) -> Result<FleetPass, String> {
        let mut out = Output::default();
        let (mut copy_wall, mut copy_cpu) = (Vec::new(), Vec::new());
        let (mut run_wall, mut run_cpu, mut export) = (Duration::ZERO, 0.0, Duration::ZERO);
        let (mut submit_waits, mut shared) = (0, StatsSnapshot::default());
        let mut speed = Speed::new();
        for copy in self.copies() {
            let specs = copy.to_vec();
            let mut timing = Timing::default();
            let (done, _) = speed.block(&mut timing, || {
                let (start, cpu0) = (Instant::now(), cpu_seconds());
                let fleet = Fleet::new(self.config.clone());
                let report = fleet.run(specs).map_err(|e| e.to_string())?;
                let (ran, ran_cpu) = (start.elapsed(), cpu_seconds() - cpu0);
                let jsonl = report.merged_trace_jsonl().map_err(|e| e.to_string())?;
                Ok::<_, String>((fleet, report, jsonl, ran, ran_cpu))
            });
            let (fleet, report, jsonl, ran, ran_cpu) = done?;
            copy_cpu.push(timing.scaled_cpu);
            copy_wall.push(timing.scaled_wall);
            run_wall += ran;
            run_cpu += ran_cpu;
            export += Duration::from_secs_f64(timing.wall).saturating_sub(ran);
            submit_waits += report.timing.submit_waits;
            let stats = fleet.shared_cache().stats();
            shared.hits += stats.hits;
            shared.misses += stats.misses;
            shared.coalesced += stats.coalesced;
            shared.evictions += stats.evictions;
            out.add_exported(&report, jsonl);
        }
        Ok(FleetPass {
            digest: out.digest(),
            totals: out.totals,
            copy_wall,
            copy_cpu,
            run_wall,
            run_cpu,
            export,
            export_bytes: out.trace_bytes,
            submit_waits,
            shared,
        })
    }

    /// Every spec alone, one after another, through the fleet worker's
    /// unit of work (`execute_spec_shared` on a fresh fleet's shared
    /// cache per copy), in blocks of [`BLOCK_WORKFLOWS`] with a host speed
    /// sample between blocks. Pushes each call's wall time in
    /// milliseconds, scaled to the reference speed.
    pub fn sequential_pass(&self, samples_ms: &mut Vec<f64>) -> Result<SequentialPass, String> {
        let cancel = CancelToken::new();
        let mut out = Output::default();
        let mut timing = Timing::default();
        let mut speed = Speed::new();
        for copy in self.copies() {
            let fleet = Fleet::new(self.config.clone());
            let mut runs = Vec::with_capacity(copy.len());
            for block in copy.chunks(BLOCK_WORKFLOWS) {
                speed.block_with_samples(&mut timing, samples_ms, |samples| {
                    for spec in block {
                        let start = Instant::now();
                        runs.push(execute_spec_shared(
                            spec,
                            &self.config.retry,
                            &cancel,
                            Some(fleet.shared_cache()),
                        ));
                        samples.push(start.elapsed().as_secs_f64() * 1e3);
                    }
                });
            }
            out.add(&assemble(&self.config, runs)?)?;
        }
        Ok(SequentialPass {
            digest: out.digest(),
            time: Duration::from_secs_f64(timing.wall),
        })
    }

    /// The traced replica: every spec on one thread through
    /// [`traced_execute`], a fresh shared cache per copy, then each run's
    /// frames replayed through perception.
    pub fn traced_pass(&self) -> Result<TracedPass, String> {
        let mut layers = Layers::default();
        let mut out = Output::default();
        for copy in self.copies() {
            let shared = shared_percept_cache();
            let runs = copy
                .iter()
                .map(|spec| {
                    let start = Instant::now();
                    let (run, frames) =
                        traced_execute(spec, &self.config.retry, &shared, &mut layers);
                    layers.total += start.elapsed();
                    replay_perception(&frames, &mut layers.perceive);
                    run
                })
                .collect();
            out.add(&assemble(&self.config, runs)?)?;
        }
        Ok(TracedPass {
            digest: out.digest(),
            totals: out.totals,
            layers,
        })
    }
}

/// A copy's report from runs made outside `Fleet::run`.
fn assemble(
    config: &FleetConfig,
    runs: Vec<(RunRecord, Vec<TraceEvent>)>,
) -> Result<FleetReport, String> {
    FleetReport::assemble(config.fleet_seed, runs, FleetTiming::default())
        .map_err(|e| e.to_string())
}

/// `eclair_fleet::execute_spec_shared`, rebuilt from public functions
/// with every surface wrapped in [`Timed`] and every layer call timed.
/// It must return the same record and events as the original; the
/// traced run checks that on every pass. Also returns the frames the
/// surfaces handed out.
pub fn traced_execute(
    spec: &RunSpec,
    policy: &RetryPolicy,
    shared: &Arc<SharedPerceptCache>,
    layers: &mut Layers,
) -> ((RunRecord, Vec<TraceEvent>), Vec<Arc<Screenshot>>) {
    let shared = spec.use_shared.then_some(shared);
    let new_model = |attempt: u32| {
        let mut model = spec
            .profile
            .instantiate(derive_seed(spec.seed, attempt as u64));
        if let Some(cache) = shared {
            model.attach_shared(Arc::clone(cache));
        }
        model
            .trace_mut()
            .set_clock(VirtualClock::new(spec.seed, spec.run_id));
        model
    };
    let mut books = Books::default();
    let mut frames = Vec::new();
    let mut jitter_rng = StdRng::seed_from_u64(derive_seed(spec.seed, BACKOFF_STREAM));
    let max_attempts = policy.max_attempts.max(1);
    let mut cfg = spec.config.clone();
    if let Some(d) = spec.deadline_steps {
        cfg.max_steps = cfg.max_steps.min(d);
    }
    let (mut attempts, mut faults_injected, mut backoff_steps) = (0u32, 0u64, 0u64);
    let mut outcome = RunOutcome::Cancelled;
    let mut last: Option<RunResult> = None;
    for attempt in 1..=max_attempts {
        attempts = attempt;
        let mut model = new_model(attempt);
        let mut ctx = Attempt {
            spec,
            cfg: &cfg,
            faults: &mut faults_injected,
            frames: &mut frames,
            layers: &mut *layers,
        };
        let (mut result, ran_pure) = match &spec.hybrid {
            Some(_) => ctx.hybrid(&mut model),
            None => (ctx.run(&mut model, Run::Executor), true),
        };
        if !result.success && !ran_pure && spec.hybrid.as_ref().is_some_and(|p| p.full_fm_fallback)
        {
            ctx.layers.rescues += 1;
            books.bank(&mut model, &result);
            model = new_model(attempt);
            model
                .trace_mut()
                .note("hybrid: bot attempt failed; rescuing with a full FM run");
            result = ctx.run(&mut model, Run::Executor);
        }
        books.bank(&mut model, &result);
        let over_budget = spec
            .token_budget
            .is_some_and(|b| books.tokens.total_tokens() > b);
        let deadline_hit = spec
            .deadline_steps
            .is_some_and(|d| result.actions_attempted >= d);
        let success = result.success;
        last = Some(result);
        if success {
            outcome = RunOutcome::Success;
            break;
        }
        if over_budget {
            outcome = RunOutcome::BudgetExceeded;
            break;
        }
        if attempt == max_attempts {
            outcome = if deadline_hit {
                RunOutcome::DeadlineExceeded
            } else {
                RunOutcome::Failed
            };
        } else {
            backoff_steps += policy.jittered_delay(attempt, &mut jitter_rng);
        }
    }

    let result = last.unwrap_or(RunResult {
        success: false,
        actions_attempted: 0,
        failures: 0,
        recoveries: 0,
        log: vec![],
    });
    let Books {
        summary,
        tokens,
        events,
        exec_steps,
        vt_exec_us,
    } = books;
    let vt_backoff_us = backoff_steps * BACKOFF_STEP_US;
    let record = RunRecord {
        run_id: spec.run_id,
        task_id: spec.task.id.clone(),
        profile: spec.profile,
        seed: spec.seed,
        attempts,
        retries: attempts.saturating_sub(1),
        outcome,
        result,
        summary,
        cost_usd: tokens.cost_usd(pricing_for(spec.profile)),
        tokens,
        faults_injected,
        exec_steps,
        backoff_steps,
        latency_steps: exec_steps + backoff_steps,
        vt_exec_us,
        vt_backoff_us,
        vt_total_us: vt_exec_us + vt_backoff_us,
    };
    ((record, events), frames)
}

/// What a run accumulates over its attempts.
#[derive(Default)]
struct Books {
    summary: RunSummary,
    tokens: TokenMeter,
    events: Vec<TraceEvent>,
    exec_steps: u64,
    vt_exec_us: u64,
}

impl Books {
    fn bank(&mut self, model: &mut FmModel, result: &RunResult) {
        self.exec_steps += result.actions_attempted as u64;
        self.vt_exec_us += model.trace().clock().now_us();
        self.summary.merge(&model.trace().summary());
        self.tokens.merge(model.meter());
        self.events.extend(model.trace_mut().take_events());
    }
}

/// A surface an attempt runs on: the session its success predicate reads
/// and the faults it injected.
trait Launched: GuiSurface {
    fn session(&self) -> &Session;
    fn faults(&self) -> u64;
}

impl Launched for Session {
    fn session(&self) -> &Session {
        self
    }
    fn faults(&self) -> u64 {
        0
    }
}

impl Launched for ChaosSession {
    fn session(&self) -> &Session {
        self.inner()
    }
    fn faults(&self) -> u64 {
        self.faults_injected()
    }
}

/// What drives an attempt's surface.
enum Run<'s> {
    Executor,
    Bot(&'s mut HybridScript),
}

/// One attempt's context for the replica.
struct Attempt<'a> {
    spec: &'a RunSpec,
    cfg: &'a ExecConfig,
    faults: &'a mut u64,
    frames: &'a mut Vec<Arc<Screenshot>>,
    layers: &'a mut Layers,
}

impl Attempt<'_> {
    /// A hybrid attempt: compile the task into a bot and run it with FM
    /// fallback. Returns `(result, ran_pure)` like the fleet worker.
    fn hybrid(&mut self, model: &mut FmModel) -> (RunResult, bool) {
        let task = &self.spec.task;
        let compiled = self
            .layers
            .compile
            .time(|| compile_task(task, model.trace_mut()));
        match compiled {
            Ok(mut script) => {
                self.layers.hybrid_attempts += 1;
                self.layers.hybrid_steps += script.steps.len() as u64;
                (self.run(model, Run::Bot(&mut script)), false)
            }
            Err(e) => {
                model
                    .trace_mut()
                    .note(format!("hybrid: compile failed ({e}); running pure FM"));
                (self.run(model, Run::Executor), true)
            }
        }
    }

    /// Launch the task's surface (chaos-wrapped under a chaos profile)
    /// and drive it.
    fn run(&mut self, model: &mut FmModel, run: Run) -> RunResult {
        let task = &self.spec.task;
        match &self.spec.chaos {
            Some(profile) => {
                let surface = self.layers.launch.time(|| {
                    let schedule = ChaosSchedule::new(profile.clone(), self.spec.run_id);
                    Timed::new(ChaosSession::new(task.site.app(), schedule))
                });
                self.drive(model, surface, run)
            }
            None => {
                let surface = self.layers.launch.time(|| Timed::new(task.launch()));
                self.drive(model, surface, run)
            }
        }
    }

    fn drive<S: Launched>(
        &mut self,
        model: &mut FmModel,
        mut surface: Timed<S>,
        run: Run,
    ) -> RunResult {
        let task = &self.spec.task;
        let (mut result, in_execute) = match run {
            Run::Executor => {
                let r = self
                    .layers
                    .execute
                    .time(|| run_on_session(model, &mut surface, &task.intent, self.cfg));
                (r, true)
            }
            Run::Bot(script) => {
                let report = self
                    .layers
                    .hybrid
                    .time(|| run_hybrid_on_session(model, &mut surface, script, self.cfg));
                self.layers.hybrid_fallbacks += report.fallbacks;
                (report.result, false)
            }
        };
        result.success = task.success.evaluate(surface.inner.session());
        *self.faults += surface.inner.faults();
        self.layers.absorb(&surface, in_execute);
        self.frames.append(&mut surface.frames);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tasks(indices: &[usize]) -> Vec<TaskSpec> {
        let all = eclair_corpus::corpus_tasks();
        indices.iter().map(|&i| all[i].clone()).collect()
    }

    #[test]
    fn traced_replica_matches_the_fleet_worker() {
        for chaos in [false, true] {
            let load = FleetLoad::new(&tasks(&[0, 2, 57, 200, 300]), 7, chaos, 1);
            let (plain_cache, traced_cache) = (shared_percept_cache(), shared_percept_cache());
            let mut layers = Layers::default();
            for spec in &load.specs {
                let cancel = CancelToken::new();
                let plain =
                    execute_spec_shared(spec, &load.config.retry, &cancel, Some(&plain_cache));
                let (traced, frames) =
                    traced_execute(spec, &load.config.retry, &traced_cache, &mut layers);
                assert_eq!(plain.0, traced.0, "record of {}", spec.task.id);
                assert_eq!(plain.1, traced.1, "events of {}", spec.task.id);
                // A bot that meets no drift runs without screenshots.
                assert!(chaos || !frames.is_empty());
            }
            assert!(layers.screenshot.calls > 0 && layers.dispatch.calls > 0);
            assert!(layers.launch.calls >= load.specs.len() as u64);
            if chaos {
                assert!(layers.compile.calls > 0 && layers.hybrid.calls > 0);
            } else {
                assert_eq!(layers.execute.calls, layers.launch.calls);
            }
        }
    }

    #[test]
    fn every_pass_kind_reproduces_the_sequential_reference() {
        let load = FleetLoad::new(&tasks(&[1, 3, 100]), 9, true, 2);
        assert_eq!(load.specs.len(), 3 * CORPUS_COPIES);
        let reference = load.reference().unwrap();
        assert_eq!(load.fleet_pass().unwrap().digest, reference);
        assert_eq!(load.traced_pass().unwrap().digest, reference);
        let mut samples = Vec::new();
        assert_eq!(
            load.sequential_pass(&mut samples).unwrap().digest,
            reference
        );
        assert_eq!(samples.len(), load.specs.len());
    }
}
