//! `automate-wdkf`: one closed-loop caller; per corpus copy, one fresh
//! ECLAIR agent runs the full Demonstrate -> Execute -> Validate
//! loop (`Eclair::automate`, WD+KF evidence, GPT-4V) over every corpus
//! task. Plus a traced replica of `automate` built from public functions.

use std::time::{Duration, Instant};

use eclair_core::agent::WorkflowReport;
use eclair_core::demonstrate::{generate_sop, record_gold_demo, EvidenceLevel};
use eclair_core::execute::executor::{run_on_session, ExecConfig};
use eclair_core::validate::{check_completion, check_trajectory};
use eclair_core::{Eclair, EclairConfig};
use eclair_fleet::derive_seed;
use eclair_fm::tokens::Pricing;
use eclair_fm::{FmModel, ModelProfile};
use eclair_sites::TaskSpec;
use eclair_trace::RunSummary;
use eclair_vision::keyframes::{extract_key_frames, KeyFrameConfig};

use crate::probe::{replay_perception, Layers, Timed};
use crate::speed::{Speed, Timing, BLOCK_WORKFLOWS};
use crate::stats::digest;
use crate::CORPUS_COPIES;

/// The agents' seed stream, derived from the workload seed.
const AGENT_STREAM: u64 = 3;
/// The key-frame threshold `generate_sop` uses at WD+KF.
const KEY_FRAME_MIN_DIFF: f64 = 0.002;

/// The workload's inputs: the corpus and one agent configuration per
/// corpus copy, each with its own seed.
pub struct AgentLoad {
    pub configs: Vec<EclairConfig>,
    pub tasks: Vec<TaskSpec>,
}

/// One pass, timed.
pub struct AgentPass {
    pub digest: String,
    /// Every `automate` call plus the trace exports, as measured.
    pub wall: Duration,
    pub export: Duration,
    pub export_bytes: usize,
    /// Wall and process CPU seconds of each corpus copy, scaled to the
    /// reference speed: its agent's `automate` calls and trace export.
    pub copy_wall: Vec<f64>,
    pub copy_cpu: Vec<f64>,
    pub completed: usize,
    pub tokens: u64,
}

/// One traced replica pass: its digest and layer timings.
pub struct TracedPass {
    pub digest: String,
    pub layers: Layers,
    pub tokens: u64,
    pub fm_calls: u64,
}

/// The check digest of a pass: every report's JSON in order, then every
/// agent's trace.
fn pass_digest(reports: &[WorkflowReport], traces: &[String]) -> String {
    let json: Vec<String> = reports
        .iter()
        .map(|r| serde_json::to_string(r).expect("workflow reports serialize"))
        .collect();
    digest(json.iter().chain(traces).map(|s| s.as_bytes()))
}

impl AgentLoad {
    pub fn new(corpus: &[TaskSpec], seed: u64) -> Self {
        let agent_seed = derive_seed(seed, AGENT_STREAM);
        let configs = (0..CORPUS_COPIES as u64)
            .map(|copy| EclairConfig {
                profile: ModelProfile::gpt4v(),
                evidence: EvidenceLevel::WdKf,
                seed: derive_seed(agent_seed, copy),
                ..EclairConfig::default()
            })
            .collect();
        Self {
            configs,
            tasks: corpus.to_vec(),
        }
    }

    pub fn workflows(&self) -> usize {
        self.configs.len() * self.tasks.len()
    }

    /// One closed-loop caller: per corpus copy, a fresh agent automates
    /// every task in order, each call made when the previous one has
    /// returned, and then exports its trace. The calls run in blocks of
    /// [`BLOCK_WORKFLOWS`] with a host speed sample between blocks. Pushes
    /// each `automate` call's wall time in milliseconds, scaled to the
    /// reference speed.
    pub fn pass(&self, samples_ms: &mut Vec<f64>) -> AgentPass {
        let mut reports = Vec::with_capacity(self.workflows());
        let mut traces = Vec::with_capacity(self.configs.len());
        let mut copy_wall = Vec::with_capacity(self.configs.len());
        let mut copy_cpu = Vec::with_capacity(self.configs.len());
        let (mut wall, mut export, mut tokens) = (0.0, 0.0, 0);
        let mut speed = Speed::new();
        for config in &self.configs {
            let mut copy = Timing::default();
            let mut agent = Eclair::new(config.clone());
            for block in self.tasks.chunks(BLOCK_WORKFLOWS) {
                speed.block_with_samples(&mut copy, samples_ms, |samples| {
                    for task in block {
                        let call = Instant::now();
                        reports.push(agent.automate(task));
                        samples.push(call.elapsed().as_secs_f64() * 1e3);
                    }
                });
            }
            let calls = copy.wall;
            let (trace, _) = speed.block(&mut copy, || agent.model().trace().to_jsonl());
            traces.push(trace);
            export += copy.wall - calls;
            wall += copy.wall;
            copy_wall.push(copy.scaled_wall);
            copy_cpu.push(copy.scaled_cpu);
            tokens += agent.model().meter().total_tokens();
        }
        AgentPass {
            digest: pass_digest(&reports, &traces),
            wall: Duration::from_secs_f64(wall),
            export: Duration::from_secs_f64(export),
            export_bytes: traces.iter().map(String::len).sum(),
            copy_wall,
            copy_cpu,
            completed: reports.iter().filter(|r| r.success).count(),
            tokens,
        }
    }

    /// The traced replica of [`Self::pass`]: per copy, every task through
    /// [`traced_automate`] on one model, then each task's demonstration
    /// replayed through key-frame extraction and its executed frames
    /// through perception.
    pub fn traced_pass(&self) -> TracedPass {
        let mut layers = Layers::default();
        let mut reports = Vec::with_capacity(self.workflows());
        let mut traces = Vec::with_capacity(self.configs.len());
        let (mut tokens, mut fm_calls) = (0, 0);
        let kf = KeyFrameConfig {
            min_diff: KEY_FRAME_MIN_DIFF,
        };
        for config in &self.configs {
            let mut model = FmModel::new(config.profile.clone(), config.seed);
            for task in &self.tasks {
                let start = Instant::now();
                let (report, demo, frames) = traced_automate(&mut model, config, task, &mut layers);
                layers.total += start.elapsed();
                reports.push(report);
                std::hint::black_box(layers.keyframes.time(|| extract_key_frames(&demo, kf)));
                replay_perception(&frames, &mut layers.perceive);
            }
            traces.push(model.trace().to_jsonl());
            tokens += model.meter().total_tokens();
            fm_calls += model.meter().calls;
        }
        TracedPass {
            digest: pass_digest(&reports, &traces),
            layers,
            tokens,
            fm_calls,
        }
    }
}

/// `Eclair::automate`, rebuilt from public functions with the execution
/// surface wrapped in [`Timed`] and every layer call timed. It must
/// return the same report and trace as the original; the traced run
/// checks that on every pass. Also returns the demonstration and the
/// frames the surface handed out.
pub fn traced_automate(
    model: &mut FmModel,
    config: &EclairConfig,
    task: &TaskSpec,
    layers: &mut Layers,
) -> (
    WorkflowReport,
    eclair_vision::frame::Recording,
    Vec<std::sync::Arc<eclair_gui::Screenshot>>,
) {
    let trace_start = model.trace().events().len();
    let demo = layers.record.time(|| record_gold_demo(task));
    let sop = layers
        .sop
        .time(|| generate_sop(model, &task.intent, Some(&demo), config.evidence));
    let cfg = ExecConfig {
        sop: Some(sop.clone()),
        strategy: config.strategy,
        max_steps: 0,
        retry_failed: true,
        escape_popups: true,
        relogin_expired: true,
        use_cache: true,
    }
    .budgeted(task.gold_trace.len());
    let mut surface = layers.launch.time(|| Timed::new(task.launch()));
    let result = layers
        .execute
        .time(|| run_on_session(model, &mut surface, &task.intent, &cfg));
    let success = task.success.evaluate(&surface.inner);
    layers.absorb(&surface, true);
    let self_complete = layers
        .completion
        .time(|| check_completion(model, &demo, &task.intent).verdict);
    let trajectory_ok = layers
        .trajectory
        .time(|| check_trajectory(model, &demo, &sop).verdict);
    let summary = RunSummary::from_events(&model.trace().events()[trace_start..]);
    let pricing = Pricing::gpt4_turbo();
    let report = WorkflowReport {
        sop_text: sop.format(),
        success,
        actions_attempted: result.actions_attempted,
        failures: result.failures,
        recoveries: result.recoveries,
        self_reported_complete: self_complete,
        trajectory_faithful: trajectory_ok,
        log: result.log,
        fm_cost_usd: summary.cost_usd(pricing.prompt_per_m, pricing.completion_per_m),
        summary,
    };
    (report, demo, surface.frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_replica_matches_automate() {
        let all = eclair_corpus::corpus_tasks();
        let config = AgentLoad::new(&all[..1], 5).configs.remove(1);
        let tasks = [&all[0], &all[2], &all[350]];
        let mut agent = Eclair::new(config.clone());
        let mut model = FmModel::new(config.profile.clone(), config.seed);
        let mut layers = Layers::default();
        for task in tasks {
            let plain = agent.automate(task);
            let (traced, _, frames) = traced_automate(&mut model, &config, task, &mut layers);
            assert_eq!(
                serde_json::to_string(&plain).unwrap(),
                serde_json::to_string(&traced).unwrap(),
                "report of {}",
                task.id
            );
            assert!(!frames.is_empty());
        }
        assert_eq!(agent.model().trace().to_jsonl(), model.trace().to_jsonl());
        for busy in [layers.record, layers.sop, layers.execute, layers.completion] {
            assert_eq!(busy.calls, 3);
        }
    }

    #[test]
    fn traced_pass_matches_the_agent_pass() {
        let load = AgentLoad::new(&eclair_corpus::corpus_tasks()[..2], 6);
        let n = 2 * CORPUS_COPIES;
        let mut samples = Vec::new();
        let plain = load.pass(&mut samples);
        assert_eq!(samples.len(), n);
        assert_eq!(load.pass(&mut Vec::new()).digest, plain.digest);
        let traced = load.traced_pass();
        assert_eq!(plain.digest, traced.digest);
        assert_eq!(plain.tokens, traced.tokens);
        assert_eq!(traced.layers.keyframes.calls, n as u64);
    }
}
