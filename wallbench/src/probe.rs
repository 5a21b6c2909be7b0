//! Timing from outside the program: a `GuiSurface` wrapper that times
//! every screenshot and dispatch, and the per-layer busy-time ledger the
//! traced run fills by timing calls into each layer's public functions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use eclair_gui::event::Dispatch;
use eclair_gui::{FaultNote, GuiSurface, Page, Screenshot, UserEvent};

/// Calls made into one function and the wall time they took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    pub calls: u64,
    pub time: Duration,
}

impl Busy {
    /// Run `f`, adding one call and its wall time.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.calls += 1;
        self.time += start.elapsed();
        out
    }

    pub fn ms(&self) -> f64 {
        self.time.as_secs_f64() * 1e3
    }

    fn merge(&mut self, other: Busy) {
        self.calls += other.calls;
        self.time += other.time;
    }
}

/// A transparent surface wrapper: forwards every call to `inner`, timing
/// screenshots and dispatches and keeping the frames it handed out (the
/// traced run replays them through perception afterwards).
pub struct Timed<S> {
    pub inner: S,
    pub screenshot: Busy,
    pub dispatch: Busy,
    pub frames: Vec<Arc<Screenshot>>,
}

impl<S> Timed<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            screenshot: Busy::default(),
            dispatch: Busy::default(),
            frames: Vec::new(),
        }
    }

    fn gui_time(&self) -> Duration {
        self.screenshot.time + self.dispatch.time
    }
}

impl<S: GuiSurface> GuiSurface for Timed<S> {
    fn begin_step(&mut self, step: u64) {
        self.inner.begin_step(step)
    }

    fn screenshot(&mut self) -> Arc<Screenshot> {
        let shot = self.screenshot.time(|| self.inner.screenshot());
        self.frames.push(Arc::clone(&shot));
        shot
    }

    fn set_cache_enabled(&mut self, on: bool) {
        self.inner.set_cache_enabled(on)
    }

    fn dispatch(&mut self, event: UserEvent) -> Dispatch {
        self.dispatch.time(|| self.inner.dispatch(event))
    }

    fn page(&self) -> &Page {
        self.inner.page()
    }

    fn scroll_y(&self) -> i32 {
        self.inner.scroll_y()
    }

    fn url(&self) -> String {
        self.inner.url()
    }

    fn drain_fault_notes(&mut self) -> Vec<FaultNote> {
        self.inner.drain_fault_notes()
    }
}

/// Busy time per layer over one traced pass. The top-level entries
/// (`launch`, `record`, `sop`, `execute`, `completion`, `trajectory`,
/// `compile`, `hybrid`) never nest in one another, so their sum is the
/// attributed share of the pass; `screenshot` and `dispatch` nest inside
/// `execute` and `hybrid`, and `perceive` and `keyframes` are replays
/// timed outside the pass.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub launch: Busy,
    pub screenshot: Busy,
    pub dispatch: Busy,
    pub perceive: Busy,
    pub keyframes: Busy,
    pub record: Busy,
    pub sop: Busy,
    pub execute: Busy,
    /// Surface time spent inside `execute` calls.
    pub execute_gui: Duration,
    pub completion: Busy,
    pub trajectory: Busy,
    pub compile: Busy,
    pub hybrid: Busy,
    /// Steps of the scripts compiled for hybrid attempts.
    pub hybrid_steps: u64,
    pub hybrid_fallbacks: u64,
    /// Hybrid attempts whose bot failed and that a pure FM run rescued.
    pub rescues: u64,
    /// Hybrid attempts that compiled and ran a bot.
    pub hybrid_attempts: u64,
    /// Wall time of the traced pass, summed over its workflows.
    pub total: Duration,
}

impl Layers {
    /// Fold a finished surface's timings in; `in_execute` says whether it
    /// ran under `execute` (else under `hybrid`).
    pub fn absorb<S>(&mut self, surface: &Timed<S>, in_execute: bool) {
        self.screenshot.merge(surface.screenshot);
        self.dispatch.merge(surface.dispatch);
        if in_execute {
            self.execute_gui += surface.gui_time();
        }
    }

    /// `execute` time not spent in the surface.
    pub fn execute_self_ms(&self) -> f64 {
        self.execute.ms() - self.execute_gui.as_secs_f64() * 1e3
    }

    /// Share of the pass's wall time that no top-level layer covers.
    pub fn unattributed_share(&self) -> f64 {
        let named: Duration = [
            self.launch,
            self.record,
            self.sop,
            self.execute,
            self.completion,
            self.trajectory,
            self.compile,
            self.hybrid,
        ]
        .iter()
        .map(|b| b.time)
        .sum();
        let total = self.total.as_secs_f64();
        crate::stats::ratio(total - named.as_secs_f64(), total)
    }
}

/// Replay frames a traced run captured through `FmModel::perceive` on a
/// fresh GPT-4V model with its caches off, timing each call: the cost of
/// perception itself, which the run pays inside `execute` and `hybrid`
/// whenever no cache answers.
pub fn replay_perception(frames: &[Arc<Screenshot>], busy: &mut Busy) {
    let mut model = eclair_fm::FmProfile::Gpt4V.instantiate(0);
    model.set_cache_enabled(false);
    for frame in frames {
        std::hint::black_box(busy.time(|| model.perceive(frame)));
    }
}
