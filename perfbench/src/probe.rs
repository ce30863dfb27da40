//! Wall-clock probes and the wrappers that feed them.
//!
//! Every layer is timed from outside the library, at a public boundary:
//!
//! * [`TimedDeployment`] wraps a [`Deployment`] and times every trait
//!   call, forwarding each one unchanged;
//! * [`TimedEngine`] wraps a [`ServingEngine`] and times `step`;
//! * [`TimedRouter`] wraps a [`Router`] and times `route`;
//! * [`TimedLm`] wraps an [`Lm`] and times every distribution query.
//!
//! All of them add into one shared [`Probe`]. Engines must be `Send`, so
//! the accumulators are relaxed atomics: each is a statistic that
//! publishes no other data.

use cluster::{Replica, Router};
use metrics::telemetry::{GaugeSample, Tracer};
use serving::{
    Deployment, DeploymentStep, EngineCore, FaultKind, ReplicaAddr, RunError, RunOptions,
    ServingEngine, StepResult, UnitStats,
};
use simllm::{Lm, LmContext, SparseDist, TokenId};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workload::RequestSpec;

/// Busy time and call count of one boundary.
#[derive(Debug, Default)]
pub struct Span {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Span {
    /// Charges the time since `start` as one call; returns the
    /// nanoseconds charged.
    pub fn stop(&self, start: Instant) -> u64 {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.add(ns);
        ns
    }

    /// Charges one call of `ns` nanoseconds.
    pub fn add(&self, ns: u64) {
        self.ns.fetch_add(ns, Relaxed);
        self.calls.fetch_add(1, Relaxed);
    }

    /// Runs `f` as one timed call.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.stop(start);
        out
    }

    /// Busy time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns.load(Relaxed) as f64 / 1e6
    }

    /// Calls charged.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }
}

/// A plain event counter.
#[derive(Debug, Default)]
pub struct Count(AtomicU64);

impl Count {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// The total so far.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Everything one traced run measures, shared by all wrappers of the run.
#[derive(Debug, Default)]
pub struct Probe {
    /// Calls the session made on the outermost deployment.
    pub outer: Span,
    /// Calls on the deployment below the fair front door (the same calls
    /// as `outer` when there is no door).
    pub inner: Span,
    /// `next_event_ms` calls on the inner deployment.
    pub next_event: Span,
    /// `step`/`step_until` calls on the inner deployment.
    pub steps: Span,
    /// `drain` calls (finalizing the run's records).
    pub drain: Span,
    /// Engine iterations (`ServingEngine::step`).
    pub engine: Span,
    /// Per-iteration engine wall time, in nanoseconds.
    pub step_ns: Mutex<Vec<u64>>,
    /// Routing decisions (`Router::route`).
    pub router: Span,
    /// Beam-search speculation (`CandidateTree::speculate_with`).
    pub draft: Span,
    /// Draft-model queries inside speculation.
    pub draft_lm: Span,
    /// SLO-customized selection: requirements, selection, subtrees.
    pub scsd: Span,
    /// Induced-subtree extraction inside selection.
    pub subtree: Span,
    /// Tree verification (`verify_tree_with`) and token commits.
    pub verify: Span,
    /// Target-model queries inside verification.
    pub verify_lm: Span,
    /// Admission, KV capacity, prefill planning and completion sweeps.
    pub kv: Span,
    /// Modelled latency (`LatencyModel::forward_latency_ms`).
    pub roofline: Span,
    /// Draft tokens decoded while building candidate trees.
    pub draft_tokens: Count,
    /// Decode iterations and the requests they decoded.
    pub decode_iterations: Count,
    /// Sum of decode batch sizes over decode iterations.
    pub decode_batch_sum: Count,
    /// Speculated tokens submitted for verification.
    pub speculated: Count,
    /// Speculated tokens accepted.
    pub accepted: Count,
    /// Per-request verifications.
    pub verifies: Count,
    /// Output tokens committed by decode iterations.
    pub emitted: Count,
}

impl Probe {
    /// A fresh, shared probe.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }
}

/// Which spans a [`TimedDeployment`] charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// The session's own deployment with no front door below it: charges
    /// both the outer and the inner spans.
    Only,
    /// Above a front door: charges the outer span.
    Outer,
    /// Below a front door: charges the inner span.
    Inner,
}

/// A [`Deployment`] that times every call and forwards it unchanged.
#[derive(Debug)]
pub struct TimedDeployment<D> {
    inner: D,
    probe: Arc<Probe>,
    boundary: Boundary,
}

impl<D: Deployment> TimedDeployment<D> {
    /// Wraps `inner` at `boundary`.
    pub fn new(inner: D, probe: &Arc<Probe>, boundary: Boundary) -> Self {
        Self {
            inner,
            probe: Arc::clone(probe),
            boundary,
        }
    }

    /// Recovers the wrapped deployment.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Charges the call that began at `start` to this boundary's spans
    /// and, when given, to `extra` as well.
    fn charge(&self, start: Instant, extra: Option<&Span>) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let p = &self.probe;
        if self.boundary != Boundary::Inner {
            p.outer.add(ns);
        }
        if self.boundary != Boundary::Outer {
            p.inner.add(ns);
        }
        if let Some(span) = extra {
            span.add(ns);
        }
    }

    /// `span` when this wrapper sits below the front door, else nothing:
    /// per-kind spans describe the deployment itself, not the door.
    fn below_door<'a>(&self, span: &'a Span) -> Option<&'a Span> {
        (self.boundary != Boundary::Outer).then_some(span)
    }

    fn timed<T>(&self, f: impl FnOnce(&D) -> T) -> T {
        let start = Instant::now();
        let out = f(&self.inner);
        self.charge(start, None);
        out
    }

    fn timed_mut<T>(&mut self, f: impl FnOnce(&mut D) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.charge(start, None);
        out
    }

    fn stepping(
        &mut self,
        f: impl FnOnce(&mut D) -> Result<DeploymentStep, RunError>,
    ) -> Result<DeploymentStep, RunError> {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.charge(start, self.below_door(&self.probe.steps));
        out
    }
}

impl<D: Deployment> Deployment for TimedDeployment<D> {
    fn name(&self) -> String {
        self.timed(D::name)
    }

    fn max_baseline_ms(&self) -> f64 {
        self.timed(D::max_baseline_ms)
    }

    fn kv_capacity_tokens(&self) -> u64 {
        self.timed(D::kv_capacity_tokens)
    }

    fn cached_prefix_tokens(&self, spec: &RequestSpec) -> u32 {
        self.timed(|d| d.cached_prefix_tokens(spec))
    }

    fn submit(&mut self, spec: RequestSpec, now_ms: f64) {
        self.timed_mut(|d| d.submit(spec, now_ms));
    }

    fn next_event_ms(&self) -> Option<f64> {
        let start = Instant::now();
        let out = self.inner.next_event_ms();
        self.charge(start, self.below_door(&self.probe.next_event));
        out
    }

    fn step(&mut self, options: &RunOptions) -> Result<DeploymentStep, RunError> {
        self.stepping(|d| d.step(options))
    }

    fn step_until(
        &mut self,
        horizon_ms: f64,
        options: &RunOptions,
    ) -> Result<DeploymentStep, RunError> {
        self.stepping(|d| d.step_until(horizon_ms, options))
    }

    fn set_accepting(&mut self, replica: ReplicaAddr, accepting: bool, now_ms: f64) {
        self.timed_mut(|d| d.set_accepting(replica, accepting, now_ms));
    }

    fn iterations(&self) -> u64 {
        self.timed(D::iterations)
    }

    fn clock_ms(&self) -> f64 {
        self.timed(D::clock_ms)
    }

    fn drain(&mut self) -> Result<Vec<UnitStats>, RunError> {
        let start = Instant::now();
        let out = self.inner.drain();
        // The session drains once, through the outermost wrapper.
        let drain = (self.boundary != Boundary::Inner).then_some(&self.probe.drain);
        self.charge(start, drain);
        out
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.timed_mut(|d| d.set_tracer(tracer));
    }

    fn gauges(&self) -> GaugeSample {
        self.timed(D::gauges)
    }

    fn inject_fault(&mut self, fault: &FaultKind, now_ms: f64) -> Vec<RequestSpec> {
        self.timed_mut(|d| d.inject_fault(fault, now_ms))
    }

    fn clear_fault(&mut self, fault: &FaultKind, now_ms: f64) {
        self.timed_mut(|d| d.clear_fault(fault, now_ms));
    }

    fn set_degraded(&mut self, degraded: bool) {
        self.timed_mut(|d| d.set_degraded(degraded));
    }
}

/// A [`ServingEngine`] that times every iteration.
pub struct TimedEngine {
    inner: Box<dyn ServingEngine>,
    probe: Arc<Probe>,
}

impl TimedEngine {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn ServingEngine>, probe: &Arc<Probe>) -> Self {
        Self {
            inner,
            probe: Arc::clone(probe),
        }
    }
}

impl std::fmt::Debug for TimedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TimedEngine({})", self.inner.name())
    }
}

impl ServingEngine for TimedEngine {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn core(&self) -> &EngineCore {
        self.inner.core()
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        self.inner.core_mut()
    }

    fn step(&mut self, now_ms: f64) -> StepResult {
        let start = Instant::now();
        let out = self.inner.step(now_ms);
        let ns = self.probe.engine.stop(start);
        self.probe
            .step_ns
            .lock()
            .expect("step log lock poisoned")
            .push(ns);
        out
    }
}

/// A [`Router`] that times every routing decision.
pub struct TimedRouter {
    inner: Box<dyn Router>,
    probe: Arc<Probe>,
}

impl TimedRouter {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Router>, probe: &Arc<Probe>) -> Self {
        Self {
            inner,
            probe: Arc::clone(probe),
        }
    }
}

impl Router for TimedRouter {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn route(
        &mut self,
        spec: &RequestSpec,
        now_ms: f64,
        replicas: &[Replica],
        eligible: &[usize],
    ) -> usize {
        let start = Instant::now();
        let out = self.inner.route(spec, now_ms, replicas, eligible);
        self.probe.router.stop(start);
        out
    }
}

/// An [`Lm`] that times every query and forwards it to the wrapped
/// model's own implementation (so memoized and fused paths stay in use).
pub struct TimedLm<'a> {
    inner: &'a dyn Lm,
    span: &'a Span,
}

impl<'a> TimedLm<'a> {
    /// Wraps `inner`, charging `span`.
    pub fn new(inner: &'a dyn Lm, span: &'a Span) -> Self {
        Self { inner, span }
    }
}

impl Lm for TimedLm<'_> {
    fn vocab_size(&self) -> u32 {
        self.inner.vocab_size()
    }

    fn next_dist(&self, ctx: &LmContext<'_>) -> SparseDist {
        self.span.time(|| self.inner.next_dist(ctx))
    }

    fn next_dist_arc(&self, ctx: &LmContext<'_>) -> Arc<SparseDist> {
        self.span.time(|| self.inner.next_dist_arc(ctx))
    }

    fn next_dist_extended(
        &self,
        ctx: &LmContext<'_>,
        extra: &[TokenId],
        scratch: &mut Vec<TokenId>,
    ) -> SparseDist {
        self.span
            .time(|| self.inner.next_dist_extended(ctx, extra, scratch))
    }

    fn next_dist_extended_arc(
        &self,
        ctx: &LmContext<'_>,
        extra: &[TokenId],
        scratch: &mut Vec<TokenId>,
    ) -> Arc<SparseDist> {
        self.span
            .time(|| self.inner.next_dist_extended_arc(ctx, extra, scratch))
    }

    fn top_w_extended(
        &self,
        ctx: &LmContext<'_>,
        extra: &[TokenId],
        w: usize,
        scratch: &mut Vec<TokenId>,
        out: &mut Vec<(TokenId, f64)>,
    ) {
        self.span
            .time(|| self.inner.top_w_extended(ctx, extra, w, scratch, out));
    }
}
