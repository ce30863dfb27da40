//! The colocated deployment: one engine serving the full request
//! lifecycle, behind the unified [`Deployment`] front door.

use crate::core::EngineCore;
use crate::engine::{RunError, RunOptions, ServingEngine, StepResult};
use crate::fault::FaultKind;
use crate::replica::ReplicaPool;
use crate::session::{Deployment, DeploymentStep, ReplicaAddr, UnitStats};
use metrics::telemetry::{GaugeSample, Tracer};
use workload::RequestSpec;

/// A single [`ServingEngine`] (AdaServe or any baseline) wrapped as a
/// [`Deployment`]: the simplest shape a [`crate::ServeSession`] drives, a
/// one-replica [`ReplicaPool`] named after its engine.
#[derive(Debug)]
pub struct Colocated<'a> {
    pool: ReplicaPool<dyn ServingEngine + 'a>,
}

/// An engine the caller keeps, lent to a deployment for a run.
struct Borrowed<'a>(&'a mut dyn ServingEngine);

impl ServingEngine for Borrowed<'_> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn core(&self) -> &EngineCore {
        self.0.core()
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        self.0.core_mut()
    }

    fn step(&mut self, now_ms: f64) -> StepResult {
        self.0.step(now_ms)
    }
}

impl<'a> Colocated<'a> {
    /// Wraps an owned engine.
    pub fn new(engine: Box<dyn ServingEngine>) -> Self {
        Self {
            pool: ReplicaPool::new(vec![engine]),
        }
    }

    /// Wraps a borrowed engine, so callers that still own it can inspect
    /// it after the run.
    pub fn borrowed(engine: &'a mut dyn ServingEngine) -> Self {
        let engine: Box<dyn ServingEngine + 'a> = Box::new(Borrowed(engine));
        Self {
            pool: ReplicaPool::new(vec![engine]),
        }
    }

    /// Whether a drain has been recorded against the lone replica.
    ///
    /// With a single replica there is nowhere else to route, so —
    /// matching the fleet-wide degrade-don't-drop rule — a drained
    /// colocated deployment keeps serving; the flag is observable state
    /// for callers modelling a drain window.
    pub fn accepting(&self) -> bool {
        self.pool.replicas()[0].accepting
    }

    /// Read-only access to the wrapped engine.
    pub fn engine(&self) -> &dyn ServingEngine {
        &*self.pool.replicas()[0].engine
    }
}

impl Deployment for Colocated<'_> {
    fn name(&self) -> String {
        self.engine().name()
    }

    fn max_baseline_ms(&self) -> f64 {
        self.pool.max_baseline_ms()
    }

    fn kv_capacity_tokens(&self) -> u64 {
        self.pool.kv_capacity_tokens()
    }

    fn cached_prefix_tokens(&self, spec: &RequestSpec) -> u32 {
        self.pool.cached_prefix_tokens(spec)
    }

    fn submit(&mut self, spec: RequestSpec, now_ms: f64) {
        self.pool.replica_mut(0).submit(spec, now_ms);
    }

    fn next_event_ms(&self) -> Option<f64> {
        self.pool.next_event_ms()
    }

    fn step(&mut self, options: &RunOptions) -> Result<DeploymentStep, RunError> {
        self.pool.step(options)
    }

    fn inject_fault(&mut self, fault: &FaultKind, now_ms: f64) -> Vec<RequestSpec> {
        self.pool.inject_fault(fault, now_ms)
    }

    fn clear_fault(&mut self, fault: &FaultKind, now_ms: f64) {
        self.pool.clear_fault(fault, now_ms);
    }

    fn set_degraded(&mut self, degraded: bool) {
        self.pool.set_degraded(degraded);
    }

    fn set_accepting(&mut self, replica: ReplicaAddr, accepting: bool, now_ms: f64) {
        self.pool.set_accepting(replica, accepting, now_ms);
    }

    fn iterations(&self) -> u64 {
        self.pool.iterations()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.pool.set_tracer(&tracer);
    }

    fn gauges(&self) -> GaugeSample {
        self.pool.gauges()
    }

    fn clock_ms(&self) -> f64 {
        self.pool.clock_ms()
    }

    fn drain(&mut self) -> Result<Vec<UnitStats>, RunError> {
        self.pool.drain()
    }
}
