//! Iteration-granularity trace probing.
//!
//! The engines know nothing about tracing; instead, each
//! [`crate::Replica`] snapshots its [`EngineCore`] counters around each
//! `engine.step()` call and derives the per-iteration trace events from
//! the deltas: draft/accepted token counts, modelled prefill time, and
//! request lifecycle transitions (first entry into a running batch,
//! preemption, resumption) read off the running/waiting queues. Every
//! quantity is simulated, so two same-seed traced runs record identical
//! traces. All of it is gated on [`Tracer::enabled`], so a disabled
//! tracer costs one branch per iteration and zero allocations.

use crate::core::EngineCore;
use crate::engine::Pool;
use crate::session::ReplicaAddr;
use metrics::telemetry::{EventKind, GaugeSample, TraceReplica, Tracer};
use metrics::HotLoopStats;
use std::collections::HashSet;

/// Converts a serving replica address into telemetry's own replica id
/// (the telemetry crate sits below `serving` and cannot see
/// [`ReplicaAddr`]).
pub fn trace_replica(addr: ReplicaAddr) -> TraceReplica {
    match addr.pool {
        Pool::Prefill => TraceReplica::prefill(addr.index),
        Pool::Decode => TraceReplica::decode(addr.index),
    }
}

/// A gauge sample over a deployment's engine cores: queue depth and
/// in-flight sum across them, KV occupancy reports the fullest core, and
/// the cache hit rate pools their lookup/hit counters.
pub fn fleet_gauges<'c>(cores: impl Iterator<Item = &'c EngineCore>) -> GaugeSample {
    let mut sample = GaugeSample::default();
    let mut hot = HotLoopStats::default();
    for core in cores {
        sample.queue_depth += core.waiting.len();
        sample.in_flight += core.running.len();
        sample.kv_occupancy_pct = sample
            .kv_occupancy_pct
            .max(100.0 * core.blocks.utilization());
        hot.merge(&core.hotloop);
    }
    sample.cache_hit_rate_pct = hot.prefix_hit_rate_pct();
    sample
}

/// Per-replica lifecycle memory the probe needs across iterations: which
/// requests have ever run (to tell a first prefill from a resumption)
/// and which are currently evicted. Only populated while tracing.
#[derive(Debug, Default)]
pub(crate) struct ProbeState {
    started: HashSet<u64>,
    preempted: HashSet<u64>,
}

/// Counter snapshot taken immediately before one `engine.step()`.
#[derive(Debug)]
pub(crate) struct StepProbe {
    speculated: u64,
    accepted: u64,
    prefill_ms: f64,
    running_before: Vec<u64>,
    finished_before: usize,
}

impl StepProbe {
    /// Snapshots `core`, or returns `None` when `tracer` is disabled —
    /// the single branch the hot loop pays with tracing off.
    pub(crate) fn begin(tracer: &Tracer, core: &EngineCore) -> Option<Self> {
        if !tracer.enabled() {
            return None;
        }
        Some(Self {
            speculated: core.speculated_total,
            accepted: core.accepted_total,
            prefill_ms: core.breakdown.prefill_ms,
            running_before: core.running.iter().map(|r| r.spec.id).collect(),
            finished_before: core.finished_count(),
        })
    }

    /// Emits the iteration's trace events after the step: lifecycle
    /// transitions first (prefill start / resume / preempt), then the
    /// [`EventKind::Iteration`] span itself. `at_ms` is the replica clock
    /// *after* the step (the same upper-bound stamp the lifecycle tracker
    /// uses); the iteration span starts at `at_ms - latency_ms`.
    pub(crate) fn finish(
        self,
        tracer: &Tracer,
        core: &EngineCore,
        replica: TraceReplica,
        at_ms: f64,
        latency_ms: f64,
        state: &mut ProbeState,
    ) {
        for r in &core.running {
            let id = r.spec.id;
            if state.preempted.remove(&id) {
                tracer.record(at_ms, EventKind::Resumed { id, replica });
            } else if state.started.insert(id) {
                tracer.record(at_ms, EventKind::PrefillStart { id, replica });
            }
        }
        for &id in &self.running_before {
            let still_running = core.running.iter().any(|r| r.spec.id == id);
            if !still_running && core.waiting.iter().any(|r| r.spec.id == id) {
                state.preempted.insert(id);
                tracer.record(at_ms, EventKind::Preempted { id, replica });
            }
        }
        let finished = core.finished_records();
        for record in &finished[self.finished_before.min(finished.len())..] {
            state.started.remove(&record.id);
            state.preempted.remove(&record.id);
        }
        tracer.record(
            at_ms,
            EventKind::Iteration {
                replica,
                batch: core.running.len(),
                draft_tokens: core.speculated_total.saturating_sub(self.speculated),
                accepted_tokens: core.accepted_total.saturating_sub(self.accepted),
                prefill_ms: core.breakdown.prefill_ms - self.prefill_ms,
                latency_ms,
            },
        );
    }
}
