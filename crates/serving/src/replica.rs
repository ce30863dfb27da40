//! The stepped replica every deployment shape is built from, and the pool
//! that schedules a set of them.
//!
//! AdaServe schedules at iteration granularity (paper §2), so a single
//! colocated engine, a routed fleet and the decode side of a
//! disaggregated cluster are different schedules of the same replica
//! iterations. A [`Replica`] is one engine on its own local clock, with
//! its stall guard, lifecycle tracker, trace probe and fault state; a
//! [`ReplicaPool`] owns a set of them and holds the one implementation of
//! earliest-replica selection, horizon batch stepping, drain/join, crash
//! and slow-replica faults, degraded mode, gauges and the final drain.

use crate::engine::{Pool, RunError, RunOptions, RunResult, ServingEngine, StallGuard};
use crate::exec::{ExecMode, ShardedExecutor};
use crate::fault::FaultKind;
use crate::probe::{fleet_gauges, trace_replica, ProbeState, StepProbe};
use crate::request::LiveRequest;
use crate::session::{DeploymentEvent, DeploymentStep, LifecycleTracker, ReplicaAddr, UnitStats};
use metrics::telemetry::{GaugeSample, Tracer};
use std::collections::VecDeque;
use std::sync::Mutex;
use workload::RequestSpec;

/// Fraction of a baseline decode step attributed to one *prefill* token in
/// the load model (prefill processes hundreds of tokens per forward pass,
/// so a queued prompt token is far cheaper than a queued output token).
const PREFILL_TOKEN_COST: f64 = 1.0 / 256.0;

/// Effective decode batch width used to amortize queued output tokens in
/// the drain-time estimate: a replica emits one token per running request
/// per iteration, up to roughly this much useful parallelism.
const EFFECTIVE_DECODE_WIDTH: f64 = 8.0;

/// Work committed to a replica but not yet in its engine's queues — KV
/// migrations in flight (or parked on a full pool) in a disaggregated
/// deployment. Folded into the load views routers consume so consecutive
/// routing decisions see each other; colocated shapes leave it zeroed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InboundWork {
    /// Requests bound here that the engine cannot see yet.
    pub requests: usize,
    /// Output tokens those requests will decode on arrival.
    pub decode_tokens: u64,
    /// The TPOT SLOs those requests carry, so
    /// [`Replica::tight_outstanding`] — and through it the SLO-aware
    /// packing policy — sees a tight burst before it lands.
    pub tpot_slos: Vec<f64>,
}

impl InboundWork {
    /// Takes one request off the view — it landed, or was lost on the way
    /// — given the output tokens it had left and its TPOT SLO.
    pub fn remove(&mut self, decode_tokens: u32, tpot_slo_ms: f64) {
        self.requests = self.requests.saturating_sub(1);
        self.decode_tokens = self.decode_tokens.saturating_sub(decode_tokens.into());
        if let Some(k) = self.tpot_slos.iter().position(|&s| s == tpot_slo_ms) {
            self.tpot_slos.swap_remove(k);
        }
    }
}

/// Routing eligibility from per-replica accepting flags: the indices whose
/// flag is set, or every index when none are — a fully draining pool
/// degrades to routing anywhere rather than dropping requests.
pub fn accepting_or_all(flags: impl Iterator<Item = bool>) -> Vec<usize> {
    let flags: Vec<bool> = flags.collect();
    let accepting: Vec<usize> = flags
        .iter()
        .enumerate()
        .filter(|(_, &a)| a)
        .map(|(i, _)| i)
        .collect();
    if accepting.is_empty() {
        (0..flags.len()).collect()
    } else {
        accepting
    }
}

/// One serving engine advancing on its own local clock under a
/// [`ReplicaPool`]'s ordering.
///
/// Routers observe replicas read-only through the load/queue accessors
/// here; only the pool steps them. `E` is the engine's type behind its
/// box: any [`ServingEngine`] by default, or one borrowed for the length
/// of a run (see [`crate::Colocated::borrowed`]).
pub struct Replica<E: ServingEngine + ?Sized = dyn ServingEngine> {
    /// Stable replica index within its pool.
    pub id: usize,
    /// The engine this replica runs (any [`ServingEngine`] — AdaServe or a
    /// baseline — possibly on a different GPU profile than its peers).
    pub engine: Box<E>,
    /// Local clock: the simulation time at which the replica's last
    /// iteration ended (equivalently, when its next iteration may start).
    pub clock_ms: f64,
    /// Whether the router may place new requests here. Toggled by
    /// drain/join scaling; a draining replica still serves its queued
    /// work to completion.
    pub accepting: bool,
    /// Whether the replica is crashed (fault injection). A down replica
    /// holds no requests — the crash evicted them — and is excluded from
    /// stepping and routing until the session clears the fault.
    pub down: bool,
    /// Iteration-latency multiplier for an injected transient slowdown
    /// (1.0 when healthy — an exact IEEE identity, so fault-free runs
    /// stay bit-identical).
    pub latency_factor: f64,
    /// Requests routed (or migrations landed) here so far.
    pub routed: u64,
    /// Routed-but-not-yet-queued work (in-flight KV migrations).
    pub inbound: InboundWork,
    /// Migrations whose KV reservation failed, parked until blocks free
    /// up (empty outside a disaggregated decode pool).
    landing: VecDeque<LiveRequest>,
    guard: StallGuard,
    /// Lifecycle announcements of the requests on this replica. A request
    /// lives on exactly one replica (a migration hands its state over via
    /// [`Replica::mark_admitted`]), so replicas scan — and step —
    /// independently of each other.
    tracker: LifecycleTracker,
    /// High-water mark of announced finished records on this core.
    finished_seen: usize,
    /// Trace sink (shared deployment-wide); off by default.
    tracer: Tracer,
    /// Lifecycle memory for the iteration probe (populated only while
    /// tracing).
    probe_state: ProbeState,
}

impl<E: ServingEngine + ?Sized> std::fmt::Debug for Replica<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("engine", &self.engine.name())
            .field("clock_ms", &self.clock_ms)
            .field("accepting", &self.accepting)
            .field("routed", &self.routed)
            .finish()
    }
}

impl<E: ServingEngine + ?Sized> Replica<E> {
    /// Wraps `engine` as replica `id`, accepting traffic from time zero.
    pub fn new(id: usize, engine: Box<E>) -> Self {
        Self {
            id,
            engine,
            clock_ms: 0.0,
            accepting: true,
            down: false,
            latency_factor: 1.0,
            routed: 0,
            inbound: InboundWork::default(),
            landing: VecDeque::new(),
            guard: StallGuard::default(),
            tracker: LifecycleTracker::default(),
            finished_seen: 0,
            tracer: Tracer::off(),
            probe_state: ProbeState::default(),
        }
    }

    /// Queues `spec` on this replica's engine at `now_ms`.
    pub fn submit(&mut self, spec: RequestSpec, now_ms: f64) {
        self.engine.core_mut().on_arrival(spec);
        self.clock_ms = self.clock_ms.max(now_ms);
        self.routed += 1;
    }

    /// Lands a migrated (fully prefilled) request: it joins the engine's
    /// running batch as soon as its KV reservation fits, parking behind
    /// earlier migrations until then.
    pub fn land(&mut self, req: LiveRequest) {
        self.landing.push_back(req);
        self.land_parked();
    }

    /// Tries to land every parked migration, in arrival order. An admitted
    /// request leaves the inbound view — the engine's own queues carry it
    /// from here.
    fn land_parked(&mut self) {
        while let Some(req) = self.landing.pop_front() {
            let (tokens, slo) = (req.remaining(), req.spec.tpot_slo_ms);
            match self.engine.core_mut().admit_migrated(req) {
                Ok(()) => self.inbound.remove(tokens, slo),
                Err(req) => {
                    self.landing.push_front(req);
                    break;
                }
            }
        }
    }

    /// Records a request as already announced-admitted elsewhere (e.g. on
    /// the prefill pool that migrated it here), so this replica's scans
    /// do not re-announce it.
    pub fn mark_admitted(&mut self, id: u64) {
        self.tracker.mark_admitted(id);
    }

    /// Drops all lifecycle memory of `id` (the request was lost to a
    /// fault before reaching this replica's queues): if the session
    /// re-dispatches it, it announces itself afresh wherever it lands.
    pub fn forget(&mut self, id: u64) {
        self.tracker.forget(id);
    }

    /// One checked engine iteration — the single body both sequential
    /// stepping and batch stepping execute, so the two cannot diverge:
    /// step at the local clock (through the trace probe), feed the stall
    /// guard, advance the clock, enforce the run caps, land parked
    /// migrations freed by finished requests, then scan lifecycle events
    /// at the iteration's end clock.
    ///
    /// With `migrated` set (a disaggregated decode pool), requests that
    /// arrived prefilled are stamped *before* the step, at the
    /// iteration's start clock: the colocated meaning of
    /// `decode_start_ms`, which engines whose own stamping assumes a
    /// local prefill pass cannot provide for them.
    fn step_checked(
        &mut self,
        options: &RunOptions,
        migrated: bool,
        events: &mut Vec<DeploymentEvent>,
    ) -> Result<f64, RunError> {
        let addr = ReplicaAddr::serving(self.id);
        if migrated {
            self.engine.core_mut().stamp_decode_starts(self.clock_ms);
        }
        let probe = StepProbe::begin(&self.tracer, self.engine.core());
        let step = self.engine.step(self.clock_ms);
        // An injected slowdown stretches the modelled iteration latency.
        let latency_ms = step.latency_ms * self.latency_factor;
        self.engine.core_mut().iterations += 1;
        self.guard
            .observe(latency_ms)
            .map_err(|e| e.at(Pool::Decode, self.id))?;
        self.clock_ms += latency_ms.max(1e-6);
        if let Some(probe) = probe {
            probe.finish(
                &self.tracer,
                self.engine.core(),
                trace_replica(addr),
                self.clock_ms,
                latency_ms,
                &mut self.probe_state,
            );
        }
        if self.engine.core().iterations > options.max_iterations {
            return Err(RunError::iteration_cap().at(Pool::Decode, self.id));
        }
        if self.clock_ms > options.max_sim_ms {
            return Err(RunError::time_cap().at(Pool::Decode, self.id));
        }
        self.land_parked();
        let at_ms = self.clock_ms;
        self.tracker.scan_core(
            self.engine.core(),
            addr,
            at_ms,
            &mut self.finished_seen,
            events,
        );
        Ok(latency_ms)
    }

    /// Steps this replica until its clock reaches `horizon_ms` or it runs
    /// out of work — the per-replica body of batch stepping. Replicas do
    /// not interact between the pool's synchronization points, so running
    /// each to the horizon on its own reproduces the sequential
    /// interleaving's per-replica state bit for bit.
    fn run_until(
        &mut self,
        horizon_ms: f64,
        options: &RunOptions,
        migrated: bool,
        events: &mut Vec<DeploymentEvent>,
    ) -> Result<(), RunError> {
        while self.has_work() && self.clock_ms < horizon_ms {
            self.step_checked(options, migrated, events)?;
        }
        Ok(())
    }

    /// Crash semantics for fault injection: every request this replica
    /// holds — queued, running or parked on the landing queue — loses its
    /// KV and is returned to the caller (the front door decides retry vs.
    /// reject), the replica's lifecycle memory of them is dropped (a
    /// retried request re-announces itself), and the replica is marked
    /// down until the session clears the fault.
    fn crash(&mut self, now_ms: f64) -> Vec<RequestSpec> {
        self.down = true;
        self.clock_ms = self.clock_ms.max(now_ms);
        let mut lost = self.engine.core_mut().evict_all_for_crash();
        lost.extend(self.landing.drain(..).map(|req| req.spec));
        for spec in &lost {
            self.tracker.forget(spec.id);
        }
        // Every inbound unit was parked or in flight toward a dead device.
        self.inbound = InboundWork::default();
        lost
    }

    /// Drains the engine's completion records into a [`RunResult`] ending
    /// at the local clock, and rewinds the lifecycle high-water mark to
    /// match the now-empty record buffer, so the replica can serve another
    /// workload.
    fn finalize(&mut self) -> RunResult {
        self.finished_seen = 0;
        let engine = self.engine.name();
        let core = self.engine.core_mut();
        let records = core.take_finished();
        let verifies: u64 = records.iter().map(|r| r.verify_steps).sum();
        let accepted: u64 = records.iter().map(|r| r.accepted_tokens).sum();
        RunResult {
            engine,
            breakdown: core.breakdown,
            hotloop: core.hotloop,
            end_ms: self.clock_ms,
            iterations: core.iterations,
            mean_accepted_per_verify: if verifies == 0 {
                0.0
            } else {
                accepted as f64 / verifies as f64
            },
            records,
        }
    }

    /// Requests waiting for admission on this replica.
    pub fn waiting_len(&self) -> usize {
        self.engine.core().waiting.len()
    }

    /// Requests admitted and in flight on this replica.
    pub fn running_len(&self) -> usize {
        self.engine.core().running.len()
    }

    /// Outstanding requests (waiting + running + inbound).
    pub fn outstanding(&self) -> usize {
        self.waiting_len() + self.running_len() + self.inbound.requests
    }

    /// Whether the replica has queued or in-flight work.
    pub fn has_work(&self) -> bool {
        self.engine.core().has_work()
    }

    /// This replica's near-zero-load decode latency (its speed class).
    pub fn baseline_ms(&self) -> f64 {
        self.engine.core().config.baseline_ms
    }

    /// Queued work in tokens: `(prefill_tokens, decode_tokens)` summed over
    /// waiting, running and inbound requests.
    pub fn queued_tokens(&self) -> (u64, u64) {
        let core = self.engine.core();
        let mut prefill = 0u64;
        let mut decode = self.inbound.decode_tokens;
        for r in core.waiting.iter().chain(core.running.iter()) {
            prefill += u64::from(r.prefill_remaining());
            decode += u64::from(r.remaining());
        }
        (prefill, decode)
    }

    /// Modelled time to drain the current queue, in milliseconds.
    ///
    /// A hardware-normalized load heuristic, not a simulation: queued
    /// output tokens cost one baseline decode step amortized over an
    /// effective batch width, queued prompt tokens a small fraction of
    /// one. Because it scales with the replica's own `baseline_ms`, a
    /// faster GPU profile correctly reports less load for the same queue —
    /// the quantity join-shortest-queue routing compares.
    pub fn modelled_load_ms(&self) -> f64 {
        let (prefill, decode) = self.queued_tokens();
        let width = (self.running_len().max(1) as f64).min(EFFECTIVE_DECODE_WIDTH);
        self.baseline_ms() * (prefill as f64 * PREFILL_TOKEN_COST + decode as f64 / width)
    }

    /// Drain estimate as seen from global time `now_ms`: the modelled queue
    /// drain plus any head start the replica's local clock already has on
    /// the global frontier (a busy replica cannot start new work before its
    /// current iteration ends).
    pub fn drain_estimate_ms(&self, now_ms: f64) -> f64 {
        (self.clock_ms - now_ms).max(0.0) + self.modelled_load_ms()
    }

    /// The longest block-aligned prefix of `spec`'s prompt resident in
    /// this replica's engine-level [`crate::PrefixCache`], in tokens (0
    /// without a cache). `prompt` is the pre-derived prompt stream —
    /// derive it once per arrival, probe every replica.
    pub fn cached_prefix_tokens(&self, spec: &RequestSpec, prompt: &[simllm::TokenId]) -> u32 {
        self.engine
            .core()
            .prefix
            .as_ref()
            .map_or(0, |c| c.peek(prompt, spec.prompt_len.saturating_sub(1)))
    }

    /// Outstanding requests whose TPOT SLO is at most `tight_ms`
    /// (queued, running and inbound).
    pub fn tight_outstanding(&self, tight_ms: f64) -> usize {
        let core = self.engine.core();
        core.waiting
            .iter()
            .chain(core.running.iter())
            .filter(|r| r.spec.tpot_slo_ms <= tight_ms)
            .count()
            + self
                .inbound
                .tpot_slos
                .iter()
                .filter(|&&slo| slo <= tight_ms)
                .count()
    }
}

/// The serving replicas of a deployment, addressed as
/// [`ReplicaAddr::serving`] indices: one replica for a colocated engine, a
/// fleet behind a router, or the decode side of a disaggregated cluster.
///
/// The pool is the one place replicas are stepped. [`ReplicaPool::step`]
/// iterates the earliest-clock replica (ties to the lowest index);
/// [`ReplicaPool::step_until`] advances every due replica to a horizon —
/// on the persistent [`ShardedExecutor`], or inline on the caller — and
/// merges their events in replica-index order, record-identical to
/// stepping them one at a time (see [`crate::exec`]).
pub struct ReplicaPool<E: ServingEngine + ?Sized = dyn ServingEngine> {
    replicas: Vec<Replica<E>>,
    /// Whether replicas receive requests prefilled elsewhere (the decode
    /// side of a disaggregated deployment); see [`ReplicaPool::migrated`].
    migrated: bool,
    /// Deployment-level [`ExecMode`] override; when unset,
    /// [`RunOptions::exec`] (the session's mode) applies.
    exec_override: Option<ExecMode>,
    /// The worker pool behind [`ExecMode::Sharded`], created lazily on the
    /// first multi-worker batch and reused for every batch of every
    /// `serve()` call.
    executor: Option<ShardedExecutor>,
}

impl<E: ServingEngine + ?Sized> std::fmt::Debug for ReplicaPool<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaPool")
            .field("replicas", &self.replicas)
            .field("migrated", &self.migrated)
            .field("exec_override", &self.exec_override)
            .field("executor", &self.executor)
            .finish()
    }
}

/// One replica's share of a batch: exclusive access to the replica plus a
/// private event buffer and result slot, merged in replica-index order
/// once the batch completes.
struct StepTask<'a, E: ServingEngine + ?Sized> {
    replica: &'a mut Replica<E>,
    events: Vec<DeploymentEvent>,
    result: Result<(), RunError>,
}

impl<E: ServingEngine + ?Sized> ReplicaPool<E> {
    /// One replica per engine, indexed in order.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty.
    pub fn new(engines: Vec<Box<E>>) -> Self {
        assert!(!engines.is_empty(), "a replica pool needs a replica");
        Self {
            replicas: engines
                .into_iter()
                .enumerate()
                .map(|(id, engine)| Replica::new(id, engine))
                .collect(),
            migrated: false,
            exec_override: None,
            executor: None,
        }
    }

    /// Marks the replicas as receiving requests prefilled elsewhere: each
    /// iteration stamps their decode start at its start clock (see
    /// [`Replica::land`] for how they arrive).
    #[must_use]
    pub fn migrated(mut self) -> Self {
        self.migrated = true;
        self
    }

    /// Pins how batches execute, overriding the session-level
    /// [`RunOptions::exec`]. Output is record-identical across modes.
    pub fn set_exec_mode(&mut self, exec: ExecMode) {
        self.exec_override = Some(exec);
    }

    /// Worker threads held by the persistent executor (0 until a
    /// multi-worker batch has run).
    pub fn worker_pool_size(&self) -> usize {
        self.executor.as_ref().map_or(0, ShardedExecutor::workers)
    }

    /// The replicas, in index order.
    pub fn replicas(&self) -> &[Replica<E>] {
        &self.replicas
    }

    /// Mutable access to replica `index`.
    pub fn replica_mut(&mut self, index: usize) -> &mut Replica<E> {
        &mut self.replicas[index]
    }

    /// The slowest replica's baseline decode latency.
    pub fn max_baseline_ms(&self) -> f64 {
        self.replicas
            .iter()
            .map(Replica::baseline_ms)
            .fold(0.0, f64::max)
    }

    /// The smallest per-replica KV capacity in tokens.
    pub fn kv_capacity_tokens(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.engine.core().kv_capacity_tokens())
            .min()
            .expect("a pool has a replica")
    }

    /// The longest cached prefix of `spec`'s prompt across every replica.
    pub fn cached_prefix_tokens(&self, spec: &RequestSpec) -> u32 {
        if self
            .replicas
            .iter()
            .all(|r| r.engine.core().prefix.is_none())
        {
            return 0;
        }
        let prompt = spec.prompt_tokens();
        self.replicas
            .iter()
            .map(|r| r.cached_prefix_tokens(spec, &prompt))
            .max()
            .unwrap_or(0)
    }

    /// Indices a router may place new work on: accepting replicas that
    /// are up, or every replica when none is (degrade, don't drop).
    pub fn eligible(&self) -> Vec<usize> {
        accepting_or_all(self.replicas.iter().map(|r| r.accepting && !r.down))
    }

    /// The earliest replica ready to iterate (lowest clock, then index).
    /// Down replicas are frozen: they hold no work and step again only
    /// once the session clears their crash.
    fn next_stepper(&self) -> Option<(f64, usize)> {
        self.replicas
            .iter()
            .filter(|r| r.has_work() && !r.down)
            .min_by(|a, b| a.clock_ms.total_cmp(&b.clock_ms).then(a.id.cmp(&b.id)))
            .map(|r| (r.clock_ms, r.id))
    }

    /// When the earliest replica is due to iterate, or `None` when idle.
    pub fn next_event_ms(&self) -> Option<f64> {
        self.next_stepper().map(|(t, _)| t)
    }

    /// One iteration of the earliest due replica.
    pub fn step(&mut self, options: &RunOptions) -> Result<DeploymentStep, RunError> {
        let Some((_, id)) = self.next_stepper() else {
            return Ok(DeploymentStep::default());
        };
        let mut events = Vec::new();
        let latency_ms = self.replicas[id].step_checked(options, self.migrated, &mut events)?;
        Ok(DeploymentStep {
            events,
            latency_ms: Some(latency_ms),
            replica: Some(ReplicaAddr::serving(id)),
        })
    }

    /// Batch-steps every replica due before `horizon_ms` to the horizon.
    /// Returns `None` without stepping when batching does not apply — in
    /// [`ExecMode::Sequential`], or with at most one replica due — so the
    /// caller steps one event instead.
    ///
    /// Each due replica runs on its own task — distributed over the
    /// persistent [`ShardedExecutor`], or inline on the caller when one
    /// worker suffices — and events merge in replica-index order:
    /// deterministic regardless of thread scheduling. Progress is guarded
    /// per replica (stall detection and caps), so the batch itself
    /// reports no latency.
    pub fn step_batch(
        &mut self,
        horizon_ms: f64,
        options: &RunOptions,
    ) -> Result<Option<DeploymentStep>, RunError> {
        let mode = self.exec_override.unwrap_or(options.exec);
        let due = |r: &Replica<E>| r.has_work() && !r.down && r.clock_ms < horizon_ms;
        if mode == ExecMode::Sequential || self.replicas.iter().filter(|r| due(r)).count() <= 1 {
            return Ok(None);
        }
        let migrated = self.migrated;
        let tasks: Vec<Mutex<StepTask<'_, E>>> = self
            .replicas
            .iter_mut()
            .filter(|r| due(r))
            .map(|replica| {
                Mutex::new(StepTask {
                    replica,
                    events: Vec::new(),
                    result: Ok(()),
                })
            })
            .collect();
        let run_one = |i: usize| {
            // Uncontended: shard claiming hands each index to exactly one
            // worker; the mutex only makes that exclusivity checkable.
            let mut task = tasks[i].lock().expect("step task");
            let task = &mut *task;
            task.result = task
                .replica
                .run_until(horizon_ms, options, migrated, &mut task.events);
        };
        let workers = mode.effective_workers();
        if workers <= 1 {
            (0..tasks.len()).for_each(run_one);
        } else {
            if self
                .executor
                .as_ref()
                .is_some_and(|p| p.workers() != workers)
            {
                self.executor = None;
            }
            self.executor
                .get_or_insert_with(|| ShardedExecutor::new(workers))
                .run(tasks.len(), run_one);
        }
        let mut events = Vec::new();
        for task in tasks {
            let task = task.into_inner().expect("step task");
            task.result?;
            events.extend(task.events);
        }
        Ok(Some(DeploymentStep {
            events,
            latency_ms: None,
            replica: None,
        }))
    }

    /// Advances the pool up to `horizon_ms`: a batch when
    /// [`ReplicaPool::step_batch`] applies, else one
    /// [`ReplicaPool::step`].
    pub fn step_until(
        &mut self,
        horizon_ms: f64,
        options: &RunOptions,
    ) -> Result<DeploymentStep, RunError> {
        match self.step_batch(horizon_ms, options)? {
            Some(step) => Ok(step),
            None => self.step(options),
        }
    }

    /// Toggles whether `replica` accepts new work (drain/join); its clock
    /// catches up to `now_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is not a serving replica of this pool.
    pub fn set_accepting(&mut self, replica: ReplicaAddr, accepting: bool, now_ms: f64) {
        assert_eq!(replica.pool, Pool::Decode, "a pool holds serving replicas");
        let r = &mut self.replicas[replica.index];
        r.accepting = accepting;
        r.clock_ms = r.clock_ms.max(now_ms);
    }

    /// The replica `addr` names, if it is one of this pool's. A replica
    /// the plan names but the pool lacks is a no-op: seeded plans are
    /// sized to the fleet, hand-built ones may not be.
    fn target(&self, addr: &ReplicaAddr) -> Option<usize> {
        (addr.pool == Pool::Decode && addr.index < self.replicas.len()).then_some(addr.index)
    }

    /// Applies a replica fault at `now_ms`, returning the specs a crash
    /// lost. Link faults belong to the deployment's interconnect and are
    /// ignored here.
    pub fn inject_fault(&mut self, fault: &FaultKind, now_ms: f64) -> Vec<RequestSpec> {
        match fault {
            FaultKind::ReplicaCrash { replica, .. } => self
                .target(replica)
                .map(|i| self.replicas[i].crash(now_ms))
                .unwrap_or_default(),
            FaultKind::SlowReplica {
                replica, factor, ..
            } => {
                if let Some(i) = self.target(replica) {
                    self.replicas[i].latency_factor = *factor;
                }
                Vec::new()
            }
            FaultKind::LinkDegrade { .. } | FaultKind::LinkOutage { .. } => Vec::new(),
        }
    }

    /// Clears a replica fault at `now_ms`: a crashed replica rejoins with a
    /// cold KV pool and prefix cache, a slowdown ends.
    pub fn clear_fault(&mut self, fault: &FaultKind, now_ms: f64) {
        match fault {
            FaultKind::ReplicaCrash { replica, .. } => {
                if let Some(i) = self.target(replica) {
                    let r = &mut self.replicas[i];
                    r.down = false;
                    r.clock_ms = r.clock_ms.max(now_ms);
                }
            }
            FaultKind::SlowReplica { replica, .. } => {
                if let Some(i) = self.target(replica) {
                    self.replicas[i].latency_factor = 1.0;
                }
            }
            FaultKind::LinkDegrade { .. } | FaultKind::LinkOutage { .. } => {}
        }
    }

    /// Toggles graceful degradation on every engine.
    pub fn set_degraded(&mut self, degraded: bool) {
        for r in &mut self.replicas {
            r.engine.core_mut().degraded = degraded;
        }
    }

    /// Iterations executed across the pool.
    pub fn iterations(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.engine.core().iterations)
            .sum()
    }

    /// Installs the deployment-shared trace sink on every replica.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        for r in &mut self.replicas {
            r.tracer = tracer.clone();
        }
    }

    /// The pool's gauges (see [`fleet_gauges`]).
    pub fn gauges(&self) -> GaugeSample {
        fleet_gauges(self.replicas.iter().map(|r| r.engine.core()))
    }

    /// The latest local clock across the pool.
    pub fn clock_ms(&self) -> f64 {
        self.replicas.iter().map(|r| r.clock_ms).fold(0.0, f64::max)
    }

    /// Finalizes every replica into its [`UnitStats`].
    ///
    /// # Errors
    ///
    /// [`RunError::KvCapacity`] when a migration is still parked once
    /// everything else drained: its context exceeds the replica's whole
    /// KV pool, so it can never be admitted.
    pub fn drain(&mut self) -> Result<Vec<UnitStats>, RunError> {
        if let Some(r) = self.replicas.iter().find(|r| !r.landing.is_empty()) {
            let request = r.landing.front().expect("non-empty").spec.id;
            return Err(RunError::kv_capacity()
                .at(Pool::Decode, r.id)
                .for_request(request));
        }
        Ok(self
            .replicas
            .iter_mut()
            .map(|r| UnitStats {
                replica: ReplicaAddr::serving(r.id),
                routed: r.routed,
                result: r.finalize(),
                prefilled_requests: 0,
                prefill_tokens: 0,
            })
            .collect())
    }
}
