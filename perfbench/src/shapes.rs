//! The three benchmark workloads and how one run of each is built,
//! served and taken apart.
//!
//! Every run builds its workload and its whole deployment from scratch,
//! and every engine from its own fresh `SystemConfig`, so no run shares a
//! distribution memo (or any other state) with an earlier one. All
//! engines are AdaServe on the Llama-3.1-70B testbed.

use crate::probe::{Boundary, Probe, TimedDeployment, TimedEngine, TimedRouter};
use crate::replay::ReplayEngine;
use adaserve_core::AdaServeEngine;
use cluster::{Cluster, Router, RouterKind};
use disagg::{DisaggCluster, Dispatcher, KvLink, PrefillPool, TransferStats};
use metrics::telemetry::{RequestPhases, SloAttribution, Tracer};
use metrics::FairnessReport;
use scenario::{FairFrontDoor, TenantSpec};
use serving::{
    Colocated, Deployment, DeploymentEvent, ExecMode, PrefixStats, RunOptions, RunReport,
    ServeSession, ServingEngine, SystemConfig,
};
use simllm::hash::{combine, seed_stream, unit_f64};
use std::sync::Arc;
use std::time::Instant;
use workload::{
    Category, CategoryMix, LengthSampler, PrefixSpec, RequestSpec, TraceKind, Workload,
    WorkloadBuilder,
};

/// Every executor in the benchmark runs inline on one worker (see the
/// README for the two-worker measurement behind this choice).
pub const EXEC: ExecMode = ExecMode::Sharded { workers: Some(1) };

/// Conversation turns per user in `tenants-disagg`.
const TURNS: u64 = 5;

/// Think time between receiving an answer and sending the next turn.
const THINK_MS: f64 = 2_000.0;

/// Longest context a conversation grows to, in tokens.
const MAX_CONTEXT: u32 = 8_192;

/// Prefix-cache budget of each prefill replica, in tokens.
const PREFIX_CACHE_TOKENS: u64 = 65_536;

/// The fair door's in-flight window at benchmark size.
const FAIR_WINDOW: usize = 32;

/// Seed of every engine's synthetic model pair. The deployed models are
/// part of the system under test, so they stay fixed; `--seed` draws only
/// the traffic.
const MODEL_SEED: u64 = 42;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One engine behind `Colocated`, the paper's own setting.
    ColocatedPaper,
    /// 1024 engines behind `Cluster` with sparse traffic.
    FleetSparse,
    /// Two tenants, a fair door and a disaggregated deployment, closed loop.
    TenantsDisagg,
}

impl Shape {
    /// Every workload, in reporting order.
    pub const ALL: [Shape; 3] = [
        Shape::ColocatedPaper,
        Shape::FleetSparse,
        Shape::TenantsDisagg,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Shape::ColocatedPaper => "colocated-paper",
            Shape::FleetSparse => "fleet-sparse",
            Shape::TenantsDisagg => "tenants-disagg",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Shape> {
        Shape::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// How large a run is: the benchmark's size, or a small one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// At least 1000 finished requests on every workload.
    Bench,
    /// A few dozen requests, for the benchmark's own tests.
    Test,
}

/// Which engines, routers and deployment boundaries a run instruments.
#[derive(Debug, Clone)]
pub enum Mode {
    /// The library as users run it: nothing wrapped, tracing off.
    Plain,
    /// Every boundary wrapped and timed, engines are `AdaServeEngine`.
    Wrapped(Arc<Probe>),
    /// As `Wrapped`, with each engine replaced by [`ReplayEngine`].
    Replay(Arc<Probe>),
}

impl Mode {
    fn probe(&self) -> Option<&Arc<Probe>> {
        match self {
            Mode::Plain => None,
            Mode::Wrapped(p) | Mode::Replay(p) => Some(p),
        }
    }
}

/// One request the workload offered: its id, scheduled arrival and the
/// output length it asked for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Offer {
    /// Request id.
    pub id: u64,
    /// When the generator scheduled it.
    pub arrival_ms: f64,
    /// Output tokens requested.
    pub output_len: u32,
}

/// Layer counters read off the deployment after a run; zero where the
/// workload has no such layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShapeCounters {
    /// Merged prefix-cache counters of every replica.
    pub prefix: PrefixStats,
    /// KV-migration counters.
    pub transfers: TransferStats,
    /// Prompt tokens prefilled on the prefill pool.
    pub prefill_tokens: u64,
    /// Requests the fair door refused.
    pub refused: u64,
    /// Best minus worst tenant joint attainment, in points.
    pub tenant_spread_pct: f64,
}

/// Mean simulated waiting per finished request, from the trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct Waits {
    /// Arrival to first entry into a running batch.
    pub queueing_ms: f64,
    /// Prefill compute.
    pub prefill_ms: f64,
    /// KV pages on the wire.
    pub transfer_ms: f64,
    /// Time evicted.
    pub preemption_ms: f64,
    /// Trace events the ring dropped (0 means the means cover the run).
    pub dropped: u64,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Run {
    /// The session's report.
    pub report: RunReport,
    /// Every request offered, in offer order.
    pub offered: Vec<Offer>,
    /// Wall time spent building the workload.
    pub workload_ms: f64,
    /// Wall time spent building engines, routers, deployment and session.
    pub deployment_ms: f64,
    /// Wall time of `serve` / `serve_online`.
    pub serve_ms: f64,
    /// Counters of the deployment's layers.
    pub counters: ShapeCounters,
    /// Simulated waiting, present on traced runs.
    pub waits: Option<Waits>,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn run_options() -> RunOptions {
    RunOptions {
        exec: EXEC,
        ..RunOptions::default()
    }
}

fn baseline_ms() -> f64 {
    roofline::Testbed::llama70b().baseline_decode_ms()
}

fn engine(mode: &Mode) -> Box<dyn ServingEngine> {
    let config = SystemConfig::llama70b(MODEL_SEED);
    match mode {
        Mode::Plain => Box::new(AdaServeEngine::new(config)),
        Mode::Wrapped(p) => Box::new(TimedEngine::new(Box::new(AdaServeEngine::new(config)), p)),
        Mode::Replay(p) => Box::new(TimedEngine::new(Box::new(ReplayEngine::new(config, p)), p)),
    }
}

fn router(mode: &Mode) -> Box<dyn Router> {
    let router = RouterKind::SloAware.build();
    match mode.probe() {
        None => router,
        Some(p) => Box::new(TimedRouter::new(router, p)),
    }
}

/// The traffic of one run, drawn from the seed.
enum Traffic {
    /// Open-loop arrivals.
    Open(Workload),
    /// Closed-loop conversations.
    Closed(Conversations),
}

fn traffic(shape: Shape, scale: Scale, seed: u64) -> Traffic {
    match (shape, scale) {
        (Shape::ColocatedPaper, Scale::Bench) => Traffic::Open(permuted_workload(seed, 2.6, 2_600)),
        (Shape::ColocatedPaper, Scale::Test) => Traffic::Open(permuted_workload(seed, 2.6, 24)),
        (Shape::FleetSparse, Scale::Bench) => Traffic::Open(poisson_workload(seed, 64.0, 21_000.0)),
        (Shape::FleetSparse, Scale::Test) => Traffic::Open(poisson_workload(seed, 8.0, 4_000.0)),
        (Shape::TenantsDisagg, Scale::Bench) => {
            Traffic::Closed(Conversations::build(seed, 2.5, 330))
        }
        (Shape::TenantsDisagg, Scale::Test) => Traffic::Closed(Conversations::build(seed, 1.0, 6)),
    }
}

fn fleet_size(scale: Scale) -> usize {
    match scale {
        Scale::Bench => 1024,
        Scale::Test => 16,
    }
}

fn fair_window(scale: Scale) -> usize {
    match scale {
        Scale::Bench => FAIR_WINDOW,
        Scale::Test => 2,
    }
}

fn cluster(scale: Scale, mode: &Mode) -> Cluster {
    let engines = (0..fleet_size(scale)).map(|_| engine(mode)).collect();
    Cluster::new(engines, router(mode)).with_exec_mode(EXEC)
}

/// Two prefill replicas with prefix caches and two decode engines, joined
/// by a 64 GB/s KV link.
fn disagg(mode: &Mode) -> DisaggCluster {
    let prefill = PrefillPool::new(
        (0..2)
            .map(|_| SystemConfig::llama70b(MODEL_SEED).with_prefix_cache(PREFIX_CACHE_TOKENS))
            .collect(),
    );
    let decode = (0..2).map(|_| engine(mode)).collect();
    DisaggCluster::new(
        prefill,
        decode,
        Dispatcher::new(router(mode)),
        KvLink::new(64.0, 0.05),
    )
    .with_exec_mode(EXEC)
}

/// Builds `shape`'s traffic and untraced deployment, session included:
/// the set-up a run pays before its first arrival. Returns its wall time
/// in milliseconds; tearing it down again is not timed.
pub fn setup_ms(shape: Shape, scale: Scale, seed: u64) -> f64 {
    let start = Instant::now();
    let traffic = traffic(shape, scale, seed);
    let mode = Mode::Plain;
    let built: Box<dyn std::any::Any> = match (shape, &traffic) {
        (Shape::ColocatedPaper, _) => Box::new(session(Colocated::new(engine(&mode)), &None)),
        (Shape::FleetSparse, _) => Box::new(session(cluster(scale, &mode), &None)),
        (Shape::TenantsDisagg, Traffic::Closed(c)) => Box::new(session(
            FairFrontDoor::new(
                disagg(&mode),
                &c.tenants,
                Arc::clone(&c.tenant_of),
                fair_window(scale),
            ),
            &None,
        )),
        (Shape::TenantsDisagg, Traffic::Open(_)) => unreachable!("tenants-disagg is closed loop"),
    };
    let ms = ms_since(start);
    drop((built, traffic));
    ms
}

/// Builds and serves one run of `shape`.
///
/// # Errors
///
/// Returns the library's run error, rendered, if the session fails.
pub fn run(shape: Shape, scale: Scale, seed: u64, mode: &Mode) -> Result<Run, String> {
    let start = Instant::now();
    let traffic = traffic(shape, scale, seed);
    let workload_ms = ms_since(start);
    let start = Instant::now();
    let mut run = match (shape, traffic) {
        (Shape::ColocatedPaper, Traffic::Open(w)) => {
            open_run(Colocated::new(engine(mode)), &w, mode, start)?
        }
        (Shape::FleetSparse, Traffic::Open(w)) => open_run(cluster(scale, mode), &w, mode, start)?,
        (Shape::TenantsDisagg, Traffic::Closed(c)) => tenants_run(&c, scale, mode, start)?,
        _ => unreachable!("each shape has one kind of traffic"),
    };
    run.workload_ms = workload_ms;
    Ok(run)
}

/// A Poisson workload with the paper's Table 2 mix, all drawn from `seed`.
fn poisson_workload(seed: u64, rps: f64, duration_ms: f64) -> Workload {
    WorkloadBuilder::new(seed, baseline_ms())
        .trace(TraceKind::Poisson { rps, duration_ms })
        .build()
}

/// Seed of the request populations: which requests and conversations
/// exist, with their categories, lengths, SLOs and content streams.
///
/// A population is drawn once, like a fixed sample of the paper's
/// datasets; `--seed` draws the order its members arrive in and their
/// arrival times. Redrawn per seed, the few longest summarization prompts
/// alone moved the TTFT p99 by about 20% from seed to seed.
const POPULATION_SEED: u64 = 7;

/// The arrival order of an `n`-member population under `seed`.
fn arrival_order(seed: u64, n: usize) -> Vec<u64> {
    let mut order: Vec<u64> = (0..n as u64).collect();
    order.sort_by_key(|&k| combine(seed_stream(seed, 9), k));
    order
}

/// `n` Poisson arrival times at `rps` under `seed`, in milliseconds.
fn poisson_times(seed: u64, rps: f64, n: usize) -> Vec<f64> {
    let mut at_ms = 0.0;
    (0..n as u64)
        .map(|i| {
            let u = unit_f64(seed_stream(seed_stream(seed, 1), i)).max(1e-12);
            at_ms += -u.ln() / rps * 1e3;
            at_ms
        })
        .collect()
}

/// `n` requests of the paper's Table 2 mix from the fixed population,
/// arriving as a Poisson process at `rps`.
fn permuted_workload(seed: u64, rps: f64, n: usize) -> Workload {
    let horizon_ms = 2.0 * n as f64 / rps * 1e3;
    let population = poisson_workload(POPULATION_SEED, rps, horizon_ms).requests;
    assert!(population.len() >= n, "the population covers the workload");
    let requests = arrival_order(seed, n)
        .into_iter()
        .zip(poisson_times(seed, rps, n))
        .enumerate()
        .map(|(id, (member, arrival_ms))| RequestSpec {
            id: id as u64,
            arrival_ms,
            ..population[member as usize].clone()
        })
        .collect();
    Workload {
        requests,
        description: format!("{n} requests, Poisson at {rps} rps"),
    }
}

fn offers(workload: &Workload) -> Vec<Offer> {
    workload
        .requests
        .iter()
        .map(|r| Offer {
            id: r.id,
            arrival_ms: r.arrival_ms,
            output_len: r.output_len,
        })
        .collect()
}

/// Serves `workload` open loop, returning the report and the serve wall
/// time. The deployment is dropped on return.
fn open_loop<D: Deployment>(
    mut session: ServeSession<D>,
    workload: &Workload,
) -> Result<(RunReport, f64), String> {
    let start = Instant::now();
    let report = session.serve(workload).map_err(|e| e.to_string())?;
    Ok((report, ms_since(start)))
}

/// A session over `deployment`, traced when a tracer is given.
fn session<D: Deployment>(deployment: D, tracer: &Option<Tracer>) -> ServeSession<D> {
    let session = ServeSession::with_options(deployment, run_options());
    match tracer {
        Some(t) => session.with_tracer(t.clone()),
        None => session,
    }
}

fn tracer_for(mode: &Mode) -> Option<Tracer> {
    mode.probe().map(|_| Tracer::on())
}

fn waits(tracer: &Option<Tracer>) -> Option<Waits> {
    let tracer = tracer.as_ref()?;
    let attribution = SloAttribution::from_events(&tracer.snapshot());
    let n = attribution.per_request.len().max(1) as f64;
    let mean =
        |f: fn(&RequestPhases) -> f64| attribution.per_request.iter().map(f).sum::<f64>() / n;
    Some(Waits {
        queueing_ms: mean(|p| p.queueing_ms),
        prefill_ms: mean(|p| p.prefill_ms),
        transfer_ms: mean(|p| p.transfer_ms),
        preemption_ms: mean(|p| p.preemption_ms),
        dropped: tracer.dropped(),
    })
}

/// Serves an open-loop shape whose deployment was built since
/// `build_start`, wrapping it when `mode` instruments the run.
fn open_run<D: Deployment>(
    deployment: D,
    workload: &Workload,
    mode: &Mode,
    build_start: Instant,
) -> Result<Run, String> {
    let tracer = tracer_for(mode);
    let (report, serve_ms, deployment_ms) = match mode.probe() {
        None => {
            let session = session(deployment, &tracer);
            let deployment_ms = ms_since(build_start);
            let (report, serve_ms) = open_loop(session, workload)?;
            (report, serve_ms, deployment_ms)
        }
        Some(p) => {
            let session = session(TimedDeployment::new(deployment, p, Boundary::Only), &tracer);
            let deployment_ms = ms_since(build_start);
            let (report, serve_ms) = open_loop(session, workload)?;
            (report, serve_ms, deployment_ms)
        }
    };
    Ok(Run {
        report,
        offered: offers(workload),
        workload_ms: 0.0,
        deployment_ms,
        serve_ms,
        counters: ShapeCounters::default(),
        waits: waits(&tracer),
    })
}

/// The closed-loop conversations of `tenants-disagg`: every turn of every
/// user, generated up front, with turn ids `user * TURNS + turn` so the
/// fair door's tenant table covers every turn.
#[derive(Debug)]
pub struct Conversations {
    turns: Vec<RequestSpec>,
    tenant_of: Arc<Vec<usize>>,
    tenants: Vec<TenantSpec>,
    opening: Workload,
}

impl Conversations {
    /// `users` users from the fixed population open conversations as a
    /// Poisson process at `users_per_s`. Each user belongs to one tenant
    /// and talks about one category for all of its turns, and each turn's
    /// prompt extends the previous turn's by a chat-sized message.
    pub fn build(seed: u64, users_per_s: f64, users: usize) -> Self {
        let tenants = vec![
            TenantSpec::new("interactive")
                .weight(3.0)
                .mix(CategoryMix::new(0.5, 0.5, 0.0)),
            TenantSpec::new("batch")
                .weight(1.0)
                .mix(CategoryMix::new(0.0, 0.5, 0.5)),
        ];
        let baseline = baseline_ms();
        let pop = POPULATION_SEED;
        let sampler = LengthSampler::new(seed_stream(pop, 2));
        let mut turns = Vec::with_capacity(users * TURNS as usize);
        let mut tenant_of = Vec::with_capacity(turns.capacity());
        let opens =
            arrival_order(seed, users)
                .into_iter()
                .zip(poisson_times(seed, users_per_s, users));
        for (user, (member, open_ms)) in (0u64..).zip(opens) {
            let tenant = usize::from(unit_f64(combine(seed_stream(pop, 8), member)) >= 0.5);
            let category = tenants[tenant]
                .mix
                .sample(combine(seed_stream(pop, 3), member));
            let user_seed = combine(seed_stream(pop, 7), member);
            let mut context = 0u32;
            for turn in 0..TURNS {
                let draw = member * TURNS + turn;
                let (opening, output_len) = sampler.sample(category, draw);
                let sampled = if turn == 0 {
                    opening
                } else {
                    sampler.sample(Category::Chatbot, draw).0
                };
                let prompt_len = context.saturating_add(sampled).clamp(1, MAX_CONTEXT);
                turns.push(RequestSpec {
                    id: user * TURNS + turn,
                    category,
                    arrival_ms: if turn == 0 { open_ms } else { 0.0 },
                    prompt_len,
                    output_len,
                    tpot_slo_ms: category.slo().resolve(baseline),
                    ttft_slo_ms: category.ttft_slo().resolve(baseline),
                    stream_seed: user_seed,
                    prefix: (context > 0).then_some(PrefixSpec {
                        seed: user_seed,
                        len: context,
                    }),
                });
                tenant_of.push(tenant);
                context = prompt_len;
            }
        }
        let opening = Workload {
            requests: turns
                .iter()
                .filter(|t| t.id % TURNS == 0)
                .cloned()
                .collect(),
            description: format!("{users} conversations of {TURNS} turns"),
        };
        Self {
            turns,
            tenant_of: Arc::new(tenant_of),
            tenants,
            opening,
        }
    }

    /// The user's next turn after `finished_id` completed at
    /// `completion_ms`, if the conversation continues.
    pub fn follow_up(&self, finished_id: u64, completion_ms: f64) -> Option<RequestSpec> {
        if finished_id % TURNS + 1 >= TURNS {
            return None;
        }
        let mut next = self.turns.get(finished_id as usize + 1)?.clone();
        next.arrival_ms = completion_ms + THINK_MS;
        Some(next)
    }

    /// The tenant of a turn id.
    pub fn tenant_of(&self, id: u64) -> usize {
        self.tenant_of
            .get(id as usize)
            .copied()
            .unwrap_or((id % self.tenants.len() as u64) as usize)
    }
}

/// Serves the conversations closed loop: each finished turn schedules the
/// user's next one. Returns the report, the deployment, the offers and
/// the serve wall time.
fn closed_loop<D: Deployment>(
    mut session: ServeSession<D>,
    conversations: &Conversations,
) -> Result<(RunReport, D, Vec<Offer>, f64), String> {
    let mut offered = offers(&conversations.opening);
    session.enqueue(&conversations.opening);
    let start = Instant::now();
    let report = session
        .serve_online(|event, handle| {
            if let DeploymentEvent::Finished { record } = event {
                if let Some(next) = conversations.follow_up(record.id, record.completion_ms) {
                    offered.push(Offer {
                        id: next.id,
                        arrival_ms: next.arrival_ms,
                        output_len: next.output_len,
                    });
                    handle.submit(next);
                }
            }
        })
        .map_err(|e| e.to_string())?;
    let serve_ms = ms_since(start);
    Ok((report, session.into_inner(), offered, serve_ms))
}

fn disagg_counters(deployment: &DisaggCluster) -> ShapeCounters {
    let mut counters = ShapeCounters {
        transfers: deployment.transfer_stats(),
        ..ShapeCounters::default()
    };
    for replica in deployment.prefill_replicas() {
        counters.prefill_tokens += replica.prefill_tokens;
        if let Some(cache) = &replica.core.prefix {
            let s = cache.stats();
            let p = &mut counters.prefix;
            p.lookups += s.lookups;
            p.hits += s.hits;
            p.prefill_tokens_saved += s.prefill_tokens_saved;
            p.inserted_tokens += s.inserted_tokens;
            p.evicted_tokens += s.evicted_tokens;
        }
    }
    counters
}

/// Serves the conversations through the fair door and the disaggregated
/// deployment built since `build_start`; when `mode` instruments the run,
/// the deployment is timed both above and below the door.
fn tenants_run(
    conversations: &Conversations,
    scale: Scale,
    mode: &Mode,
    build_start: Instant,
) -> Result<Run, String> {
    let tenants = &conversations.tenants;
    let table = Arc::clone(&conversations.tenant_of);
    let window = fair_window(scale);
    let tracer = tracer_for(mode);
    let (report, counters, offered, serve_ms, deployment_ms) = match mode.probe() {
        None => {
            let door = FairFrontDoor::new(disagg(mode), tenants, table, window);
            let session = session(door, &tracer);
            let deployment_ms = ms_since(build_start);
            let (report, door, offered, serve_ms) = closed_loop(session, conversations)?;
            let refused = door.counters().iter().map(|c| c.rejected).sum::<u64>();
            let counters = ShapeCounters {
                refused,
                ..disagg_counters(&door.into_inner())
            };
            (report, counters, offered, serve_ms, deployment_ms)
        }
        Some(p) => {
            let inner = TimedDeployment::new(disagg(mode), p, Boundary::Inner);
            let door = FairFrontDoor::new(inner, tenants, table, window);
            let session = session(TimedDeployment::new(door, p, Boundary::Outer), &tracer);
            let deployment_ms = ms_since(build_start);
            let (report, outer, offered, serve_ms) = closed_loop(session, conversations)?;
            let door = outer.into_inner();
            let refused = door.counters().iter().map(|c| c.rejected).sum::<u64>();
            let counters = ShapeCounters {
                refused,
                ..disagg_counters(&door.into_inner().into_inner())
            };
            (report, counters, offered, serve_ms, deployment_ms)
        }
    };
    let rejected: Vec<u64> = report.rejected.iter().map(|(id, _)| *id).collect();
    let tenant_spread_pct =
        FairnessReport::from_records(&report.records, tenants.len(), &rejected, |id| {
            conversations.tenant_of(id)
        })
        .spread_pct();
    Ok(Run {
        report,
        offered,
        workload_ms: 0.0,
        deployment_ms,
        serve_ms,
        counters: ShapeCounters {
            tenant_spread_pct,
            ..counters
        },
        waits: waits(&tracer),
    })
}
