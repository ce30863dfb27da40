//! Request routing policies for the cluster driver.
//!
//! The driver consults the [`Router`] once per arrival, passing the full
//! replica slice plus the indices currently eligible (accepting) — the
//! router must return one of the eligible indices. Policies range from the
//! oblivious (round-robin) to the SLO-aware two-phase split that mirrors,
//! at cluster granularity, the paper's §4.3 budget split between
//! SLO-constrained and throughput-tier requests.

use serving::Replica;
use workload::RequestSpec;

/// A request-routing policy.
///
/// `route` may keep internal state (round-robin's cursor); it must be a
/// deterministic function of that state and its arguments so cluster runs
/// reproduce bit-identically under a fixed seed.
pub trait Router {
    /// Policy name for reports.
    fn name(&self) -> String;

    /// Chooses the replica for `spec`, as an index into `replicas`.
    ///
    /// `eligible` is the non-empty, ascending list of replica indices the
    /// driver will accept; returning anything else is a policy bug (the
    /// driver falls back to the first eligible replica and debug-asserts).
    fn route(
        &mut self,
        spec: &RequestSpec,
        now_ms: f64,
        replicas: &[Replica],
        eligible: &[usize],
    ) -> usize;
}

impl std::fmt::Debug for dyn Router + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Router({})", self.name())
    }
}

/// Cycles through eligible replicas in order, ignoring load entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    cursor: u64,
}

impl Router for RoundRobin {
    fn name(&self) -> String {
        "round-robin".into()
    }

    fn route(
        &mut self,
        _spec: &RequestSpec,
        _now_ms: f64,
        _replicas: &[Replica],
        eligible: &[usize],
    ) -> usize {
        let pick = eligible[(self.cursor % eligible.len() as u64) as usize];
        self.cursor += 1;
        pick
    }
}

/// Sends each request to the eligible replica with the fewest outstanding
/// (waiting + running) requests; ties break on the lowest replica id.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastOutstanding;

impl Router for LeastOutstanding {
    fn name(&self) -> String {
        "least-outstanding".into()
    }

    fn route(
        &mut self,
        _spec: &RequestSpec,
        _now_ms: f64,
        replicas: &[Replica],
        eligible: &[usize],
    ) -> usize {
        *eligible
            .iter()
            .min_by_key(|&&i| (replicas[i].outstanding(), i))
            .expect("eligible is non-empty")
    }
}

/// Join-shortest-queue by *modelled load*: minimizes the hardware-normalized
/// drain-time estimate ([`Replica::drain_estimate_ms`]), so a fast replica
/// with a longer queue can still win over a slow one with a shorter queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinShortestQueue;

impl Router for JoinShortestQueue {
    fn name(&self) -> String {
        "jsq-load".into()
    }

    fn route(
        &mut self,
        _spec: &RequestSpec,
        now_ms: f64,
        replicas: &[Replica],
        eligible: &[usize],
    ) -> usize {
        *eligible
            .iter()
            .min_by(|&&a, &&b| {
                replicas[a]
                    .drain_estimate_ms(now_ms)
                    .total_cmp(&replicas[b].drain_estimate_ms(now_ms))
                    .then(a.cmp(&b))
            })
            .expect("eligible is non-empty")
    }
}

/// The tight/pack placement shared by [`SloAware`] routing and the
/// disaggregated dispatcher's prefill-side TTFT routing.
///
/// `load` and `tight` give a candidate's modelled backlog and its count
/// of outstanding tight-SLO requests by replica index; both are evaluated
/// exactly once per eligible candidate. A tight request goes to the
/// least-loaded candidate (ties: fewest tight, lowest index). A loose
/// request *packs*: among candidates still under `pack_ceiling` the ones
/// carrying the fewest tight requests are considered and the most-loaded
/// of them wins (ties: lowest index), concentrating relaxed traffic on
/// few replicas while steering it away from tight work; when every
/// candidate is over the ceiling, it falls back to the least-loaded.
///
/// # Panics
///
/// Panics if `eligible` is empty.
pub fn two_phase_pick(
    eligible: &[usize],
    is_tight: bool,
    pack_ceiling: f64,
    load: impl Fn(usize) -> f64,
    tight: impl Fn(usize) -> usize,
) -> usize {
    assert!(!eligible.is_empty(), "eligible is non-empty");
    let metrics: Vec<(usize, f64, usize)> =
        eligible.iter().map(|&i| (i, load(i), tight(i))).collect();
    if is_tight {
        return metrics
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.2.cmp(&b.2)).then(a.0.cmp(&b.0)))
            .expect("eligible is non-empty")
            .0;
    }
    let under: Vec<&(usize, f64, usize)> = metrics.iter().filter(|m| m.1 <= pack_ceiling).collect();
    if let Some(min_tight) = under.iter().map(|m| m.2).min() {
        return under
            .iter()
            .filter(|m| m.2 == min_tight)
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .expect("under is non-empty")
            .0;
    }
    // Everything is saturated: fall back to least loaded.
    metrics
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
        .expect("eligible is non-empty")
        .0
}

/// The cluster analogue of the paper's §4.3 two-phase budget split.
///
/// Requests whose TPOT SLO is at most `tight_ms` are *SLO-constrained*:
/// they go to the least-loaded eligible replica (by drain estimate, then
/// fewest tight requests) so their decode iterations stay fast.
/// Throughput-tier requests are *packed* via [`two_phase_pick`]: among
/// replicas under `pack_ceiling_ms`, the most-loaded one carrying the
/// fewest tight requests takes them, concentrating relaxed traffic on few
/// replicas and keeping the rest of the fleet drained for tight arrivals.
#[derive(Debug, Clone, Copy)]
pub struct SloAware {
    /// TPOT SLO (ms) at or below which a request is treated as tight.
    pub tight_ms: f64,
    /// Load ceiling (ms of modelled drain) above which a replica stops
    /// being a packing target for throughput-tier requests.
    pub pack_ceiling_ms: f64,
}

impl SloAware {
    /// Policy with explicit thresholds.
    pub fn new(tight_ms: f64, pack_ceiling_ms: f64) -> Self {
        assert!(tight_ms > 0.0 && pack_ceiling_ms > 0.0);
        Self {
            tight_ms,
            pack_ceiling_ms,
        }
    }
}

impl Default for SloAware {
    /// Defaults sized for the paper's Table 2 mix: 60 ms classifies the
    /// coding-copilot (≈1.2× baseline) and chatbot (50 ms) categories as
    /// tight and summarization (150 ms) as throughput-tier; the 2 s pack
    /// ceiling is roughly the modelled drain of a deeply backlogged
    /// replica.
    fn default() -> Self {
        Self {
            tight_ms: 60.0,
            pack_ceiling_ms: 2_000.0,
        }
    }
}

impl Router for SloAware {
    fn name(&self) -> String {
        "slo-aware".into()
    }

    fn route(
        &mut self,
        spec: &RequestSpec,
        now_ms: f64,
        replicas: &[Replica],
        eligible: &[usize],
    ) -> usize {
        two_phase_pick(
            eligible,
            spec.tpot_slo_ms <= self.tight_ms,
            self.pack_ceiling_ms,
            |i| replicas[i].drain_estimate_ms(now_ms),
            |i| replicas[i].tight_outstanding(self.tight_ms),
        )
    }
}

/// Routes to the eligible replica holding the *longest cached prefix* of
/// the request's prompt (its engine's cross-request
/// [`serving::PrefixCache`]), so shared-system-prompt and multi-turn
/// traffic lands where its KV is already warm and prefill shrinks to the
/// uncached suffix.
///
/// Ties — and the cache-cold case where no replica holds any prefix —
/// break on the smallest modelled drain estimate, then the lowest index
/// (i.e. it degrades to [`JoinShortestQueue`]). Warmth only wins while
/// the replica is not saturated: a warm replica whose drain estimate
/// exceeds `max_warm_drain_ms` is treated as cold, so affinity never
/// starves load balance.
#[derive(Debug, Clone, Copy)]
pub struct PrefixAffinity {
    /// Drain estimate (ms) above which a warm replica no longer attracts
    /// traffic on cache affinity alone.
    pub max_warm_drain_ms: f64,
}

impl PrefixAffinity {
    /// Policy with an explicit saturation ceiling.
    pub fn new(max_warm_drain_ms: f64) -> Self {
        assert!(max_warm_drain_ms > 0.0);
        Self { max_warm_drain_ms }
    }
}

impl Default for PrefixAffinity {
    /// Matches [`SloAware`]'s 2 s pack ceiling: beyond that backlog, KV
    /// reuse no longer pays for the queueing delay.
    fn default() -> Self {
        Self {
            max_warm_drain_ms: 2_000.0,
        }
    }
}

impl Router for PrefixAffinity {
    fn name(&self) -> String {
        "prefix-affinity".into()
    }

    fn route(
        &mut self,
        spec: &RequestSpec,
        now_ms: f64,
        replicas: &[Replica],
        eligible: &[usize],
    ) -> usize {
        let prompt = spec.prompt_tokens();
        let best_warm = eligible
            .iter()
            .filter(|&&i| replicas[i].drain_estimate_ms(now_ms) <= self.max_warm_drain_ms)
            .map(|&i| (i, replicas[i].cached_prefix_tokens(spec, &prompt)))
            .filter(|&(_, cached)| cached > 0)
            .max_by(|a, b| {
                a.1.cmp(&b.1)
                    .then_with(|| {
                        replicas[b.0]
                            .drain_estimate_ms(now_ms)
                            .total_cmp(&replicas[a.0].drain_estimate_ms(now_ms))
                    })
                    .then(b.0.cmp(&a.0))
            });
        if let Some((i, _)) = best_warm {
            return i;
        }
        JoinShortestQueue.route(spec, now_ms, replicas, eligible)
    }
}

/// The built-in routing policies, as a parse/build-friendly enum for CLIs
/// and sweep harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`LeastOutstanding`].
    LeastOutstanding,
    /// [`JoinShortestQueue`].
    JoinShortestQueue,
    /// [`SloAware`] with default thresholds.
    SloAware,
    /// [`PrefixAffinity`] with the default saturation ceiling.
    PrefixAffinity,
}

impl RouterKind {
    /// Every built-in policy, in sweep order.
    pub const ALL: [RouterKind; 5] = [
        RouterKind::RoundRobin,
        RouterKind::LeastOutstanding,
        RouterKind::JoinShortestQueue,
        RouterKind::SloAware,
        RouterKind::PrefixAffinity,
    ];

    /// Stable CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            RouterKind::RoundRobin => "round-robin",
            RouterKind::LeastOutstanding => "least-outstanding",
            RouterKind::JoinShortestQueue => "jsq-load",
            RouterKind::SloAware => "slo-aware",
            RouterKind::PrefixAffinity => "prefix-affinity",
        }
    }

    /// Parses a CLI name (the inverse of [`RouterKind::name`]).
    pub fn parse(name: &str) -> Option<RouterKind> {
        RouterKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn Router> {
        match self {
            RouterKind::RoundRobin => Box::new(RoundRobin::default()),
            RouterKind::LeastOutstanding => Box::new(LeastOutstanding),
            RouterKind::JoinShortestQueue => Box::new(JoinShortestQueue),
            RouterKind::SloAware => Box::new(SloAware::default()),
            RouterKind::PrefixAffinity => Box::new(PrefixAffinity::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serving::{EngineCore, ServingEngine, StepResult, SystemConfig};
    use workload::Category;

    /// Engine stub: routing only reads core queue state.
    struct Stub {
        core: EngineCore,
    }

    impl ServingEngine for Stub {
        fn name(&self) -> String {
            "stub".into()
        }

        fn core(&self) -> &EngineCore {
            &self.core
        }

        fn core_mut(&mut self) -> &mut EngineCore {
            &mut self.core
        }

        fn step(&mut self, _now_ms: f64) -> StepResult {
            StepResult { latency_ms: 1.0 }
        }
    }

    fn spec(id: u64, slo: f64) -> RequestSpec {
        RequestSpec {
            id,
            category: Category::Chatbot,
            arrival_ms: 0.0,
            prompt_len: 16,
            output_len: 32,
            tpot_slo_ms: slo,
            ttft_slo_ms: 1_000.0,
            stream_seed: id,
            prefix: None,
        }
    }

    fn replica(id: usize, queued: usize) -> Replica {
        let mut r: Replica = Replica::new(
            id,
            Box::new(Stub {
                core: EngineCore::new(SystemConfig::llama70b(1)),
            }),
        );
        for q in 0..queued {
            r.engine.core_mut().on_arrival(spec(q as u64, 150.0));
        }
        r
    }

    #[test]
    fn round_robin_cycles_eligible() {
        let replicas = vec![replica(0, 0), replica(1, 0), replica(2, 0)];
        let mut rr = RoundRobin::default();
        let picks: Vec<usize> = (0..4)
            .map(|i| rr.route(&spec(i, 50.0), 0.0, &replicas, &[0, 2]))
            .collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn least_outstanding_picks_emptiest() {
        let replicas = vec![replica(0, 3), replica(1, 1), replica(2, 2)];
        let mut lo = LeastOutstanding;
        assert_eq!(lo.route(&spec(0, 50.0), 0.0, &replicas, &[0, 1, 2]), 1);
        // Restricted eligibility is honoured.
        assert_eq!(lo.route(&spec(0, 50.0), 0.0, &replicas, &[0, 2]), 2);
    }

    #[test]
    fn jsq_accounts_for_clock_head_start() {
        let mut replicas = vec![replica(0, 1), replica(1, 1)];
        // Same queue, but replica 0 is mid-iteration far in the future.
        replicas[0].clock_ms = 10_000.0;
        let mut jsq = JoinShortestQueue;
        assert_eq!(jsq.route(&spec(0, 50.0), 0.0, &replicas, &[0, 1]), 1);
    }

    #[test]
    fn slo_aware_splits_tiers() {
        // Replica 0 idle, replica 1 lightly loaded with loose work.
        let replicas = vec![replica(0, 0), replica(1, 2)];
        let mut sa = SloAware::default();
        // Tight request → least loaded (0).
        assert_eq!(sa.route(&spec(0, 30.0), 0.0, &replicas, &[0, 1]), 0);
        // Loose request → packed onto the busier replica (1), since both
        // carry zero tight requests and 1 is under the ceiling.
        assert_eq!(sa.route(&spec(1, 150.0), 0.0, &replicas, &[0, 1]), 1);
    }

    #[test]
    fn slo_aware_avoids_tight_replicas_when_packing() {
        let mut replicas = vec![replica(0, 0), replica(1, 0)];
        // Replica 1 is busier but serves a tight request.
        replicas[1].engine.core_mut().on_arrival(spec(7, 30.0));
        replicas[1].engine.core_mut().on_arrival(spec(8, 150.0));
        replicas[0].engine.core_mut().on_arrival(spec(9, 150.0));
        let mut sa = SloAware::default();
        assert_eq!(
            sa.route(&spec(1, 150.0), 0.0, &replicas, &[0, 1]),
            0,
            "loose work packs away from the replica holding tight work"
        );
    }

    #[test]
    fn tight_outstanding_sees_inbound_migrations() {
        let mut r = replica(0, 0);
        assert_eq!(r.tight_outstanding(60.0), 0);
        r.inbound.requests = 2;
        r.inbound.decode_tokens = 16;
        r.inbound.tpot_slos = vec![30.0, 150.0];
        assert_eq!(r.tight_outstanding(60.0), 1, "one inbound SLO is tight");
        assert_eq!(r.outstanding(), 2, "inbound requests count as load");
    }

    #[test]
    fn two_phase_pick_respects_ceiling_before_tight_count() {
        // A: 0 tight but over the ceiling; B: 1 tight, lightly loaded;
        // C: 2 tight, nearly idle. A loose request must pack onto B —
        // under-ceiling replicas are considered first, so the fewest-tight
        //-but-saturated A neither wins nor forces the fallback onto C
        // (the replica carrying the most competing tight work).
        let load = |i: usize| [1_500.0, 200.0, 50.0][i];
        let tight = |i: usize| [0usize, 1, 2][i];
        assert_eq!(two_phase_pick(&[0, 1, 2], false, 1_000.0, load, tight), 1);
        // A tight request still goes to the least-loaded replica.
        assert_eq!(two_phase_pick(&[0, 1, 2], true, 1_000.0, load, tight), 2);
        // Everything over the ceiling: fall back to least loaded.
        assert_eq!(two_phase_pick(&[0, 1, 2], false, 10.0, load, tight), 2);
    }

    #[test]
    fn prefix_affinity_prefers_the_warm_replica() {
        let mut cfg = SystemConfig::llama70b(1);
        cfg = cfg.with_prefix_cache(65_536);
        let warm_core = EngineCore::new(cfg);
        let mut replicas = vec![replica(0, 0), replica(1, 0)];
        replicas[1].engine = Box::new(Stub { core: warm_core });

        // Warm replica 1's cache with a request sharing the probe's prefix.
        let mut probe = spec(42, 150.0);
        probe.prefix = Some(workload::PrefixSpec { seed: 9, len: 16 });
        probe.prompt_len = 48;
        replicas[1]
            .engine
            .core_mut()
            .prefix
            .as_mut()
            .unwrap()
            .insert(&probe.prompt_tokens()[..32]);

        let mut pa = PrefixAffinity::default();
        assert_eq!(
            pa.route(&probe, 0.0, &replicas, &[0, 1]),
            1,
            "warm cache attracts the request"
        );
        // A disjoint request degrades to JSQ (lowest index on tie).
        assert_eq!(pa.route(&spec(7, 150.0), 0.0, &replicas, &[0, 1]), 0);
        // A saturated warm replica is treated as cold.
        replicas[1].clock_ms = 10_000.0;
        assert_eq!(
            pa.route(&probe, 0.0, &replicas, &[0, 1]),
            0,
            "affinity never beats a saturated backlog"
        );
    }

    #[test]
    fn router_kind_round_trips_names() {
        for kind in RouterKind::ALL {
            assert_eq!(RouterKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(RouterKind::parse("nope"), None);
    }
}
