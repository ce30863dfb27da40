//! SLO-aware dispatch across the two pools.
//!
//! The [`Dispatcher`] makes both placement decisions of a disaggregated
//! deployment:
//!
//! * **Prefill side** — arrivals are routed by TTFT tier, the
//!   first-token analogue of the paper's §4.3 two-phase split: tight-TTFT
//!   requests (interactive coding/chat) go to the prefill replica with the
//!   least modelled prefill backlog, while batch-tier requests
//!   (summarization) are *packed* onto already-busy replicas below a load
//!   ceiling, keeping the rest of the pool drained for interactive
//!   arrivals.
//! * **Decode side** — a freshly prefilled request is handed to any
//!   [`cluster::Router`] policy, but carrying its *remaining* TPOT budget:
//!   time already burned in prefill queueing plus the KV transfer's wire
//!   time (the driver routes at the transfer's estimated arrival) is
//!   charged against the request's end-to-end envelope (TTFT SLO +
//!   output × TPOT SLO), so a request that left prefill late — or faces a
//!   slow link — looks tighter to the router and lands on a less-loaded
//!   decode replica.

use crate::prefill::PrefillReplica;
use cluster::Router;
use metrics::telemetry::{EventKind, TraceReplica, Tracer};
use serving::{LiveRequest, Replica};
use workload::RequestSpec;

/// Default TTFT (ms) at or below which a request is dispatch-tight: covers
/// the coding (400 ms) and chatbot (1200 ms) tiers, leaves summarization
/// (8 s) in the batch tier.
pub const DEFAULT_TIGHT_TTFT_MS: f64 = 1_500.0;

/// Default prefill-side packing ceiling (ms of modelled prefill backlog).
pub const DEFAULT_PACK_CEILING_MS: f64 = 1_000.0;

/// Default floor on the remaining-TPOT shading, as a fraction of the
/// request's nominal TPOT SLO.
pub const DEFAULT_MIN_TPOT_FRACTION: f64 = 0.25;

/// The SLO-aware dispatcher of a disaggregated cluster.
#[derive(Debug)]
pub struct Dispatcher {
    /// TTFT SLO (ms) at or below which an arrival is treated as tight.
    pub tight_ttft_ms: f64,
    /// Backlog ceiling above which a prefill replica stops being a packing
    /// target for batch-tier arrivals.
    pub pack_ceiling_ms: f64,
    /// Floor on the remaining-TPOT budget, as a fraction of the nominal
    /// TPOT SLO (a hopeless request is still routed, just as tight).
    pub min_tpot_fraction: f64,
    decode_router: Box<dyn Router>,
    tracer: Tracer,
}

impl Dispatcher {
    /// A dispatcher with default thresholds over the given decode router.
    pub fn new(decode_router: Box<dyn Router>) -> Self {
        Self {
            tight_ttft_ms: DEFAULT_TIGHT_TTFT_MS,
            pack_ceiling_ms: DEFAULT_PACK_CEILING_MS,
            min_tpot_fraction: DEFAULT_MIN_TPOT_FRACTION,
            decode_router,
            tracer: Tracer::off(),
        }
    }

    /// Installs the fleet-shared trace sink: decode-side handoff
    /// decisions are recorded as [`EventKind::RouteDecision`] events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Name of the wrapped decode-side routing policy.
    pub fn decode_router_name(&self) -> String {
        self.decode_router.name()
    }

    /// Chooses the prefill replica for an arrival.
    ///
    /// A replica already holding a cached prefix of the prompt (its
    /// engine-level [`serving::PrefixCache`]) wins outright — longest
    /// prefix first, ties on least backlog, then lowest index — as long
    /// as its backlog stays under the packing ceiling: reusing warm KV
    /// shrinks the prefill to the uncached suffix, which beats any
    /// load-balance gain at moderate load. Cache-cold (or saturated-warm)
    /// arrivals fall back to the TTFT-tier instance of
    /// [`cluster::two_phase_pick`] — tight first-token deadlines to the
    /// least-backlogged replica, batch prompts packed under the ceiling
    /// away from tight work.
    ///
    /// `eligible` must be non-empty and ascending (the driver builds it
    /// from accepting replicas).
    pub fn route_prefill(
        &mut self,
        spec: &RequestSpec,
        now_ms: f64,
        replicas: &[PrefillReplica],
        eligible: &[usize],
    ) -> usize {
        if replicas.iter().any(|r| r.core.prefix.is_some()) {
            let prompt = spec.prompt_tokens();
            let warm = eligible
                .iter()
                .filter(|&&i| replicas[i].drain_estimate_ms(now_ms) <= self.pack_ceiling_ms)
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
            if let Some((i, _)) = warm {
                return i;
            }
        }
        cluster::two_phase_pick(
            eligible,
            spec.ttft_slo_ms <= self.tight_ttft_ms,
            self.pack_ceiling_ms,
            |i| replicas[i].drain_estimate_ms(now_ms),
            |i| replicas[i].tight_outstanding(self.tight_ttft_ms),
        )
    }

    /// The request's remaining per-token decode budget at time `now_ms`.
    ///
    /// Remaining end-to-end envelope (arrival + TTFT SLO + output × TPOT
    /// SLO, minus time already spent) divided by the output length, clamped
    /// to `[min_tpot_fraction × TPOT SLO, TPOT SLO]`.
    pub fn remaining_tpot_ms(&self, req: &LiveRequest, now_ms: f64) -> f64 {
        let spec = &req.spec;
        let out = f64::from(spec.output_len.max(1));
        let deadline_ms = spec.arrival_ms + spec.ttft_slo_ms + out * spec.tpot_slo_ms;
        let per_token = (deadline_ms - now_ms) / out;
        per_token.clamp(spec.tpot_slo_ms * self.min_tpot_fraction, spec.tpot_slo_ms)
    }

    /// Chooses the decode replica for a freshly prefilled request, via the
    /// wrapped [`cluster::Router`] policy seeing the remaining TPOT budget.
    pub fn route_decode(
        &mut self,
        req: &LiveRequest,
        now_ms: f64,
        replicas: &[Replica],
        eligible: &[usize],
    ) -> usize {
        debug_assert!(!eligible.is_empty());
        let handoff = RequestSpec {
            tpot_slo_ms: self.remaining_tpot_ms(req, now_ms),
            ..req.spec.clone()
        };
        let choice = self
            .decode_router
            .route(&handoff, now_ms, replicas, eligible);
        let choice = if eligible.contains(&choice) {
            choice
        } else {
            debug_assert!(false, "decode router returned ineligible replica {choice}");
            eligible[0]
        };
        if self.tracer.enabled() {
            self.tracer.record(
                now_ms,
                EventKind::RouteDecision {
                    id: req.spec.id,
                    router: self.decode_router.name(),
                    replica: TraceReplica::decode(choice),
                    modeled_load_ms: replicas[choice].drain_estimate_ms(now_ms),
                },
            );
        }
        choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::RouterKind;
    use serving::SystemConfig;
    use workload::Category;

    fn spec(id: u64, ttft_slo_ms: f64) -> RequestSpec {
        RequestSpec {
            id,
            category: Category::Chatbot,
            arrival_ms: 0.0,
            prompt_len: 64,
            output_len: 20,
            tpot_slo_ms: 50.0,
            ttft_slo_ms,
            stream_seed: id,
            prefix: None,
        }
    }

    fn prefill_pool(queued: &[u32]) -> Vec<PrefillReplica> {
        queued
            .iter()
            .enumerate()
            .map(|(id, &prompts)| {
                let mut r = PrefillReplica::new(id, SystemConfig::llama70b(1));
                for p in 0..prompts {
                    r.core.on_arrival(spec(u64::from(p), 8_000.0));
                }
                r
            })
            .collect()
    }

    #[test]
    fn tight_arrivals_go_to_least_backlogged_replica() {
        let replicas = prefill_pool(&[3, 0]);
        let mut d = Dispatcher::new(RouterKind::SloAware.build());
        assert_eq!(d.route_prefill(&spec(9, 400.0), 0.0, &replicas, &[0, 1]), 1);
    }

    #[test]
    fn batch_arrivals_pack_onto_busy_replicas() {
        let replicas = prefill_pool(&[1, 0]);
        let mut d = Dispatcher::new(RouterKind::SloAware.build());
        // Replica 0 is busier but under the ceiling → batch tier packs there.
        assert_eq!(
            d.route_prefill(&spec(9, 8_000.0), 0.0, &replicas, &[0, 1]),
            0
        );
    }

    #[test]
    fn warm_prefill_replica_wins_dispatch() {
        let mut replicas = prefill_pool(&[1, 0]);
        replicas[1] = PrefillReplica::new(1, SystemConfig::llama70b(1).with_prefix_cache(65_536));
        let mut probe = spec(9, 8_000.0);
        probe.prefix = Some(workload::PrefixSpec { seed: 5, len: 32 });
        let prompt = probe.prompt_tokens();
        replicas[1]
            .core
            .prefix
            .as_mut()
            .unwrap()
            .insert(&prompt[..32]);
        let mut d = Dispatcher::new(RouterKind::SloAware.build());
        // Batch tier would pack onto busier replica 0; warm KV on 1 wins.
        assert_eq!(d.route_prefill(&probe, 0.0, &replicas, &[0, 1]), 1);
        // A disjoint prompt still packs onto the busy replica.
        assert_eq!(
            d.route_prefill(&spec(10, 8_000.0), 0.0, &replicas, &[0, 1]),
            0
        );
    }

    #[test]
    fn remaining_budget_shrinks_with_elapsed_time() {
        let d = Dispatcher::new(RouterKind::SloAware.build());
        let req = LiveRequest::new(spec(1, 1_200.0));
        let fresh = d.remaining_tpot_ms(&req, 0.0);
        assert!((fresh - 50.0).abs() < 1e-9, "unspent envelope = full SLO");
        let late = d.remaining_tpot_ms(&req, 1_700.0);
        assert!(late < fresh, "late handoff looks tighter");
        let hopeless = d.remaining_tpot_ms(&req, 1e9);
        assert!((hopeless - 50.0 * DEFAULT_MIN_TPOT_FRACTION).abs() < 1e-9);
    }

    #[test]
    fn decode_handoff_respects_eligibility() {
        use adaserve_core::AdaServeEngine;
        let replicas: Vec<Replica> = (0..2)
            .map(|id| {
                let engine: Box<dyn serving::ServingEngine> =
                    Box::new(AdaServeEngine::new(SystemConfig::llama70b(1)));
                Replica::new(id, engine)
            })
            .collect();
        let mut d = Dispatcher::new(RouterKind::RoundRobin.build());
        let req = LiveRequest::new(spec(3, 400.0));
        for _ in 0..4 {
            let pick = d.route_decode(&req, 0.0, &replicas, &[1]);
            assert_eq!(pick, 1);
        }
    }
}
