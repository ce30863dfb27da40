//! SmartSpec-style goodput-optimized sequence speculation (related work
//! \[30\]; "adaptively tunes draft sequence lengths based on workload and
//! acceptance rates").
//!
//! Unlike vLLM-Spec's fixed chain length, this engine re-picks the length
//! `k` every iteration by maximizing modelled *goodput*: expected accepted
//! tokens per second given the observed per-position acceptance rate and
//! the roofline latency of drafting `k` steps plus verifying `k·n` tokens.
//! It adapts to load — but, like all the speculation baselines, it is
//! SLO-agnostic: every request gets the same `k`.

use roofline::{ForwardPass, SeqWork};
use serving::{EngineCore, Iteration, Phase, ServingEngine, StepResult, SystemConfig};
use spectree::SpecParams;

/// The SmartSpec-style baseline engine.
#[derive(Debug)]
pub struct SmartSpecEngine {
    core: EngineCore,
    iter: Iteration,
    /// Longest chain considered.
    max_len: u32,
    /// EMA of the per-position acceptance rate α.
    alpha: f64,
}

impl SmartSpecEngine {
    /// Creates the engine (chains up to 8, α seeded at 0.7).
    pub fn new(config: SystemConfig) -> Self {
        Self {
            core: EngineCore::new(config),
            iter: Iteration::default(),
            max_len: 8,
            alpha: 0.7,
        }
    }

    /// Current acceptance-rate estimate.
    pub fn acceptance_estimate(&self) -> f64 {
        self.alpha
    }

    /// Expected accepted tokens (plus bonus) of a length-`k` chain under α.
    fn expected_advance(&self, k: u32) -> f64 {
        // 1 (bonus) + α + α² + … + α^k.
        let mut total = 1.0;
        let mut p = 1.0;
        for _ in 0..k {
            p *= self.alpha;
            total += p;
        }
        total
    }

    /// Picks the chain length maximizing modelled goodput for `n` requests
    /// at a representative context length.
    fn pick_len(&self, n: usize, ctx_len: u32) -> u32 {
        let mut best = (0u32, 0.0f64);
        for k in 1..=self.max_len {
            let draft_pass = ForwardPass::new(vec![
                SeqWork {
                    new_tokens: 1,
                    ctx_len
                };
                n
            ]);
            let draft_ms = self
                .core
                .config
                .testbed
                .draft
                .forward_latency_ms(&draft_pass, true)
                * f64::from(k);
            let verify_pass = ForwardPass::new(vec![SeqWork::verify(k, ctx_len); n]);
            let verify_ms = self
                .core
                .config
                .testbed
                .target
                .forward_latency_ms(&verify_pass, true);
            let goodput = n as f64 * self.expected_advance(k) / (draft_ms + verify_ms);
            if goodput > best.1 {
                best = (k, goodput);
            }
        }
        best.0.max(1)
    }
}

impl ServingEngine for SmartSpecEngine {
    fn name(&self) -> String {
        "SmartSpec".into()
    }

    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn step(&mut self, now_ms: f64) -> StepResult {
        self.core.admit_fifo();
        if let Some(result) = self.core.prefill_pass(u32::MAX, now_ms) {
            return result;
        }
        let n = self.iter.select_decoding(&self.core);
        if n == 0 {
            return StepResult::IDLE;
        }
        let decoding = self
            .core
            .running
            .iter()
            .filter(|r| r.phase == Phase::Decoding);
        let ctx_sum: u64 = decoding.map(|r| u64::from(r.context_len())).sum();
        let k = self.pick_len(n, ((ctx_sum / n as u64) as u32).max(1));

        // Chain speculation of length k, then the per-position acceptance
        // rate observed over the requests that verified.
        let accepted_before = self.core.accepted_total;
        let result = self
            .iter
            .speculate_verify(&mut self.core, SpecParams::new(k, 1), now_ms);
        let positions = u64::from(k) * self.iter.decoding().len() as u64;
        if positions > 0 {
            let accepted = self.core.accepted_total - accepted_before;
            let observed = accepted as f64 / positions as f64;
            self.alpha = (0.9 * self.alpha + 0.1 * observed).clamp(0.05, 0.98);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_run as run;
    use serving::RunOptions;
    use workload::{Category, RequestSpec, Workload};

    fn workload(n: u64) -> Workload {
        let requests = (0..n)
            .map(|id| RequestSpec {
                id,
                category: Category::Chatbot,
                arrival_ms: id as f64 * 10.0,
                prompt_len: 24,
                output_len: 16,
                tpot_slo_ms: 50.0,
                ttft_slo_ms: 1_000.0,
                stream_seed: id ^ 0x5A,
                prefix: None,
            })
            .collect();
        Workload {
            requests,
            description: "smartspec".into(),
        }
    }

    #[test]
    fn completes_all_requests() {
        let mut engine = SmartSpecEngine::new(SystemConfig::llama70b(1));
        let result = run(&mut engine, &workload(6), RunOptions::default()).unwrap();
        assert_eq!(result.records.len(), 6);
        assert!(result.mean_accepted_per_verify > 0.5);
    }

    #[test]
    fn acceptance_estimate_converges_into_plausible_range() {
        let mut engine = SmartSpecEngine::new(SystemConfig::llama70b(1));
        let _ = run(&mut engine, &workload(10), RunOptions::default()).unwrap();
        let alpha = engine.acceptance_estimate();
        assert!((0.3..=0.95).contains(&alpha), "alpha = {alpha}");
    }

    #[test]
    fn picks_longer_chains_at_light_load() {
        let engine = SmartSpecEngine::new(SystemConfig::llama70b(1));
        let k_light = engine.pick_len(1, 512);
        let k_heavy = engine.pick_len(200, 512);
        assert!(k_light >= k_heavy, "light {k_light} !>= heavy {k_heavy}");
    }
}
