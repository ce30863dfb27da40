//! vLLM-style continuous batching (the paper's primary baseline).
//!
//! Policy (vLLM v0 scheduler): admit FIFO under memory and batch caps,
//! prioritize prefill of newly admitted prompts (whole-prompt prefill
//! iterations), then decode all running requests one token per iteration.
//! Memory pressure triggers recompute-preemption of the most recently
//! admitted request. All requests share each iteration's latency uniformly —
//! the very property that makes multi-SLO attainment hard (paper Fig. 2).

use crate::common;
use serving::{EngineCore, Iteration, ServingEngine, StepResult, SystemConfig};

/// The vLLM baseline engine.
#[derive(Debug)]
pub struct VllmEngine {
    core: EngineCore,
    iter: Iteration,
}

impl VllmEngine {
    /// Creates the engine.
    pub fn new(config: SystemConfig) -> Self {
        Self {
            core: EngineCore::new(config),
            iter: Iteration::default(),
        }
    }
}

impl ServingEngine for VllmEngine {
    fn name(&self) -> String {
        "vLLM".into()
    }

    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn step(&mut self, now_ms: f64) -> StepResult {
        self.core.admit_fifo();
        // Prefill-prioritized: new prompts run alone (vLLM v0 behaviour).
        if let Some(result) = self.core.prefill_pass(u32::MAX, now_ms) {
            return result;
        }
        self.iter.select_decoding(&self.core);
        common::decode_iteration(&mut self.core, &mut self.iter, 0, now_ms)
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
                arrival_ms: id as f64 * 20.0,
                prompt_len: 24,
                output_len: 10,
                tpot_slo_ms: 50.0,
                ttft_slo_ms: 1_000.0,
                stream_seed: id ^ 0x11,
                prefix: None,
            })
            .collect();
        Workload {
            requests,
            description: "vllm test".into(),
        }
    }

    #[test]
    fn completes_all_requests() {
        let mut engine = VllmEngine::new(SystemConfig::llama70b(1));
        let result = run(&mut engine, &workload(8), RunOptions::default()).unwrap();
        assert_eq!(result.records.len(), 8);
        assert!(result.records.iter().all(|r| r.output_tokens == 10));
    }

    #[test]
    fn per_token_latency_is_roughly_uniform_across_requests() {
        let mut engine = VllmEngine::new(SystemConfig::llama70b(1));
        let result = run(&mut engine, &workload(6), RunOptions::default()).unwrap();
        let tpots: Vec<f64> = result.records.iter().map(|r| r.avg_tpot_ms()).collect();
        let min = tpots.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = tpots.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 2.5, "uniform batching: {min:.1}..{max:.1} ms");
    }

    #[test]
    fn no_speculation_means_zero_accepted() {
        let mut engine = VllmEngine::new(SystemConfig::llama70b(1));
        let result = run(&mut engine, &workload(3), RunOptions::default()).unwrap();
        assert_eq!(result.mean_accepted_per_verify, 0.0);
    }

    #[test]
    fn memory_pressure_causes_preemptions_but_everyone_finishes() {
        let mut config = SystemConfig::llama70b(1);
        config.max_batch = 8;
        let mut engine = VllmEngine::new(config);
        // Shrink the pool: 6 blocks of 16 tokens = 96 tokens for 4 requests
        // needing 34 tokens each at completion.
        engine.core_mut().blocks = serving::BlockManager::new(6, 16);
        let result = run(&mut engine, &workload(4), RunOptions::default()).unwrap();
        assert_eq!(result.records.len(), 4, "conservation under pressure");
        assert!(
            result.records.iter().any(|r| r.preemptions > 0),
            "pressure should trigger at least one preemption"
        );
    }
}
