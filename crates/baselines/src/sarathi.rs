//! Sarathi-Serve: chunked prefill co-batched with decode.
//!
//! Sarathi-Serve \[1\] observes that prefill is compute-bound while decode
//! underutilizes compute, and fills each iteration with decode tokens plus
//! prompt *chunks* up to a fixed per-iteration token budget. This bounds the
//! latency impact of long prompts on running decodes (improving TTFT
//! fairness) but still serves every request at the same per-token rate.

use crate::common;
use serving::{EngineCore, Iteration, ServingEngine, StepResult, SystemConfig};

/// The Sarathi-Serve baseline engine.
#[derive(Debug)]
pub struct SarathiEngine {
    core: EngineCore,
    iter: Iteration,
    /// Per-iteration token budget shared by decode tokens and prefill chunks.
    token_budget: u32,
}

impl SarathiEngine {
    /// Creates the engine with the canonical 512-token iteration budget.
    pub fn new(config: SystemConfig) -> Self {
        Self::with_budget(config, 512)
    }

    /// Creates the engine with an explicit iteration token budget.
    pub fn with_budget(config: SystemConfig, token_budget: u32) -> Self {
        assert!(token_budget >= 1);
        Self {
            core: EngineCore::new(config),
            iter: Iteration::default(),
            token_budget,
        }
    }
}

impl ServingEngine for SarathiEngine {
    fn name(&self) -> String {
        "Sarathi-Serve".into()
    }

    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn step(&mut self, now_ms: f64) -> StepResult {
        self.core.admit_fifo();
        // Decode tokens claim the budget first (one per decoding request),
        // prefill chunks fill the remainder.
        self.iter.select_decoding(&self.core);
        common::decode_iteration(&mut self.core, &mut self.iter, self.token_budget, now_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_run as run;
    use serving::RunOptions;
    use workload::{Category, RequestSpec, Workload};

    fn mixed_workload() -> Workload {
        // A long-prompt summarization request arrives amid short chats.
        let mut requests: Vec<RequestSpec> = (0..4u64)
            .map(|id| RequestSpec {
                id,
                category: Category::Chatbot,
                arrival_ms: id as f64 * 15.0,
                prompt_len: 24,
                output_len: 12,
                tpot_slo_ms: 50.0,
                ttft_slo_ms: 1_000.0,
                stream_seed: id,
                prefix: None,
            })
            .collect();
        requests.push(RequestSpec {
            id: 4,
            category: Category::Summarization,
            arrival_ms: 30.0,
            prompt_len: 3000,
            output_len: 12,
            tpot_slo_ms: 150.0,
            ttft_slo_ms: 1_000.0,
            stream_seed: 99,
            prefix: None,
        });
        requests.sort_by(|a, b| a.arrival_ms.partial_cmp(&b.arrival_ms).unwrap());
        Workload {
            requests,
            description: "mixed".into(),
        }
    }

    #[test]
    fn completes_all_requests() {
        let mut engine = SarathiEngine::new(SystemConfig::llama70b(1));
        let result = run(&mut engine, &mixed_workload(), RunOptions::default()).unwrap();
        assert_eq!(result.records.len(), 5);
    }

    #[test]
    fn long_prompts_do_not_stall_decodes_as_much_as_vllm() {
        // With a 3000-token prompt arriving mid-stream, Sarathi's chunking
        // caps each iteration, so chat decode latency is less disturbed than
        // under vLLM's whole-prompt prefill.
        let wl = mixed_workload();
        let sarathi = run(
            &mut SarathiEngine::new(SystemConfig::llama70b(1)),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        let vllm = run(
            &mut crate::vllm::VllmEngine::new(SystemConfig::llama70b(1)),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        let worst = |records: &[metrics::RequestRecord]| -> f64 {
            records
                .iter()
                .filter(|r| r.category == Category::Chatbot)
                .map(|r| r.avg_tpot_ms())
                .fold(0.0, f64::max)
        };
        assert!(
            worst(&sarathi.records) <= worst(&vllm.records) * 1.05,
            "sarathi {:.1} ms vs vllm {:.1} ms",
            worst(&sarathi.records),
            worst(&vllm.records)
        );
    }

    #[test]
    fn chunking_respects_budget() {
        let mut engine = SarathiEngine::with_budget(SystemConfig::llama70b(1), 128);
        let result = run(&mut engine, &mixed_workload(), RunOptions::default()).unwrap();
        assert_eq!(result.records.len(), 5);
        // The 3000-token prompt needs ≥ 24 chunked iterations.
        assert!(
            result.iterations >= 24,
            "iterations = {}",
            result.iterations
        );
    }
}
