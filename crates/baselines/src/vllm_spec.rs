//! vLLM with sequence speculative decoding (vLLM-Spec(k)).
//!
//! The paper's strongest baseline: continuous batching plus *static*
//! sequence speculation — every decoding request drafts a fixed-length
//! chain of `k` tokens per iteration, verified by the target model in one
//! batched pass. Static length is the crux of the comparison: it cannot
//! adapt to per-request SLOs (no prioritization) nor to load (at high RPS
//! the fixed chains flood the verifier; at low RPS they under-utilize it) —
//! the behaviour Figs. 8–12 demonstrate.
//!
//! A chain is a width-1 tree, so vLLM-Spec(k) is served by the `(k, 1)`
//! [`StaticTreeEngine`]: it serves the same records, under its own name.

use crate::StaticTreeEngine;
use serving::{EngineCore, ServingEngine, StepResult, SystemConfig};

/// The vLLM-Spec(k) baseline engine: the `(k, 1)` static tree.
#[derive(Debug)]
pub struct VllmSpecEngine(StaticTreeEngine);

impl VllmSpecEngine {
    /// Creates the engine with draft-chain length `spec_len` (the paper
    /// evaluates k ∈ {4, 6, 8}).
    ///
    /// # Panics
    ///
    /// Panics if `spec_len` is zero.
    pub fn new(config: SystemConfig, spec_len: u32) -> Self {
        assert!(spec_len >= 1);
        Self(StaticTreeEngine::new(config, spec_len, 1))
    }
}

impl ServingEngine for VllmSpecEngine {
    fn name(&self) -> String {
        format!("vLLM-Spec({})", self.0.params.depth)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_run as run;
    use serving::RunOptions;
    use workload::{Category, RequestSpec, Workload};

    fn workload(n: u64, category: Category) -> Workload {
        let requests = (0..n)
            .map(|id| RequestSpec {
                id,
                category,
                arrival_ms: id as f64 * 10.0,
                prompt_len: 24,
                output_len: 16,
                tpot_slo_ms: 50.0,
                ttft_slo_ms: 1_000.0,
                stream_seed: id ^ 0x22,
                prefix: None,
            })
            .collect();
        Workload {
            requests,
            description: "spec test".into(),
        }
    }

    #[test]
    fn completes_all_requests() {
        let mut engine = VllmSpecEngine::new(SystemConfig::llama70b(1), 4);
        let result = run(
            &mut engine,
            &workload(5, Category::Chatbot),
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(result.records.len(), 5);
    }

    #[test]
    fn acceptance_is_in_published_range() {
        let mut engine = VllmSpecEngine::new(SystemConfig::llama70b(1), 4);
        let result = run(
            &mut engine,
            &workload(8, Category::Chatbot),
            RunOptions::default(),
        )
        .unwrap();
        assert!(
            result.mean_accepted_per_verify > 1.0 && result.mean_accepted_per_verify < 4.0,
            "mean accepted = {}",
            result.mean_accepted_per_verify
        );
    }

    #[test]
    fn speculation_beats_plain_decoding_on_tpot() {
        let wl = workload(4, Category::CodingCopilot);
        let spec = run(
            &mut VllmSpecEngine::new(SystemConfig::llama70b(1), 4),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        let plain = run(
            &mut crate::vllm::VllmEngine::new(SystemConfig::llama70b(1)),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        let mean_tpot = |res: &serving::RunResult| {
            res.records.iter().map(|r| r.avg_tpot_ms()).sum::<f64>() / res.records.len() as f64
        };
        assert!(
            mean_tpot(&spec) < mean_tpot(&plain),
            "spec {:.1} ms !< plain {:.1} ms",
            mean_tpot(&spec),
            mean_tpot(&plain)
        );
    }

    #[test]
    fn longer_chains_accept_more_per_verification() {
        let wl = workload(4, Category::Chatbot);
        let k4 = run(
            &mut VllmSpecEngine::new(SystemConfig::llama70b(1), 4),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        let k8 = run(
            &mut VllmSpecEngine::new(SystemConfig::llama70b(1), 8),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        assert!(k8.mean_accepted_per_verify >= k4.mean_accepted_per_verify);
    }
}
