//! Sequoia-style static *tree* speculation (related work \[9\]).
//!
//! Sequoia picks one hardware-aware tree topology offline and uses it for
//! every request and every iteration. This engine reproduces that policy on
//! the shared substrate: each decoding request speculates a fixed
//! `(depth, width)` beam tree and the whole candidate tree is verified —
//! no per-request selection, no SLO awareness, no load adaptation. It sits
//! between vLLM-Spec (chains) and AdaServe (SLO-customized trees) in the
//! design space and is used by the ablation harness.

use serving::{EngineCore, Iteration, ServingEngine, StepResult, SystemConfig};
use spectree::SpecParams;

/// The static-tree speculation baseline engine.
#[derive(Debug)]
pub struct StaticTreeEngine {
    core: EngineCore,
    iter: Iteration,
    pub(crate) params: SpecParams,
}

impl StaticTreeEngine {
    /// Creates the engine with a fixed `(depth, width)` topology.
    pub fn new(config: SystemConfig, depth: u32, width: u32) -> Self {
        Self {
            core: EngineCore::new(config),
            iter: Iteration::default(),
            params: SpecParams::new(depth, width),
        }
    }
}

impl ServingEngine for StaticTreeEngine {
    fn name(&self) -> String {
        format!("StaticTree({},{})", self.params.depth, self.params.width)
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
        // Draft and verify the full static tree for every request.
        self.iter.select_decoding(&self.core);
        self.iter
            .speculate_verify(&mut self.core, self.params, now_ms)
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
                category: Category::CodingCopilot,
                arrival_ms: id as f64 * 10.0,
                prompt_len: 24,
                output_len: 16,
                tpot_slo_ms: 30.0,
                ttft_slo_ms: 1_000.0,
                stream_seed: id ^ 0x91,
                prefix: None,
            })
            .collect();
        Workload {
            requests,
            description: "static tree".into(),
        }
    }

    #[test]
    fn completes_all_requests() {
        let mut engine = StaticTreeEngine::new(SystemConfig::llama70b(1), 4, 2);
        let result = run(&mut engine, &workload(5), RunOptions::default()).unwrap();
        assert_eq!(result.records.len(), 5);
    }

    #[test]
    fn trees_accept_more_than_chains_of_equal_depth() {
        // Width > 1 covers sibling continuations, so acceptance per
        // verification should not be below the width-1 chain's.
        let wl = workload(6);
        let tree = run(
            &mut StaticTreeEngine::new(SystemConfig::llama70b(1), 4, 3),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        let chain = run(
            &mut crate::vllm_spec::VllmSpecEngine::new(SystemConfig::llama70b(1), 4),
            &wl,
            RunOptions::default(),
        )
        .unwrap();
        assert!(
            tree.mean_accepted_per_verify >= chain.mean_accepted_per_verify - 0.05,
            "tree {:.2} vs chain {:.2}",
            tree.mean_accepted_per_verify,
            chain.mean_accepted_per_verify
        );
    }
}
