//! FastServe: preemptive MLFQ scheduling (skip-join multi-level feedback).
//!
//! FastServe \[51\] schedules at iteration granularity with a multi-level
//! feedback queue: requests start in a high-priority level and are demoted
//! as they consume service (generated tokens), so short outputs finish fast
//! and long ones yield. It has no notion of per-request SLOs — the paper's
//! Fig. 1 shows it violating tight-SLO categories under mixed load.

use crate::common;
use serving::{EngineCore, Iteration, Phase, ServingEngine, StepResult, SystemConfig};

/// Generated-token thresholds demoting a request to the next queue level.
const LEVEL_THRESHOLDS: [u32; 3] = [16, 64, 192];

/// The FastServe baseline engine.
#[derive(Debug)]
pub struct FastServeEngine {
    core: EngineCore,
    iter: Iteration,
}

impl FastServeEngine {
    /// Creates the engine.
    pub fn new(config: SystemConfig) -> Self {
        Self {
            core: EngineCore::new(config),
            iter: Iteration::default(),
        }
    }

    /// MLFQ level of a request based on consumed service.
    fn level(generated: u32) -> usize {
        for (lvl, &t) in LEVEL_THRESHOLDS.iter().enumerate() {
            if generated < t {
                return lvl;
            }
        }
        LEVEL_THRESHOLDS.len()
    }
}

impl ServingEngine for FastServeEngine {
    fn name(&self) -> String {
        "FastServe".into()
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
        // Serve only the highest-priority (lowest-level) nonempty queue —
        // iteration-granularity preemption of lower levels.
        let running = &self.core.running;
        let level = |i: usize| Self::level(running[i].generated());
        let decoding = (0..running.len()).filter(|&i| running[i].phase == Phase::Decoding);
        let best_level = decoding.clone().map(level).min();
        self.iter.select(
            &self.core,
            decoding.filter(|&i| Some(level(i)) == best_level),
        );
        common::decode_iteration(&mut self.core, &mut self.iter, 0, now_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_run as run;
    use serving::RunOptions;
    use workload::{Category, RequestSpec, Workload};

    fn mixed_lengths() -> Workload {
        let mut requests = Vec::new();
        // One long-output request arrives first, short ones after.
        requests.push(RequestSpec {
            id: 0,
            category: Category::Summarization,
            arrival_ms: 0.0,
            prompt_len: 32,
            output_len: 120,
            tpot_slo_ms: 150.0,
            ttft_slo_ms: 1_000.0,
            stream_seed: 0,
            prefix: None,
        });
        for id in 1..5u64 {
            requests.push(RequestSpec {
                id,
                category: Category::Chatbot,
                arrival_ms: 5.0 * id as f64,
                prompt_len: 16,
                output_len: 10,
                tpot_slo_ms: 50.0,
                ttft_slo_ms: 1_000.0,
                stream_seed: id,
                prefix: None,
            });
        }
        Workload {
            requests,
            description: "mixed lengths".into(),
        }
    }

    #[test]
    fn completes_all_requests() {
        let mut engine = FastServeEngine::new(SystemConfig::llama70b(1));
        let result = run(&mut engine, &mixed_lengths(), RunOptions::default()).unwrap();
        assert_eq!(result.records.len(), 5);
    }

    #[test]
    fn short_outputs_finish_before_long_ones() {
        let mut engine = FastServeEngine::new(SystemConfig::llama70b(1));
        let result = run(&mut engine, &mixed_lengths(), RunOptions::default()).unwrap();
        let long_done = result
            .records
            .iter()
            .find(|r| r.id == 0)
            .unwrap()
            .completion_ms;
        for r in result.records.iter().filter(|r| r.id != 0) {
            assert!(
                r.completion_ms < long_done,
                "short request {} finished after the long one",
                r.id
            );
        }
    }

    #[test]
    fn levels_demote_by_service() {
        assert_eq!(FastServeEngine::level(0), 0);
        assert_eq!(FastServeEngine::level(16), 1);
        assert_eq!(FastServeEngine::level(100), 2);
        assert_eq!(FastServeEngine::level(500), 3);
    }
}
