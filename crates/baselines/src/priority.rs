//! vLLM + Priority: urgent-first scheduling with latency-capped batches.
//!
//! The Fig. 1 study includes vLLM augmented with priorities: urgent requests
//! preempt non-urgent ones during decoding. To actually *meet* a tight SLO,
//! the decode batch must stay small enough that its iteration latency fits
//! the strictest admitted request's TPOT bound — which is exactly why this
//! approach collapses under load: constraining the batch starves the other
//! categories and eventually congests everyone (paper §1).

use crate::common;
use roofline::{ForwardPass, SeqWork};
use serving::{EngineCore, Iteration, Phase, ServingEngine, StepResult, SystemConfig};

/// The vLLM + Priority baseline engine.
#[derive(Debug)]
pub struct PriorityEngine {
    core: EngineCore,
    iter: Iteration,
}

impl PriorityEngine {
    /// Creates the engine.
    pub fn new(config: SystemConfig) -> Self {
        Self {
            core: EngineCore::new(config),
            iter: Iteration::default(),
        }
    }

    /// Estimated latency (ms) of decoding one token for `batch` requests.
    fn decode_latency_estimate(&self, indices: &[usize]) -> f64 {
        let mut pass = ForwardPass::default();
        for &i in indices {
            pass.push(SeqWork::decode(self.core.running[i].context_len()));
        }
        self.core
            .config
            .testbed
            .target
            .forward_latency_ms(&pass, true)
    }
}

impl ServingEngine for PriorityEngine {
    fn name(&self) -> String {
        "vLLM+Priority".into()
    }

    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn step(&mut self, now_ms: f64) -> StepResult {
        // Urgent requests jump the admission queue.
        let waiting: &mut std::collections::VecDeque<_> = &mut self.core.waiting;
        let mut sorted: Vec<_> = waiting.drain(..).collect();
        sorted.sort_by(|a, b| {
            a.spec
                .tpot_slo_ms
                .total_cmp(&b.spec.tpot_slo_ms)
                .then(a.spec.arrival_ms.total_cmp(&b.spec.arrival_ms))
        });
        waiting.extend(sorted);
        self.core.admit_fifo();

        if let Some(result) = self.core.prefill_pass(u32::MAX, now_ms) {
            return result;
        }

        // Build the decode batch in urgency order, capping the batch so its
        // estimated iteration latency fits the strictest member's SLO.
        let mut order: Vec<usize> = self
            .core
            .running
            .iter()
            .enumerate()
            .filter(|(_, r)| r.phase == Phase::Decoding)
            .map(|(i, _)| i)
            .collect();
        order.sort_by(|&a, &b| {
            self.core.running[a]
                .spec
                .tpot_slo_ms
                .total_cmp(&self.core.running[b].spec.tpot_slo_ms)
                .then(
                    self.core.running[a]
                        .spec
                        .arrival_ms
                        .total_cmp(&self.core.running[b].spec.arrival_ms),
                )
        });
        let mut batch: Vec<usize> = Vec::new();
        let mut strictest = f64::INFINITY;
        for &i in &order {
            let mut attempt = batch.clone();
            attempt.push(i);
            let slo = self.core.running[i].spec.tpot_slo_ms.min(strictest);
            if self.decode_latency_estimate(&attempt) <= slo || batch.is_empty() {
                strictest = slo;
                batch = attempt;
            }
        }
        self.iter.select(&self.core, batch);
        common::decode_iteration(&mut self.core, &mut self.iter, 0, now_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_run as run;
    use serving::RunOptions;
    use workload::{Category, RequestSpec, Workload};

    fn two_tier_workload(n_each: u64, tight_slo: f64) -> Workload {
        let mut requests = Vec::new();
        for id in 0..n_each {
            requests.push(RequestSpec {
                id,
                category: Category::CodingCopilot,
                arrival_ms: id as f64 * 12.0,
                prompt_len: 24,
                output_len: 10,
                tpot_slo_ms: tight_slo,
                ttft_slo_ms: 1_000.0,
                stream_seed: id,
                prefix: None,
            });
            requests.push(RequestSpec {
                id: 1000 + id,
                category: Category::Summarization,
                arrival_ms: id as f64 * 12.0 + 3.0,
                prompt_len: 64,
                output_len: 10,
                tpot_slo_ms: 150.0,
                ttft_slo_ms: 1_000.0,
                stream_seed: 1000 + id,
                prefix: None,
            });
        }
        requests.sort_by(|a, b| a.arrival_ms.partial_cmp(&b.arrival_ms).unwrap());
        Workload {
            requests,
            description: "two-tier".into(),
        }
    }

    #[test]
    fn completes_all_requests() {
        let mut engine = PriorityEngine::new(SystemConfig::llama70b(1));
        let result = run(
            &mut engine,
            &two_tier_workload(4, 30.0),
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(result.records.len(), 8);
    }

    #[test]
    fn urgent_requests_jump_the_admission_queue() {
        // With a small batch cap a queue forms; urgent requests are admitted
        // first, so their time-to-first-token is much lower under backlog.
        let mut config = SystemConfig::llama70b(1);
        config.max_batch = 4;
        let mut engine = PriorityEngine::new(config);
        let mut wl = two_tier_workload(10, 30.0);
        // Burst: everyone arrives (nearly) together.
        for r in &mut wl.requests {
            r.arrival_ms = (r.id % 7) as f64 * 0.1;
        }
        wl.requests
            .sort_by(|a, b| a.arrival_ms.partial_cmp(&b.arrival_ms).unwrap());
        let result = run(&mut engine, &wl, RunOptions::default()).unwrap();
        let mean_ttft = |cat: Category| {
            let rs: Vec<f64> = result
                .records
                .iter()
                .filter(|r| r.category == cat)
                .map(|r| r.ttft_ms())
                .collect();
            rs.iter().sum::<f64>() / rs.len() as f64
        };
        assert!(
            mean_ttft(Category::CodingCopilot) < 0.7 * mean_ttft(Category::Summarization),
            "urgent TTFT {:.0} !< relaxed TTFT {:.0}",
            mean_ttft(Category::CodingCopilot),
            mean_ttft(Category::Summarization)
        );
    }
}
