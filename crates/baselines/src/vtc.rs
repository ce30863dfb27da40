//! VTC: fair scheduling via virtual token counters.
//!
//! VTC \[44\] provides *fairness* across services: each service (here, each
//! request category) accumulates a counter of tokens served, and the
//! scheduler prioritizes the service with the smallest counter. Fairness is
//! orthogonal to SLO-awareness — an urgent category with heavy traffic gets
//! throttled toward its fair share regardless of its latency needs, which is
//! why VTC underperforms on the Fig. 1 multi-SLO workload.

use crate::common;
use serving::{EngineCore, Iteration, Phase, ServingEngine, StepResult, SystemConfig};
use workload::Category;

/// The VTC baseline engine.
#[derive(Debug)]
pub struct VtcEngine {
    core: EngineCore,
    iter: Iteration,
    /// Per-category virtual token counters (prefill + decode tokens served).
    counters: [f64; 3],
    /// Per-category weights (equal by default).
    weights: [f64; 3],
}

impl VtcEngine {
    /// Creates the engine with equal service weights.
    pub fn new(config: SystemConfig) -> Self {
        Self {
            core: EngineCore::new(config),
            iter: Iteration::default(),
            counters: [0.0; 3],
            weights: [1.0; 3],
        }
    }

    /// Current weighted counter for a category.
    pub fn counter(&self, c: Category) -> f64 {
        self.counters[c.index()] / self.weights[c.index()]
    }

    /// Charges served tokens to a category's counter.
    fn charge(&mut self, c: Category, tokens: f64) {
        self.counters[c.index()] += tokens;
    }
}

impl ServingEngine for VtcEngine {
    fn name(&self) -> String {
        "VTC".into()
    }

    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn step(&mut self, now_ms: f64) -> StepResult {
        // Admission order: least-served category first (the fair-queueing
        // rule), FIFO within a category.
        let mut sorted: Vec<_> = self.core.waiting.drain(..).collect();
        let counters = self.counters;
        let weights = self.weights;
        sorted.sort_by(|a, b| {
            let ca = counters[a.spec.category.index()] / weights[a.spec.category.index()];
            let cb = counters[b.spec.category.index()] / weights[b.spec.category.index()];
            ca.total_cmp(&cb)
                .then(a.spec.arrival_ms.total_cmp(&b.spec.arrival_ms))
        });
        self.core.waiting.extend(sorted);
        self.core.admit_fifo();

        if let Some(result) = self.core.prefill_pass(u32::MAX, now_ms) {
            // Charge prefilled tokens to their categories.
            let charges: Vec<(Category, f64)> = self
                .core
                .running
                .iter()
                .filter(|r| r.prefill_remaining() == 0 && r.generated() == 0)
                .map(|r| (r.spec.category, f64::from(r.prefilled())))
                .collect();
            for (c, t) in charges {
                self.charge(c, t);
            }
            return result;
        }

        // Every selected request is charged one token if the batch runs.
        self.iter.select_decoding(&self.core);
        let charges: Vec<Category> = self
            .core
            .running
            .iter()
            .filter(|r| r.phase == Phase::Decoding)
            .map(|r| r.spec.category)
            .collect();
        let result = common::decode_iteration(&mut self.core, &mut self.iter, 0, now_ms);
        if !self.iter.decoding().is_empty() {
            for c in charges {
                self.charge(c, 1.0);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_run as run;
    use serving::RunOptions;
    use workload::RequestSpec;
    use workload::Workload;

    fn workload() -> Workload {
        let mut requests = Vec::new();
        for id in 0..6u64 {
            requests.push(RequestSpec {
                id,
                category: if id % 2 == 0 {
                    Category::CodingCopilot
                } else {
                    Category::Chatbot
                },
                arrival_ms: id as f64 * 8.0,
                prompt_len: 24,
                output_len: 10,
                tpot_slo_ms: if id % 2 == 0 { 30.0 } else { 50.0 },
                ttft_slo_ms: 1_000.0,
                stream_seed: id,
                prefix: None,
            });
        }
        Workload {
            requests,
            description: "vtc".into(),
        }
    }

    #[test]
    fn completes_all_requests() {
        let mut engine = VtcEngine::new(SystemConfig::llama70b(1));
        let result = run(&mut engine, &workload(), RunOptions::default()).unwrap();
        assert_eq!(result.records.len(), 6);
    }

    #[test]
    fn counters_accumulate_service() {
        let mut engine = VtcEngine::new(SystemConfig::llama70b(1));
        let _ = run(&mut engine, &workload(), RunOptions::default()).unwrap();
        assert!(engine.counter(Category::CodingCopilot) > 0.0);
        assert!(engine.counter(Category::Chatbot) > 0.0);
        // Both categories had equal load → roughly equal service.
        let a = engine.counter(Category::CodingCopilot);
        let b = engine.counter(Category::Chatbot);
        assert!((a / b - 1.0).abs() < 0.5, "unbalanced service: {a} vs {b}");
    }
}
