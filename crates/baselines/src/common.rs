//! The plain-decode iteration the non-speculating baselines share.

use roofline::{ForwardPass, SeqWork};
use serving::{EngineCore, Iteration, StepResult};

/// One continuous-batching decode iteration over the requests `iter` has
/// selected: each gets one token of KV headroom (growth may preempt
/// others, see [`Iteration::reserve`]) and one target token. Prompt chunks
/// fill what `token_budget` leaves after the decode tokens (Sarathi-Serve's
/// chunked prefill); a budget of 0 decodes only (vLLM's iteration). An
/// iteration with nothing to run is an idle tick.
pub fn decode_iteration(
    core: &mut EngineCore,
    iter: &mut Iteration,
    token_budget: u32,
    now_ms: f64,
) -> StepResult {
    let decode_tokens = iter.reserve(core, 1) as u32;
    let plan = core.plan_prefill(token_budget.saturating_sub(decode_tokens));
    if decode_tokens == 0 && plan.is_empty() {
        return StepResult::IDLE;
    }
    let decoding = iter.decoding();
    let mut pass = ForwardPass::new(
        decoding
            .iter()
            .map(|&i| SeqWork::decode(core.running[i].context_len()))
            .collect(),
    );
    for &(i, chunk) in &plan {
        pass.push(SeqWork::prefill(chunk, core.running[i].prefilled()));
    }
    // Mixed chunked batches preclude CUDA-graph capture; decode-only
    // iterations replay captured graphs.
    let ms = core
        .config
        .testbed
        .target
        .forward_latency_ms(&pass, plan.is_empty());
    for &i in decoding {
        let token = core.next_token(i);
        let r = &mut core.running[i];
        r.push_token(token);
        r.verify_steps += 1;
    }
    core.apply_prefill(&plan);
    if plan.is_empty() {
        core.breakdown.verification_ms += ms;
    } else {
        // Split a co-batched iteration between prefill and decode by
        // token share, for the breakdown figure.
        let prefill_tokens = plan.iter().map(|&(_, c)| f64::from(c)).sum::<f64>();
        let pre_share = prefill_tokens / (f64::from(decode_tokens) + prefill_tokens);
        core.breakdown.prefill_ms += ms * pre_share;
        core.breakdown.verification_ms += ms * (1.0 - pre_share);
    }
    core.stamp_decode_starts(now_ms + ms);
    core.collect_finished(now_ms + ms);
    StepResult { latency_ms: ms }
}

/// Test-only front-door drive of one engine, shared by every baseline's
/// unit tests: a session over the borrowed engine, unwrapped into the
/// engine's own [`serving::RunResult`].
#[cfg(test)]
pub(crate) fn test_run(
    engine: &mut dyn serving::ServingEngine,
    workload: &workload::Workload,
    options: serving::RunOptions,
) -> Result<serving::RunResult, serving::RunError> {
    serving::ServeSession::with_options(serving::Colocated::borrowed(engine), options)
        .serve(workload)
        .map(serving::RunReport::into_colocated_result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serving::SystemConfig;
    use workload::{Category, RequestSpec};

    fn core_with(n: u64) -> EngineCore {
        let mut core = EngineCore::new(SystemConfig::llama70b(2));
        for id in 0..n {
            core.on_arrival(RequestSpec {
                id,
                category: Category::Chatbot,
                arrival_ms: 0.0,
                prompt_len: 16,
                output_len: 4,
                tpot_slo_ms: 50.0,
                ttft_slo_ms: 1_000.0,
                stream_seed: id,
                prefix: None,
            });
        }
        core.admit_fifo();
        core
    }

    #[test]
    fn prefill_then_decode_completes_requests() {
        let mut core = core_with(2);
        let mut iter = Iteration::default();
        let pre = core.prefill_pass(u32::MAX, 0.0).expect("prefill runs");
        assert!(pre.latency_ms > 0.0);
        assert!(core.prefill_pass(u32::MAX, 1.0).is_none(), "prefill done");
        let mut now = pre.latency_ms;
        for _ in 0..4 {
            assert_eq!(iter.select_decoding(&core), 2);
            let step = decode_iteration(&mut core, &mut iter, 0, now);
            assert!(step.latency_ms > 0.0 && step != StepResult::IDLE);
            now += step.latency_ms;
        }
        assert_eq!(core.finished_count(), 2);
    }

    #[test]
    fn decode_iteration_with_no_ids_is_free() {
        let mut core = core_with(1);
        let mut iter = Iteration::default();
        iter.select(&core, []);
        let step = decode_iteration(&mut core, &mut iter, 0, 0.0);
        assert_eq!(step, StepResult::IDLE);
        assert_eq!(core.breakdown.verification_ms, 0.0, "no model time");
    }
}
