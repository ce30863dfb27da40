//! Integration: failure injection — tiny KV pools force preemption storms;
//! conservation and accounting must hold throughout.

use adaserve::baselines::{
    SarathiEngine, SmartSpecEngine, StaticTreeEngine, VllmEngine, VllmSpecEngine,
};
use adaserve::cluster::RouterKind;
use adaserve::core::AdaServeEngine;
use adaserve::disagg::{DisaggCluster, Dispatcher, KvLink, PrefillPool};
use adaserve::serving::{
    BlockManager, Colocated, RunOptions, RunReport, ServeSession, ServingEngine, SystemConfig,
};
use adaserve::workload::{Category, RequestSpec, Workload};

fn pressure_workload(n: u64) -> Workload {
    let requests = (0..n)
        .map(|id| RequestSpec {
            id,
            category: Category::Chatbot,
            arrival_ms: id as f64 * 4.0,
            prompt_len: 40,
            output_len: 30,
            tpot_slo_ms: 50.0,
            ttft_slo_ms: 1_000.0,
            stream_seed: id ^ 0x77,
            prefix: None,
        })
        .collect();
    Workload {
        requests,
        description: "pressure".into(),
    }
}

fn squeeze(engine: &mut dyn ServingEngine, blocks: u64) {
    engine.core_mut().blocks = BlockManager::new(blocks, 16);
}

fn serve(engine: &mut dyn ServingEngine, wl: &Workload) -> RunReport {
    let name = engine.name();
    ServeSession::new(Colocated::borrowed(engine))
        .serve(wl)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn engines_survive_preemption_storms() {
    // Pool of 10 blocks × 16 tokens = 160 tokens; each request needs 70+ at
    // completion, so at most 2 fit — with 8 in flight, preemption churns.
    let wl = pressure_workload(8);
    let mut engines: Vec<Box<dyn ServingEngine>> = vec![
        Box::new(AdaServeEngine::new(SystemConfig::llama70b(4))),
        Box::new(VllmEngine::new(SystemConfig::llama70b(4))),
        Box::new(SarathiEngine::new(SystemConfig::llama70b(4))),
        Box::new(VllmSpecEngine::new(SystemConfig::llama70b(4), 4)),
    ];
    for engine in &mut engines {
        squeeze(engine.as_mut(), 10);
        let result = serve(engine.as_mut(), &wl);
        assert_eq!(result.records.len(), 8, "{} lost requests", engine.name());
        let preemptions: u32 = result.records.iter().map(|r| r.preemptions).sum();
        assert!(preemptions > 0, "{} should have preempted", engine.name());
        // Pool fully returned.
        let blocks = &engine.core().blocks;
        assert_eq!(
            blocks.free_blocks(),
            blocks.total_blocks(),
            "{}",
            engine.name()
        );
        blocks.validate().unwrap();
    }
}

#[test]
fn preempted_requests_still_produce_correct_token_counts() {
    let wl = pressure_workload(6);
    let mut engine = VllmEngine::new(SystemConfig::llama70b(4));
    squeeze(&mut engine, 8);
    let result = serve(&mut engine, &wl);
    for rec in &result.records {
        assert_eq!(rec.output_tokens, 30);
    }
}

#[test]
fn single_oversized_request_fits_or_errors_cleanly() {
    // A request whose context exceeds the entire pool can never be served;
    // the driver must fail with a clean stall/cap error, not hang or panic.
    let wl = Workload {
        requests: vec![RequestSpec {
            id: 0,
            category: Category::Summarization,
            arrival_ms: 0.0,
            prompt_len: 4000,
            output_len: 4,
            tpot_slo_ms: 150.0,
            ttft_slo_ms: 1_000.0,
            stream_seed: 1,
            prefix: None,
        }],
        description: "oversized".into(),
    };
    let mut engine = VllmEngine::new(SystemConfig::llama70b(4));
    squeeze(&mut engine, 4); // 64-token pool vs 4000-token prompt
    let options = RunOptions {
        max_sim_ms: 60_000.0,
        max_iterations: 100_000,
        ..RunOptions::default()
    };
    // Legacy semantics (admission control off): the run errors out.
    let result = ServeSession::with_options(Colocated::borrowed(&mut engine), options)
        .admission_control(false)
        .serve(&wl);
    assert!(result.is_err(), "oversized request cannot be served");
    // Front-door default: the request is rejected up front and the run
    // completes cleanly (the online admission model's new capability).
    let mut engine = VllmEngine::new(SystemConfig::llama70b(4));
    squeeze(&mut engine, 4);
    let report = ServeSession::with_options(Colocated::borrowed(&mut engine), options)
        .serve(&wl)
        .expect("rejection keeps the run alive");
    assert!(report.records.is_empty());
    assert_eq!(report.rejected.len(), 1);
}

/// One request of `prompt_len + output_len` tokens, alone.
fn alone(prompt_len: u32, output_len: u32) -> Workload {
    Workload {
        requests: vec![RequestSpec {
            id: 0,
            category: Category::Chatbot,
            arrival_ms: 0.0,
            prompt_len,
            output_len,
            tpot_slo_ms: 50.0,
            ttft_slo_ms: 1_000.0,
            stream_seed: 0x77,
            prefix: None,
        }],
        description: "alone".into(),
    }
}

#[test]
fn speculating_engines_finish_a_request_that_fits_the_pool() {
    // 40 + 22 = 62 tokens fit a 64-token pool, but a speculation depth
    // plus one bonus token of headroom does not once the context nears
    // its end. The capacity pass must fall back to the tokens the request
    // still has to emit rather than preempt it, re-admit it and fail the
    // same way until the run hits its time cap.
    let wl = alone(40, 22);
    let mut engines: Vec<Box<dyn ServingEngine>> = vec![
        Box::new(AdaServeEngine::new(SystemConfig::llama70b(4))),
        Box::new(VllmSpecEngine::new(SystemConfig::llama70b(4), 4)),
        Box::new(SmartSpecEngine::new(SystemConfig::llama70b(4))),
        Box::new(StaticTreeEngine::new(SystemConfig::llama70b(4), 4, 2)),
    ];
    for engine in &mut engines {
        squeeze(engine.as_mut(), 4);
        let result = serve(engine.as_mut(), &wl);
        assert_eq!(result.records.len(), 1, "{}", engine.name());
        assert_eq!(result.records[0].output_tokens, 22, "{}", engine.name());
        let blocks = &engine.core().blocks;
        assert_eq!(blocks.free_blocks(), blocks.total_blocks());
    }
}

#[test]
fn a_request_that_can_never_fit_is_refused_at_admission() {
    // 40 + 25 = 65 tokens can never fit a 64-token pool, although the
    // prompt alone does: the front door refuses it instead of letting
    // every engine preempt and recompute it until the time cap.
    let wl = alone(40, 25);
    let refusal = "prompt of 40 tokens plus 25 output tokens exceeds the \
                   deployment's 64-token KV capacity";
    let mut engines: Vec<Box<dyn ServingEngine>> = vec![
        Box::new(VllmEngine::new(SystemConfig::llama70b(4))),
        Box::new(VllmSpecEngine::new(SystemConfig::llama70b(4), 4)),
        Box::new(AdaServeEngine::new(SystemConfig::llama70b(4))),
    ];
    for engine in &mut engines {
        squeeze(engine.as_mut(), 4);
        let report = serve(engine.as_mut(), &wl);
        assert!(report.records.is_empty(), "{}", engine.name());
        assert_eq!(report.rejected.len(), 1, "{}", engine.name());
        assert_eq!(report.rejected[0].1.to_string(), refusal);
    }

    // Disaggregated: the decode pool is the smallest one.
    let mut decode = AdaServeEngine::new(SystemConfig::llama70b(3));
    squeeze(&mut decode, 4);
    let disagg = DisaggCluster::new(
        PrefillPool::new(vec![SystemConfig::llama70b(3)]),
        vec![Box::new(decode)],
        Dispatcher::new(RouterKind::SloAware.build()),
        KvLink::new(300.0, 0.05),
    );
    let report = ServeSession::new(disagg)
        .serve(&wl)
        .expect("refusal keeps the run alive");
    assert!(report.records.is_empty());
    assert_eq!(report.rejected.len(), 1);
    assert_eq!(report.rejected[0].1.to_string(), refusal);
}
