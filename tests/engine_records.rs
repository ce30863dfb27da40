//! Record pins: every engine serves exactly the records it served when
//! these digests were captured.
//!
//! Twelve engine configurations each serve two workloads: a seeded
//! RealWorld trace at 3 rps, and the 8-request preemption storm of
//! `tests/memory_pressure.rs` on a 160-token KV pool. Each run is folded
//! into an FNV-1a digest of every record field (the fields perfbench's
//! `records_digest` hashes), the refused ids, the end clock and the
//! iteration count, and compared with a pinned constant. A refactor that
//! claims to keep behaviour leaves every digest unchanged; a deliberate
//! behaviour change re-pins the table and says why.

use adaserve::baselines::{
    FastServeEngine, PriorityEngine, SarathiEngine, SmartSpecEngine, StaticTreeEngine, VllmEngine,
    VllmSpecEngine, VtcEngine,
};
use adaserve::core::{AdaServeEngine, AdaServeOptions};
use adaserve::serving::{
    BlockManager, Colocated, RunReport, ServeSession, ServingEngine, SystemConfig,
};
use adaserve::workload::{Category, RequestSpec, Workload, WorkloadBuilder};

/// Engine name, RealWorld digest and preemption-storm digest, in the
/// order [`engines`] builds them.
const PINS: [(&str, u64, u64); 12] = [
    ("AdaServe", 0x4fa5e80b282ffbfb, 0x786ec982d683ba17),
    ("AdaServe", 0xc1f7828ac84352ec, 0xe377f5c4413cacb7),
    ("vLLM", 0xd61423844e24bc4f, 0x61552a0c395250b1),
    ("Sarathi-Serve", 0x3f33edf22c839657, 0x2591ff5e7d3f3221),
    ("vLLM-Spec(4)", 0x30b184632fa3e3da, 0x970a286456c9c276),
    ("vLLM-Spec(8)", 0x22a6453f40e90cf8, 0x07853f2ec9776fd2),
    ("vLLM+Priority", 0xd61423844e24bc4f, 0x61552a0c395250b1),
    ("FastServe", 0x064d7ad06926f36c, 0xb13687ff9f4a00f6),
    ("VTC", 0xd61423844e24bc4f, 0x61552a0c395250b1),
    ("SmartSpec", 0x7dc98dee92f087fa, 0x2ebaa040451a9737),
    ("StaticTree(4,2)", 0xf570ef463b477943, 0xf9b8f1169a045d0a),
    ("StaticTree(4,1)", 0x30b184632fa3e3da, 0x970a286456c9c276),
];

/// The twelve pinned configurations, each on a fresh engine.
fn engines(config: &SystemConfig) -> Vec<Box<dyn ServingEngine>> {
    let c = || config.clone();
    let ablation = AdaServeOptions {
        adaptive: false,
        slo_selection: false,
        ..AdaServeOptions::default()
    };
    vec![
        Box::new(AdaServeEngine::new(c())),
        Box::new(AdaServeEngine::with_options(c(), ablation)),
        Box::new(VllmEngine::new(c())),
        Box::new(SarathiEngine::new(c())),
        Box::new(VllmSpecEngine::new(c(), 4)),
        Box::new(VllmSpecEngine::new(c(), 8)),
        Box::new(PriorityEngine::new(c())),
        Box::new(FastServeEngine::new(c())),
        Box::new(VtcEngine::new(c())),
        Box::new(SmartSpecEngine::new(c())),
        Box::new(StaticTreeEngine::new(c(), 4, 2)),
        Box::new(StaticTreeEngine::new(c(), 4, 1)),
    ]
}

/// FNV-1a over every record field in record order, then the refused
/// ids, the end clock and the iteration count.
fn digest(report: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in &report.records {
        eat(r.id);
        eat(r.category.index() as u64);
        eat(r.tpot_slo_ms.to_bits());
        eat(r.ttft_slo_ms.to_bits());
        eat(r.arrival_ms.to_bits());
        eat(r.decode_start_ms.to_bits());
        eat(r.completion_ms.to_bits());
        eat(u64::from(r.output_tokens));
        eat(r.accepted_tokens);
        eat(r.verify_steps);
        eat(u64::from(r.preemptions));
    }
    for (id, _) in &report.rejected {
        eat(*id);
    }
    eat(report.end_ms.to_bits());
    eat(report.iterations);
    h
}

fn serve(engine: &mut dyn ServingEngine, wl: &Workload) -> RunReport {
    let name = engine.name();
    ServeSession::new(Colocated::borrowed(engine))
        .serve(wl)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Workload (a): the RealWorld trace at 3 rps for 10 simulated seconds.
fn real_world(config: &SystemConfig) -> Workload {
    WorkloadBuilder::new(7, config.baseline_ms)
        .target_rps(3.0)
        .duration_ms(10_000.0)
        .build()
}

/// Workload (b): eight 70-token requests 4 ms apart.
fn pressure() -> Workload {
    let requests = (0..8)
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

#[test]
fn every_engine_serves_its_pinned_records() {
    let config = SystemConfig::llama70b(1);
    let wl = real_world(&config);
    assert_eq!(wl.requests.len(), 38, "the pinned RealWorld workload");
    let storm = pressure();
    let squeezed = SystemConfig::llama70b(4);

    let mut got = Vec::new();
    for (mut a, mut b) in engines(&config).into_iter().zip(engines(&squeezed)) {
        let name = a.name();
        let real = digest(&serve(a.as_mut(), &wl));
        // 10 blocks × 16 tokens: at most two 70-token requests fit.
        b.core_mut().blocks = BlockManager::new(10, 16);
        let report = serve(b.as_mut(), &storm);
        let preemptions: u32 = report.records.iter().map(|r| r.preemptions).sum();
        assert!(preemptions > 0, "{name} should preempt on a 160-token pool");
        got.push((name, real, digest(&report)));
    }

    let table: String = got
        .iter()
        .map(|(name, a, b)| format!("    ({name:?}, 0x{a:016x}, 0x{b:016x}),\n"))
        .collect();
    let pinned = PINS.iter().map(|&(name, a, b)| (name.to_string(), a, b));
    assert!(
        got.iter().cloned().eq(pinned),
        "served records moved; now:\n{table}"
    );

    // vLLM-Spec(k) is the (k, 1) static tree: a width-1 tree is a chain.
    assert_eq!(
        (got[4].1, got[4].2),
        (got[11].1, got[11].2),
        "vLLM-Spec(4) and StaticTree(4,1) serve the same records"
    );
}
