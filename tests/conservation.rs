//! Integration: every engine serves every request exactly once, and runs
//! are deterministic for a fixed seed.

use adaserve::baselines::{
    FastServeEngine, PriorityEngine, SarathiEngine, VllmEngine, VllmSpecEngine, VtcEngine,
};
use adaserve::core::AdaServeEngine;
use adaserve::serving::{Colocated, RunReport, ServeSession, ServingEngine, SystemConfig};
use adaserve::workload::{Workload, WorkloadBuilder};

fn workload(config: &SystemConfig) -> Workload {
    WorkloadBuilder::new(77, config.baseline_ms)
        .target_rps(3.0)
        .duration_ms(20_000.0)
        .build()
}

fn serve(engine: &mut dyn ServingEngine, wl: &Workload) -> RunReport {
    let name = engine.name();
    ServeSession::new(Colocated::borrowed(engine))
        .serve(wl)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn engines(seed: u64) -> Vec<Box<dyn ServingEngine>> {
    vec![
        Box::new(AdaServeEngine::new(SystemConfig::llama70b(seed))),
        Box::new(VllmEngine::new(SystemConfig::llama70b(seed))),
        Box::new(SarathiEngine::new(SystemConfig::llama70b(seed))),
        Box::new(VllmSpecEngine::new(SystemConfig::llama70b(seed), 4)),
        Box::new(PriorityEngine::new(SystemConfig::llama70b(seed))),
        Box::new(FastServeEngine::new(SystemConfig::llama70b(seed))),
        Box::new(VtcEngine::new(SystemConfig::llama70b(seed))),
    ]
}

#[test]
fn every_engine_conserves_requests() {
    let config = SystemConfig::llama70b(5);
    let wl = workload(&config);
    assert!(
        wl.requests.len() > 30,
        "workload too small to be meaningful"
    );
    for mut engine in engines(5) {
        let result = serve(engine.as_mut(), &wl);
        assert_eq!(result.records.len(), wl.requests.len(), "{}", engine.name());
        // Every record corresponds to a unique workload request with the
        // full output generated.
        let mut ids: Vec<u64> = result.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            wl.requests.len(),
            "{}: duplicate records",
            engine.name()
        );
        for rec in &result.records {
            let spec = wl
                .requests
                .iter()
                .find(|r| r.id == rec.id)
                .expect("known id");
            assert_eq!(rec.output_tokens, spec.output_len, "{}", engine.name());
            assert!(rec.completion_ms >= rec.decode_start_ms);
            assert!(rec.decode_start_ms >= rec.arrival_ms);
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let config = SystemConfig::llama70b(5);
    let wl = workload(&config);
    for (a, b) in engines(5).into_iter().zip(engines(5)) {
        let mut a = a;
        let mut b = b;
        let ra = serve(a.as_mut(), &wl);
        let rb = serve(b.as_mut(), &wl);
        assert_eq!(
            ra.records, rb.records,
            "{} not deterministic",
            ra.deployment
        );
        assert_eq!(ra.end_ms, rb.end_ms);
        assert_eq!(ra.iterations, rb.iterations);
    }
}

#[test]
fn reports_are_internally_consistent() {
    let config = SystemConfig::llama70b(5);
    let wl = workload(&config);
    for mut engine in engines(5) {
        let result = serve(engine.as_mut(), &wl);
        let report = result.report();
        assert!(report.attainment_pct >= 0.0 && report.attainment_pct <= 100.0);
        assert!(
            report.goodput_tps <= report.throughput_tps + 1e-9,
            "{}",
            engine.name()
        );
        assert_eq!(report.requests, result.records.len());
        let cat_total: usize = report.per_category.iter().map(|c| c.requests).sum();
        assert_eq!(cat_total, report.requests);
    }
}
