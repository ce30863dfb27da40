//! The benchmark's own tests: the wrappers and the replay change nothing
//! the library does, the output checks catch broken runs, and the
//! printed metric names are the ones `BENCHMARK.json` declares.
//!
//! The shapes simulate real engines, so run these with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use adaserve_core::AdaServeEngine;
use metrics::telemetry::{GaugeSample, Tracer};
use perfbench::measure::{self, TracedWall, END_TO_END, PER_LAYER};
use perfbench::probe::{Boundary, Probe, Span, TimedDeployment, TimedEngine, TimedLm};
use perfbench::shapes::{self, Mode, Run, Scale, Shape};
use serving::{
    Deployment, DeploymentStep, FaultKind, ReplicaAddr, RunError, RunOptions, ServingEngine,
    SystemConfig, UnitStats,
};
use simllm::{ContentClass, Lm, LmContext, ModelPair, TokenId};
use std::cell::RefCell;
use workload::{Category, RequestSpec};

fn run(shape: Shape, mode: &Mode) -> Run {
    shapes::run(shape, Scale::Test, 3, mode).expect("the test-size run completes")
}

#[test]
fn wrapped_runs_serve_exactly_like_plain_runs_on_every_shape() {
    for shape in Shape::ALL {
        let plain = run(shape, &Mode::Plain);
        let probe = Probe::shared();
        let wrapped = run(shape, &Mode::Wrapped(probe.clone()));
        assert!(
            measure::same_outcome(&plain, &wrapped),
            "{}: the timing wrappers changed what was served",
            shape.name()
        );
        assert!(
            probe.engine.calls() > 0,
            "{}: engines were timed",
            shape.name()
        );
        assert!(probe.outer.calls() > 0 && probe.inner.calls() > 0);
        assert!(
            measure::check(&plain).problems.is_empty(),
            "{}",
            shape.name()
        );
    }
}

#[test]
fn replay_reproduces_adaserve_on_every_shape() {
    for shape in Shape::ALL {
        let plain = run(shape, &Mode::Plain);
        let probe = Probe::shared();
        let replay = run(shape, &Mode::Replay(probe.clone()));
        assert!(
            measure::same_outcome(&plain, &replay),
            "{}: the step replay diverged from AdaServeEngine",
            shape.name()
        );
        assert!(probe.draft.calls() > 0 && probe.draft_lm.calls() > 0);
        assert!(probe.verify.calls() > 0 && probe.verify_lm.calls() > 0);
        assert_eq!(
            plain.report.merged_hotloop().dist_cache_hits,
            replay.report.merged_hotloop().dist_cache_hits,
            "{}: the replay queries the models exactly as the engine does",
            shape.name()
        );
    }
}

#[test]
fn router_and_fair_door_boundaries_are_timed_where_they_exist() {
    let probe = Probe::shared();
    run(Shape::FleetSparse, &Mode::Wrapped(probe.clone()));
    assert!(probe.router.calls() > 0, "the cluster routes every arrival");
    assert_eq!(
        probe.outer.ms(),
        probe.inner.ms(),
        "no fair door in a fleet"
    );

    let probe = Probe::shared();
    run(Shape::TenantsDisagg, &Mode::Wrapped(probe.clone()));
    assert!(
        probe.router.calls() > 0,
        "the dispatcher's decode router is timed"
    );
    assert!(
        probe.outer.ms() >= probe.inner.ms(),
        "the door sits above the deployment"
    );
    assert!(probe.drain.calls() == 1, "the session drains once");
}

#[test]
fn a_second_run_in_one_process_repeats_the_memo_hit_rate() {
    let hit_pct = |r: &Run| r.report.merged_hotloop().dist_cache_hit_rate_pct();
    for shape in Shape::ALL {
        let first = run(shape, &Mode::Plain);
        let second = run(shape, &Mode::Plain);
        assert!(hit_pct(&first) > 0.0, "{}: the memo is used", shape.name());
        assert_eq!(
            hit_pct(&first),
            hit_pct(&second),
            "{}: no engine shares a memo with an earlier run",
            shape.name()
        );
    }
}

#[test]
fn output_checks_catch_broken_runs() {
    let good = run(Shape::ColocatedPaper, &Mode::Plain);
    assert!(measure::check(&good).problems.is_empty());

    let mut bad = run(Shape::ColocatedPaper, &Mode::Plain);
    bad.report.records[0].output_tokens += 1;
    assert!(measure::check(&bad).problems[0].contains("emitted"));

    let mut late = run(Shape::ColocatedPaper, &Mode::Plain);
    late.report.records[1].arrival_ms += 0.5;
    assert!(measure::check(&late).problems[0].contains("scheduled for"));

    let mut lost = run(Shape::ColocatedPaper, &Mode::Plain);
    lost.report.records.pop();
    let checked = measure::check(&lost);
    assert_eq!(checked.failed, 1);
    assert!(checked.problems[0].contains("neither finished nor were refused"));
    assert_ne!(
        measure::records_digest(&lost),
        measure::records_digest(&good)
    );
}

#[test]
fn every_metric_computed_is_declared_and_every_declared_metric_is_computed() {
    let probe = Probe::shared();
    let traced = run(Shape::TenantsDisagg, &Mode::Replay(probe.clone()));
    let wall = TracedWall {
        wall_ms: 1.0,
        post_ms: 0.0,
    };
    let mut layers: Vec<&str> = measure::layers(&traced, &probe, wall)
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    layers.push("trace.overhead_pct");
    layers.sort_unstable();
    let mut declared: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
    declared.sort_unstable();
    assert_eq!(layers, declared);

    let mut end_to_end: Vec<&str> = measure::simulated(&traced)
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    end_to_end.extend(["sim_tokens_per_s", "setup_s", "peak_rss_mib"]);
    end_to_end.sort_unstable();
    let mut declared: Vec<&str> = END_TO_END.iter().map(|(name, _)| *name).collect();
    declared.sort_unstable();
    assert_eq!(end_to_end, declared);
}

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(json: &str, list: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("{list} is declared"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the list closes")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("field present");
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = rest[open..].find('"').expect("value closes") + open;
        rest[open..close].to_string()
    };
    body.split('}')
        .filter(|entry| entry.contains("\"name\""))
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn printed_metric_names_and_units_equal_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&json, "end_to_end"), own(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), own(&PER_LAYER));
    for shape in Shape::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", shape.name())));
    }
}

/// A deployment that records which trait methods reached it.
#[derive(Default)]
struct Recorder {
    calls: RefCell<Vec<&'static str>>,
}

impl Recorder {
    fn saw(&self, method: &'static str) {
        self.calls.borrow_mut().push(method);
    }
}

impl Deployment for Recorder {
    fn name(&self) -> String {
        self.saw("name");
        "recorder".into()
    }
    fn max_baseline_ms(&self) -> f64 {
        self.saw("max_baseline_ms");
        12.5
    }
    fn kv_capacity_tokens(&self) -> u64 {
        self.saw("kv_capacity_tokens");
        77
    }
    fn cached_prefix_tokens(&self, _: &RequestSpec) -> u32 {
        self.saw("cached_prefix_tokens");
        5
    }
    fn submit(&mut self, _: RequestSpec, _: f64) {
        self.saw("submit");
    }
    fn next_event_ms(&self) -> Option<f64> {
        self.saw("next_event_ms");
        Some(3.0)
    }
    fn step(&mut self, _: &RunOptions) -> Result<DeploymentStep, RunError> {
        self.saw("step");
        Ok(DeploymentStep::default())
    }
    fn step_until(&mut self, _: f64, _: &RunOptions) -> Result<DeploymentStep, RunError> {
        self.saw("step_until");
        Err(RunError::stalled())
    }
    fn set_accepting(&mut self, _: ReplicaAddr, _: bool, _: f64) {
        self.saw("set_accepting");
    }
    fn iterations(&self) -> u64 {
        self.saw("iterations");
        9
    }
    fn clock_ms(&self) -> f64 {
        self.saw("clock_ms");
        4.0
    }
    fn drain(&mut self) -> Result<Vec<UnitStats>, RunError> {
        self.saw("drain");
        Ok(Vec::new())
    }
    fn set_tracer(&mut self, _: Tracer) {
        self.saw("set_tracer");
    }
    fn gauges(&self) -> GaugeSample {
        self.saw("gauges");
        GaugeSample {
            queue_depth: 6,
            ..GaugeSample::default()
        }
    }
    fn inject_fault(&mut self, _: &FaultKind, _: f64) -> Vec<RequestSpec> {
        self.saw("inject_fault");
        vec![spec()]
    }
    fn clear_fault(&mut self, _: &FaultKind, _: f64) {
        self.saw("clear_fault");
    }
    fn set_degraded(&mut self, _: bool) {
        self.saw("set_degraded");
    }
}

fn spec() -> RequestSpec {
    RequestSpec {
        id: 1,
        category: Category::Chatbot,
        arrival_ms: 0.0,
        prompt_len: 8,
        output_len: 4,
        tpot_slo_ms: 50.0,
        ttft_slo_ms: 1_000.0,
        stream_seed: 7,
        prefix: None,
    }
}

#[test]
fn timed_deployment_forwards_every_trait_method() {
    for boundary in [Boundary::Only, Boundary::Outer, Boundary::Inner] {
        let probe = Probe::shared();
        let mut d = TimedDeployment::new(Recorder::default(), &probe, boundary);
        let options = RunOptions::default();
        let fault = FaultKind::LinkOutage { duration_ms: 1.0 };
        assert_eq!(d.name(), "recorder");
        assert_eq!(d.max_baseline_ms(), 12.5);
        assert_eq!(d.kv_capacity_tokens(), 77);
        assert_eq!(d.cached_prefix_tokens(&spec()), 5);
        d.submit(spec(), 0.0);
        assert_eq!(d.next_event_ms(), Some(3.0));
        assert!(d.step(&options).is_ok());
        assert!(d.step_until(1.0, &options).is_err());
        d.set_accepting(ReplicaAddr::serving(0), false, 0.0);
        assert_eq!(d.iterations(), 9);
        assert_eq!(d.clock_ms(), 4.0);
        assert!(d.drain().expect("drains").is_empty());
        d.set_tracer(Tracer::off());
        assert_eq!(d.gauges().queue_depth, 6);
        assert_eq!(d.inject_fault(&fault, 0.0), vec![spec()]);
        d.clear_fault(&fault, 0.0);
        d.set_degraded(true);
        let seen = d.into_inner().calls.into_inner();
        assert_eq!(
            seen,
            [
                "name",
                "max_baseline_ms",
                "kv_capacity_tokens",
                "cached_prefix_tokens",
                "submit",
                "next_event_ms",
                "step",
                "step_until",
                "set_accepting",
                "iterations",
                "clock_ms",
                "drain",
                "set_tracer",
                "gauges",
                "inject_fault",
                "clear_fault",
                "set_degraded",
            ]
        );
        let timed = if boundary == Boundary::Inner {
            probe.inner.calls()
        } else {
            probe.outer.calls()
        };
        assert_eq!(timed, 17, "every call is timed");
    }
}

#[test]
fn timed_engine_forwards_and_times_each_step() {
    let probe = Probe::shared();
    let mut engine = TimedEngine::new(
        Box::new(AdaServeEngine::new(SystemConfig::llama70b(1))),
        &probe,
    );
    assert_eq!(engine.name(), "AdaServe");
    engine.core_mut().on_arrival(spec());
    assert_eq!(engine.core().waiting.len(), 1);
    engine.step(0.0);
    assert_eq!(
        engine.core().running.len(),
        1,
        "the step reached the engine"
    );
    assert_eq!(probe.engine.calls(), 1);
    assert_eq!(probe.step_ns.lock().expect("step log").len(), 1);
}

#[test]
fn timed_lm_returns_what_the_model_returns() {
    let pair = ModelPair::calibrated(5);
    let span = Span::default();
    let timed = TimedLm::new(pair.draft(), &span);
    let tokens = [TokenId(3), TokenId(40), TokenId(7)];
    let ctx = LmContext::new(9, ContentClass::Code, &tokens);
    let extra = [TokenId(11)];
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let (mut top_a, mut top_b) = (Vec::new(), Vec::new());
    let draft = pair.draft();
    assert_eq!(timed.vocab_size(), draft.vocab_size());
    assert_eq!(timed.next_dist(&ctx), draft.next_dist(&ctx));
    assert_eq!(*timed.next_dist_arc(&ctx), *draft.next_dist_arc(&ctx));
    assert_eq!(
        timed.next_dist_extended(&ctx, &extra, &mut a),
        draft.next_dist_extended(&ctx, &extra, &mut b)
    );
    assert_eq!(
        *timed.next_dist_extended_arc(&ctx, &extra, &mut a),
        *draft.next_dist_extended_arc(&ctx, &extra, &mut b)
    );
    timed.top_w_extended(&ctx, &extra, 3, &mut a, &mut top_a);
    draft.top_w_extended(&ctx, &extra, 3, &mut b, &mut top_b);
    assert_eq!(top_a, top_b);
    assert_eq!(span.calls(), 5, "every distribution query is timed");
}
