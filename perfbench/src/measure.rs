//! Metric definitions, output checks and the numbers computed from runs.

use crate::probe::Probe;
use crate::shapes::{Offer, Run};
use metrics::percentile;
use std::collections::{HashMap, HashSet};

/// The end-to-end metrics (untraced run): name and unit. Simulated
/// quantities carry `sim_` units; wall and memory quantities are real.
pub const END_TO_END: [(&str, &str); 9] = [
    ("sim_tokens_per_s", "tokens/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("slo_attainment_pct", "%"),
    ("goodput_tokens_per_sim_s", "tokens/sim_s"),
    ("ttft_ms_p50", "sim_ms"),
    ("ttft_ms_p99", "sim_ms"),
    ("tpot_ms_p50", "sim_ms"),
    ("tpot_ms_p99", "sim_ms"),
];

/// The per-layer metrics (traced run): name and unit.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("session.self_ms", "ms"),
    ("session.calls", "count"),
    ("fairness.self_ms", "ms"),
    ("fairness.refused", "count"),
    ("fairness.tenant_spread_pct", "%"),
    ("router.busy_ms", "ms"),
    ("router.calls", "count"),
    ("router.ns_per_call", "ns"),
    ("deployment.self_ms", "ms"),
    ("deployment.next_event_ms", "ms"),
    ("deployment.steps", "count"),
    ("engine.busy_ms", "ms"),
    ("engine.iterations", "count"),
    ("engine.step_us_p50", "us"),
    ("engine.step_us_p99", "us"),
    ("engine.decode_batch_mean", "requests"),
    ("draft.busy_ms", "ms"),
    ("draft.lm_ms", "ms"),
    ("draft.lm_calls", "count"),
    ("draft.tokens_per_output_token", "ratio"),
    ("scsd.busy_ms", "ms"),
    ("scsd.subtree_ms", "ms"),
    ("verify.busy_ms", "ms"),
    ("verify.lm_ms", "ms"),
    ("verify.lm_calls", "count"),
    ("verify.accept_ratio", "ratio"),
    ("verify.accepted_per_step", "tokens"),
    ("kv.busy_ms", "ms"),
    ("kv.preemptions", "count"),
    ("roofline.busy_ms", "ms"),
    ("memo.hit_pct", "%"),
    ("memo.lookups", "count"),
    ("prefix.hit_pct", "%"),
    ("prefix.tokens_saved", "tokens"),
    ("prefix.inserted_tokens", "tokens"),
    ("prefix.evicted_tokens", "tokens"),
    ("disagg.transfers", "count"),
    ("disagg.transfer_mib", "MiB"),
    ("disagg.prefill_tokens", "tokens"),
    ("wait.queueing_ms_mean", "sim_ms"),
    ("wait.prefill_ms_mean", "sim_ms"),
    ("wait.transfer_ms_mean", "sim_ms"),
    ("wait.preemption_ms_mean", "sim_ms"),
    ("setup.workload_ms", "ms"),
    ("setup.deployment_ms", "ms"),
    ("report.ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// Per-layer rows measured inside the engine; they come from the replay
/// and are reported missing when the replay no longer matches the engine.
pub const ENGINE_INTERNAL: [&str; 14] = [
    "engine.decode_batch_mean",
    "draft.busy_ms",
    "draft.lm_ms",
    "draft.lm_calls",
    "draft.tokens_per_output_token",
    "scsd.busy_ms",
    "scsd.subtree_ms",
    "verify.busy_ms",
    "verify.lm_ms",
    "verify.lm_calls",
    "verify.accept_ratio",
    "verify.accepted_per_step",
    "kv.busy_ms",
    "roofline.busy_ms",
];

/// The result of the output checks on one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checked {
    /// Requests the workload offered.
    pub offered: usize,
    /// Requests that finished.
    pub finished: usize,
    /// Requests refused at the front door or never finished.
    pub failed: usize,
    /// Every violated check, one line each; empty when correct.
    pub problems: Vec<String>,
}

/// Checks one run's outputs against what its workload offered:
/// conservation (offered = finished + failed, no request lost, finished
/// twice or invented), every finished record's output length, and every
/// record's arrival time against its scheduled arrival.
pub fn check(run: &Run) -> Checked {
    let mut problems = Vec::new();
    let offered: HashMap<u64, &Offer> = run.offered.iter().map(|o| (o.id, o)).collect();
    if offered.len() != run.offered.len() {
        problems.push("the workload offered a request id twice".to_string());
    }
    let mut finished = HashSet::new();
    for r in &run.report.records {
        if !finished.insert(r.id) {
            problems.push(format!("request {} finished twice", r.id));
        }
        match offered.get(&r.id) {
            None => problems.push(format!("request {} finished but was never offered", r.id)),
            Some(o) => {
                if r.output_tokens != o.output_len {
                    problems.push(format!(
                        "request {} emitted {} tokens, asked for {}",
                        r.id, r.output_tokens, o.output_len
                    ));
                }
                if r.arrival_ms.to_bits() != o.arrival_ms.to_bits() {
                    problems.push(format!(
                        "request {} arrived at {} ms, scheduled for {} ms",
                        r.id, r.arrival_ms, o.arrival_ms
                    ));
                }
            }
        }
    }
    let mut refused = 0;
    for (id, _) in &run.report.rejected {
        if !offered.contains_key(id) || finished.contains(id) {
            problems.push(format!(
                "request {id} was refused but not offered, or finished"
            ));
        }
        refused += 1;
    }
    let settled = finished.len() + refused;
    if settled < offered.len() {
        problems.push(format!(
            "{} offered requests neither finished nor were refused",
            offered.len() - settled
        ));
    }
    // Keep the first few problems: one broken invariant repeats per request.
    problems.truncate(8);
    Checked {
        offered: run.offered.len(),
        finished: run.report.records.len(),
        failed: run.offered.len().saturating_sub(run.report.records.len()),
        problems,
    }
}

/// FNV-1a digest of every record field, in record order: two runs that
/// served the same requests the same way print the same digest.
pub fn records_digest(run: &Run) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in &run.report.records {
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
    for (id, _) in &run.report.rejected {
        eat(*id);
    }
    h
}

/// Whether two runs served identically: same records, refusals, end time
/// and iteration count.
pub fn same_outcome(a: &Run, b: &Run) -> bool {
    a.report.records == b.report.records
        && a.report.rejected == b.report.rejected
        && a.report.end_ms.to_bits() == b.report.end_ms.to_bits()
        && a.report.iterations == b.report.iterations
}

/// The six simulated end-to-end metrics of a run: pure functions of the
/// seed, in [`END_TO_END`] order after the three wall/memory metrics.
pub fn simulated(run: &Run) -> [(&'static str, f64); 6] {
    let records = &run.report.records;
    let good: Vec<_> = records
        .iter()
        .filter(|r| r.attained() && r.ttft_attained())
        .collect();
    let first_arrival = run
        .offered
        .iter()
        .map(|o| o.arrival_ms)
        .fold(f64::INFINITY, f64::min);
    let last_completion = records
        .iter()
        .map(|r| r.completion_ms)
        .fold(f64::NEG_INFINITY, f64::max);
    let makespan_s = ((last_completion - first_arrival) / 1e3).max(1e-9);
    let good_tokens: u64 = good.iter().map(|r| u64::from(r.output_tokens)).sum();
    let ttft: Vec<f64> = records.iter().map(|r| r.ttft_ms()).collect();
    let tpot: Vec<f64> = records.iter().map(|r| r.avg_tpot_ms()).collect();
    [
        (
            "slo_attainment_pct",
            100.0 * good.len() as f64 / run.offered.len().max(1) as f64,
        ),
        ("goodput_tokens_per_sim_s", good_tokens as f64 / makespan_s),
        ("ttft_ms_p50", percentile(&ttft, 50.0)),
        ("ttft_ms_p99", percentile(&ttft, 99.0)),
        ("tpot_ms_p50", percentile(&tpot, 50.0)),
        ("tpot_ms_p99", percentile(&tpot, 99.0)),
    ]
}

/// Simulated output tokens the run served.
pub fn output_tokens(run: &Run) -> u64 {
    run.report
        .records
        .iter()
        .map(|r| u64::from(r.output_tokens))
        .sum()
}

/// Wall-clock account of one traced repetition, outside the probe.
#[derive(Debug, Clone, Copy)]
pub struct TracedWall {
    /// Setup, serve, report and teardown.
    pub wall_ms: f64,
    /// Computing the run's metrics after `serve` returned.
    pub post_ms: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer rows of one traced repetition.
pub fn layers(run: &Run, p: &Probe, wall: TracedWall) -> Vec<(&'static str, f64)> {
    let setup_ms = run.workload_ms + run.deployment_ms;
    let report_ms = p.drain.ms() + wall.post_ms;
    let session_self = run.serve_ms - p.outer.ms();
    let fairness_self = p.outer.ms() - p.inner.ms();
    let deployment_self = p.inner.ms() - p.engine.ms() - p.router.ms() - p.drain.ms();
    // Each self time above subtracts its children, so the named layers
    // tile set-up, serving and reporting; the wall beyond them is teardown
    // and the glue between timers.
    let named = setup_ms + run.serve_ms + wall.post_ms;
    let step_us: Vec<f64> = p
        .step_ns
        .lock()
        .expect("step log lock poisoned")
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let hot = run.report.merged_hotloop();
    let c = &run.counters;
    let waits = run.waits.unwrap_or_default();
    vec![
        ("session.self_ms", session_self),
        ("session.calls", p.outer.calls() as f64),
        ("fairness.self_ms", fairness_self),
        ("fairness.refused", c.refused as f64),
        ("fairness.tenant_spread_pct", c.tenant_spread_pct),
        ("router.busy_ms", p.router.ms()),
        ("router.calls", p.router.calls() as f64),
        (
            "router.ns_per_call",
            ratio(p.router.ms() * 1e6, p.router.calls() as f64),
        ),
        ("deployment.self_ms", deployment_self),
        ("deployment.next_event_ms", p.next_event.ms()),
        ("deployment.steps", p.steps.calls() as f64),
        ("engine.busy_ms", p.engine.ms()),
        ("engine.iterations", p.engine.calls() as f64),
        ("engine.step_us_p50", percentile(&step_us, 50.0)),
        ("engine.step_us_p99", percentile(&step_us, 99.0)),
        (
            "engine.decode_batch_mean",
            ratio(
                p.decode_batch_sum.get() as f64,
                p.decode_iterations.get() as f64,
            ),
        ),
        ("draft.busy_ms", p.draft.ms()),
        ("draft.lm_ms", p.draft_lm.ms()),
        ("draft.lm_calls", p.draft_lm.calls() as f64),
        (
            "draft.tokens_per_output_token",
            ratio(p.draft_tokens.get() as f64, p.emitted.get() as f64),
        ),
        ("scsd.busy_ms", p.scsd.ms()),
        ("scsd.subtree_ms", p.subtree.ms()),
        ("verify.busy_ms", p.verify.ms()),
        ("verify.lm_ms", p.verify_lm.ms()),
        ("verify.lm_calls", p.verify_lm.calls() as f64),
        (
            "verify.accept_ratio",
            ratio(p.accepted.get() as f64, p.speculated.get() as f64),
        ),
        (
            "verify.accepted_per_step",
            ratio(p.accepted.get() as f64, p.verifies.get() as f64),
        ),
        ("kv.busy_ms", p.kv.ms()),
        (
            "kv.preemptions",
            run.report
                .records
                .iter()
                .map(|r| f64::from(r.preemptions))
                .sum(),
        ),
        ("roofline.busy_ms", p.roofline.ms()),
        ("memo.hit_pct", hot.dist_cache_hit_rate_pct()),
        (
            "memo.lookups",
            (hot.dist_cache_hits + hot.dist_cache_misses) as f64,
        ),
        ("prefix.hit_pct", c.prefix.hit_rate_pct()),
        ("prefix.tokens_saved", c.prefix.prefill_tokens_saved as f64),
        ("prefix.inserted_tokens", c.prefix.inserted_tokens as f64),
        ("prefix.evicted_tokens", c.prefix.evicted_tokens as f64),
        ("disagg.transfers", c.transfers.transfers as f64),
        (
            "disagg.transfer_mib",
            c.transfers.bytes as f64 / (1024.0 * 1024.0),
        ),
        ("disagg.prefill_tokens", c.prefill_tokens as f64),
        ("wait.queueing_ms_mean", waits.queueing_ms),
        ("wait.prefill_ms_mean", waits.prefill_ms),
        ("wait.transfer_ms_mean", waits.transfer_ms),
        ("wait.preemption_ms_mean", waits.preemption_ms),
        ("setup.workload_ms", run.workload_ms),
        ("setup.deployment_ms", run.deployment_ms),
        ("report.ms", report_ms),
        ("trace.coverage_pct", 100.0 * ratio(named, wall.wall_ms)),
    ]
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The process's peak resident set in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
