//! `check_bench_json` — schema validator for `BENCH_*.json` artifacts.
//!
//! CI's `bench-json` step pipes every emitted artifact through this binary
//! before uploading; a missing required key fails the job with every
//! violation listed.
//!
//! Beyond the per-kind schemas, two artifact kinds carry semantic gates:
//!
//! * fleet artifacts (`"kind": "fleet"`, from `fig_fleet_scaling`) — the
//!   4-replica row measured under a sharded executor must not be slower
//!   than its sequential pair ([`SPEEDUP_FLOOR`] documents the tolerated
//!   noise);
//! * prefix artifacts (`"kind": "prefix"`, from `fig_prefix_cache`) —
//!   every cache-on row over shared-prefix traffic must report a hit rate
//!   of at least [`HIT_RATE_FLOOR_PCT`], and no cache-on row may have a
//!   worse p50 TTFT than its cache-off twin beyond
//!   [`TTFT_NOISE_FACTOR`];
//! * attribution artifacts (`"kind": "attribution"`, from
//!   `fig_slo_attribution`) — every row with requests must report phase
//!   shares summing to ~100%;
//! * perf artifacts (`"kind": "perf"`, from `perf_report`) — a disabled
//!   tracer must stay free: the `tracer=off` row's wall-clock may not
//!   exceed the base colocated row's by more than
//!   [`TRACER_OVERHEAD_FACTOR`]; and the `colocated …` rows, which serve
//!   identical records on fresh engines, must report one distribution
//!   cache hit rate (a spread means runs shared a memo);
//! * autoscale artifacts (`"kind": "autoscale"`, from `fig_autoscale`) —
//!   every autoscaled row must have actually scaled (≥ 1 join, peak past
//!   the floor), priced under [`REPLICA_HOURS_CEILING_FACTOR`] of the
//!   static-max reference, with burst attainment within
//!   [`BURST_DROP_TOLERANCE_PTS`] of steady state; and the weighted-fair
//!   row's per-tenant attainment spread may not exceed the FIFO row's;
//! * chaos artifacts (`"kind": "chaos"`, from `fig_chaos`) — every row
//!   must conserve requests (offered = finished + rejected), the no-fault
//!   row must be untouched by the chaos machinery (0 faults, retries and
//!   rejections), and under the same seeded fault schedule the
//!   with-recovery row's offered-basis attainment must be strictly above
//!   the no-recovery row's — recovery has to earn its keep.
//!
//! ```sh
//! cargo run -p adaserve-bench --bin check_bench_json -- BENCH_foo.json [...]
//! ```
//!
//! Exit status: 0 if every file is schema-valid (and gates hold), 1
//! otherwise, 2 on usage errors.

use adaserve_bench::json::{self, Json};
use adaserve_bench::summary::validate;

/// Minimum accepted 4-replica sharded speedup.
///
/// On a multi-core host the sharded executor genuinely wins at 4
/// replicas; on a single-core CI runner the two executors are within
/// timer noise of each other (batching only amortizes per-step
/// scheduling scans there). Repeated best-of-5 sweeps on one core put
/// the 4-replica pair within ±5% run to run, while the regression this
/// gate exists to catch — the executor falling back to per-step thread
/// spawning — measured ~0.92. A 0.95 floor separates the two without
/// flaking on jitter.
const SPEEDUP_FLOOR: f64 = 0.95;

/// Applies the fleet-artifact gate: every 4-replica row measured under a
/// sharded executor must report `speedup >= SPEEDUP_FLOOR`. Returns the
/// violations found (empty when the artifact is not a fleet artifact or
/// carries no sharded 4-replica row, e.g. under `ADASERVE_EXEC=sequential`).
fn fleet_gate(doc: &Json) -> Vec<String> {
    if doc.get("kind").and_then(Json::as_str) != Some("fleet") {
        return Vec::new();
    }
    let Some(rows) = doc.get("rows").and_then(Json::as_arr) else {
        return Vec::new();
    };
    let mut errors = Vec::new();
    for row in rows {
        let replicas = row.get("replicas").and_then(Json::as_num);
        let exec = row.get("exec").and_then(Json::as_str).unwrap_or("");
        let speedup = row.get("speedup").and_then(Json::as_num);
        if replicas == Some(4.0) && exec.starts_with("sharded") {
            match speedup {
                Some(s) if s >= SPEEDUP_FLOOR => {}
                Some(s) => errors.push(format!(
                    "4-replica {exec} row is slower than sequential: speedup {s:.3} < \
                     {SPEEDUP_FLOOR} — the executor lost its tracked win"
                )),
                None => errors.push("4-replica sharded row lacks a speedup".into()),
            }
        }
    }
    errors
}

/// Minimum accepted prefix-cache hit rate (percent) on a cache-on row
/// whose workload shares a prefix.
///
/// The sweep's lowest shared-prompt share is 30%, so a healthy cache sees
/// hit rates well above this on every row; the gate exists to catch the
/// cache silently never matching (hash drift, pin leak evicting
/// everything), which reads as ~0%, not as a modest dip.
const HIT_RATE_FLOOR_PCT: f64 = 10.0;

/// Tolerated p50 TTFT ratio (on / off) before a cache-on row counts as a
/// regression. Skipped prefill only removes work, so the cache must not
/// make the median first token slower; 1.05 absorbs scheduling noise at
/// smoke durations.
const TTFT_NOISE_FACTOR: f64 = 1.05;

/// Applies the prefix-artifact gate (see module docs). Rows pair up by
/// `label`; a cache-on row missing its off twin is only checked for the
/// hit-rate floor.
fn prefix_gate(doc: &Json) -> Vec<String> {
    if doc.get("kind").and_then(Json::as_str) != Some("prefix") {
        return Vec::new();
    }
    let Some(rows) = doc.get("rows").and_then(Json::as_arr) else {
        return Vec::new();
    };
    let off_p50 = |label: &str| {
        rows.iter()
            .find(|r| {
                r.get("label").and_then(Json::as_str) == Some(label)
                    && r.get("cache").and_then(Json::as_str) == Some("off")
            })
            .and_then(|r| r.get("p50_ttft_ms").and_then(Json::as_num))
    };
    let mut errors = Vec::new();
    for row in rows {
        if row.get("cache").and_then(Json::as_str) != Some("on") {
            continue;
        }
        let label = row.get("label").and_then(Json::as_str).unwrap_or("?");
        let share = row.get("prefix_share_pct").and_then(Json::as_num);
        let hit = row.get("prefix_hit_rate_pct").and_then(Json::as_num);
        if share.is_some_and(|s| s > 0.0) {
            match hit {
                Some(h) if h >= HIT_RATE_FLOOR_PCT => {}
                Some(h) => errors.push(format!(
                    "{label}: cache-on row over shared traffic hit only {h:.1}% < \
                     {HIT_RATE_FLOOR_PCT}% — the prefix cache stopped matching"
                )),
                None => errors.push(format!("{label}: cache-on row lacks a hit rate")),
            }
        }
        if let (Some(on), Some(off)) = (
            row.get("p50_ttft_ms").and_then(Json::as_num),
            off_p50(label),
        ) {
            if on > off * TTFT_NOISE_FACTOR {
                errors.push(format!(
                    "{label}: cache-on p50 TTFT {on:.1} ms regressed past cache-off \
                     {off:.1} ms × {TTFT_NOISE_FACTOR} — reuse made latency worse"
                ));
            }
        }
    }
    errors
}

/// Tolerated share-sum deviation from 100% on an attribution row
/// (percentage points). Each request's shares sum to exactly 100 and the
/// pooled mean preserves that; anything past rounding noise means the
/// decomposition dropped or double-counted a phase.
const SHARE_SUM_TOLERANCE_PCT: f64 = 0.5;

/// Applies the attribution-artifact gate: every row with requests must
/// report phase shares summing to ~100%. Returns the violations found
/// (empty when the artifact is not an attribution artifact).
fn attribution_gate(doc: &Json) -> Vec<String> {
    if doc.get("kind").and_then(Json::as_str) != Some("attribution") {
        return Vec::new();
    }
    let Some(rows) = doc.get("rows").and_then(Json::as_arr) else {
        return Vec::new();
    };
    let mut errors = Vec::new();
    for row in rows {
        let label = row.get("label").and_then(Json::as_str).unwrap_or("?");
        let tier = row.get("tier").and_then(Json::as_str).unwrap_or("?");
        if row.get("requests").and_then(Json::as_num) == Some(0.0) {
            continue;
        }
        let sum: f64 = [
            "queueing_pct",
            "prefill_pct",
            "transfer_pct",
            "decode_pct",
            "preemption_pct",
        ]
        .iter()
        .filter_map(|k| row.get(k).and_then(Json::as_num))
        .sum();
        if (sum - 100.0).abs() > SHARE_SUM_TOLERANCE_PCT {
            errors.push(format!(
                "{label} tier={tier}: phase shares sum to {sum:.2}% (expected 100 ± \
                 {SHARE_SUM_TOLERANCE_PCT}) — the attribution dropped or double-counted a phase"
            ));
        }
    }
    errors
}

/// Tolerated wall-clock ratio of the explicit `tracer=off` perf row over
/// its base colocated row. Both run the identical hot loop — a disabled
/// tracer is one branch per iteration — so the pair must land within
/// timer noise; a real regression (the tracer doing work while disabled)
/// reads far past 2%.
const TRACER_OVERHEAD_FACTOR: f64 = 1.02;

/// Applies the perf-artifact gates: the row labelled `tracer=off` may not
/// be slower than the base colocated row beyond
/// [`TRACER_OVERHEAD_FACTOR`], and every colocated row must report the
/// same `dist_cache_hit_rate_pct`. Returns the violations found (empty
/// when the artifact is not a perf artifact).
fn perf_gate(doc: &Json) -> Vec<String> {
    if doc.get("kind").and_then(Json::as_str) != Some("perf") {
        return Vec::new();
    }
    let Some(rows) = doc.get("rows").and_then(Json::as_arr) else {
        return Vec::new();
    };
    let colocated: Vec<(&str, &Json)> = rows
        .iter()
        .filter_map(|r| Some((r.get("label").and_then(Json::as_str)?, r)))
        .filter(|(l, _)| l.starts_with("colocated"))
        .collect();
    let wall = |pred: &dyn Fn(&str) -> bool| {
        colocated
            .iter()
            .find(|(l, _)| pred(l))
            .and_then(|(_, r)| r.get("wall_ms").and_then(Json::as_num))
    };
    let base = wall(&|l| !l.contains("tracer="));
    let off = wall(&|l| l.contains("tracer=off"));
    let mut errors = Vec::new();
    if let (Some(base), Some(off)) = (base, off) {
        if off > base * TRACER_OVERHEAD_FACTOR {
            errors.push(format!(
                "tracer=off row wall-clock {off:.1} ms exceeds base colocated \
                 {base:.1} ms × {TRACER_OVERHEAD_FACTOR} — the disabled tracer is not free"
            ));
        }
    }
    let hit_rates: Vec<(&str, f64)> = colocated
        .iter()
        .filter_map(|(l, r)| Some((*l, r.get("dist_cache_hit_rate_pct").and_then(Json::as_num)?)))
        .collect();
    if hit_rates.windows(2).any(|w| w[0].1 != w[1].1) {
        let listed: Vec<String> = hit_rates
            .iter()
            .map(|(l, pct)| format!("{l}: {pct}"))
            .collect();
        errors.push(format!(
            "colocated rows report different distribution cache hit rates ({}) — \
             their engines shared a memo across runs",
            listed.join(", ")
        ));
    }
    errors
}

/// Ceiling on an autoscaled row's `replica_hours` as a fraction of the
/// static-max reference row's. Elasticity is the subsystem's tracked
/// win: the controller drains down to one replica through both quiet
/// thirds of the run, which measures 0.67–0.83× static across smoke and
/// full sweeps; 0.95 fails any controller that stopped draining while
/// staying clear of rounding noise on short smoke runs.
const REPLICA_HOURS_CEILING_FACTOR: f64 = 0.95;

/// Tolerated joint-attainment drop (percentage points) from an
/// autoscaled row's steady window to its flash-crowd window. The burst
/// peak deliberately overloads even the full fleet — the static
/// reference itself drops ~45 pts in full sweeps and the autoscaled
/// rows 19–38 — so this bounds collapse, not degradation: a controller
/// that reacts late but does react stays under it, while a burst-window
/// wipeout (attainment near zero against a healthy steady state) fails.
/// A controller that never reacts at all is caught by the join/peak
/// check instead, since it depresses both windows alike.
const BURST_DROP_TOLERANCE_PTS: f64 = 50.0;

/// Applies the autoscale-artifact gates (see module docs). The row
/// labelled `static-max` is the provisioning reference; every other row
/// is an autoscaled run. Returns the violations found (empty when the
/// artifact is not an autoscale artifact).
fn autoscale_gate(doc: &Json) -> Vec<String> {
    if doc.get("kind").and_then(Json::as_str) != Some("autoscale") {
        return Vec::new();
    }
    let Some(rows) = doc.get("rows").and_then(Json::as_arr) else {
        return Vec::new();
    };
    let num = |row: &Json, key: &str| row.get(key).and_then(Json::as_num);
    let static_hours = rows
        .iter()
        .find(|r| r.get("label").and_then(Json::as_str) == Some("static-max"))
        .and_then(|r| num(r, "replica_hours"));
    let mut errors = Vec::new();
    let mut fair_spread = None;
    let mut fifo_spread = None;
    for row in rows {
        let label = row.get("label").and_then(Json::as_str).unwrap_or("?");
        if label == "static-max" {
            continue;
        }
        if num(row, "joins").is_none_or(|j| j < 1.0)
            || num(row, "peak_replicas").is_none_or(|p| p < 2.0)
        {
            errors.push(format!(
                "{label}: the controller never scaled (no join or peak stuck at the floor) — \
                 the closed loop is dead"
            ));
        }
        if let (Some(hours), Some(static_hours)) = (num(row, "replica_hours"), static_hours) {
            if hours > static_hours * REPLICA_HOURS_CEILING_FACTOR {
                errors.push(format!(
                    "{label}: replica-hours {hours:.4} exceed static-max {static_hours:.4} × \
                     {REPLICA_HOURS_CEILING_FACTOR} — autoscaling stopped saving capacity"
                ));
            }
        }
        if let (Some(steady), Some(burst)) = (
            num(row, "steady_attainment_pct"),
            num(row, "burst_attainment_pct"),
        ) {
            if burst < steady - BURST_DROP_TOLERANCE_PTS {
                errors.push(format!(
                    "{label}: burst attainment {burst:.1}% collapsed more than \
                     {BURST_DROP_TOLERANCE_PTS} pts under steady state {steady:.1}% — the \
                     controller is not riding the flash crowd"
                ));
            }
        }
        let spread = num(row, "tenant_spread_pct");
        match row.get("policy").and_then(Json::as_str) {
            Some("fair") => fair_spread = spread,
            Some("fifo") => fifo_spread = spread,
            _ => {}
        }
    }
    if let (Some(fair), Some(fifo)) = (fair_spread, fifo_spread) {
        if fair > fifo {
            errors.push(format!(
                "weighted-fair tenant spread {fair:.1} pts exceeds FIFO's {fifo:.1} — the \
                 front door stopped protecting the weighted tenant"
            ));
        }
    }
    errors
}

/// Applies the chaos-artifact gates (see module docs): per-row request
/// conservation, a clean no-fault row, and recovery strictly beating
/// no-recovery on offered-basis attainment under the identical seeded
/// fault schedule. Returns the violations found (empty when the artifact
/// is not a chaos artifact).
fn chaos_gate(doc: &Json) -> Vec<String> {
    if doc.get("kind").and_then(Json::as_str) != Some("chaos") {
        return Vec::new();
    }
    let Some(rows) = doc.get("rows").and_then(Json::as_arr) else {
        return Vec::new();
    };
    let num = |row: &Json, key: &str| row.get(key).and_then(Json::as_num);
    let mut errors = Vec::new();
    let mut no_recovery = None;
    let mut with_recovery = None;
    for row in rows {
        let label = row.get("label").and_then(Json::as_str).unwrap_or("?");
        if let (Some(offered), Some(finished), Some(rejected)) = (
            num(row, "offered"),
            num(row, "finished"),
            num(row, "rejected"),
        ) {
            if offered != finished + rejected {
                errors.push(format!(
                    "{label}: offered {offered} != finished {finished} + rejected {rejected} — \
                     the session lost or duplicated a request"
                ));
            }
        }
        match row.get("recovery").and_then(Json::as_str) {
            Some("n/a") => {
                for key in ["faults", "retries", "rejected"] {
                    if num(row, key).is_some_and(|v| v != 0.0) {
                        errors.push(format!(
                            "{label}: fault-free row reports nonzero {key} — the chaos \
                             machinery leaked into a clean run"
                        ));
                    }
                }
            }
            Some("none") => no_recovery = num(row, "offered_attainment_pct"),
            Some("retry") => with_recovery = num(row, "offered_attainment_pct"),
            _ => {}
        }
    }
    if let (Some(without), Some(with)) = (no_recovery, with_recovery) {
        if with <= without {
            errors.push(format!(
                "with-recovery offered attainment {with:.1}% does not beat no-recovery \
                 {without:.1}% under the same fault schedule — retry/backoff stopped paying for \
                 itself"
            ));
        }
    }
    errors
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: check_bench_json BENCH_foo.json [BENCH_bar.json ...]");
        std::process::exit(2);
    }

    let mut failed = false;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{path}: unreadable: {e}");
                failed = true;
                continue;
            }
        };
        let doc = match json::parse(&text) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("{path}: invalid JSON: {e}");
                failed = true;
                continue;
            }
        };
        match validate(&doc) {
            Ok(()) => {
                let mut gate_errors = fleet_gate(&doc);
                gate_errors.extend(prefix_gate(&doc));
                gate_errors.extend(attribution_gate(&doc));
                gate_errors.extend(perf_gate(&doc));
                gate_errors.extend(autoscale_gate(&doc));
                gate_errors.extend(chaos_gate(&doc));
                if gate_errors.is_empty() {
                    let rows = doc
                        .get("rows")
                        .and_then(Json::as_arr)
                        .map_or(0, <[Json]>::len);
                    let name = doc.get("name").and_then(Json::as_str).unwrap_or("?");
                    let mode = doc.get("mode").and_then(Json::as_str).unwrap_or("?");
                    println!("{path}: OK ({name}, mode={mode}, {rows} rows)");
                } else {
                    for e in &gate_errors {
                        eprintln!("{path}: {e}");
                    }
                    failed = true;
                }
            }
            Err(errors) => {
                for e in &errors {
                    eprintln!("{path}: {e}");
                }
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
