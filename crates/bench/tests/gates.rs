//! Negative tests for every semantic gate `check_bench_json` applies.
//!
//! Each test loads the committed `BENCH_*.json` of its kind (which
//! passes), breaks exactly one value so that one check must fire, runs
//! the `check_bench_json` binary on the result and asserts it exits 1
//! with that check's violation as the only error line. The last test pins
//! the binary's other exit codes: 0 when every file passes, 2 on usage.

use adaserve_bench::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Parses the committed artifact `file` at the repository root.
fn committed(file: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// The first row of `doc` matching `pred`, as a mutable object.
fn row(doc: &mut Json, pred: impl Fn(&Json) -> bool) -> &mut BTreeMap<String, Json> {
    let Json::Obj(top) = doc else {
        panic!("artifact is not an object")
    };
    let Some(Json::Arr(rows)) = top.get_mut("rows") else {
        panic!("artifact has no rows array")
    };
    match rows.iter_mut().find(|r| pred(r)) {
        Some(Json::Obj(row)) => row,
        _ => panic!("no matching row"),
    }
}

/// The row of `doc` whose `label` is `label`.
fn labelled<'a>(doc: &'a mut Json, label: &str) -> &'a mut BTreeMap<String, Json> {
    row(doc, |r| {
        r.get("label").and_then(Json::as_str) == Some(label)
    })
}

/// Numeric member `key` of `row`.
fn num(row: &BTreeMap<String, Json>, key: &str) -> f64 {
    row.get(key).and_then(Json::as_num).expect("numeric member")
}

/// Sets numeric member `key` of `row`.
fn set(row: &mut BTreeMap<String, Json>, key: &str, value: f64) {
    row.insert(key.into(), Json::Num(value));
}

/// Runs `check_bench_json` on `doc` and asserts it fails with exactly one
/// violation, which contains `expected`.
fn assert_gate(doc: &Json, tag: &str, expected: &str) {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("gate_{tag}.json"));
    std::fs::write(&path, doc.to_string_compact()).expect("write mutated artifact");
    let out = Command::new(env!("CARGO_BIN_EXE_check_bench_json"))
        .arg(&path)
        .output()
        .expect("run check_bench_json");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{tag}: expected one violation: {stderr}");
    assert!(lines[0].contains(expected), "{tag}: {stderr}");
}

#[test]
fn fleet_gate_fails_a_slow_sharded_four_replica_row() {
    let mut doc = committed("BENCH_fleet_scaling.json");
    let sharded4 = row(&mut doc, |r| {
        r.get("replicas").and_then(Json::as_num) == Some(4.0)
            && r.get("exec")
                .and_then(Json::as_str)
                .is_some_and(|e| e.starts_with("sharded"))
    });
    set(sharded4, "speedup", 0.94);
    assert_gate(&doc, "fleet_speedup", "speedup 0.940 < 0.95");
}

#[test]
fn prefix_gate_fails_a_cache_on_row_that_stopped_hitting() {
    let mut doc = committed("BENCH_prefix.json");
    let on = row(&mut doc, |r| {
        r.get("cache").and_then(Json::as_str) == Some("on")
            && r.get("prefix_share_pct").and_then(Json::as_num) == Some(50.0)
    });
    set(on, "prefix_hit_rate_pct", 9.5);
    assert_gate(&doc, "prefix_hit", "hit only 9.5% < 10%");
}

#[test]
fn prefix_gate_fails_a_cache_on_row_slower_than_its_off_twin() {
    let mut doc = committed("BENCH_prefix.json");
    let is = |cache: &'static str| {
        move |r: &Json| {
            r.get("label").and_then(Json::as_str) == Some("multiturn rps=3.0")
                && r.get("cache").and_then(Json::as_str) == Some(cache)
        }
    };
    let off_p50 = num(row(&mut doc, is("off")), "p50_ttft_ms");
    set(row(&mut doc, is("on")), "p50_ttft_ms", off_p50 * 1.06);
    assert_gate(&doc, "prefix_ttft", "regressed past cache-off");
}

#[test]
fn attribution_gate_fails_shares_that_do_not_sum_to_100() {
    let mut doc = committed("BENCH_attribution.json");
    let r = row(&mut doc, |r| {
        r.get("requests")
            .and_then(Json::as_num)
            .is_some_and(|n| n > 0.0)
    });
    let queueing = num(r, "queueing_pct");
    set(r, "queueing_pct", queueing + 0.6);
    assert_gate(&doc, "attribution_sum", "expected 100 ± 0.5");
}

#[test]
fn perf_gate_fails_a_disabled_tracer_that_costs_wall_time() {
    let mut doc = committed("BENCH_perf.json");
    let base = num(labelled(&mut doc, "colocated rps=2"), "wall_ms");
    set(
        labelled(&mut doc, "colocated tracer=off rps=2"),
        "wall_ms",
        base * 1.03,
    );
    assert_gate(&doc, "perf_tracer", "the disabled tracer is not free");
}

#[test]
fn perf_gate_fails_colocated_rows_with_different_memo_hit_rates() {
    let mut doc = committed("BENCH_perf.json");
    let on = labelled(&mut doc, "colocated tracer=on rps=2");
    let hit = num(on, "dist_cache_hit_rate_pct");
    set(on, "dist_cache_hit_rate_pct", hit + 1.0);
    assert_gate(
        &doc,
        "perf_memo",
        "colocated rows report different distribution cache hit rates",
    );
}

#[test]
fn autoscale_gate_fails_a_controller_that_never_scaled() {
    let mut doc = committed("BENCH_autoscale.json");
    set(labelled(&mut doc, "autoscale-fifo"), "joins", 0.0);
    assert_gate(&doc, "autoscale_joins", "the controller never scaled");
    let mut doc = committed("BENCH_autoscale.json");
    set(labelled(&mut doc, "autoscale-fair"), "peak_replicas", 1.0);
    assert_gate(&doc, "autoscale_peak", "the controller never scaled");
}

#[test]
fn autoscale_gate_fails_replica_hours_near_static() {
    let mut doc = committed("BENCH_autoscale.json");
    let static_hours = num(labelled(&mut doc, "static-max"), "replica_hours");
    set(
        labelled(&mut doc, "autoscale-fifo"),
        "replica_hours",
        static_hours * 0.96,
    );
    assert_gate(
        &doc,
        "autoscale_hours",
        "autoscaling stopped saving capacity",
    );
}

#[test]
fn autoscale_gate_fails_a_burst_collapse() {
    let mut doc = committed("BENCH_autoscale.json");
    let r = labelled(&mut doc, "autoscale-fifo");
    let steady = num(r, "steady_attainment_pct");
    set(r, "burst_attainment_pct", steady - 51.0);
    assert_gate(&doc, "autoscale_burst", "collapsed more than 50 pts");
}

#[test]
fn autoscale_gate_fails_fair_spread_above_fifo() {
    let mut doc = committed("BENCH_autoscale.json");
    let fifo = num(labelled(&mut doc, "autoscale-fifo"), "tenant_spread_pct");
    set(
        labelled(&mut doc, "autoscale-fair"),
        "tenant_spread_pct",
        fifo + 0.1,
    );
    assert_gate(
        &doc,
        "autoscale_fairness",
        "the front door stopped protecting the weighted tenant",
    );
}

#[test]
fn chaos_gate_fails_a_row_that_loses_a_request() {
    let mut doc = committed("BENCH_chaos.json");
    let r = labelled(&mut doc, "fault-with-recovery");
    let offered = num(r, "offered");
    set(r, "offered", offered + 1.0);
    assert_gate(&doc, "chaos_conservation", "lost or duplicated a request");
}

#[test]
fn chaos_gate_fails_a_no_fault_row_touched_by_chaos() {
    for key in ["faults", "retries"] {
        let mut doc = committed("BENCH_chaos.json");
        set(labelled(&mut doc, "no-fault"), key, 1.0);
        assert_gate(
            &doc,
            &format!("chaos_clean_{key}"),
            &format!("fault-free row reports nonzero {key}"),
        );
    }
    // A rejection that keeps the row conserved trips only this check.
    let mut doc = committed("BENCH_chaos.json");
    let r = labelled(&mut doc, "no-fault");
    let finished = num(r, "finished");
    set(r, "finished", finished - 1.0);
    set(r, "rejected", 1.0);
    assert_gate(
        &doc,
        "chaos_clean_rejected",
        "fault-free row reports nonzero rejected",
    );
}

#[test]
fn chaos_gate_fails_recovery_that_does_not_beat_no_recovery() {
    let mut doc = committed("BENCH_chaos.json");
    let without = num(
        labelled(&mut doc, "fault-no-recovery"),
        "offered_attainment_pct",
    );
    set(
        labelled(&mut doc, "fault-with-recovery"),
        "offered_attainment_pct",
        without,
    );
    assert_gate(&doc, "chaos_recovery", "does not beat no-recovery");
}

#[test]
fn binary_exits_0_on_committed_artifacts_and_2_without_arguments() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = [
        "BENCH_attribution.json",
        "BENCH_autoscale.json",
        "BENCH_chaos.json",
        "BENCH_fleet_scaling.json",
        "BENCH_perf.json",
        "BENCH_prefix.json",
    ];
    let bin = env!("CARGO_BIN_EXE_check_bench_json");
    let out = Command::new(bin)
        .args(files.map(|f| root.join(f)))
        .output()
        .expect("run check_bench_json");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.matches(": OK (").count(), files.len(), "{stdout}");
    let usage = Command::new(bin).output().expect("run check_bench_json");
    assert_eq!(usage.status.code(), Some(2));
}
