//! Chrome-trace / Perfetto JSON export.
//!
//! [`export`] renders a trace into the Chrome trace-event JSON format
//! (`{"traceEvents": [...]}`), loadable in `ui.perfetto.dev` or
//! `chrome://tracing`. Process 1 holds one track per replica (iteration
//! and prefill-chunk spans plus gauge counters); process 2 holds one
//! track per request (queue / prefill / transfer / decode / preempted
//! phase spans, with instant markers for routing and rejection).
//!
//! Simulation milliseconds map to trace microseconds (the format's native
//! unit), so 1 ms of sim time is 1 µs × 1000 on screen. The exporter is
//! deterministic: rows are sorted by timestamp, then process, track and
//! name, so identical traces serialize identically. The JSON is
//! hand-rolled — this crate sits below `bench` and the container has no
//! serde.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::event::{EventKind, TraceEvent, TraceReplica};

const REPLICA_PID: u64 = 1;
const REQUEST_PID: u64 = 2;

/// One serialized trace row plus its sort key.
struct Row {
    ts_us: f64,
    pid: u64,
    tid: u64,
    json: String,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

fn meta_thread_name(pid: u64, tid: u64, name: &str) -> Row {
    Row {
        ts_us: -1.0, // metadata sorts ahead of every span
        pid,
        tid,
        json: format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ),
    }
}

fn meta_process_name(pid: u64, name: &str) -> Row {
    Row {
        ts_us: -2.0,
        pid,
        tid: 0,
        json: format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ),
    }
}

fn span(pid: u64, tid: u64, name: &str, start_ms: f64, dur_ms: f64, args: &str) -> Row {
    let ts_us = start_ms * 1000.0;
    Row {
        ts_us,
        pid,
        tid,
        json: format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\
             \"name\":\"{}\",\"args\":{{{args}}}}}",
            num(ts_us),
            num((dur_ms * 1000.0).max(0.0)),
            escape(name),
        ),
    }
}

fn instant(pid: u64, tid: u64, name: &str, at_ms: f64, args: &str) -> Row {
    let ts_us = at_ms * 1000.0;
    Row {
        ts_us,
        pid,
        tid,
        json: format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
             \"name\":\"{}\",\"args\":{{{args}}}}}",
            num(ts_us),
            escape(name),
        ),
    }
}

fn counter(pid: u64, tid: u64, name: &str, at_ms: f64, args: &str) -> Row {
    let ts_us = at_ms * 1000.0;
    Row {
        ts_us,
        pid,
        tid,
        json: format!(
            "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\
             \"name\":\"{}\",\"args\":{{{args}}}}}",
            num(ts_us),
            escape(name),
        ),
    }
}

/// Per-request state accumulated while replaying the event stream.
#[derive(Default)]
struct ReqState {
    enqueue_ms: Option<f64>,
    prefill_start_ms: Option<f64>,
    preempted_at: Option<f64>,
    seen: bool,
}

/// Renders `events` as Chrome trace-event JSON.
pub fn export(events: &[TraceEvent]) -> String {
    let mut rows: Vec<Row> = Vec::new();

    // Replica tracks: stable tids in sorted replica order.
    let mut replicas: BTreeMap<TraceReplica, u64> = BTreeMap::new();
    for event in events {
        let replica = match &event.kind {
            EventKind::Iteration { replica, .. }
            | EventKind::PrefillChunk { replica, .. }
            | EventKind::PrefillStart { replica, .. }
            | EventKind::Admitted { replica, .. }
            | EventKind::RouteDecision { replica, .. }
            | EventKind::Preempted { replica, .. }
            | EventKind::Resumed { replica, .. }
            | EventKind::ReplicaDown { replica, .. }
            | EventKind::ReplicaRecovered { replica, .. } => *replica,
            _ => continue,
        };
        let next = replicas.len() as u64 + 1;
        replicas.entry(replica).or_insert(next);
    }
    rows.push(meta_process_name(REPLICA_PID, "replicas"));
    rows.push(meta_process_name(REQUEST_PID, "requests"));
    for (replica, tid) in &replicas {
        rows.push(meta_thread_name(REPLICA_PID, *tid, &replica.to_string()));
    }

    let mut requests: BTreeMap<u64, ReqState> = BTreeMap::new();
    for event in events {
        let at = event.at_ms;
        match &event.kind {
            EventKind::Enqueue { id, .. } => {
                let state = requests.entry(*id).or_default();
                state.enqueue_ms = Some(at);
                state.seen = true;
            }
            EventKind::Admitted {
                id,
                cached_prefix_tokens,
                ..
            } => {
                requests.entry(*id).or_default().seen = true;
                rows.push(instant(
                    REQUEST_PID,
                    id + 1,
                    "admitted",
                    at,
                    &format!("\"cached_prefix_tokens\":{cached_prefix_tokens}"),
                ));
            }
            EventKind::Rejected { id, reason } => {
                requests.entry(*id).or_default().seen = true;
                rows.push(instant(
                    REQUEST_PID,
                    id + 1,
                    "rejected",
                    at,
                    &format!("\"reason\":\"{}\"", escape(reason)),
                ));
            }
            EventKind::RouteDecision {
                id,
                router,
                replica,
                modeled_load_ms,
            } => {
                requests.entry(*id).or_default().seen = true;
                rows.push(instant(
                    REQUEST_PID,
                    id + 1,
                    "route",
                    at,
                    &format!(
                        "\"router\":\"{}\",\"replica\":\"{replica}\",\"modeled_load_ms\":{}",
                        escape(router),
                        num(*modeled_load_ms)
                    ),
                ));
            }
            EventKind::PrefillStart { id, .. } => {
                let state = requests.entry(*id).or_default();
                state.seen = true;
                if state.prefill_start_ms.is_none() {
                    state.prefill_start_ms = Some(at);
                    if let Some(enq) = state.enqueue_ms {
                        rows.push(span(REQUEST_PID, id + 1, "queue", enq, at - enq, ""));
                    }
                }
            }
            EventKind::PrefillChunk {
                replica,
                requests: batch,
                tokens,
                latency_ms,
            } => {
                let tid = replicas[replica];
                rows.push(span(
                    REPLICA_PID,
                    tid,
                    "prefill_chunk",
                    at - latency_ms,
                    *latency_ms,
                    &format!("\"requests\":{batch},\"tokens\":{tokens}"),
                ));
            }
            EventKind::KvTransfer {
                id,
                bytes,
                start_ms,
                arrive_ms,
                ..
            } => {
                requests.entry(*id).or_default().seen = true;
                rows.push(span(
                    REQUEST_PID,
                    id + 1,
                    "kv_transfer",
                    *start_ms,
                    arrive_ms - start_ms,
                    &format!("\"bytes\":{bytes}"),
                ));
            }
            EventKind::Iteration {
                replica,
                batch,
                draft_tokens,
                accepted_tokens,
                latency_ms,
                ..
            } => {
                let tid = replicas[replica];
                rows.push(span(
                    REPLICA_PID,
                    tid,
                    "iteration",
                    at - latency_ms,
                    *latency_ms,
                    &format!(
                        "\"batch\":{batch},\"draft_tokens\":{draft_tokens},\
                         \"accepted_tokens\":{accepted_tokens}"
                    ),
                ));
            }
            EventKind::Preempted { id, .. } => {
                requests.entry(*id).or_default().preempted_at = Some(at);
            }
            EventKind::Resumed { id, .. } => {
                let state = requests.entry(*id).or_default();
                if let Some(from) = state.preempted_at.take() {
                    rows.push(span(REQUEST_PID, id + 1, "preempted", from, at - from, ""));
                }
            }
            EventKind::Finished {
                id,
                tier,
                arrival_ms,
                decode_start_ms,
                completion_ms,
                output_tokens,
                ..
            } => {
                let state = requests.entry(*id).or_default();
                state.seen = true;
                let prefill_from = state.prefill_start_ms.unwrap_or(*arrival_ms);
                rows.push(span(
                    REQUEST_PID,
                    id + 1,
                    "prefill",
                    prefill_from,
                    decode_start_ms - prefill_from,
                    &format!("\"tier\":\"{}\"", escape(tier)),
                ));
                rows.push(span(
                    REQUEST_PID,
                    id + 1,
                    "decode",
                    *decode_start_ms,
                    completion_ms - decode_start_ms,
                    &format!("\"output_tokens\":{output_tokens}"),
                ));
            }
            EventKind::ReplicaDown {
                replica,
                fault,
                lost_requests,
            } => {
                let tid = replicas[replica];
                rows.push(instant(
                    REPLICA_PID,
                    tid,
                    "replica_down",
                    at,
                    &format!(
                        "\"fault\":\"{}\",\"lost_requests\":{lost_requests}",
                        escape(fault)
                    ),
                ));
            }
            EventKind::ReplicaRecovered { replica } => {
                let tid = replicas[replica];
                rows.push(instant(REPLICA_PID, tid, "replica_recovered", at, ""));
            }
            EventKind::FaultInjected {
                target,
                fault,
                lost_requests,
            } => {
                rows.push(instant(
                    REPLICA_PID,
                    0,
                    "fault_injected",
                    at,
                    &format!(
                        "\"target\":\"{}\",\"fault\":\"{}\",\"lost_requests\":{lost_requests}",
                        escape(target),
                        escape(fault)
                    ),
                ));
            }
            EventKind::FaultCleared { target } => {
                rows.push(instant(
                    REPLICA_PID,
                    0,
                    "fault_cleared",
                    at,
                    &format!("\"target\":\"{}\"", escape(target)),
                ));
            }
            EventKind::RetryScheduled {
                id,
                attempt,
                resubmit_at_ms,
            } => {
                requests.entry(*id).or_default().seen = true;
                rows.push(instant(
                    REQUEST_PID,
                    id + 1,
                    "retry_scheduled",
                    at,
                    &format!(
                        "\"attempt\":{attempt},\"resubmit_at_ms\":{},\"backoff_ms\":{}",
                        num(*resubmit_at_ms),
                        num(resubmit_at_ms - at)
                    ),
                ));
            }
            EventKind::Gauge(sample) => {
                rows.push(counter(
                    REPLICA_PID,
                    0,
                    "gauges",
                    at,
                    &format!(
                        "\"queue_depth\":{},\"in_flight\":{},\"kv_occupancy_pct\":{},\
                         \"cache_hit_rate_pct\":{}",
                        sample.queue_depth,
                        sample.in_flight,
                        num(sample.kv_occupancy_pct),
                        num(sample.cache_hit_rate_pct)
                    ),
                ));
            }
        }
    }
    for (id, state) in &requests {
        if state.seen {
            rows.push(meta_thread_name(REQUEST_PID, id + 1, &format!("req {id}")));
        }
    }

    rows.sort_by(|a, b| {
        a.ts_us
            .total_cmp(&b.ts_us)
            .then(a.pid.cmp(&b.pid))
            .then(a.tid.cmp(&b.tid))
            .then(a.json.cmp(&b.json))
    });

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&row.json);
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Renders and writes the trace to `path`.
pub fn export_to_file(path: &Path, events: &[TraceEvent]) -> std::io::Result<()> {
    std::fs::write(path, export(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{GaugeSample, TracePool};

    fn iteration(at_ms: f64, replica: TraceReplica) -> TraceEvent {
        TraceEvent {
            at_ms,
            kind: EventKind::Iteration {
                replica,
                batch: 3,
                draft_tokens: 12,
                accepted_tokens: 7,
                prefill_ms: 0.0,
                latency_ms: 25.0,
            },
        }
    }

    #[test]
    fn one_thread_name_per_replica() {
        let events = vec![
            iteration(25.0, TraceReplica::decode(0)),
            iteration(25.0, TraceReplica::decode(1)),
            iteration(50.0, TraceReplica::decode(0)),
            iteration(30.0, TraceReplica::prefill(0)),
        ];
        let json = export(&events);
        assert_eq!(json.matches("\"name\":\"decode/0\"").count(), 1);
        assert_eq!(json.matches("\"name\":\"decode/1\"").count(), 1);
        assert_eq!(json.matches("\"name\":\"prefill/0\"").count(), 1);
        assert_eq!(json.matches("\"name\":\"iteration\"").count(), 4);
    }

    #[test]
    fn request_track_carries_phase_spans() {
        let events = vec![
            TraceEvent {
                at_ms: 0.0,
                kind: EventKind::Enqueue {
                    id: 4,
                    prompt_tokens: 64,
                    output_tokens: 8,
                },
            },
            TraceEvent {
                at_ms: 10.0,
                kind: EventKind::PrefillStart {
                    id: 4,
                    replica: TraceReplica::decode(0),
                },
            },
            TraceEvent {
                at_ms: 90.0,
                kind: EventKind::Finished {
                    id: 4,
                    tier: "chatbot".into(),
                    arrival_ms: 0.0,
                    decode_start_ms: 40.0,
                    completion_ms: 90.0,
                    output_tokens: 8,
                    preemptions: 0,
                    ttft_slo_ms: 100.0,
                    tpot_slo_ms: 50.0,
                },
            },
        ];
        let json = export(&events);
        for phase in ["queue", "prefill", "decode"] {
            assert!(
                json.contains(&format!("\"name\":\"{phase}\"")),
                "missing {phase} span"
            );
        }
        assert!(json.contains("\"name\":\"req 4\""));
    }

    #[test]
    fn fault_events_render_as_instant_markers_with_args() {
        let events = vec![
            iteration(25.0, TraceReplica::decode(1)),
            TraceEvent {
                at_ms: 30.0,
                kind: EventKind::ReplicaDown {
                    replica: TraceReplica::decode(1),
                    fault: "crash for 400ms".into(),
                    lost_requests: 3,
                },
            },
            TraceEvent {
                at_ms: 35.0,
                kind: EventKind::RetryScheduled {
                    id: 9,
                    attempt: 1,
                    resubmit_at_ms: 85.0,
                },
            },
            TraceEvent {
                at_ms: 40.0,
                kind: EventKind::FaultInjected {
                    target: "kv-link".into(),
                    fault: "outage for 200ms".into(),
                    lost_requests: 1,
                },
            },
            TraceEvent {
                at_ms: 240.0,
                kind: EventKind::FaultCleared {
                    target: "kv-link".into(),
                },
            },
            TraceEvent {
                at_ms: 430.0,
                kind: EventKind::ReplicaRecovered {
                    replica: TraceReplica::decode(1),
                },
            },
        ];
        let json = export(&events);
        assert!(json.contains("\"name\":\"replica_down\""));
        assert!(json.contains("\"fault\":\"crash for 400ms\""));
        assert!(json.contains("\"lost_requests\":3"));
        assert!(json.contains("\"name\":\"replica_recovered\""));
        assert!(json.contains("\"name\":\"fault_injected\""));
        assert!(json.contains("\"target\":\"kv-link\""));
        assert!(json.contains("\"name\":\"fault_cleared\""));
        assert!(json.contains("\"name\":\"retry_scheduled\""));
        assert!(json.contains("\"attempt\":1"));
        assert!(json.contains("\"backoff_ms\":50"));
        assert!(json.contains("\"name\":\"req 9\""), "retry pins the track");
    }

    #[test]
    fn export_is_deterministic_and_balanced() {
        let events = vec![
            iteration(
                25.0,
                TraceReplica {
                    pool: TracePool::Decode,
                    index: 0,
                },
            ),
            TraceEvent {
                at_ms: 5.0,
                kind: EventKind::Gauge(GaugeSample {
                    queue_depth: 2,
                    in_flight: 3,
                    kv_occupancy_pct: 41.5,
                    cache_hit_rate_pct: 0.0,
                }),
            },
        ];
        let a = export(&events);
        let b = export(&events);
        assert_eq!(a, b);
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.trim_end().ends_with("]}"));
    }
}
