//! The trace event schema.
//!
//! Every event is stamped with the global simulation clock (`at_ms`).
//! Durations that the simulator knows exactly (iteration latency, KV wire
//! time) ride inside the event payload; phase spans that only exist
//! between events (queueing, prefill waiting) are reconstructed by the
//! consumers in [`crate::attribution`] and [`crate::perfetto`].

use std::fmt;

/// Which pool a traced replica belongs to.
///
/// Colocated and cluster replicas are decode-pool replicas (they prefill
/// and decode on the same engine); disaggregated deployments add a
/// dedicated prefill pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TracePool {
    /// Dedicated prefill replica (disaggregated deployments).
    Prefill,
    /// Decode (or colocated prefill+decode) replica.
    Decode,
}

impl TracePool {
    /// Short lowercase label used in track names.
    pub fn label(self) -> &'static str {
        match self {
            TracePool::Prefill => "prefill",
            TracePool::Decode => "decode",
        }
    }
}

/// Identifies one replica in trace events.
///
/// This is telemetry's own address type (the crate sits below `serving`
/// and cannot see its `ReplicaAddr`); deployments translate when they
/// record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceReplica {
    /// Pool the replica serves in.
    pub pool: TracePool,
    /// Index within the pool.
    pub index: usize,
}

impl TraceReplica {
    /// Decode-pool replica (also used for colocated engines).
    pub fn decode(index: usize) -> Self {
        Self {
            pool: TracePool::Decode,
            index,
        }
    }

    /// Prefill-pool replica.
    pub fn prefill(index: usize) -> Self {
        Self {
            pool: TracePool::Prefill,
            index,
        }
    }
}

impl fmt::Display for TraceReplica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.pool.label(), self.index)
    }
}

/// A point-in-time counters snapshot, sampled on the session's gauge tick.
///
/// These are the live signals a future autoscaler consumes (ROADMAP
/// item 3): how much work is queued, how much is running, and how full /
/// effective the KV cache is.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GaugeSample {
    /// Requests waiting for admission across all replicas.
    pub queue_depth: usize,
    /// Requests currently running (in a decode/prefill batch).
    pub in_flight: usize,
    /// KV-cache block occupancy in percent (worst replica).
    pub kv_occupancy_pct: f64,
    /// Cross-request prefix-cache hit rate in percent so far.
    pub cache_hit_rate_pct: f64,
}

/// What happened, with event-specific payload.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A request entered the serving session (client-visible arrival).
    Enqueue {
        /// Workload request id.
        id: u64,
        /// Prompt length in tokens.
        prompt_tokens: u32,
        /// Requested output length in tokens.
        output_tokens: u32,
    },
    /// The deployment accepted the request onto a replica.
    Admitted {
        /// Workload request id.
        id: u64,
        /// Replica that now owns the request.
        replica: TraceReplica,
        /// Prompt tokens already covered by the cross-request prefix
        /// cache at admission (0 when the cache is off or cold).
        cached_prefix_tokens: u32,
    },
    /// Admission control turned the request away.
    Rejected {
        /// Workload request id.
        id: u64,
        /// Human-readable rejection reason.
        reason: String,
    },
    /// A router picked a replica for the request.
    RouteDecision {
        /// Workload request id.
        id: u64,
        /// Router implementation name (e.g. `slo-aware`).
        router: String,
        /// Chosen replica.
        replica: TraceReplica,
        /// The router's modeled load estimate for the chosen replica in
        /// milliseconds (drain estimate at decision time).
        modeled_load_ms: f64,
    },
    /// A request left the waiting queue and began prefilling (first time
    /// it appears in a running batch).
    PrefillStart {
        /// Workload request id.
        id: u64,
        /// Replica performing the prefill.
        replica: TraceReplica,
    },
    /// One chunked-prefill step on a dedicated prefill replica.
    PrefillChunk {
        /// Replica performing the chunk.
        replica: TraceReplica,
        /// Requests sharing the chunk.
        requests: usize,
        /// Prompt tokens prefilled in this chunk.
        tokens: u64,
        /// Modeled chunk latency in milliseconds.
        latency_ms: f64,
    },
    /// A prefilled request's KV pages were enqueued on the interconnect
    /// toward its decode replica.
    KvTransfer {
        /// Workload request id.
        id: u64,
        /// Source prefill replica index.
        from_prefill: usize,
        /// Destination decode replica index.
        to_decode: usize,
        /// Payload size in bytes.
        bytes: u64,
        /// Wire departure time (ms).
        start_ms: f64,
        /// Wire arrival time (ms).
        arrive_ms: f64,
    },
    /// One engine iteration (speculate + verify or plain decode step).
    Iteration {
        /// Replica that stepped.
        replica: TraceReplica,
        /// Requests in the running batch after the step.
        batch: usize,
        /// Draft tokens speculated this iteration.
        draft_tokens: u64,
        /// Speculated tokens accepted this iteration.
        accepted_tokens: u64,
        /// Prefill time folded into this iteration's latency, ms.
        prefill_ms: f64,
        /// Modeled iteration latency (sim clock advance) in ms.
        latency_ms: f64,
    },
    /// A running request was evicted back to the waiting queue.
    Preempted {
        /// Workload request id.
        id: u64,
        /// Replica that evicted it.
        replica: TraceReplica,
    },
    /// A previously preempted request re-entered a running batch.
    Resumed {
        /// Workload request id.
        id: u64,
        /// Replica that re-admitted it.
        replica: TraceReplica,
    },
    /// The request emitted its final token; scalar record fields ride
    /// along so attribution needs no access to `metrics` types.
    Finished {
        /// Workload request id.
        id: u64,
        /// SLO tier label (workload category).
        tier: String,
        /// Arrival time (ms).
        arrival_ms: f64,
        /// First decode iteration start (ms).
        decode_start_ms: f64,
        /// Final token time (ms).
        completion_ms: f64,
        /// Output tokens generated.
        output_tokens: u32,
        /// Preemption count over the request's lifetime.
        preemptions: u32,
        /// TTFT SLO carried by the request (ms).
        ttft_slo_ms: f64,
        /// TPOT SLO carried by the request (ms).
        tpot_slo_ms: f64,
    },
    /// Periodic counters snapshot (session gauge tick).
    Gauge(GaugeSample),
    /// A replica crashed (fault injection): its in-flight KV is lost and
    /// the requests it held return to the front door.
    ReplicaDown {
        /// The crashed replica.
        replica: TraceReplica,
        /// Human-readable fault description (e.g. `crash for 400ms`).
        fault: String,
        /// Requests whose KV/queue slot was lost on this replica.
        lost_requests: usize,
    },
    /// A previously crashed replica rejoined service.
    ReplicaRecovered {
        /// The recovered replica.
        replica: TraceReplica,
    },
    /// A non-crash fault began (slow replica, link degradation/outage).
    FaultInjected {
        /// What is faulted (`decode/1`, `kv-link`, ...).
        target: String,
        /// Human-readable fault description.
        fault: String,
        /// Requests lost to the fault at injection time (link outages
        /// abort in-flight transfers).
        lost_requests: usize,
    },
    /// A previously injected non-crash fault cleared.
    FaultCleared {
        /// What recovered (`decode/1`, `kv-link`, ...).
        target: String,
    },
    /// A request lost to a fault was scheduled for re-dispatch by the
    /// session's recovery policy.
    RetryScheduled {
        /// Workload request id.
        id: u64,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
        /// When the request re-enters the front door (ms); the gap to
        /// `at_ms` is the exponential backoff.
        resubmit_at_ms: f64,
    },
}

/// One timestamped trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global simulation clock at record time, milliseconds.
    pub at_ms: f64,
    /// Payload.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_display_is_pool_slash_index() {
        assert_eq!(TraceReplica::decode(2).to_string(), "decode/2");
        assert_eq!(TraceReplica::prefill(0).to_string(), "prefill/0");
    }
}
