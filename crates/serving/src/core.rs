//! [`EngineCore`]: the queueing/admission/bookkeeping machinery every
//! serving engine composes.
//!
//! The core owns the waiting queue, the running batch, the KV block manager
//! and the completion records. Engines differ in how they *plan* iterations
//! (what to prefill, decode, speculate, verify) but share this state and its
//! invariants, keeping baselines and AdaServe comparable.

use crate::config::SystemConfig;
use crate::engine::StepResult;
use crate::kv::BlockManager;
use crate::prefix::PrefixCache;
use crate::request::{LiveRequest, Phase};
use metrics::{HotLoopStats, LatencyBreakdown, RequestRecord};
use roofline::{ForwardPass, SeqWork};
use simllm::{sample_seeded, Lm, TokenId};
use std::collections::VecDeque;
use workload::RequestSpec;

/// Shared engine state: queues, memory, records, accounting.
#[derive(Debug, Clone)]
pub struct EngineCore {
    /// Deployment configuration.
    pub config: SystemConfig,
    /// Paged KV allocator.
    pub blocks: BlockManager,
    /// Requests waiting for admission (FIFO unless the engine reorders).
    pub waiting: VecDeque<LiveRequest>,
    /// Admitted requests (prefilling or decoding).
    pub running: Vec<LiveRequest>,
    /// Completed-request records.
    finished: Vec<RequestRecord>,
    /// Accumulated latency breakdown.
    pub breakdown: LatencyBreakdown,
    /// Hot-loop health counters (distribution-cache hit rate, scratch
    /// allocation discipline, peak decode batch). Engines with scratch
    /// machinery update this each iteration; simple baselines leave it
    /// zeroed.
    pub hotloop: HotLoopStats,
    /// Iterations executed.
    pub iterations: u64,
    /// Total speculated tokens submitted for verification (all requests).
    pub speculated_total: u64,
    /// Total speculated tokens accepted.
    pub accepted_total: u64,
    /// Cross-request prefix cache ([`crate::prefix`]); present when
    /// [`SystemConfig::prefix_cache_tokens`] is set. Admission consults it
    /// (a hit pre-marks the cached prefix as prefilled and reserves
    /// blocks only for the uncached suffix), prefill completion feeds it,
    /// and finish/preempt/migrate release its pins.
    pub prefix: Option<PrefixCache>,
    /// Graceful-degradation flag, set by the session under sustained
    /// recovery pressure ([`crate::Deployment::set_degraded`]). Engines
    /// that speculate clamp their speculation depth while it is set,
    /// trading peak throughput for predictable recovery latency.
    pub degraded: bool,
}

impl EngineCore {
    /// Creates a core for `config` with a full KV pool.
    pub fn new(config: SystemConfig) -> Self {
        let blocks = config.block_manager();
        let prefix = config
            .prefix_cache_tokens
            .map(|budget| PrefixCache::new(budget, config.kv_block_tokens));
        Self {
            config,
            blocks,
            prefix,
            waiting: VecDeque::new(),
            running: Vec::new(),
            finished: Vec::new(),
            breakdown: LatencyBreakdown::new(),
            hotloop: HotLoopStats::default(),
            iterations: 0,
            speculated_total: 0,
            accepted_total: 0,
            degraded: false,
        }
    }

    /// Enqueues a new arrival.
    pub fn on_arrival(&mut self, spec: RequestSpec) {
        self.waiting.push_back(LiveRequest::new(spec));
    }

    /// Whether any request is waiting or running.
    pub fn has_work(&self) -> bool {
        !self.waiting.is_empty() || !self.running.is_empty()
    }

    /// Read-only view of the completion records accumulated so far.
    ///
    /// Drivers that surface per-request lifecycle events peek at this
    /// between iterations; [`EngineCore::take_finished`] still drains the
    /// records at finalization.
    pub fn finished_records(&self) -> &[RequestRecord] {
        &self.finished
    }

    /// Total tokens the KV pool can hold — the largest context a single
    /// request could ever occupy on this core (capacity introspection for
    /// admission control).
    pub fn kv_capacity_tokens(&self) -> u64 {
        self.blocks.total_blocks() * u64::from(self.blocks.block_tokens())
    }

    /// The longest block-aligned prefix of `spec`'s prompt resident in
    /// this engine's prefix cache, in tokens (0 without a cache).
    /// Read-only: no statistics, pinning, or LRU side effects — safe for
    /// admission-control and routing probes.
    pub fn cached_prefix_tokens(&self, spec: &RequestSpec) -> u32 {
        self.prefix.as_ref().map_or(0, |c| {
            c.peek(&spec.prompt_tokens(), spec.prompt_len.saturating_sub(1))
        })
    }

    /// Admits waiting requests FIFO while the batch cap and KV pool allow.
    ///
    /// A request is admitted when its *uncached* context (prompt plus any
    /// previously generated tokens, minus whatever prefix the
    /// [`crate::prefix::PrefixCache`] already holds) fits in free blocks —
    /// so under a warm cache a request can be admitted even when its full
    /// prompt would not fit. A hit pre-marks the cached prefix as
    /// prefilled and pins it against eviction. Returns the number
    /// admitted.
    pub fn admit_fifo(&mut self) -> usize {
        let mut admitted = 0;
        while self.running.len() < self.config.max_batch {
            let Some(front) = self.waiting.front() else {
                break;
            };
            let reuse = self.prefix.as_ref().map_or(0, |c| {
                c.peek(front.tokens(), front.context_len().saturating_sub(1))
            });
            let need = u64::from(front.context_len()) + 1 - u64::from(reuse);
            if !self.blocks.can_hold(front.spec.id, need) {
                break;
            }
            let mut req = self.waiting.pop_front().expect("front exists");
            if let Some(cache) = self.prefix.as_mut() {
                let max_reuse = req.context_len().saturating_sub(1);
                let reused = cache.lookup_pin(req.spec.id, req.tokens(), max_reuse);
                debug_assert_eq!(reused, reuse, "peek and lookup agree");
                self.hotloop.prefix_lookups += 1;
                if reused > 0 {
                    req.reuse_prefix(reused);
                    self.hotloop.prefix_hits += 1;
                    self.hotloop.prefill_tokens_saved += u64::from(reused);
                }
            }
            let ok = self.blocks.reserve(req.spec.id, need);
            debug_assert!(ok, "can_hold implies reserve succeeds");
            req.phase = Phase::Prefilling;
            self.running.push(req);
            admitted += 1;
        }
        admitted
    }

    /// Plans prefill chunks across running requests, up to `budget` tokens.
    ///
    /// Returns `(running_index, chunk_tokens)` pairs in batch order. Pass
    /// `u32::MAX` to prefill whole remaining prompts (vLLM-style full
    /// prefill).
    pub fn plan_prefill(&self, budget: u32) -> Vec<(usize, u32)> {
        let mut remaining = budget;
        let mut plan = Vec::new();
        for (i, r) in self.running.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            if r.phase == Phase::Prefilling {
                let chunk = r.prefill_remaining().min(remaining);
                if chunk > 0 {
                    plan.push((i, chunk));
                    remaining = remaining.saturating_sub(chunk);
                }
            }
        }
        plan
    }

    /// Applies a prefill plan, advancing per-request progress.
    ///
    /// A request completing its first prefill here has its prompt
    /// inserted into the prefix cache (when one is configured), making
    /// the prefix reusable by every later request that shares it.
    pub fn apply_prefill(&mut self, plan: &[(usize, u32)]) {
        for &(i, chunk) in plan {
            self.running[i].advance_prefill(chunk);
            let r = &self.running[i];
            if r.phase == Phase::Decoding && r.generated() == 0 {
                if let Some(cache) = self.prefix.as_mut() {
                    cache.insert(&r.tokens()[..r.spec.prompt_len as usize]);
                }
            }
        }
    }

    /// A prefill-only iteration: one target pass over up to `budget`
    /// prompt tokens of the running requests (`u32::MAX` prefills whole
    /// prompts, vLLM's prefill-prioritized iteration). Returns `None` if
    /// no request needs prefill.
    pub fn prefill_pass(&mut self, budget: u32, now_ms: f64) -> Option<StepResult> {
        let plan = self.plan_prefill(budget);
        if plan.is_empty() {
            return None;
        }
        let work = plan
            .iter()
            .map(|&(i, chunk)| SeqWork::prefill(chunk, self.running[i].prefilled()));
        let ms = self
            .config
            .testbed
            .target
            .forward_latency_ms(&ForwardPass::new(work.collect()), false);
        self.apply_prefill(&plan);
        self.breakdown.prefill_ms += ms;
        self.stamp_decode_starts(now_ms + ms);
        Some(StepResult { latency_ms: ms })
    }

    /// Indices of running requests currently in the decode phase.
    pub fn decoding_indices(&self) -> Vec<usize> {
        self.running
            .iter()
            .enumerate()
            .filter(|(_, r)| r.phase == Phase::Decoding)
            .map(|(i, _)| i)
            .collect()
    }

    /// Samples the next output token for request `i` auto-regressively.
    ///
    /// The token at output position `k` is a pure function of the request
    /// stream, so speculative and non-speculative engines produce identical
    /// outputs for the same request.
    pub fn next_token(&self, i: usize) -> TokenId {
        let r = &self.running[i];
        let dist = self.config.pair.target().next_dist(&r.lm_context());
        match self.config.verify_mode {
            spectree::VerifyMode::Greedy => dist.top1(),
            spectree::VerifyMode::Stochastic => {
                sample_seeded(&dist, r.spec.stream_seed, u64::from(r.generated()))
            }
        }
    }

    /// Grows request `i`'s KV reservation to its context plus `extra`
    /// tokens, preempting other requests (latest-admitted first, vLLM's
    /// recompute policy) if the pool is exhausted.
    ///
    /// Returns `false` if even preempting everything else cannot satisfy the
    /// growth (the request itself is then preempted by the caller's policy).
    pub fn grow_with_preemption(&mut self, i: usize, extra: u64) -> bool {
        let id = self.running[i].spec.id;
        // A prefix-cache hit shrinks the private reservation: the cached
        // prefix's blocks stay owned (and pinned) by the cache.
        let need = self.running[i].kv_need(extra);
        loop {
            if self.blocks.reserve(id, need) {
                return true;
            }
            // Preempt the most recently admitted other request. The
            // growing request is protected by id, not by index: evicting
            // a victim below `i` shifts the batch, and a stale index
            // could otherwise preempt the very request being grown.
            let victim = (0..self.running.len())
                .rev()
                .find(|&j| self.running[j].spec.id != id);
            let Some(j) = victim else { return false };
            self.preempt(j);
        }
    }

    /// Preempts running request `j`: drops its KV and requeues it (front).
    pub fn preempt(&mut self, j: usize) {
        let mut req = self.running.remove(j);
        self.blocks.release(req.spec.id);
        if let Some(cache) = self.prefix.as_mut() {
            cache.release(req.spec.id);
        }
        req.drop_kv_for_preemption();
        self.waiting.push_front(req);
    }

    /// Marks request `i` finished at `now_ms`; its record is collected and
    /// its blocks are released. Call only when `is_done()`.
    fn finish(&mut self, i: usize, now_ms: f64) {
        let mut req = self.running.remove(i);
        req.phase = Phase::Finished;
        req.completion_ms = Some(now_ms);
        self.blocks.release(req.spec.id);
        if let Some(cache) = self.prefix.as_mut() {
            cache.release(req.spec.id);
        }
        self.finished.push(req.into_record());
    }

    /// Sweeps the running batch, finishing every request that has emitted
    /// all of its output tokens. Returns the number finished.
    pub fn collect_finished(&mut self, now_ms: f64) -> usize {
        let mut n = 0;
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].is_done() {
                self.finish(i, now_ms);
                n += 1;
            } else {
                i += 1;
            }
        }
        n
    }

    /// Takes all completion records accumulated so far.
    pub fn take_finished(&mut self) -> Vec<RequestRecord> {
        std::mem::take(&mut self.finished)
    }

    /// Completed-request count (without draining).
    pub fn finished_count(&self) -> usize {
        self.finished.len()
    }

    /// Removes and returns every running request that has completed prefill
    /// but not yet generated a token, releasing its KV reservation.
    ///
    /// This is the prefill side of disaggregated serving: a prefill-only
    /// replica calls it after each iteration to hand freshly prefilled
    /// requests to KV migration. Requests keep their prefill progress
    /// (`prefill_remaining() == 0`) so the decode side admits them straight
    /// into the decode phase.
    pub fn take_prefilled(&mut self) -> Vec<LiveRequest> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].phase == Phase::Decoding && self.running[i].generated() == 0 {
                let mut req = self.running.remove(i);
                self.blocks.release(req.spec.id);
                // Migration ships the full context KV: the decode side
                // owns every token, so the prefill side's cache pins and
                // the request's shared-prefix discount both end here.
                if let Some(cache) = self.prefix.as_mut() {
                    cache.release(req.spec.id);
                }
                req.clear_kv_reused();
                out.push(req);
            } else {
                i += 1;
            }
        }
        out
    }

    /// Admits a request whose KV cache was migrated in from a prefill
    /// replica (prefill complete, nothing generated yet).
    ///
    /// Reserves blocks for the full context plus one token and places the
    /// request directly in the running batch in the decode phase —
    /// bypassing the waiting queue, exactly as a disaggregated decode
    /// instance receives work. Returns the request back if the KV pool
    /// cannot hold it right now (the caller retries once memory frees up).
    ///
    /// # Panics
    ///
    /// Panics if the request still has prefill remaining — migrating a
    /// half-prefilled request would lose KV state.
    // The Err payload *is* the API: a rejected request goes back to the
    // caller's landing queue by value, not by allocation.
    #[allow(clippy::result_large_err)]
    pub fn admit_migrated(&mut self, mut req: LiveRequest) -> Result<(), LiveRequest> {
        assert_eq!(
            req.prefill_remaining(),
            0,
            "only fully prefilled requests migrate"
        );
        let need = u64::from(req.context_len()) + 1;
        if !self.blocks.can_hold(req.spec.id, need) {
            return Err(req);
        }
        let ok = self.blocks.reserve(req.spec.id, need);
        debug_assert!(ok, "can_hold implies reserve succeeds");
        req.phase = Phase::Decoding;
        self.running.push(req);
        Ok(())
    }

    /// Crash semantics for fault injection: every request this core holds
    /// — running *and* waiting — loses its KV and leaves. Returns the lost
    /// requests' specs so the front door can decide their fate
    /// ([`crate::RecoveryPolicy`]); a retried request regenerates the
    /// identical output because [`EngineCore::next_token`] is a pure
    /// function of the request stream.
    ///
    /// Device memory is wiped wholesale: the KV pool returns to full and
    /// the prefix cache (entries *and* pins) is rebuilt cold.
    pub fn evict_all_for_crash(&mut self) -> Vec<RequestSpec> {
        let mut lost = Vec::with_capacity(self.running.len() + self.waiting.len());
        for req in self.running.drain(..) {
            self.blocks.release(req.spec.id);
            lost.push(req.spec);
        }
        lost.extend(self.waiting.drain(..).map(|req| req.spec));
        self.prefix = self
            .config
            .prefix_cache_tokens
            .map(|budget| PrefixCache::new(budget, self.config.kv_block_tokens));
        lost
    }

    /// Marks the start of decoding for any request that just finished
    /// prefill and has no decode timestamp yet.
    pub fn stamp_decode_starts(&mut self, now_ms: f64) {
        for r in &mut self.running {
            if r.phase == Phase::Decoding && r.decode_start_ms.is_none() {
                r.decode_start_ms = Some(now_ms);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Category;

    fn spec(id: u64, prompt: u32, output: u32) -> RequestSpec {
        RequestSpec {
            id,
            category: Category::Chatbot,
            arrival_ms: 0.0,
            prompt_len: prompt,
            output_len: output,
            tpot_slo_ms: 50.0,
            ttft_slo_ms: 1_000.0,
            stream_seed: id ^ 0xABC,
            prefix: None,
        }
    }

    fn small_core() -> EngineCore {
        let mut config = SystemConfig::llama70b(1);
        config.max_batch = 4;
        let mut core = EngineCore::new(config);
        // Shrink the pool to make memory pressure testable: 8 blocks of 16.
        core.blocks = BlockManager::new(8, 16);
        core
    }

    #[test]
    fn admit_fifo_respects_batch_cap() {
        let mut core = small_core();
        for id in 0..6 {
            core.on_arrival(spec(id, 8, 4));
        }
        let n = core.admit_fifo();
        assert_eq!(n, 4, "batch cap");
        assert_eq!(core.waiting.len(), 2);
    }

    #[test]
    fn admit_fifo_respects_memory() {
        let mut core = small_core();
        core.on_arrival(spec(0, 100, 4)); // 7 blocks
        core.on_arrival(spec(1, 100, 4)); // would need 7 more
        assert_eq!(core.admit_fifo(), 1);
        assert_eq!(core.waiting.len(), 1);
        assert!(core.blocks.validate().is_ok());
    }

    #[test]
    fn prefill_plan_chunks_across_requests() {
        let mut core = small_core();
        core.on_arrival(spec(0, 20, 4));
        core.on_arrival(spec(1, 20, 4));
        core.admit_fifo();
        let plan = core.plan_prefill(30);
        assert_eq!(plan, vec![(0, 20), (1, 10)]);
        core.apply_prefill(&plan);
        assert_eq!(core.running[0].phase, Phase::Decoding);
        assert_eq!(core.running[1].prefill_remaining(), 10);
    }

    #[test]
    fn preemption_frees_blocks_and_requeues() {
        let mut core = small_core();
        core.on_arrival(spec(0, 30, 4));
        core.on_arrival(spec(1, 30, 4));
        core.admit_fifo();
        assert_eq!(core.running.len(), 2);
        core.preempt(1);
        assert_eq!(core.running.len(), 1);
        assert_eq!(core.waiting.len(), 1);
        assert_eq!(core.waiting[0].preemptions, 1);
        assert!(core.blocks.validate().is_ok());
    }

    #[test]
    fn grow_with_preemption_evicts_latest() {
        let mut core = small_core();
        core.on_arrival(spec(0, 60, 40)); // 4 blocks now
        core.on_arrival(spec(1, 60, 4)); // 4 blocks now
        core.admit_fifo();
        assert_eq!(core.running.len(), 2);
        // Growing request 0 by 64 tokens needs 4 more blocks → evict req 1.
        assert!(core.grow_with_preemption(0, 64));
        assert_eq!(core.running.len(), 1);
        assert_eq!(core.waiting.len(), 1);
        assert_eq!(core.waiting[0].spec.id, 1);
    }

    #[test]
    fn grow_fails_when_alone_and_oversized() {
        let mut core = small_core();
        core.on_arrival(spec(0, 30, 4));
        core.admit_fifo();
        assert!(!core.grow_with_preemption(0, 10_000));
    }

    #[test]
    fn finish_and_collect_records() {
        let mut core = small_core();
        core.on_arrival(spec(0, 8, 2));
        core.admit_fifo();
        core.apply_prefill(&core.plan_prefill(u32::MAX));
        core.stamp_decode_starts(5.0);
        let t1 = core.next_token(0);
        core.running[0].push_token(t1);
        let t2 = core.next_token(0);
        core.running[0].push_token(t2);
        assert_eq!(core.collect_finished(42.0), 1);
        let records = core.take_finished();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].output_tokens, 2);
        assert_eq!(core.blocks.free_blocks(), core.blocks.total_blocks());
    }

    #[test]
    fn take_prefilled_extracts_fresh_decode_ready_requests() {
        let mut core = small_core();
        core.on_arrival(spec(0, 20, 4));
        core.on_arrival(spec(1, 40, 4));
        core.admit_fifo();
        // Finish request 0's prefill only.
        core.apply_prefill(&[(0, 20), (1, 10)]);
        let taken = core.take_prefilled();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].spec.id, 0);
        assert_eq!(taken[0].prefill_remaining(), 0);
        assert_eq!(core.running.len(), 1, "half-prefilled request stays");
        // Request 0's blocks were released along with the extraction.
        assert!(core.blocks.validate().is_ok());
    }

    #[test]
    fn admit_migrated_lands_in_decode_phase() {
        let mut source = small_core();
        source.on_arrival(spec(7, 24, 4));
        source.admit_fifo();
        source.apply_prefill(&source.plan_prefill(u32::MAX));
        let req = source.take_prefilled().pop().expect("prefilled");

        let mut sink = small_core();
        sink.admit_migrated(req).expect("fits in an empty pool");
        assert_eq!(sink.running.len(), 1);
        assert_eq!(sink.running[0].phase, Phase::Decoding);
        assert_eq!(sink.running[0].prefill_remaining(), 0);
        assert!(sink.blocks.validate().is_ok());
    }

    #[test]
    fn admit_migrated_backpressures_when_full() {
        let mut source = small_core();
        source.on_arrival(spec(7, 100, 4)); // 7 of 8 blocks
        source.admit_fifo();
        source.apply_prefill(&source.plan_prefill(u32::MAX));
        let req = source.take_prefilled().pop().expect("prefilled");

        let mut sink = small_core();
        sink.on_arrival(spec(9, 100, 4)); // occupy the sink's pool
        sink.admit_fifo();
        let rejected = sink.admit_migrated(req).expect_err("pool is full");
        assert_eq!(rejected.spec.id, 7);
        assert_eq!(rejected.prefill_remaining(), 0, "progress survives");
        assert_eq!(sink.running.len(), 1);
    }

    fn shared_spec(id: u64, prompt: u32, output: u32) -> RequestSpec {
        let mut s = spec(id, prompt, output);
        s.stream_seed = id ^ 0xDEF;
        s.prefix = Some(workload::PrefixSpec { seed: 42, len: 64 });
        s
    }

    fn cached_core() -> EngineCore {
        let mut config = SystemConfig::llama70b(1);
        config.max_batch = 4;
        config = config.with_prefix_cache(4_096);
        let mut core = EngineCore::new(config);
        core.blocks = BlockManager::new(32, 16);
        core
    }

    #[test]
    fn admission_reuses_a_cached_shared_prefix() {
        let mut core = cached_core();
        core.on_arrival(shared_spec(0, 96, 4));
        core.admit_fifo();
        assert_eq!(core.running[0].kv_reused(), 0, "cold cache");
        core.apply_prefill(&core.plan_prefill(u32::MAX));
        assert_eq!(core.running[0].phase, Phase::Decoding);

        core.on_arrival(shared_spec(1, 96, 4));
        core.admit_fifo();
        let r = &core.running[1];
        assert_eq!(r.kv_reused(), 64, "the shared prefix is reused");
        assert_eq!(r.prefill_remaining(), 32, "only the suffix prefills");
        assert_eq!(core.hotloop.prefix_hits, 1);
        assert_eq!(core.hotloop.prefill_tokens_saved, 64);
        assert!(core.blocks.validate().is_ok());
    }

    #[test]
    fn prefix_aware_admission_admits_what_would_not_fit() {
        let mut core = cached_core();
        // 8 blocks × 16 tokens = 128 tokens of KV.
        core.blocks = BlockManager::new(8, 16);
        core.on_arrival(shared_spec(0, 96, 2));
        core.admit_fifo();
        core.apply_prefill(&core.plan_prefill(u32::MAX));
        core.running[0].decode_start_ms = Some(1.0);
        for _ in 0..2 {
            let t = core.next_token(0);
            core.running[0].push_token(t);
        }
        core.collect_finished(10.0);
        assert!(core.running.is_empty(), "warm-up request finished");

        // A 140-token prompt needs 141 tokens of KV uncached — more
        // than the whole 128-token pool. Its 64-token cached prefix
        // shrinks the reservation to 77 tokens, which fits.
        core.on_arrival(shared_spec(2, 140, 2));
        let admitted = core.admit_fifo();
        assert_eq!(admitted, 1, "141 - 64 = 77 tokens fit");
        assert_eq!(core.running[0].kv_reused(), 64);
        assert!(core.blocks.validate().is_ok());
    }

    #[test]
    fn preemption_releases_pins_and_forgets_reuse() {
        let mut core = cached_core();
        core.on_arrival(shared_spec(0, 96, 4));
        core.admit_fifo();
        core.apply_prefill(&core.plan_prefill(u32::MAX));
        core.on_arrival(shared_spec(1, 96, 4));
        core.admit_fifo();
        assert_eq!(core.running[1].kv_reused(), 64);
        let pinned_before = core.prefix.as_ref().unwrap().pinned_node_count();
        assert!(pinned_before > 0);
        core.preempt(1);
        assert_eq!(core.waiting[0].kv_reused(), 0, "reuse forgotten");
        // Re-admission looks the prefix up again and re-pins it.
        core.admit_fifo();
        assert_eq!(core.running[1].kv_reused(), 64, "re-hit on re-admission");
        assert_eq!(core.hotloop.prefix_hits, 2);
    }

    #[test]
    fn disjoint_prompts_never_hit() {
        let mut core = cached_core();
        for id in 0..3 {
            core.on_arrival(spec(id, 64, 2));
        }
        core.admit_fifo();
        core.apply_prefill(&core.plan_prefill(u32::MAX));
        assert_eq!(core.hotloop.prefix_hits, 0);
        assert_eq!(core.hotloop.prefix_lookups, 3);
        for i in 0..3 {
            assert_eq!(core.running[i].kv_reused(), 0);
        }
    }

    #[test]
    fn crash_eviction_loses_everything_and_resets_memory() {
        let mut core = cached_core();
        for id in 0..6 {
            core.on_arrival(shared_spec(id, 96, 4));
        }
        core.admit_fifo();
        core.apply_prefill(&core.plan_prefill(u32::MAX));
        assert_eq!(core.running.len(), 4);
        assert_eq!(core.waiting.len(), 2);
        let lost = core.evict_all_for_crash();
        let ids: Vec<u64> = lost.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5], "running first, then waiting");
        assert!(core.running.is_empty() && core.waiting.is_empty());
        assert_eq!(core.blocks.free_blocks(), core.blocks.total_blocks());
        let cache = core.prefix.as_ref().expect("cache still configured");
        assert_eq!(cache.pinned_node_count(), 0, "crash wiped the pins");
        // The rebuilt cache is cold: the shared prefix misses again.
        core.on_arrival(shared_spec(7, 96, 4));
        core.admit_fifo();
        assert_eq!(core.running[0].kv_reused(), 0, "cold after crash");
    }

    #[test]
    fn next_token_is_deterministic_per_position() {
        let mut core = small_core();
        core.on_arrival(spec(0, 8, 4));
        core.admit_fifo();
        core.apply_prefill(&core.plan_prefill(u32::MAX));
        let a = core.next_token(0);
        let b = core.next_token(0);
        assert_eq!(a, b, "same position, same token");
    }
}
