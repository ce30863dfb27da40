//! An instrumented replay of `AdaServeEngine::step`, built from public
//! calls only.
//!
//! [`ReplayEngine`] performs the same four-step iteration as
//! `adaserve_core::AdaServeEngine` — admission, KV capacity, beam-search
//! speculation, SLO-customized selection, subtree extraction and tree
//! verification, co-batched with chunked prefill — in the same order and
//! with the same arguments, so its records, end time and iteration count
//! equal the real engine's. Each stage is timed into the run's [`Probe`],
//! and the draft and target models are wrapped in [`TimedLm`]s.
//!
//! The benchmark checks that identity on every traced run and reports the
//! engine-internal rows as missing when it breaks (see the crate docs).

use crate::probe::{Probe, TimedLm};
use adaserve_core::scsd::{select_tokens_with, ScsdScratch};
use adaserve_core::{AdaServeOptions, ScsdInput, SloCustomizedScheduler};
use roofline::{ForwardPass, SeqWork, TokenBudgetProfile};
use serving::{EngineCore, Phase, ServingEngine, StepResult, SystemConfig};
use spectree::{
    verify_tree_with, CandidateTree, SpecParams, SpeculateScratch, SubtreeScratch, TokenTree,
    VerifyScratch,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The AdaServe iteration, replayed stage by stage under timers.
pub struct ReplayEngine {
    core: EngineCore,
    scheduler: SloCustomizedScheduler,
    options: AdaServeOptions,
    probe: Arc<Probe>,
    decoding: Vec<usize>,
    ids: Vec<u64>,
    surviving: Vec<u64>,
    positions: HashMap<u64, usize>,
    requirements: Vec<f64>,
    scsd: ScsdScratch,
    spec: SpeculateScratch,
    subtree: SubtreeScratch,
    verify: VerifyScratch,
    candidates: Vec<CandidateTree>,
    draft_trees: Vec<TokenTree>,
}

impl std::fmt::Debug for ReplayEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayEngine")
            .field("running", &self.core.running.len())
            .finish()
    }
}

impl ReplayEngine {
    /// Builds the replay exactly as `AdaServeEngine::new` builds the
    /// engine: default options, profiled budgets, the same scheduler.
    pub fn new(config: SystemConfig, probe: &Arc<Probe>) -> Self {
        let options = AdaServeOptions::default();
        let profile = TokenBudgetProfile::profile(
            &config.testbed.target,
            &config.testbed.draft,
            512,
            options.budget_policy,
        );
        let mut scheduler = SloCustomizedScheduler::from_profile(&profile, config.baseline_ms);
        scheduler.n_max = options.n_max;
        scheduler.adaptive = options.adaptive;
        scheduler.static_params = options.static_params;
        scheduler.slo_selection = options.slo_selection;
        Self {
            core: EngineCore::new(config),
            scheduler,
            options,
            probe: Arc::clone(probe),
            decoding: Vec::new(),
            ids: Vec::new(),
            surviving: Vec::new(),
            positions: HashMap::new(),
            requirements: Vec::new(),
            scsd: ScsdScratch::default(),
            spec: SpeculateScratch::default(),
            subtree: SubtreeScratch::default(),
            verify: VerifyScratch::default(),
            candidates: Vec::new(),
            draft_trees: Vec::new(),
        }
    }

    fn forward_ms(&self, draft: bool, pass: &ForwardPass, cuda_graph: bool) -> f64 {
        let testbed = &self.core.config.testbed;
        let model = if draft {
            &testbed.draft
        } else {
            &testbed.target
        };
        self.probe
            .roofline
            .time(|| model.forward_latency_ms(pass, cuda_graph))
    }

    /// The engine's KV capacity pass: grow every decoding request's
    /// reservation by `depth + 1`, preempting on pressure, and collect the
    /// surviving decoding indices.
    fn ensure_decode_capacity(&mut self, depth: u32) {
        self.ids.clear();
        self.ids.extend(
            self.core
                .running
                .iter()
                .filter(|r| r.phase == Phase::Decoding)
                .map(|r| r.spec.id),
        );
        let rebuild = |positions: &mut HashMap<u64, usize>, core: &EngineCore| {
            positions.clear();
            positions.extend(core.running.iter().enumerate().map(|(i, r)| (r.spec.id, i)));
        };
        rebuild(&mut self.positions, &self.core);
        let mut map_len = self.core.running.len();
        self.surviving.clear();
        for &id in &self.ids {
            if self.core.running.len() != map_len {
                rebuild(&mut self.positions, &self.core);
                map_len = self.core.running.len();
            }
            let Some(&idx) = self.positions.get(&id) else {
                continue;
            };
            if self.core.grow_with_preemption(idx, u64::from(depth) + 1) {
                self.surviving.push(id);
            } else if let Some(pos) = self.core.running.iter().position(|r| r.spec.id == id) {
                self.core.preempt(pos);
            }
        }
        if self.core.running.len() != map_len {
            rebuild(&mut self.positions, &self.core);
        }
        self.decoding.clear();
        self.decoding.extend(
            self.surviving
                .iter()
                .filter_map(|id| self.positions.get(id).copied()),
        );
    }

    fn prefill_only_step(&mut self, now_ms: f64) -> StepResult {
        let start = Instant::now();
        let plan = self.core.plan_prefill(self.options.prefill_chunk.max(2048));
        self.probe.kv.stop(start);
        if plan.is_empty() {
            return StepResult { latency_ms: 1.0 };
        }
        let mut pass = ForwardPass::default();
        for &(i, chunk) in &plan {
            pass.push(SeqWork::prefill(chunk, self.core.running[i].prefilled()));
        }
        let ms = self.forward_ms(false, &pass, false);
        self.probe.kv.time(|| self.core.apply_prefill(&plan));
        self.core.breakdown.prefill_ms += ms;
        self.core.stamp_decode_starts(now_ms + ms);
        StepResult { latency_ms: ms }
    }
}

impl ServingEngine for ReplayEngine {
    fn name(&self) -> String {
        "AdaServe".into()
    }

    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn step(&mut self, now_ms: f64) -> StepResult {
        let probe = Arc::clone(&self.probe);
        probe.kv.time(|| self.core.admit_fifo());
        let n_decoding = self
            .core
            .running
            .iter()
            .filter(|r| r.phase == Phase::Decoding)
            .count();
        if n_decoding == 0 {
            return self.prefill_only_step(now_ms);
        }
        let mut params = self.scheduler.spec_params(n_decoding);
        if self.core.degraded {
            params = SpecParams::new(1, 1);
        }
        probe.kv.time(|| self.ensure_decode_capacity(params.depth));
        if self.decoding.is_empty() {
            return self.prefill_only_step(now_ms);
        }
        let n = self.decoding.len();
        probe.decode_iterations.add(1);
        probe.decode_batch_sum.add(n as u64);

        // Step 1: speculation.
        let mut first = ForwardPass::default();
        for &i in &self.decoding {
            first.push(SeqWork::decode(self.core.running[i].context_len()));
        }
        let mut draft_ms = self.forward_ms(true, &first, false);
        if params.depth > 1 {
            let mut rest = ForwardPass::default();
            for &i in &self.decoding {
                rest.push(SeqWork {
                    new_tokens: params.width,
                    ctx_len: self.core.running[i].context_len(),
                });
            }
            draft_ms += self.forward_ms(true, &rest, true) * f64::from(params.depth - 1);
        }
        let start = Instant::now();
        if self.candidates.len() < n {
            self.candidates.resize_with(n, CandidateTree::empty);
        }
        {
            let running = &self.core.running;
            let draft = TimedLm::new(self.core.config.pair.draft(), &probe.draft_lm);
            for (cand, &i) in self.candidates.iter_mut().zip(&self.decoding) {
                cand.speculate_with(&draft, &running[i].lm_context(), params, &mut self.spec);
                probe
                    .draft_tokens
                    .add(u64::from(cand.draft_tokens_processed()));
            }
        }
        probe.draft.stop(start);
        self.core.breakdown.speculation_ms += draft_ms;

        // Steps 2–3: selection and subtree extraction.
        let start = Instant::now();
        self.scheduler.requirements_into(
            self.decoding.iter().map(|&i| &self.core.running[i]),
            now_ms,
            params.depth,
            &mut self.requirements,
        );
        let candidate_trees: Vec<&TokenTree> =
            self.candidates[..n].iter().map(|c| c.tree()).collect();
        let budget = self.scheduler.verify_budget.saturating_sub(n as u64);
        select_tokens_with(
            &ScsdInput {
                candidates: &candidate_trees,
                requirements: &self.requirements,
                budget,
                n_max: self.scheduler.n_max,
                min_phase2_prob: self.options.min_phase2_prob,
            },
            &mut self.scsd,
        );
        if self.draft_trees.len() < n {
            self.draft_trees
                .resize_with(n, || TokenTree::new(simllm::TokenId(0)));
        }
        let sub_start = Instant::now();
        for (k, cand) in candidate_trees.iter().enumerate() {
            cand.induced_subtree_into(
                &self.scsd.ordered[k][..self.scsd.taken[k]],
                &mut self.draft_trees[k],
                &mut self.subtree,
            )
            .expect("connected selection");
        }
        probe.subtree.stop(sub_start);
        let sched_ns = probe.scsd.stop(start);
        self.core.breakdown.scheduling_ms += sched_ns as f64 / 1e6;

        // Step 4: verification co-batched with chunked prefill.
        let start = Instant::now();
        let prefill_plan = self.core.plan_prefill(self.options.prefill_chunk);
        probe.kv.stop(start);
        let mut pass = ForwardPass::default();
        for (k, &i) in self.decoding.iter().enumerate() {
            let tree_tokens = self.draft_trees[k].num_speculated().max(1) as u32;
            pass.push(SeqWork::verify(
                tree_tokens,
                self.core.running[i].context_len(),
            ));
        }
        for &(i, chunk) in &prefill_plan {
            pass.push(SeqWork::prefill(chunk, self.core.running[i].prefilled()));
        }
        let cobatched = !prefill_plan.is_empty();
        let verify_ms = self.forward_ms(false, &pass, !cobatched);
        self.core.breakdown.verification_ms += verify_ms;

        let start = Instant::now();
        let target = TimedLm::new(self.core.config.pair.target(), &probe.verify_lm);
        for (k, &i) in self.decoding.iter().enumerate() {
            let outcome = {
                let r = &self.core.running[i];
                verify_tree_with(
                    &target,
                    &r.lm_context(),
                    &self.draft_trees[k],
                    u64::from(r.generated()),
                    self.core.config.verify_mode,
                    &mut self.verify,
                )
            };
            let num_speculated = self.draft_trees[k].num_speculated() as u64;
            let r = &mut self.core.running[i];
            let remaining = r.remaining() as usize;
            let mut advanced = 0usize;
            for &tok in outcome.accepted_tokens.iter().take(remaining) {
                r.push_token(tok);
                advanced += 1;
            }
            let mut emitted = advanced;
            if advanced < remaining {
                r.push_token(outcome.bonus_token);
                emitted += 1;
            }
            r.accepted_tokens += advanced as u64;
            r.verify_steps += 1;
            self.core.speculated_total += num_speculated;
            self.core.accepted_total += advanced as u64;
            probe.speculated.add(num_speculated);
            probe.accepted.add(advanced as u64);
            probe.verifies.add(1);
            probe.emitted.add(emitted as u64);
        }
        probe.verify.stop(start);
        probe.kv.time(|| self.core.apply_prefill(&prefill_plan));

        let cache = self.core.config.pair.dist_cache_stats();
        let hot = &mut self.core.hotloop;
        hot.dist_cache_hits = cache.hits;
        hot.dist_cache_misses = cache.misses;
        hot.iterations += 1;
        hot.peak_decode_batch = hot.peak_decode_batch.max(n as u64);

        let iter_ms = draft_ms + verify_ms;
        self.scheduler.observe_iteration(iter_ms);
        self.core.stamp_decode_starts(now_ms + iter_ms);
        probe
            .kv
            .time(|| self.core.collect_finished(now_ms + iter_ms));
        StepResult {
            latency_ms: iter_ms,
        }
    }
}
