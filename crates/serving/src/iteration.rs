//! The iteration AdaServe and every baseline share (paper §4.3, Fig. 6).
//!
//! Speculating engines differ only in their *select* step: how deep and
//! wide each request speculates, and which part of its candidate tree is
//! verified. Every stage around that choice lives here, once:
//!
//! 1. [`crate::EngineCore::prefill_pass`] — a prefill-only pass under a
//!    token budget, for iterations with nothing to decode;
//! 2. [`Iteration::reserve`] — the KV capacity pass: headroom for every
//!    selected request, preempting on pressure;
//! 3. [`Iteration::speculate`] — the draft model's cost and its beam
//!    search into pooled candidate trees;
//! 4. [`Iteration::verify`] — the target model's cost, co-batched with a
//!    prefill plan, then verify-and-commit of accepted and bonus tokens.
//!
//! [`Iteration::speculate_verify`] chains 2–4 for fixed speculation, which
//! verifies whole candidate trees. Plain decoding runs the capacity pass
//! alone, with one token of headroom.

use crate::core::EngineCore;
use crate::engine::StepResult;
use crate::request::{LiveRequest, Phase};
use roofline::{ForwardPass, SeqWork};
use spectree::{
    verify_tree_with, CandidateTree, SpecParams, SpeculateScratch, TokenTree, VerifyScratch,
};
use std::collections::HashMap;

/// One iteration's decode batch and the pooled buffers of its stages.
///
/// An engine keeps one across iterations, so the capacity pass's position
/// map, the candidate trees and the beam-search and verification buffers
/// are reused instead of reallocated.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Ids of the requests selected for this iteration, in batch order.
    ids: Vec<u64>,
    /// Selected ids that kept their KV headroom.
    surviving: Vec<u64>,
    /// Running indices of the surviving requests, in selection order.
    decoding: Vec<usize>,
    /// Id → running index, rebuilt only after a preemption.
    positions: HashMap<u64, usize>,
    /// Candidate trees of the last speculation, one per surviving request.
    candidates: Vec<CandidateTree>,
    /// Beam-search buffers.
    spec: SpeculateScratch,
    /// Verification-walk buffers.
    verify: VerifyScratch,
}

impl Iteration {
    /// Selects the requests at running indices `batch`, in that order.
    /// Returns how many.
    pub fn select(&mut self, core: &EngineCore, batch: impl IntoIterator<Item = usize>) -> usize {
        self.ids.clear();
        self.ids
            .extend(batch.into_iter().map(|i| core.running[i].spec.id));
        self.ids.len()
    }

    /// Selects every decoding request, in batch order. Returns how many.
    pub fn select_decoding(&mut self, core: &EngineCore) -> usize {
        let decoding = core.running.iter().enumerate();
        let decoding = decoding.filter(|(_, r)| r.phase == Phase::Decoding);
        self.select(core, decoding.map(|(i, _)| i))
    }

    /// The KV capacity pass: grows each selected request's reservation to
    /// its context plus `extra` tokens, preempting the latest-admitted
    /// requests on pressure (vLLM's recompute policy). The requests that
    /// got their headroom become [`Iteration::decoding`], in selection
    /// order. Returns how many.
    ///
    /// A request that cannot get `extra` tokens even alone asks for the
    /// [`LiveRequest::remaining`] tokens it still has to emit — all that
    /// verify-and-commit ever pushes — before it preempts itself, so a
    /// request that fits the pool always progresses.
    ///
    /// Works by id, because preemption reshuffles running indices, but
    /// resolves ids through a position map rebuilt only after a
    /// preemption: an iteration without pressure costs O(n).
    pub fn reserve(&mut self, core: &mut EngineCore, extra: u64) -> usize {
        let rebuild = |positions: &mut HashMap<u64, usize>, core: &EngineCore| {
            positions.clear();
            positions.extend(core.running.iter().enumerate().map(|(i, r)| (r.spec.id, i)));
        };
        rebuild(&mut self.positions, core);
        let mut map_len = core.running.len();
        self.surviving.clear();
        for &id in &self.ids {
            if core.running.len() != map_len {
                // A preemption shrank the batch: the map is stale.
                rebuild(&mut self.positions, core);
                map_len = core.running.len();
            }
            let Some(&idx) = self.positions.get(&id) else {
                continue; // Preempted as a victim of an earlier growth.
            };
            if core.grow_with_preemption(idx, extra) {
                self.surviving.push(id);
                continue;
            }
            // The failed growth evicted every other request.
            debug_assert_eq!(core.running.len(), 1, "alone after a failed growth");
            let remaining = u64::from(core.running[0].remaining());
            if remaining < extra && core.grow_with_preemption(0, remaining) {
                self.surviving.push(id);
            } else {
                core.preempt(0); // Cannot fit even alone: retry later.
            }
        }
        if core.running.len() != map_len {
            rebuild(&mut self.positions, core);
        }
        self.decoding.clear();
        let positions = &self.positions;
        self.decoding
            .extend(self.surviving.iter().filter_map(|id| positions.get(id)));
        self.decoding.len()
    }

    /// Running indices of the requests that kept their headroom in the
    /// last capacity pass, in selection order.
    pub fn decoding(&self) -> &[usize] {
        &self.decoding
    }

    /// The last speculation's candidate trees, one per decoding request.
    pub fn candidates(&self) -> &[CandidateTree] {
        &self.candidates[..self.decoding.len()]
    }

    /// Speculation at `params` for every decoding request: charges the
    /// draft model — the first beam step eagerly (its shape changes every
    /// iteration), the other `depth − 1` steps of `width` tokens as
    /// captured CUDA graphs (paper §5.2) — and runs the beam search into
    /// the pooled candidate trees. Returns the draft time in ms.
    pub fn speculate(&mut self, core: &mut EngineCore, params: SpecParams) -> f64 {
        let draft = &core.config.testbed.draft;
        let first = self.pass(core, |r| SeqWork::decode(r.context_len()));
        let mut ms = draft.forward_latency_ms(&first, false);
        if params.depth > 1 {
            let rest = self.pass(core, |r| SeqWork {
                new_tokens: params.width,
                ctx_len: r.context_len(),
            });
            ms += draft.forward_latency_ms(&rest, true) * f64::from(params.depth - 1);
        }
        if self.candidates.len() < self.decoding.len() {
            self.candidates
                .resize_with(self.decoding.len(), CandidateTree::empty);
        }
        let lm = core.config.pair.draft();
        for (cand, &i) in self.candidates.iter_mut().zip(&self.decoding) {
            cand.speculate_with(lm, &core.running[i].lm_context(), params, &mut self.spec);
        }
        core.breakdown.speculation_ms += ms;
        ms
    }

    /// Verification of `trees`, one per decoding request, co-batched with
    /// the `prefill` plan: charges the target model for one pass (captured
    /// graphs only when nothing is co-batched), verifies each tree and
    /// commits its accepted tokens plus the bonus token, never past the
    /// request's output length, then applies the plan. Returns the verify
    /// time in ms.
    pub fn verify(
        &mut self,
        core: &mut EngineCore,
        trees: &[TokenTree],
        prefill: &[(usize, u32)],
    ) -> f64 {
        verify_commit(
            core,
            &self.decoding,
            |k| &trees[k],
            prefill,
            &mut self.verify,
        )
    }

    /// One fixed-speculation iteration over the selected requests: the
    /// capacity pass with `depth + 1` tokens of headroom (an accepted path
    /// plus the bonus token), speculation at `params`, and verification of
    /// every whole candidate tree. An iteration in which no request kept
    /// its headroom is an idle tick.
    pub fn speculate_verify(
        &mut self,
        core: &mut EngineCore,
        params: SpecParams,
        now_ms: f64,
    ) -> StepResult {
        if self.reserve(core, u64::from(params.depth) + 1) == 0 {
            return StepResult::IDLE;
        }
        let draft_ms = self.speculate(core, params);
        let candidates = &self.candidates;
        let verify_ms = verify_commit(
            core,
            &self.decoding,
            |k| candidates[k].tree(),
            &[],
            &mut self.verify,
        );
        let ms = draft_ms + verify_ms;
        core.collect_finished(now_ms + ms);
        StepResult { latency_ms: ms }
    }

    /// Sum of the pooled buffers' capacities, tree arenas included: an
    /// allocation-discipline probe that stops growing once warm.
    pub fn capacity_sum(&self) -> usize {
        let arenas = self.candidates.iter();
        self.ids.capacity()
            + self.surviving.capacity()
            + self.decoding.capacity()
            + self.positions.capacity()
            + self.verify.capacity_sum()
            + self.candidates.capacity()
            + arenas
                .map(|c| c.tree().arena_capacity() + c.layers().len())
                .sum::<usize>()
    }

    /// How often the beam-search buffers had to grow.
    pub fn speculate_grow_events(&self) -> u64 {
        self.spec.grow_events()
    }

    /// A forward pass with `work(request)` for every decoding request.
    fn pass(&self, core: &EngineCore, work: impl Fn(&LiveRequest) -> SeqWork) -> ForwardPass {
        ForwardPass::new(
            self.decoding
                .iter()
                .map(|&i| work(&core.running[i]))
                .collect(),
        )
    }
}

/// [`Iteration::verify`] over `tree_of(k)` for the `k`-th decoding request.
fn verify_commit<'t>(
    core: &mut EngineCore,
    decoding: &[usize],
    tree_of: impl Fn(usize) -> &'t TokenTree,
    prefill: &[(usize, u32)],
    scratch: &mut VerifyScratch,
) -> f64 {
    let mut pass = ForwardPass::default();
    for (k, &i) in decoding.iter().enumerate() {
        let tokens = tree_of(k).num_speculated().max(1) as u32;
        pass.push(SeqWork::verify(tokens, core.running[i].context_len()));
    }
    for &(i, chunk) in prefill {
        pass.push(SeqWork::prefill(chunk, core.running[i].prefilled()));
    }
    let ms = core
        .config
        .testbed
        .target
        .forward_latency_ms(&pass, prefill.is_empty());
    core.breakdown.verification_ms += ms;
    for (k, &i) in decoding.iter().enumerate() {
        let tree = tree_of(k);
        let r = &core.running[i];
        let outcome = verify_tree_with(
            core.config.pair.target(),
            &r.lm_context(),
            tree,
            u64::from(r.generated()),
            core.config.verify_mode,
            scratch,
        );
        let r = &mut core.running[i];
        let remaining = r.remaining() as usize;
        let advanced = outcome.accepted_tokens.len().min(remaining);
        for &token in &outcome.accepted_tokens[..advanced] {
            r.push_token(token);
        }
        if advanced < remaining {
            r.push_token(outcome.bonus_token);
        }
        r.accepted_tokens += advanced as u64;
        r.verify_steps += 1;
        core.speculated_total += tree.num_speculated() as u64;
        core.accepted_total += advanced as u64;
    }
    core.apply_prefill(prefill);
    ms
}
