//! Baseline serving systems the paper compares against.
//!
//! Each engine reimplements the *scheduling policy* of a published system on
//! the shared substrate (`serving::EngineCore`, the stages of one
//! `serving::Iteration` and the roofline cost model), so comparisons against
//! AdaServe isolate exactly the policy difference:
//!
//! | engine | system | policy |
//! |---|---|---|
//! | [`VllmEngine`] | vLLM \[22\] | continuous batching, prefill-prioritized, paged KV with recompute preemption |
//! | [`SarathiEngine`] | Sarathi-Serve \[1\] | chunked prefill co-batched with decode under a per-iteration token budget |
//! | [`VllmSpecEngine`] | vLLM-Spec(k) | vLLM + sequence speculative decoding with fixed draft length `k`: the `(k, 1)` static tree |
//! | [`PriorityEngine`] | vLLM + Priority | urgent requests first; decode batch capped so its modelled latency fits the strictest admitted SLO |
//! | [`FastServeEngine`] | FastServe \[51\] | preemptive MLFQ (skip-join) at iteration granularity |
//! | [`VtcEngine`] | VTC \[44\] | fair queuing by per-service virtual token counters |
//! | [`SmartSpecEngine`] | SmartSpec \[30\] | goodput-optimized adaptive draft-chain length (related-work extension) |
//! | [`StaticTreeEngine`] | Sequoia-style \[9\] | fixed (depth, width) speculation trees (related-work extension) |
//!
//! The first six appear in the paper's Fig. 1 motivation study and/or the
//! §6 end-to-end comparison; the last two extend it with related work.
//!
//! The non-speculating engines decode through [`common::decode_iteration`];
//! the speculating ones differ only in the speculation they ask of
//! [`serving::Iteration::speculate_verify`].

pub mod common;
pub mod fastserve;
pub mod priority;
pub mod sarathi;
pub mod smartspec;
pub mod statictree;
pub mod vllm;
pub mod vllm_spec;
pub mod vtc;

pub use fastserve::FastServeEngine;
pub use priority::PriorityEngine;
pub use sarathi::SarathiEngine;
pub use smartspec::SmartSpecEngine;
pub use statictree::StaticTreeEngine;
pub use vllm::VllmEngine;
pub use vllm_spec::VllmSpecEngine;
pub use vtc::VtcEngine;
