//! The repository's benchmark: three serving shapes, measured end to end
//! and per layer, timed from outside the library.
//!
//! * [`shapes`] builds and serves one run of each workload;
//! * [`probe`] holds the timing wrappers (deployment, engine, router,
//!   language model) and the [`probe::Probe`] they fill;
//! * [`replay`] replays `AdaServeEngine::step` from public calls so the
//!   engine's stages can be timed one by one;
//! * [`measure`] defines the metrics, checks a run's outputs and turns
//!   runs into numbers.
//!
//! No library code is changed to measure it. See `README.md` for the
//! metrics, the workloads and how to run the benchmark.

pub mod measure;
pub mod probe;
pub mod replay;
pub mod shapes;
