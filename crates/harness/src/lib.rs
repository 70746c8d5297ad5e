//! # lvp-harness — the experiment engine
//!
//! A typed, parallel, trace-caching harness for the paper's evaluation:
//!
//! * [`ExperimentPlan`] — a builder describing a job matrix over
//!   (workload × [`AsmProfile`](lvp_isa::AsmProfile) ×
//!   [`OptLevel`](lvp_lang::OptLevel) ×
//!   [`LvpConfig`](lvp_predictor::LvpConfig) × [`MachineModel`]).
//! * [`Engine`] — a parallel executor over scoped threads with a
//!   configurable worker count and deterministic (plan-order) result
//!   merging, backed by content-keyed caches so each trace, annotation
//!   and timing simulation is computed exactly once per process.
//! * [`DiskCache`] — an opt-in persistent, content-addressed trace
//!   cache ([`Engine::with_disk_cache`]) that makes phase 1 exactly-once
//!   per *machine*: reruns in fresh processes load checksummed LVPT v2
//!   artifacts from disk instead of re-simulating.
//! * [`Report`] / [`ExperimentRow`] / [`Cell`] — structured results
//!   separated from rendering; the classic fixed-width text output is
//!   one renderer ([`Report::render_text`]), CSV another.
//! * [`experiments`] — the registry of all paper experiments (tables,
//!   figures, ablations), each a thin declarative plan. The `lvp bench`
//!   subcommand dispatches through it.
//!
//! ## Pipeline
//!
//! ```text
//!   plan (job matrix) ──► engine (parallel, cached) ──► rows ──► renderer
//!        ExperimentPlan        Engine::run                Report   text/CSV
//! ```
//!
//! ## Example
//!
//! ```
//! use lvp_harness::{Engine, ExperimentPlan};
//!
//! let engine = Engine::fast().with_threads(2);
//! let plan = ExperimentPlan::new()
//!     .workloads(engine.suite().to_vec())
//!     .configs([lvp_predictor::presets::simple()])
//!     .map(|job, ctx| {
//!         let ann = ctx.job_annotation(job)?;
//!         Ok((job.workload.name, ann.stats.accuracy()))
//!     });
//! # let _ = plan; // executing would trace real workloads; see `lvp bench`
//! ```

pub mod cache;
pub mod crosscheck;
pub mod disk;
pub mod engine;
pub mod error;
pub mod experiments;
pub mod perf;
pub mod plan;
pub mod report;
pub mod valueflow;

pub use cache::{Annotation, EngineStats};
pub use crosscheck::{cross_check, CrossCheckReport, CrossCheckViolation, ViolationKind};
pub use disk::DiskCache;
pub use engine::{run_workload_with, Ctx, Engine, FAST_WORKLOADS};
pub use error::{ErrorKind, HarnessError, Phase};
pub use experiments::{experiment, experiments, ExperimentDef};
pub use perf::{
    benches, check, run as run_benches, BenchDef, BenchResult, PerfConfig, PerfError, PerfReport,
    Regression,
};
pub use plan::{ExperimentPlan, JobSpec, MachineModel, Plan};
pub use report::{geo_mean, Cell, ExperimentRow, ExperimentTable, Report, Section, TablePrinter};
pub use valueflow::{
    static_hints, value_flow_check, value_flow_check_with, PredEval, ValueFlowCheckReport,
    ValueFlowViolation, ValueFlowViolationKind, MIN_EXECUTIONS, STRIDE_ACCURACY_FLOOR,
};
