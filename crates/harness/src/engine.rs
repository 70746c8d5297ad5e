//! The experiment engine: a parallel, cache-backed plan executor.

use crate::cache::{config_key, Annotation, Cache, EngineStats, TraceKey};
use crate::crosscheck::{cross_check, CrossCheckReport};
use crate::disk::DiskCache;
use crate::error::{HarnessError, Phase};
use crate::plan::{JobSpec, MachineModel, Plan};
use crate::valueflow::{static_hints, value_flow_check, ValueFlowCheckReport};
use lvp_isa::AsmProfile;
use lvp_lang::OptLevel;
use lvp_predictor::characterize::{Characterization, Characterizer};
use lvp_predictor::{LvpConfig, LvpUnit, PredictorKind};
use lvp_sim::SimEngine;
use lvp_uarch::SimResult;
use lvp_workloads::{Workload, WorkloadRun, DEFAULT_FUEL};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The workload subset used by `--fast` smoke runs: the smallest suite
/// members (all under 2.5M dynamic instructions), mixing integer and
/// floating-point benchmarks. Per-workload result rows are identical to
/// a full run because every measurement is per-workload.
pub const FAST_WORKLOADS: [&str; 4] = ["sc", "xlisp", "grep", "doduc"];

/// Runs one workload end to end (phase 1) on a simulation engine:
/// compile under `(profile, opt)`, simulate to completion, collect the
/// trace, and validate the output against the workload's golden values.
/// The engines are trace-identical (enforced by the differential
/// suite), so the choice never affects results — only trace-generation
/// wall time.
///
/// # Errors
///
/// Returns [`HarnessError`] (phase [`Phase::Trace`]) if compilation
/// fails, simulation faults or exhausts its fuel, or the self-check
/// fails.
pub fn run_workload_with(
    w: &Workload,
    profile: AsmProfile,
    opt: OptLevel,
    engine: SimEngine,
) -> Result<WorkloadRun, HarnessError> {
    let err = |e: &dyn std::fmt::Display| {
        HarnessError::new(
            Phase::Trace,
            w.name,
            format!("under {profile}/{opt:?}: {e}"),
        )
    };
    if opt == OptLevel::O0 {
        return w.run_with_engine(profile, engine).map_err(|e| err(&e));
    }
    // Optimized builds go through the compiler directly; the output is
    // still golden-checked so a miscompiling optimizer fails loudly.
    let program = lvp_lang::compile_with(w.source, profile, opt).map_err(|e| err(&e))?;
    let run = engine
        .run_traced(&program, DEFAULT_FUEL)
        .map_err(|e| err(&e))?;
    if run.output != w.expected_output() {
        return Err(err(&format!("self-check failed; output {:?}", run.output)));
    }
    Ok(WorkloadRun {
        trace: run.trace,
        output: run.output,
        checksum: run.checksum,
        program,
    })
}

/// The experiment engine: owns the worker budget, the workload suite
/// under evaluation, and the process-wide caches.
///
/// One engine should be shared by every experiment a process runs — the
/// caches are what make `lvp bench --all` amortize trace generation
/// across the whole evaluation.
pub struct Engine {
    threads: usize,
    suite: Vec<Workload>,
    predictor: Option<PredictorKind>,
    static_hints: bool,
    sim_engine: SimEngine,
    cache: Cache,
    disk: Option<DiskCache>,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// Engine over the full 17-workload suite with one worker per
    /// available CPU.
    pub fn new() -> Engine {
        Engine {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            suite: lvp_workloads::suite(),
            predictor: None,
            static_hints: false,
            sim_engine: SimEngine::default(),
            cache: Cache::new(),
            disk: None,
        }
    }

    /// Engine over the [`FAST_WORKLOADS`] smoke subset.
    pub fn fast() -> Engine {
        Engine::new()
            .with_workload_names(&FAST_WORKLOADS)
            .expect("fast subset names are valid")
    }

    /// Sets the worker count (clamped to at least 1).
    pub fn with_threads(mut self, n: usize) -> Engine {
        self.threads = n.max(1);
        self
    }

    /// Overrides the predictor backend for every annotation this
    /// engine computes: each configuration's [`LvpConfig::kind`] is
    /// replaced by `kind` before the predict phase runs (and before
    /// cache keying, so distinct kinds never collide). The cross-check
    /// oracle is unaffected — it always judges the paper's last-value
    /// unit.
    pub fn with_predictor(mut self, kind: PredictorKind) -> Engine {
        self.predictor = Some(kind);
        self
    }

    /// The predictor-kind override, if one was set.
    pub fn predictor(&self) -> Option<PredictorKind> {
        self.predictor
    }

    /// Enables static predictor hints for every annotation this engine
    /// computes: before replaying a trace, each cell's value-flow
    /// report is bridged to a hint table
    /// ([`static_hints`](crate::static_hints)) and applied to the LVP
    /// unit, seeding LCT warm-up and the hybrid arbiter. Hinted and
    /// cold annotations are cached under distinct keys, so an A/B
    /// comparison in one process never mixes them. The cross-check
    /// oracle is unaffected — it always judges the cold unit.
    pub fn with_static_hints(mut self, on: bool) -> Engine {
        self.static_hints = on;
        self
    }

    /// Whether static predictor hints are applied to annotations.
    pub fn static_hints(&self) -> bool {
        self.static_hints
    }

    /// Selects the simulation engine used for phase-1 trace generation.
    /// Both engines are trace-identical; [`SimEngine::Fast`] is the
    /// default, [`SimEngine::Interp`] is the differential oracle.
    pub fn with_sim_engine(mut self, engine: SimEngine) -> Engine {
        self.sim_engine = engine;
        self
    }

    /// The simulation engine used for trace generation.
    pub fn sim_engine(&self) -> SimEngine {
        self.sim_engine
    }

    /// Attaches a persistent on-disk trace cache rooted at `dir`.
    ///
    /// With a disk cache attached, phase-1 results are served from disk
    /// when a valid content-addressed entry exists (counted in
    /// [`EngineStats::traces_disk_hit`], *not* in `traces_computed`) and
    /// written back after every generation, so a rerun in a fresh
    /// process computes zero traces. The engine defaults to **no** disk
    /// cache — library users and tests stay hermetic unless they opt in.
    pub fn with_disk_cache(mut self, dir: impl Into<std::path::PathBuf>) -> Engine {
        self.disk = Some(DiskCache::new(dir));
        self
    }

    /// Detaches the persistent disk cache (the default state).
    pub fn without_disk_cache(mut self) -> Engine {
        self.disk = None;
        self
    }

    /// The attached disk cache's root directory, if any.
    pub fn disk_cache_dir(&self) -> Option<&std::path::Path> {
        self.disk.as_ref().map(DiskCache::dir)
    }

    /// Restricts the engine to a named workload subset: suite members
    /// in suite order, then any non-suite names (e.g. the `synth-*`
    /// adversarial workloads) in the order given.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError`] (phase [`Phase::Plan`]) for unknown
    /// names.
    pub fn with_workload_names(mut self, names: &[&str]) -> Result<Engine, HarnessError> {
        for n in names {
            if Workload::by_name(n).is_none() {
                return Err(HarnessError::new(
                    Phase::Plan,
                    *n,
                    "unknown workload (see `lvp suite`)",
                ));
            }
        }
        let mut suite: Vec<Workload> = lvp_workloads::suite()
            .into_iter()
            .filter(|w| names.contains(&w.name))
            .collect();
        for n in names {
            if !suite.iter().any(|w| w.name == *n) {
                suite.extend(Workload::by_name(n));
            }
        }
        self.suite = suite;
        Ok(self)
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The workload suite experiments should plan over.
    pub fn suite(&self) -> &[Workload] {
        &self.suite
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> EngineStats {
        self.cache.stats()
    }

    /// Drops all cached traces/annotations/timings to release memory;
    /// counters are preserved.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// A pipeline context for ad-hoc (non-plan) use of the caches.
    pub fn ctx(&self) -> Ctx<'_> {
        Ctx { engine: self }
    }

    /// Executes a plan's job matrix and merges the per-job results.
    ///
    /// Jobs are distributed over `threads` scoped workers; results are
    /// merged **in plan order**, never completion order, so the output
    /// is identical at any worker count. On failure the error of the
    /// lowest-indexed failing job is returned (also deterministic).
    ///
    /// # Errors
    ///
    /// Propagates the first (by job index) [`HarnessError`] any job
    /// produced.
    pub fn run<T: Send>(&self, plan: Plan<T>) -> Result<Vec<T>, HarnessError> {
        let n = plan.jobs.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let ctx = self.ctx();
        let slots: Vec<Mutex<Option<Result<T, HarnessError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(n) {
                s.spawn(|| loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = (plan.run)(&plan.jobs[i], &ctx);
                    if out.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                });
            }
        });
        let mut results = Vec::with_capacity(n);
        let mut first_error: Option<HarnessError> = None;
        for slot in slots {
            match slot.into_inner().expect("result slot poisoned") {
                Some(Ok(v)) => results.push(v),
                // Slots are visited in job-index order, so the error
                // kept is the lowest-indexed one — deterministic at any
                // worker count. `None` slots were skipped because the
                // run aborted after that error.
                Some(Err(e)) if first_error.is_none() => first_error = Some(e),
                _ => {}
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(results),
        }
    }
}

/// Cached access to the three pipeline phases; handed to every plan job
/// and available directly via [`Engine::ctx`].
pub struct Ctx<'e> {
    engine: &'e Engine,
}

impl Ctx<'_> {
    fn trace_key(w: &Workload, profile: AsmProfile, opt: OptLevel) -> TraceKey {
        (w.name, profile, opt)
    }

    /// Runs `f`, charging its wall time to the per-stage counter
    /// `counter` (the cheap ns accounting behind `lvp bench`'s stage
    /// breakdown; one `Instant` pair per cache miss, nothing per entry).
    fn timed<T>(
        counter: &std::sync::atomic::AtomicU64,
        f: impl FnOnce() -> Result<T, HarnessError>,
    ) -> Result<T, HarnessError> {
        let start = std::time::Instant::now();
        let out = f();
        counter.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Phase 1, cached: the full workload run (trace + program +
    /// output) for `(workload, profile, opt)`. Computed exactly once
    /// per process and shared across all consumers. With a disk cache
    /// attached (see [`Engine::with_disk_cache`]) the run is served
    /// from a valid persistent entry when one exists, and written back
    /// after generation otherwise.
    ///
    /// # Errors
    ///
    /// Propagates [`run_workload_with`] failures. Disk-cache problems are
    /// never errors: a bad entry is a miss (regenerated and rewritten)
    /// and a failed write-back is ignored.
    pub fn workload_run(
        &self,
        w: &Workload,
        profile: AsmProfile,
        opt: OptLevel,
    ) -> Result<Arc<WorkloadRun>, HarnessError> {
        let w = *w;
        let cache = &self.engine.cache;
        let disk = self.engine.disk.as_ref();
        let sim_engine = self.engine.sim_engine;
        cache
            .traces
            .get_or_compute(Self::trace_key(&w, profile, opt), move || {
                Self::timed(&cache.trace_ns, || {
                    if let Some(run) = disk.and_then(|d| d.load(&w, profile, opt)) {
                        cache.traces_disk_hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(run);
                    }
                    let run = run_workload_with(&w, profile, opt, sim_engine)?;
                    cache.traces_generated.fetch_add(1, Ordering::Relaxed);
                    if let Some(d) = disk {
                        // Best-effort write-back: a full disk or read-only
                        // cache dir must not fail the experiment.
                        let _ = d.store(&w, profile, opt, &run);
                    }
                    Ok(run)
                })
            })
    }

    /// Phase 2, cached: the LVP-unit annotation of a trace under a
    /// configuration. Keyed by config *content*, not name.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn annotation(
        &self,
        w: &Workload,
        profile: AsmProfile,
        opt: OptLevel,
        config: &LvpConfig,
    ) -> Result<Arc<Annotation>, HarnessError> {
        self.annotation_with_hints(w, profile, opt, config, self.engine.static_hints)
    }

    /// [`Ctx::annotation`] with an explicit hint switch, overriding the
    /// engine-wide [`Engine::with_static_hints`] setting for this one
    /// request — the A/B primitive the hints ablation is built on.
    /// Hinted and cold passes are cached under distinct keys.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn annotation_with_hints(
        &self,
        w: &Workload,
        profile: AsmProfile,
        opt: OptLevel,
        config: &LvpConfig,
        hinted: bool,
    ) -> Result<Arc<Annotation>, HarnessError> {
        // Apply the engine-wide backend override before keying, so
        // sweeps over kinds are cached per kind.
        let rekinded;
        let config = match self.engine.predictor {
            Some(kind) if config.kind != kind => {
                rekinded = config.clone().builder().kind(kind).build();
                &rekinded
            }
            _ => config,
        };
        let run = self.workload_run(w, profile, opt)?;
        let key = (Self::trace_key(w, profile, opt), config_key(config), hinted);
        let cache = &self.engine.cache;
        cache.annotations.get_or_compute(key, || {
            Self::timed(&cache.annotate_ns, || {
                let mut unit = LvpUnit::new(config.clone());
                if hinted {
                    let report = lvp_analyze::analyze_value_flow(&run.program);
                    unit.apply_hints(&static_hints(&report));
                }
                let outcomes = unit.annotate(&run.trace);
                Ok(Annotation {
                    outcomes,
                    stats: *unit.stats(),
                })
            })
        })
    }

    /// Phase 3, cached: the timing simulation of a trace on a machine
    /// model, with (`Some`) or without (`None`) LVP annotations.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn timing(
        &self,
        w: &Workload,
        profile: AsmProfile,
        opt: OptLevel,
        config: Option<&LvpConfig>,
        machine: &MachineModel,
    ) -> Result<Arc<SimResult>, HarnessError> {
        let run = self.workload_run(w, profile, opt)?;
        let annotation = config
            .map(|c| self.annotation(w, profile, opt, c))
            .transpose()?;
        let key = (
            Self::trace_key(w, profile, opt),
            config.map(config_key),
            config.is_some() && self.engine.static_hints,
            machine.cache_key(),
        );
        let cache = &self.engine.cache;
        cache.timings.get_or_compute(key, || {
            Self::timed(&cache.timing_ns, || {
                let outcomes = annotation.as_ref().map(|a| a.outcomes.as_slice());
                Ok(machine.simulate(&run.trace, outcomes))
            })
        })
    }

    /// The static/dynamic cross-check oracle for one cell, cached like
    /// annotations (keyed by trace key + config *content*): the
    /// provenance pass's must-constant claims are verified against the
    /// cell's real trace and CVU event stream.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures (phase
    /// [`Phase::Analyze`](crate::Phase) belongs to the report itself,
    /// which never errors — a violated oracle is a *failing report*, not
    /// a harness error, so callers decide how loudly to fail).
    pub fn cross_check(
        &self,
        w: &Workload,
        profile: AsmProfile,
        opt: OptLevel,
        config: &LvpConfig,
    ) -> Result<Arc<CrossCheckReport>, HarnessError> {
        let run = self.workload_run(w, profile, opt)?;
        let key = (Self::trace_key(w, profile, opt), config_key(config));
        let cache = &self.engine.cache;
        cache.crosschecks.get_or_compute(key, || {
            Self::timed(&cache.crosscheck_ns, || {
                let cell = format!("{}/{profile}/{opt:?}", w.name);
                Ok(cross_check(&run.program, &run.trace, config, cell))
            })
        })
    }

    /// The value-flow cross-check for one cell, cached by trace key
    /// alone (the check has no config axis — the emulated predictors
    /// are fixed): the value-flow pass's affine-stride and
    /// must-constant claims are judged against the cell's real trace,
    /// and `LVP014` under-approximations are collected.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures (a refuted claim is a
    /// *failing report*, not a harness error — same policy as
    /// [`Ctx::cross_check`]).
    pub fn value_flow_check(
        &self,
        w: &Workload,
        profile: AsmProfile,
        opt: OptLevel,
    ) -> Result<Arc<ValueFlowCheckReport>, HarnessError> {
        let run = self.workload_run(w, profile, opt)?;
        let key = Self::trace_key(w, profile, opt);
        let cache = &self.engine.cache;
        cache.value_flows.get_or_compute(key, || {
            Self::timed(&cache.value_flow_ns, || {
                let cell = format!("{}/{profile}/{opt:?}", w.name);
                Ok(value_flow_check(&run.program, &run.trace, cell))
            })
        })
    }

    /// The workload characterization for one cell, cached by trace key
    /// alone (the metrics are predictor-independent): one streaming
    /// pass of the [`Characterizer`] over the cell's trace, yielding
    /// per-load-PC value-locality metrics and their roll-up.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn characterization(
        &self,
        w: &Workload,
        profile: AsmProfile,
        opt: OptLevel,
    ) -> Result<Arc<Characterization>, HarnessError> {
        let run = self.workload_run(w, profile, opt)?;
        let key = Self::trace_key(w, profile, opt);
        let cache = &self.engine.cache;
        cache.characterizations.get_or_compute(key, || {
            Self::timed(&cache.characterize_ns, || {
                Ok(Characterizer::from_trace(&run.trace))
            })
        })
    }

    /// [`Ctx::workload_run`] for a job's own axes.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn job_run(&self, job: &JobSpec) -> Result<Arc<WorkloadRun>, HarnessError> {
        self.workload_run(&job.workload, job.profile, job.opt)
    }

    /// [`Ctx::annotation`] for a job's own axes (requires a config
    /// axis).
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn job_annotation(&self, job: &JobSpec) -> Result<Arc<Annotation>, HarnessError> {
        self.annotation(&job.workload, job.profile, job.opt, job.config()?)
    }

    /// [`Ctx::cross_check`] for a job's own axes (requires a config
    /// axis).
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn job_cross_check(&self, job: &JobSpec) -> Result<Arc<CrossCheckReport>, HarnessError> {
        self.cross_check(&job.workload, job.profile, job.opt, job.config()?)
    }

    /// [`Ctx::value_flow_check`] for a job's own axes.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn job_value_flow(&self, job: &JobSpec) -> Result<Arc<ValueFlowCheckReport>, HarnessError> {
        self.value_flow_check(&job.workload, job.profile, job.opt)
    }

    /// [`Ctx::characterization`] for a job's own axes.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn job_characterization(
        &self,
        job: &JobSpec,
    ) -> Result<Arc<Characterization>, HarnessError> {
        self.characterization(&job.workload, job.profile, job.opt)
    }

    /// [`Ctx::timing`] for a job's own axes (requires a machine axis;
    /// `with_lvp` selects whether the job's config axis is applied).
    ///
    /// # Errors
    ///
    /// Propagates trace-generation failures.
    pub fn job_timing(
        &self,
        job: &JobSpec,
        with_lvp: bool,
    ) -> Result<Arc<SimResult>, HarnessError> {
        let config = if with_lvp { Some(job.config()?) } else { None };
        self.timing(&job.workload, job.profile, job.opt, config, job.machine()?)
    }
}
