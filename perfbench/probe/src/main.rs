//! Traced run of the repo benchmark (see `perfbench/README.md`).
//!
//! For one benchmark workload, this replays the cache requests that the
//! workload's `lvp bench` / `lvp check` command makes of the experiment
//! engine, keyed the way the engine keys its caches. Each distinct cell
//! is then computed by calling the owning layer's public function
//! directly, in dependency order, with one in-memory span per call.
//! Spans are written out as TSV at exit; `perfbench/run.py` turns them
//! into per-layer metrics. A second, held-out cell set — `synth`
//! programs generated from the benchmark seed — drives every layer on
//! inputs that were never used for tuning.
//!
//! Usage: `lvp-perfbench-probe <workload> <seed> <work-dir> <spans.tsv>`
//! where workload is one of `timing`, `predict`, `trace`, `check-warm`.
//! For `check-warm` the work dir must hold the `target/lvp-cache` that a
//! warm `lvp check` run reads. The summary goes to stdout as one JSON
//! line.

use lvp_harness::{
    cross_check, geo_mean, value_flow_check, DiskCache, MachineModel, FAST_WORKLOADS,
};
use lvp_isa::AsmProfile;
use lvp_lang::OptLevel;
use lvp_predictor::characterize::Characterizer;
use lvp_predictor::{presets, LvpConfig, LvpUnit, PredictorKind};
use lvp_sim::SimEngine;
use lvp_trace::{read_trace, write_trace, PredOutcome, TraceEntry};
use lvp_uarch::Ppc620Config;
use lvp_workloads::synth::{generate, SynthProfile, SynthSpec};
use lvp_workloads::{Workload, WorkloadRun, DEFAULT_FUEL};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Worker threads, as the benchmark's `lvp` commands pass `--threads 2`.
const THREADS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct TraceKey {
    name: &'static str,
    profile: AsmProfile,
    opt: OptLevel,
}

/// Computed/hit counts of one engine cache layer.
#[derive(Default, Clone, Copy)]
struct Counts {
    computed: u64,
    hits: u64,
}

/// Everything one trace cell feeds: the work of one probe job.
struct Cell {
    w: Workload,
    profile: AsmProfile,
    opt: OptLevel,
    annotations: Vec<LvpConfig>,
    timings: Vec<(Option<LvpConfig>, MachineModel)>,
    characterize: bool,
    cross_checks: Vec<LvpConfig>,
    value_flow_check: bool,
    /// The static passes `lvp check` (or the claims scorecard) run on
    /// the cell's program.
    static_value_flow: bool,
    static_memory: bool,
}

/// A stand-in for the engine's caches: the same request calls as
/// `lvp_harness::Ctx`, keyed by content as the engine keys them, so
/// the computed/hit counts must equal the untraced run's `engine:` line.
#[derive(Default)]
struct Mirror {
    cells: Vec<Cell>,
    index: HashMap<TraceKey, usize>,
    seen: HashSet<String>,
    traces: Counts,
    annotations: Counts,
    timings: Counts,
    characterizations: Counts,
    cross_checks: Counts,
    value_flows: Counts,
}

/// The engine's config cache key ignores the display name.
fn config_key(c: &LvpConfig) -> String {
    let mut c = c.clone();
    c.name = "".into();
    format!("{c:?}")
}

fn count(seen: &mut HashSet<String>, counts: &mut Counts, key: String) -> bool {
    let new = seen.insert(key);
    if new {
        counts.computed += 1;
    } else {
        counts.hits += 1;
    }
    new
}

impl Mirror {
    /// The cell for a trace key, created on first use; `fresh` says so.
    fn cell(&mut self, w: &Workload, profile: AsmProfile, opt: OptLevel) -> (usize, bool) {
        let key = TraceKey {
            name: w.name,
            profile,
            opt,
        };
        if let Some(&i) = self.index.get(&key) {
            return (i, false);
        }
        self.cells.push(Cell {
            w: *w,
            profile,
            opt,
            annotations: Vec::new(),
            timings: Vec::new(),
            characterize: false,
            cross_checks: Vec::new(),
            value_flow_check: false,
            static_value_flow: false,
            static_memory: false,
        });
        self.index.insert(key, self.cells.len() - 1);
        (self.cells.len() - 1, true)
    }

    /// A trace request (`Ctx::workload_run`).
    fn run(&mut self, w: &Workload, profile: AsmProfile, opt: OptLevel) -> usize {
        let (i, fresh) = self.cell(w, profile, opt);
        if fresh {
            self.traces.computed += 1;
        } else {
            self.traces.hits += 1;
        }
        i
    }

    fn annotation(&mut self, w: &Workload, p: AsmProfile, o: OptLevel, cfg: &LvpConfig) {
        let i = self.run(w, p, o);
        let key = format!("ann|{i}|{}", config_key(cfg));
        if count(&mut self.seen, &mut self.annotations, key) {
            self.cells[i].annotations.push(cfg.clone());
        }
    }

    fn timing(
        &mut self,
        w: &Workload,
        p: AsmProfile,
        o: OptLevel,
        cfg: Option<&LvpConfig>,
        m: &MachineModel,
    ) {
        let i = self.run(w, p, o);
        if let Some(c) = cfg {
            self.annotation(w, p, o, c);
        }
        let key = format!("time|{i}|{:?}|{m:?}", cfg.map(config_key));
        if count(&mut self.seen, &mut self.timings, key) {
            self.cells[i].timings.push((cfg.cloned(), m.clone()));
        }
    }

    fn characterization(&mut self, w: &Workload, p: AsmProfile, o: OptLevel) {
        let i = self.run(w, p, o);
        if count(
            &mut self.seen,
            &mut self.characterizations,
            format!("char|{i}"),
        ) {
            self.cells[i].characterize = true;
        }
    }

    fn cross_check(&mut self, w: &Workload, p: AsmProfile, o: OptLevel, cfg: &LvpConfig) {
        let i = self.run(w, p, o);
        let key = format!("cross|{i}|{}", config_key(cfg));
        if count(&mut self.seen, &mut self.cross_checks, key) {
            self.cells[i].cross_checks.push(cfg.clone());
        }
    }

    fn value_flow_check(&mut self, w: &Workload, p: AsmProfile, o: OptLevel) {
        let i = self.run(w, p, o);
        if count(&mut self.seen, &mut self.value_flows, format!("vf|{i}")) {
            self.cells[i].value_flow_check = true;
        }
    }

    /// Static analysis of a cell's program: compiled by the caller, so
    /// no engine request.
    fn static_pass(&mut self, w: &Workload, p: AsmProfile, o: OptLevel, memory: bool) {
        let (i, _) = self.cell(w, p, o);
        self.cells[i].static_value_flow = true;
        self.cells[i].static_memory |= memory;
    }
}

/// Mirrors `ablations::scaled` (the `ablation_machine` sweep points).
fn scaled(name: &'static str, factor: f64, n_lsu: usize, mem_per_cycle: usize) -> Ppc620Config {
    let base = Ppc620Config::base();
    let scale = |v: usize| ((v as f64 * factor).round() as usize).max(1);
    Ppc620Config {
        name,
        rs_per_class: scale(base.rs_per_class),
        gpr_renames: scale(base.gpr_renames),
        fpr_renames: scale(base.fpr_renames),
        completion_buffer: scale(base.completion_buffer),
        n_lsu,
        mem_dispatch_per_cycle: mem_per_cycle,
        ..base
    }
}

/// The `ablation_machine` sweep points.
fn ablation_machines() -> [MachineModel; 4] {
    [
        scaled("620/2", 0.5, 1, 1),
        scaled("620", 1.0, 1, 1),
        scaled("620+", 2.0, 2, 2),
        scaled("620x4", 4.0, 2, 2),
    ]
    .map(MachineModel::Ppc620)
}

/// Base-IPC cells of the `timing` reports, rendered from the probe's own
/// timing results as the reports render them: `fig6` per fast workload
/// and machine, and the `ablation_machine` GM per sweep point. `run.py`
/// compares them with the untraced run's report, so the probe is shown
/// to time the same machines, not only the same number of cells.
fn timing_fingerprint(base_ipc: &HashMap<String, f64>) -> String {
    let suite = fast_suite();
    let ipc = |w: &Workload, p: AsmProfile, m: &MachineModel| {
        base_ipc.get(&ipc_key(w, p, O0, m)).copied().unwrap_or(0.0)
    };
    let mut fig6 = Vec::new();
    for (profile, m) in [
        (TOC, MachineModel::ppc620()),
        (GP, MachineModel::alpha21164()),
    ] {
        for w in &suite {
            let v = ipc(w, profile, &m);
            fig6.push(format!("[\"{}\", \"{}\", \"{v:.3}\"]", m.name(), w.name));
        }
    }
    let machines = ablation_machines().map(|m| {
        let ipcs: Vec<f64> = suite.iter().map(|w| ipc(w, TOC, &m)).collect();
        format!("[\"{}\", \"{:.3}\"]", m.name(), geo_mean(&ipcs))
    });
    format!(
        "{{\"fig6\": [{}], \"ablation_machine\": [{}]}}",
        fig6.join(", "),
        machines.join(", ")
    )
}

fn fast_suite() -> Vec<Workload> {
    lvp_workloads::suite()
        .into_iter()
        .filter(|w| FAST_WORKLOADS.contains(&w.name))
        .collect()
}

const O0: OptLevel = OptLevel::O0;
const TOC: AsmProfile = AsmProfile::Toc;
const GP: AsmProfile = AsmProfile::Gp;

/// `bench fig6 table6 ablation_machine --fast`.
fn plan_timing(m: &mut Mirror) {
    let suite = fast_suite();
    let sections = [
        (
            TOC,
            MachineModel::ppc620(),
            vec![
                presets::simple(),
                presets::constant(),
                presets::limit(),
                presets::perfect(),
            ],
        ),
        (
            GP,
            MachineModel::alpha21164(),
            vec![presets::simple(), presets::limit(), presets::perfect()],
        ),
    ];
    for (profile, machine, configs) in &sections {
        for w in &suite {
            m.timing(w, *profile, O0, None, machine);
            for c in configs {
                m.timing(w, *profile, O0, Some(c), machine);
            }
        }
    }
    let plus = MachineModel::ppc620_plus();
    for w in &suite {
        m.timing(w, TOC, O0, None, &MachineModel::ppc620());
        m.timing(w, TOC, O0, None, &plus);
        for c in [
            presets::simple(),
            presets::constant(),
            presets::limit(),
            presets::perfect(),
        ] {
            m.timing(w, TOC, O0, Some(&c), &plus);
        }
    }
    for w in &suite {
        for machine in &ablation_machines() {
            m.timing(w, TOC, O0, None, machine);
            m.timing(w, TOC, O0, Some(&presets::simple()), machine);
            m.timing(w, TOC, O0, Some(&presets::perfect()), machine);
        }
    }
}

/// `bench fig1 table3 ablation_lvpt ablation_lct ablation_predictor`.
fn plan_predict(m: &mut Mirror) {
    let suite = lvp_workloads::suite();
    for w in &suite {
        for p in [GP, TOC] {
            m.run(w, p, O0);
        }
    }
    for w in &suite {
        for p in [GP, TOC] {
            for c in [presets::simple(), presets::limit()] {
                m.annotation(w, p, O0, &c);
            }
        }
    }
    for w in &suite {
        for n in [64usize, 256, 1024, 4096, 8192] {
            m.annotation(
                w,
                TOC,
                O0,
                &presets::simple().builder().lvpt_entries(n).build(),
            );
        }
    }
    for w in &suite {
        for b in 1..=4u8 {
            m.annotation(w, TOC, O0, &presets::simple().builder().lct_bits(b).build());
        }
    }
    let geometries = [
        presets::simple().builder().lvpt_entries(256).build(),
        presets::simple(),
        presets::simple().builder().lvpt_entries(4096).build(),
        presets::simple()
            .builder()
            .history_depth(4)
            .perfect_selection(true)
            .build(),
        presets::simple().builder().lct_bits(1).build(),
    ];
    let fast = fast_suite();
    for w in &fast {
        for k in PredictorKind::ALL {
            for g in &geometries {
                m.annotation(w, TOC, O0, &g.clone().builder().kind(k).build());
            }
        }
    }
    for w in &fast {
        m.run(w, TOC, O0);
        m.static_pass(w, TOC, O0, false);
        for k in [
            PredictorKind::LastValue,
            PredictorKind::Stride,
            PredictorKind::Hybrid,
        ] {
            m.annotation(w, TOC, O0, &presets::simple().builder().kind(k).build());
        }
    }
}

/// `bench table1 characterize`.
fn plan_trace(m: &mut Mirror) {
    let suite = lvp_workloads::suite();
    for w in &suite {
        for p in [TOC, GP] {
            m.run(w, p, O0);
        }
    }
    for w in &suite {
        m.characterization(w, TOC, O0);
        m.run(w, TOC, O0);
    }
}

/// `check --all --fast --cross-check --value-flow`.
fn plan_check(m: &mut Mirror) {
    let suite = fast_suite();
    let cells: Vec<(Workload, AsmProfile, OptLevel)> = suite
        .iter()
        .flat_map(|w| {
            [GP, TOC]
                .into_iter()
                .flat_map(move |p| [O0, OptLevel::O1].map(move |o| (*w, p, o)))
        })
        .collect();
    for (w, p, o) in &cells {
        m.cross_check(w, *p, *o, &presets::simple());
    }
    for (w, p, o) in &cells {
        m.value_flow_check(w, *p, *o);
    }
    for (w, p, o) in &cells {
        m.static_pass(w, *p, *o, true);
    }
}

/// The held-out set: one `synth` program per profile at `seed`, each
/// driven through every layer with the request pattern of the paper's
/// experiments (annotate, then time with and without the unit).
fn plan_heldout(m: &mut Mirror, seed: u64) -> Result<(), String> {
    for profile in SynthProfile::ALL {
        let spec = SynthSpec::new(profile, seed);
        let source: &'static str = Box::leak(generate(&spec).into_boxed_str());
        let program = lvp_lang::compile_with(source, TOC, O0)
            .map_err(|e| format!("held-out {} seed {seed}: {e}", profile.name()))?;
        let run = SimEngine::Fast
            .run_traced(&program, DEFAULT_FUEL)
            .map_err(|e| format!("held-out {} seed {seed}: {e}", profile.name()))?;
        let name: &'static str =
            Box::leak(format!("heldout-{}-s{seed}", profile.name()).into_boxed_str());
        let w = Workload {
            name,
            description: "held-out synth program",
            input: "generated",
            source,
            floating_point: false,
            golden: Some(Box::leak(run.output.into_boxed_slice())),
        };
        for k in PredictorKind::ALL {
            m.annotation(&w, TOC, O0, &presets::simple().builder().kind(k).build());
        }
        for machine in [
            MachineModel::ppc620(),
            MachineModel::ppc620_plus(),
            MachineModel::alpha21164(),
        ] {
            m.timing(&w, TOC, O0, None, &machine);
            m.timing(&w, TOC, O0, Some(&presets::simple()), &machine);
        }
        m.characterization(&w, TOC, O0);
        m.cross_check(&w, TOC, O0, &presets::simple());
        m.value_flow_check(&w, TOC, O0);
        m.static_pass(&w, TOC, O0, true);
    }
    Ok(())
}

/// One recorded call into a layer.
struct Span {
    layer: &'static str,
    detail: String,
    cell: String,
    heldout: bool,
    start_ns: u64,
    dur_ns: u64,
    entries: u64,
    loads: u64,
    bytes: u64,
    cycles: u64,
    predictions: u64,
    correct: u64,
}

/// Counts bytes written, so encoding is timed without holding its output.
struct ByteCounter(u64);

impl Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Correctness checks: how many were made, and what failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
    /// Base IPC of each workload timing cell with no LVP, by `ipc_key`.
    base_ipc: HashMap<String, f64>,
}

fn ipc_key(w: &Workload, profile: AsmProfile, opt: OptLevel, m: &MachineModel) -> String {
    format!("{}|{profile:?}|{opt:?}|{m:?}", w.name)
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

struct Recorder<'a> {
    epoch: Instant,
    cell: String,
    heldout: bool,
    spans: &'a mut Vec<Span>,
}

impl Recorder<'_> {
    /// Times `f` as one call into `layer`; `fill` sets the span's counts
    /// from the result.
    fn span<T>(
        &mut self,
        layer: &'static str,
        detail: &str,
        f: impl FnOnce() -> T,
        fill: impl FnOnce(&T, &mut Span),
    ) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let dur_ns = start.elapsed().as_nanos() as u64;
        let mut s = Span {
            layer,
            detail: detail.to_string(),
            cell: self.cell.clone(),
            heldout: self.heldout,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
            entries: 0,
            loads: 0,
            bytes: 0,
            cycles: 0,
            predictions: 0,
            correct: 0,
        };
        fill(&out, &mut s);
        self.spans.push(s);
        out
    }
}

fn machine_group(m: &MachineModel) -> &'static str {
    match m {
        MachineModel::Alpha21164(_) => "21164",
        MachineModel::Ppc620(c) if c.name == "620+" => "620p",
        MachineModel::Ppc620(_) => "620",
    }
}

/// Computes one cell in dependency order: trace source, then everything
/// that reads the trace. `warm` serves the trace from the disk cache, as
/// a warm `lvp check` does; otherwise it is generated and written back,
/// as a cold `lvp bench` does. Held-out cells also round-trip the disk
/// cache and the codec, so every layer has spans on every workload.
fn run_cell(cell: &Cell, disk: &DiskCache, warm: bool, rec: &mut Recorder, checks: &mut Checks) {
    let w = &cell.w;
    let heldout = rec.heldout;
    let program = rec.span(
        "lang.compile",
        "",
        || lvp_lang::compile_with(w.source, cell.profile, cell.opt),
        |_, _| {},
    );
    let program = match program {
        Ok(p) => p,
        Err(e) => {
            checks.check(false, || format!("{}: compile failed: {e}", rec.cell));
            return;
        }
    };
    if cell.static_value_flow {
        rec.span(
            "analyze.value_flow",
            "",
            || lvp_analyze::analyze_value_flow(&program),
            |_, _| {},
        );
    }
    if cell.static_memory {
        rec.span(
            "analyze.memory",
            "",
            || lvp_analyze::analyze_memory(&program),
            |_, _| {},
        );
    }

    let loaded = rec.span(
        "harness.disk_load",
        if warm { "hit" } else { "miss" },
        || disk.load(w, cell.profile, cell.opt),
        |r, s| {
            let len = r.as_ref().map_or(0, |r| r.trace.len());
            s.entries = len as u64;
            s.bytes = (len * std::mem::size_of::<TraceEntry>()) as u64;
        },
    );
    let run = if warm {
        match loaded {
            Some(run) => run,
            None => {
                checks.check(false, || format!("{}: warm disk cache missed", rec.cell));
                return;
            }
        }
    } else {
        checks.check(loaded.is_none(), || {
            format!("{}: cold run found a disk cache entry", rec.cell)
        });
        let engine_run = rec.span(
            "sim.run_traced",
            "",
            || SimEngine::Fast.run_traced(&program, DEFAULT_FUEL),
            |r, s| {
                if let Ok(r) = r {
                    s.entries = r.trace.len() as u64;
                    s.bytes = (r.trace.len() * std::mem::size_of::<TraceEntry>()) as u64;
                }
            },
        );
        let engine_run = match engine_run {
            Ok(r) => r,
            Err(e) => {
                checks.check(false, || format!("{}: simulation failed: {e}", rec.cell));
                return;
            }
        };
        checks.check(engine_run.output == w.expected_output(), || {
            format!(
                "{}: output {:?} is not the golden output",
                rec.cell, engine_run.output
            )
        });
        let run = WorkloadRun {
            trace: engine_run.trace,
            output: engine_run.output,
            checksum: engine_run.checksum,
            program: program.clone(),
        };
        let stored = rec.span(
            "harness.disk_store",
            "",
            || disk.store(w, cell.profile, cell.opt, &run),
            |_, s| s.entries = run.trace.len() as u64,
        );
        checks.check(stored.is_ok(), || {
            format!("{}: disk store failed", rec.cell)
        });
        run
    };
    let trace = &run.trace;
    let n = trace.len() as u64;

    // Encoding is timed into a byte counter, so no buffer growth is
    // charged to it; the decode input is encoded again, untimed.
    let mut sink = ByteCounter(0);
    let enc = rec.span(
        "trace.encode",
        "",
        || write_trace(&mut sink, trace),
        |_, s| s.entries = n,
    );
    if let Some(s) = rec.spans.last_mut() {
        s.bytes = sink.0;
    }
    checks.check(enc.is_ok(), || format!("{}: encode failed", rec.cell));
    if warm || heldout {
        let mut buf = Vec::new();
        let encoded = write_trace(&mut buf, trace);
        let dec = rec.span(
            "trace.decode",
            "",
            || read_trace(&buf[..]),
            |_, s| {
                s.entries = n;
                s.bytes = buf.len() as u64;
            },
        );
        checks.check(
            encoded.is_ok() && dec.is_ok_and(|d| d.entries() == trace.entries()),
            || format!("{}: codec round trip changed the trace", rec.cell),
        );
    }
    if heldout {
        let back = rec.span(
            "harness.disk_load",
            "hit",
            || disk.load(w, cell.profile, cell.opt),
            |r, s| s.entries = r.as_ref().map_or(0, |r| r.trace.len() as u64),
        );
        checks.check(
            back.is_some_and(|b| b.trace.entries() == trace.entries()),
            || format!("{}: disk cache round trip changed the trace", rec.cell),
        );
    }

    let loads = trace.stats().loads;
    let mut outcomes: HashMap<String, Vec<PredOutcome>> = HashMap::new();
    for cfg in &cell.annotations {
        let (out, _) = rec.span(
            "predictor.annotate",
            cfg.kind.as_str(),
            || {
                let mut unit = LvpUnit::new(cfg.clone());
                let out = unit.annotate(trace);
                (out, *unit.stats())
            },
            |(_, st), s| {
                s.entries = n;
                s.loads = loads;
                s.predictions = st.predictions;
                s.correct = st.correct;
            },
        );
        checks.check(out.len() as u64 == loads, || {
            format!("{}: {} outcomes for {loads} loads", rec.cell, out.len())
        });
        outcomes.insert(config_key(cfg), out);
    }
    for (cfg, machine) in &cell.timings {
        let outs = cfg.as_ref().and_then(|c| outcomes.get(&config_key(c)));
        checks.check(cfg.is_none() || outs.is_some(), || {
            format!("{}: timing cell without its annotation", rec.cell)
        });
        let r = rec.span(
            "uarch.simulate",
            machine_group(machine),
            || machine.simulate(trace, outs.map(Vec::as_slice)),
            |r, s| {
                s.entries = n;
                s.cycles = r.cycles;
            },
        );
        checks.check(r.instructions == n, || {
            format!(
                "{}: {} retired of {n} instructions",
                rec.cell, r.instructions
            )
        });
        if cfg.is_none() && !heldout {
            let key = ipc_key(w, cell.profile, cell.opt, machine);
            checks.base_ipc.insert(key, r.ipc());
        }
    }
    if cell.characterize {
        rec.span(
            "predictor.characterize",
            "",
            || Characterizer::from_trace(trace),
            |_, s| s.entries = n,
        );
    }
    for cfg in &cell.cross_checks {
        let label = format!("{}/{}/{:?}", w.name, cell.profile, cell.opt);
        let r = rec.span(
            "harness.cross_check",
            "",
            || cross_check(&run.program, trace, cfg, label),
            |_, s| s.entries = n,
        );
        if !heldout {
            checks.check(r.passed(), || format!("{}: cross-check failed", rec.cell));
        }
    }
    if cell.value_flow_check {
        let label = format!("{}/{}/{:?}", w.name, cell.profile, cell.opt);
        let r = rec.span(
            "harness.value_flow_check",
            "",
            || value_flow_check(&run.program, trace, label),
            |_, s| s.entries = n,
        );
        if !heldout {
            checks.check(r.passed(), || {
                format!("{}: value-flow check failed", rec.cell)
            });
        }
    }
}

/// Runs every cell of `mirror` on `THREADS` workers in `order`.
#[allow(clippy::too_many_arguments)]
fn execute(
    mirror: &Mirror,
    order: &[usize],
    disk: &DiskCache,
    warm: bool,
    heldout: bool,
    epoch: Instant,
    spans: &Mutex<Vec<Span>>,
    checks: &Mutex<Checks>,
) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..THREADS.min(order.len()).max(1) {
            let next = &next;
            s.spawn(move || {
                let mut local = Vec::new();
                let mut local_checks = Checks::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&ci) = order.get(i) else { break };
                    let cell = &mirror.cells[ci];
                    let mut rec = Recorder {
                        epoch,
                        cell: format!("{}/{}/{:?}", cell.w.name, cell.profile, cell.opt),
                        heldout,
                        spans: &mut local,
                    };
                    run_cell(cell, disk, warm, &mut rec, &mut local_checks);
                }
                spans.lock().expect("span list poisoned").extend(local);
                let mut c = checks.lock().expect("check list poisoned");
                c.attempted += local_checks.attempted;
                c.failures.extend(local_checks.failures);
                c.base_ipc.extend(local_checks.base_ipc);
            });
        }
    });
}

/// Seeded Fisher-Yates over the cell indices: the seed sets run order.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = lvp_trace::rng::Lcg::new(seed);
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

fn counts_json(m: &Mirror) -> String {
    let mut out = String::from("{");
    for (i, (name, c)) in [
        ("traces", m.traces),
        ("annotations", m.annotations),
        ("timings", m.timings),
        ("characterizations", m.characterizations),
        ("cross_checks", m.cross_checks),
        ("value_flows", m.value_flows),
    ]
    .into_iter()
    .enumerate()
    {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"computed\": {}, \"hits\": {}}}",
            c.computed, c.hits
        );
    }
    out.push('}');
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "layer\tdetail\tcell\theldout\tstart_ns\tdur_ns\tentries\tloads\tbytes\tcycles\tpredictions\tcorrect"
    )?;
    for s in spans {
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.layer,
            s.detail,
            s.cell,
            u8::from(s.heldout),
            s.start_ns,
            s.dur_ns,
            s.entries,
            s.loads,
            s.bytes,
            s.cycles,
            s.predictions,
            s.correct
        )?;
    }
    f.flush()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() != 4 {
        eprintln!("usage: lvp-perfbench-probe <workload> <seed> <work-dir> <spans.tsv>");
        std::process::exit(2);
    }
    let workload = &args[0];
    let Ok(seed) = args[1].parse::<u64>() else {
        eprintln!("seed must be a whole number");
        std::process::exit(2);
    };
    let work_dir = PathBuf::from(&args[2]);

    let mut mirror = Mirror::default();
    match workload.as_str() {
        "timing" => plan_timing(&mut mirror),
        "predict" => plan_predict(&mut mirror),
        "trace" => plan_trace(&mut mirror),
        "check-warm" => plan_check(&mut mirror),
        other => {
            eprintln!("unknown workload `{other}`");
            std::process::exit(2);
        }
    }
    // Held-out synth seeds start at 2: seed 1 builds the `synth-*`
    // suite rows that the characterization work was tuned on.
    let heldout_seed = seed.saturating_add(2);
    let mut heldout = Mirror::default();
    if let Err(e) = plan_heldout(&mut heldout, heldout_seed) {
        eprintln!("{e}");
        std::process::exit(1);
    }

    let warm = workload == "check-warm";
    let disk = DiskCache::new(work_dir.join("target/lvp-cache"));
    let heldout_disk = DiskCache::new(work_dir.join("heldout-cache"));
    let spans = Mutex::new(Vec::new());
    let checks = Mutex::new(Checks::default());
    let epoch = Instant::now();
    let order = shuffled(mirror.cells.len(), seed);
    execute(&mirror, &order, &disk, warm, false, epoch, &spans, &checks);
    let workload_wall = epoch.elapsed().as_secs_f64();
    let heldout_order = shuffled(heldout.cells.len(), seed);
    execute(
        &heldout,
        &heldout_order,
        &heldout_disk,
        false,
        true,
        epoch,
        &spans,
        &checks,
    );
    let total_wall = epoch.elapsed().as_secs_f64();

    let spans = spans.into_inner().expect("span list poisoned");
    let checks = checks.into_inner().expect("check list poisoned");
    if let Err(e) = write_spans(Path::new(&args[3]), &spans) {
        eprintln!("cannot write spans: {e}");
        std::process::exit(1);
    }
    let failures: Vec<String> = checks.failures.iter().map(|f| json_str(f)).collect();
    let fingerprint = if workload == "timing" {
        timing_fingerprint(&checks.base_ipc)
    } else {
        "null".to_string()
    };
    println!(
        "{{\"workload_wall_s\": {workload_wall}, \"total_wall_s\": {total_wall}, \"threads\": {THREADS}, \
         \"heldout_seed\": {heldout_seed}, \"counts\": {}, \"heldout_counts\": {}, \"attempted\": {}, \
         \"failed\": {}, \"failures\": [{}], \"fingerprint\": {fingerprint}}}",
        counts_json(&mirror),
        counts_json(&heldout),
        checks.attempted,
        checks.failures.len(),
        failures.join(", ")
    );
}
