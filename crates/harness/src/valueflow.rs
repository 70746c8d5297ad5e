//! The value-flow static/dynamic cross-check oracle.
//!
//! `lvp-analyze`'s value-flow pass ([`analyze_value_flow`]) makes two
//! kinds of *predictive* claims about loads, and both are falsifiable
//! against a real execution:
//!
//! 1. **Affine-stride** (`LVP012`) — the loaded value follows
//!    `base + i*stride` around its loop. Replaying the trace through the
//!    two-delta stride [`Backend`] must then achieve at least
//!    [`STRIDE_ACCURACY_FLOOR`] accuracy on that pc once the predictor
//!    is warm ([`ValueFlowViolationKind::StrideMiss`] otherwise).
//! 2. **Must-constant** — the strongest class, inherited from the
//!    provenance pass: the pc must load one value on every execution
//!    ([`ValueFlowViolationKind::ConstantValueChanged`]), and the stride
//!    predictor must nail it as a stride of zero
//!    ([`ValueFlowViolationKind::StrideMiss`]).
//!
//! Claims are only judged when the pc executed at least
//! [`MIN_EXECUTIONS`] times — below that the predictor's 2-instruction
//! warm-up dominates and accuracy is noise, not evidence.
//!
//! The report also runs the *reverse* direction: an emulated last-value
//! LCT is trained on the trace, and statically-*unknown* loads the LCT
//! nevertheless learned predictable are surfaced as `LVP014`
//! diagnostics — not failures, but a measured report of where the
//! static analysis under-approximates (the paper's motivating gap
//! between static classification and dynamic value locality).
//!
//! On top of the class-agnostic stride check, every static class is
//! judged against the *predictor backend it nominates* (the per-kind
//! oracle): affine-stride claims against the two-delta stride backend,
//! must-constant and loop-invariant claims against the last-value
//! backend, and store-to-load-forwardable claims against the
//! store-to-load backend. A claimed pc on which the nominated backend
//! falls below [`BACKEND_ACCURACY_FLOOR`] is a
//! [`ValueFlowViolationKind::BackendMiss`].
//!
//! The same nomination doubles as the *static predictor hint* bridge
//! ([`static_hints`]): each classified load becomes a
//! [`StaticHint`] seeding the LVP unit's warm-up. Because a hint is the
//! same falsifiable claim the per-kind oracle judges, every judged hint
//! the dynamics contradict is surfaced as an `LVP020` diagnostic
//! ([`ValueFlowCheckReport::hint_contradictions`]) — like `LVP014` a
//! measured report, not a gate (the matching [`BackendMiss`] violation
//! already gates).
//!
//! [`BackendMiss`]: ValueFlowViolationKind::BackendMiss

use lvp_analyze::{
    analyze_value_flow, lvp014_diagnostics, Diagnostic, LintCode, LoadPredictability,
    ValueFlowReport, VfLoad,
};
use lvp_isa::Program;
use lvp_predictor::{
    presets, Backend, HintTable, Lct, LctConfig, LoadClass, PredictorKind, StaticHint,
};
use lvp_trace::{OpKind, Trace};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Minimum dynamic executions of a pc before its claim is judged.
pub const MIN_EXECUTIONS: u64 = 8;

/// Minimum stride-predictor accuracy a judged claim must reach.
pub const STRIDE_ACCURACY_FLOOR: f64 = 0.95;

/// Minimum accuracy the backend nominated by a static class must reach
/// on a judged claim. Lower than [`STRIDE_ACCURACY_FLOOR`]: the
/// last-value and store-to-load backends pay LCT warm-up and (for
/// store-to-load) width-aliasing costs on every class they judge.
pub const BACKEND_ACCURACY_FLOOR: f64 = 0.90;

/// Minimum fraction of a claimed pc's executions the nominated backend
/// must predict *correctly* (correct/loads). Catches the quiet failure
/// mode where the backend never gains confidence and simply declines to
/// predict a load its class promised it would cover.
pub const BACKEND_COVERAGE_FLOOR: f64 = 0.5;

/// Table sizes for the emulated predictors — large enough that distinct
/// pcs in any workload never alias (texts are ≪ 256 KiB).
const TABLE_ENTRIES: usize = 1 << 16;

/// One pc's dynamic prediction tallies under one backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredEval {
    /// Dynamic loads observed.
    pub loads: u64,
    /// Loads for which the backend issued a prediction.
    pub predicted: u64,
    /// Issued predictions that matched the actual value.
    pub correct: u64,
}

impl PredEval {
    /// Fraction of predictions that were correct (0 when none issued).
    pub fn accuracy(&self) -> f64 {
        if self.predicted == 0 {
            0.0
        } else {
            self.correct as f64 / self.predicted as f64
        }
    }
}

/// How a value-flow claim was contradicted dynamically.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueFlowViolationKind {
    /// A claimed-predictable pc fell below the stride-accuracy floor.
    StrideMiss {
        /// The stride the static analysis derived (0 for must-constant).
        claimed_stride: i64,
        /// The pc's dynamic tallies.
        eval: PredEval,
    },
    /// The backend nominated by the static class fell below
    /// [`BACKEND_ACCURACY_FLOOR`] on the claimed pc.
    BackendMiss {
        /// The backend the class nominates.
        kind: PredictorKind,
        /// The pc's dynamic tallies under that backend.
        eval: PredEval,
    },
    /// A must-constant pc loaded two different values.
    ConstantValueChanged {
        /// First value observed.
        first: u64,
        /// A later, different value.
        later: u64,
    },
}

/// One contradiction of a static value-flow claim.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueFlowViolation {
    /// Pc of the load whose claim was contradicted.
    pub pc: u64,
    /// The static class that made the claim.
    pub class: LoadPredictability,
    /// The kind of contradiction.
    pub kind: ValueFlowViolationKind,
}

impl fmt::Display for ValueFlowViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ValueFlowViolationKind::StrideMiss {
                claimed_stride,
                eval,
            } => write!(
                f,
                "{:#x}: claimed {} (stride {}), but the stride predictor managed \
                 {}/{} over {} execution(s) ({:.1}% accuracy)",
                self.pc,
                self.class,
                claimed_stride,
                eval.correct,
                eval.predicted,
                eval.loads,
                eval.accuracy() * 100.0
            ),
            ValueFlowViolationKind::BackendMiss { kind, eval } => write!(
                f,
                "{:#x}: claimed {}, but the {} backend managed {}/{} over {} \
                 execution(s) ({:.1}% accuracy)",
                self.pc,
                self.class,
                kind,
                eval.correct,
                eval.predicted,
                eval.loads,
                eval.accuracy() * 100.0
            ),
            ValueFlowViolationKind::ConstantValueChanged { first, later } => write!(
                f,
                "{:#x}: claimed {}, but loaded {:#x} then {:#x}",
                self.pc, self.class, first, later
            ),
        }
    }
}

/// The value-flow cross-check result for one workload × profile × opt
/// cell.
#[derive(Debug, Clone)]
pub struct ValueFlowCheckReport {
    /// The cell, rendered `workload/profile/opt`.
    pub cell: String,
    /// Statically claimed affine-stride pcs.
    pub affine_pcs: usize,
    /// Statically claimed must-constant pcs.
    pub must_constant_pcs: usize,
    /// Claims that executed often enough to be judged.
    pub judged: usize,
    /// Contradictions found; empty means every judged claim held.
    pub violations: Vec<ValueFlowViolation>,
    /// `LVP014` static-under-approximation diagnostics: statically
    /// unknown, dynamically learned by the LCT. A report, not a
    /// failure.
    pub under_approximations: Vec<Diagnostic>,
    /// `LVP020` hint-contradiction diagnostics: judged static hints
    /// whose nominated backend the dynamics refuted. Like `LVP014` a
    /// report, not a failure — the matching
    /// [`ValueFlowViolationKind::BackendMiss`] violation already gates.
    pub hint_contradictions: Vec<Diagnostic>,
}

impl ValueFlowCheckReport {
    /// Whether every judged claim held for this cell.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for ValueFlowCheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value-flow {}: {} affine claim(s), {} must-constant claim(s), \
             {} judged, {} under-approximation(s), {} hint contradiction(s): {}",
            self.cell,
            self.affine_pcs,
            self.must_constant_pcs,
            self.judged,
            self.under_approximations.len(),
            self.hint_contradictions.len(),
            if self.passed() { "ok" } else { "FAILED" }
        )?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

/// The backend a static claim nominates for the per-kind oracle
/// (`None` for classes that make no dynamic-coverage promise). A
/// loop-invariant claim only nominates when its address is *pinned* to
/// one program-wide cell: an unpinned claim (argument-indexed table
/// lookup) promises invariance within one loop invocation, not the
/// global per-pc stability the last-value backend measures, so judging
/// it would refute behaviour that was never claimed.
fn nominated_backend(load: &VfLoad) -> Option<PredictorKind> {
    match load.class {
        LoadPredictability::AffineStride(_) => Some(PredictorKind::Stride),
        LoadPredictability::MustConstant => Some(PredictorKind::LastValue),
        LoadPredictability::LoopInvariant => load.pinned.then_some(PredictorKind::LastValue),
        LoadPredictability::StoreToLoadForwardable => Some(PredictorKind::StoreToLoad),
        LoadPredictability::Unknown => None,
    }
}

/// The hint confidence a static class carries, on the arbiter's 4-bit
/// scale: a provenance *proof* (must-constant) gets full confidence,
/// loop-level SCEV proofs slightly less, and the order-sensitive
/// store-to-load class the least.
fn hint_confidence(class: &LoadPredictability) -> u8 {
    match class {
        LoadPredictability::MustConstant => 15,
        LoadPredictability::AffineStride(_) | LoadPredictability::LoopInvariant => 12,
        LoadPredictability::StoreToLoadForwardable => 10,
        LoadPredictability::Unknown => 0,
    }
}

/// Builds the static predictor-hint table from a value-flow report: one
/// hint per classified load, nominating the same backend the per-kind
/// oracle judges the class against (so every hint is a falsifiable
/// claim, and `LVP020` reports the hints the dynamics contradict).
pub fn static_hints(report: &ValueFlowReport) -> HintTable {
    HintTable::new(
        report
            .loads
            .iter()
            .filter_map(|l| {
                let kind = nominated_backend(l)?;
                Some(StaticHint {
                    pc: l.pc,
                    kind,
                    confidence: hint_confidence(&l.class),
                })
            })
            .collect(),
    )
}

/// Replays `trace` through one predictor backend (stores feed
/// [`Backend::on_store`], loads predict-then-train) and splits the
/// prediction tallies per load pc.
fn eval_backend_by_pc(kind: PredictorKind, trace: &Trace) -> BTreeMap<u64, PredEval> {
    let cfg = presets::simple()
        .builder()
        .kind(kind)
        .lvpt_entries(TABLE_ENTRIES)
        .build();
    let mut backend = Backend::new(&cfg);
    let mut by_pc: BTreeMap<u64, PredEval> = BTreeMap::new();
    for e in trace.iter() {
        let Some(mem) = e.mem else { continue };
        if e.kind == OpKind::Store {
            backend.on_store(mem.addr, mem.width, mem.value);
            continue;
        }
        if !e.is_load() {
            continue;
        }
        let eval = by_pc.entry(e.pc).or_default();
        eval.loads += 1;
        if let Some(p) = backend.predict(e.pc, mem.addr) {
            eval.predicted += 1;
            if p == mem.value {
                eval.correct += 1;
            }
        }
        backend.train(e.pc, mem.addr, mem.value);
    }
    by_pc
}

/// Runs the value-flow cross-check for one compiled program and its
/// trace; `cell` labels the report (`workload/profile/opt`).
pub fn value_flow_check(program: &Program, trace: &Trace, cell: String) -> ValueFlowCheckReport {
    let report = analyze_value_flow(program);
    value_flow_check_with(&report, trace, cell)
}

/// [`value_flow_check`] over an already-computed static report (the CLI
/// computes the report once for its lint output and reuses it here).
pub fn value_flow_check_with(
    report: &ValueFlowReport,
    trace: &Trace,
    cell: String,
) -> ValueFlowCheckReport {
    // --- Dynamic stride tallies per pc (shared table, per-pc split);
    // also the per-kind oracle's tallies for stride claims. ---
    let by_pc = eval_backend_by_pc(PredictorKind::Stride, trace);

    // --- The claims under trial. ---
    let affine: BTreeMap<u64, i64> = report.affine_claims().into_iter().collect();
    let constants: Vec<u64> = report
        .loads
        .iter()
        .filter(|l| l.class == LoadPredictability::MustConstant)
        .map(|l| l.pc)
        .collect();

    let mut judged = 0usize;
    let mut violations = Vec::new();
    for (&pc, &claimed_stride) in &affine {
        let Some(eval) = by_pc.get(&pc) else { continue };
        if eval.loads < MIN_EXECUTIONS {
            continue;
        }
        judged += 1;
        if eval.accuracy() < STRIDE_ACCURACY_FLOOR {
            violations.push(ValueFlowViolation {
                pc,
                class: LoadPredictability::AffineStride(claimed_stride),
                kind: ValueFlowViolationKind::StrideMiss {
                    claimed_stride,
                    eval: *eval,
                },
            });
        }
    }

    // Must-constant: value stability (exact), plus the stride predictor
    // treating it as stride zero once warm.
    let constant_set: BTreeSet<u64> = constants.iter().copied().collect();
    let mut first_value: BTreeMap<u64, u64> = BTreeMap::new();
    for entry in trace.iter() {
        if !entry.is_load() || !constant_set.contains(&entry.pc) {
            continue;
        }
        let Some(mem) = entry.mem else { continue };
        match first_value.get(&entry.pc) {
            None => {
                first_value.insert(entry.pc, mem.value);
            }
            Some(&v) if v != mem.value => violations.push(ValueFlowViolation {
                pc: entry.pc,
                class: LoadPredictability::MustConstant,
                kind: ValueFlowViolationKind::ConstantValueChanged {
                    first: v,
                    later: mem.value,
                },
            }),
            Some(_) => {}
        }
    }
    for &pc in &constants {
        let Some(eval) = by_pc.get(&pc) else { continue };
        if eval.loads < MIN_EXECUTIONS {
            continue;
        }
        judged += 1;
        if eval.accuracy() < STRIDE_ACCURACY_FLOOR {
            violations.push(ValueFlowViolation {
                pc,
                class: LoadPredictability::MustConstant,
                kind: ValueFlowViolationKind::StrideMiss {
                    claimed_stride: 0,
                    eval: *eval,
                },
            });
        }
    }

    // --- Per-kind oracle: each class judged by its nominated backend. ---
    let mut claims_by_kind: BTreeMap<PredictorKind, Vec<(u64, LoadPredictability)>> =
        BTreeMap::new();
    for l in &report.loads {
        if let Some(kind) = nominated_backend(l) {
            claims_by_kind
                .entry(kind)
                .or_default()
                .push((l.pc, l.class));
        }
    }
    let mut hint_contradictions = Vec::new();
    for (kind, claims) in &claims_by_kind {
        let other;
        let backend_by_pc = if *kind == PredictorKind::Stride {
            &by_pc
        } else {
            other = eval_backend_by_pc(*kind, trace);
            &other
        };
        for &(pc, class) in claims {
            let Some(eval) = backend_by_pc.get(&pc) else {
                continue;
            };
            if eval.loads < MIN_EXECUTIONS {
                continue;
            }
            judged += 1;
            let covered = eval.correct as f64 / eval.loads as f64;
            if covered < BACKEND_COVERAGE_FLOOR
                || (eval.predicted > 0 && eval.accuracy() < BACKEND_ACCURACY_FLOOR)
            {
                violations.push(ValueFlowViolation {
                    pc,
                    class,
                    kind: ValueFlowViolationKind::BackendMiss {
                        kind: *kind,
                        eval: *eval,
                    },
                });
                // The static hint for this pc nominates the same backend
                // the oracle just refuted: report the contradiction.
                hint_contradictions.push(Diagnostic {
                    code: LintCode::HintContradictsDynamicClass,
                    pc,
                    message: format!(
                        "static hint nominates the {} backend (confidence {}) for a {} \
                         load, but it managed {}/{} correct over {} execution(s)",
                        kind,
                        hint_confidence(&class),
                        class,
                        eval.correct,
                        eval.predicted,
                        eval.loads
                    ),
                });
            }
        }
    }

    // --- Reverse direction: LVP014 under-approximation report. ---
    // Train an emulated last-value LCT exactly as the LVP unit would
    // (correct = the value repeated), then ask which statically-unknown
    // pcs it nevertheless learned.
    let mut lct = Lct::new(LctConfig {
        entries: TABLE_ENTRIES,
        counter_bits: 2,
    });
    let mut last_value: BTreeMap<u64, u64> = BTreeMap::new();
    for entry in trace.iter() {
        if !entry.is_load() {
            continue;
        }
        let Some(mem) = entry.mem else { continue };
        let correct = last_value.insert(entry.pc, mem.value) == Some(mem.value);
        lct.update(entry.pc, correct);
    }
    let predictable: BTreeSet<u64> = by_pc
        .iter()
        .filter(|(&pc, eval)| {
            eval.loads >= MIN_EXECUTIONS && lct.classify(pc) != LoadClass::DontPredict
        })
        .map(|(&pc, _)| pc)
        .collect();
    let under_approximations = lvp014_diagnostics(report, &predictable);

    violations
        .sort_by(|a, b| (a.pc, format!("{:?}", a.kind)).cmp(&(b.pc, format!("{:?}", b.kind))));
    violations.dedup_by(|a, b| a.pc == b.pc && a.kind == b.kind);

    ValueFlowCheckReport {
        cell,
        affine_pcs: affine.len(),
        must_constant_pcs: constants.len(),
        judged,
        violations,
        under_approximations,
        hint_contradictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_isa::{AsmProfile, Assembler};
    use lvp_sim::Machine;

    fn run(src: &str) -> (Program, Trace) {
        let p = Assembler::new(AsmProfile::Gp).assemble(src).unwrap();
        let mut m = Machine::new(&p);
        let t = m.run_traced(10_000_000).unwrap();
        (p, t)
    }

    /// A global counter bumped by a constant each iteration: the memory
    /// induction `LVP012` pattern, 32 iterations.
    const COUNTER_LOOP: &str = ".data\ng: .dword 0\n.text\nmain:\n li t0, 32\n la a0, g\nloop:\n \
         ld a1, 0(a0)\n addi a1, a1, 5\n sd a1, 0(a0)\n addi t0, t0, -1\n \
         bne t0, zero, loop\n out a1\n halt\n";

    #[test]
    fn affine_claim_validated_by_stride_predictor() {
        let (p, t) = run(COUNTER_LOOP);
        let report = analyze_value_flow(&p);
        assert!(
            !report.affine_claims().is_empty(),
            "the counter loop must produce an affine claim"
        );
        let r = value_flow_check(&p, &t, "counter/gp/O0".into());
        assert!(r.passed(), "{r}");
        assert!(r.affine_pcs >= 1);
        assert!(r.judged >= 1, "32 iterations must clear MIN_EXECUTIONS");
    }

    #[test]
    fn must_constant_claims_hold_on_clean_loop() {
        // A loop re-loading a pool constant: must-constant statically,
        // value-stable and stride-0 dynamically.
        let (p, t) = run(
            ".data\nv: .dword 42\n.text\nmain:\n li t0, 16\nloop:\n la a0, v\n \
             ld a1, 0(a0)\n addi t0, t0, -1\n bne t0, zero, loop\n out a1\n halt\n",
        );
        let r = value_flow_check(&p, &t, "const/gp/O0".into());
        assert!(r.passed(), "{r}");
        assert!(r.must_constant_pcs >= 1);
        assert!(r.judged >= 1);
    }

    #[test]
    fn fabricated_stride_claim_is_caught() {
        // Tamper with the static report: claim the constant-loading pc
        // strides by 8. The dynamic side must refute it (the stride
        // predictor predicts stride 0, and the claim's accuracy floor
        // cannot be met by a wrong-stride claim... which shares the same
        // per-pc tally). To make the refutation real, fabricate the
        // claim on a pc whose values actually alternate, where stride
        // accuracy is genuinely poor.
        let (p, t) = run(
            ".data\na: .dword 1\nb: .dword 100\n.text\nmain:\n li t0, 16\n la s0, a\n \
             la s1, b\nloop:\n ld a1, 0(s0)\n ld a2, 0(s1)\n sd a2, 0(s0)\n sd a1, 0(s1)\n \
             addi t0, t0, -1\n bne t0, zero, loop\n out a1\n halt\n",
        );
        let mut report = analyze_value_flow(&p);
        // Find the pc of the first load in the loop (alternates 1/100).
        let alternating_pc = report
            .loads
            .iter()
            .find(|l| l.class == LoadPredictability::Unknown)
            .expect("the swap loop has unknown loads")
            .pc;
        for l in report.loads.iter_mut() {
            if l.pc == alternating_pc {
                l.class = LoadPredictability::AffineStride(8);
            }
        }
        let r = value_flow_check_with(&report, &t, "tampered/gp/O0".into());
        assert!(!r.passed(), "a fabricated stride claim must be refuted");
        assert!(r.violations.iter().any(|v| matches!(
            v.kind,
            ValueFlowViolationKind::StrideMiss {
                claimed_stride: 8,
                ..
            }
        )));
    }

    #[test]
    fn lvp014_reports_learned_but_statically_unknown_loads() {
        // A pointer-chased constant: `ld` through a register loaded from
        // memory is statically unknown, but the value repeats every
        // iteration so the LCT learns it.
        let (p, t) = run(
            ".data\nptr: .dword 0\nval: .dword 77\n.text\nmain:\n la a0, val\n la a1, ptr\n \
             sd a0, 0(a1)\n li t0, 16\nloop:\n ld a2, 0(a1)\n ld a3, 0(a2)\n \
             addi t0, t0, -1\n bne t0, zero, loop\n out a3\n halt\n",
        );
        let r = value_flow_check(&p, &t, "chase/gp/O0".into());
        assert!(r.passed(), "{r}");
        assert!(
            !r.under_approximations.is_empty(),
            "the chased load is statically unknown but dynamically learned"
        );
        assert!(r
            .under_approximations
            .iter()
            .all(|d| d.code == lvp_analyze::LintCode::StaticUnderApprox));
    }

    #[test]
    fn per_kind_oracle_refutes_a_fabricated_affine_claim() {
        // Same tampering as above: the alternating pc cannot be covered
        // by the two-delta stride backend either, so the per-kind
        // oracle must file a BackendMiss naming the stride backend.
        let (p, t) = run(
            ".data\na: .dword 1\nb: .dword 100\n.text\nmain:\n li t0, 16\n la s0, a\n \
             la s1, b\nloop:\n ld a1, 0(s0)\n ld a2, 0(s1)\n sd a2, 0(s0)\n sd a1, 0(s1)\n \
             addi t0, t0, -1\n bne t0, zero, loop\n out a1\n halt\n",
        );
        let mut report = analyze_value_flow(&p);
        let alternating_pc = report
            .loads
            .iter()
            .find(|l| l.class == LoadPredictability::Unknown)
            .expect("the swap loop has unknown loads")
            .pc;
        for l in report.loads.iter_mut() {
            if l.pc == alternating_pc {
                l.class = LoadPredictability::AffineStride(8);
            }
        }
        let r = value_flow_check_with(&report, &t, "tampered/gp/O0".into());
        assert!(r.violations.iter().any(|v| matches!(
            v.kind,
            ValueFlowViolationKind::BackendMiss {
                kind: PredictorKind::Stride,
                ..
            }
        )));
    }

    #[test]
    fn per_kind_oracle_holds_on_clean_claims() {
        // The counter loop's affine claim must be covered by the
        // two-delta stride backend, not just the idealized predictor.
        let (p, t) = run(COUNTER_LOOP);
        let r = value_flow_check(&p, &t, "counter/gp/O0".into());
        assert!(r.passed(), "{r}");
    }

    #[test]
    fn static_hints_mirror_the_per_kind_nomination() {
        let (p, _) = run(COUNTER_LOOP);
        let report = analyze_value_flow(&p);
        let hints = static_hints(&report);
        assert!(!hints.is_empty(), "the counter loop must produce hints");
        // Every hint's (pc, kind) must match the oracle's nomination for
        // that pc, with the class-derived confidence.
        for l in &report.loads {
            match (nominated_backend(l), hints.get(l.pc)) {
                (Some(kind), Some(h)) => {
                    assert_eq!(h.kind, kind, "{:#x}", l.pc);
                    assert_eq!(h.confidence, hint_confidence(&l.class), "{:#x}", l.pc);
                }
                (None, got) => assert!(got.is_none(), "unknown loads carry no hint: {:#x}", l.pc),
                (Some(kind), None) => panic!("{:#x} lost its {kind} hint", l.pc),
            }
        }
    }

    #[test]
    fn unpinned_loop_invariant_claim_is_not_judged_or_hinted() {
        // gperf's full-matrix shape: a callee reloads `tbl[a0]` in a
        // loop. The address is invariant *within* each invocation (a
        // sound LVP013 hoist), but main calls with a different index
        // each time, so per-pc last-value accuracy is ~75% — judging
        // the claim globally would refute behaviour never promised.
        let (p, t) = run(
            ".data\ntbl: .dword 5, 9, 13, 21\n.text\nmain:\n li s0, 0\n li s1, 32\nouter:\n \
             li t3, 4\n rem a0, s0, t3\n jal ra, lookup\n addi s0, s0, 1\n addi s1, s1, -1\n \
             bne s1, zero, outer\n out a0\n halt\n\
             lookup:\n li t0, 4\n la t1, tbl\n slli t2, a0, 3\n add t1, t1, t2\nlkloop:\n \
             ld a1, 0(t1)\n addi t0, t0, -1\n bne t0, zero, lkloop\n addi a0, a1, 0\n \
             jalr zero, ra, 0\n",
        );
        let report = analyze_value_flow(&p);
        let unpinned = report
            .loads
            .iter()
            .find(|l| l.class == LoadPredictability::LoopInvariant && !l.pinned)
            .expect("the table lookup must classify loop-invariant at an unpinned address");
        // The lint stands (the hoist is sound) ...
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.pc == unpinned.pc && d.code == LintCode::LoopInvariantLoad),
            "{report:?}"
        );
        // ... but the claim nominates no backend and emits no hint,
        // and the oracle holds on the trace that would refute it.
        assert!(nominated_backend(unpinned).is_none());
        assert!(static_hints(&report).get(unpinned.pc).is_none());
        let r = value_flow_check(&p, &t, "lookup/gp/O0".into());
        assert!(r.passed(), "{r}");
    }

    #[test]
    fn lvp020_fires_when_a_hinted_claim_is_refuted() {
        // Same tampering as the BackendMiss test: the alternating pc is
        // claimed affine, so its hint nominates the stride backend —
        // which the dynamics refute. LVP020 must report it without
        // flipping the report into a new failure mode (the BackendMiss
        // violation is the gate).
        let (p, t) = run(
            ".data\na: .dword 1\nb: .dword 100\n.text\nmain:\n li t0, 16\n la s0, a\n \
             la s1, b\nloop:\n ld a1, 0(s0)\n ld a2, 0(s1)\n sd a2, 0(s0)\n sd a1, 0(s1)\n \
             addi t0, t0, -1\n bne t0, zero, loop\n out a1\n halt\n",
        );
        let mut report = analyze_value_flow(&p);
        let alternating_pc = report
            .loads
            .iter()
            .find(|l| l.class == LoadPredictability::Unknown)
            .expect("the swap loop has unknown loads")
            .pc;
        for l in report.loads.iter_mut() {
            if l.pc == alternating_pc {
                l.class = LoadPredictability::AffineStride(8);
            }
        }
        let r = value_flow_check_with(&report, &t, "tampered/gp/O0".into());
        assert!(!r.passed());
        let d = r
            .hint_contradictions
            .iter()
            .find(|d| d.pc == alternating_pc)
            .expect("the refuted hint must be reported");
        assert_eq!(d.code, LintCode::HintContradictsDynamicClass);
        assert!(d.message.contains("stride"), "{}", d.message);
    }

    #[test]
    fn lvp020_is_silent_on_clean_claims() {
        let (p, t) = run(COUNTER_LOOP);
        let r = value_flow_check(&p, &t, "counter/gp/O0".into());
        assert!(r.passed(), "{r}");
        assert!(
            r.hint_contradictions.is_empty(),
            "held claims must not report hint contradictions: {:?}",
            r.hint_contradictions
        );
    }

    #[test]
    fn report_renders_cell_and_verdict() {
        let (p, t) = run(COUNTER_LOOP);
        let r = value_flow_check(&p, &t, "unit/gp/O0".into());
        let s = r.to_string();
        assert!(s.starts_with("value-flow unit/gp/O0:"), "{s}");
        assert!(s.contains("ok"), "{s}");
    }

    #[test]
    fn short_runs_are_not_judged() {
        // 3 iterations < MIN_EXECUTIONS: claims exist but are not judged,
        // and cannot fail.
        let (p, t) = run(
            ".data\ng: .dword 0\n.text\nmain:\n li t0, 3\n la a0, g\nloop:\n \
             ld a1, 0(a0)\n addi a1, a1, 5\n sd a1, 0(a0)\n addi t0, t0, -1\n \
             bne t0, zero, loop\n out a1\n halt\n",
        );
        let r = value_flow_check(&p, &t, "short/gp/O0".into());
        assert!(r.passed(), "{r}");
        assert!(r.affine_pcs >= 1);
    }
}
