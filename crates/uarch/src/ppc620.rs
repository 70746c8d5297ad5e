//! Trace-driven cycle model of a PowerPC 620-class out-of-order core
//! (paper Section 4.1, Figure 4), with the widened "620+" configuration
//! of Section 6.2.
//!
//! Modelled mechanisms: 4-wide fetch/dispatch/completion, per-FU
//! reservation stations, GPR/FPR rename buffers, a completion buffer with
//! in-order retirement, bimodal branch prediction with BTB, a dual-banked
//! non-blocking L1 data cache over an L2/memory hierarchy, and the full
//! LVP interaction of Section 4.1:
//!
//! * predicted loads forward their value at **dispatch**; dependents may
//!   issue immediately but hold their reservation stations until the load
//!   verifies (one cycle after the actual value returns);
//! * on an incorrect prediction, dependents that issued early reissue one
//!   cycle after the value returns (dependents that had not issued pay no
//!   penalty);
//! * CVU-verified constant loads never touch the cache: no bank usage, no
//!   miss.
//!
//! Simplifications (documented in DESIGN.md): perfect I-fetch and no
//! store-to-load alias refetch. Outstanding misses are bounded by the
//! configured MSHR count (the 620's non-blocking cache).
//!
//! The core is event-driven, so a simulated cycle costs O(events) rather
//! than O(window): slots sit in a ring addressed by sequence number,
//! consumers are woken through per-producer consumer lists, select scans
//! one ready bitmask per functional-unit class in window order, and a
//! timing-wheel calendar of finish and verify events (plus the MSHR,
//! unpipelined-unit and dispatch-unblock times) lets idle stretches be
//! skipped exactly. A window-scanning model of the same machine lives in
//! the test module as its differential oracle (DESIGN.md, "620 core
//! scheduling").

use crate::branch::BranchPredictor;
use crate::cache::{BankArbiter, CacheConfig, MemHierarchy, MemLatency};
use crate::latency::LatencyTable;
use crate::metrics::SimResult;
use lvp_trace::{OpKind, PredOutcome, Trace, TraceEntry};

/// Functional-unit classes of the 620 (Figure 4).
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
enum Fu {
    /// Single-cycle fixed point (2 units).
    Scfx,
    /// Multi-cycle fixed point (1 unit, unpipelined).
    Mcfx,
    /// Floating point (1 unit; complex ops unpipelined).
    Fpu,
    /// Load/store (1 unit on the 620, 2 on the 620+).
    Lsu,
    /// Branch unit.
    Bru,
}

const FU_KINDS: [Fu; 5] = [Fu::Scfx, Fu::Mcfx, Fu::Fpu, Fu::Lsu, Fu::Bru];

/// Dense index of a functional-unit class in [`FU_KINDS`] order.
const fn fu_ix(fu: Fu) -> usize {
    match fu {
        Fu::Scfx => 0,
        Fu::Mcfx => 1,
        Fu::Fpu => 2,
        Fu::Lsu => 3,
        Fu::Bru => 4,
    }
}

fn fu_of(kind: OpKind) -> Fu {
    match kind {
        OpKind::IntSimple | OpKind::System => Fu::Scfx,
        OpKind::IntComplex => Fu::Mcfx,
        OpKind::FpSimple | OpKind::FpComplex => Fu::Fpu,
        OpKind::Load | OpKind::Store => Fu::Lsu,
        OpKind::CondBranch | OpKind::Jump | OpKind::IndirectJump => Fu::Bru,
    }
}

/// Configuration of the 620-class model.
#[derive(Debug, Clone)]
pub struct Ppc620Config {
    /// Display name.
    pub name: &'static str,
    /// Fetch/dispatch/completion width.
    pub width: usize,
    /// Reservation stations per functional-unit *class*.
    pub rs_per_class: usize,
    /// GPR rename buffers.
    pub gpr_renames: usize,
    /// FPR rename buffers.
    pub fpr_renames: usize,
    /// Completion (reorder) buffer entries.
    pub completion_buffer: usize,
    /// Number of load/store units.
    pub n_lsu: usize,
    /// Loads+stores that may dispatch per cycle.
    pub mem_dispatch_per_cycle: usize,
    /// Instruction latencies.
    pub latency: LatencyTable,
    /// L1 data-cache geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// Miss latencies.
    pub mem_latency: MemLatency,
    /// Miss-status holding registers: maximum outstanding L1 misses the
    /// non-blocking cache supports; further missing loads wait to issue.
    pub mshrs: usize,
}

impl Ppc620Config {
    /// The baseline PowerPC 620: 2-entry reservation stations per unit
    /// class (4 for the two SCFX units), 8+8 rename buffers, a 16-entry
    /// completion buffer, one LSU, and one load/store dispatch per cycle.
    pub fn base() -> Ppc620Config {
        Ppc620Config {
            name: "620",
            width: 4,
            rs_per_class: 4,
            gpr_renames: 8,
            fpr_renames: 8,
            completion_buffer: 16,
            n_lsu: 1,
            mem_dispatch_per_cycle: 1,
            latency: LatencyTable::ppc620(),
            l1: CacheConfig::ppc620_l1d(),
            l2: CacheConfig::ppc620_l2(),
            mem_latency: MemLatency::ppc620(),
            mshrs: 4,
        }
    }

    /// The "next-generation" 620+ (Section 6.2): doubled reservation
    /// stations, rename buffers and completion buffer; a second LSU
    /// without an extra cache port; up to two loads/stores dispatched per
    /// cycle.
    pub fn plus() -> Ppc620Config {
        Ppc620Config {
            name: "620+",
            rs_per_class: 8,
            gpr_renames: 16,
            fpr_renames: 16,
            completion_buffer: 32,
            n_lsu: 2,
            mem_dispatch_per_cycle: 2,
            ..Ppc620Config::base()
        }
    }

    fn units(&self, fu: Fu) -> usize {
        match fu {
            Fu::Scfx => 2,
            Fu::Mcfx | Fu::Fpu | Fu::Bru => 1,
            Fu::Lsu => self.n_lsu,
        }
    }
}

#[derive(Debug, Copy, Clone, PartialEq, Eq)]
enum State {
    Waiting,
    Executing,
    Finished,
}

/// One completion-buffer entry, stored at ring position `seq & mask`.
#[derive(Debug, Copy, Clone)]
struct Slot {
    seq: u64,
    mem_addr: u64,
    /// Producer seqs of the (up to two) source operands.
    src_producers: [Option<u64>; 2],
    dispatch_cycle: u64,
    issue_cycle: u64,
    finish_cycle: u64,
    /// For predicted loads: finish + 1; otherwise == finish.
    verify_cycle: u64,
    operand_wait: u64,
    kind: OpKind,
    fu: Fu,
    pred: Option<PredOutcome>,
    /// A value-predicted load: consumers read its prediction from
    /// dispatch on and never wait for it to finish.
    forwards: bool,
    state: State,
    dst: Option<u8>,
    /// Bit `k` set: source `k` consumed a predicted load's value before
    /// the load verified; RS release and retirement wait until every
    /// such source verifies.
    spec: u8,
    holds_rs: bool,
    squashed_once: bool,
    /// Source operands whose non-forwarding producer has not finished;
    /// a waiting slot is in its class's ready set exactly when this is 0.
    pending: u8,
}

impl Slot {
    const EMPTY: Slot = Slot {
        seq: u64::MAX,
        mem_addr: 0,
        src_producers: [None, None],
        dispatch_cycle: 0,
        issue_cycle: 0,
        finish_cycle: u64::MAX,
        verify_cycle: u64::MAX,
        operand_wait: 0,
        kind: OpKind::System,
        fu: Fu::Scfx,
        pred: None,
        forwards: false,
        state: State::Finished,
        dst: None,
        spec: 0,
        holds_rs: false,
        squashed_once: false,
        pending: 0,
    };
}

/// End of an intrusive list.
const NIL: u32 = u32::MAX;

/// Buckets per calendar turn. An event a whole turn or more ahead stays
/// in its bucket until its own cycle comes round.
const WHEEL: usize = 128;

/// The event calendar: a timing wheel of slot events. Event `2 * pos` is
/// the finish of the slot at ring position `pos` (for results due more
/// than a cycle after issue; the rest finish from the list of last
/// cycle's issues) and `2 * pos + 1` its verification (predicted loads
/// only); each is due at that slot's `finish_cycle`/`verify_cycle`. A
/// slot has at most one of each in flight, so the buckets are intrusive
/// lists threaded through `next`, and a bitmap of non-empty buckets makes
/// the next event a bit scan.
#[derive(Debug)]
struct Calendar {
    head: [u32; WHEEL],
    next: Vec<u32>,
    occupied: [u64; WHEEL / 64],
}

impl Calendar {
    fn new(ring: usize) -> Calendar {
        Calendar {
            head: [NIL; WHEEL],
            next: vec![NIL; 2 * ring],
            occupied: [0; WHEEL / 64],
        }
    }

    fn schedule(&mut self, cycle: u64, event: u32) {
        let b = cycle as usize & (WHEEL - 1);
        self.next[event as usize] = self.head[b];
        self.head[b] = event;
        self.occupied[b >> 6] |= 1 << (b & 63);
    }

    /// Removes a not-yet-due event (its slot was squashed).
    fn cancel(&mut self, cycle: u64, event: u32) {
        let b = cycle as usize & (WHEEL - 1);
        let after = self.next[event as usize];
        if self.head[b] == event {
            self.head[b] = after;
            if after == NIL {
                self.occupied[b >> 6] &= !(1 << (b & 63));
            }
            return;
        }
        let mut prev = self.head[b];
        while self.next[prev as usize] != event {
            debug_assert!(
                self.next[prev as usize] != NIL,
                "cancelled event not scheduled"
            );
            prev = self.next[prev as usize];
        }
        self.next[prev as usize] = after;
    }

    /// Detaches the bucket of `cycle` and returns its first event; the
    /// caller walks `next` and re-schedules events of later turns.
    fn take(&mut self, cycle: u64) -> u32 {
        let b = cycle as usize & (WHEEL - 1);
        self.occupied[b >> 6] &= !(1 << (b & 63));
        std::mem::replace(&mut self.head[b], NIL)
    }

    /// The earliest cycle after `cycle` whose bucket holds an event: a
    /// lower bound on the next event (exact unless that event is a whole
    /// turn away), or `u64::MAX` when the calendar is empty.
    fn next_after(&self, cycle: u64) -> u64 {
        // Scan the bitmap in wheel order from the bucket after `cycle`'s.
        let start = (cycle as usize + 1) & (WHEEL - 1);
        let mut off = 0;
        while off < WHEEL {
            let b = (start + off) & (WHEEL - 1);
            let bits = self.occupied[b >> 6] >> (b & 63);
            if bits != 0 {
                // Buckets of this word a turn ahead were scanned empty.
                return cycle + 1 + (off + bits.trailing_zeros() as usize) as u64;
            }
            off += 64 - (b & 63);
        }
        u64::MAX
    }
}

/// Runs the 620-class model over a trace.
///
/// `outcomes` carries one [`PredOutcome`] per dynamic load (from
/// [`lvp_predictor::LvpUnit::annotate`], under any
/// [`lvp_predictor::PredictorKind`]); pass `None` for the no-LVP
/// baseline. The model reads only these verdicts — never the
/// predictor's tables — so every backend is costed identically.
///
/// # Panics
///
/// Panics if `outcomes` is `Some` but shorter than the trace's load
/// count, or if the model stops making progress (an internal bug).
pub fn simulate_620(
    trace: &Trace,
    outcomes: Option<&[PredOutcome]>,
    config: &Ppc620Config,
) -> SimResult {
    let mut core = Core::new(trace.entries(), outcomes, config);
    let cycle = core.run();
    let mut result = core.result;
    result.cycles = cycle;
    result.l2_accesses = core.mem.l2_accesses();
    result.bank_conflict_cycles = core.banks.conflict_cycles();
    debug_assert_eq!(result.instructions, core.entries.len() as u64);
    debug_assert!(result.cycles * config.width as u64 >= result.instructions);
    result
}

/// The event-driven 620 core: completion-buffer ring, consumer lists,
/// per-class ready sets and the event calendar (DESIGN.md, "620 core
/// scheduling").
struct Core<'a> {
    config: &'a Ppc620Config,
    entries: &'a [TraceEntry],
    outcomes: Option<&'a [PredOutcome]>,
    result: SimResult,
    bp: BranchPredictor,
    mem: MemHierarchy,
    banks: BankArbiter,
    next_dispatch: usize,
    load_index: usize,
    /// The completion buffer; `mask + 1` positions, a power of two and a
    /// multiple of 64 no smaller than the buffer.
    ring: Vec<Slot>,
    mask: usize,
    /// Consumer lists: operand `2 * pos + k` is source `k` of the slot at
    /// `pos`; `first_use[p]` is the latest operand reading the slot at
    /// `p`, and `next_use` links each operand to the one before it.
    first_use: Vec<u32>,
    next_use: Vec<u32>,
    head_seq: u64,
    len: usize,
    reg_producer: [Option<u64>; 64],
    rs_used: [usize; 5],
    gpr_free: usize,
    fpr_free: usize,
    /// Unpipelined-unit busy-until cycles.
    mcfx_busy: u64,
    fpu_complex_busy: u64,
    /// Fill times of in-flight L1 misses (the MSHRs).
    mshr_fill: Vec<u64>,
    /// Seq of the unresolved mispredicted branch gating dispatch.
    pending_gate: Option<u64>,
    dispatch_blocked_until: u64,
    /// Per-class ready sets over ring positions: class `fx` owns words
    /// `fx * words .. (fx + 1) * words`.
    ready: Vec<u64>,
    words: usize,
    calendar: Calendar,
    /// Slots issued in the previous cycle (their RS release is due) and
    /// in this one.
    issued_last: Vec<u32>,
    issued_now: Vec<u32>,
    /// Squash re-acquisitions that pushed a class past `rs_per_class`.
    rs_oversubscribed: u64,
    /// Scratch: this cycle's finishing slots, its verifying loads, and
    /// the squash worklist.
    finished: Vec<u32>,
    verified: Vec<u32>,
    worklist: Vec<u32>,
}

impl<'a> Core<'a> {
    fn new(
        entries: &'a [TraceEntry],
        outcomes: Option<&'a [PredOutcome]>,
        config: &'a Ppc620Config,
    ) -> Core<'a> {
        let size = config.completion_buffer.next_power_of_two().max(64);
        let words = size / 64;
        Core {
            config,
            entries,
            outcomes,
            result: SimResult::default(),
            bp: BranchPredictor::new(2048, 256),
            mem: MemHierarchy::new(config.l1, config.l2, config.mem_latency),
            banks: BankArbiter::new(),
            next_dispatch: 0,
            load_index: 0,
            ring: vec![Slot::EMPTY; size],
            mask: size - 1,
            first_use: vec![NIL; size],
            next_use: vec![NIL; 2 * size],
            head_seq: 0,
            len: 0,
            reg_producer: [None; 64],
            rs_used: [0; 5],
            gpr_free: config.gpr_renames,
            fpr_free: config.fpr_renames,
            mcfx_busy: 0,
            fpu_complex_busy: 0,
            mshr_fill: Vec::new(),
            pending_gate: None,
            dispatch_blocked_until: 0,
            ready: vec![0; FU_KINDS.len() * words],
            words,
            calendar: Calendar::new(size),
            issued_last: Vec::new(),
            issued_now: Vec::new(),
            rs_oversubscribed: 0,
            finished: Vec::new(),
            verified: Vec::new(),
            worklist: Vec::new(),
        }
    }

    /// Simulates until every entry has retired; returns the cycle count.
    fn run(&mut self) -> u64 {
        let mut cycle: u64 = 0;
        let mut last_progress: (u64, (u64, usize)) = (0, (0, 0));
        while self.next_dispatch < self.entries.len() || self.len > 0 {
            // Number of state changes this cycle; after a cycle with none,
            // every future change waits on a calendar event (see
            // `next_event`), so the idle stretch is skipped in one step.
            let mut activity = self.process_events(cycle);
            activity += self.retire(cycle);
            activity += self.issue(cycle);
            activity += self.dispatch(cycle);
            std::mem::swap(&mut self.issued_last, &mut self.issued_now);
            self.issued_now.clear();

            let mut next_cycle = cycle + 1;
            if activity == 0 {
                let event = self.next_event(cycle);
                if event != u64::MAX {
                    // Never skip past the progress guard's horizon, so a
                    // genuine deadlock panics at the cycle a cycle-by-cycle
                    // model would.
                    next_cycle = event.min(last_progress.0 + 100_001);
                }
            }
            cycle = next_cycle;
            // Progress guard against model deadlocks.
            if (self.head_seq, self.next_dispatch) != last_progress.1 {
                last_progress = (cycle, (self.head_seq, self.next_dispatch));
            } else if cycle - last_progress.0 > 100_000 {
                panic!(
                    "620 model deadlock at cycle {cycle}: window head {:?}",
                    (self.len > 0).then(|| &self.ring[self.head_seq as usize & self.mask])
                );
            }
        }

        cycle
    }

    #[inline]
    fn set_ready(&mut self, pos: usize, ready: bool) {
        let word = fu_ix(self.ring[pos].fu) * self.words + (pos >> 6);
        let bit = 1u64 << (pos & 63);
        if ready {
            self.ready[word] |= bit;
        } else {
            self.ready[word] &= !bit;
        }
    }

    /// The ring slot of an in-window producer, `None` once it retired
    /// (its value is architectural).
    #[inline]
    fn in_window(&self, seq: u64) -> Option<&Slot> {
        (seq >= self.head_seq).then(|| &self.ring[seq as usize & self.mask])
    }

    /// Squashes, finishes and RS releases due this cycle. In the scan
    /// model these share one window-order pass; they only observe each
    /// other through window order, which this keeps: squashes run first
    /// in sequence order (a squash only touches younger slots), then
    /// finishes, then RS releases (which read the settled producers).
    fn process_events(&mut self, cycle: u64) -> usize {
        self.finished.clear();
        self.verified.clear();
        let mut event = self.calendar.take(cycle);
        while event != NIL {
            let next = self.calendar.next[event as usize];
            let s = &self.ring[event as usize >> 1];
            let (due, list) = if event & 1 == 0 {
                (s.finish_cycle, &mut self.finished)
            } else {
                (s.verify_cycle, &mut self.verified)
            };
            if due == cycle {
                list.push(event >> 1);
            } else {
                debug_assert!(due > cycle && (due - cycle).is_multiple_of(WHEEL as u64));
                self.calendar.schedule(due, event);
            }
            event = next;
        }
        if self.finished.is_empty() && self.verified.is_empty() && self.issued_last.is_empty() {
            return 0;
        }
        let mut activity = 0;

        if self.verified.len() > 1 {
            let ring = &self.ring;
            self.verified
                .sort_unstable_by_key(|&pos| ring[pos as usize].seq);
        }
        for i in 0..self.verified.len() {
            let pos = self.verified[i] as usize;
            let s = &self.ring[pos];
            // A load squashed by an older one this cycle no longer
            // verifies now.
            if s.pred == Some(PredOutcome::Incorrect)
                && !s.squashed_once
                && s.state == State::Finished
                && s.verify_cycle == cycle
            {
                self.squash(pos, cycle);
                activity += 1;
            }
        }

        for i in 0..self.finished.len() {
            activity += self.finish(self.finished[i] as usize, cycle);
        }
        // Last cycle's issues: single-cycle results finish now (they never
        // enter the calendar), and every issue may release its RS — one
        // cycle after issue, or once every speculative source has
        // verified. A speculative source is a predicted load, which
        // verifies a cycle after it finishes, so no finish this cycle can
        // change an RS release: one pass serves both.
        for i in 0..self.issued_last.len() {
            let pos = self.issued_last[i] as usize;
            activity += self.finish(pos, cycle);
            activity += self.release_rs(pos, cycle);
        }
        // The consumers of the loads verifying now.
        for i in 0..self.verified.len() {
            let mut u = self.first_use[self.verified[i] as usize];
            while u != NIL {
                activity += self.release_rs(u as usize >> 1, cycle);
                u = self.next_use[u as usize];
            }
        }
        activity
    }

    /// Moves the slot to Finished if its result is due now (it may have
    /// been squashed, or be due later); returns 1 if it did.
    fn finish(&mut self, pos: usize, cycle: u64) -> usize {
        let s = &mut self.ring[pos];
        if s.state != State::Executing || s.finish_cycle != cycle {
            return 0;
        }
        s.state = State::Finished;
        if !s.forwards {
            // Wake the consumers: each counted this operand as pending.
            let mut u = self.first_use[pos];
            while u != NIL {
                let c = u as usize >> 1;
                u = self.next_use[u as usize];
                let s = &mut self.ring[c];
                debug_assert!(s.state == State::Waiting && s.pending > 0);
                s.pending -= 1;
                if s.pending == 0 {
                    self.set_ready(c, true);
                }
            }
        }
        1
    }

    /// Releases the slot's reservation station if the scan model would
    /// this cycle (it issued in an earlier cycle and every speculative
    /// source has verified); returns 1 if it did.
    fn release_rs(&mut self, pos: usize, cycle: u64) -> usize {
        let s = &self.ring[pos];
        if !s.holds_rs || s.state == State::Waiting {
            return 0;
        }
        if !self.spec_sources_verified(pos, cycle) {
            return 0;
        }
        let fx = fu_ix(s.fu);
        self.ring[pos].holds_rs = false;
        debug_assert!(self.rs_used[fx] > 0, "RS counter underflow");
        self.rs_used[fx] -= 1;
        1
    }

    /// Whether every speculative source of the slot has verified by
    /// `cycle` (retired sources count as verified).
    #[inline]
    fn spec_sources_verified(&self, pos: usize, cycle: u64) -> bool {
        let s = &self.ring[pos];
        if s.spec == 0 {
            return true;
        }
        (0..2).filter(|k| s.spec >> k & 1 != 0).all(|k| {
            let p = s.src_producers[k].expect("a speculative source has a producer");
            self.in_window(p)
                .is_none_or(|prod| prod.state == State::Finished && prod.verify_cycle <= cycle)
        })
    }

    /// On an incorrect load verification, resets every issued transitive
    /// dependent that consumed the wrong value (issued before the correct
    /// value returned) back to Waiting; it may reissue this cycle.
    fn squash(&mut self, load: usize, cycle: u64) {
        let load_finish = self.ring[load].finish_cycle;
        self.ring[load].squashed_once = true;
        self.worklist.clear();
        self.worklist.push(load as u32);
        let mut k = 0;
        while k < self.worklist.len() {
            let p = self.worklist[k] as usize;
            k += 1;
            let mut u = self.first_use[p];
            while u != NIL {
                let c = u as usize >> 1;
                u = self.next_use[u as usize];
                let s = self.ring[c];
                if s.state == State::Waiting {
                    continue;
                }
                // Direct dependents of the load squash only if they issued
                // before the correct value returned; transitive dependents
                // of squashed instructions always squash.
                if p == load && s.issue_cycle >= load_finish {
                    continue;
                }
                // Its pending events die with it.
                if s.state == State::Executing && s.finish_cycle > cycle {
                    self.calendar.cancel(s.finish_cycle, 2 * c as u32);
                }
                if s.forwards && s.verify_cycle > cycle {
                    self.calendar.cancel(s.verify_cycle, 2 * c as u32 + 1);
                }
                let s = &mut self.ring[c];
                s.state = State::Waiting;
                s.spec = 0;
                s.finish_cycle = u64::MAX;
                s.verify_cycle = u64::MAX;
                if !s.holds_rs {
                    // It had released its RS; it holds one again while it
                    // waits to reissue.
                    s.holds_rs = true;
                    let fx = fu_ix(s.fu);
                    self.rs_used[fx] += 1;
                    // Re-acquired even when the class is full (DESIGN.md,
                    // "620 core scheduling": a known over-subscription).
                    if self.rs_used[fx] > self.config.rs_per_class {
                        self.rs_oversubscribed += 1;
                    }
                }
                self.worklist.push(c as u32);
            }
        }
        // A squashed slot waits on producers that may themselves have
        // been squashed, and the waiting consumers of a squashed slot
        // that had finished wait on it again: recount both.
        for k in 1..self.worklist.len() {
            let x = self.worklist[k] as usize;
            self.recount(x);
            let mut u = self.first_use[x];
            while u != NIL {
                let c = u as usize >> 1;
                u = self.next_use[u as usize];
                if self.ring[c].state == State::Waiting {
                    self.recount(c);
                }
            }
        }
    }

    /// Recomputes a waiting slot's pending-operand count and its
    /// ready-set membership from its producers.
    fn recount(&mut self, pos: usize) {
        let pending = self.ring[pos]
            .src_producers
            .iter()
            .flatten()
            .filter(|&&p| {
                self.in_window(p)
                    .is_some_and(|prod| !prod.forwards && prod.state != State::Finished)
            })
            .count() as u8;
        self.ring[pos].pending = pending;
        self.set_ready(pos, pending == 0);
    }

    /// In-order completion of up to `width` finished, verified slots.
    fn retire(&mut self, cycle: u64) -> usize {
        let mut retired = 0usize;
        while retired < self.config.width && self.len > 0 {
            let pos = self.head_seq as usize & self.mask;
            let s = &self.ring[pos];
            let can_retire = s.state == State::Finished
                && cycle >= s.verify_cycle
                && !s.holds_rs
                && self.spec_sources_verified(pos, cycle);
            if !can_retire {
                break;
            }
            debug_assert_eq!(s.seq, self.result.instructions, "retirement out of order");
            debug_assert_eq!(s.kind, self.entries[s.seq as usize].kind());
            self.head_seq += 1;
            self.len -= 1;
            retired += 1;
            let s = &self.ring[pos];
            let result = &mut self.result;
            result.instructions += 1;
            result.operand_wait.record(s.kind, s.operand_wait);
            if s.kind == OpKind::Store {
                // The store drains from the store queue into its bank.
                self.banks.claim(s.mem_addr, cycle);
            }
            if let Some(d) = s.dst.map(usize::from) {
                if self.reg_producer[d] == Some(s.seq) {
                    self.reg_producer[d] = None;
                }
                if d < 32 {
                    self.gpr_free += 1;
                } else {
                    self.fpr_free += 1;
                }
                debug_assert!(
                    self.gpr_free <= self.config.gpr_renames
                        && self.fpr_free <= self.config.fpr_renames,
                    "rename buffers over-freed"
                );
            }
            if s.kind == OpKind::Load {
                result.loads += 1;
                match s.pred {
                    Some(PredOutcome::Correct) | Some(PredOutcome::Constant) => {
                        result.predicted_loads += 1;
                        result
                            .verify_latency
                            .record(s.verify_cycle.saturating_sub(s.dispatch_cycle));
                        if s.pred == Some(PredOutcome::Constant) {
                            result.constant_loads += 1;
                        }
                    }
                    Some(PredOutcome::Incorrect) => result.mispredicted_loads += 1,
                    _ => {}
                }
            }
        }
        retired
    }

    /// Select: per class, the ready slots in window order, up to the
    /// class's unit count. Only the order within a class is observable
    /// (a value produced this cycle is usable next cycle at the earliest,
    /// and banks, MSHRs and the unpipelined timers each belong to one
    /// class), so the classes are scanned one after another.
    fn issue(&mut self, cycle: u64) -> usize {
        let head = self.head_seq as usize & self.mask;
        let (head_word, head_bit) = (head >> 6, head & 63);
        let mut issued = 0;
        for (fx, fu) in FU_KINDS.into_iter().enumerate() {
            let mut left = self.config.units(fu);
            if left == 0 {
                continue;
            }
            // Window order is ring order from the head: the head word's
            // upper bits, the following words, then its lower bits.
            'class: for k in 0..=self.words {
                let w = (head_word + k) & (self.words - 1);
                let mut bits = self.ready[fx * self.words + w];
                if k == 0 {
                    bits &= !0 << head_bit;
                } else if k == self.words {
                    bits &= !(!0 << head_bit);
                }
                // Issuing changes no other bit of this class, so walking
                // a copy of the word is exact.
                while bits != 0 {
                    let pos = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // A busy unpipelined unit closes its class for the
                    // cycle.
                    match fu {
                        Fu::Mcfx if self.mcfx_busy > cycle => break 'class,
                        // A complex FP op occupies the single FPU
                        // end-to-end.
                        Fu::Fpu if self.fpu_complex_busy > cycle => break 'class,
                        _ => {}
                    }
                    if self.issue_slot(pos, cycle) {
                        issued += 1;
                        left -= 1;
                        if left == 0 {
                            break 'class;
                        }
                    }
                }
            }
        }
        issued
    }

    /// Issues one ready slot; returns `false` (leaving it ready) when a
    /// missing load finds no free MSHR.
    fn issue_slot(&mut self, pos: usize, cycle: u64) -> bool {
        let s = &self.ring[pos];
        let (finish, verify) = match s.kind {
            OpKind::Load => {
                let agen_done = cycle + 1;
                if s.pred == Some(PredOutcome::Constant) {
                    // CVU verifies without touching the cache.
                    let fin = agen_done + 1;
                    (fin, fin + 1)
                } else {
                    // A miss needs a free MSHR; stall issue of this load
                    // until one drains.
                    self.mshr_fill.retain(|&t| t > cycle);
                    if self.mshr_fill.len() >= self.config.mshrs && !self.mem.probe_l1(s.mem_addr) {
                        return false;
                    }
                    let granted = self.banks.claim(s.mem_addr, agen_done);
                    self.result.l1_accesses += 1;
                    let extra = self.mem.access(s.mem_addr);
                    if extra > 0 {
                        self.result.l1_misses += 1;
                        self.mshr_fill.push(granted + 1 + extra);
                        debug_assert!(self.mshr_fill.len() <= self.config.mshrs, "MSHR overflow");
                    }
                    let fin = granted + 1 + extra;
                    (fin, if s.forwards { fin + 1 } else { fin })
                }
            }
            OpKind::Store => {
                // Stores only generate their address here; the data-cache
                // bank is accessed at completion, when the store drains
                // from the store queue (so loads and stores contend for
                // banks, as in Section 6.5).
                self.result.l1_accesses += 1;
                if self.mem.access(s.mem_addr) > 0 {
                    self.result.l1_misses += 1;
                }
                let fin = cycle + 2;
                (fin, fin)
            }
            kind => {
                let fin = cycle + self.config.latency.result_latency(kind);
                (fin, fin)
            }
        };
        // Operand wait, and which sources are speculative (consumed
        // before their predicted load verified).
        let mut avail = s.dispatch_cycle;
        let mut spec = 0;
        for (k, p) in s.src_producers.iter().enumerate() {
            let Some(prod) = p.and_then(|p| self.in_window(p)) else {
                continue;
            };
            if prod.forwards {
                if prod.state == State::Waiting || cycle < prod.verify_cycle {
                    spec |= 1 << k;
                }
                avail = avail.max(prod.dispatch_cycle);
            } else {
                avail = avail.max(prod.finish_cycle);
            }
        }
        self.set_ready(pos, false);
        let s = &mut self.ring[pos];
        s.operand_wait = avail - s.dispatch_cycle;
        s.spec = spec;
        s.state = State::Executing;
        s.issue_cycle = cycle;
        s.finish_cycle = finish;
        s.verify_cycle = verify;
        match s.fu {
            Fu::Mcfx => self.mcfx_busy = finish,
            Fu::Fpu if s.kind == OpKind::FpComplex => self.fpu_complex_busy = finish,
            _ => {}
        }
        // A mispredicted branch resolves the fetch gate when it executes:
        // refetch begins after the penalty.
        if self.pending_gate == Some(s.seq) {
            self.dispatch_blocked_until = finish + self.config.latency.mispredict_penalty;
            self.pending_gate = None;
        }
        let forwards = s.forwards;
        if finish > cycle + 1 {
            self.calendar.schedule(finish, 2 * pos as u32);
        }
        if forwards {
            self.calendar.schedule(verify, 2 * pos as u32 + 1);
        }
        self.issued_now.push(pos as u32);
        true
    }

    /// In-order dispatch into the completion buffer, reservation
    /// stations and rename buffers.
    fn dispatch(&mut self, cycle: u64) -> usize {
        let config = self.config;
        let entries = self.entries;
        let mut dispatched = 0usize;
        let mut mem_dispatched = 0usize;
        while dispatched < config.width
            && self.pending_gate.is_none()
            && cycle >= self.dispatch_blocked_until
            && self.next_dispatch < entries.len()
            && self.len < config.completion_buffer
        {
            let e = &entries[self.next_dispatch];
            let fu = fu_of(e.kind());
            if self.rs_used[fu_ix(fu)] >= config.rs_per_class {
                break;
            }
            if e.kind().is_mem() && mem_dispatched >= config.mem_dispatch_per_cycle {
                break;
            }
            // Rename buffer for the destination.
            let dst = e.dst().map(|d| d.flat_index());
            match dst {
                Some(d) if d < 32 && self.gpr_free == 0 => break,
                Some(d) if d >= 32 && self.fpr_free == 0 => break,
                _ => {}
            }

            let seq = self.head_seq + self.len as u64;
            let pos = seq as usize & self.mask;
            // Branch prediction.
            let mut mispredicted = false;
            match e.kind() {
                OpKind::CondBranch => {
                    self.result.branches += 1;
                    let taken = e.branch().expect("branch entry must carry outcome").taken;
                    let predicted = self.bp.predict_taken(e.pc());
                    self.bp.update_taken(e.pc(), taken);
                    if predicted != taken {
                        self.result.mispredicts += 1;
                        mispredicted = true;
                    }
                }
                OpKind::IndirectJump => {
                    let target = e.branch().expect("jump entry must carry target").target;
                    let hit = self.bp.predict_target(e.pc()) == Some(target);
                    self.bp.update_target(e.pc(), target);
                    if !hit {
                        self.result.mispredicts += 1;
                        mispredicted = true;
                    }
                }
                _ => {}
            }

            // LVP annotation for loads.
            let pred = if e.kind() == OpKind::Load {
                let p = self.outcomes.map(|o| o[self.load_index]);
                self.load_index += 1;
                p
            } else {
                None
            };

            // Join each in-flight producer's consumer list; a
            // non-forwarding producer that has not finished leaves the
            // operand pending.
            self.first_use[pos] = NIL;
            let mut src_producers = [None, None];
            let mut pending = 0u8;
            for (k, src) in e.srcs().iter().enumerate() {
                let Some(p) = src.and_then(|r| self.reg_producer[r.flat_index()]) else {
                    continue;
                };
                debug_assert!(p >= self.head_seq, "producers are in flight");
                src_producers[k] = Some(p);
                let ppos = p as usize & self.mask;
                let operand = (2 * pos + k) as u32;
                self.next_use[operand as usize] = self.first_use[ppos];
                self.first_use[ppos] = operand;
                let prod = &self.ring[ppos];
                if !prod.forwards && prod.state != State::Finished {
                    pending += 1;
                }
            }
            if let Some(d) = dst {
                self.reg_producer[d] = Some(seq);
                if d < 32 {
                    self.gpr_free -= 1;
                } else {
                    self.fpr_free -= 1;
                }
            }
            self.rs_used[fu_ix(fu)] += 1;

            // Rewritten in place, field by field; the issue-time fields
            // (`issue_cycle`, `operand_wait`, `spec`) are set at issue.
            let s = &mut self.ring[pos];
            s.seq = seq;
            s.mem_addr = e.mem().map_or(0, |m| m.addr);
            s.src_producers = src_producers;
            s.dispatch_cycle = cycle;
            s.finish_cycle = u64::MAX;
            s.verify_cycle = u64::MAX;
            s.kind = e.kind();
            s.fu = fu;
            s.pred = pred;
            s.forwards = e.kind() == OpKind::Load && pred.is_some_and(|p| p.predicted());
            s.state = State::Waiting;
            s.dst = dst.map(|d| d as u8);
            s.holds_rs = true;
            s.squashed_once = false;
            s.pending = pending;
            if pending == 0 {
                self.set_ready(pos, true);
            }
            self.len += 1;
            self.next_dispatch += 1;
            dispatched += 1;
            if e.kind().is_mem() {
                mem_dispatched += 1;
            }
            if mispredicted {
                self.pending_gate = Some(seq);
                break;
            }
        }
        dispatched
    }

    /// The earliest future cycle at which a state change can happen after
    /// an idle `cycle`: a slot event, an unpipelined unit or MSHR coming
    /// free, or dispatch unblocking. Waking early is harmless (the cycle
    /// is idle again); the calendar only ever errs early.
    fn next_event(&self, cycle: u64) -> u64 {
        let mut event = self.calendar.next_after(cycle);
        for t in [self.mcfx_busy, self.fpu_complex_busy]
            .into_iter()
            .chain(self.mshr_fill.iter().copied())
        {
            if t > cycle && t < event {
                event = t;
            }
        }
        if self.next_dispatch < self.entries.len() && self.dispatch_blocked_until > cycle {
            event = event.min(self.dispatch_blocked_until);
        }
        event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_trace::{BranchEvent, MemAccess, RegRef};

    mod scan {
        //! The window-scanning 620 model, the event-driven core's
        //! differential oracle: every simulated cycle makes one
        //! merged finish/squash/RS-release pass and one issue pass over the
        //! whole completion buffer, and idle cycles a third to find the next
        //! event. The event-driven [`simulate_620`] must produce identical
        //! [`SimResult`]s.
        use super::super::*;
        use std::collections::VecDeque;

        #[derive(Debug, Clone)]
        struct Slot {
            seq: u64,
            kind: OpKind,
            fu: Fu,
            pred: Option<PredOutcome>,
            mem_addr: u64,
            dst: Option<usize>,
            src_producers: [Option<u64>; 2],
            state: State,
            dispatch_cycle: u64,
            min_issue_cycle: u64,
            issue_cycle: u64,
            finish_cycle: u64,
            /// For predicted loads: finish + 1; otherwise == finish.
            verify_cycle: u64,
            /// Sequence numbers of speculative (predicted-load) sources this slot
            /// consumed; RS release and retirement wait until they all verify.
            spec_srcs: [Option<u64>; 2],
            issued_spec: bool,
            holds_rs: bool,
            operand_wait: u64,
            squashed_once: bool,
        }

        /// Runs the 620-class model over a trace.
        ///
        /// `outcomes` carries one [`PredOutcome`] per dynamic load (from
        /// [`lvp_predictor::LvpUnit::annotate`], under any
        /// [`lvp_predictor::PredictorKind`]); pass `None` for the no-LVP
        /// baseline. The model reads only these verdicts — never the
        /// predictor's tables — so every backend is costed identically.
        ///
        /// # Panics
        ///
        /// Panics if `outcomes` is `Some` but shorter than the trace's load
        /// count, or if the model stops making progress (an internal bug).
        pub(super) fn simulate_620_scan(
            trace: &Trace,
            outcomes: Option<&[PredOutcome]>,
            config: &Ppc620Config,
        ) -> SimResult {
            let mut result = SimResult::default();
            let mut bp = BranchPredictor::new(2048, 256);
            let mut mem = MemHierarchy::new(config.l1, config.l2, config.mem_latency);
            let mut banks = BankArbiter::new();

            let entries = trace.entries();
            let mut next_dispatch = 0usize; // trace index
            let mut load_index = 0usize;

            let mut window: VecDeque<Slot> = VecDeque::with_capacity(config.completion_buffer);
            let mut head_seq: u64 = 0; // seq of window[0]
            let mut reg_producer: [Option<u64>; 64] = [None; 64];

            let mut rs_used = [0usize; 5];
            let rs_cap = config.rs_per_class;

            let mut gpr_free = config.gpr_renames;
            let mut fpr_free = config.fpr_renames;

            // Unpipelined-unit busy-until cycles.
            let mut mcfx_busy: u64 = 0;
            let mut fpu_complex_busy: u64 = 0;
            // Fill times of in-flight L1 misses (the MSHRs).
            let mut mshr_fill: Vec<u64> = Vec::new();
            // Reused worklist for transitive squashes.
            let mut squash_scratch: Vec<u64> = Vec::new();

            // Branch redirect state.
            let mut pending_gate: Option<u64> = None; // seq of unresolved mispredicted branch
            let mut dispatch_blocked_until: u64 = 0;

            let mut cycle: u64 = 0;
            let mut last_progress: (u64, (u64, usize)) = (0, (0, 0));

            while next_dispatch < entries.len() || !window.is_empty() {
                // Number of state changes this cycle; when a full cycle performs
                // none, every future change is gated on a known event cycle and
                // the idle stretch can be skipped wholesale (see below).
                let mut activity = 0usize;

                // ---- 1. process verifications & squashes scheduled this cycle ----
                // ---- 2. executing -> finished ----
                // ---- 3. release reservation stations ----
                // One merged pass. The orderings the split passes enforced do not
                // observe each other: squashing only distinguishes Waiting from
                // issued slots (not Executing from Finished), a same-cycle finish
                // can never satisfy `verify_cycle == cycle` (verify > finish for
                // predicted loads), and an RS released before a later squash
                // re-acquires it in the same pass — so the merged pass computes
                // the identical fixed state (asserted against the split-pass
                // reference implementation in the test module).
                for i in 0..window.len() {
                    let s = &mut window[i];
                    if s.state == State::Executing && s.finish_cycle <= cycle {
                        s.state = State::Finished;
                        activity += 1;
                    }
                    let (incorrect, vc, lseq, lfinish) = (
                        s.pred == Some(PredOutcome::Incorrect) && !s.squashed_once,
                        s.verify_cycle,
                        s.seq,
                        s.finish_cycle,
                    );
                    if incorrect && s.state == State::Finished && vc == cycle {
                        s.squashed_once = true;
                        activity += 1;
                        squash_dependents(
                            &mut window,
                            lseq,
                            lfinish,
                            cycle,
                            &mut rs_used,
                            &mut squash_scratch,
                        );
                    }
                    let s = &window[i];
                    if !s.holds_rs || s.state == State::Waiting || s.issue_cycle > cycle {
                        continue;
                    }
                    if s.issued_spec && !spec_sources_verified(&window, head_seq, i, cycle) {
                        continue;
                    }
                    let fu = s.fu;
                    window[i].holds_rs = false;
                    rs_used[fu_ix(fu)] -= 1;
                    activity += 1;
                }

                // ---- 4. in-order completion ----
                let mut retired = 0usize;
                while retired < config.width && !window.is_empty() {
                    let s = &window[0];
                    let can_retire = s.state == State::Finished
                        && cycle >= s.verify_cycle
                        && !s.holds_rs
                        && (!s.issued_spec || spec_sources_verified(&window, head_seq, 0, cycle));
                    if !can_retire {
                        break;
                    }
                    let s = window.pop_front().expect("window non-empty");
                    head_seq += 1;
                    retired += 1;
                    result.instructions += 1;
                    result.operand_wait.record(s.kind, s.operand_wait);
                    if s.kind == OpKind::Store {
                        // The store drains from the store queue into its bank.
                        banks.claim(s.mem_addr, cycle);
                    }
                    if let Some(d) = s.dst {
                        if reg_producer[d] == Some(s.seq) {
                            reg_producer[d] = None;
                        }
                        if d < 32 {
                            gpr_free += 1;
                        } else {
                            fpr_free += 1;
                        }
                    }
                    if s.kind == OpKind::Load {
                        result.loads += 1;
                        match s.pred {
                            Some(PredOutcome::Correct) | Some(PredOutcome::Constant) => {
                                result.predicted_loads += 1;
                                result
                                    .verify_latency
                                    .record(s.verify_cycle.saturating_sub(s.dispatch_cycle));
                                if s.pred == Some(PredOutcome::Constant) {
                                    result.constant_loads += 1;
                                }
                            }
                            Some(PredOutcome::Incorrect) => result.mispredicted_loads += 1,
                            _ => {}
                        }
                    }
                }
                activity += retired;

                // ---- 5. issue ----
                // One window-major pass with per-FU budgets, replacing the
                // per-FU rescans of the reference model. Issuing an op never
                // changes whether an op of a *different* class issues this
                // cycle: a value produced this cycle is available no earlier
                // than the next one, and the structural resources (banks,
                // MSHRs, the unpipelined MCFX/FPU timers) are each private to
                // one class — so only the relative order *within* a class is
                // observable, and that order (window order) is preserved.
                let mut left = [0usize; 5];
                for fu in FU_KINDS {
                    left[fu_ix(fu)] = config.units(fu);
                }
                // A busy unpipelined unit blocks every later candidate of its
                // class this cycle, exactly like the reference model's `break`.
                let mut closed = [false; 5];
                for i in 0..window.len() {
                    let fu = window[i].fu;
                    let fx = fu_ix(fu);
                    if left[fx] == 0 || closed[fx] {
                        continue;
                    }
                    let ready = {
                        let s = &window[i];
                        s.state == State::Waiting
                            && s.dispatch_cycle < cycle
                            && s.min_issue_cycle <= cycle
                            && operands_ready(&window, head_seq, i, cycle)
                    };
                    if !ready {
                        continue;
                    }
                    // Structural checks for unpipelined units.
                    match fu {
                        Fu::Mcfx if mcfx_busy > cycle => {
                            closed[fx] = true;
                            continue;
                        }
                        // A complex FP op occupies the single FPU end-to-end.
                        Fu::Fpu if fpu_complex_busy > cycle => {
                            closed[fx] = true;
                            continue;
                        }
                        _ => {}
                    }
                    // Compute timing for this issue.
                    let (op_wait, spec_srcs, is_spec) =
                        operand_wait_info(&window, head_seq, i, cycle);
                    let (finish, verify) = {
                        let s = &window[i];
                        match s.kind {
                            OpKind::Load => {
                                let agen_done = cycle + 1;
                                if s.pred == Some(PredOutcome::Constant) {
                                    // CVU verifies without touching the cache.
                                    let fin = agen_done + 1;
                                    (fin, fin + 1)
                                } else {
                                    // A miss needs a free MSHR; stall issue of
                                    // this load until one drains.
                                    mshr_fill.retain(|&t| t > cycle);
                                    if mshr_fill.len() >= config.mshrs && !mem.probe_l1(s.mem_addr)
                                    {
                                        continue;
                                    }
                                    let granted = banks.claim(s.mem_addr, agen_done);
                                    result.l1_accesses += 1;
                                    let extra = mem.access(s.mem_addr);
                                    if extra > 0 {
                                        result.l1_misses += 1;
                                        mshr_fill.push(granted + 1 + extra);
                                    }
                                    let fin = granted + 1 + extra;
                                    let ver = if s.pred.is_some_and(|p| p.predicted()) {
                                        fin + 1
                                    } else {
                                        fin
                                    };
                                    (fin, ver)
                                }
                            }
                            OpKind::Store => {
                                // Stores only generate their address here; the
                                // data-cache bank is accessed at completion,
                                // when the store drains from the store queue
                                // (so loads and stores contend for banks, as
                                // in Section 6.5).
                                let agen_done = cycle + 1;
                                result.l1_accesses += 1;
                                let extra = mem.access(s.mem_addr);
                                if extra > 0 {
                                    result.l1_misses += 1;
                                }
                                let fin = agen_done + 1;
                                (fin, fin)
                            }
                            kind => {
                                let fin = cycle + config.latency.result_latency(kind);
                                (fin, fin)
                            }
                        }
                    };
                    {
                        let s = &mut window[i];
                        s.state = State::Executing;
                        s.issue_cycle = cycle;
                        s.finish_cycle = finish;
                        s.verify_cycle = verify;
                        s.operand_wait = op_wait;
                        s.issued_spec = is_spec;
                        s.spec_srcs = spec_srcs;
                        match fu {
                            Fu::Mcfx => mcfx_busy = finish,
                            Fu::Fpu if s.kind == OpKind::FpComplex => fpu_complex_busy = finish,
                            _ => {}
                        }
                        // A mispredicted branch resolves the fetch gate when it
                        // executes: refetch begins after the penalty.
                        if pending_gate == Some(s.seq) {
                            dispatch_blocked_until = finish + config.latency.mispredict_penalty;
                            pending_gate = None;
                        }
                    }
                    left[fx] -= 1;
                    activity += 1;
                }

                // ---- 6. dispatch ----
                let mut dispatched = 0usize;
                let mut mem_dispatched = 0usize;
                while dispatched < config.width
                    && pending_gate.is_none()
                    && cycle >= dispatch_blocked_until
                    && next_dispatch < entries.len()
                    && window.len() < config.completion_buffer
                {
                    let e = &entries[next_dispatch];
                    let fu = fu_of(e.kind());
                    if rs_used[fu_ix(fu)] >= rs_cap {
                        break;
                    }
                    if e.kind().is_mem() && mem_dispatched >= config.mem_dispatch_per_cycle {
                        break;
                    }
                    // Rename buffer for the destination.
                    let dst = e.dst().map(|d| d.flat_index());
                    match dst {
                        Some(d) if d < 32 && gpr_free == 0 => break,
                        Some(d) if d >= 32 && fpr_free == 0 => break,
                        _ => {}
                    }

                    let seq = head_seq + window.len() as u64;
                    // Branch prediction.
                    let mut mispredicted = false;
                    match e.kind() {
                        OpKind::CondBranch => {
                            result.branches += 1;
                            let taken = e.branch().expect("branch entry must carry outcome").taken;
                            let predicted = bp.predict_taken(e.pc());
                            bp.update_taken(e.pc(), taken);
                            if predicted != taken {
                                result.mispredicts += 1;
                                mispredicted = true;
                            }
                        }
                        OpKind::IndirectJump => {
                            let target = e.branch().expect("jump entry must carry target").target;
                            let hit = bp.predict_target(e.pc()) == Some(target);
                            bp.update_target(e.pc(), target);
                            if !hit {
                                result.mispredicts += 1;
                                mispredicted = true;
                            }
                        }
                        _ => {}
                    }

                    // LVP annotation for loads.
                    let pred = if e.kind() == OpKind::Load {
                        let p = outcomes.map(|o| o[load_index]);
                        load_index += 1;
                        p
                    } else {
                        None
                    };

                    let mut src_producers = [None, None];
                    for (k, src) in e.srcs().iter().enumerate() {
                        if let Some(r) = src {
                            src_producers[k] = reg_producer[r.flat_index()];
                        }
                    }
                    if let Some(d) = dst {
                        reg_producer[d] = Some(seq);
                        if d < 32 {
                            gpr_free -= 1;
                        } else {
                            fpr_free -= 1;
                        }
                    }
                    rs_used[fu_ix(fu)] += 1;

                    window.push_back(Slot {
                        seq,
                        kind: e.kind(),
                        fu,
                        pred,
                        mem_addr: e.mem().map_or(0, |m| m.addr),
                        dst,
                        src_producers,
                        state: State::Waiting,
                        dispatch_cycle: cycle,
                        min_issue_cycle: 0,
                        issue_cycle: 0,
                        finish_cycle: u64::MAX,
                        verify_cycle: u64::MAX,
                        spec_srcs: [None, None],
                        issued_spec: false,
                        holds_rs: true,
                        operand_wait: 0,
                        squashed_once: false,
                    });
                    next_dispatch += 1;
                    dispatched += 1;
                    if e.kind().is_mem() {
                        mem_dispatched += 1;
                    }
                    if mispredicted {
                        pending_gate = Some(seq);
                        break;
                    }
                }
                activity += dispatched;

                // Idle-cycle skipping: a cycle with zero state changes implies
                // every future change is gated on one of the event cycles
                // below, so the idle stretch is skipped in one step. The jump
                // lands *exactly* on the earliest event — squash timing
                // requires `verify_cycle == cycle` — and waking early is
                // harmless (the cycle is idle again), so taking the minimum
                // over a superset of the live events is safe.
                let mut next_cycle = cycle + 1;
                if activity == 0 {
                    let mut event = u64::MAX;
                    for s in &window {
                        let e = match s.state {
                            State::Executing => s.finish_cycle,
                            State::Finished => s.verify_cycle,
                            // Squashed slots sleep until their producer verifies.
                            State::Waiting => s.min_issue_cycle,
                        };
                        if e > cycle && e < event {
                            event = e;
                        }
                    }
                    for t in [mcfx_busy, fpu_complex_busy] {
                        if t > cycle && t < event {
                            event = t;
                        }
                    }
                    for &t in &mshr_fill {
                        if t > cycle && t < event {
                            event = t;
                        }
                    }
                    if next_dispatch < entries.len() && dispatch_blocked_until > cycle {
                        event = event.min(dispatch_blocked_until);
                    }
                    if event != u64::MAX {
                        // Never skip past the progress guard's horizon, so a
                        // genuine deadlock still panics at the same cycle the
                        // cycle-by-cycle model would.
                        next_cycle = event.min(last_progress.0 + 100_001);
                    }
                }
                cycle = next_cycle;
                // Progress guard against model deadlocks.
                if (head_seq, next_dispatch) != last_progress.1 {
                    last_progress = (cycle, (head_seq, next_dispatch));
                } else if cycle - last_progress.0 > 100_000 {
                    panic!(
                        "620 model deadlock at cycle {cycle}: window head {:?}",
                        window.front()
                    );
                }
            }

            result.cycles = cycle;
            result.l2_accesses = mem.l2_accesses();
            result.bank_conflict_cycles = banks.conflict_cycles();
            result
        }

        /// Whether every source operand of `window[i]` is available at `cycle`.
        fn operands_ready(window: &VecDeque<Slot>, head_seq: u64, i: usize, cycle: u64) -> bool {
            let s = &window[i];
            for p in s.src_producers.iter().flatten() {
                if *p < head_seq {
                    continue; // producer retired: architectural value
                }
                let prod = &window[(*p - head_seq) as usize];
                if producer_available(prod, cycle).is_none() {
                    return false;
                }
            }
            true
        }

        /// The cycle a producer's value became available, or `None` if it is not
        /// yet available. Predicted loads forward speculatively from dispatch.
        fn producer_available(prod: &Slot, cycle: u64) -> Option<u64> {
            if prod.kind == OpKind::Load && prod.pred.is_some_and(|p| p.predicted()) {
                return Some(prod.dispatch_cycle);
            }
            if prod.state != State::Waiting && prod.finish_cycle <= cycle {
                Some(prod.finish_cycle)
            } else {
                None
            }
        }

        /// Whether every speculative source of `window[i]` has verified by
        /// `cycle` (retired sources count as verified).
        fn spec_sources_verified(
            window: &VecDeque<Slot>,
            head_seq: u64,
            i: usize,
            cycle: u64,
        ) -> bool {
            for p in window[i].spec_srcs.iter().flatten() {
                if *p < head_seq {
                    continue; // retired, hence verified
                }
                let prod = &window[(*p - head_seq) as usize];
                if prod.state != State::Finished || prod.verify_cycle > cycle {
                    return false;
                }
            }
            true
        }

        /// Computes (operand wait cycles, speculative source seqs,
        /// consumed-any-speculative-value) for the slot issuing now.
        fn operand_wait_info(
            window: &VecDeque<Slot>,
            head_seq: u64,
            i: usize,
            cycle: u64,
        ) -> (u64, [Option<u64>; 2], bool) {
            let s = &window[i];
            let mut avail = s.dispatch_cycle;
            let mut spec_srcs = [None, None];
            let mut is_spec = false;
            for (k, p) in s.src_producers.iter().enumerate() {
                let Some(p) = p else { continue };
                if *p < head_seq {
                    continue;
                }
                let prod = &window[(*p - head_seq) as usize];
                if prod.kind == OpKind::Load && prod.pred.is_some_and(|q| q.predicted()) {
                    // Speculative if consumed before the load verified.
                    if prod.state == State::Waiting || cycle < prod.verify_cycle {
                        is_spec = true;
                        spec_srcs[k] = Some(*p);
                    }
                    avail = avail.max(prod.dispatch_cycle);
                } else {
                    avail = avail.max(prod.finish_cycle);
                }
            }
            (avail.saturating_sub(s.dispatch_cycle), spec_srcs, is_spec)
        }

        /// On an incorrect load verification, reset every issued transitive
        /// dependent that consumed the wrong value (issued before the correct
        /// value returned) back to Waiting; it may reissue from `verify_cycle`.
        fn squash_dependents(
            window: &mut VecDeque<Slot>,
            producer_seq: u64,
            producer_finish: u64,
            verify_cycle: u64,
            rs_used: &mut [usize; 5],
            to_squash: &mut Vec<u64>,
        ) {
            to_squash.clear();
            to_squash.push(producer_seq);
            let mut k = 0;
            while k < to_squash.len() {
                let pseq = to_squash[k];
                k += 1;
                // Dependents always sit *after* their producer in the window
                // (larger seq), so new worklist entries never precede `pseq`.
                for s in window.iter_mut() {
                    let depends = s.src_producers.iter().flatten().any(|&p| p == pseq);
                    if !depends || s.state == State::Waiting {
                        continue;
                    }
                    // Direct dependents of the load squash only if they issued
                    // before the correct value returned; transitive dependents of
                    // squashed instructions always squash (their input was wrong).
                    if pseq == producer_seq && s.issue_cycle >= producer_finish {
                        continue;
                    }
                    let seq = s.seq;
                    s.state = State::Waiting;
                    s.min_issue_cycle = verify_cycle;
                    s.issued_spec = false;
                    s.spec_srcs = [None, None];
                    s.finish_cycle = u64::MAX;
                    s.verify_cycle = u64::MAX;
                    if !s.holds_rs {
                        // It had released its RS at issue; it must hold one again
                        // while it waits to reissue.
                        s.holds_rs = true;
                        rs_used[fu_ix(s.fu)] += 1;
                    }
                    to_squash.push(seq);
                }
            }
        }
    }

    fn alu(pc: u64, dst: u8, srcs: [Option<u8>; 2]) -> TraceEntry {
        TraceEntry::op(
            pc,
            OpKind::IntSimple,
            Some(RegRef::int(dst)),
            [srcs[0].map(RegRef::int), srcs[1].map(RegRef::int)],
        )
    }

    fn load(pc: u64, dst: u8, addr: u64) -> TraceEntry {
        TraceEntry::mem_op(
            pc,
            OpKind::Load,
            Some(RegRef::int(dst)),
            [Some(RegRef::int(2)), None],
            MemAccess {
                addr,
                width: 8,
                value: 1,
                fp: false,
            },
        )
    }

    fn run(entries: &[TraceEntry], outcomes: Option<&[PredOutcome]>) -> SimResult {
        let trace: Trace = entries.iter().copied().collect();
        simulate_620(&trace, outcomes, &Ppc620Config::base())
    }

    /// Deterministic 64-bit LCG (Knuth MMIX constants).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 16
        }
    }

    /// A random but structurally valid instruction mix: ALU chains,
    /// complex int/FP ops, loads/stores over hit- and miss-prone
    /// addresses, and poorly predictable branches.
    fn random_trace(seed: u64, n: usize) -> Trace {
        let mut rng = Lcg(seed);
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let r = rng.next();
            let pc = 0x1_0000 + 4 * (r % 97);
            let dst = (10 + (r >> 8) % 8) as u8;
            let src = (10 + (r >> 16) % 8) as u8;
            let e = match r % 100 {
                0..=39 => TraceEntry::op(
                    pc,
                    OpKind::IntSimple,
                    Some(RegRef::int(dst)),
                    [Some(RegRef::int(src)), None],
                ),
                40..=49 => TraceEntry::op(
                    pc,
                    OpKind::IntComplex,
                    Some(RegRef::int(dst)),
                    [Some(RegRef::int(src)), Some(RegRef::int(2))],
                ),
                50..=54 => TraceEntry::op(
                    pc,
                    OpKind::FpSimple,
                    Some(RegRef::fp(dst)),
                    [Some(RegRef::fp(src)), None],
                ),
                55..=59 => TraceEntry::op(
                    pc,
                    OpKind::FpComplex,
                    Some(RegRef::fp(dst)),
                    [Some(RegRef::fp(src)), Some(RegRef::fp(2))],
                ),
                60..=79 => {
                    // Mix cache-resident and striding (miss-prone) loads.
                    let addr = if r.is_multiple_of(3) {
                        0x10_0000 + ((r >> 24) % 8) * 8
                    } else {
                        0x20_0000 + ((r >> 24) % 512) * 4096
                    };
                    load(pc, dst, addr)
                }
                80..=89 => TraceEntry::mem_op(
                    pc,
                    OpKind::Store,
                    None,
                    [Some(RegRef::int(src)), Some(RegRef::int(2))],
                    MemAccess {
                        addr: 0x30_0000 + ((r >> 24) % 64) * 8,
                        width: 8,
                        value: 0,
                        fp: false,
                    },
                ),
                _ => TraceEntry::control(
                    pc,
                    OpKind::CondBranch,
                    None,
                    [Some(RegRef::int(src)), None],
                    BranchEvent {
                        taken: (r >> 32).is_multiple_of(3),
                        target: pc + 8,
                    },
                ),
            };
            entries.push(e);
            let _ = i;
        }
        entries.into_iter().collect()
    }

    /// Random per-load outcome mix covering every [`PredOutcome`].
    fn random_outcomes(seed: u64, loads: usize) -> Vec<PredOutcome> {
        let mut rng = Lcg(seed);
        (0..loads)
            .map(|_| match rng.next() % 10 {
                0..=3 => PredOutcome::Correct,
                4..=5 => PredOutcome::Incorrect,
                6 => PredOutcome::Constant,
                _ => PredOutcome::NotPredicted,
            })
            .collect()
    }

    /// The event-driven model must be bit-identical to the scan oracle on
    /// randomized traces, across the whole 620 family and every outcome
    /// regime.
    #[test]
    fn optimized_matches_reference_on_random_traces() {
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let trace = random_trace(seed, 3000);
            let loads = trace.stats().loads as usize;
            let outcome_sets: [Option<Vec<PredOutcome>>; 5] = [
                None,
                Some(vec![PredOutcome::Correct; loads]),
                Some(vec![PredOutcome::Incorrect; loads]),
                Some(vec![PredOutcome::Constant; loads]),
                Some(random_outcomes(seed ^ 0x5555, loads)),
            ];
            for config in machines() {
                for outcomes in &outcome_sets {
                    let fast = simulate_620(&trace, outcomes.as_deref(), &config);
                    let slow = scan::simulate_620_scan(&trace, outcomes.as_deref(), &config);
                    assert_eq!(
                        fast,
                        slow,
                        "divergence: seed {seed}, config {}, outcomes {:?}",
                        config.name,
                        outcomes.as_deref().map(|o| o.first())
                    );
                }
            }
        }
    }

    /// Same parity check on the structured corner-case traces the
    /// existing unit tests exercise (serial chains, pointer chases).
    #[test]
    fn optimized_matches_reference_on_structured_traces() {
        let mut entries = Vec::new();
        for i in 0..800u64 {
            entries.push(load(0x10000, 10, 0x10_0000 + (i % 4) * 64));
            entries.push(alu(0x10004, 2, [Some(10), None]));
        }
        let trace: Trace = entries.into_iter().collect();
        let loads = trace.stats().loads as usize;
        for outcomes in [
            None,
            Some(vec![PredOutcome::Correct; loads]),
            Some(vec![PredOutcome::Incorrect; loads]),
        ] {
            let fast = simulate_620(&trace, outcomes.as_deref(), &Ppc620Config::base());
            let slow = scan::simulate_620_scan(&trace, outcomes.as_deref(), &Ppc620Config::base());
            assert_eq!(fast, slow);
        }
    }

    /// The 620 family of `ablation_machine`, built the way its `scaled`
    /// helper builds them: half-size, base, 620+ and double-wide.
    fn machines() -> [Ppc620Config; 4] {
        let scaled = |name, factor: f64, n_lsu, mem_dispatch_per_cycle| {
            let base = Ppc620Config::base();
            let scale = |v: usize| ((v as f64 * factor).round() as usize).max(1);
            Ppc620Config {
                name,
                rs_per_class: scale(base.rs_per_class),
                gpr_renames: scale(base.gpr_renames),
                fpr_renames: scale(base.fpr_renames),
                completion_buffer: scale(base.completion_buffer),
                n_lsu,
                mem_dispatch_per_cycle,
                ..base
            }
        };
        [
            scaled("620/2", 0.5, 1, 1),
            scaled("620", 1.0, 1, 1),
            scaled("620+", 2.0, 2, 2),
            scaled("620x4", 4.0, 2, 2),
        ]
    }

    /// Suite traces are cut to this many entries, so the differential
    /// matrix stays quick in the lightly optimized test build.
    const SUITE_PREFIX: u64 = 200_000;

    /// One benchmark's trace prefix with its five outcome regimes and
    /// each regime's dataflow limit under the 620 latencies.
    struct SuiteCell {
        name: &'static str,
        trace: Trace,
        regimes: Vec<(&'static str, Option<Vec<PredOutcome>>, u64)>,
    }

    /// The 17 suite benchmarks (TOC profile), annotated without LVP and
    /// by the Simple, Constant, Limit and Perfect units; built once and
    /// shared by the per-machine tests.
    fn suite_cells() -> &'static [SuiteCell] {
        static CELLS: std::sync::OnceLock<Vec<SuiteCell>> = std::sync::OnceLock::new();
        CELLS.get_or_init(|| {
            use lvp_predictor::{presets, LvpUnit};
            lvp_workloads::suite()
                .into_iter()
                .map(|w| {
                    let program = w
                        .compile(lvp_isa::AsmProfile::Toc)
                        .expect("suite workload compiles");
                    let mut trace = Trace::with_capacity(SUITE_PREFIX as usize);
                    // A program that runs past the prefix stops with an
                    // out-of-fuel error; the prefix is what we want.
                    let _ =
                        lvp_sim::FastSim::new(&program).run_with(SUITE_PREFIX, |e| trace.push(*e));
                    let latency = LatencyTable::ppc620();
                    let regimes = [
                        ("none", None),
                        ("simple", Some(presets::simple())),
                        ("constant", Some(presets::constant())),
                        ("limit", Some(presets::limit())),
                        ("perfect", Some(presets::perfect())),
                    ]
                    .into_iter()
                    .map(|(label, config)| {
                        let outcomes = config.map(|c| LvpUnit::new(c).annotate(&trace));
                        let bound = crate::dataflow_limit(&trace, outcomes.as_deref(), &latency)
                            .critical_path;
                        (label, outcomes, bound)
                    })
                    .collect();
                    SuiteCell {
                        name: w.name,
                        trace,
                        regimes,
                    }
                })
                .collect()
        })
    }

    /// Every suite cell on one machine: the event-driven model equals the
    /// scan oracle, retires every entry, respects the issue width, and
    /// takes no fewer cycles than the dataflow limit under the same
    /// outcomes and latencies.
    fn check_suite_machine(machine: usize) {
        let config = &machines()[machine];
        for cell in suite_cells() {
            for (label, outcomes, dataflow) in &cell.regimes {
                let event = simulate_620(&cell.trace, outcomes.as_deref(), config);
                let scan = scan::simulate_620_scan(&cell.trace, outcomes.as_deref(), config);
                let what = format!("{} / {label} on {}", cell.name, config.name);
                assert_eq!(event, scan, "{what}");
                assert_eq!(event.instructions, cell.trace.len() as u64, "{what}");
                assert!(
                    event.cycles * config.width as u64 >= event.instructions,
                    "{what}"
                );
                assert!(
                    event.cycles >= *dataflow,
                    "{what}: below the dataflow limit"
                );
            }
        }
    }

    #[test]
    fn event_core_matches_scan_on_suite_620_half() {
        check_suite_machine(0);
    }

    #[test]
    fn event_core_matches_scan_on_suite_620() {
        check_suite_machine(1);
    }

    #[test]
    fn event_core_matches_scan_on_suite_620_plus() {
        check_suite_machine(2);
    }

    #[test]
    fn event_core_matches_scan_on_suite_620_x4() {
        check_suite_machine(3);
    }

    /// Finding, not a passing invariant: a value-misprediction squash
    /// re-acquires a reservation station for every squashed dependent
    /// that had already released one, even when new instructions have
    /// since filled its class, so occupancy can exceed `rs_per_class`.
    /// The scan oracle does the same (the models agree on every cell), so
    /// this is how the 620 model behaves, not an event-core bug; fixing
    /// it would change the committed results. Counterexample: the seed-42
    /// random trace with every load mispredicted on the base 620 (two
    /// over-subscribing re-acquisitions); the suite matrix has thousands.
    #[test]
    #[ignore = "documents RS over-subscription after squashes (DESIGN.md, 620 core scheduling)"]
    fn squashes_never_oversubscribe_reservation_stations() {
        let trace = random_trace(42, 3000);
        let wrong = vec![PredOutcome::Incorrect; trace.stats().loads as usize];
        let config = Ppc620Config::base();
        let mut core = Core::new(trace.entries(), Some(&wrong), &config);
        core.run();
        assert_eq!(core.rs_oversubscribed, 0);
    }

    #[test]
    fn empty_trace() {
        let r = run(&[], None);
        assert_eq!(r.instructions, 0);
    }

    #[test]
    fn independent_alus_reach_high_ipc() {
        let entries: Vec<_> = (0..4000)
            .map(|i| alu(0x10000 + 4 * (i % 64), (i % 8) as u8 + 10, [None, None]))
            .collect();
        let r = run(&entries, None);
        assert_eq!(r.instructions, 4000);
        // 2 SCFX units bound throughput at 2 IPC.
        assert!(r.ipc() > 1.7, "IPC {:.2}", r.ipc());
        assert!(r.ipc() <= 2.05, "IPC {:.2}", r.ipc());
    }

    #[test]
    fn dependent_chain_is_serialized() {
        let entries: Vec<_> = (0..1000)
            .map(|i| alu(0x10000 + 4 * (i % 64), 10, [Some(10), None]))
            .collect();
        let r = run(&entries, None);
        assert!(
            r.ipc() < 1.1,
            "serial chain cannot exceed 1 IPC: {:.2}",
            r.ipc()
        );
    }

    #[test]
    fn load_use_chain_speeds_up_with_lvp() {
        // A serial pointer-chase: each load's address depends on the ALU
        // result of the previous load's value. With LVP the consumer gets
        // the value at dispatch, collapsing the whole chain.
        let mut entries = Vec::new();
        for i in 0..2000u64 {
            // load r10 <- [r2 + ...], then r2 <- f(r10)
            entries.push(load(0x10000, 10, 0x10_0000 + (i % 4) * 64));
            entries.push(TraceEntry::op(
                0x10004,
                OpKind::IntSimple,
                Some(RegRef::int(2)),
                [Some(RegRef::int(10)), None],
            ));
        }
        let trace: Trace = entries.into_iter().collect();
        let base = simulate_620(&trace, None, &Ppc620Config::base());
        let n_loads = trace.stats().loads as usize;
        let perfect = vec![PredOutcome::Correct; n_loads];
        let lvp = simulate_620(&trace, Some(&perfect), &Ppc620Config::base());
        assert_eq!(base.instructions, lvp.instructions);
        assert!(
            lvp.cycles < base.cycles,
            "LVP must speed up a load-use bound chain: {} vs {}",
            lvp.cycles,
            base.cycles
        );
        assert!(
            lvp.speedup_over(&base) > 1.15,
            "speedup {:.3}",
            lvp.speedup_over(&base)
        );
    }

    #[test]
    fn incorrect_predictions_cost_little() {
        let mut entries = Vec::new();
        for i in 0..1000u64 {
            entries.push(load(0x10000, 10, 0x10_0000 + (i % 4) * 64));
            entries.push(alu(0x10004, 11, [Some(10), None]));
        }
        let trace: Trace = entries.into_iter().collect();
        let base = simulate_620(&trace, None, &Ppc620Config::base());
        let wrong = vec![PredOutcome::Incorrect; trace.stats().loads as usize];
        let lvp = simulate_620(&trace, Some(&wrong), &Ppc620Config::base());
        // Worst case per the paper: one extra cycle per dependent, plus
        // structural effects. Overall cost must stay small.
        let slowdown = lvp.cycles as f64 / base.cycles as f64;
        assert!(
            slowdown < 1.40,
            "mispredictions too expensive: {slowdown:.3}"
        );
        assert_eq!(lvp.mispredicted_loads, 1000);
    }

    #[test]
    fn constants_avoid_the_cache() {
        let mut entries = Vec::new();
        for _ in 0..500 {
            entries.push(load(0x10000, 10, 0x10_0000));
            entries.push(alu(0x10004, 11, [Some(10), None]));
        }
        let trace: Trace = entries.into_iter().collect();
        let consts = vec![PredOutcome::Constant; 500];
        let r = simulate_620(&trace, Some(&consts), &Ppc620Config::base());
        assert_eq!(r.constant_loads, 500);
        assert_eq!(r.l1_accesses, 0, "constant loads must bypass the cache");
    }

    #[test]
    fn branch_mispredictions_add_bubbles() {
        // Alternating taken/not-taken branch defeats the bimodal predictor.
        let mut entries = Vec::new();
        for i in 0..500u64 {
            entries.push(alu(0x10000, 10, [None, None]));
            entries.push(TraceEntry::control(
                0x10004,
                OpKind::CondBranch,
                None,
                [Some(RegRef::int(10)), None],
                BranchEvent {
                    taken: i % 2 == 0,
                    target: 0x10008,
                },
            ));
        }
        let alternating: Trace = entries.into_iter().collect();
        let mut entries2 = Vec::new();
        for _ in 0..500u64 {
            entries2.push(alu(0x10000, 10, [None, None]));
            entries2.push(TraceEntry::control(
                0x10004,
                OpKind::CondBranch,
                None,
                [Some(RegRef::int(10)), None],
                BranchEvent {
                    taken: true,
                    target: 0x10008,
                },
            ));
        }
        let steady: Trace = entries2.into_iter().collect();
        let r1 = simulate_620(&alternating, None, &Ppc620Config::base());
        let r2 = simulate_620(&steady, None, &Ppc620Config::base());
        assert!(r1.mispredicts > r2.mispredicts);
        assert!(r1.cycles > r2.cycles, "{} vs {}", r1.cycles, r2.cycles);
    }

    #[test]
    fn plus_config_is_faster_on_wide_code() {
        // Independent mixed ops with abundant ILP.
        let mut entries = Vec::new();
        for i in 0..3000u64 {
            entries.push(alu(
                0x10000 + 4 * (i % 32),
                (10 + i % 4) as u8,
                [None, None],
            ));
            entries.push(load(
                0x10100 + 4 * (i % 32),
                (14 + i % 4) as u8,
                0x10_0000 + (i % 64) * 8,
            ));
        }
        let trace: Trace = entries.into_iter().collect();
        let base = simulate_620(&trace, None, &Ppc620Config::base());
        let plus = simulate_620(&trace, None, &Ppc620Config::plus());
        assert!(
            plus.cycles < base.cycles,
            "620+ should outperform 620 on ILP-rich code: {} vs {}",
            plus.cycles,
            base.cycles
        );
    }

    #[test]
    fn verify_latency_histogram_populated() {
        let mut entries = Vec::new();
        for _ in 0..100 {
            entries.push(load(0x10000, 10, 0x10_0000));
        }
        let trace: Trace = entries.into_iter().collect();
        let correct = vec![PredOutcome::Correct; 100];
        let r = simulate_620(&trace, Some(&correct), &Ppc620Config::base());
        assert_eq!(r.verify_latency.total(), 100);
    }

    #[test]
    fn cache_misses_slow_execution() {
        // Loads striding far apart miss; same-line loads hit.
        let strided: Trace = (0..2000u64)
            .map(|i| load(0x10000, 10, 0x10_0000 + i * 4096))
            .collect();
        let local: Trace = (0..2000u64)
            .map(|i| load(0x10000, 10, 0x10_0000 + (i % 8) * 8))
            .collect();
        let rs = simulate_620(&strided, None, &Ppc620Config::base());
        let rl = simulate_620(&local, None, &Ppc620Config::base());
        assert!(rs.l1_misses > 1900);
        assert!(rl.l1_misses < 10);
        assert!(rs.cycles > rl.cycles * 2);
    }
}
