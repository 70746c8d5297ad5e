//! Dataflow-limit model: an idealized machine with infinite fetch,
//! rename, issue and memory bandwidth, perfect branch prediction and a
//! perfect cache — only *true data dependencies* and result latencies
//! constrain execution.
//!
//! Value-prediction studies compare against this bound because value
//! prediction is the only technique that can exceed it: a correct
//! prediction *breaks* a true dependence edge. The paper's introduction
//! frames LVP exactly this way ("exceeding the classical dataflow limit").
//!
//! The model computes, for each instruction, the earliest cycle its
//! operands exist, takes the maximum over a run, and reports the critical
//! path length. With an LVP annotation, usable predictions make a load's
//! result available at cycle 0 of its own readiness (its consumers no
//! longer wait for the load).

use crate::latency::LatencyTable;
use lvp_trace::{OpKind, PredOutcome, Trace};
use std::collections::HashMap;

/// Result of a dataflow-limit analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataflowResult {
    /// Length of the critical dependence path, in cycles.
    pub critical_path: u64,
    /// Retired instructions.
    pub instructions: u64,
}

impl DataflowResult {
    /// The dataflow-limit IPC (instructions / critical path).
    pub fn ipc(&self) -> f64 {
        if self.critical_path == 0 {
            0.0
        } else {
            self.instructions as f64 / self.critical_path as f64
        }
    }
}

/// Computes the dataflow limit of a trace under `latency`, with optional
/// LVP annotations (usable predictions collapse the load's outgoing
/// dependence edges — including its store-to-load memory dependence;
/// incorrect ones add the paper's one-cycle reissue).
///
/// True dependencies counted: register def-use edges and store-to-load
/// memory edges (tracked at byte granularity). Correctly-predicted loads
/// break both — that is the paper's "collapse true dependencies" claim
/// in its purest form.
///
/// # Panics
///
/// Panics if `outcomes` is `Some` but shorter than the trace's load count.
///
/// # Examples
///
/// ```
/// use lvp_trace::{OpKind, Trace, TraceEntry};
/// use lvp_uarch::{dataflow_limit, LatencyTable};
///
/// let trace: Trace = (0..10)
///     .map(|i| TraceEntry::simple(0x1000 + 4 * i, OpKind::IntSimple))
///     .collect();
/// let r = dataflow_limit(&trace, None, &LatencyTable::ppc620());
/// // Independent single-cycle ops: critical path of 1 cycle.
/// assert_eq!(r.critical_path, 1);
/// ```
pub fn dataflow_limit(
    trace: &Trace,
    outcomes: Option<&[PredOutcome]>,
    latency: &LatencyTable,
) -> DataflowResult {
    // Cycle at which each architectural register's value exists.
    let mut ready = [0u64; 64];
    // Cycle at which each memory byte's value exists (store-to-load edges).
    let mut mem_ready: HashMap<u64, u64> = HashMap::new();
    let mut load_index = 0usize;
    let mut critical: u64 = 0;
    let mut n: u64 = 0;

    for e in trace.iter() {
        n += 1;
        let mut start: u64 = 0;
        for src in e.sources() {
            start = start.max(ready[src.flat_index()]);
        }
        let pred = if e.kind() == OpKind::Load {
            outcomes.map(|o| {
                let p = o[load_index];
                load_index += 1;
                p
            })
        } else {
            None
        };
        // Store-to-load memory dependence: the load cannot produce before
        // the youngest store it reads from — unless its value is usably
        // predicted, which breaks the memory edge too.
        if e.kind() == OpKind::Load && !pred.is_some_and(|p| p.usable()) {
            if let Some(m) = e.mem() {
                for b in m.addr..m.addr + m.width as u64 {
                    if let Some(&t) = mem_ready.get(&b) {
                        start = start.max(t);
                    }
                }
            }
        }
        let mut finish = start + latency.result_latency(e.kind());
        match pred {
            // The value was forwarded at dispatch: consumers no longer
            // wait on the load at all.
            Some(PredOutcome::Correct) | Some(PredOutcome::Constant) => finish = start,
            // One extra cycle to reissue consumers (Section 4.1).
            Some(PredOutcome::Incorrect) => finish = start + latency.load + 1,
            _ => {}
        }
        if e.kind() == OpKind::Store {
            if let Some(m) = e.mem() {
                for b in m.addr..m.addr + m.width as u64 {
                    mem_ready.insert(b, finish);
                }
            }
        }
        if let Some(d) = e.dst() {
            ready[d.flat_index()] = finish;
        }
        critical = critical.max(finish);
    }
    DataflowResult {
        critical_path: critical.max(1),
        instructions: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_trace::{MemAccess, RegRef, TraceEntry};

    fn load(dst: u8, src: u8) -> TraceEntry {
        TraceEntry::mem_op(
            0x1000,
            OpKind::Load,
            Some(RegRef::int(dst)),
            [Some(RegRef::int(src)), None],
            MemAccess {
                addr: 0x10_0000,
                width: 8,
                value: 0,
                fp: false,
            },
        )
    }

    fn alu(dst: u8, src: u8) -> TraceEntry {
        TraceEntry::op(
            0x1004,
            OpKind::IntSimple,
            Some(RegRef::int(dst)),
            [Some(RegRef::int(src)), None],
        )
    }

    #[test]
    fn serial_chain_length() {
        // 10 dependent ALU ops: critical path exactly 10.
        let trace: Trace = (0..10).map(|_| alu(5, 5)).collect();
        let r = dataflow_limit(&trace, None, &LatencyTable::ppc620());
        assert_eq!(r.critical_path, 10);
        assert!((r.ipc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pointer_chase_counts_load_latency() {
        // load r5 <- [r5] chains: 2 cycles per link.
        let trace: Trace = (0..10).map(|_| load(5, 5)).collect();
        let r = dataflow_limit(&trace, None, &LatencyTable::ppc620());
        assert_eq!(r.critical_path, 20);
    }

    #[test]
    fn perfect_prediction_collapses_the_chain() {
        let trace: Trace = (0..10).map(|_| load(5, 5)).collect();
        let outcomes = vec![PredOutcome::Correct; 10];
        let r = dataflow_limit(&trace, Some(&outcomes), &LatencyTable::ppc620());
        // Each load's result exists the moment its address does.
        assert_eq!(r.critical_path, 1);
    }

    #[test]
    fn incorrect_prediction_costs_one_extra_cycle() {
        let trace: Trace = (0..10).map(|_| load(5, 5)).collect();
        let wrong = vec![PredOutcome::Incorrect; 10];
        let base = dataflow_limit(&trace, None, &LatencyTable::ppc620());
        let r = dataflow_limit(&trace, Some(&wrong), &LatencyTable::ppc620());
        assert_eq!(r.critical_path, base.critical_path + 10);
    }

    #[test]
    fn store_to_load_edges_count() {
        // store r5 -> [A]; load r6 <- [A]; alu r5 <- r6 ... chained
        // through memory: each round costs store(2) + load(2) + alu(1).
        let mut entries = Vec::new();
        for _ in 0..10 {
            entries.push(TraceEntry::mem_op(
                0x1000,
                OpKind::Store,
                None,
                [Some(RegRef::int(2)), Some(RegRef::int(5))],
                MemAccess {
                    addr: 0x10_0000,
                    width: 8,
                    value: 0,
                    fp: false,
                },
            ));
            entries.push(load(6, 2));
            entries.push(alu(5, 6));
        }
        let trace: Trace = entries.into_iter().collect();
        let lat = LatencyTable::ppc620();
        let base = dataflow_limit(&trace, None, &lat);
        assert_eq!(base.critical_path, 10 * 5, "2+2+1 cycles per round");
        // Predicting the loads breaks the memory edges: only the stores'
        // own inputs and the alu chain remain.
        let correct = vec![PredOutcome::Correct; 10];
        let lvp = dataflow_limit(&trace, Some(&correct), &lat);
        assert!(
            lvp.critical_path < base.critical_path / 3,
            "value prediction must break store-to-load chains: {} vs {}",
            lvp.critical_path,
            base.critical_path
        );
    }

    #[test]
    fn independent_work_is_one_cycle() {
        let trace: Trace = (0..100).map(|i| alu((i % 30 + 1) as u8, 0)).collect();
        let r = dataflow_limit(&trace, None, &LatencyTable::ppc620());
        assert_eq!(r.critical_path, 1);
        assert!((r.ipc() - 100.0).abs() < 1e-9);
    }
}
