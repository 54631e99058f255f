//! Parallel-pattern single-fault-propagation fault simulation.
//!
//! Faults are simulated 64 patterns at a time against the fault-free
//! reference, and the work is split at *stems*: a stem is an observe
//! point or a net without exactly one gate reader. Every other net
//! feeds a single gate pin, so a fault effect travels from its site
//! along one fanout-free path to the first stem below it, and the
//! difference it makes there is found by evaluating the path's gates
//! over the good values ([`FaultSimulator::detect_mask`]). Whether a
//! difference at a stem reaches an observe point is a property of the
//! stem and the batch alone: the stem's *observability mask*, found by
//! flipping the stem in all 64 slots and propagating the change
//! event-driven, in topological order, through the cone it reaches.
//! Each stem's mask is simulated at most once per batch and kept on the
//! batch's [`GoodValues`], so every fault behind the same stem shares
//! it. The detection mask is the stem difference ANDed with that mask,
//! slot by slot exactly what re-simulating the whole faulty cone gives:
//! slots are independent, and past the stem the faulty circuit is the
//! good one with the stem flipped wherever the difference is set.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tta_netlist::netlist::Fanout;
use tta_netlist::{sim, GateId, NetId, Netlist};

use crate::fault::{Fault, FaultSite};
use crate::pattern::{Pattern, PatternBatch};
use crate::view::CombView;

/// The fault-free values of one pattern batch, plus the observability
/// masks of the stems simulated against them so far. The masks belong
/// to these values, so a batch's memo can never answer for another.
#[derive(Debug, Clone)]
pub struct GoodValues {
    values: Vec<u64>,
    active_mask: u64,
    /// Per-net observability mask of the stems simulated so far.
    stem_obs: Vec<Option<u64>>,
}

/// Fault simulator bound to one netlist + test-access view.
#[derive(Debug)]
pub struct FaultSimulator {
    nl: Netlist,
    view: CombView,
    fanout: Fanout,
    /// Per net: its only reader pin, or `None` for a stem.
    single_reader: Vec<Option<(GateId, u8)>>,
    /// Topological position of every gate (for ordered event processing).
    topo_pos: Vec<u32>,
    /// Per-net flag: is this net a view observe point?
    observed: Vec<bool>,
    // --- scratch (reused across stems) ---
    faulty: Vec<u64>,
    touched: Vec<u32>,
    touched_flag: Vec<bool>,
    queued: Vec<bool>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
}

impl FaultSimulator {
    /// Builds a simulator for `nl` under the full-scan view.
    pub fn new(nl: Netlist) -> Self {
        let view = CombView::full_scan(&nl);
        Self::with_view(nl, view)
    }

    /// Builds a simulator with an explicit view.
    pub fn with_view(nl: Netlist, view: CombView) -> Self {
        let mut topo_pos = vec![0u32; nl.gate_count()];
        for (pos, gid) in nl.topo_order().iter().enumerate() {
            topo_pos[gid.index()] = pos as u32;
        }
        let nets = nl.net_count();
        let gates = nl.gate_count();
        let mut observed = vec![false; nets];
        for net in view.observes() {
            observed[net.index()] = true;
        }
        let fanout = nl.fanout_table();
        let single_reader = fanout
            .gate_pins
            .iter()
            .zip(&observed)
            .map(|(pins, &obs)| match pins[..] {
                [reader] if !obs => Some(reader),
                _ => None,
            })
            .collect();
        FaultSimulator {
            nl,
            view,
            fanout,
            single_reader,
            topo_pos,
            observed,
            faulty: vec![0; nets],
            touched: Vec::with_capacity(64),
            touched_flag: vec![false; nets],
            queued: vec![false; gates],
            heap: BinaryHeap::new(),
        }
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// The test-access view.
    pub fn view(&self) -> &CombView {
        &self.view
    }

    /// Simulates the fault-free circuit for a packed batch: the value
    /// word of every net, with an empty stem memo.
    pub fn good_values(&self, batch: &PatternBatch) -> GoodValues {
        let (pi, state) = self.view.split_assignment(&batch.words);
        let values = sim::eval(&self.nl, pi, state);
        GoodValues {
            stem_obs: vec![None; values.len()],
            values,
            active_mask: batch.active_mask,
        }
    }

    /// Returns the mask of batch patterns that detect `fault`, given the
    /// batch's fault-free values `good` (whose stem memo it extends).
    pub fn detect_mask(&mut self, good: &mut GoodValues, fault: Fault) -> u64 {
        let values = &good.values;
        let forced = if fault.stuck { u64::MAX } else { 0 };
        // The difference the fault makes on the net it first corrupts.
        let (mut net, mut diff) = match fault.site {
            FaultSite::Net(net) => (net, values[net.index()] ^ forced),
            FaultSite::GatePin(gid, pin) => {
                let inp = self.nl.gate(gid).inputs()[pin as usize];
                self.through_gate(values, gid, pin, values[inp.index()] ^ forced)
            }
        };
        // Walk the fanout-free path to its stem: each net on it feeds one
        // pin of one gate, whose other inputs the fault cannot reach.
        loop {
            diff &= good.active_mask;
            if diff == 0 {
                return 0;
            }
            let Some((gid, pin)) = self.single_reader[net.index()] else {
                break;
            };
            (net, diff) = self.through_gate(values, gid, pin, diff);
        }
        let observable = match good.stem_obs[net.index()] {
            Some(mask) => mask,
            None => {
                let mask = self.stem_observability(&good.values, net);
                good.stem_obs[net.index()] = Some(mask);
                mask
            }
        };
        diff & observable
    }

    /// Gate `gid`'s output net, and the difference at it when input
    /// `pin` differs from its good value by `diff` and every other input
    /// holds its good value.
    fn through_gate(&self, values: &[u64], gid: GateId, pin: u8, diff: u64) -> (NetId, u64) {
        let gate = self.nl.gate(gid);
        let mut ins = [0u64; 3];
        for (k, inp) in gate.inputs().iter().enumerate() {
            ins[k] = values[inp.index()];
        }
        ins[pin as usize] ^= diff;
        let out = gate.output();
        let faulty = gate.kind().eval(&ins[..gate.inputs().len()]);
        (out, faulty ^ values[out.index()])
    }

    /// The slots in which flipping `stem` changes some observe point:
    /// the flip is propagated event-driven, in topological order, through
    /// the part of the stem's cone it actually reaches.
    fn stem_observability(&mut self, good: &[u64], stem: NetId) -> u64 {
        debug_assert!(self.touched.is_empty() && self.heap.is_empty());
        let mut observable = self.change(good, stem, !good[stem.index()]);
        while let Some(Reverse((_pos, gidx))) = self.heap.pop() {
            self.queued[gidx as usize] = false;
            let gate = self.nl.gate(GateId::from_index(gidx as usize));
            let mut ins = [0u64; 3];
            for (k, net) in gate.inputs().iter().enumerate() {
                ins[k] = self.current_value(good, *net);
            }
            let out = gate.kind().eval(&ins[..gate.inputs().len()]);
            let onet = gate.output();
            if out != self.current_value(good, onet) {
                observable |= self.change(good, onet, out);
            }
        }
        // Restore scratch for the next stem.
        for &t in &self.touched {
            self.touched_flag[t as usize] = false;
        }
        self.touched.clear();
        observable
    }

    /// Gives `net` the faulty value `value` and queues its readers;
    /// returns the difference it makes if `net` is observed.
    fn change(&mut self, good: &[u64], net: NetId, value: u64) -> u64 {
        if !self.touched_flag[net.index()] {
            self.touched.push(net.index() as u32);
            self.touched_flag[net.index()] = true;
        }
        self.faulty[net.index()] = value;
        for (gid, _pin) in &self.fanout.gate_pins[net.index()] {
            if !self.queued[gid.index()] {
                self.queued[gid.index()] = true;
                self.heap
                    .push(Reverse((self.topo_pos[gid.index()], gid.index() as u32)));
            }
        }
        if self.observed[net.index()] {
            good[net.index()] ^ value
        } else {
            0
        }
    }

    /// Value of `net` in the faulty circuit: the touched override if any,
    /// otherwise the good value.
    #[inline]
    fn current_value(&self, good: &[u64], net: NetId) -> u64 {
        if self.touched_flag[net.index()] {
            self.faulty[net.index()]
        } else {
            good[net.index()]
        }
    }

    /// Simulates `patterns` against `faults` with fault dropping.
    ///
    /// Returns `(detected_flags, useful_pattern_indices)`:
    /// `detected_flags[i]` tells whether fault `i` was detected, and the
    /// index list names every pattern that was the *first* to detect some
    /// fault (the natural compaction seed).
    pub fn run_with_dropping(
        &mut self,
        patterns: &[Pattern],
        faults: &[Fault],
    ) -> (Vec<bool>, Vec<usize>) {
        let mut detected = vec![false; faults.len()];
        let mut useful = Vec::new();
        let mut remaining: Vec<usize> = (0..faults.len()).collect();
        for (chunk_idx, chunk) in patterns.chunks(64).enumerate() {
            if remaining.is_empty() {
                break;
            }
            let refs: Vec<&Pattern> = chunk.iter().collect();
            let batch = PatternBatch::pack(&self.view, &refs);
            let mut good = self.good_values(&batch);
            let mut first_detector_hit = vec![false; chunk.len()];
            remaining.retain(|&fi| {
                let mask = self.detect_mask(&mut good, faults[fi]);
                if mask != 0 {
                    detected[fi] = true;
                    first_detector_hit[mask.trailing_zeros() as usize] = true;
                    false
                } else {
                    true
                }
            });
            for (k, hit) in first_detector_hit.iter().enumerate() {
                if *hit {
                    useful.push(chunk_idx * 64 + k);
                }
            }
        }
        (detected, useful)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_netlist::{NetId, NetlistBuilder};

    fn and_circuit() -> Netlist {
        let mut b = NetlistBuilder::new("and");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        b.finish()
    }

    #[test]
    fn sa0_on_and_output_detected_by_11() {
        let nl = and_circuit();
        let ynet = nl.primary_outputs()[0].1;
        let mut fs = FaultSimulator::new(nl);
        let p11 = Pattern::new(vec![true, true]);
        let p10 = Pattern::new(vec![true, false]);
        let batch = PatternBatch::pack(fs.view(), &[&p11, &p10]);
        let mut good = fs.good_values(&batch);
        let mask = fs.detect_mask(&mut good, Fault::sa0(ynet));
        assert_eq!(mask, 0b01, "only pattern 11 detects y/sa0");
    }

    #[test]
    fn sa1_on_input_detected_by_01() {
        let nl = and_circuit();
        let a = nl.find_net("a").unwrap();
        let mut fs = FaultSimulator::new(nl);
        // a=0, b=1: good y=0, faulty (a stuck 1) y=1.
        let p = Pattern::new(vec![false, true]);
        let batch = PatternBatch::pack(fs.view(), &[&p]);
        let mut good = fs.good_values(&batch);
        assert_eq!(fs.detect_mask(&mut good, Fault::sa1(a)), 1);
        // a=0, b=0 does not detect.
        let p0 = Pattern::new(vec![false, false]);
        let batch0 = PatternBatch::pack(fs.view(), &[&p0]);
        let mut good0 = fs.good_values(&batch0);
        assert_eq!(fs.detect_mask(&mut good0, Fault::sa1(a)), 0);
    }

    #[test]
    fn pin_fault_affects_only_one_branch() {
        // y0 = a & b ; y1 = a | c. Branch fault on the OR's `a` pin must
        // leave y0 clean.
        let mut b = NetlistBuilder::new("branch");
        let a = b.input("a");
        let x = b.input("b");
        let c = b.input("c");
        let y0 = b.and2(a, x);
        let y1 = b.or2(a, c);
        b.output("y0", y0);
        b.output("y1", y1);
        let nl = b.finish();
        let or_gate = nl
            .gates()
            .iter()
            .position(|g| g.kind() == tta_netlist::GateKind::Or)
            .unwrap();
        let mut fs = FaultSimulator::new(nl);
        let fault = Fault {
            site: FaultSite::GatePin(GateId::from_index(or_gate), 0),
            stuck: true,
        };
        // a=0,b=1,c=0: good y0=0,y1=0; faulty y1=1 (pin stuck 1), y0
        // unchanged.
        let p = Pattern::new(vec![false, true, false]);
        let batch = PatternBatch::pack(fs.view(), &[&p]);
        let mut good = fs.good_values(&batch);
        assert_eq!(fs.detect_mask(&mut good, fault), 1);
        // Stem fault on `a` sa1 flips y0 too — also detected, but through
        // a different cone; just confirm it is detected.
        let astem = fs.netlist().find_net("a").unwrap();
        let mut good = fs.good_values(&batch);
        assert_eq!(fs.detect_mask(&mut good, Fault::sa1(astem)), 1);
    }

    #[test]
    fn dropping_reports_useful_patterns() {
        let nl = and_circuit();
        let faults = vec![
            Fault::sa0(NetId::from_index(0)),
            Fault::sa1(NetId::from_index(0)),
        ];
        let mut fs = FaultSimulator::new(nl);
        let patterns = vec![
            Pattern::new(vec![false, false]), // detects nothing new
            Pattern::new(vec![true, true]),   // detects a/sa0
            Pattern::new(vec![false, true]),  // detects a/sa1
        ];
        let (det, useful) = fs.run_with_dropping(&patterns, &faults);
        assert_eq!(det, vec![true, true]);
        assert_eq!(useful, vec![1, 2]);
    }

    #[test]
    fn fault_behind_register_detected_via_pseudo_po() {
        // a -> AND(a,b) -> dff -> y. Full-scan view observes the D pin.
        let mut b = NetlistBuilder::new("seq");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and2(a, c);
        let q = b.dff("r", x);
        b.output("y", q);
        let nl = b.finish();
        let xnet = nl.gates()[0].output();
        let mut fs = FaultSimulator::new(nl);
        let p = Pattern::new(vec![true, true, false]); // a, b, r.q
        let batch = PatternBatch::pack(fs.view(), &[&p]);
        let mut good = fs.good_values(&batch);
        assert_eq!(fs.detect_mask(&mut good, Fault::sa0(xnet)), 1);
    }
}
