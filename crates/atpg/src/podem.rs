//! PODEM (Path-Oriented DEcision Making) deterministic test generation.
//!
//! Classic implementation over the 5-valued D-calculus: event-driven
//! implication, objective selection (activate, then propagate via the
//! D-frontier), backtrace to an unassigned input, and chronological
//! backtracking with a configurable limit.
//!
//! Three standard accelerations keep hard faults cheap without changing
//! any Test/Untestable verdict:
//!
//! * **Incremental implication** — each fault is seeded by one full
//!   forward pass ([`Podem::imply`]); after that the net values and the
//!   D-frontier are kept across the fault's decisions. A decision or a
//!   backtrack re-evaluates only the fanout cones of the inputs whose
//!   assignment changed, through a topologically ordered queue that
//!   stops wherever a gate's output does not change. The frontier is
//!   then put back in topological order, which is the order a full pass
//!   collects it in, so the stable nearest-to-observe sort — and with it
//!   every objective, backtrace, backtrack count, X-fill draw and cube —
//!   is the same as re-implying from scratch after every decision.
//! * **X-path pruning** — when the D-frontier is alive but no path of
//!   X-valued nets connects any frontier gate to an observe point, the
//!   fault effect can never reach an output under the current partial
//!   assignment (binary nets are monotone in PODEM), so the engine
//!   backtracks immediately instead of exhausting the doomed subtree.
//!   Pruned subtrees contain no tests, so the first test found — and
//!   therefore the generated cube — is identical to the unpruned search;
//!   only faults that previously hit the backtrack limit can now resolve.
//! * **Scratch reuse** — the per-net values, frontier list, event queue
//!   and X-path visit marks live on the engine and are reused across
//!   decisions and faults; the inner loop performs no heap allocation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tta_netlist::netlist::NetDriver;
use tta_netlist::{GateId, GateKind, NetId, Netlist};

use crate::fault::{Fault, FaultSite};
use crate::v5::{V3, V5};
use crate::view::CombView;

/// Outcome of one PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test cube over the view inputs (may contain X positions).
    Test(Vec<V3>),
    /// The search space was exhausted: the fault is untestable
    /// (combinationally redundant).
    Untestable,
    /// The backtrack limit was hit before a verdict.
    Aborted,
}

/// PODEM engine bound to one netlist/view.
#[derive(Debug)]
pub struct Podem<'a> {
    nl: &'a Netlist,
    view: &'a CombView,
    /// Map net -> view input index (usize::MAX when not an input).
    input_of_net: Vec<usize>,
    /// Per-net logic depth, the controllability proxy for backtrace.
    depth: Vec<u32>,
    /// Per-net minimum distance to an observe point (usize::MAX if none).
    obs_dist: Vec<u32>,
    /// Per-net reader gates (implication events and the X-path walk).
    readers: Vec<Vec<GateId>>,
    /// Per-net observe-point flag of the view.
    is_observe: Vec<bool>,
    /// Topological position of every gate (the implication queue's key
    /// and the frontier's order).
    topo_pos: Vec<u32>,
    backtrack_limit: u32,
    // ---- implication state of the current fault ----
    values: Vec<V5>,
    /// The D-frontier, in topological order after every implication.
    frontier: Vec<GateId>,
    /// Per-gate membership flag of `frontier`.
    in_frontier: Vec<bool>,
    /// The assignment `values` currently implies.
    applied: Vec<V3>,
    /// Observe nets currently carrying D or D̄.
    observed_effects: usize,
    // ---- scratch, reused across decisions and faults ----
    queue: BinaryHeap<Reverse<u32>>,
    queued: Vec<bool>,
    xpath_mark: Vec<u64>,
    xpath_epoch: u64,
    xpath_stack: Vec<NetId>,
}

impl<'a> Podem<'a> {
    /// Creates an engine; `backtrack_limit` bounds the search per fault.
    pub fn new(nl: &'a Netlist, view: &'a CombView, backtrack_limit: u32) -> Self {
        let mut input_of_net = vec![usize::MAX; nl.net_count()];
        for (i, net) in view.inputs().iter().enumerate() {
            input_of_net[net.index()] = i;
        }
        let depth = tta_netlist::timing::logic_depth(nl);
        // Reverse BFS from observe points through gate edges.
        let mut obs_dist = vec![u32::MAX; nl.net_count()];
        let mut queue: Vec<NetId> = Vec::new();
        let mut is_observe = vec![false; nl.net_count()];
        for net in view.observes() {
            obs_dist[net.index()] = 0;
            is_observe[net.index()] = true;
            queue.push(*net);
        }
        let mut head = 0;
        while head < queue.len() {
            let net = queue[head];
            head += 1;
            let d = obs_dist[net.index()];
            if let NetDriver::Gate(gid) = nl.net(net).driver() {
                for inp in nl.gate(gid).inputs() {
                    if obs_dist[inp.index()] == u32::MAX {
                        obs_dist[inp.index()] = d + 1;
                        queue.push(*inp);
                    }
                }
            }
        }
        // Forward adjacency: the gates reading each net.
        let fanout = nl.fanout_table();
        let mut readers: Vec<Vec<GateId>> = vec![Vec::new(); nl.net_count()];
        for (ni, pins) in fanout.gate_pins.iter().enumerate() {
            for &(gid, _) in pins {
                if readers[ni].last() != Some(&gid) {
                    readers[ni].push(gid);
                }
            }
        }
        let mut topo_pos = vec![0u32; nl.gate_count()];
        for (pos, gid) in nl.topo_order().iter().enumerate() {
            topo_pos[gid.index()] = pos as u32;
        }
        Podem {
            nl,
            view,
            input_of_net,
            depth,
            obs_dist,
            readers,
            is_observe,
            topo_pos,
            backtrack_limit,
            values: vec![V5::X; nl.net_count()],
            frontier: Vec::new(),
            in_frontier: vec![false; nl.gate_count()],
            applied: Vec::new(),
            observed_effects: 0,
            queue: BinaryHeap::new(),
            queued: vec![false; nl.gate_count()],
            xpath_mark: vec![0; nl.net_count()],
            xpath_epoch: 0,
            xpath_stack: Vec::new(),
        }
    }

    /// Attempts to generate a test for `fault`.
    pub fn generate(&mut self, fault: Fault) -> PodemOutcome {
        self.generate_observed(fault, |_, _, _| {})
    }

    /// [`Podem::generate`], calling `observe(assignment, values,
    /// frontier)` after every implication: the partial input assignment,
    /// the per-net values it implies and the D-frontier in topological
    /// order. The first call follows the full [`Podem::imply`] seed;
    /// every later one follows an incremental update, so a caller can
    /// check the kept state against a fresh [`Podem::imply`] of the same
    /// assignment.
    pub fn generate_observed(
        &mut self,
        fault: Fault,
        mut observe: impl FnMut(&[V3], &[V5], &[GateId]),
    ) -> PodemOutcome {
        let mut assignment: Vec<V3> = vec![V3::X; self.view.inputs().len()];
        // Decision stack: (input index, second value tried?).
        let mut stack: Vec<(usize, bool)> = Vec::new();
        let mut backtracks = 0u32;

        self.imply(&assignment, fault);
        loop {
            observe(&assignment, &self.values, &self.frontier);
            if self.observed_effects > 0 {
                return PodemOutcome::Test(assignment);
            }
            let objective = self.objective(fault);
            let decision = objective.and_then(|(net, val)| self.backtrace(net, val));
            match decision {
                Some((input, val)) => {
                    assignment[input] = V3::from_bool(val);
                    stack.push((input, false));
                }
                None => {
                    // Conflict: chronological backtrack.
                    loop {
                        match stack.pop() {
                            Some((input, tried_both)) => {
                                if tried_both {
                                    assignment[input] = V3::X;
                                    continue;
                                }
                                backtracks += 1;
                                if backtracks > self.backtrack_limit {
                                    return PodemOutcome::Aborted;
                                }
                                assignment[input] = assignment[input].not();
                                stack.push((input, true));
                                break;
                            }
                            None => return PodemOutcome::Untestable,
                        }
                    }
                }
            }
            self.update(&assignment, fault);
        }
    }

    /// Forward 5-valued implication of the current assignment with the
    /// fault injected: one full pass over every gate. Fills (and returns
    /// a view of) the engine's per-net values and collects the
    /// D-frontier in topological order. [`Podem::generate`] seeds each
    /// fault with this pass and updates incrementally from there; it is
    /// also the reference the incremental state is tested against.
    ///
    /// Values are kept in the *classic* five-valued domain
    /// {0, 1, X, D, D̄}: a line whose good or faulty half is unknown is
    /// collapsed to X. The coarser algebra is monotone in the partial PI
    /// assignment, which is exactly what makes PODEM's conflict pruning
    /// (activation impossible / D-frontier empty / no X-path) safe and
    /// the search complete.
    pub fn imply(&mut self, assignment: &[V3], fault: Fault) -> &[V5] {
        self.values.fill(V5::X);
        for &gid in &self.frontier {
            self.in_frontier[gid.index()] = false;
        }
        self.frontier.clear();
        self.applied.clear();
        self.applied.extend_from_slice(assignment);
        // Sources.
        for (i, net) in self.nl.nets().iter().enumerate() {
            let v = match net.driver() {
                NetDriver::PrimaryInput(_) | NetDriver::DffQ(_) => {
                    let idx = self.input_of_net[i];
                    if idx == usize::MAX {
                        // Register output not exposed by this view: unknown.
                        V5::X
                    } else {
                        let g = assignment[idx];
                        V5 { good: g, faulty: g }
                    }
                }
                NetDriver::Const0 => V5::ZERO,
                NetDriver::Const1 => V5::ONE,
                NetDriver::Gate(_) | NetDriver::Floating => continue,
            };
            self.values[i] = inject(NetId::from_index(i), v, fault);
        }
        // Gates in topological order. The D-frontier (fault effect on an
        // input, output not fully determined) falls out of the same pass:
        // every input's final value is known by the time its reader is
        // evaluated, so the check here matches a post-hoc scan exactly.
        for &gid in self.nl.topo_order() {
            let (out, on_frontier) = self.eval_gate(gid, fault);
            self.values[self.nl.gate(gid).output().index()] = out;
            if on_frontier {
                self.in_frontier[gid.index()] = true;
                self.frontier.push(gid);
            }
        }
        self.observed_effects = self
            .values
            .iter()
            .zip(&self.is_observe)
            .filter(|(v, obs)| **obs && v.is_fault_effect())
            .count();
        &self.values
    }

    /// The D-frontier of the last [`Podem::imply`], in topological
    /// order (a [`Podem::generate`] run leaves it in search order).
    pub fn frontier(&self) -> &[GateId] {
        &self.frontier
    }

    /// Brings the implied state from `applied` to `assignment`: only the
    /// fanout cones of the inputs that changed are re-evaluated, in
    /// topological order, and a gate whose output keeps its value stops
    /// the event there. Each gate is evaluated at most once (its inputs
    /// are final when it is popped), so afterwards every net holds the
    /// value a full [`Podem::imply`] would give it.
    fn update(&mut self, assignment: &[V3], fault: Fault) {
        for (idx, &a) in assignment.iter().enumerate() {
            if self.applied[idx] == a {
                continue;
            }
            self.applied[idx] = a;
            let net = self.view.inputs()[idx];
            // Only the last view input mapped to a net drives it (as in
            // `imply`'s source pass).
            if self.input_of_net[net.index()] == idx {
                self.set(net, inject(net, V5 { good: a, faulty: a }, fault));
            }
        }
        let mut dropped = false;
        while let Some(Reverse(pos)) = self.queue.pop() {
            let gid = self.nl.topo_order()[pos as usize];
            self.queued[gid.index()] = false;
            let (out, on_frontier) = self.eval_gate(gid, fault);
            if on_frontier != self.in_frontier[gid.index()] {
                self.in_frontier[gid.index()] = on_frontier;
                if on_frontier {
                    self.frontier.push(gid);
                } else {
                    dropped = true;
                }
            }
            self.set(self.nl.gate(gid).output(), out);
        }
        if dropped {
            let in_frontier = &self.in_frontier;
            self.frontier.retain(|g| in_frontier[g.index()]);
        }
        // `objective` reorders the frontier by distance to an observe
        // point; restore the topological order a full pass produces.
        let topo_pos = &self.topo_pos;
        self.frontier.sort_unstable_by_key(|g| topo_pos[g.index()]);
    }

    /// Gives `net` the value `v`; when that is a change, keeps the
    /// observe-point count current and queues the net's readers.
    fn set(&mut self, net: NetId, v: V5) {
        let old = std::mem::replace(&mut self.values[net.index()], v);
        if old == v {
            return;
        }
        if self.is_observe[net.index()] {
            if old.is_fault_effect() {
                self.observed_effects -= 1;
            }
            if v.is_fault_effect() {
                self.observed_effects += 1;
            }
        }
        for &gid in &self.readers[net.index()] {
            if !self.queued[gid.index()] {
                self.queued[gid.index()] = true;
                self.queue.push(Reverse(self.topo_pos[gid.index()]));
            }
        }
    }

    /// Evaluates `gid` on the current net values with the fault
    /// injected: its output value, and whether the gate belongs to the
    /// D-frontier (a fault effect on an input, output not fully
    /// determined).
    fn eval_gate(&self, gid: GateId, fault: Fault) -> (V5, bool) {
        let gate = self.nl.gate(gid);
        let mut ins = [V5::X; 3];
        for (k, inp) in gate.inputs().iter().enumerate() {
            ins[k] = self.values[inp.index()];
        }
        // A stuck pin corrupts only this gate's view of the input.
        if let FaultSite::GatePin(fg, pin) = fault.site {
            if fg == gid {
                let orig = ins[pin as usize];
                ins[pin as usize] = canon(V5 {
                    good: orig.good,
                    faulty: V3::from_bool(fault.stuck),
                });
            }
        }
        let n_ins = gate.inputs().len();
        let out = inject(
            gate.output(),
            V5::eval_gate(gate.kind(), &ins[..n_ins]),
            fault,
        );
        let on_frontier = !(out.good.is_binary() && out.faulty.is_binary())
            && ins[..n_ins].iter().any(|v| v.is_fault_effect());
        (out, on_frontier)
    }

    /// Picks the next objective `(net, value)`, or `None` on a conflict.
    fn objective(&mut self, fault: Fault) -> Option<(NetId, V3)> {
        let fnet = fault.net(self.nl);
        let line = self.values[fnet.index()].good;
        // 1. Activation.
        if line == V3::X {
            return Some((fnet, V3::from_bool(!fault.stuck)));
        }
        if line == V3::from_bool(fault.stuck) {
            return None; // activation impossible under current assignment
        }
        // 2. Propagation: try D-frontier gates nearest-to-observe first;
        // a single blocked gate is not a conflict — only an exhausted
        // frontier (or a frontier with no X-path to an observe point) is.
        // The frontier itself was collected during `imply`.
        if self.frontier.is_empty() {
            return None;
        }
        if !self.x_path_exists() {
            return None; // effect is boxed in: every route is binary
        }
        let Podem {
            frontier,
            obs_dist,
            nl,
            ..
        } = self;
        frontier.sort_by_key(|&gid| obs_dist[nl.gate(gid).output().index()]);
        for i in 0..self.frontier.len() {
            let gid = self.frontier[i];
            if let Some(obj) = self.propagation_objective(gid) {
                return Some(obj);
            }
        }
        None
    }

    /// Is there a path of X-valued nets from any D-frontier gate output
    /// to an observe point? If not, the effect can never be observed
    /// under the current assignment: binary nets stay binary as more
    /// inputs are assigned (the 5-valued algebra is monotone), and a net
    /// can only come to carry D/D̄ later if it is X now.
    fn x_path_exists(&mut self) -> bool {
        self.xpath_epoch += 1;
        let epoch = self.xpath_epoch;
        self.xpath_stack.clear();
        for i in 0..self.frontier.len() {
            let out = self.nl.gate(self.frontier[i]).output();
            if self.values[out.index()] == V5::X && self.xpath_mark[out.index()] != epoch {
                self.xpath_mark[out.index()] = epoch;
                self.xpath_stack.push(out);
            }
        }
        while let Some(net) = self.xpath_stack.pop() {
            if self.is_observe[net.index()] {
                return true;
            }
            for k in 0..self.readers[net.index()].len() {
                let gid = self.readers[net.index()][k];
                let out = self.nl.gate(gid).output();
                if self.values[out.index()] == V5::X && self.xpath_mark[out.index()] != epoch {
                    self.xpath_mark[out.index()] = epoch;
                    self.xpath_stack.push(out);
                }
            }
        }
        false
    }

    /// Objective that pushes the fault effect through `gid`: set an
    /// X-valued side input to the gate's non-controlling value.
    fn propagation_objective(&self, gid: GateId) -> Option<(NetId, V3)> {
        let values = &self.values;
        let gate = self.nl.gate(gid);
        let kind = gate.kind();
        let side_x = |skip_effect: bool| -> Option<NetId> {
            gate.inputs()
                .iter()
                .find(|inp| {
                    let v = values[inp.index()];
                    let is_x = v.good == V3::X && v.faulty == V3::X;
                    is_x && (!skip_effect || !v.is_fault_effect())
                })
                .copied()
        };
        match kind {
            GateKind::And | GateKind::Nand => side_x(true).map(|n| (n, V3::One)),
            GateKind::Or | GateKind::Nor => side_x(true).map(|n| (n, V3::Zero)),
            GateKind::Xor | GateKind::Xnor => side_x(true).map(|n| (n, V3::Zero)),
            GateKind::Buf | GateKind::Not => None, // output follows input; no side objective
            GateKind::Mux2 => {
                let sel = values[gate.inputs()[0].index()];
                let a = gate.inputs()[1];
                let b = gate.inputs()[2];
                let sel_net = gate.inputs()[0];
                if sel.is_fault_effect() {
                    // Effect on select: data inputs must differ.
                    let va = values[a.index()];
                    let vb = values[b.index()];
                    if va.good == V3::X {
                        let target = if vb.good.is_binary() {
                            vb.good.not()
                        } else {
                            V3::One
                        };
                        return Some((a, target));
                    }
                    if vb.good == V3::X {
                        let target = if va.good.is_binary() {
                            va.good.not()
                        } else {
                            V3::One
                        };
                        return Some((b, target));
                    }
                    None
                } else if sel.good == V3::X {
                    // Select the input carrying the effect.
                    let va = values[a.index()];
                    Some((
                        sel_net,
                        if va.is_fault_effect() {
                            V3::Zero
                        } else {
                            V3::One
                        },
                    ))
                } else {
                    // Select known; effect must be on the selected leg
                    // already — nothing more to set here.
                    None
                }
            }
        }
    }

    /// Walks an objective back to an unassigned view input.
    fn backtrace(&self, mut net: NetId, mut val: V3) -> Option<(usize, bool)> {
        let values = &self.values;
        loop {
            debug_assert!(val.is_binary());
            let idx = self.input_of_net[net.index()];
            if idx != usize::MAX {
                if values[net.index()].good != V3::X {
                    return None; // already assigned: conflict in objective
                }
                return Some((idx, val == V3::One));
            }
            let gid = match self.nl.net(net).driver() {
                NetDriver::Gate(g) => g,
                // Constants or unexposed registers cannot be set.
                _ => return None,
            };
            let gate = self.nl.gate(gid);
            let kind = gate.kind();
            let mut x_buf = [NetId::from_index(0); 3];
            let mut n_x = 0usize;
            for &inp in gate.inputs() {
                if values[inp.index()].good == V3::X {
                    x_buf[n_x] = inp;
                    n_x += 1;
                }
            }
            let x_inputs = &x_buf[..n_x];
            if x_inputs.is_empty() {
                return None;
            }
            // Choose the easiest (And=all-1 → hardest; any-0 → easiest):
            // depth is the controllability proxy.
            let easiest = *x_inputs
                .iter()
                .min_by_key(|n| self.depth[n.index()])
                .expect("non-empty");
            let hardest = *x_inputs
                .iter()
                .max_by_key(|n| self.depth[n.index()])
                .expect("non-empty");
            let (next, next_val) = match kind {
                GateKind::Buf => (x_inputs[0], val),
                GateKind::Not => (x_inputs[0], val.not()),
                GateKind::And => match val {
                    V3::One => (hardest, V3::One),
                    _ => (easiest, V3::Zero),
                },
                GateKind::Nand => match val {
                    V3::Zero => (hardest, V3::One),
                    _ => (easiest, V3::Zero),
                },
                GateKind::Or => match val {
                    V3::Zero => (hardest, V3::Zero),
                    _ => (easiest, V3::One),
                },
                GateKind::Nor => match val {
                    V3::One => (hardest, V3::Zero),
                    _ => (easiest, V3::One),
                },
                GateKind::Xor | GateKind::Xnor => {
                    let a = gate.inputs()[0];
                    let b = gate.inputs()[1];
                    let (known, unknown) = if values[a.index()].good == V3::X {
                        (values[b.index()].good, a)
                    } else {
                        (values[a.index()].good, b)
                    };
                    let target = if kind == GateKind::Xor {
                        val
                    } else {
                        val.not()
                    };
                    let v = if known.is_binary() {
                        target.xor(known)
                    } else {
                        target // both X: pick one side arbitrarily
                    };
                    (unknown, if v.is_binary() { v } else { V3::Zero })
                }
                GateKind::Mux2 => {
                    // Descend only through X lines: the select may carry a
                    // fault effect (D/D̄ — binary in the good half, but
                    // not a settable line), in which case any X data leg
                    // is still a valid decision point.
                    let sel_net = gate.inputs()[0];
                    if values[sel_net.index()].good == V3::X {
                        (sel_net, V3::Zero)
                    } else {
                        let leg = match values[sel_net.index()].good {
                            V3::Zero => gate.inputs()[1],
                            _ => gate.inputs()[2],
                        };
                        if values[leg.index()].good == V3::X {
                            (leg, val)
                        } else {
                            (x_inputs[0], val)
                        }
                    }
                }
            };
            if values[next.index()].good != V3::X {
                return None;
            }
            net = next;
            val = next_val;
        }
    }
}

/// Applies a stem fault to a freshly computed net value, collapsing
/// half-known values to X (classic 5-valued domain).
fn inject(net: NetId, v: V5, fault: Fault) -> V5 {
    let v = match fault.site {
        FaultSite::Net(fnet) if fnet == net => V5 {
            good: v.good,
            faulty: V3::from_bool(fault.stuck),
        },
        _ => v,
    };
    canon(v)
}

/// Collapses a value with any unknown half to full X, staying in the
/// classic {0, 1, X, D, D̄} domain.
fn canon(v: V5) -> V5 {
    if v.good.is_binary() && v.faulty.is_binary() {
        v
    } else {
        V5::X
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use crate::faultsim::FaultSimulator;
    use crate::pattern::{Pattern, PatternBatch};
    use tta_netlist::NetlistBuilder;

    fn check_podem_pattern(nl: Netlist, fault: Fault) {
        let view = CombView::full_scan(&nl);
        let mut podem = Podem::new(&nl, &view, 10_000);
        let outcome = podem.generate(fault);
        let PodemOutcome::Test(cube) = outcome else {
            panic!("expected a test for {fault}, got {outcome:?}");
        };
        // X-fill with zeros and confirm via fault simulation.
        let bits: Vec<bool> = cube.iter().map(|v| *v == V3::One).collect();
        drop(podem);
        let mut fs = FaultSimulator::new(nl);
        let p = Pattern::new(bits);
        let batch = PatternBatch::pack(fs.view(), &[&p]);
        let mut good = fs.good_values(&batch);
        assert_eq!(fs.detect_mask(&mut good, fault), 1, "{fault}");
    }

    #[test]
    fn finds_test_for_and_output_sa0() {
        let mut b = NetlistBuilder::new("and");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let nl = b.finish();
        let ynet = nl.primary_outputs()[0].1;
        check_podem_pattern(nl, Fault::sa0(ynet));
    }

    #[test]
    fn finds_test_through_reconvergence() {
        // y = (a&b) ^ (a|c): reconvergent fanout on a.
        let mut b = NetlistBuilder::new("reconv");
        let a = b.input("a");
        let x = b.input("b");
        let c = b.input("c");
        let g1 = b.and2(a, x);
        let g2 = b.or2(a, c);
        let y = b.xor2(g1, g2);
        b.output("y", y);
        let nl = b.finish();
        let g1out = nl.gates()[0].output();
        check_podem_pattern(nl, Fault::sa1(g1out));
    }

    #[test]
    fn proves_redundant_fault_untestable() {
        // y = a | (a & b): the AND output sa0 is undetectable (absorption).
        let mut b = NetlistBuilder::new("redundant");
        let a = b.input("a");
        let c = b.input("b");
        let g1 = b.and2(a, c);
        let y = b.or2(a, g1);
        b.output("y", y);
        let nl = b.finish();
        let g1out = nl.gates()[0].output();
        let view = CombView::full_scan(&nl);
        let mut podem = Podem::new(&nl, &view, 10_000);
        assert_eq!(podem.generate(Fault::sa0(g1out)), PodemOutcome::Untestable);
    }

    #[test]
    fn finds_test_behind_register() {
        let mut b = NetlistBuilder::new("seq");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and2(a, c);
        let q = b.dff("r", x);
        let y = b.not(q);
        b.output("y", y);
        let nl = b.finish();
        let xnet = nl.gates()[0].output();
        check_podem_pattern(nl, Fault::sa1(xnet));
    }

    #[test]
    fn finds_test_through_mux() {
        let mut b = NetlistBuilder::new("mux");
        let s = b.input("s");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.mux2(s, a, c);
        b.output("y", y);
        let nl = b.finish();
        let anet = nl.find_net("a").unwrap();
        check_podem_pattern(nl, Fault::sa0(anet));
    }

    #[test]
    fn pin_fault_on_branch_gets_test() {
        let mut b = NetlistBuilder::new("branch");
        let a = b.input("a");
        let x = b.input("b");
        let c = b.input("c");
        let g1 = b.and2(a, x);
        let g2 = b.or2(a, c);
        b.output("y0", g1);
        b.output("y1", g2);
        let nl = b.finish();
        let or_gate = nl
            .gates()
            .iter()
            .position(|g| g.kind() == GateKind::Or)
            .unwrap();
        let fault = Fault {
            site: FaultSite::GatePin(GateId::from_index(or_gate), 0),
            stuck: true,
        };
        check_podem_pattern(nl, fault);
    }

    #[test]
    fn scratch_reuse_is_stateless_across_faults() {
        // Running a second fault on the same engine must give the same
        // outcome as a fresh engine (scratch fully re-initialised).
        let mut b = NetlistBuilder::new("pair");
        let a = b.input("a");
        let c = b.input("b");
        let g1 = b.and2(a, c);
        let y = b.or2(a, g1);
        b.output("y", y);
        let nl = b.finish();
        let g1out = nl.gates()[0].output();
        let view = CombView::full_scan(&nl);
        let mut shared = Podem::new(&nl, &view, 10_000);
        let first = shared.generate(Fault::sa1(g1out));
        let second = shared.generate(Fault::sa0(g1out));
        let mut fresh = Podem::new(&nl, &view, 10_000);
        assert_eq!(fresh.generate(Fault::sa1(g1out)), first);
        let mut fresh = Podem::new(&nl, &view, 10_000);
        assert_eq!(fresh.generate(Fault::sa0(g1out)), second);
        assert_eq!(second, PodemOutcome::Untestable);
    }
}
