//! 64-way bit-parallel logic simulation.
//!
//! Every net carries a `u64`, i.e. 64 independent patterns evaluated at
//! once — the standard trick that makes fault simulation of the paper's
//! datapath components cheap enough to back-annotate a whole design space.

use std::collections::HashMap;

use crate::netlist::{NetDriver, Netlist};

/// Evaluates the combinational logic of `nl`.
///
/// `pi` holds one 64-pattern word per primary input (in PI order) and
/// `state` one word per flip-flop (Q values, in flip-flop order).
/// Returns a value word for every net. Flip-flop state is passed in
/// explicitly, which lets ATPG treat flip-flop outputs as pseudo primary
/// inputs (the full-scan view used throughout the paper).
///
/// # Panics
///
/// Panics if `pi` or `state` have the wrong length.
pub fn eval(nl: &Netlist, pi: &[u64], state: &[u64]) -> Vec<u64> {
    assert_eq!(pi.len(), nl.primary_inputs().len(), "PI width mismatch");
    assert_eq!(state.len(), nl.dff_count(), "state width mismatch");
    let mut values = vec![0u64; nl.net_count()];
    for (i, net) in nl.nets().iter().enumerate() {
        match net.driver() {
            NetDriver::PrimaryInput(k) => values[i] = pi[k as usize],
            NetDriver::DffQ(ff) => values[i] = state[ff.index()],
            NetDriver::Const0 => values[i] = 0,
            NetDriver::Const1 => values[i] = u64::MAX,
            NetDriver::Gate(_) | NetDriver::Floating => {}
        }
    }
    let mut ins = [0u64; 3];
    for &gid in nl.topo_order() {
        let g = nl.gate(gid);
        for (k, inp) in g.inputs().iter().enumerate() {
            ins[k] = values[inp.index()];
        }
        values[g.output().index()] = g.kind().eval(&ins[..g.inputs().len()]);
    }
    values
}

/// Next-state word for every flip-flop given a completed [`eval`].
pub fn next_state(nl: &Netlist, values: &[u64]) -> Vec<u64> {
    nl.dffs().iter().map(|ff| values[ff.d().index()]).collect()
}

/// Convenience evaluation with named input words and numeric values.
///
/// Input names may refer to single-bit inputs (`"sub"`) or words
/// declared via [`crate::NetlistBuilder::input_word`] (`"a"` expands to
/// `a[0]`, `a[1]`, …). Unmentioned inputs are zero, flip-flop state is
/// zero, and the returned map aggregates outputs the same way.
///
/// Only pattern 0 (bit 0 of each word) is driven, making this ideal for
/// functional unit tests.
///
/// # Examples
///
/// ```
/// use tta_netlist::{sim, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("xor");
/// let a = b.input("a");
/// let c = b.input("b");
/// let y = b.xor2(a, c);
/// b.output("y", y);
/// let nl = b.finish();
/// let outs = sim::eval_words(&nl, &[("a", 1), ("b", 0)]);
/// assert_eq!(outs["y"], 1);
/// ```
pub fn eval_words(nl: &Netlist, inputs: &[(&str, u64)]) -> HashMap<String, u64> {
    let pi = pack_word_inputs(nl, inputs);
    let values = eval(nl, &pi, &vec![0; nl.dff_count()]);
    collect_outputs(nl, &values)
}

/// Packs named word inputs into a PI vector (pattern 0 only).
///
/// # Panics
///
/// Panics if a name matches no primary input.
pub fn pack_word_inputs(nl: &Netlist, inputs: &[(&str, u64)]) -> Vec<u64> {
    let mut pi = vec![0u64; nl.primary_inputs().len()];
    let named = nl.named_nets();
    for (name, value) in inputs {
        if let Some(net) = named.get(*name) {
            pi[pi_position(nl, *net)] = value & 1;
            continue;
        }
        let mut bit = 0;
        loop {
            let Some(net) = named.get(&format!("{name}[{bit}]")) else {
                assert!(bit > 0, "no input named {name}");
                break;
            };
            pi[pi_position(nl, *net)] = (value >> bit) & 1;
            bit += 1;
        }
    }
    pi
}

fn pi_position(nl: &Netlist, net: crate::NetId) -> usize {
    match nl.net(net).driver() {
        NetDriver::PrimaryInput(k) => k as usize,
        other => panic!("net {net} is not a primary input (driver {other:?})"),
    }
}

/// Aggregates `name[i]` outputs back into numeric words (bit 0 of each
/// pattern word).
pub fn collect_outputs(nl: &Netlist, values: &[u64]) -> HashMap<String, u64> {
    let mut out: HashMap<String, u64> = HashMap::new();
    for (name, net) in nl.primary_outputs() {
        let bit = values[net.index()] & 1;
        if let Some(idx) = parse_indexed(name) {
            let entry = out.entry(idx.0.to_string()).or_insert(0);
            *entry |= bit << idx.1;
        } else {
            out.insert(name.clone(), bit);
        }
    }
    out
}

fn parse_indexed(name: &str) -> Option<(&str, u32)> {
    let open = name.rfind('[')?;
    let close = name.rfind(']')?;
    if close != name.len() - 1 || open + 1 >= close {
        return None;
    }
    let idx: u32 = name[open + 1..close].parse().ok()?;
    Some((&name[..open], idx))
}

/// Cycle-accurate sequential simulation: drives inputs, clocks flip-flops.
///
/// # Examples
///
/// ```
/// use tta_netlist::{NetlistBuilder, sim::OwnedSeqSim};
///
/// // 4-bit register with enable.
/// let mut b = NetlistBuilder::new("reg4");
/// let en = b.input("en");
/// let d = b.input_word("d", 4);
/// let (q, ff) = b.dff_word_feedback("r", 4);
/// let next = b.mux_word(en, &q, &d);
/// b.set_dff_word_d(&ff, &next);
/// b.output_word("q", &q);
/// let nl = b.finish();
///
/// let mut sim = OwnedSeqSim::new(nl);
/// sim.step_words(&[("en", 1), ("d", 9)]);
/// assert_eq!(sim.state_value(0..4), 9);
/// sim.step_words(&[("en", 0), ("d", 3)]);
/// assert_eq!(sim.state_value(0..4), 9); // hold
/// ```
#[derive(Debug)]
pub struct OwnedSeqSim {
    nl: Netlist,
    state: Vec<u64>,
    values: Vec<u64>,
}

impl OwnedSeqSim {
    /// Creates a sequential simulator that owns its netlist; flip-flops
    /// reset to zero.
    pub fn new(nl: Netlist) -> Self {
        let state = vec![0; nl.dff_count()];
        let values = vec![0; nl.net_count()];
        OwnedSeqSim { nl, state, values }
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// Applies one clock cycle with raw PI pattern words.
    pub fn step(&mut self, pi: &[u64]) {
        self.values = eval(&self.nl, pi, &self.state);
        self.state = next_state(&self.nl, &self.values);
    }

    /// Applies one cycle with named input words (pattern 0 only).
    pub fn step_words(&mut self, inputs: &[(&str, u64)]) {
        let pi = pack_word_inputs(&self.nl, inputs);
        self.step(&pi);
    }

    /// Output words observed *during* the last step (before the edge).
    pub fn output_words(&self) -> HashMap<String, u64> {
        collect_outputs(&self.nl, &self.values)
    }

    /// Current flip-flop state words (after the last edge).
    pub fn state(&self) -> &[u64] {
        &self.state
    }

    /// Numeric value of a contiguous flip-flop range (pattern 0, LSB =
    /// first flip-flop in the range).
    pub fn state_value(&self, range: std::ops::Range<usize>) -> u64 {
        range
            .clone()
            .enumerate()
            .map(|(bit, i)| (self.state[i] & 1) << bit)
            .sum()
    }

    /// Net values captured during the last step.
    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    #[test]
    fn feedback_counter_counts() {
        // 4-bit free-running counter: q <- q + 1.
        let mut b = NetlistBuilder::new("cnt4");
        let _en = b.input("en");
        let (q, ff) = b.dff_word_feedback("cnt", 4);
        let (inc, _) = b.increment(&q);
        b.set_dff_word_d(&ff, &inc);
        b.output_word("q", &q);
        let nl = b.finish();
        let mut sim = OwnedSeqSim::new(nl);
        for expect in 1..=20u64 {
            sim.step_words(&[("en", 0)]);
            assert_eq!(sim.state_value(0..4), expect & 0xF);
        }
    }

    #[test]
    fn parallel_patterns_independent() {
        let mut b = NetlistBuilder::new("inv");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let nl = b.finish();
        let values = eval(&nl, &[0xAAAA_AAAA_AAAA_AAAA], &[]);
        let ynet = nl.primary_outputs()[0].1;
        assert_eq!(values[ynet.index()], !0xAAAA_AAAA_AAAA_AAAAu64);
    }

    #[test]
    fn parse_indexed_names() {
        assert_eq!(parse_indexed("a[3]"), Some(("a", 3)));
        assert_eq!(parse_indexed("sum[15]"), Some(("sum", 15)));
        assert_eq!(parse_indexed("plain"), None);
    }

    #[test]
    fn outputs_reflect_pre_edge_values() {
        let mut b = NetlistBuilder::new("pipe");
        let d = b.input("d");
        let q = b.dff("r", d);
        b.output("q", q);
        let nl = b.finish();
        let mut sim = OwnedSeqSim::new(nl);
        sim.step_words(&[("d", 1)]);
        // During the first cycle the register still holds 0.
        assert_eq!(sim.output_words()["q"], 0);
        sim.step_words(&[("d", 0)]);
        assert_eq!(sim.output_words()["q"], 1);
    }
}
