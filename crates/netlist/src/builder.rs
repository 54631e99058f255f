//! Incremental construction of [`Netlist`]s, with word-level helpers used
//! by the datapath component generators.

use crate::gate::{Gate, GateId, GateKind};
use crate::netlist::{Dff, DffId, Net, NetDriver, NetId, Netlist};

/// A multi-bit signal: LSB first.
pub type Word = Vec<NetId>;

/// Sentinel D connection for feedback flip-flops awaiting `set_dff_d`.
const PENDING_D: NetId = NetId(u32::MAX);

/// Structural errors detected when finalising a builder.
///
/// Returned by [`NetlistBuilder::try_finish`]; [`NetlistBuilder::finish`]
/// panics with the same message instead, because the shipped component
/// generators are expected to always produce well-formed logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A flip-flop declared with [`NetlistBuilder::dff_feedback`] was never
    /// connected with [`NetlistBuilder::set_dff_d`], leaving the
    /// `PENDING_D` sentinel in place.
    UnpatchedFeedback {
        /// Name of the offending flip-flop.
        flop: String,
    },
    /// The combinational gate graph contains a cycle.
    CombinationalLoop {
        /// Name of the design being built.
        design: String,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnpatchedFeedback { flop } => {
                write!(f, "feedback flip-flop {flop} never connected")
            }
            BuildError::CombinationalLoop { design } => {
                write!(f, "combinational loop in generated netlist {design}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A snapshot of a builder's extent, taken with [`NetlistBuilder::mark`]
/// and restored with [`NetlistBuilder::rewind`].
///
/// Everything the builder creates is appended to dense vectors, so a mark
/// is just the set of vector lengths (plus the lazily-created constant
/// nets). Rewinding truncates back to those lengths, which makes
/// incremental re-elaboration of a netlist suffix deterministic: after a
/// rewind, the builder hands out exactly the same ids a fresh build would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuilderMark {
    nets: usize,
    gates: usize,
    dffs: usize,
    inputs: usize,
    outputs: usize,
    const0: Option<NetId>,
    const1: Option<NetId>,
}

/// Builder for [`Netlist`] values.
///
/// The builder hands out [`NetId`]s as logic is created; `finish` computes
/// the topological order and asserts the structural invariants.
///
/// # Examples
///
/// ```
/// use tta_netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new("add1");
/// let a = b.input_word("a", 4);
/// let bw = b.input_word("b", 4);
/// let zero = b.const0();
/// let (sum, cout) = b.ripple_add(&a, &bw, zero);
/// b.output_word("sum", &sum);
/// b.output("cout", cout);
/// let nl = b.finish();
/// assert_eq!(nl.primary_inputs().len(), 8);
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    dffs: Vec<Dff>,
    inputs: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
    const0: Option<NetId>,
    const1: Option<NetId>,
}

impl NetlistBuilder {
    /// Creates an empty builder for a design called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            nets: Vec::new(),
            gates: Vec::new(),
            dffs: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            const0: None,
            const1: None,
        }
    }

    /// Renames the design without touching its contents (the incremental
    /// elaborator reuses one builder across differently-named points).
    pub(crate) fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    fn fresh_net(&mut self, driver: NetDriver, name: Option<String>) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net { driver, name });
        id
    }

    /// Declares a named single-bit primary input.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let pos = self.inputs.len() as u32;
        let id = self.fresh_net(NetDriver::PrimaryInput(pos), Some(name.into()));
        self.inputs.push(id);
        id
    }

    /// Declares a `width`-bit primary input word named `name[i]`.
    pub fn input_word(&mut self, name: &str, width: usize) -> Word {
        (0..width)
            .map(|i| self.input(format!("{name}[{i}]")))
            .collect()
    }

    /// Marks `net` as a primary output called `name`.
    pub fn output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// Marks a whole word as primary outputs `name[i]`.
    pub fn output_word(&mut self, name: &str, word: &[NetId]) {
        for (i, n) in word.iter().enumerate() {
            self.output(format!("{name}[{i}]"), *n);
        }
    }

    /// The constant-0 net (created on first use).
    pub fn const0(&mut self) -> NetId {
        if let Some(c) = self.const0 {
            return c;
        }
        let c = self.fresh_net(NetDriver::Const0, Some("const0".into()));
        self.const0 = Some(c);
        c
    }

    /// The constant-1 net (created on first use).
    pub fn const1(&mut self) -> NetId {
        if let Some(c) = self.const1 {
            return c;
        }
        let c = self.fresh_net(NetDriver::Const1, Some("const1".into()));
        self.const1 = Some(c);
        c
    }

    /// Adds a gate of `kind` reading `inputs`, returning its output net.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` does not match the gate arity.
    pub fn gate(&mut self, kind: GateKind, inputs: &[NetId]) -> NetId {
        assert_eq!(
            kind.arity(),
            inputs.len(),
            "{kind} expects {} inputs",
            kind.arity()
        );
        let gid = GateId(self.gates.len() as u32);
        let out = self.fresh_net(NetDriver::Gate(gid), None);
        self.gates.push(Gate::new(kind, inputs.to_vec(), out));
        out
    }

    /// Two-input AND.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::And, &[a, b])
    }

    /// Two-input OR.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::Or, &[a, b])
    }

    /// Two-input NAND.
    pub fn nand2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::Nand, &[a, b])
    }

    /// Two-input XOR.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::Xor, &[a, b])
    }

    /// Two-input XNOR.
    pub fn xnor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::Xnor, &[a, b])
    }

    /// Inverter.
    pub fn not(&mut self, a: NetId) -> NetId {
        self.gate(GateKind::Not, &[a])
    }

    /// Buffer.
    pub fn buf(&mut self, a: NetId) -> NetId {
        self.gate(GateKind::Buf, &[a])
    }

    /// Two-to-one mux: returns `a` when `sel == 0`, `b` when `sel == 1`.
    pub fn mux2(&mut self, sel: NetId, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::Mux2, &[sel, a, b])
    }

    /// D flip-flop; returns the Q net.
    pub fn dff(&mut self, name: impl Into<String>, d: NetId) -> NetId {
        let fid = DffId(self.dffs.len() as u32);
        let name = name.into();
        let q = self.fresh_net(NetDriver::DffQ(fid), Some(format!("{name}.q")));
        self.dffs.push(Dff { d, q, name });
        q
    }

    /// Declares a flip-flop whose D input will be connected later with
    /// [`Self::set_dff_d`] — required for sequential feedback (counters,
    /// FSM state registers). Returns the Q net and the flip-flop id.
    pub fn dff_feedback(&mut self, name: impl Into<String>) -> (NetId, DffId) {
        let fid = DffId(self.dffs.len() as u32);
        let name = name.into();
        let q = self.fresh_net(NetDriver::DffQ(fid), Some(format!("{name}.q")));
        self.dffs.push(Dff {
            d: PENDING_D,
            q,
            name,
        });
        (q, fid)
    }

    /// Declares a word of feedback flip-flops; connect with
    /// [`Self::set_dff_word_d`].
    pub fn dff_word_feedback(&mut self, name: &str, width: usize) -> (Word, Vec<DffId>) {
        let mut q = Vec::with_capacity(width);
        let mut ids = Vec::with_capacity(width);
        for i in 0..width {
            let (qi, fi) = self.dff_feedback(format!("{name}[{i}]"));
            q.push(qi);
            ids.push(fi);
        }
        (q, ids)
    }

    /// Connects the D input of a feedback flip-flop.
    ///
    /// # Panics
    ///
    /// Panics if the flip-flop was already connected.
    pub fn set_dff_d(&mut self, id: DffId, d: NetId) {
        let ff = &mut self.dffs[id.index()];
        assert_eq!(ff.d, PENDING_D, "flip-flop {} already connected", ff.name);
        ff.d = d;
    }

    /// Connects the D inputs of a feedback flip-flop word.
    pub fn set_dff_word_d(&mut self, ids: &[DffId], d: &[NetId]) {
        assert_eq!(ids.len(), d.len(), "word width mismatch");
        for (&id, &bit) in ids.iter().zip(d) {
            self.set_dff_d(id, bit);
        }
    }

    // ---- word-level combinational helpers -------------------------------

    /// Bitwise binary op over two equal-width words.
    fn zipmap(&mut self, kind: GateKind, a: &[NetId], b: &[NetId]) -> Word {
        assert_eq!(a.len(), b.len(), "word width mismatch");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.gate(kind, &[x, y]))
            .collect()
    }

    /// Bitwise AND of two words.
    pub fn and_word(&mut self, a: &[NetId], b: &[NetId]) -> Word {
        self.zipmap(GateKind::And, a, b)
    }

    /// Bitwise OR of two words.
    pub fn or_word(&mut self, a: &[NetId], b: &[NetId]) -> Word {
        self.zipmap(GateKind::Or, a, b)
    }

    /// Bitwise XOR of two words.
    pub fn xor_word(&mut self, a: &[NetId], b: &[NetId]) -> Word {
        self.zipmap(GateKind::Xor, a, b)
    }

    /// Bitwise NOT of a word.
    pub fn not_word(&mut self, a: &[NetId]) -> Word {
        a.iter().map(|&x| self.not(x)).collect()
    }

    /// Word-level mux: per-bit [`Self::mux2`] with a shared select.
    pub fn mux_word(&mut self, sel: NetId, a: &[NetId], b: &[NetId]) -> Word {
        assert_eq!(a.len(), b.len(), "word width mismatch");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.mux2(sel, x, y))
            .collect()
    }

    /// AND-reduction of a word (balanced tree), 1 if all bits set.
    pub fn and_reduce(&mut self, word: &[NetId]) -> NetId {
        self.reduce(GateKind::And, word)
    }

    fn reduce(&mut self, kind: GateKind, word: &[NetId]) -> NetId {
        assert!(!word.is_empty(), "cannot reduce an empty word");
        let mut layer: Vec<NetId> = word.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(self.gate(kind, &[pair[0], pair[1]]));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        layer[0]
    }

    /// Full adder on three bits; returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
        let axb = self.xor2(a, b);
        let sum = self.xor2(axb, cin);
        let ab = self.and2(a, b);
        let cx = self.and2(axb, cin);
        let cout = self.or2(ab, cx);
        (sum, cout)
    }

    /// Ripple-carry adder; returns `(sum, carry_out)`.
    pub fn ripple_add(&mut self, a: &[NetId], b: &[NetId], cin: NetId) -> (Word, NetId) {
        assert_eq!(a.len(), b.len(), "word width mismatch");
        let mut carry = cin;
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let (s, c) = self.full_adder(x, y, carry);
            sum.push(s);
            carry = c;
        }
        (sum, carry)
    }

    /// Ripple-carry adder modulo `2^width`: like [`Self::ripple_add`] but
    /// the final carry is never materialised, so a consumer that wraps
    /// (an ALU datapath) does not leave dead carry gates behind.
    pub fn ripple_add_wrap(&mut self, a: &[NetId], b: &[NetId], cin: NetId) -> Word {
        assert_eq!(a.len(), b.len(), "word width mismatch");
        let mut carry = cin;
        let mut sum = Vec::with_capacity(a.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            if i + 1 == a.len() {
                // Top bit: only the sum is observable.
                let axb = self.xor2(x, y);
                sum.push(self.xor2(axb, carry));
            } else {
                let (s, c) = self.full_adder(x, y, carry);
                sum.push(s);
                carry = c;
            }
        }
        sum
    }

    /// Adder/subtractor: computes `a + b` when `sub == 0` and `a - b`
    /// (two's complement) when `sub == 1`. Returns `(result, carry_out)`.
    pub fn add_sub(&mut self, a: &[NetId], b: &[NetId], sub: NetId) -> (Word, NetId) {
        let b_adj: Word = b.iter().map(|&y| self.xor2(y, sub)).collect();
        self.ripple_add(a, &b_adj, sub)
    }

    /// Adder/subtractor modulo `2^width` — [`Self::add_sub`] without the
    /// dead final-carry gates.
    pub fn add_sub_wrap(&mut self, a: &[NetId], b: &[NetId], sub: NetId) -> Word {
        let b_adj: Word = b.iter().map(|&y| self.xor2(y, sub)).collect();
        self.ripple_add_wrap(a, &b_adj, sub)
    }

    /// Logical barrel shifter. `amount` is LSB-first; `left` selects the
    /// direction (shift left when 1); vacated bits are zero-filled.
    pub fn barrel_shift(&mut self, value: &[NetId], amount: &[NetId], left: NetId) -> Word {
        let zero = self.const0();
        // Shift-right network with optional pre/post reversal to get left
        // shifts from the same hardware, as in typical ALU shifters.
        let reversed: Word = value.iter().rev().copied().collect();
        let mut cur = self.mux_word(left, value, &reversed);
        for (stage, &abit) in amount.iter().enumerate() {
            let k = 1usize << stage;
            if k >= cur.len() {
                // Shifting by >= width zeroes everything if the bit is set.
                let zeros: Word = vec![zero; cur.len()];
                cur = self.mux_word(abit, &cur, &zeros);
                continue;
            }
            let mut shifted: Word = Vec::with_capacity(cur.len());
            for i in 0..cur.len() {
                shifted.push(if i + k < cur.len() { cur[i + k] } else { zero });
            }
            cur = self.mux_word(abit, &cur, &shifted);
        }
        let cur_rev: Word = cur.iter().rev().copied().collect();
        self.mux_word(left, &cur, &cur_rev)
    }

    /// Incrementer: `a + 1`; returns `(sum, carry_out)`.
    pub fn increment(&mut self, a: &[NetId]) -> (Word, NetId) {
        let mut carry = self.const1();
        let mut out = Vec::with_capacity(a.len());
        for &bit in a {
            out.push(self.xor2(bit, carry));
            carry = self.and2(bit, carry);
        }
        (out, carry)
    }

    /// Incrementer modulo `2^width`: [`Self::increment`] without the dead
    /// final-carry gate.
    pub fn increment_wrap(&mut self, a: &[NetId]) -> Word {
        let mut carry = self.const1();
        let mut out = Vec::with_capacity(a.len());
        for (i, &bit) in a.iter().enumerate() {
            out.push(self.xor2(bit, carry));
            if i + 1 != a.len() {
                carry = self.and2(bit, carry);
            }
        }
        out
    }

    /// One-hot decoder: `sel` (LSB first) to `2^sel.len()` one-hot lines.
    pub fn decoder(&mut self, sel: &[NetId]) -> Word {
        self.decoder_n(sel, 1usize << sel.len())
    }

    /// Truncated one-hot decoder: only the first `n` lines are built, so a
    /// consumer with fewer than `2^sel.len()` targets (a 12-register file)
    /// leaves no dead match gates behind.
    pub fn decoder_n(&mut self, sel: &[NetId], n: usize) -> Word {
        assert!(n <= 1usize << sel.len(), "decoder line count out of range");
        let sel_n: Word = self.not_word(sel);
        let mut lines = Vec::with_capacity(n);
        for code in 0..n {
            let bits: Vec<NetId> = (0..sel.len())
                .map(|b| if code >> b & 1 == 1 { sel[b] } else { sel_n[b] })
                .collect();
            lines.push(self.and_reduce(&bits));
        }
        lines
    }

    /// N-way word multiplexer via a mux tree; `sel` is LSB-first and
    /// `choices.len()` must equal `2^sel.len()`.
    pub fn mux_tree(&mut self, sel: &[NetId], choices: &[Word]) -> Word {
        assert_eq!(
            choices.len(),
            1usize << sel.len(),
            "mux tree needs 2^sel choices"
        );
        let mut layer: Vec<Word> = choices.to_vec();
        for &s in sel {
            let mut next = Vec::with_capacity(layer.len() / 2);
            for pair in layer.chunks(2) {
                next.push(self.mux_word(s, &pair[0], &pair[1]));
            }
            layer = next;
        }
        layer.pop().expect("mux tree reduces to one word")
    }

    /// Takes a snapshot of the builder's current extent.
    ///
    /// Pair with [`Self::rewind`] to discard everything created after the
    /// mark — the incremental elaborator uses this to keep the unchanged
    /// prefix of a netlist while rebuilding only the suffix.
    pub fn mark(&self) -> BuilderMark {
        BuilderMark {
            nets: self.nets.len(),
            gates: self.gates.len(),
            dffs: self.dffs.len(),
            inputs: self.inputs.len(),
            outputs: self.outputs.len(),
            const0: self.const0,
            const1: self.const1,
        }
    }

    /// Discards every net, gate, flip-flop and port created after `mark`.
    ///
    /// # Panics
    ///
    /// Panics if `mark` does not describe a prefix of this builder (i.e.
    /// it was taken from a different builder or the builder has already
    /// been rewound past it).
    pub fn rewind(&mut self, mark: BuilderMark) {
        assert!(
            mark.nets <= self.nets.len()
                && mark.gates <= self.gates.len()
                && mark.dffs <= self.dffs.len()
                && mark.inputs <= self.inputs.len()
                && mark.outputs <= self.outputs.len(),
            "rewind mark is not a prefix of this builder"
        );
        self.nets.truncate(mark.nets);
        self.gates.truncate(mark.gates);
        self.dffs.truncate(mark.dffs);
        self.inputs.truncate(mark.inputs);
        self.outputs.truncate(mark.outputs);
        self.const0 = mark.const0;
        self.const1 = mark.const1;
    }

    /// Finalises the current contents into a [`Netlist`] without consuming
    /// the builder.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if a feedback flip-flop was never connected
    /// or the combinational graph contains a cycle. The builder itself is
    /// left untouched either way, so an incremental caller can keep
    /// mutating it.
    pub fn try_finish(&self) -> Result<Netlist, BuildError> {
        for ff in &self.dffs {
            if ff.d == PENDING_D {
                return Err(BuildError::UnpatchedFeedback {
                    flop: ff.name.clone(),
                });
            }
        }
        let mut nl = Netlist {
            name: self.name.clone(),
            nets: self.nets.clone(),
            gates: self.gates.clone(),
            dffs: self.dffs.clone(),
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
            topo: Vec::new(),
        };
        if !nl.compute_topo() {
            return Err(BuildError::CombinationalLoop {
                design: nl.name().to_string(),
            });
        }
        debug_assert_eq!(nl.validate(), Ok(()));
        Ok(nl)
    }

    /// Finalises the netlist.
    ///
    /// # Panics
    ///
    /// Panics if the combinational graph contains a cycle or a feedback
    /// flip-flop was never connected — generators are expected to produce
    /// well-formed logic, so either is a programming error, not an input
    /// error. Use [`Self::try_finish`] to get a structured [`BuildError`]
    /// instead.
    pub fn finish(self) -> Netlist {
        match self.try_finish() {
            Ok(nl) => nl,
            Err(e) => panic!("{e}"),
        }
    }

    /// The flip-flops declared so far that still await [`Self::set_dff_d`].
    ///
    /// The lint engine reports these as `UnpatchedFeedback` diagnostics
    /// when asked to inspect a builder mid-construction.
    pub fn pending_feedback(&self) -> Vec<String> {
        self.dffs
            .iter()
            .filter(|ff| ff.d == PENDING_D)
            .map(|ff| ff.name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;

    #[test]
    fn ripple_adder_adds() {
        let mut b = NetlistBuilder::new("add4");
        let a = b.input_word("a", 4);
        let bw = b.input_word("b", 4);
        let z = b.const0();
        let (sum, cout) = b.ripple_add(&a, &bw, z);
        b.output_word("s", &sum);
        b.output("cout", cout);
        let nl = b.finish();
        for x in 0..16u64 {
            for y in 0..16u64 {
                let outs = sim::eval_words(&nl, &[("a", x), ("b", y)]);
                let s = outs["s"];
                let c = outs["cout"];
                assert_eq!(s, (x + y) & 0xF, "{x}+{y}");
                assert_eq!(c, (x + y) >> 4, "{x}+{y} carry");
            }
        }
    }

    #[test]
    fn add_sub_subtracts() {
        let mut b = NetlistBuilder::new("addsub");
        let a = b.input_word("a", 8);
        let bw = b.input_word("b", 8);
        let sub = b.input("sub");
        let (r, _) = b.add_sub(&a, &bw, sub);
        b.output_word("r", &r);
        let nl = b.finish();
        let outs = sim::eval_words(&nl, &[("a", 100), ("b", 58), ("sub", 1)]);
        assert_eq!(outs["r"], 42);
        let outs = sim::eval_words(&nl, &[("a", 100), ("b", 58), ("sub", 0)]);
        assert_eq!(outs["r"], 158);
    }

    #[test]
    fn barrel_shifter_shifts_both_ways() {
        let mut b = NetlistBuilder::new("shift8");
        let v = b.input_word("v", 8);
        let amt = b.input_word("amt", 3);
        let left = b.input("left");
        let out = b.barrel_shift(&v, &amt, left);
        b.output_word("out", &out);
        let nl = b.finish();
        for sh in 0..8u64 {
            let right = sim::eval_words(&nl, &[("v", 0xB7), ("amt", sh), ("left", 0)]);
            assert_eq!(right["out"], 0xB7 >> sh, "right shift {sh}");
            let leftr = sim::eval_words(&nl, &[("v", 0xB7), ("amt", sh), ("left", 1)]);
            assert_eq!(leftr["out"], (0xB7 << sh) & 0xFF, "left shift {sh}");
        }
    }

    #[test]
    fn decoder_is_one_hot() {
        let mut b = NetlistBuilder::new("dec");
        let sel = b.input_word("sel", 3);
        let lines = b.decoder(&sel);
        b.output_word("line", &lines);
        let nl = b.finish();
        for s in 0..8u64 {
            let outs = sim::eval_words(&nl, &[("sel", s)]);
            assert_eq!(outs["line"], 1 << s, "sel={s}");
        }
    }

    #[test]
    fn mux_tree_selects() {
        let mut b = NetlistBuilder::new("mux4");
        let sel = b.input_word("sel", 2);
        let words: Vec<Word> = (0..4).map(|i| b.input_word(&format!("w{i}"), 4)).collect();
        let out = b.mux_tree(&sel, &words);
        b.output_word("out", &out);
        let nl = b.finish();
        for s in 0..4u64 {
            let outs = sim::eval_words(
                &nl,
                &[("sel", s), ("w0", 1), ("w1", 3), ("w2", 7), ("w3", 15)],
            );
            assert_eq!(outs["out"], [1u64, 3, 7, 15][s as usize], "sel={s}");
        }
    }

    #[test]
    fn increment_wraps() {
        let mut b = NetlistBuilder::new("inc");
        let a = b.input_word("a", 4);
        let (s, c) = b.increment(&a);
        b.output_word("s", &s);
        b.output("c", c);
        let nl = b.finish();
        let outs = sim::eval_words(&nl, &[("a", 15)]);
        assert_eq!(outs["s"], 0);
        assert_eq!(outs["c"], 1);
    }

    #[test]
    #[should_panic(expected = "word width mismatch")]
    fn mismatched_widths_panic() {
        let mut b = NetlistBuilder::new("bad");
        let a = b.input_word("a", 4);
        let c = b.input_word("b", 3);
        let _ = b.and_word(&a, &c);
    }

    #[test]
    fn unpatched_feedback_is_a_structured_error() {
        let mut b = NetlistBuilder::new("lonely");
        let (_q, _ff) = b.dff_feedback("state");
        assert_eq!(b.pending_feedback(), vec!["state".to_string()]);
        let err = b.try_finish().unwrap_err();
        assert_eq!(
            err,
            BuildError::UnpatchedFeedback {
                flop: "state".into()
            }
        );
        assert_eq!(err.to_string(), "feedback flip-flop state never connected");
    }

    #[test]
    #[should_panic(expected = "feedback flip-flop state never connected")]
    fn unpatched_feedback_still_panics_in_finish() {
        let mut b = NetlistBuilder::new("lonely");
        let (_q, _ff) = b.dff_feedback("state");
        let _ = b.finish();
    }

    #[test]
    fn try_finish_leaves_the_builder_usable() {
        let mut b = NetlistBuilder::new("keep");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let first = b.try_finish().unwrap();
        // The builder is still usable: extend it and finish again.
        let z = b.not(y);
        b.output("z", z);
        let second = b.try_finish().unwrap();
        assert_eq!(first.gate_count() + 1, second.gate_count());
        assert_eq!(second.primary_outputs().len(), 2);
    }

    #[test]
    fn rewind_restores_the_marked_prefix() {
        let mut b = NetlistBuilder::new("rw");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let mark = b.mark();
        let baseline = b.try_finish().unwrap().dump();
        // Grow past the mark (including a lazily-created constant)...
        let c1 = b.const1();
        let w = b.and2(y, c1);
        b.output("w", w);
        let _ = b.input("extra");
        assert_ne!(b.try_finish().unwrap().dump(), baseline);
        // ...then rewind: the builder is byte-identical to the snapshot.
        b.rewind(mark);
        assert_eq!(b.try_finish().unwrap().dump(), baseline);
        // And ids handed out after the rewind match a fresh build.
        let c1_again = b.const1();
        assert_eq!(c1, c1_again);
    }
}
