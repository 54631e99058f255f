//! The dataflow IR: a straight-line (trace) program over machine words.
//!
//! Workloads are expressed as acyclic dataflow graphs — the natural input
//! of a transport scheduler. Loops are handled at the workload level by
//! trace expansion (unrolling) plus an iteration multiplier, exactly how
//! the exploration evaluates the Crypt kernel.

use std::fmt;

/// Identifier of an IR value (the result of one node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(pub(crate) u32);

impl ValueId {
    /// Dense index of the defining node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// IR operations. Word semantics are defined by [`Dfg::width`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Live-in value (preloaded in a register file).
    Input,
    /// Instruction-encoded constant (delivered by an Immediate unit).
    Const(u64),
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a << (b mod width)`
    Shl,
    /// `a >> (b mod width)` (logical)
    Shr,
    /// `a & b`
    And,
    /// `a | b`
    Or,
    /// `a ^ b`
    Xor,
    /// `!a`
    Not,
    /// `a * b` (low half)
    Mul,
    /// `a == b` (1/0)
    Eq,
    /// `a != b`
    Ne,
    /// `a < b` unsigned
    Ltu,
    /// `a ≥ b` unsigned
    Geu,
    /// `mem[a]`
    Load,
    /// `mem[a] = b` (produces no value consumers may use)
    Store,
}

/// Functional-unit class an operation executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// ALU-class operation.
    Alu,
    /// Multiplier.
    Mul,
    /// Comparator.
    Cmp,
    /// Load/store unit.
    LdSt,
    /// Immediate unit (constants).
    Imm,
}

impl Op {
    /// The FU class executing this op; `None` for live-ins.
    pub fn fu_class(self) -> Option<FuClass> {
        match self {
            Op::Input => None,
            Op::Const(_) => Some(FuClass::Imm),
            Op::Add | Op::Sub | Op::Shl | Op::Shr | Op::And | Op::Or | Op::Xor | Op::Not => {
                Some(FuClass::Alu)
            }
            Op::Mul => Some(FuClass::Mul),
            Op::Eq | Op::Ne | Op::Ltu | Op::Geu => Some(FuClass::Cmp),
            Op::Load | Op::Store => Some(FuClass::LdSt),
        }
    }

    /// Number of data arguments.
    pub fn arity(self) -> usize {
        match self {
            Op::Input | Op::Const(_) => 0,
            Op::Not | Op::Load => 1,
            _ => 2,
        }
    }

    /// Does the op define a value consumers can read?
    pub fn has_result(self) -> bool {
        !matches!(self, Op::Store)
    }
}

/// One IR node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Operation.
    pub op: Op,
    /// Argument values (length = `op.arity()`).
    pub args: Vec<ValueId>,
}

/// A dataflow graph over `width`-bit words.
#[derive(Debug, Clone, Default)]
pub struct Dfg {
    width: u32,
    nodes: Vec<Node>,
    outputs: Vec<ValueId>,
    n_inputs: usize,
}

impl Dfg {
    /// Creates an empty graph over `width`-bit words (2–64).
    ///
    /// # Panics
    ///
    /// Panics if `width` is out of range.
    pub fn new(width: u32) -> Self {
        assert!((2..=64).contains(&width), "width out of range");
        Dfg {
            width,
            nodes: Vec::new(),
            outputs: Vec::new(),
            n_inputs: 0,
        }
    }

    /// Word width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Word mask.
    pub fn mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Declares a live-in value.
    pub fn input(&mut self) -> ValueId {
        self.n_inputs += 1;
        self.push(Op::Input, &[])
    }

    /// Adds a constant.
    pub fn constant(&mut self, value: u64) -> ValueId {
        self.push(Op::Const(value & self.mask()), &[])
    }

    /// Adds an operation node.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or forward references.
    pub fn op(&mut self, op: Op, args: &[ValueId]) -> ValueId {
        assert_eq!(op.arity(), args.len(), "{op:?} arity mismatch");
        assert!(!matches!(op, Op::Input), "use Dfg::input for live-ins");
        self.push(op, args)
    }

    fn push(&mut self, op: Op, args: &[ValueId]) -> ValueId {
        for a in args {
            assert!(a.index() < self.nodes.len(), "forward reference {a}");
        }
        let id = ValueId(self.nodes.len() as u32);
        self.nodes.push(Node {
            op,
            args: args.to_vec(),
        });
        id
    }

    /// Marks a value as a live-out.
    pub fn mark_output(&mut self, v: ValueId) {
        assert!(v.index() < self.nodes.len(), "unknown value {v}");
        assert!(
            self.nodes[v.index()].op.has_result(),
            "stores have no value"
        );
        self.outputs.push(v);
    }

    /// All nodes in definition order (already topological).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Live-out values.
    pub fn outputs(&self) -> &[ValueId] {
        &self.outputs
    }

    /// Number of live-ins.
    pub fn input_count(&self) -> usize {
        self.n_inputs
    }

    /// Number of nodes that execute on some FU (excludes live-ins).
    pub fn operation_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.op.fu_class().is_some())
            .count()
    }

    /// Longest path (in nodes) from each node to any sink — the classic
    /// list-scheduling priority. A producer's priority exceeds each of
    /// its consumers' by at least one.
    pub fn priorities(&self) -> Vec<u32> {
        let mut prio = vec![0u32; self.nodes.len()];
        // Consumers follow their producers, so walking backwards settles
        // a node's priority before it is passed on to its arguments.
        for (i, node) in self.nodes.iter().enumerate().rev() {
            let above = prio[i] + 1;
            for a in &node.args {
                prio[a.index()] = prio[a.index()].max(above);
            }
        }
        prio
    }

    /// Interprets the graph: the golden model for workload verification.
    ///
    /// `inputs` supplies live-ins in declaration order; `mem` is the data
    /// memory for `Load`/`Store` (addresses taken modulo its length).
    ///
    /// Returns the values of [`Self::outputs`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than [`Self::input_count`] or `mem`
    /// is empty while the graph contains memory operations.
    pub fn eval(&self, inputs: &[u64], mem: &mut [u64]) -> Vec<u64> {
        let mask = self.mask();
        let w = self.width as u64;
        let mut values = vec![0u64; self.nodes.len()];
        let mut next_input = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            let a = |k: usize| values[node.args[k].index()];
            values[i] = mask
                & match node.op {
                    Op::Input => {
                        let v = inputs[next_input];
                        next_input += 1;
                        v
                    }
                    Op::Const(c) => c,
                    Op::Add => a(0).wrapping_add(a(1)),
                    Op::Sub => a(0).wrapping_sub(a(1)),
                    Op::Shl => a(0) << (a(1) % w),
                    Op::Shr => (a(0) & mask) >> (a(1) % w),
                    Op::And => a(0) & a(1),
                    Op::Or => a(0) | a(1),
                    Op::Xor => a(0) ^ a(1),
                    Op::Not => !a(0),
                    Op::Mul => a(0).wrapping_mul(a(1)),
                    Op::Eq => u64::from(a(0) == a(1)),
                    Op::Ne => u64::from(a(0) != a(1)),
                    Op::Ltu => u64::from(a(0) < a(1)),
                    Op::Geu => u64::from(a(0) >= a(1)),
                    Op::Load => {
                        let idx = (a(0) as usize) % mem.len();
                        mem[idx]
                    }
                    Op::Store => {
                        let idx = (a(0) as usize) % mem.len();
                        mem[idx] = a(1) & mask;
                        0
                    }
                };
        }
        self.outputs.iter().map(|v| values[v.index()]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_straight_line() {
        let mut dfg = Dfg::new(16);
        let a = dfg.input();
        let b = dfg.input();
        let c5 = dfg.constant(5);
        let s = dfg.op(Op::Add, &[a, b]);
        let x = dfg.op(Op::Xor, &[s, c5]);
        dfg.mark_output(x);
        let mut mem = vec![0u64; 4];
        let out = dfg.eval(&[10, 20], &mut mem);
        assert_eq!(out, vec![(10 + 20) ^ 5]);
    }

    #[test]
    fn eval_memory_roundtrip() {
        let mut dfg = Dfg::new(16);
        let addr = dfg.constant(2);
        let val = dfg.constant(0xBEEF);
        dfg.op(Op::Store, &[addr, val]);
        let back = dfg.op(Op::Load, &[addr]);
        dfg.mark_output(back);
        let mut mem = vec![0u64; 4];
        assert_eq!(dfg.eval(&[], &mut mem), vec![0xBEEF]);
        assert_eq!(mem[2], 0xBEEF);
    }

    #[test]
    fn width_masks_results() {
        let mut dfg = Dfg::new(8);
        let a = dfg.input();
        let b = dfg.input();
        let s = dfg.op(Op::Add, &[a, b]);
        dfg.mark_output(s);
        assert_eq!(dfg.eval(&[200, 100], &mut [0]), vec![(200 + 100) & 0xFF]);
    }

    #[test]
    fn priorities_decrease_towards_sinks() {
        let mut dfg = Dfg::new(16);
        let a = dfg.input();
        let b = dfg.op(Op::Not, &[a]);
        let c = dfg.op(Op::Not, &[b]);
        dfg.mark_output(c);
        let p = dfg.priorities();
        assert!(p[a.index()] > p[b.index()]);
        assert!(p[b.index()] > p[c.index()]);
        // The critical path, in operations.
        assert_eq!(p.iter().max().map(|m| m + 1), Some(3));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let mut dfg = Dfg::new(16);
        let a = dfg.input();
        let _ = dfg.op(Op::Add, &[a]);
    }
}
