//! The ALU of the paper's selected architecture (Figure 9): addition,
//! subtraction, shifts and basic logic (AND, OR, XOR), hybrid-pipelined
//! per Figure 3 (operand register O, trigger register T, result register R).

use crate::builder::NetlistBuilder;
use crate::components::Component;

/// Operations of the generated ALU, encoded in the 3-bit opcode register.
///
/// The opcode travels with the trigger move (it is part of the destination
/// socket address in a real MOVE machine) and is captured in an opcode
/// register alongside T.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `o + t`
    Add = 0,
    /// `o - t`
    Sub = 1,
    /// `o << t` (logical, amount = low bits of t)
    Shl = 2,
    /// `o >> t` (logical)
    Shr = 3,
    /// `o & t`
    And = 4,
    /// `o | t`
    Or = 5,
    /// `o ^ t`
    Xor = 6,
    /// `!o` (bitwise complement; t ignored)
    Not = 7,
}

impl AluOp {
    /// All operations in opcode order.
    pub const ALL: [AluOp; 8] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Not,
    ];

    /// The 3-bit opcode.
    pub fn code(self) -> u64 {
        self as u64
    }

    /// Reference (golden-model) semantics at `width` bits.
    ///
    /// Shift amounts use the low `log2(width)` bits of `t`, matching the
    /// generated barrel shifter.
    pub fn eval(self, o: u64, t: u64, width: u32) -> u64 {
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        let shamt = t & (width as u64 - 1);
        let r = match self {
            AluOp::Add => o.wrapping_add(t),
            AluOp::Sub => o.wrapping_sub(t),
            AluOp::Shl => o << shamt,
            AluOp::Shr => (o & mask) >> shamt,
            AluOp::And => o & t,
            AluOp::Or => o | t,
            AluOp::Xor => o ^ t,
            AluOp::Not => !o,
        };
        r & mask
    }
}

/// Builds a `width`-bit ALU component.
///
/// Interface (all data widths = `width`):
///
/// * inputs `o_in`, `t_in` — operand and trigger data from the input
///   sockets; `en_o`, `en_t` — load strobes; `op[3]` — opcode captured
///   with the trigger;
/// * output `r` — the result register, feeding the output socket.
///
/// The result register loads one cycle after the trigger strobe
/// (relation (3) of the paper: `Ci(R) − Ci(T) ≥ 1`).
///
/// # Panics
///
/// Panics if `width` is not a power of two in `4..=32` (the shifter needs
/// a power-of-two width).
pub fn alu(width: usize) -> Component {
    assert!(
        width.is_power_of_two() && (4..=32).contains(&width),
        "ALU width must be a power of two in 4..=32, got {width}"
    );
    let mut b = NetlistBuilder::new(format!("alu{width}"));
    let o_in = b.input_word("o_in", width);
    let t_in = b.input_word("t_in", width);
    let en_o = b.input("en_o");
    let en_t = b.input("en_t");
    let op_in = b.input_word("op", 3);

    // O / T / opcode pipeline registers with load enables.
    let (o_q, o_ff) = b.dff_word_feedback("o", width);
    let o_next = b.mux_word(en_o, &o_q, &o_in);
    b.set_dff_word_d(&o_ff, &o_next);

    let (t_q, t_ff) = b.dff_word_feedback("t", width);
    let t_next = b.mux_word(en_t, &t_q, &t_in);
    b.set_dff_word_d(&t_ff, &t_next);

    let (op_q, op_ff) = b.dff_word_feedback("opc", 3);
    let op_next = b.mux_word(en_t, &op_q, &op_in);
    b.set_dff_word_d(&op_ff, &op_next);

    // Trigger valid: R captures the core output the cycle after en_t.
    let v = b.dff("v", en_t);

    // --- combinational core ------------------------------------------------
    // Add/sub share one adder (op bit 0 selects subtract when op[2:1]=00).
    let is_arith_sub = {
        let n1 = b.not(op_q[1]);
        let n2 = b.not(op_q[2]);
        let arith = b.and2(n1, n2);
        b.and2(arith, op_q[0])
    };
    let addsub = b.add_sub_wrap(&o_q, &t_q, is_arith_sub);

    // Shifter: direction = op[0] (Shl=2 -> op0=0 means left; careful:
    // Shl code 2 = 0b010 -> op0=0; Shr code 3 = 0b011 -> op0=1).
    let left = b.not(op_q[0]);
    let shbits = width.trailing_zeros() as usize;
    let shamt: Vec<_> = t_q[..shbits].to_vec();
    let shifted = b.barrel_shift(&o_q, &shamt, left);

    let and_w = b.and_word(&o_q, &t_q);
    let or_w = b.or_word(&o_q, &t_q);
    let xor_w = b.xor_word(&o_q, &t_q);
    let not_w = b.not_word(&o_q);

    // Opcode select. op[0] is already consumed inside the adder (sub) and
    // shifter (direction), so the outer tree selects on op[2:1] only —
    // duplicating legs would create combinationally redundant (untestable)
    // select faults and distort the back-annotated pattern counts.
    let and_or = b.mux_word(op_q[0], &and_w, &or_w);
    let xor_not = b.mux_word(op_q[0], &xor_w, &not_w);
    let group = vec![addsub, shifted, and_or, xor_not];
    let core = b.mux_tree(&op_q[1..3], &group);

    // Result register (loads when v).
    let (r_q, r_ff) = b.dff_word_feedback("r", width);
    let r_next = b.mux_word(v, &r_q, &core);
    b.set_dff_word_d(&r_ff, &r_next);
    b.output_word("r", &r_q);

    let netlist = b.finish();
    Component {
        netlist,
        width,
        data_in_ports: 2,
        data_out_ports: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::OwnedSeqSim;

    /// Drives one complete operation through the pipelined ALU and returns
    /// the value of R.
    fn run_op(sim: &mut OwnedSeqSim, op: AluOp, o: u64, t: u64) -> u64 {
        // Cycle 1: load O and T together (relation (2) with equality).
        sim.step_words(&[
            ("o_in", o),
            ("t_in", t),
            ("en_o", 1),
            ("en_t", 1),
            ("op", op.code()),
        ]);
        // Cycle 2: v=1, core computes from registered O/T; R loads at edge.
        sim.step_words(&[]);
        // Cycle 3: R visible at outputs.
        sim.step_words(&[]);
        sim.output_words()["r"]
    }

    #[test]
    fn alu_matches_golden_model_exhaustively_small() {
        let c = alu(4);
        let mut sim = OwnedSeqSim::new(c.netlist);
        for op in AluOp::ALL {
            for o in 0..16u64 {
                for t in 0..16u64 {
                    let got = run_op(&mut sim, op, o, t);
                    let want = op.eval(o, t, 4);
                    assert_eq!(got, want, "{op:?} o={o} t={t}");
                }
            }
        }
    }

    #[test]
    fn alu16_selected_cases() {
        let c = alu(16);
        let mut sim = OwnedSeqSim::new(c.netlist);
        let cases = [
            (AluOp::Add, 0xFFFF, 1, 0),
            (AluOp::Sub, 5, 7, 0xFFFE),
            (AluOp::Shl, 0x00FF, 4, 0x0FF0),
            (AluOp::Shr, 0x8000, 15, 0x0001),
            (AluOp::And, 0xF0F0, 0xFF00, 0xF000),
            (AluOp::Or, 0xF0F0, 0x0F00, 0xFFF0),
            (AluOp::Xor, 0xAAAA, 0xFFFF, 0x5555),
            (AluOp::Not, 0x1234, 0, 0xEDCB),
        ];
        for (op, o, t, want) in cases {
            assert_eq!(run_op(&mut sim, op, o, t), want, "{op:?}");
        }
    }

    #[test]
    fn operand_can_arrive_before_trigger() {
        // Relation (2): C(T) - C(O) >= 0 — operand first is legal.
        let c = alu(8);
        let mut sim = OwnedSeqSim::new(c.netlist);
        sim.step_words(&[("o_in", 40), ("en_o", 1)]);
        sim.step_words(&[("t_in", 2), ("en_t", 1), ("op", AluOp::Add.code())]);
        sim.step_words(&[]);
        sim.step_words(&[]);
        assert_eq!(sim.output_words()["r"], 42);
    }

    #[test]
    fn result_holds_until_next_trigger() {
        let c = alu(8);
        let mut sim = OwnedSeqSim::new(c.netlist);
        let r1 = run_op(&mut sim, AluOp::Add, 1, 2);
        // Idle cycles do not disturb R.
        sim.step_words(&[]);
        sim.step_words(&[]);
        assert_eq!(sim.output_words()["r"], r1);
    }

    #[test]
    fn component_metadata() {
        let c = alu(16);
        assert_eq!(c.nconn(), 3);
        assert_eq!(c.width, 16);
        assert_eq!(c.storage_ff_count(), 0);
        // O + T + R + opcode + valid
        assert_eq!(c.infrastructure_ff_count(), 16 * 3 + 3 + 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_width() {
        let _ = alu(12);
    }
}
