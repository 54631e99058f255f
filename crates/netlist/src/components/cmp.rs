//! The comparator (CMP) component of Figure 9: equality and magnitude
//! comparison, hybrid-pipelined like the ALU.

use crate::builder::NetlistBuilder;
use crate::components::Component;

/// Comparison predicates of the generated CMP unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `o == t`
    Eq = 0,
    /// `o != t`
    Ne = 1,
    /// `o < t` (unsigned)
    Ltu = 2,
    /// `o >= t` (unsigned)
    Geu = 3,
    /// `o < t` (two's complement)
    Lts = 4,
    /// `o >= t` (two's complement)
    Ges = 5,
}

impl CmpOp {
    /// All predicates in opcode order.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Ltu,
        CmpOp::Geu,
        CmpOp::Lts,
        CmpOp::Ges,
    ];

    /// The 3-bit opcode.
    pub fn code(self) -> u64 {
        self as u64
    }

    /// Reference semantics at `width` bits; returns 0 or 1.
    pub fn eval(self, o: u64, t: u64, width: u32) -> u64 {
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        let (o, t) = (o & mask, t & mask);
        let sign = 1u64 << (width - 1);
        let ltu = o < t;
        let lts = (o ^ sign) < (t ^ sign);
        u64::from(match self {
            CmpOp::Eq => o == t,
            CmpOp::Ne => o != t,
            CmpOp::Ltu => ltu,
            CmpOp::Geu => !ltu,
            CmpOp::Lts => lts,
            CmpOp::Ges => !lts,
        })
    }
}

/// Builds a `width`-bit comparator component.
///
/// Interface: inputs `o_in`, `t_in`, `en_o`, `en_t`, `op[3]`; output `r`
/// (a 1-bit result register — the condition flag moved onto a bus, e.g.
/// towards the PC unit for conditional branches).
pub fn cmp(width: usize) -> Component {
    assert!((2..=64).contains(&width), "CMP width out of range");
    let mut b = NetlistBuilder::new(format!("cmp{width}"));
    let o_in = b.input_word("o_in", width);
    let t_in = b.input_word("t_in", width);
    let en_o = b.input("en_o");
    let en_t = b.input("en_t");
    let op_in = b.input_word("op", 3);

    let (o_q, o_ff) = b.dff_word_feedback("o", width);
    let o_next = b.mux_word(en_o, &o_q, &o_in);
    b.set_dff_word_d(&o_ff, &o_next);

    let (t_q, t_ff) = b.dff_word_feedback("t", width);
    let t_next = b.mux_word(en_t, &t_q, &t_in);
    b.set_dff_word_d(&t_ff, &t_next);

    let (op_q, op_ff) = b.dff_word_feedback("opc", 3);
    let op_next = b.mux_word(en_t, &op_q, &op_in);
    b.set_dff_word_d(&op_ff, &op_next);

    let v = b.dff("v", en_t);

    // Core: a borrow-chain magnitude comparator (no discarded difference
    // bits — every gate is observable through the flag outputs, keeping
    // the fault universe free of structural redundancy). Per bit:
    //   borrow' = (!o & t) | ((o XNOR t) & borrow)
    // and the XNOR terms double as the equality reduction.
    let mut xnors = Vec::with_capacity(width);
    let mut borrow = b.const0();
    for i in 0..width {
        let no = b.not(o_q[i]);
        let lt_here = b.and2(no, t_q[i]);
        let eq_here = b.xnor2(o_q[i], t_q[i]);
        let keep = b.and2(eq_here, borrow);
        borrow = b.or2(lt_here, keep);
        xnors.push(eq_here);
    }
    let ltu = borrow; // o < t unsigned
    let eq = b.and_reduce(&xnors);
    let ne = b.not(eq);
    let geu = b.not(ltu);
    // lts = (sign_o ^ sign_t) ? sign_o : ltu
    let so = o_q[width - 1];
    let st = t_q[width - 1];
    let sdiff = b.xor2(so, st);
    let lts = b.mux2(sdiff, ltu, so);
    let ges = b.not(lts);

    // 8-way select on the opcode (slots 6,7 alias Eq).
    let z = b.const0();
    let choices: Vec<Vec<_>> = vec![
        vec![eq],
        vec![ne],
        vec![ltu],
        vec![geu],
        vec![lts],
        vec![ges],
        vec![eq],
        vec![z],
    ];
    let core = b.mux_tree(&op_q, &choices);

    let (r_q, r_ff) = b.dff_word_feedback("r", 1);
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

    fn run_op(sim: &mut OwnedSeqSim, op: CmpOp, o: u64, t: u64) -> u64 {
        sim.step_words(&[
            ("o_in", o),
            ("t_in", t),
            ("en_o", 1),
            ("en_t", 1),
            ("op", op.code()),
        ]);
        sim.step_words(&[]);
        sim.step_words(&[]);
        sim.output_words()["r"]
    }

    #[test]
    fn cmp_matches_golden_model_exhaustively_small() {
        let c = cmp(4);
        let mut sim = OwnedSeqSim::new(c.netlist);
        for op in CmpOp::ALL {
            for o in 0..16u64 {
                for t in 0..16u64 {
                    assert_eq!(
                        run_op(&mut sim, op, o, t),
                        op.eval(o, t, 4),
                        "{op:?} o={o} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn signed_wraparound_cases_16bit() {
        let c = cmp(16);
        let mut sim = OwnedSeqSim::new(c.netlist);
        // -1 < 0 signed, but 0xFFFF > 0 unsigned.
        assert_eq!(run_op(&mut sim, CmpOp::Lts, 0xFFFF, 0), 1);
        assert_eq!(run_op(&mut sim, CmpOp::Ltu, 0xFFFF, 0), 0);
        // i16::MIN < i16::MAX signed.
        assert_eq!(run_op(&mut sim, CmpOp::Lts, 0x8000, 0x7FFF), 1);
        assert_eq!(run_op(&mut sim, CmpOp::Geu, 0x8000, 0x7FFF), 1);
    }

    #[test]
    fn metadata() {
        let c = cmp(16);
        assert_eq!(c.nconn(), 3);
        // O + T + opcode + v + 1-bit R
        assert_eq!(c.infrastructure_ff_count(), 32 + 3 + 1 + 1);
    }
}
