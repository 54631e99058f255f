//! Array multiplier functional unit (the MOVE FU library also contains
//! multipliers, see the paper's Figure 1 caption).

use crate::builder::NetlistBuilder;
use crate::components::Component;

/// Builds a `width`-bit array multiplier producing the low `width` bits of
/// `o * t`, hybrid-pipelined (O, T, R registers; no opcode — a MUL unit
/// implements a single operation).
pub fn mul(width: usize) -> Component {
    assert!((2..=32).contains(&width), "MUL width out of range");
    let mut b = NetlistBuilder::new(format!("mul{width}"));
    let o_in = b.input_word("o_in", width);
    let t_in = b.input_word("t_in", width);
    let en_o = b.input("en_o");
    let en_t = b.input("en_t");

    let (o_q, o_ff) = b.dff_word_feedback("o", width);
    let o_next = b.mux_word(en_o, &o_q, &o_in);
    b.set_dff_word_d(&o_ff, &o_next);

    let (t_q, t_ff) = b.dff_word_feedback("t", width);
    let t_next = b.mux_word(en_t, &t_q, &t_in);
    b.set_dff_word_d(&t_ff, &t_next);

    let v = b.dff("v", en_t);

    // Truncated array multiply: accumulate shifted partial products,
    // keeping only the low `width` columns.
    let zero = b.const0();
    let mut acc: Vec<_> = o_q.iter().map(|&bit| b.and2(bit, t_q[0])).collect();
    for row in 1..width {
        // Partial product row `row`, truncated to columns row..width.
        let cols = width - row;
        let pp: Vec<_> = o_q[..cols]
            .iter()
            .map(|&bit| b.and2(bit, t_q[row]))
            .collect();
        // acc[row..] += pp (ripple, truncated — carry out of the top is
        // discarded like the high product half).
        let upper: Vec<_> = acc[row..].to_vec();
        let sum = b.ripple_add_wrap(&upper, &pp, zero);
        acc.splice(row.., sum);
    }
    debug_assert_eq!(acc.len(), width);

    let (r_q, r_ff) = b.dff_word_feedback("r", width);
    let r_next = b.mux_word(v, &r_q, &acc);
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

    fn run_mul(sim: &mut OwnedSeqSim, o: u64, t: u64) -> u64 {
        sim.step_words(&[("o_in", o), ("t_in", t), ("en_o", 1), ("en_t", 1)]);
        sim.step_words(&[]);
        sim.step_words(&[]);
        sim.output_words()["r"]
    }

    #[test]
    fn mul_exhaustive_4bit() {
        let c = mul(4);
        let mut sim = OwnedSeqSim::new(c.netlist);
        for o in 0..16u64 {
            for t in 0..16u64 {
                assert_eq!(run_mul(&mut sim, o, t), (o * t) & 0xF, "{o}*{t}");
            }
        }
    }

    #[test]
    fn mul_16bit_cases() {
        let c = mul(16);
        let mut sim = OwnedSeqSim::new(c.netlist);
        for (o, t) in [(3, 5), (255, 255), (0xFFFF, 2), (1234, 43), (0, 999)] {
            assert_eq!(run_mul(&mut sim, o, t), (o * t) & 0xFFFF, "{o}*{t}");
        }
    }

    #[test]
    fn multiplier_is_the_big_fu() {
        // Sanity for the area model: MUL should dwarf the ALU.
        let m = mul(16);
        let a = crate::components::alu(16);
        assert!(m.area() > a.area());
    }
}
