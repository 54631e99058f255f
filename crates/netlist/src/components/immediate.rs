//! Immediate unit (Figure 9): delivers instruction-encoded constants onto
//! the move buses.

use crate::builder::NetlistBuilder;
use crate::components::Component;

/// Builds a `width`-bit immediate unit: a single register loaded from the
/// instruction word (`imm_in` + `en`) whose output feeds a bus socket.
pub fn immediate(width: usize) -> Component {
    assert!((2..=64).contains(&width), "IMM width out of range");
    let mut b = NetlistBuilder::new(format!("imm{width}"));
    let imm_in = b.input_word("imm_in", width);
    let en = b.input("en");
    let (q, ff) = b.dff_word_feedback("r", width);
    let next = b.mux_word(en, &q, &imm_in);
    b.set_dff_word_d(&ff, &next);
    b.output_word("imm_out", &q);
    let netlist = b.finish();
    Component {
        netlist,
        width,
        data_in_ports: 1,
        data_out_ports: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::OwnedSeqSim;

    #[test]
    fn loads_and_holds() {
        let c = immediate(16);
        let mut sim = OwnedSeqSim::new(c.netlist);
        sim.step_words(&[("imm_in", 0x7ABC), ("en", 1)]);
        sim.step_words(&[("imm_in", 0x1111)]); // en low: hold
        assert_eq!(sim.output_words()["imm_out"], 0x7ABC);
        sim.step_words(&[]);
        assert_eq!(sim.output_words()["imm_out"], 0x7ABC);
    }
}
