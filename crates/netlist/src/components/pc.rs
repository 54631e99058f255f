//! Program counter / instruction sequencer (Figure 9).

use crate::builder::NetlistBuilder;
use crate::components::Component;

/// Builds a `width`-bit program counter.
///
/// Interface:
///
/// * `target_in` + `en_target` — operand move with the branch target
///   (O register);
/// * `cond_in` + `en_cond` — trigger move with the branch condition (from
///   CMP over a bus); a captured `1` takes the branch on the next cycle;
/// * `stall` — freezes the PC (instruction fetch not ready);
/// * output `iaddr` — current instruction address.
///
/// Unconditional jumps are conditional jumps with a constant-1 condition,
/// as in MOVE code.
pub fn pc(width: usize) -> Component {
    assert!((2..=64).contains(&width), "PC width out of range");
    let mut b = NetlistBuilder::new(format!("pc{width}"));
    let target_in = b.input_word("target_in", width);
    let en_target = b.input("en_target");
    let cond_in = b.input("cond_in");
    let en_cond = b.input("en_cond");
    let stall = b.input("stall");

    // O register: branch target.
    let (tg_q, tg_ff) = b.dff_word_feedback("o_target", width);
    let tg_next = b.mux_word(en_target, &tg_q, &target_in);
    b.set_dff_word_d(&tg_ff, &tg_next);

    // T register: condition bit + trigger valid.
    let (c_q, c_ff) = b.dff_feedback("t_cond");
    let c_next = b.mux2(en_cond, c_q, cond_in);
    b.set_dff_d(c_ff, c_next);
    let v = b.dff("v", en_cond);

    // PC register with increment / branch mux.
    let (pc_q, pc_ff) = b.dff_word_feedback("pcreg", width);
    let inc = b.increment_wrap(&pc_q);
    let take = b.and2(v, c_q);
    let next_seq = b.mux_word(take, &inc, &tg_q);
    let pc_next = b.mux_word(stall, &next_seq, &pc_q);
    b.set_dff_word_d(&pc_ff, &pc_next);

    b.output_word("iaddr", &pc_q);

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

    #[test]
    fn increments_by_default() {
        let c = pc(8);
        let mut sim = OwnedSeqSim::new(c.netlist);
        sim.step_words(&[]); // pc: 0 -> 1
        sim.step_words(&[]); // pc: 1 -> 2
                             // Observe during a stalled cycle (PC holds while we look).
        sim.step_words(&[("stall", 1)]);
        assert_eq!(sim.output_words()["iaddr"], 2);
    }

    #[test]
    fn taken_branch_loads_target() {
        let c = pc(8);
        let mut sim = OwnedSeqSim::new(c.netlist);
        sim.step_words(&[("target_in", 0x20), ("en_target", 1)]);
        sim.step_words(&[("cond_in", 1), ("en_cond", 1)]);
        sim.step_words(&[]); // branch taken at this edge
        sim.step_words(&[("stall", 1)]);
        assert_eq!(sim.output_words()["iaddr"], 0x20);
    }

    #[test]
    fn untaken_branch_continues() {
        let c = pc(8);
        let mut sim = OwnedSeqSim::new(c.netlist);
        sim.step_words(&[("target_in", 0x20), ("en_target", 1)]);
        sim.step_words(&[("cond_in", 0), ("en_cond", 1)]);
        sim.step_words(&[]);
        sim.step_words(&[("stall", 1)]);
        // 3 unstalled cycles elapsed: PC = 3, definitely not 0x20.
        assert_eq!(sim.output_words()["iaddr"], 3);
    }

    #[test]
    fn stall_freezes_pc() {
        let c = pc(8);
        let mut sim = OwnedSeqSim::new(c.netlist);
        sim.step_words(&[]);
        sim.step_words(&[("stall", 1)]);
        sim.step_words(&[("stall", 1)]);
        sim.step_words(&[("stall", 1)]);
        assert_eq!(sim.output_words()["iaddr"], 1);
    }
}
