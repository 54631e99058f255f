//! Stage-control FSM of the hybrid-pipelined component (Figure 3).
//!
//! The stage controller enforces the transport-timing relations (2)–(5) of
//! the paper in hardware: an operation fires only when the trigger arrives
//! with (or after) its operand, results appear one cycle later, and
//! consecutive operations of the same FU retire in order.

use crate::builder::NetlistBuilder;
use crate::components::Component;

/// Builds the stage-control FSM.
///
/// Interface: inputs `o_loaded`, `t_loaded` (strobes from the input
/// sockets) and `out_ready` (output socket can accept a result); outputs
/// `fire` (operation starts), `en_r` (result register capture), `busy`
/// (an operation is in flight) and `err` (trigger arrived with no operand
/// — a scheduling-protocol violation, relation (2)).
pub fn stage_control() -> Component {
    let mut b = NetlistBuilder::new("stage_ctrl");
    let o_loaded = b.input("o_loaded");
    let t_loaded = b.input("t_loaded");
    let out_ready = b.input("out_ready");

    // o_seen: an operand is waiting (set by o_loaded, cleared on fire).
    let (o_seen_q, o_seen_ff) = b.dff_feedback("o_seen");
    let o_avail = b.or2(o_seen_q, o_loaded);
    let fire = b.and2(t_loaded, o_avail);
    let not_fire = b.not(fire);
    let o_seen_next = b.and2(o_avail, not_fire);
    b.set_dff_d(o_seen_ff, o_seen_next);

    // exec: operation computing this cycle; result captured at next edge.
    let exec = b.dff("exec", fire);
    // done: result waiting in R until the output socket takes it.
    let (done_q, done_ff) = b.dff_feedback("done");
    let taken = b.and2(done_q, out_ready);
    let not_taken = b.not(taken);
    let hold = b.and2(done_q, not_taken);
    let done_next = b.or2(exec, hold);
    b.set_dff_d(done_ff, done_next);

    // err: trigger without operand (latches).
    let (err_q, err_ff) = b.dff_feedback("err");
    let no_operand = b.not(o_avail);
    let bad = b.and2(t_loaded, no_operand);
    let err_next = b.or2(err_q, bad);
    b.set_dff_d(err_ff, err_next);

    let busy = b.or2(exec, done_q);
    b.output("fire", fire);
    b.output("en_r", exec);
    b.output("busy", busy);
    b.output("err", err_q);

    let netlist = b.finish();
    Component {
        netlist,
        width: 1,
        data_in_ports: 0,
        data_out_ports: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::OwnedSeqSim;

    #[test]
    fn fires_when_operand_and_trigger_together() {
        let c = stage_control();
        let mut sim = OwnedSeqSim::new(c.netlist);
        sim.step_words(&[("o_loaded", 1), ("t_loaded", 1)]);
        assert_eq!(sim.output_words()["fire"], 1);
        sim.step_words(&[]);
        assert_eq!(sim.output_words()["en_r"], 1, "result captured next cycle");
    }

    #[test]
    fn operand_can_wait_for_trigger() {
        let c = stage_control();
        let mut sim = OwnedSeqSim::new(c.netlist);
        sim.step_words(&[("o_loaded", 1)]);
        assert_eq!(sim.output_words()["fire"], 0);
        sim.step_words(&[]); // operand parks in o_seen
        sim.step_words(&[("t_loaded", 1)]);
        assert_eq!(sim.output_words()["fire"], 1);
        assert_eq!(sim.output_words()["err"], 0);
    }

    #[test]
    fn trigger_without_operand_flags_error() {
        let c = stage_control();
        let mut sim = OwnedSeqSim::new(c.netlist);
        sim.step_words(&[("t_loaded", 1)]);
        sim.step_words(&[]);
        assert_eq!(sim.output_words()["err"], 1, "relation (2) violated");
    }

    #[test]
    fn done_holds_until_output_ready() {
        let c = stage_control();
        let mut sim = OwnedSeqSim::new(c.netlist);
        sim.step_words(&[("o_loaded", 1), ("t_loaded", 1)]);
        sim.step_words(&[]); // exec
        sim.step_words(&[]); // done latched
        assert_eq!(sim.output_words()["busy"], 1);
        sim.step_words(&[("out_ready", 1)]); // result taken
        sim.step_words(&[]);
        assert_eq!(sim.output_words()["busy"], 0);
    }
}
