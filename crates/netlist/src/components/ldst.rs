//! Load/store unit towards the data memory (Figure 9).
//!
//! The paper excludes LD/ST (and PC) from the test-cost *comparison*
//! because they appear exactly once in every architecture, but their
//! netlists still contribute area and are tested; Table 1 reports their
//! full-scan pattern counts in parentheses.

use crate::builder::NetlistBuilder;
use crate::components::Component;

/// Builds a `width`-bit load/store unit.
///
/// Interface:
///
/// * `addr_in` + `en_addr` — operand move carrying the memory address
///   (O register);
/// * `data_in` + `en_data` — trigger move carrying store data (T register;
///   a load is triggered with `is_store = 0`);
/// * `is_store` — direction, captured with the trigger;
/// * `mem_rdata` — read data returning from memory;
/// * outputs `mem_addr`, `mem_wdata`, `mem_we` towards memory and `r`
///   (load result register towards the output socket).
///
/// A two-state access FSM (`idle → access → idle`) paces the memory
/// handshake, mirroring the stage control of Figure 3.
pub fn load_store(width: usize) -> Component {
    assert!((2..=64).contains(&width), "LD/ST width out of range");
    let mut b = NetlistBuilder::new(format!("ldst{width}"));
    let addr_in = b.input_word("addr_in", width);
    let data_in = b.input_word("data_in", width);
    let en_addr = b.input("en_addr");
    let en_data = b.input("en_data");
    let is_store = b.input("is_store");
    let mem_rdata = b.input_word("mem_rdata", width);

    // O register: address.
    let (a_q, a_ff) = b.dff_word_feedback("o_addr", width);
    let a_next = b.mux_word(en_addr, &a_q, &addr_in);
    b.set_dff_word_d(&a_ff, &a_next);

    // T register: store data + direction flag.
    let (d_q, d_ff) = b.dff_word_feedback("t_data", width);
    let d_next = b.mux_word(en_data, &d_q, &data_in);
    b.set_dff_word_d(&d_ff, &d_next);

    let (dir_q, dir_ff) = b.dff_feedback("t_dir");
    let dir_next = b.mux2(en_data, dir_q, is_store);
    b.set_dff_d(dir_ff, dir_next);

    // Access FSM: state0 = idle/busy.
    let (busy_q, busy_ff) = b.dff_feedback("fsm_busy");
    let start = {
        let not_busy = b.not(busy_q);
        b.and2(en_data, not_busy)
    };
    // busy <- start (1-cycle memory access).
    b.set_dff_d(busy_ff, start);
    let done = b.dff("fsm_done", busy_q);

    // Load result register: captures mem_rdata when a load completes.
    let is_load = b.not(dir_q);
    let capture = b.and2(busy_q, is_load);
    let (r_q, r_ff) = b.dff_word_feedback("r", width);
    let r_next = b.mux_word(capture, &r_q, &mem_rdata);
    b.set_dff_word_d(&r_ff, &r_next);

    // Memory-side outputs.
    b.output_word("mem_addr", &a_q);
    b.output_word("mem_wdata", &d_q);
    let we = b.and2(busy_q, dir_q);
    b.output("mem_we", we);
    b.output("done", done);
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

    #[test]
    fn store_drives_memory_interface() {
        let c = load_store(16);
        let mut sim = OwnedSeqSim::new(c.netlist);
        sim.step_words(&[("addr_in", 0x40), ("en_addr", 1)]);
        sim.step_words(&[("data_in", 0xCAFE), ("en_data", 1), ("is_store", 1)]);
        // Access cycle: we asserted, address/data stable.
        sim.step_words(&[]);
        let o = sim.output_words();
        assert_eq!(o["mem_we"], 1);
        assert_eq!(o["mem_addr"], 0x40);
        assert_eq!(o["mem_wdata"], 0xCAFE);
        // Back to idle.
        sim.step_words(&[]);
        assert_eq!(sim.output_words()["mem_we"], 0);
    }

    #[test]
    fn load_captures_read_data() {
        let c = load_store(16);
        let mut sim = OwnedSeqSim::new(c.netlist);
        sim.step_words(&[("addr_in", 0x10), ("en_addr", 1)]);
        // Trigger a load (is_store = 0).
        sim.step_words(&[("en_data", 1), ("is_store", 0)]);
        // Memory responds during the busy cycle.
        sim.step_words(&[("mem_rdata", 0x1234)]);
        sim.step_words(&[]);
        assert_eq!(sim.output_words()["r"], 0x1234);
        assert_eq!(sim.output_words()["done"], 1);
    }

    #[test]
    fn load_does_not_write_memory() {
        let c = load_store(8);
        let mut sim = OwnedSeqSim::new(c.netlist);
        sim.step_words(&[("addr_in", 1), ("en_addr", 1)]);
        sim.step_words(&[("en_data", 1), ("is_store", 0)]);
        sim.step_words(&[("mem_rdata", 9)]);
        assert_eq!(sim.output_words()["mem_we"], 0);
    }
}
