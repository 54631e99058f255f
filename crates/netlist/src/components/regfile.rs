//! Register-file component (flip-flop implementation).
//!
//! The paper evaluates two register files (RF1 with 8 and RF2 with 12
//! registers) and notes that the *multi-port memory* implementation cannot
//! be full-scanned — that behavioural variant is modelled by the march
//! tests in `tta-dft`. This generator produces the flip-flop
//! implementation used for area figures and for the full-scan baseline
//! comparison of Table 1.

use crate::builder::NetlistBuilder;
use crate::components::{addr_bits, Component};

/// Builds a register file with `regs` registers of `width` bits, `nin`
/// write ports and `nout` read ports.
///
/// Interface per write port `p`: `wdata{p}`, `waddr{p}`, `wen{p}`;
/// per read port `p`: `raddr{p}`, `ren{p}`; output `rdata{p}`.
///
/// Writes are pipelined through input registers (one-cycle latency, like
/// the O/T registers of an FU); reads capture the addressed register into
/// an output register (the RF's "R register" towards its output socket).
/// Storage flip-flops are named `store…` so the component can report the
/// infrastructure/storage split used by the scan-chain model.
///
/// # Panics
///
/// Panics if any parameter is zero or `regs > 256`.
pub fn register_file(width: usize, regs: usize, nin: usize, nout: usize) -> Component {
    assert!(width >= 1 && (1..=256).contains(&regs), "bad RF geometry");
    assert!(nin >= 1 && nout >= 1, "RF needs at least one port each way");
    let ab = addr_bits(regs.max(2));
    let mut b = NetlistBuilder::new(format!("rf{regs}x{width}_w{nin}r{nout}"));

    // ---- write-side pipeline registers ---------------------------------
    let mut wdata_q = Vec::new();
    let mut waddr_q = Vec::new();
    let mut wvalid_q = Vec::new();
    for p in 0..nin {
        let wdata = b.input_word(&format!("wdata{p}"), width);
        let waddr = b.input_word(&format!("waddr{p}"), ab);
        let wen = b.input(format!("wen{p}"));
        let (dq, dff) = b.dff_word_feedback(&format!("wdr{p}"), width);
        let dn = b.mux_word(wen, &dq, &wdata);
        b.set_dff_word_d(&dff, &dn);
        let (aq, aff) = b.dff_word_feedback(&format!("war{p}"), ab);
        let an = b.mux_word(wen, &aq, &waddr);
        b.set_dff_word_d(&aff, &an);
        let vq = b.dff(format!("wvr{p}"), wen);
        wdata_q.push(dq);
        waddr_q.push(aq);
        wvalid_q.push(vq);
    }

    // ---- storage core ----------------------------------------------------
    // Decoders per write port.
    // Only `regs` decode lines exist — a truncated decoder leaves no dead
    // match gates when `regs` is not a power of two (RF2 has 12).
    let decoders: Vec<Vec<_>> = waddr_q.iter().map(|a| b.decoder_n(a, regs)).collect();
    let mut store_q = Vec::with_capacity(regs);
    let mut store_ff = Vec::with_capacity(regs);
    for r in 0..regs {
        let (q, ff) = b.dff_word_feedback(&format!("store{r}"), width);
        store_q.push(q);
        store_ff.push(ff);
    }
    for r in 0..regs {
        let mut d = store_q[r].clone();
        for p in 0..nin {
            let sel = b.and2(wvalid_q[p], decoders[p][r]);
            d = b.mux_word(sel, &d, &wdata_q[p]);
        }
        b.set_dff_word_d(&store_ff[r], &d);
    }

    // ---- read-side --------------------------------------------------------
    // Pad the mux tree with zero words beyond `regs`.
    let zero = b.const0();
    let slots = 1usize << ab;
    let mut choices: Vec<Vec<_>> = store_q.clone();
    choices.resize(slots, vec![zero; width]);
    for p in 0..nout {
        let raddr = b.input_word(&format!("raddr{p}"), ab);
        let ren = b.input(format!("ren{p}"));
        let (aq, aff) = b.dff_word_feedback(&format!("rar{p}"), ab);
        let an = b.mux_word(ren, &aq, &raddr);
        b.set_dff_word_d(&aff, &an);
        let rv = b.dff(format!("rvr{p}"), ren);
        let selected = b.mux_tree(&aq, &choices);
        let (oq, off) = b.dff_word_feedback(&format!("ror{p}"), width);
        let on = b.mux_word(rv, &oq, &selected);
        b.set_dff_word_d(&off, &on);
        b.output_word(&format!("rdata{p}"), &oq);
    }

    let netlist = b.finish();
    Component {
        netlist,
        width,
        data_in_ports: nin,
        data_out_ports: nout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::OwnedSeqSim;

    fn write(sim: &mut OwnedSeqSim, port: usize, addr: u64, data: u64) {
        let wd = format!("wdata{port}");
        let wa = format!("waddr{port}");
        let we = format!("wen{port}");
        sim.step_words(&[(&wd, data), (&wa, addr), (&we, 1)]);
        sim.step_words(&[]); // write commits one cycle later
    }

    fn read(sim: &mut OwnedSeqSim, port: usize, addr: u64) -> u64 {
        let ra = format!("raddr{port}");
        let re = format!("ren{port}");
        sim.step_words(&[(&ra, addr), (&re, 1)]);
        sim.step_words(&[]); // output register loads
        sim.step_words(&[]); // visible at outputs
        sim.output_words()[&format!("rdata{port}")]
    }

    #[test]
    fn write_then_read_roundtrip() {
        let c = register_file(16, 8, 1, 2);
        let mut sim = OwnedSeqSim::new(c.netlist);
        for r in 0..8u64 {
            write(&mut sim, 0, r, 0x1000 + r * 7);
        }
        for r in 0..8u64 {
            assert_eq!(read(&mut sim, 0, r), 0x1000 + r * 7, "reg {r} port 0");
            assert_eq!(read(&mut sim, 1, r), 0x1000 + r * 7, "reg {r} port 1");
        }
    }

    #[test]
    fn overwrite_replaces_value() {
        let c = register_file(8, 4, 1, 1);
        let mut sim = OwnedSeqSim::new(c.netlist);
        write(&mut sim, 0, 2, 0xAA);
        write(&mut sim, 0, 2, 0x55);
        assert_eq!(read(&mut sim, 0, 2), 0x55);
    }

    #[test]
    fn non_power_of_two_regcount_works() {
        // RF2 of the paper has 12 registers.
        let c = register_file(16, 12, 1, 2);
        let mut sim = OwnedSeqSim::new(c.netlist);
        write(&mut sim, 0, 11, 0xBEE);
        assert_eq!(read(&mut sim, 0, 11), 0xBEE);
        // Out-of-range slots read as zero.
        assert_eq!(read(&mut sim, 0, 13), 0);
    }

    #[test]
    fn dual_write_ports_independent() {
        let c = register_file(8, 8, 2, 1);
        let mut sim = OwnedSeqSim::new(c.netlist);
        // Write different registers simultaneously on both ports.
        sim.step_words(&[
            ("wdata0", 0x11),
            ("waddr0", 1),
            ("wen0", 1),
            ("wdata1", 0x22),
            ("waddr1", 2),
            ("wen1", 1),
        ]);
        sim.step_words(&[]);
        assert_eq!(read(&mut sim, 0, 1), 0x11);
        assert_eq!(read(&mut sim, 0, 2), 0x22);
    }

    #[test]
    fn storage_vs_infrastructure_split() {
        let c = register_file(16, 8, 1, 2);
        assert_eq!(c.storage_ff_count(), 8 * 16);
        // wdr(16) + war(3) + wvr(1) + 2*(rar(3) + rvr(1) + ror(16))
        assert_eq!(c.infrastructure_ff_count(), 16 + 3 + 1 + 2 * (3 + 1 + 16));
        assert_eq!(c.nconn(), 3);
    }

    #[test]
    fn bigger_rf_has_more_area() {
        let small = register_file(16, 8, 1, 2);
        let big = register_file(16, 12, 1, 2);
        assert!(big.area() > small.area());
    }
}
