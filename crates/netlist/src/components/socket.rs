//! Input and output sockets (Figure 4): the distributed control unit of a
//! TTA. Each socket watches the move-bus address field, matches its
//! hardwired component ID, captures the match in `Fin`/`Fout` and gates
//! data between the bus and the component.

use crate::builder::{NetlistBuilder, Word};
use crate::components::Component;
use crate::netlist::NetId;

/// Emits the socket-ID comparator of Figure 4: `addr` matched against the
/// hardwired `id_value` (constants folded into buffer/inverter choices),
/// qualified by `valid`. Returns the one-bit match signal.
pub(crate) fn emit_id_match(
    b: &mut NetlistBuilder,
    addr: &[NetId],
    id_value: u64,
    valid: NetId,
) -> NetId {
    let bits: Vec<_> = addr
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            if id_value >> i & 1 == 1 {
                b.buf(a)
            } else {
                b.not(a)
            }
        })
        .collect();
    let match_raw = b.and_reduce(&bits);
    b.and2(match_raw, valid)
}

/// One input-port bus attachment consumed by [`emit_socket_group_front`]:
/// the move-bus data word the port listens to, the bus's socket-address
/// field, its valid strobe, and the hardwired socket id to match.
pub(crate) struct SocketTap<'a> {
    /// Move-bus data word.
    pub bus: &'a [NetId],
    /// Socket-address field of the same bus.
    pub addr: &'a [NetId],
    /// Move-valid strobe of the same bus.
    pub valid: NetId,
    /// Hardwired socket id this port matches.
    pub id_value: u64,
}

/// The nets a socket-group front hands back to its instantiator.
pub(crate) struct SocketGroupFront {
    /// Per input port: the `Fin`-gated bus data towards the component.
    pub data: Vec<Word>,
    /// Per input port: the `Fin` load strobe.
    pub enables: Vec<NetId>,
    /// Result-register load strobe (the stage-control `exec` state).
    pub en_r: NetId,
    /// Output-socket drive strobe (`Fout`); AND each result bit with this
    /// to put the component's R register onto the bus.
    pub fout: NetId,
}

/// Emits the shared "front half" of a socket group — the input-socket
/// decoders, `Fin` capture registers, data gating, the stage-control FSM
/// of Figure 3 and the `Fout` register — into an arbitrary builder.
///
/// [`socket_group`] wraps this behind a standalone component interface;
/// the per-point elaborator (`crate::elaborate`) calls it directly so the
/// exact same control logic is stitched in front of every datapath
/// component of an explored architecture. Flip-flops are named
/// `{prefix}fin0…`, `{prefix}o_seen`, `{prefix}exec`, `{prefix}done`,
/// `{prefix}fout`.
pub(crate) fn emit_socket_group_front(
    b: &mut NetlistBuilder,
    prefix: &str,
    taps: &[SocketTap<'_>],
    out_ready: NetId,
) -> SocketGroupFront {
    let n_inputs = taps.len();
    assert!(n_inputs >= 1, "socket group needs at least one input port");

    // Input socket decoders (distinct hardwired ids per port).
    let mut fins = Vec::with_capacity(n_inputs);
    let mut data = Vec::with_capacity(n_inputs);
    for (port, tap) in taps.iter().enumerate() {
        let matched = emit_id_match(b, tap.addr, tap.id_value, tap.valid);
        let fin = b.dff(format!("{prefix}fin{port}"), matched);
        let gated: Word = tap.bus.iter().map(|&bit| b.and2(bit, fin)).collect();
        data.push(gated);
        fins.push(fin);
    }

    // Stage control (same FSM as the standalone stage_control component):
    // the last input port is the trigger.
    let t_loaded = fins[n_inputs - 1];
    let o_loaded = if n_inputs >= 2 { fins[0] } else { t_loaded };
    let (o_seen_q, o_seen_ff) = b.dff_feedback(format!("{prefix}o_seen"));
    let o_avail = b.or2(o_seen_q, o_loaded);
    let fire = b.and2(t_loaded, o_avail);
    let not_fire = b.not(fire);
    let o_seen_next = b.and2(o_avail, not_fire);
    b.set_dff_d(o_seen_ff, o_seen_next);
    let exec = b.dff(format!("{prefix}exec"), fire);
    let (done_q, done_ff) = b.dff_feedback(format!("{prefix}done"));
    let taken = b.and2(done_q, out_ready);
    let not_taken = b.not(taken);
    let hold = b.and2(done_q, not_taken);
    let done_next = b.or2(exec, hold);
    b.set_dff_d(done_ff, done_next);

    // Output socket: Fout driven by the done state and the bus grant.
    let fout_d = b.and2(done_q, out_ready);
    let fout = b.dff(format!("{prefix}fout"), fout_d);

    SocketGroupFront {
        data,
        enables: fins,
        en_r: exec,
        fout,
    }
}

/// Builds an input socket: bus → component port.
///
/// Parameters: data `width`, `id_bits` of the socket address field, and
/// the socket's hardwired `id_value`.
///
/// Interface: inputs `bus` (data), `addr` (destination socket id on the
/// bus), `valid` (a move is present); outputs `data` (gated data towards
/// the component register), `enable` (load strobe, one cycle delayed
/// through `Fin` per relations (6)–(7) of the paper).
pub fn input_socket(width: usize, id_bits: usize, id_value: u64) -> Component {
    assert!((1..=16).contains(&id_bits), "socket id field out of range");
    assert!(
        id_value < (1 << id_bits),
        "socket id does not fit the field"
    );
    let mut b = NetlistBuilder::new(format!("isock{width}_id{id_value}"));
    let bus = b.input_word("bus", width);
    let addr = b.input_word("addr", id_bits);
    let valid = b.input("valid");

    // ID match: compare addr against the hardwired id (constants folded
    // into inverter/buffer choices).
    let matched = emit_id_match(&mut b, &addr, id_value, valid);

    // Fin: instruction decode takes one cycle (relations (6)-(7)). Data
    // itself is gated combinationally — the capturing register is the
    // component's O/T register (Figure 4 keeps only control state in the
    // socket).
    let fin = b.dff("fin", matched);
    let gated: Vec<_> = bus.iter().map(|&bit| b.and2(bit, fin)).collect();

    b.output_word("data", &gated);
    b.output("enable", fin);

    let netlist = b.finish();
    Component {
        netlist,
        width,
        data_in_ports: 1,
        data_out_ports: 1,
    }
}

/// Builds an output socket: component result register → bus.
///
/// Interface: inputs `r_in` (component R register), `addr`, `valid`;
/// outputs `bus_out` (gated data; the AND-gating models the tri-state
/// driver) and `drive` (bus-driver enable via `Fout`, relation (8)).
pub fn output_socket(width: usize, id_bits: usize, id_value: u64) -> Component {
    assert!((1..=16).contains(&id_bits), "socket id field out of range");
    assert!(
        id_value < (1 << id_bits),
        "socket id does not fit the field"
    );
    let mut b = NetlistBuilder::new(format!("osock{width}_id{id_value}"));
    let r_in = b.input_word("r_in", width);
    let addr = b.input_word("addr", id_bits);
    let valid = b.input("valid");

    let matched = emit_id_match(&mut b, &addr, id_value, valid);
    let fout = b.dff("fout", matched);

    let gated: Vec<_> = r_in.iter().map(|&bit| b.and2(bit, fout)).collect();
    b.output_word("bus_out", &gated);
    b.output("drive", fout);

    let netlist = b.finish();
    Component {
        netlist,
        width,
        data_in_ports: 1,
        data_out_ports: 1,
    }
}

/// Builds the complete socket/stage-control group of one datapath
/// component: `n_inputs` input-socket decoders (operand, trigger, …), one
/// output-socket decoder, the stage-control FSM of Figure 3, and the
/// data-gating logic towards the component and the bus.
///
/// This is the logic the paper tests through scan (eq. 13): ATPG on this
/// block yields the socket pattern count `np`, while the scan-chain
/// length `nl` additionally spans the component's pipeline registers.
pub fn socket_group(width: usize, n_inputs: usize, id_bits: usize) -> Component {
    assert!(
        n_inputs >= 1 && (1..=16).contains(&id_bits),
        "bad socket group"
    );
    let mut b = NetlistBuilder::new(format!("sockgrp{width}x{n_inputs}"));
    let bus = b.input_word("bus", width);
    let addr = b.input_word("addr", id_bits);
    let valid = b.input("valid");
    let r_in = b.input_word("r_in", width);
    let out_ready = b.input("out_ready");

    // Input socket decoders listen to the one local bus with hardwired
    // ids 1, 2, … (distinct per port); the shared front also emits the
    // stage-control FSM and the Fout register.
    let taps: Vec<SocketTap<'_>> = (0..n_inputs)
        .map(|port| SocketTap {
            bus: &bus,
            addr: &addr,
            valid,
            id_value: (port as u64 + 1) & ((1 << id_bits) - 1),
        })
        .collect();
    let front = emit_socket_group_front(&mut b, "", &taps, out_ready);
    for (port, (data, fin)) in front.data.iter().zip(&front.enables).enumerate() {
        b.output_word(&format!("data{port}"), data);
        b.output(format!("enable{port}"), *fin);
    }
    b.output("en_r", front.en_r);

    let driven: Vec<_> = r_in.iter().map(|&bit| b.and2(bit, front.fout)).collect();
    b.output_word("bus_out", &driven);
    b.output("drive", front.fout);

    let netlist = b.finish();
    Component {
        netlist,
        width,
        data_in_ports: n_inputs,
        data_out_ports: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::OwnedSeqSim;

    #[test]
    fn input_socket_matches_only_its_id() {
        let c = input_socket(8, 4, 5);
        let mut sim = OwnedSeqSim::new(c.netlist);
        // Wrong id: no capture.
        sim.step_words(&[("bus", 0xAB), ("addr", 3), ("valid", 1)]);
        sim.step_words(&[]);
        assert_eq!(sim.output_words()["enable"], 0);
        assert_eq!(sim.output_words()["data"], 0);
        // Correct id: enable pulses the next cycle while the bus still
        // holds the word (decode takes one cycle, relations (6)-(7)).
        sim.step_words(&[("bus", 0xAB), ("addr", 5), ("valid", 1)]);
        sim.step_words(&[("bus", 0xAB)]);
        assert_eq!(sim.output_words()["enable"], 1);
        assert_eq!(sim.output_words()["data"], 0xAB);
    }

    #[test]
    fn input_socket_requires_valid() {
        let c = input_socket(8, 4, 5);
        let mut sim = OwnedSeqSim::new(c.netlist);
        sim.step_words(&[("bus", 0xAB), ("addr", 5), ("valid", 0)]);
        sim.step_words(&[]);
        assert_eq!(sim.output_words()["enable"], 0);
    }

    #[test]
    fn output_socket_drives_when_addressed() {
        let c = output_socket(8, 4, 9);
        let mut sim = OwnedSeqSim::new(c.netlist);
        sim.step_words(&[("r_in", 0x5A), ("addr", 9), ("valid", 1)]);
        sim.step_words(&[("r_in", 0x5A)]);
        let o = sim.output_words();
        assert_eq!(o["drive"], 1);
        assert_eq!(o["bus_out"], 0x5A);
    }

    #[test]
    fn output_socket_idle_releases_bus() {
        let c = output_socket(8, 4, 9);
        let mut sim = OwnedSeqSim::new(c.netlist);
        sim.step_words(&[("r_in", 0xFF)]);
        let o = sim.output_words();
        assert_eq!(o["drive"], 0);
        assert_eq!(o["bus_out"], 0, "released bus reads as zero");
    }
}

#[cfg(test)]
mod socket_group_tests {
    use super::*;
    use crate::sim::OwnedSeqSim;

    #[test]
    fn socket_group_fires_like_stage_control() {
        let c = socket_group(8, 2, 4);
        let mut sim = OwnedSeqSim::new(c.netlist.clone());
        // Move to the operand socket (id 1).
        sim.step_words(&[("bus", 0x11), ("addr", 1), ("valid", 1)]);
        // Move to the trigger socket (id 2).
        sim.step_words(&[("bus", 0x22), ("addr", 2), ("valid", 1)]);
        // fin1 pulses one cycle later (decode), fire follows, en_r after.
        sim.step_words(&[]);
        sim.step_words(&[]);
        assert_eq!(sim.output_words()["en_r"], 1);
    }

    #[test]
    fn socket_group_has_control_flip_flops() {
        let c = socket_group(16, 2, 5);
        // fin0, fin1, o_seen, exec, done, fout.
        assert_eq!(c.netlist.dff_count(), 6);
        assert!(c.netlist.validate().is_ok());
    }
}
