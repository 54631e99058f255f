//! Per-point netlist elaboration: assembles one flat gate-level
//! [`Netlist`] for a whole explored [`Architecture`].
//!
//! The paper's back-annotation flow costs each *component* in isolation;
//! this module goes one step further and stitches the actual component
//! netlists of a candidate architecture together — every functional unit
//! behind its socket group (the shared front of
//! [`crate::components::socket_group`]), every register file behind
//! per-port input/output sockets, and the move buses as OR-merge fabric —
//! so that graph-level static analyses (loaded timing, lint, fanout
//! distribution) and a structural Verilog export can run on the design the
//! sweep actually selected.
//!
//! Each unit's netlist is its [`ComponentKey`]'s, the component the
//! annotation database prices; an architecture with a unit the key cannot
//! name is refused ([`ElaborateError::OutOfModel`]), as the table-tier
//! cost models refuse it.
//!
//! # Boundary model
//!
//! The instruction-fetch/decode path is not elaborated (the paper costs
//! the control store analytically). Each move bus is therefore cut at its
//! decoded interface: primary inputs `bus{b}_data[width]`,
//! `bus{b}_addr[SOCKET_ID_BITS]` and `bus{b}_valid` carry the decoded
//! move, and primary outputs `bus{b}_result[width]` / `bus{b}_drive`
//! expose the OR-merged result traffic. Component pins with no
//! architectural binding (ALU opcodes, RF register addresses, memory data
//! pins, …) are promoted to primary ports named `{instance}_{pin}`, which
//! keeps every generated gate observable — the lint pass holds elaborated
//! points to the same zero-diagnostic bar as the standalone component
//! generators.
//!
//! # Incremental re-elaboration
//!
//! [`IncrementalElaborator`] exploits the sweep's Gray-walk visit order:
//! consecutive neighbours share long
//! component prefixes, so the builder is rewound to the first differing
//! segment and only the suffix (plus the always-last bus fabric) is
//! re-emitted. The result is differentially guaranteed bit-identical to a
//! from-scratch [`elaborate`] call.

use std::collections::HashMap;
use std::fmt;

use tta_arch::{Architecture, ArchitectureError, FuInstance, FuKind, RfInstance};

use crate::builder::{BuildError, BuilderMark, NetlistBuilder, Word};
use crate::components::socket::{emit_id_match, emit_socket_group_front, SocketTap};
use crate::components::ComponentKey;
pub use crate::components::SOCKET_ID_BITS;
use crate::netlist::{NetDriver, NetId, Netlist};

/// Errors reported by [`elaborate`] / [`IncrementalElaborator::advance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElaborateError {
    /// The architecture fails its own structural validation.
    Architecture(ArchitectureError),
    /// A unit of the named architecture has no [`ComponentKey`]: its
    /// width or a register-file geometry overflows the key's fields, the
    /// same domain the table-tier cost models price.
    OutOfModel(String),
    /// The stitched netlist fails to finalise (never expected from the
    /// shipped generators; indicates a broken custom component).
    Build(BuildError),
}

impl fmt::Display for ElaborateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElaborateError::Architecture(e) => write!(f, "invalid architecture: {e}"),
            ElaborateError::OutOfModel(name) => {
                write!(f, "{name} is outside the component model")
            }
            ElaborateError::Build(e) => write!(f, "elaboration failed: {e}"),
        }
    }
}

impl std::error::Error for ElaborateError {}

impl From<ArchitectureError> for ElaborateError {
    fn from(e: ArchitectureError) -> Self {
        ElaborateError::Architecture(e)
    }
}

impl From<BuildError> for ElaborateError {
    fn from(e: BuildError) -> Self {
        ElaborateError::Build(e)
    }
}

/// Elaborates one architecture from scratch.
///
/// # Errors
///
/// Returns an [`ElaborateError`] if the architecture is structurally
/// invalid, has a unit outside the component model, or the stitched
/// netlist cannot be finalised.
pub fn elaborate(arch: &Architecture) -> Result<Netlist, ElaborateError> {
    IncrementalElaborator::new().advance(arch)
}

/// The decoded-move interface of one bus, created by the prologue segment.
struct BusTapNets {
    data: Word,
    addr: Word,
    valid: NetId,
}

/// One socket group's contribution to a bus: the `Fout`-gated result word
/// and the drive strobe, OR-merged by the fabric segment.
#[derive(Clone)]
struct BusDrive {
    bus: usize,
    word: Word,
    drive: NetId,
}

/// Identity of one elaboration segment; segments with equal keys emit
/// byte-identical logic given an identical builder prefix.
#[derive(Clone, PartialEq, Eq)]
enum SegmentKey {
    Prologue { width: usize, buses: usize },
    Fu(FuInstance, ComponentKey),
    Rf(RfInstance, ComponentKey),
}

struct Segment {
    key: SegmentKey,
    /// Builder extent *before* this segment was emitted.
    mark: BuilderMark,
    drives: Vec<BusDrive>,
}

/// Incrementally re-elaborates a sequence of architectures, reusing the
/// common netlist prefix between consecutive points.
///
/// Feeding it a Gray-code neighbour walk makes most [`advance`] calls
/// rebuild only one component group plus the bus fabric; feeding it
/// arbitrary points degrades gracefully to from-scratch work. Either way
/// the produced netlist is bit-identical to [`elaborate`] on the same
/// architecture.
///
/// [`advance`]: IncrementalElaborator::advance
pub struct IncrementalElaborator {
    builder: NetlistBuilder,
    segments: Vec<Segment>,
    /// Bus taps created by the prologue (valid while `segments` is
    /// non-empty, since the prologue is always segment 0).
    taps: Vec<BusTapNets>,
    /// Builder extent before the bus fabric + output epilogue.
    fabric_mark: Option<BuilderMark>,
    /// Generated component netlists, shared across points.
    comp_cache: HashMap<ComponentKey, Netlist>,
    /// How many segments the last `advance` reused unchanged.
    last_reused: usize,
    /// How many segments the last `advance` (re-)emitted.
    last_emitted: usize,
}

impl Default for IncrementalElaborator {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalElaborator {
    /// Creates an elaborator with an empty prefix.
    pub fn new() -> Self {
        IncrementalElaborator {
            builder: NetlistBuilder::new("unelaborated"),
            segments: Vec::new(),
            taps: Vec::new(),
            fabric_mark: None,
            comp_cache: HashMap::new(),
            last_reused: 0,
            last_emitted: 0,
        }
    }

    /// Segments reused unchanged by the last [`Self::advance`] call.
    pub fn last_reused(&self) -> usize {
        self.last_reused
    }

    /// Segments (re-)emitted by the last [`Self::advance`] call.
    pub fn last_emitted(&self) -> usize {
        self.last_emitted
    }

    /// Elaborates `arch`, reusing whatever prefix it shares with the
    /// previously elaborated architecture.
    ///
    /// # Errors
    ///
    /// Returns an [`ElaborateError`] exactly like [`elaborate`].
    pub fn advance(&mut self, arch: &Architecture) -> Result<Netlist, ElaborateError> {
        arch.validate()?;
        // Desired segment sequence for this architecture, each unit with
        // the key of its component.
        let out_of_model = || ElaborateError::OutOfModel(arch.name.clone());
        let width = u16::try_from(arch.width).map_err(|_| out_of_model())?;
        let mut want: Vec<SegmentKey> = Vec::with_capacity(1 + arch.fus.len() + arch.rfs.len());
        want.push(SegmentKey::Prologue {
            width: arch.width,
            buses: arch.buses,
        });
        for fu in &arch.fus {
            let key = ComponentKey::for_fu(fu.kind, width);
            want.push(SegmentKey::Fu(fu.clone(), key));
        }
        for rf in &arch.rfs {
            let key = ComponentKey::for_rf(rf, width).ok_or_else(out_of_model)?;
            want.push(SegmentKey::Rf(rf.clone(), key));
        }

        // The design name tracks the point, not the structure.
        self.builder.set_name(arch.name.clone());

        // Discard the previous fabric + epilogue: it depends on every
        // segment, so it is re-emitted on every advance.
        if let Some(mark) = self.fabric_mark.take() {
            self.builder.rewind(mark);
        }

        // Longest common prefix with what is already built.
        let mut keep = 0;
        while keep < self.segments.len()
            && keep < want.len()
            && self.segments[keep].key == want[keep]
        {
            keep += 1;
        }
        if keep < self.segments.len() {
            self.builder.rewind(self.segments[keep].mark);
            self.segments.truncate(keep);
        }
        self.last_reused = keep;
        self.last_emitted = want.len() - keep;

        // Emit the missing suffix.
        for key in want.into_iter().skip(keep) {
            let mark = self.builder.mark();
            let drives = match &key {
                SegmentKey::Prologue { width, buses } => {
                    self.taps = emit_prologue(&mut self.builder, *width, *buses);
                    Vec::new()
                }
                SegmentKey::Fu(fu, comp) => {
                    let comp = component(&mut self.comp_cache, *comp);
                    emit_fu(&mut self.builder, &self.taps, fu, comp)
                }
                SegmentKey::Rf(rf, comp) => {
                    let comp = component(&mut self.comp_cache, *comp);
                    emit_rf(&mut self.builder, &self.taps, rf, comp)
                }
            };
            self.segments.push(Segment { key, mark, drives });
        }

        // Bus fabric: OR-merge every socket group's drive onto its bus.
        self.fabric_mark = Some(self.builder.mark());
        let all_drives: Vec<&BusDrive> =
            self.segments.iter().flat_map(|s| s.drives.iter()).collect();
        emit_fabric(&mut self.builder, arch.buses, arch.width, &all_drives);

        Ok(self.builder.try_finish()?)
    }
}

/// The netlist of `key`'s component, generated on first use.
fn component(cache: &mut HashMap<ComponentKey, Netlist>, key: ComponentKey) -> &Netlist {
    cache.entry(key).or_insert_with(|| key.generate().netlist)
}

/// Declares the decoded-move interface of every bus.
fn emit_prologue(b: &mut NetlistBuilder, width: usize, buses: usize) -> Vec<BusTapNets> {
    (0..buses)
        .map(|bus| BusTapNets {
            data: b.input_word(&format!("bus{bus}_data"), width),
            addr: b.input_word(&format!("bus{bus}_addr"), SOCKET_ID_BITS),
            valid: b.input(format!("bus{bus}_valid")),
        })
        .collect()
}

/// Stitches a component netlist into the top-level builder.
///
/// `bind` maps component primary-input names (bit-granular, e.g.
/// `o_in[3]`) to already-existing top-level nets; unbound inputs are
/// promoted to top-level primary inputs named `{prefix}{pin}`. Returns the
/// component's primary outputs mapped into top-level nets.
fn stitch(
    b: &mut NetlistBuilder,
    prefix: &str,
    sub: &Netlist,
    bind: &HashMap<String, NetId>,
) -> HashMap<String, NetId> {
    let mut map: Vec<Option<NetId>> = vec![None; sub.net_count()];
    // Sources first: bound or promoted inputs, constants.
    for (i, net) in sub.nets().iter().enumerate() {
        match net.driver() {
            NetDriver::PrimaryInput(_) => {
                let name = net.name().expect("component inputs are named");
                let id = match bind.get(name) {
                    Some(&n) => n,
                    None => b.input(format!("{prefix}{name}")),
                };
                map[i] = Some(id);
            }
            NetDriver::Const0 => map[i] = Some(b.const0()),
            NetDriver::Const1 => map[i] = Some(b.const1()),
            _ => {}
        }
    }
    // Flip-flops as feedback declarations (D patched once gates exist).
    let mut ffmap = Vec::with_capacity(sub.dff_count());
    for ff in sub.dffs() {
        let (q, fid) = b.dff_feedback(format!("{prefix}{}", ff.name()));
        map[ff.q().index()] = Some(q);
        ffmap.push(fid);
    }
    // Gates in topological order, so inputs are always mapped already.
    for &gid in sub.topo_order() {
        let g = sub.gate(gid);
        let ins: Vec<NetId> = g
            .inputs()
            .iter()
            .map(|n| map[n.index()].expect("topological order maps inputs first"))
            .collect();
        let out = b.gate(g.kind(), &ins);
        map[g.output().index()] = Some(out);
    }
    for (ff, fid) in sub.dffs().iter().zip(&ffmap) {
        let d = map[ff.d().index()].expect("flip-flop D net is mapped");
        b.set_dff_d(*fid, d);
    }
    sub.primary_outputs()
        .iter()
        .map(|(name, n)| (name.clone(), map[n.index()].expect("output net is mapped")))
        .collect()
}

/// Collects the mapped bits of a component output word `name[0..width]`.
fn word_of(outputs: &HashMap<String, NetId>, name: &str, width: usize) -> Word {
    (0..width)
        .map(|i| {
            let key = format!("{name}[{i}]");
            *outputs
                .get(&key)
                .unwrap_or_else(|| panic!("component lacks output {key}"))
        })
        .collect()
}

/// Collects the mapped bits of an output word whose width is the
/// component's own business (e.g. the CMP's 1-bit flag register): bits are
/// taken from index 0 upward until the first missing key.
fn word_prefix_of(outputs: &HashMap<String, NetId>, name: &str) -> Word {
    let mut word = Word::new();
    while let Some(&n) = outputs.get(&format!("{name}[{}]", word.len())) {
        word.push(n);
    }
    word
}

fn bind_word(bind: &mut HashMap<String, NetId>, name: &str, word: &[NetId]) {
    for (i, &n) in word.iter().enumerate() {
        bind.insert(format!("{name}[{i}]"), n);
    }
}

/// Emits one functional unit behind its socket group.
fn emit_fu(
    b: &mut NetlistBuilder,
    taps: &[BusTapNets],
    fu: &FuInstance,
    comp: &Netlist,
) -> Vec<BusDrive> {
    let prefix = format!("{}_", fu.name);
    let width = taps.first().map_or(0, |t| t.data.len());
    let out_ready = b.input(format!("{prefix}out_ready"));

    // Socket taps: operand then trigger (immediates have no operand),
    // with per-group local socket ids 1, 2, … as in the standalone
    // socket-group generator. The PC's condition port only consumes one
    // bit, so its tap gates a one-bit slice of the bus.
    let operand = &taps[usize::from(fu.operand_bus.0)];
    let trigger = &taps[usize::from(fu.trigger_bus.0)];
    let mask = (1u64 << SOCKET_ID_BITS) - 1;
    let mut socket_taps: Vec<SocketTap<'_>> = Vec::with_capacity(2);
    if fu.kind != FuKind::Immediate {
        socket_taps.push(SocketTap {
            bus: &operand.data,
            addr: &operand.addr,
            valid: operand.valid,
            id_value: 1 & mask,
        });
    }
    let trigger_width = if fu.kind == FuKind::Pc {
        1
    } else {
        trigger.data.len()
    };
    socket_taps.push(SocketTap {
        bus: &trigger.data[..trigger_width],
        addr: &trigger.addr,
        valid: trigger.valid,
        id_value: (socket_taps.len() as u64 + 1) & mask,
    });
    let front = emit_socket_group_front(b, &prefix, &socket_taps, out_ready);

    // Bind the component's architectural pins to the socket front; every
    // remaining pin is promoted by `stitch`.
    let mut bind: HashMap<String, NetId> = HashMap::new();
    match fu.kind {
        FuKind::Alu | FuKind::Cmp | FuKind::Mul => {
            bind_word(&mut bind, "o_in", &front.data[0]);
            bind.insert("en_o".into(), front.enables[0]);
            bind_word(&mut bind, "t_in", &front.data[1]);
            bind.insert("en_t".into(), front.enables[1]);
        }
        FuKind::LdSt => {
            bind_word(&mut bind, "addr_in", &front.data[0]);
            bind.insert("en_addr".into(), front.enables[0]);
            bind_word(&mut bind, "data_in", &front.data[1]);
            bind.insert("en_data".into(), front.enables[1]);
        }
        FuKind::Pc => {
            bind_word(&mut bind, "target_in", &front.data[0]);
            bind.insert("en_target".into(), front.enables[0]);
            bind.insert("cond_in".into(), front.data[1][0]);
            bind.insert("en_cond".into(), front.enables[1]);
        }
        FuKind::Immediate => {
            bind_word(&mut bind, "imm_in", &front.data[0]);
            bind.insert("en".into(), front.enables[0]);
        }
    }
    let outputs = stitch(b, &prefix, comp, &bind);

    // Expose the component's off-datapath interface as top-level ports so
    // no generated logic becomes output-unreachable.
    let result = match fu.kind {
        // The CMP's result register is a 1-bit flag, so take whatever
        // width the component actually produced.
        FuKind::Alu | FuKind::Cmp | FuKind::Mul => word_prefix_of(&outputs, "r"),
        FuKind::LdSt => {
            b.output_word(
                &format!("{prefix}mem_addr"),
                &word_of(&outputs, "mem_addr", width),
            );
            b.output_word(
                &format!("{prefix}mem_wdata"),
                &word_of(&outputs, "mem_wdata", width),
            );
            b.output(format!("{prefix}mem_we"), outputs["mem_we"]);
            b.output(format!("{prefix}done"), outputs["done"]);
            word_of(&outputs, "r", width)
        }
        FuKind::Pc => {
            let iaddr = word_of(&outputs, "iaddr", width);
            b.output_word(&format!("{prefix}iaddr"), &iaddr);
            iaddr
        }
        FuKind::Immediate => word_of(&outputs, "imm_out", width),
    };

    // Output socket: the R register drives the result bus through Fout;
    // narrow results (the CMP flag) zero-extend onto the bus.
    let mut driven: Word = result.iter().map(|&bit| b.and2(bit, front.fout)).collect();
    while driven.len() < width {
        let zero = b.const0();
        driven.push(zero);
    }
    vec![BusDrive {
        bus: usize::from(fu.result_bus.0),
        word: driven,
        drive: front.fout,
    }]
}

/// Emits one register file behind per-port input/output sockets.
fn emit_rf(
    b: &mut NetlistBuilder,
    taps: &[BusTapNets],
    rf: &RfInstance,
    comp: &Netlist,
) -> Vec<BusDrive> {
    let prefix = format!("{}_", rf.name);
    let width = taps.first().map_or(0, |t| t.data.len());
    let mask = (1u64 << SOCKET_ID_BITS) - 1;

    // Write ports: one input socket each (ids 1, 2, …).
    let mut bind: HashMap<String, NetId> = HashMap::new();
    for (p, bus) in rf.write_ports.iter().enumerate() {
        let tap = &taps[usize::from(bus.0)];
        let matched = emit_id_match(b, &tap.addr, (p as u64 + 1) & mask, tap.valid);
        let fin = b.dff(format!("{prefix}wfin{p}"), matched);
        let gated: Word = tap.data.iter().map(|&bit| b.and2(bit, fin)).collect();
        bind_word(&mut bind, &format!("wdata{p}"), &gated);
        bind.insert(format!("wen{p}"), fin);
    }
    let outputs = stitch(b, &prefix, comp, &bind);

    // Read ports: one output socket each (ids continue after the write
    // ports), driving the read data onto the port's bus through Fout.
    let nin = rf.write_ports.len();
    rf.read_ports
        .iter()
        .enumerate()
        .map(|(p, bus)| {
            let tap = &taps[usize::from(bus.0)];
            let matched =
                emit_id_match(b, &tap.addr, (nin as u64 + 1 + p as u64) & mask, tap.valid);
            let fout = b.dff(format!("{prefix}rfout{p}"), matched);
            let rdata = word_of(&outputs, &format!("rdata{p}"), width);
            let driven: Word = rdata.iter().map(|&bit| b.and2(bit, fout)).collect();
            BusDrive {
                bus: usize::from(bus.0),
                word: driven,
                drive: fout,
            }
        })
        .collect()
}

/// OR-merges every socket group's gated result word onto its bus and
/// exposes the merged traffic as primary outputs.
fn emit_fabric(b: &mut NetlistBuilder, buses: usize, width: usize, drives: &[&BusDrive]) {
    for bus in 0..buses {
        let ours: Vec<&&BusDrive> = drives.iter().filter(|d| d.bus == bus).collect();
        let (word, drive) = match ours.split_first() {
            None => {
                let zero = b.const0();
                (vec![zero; width], zero)
            }
            Some((first, rest)) => {
                let mut word = first.word.clone();
                let mut drive = first.drive;
                for d in rest {
                    word = b.or_word(&word, &d.word);
                    drive = b.or2(drive, d.drive);
                }
                (word, drive)
            }
        };
        b.output_word(&format!("bus{bus}_result"), &word);
        b.output(format!("bus{bus}_drive"), drive);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_arch::Architecture;

    #[test]
    fn figure9_elaborates_clean() {
        let nl = elaborate(&Architecture::figure9()).expect("figure9 elaborates");
        assert_eq!(nl.validate(), Ok(()));
        assert_eq!(nl.name(), "figure9");
        // 2 buses * (16 data + 5 addr + 1 valid) decoded-move inputs, plus
        // promoted component pins.
        assert!(nl.primary_inputs().len() > 2 * (16 + SOCKET_ID_BITS + 1));
        // Every bus exposes its merged result word.
        assert!(nl.find_net("bus0_data[0]").is_some());
        let outs: Vec<&str> = nl
            .primary_outputs()
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(outs.contains(&"bus0_result[15]"), "{outs:?}");
        assert!(outs.contains(&"bus1_drive"), "{outs:?}");
        assert!(outs.contains(&"ldst0_mem_we"), "{outs:?}");
        assert!(nl.area() > 0.0);
        assert!(nl.dff_count() > 100, "16-bit point has real state");
    }

    #[test]
    fn invalid_architecture_is_rejected() {
        let mut a = Architecture::figure9();
        a.buses = 0;
        assert!(matches!(
            elaborate(&a),
            Err(ElaborateError::Architecture(_))
        ));
        // A unit the component key cannot name is out of model, and a
        // refused point leaves the elaborator as it was.
        let mut regs = Architecture::figure9();
        regs.rfs[1].regs = 70_000;
        let mut width = Architecture::figure9();
        width.width = 70_000;
        let mut inc = IncrementalElaborator::new();
        let base = inc.advance(&Architecture::figure9()).unwrap().dump();
        for arch in [regs, width] {
            let refused = inc.advance(&arch).err();
            assert_eq!(refused, Some(ElaborateError::OutOfModel("figure9".into())));
        }
        assert_eq!(inc.advance(&Architecture::figure9()).unwrap().dump(), base);
        assert_eq!(inc.last_emitted(), 0);
    }

    #[test]
    fn incremental_walk_is_bit_identical_to_scratch() {
        // Mutate figure9 step by step the way a Gray walk would and check
        // every advance against a from-scratch elaboration.
        let mut points = Vec::new();
        let base = Architecture::figure9();
        points.push(base.clone());
        let mut p = base.clone();
        p.rfs[1].regs = 16;
        p.name = "p1".into();
        points.push(p.clone());
        p.fus[0].kind = FuKind::Mul; // alu0 slot becomes a multiplier
        p.name = "p2".into();
        points.push(p.clone());
        p.fus[1].trigger_bus = tta_arch::BusId(0);
        p.name = "p3".into();
        points.push(p.clone());
        // Jump back to the base point: a discontinuity.
        points.push(base);

        let mut inc = IncrementalElaborator::new();
        for point in &points {
            let fresh = elaborate(point).expect("scratch elaboration");
            let walked = inc.advance(point).expect("incremental elaboration");
            assert_eq!(walked.dump(), fresh.dump(), "point {}", point.name);
        }
        // The single-RF mutation at p1 must have reused the whole FU
        // prefix.
        let mut inc2 = IncrementalElaborator::new();
        inc2.advance(&points[0]).unwrap();
        inc2.advance(&points[1]).unwrap();
        assert!(inc2.last_reused() > points[1].fus.len());
    }
}
