//! Resource-constrained transport (move) list scheduling.
//!
//! The scheduler maps a [`Dfg`] onto a concrete [`Architecture`]:
//! every operation becomes an operand move, a trigger move and (when the
//! result is used) a result move into a register file; moves contend for
//! bus slots (`nb` per cycle), register-file ports and functional units.
//! The produced schedule respects the paper's transport-timing relations
//! (2)–(8) by construction — `transports_per_fu` exposes them for the
//! [`tta_arch::timing::validate_relations`] checker.
//!
//! Two deliberate simplifications (documented in DESIGN.md) keep the
//! scheduler predictable without changing the shape of the area/time
//! trade-off: results always travel through a register file (no software
//! bypassing), and register-file overflow is charged as a fixed spill
//! penalty instead of scheduling explicit spill code.

use std::collections::HashMap;

use tta_arch::{Architecture, FuKind, OpTransport};

use crate::ir::{Dfg, FuClass, Op, ValueId};

/// Cycles charged per register-file overflow event (a store+load round
/// trip on a loaded machine).
pub const SPILL_PENALTY_CYCLES: u32 = 4;

/// Search window for a feasible cycle before declaring deadlock.
const SEARCH_LIMIT: u32 = 1 << 20;

/// Where a move starts or ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// Result register of FU `fus[i]`.
    FuResult(usize),
    /// Operand register of FU `fus[i]`.
    FuOperand(usize),
    /// Trigger register of FU `fus[i]`.
    FuTrigger(usize),
    /// A write port of RF `rfs[i]`.
    RfWrite(usize),
    /// A read port of RF `rfs[i]`.
    RfRead(usize),
    /// Immediate unit `fus[i]` (a constant rides the move slot).
    Imm(usize),
}

/// One scheduled data transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Cycle the transport occupies a bus.
    pub cycle: u32,
    /// Source.
    pub src: Endpoint,
    /// Destination.
    pub dst: Endpoint,
    /// The IR value transported.
    pub value: ValueId,
}

/// Which DFG node a trigger move fires: the binding an executable
/// lowering (`tta_sim`) needs to attach an opcode to each trigger.
/// Trigger cycles are unique per FU (relation 5), so `(fu, trigger)`
/// identifies the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Index of the DFG node executed.
    pub node: usize,
    /// Index of the executing FU in `arch.fus()`.
    pub fu: usize,
    /// The trigger cycle.
    pub trigger: u32,
}

/// Scheduling failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No FU instance can execute operations of this class.
    MissingFu(FuClass),
    /// The architecture failed validation.
    InvalidArchitecture(tta_arch::ArchitectureError),
    /// No feasible cycle found within the search window (resource
    /// starvation; indicates a degenerate architecture).
    ResourceDeadlock,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::MissingFu(c) => write!(f, "no functional unit for {c:?} operations"),
            ScheduleError::InvalidArchitecture(e) => write!(f, "invalid architecture: {e}"),
            ScheduleError::ResourceDeadlock => write!(f, "no feasible cycle within search window"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A complete schedule of one DFG on one architecture.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Total cycle count including spill penalties — the throughput axis
    /// of the exploration.
    pub cycles: u32,
    /// Makespan before spill penalties.
    pub makespan: u32,
    /// All scheduled moves.
    pub moves: Vec<Move>,
    /// Node → FU → trigger-cycle bindings, in scheduling order.
    pub ops: Vec<ScheduledOp>,
    /// Register-file overflow events.
    pub spills: u32,
    /// Per-FU operation transports (for timing-relation validation).
    pub transports: HashMap<usize, Vec<OpTransport>>,
}

impl Schedule {
    /// Moves per cycle averaged over the makespan — bus pressure.
    pub fn transport_density(&self, arch: &Architecture) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.moves.len() as f64 / (self.makespan as f64 * arch.bus_count() as f64)
    }

    /// Transports grouped by FU index (for utilisation reports).
    pub fn transports_per_fu(&self) -> &HashMap<usize, Vec<OpTransport>> {
        &self.transports
    }
}

/// Per-cycle counted resource.
#[derive(Debug, Clone, Default)]
struct Pool {
    used: Vec<u16>,
    cap: u16,
}

impl Pool {
    fn new(cap: usize) -> Self {
        Pool {
            used: Vec::new(),
            cap: cap as u16,
        }
    }

    fn free_at(&self, cycle: u32) -> bool {
        self.used.get(cycle as usize).is_none_or(|&u| u < self.cap)
    }

    fn take(&mut self, cycle: u32) {
        let idx = cycle as usize;
        if self.used.len() <= idx {
            self.used.resize(idx + 1, 0);
        }
        debug_assert!(self.used[idx] < self.cap, "over-subscribed pool");
        self.used[idx] += 1;
    }
}

/// Where a value lives once defined.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// Resident in RF `i`, readable from `available`.
    Rf { rf: usize, available: u32 },
    /// A constant, deliverable by any immediate unit at any cycle.
    Imm,
    /// Defined but never stored (result unused).
    Void,
}

/// The transport list scheduler.
#[derive(Debug)]
pub struct Scheduler<'a> {
    arch: &'a Architecture,
}

impl<'a> Scheduler<'a> {
    /// Creates a scheduler for `arch`.
    pub fn new(arch: &'a Architecture) -> Self {
        Scheduler { arch }
    }

    /// Schedules `dfg`, returning the complete move schedule.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::InvalidArchitecture`] if `arch` fails validation;
    /// * [`ScheduleError::MissingFu`] if the DFG uses an operation class
    ///   the architecture has no unit for.
    pub fn run(&self, dfg: &Dfg) -> Result<Schedule, ScheduleError> {
        self.arch
            .validate()
            .map_err(ScheduleError::InvalidArchitecture)?;
        let mut st = State::new(self.arch, dfg)?;

        // List scheduling: repeatedly pick the highest-priority ready node.
        let prio = dfg.priorities();
        let n = dfg.nodes().len();
        let mut scheduled = vec![false; n];
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(prio[i]));
        let mut done = 0;
        while done < n {
            let mut progressed = false;
            for &i in &order {
                if scheduled[i] {
                    continue;
                }
                let node = &dfg.nodes()[i];
                let ready = node.args.iter().all(|a| scheduled[a.index()]);
                if !ready {
                    continue;
                }
                st.schedule_node(dfg, i)?;
                scheduled[i] = true;
                done += 1;
                progressed = true;
            }
            assert!(progressed, "DFG is acyclic; some node must be ready");
        }

        Ok(st.finish())
    }
}

/// The operation class a unit of `kind` executes; `None` for the PC,
/// which the scheduler never consults.
fn class_of(kind: FuKind) -> Option<FuClass> {
    match kind {
        FuKind::Alu => Some(FuClass::Alu),
        FuKind::Cmp => Some(FuClass::Cmp),
        FuKind::Mul => Some(FuClass::Mul),
        FuKind::LdSt => Some(FuClass::LdSt),
        FuKind::Immediate => Some(FuClass::Imm),
        FuKind::Pc => None,
    }
}

/// Slot of `class` in [`SchedulerView`]'s per-class unit counts.
fn class_slot(class: FuClass) -> usize {
    match class {
        FuClass::Alu => 0,
        FuClass::Mul => 1,
        FuClass::Cmp => 2,
        FuClass::LdSt => 3,
        FuClass::Imm => 4,
    }
}

/// Everything [`Scheduler::run`] can observe of a *valid* architecture
/// when it schedules one DFG:
///
/// - the bus count;
/// - the unit count of every FU class the DFG uses (units of one class
///   are interchangeable, and a class no DFG node executes on is never
///   consulted — crypt has no MUL or CMP op, so those counts drop out);
/// - the ordered `(regs, nin, nout)` of every register file.
///
/// Names, port→bus attachments, the datapath width and the PC stay out.
/// Two valid architectures with equal views therefore get the same
/// `cycles`, `makespan` and `spills` for that DFG (the moves may bind
/// differently numbered units). Validity is *not* part of the view —
/// it depends on names and port buses — so a caller memoising schedules
/// by view must still run [`Architecture::validate`] per architecture.
///
/// A scheduler change that reads a new `Architecture` field must add
/// it here; the `schedule_view` differential test in `tta_core` is the
/// guard.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SchedulerView {
    buses: usize,
    /// Units per FU class slot (see `class_slot`); `None` for classes
    /// the DFG never uses.
    fus: [Option<usize>; 5],
    rfs: Vec<(usize, usize, usize)>,
}

impl SchedulerView {
    /// The view [`Scheduler::run`] has of `arch` while scheduling `dfg`.
    pub fn new(arch: &Architecture, dfg: &Dfg) -> Self {
        let mut fus = [None; 5];
        for node in dfg.nodes() {
            if let Some(class) = node.op.fu_class() {
                fus[class_slot(class)] = Some(0);
            }
        }
        for fu in arch.fus() {
            if let Some(n) = class_of(fu.kind).and_then(|c| fus[class_slot(c)].as_mut()) {
                *n += 1;
            }
        }
        SchedulerView {
            buses: arch.bus_count(),
            fus,
            rfs: arch
                .rfs()
                .iter()
                .map(|r| (r.regs, r.nin(), r.nout()))
                .collect(),
        }
    }
}

struct FuState {
    kind: FuKind,
    last_trigger: Option<u32>,
    /// Cycle the last result left R (next result may arrive after it).
    result_free_from: u32,
}

struct State<'a> {
    arch: &'a Architecture,
    buses: Pool,
    rf_write: Vec<Pool>,
    rf_read: Vec<Pool>,
    imm_out: Vec<Pool>,
    imm_units: Vec<usize>,
    fu_of_class: HashMap<FuClass, Vec<usize>>,
    fu_state: Vec<FuState>,
    place: Vec<Place>,
    remaining_reads: Vec<u32>,
    resident: Vec<u32>,
    is_output: Vec<bool>,
    moves: Vec<Move>,
    ops: Vec<ScheduledOp>,
    transports: HashMap<usize, Vec<OpTransport>>,
    spills: u32,
    makespan: u32,
    next_rf: usize,
}

impl<'a> State<'a> {
    fn new(arch: &'a Architecture, dfg: &Dfg) -> Result<Self, ScheduleError> {
        let mut fu_of_class: HashMap<FuClass, Vec<usize>> = HashMap::new();
        let mut imm_units = Vec::new();
        for (i, fu) in arch.fus().iter().enumerate() {
            let Some(class) = class_of(fu.kind) else {
                continue;
            };
            if class == FuClass::Imm {
                imm_units.push(i);
            }
            fu_of_class.entry(class).or_default().push(i);
        }
        // Comparisons may fall back to the ALU when no CMP unit exists?
        // No — the paper's templates always include the needed units; we
        // report MissingFu instead so the exploration can skip the point.
        for node in dfg.nodes() {
            if let Some(class) = node.op.fu_class() {
                let covered = match class {
                    FuClass::Imm => !imm_units.is_empty(),
                    _ => fu_of_class.get(&class).is_some_and(|v| !v.is_empty()),
                };
                if !covered {
                    return Err(ScheduleError::MissingFu(class));
                }
            }
        }
        let consumers = dfg.consumers();
        let n = dfg.nodes().len();
        let mut st = State {
            arch,
            buses: Pool::new(arch.bus_count()),
            rf_write: arch.rfs().iter().map(|r| Pool::new(r.nin())).collect(),
            rf_read: arch.rfs().iter().map(|r| Pool::new(r.nout())).collect(),
            imm_out: arch.fus().iter().map(|_| Pool::new(1)).collect(),
            imm_units,
            fu_of_class,
            fu_state: arch
                .fus()
                .iter()
                .map(|f| FuState {
                    kind: f.kind,
                    last_trigger: None,
                    result_free_from: 0,
                })
                .collect(),
            place: vec![Place::Void; n],
            remaining_reads: consumers.iter().map(|c| c.len() as u32).collect(),
            resident: vec![0; arch.rfs().len()],
            is_output: {
                let mut v = vec![false; n];
                for o in dfg.outputs() {
                    v[o.index()] = true;
                }
                v
            },
            moves: Vec::new(),
            ops: Vec::new(),
            transports: HashMap::new(),
            spills: 0,
            makespan: 0,
            next_rf: 0,
        };
        // Live-ins and constants get their places up front.
        for (i, node) in dfg.nodes().iter().enumerate() {
            match node.op {
                Op::Input => {
                    let rf = st.pick_rf();
                    st.resident[rf] += 1;
                    if st.resident[rf] > arch.rfs()[rf].regs as u32 {
                        st.spills += 1;
                    }
                    st.place[i] = Place::Rf { rf, available: 1 };
                }
                Op::Const(_) => st.place[i] = Place::Imm,
                _ => {}
            }
        }
        Ok(st)
    }

    fn pick_rf(&mut self) -> usize {
        // Prefer an RF with spare capacity; otherwise round-robin.
        let n = self.arch.rfs().len();
        for k in 0..n {
            let rf = (self.next_rf + k) % n;
            if self.resident[rf] < self.arch.rfs()[rf].regs as u32 {
                self.next_rf = (rf + 1) % n;
                return rf;
            }
        }
        let rf = self.next_rf;
        self.next_rf = (self.next_rf + 1) % n;
        rf
    }

    /// Is a read of `v` possible at `cycle` (source port + bus)?
    fn read_feasible(&self, v: ValueId, cycle: u32) -> bool {
        if !self.buses.free_at(cycle) {
            return false;
        }
        match self.place[v.index()] {
            Place::Rf { rf, available } => cycle >= available && self.rf_read[rf].free_at(cycle),
            Place::Imm => self
                .imm_units
                .iter()
                .any(|&u| self.imm_out[u].free_at(cycle)),
            Place::Void => false,
        }
    }

    /// Commits a read of `v` at `cycle` towards `dst`.
    fn commit_read(&mut self, v: ValueId, cycle: u32, dst: Endpoint) {
        self.buses.take(cycle);
        let src = match self.place[v.index()] {
            Place::Rf { rf, .. } => {
                self.rf_read[rf].take(cycle);
                self.remaining_reads[v.index()] -= 1;
                if self.remaining_reads[v.index()] == 0 && !self.is_output[v.index()] {
                    self.resident[rf] = self.resident[rf].saturating_sub(1);
                }
                Endpoint::RfRead(rf)
            }
            Place::Imm => {
                let unit = *self
                    .imm_units
                    .iter()
                    .find(|&&u| self.imm_out[u].free_at(cycle))
                    .expect("read_feasible checked an imm unit is free");
                self.imm_out[unit].take(cycle);
                Endpoint::Imm(unit)
            }
            Place::Void => unreachable!("reads of void values are rejected earlier"),
        };
        self.moves.push(Move {
            cycle,
            src,
            dst,
            value: v,
        });
        self.makespan = self.makespan.max(cycle);
    }

    /// Schedules node `i` of `dfg`.
    fn schedule_node(&mut self, dfg: &Dfg, i: usize) -> Result<(), ScheduleError> {
        let node = &dfg.nodes()[i];
        let Some(class) = node.op.fu_class() else {
            return Ok(()); // live-in: placed already
        };
        if class == FuClass::Imm {
            return Ok(()); // constants materialise at read time
        }
        let candidates: Vec<usize> = self.fu_of_class[&class].clone();

        // Earliest availability of each argument.
        let arg_avail = |st: &State, v: ValueId| -> u32 {
            match st.place[v.index()] {
                Place::Rf { available, .. } => available,
                Place::Imm => 1,
                Place::Void => 1,
            }
        };

        // Pick the FU reaching the earliest trigger cycle.
        let mut best: Option<(u32, Option<u32>, usize)> = None; // (t, o, fu)
        for &fu in &candidates {
            let fs = &self.fu_state[fu];
            let lat = fs.kind.latency();
            let mut lb = fs
                .last_trigger
                .map_or(1, |t| t + 1)
                .max(fs.result_free_from.saturating_sub(lat) + 1)
                .max(1);
            for a in &node.args {
                lb = lb.max(arg_avail(self, *a));
            }
            let found = self.find_slots(node, lb, fu)?;
            if best.is_none() || found.0 < best.as_ref().unwrap().0 {
                best = Some((found.0, found.1, fu));
            }
        }
        let (c_t, c_o, fu) = best.expect("at least one candidate FU");

        // Commit the input moves.
        match node.args.len() {
            0 => {}
            1 => self.commit_read(node.args[0], c_t, Endpoint::FuTrigger(fu)),
            2 => {
                self.commit_read(
                    node.args[0],
                    c_o.expect("binary op has operand cycle"),
                    Endpoint::FuOperand(fu),
                );
                self.commit_read(node.args[1], c_t, Endpoint::FuTrigger(fu));
            }
            _ => unreachable!("IR ops have at most 2 args"),
        }
        let lat = self.fu_state[fu].kind.latency();
        let r = c_t + lat;
        self.fu_state[fu].last_trigger = Some(c_t);
        self.ops.push(ScheduledOp {
            node: i,
            fu,
            trigger: c_t,
        });

        // Result move into an RF (when the value is used or is a live-out).
        let needs_result =
            node.op.has_result() && (self.remaining_reads[i] > 0 || self.is_output[i]);
        let fout;
        if needs_result {
            let rf = self.pick_rf();
            let mut w = r + 1;
            loop {
                if self.buses.free_at(w) && self.rf_write[rf].free_at(w) {
                    break;
                }
                w += 1;
                if w > r + SEARCH_LIMIT {
                    return Err(ScheduleError::ResourceDeadlock);
                }
            }
            self.buses.take(w);
            self.rf_write[rf].take(w);
            self.resident[rf] += 1;
            if self.resident[rf] > self.arch.rfs()[rf].regs as u32 {
                self.spills += 1;
            }
            self.place[i] = Place::Rf {
                rf,
                available: w + 1,
            };
            self.moves.push(Move {
                cycle: w,
                src: Endpoint::FuResult(fu),
                dst: Endpoint::RfWrite(rf),
                value: ValueId(i as u32),
            });
            self.makespan = self.makespan.max(w);
            self.fu_state[fu].result_free_from = w;
            fout = w;
        } else {
            self.place[i] = Place::Void;
            self.fu_state[fu].result_free_from = r;
            fout = r + 1;
        }
        self.makespan = self.makespan.max(r);

        // Record the transport for relation validation.
        let fin = match (c_o, node.args.len()) {
            (Some(o), 2) => o.min(c_t) - 1,
            _ => c_t - 1,
        };
        self.transports.entry(fu).or_default().push(OpTransport {
            o: if node.args.len() == 2 { c_o } else { None },
            t: c_t,
            r,
            fin,
            fout,
        });
        Ok(())
    }

    /// Finds the earliest `(trigger, operand)` cycles from `lb` on `fu`.
    fn find_slots(
        &self,
        node: &crate::ir::Node,
        lb: u32,
        fu: usize,
    ) -> Result<(u32, Option<u32>), ScheduleError> {
        let last_t = self.fu_state[fu].last_trigger.map_or(0, |t| t + 1);
        for c_t in lb..lb + SEARCH_LIMIT {
            match node.args.len() {
                0 => return Ok((c_t, None)),
                1 => {
                    if self.read_feasible(node.args[0], c_t) {
                        return Ok((c_t, None));
                    }
                }
                2 => {
                    if !self.read_feasible(node.args[1], c_t) {
                        continue;
                    }
                    // Operand move: latest feasible cycle ≤ c_t, strictly
                    // after the previous trigger (relation 5). Same-cycle
                    // needs two bus slots; `read_feasible` already checks
                    // slot counts, but both reads landing on one cycle must
                    // not exceed them — check pairwise.
                    let lo = last_t.max(arg_lower(self, node.args[0]));
                    let mut c_o = c_t;
                    while c_o >= lo {
                        if self.pair_feasible(node.args[0], c_o, node.args[1], c_t) {
                            return Ok((c_t, Some(c_o)));
                        }
                        if c_o == 0 {
                            break;
                        }
                        c_o -= 1;
                    }
                }
                _ => unreachable!(),
            }
        }
        return Err(ScheduleError::ResourceDeadlock);

        fn arg_lower(st: &State, v: ValueId) -> u32 {
            match st.place[v.index()] {
                Place::Rf { available, .. } => available,
                _ => 1,
            }
        }
    }

    /// Can reads of `a` at `ca` and `b` at `cb` coexist?
    fn pair_feasible(&self, a: ValueId, ca: u32, b: ValueId, cb: u32) -> bool {
        if !self.read_feasible(a, ca) || !self.read_feasible(b, cb) {
            return false;
        }
        if ca != cb {
            return true;
        }
        // Same cycle: need two bus slots and distinct port capacity.
        let bus_used = self.buses.used.get(ca as usize).copied().unwrap_or(0);
        if u32::from(bus_used) + 2 > self.arch.bus_count() as u32 {
            return false;
        }
        match (self.place[a.index()], self.place[b.index()]) {
            (Place::Rf { rf: ra, .. }, Place::Rf { rf: rb, .. }) if ra == rb => {
                let used = self.rf_read[ra].used.get(ca as usize).copied().unwrap_or(0);
                u32::from(used) + 2 <= self.arch.rfs()[ra].nout() as u32
            }
            (Place::Imm, Place::Imm) => {
                // Need two distinct free immediate units.
                self.imm_units
                    .iter()
                    .filter(|&&u| self.imm_out[u].free_at(ca))
                    .count()
                    >= 2
            }
            _ => true,
        }
    }

    fn finish(self) -> Schedule {
        let makespan = self.makespan + 1;
        Schedule {
            cycles: makespan + self.spills * SPILL_PENALTY_CYCLES,
            makespan,
            moves: self.moves,
            ops: self.ops,
            spills: self.spills,
            transports: self.transports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_arch::template::TemplateBuilder;
    use tta_arch::{validate_relations, Architecture};

    fn chain_dfg(len: usize) -> Dfg {
        let mut dfg = Dfg::new(16);
        let mut v = dfg.input();
        let one = dfg.constant(1);
        for _ in 0..len {
            v = dfg.op(Op::Add, &[v, one]);
        }
        dfg.mark_output(v);
        dfg
    }

    fn parallel_dfg(width: usize) -> Dfg {
        let mut dfg = Dfg::new(16);
        let a = dfg.input();
        let b = dfg.input();
        let mut vs = Vec::new();
        for _ in 0..width {
            vs.push(dfg.op(Op::Xor, &[a, b]));
        }
        // Reduce so everything is live-out-relevant.
        let mut acc = vs[0];
        for v in &vs[1..] {
            acc = dfg.op(Op::Or, &[acc, *v]);
        }
        dfg.mark_output(acc);
        dfg
    }

    #[test]
    fn schedules_simple_chain() {
        let arch = Architecture::figure9();
        let s = Scheduler::new(&arch).run(&chain_dfg(5)).unwrap();
        assert!(s.cycles >= 5, "chain of 5 dependent adds takes >= 5 cycles");
        // 5 ops * (2 reads + 1 write) = 15 moves.
        assert_eq!(s.moves.len(), 15);
    }

    #[test]
    fn schedules_respect_timing_relations() {
        let arch = Architecture::figure9();
        for dfg in [chain_dfg(8), parallel_dfg(6)] {
            let s = Scheduler::new(&arch).run(&dfg).unwrap();
            for (fu, ops) in s.transports_per_fu() {
                assert_eq!(validate_relations(ops), Ok(()), "fu {fu}");
            }
        }
    }

    #[test]
    fn more_buses_never_slower() {
        let dfg = parallel_dfg(10);
        let mut last = u32::MAX;
        for nb in [1usize, 2, 3, 4] {
            let arch = TemplateBuilder::new(format!("b{nb}"), 16, nb)
                .fu(FuKind::Alu)
                .fu(FuKind::Alu)
                .fu(FuKind::Immediate)
                .fu(FuKind::LdSt)
                .fu(FuKind::Pc)
                .rf(16, 2, 2)
                .build();
            let s = Scheduler::new(&arch).run(&dfg).unwrap();
            assert!(
                s.cycles <= last,
                "bus count {nb} slowed down: {} > {last}",
                s.cycles
            );
            last = s.cycles;
        }
    }
    use tta_arch::FuKind;

    #[test]
    fn two_alus_faster_than_one_on_parallel_work() {
        let dfg = parallel_dfg(12);
        let one = TemplateBuilder::new("one", 16, 4)
            .fu(FuKind::Alu)
            .fu(FuKind::Immediate)
            .fu(FuKind::LdSt)
            .fu(FuKind::Pc)
            .rf(16, 2, 2)
            .build();
        let two = TemplateBuilder::new("two", 16, 4)
            .fu(FuKind::Alu)
            .fu(FuKind::Alu)
            .fu(FuKind::Immediate)
            .fu(FuKind::LdSt)
            .fu(FuKind::Pc)
            .rf(16, 2, 2)
            .build();
        let s1 = Scheduler::new(&one).run(&dfg).unwrap();
        let s2 = Scheduler::new(&two).run(&dfg).unwrap();
        assert!(s2.cycles < s1.cycles, "{} !< {}", s2.cycles, s1.cycles);
    }

    #[test]
    fn missing_mul_reported() {
        let mut dfg = Dfg::new(16);
        let a = dfg.input();
        let b = dfg.input();
        let m = dfg.op(Op::Mul, &[a, b]);
        dfg.mark_output(m);
        let arch = Architecture::figure9(); // no MUL in Figure 9
        assert_eq!(
            Scheduler::new(&arch).run(&dfg).unwrap_err(),
            ScheduleError::MissingFu(FuClass::Mul)
        );
    }

    #[test]
    fn tiny_rf_causes_spills() {
        // Many simultaneously-live values on a 2-register RF.
        let mut dfg = Dfg::new(16);
        let a = dfg.input();
        let b = dfg.input();
        let mut vs = Vec::new();
        for k in 0..8 {
            let c = dfg.constant(k);
            let x = dfg.op(Op::Add, &[a, c]);
            vs.push(dfg.op(Op::Xor, &[x, b]));
        }
        let mut acc = vs[0];
        for v in &vs[1..] {
            acc = dfg.op(Op::Or, &[acc, *v]);
        }
        dfg.mark_output(acc);
        let small = TemplateBuilder::new("small", 16, 2)
            .fu(FuKind::Alu)
            .fu(FuKind::Immediate)
            .fu(FuKind::LdSt)
            .fu(FuKind::Pc)
            .rf(2, 1, 2)
            .build();
        let big = TemplateBuilder::new("big", 16, 2)
            .fu(FuKind::Alu)
            .fu(FuKind::Immediate)
            .fu(FuKind::LdSt)
            .fu(FuKind::Pc)
            .rf(16, 1, 2)
            .build();
        let ss = Scheduler::new(&small).run(&dfg).unwrap();
        let sb = Scheduler::new(&big).run(&dfg).unwrap();
        assert!(ss.spills > 0);
        assert_eq!(sb.spills, 0);
        assert!(ss.cycles > sb.cycles);
    }

    #[test]
    fn view_ignores_what_the_scheduler_cannot_observe() {
        // The chain DFG runs on ALUs and immediates only.
        let dfg = chain_dfg(6);
        let base = Architecture::figure9();
        let view = SchedulerView::new(&base, &dfg);
        let mut renamed = base.clone();
        renamed.name = "other".into();
        renamed.width = 32;
        renamed.fus[0].trigger_bus = tta_arch::BusId(1);
        renamed.rfs[0].read_ports[0] = tta_arch::BusId(1);
        let mut more_cmps = base.clone();
        more_cmps.fus.push(more_cmps.fus[1].clone());
        more_cmps.fus.last_mut().unwrap().name = "cmp1".into();
        for arch in [renamed, more_cmps] {
            assert_eq!(arch.validate(), Ok(()));
            assert_eq!(SchedulerView::new(&arch, &dfg), view, "{}", arch.name);
            let (a, b) = (
                Scheduler::new(&base).run(&dfg).unwrap(),
                Scheduler::new(&arch).run(&dfg).unwrap(),
            );
            assert_eq!(
                (a.cycles, a.makespan, a.spills),
                (b.cycles, b.makespan, b.spills)
            );
        }
    }

    #[test]
    fn every_view_field_changes_the_view() {
        let dfg = chain_dfg(6);
        let base = Architecture::figure9();
        let view = SchedulerView::new(&base, &dfg);
        let mut variants: Vec<(&str, Architecture)> = Vec::new();
        let mut a = base.clone();
        a.buses += 1;
        variants.push(("bus count", a));
        let mut a = base.clone();
        let mut alu = a.fus[0].clone();
        alu.name = "alu1".into();
        a.fus.push(alu);
        variants.push(("used-class count", a));
        let mut a = base.clone();
        a.rfs[1].regs += 1;
        variants.push(("rf regs", a));
        let mut a = base.clone();
        a.rfs[1].write_ports.push(tta_arch::BusId(0));
        variants.push(("rf nin", a));
        let mut a = base.clone();
        a.rfs[1].read_ports.push(tta_arch::BusId(0));
        variants.push(("rf nout", a));
        let mut a = base.clone();
        a.rfs.swap(0, 1);
        variants.push(("rf order", a));
        for (what, arch) in variants {
            assert_ne!(SchedulerView::new(&arch, &dfg), view, "{what}");
        }
    }

    #[test]
    fn loads_and_stores_schedule() {
        let mut dfg = Dfg::new(16);
        let addr = dfg.constant(4);
        let v = dfg.op(Op::Load, &[addr]);
        let one = dfg.constant(1);
        let v2 = dfg.op(Op::Add, &[v, one]);
        dfg.op(Op::Store, &[addr, v2]);
        let arch = Architecture::figure9();
        let s = Scheduler::new(&arch).run(&dfg).unwrap();
        // load trigger + result write + 2 add reads + add result + 2
        // store input moves = 7.
        assert_eq!(s.moves.len(), 7);
    }
}
