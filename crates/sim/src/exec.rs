//! The cycle-accurate interpreter.
//!
//! One instruction is one cycle. Within a cycle the machine behaves
//! like the scheduler's timing model:
//!
//! 1. results whose latency expired land in their FU result registers;
//! 2. every move's source is read against *pre-cycle* state (an RF
//!    write at cycle `w` is readable from `w + 1`);
//! 3. resource legality is checked — moves ≤ buses, RF reads ≤ read
//!    ports, RF writes ≤ write ports, one constant per immediate unit,
//!    no two writes to the same register — and any violation is a hard
//!    [`SimError`], never a silent stall or drop;
//! 4. operand registers latch, then triggers fire (so an operand and
//!    trigger move in the same cycle cooperate), then RF writes land.
//!
//! The simulator never inserts wait states: a program that reads a
//! result before its latency expired gets [`SimError::ResultNotReady`].
//! That is what makes "executed cycles == scheduled cycles" a real
//! validation of the analytic model rather than a tautology.

use std::collections::VecDeque;

use tta_arch::{Architecture, FuKind};

use crate::program::{MoveDst, MoveSrc, OpCode, Program};

/// Knobs for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Abort with [`SimError::CycleLimit`] after this many cycles
    /// (guards against jump loops in hand-written programs).
    pub max_cycles: u64,
    /// Accept programs whose RF images declare more registers than the
    /// architecture provides. Lowered programs use this to mirror the
    /// scheduler's fixed-penalty spill model (overflow registers stand
    /// in for spill slots); hand-written programs should leave it off.
    pub allow_register_overflow: bool,
}

impl SimOptions {
    /// The options every lowered program runs under: the default cycle
    /// limit, with register overflow allowed for the spill convention.
    pub const LOWERED: SimOptions = SimOptions {
        max_cycles: 1 << 22,
        allow_register_overflow: true,
    };
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_cycles: SimOptions::LOWERED.max_cycles,
            allow_register_overflow: false,
        }
    }
}

/// A simulation failure: the program is illegal on this architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A move names a unit or register file the architecture does not
    /// have (or uses it in a role it cannot play).
    UnconnectedSocket {
        /// The offending unit/RF name as written in the program.
        name: String,
    },
    /// A register index beyond the register file.
    RegisterOutOfRange {
        /// Register-file name.
        rf: String,
        /// Offending register index.
        reg: usize,
        /// Registers actually available.
        regs: usize,
    },
    /// More parallel moves than buses.
    BusContention {
        /// Cycle of the violation.
        cycle: u64,
        /// Moves issued.
        moves: usize,
        /// Buses available.
        buses: usize,
    },
    /// A per-cycle port limit exceeded (RF read/write ports, immediate
    /// unit output).
    PortContention {
        /// Cycle of the violation.
        cycle: u64,
        /// Human-readable description of the oversubscribed resource.
        resource: String,
    },
    /// Two moves target the same register in one cycle.
    DoubleWrite {
        /// Cycle of the violation.
        cycle: u64,
        /// The doubly-written destination.
        dst: String,
    },
    /// A result register was read before any result landed in it.
    ResultNotReady {
        /// Cycle of the read.
        cycle: u64,
        /// FU whose result register was read.
        fu: String,
    },
    /// A two-input operation triggered before its operand register was
    /// ever written.
    OperandUnset {
        /// Cycle of the trigger.
        cycle: u64,
        /// FU that was triggered.
        fu: String,
    },
    /// The opcode does not belong to the triggered unit's kind.
    WrongUnitClass {
        /// FU that was triggered.
        fu: String,
        /// Opcode that rode the trigger.
        op: OpCode,
    },
    /// A load or store with an empty memory image.
    EmptyMemory {
        /// Cycle of the access.
        cycle: u64,
    },
    /// A jump beyond one-past-the-end of the program.
    InvalidJumpTarget {
        /// Cycle of the jump.
        cycle: u64,
        /// Requested instruction index.
        target: u64,
        /// Program length.
        len: usize,
    },
    /// `SimOptions::max_cycles` exceeded.
    CycleLimit {
        /// The configured limit.
        limit: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnconnectedSocket { name } => {
                write!(f, "unconnected socket: no unit `{name}` in this role")
            }
            SimError::RegisterOutOfRange { rf, reg, regs } => {
                write!(f, "register {rf}[{reg}] out of range ({regs} registers)")
            }
            SimError::BusContention {
                cycle,
                moves,
                buses,
            } => write!(f, "cycle {cycle}: {moves} moves on {buses} buses"),
            SimError::PortContention { cycle, resource } => {
                write!(f, "cycle {cycle}: port contention on {resource}")
            }
            SimError::DoubleWrite { cycle, dst } => {
                write!(f, "cycle {cycle}: double write to {dst}")
            }
            SimError::ResultNotReady { cycle, fu } => {
                write!(
                    f,
                    "cycle {cycle}: result of {fu} read before it was produced"
                )
            }
            SimError::OperandUnset { cycle, fu } => {
                write!(
                    f,
                    "cycle {cycle}: {fu} triggered with operand never written"
                )
            }
            SimError::WrongUnitClass { fu, op } => {
                write!(f, "opcode `{}` cannot execute on {fu}", op.mnemonic())
            }
            SimError::EmptyMemory { cycle } => {
                write!(f, "cycle {cycle}: memory access with empty memory image")
            }
            SimError::InvalidJumpTarget { cycle, target, len } => {
                write!(
                    f,
                    "cycle {cycle}: jump to {target} beyond program end {len}"
                )
            }
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} exceeded"),
        }
    }
}

impl std::error::Error for SimError {}

/// One executed move, with the value that travelled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMove {
    /// Source as written in the program.
    pub src: MoveSrc,
    /// Destination as written in the program.
    pub dst: MoveDst,
    /// The transported (masked) value.
    pub value: u64,
}

/// Everything that happened in one cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCycle {
    /// Cycle number (0-based, counts executed instructions).
    pub cycle: u64,
    /// Instruction index executed this cycle.
    pub instr: usize,
    /// The moves, in program order.
    pub moves: Vec<TraceMove>,
}

/// The deterministic record of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Total executed cycles (one per instruction issued).
    pub cycles: u64,
    /// Per-cycle move log.
    pub steps: Vec<TraceCycle>,
    /// Final register-file state, `(name, registers)` per bound RF.
    pub rfs: Vec<(String, Vec<u64>)>,
    /// Final data-memory state.
    pub mem: Vec<u64>,
    /// The program's declared outputs, read from the final RF state.
    pub outputs: Vec<u64>,
}

/// Per-FU datapath state.
struct FuSim {
    kind: FuKind,
    operand: u64,
    operand_set: bool,
    result: Option<u64>,
    /// Results in flight: `(ready_cycle, value)`, in trigger order.
    pending: VecDeque<(u64, u64)>,
}

/// The cycle-accurate simulator: binds a [`Program`] to an
/// [`Architecture`] and executes it.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    arch: &'a Architecture,
    options: SimOptions,
}

impl<'a> Simulator<'a> {
    /// A simulator for `arch` with default options.
    pub fn new(arch: &'a Architecture) -> Self {
        Simulator {
            arch,
            options: SimOptions::default(),
        }
    }

    /// Replaces the run options.
    pub fn options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs `program` to completion and returns its trace.
    ///
    /// # Errors
    ///
    /// Any structural or resource violation aborts with the matching
    /// [`SimError`]; see the module docs for the legality rules.
    pub fn run(&self, program: &Program) -> Result<Trace, SimError> {
        let mask = program.mask();
        let width = u64::from(program.width);
        let fu_index = |name: &str| self.arch.fus().iter().position(|f| f.name == name);
        let rf_index = |name: &str| self.arch.rfs().iter().position(|r| r.name == name);

        // Bind register files: architecture capacity, overridden by the
        // program's (possibly larger, if allowed) image.
        let mut rf_state: Vec<Vec<u64>> =
            self.arch.rfs().iter().map(|r| vec![0u64; r.regs]).collect();
        for image in &program.rfs {
            let ri = rf_index(&image.name).ok_or_else(|| SimError::UnconnectedSocket {
                name: image.name.clone(),
            })?;
            let hw_regs = self.arch.rfs()[ri].regs;
            if image.regs > hw_regs && !self.options.allow_register_overflow {
                return Err(SimError::RegisterOutOfRange {
                    rf: image.name.clone(),
                    reg: image.regs - 1,
                    regs: hw_regs,
                });
            }
            let mut state = vec![0u64; image.regs.max(hw_regs)];
            for (reg, &v) in image.init.iter().enumerate() {
                if reg < state.len() {
                    state[reg] = v & mask;
                }
            }
            rf_state[ri] = state;
        }

        let mut fu_state: Vec<FuSim> = self
            .arch
            .fus()
            .iter()
            .map(|f| FuSim {
                kind: f.kind,
                operand: 0,
                operand_set: false,
                result: None,
                pending: VecDeque::new(),
            })
            .collect();
        let mut mem = program.mem.clone();

        let mut steps = Vec::new();
        let mut cycle: u64 = 0;
        let mut pc: usize = 0;
        while pc < program.instructions.len() {
            if cycle >= self.options.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.options.max_cycles,
                });
            }
            // 1. Land results whose latency expired.
            for fu in &mut fu_state {
                while fu.pending.front().is_some_and(|&(ready, _)| ready <= cycle) {
                    let (_, v) = fu.pending.pop_front().expect("front checked");
                    fu.result = Some(v);
                }
            }

            let instr = &program.instructions[pc];
            if instr.len() > self.arch.bus_count() {
                return Err(SimError::BusContention {
                    cycle,
                    moves: instr.len(),
                    buses: self.arch.bus_count(),
                });
            }

            // 2. Read every source against pre-cycle state, counting
            //    port usage as we go.
            let mut rf_reads = vec![0usize; self.arch.rfs().len()];
            let mut imm_out = vec![0usize; self.arch.fus().len()];
            let mut values = Vec::with_capacity(instr.len());
            for mv in instr {
                let v = match &mv.src {
                    MoveSrc::FuResult(name) => {
                        let fi = fu_index(name)
                            .filter(|&fi| self.arch.fus()[fi].kind != FuKind::Immediate)
                            .ok_or_else(|| SimError::UnconnectedSocket { name: name.clone() })?;
                        fu_state[fi]
                            .result
                            .ok_or_else(|| SimError::ResultNotReady {
                                cycle,
                                fu: name.clone(),
                            })?
                    }
                    MoveSrc::RfRead { rf, reg } => {
                        let ri = rf_index(rf)
                            .ok_or_else(|| SimError::UnconnectedSocket { name: rf.clone() })?;
                        let state = &rf_state[ri];
                        if *reg >= state.len() {
                            return Err(SimError::RegisterOutOfRange {
                                rf: rf.clone(),
                                reg: *reg,
                                regs: state.len(),
                            });
                        }
                        rf_reads[ri] += 1;
                        if rf_reads[ri] > self.arch.rfs()[ri].nout() {
                            return Err(SimError::PortContention {
                                cycle,
                                resource: format!("{rf} read ports"),
                            });
                        }
                        state[*reg]
                    }
                    MoveSrc::Imm { unit, value } => {
                        let fi = fu_index(unit)
                            .filter(|&fi| self.arch.fus()[fi].kind == FuKind::Immediate)
                            .ok_or_else(|| SimError::UnconnectedSocket { name: unit.clone() })?;
                        imm_out[fi] += 1;
                        if imm_out[fi] > 1 {
                            return Err(SimError::PortContention {
                                cycle,
                                resource: format!("{unit} output"),
                            });
                        }
                        value & mask
                    }
                };
                values.push(v & mask);
            }

            // 3. Check destinations: no double writes, ports respected.
            let mut operand_hit = vec![false; self.arch.fus().len()];
            let mut trigger_hit = vec![false; self.arch.fus().len()];
            let mut rf_writes = vec![0usize; self.arch.rfs().len()];
            let mut written: Vec<(usize, usize)> = Vec::new();
            for mv in instr {
                match &mv.dst {
                    MoveDst::FuOperand(name) => {
                        let fi = fu_index(name)
                            .filter(|&fi| self.arch.fus()[fi].kind != FuKind::Immediate)
                            .ok_or_else(|| SimError::UnconnectedSocket { name: name.clone() })?;
                        if operand_hit[fi] {
                            return Err(SimError::DoubleWrite {
                                cycle,
                                dst: format!("{name}.o"),
                            });
                        }
                        operand_hit[fi] = true;
                    }
                    MoveDst::FuTrigger { fu, op } => {
                        let fi = fu_index(fu)
                            .ok_or_else(|| SimError::UnconnectedSocket { name: fu.clone() })?;
                        if self.arch.fus()[fi].kind != op.fu_kind() {
                            return Err(SimError::WrongUnitClass {
                                fu: fu.clone(),
                                op: *op,
                            });
                        }
                        if trigger_hit[fi] {
                            return Err(SimError::DoubleWrite {
                                cycle,
                                dst: format!("{fu}.t"),
                            });
                        }
                        trigger_hit[fi] = true;
                    }
                    MoveDst::RfWrite { rf, reg } => {
                        let ri = rf_index(rf)
                            .ok_or_else(|| SimError::UnconnectedSocket { name: rf.clone() })?;
                        if *reg >= rf_state[ri].len() {
                            return Err(SimError::RegisterOutOfRange {
                                rf: rf.clone(),
                                reg: *reg,
                                regs: rf_state[ri].len(),
                            });
                        }
                        rf_writes[ri] += 1;
                        if rf_writes[ri] > self.arch.rfs()[ri].nin() {
                            return Err(SimError::PortContention {
                                cycle,
                                resource: format!("{rf} write ports"),
                            });
                        }
                        if written.contains(&(ri, *reg)) {
                            return Err(SimError::DoubleWrite {
                                cycle,
                                dst: format!("{rf}[{reg}]"),
                            });
                        }
                        written.push((ri, *reg));
                    }
                }
            }

            // 4a. Operand registers latch first …
            for (mv, &v) in instr.iter().zip(&values) {
                if let MoveDst::FuOperand(name) = &mv.dst {
                    let fi = fu_index(name).expect("checked above");
                    fu_state[fi].operand = v;
                    fu_state[fi].operand_set = true;
                }
            }
            // 4b. … then triggers fire …
            let mut next_pc: Option<usize> = None;
            for (mv, &t) in instr.iter().zip(&values) {
                let MoveDst::FuTrigger { fu, op } = &mv.dst else {
                    continue;
                };
                let fi = fu_index(fu).expect("checked above");
                let o = fu_state[fi].operand;
                if op.arity() == 2 && !fu_state[fi].operand_set {
                    return Err(SimError::OperandUnset {
                        cycle,
                        fu: fu.clone(),
                    });
                }
                match op {
                    OpCode::Jmp | OpCode::Cjmp => {
                        let taken = *op == OpCode::Jmp || o != 0;
                        if taken {
                            if t > program.instructions.len() as u64 {
                                return Err(SimError::InvalidJumpTarget {
                                    cycle,
                                    target: t,
                                    len: program.instructions.len(),
                                });
                            }
                            next_pc = Some(t as usize);
                        }
                    }
                    OpCode::St => {
                        if mem.is_empty() {
                            return Err(SimError::EmptyMemory { cycle });
                        }
                        let idx = (o as usize) % mem.len();
                        mem[idx] = t & mask;
                    }
                    _ => {
                        let raw = match op {
                            OpCode::Add => o.wrapping_add(t),
                            OpCode::Sub => o.wrapping_sub(t),
                            OpCode::Shl => o << (t % width),
                            OpCode::Shr => (o & mask) >> (t % width),
                            OpCode::And => o & t,
                            OpCode::Or => o | t,
                            OpCode::Xor => o ^ t,
                            OpCode::Not => !t,
                            OpCode::Mul => o.wrapping_mul(t),
                            OpCode::Eq => u64::from(o == t),
                            OpCode::Ne => u64::from(o != t),
                            OpCode::Ltu => u64::from(o < t),
                            OpCode::Geu => u64::from(o >= t),
                            OpCode::Ld => {
                                if mem.is_empty() {
                                    return Err(SimError::EmptyMemory { cycle });
                                }
                                mem[(t as usize) % mem.len()]
                            }
                            OpCode::St | OpCode::Jmp | OpCode::Cjmp => unreachable!(),
                        };
                        let ready = cycle + u64::from(fu_state[fi].kind.latency());
                        fu_state[fi].pending.push_back((ready, raw & mask));
                    }
                }
            }
            // 4c. … and RF writes land last.
            for (mv, &v) in instr.iter().zip(&values) {
                if let MoveDst::RfWrite { rf, reg } = &mv.dst {
                    let ri = rf_index(rf).expect("checked above");
                    rf_state[ri][*reg] = v;
                }
            }

            steps.push(TraceCycle {
                cycle,
                instr: pc,
                moves: instr
                    .iter()
                    .zip(&values)
                    .map(|(mv, &value)| TraceMove {
                        src: mv.src.clone(),
                        dst: mv.dst.clone(),
                        value,
                    })
                    .collect(),
            });
            cycle += 1;
            pc = next_pc.unwrap_or(pc + 1);
        }

        // Read the declared outputs from final state.
        let mut outputs = Vec::with_capacity(program.outputs.len());
        for out in &program.outputs {
            let ri = rf_index(&out.rf).ok_or_else(|| SimError::UnconnectedSocket {
                name: out.rf.clone(),
            })?;
            let state = &rf_state[ri];
            if out.reg >= state.len() {
                return Err(SimError::RegisterOutOfRange {
                    rf: out.rf.clone(),
                    reg: out.reg,
                    regs: state.len(),
                });
            }
            outputs.push(state[out.reg]);
        }

        Ok(Trace {
            cycles: cycle,
            steps,
            rfs: self
                .arch
                .rfs()
                .iter()
                .zip(rf_state)
                .map(|(r, s)| (r.name.clone(), s))
                .collect(),
            mem,
            outputs,
        })
    }
}
