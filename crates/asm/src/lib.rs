//! Text assembler / disassembler for TTA move programs.
//!
//! The format is line-oriented; one line is one instruction (one
//! cycle of parallel moves). `docs/SIMULATOR.md` documents it in
//! full; the shape:
//!
//! ```text
//! ; comments run to end of line
//! .width 16
//! .rf rf1 4 = 10 20 0 0
//! .mem = 7 7 7
//! .out rf1[2]
//! rf1[0] -> alu0.o, rf1[1] -> alu0.add
//! -
//! alu0.r -> rf1[2]
//! ```
//!
//! * `.width`, `.rf`, `.mem`, `.out` mirror the [`Program`] fields; an
//!   `.rf` holds 1–65,535 registers, and an `.out` may read only a
//!   register its file's `.rf` declares;
//! * a move is `src -> dst`; sources are `rf[reg]`, `fu.r` (result)
//!   or `imm0:42` (a constant riding an immediate unit); destinations
//!   are `fu.o` (operand), `fu.<opcode>` (trigger) or `rf[reg]`;
//! * `-` is an empty instruction (a stall cycle);
//! * `label:` names the next instruction index and `imm0:@label`
//!   delivers it, which is how jumps are written.
//!
//! [`disassemble`] emits a *canonical* form (no labels, decimal
//! constants, single spaces) and the pair round-trips exactly:
//! `assemble(disassemble(p)) == p` for any well-formed program, and
//! canonical text is a fixed point of `disassemble ∘ assemble` —
//! byte-identical, which CI checks with `cmp`.

#![warn(missing_docs)]

use std::fmt::Write as _;

use tta_sim::program::{MoveDst, MoveOp, MoveSrc, OpCode, OutputLoc, Program, RfImage};

/// An assembly failure, pointing at the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

/// The most registers one `.rf` may declare: the largest register file
/// the component model can name.
const MAX_RF_REGS: u64 = u16::MAX as u64;

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        msg: msg.into(),
    })
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn strip_comment(line: &str) -> &str {
    match line.find(';') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn parse_u64(tok: &str, line: usize) -> Result<u64, AsmError> {
    let parsed = if let Some(hex) = tok.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        tok.parse()
    };
    match parsed {
        Ok(v) => Ok(v),
        Err(_) => err(line, format!("expected a number, found `{tok}`")),
    }
}

/// Parses `name[idx]` into its parts, if the token has that shape.
fn parse_indexed(tok: &str, line: usize) -> Result<Option<(String, usize)>, AsmError> {
    let Some(open) = tok.find('[') else {
        return Ok(None);
    };
    let Some(rest) = tok[open..].strip_prefix('[') else {
        return Ok(None);
    };
    let Some(idx) = rest.strip_suffix(']') else {
        return err(line, format!("malformed register reference `{tok}`"));
    };
    let name = &tok[..open];
    if !is_ident(name) {
        return err(line, format!("bad register-file name in `{tok}`"));
    }
    let reg = idx.parse::<usize>().map_err(|_| AsmError {
        line,
        msg: format!("bad register index in `{tok}`"),
    })?;
    Ok(Some((name.to_string(), reg)))
}

fn parse_src(
    tok: &str,
    labels: &std::collections::HashMap<String, usize>,
    line: usize,
) -> Result<MoveSrc, AsmError> {
    if let Some((rf, reg)) = parse_indexed(tok, line)? {
        return Ok(MoveSrc::RfRead { rf, reg });
    }
    if let Some((unit, val)) = tok.split_once(':') {
        if !is_ident(unit) {
            return err(line, format!("bad immediate-unit name in `{tok}`"));
        }
        let value = if let Some(label) = val.strip_prefix('@') {
            match labels.get(label) {
                Some(&idx) => idx as u64,
                None => return err(line, format!("unknown label `{label}`")),
            }
        } else {
            parse_u64(val, line)?
        };
        return Ok(MoveSrc::Imm {
            unit: unit.to_string(),
            value,
        });
    }
    if let Some((fu, port)) = tok.split_once('.') {
        if port == "r" && is_ident(fu) {
            return Ok(MoveSrc::FuResult(fu.to_string()));
        }
        return err(line, format!("`{tok}` is not a readable port (only `.r`)"));
    }
    err(line, format!("unrecognised move source `{tok}`"))
}

fn parse_dst(tok: &str, line: usize) -> Result<MoveDst, AsmError> {
    if let Some((rf, reg)) = parse_indexed(tok, line)? {
        return Ok(MoveDst::RfWrite { rf, reg });
    }
    if let Some((fu, port)) = tok.split_once('.') {
        if !is_ident(fu) {
            return err(line, format!("bad unit name in `{tok}`"));
        }
        if port == "o" {
            return Ok(MoveDst::FuOperand(fu.to_string()));
        }
        if let Some(op) = OpCode::parse(port) {
            return Ok(MoveDst::FuTrigger {
                fu: fu.to_string(),
                op,
            });
        }
        return err(line, format!("unknown opcode or port `{port}` in `{tok}`"));
    }
    err(line, format!("unrecognised move destination `{tok}`"))
}

/// What a trimmed, comment-stripped line is.
enum LineKind<'a> {
    Blank,
    Directive(&'a str),
    Label(&'a str),
    Instruction(&'a str),
}

fn classify(line: &str) -> LineKind<'_> {
    let t = strip_comment(line).trim();
    if t.is_empty() {
        LineKind::Blank
    } else if let Some(d) = t.strip_prefix('.') {
        LineKind::Directive(d)
    } else if let Some(l) = t.strip_suffix(':') {
        if is_ident(l.trim()) {
            LineKind::Label(l.trim())
        } else {
            LineKind::Instruction(t)
        }
    } else {
        LineKind::Instruction(t)
    }
}

/// Assembles program text into a [`Program`].
///
/// # Errors
///
/// Returns the first syntax or consistency error with its 1-based
/// line number; see the module docs for the grammar.
pub fn assemble(text: &str) -> Result<Program, AsmError> {
    // Pass 1: bind labels to instruction indices.
    let mut labels = std::collections::HashMap::new();
    let mut n_instr = 0usize;
    for (i, raw) in text.lines().enumerate() {
        match classify(raw) {
            LineKind::Label(l) if labels.contains_key(l) => {
                return err(i + 1, format!("duplicate label `{l}`"));
            }
            LineKind::Label(l) => {
                labels.insert(l.to_string(), n_instr);
            }
            LineKind::Instruction(_) => n_instr += 1,
            _ => {}
        }
    }

    // Pass 2: directives and instructions.
    let mut width: Option<u32> = None;
    let mut rfs: Vec<RfImage> = Vec::new();
    let mut mem: Vec<u64> = Vec::new();
    // Each output with its line, checked against the `.rf` images once
    // all of them are declared.
    let mut outputs: Vec<(usize, OutputLoc)> = Vec::new();
    let mut instructions: Vec<Vec<MoveOp>> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        match classify(raw) {
            LineKind::Blank | LineKind::Label(_) => {}
            LineKind::Directive(d) => {
                let mut parts = d.split_whitespace();
                match parts.next() {
                    Some("width") => {
                        let tok = parts.next().ok_or(AsmError {
                            line,
                            msg: ".width needs a bit count".into(),
                        })?;
                        let w = parse_u64(tok, line)?;
                        if !(2..=64).contains(&w) {
                            return err(line, format!("width {w} out of range 2–64"));
                        }
                        if width.replace(w as u32).is_some() {
                            return err(line, "duplicate .width");
                        }
                        if parts.next().is_some() {
                            return err(line, "trailing tokens after .width");
                        }
                    }
                    Some("rf") => {
                        let name = parts.next().unwrap_or("");
                        if !is_ident(name) {
                            return err(line, ".rf needs a name");
                        }
                        if rfs.iter().any(|r| r.name == name) {
                            return err(line, format!("duplicate .rf `{name}`"));
                        }
                        let regs = parse_u64(parts.next().unwrap_or(""), line)?;
                        // Checked before the image is sized: the count is
                        // untrusted text.
                        if regs > MAX_RF_REGS {
                            return err(
                                line,
                                format!(
                                    ".rf `{name}`: {regs} registers, more than the \
                                     {MAX_RF_REGS} a register file can hold"
                                ),
                            );
                        }
                        if regs == 0 {
                            return err(line, format!(".rf `{name}`: no registers"));
                        }
                        let regs = regs as usize;
                        if parts.next() != Some("=") {
                            return err(line, ".rf expects `= v0 v1 …`");
                        }
                        let mut init = Vec::new();
                        for tok in parts {
                            init.push(parse_u64(tok, line)?);
                        }
                        if init.len() > regs {
                            return err(
                                line,
                                format!(".rf `{name}`: {} values for {regs} registers", init.len()),
                            );
                        }
                        init.resize(regs, 0);
                        rfs.push(RfImage {
                            name: name.to_string(),
                            regs,
                            init,
                        });
                    }
                    Some("mem") => {
                        if parts.next() != Some("=") {
                            return err(line, ".mem expects `= v0 v1 …`");
                        }
                        for tok in parts {
                            mem.push(parse_u64(tok, line)?);
                        }
                    }
                    Some("out") => {
                        for tok in parts {
                            match parse_indexed(tok, line)? {
                                Some((rf, reg)) => outputs.push((line, OutputLoc { rf, reg })),
                                None => {
                                    return err(
                                        line,
                                        format!(".out expects `rf[reg]`, found `{tok}`"),
                                    )
                                }
                            }
                        }
                    }
                    Some(other) => return err(line, format!("unknown directive `.{other}`")),
                    None => return err(line, "empty directive"),
                }
            }
            LineKind::Instruction(t) => {
                let mut moves = Vec::new();
                if t != "-" {
                    for mv in t.split(',') {
                        let mv = mv.trim();
                        let Some((src, dst)) = mv.split_once("->") else {
                            return err(line, format!("move `{mv}` has no `->`"));
                        };
                        moves.push(MoveOp {
                            src: parse_src(src.trim(), &labels, line)?,
                            dst: parse_dst(dst.trim(), line)?,
                        });
                    }
                }
                instructions.push(moves);
            }
        }
    }
    let Some(width) = width else {
        return err(text.lines().count().max(1), "missing .width directive");
    };
    for (line, out) in &outputs {
        if let Some(rf) = rfs
            .iter()
            .find(|rf| rf.name == out.rf && rf.regs <= out.reg)
        {
            return err(
                *line,
                format!(
                    ".out `{}[{}]`: .rf `{}` has {} registers",
                    out.rf, out.reg, rf.name, rf.regs
                ),
            );
        }
    }
    let outputs = outputs.into_iter().map(|(_, out)| out).collect();
    Ok(Program {
        width,
        rfs,
        mem,
        outputs,
        instructions,
    })
}

// The canonical spellings live on the program types themselves
// (`Display` in `tta_sim::program`), so the parser here and any
// renderer elsewhere (e.g. the CLI trace printer) can never drift.
fn write_src(out: &mut String, src: &MoveSrc) {
    let _ = write!(out, "{src}");
}

fn write_dst(out: &mut String, dst: &MoveDst) {
    let _ = write!(out, "{dst}");
}

/// Renders `program` in the canonical text form.
///
/// The output is deterministic, label-free and a fixed point:
/// assembling it and disassembling again is byte-identical.
pub fn disassemble(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".width {}", program.width);
    for rf in &program.rfs {
        let _ = write!(out, ".rf {} {} =", rf.name, rf.regs);
        for v in &rf.init {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
    }
    if !program.mem.is_empty() {
        let _ = write!(out, ".mem =");
        for v in &program.mem {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
    }
    if !program.outputs.is_empty() {
        let _ = write!(out, ".out");
        for o in &program.outputs {
            let _ = write!(out, " {}[{}]", o.rf, o.reg);
        }
        out.push('\n');
    }
    for instr in &program.instructions {
        if instr.is_empty() {
            out.push('-');
        } else {
            for (k, mv) in instr.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                write_src(&mut out, &mv.src);
                out.push_str(" -> ");
                write_dst(&mut out, &mv.dst);
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const HELLO: &str = "\
; add two registers, store the sum
.width 16
.rf rf1 4 = 10 20 0 0
.out rf1[2]
rf1[0] -> alu0.o, rf1[1] -> alu0.add
-
alu0.r -> rf1[2]
";

    #[test]
    fn assembles_and_round_trips() {
        let p = assemble(HELLO).unwrap();
        assert_eq!(p.width, 16);
        assert_eq!(p.instructions.len(), 3);
        assert_eq!(p.instructions[1].len(), 0);
        assert_eq!(p.outputs.len(), 1);
        let text = disassemble(&p);
        let p2 = assemble(&text).unwrap();
        assert_eq!(p, p2);
        assert_eq!(disassemble(&p2), text, "canonical text is a fixed point");
    }

    #[test]
    fn labels_resolve_to_instruction_indices() {
        let src = "\
.width 8
.rf rf1 1 = 5
top:
rf1[0] -> alu0.o, imm0:1 -> alu0.sub
imm0:@top -> pc0.jmp
";
        let p = assemble(src).unwrap();
        let MoveSrc::Imm { value, .. } = &p.instructions[1][0].src else {
            panic!("expected imm");
        };
        assert_eq!(*value, 0, "label binds to the next instruction index");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble(".width 16\nrf1[0] ->\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = assemble(".width 16\nalu0.r -> alu0.frobnicate\n").unwrap_err();
        assert!(e.msg.contains("frobnicate"), "{}", e.msg);
        let e = assemble("imm0:@nowhere -> pc0.jmp\n.width 8\n").unwrap_err();
        assert!(e.msg.contains("nowhere"));
    }

    #[test]
    fn missing_width_rejected() {
        assert!(assemble("-\n").is_err());
        assert!(assemble("").is_err());
    }

    #[test]
    fn rf_init_padded_and_bounded() {
        let p = assemble(".width 8\n.rf rf1 3 = 1\n").unwrap();
        assert_eq!(p.rfs[0].init, vec![1, 0, 0]);
        assert!(assemble(".width 8\n.rf rf1 1 = 1 2\n").is_err());
    }

    #[test]
    fn rf_register_count_is_bounded_before_sizing() {
        let p = assemble(".width 8\n.rf rf1 65535 =\n").unwrap();
        assert_eq!(p.rfs[0].init.len(), 65_535);
        for regs in ["65536", "1000000000", "4611686018427387904"] {
            let e = assemble(&format!(".width 16\n.rf rf1 {regs} =\n")).unwrap_err();
            assert_eq!(e.line, 2);
            assert_eq!(
                e.msg,
                format!(
                    ".rf `rf1`: {regs} registers, more than the 65535 a register file can hold"
                )
            );
        }
    }

    #[test]
    fn an_rf_without_registers_is_rejected() {
        let e = assemble(".width 16\n.rf rf1 0 =\n.out rf1[0]\n-\n").unwrap_err();
        assert_eq!((e.line, e.msg.as_str()), (2, ".rf `rf1`: no registers"));
    }

    #[test]
    fn an_output_past_its_declared_rf_is_rejected() {
        for src in [
            ".width 16\n.rf rf1 2 =\n.out rf1[5]\n-\n",
            // The check holds whichever directive comes first.
            ".width 16\n.out rf1[0] rf1[5]\n.rf rf1 2 =\n-\n",
        ] {
            let e = assemble(src).unwrap_err();
            assert_eq!(e.msg, ".out `rf1[5]`: .rf `rf1` has 2 registers", "{src}");
        }
        let e = assemble(".width 16\n.rf rf1 2 =\n.out rf1[2]\n").unwrap_err();
        assert_eq!(e.line, 3);
        // The last register, and a file the program declares no image
        // for, are accepted.
        let p = assemble(".width 16\n.rf rf1 2 =\n.out rf1[1] rf2[7]\n").unwrap();
        assert_eq!(p.outputs.len(), 2);
    }
}
