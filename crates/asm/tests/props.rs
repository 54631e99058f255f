//! Round-trip stability of the assembler on randomized programs:
//! `assemble(disassemble(p)) == p`, and canonical text is a byte-exact
//! fixed point of `disassemble ∘ assemble`.

use proptest::prelude::*;
use tta_asm::{assemble, disassemble};
use tta_sim::program::{MoveDst, MoveOp, MoveSrc, OutputLoc, Program, RfImage, OPCODES};

const FUS: [&str; 5] = ["alu0", "cmp0", "ldst0", "imm0", "pc0"];
const RFS: [&str; 2] = ["rf1", "rf2"];

/// Deterministically expands generated tuples into a (syntactically
/// arbitrary, not necessarily executable) program — round-trip is a
/// purely textual property. The assembler does check each `.rf` against
/// its `.out` locations, so every image has a register and every output
/// names one of its file's registers.
#[allow(clippy::type_complexity)]
fn build_program(
    width: u32,
    rf1_init: Vec<u64>,
    rf2_init: Vec<u64>,
    mem: Vec<u64>,
    outs: Vec<(u8, usize)>,
    moves: Vec<(u8, u8, u8, usize, u64, bool)>,
) -> Program {
    let mut instructions: Vec<Vec<MoveOp>> = vec![Vec::new()];
    for (srcsel, dstsel, fu, reg, val, brk) in moves {
        let fu_name = FUS[fu as usize % FUS.len()].to_string();
        let rf_name = RFS[reg % RFS.len()].to_string();
        let src = match srcsel % 3 {
            0 => MoveSrc::FuResult(fu_name.clone()),
            1 => MoveSrc::RfRead {
                rf: rf_name.clone(),
                reg,
            },
            _ => MoveSrc::Imm {
                unit: "imm0".to_string(),
                value: val,
            },
        };
        let dst = match dstsel % 3 {
            0 => MoveDst::FuOperand(fu_name),
            1 => MoveDst::FuTrigger {
                fu: fu_name,
                op: OPCODES[(reg + val as usize) % OPCODES.len()],
            },
            _ => MoveDst::RfWrite { rf: rf_name, reg },
        };
        instructions
            .last_mut()
            .expect("non-empty")
            .push(MoveOp { src, dst });
        if brk {
            instructions.push(Vec::new());
        }
    }
    let regs = [rf1_init.len(), rf2_init.len()];
    Program {
        width,
        rfs: vec![
            RfImage {
                name: "rf1".to_string(),
                regs: rf1_init.len(),
                init: rf1_init,
            },
            RfImage {
                name: "rf2".to_string(),
                regs: rf2_init.len(),
                init: rf2_init,
            },
        ],
        mem,
        outputs: outs
            .into_iter()
            .map(|(rf, reg)| {
                let rf = rf as usize % RFS.len();
                OutputLoc {
                    rf: RFS[rf].to_string(),
                    reg: reg % regs[rf],
                }
            })
            .collect(),
        instructions,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn assemble_inverts_disassemble(
        width in 2u32..=64,
        rf1_init in proptest::collection::vec(0u64..70000, 1..8),
        rf2_init in proptest::collection::vec(0u64..70000, 1..8),
        mem in proptest::collection::vec(0u64..70000, 0..12),
        outs in proptest::collection::vec((0u8..2, 0usize..8), 0..4),
        moves in proptest::collection::vec(
            (0u8..3, 0u8..3, 0u8..5, 0usize..10, 0u64..70000, proptest::bool::ANY),
            0..32,
        ),
    ) {
        let p = build_program(width, rf1_init, rf2_init, mem, outs, moves);
        let text = disassemble(&p);
        let p2 = assemble(&text)
            .unwrap_or_else(|e| panic!("canonical text must assemble: {e}\n{text}"));
        prop_assert_eq!(&p2, &p, "assemble ∘ disassemble is not the identity");
        // Byte-exact fixed point (what CI checks with `cmp`).
        prop_assert_eq!(disassemble(&p2), text);
    }
}
