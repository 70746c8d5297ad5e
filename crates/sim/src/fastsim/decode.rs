//! One-pass pre-decoder: lowers LRISC text into the flat micro-op array
//! plus a parallel array of `TraceEntry` templates.
//!
//! The template for a slot carries everything about its trace entry that
//! is static — pc, op kind, destination/source refs, and (for `jal`) the
//! branch event. The dispatch loop copies the template and patches in the
//! dynamic fields (memory access, branch outcome), so the emitted stream
//! is bit-identical to what [`crate::Machine`] produces.
//!
//! After the straight lowering, a peephole pass fuses the superblock
//! idioms our compiler deliberately emits:
//!
//! * **constant-pool load** — `ld`/`fld` off `gp` when no instruction in
//!   the program ever redefines `gp`: the address is a decode-time
//!   constant, pre-validated against the memory map;
//! * **reload / spill pairs** — consecutive `ld`/`ld` or `sd`/`sd` off
//!   the same base register;
//! * **compare + branch** — `slt[iu]` feeding an immediately following
//!   `beqz`/`bnez` on the same register.
//!
//! The second slot of every fused pair keeps its standalone op, so a
//! branch that lands mid-pair executes correctly.

use crate::fastsim::uop::{CmpKind, Cursor, Op, ESCAPE_IDX};
use crate::memory::Memory;
use lvp_isa::{Instr, Program, Reg, TEXT_BASE};
use lvp_trace::{BranchEvent, MemAccess, OpKind, RegRef, TraceEntry};

/// A program lowered to micro-ops. `ops` and `tpls` have the same length:
/// one slot per text instruction plus the trailing escape sentinel.
#[derive(Debug)]
pub(crate) struct Code {
    pub(crate) ops: Vec<Op>,
    pub(crate) tpls: Vec<TraceEntry>,
}

impl Code {
    /// Number of real (non-sentinel) instruction slots.
    pub(crate) fn text_len(&self) -> usize {
        self.ops.len() - 1
    }
}

/// Maps a pc to a [`Cursor`], with the same acceptance rule as
/// `Program::fetch`: in-text and 4-byte-aligned, else outside.
#[inline]
pub(crate) fn resolve_cursor(pc: u64, text_len: usize) -> Cursor {
    let rel = pc.wrapping_sub(TEXT_BASE);
    if rel.is_multiple_of(4) && rel / 4 < text_len as u64 {
        Cursor::Text((rel / 4) as u32)
    } else {
        Cursor::Outside(pc)
    }
}

#[inline]
fn iref(r: Reg) -> Option<RegRef> {
    (!r.is_zero()).then(|| RegRef::int(r.number()))
}

#[inline]
fn fref(f: lvp_isa::FReg) -> Option<RegRef> {
    Some(RegRef::fp(f.number()))
}

#[inline]
fn sext(imm: i32) -> u64 {
    imm as i64 as u64
}

pub(crate) fn decode(program: &Program) -> Code {
    let text = program.text();
    let n = text.len();
    // The dispatch loop checks `pc == EXIT_ADDR` only for out-of-text
    // cursors, which is valid as long as text can never reach it.
    assert!(
        TEXT_BASE + 4 * n as u64 <= crate::EXIT_ADDR,
        "text segment overlaps EXIT_ADDR"
    );

    let in_text = |target: u64| -> u32 {
        match resolve_cursor(target, n) {
            Cursor::Text(i) => i,
            Cursor::Outside(_) => ESCAPE_IDX,
        }
    };

    let mut ops = Vec::with_capacity(n + 1);
    let mut tpls = Vec::with_capacity(n + 1);
    for (k, instr) in text.iter().enumerate() {
        let pc = TEXT_BASE + 4 * k as u64;
        let (op, tpl) = lower(pc, instr, &in_text);
        ops.push(op);
        tpls.push(tpl);
    }

    // Constant-pool fusion: only sound if gp is never redefined, since
    // the machine initializes gp to the pool base at startup. The proof
    // is shared with lvp-analyze's points-to entry state.
    let gp_is_pool = lvp_isa::abi::gp_is_pool_base(text);
    if gp_is_pool {
        let pool = program.pool_base();
        for (k, instr) in text.iter().enumerate() {
            match *instr {
                Instr::Ld { rd, base, offset } if base == Reg::GP => {
                    let addr = pool.wrapping_add(sext(offset));
                    if let Ok(mi) = Memory::resolve(addr, 8) {
                        ops[k] = Op::PoolLd {
                            rd: rd.number(),
                            mi: mi as u32,
                            addr,
                        };
                    }
                }
                Instr::Fld { fd, base, offset } if base == Reg::GP => {
                    let addr = pool.wrapping_add(sext(offset));
                    if let Ok(mi) = Memory::resolve(addr, 8) {
                        ops[k] = Op::PoolFld {
                            fd: fd.number(),
                            mi: mi as u32,
                            addr,
                        };
                    }
                }
                _ => {}
            }
        }
    }

    // Pair fusion over the ORIGINAL instruction stream. Replacing only
    // the first slot keeps mid-pair branch targets working, and a slot
    // already lowered to a pool op is left alone (it is at least as
    // fast as a pair half).
    for k in 0..n.saturating_sub(1) {
        let pooled_k = matches!(ops[k], Op::PoolLd { .. } | Op::PoolFld { .. });
        let pooled_k1 = matches!(ops[k + 1], Op::PoolLd { .. } | Op::PoolFld { .. });
        match (&text[k], &text[k + 1]) {
            (
                &Instr::Ld {
                    rd: rd1,
                    base: b1,
                    offset: o1,
                },
                &Instr::Ld {
                    rd: rd2,
                    base: b2,
                    offset: o2,
                },
            ) if b1 == b2 && (rd1.is_zero() || rd1 != b1) && !pooled_k && !pooled_k1 => {
                ops[k] = Op::LdPair {
                    rd1: rd1.number(),
                    rd2: rd2.number(),
                    base: b1.number(),
                    off1: sext(o1),
                    off2: sext(o2),
                };
            }
            (
                &Instr::Sd {
                    rs2: v1,
                    base: b1,
                    offset: o1,
                },
                &Instr::Sd {
                    rs2: v2,
                    base: b2,
                    offset: o2,
                },
            ) if b1 == b2 => {
                ops[k] = Op::SdPair {
                    va: v1.number(),
                    vb: v2.number(),
                    base: b1.number(),
                    off1: sext(o1),
                    off2: sext(o2),
                };
            }
            (cmp, br) => {
                // compare+branch: slt[iu] rd, ... ; beqz/bnez rd
                let cmp = match *cmp {
                    Instr::Slt { rd, rs1, rs2 } if !rd.is_zero() => {
                        Some((rd, CmpKind::Lt, Err((rs1, rs2))))
                    }
                    Instr::Sltu { rd, rs1, rs2 } if !rd.is_zero() => {
                        Some((rd, CmpKind::Ltu, Err((rs1, rs2))))
                    }
                    Instr::Slti { rd, rs1, imm } if !rd.is_zero() => {
                        Some((rd, CmpKind::Lt, Ok((rs1, sext(imm)))))
                    }
                    Instr::Sltiu { rd, rs1, imm } if !rd.is_zero() => {
                        Some((rd, CmpKind::Ltu, Ok((rs1, sext(imm)))))
                    }
                    _ => None,
                };
                let br = match *br {
                    Instr::Beq { rs1, rs2, offset } if rs2.is_zero() => Some((rs1, false, offset)),
                    Instr::Bne { rs1, rs2, offset } if rs2.is_zero() => Some((rs1, true, offset)),
                    _ => None,
                };
                if let (Some((rd, kind, srcs)), Some((br_reg, br_if_set, off))) = (cmp, br) {
                    if br_reg == rd {
                        let br_pc = TEXT_BASE + 4 * (k as u64 + 1);
                        let t_pc = br_pc.wrapping_add(sext(off));
                        let t_idx = in_text(t_pc);
                        ops[k] = match srcs {
                            Err((rs1, rs2)) => Op::CmpRegBr {
                                rd: rd.number(),
                                rs1: rs1.number(),
                                rs2: rs2.number(),
                                kind,
                                br_if_set,
                                t_pc,
                                t_idx,
                            },
                            Ok((rs1, imm)) => Op::CmpImmBr {
                                rd: rd.number(),
                                rs1: rs1.number(),
                                imm,
                                kind,
                                br_if_set,
                                t_pc,
                                t_idx,
                            },
                        };
                    }
                }
            }
        }
    }

    ops.push(Op::Escape);
    tpls.push(TraceEntry::simple(TEXT_BASE + 4 * n as u64, OpKind::System));
    Code { ops, tpls }
}

/// Payload placeholder of a load/store template; the dispatch loop
/// fills in the real access with [`TraceEntry::with_mem`].
const PENDING: MemAccess = MemAccess {
    addr: 0,
    width: 8,
    value: 0,
    fp: false,
};

/// Payload placeholder of a conditional-branch or indirect-jump
/// template; the dispatch loop fills in the real outcome with
/// [`TraceEntry::with_branch`].
const PENDING_BRANCH: BranchEvent = BranchEvent {
    taken: true,
    target: 0,
};

/// Lowers one instruction to its micro-op and trace-entry template,
/// mirroring `Machine::execute` arm by arm.
fn lower(pc: u64, instr: &Instr, in_text: &dyn Fn(u64) -> u32) -> (Op, TraceEntry) {
    use Instr::*;
    let tpl;

    macro_rules! rrr {
        ($opv:ident, $rd:expr, $rs1:expr, $rs2:expr, $kind:expr) => {{
            tpl = TraceEntry::op(pc, $kind, iref($rd), [iref($rs1), iref($rs2)]);
            if $rd.is_zero() {
                Op::Fixed
            } else {
                Op::$opv {
                    rd: $rd.number(),
                    rs1: $rs1.number(),
                    rs2: $rs2.number(),
                }
            }
        }};
    }
    macro_rules! rri {
        ($rd:expr, $rs1:expr, $op:expr) => {{
            tpl = TraceEntry::op(pc, OpKind::IntSimple, iref($rd), [iref($rs1), None]);
            if $rd.is_zero() {
                Op::Fixed
            } else {
                $op
            }
        }};
    }
    macro_rules! ld {
        ($opv:ident, $rd:expr, $base:expr, $off:expr) => {{
            tpl = TraceEntry::mem_op(pc, OpKind::Load, iref($rd), [iref($base), None], PENDING);
            Op::$opv {
                rd: $rd.number(),
                base: $base.number(),
                off: sext($off),
            }
        }};
    }
    macro_rules! st {
        ($opv:ident, $rs2:expr, $base:expr, $off:expr) => {{
            tpl = TraceEntry::mem_op(pc, OpKind::Store, None, [iref($base), iref($rs2)], PENDING);
            Op::$opv {
                rs2: $rs2.number(),
                base: $base.number(),
                off: sext($off),
            }
        }};
    }
    macro_rules! fp3 {
        ($opv:ident, $fd:expr, $fs1:expr, $fs2:expr, $kind:expr) => {{
            tpl = TraceEntry::op(pc, $kind, fref($fd), [fref($fs1), fref($fs2)]);
            Op::$opv {
                fd: $fd.number(),
                fs1: $fs1.number(),
                fs2: $fs2.number(),
            }
        }};
    }
    macro_rules! fp2 {
        ($opv:ident, $fd:expr, $fs1:expr, $kind:expr) => {{
            tpl = TraceEntry::op(pc, $kind, fref($fd), [fref($fs1), None]);
            Op::$opv {
                fd: $fd.number(),
                fs1: $fs1.number(),
            }
        }};
    }
    macro_rules! fcmp {
        ($opv:ident, $rd:expr, $fs1:expr, $fs2:expr) => {{
            tpl = TraceEntry::op(pc, OpKind::FpSimple, iref($rd), [fref($fs1), fref($fs2)]);
            Op::$opv {
                rd: $rd.number(),
                fs1: $fs1.number(),
                fs2: $fs2.number(),
            }
        }};
    }
    macro_rules! br {
        ($opv:ident, $rs1:expr, $rs2:expr, $off:expr) => {{
            let t_pc = pc.wrapping_add(sext($off));
            tpl = TraceEntry::control(
                pc,
                OpKind::CondBranch,
                None,
                [iref($rs1), iref($rs2)],
                PENDING_BRANCH,
            );
            Op::$opv {
                rs1: $rs1.number(),
                rs2: $rs2.number(),
                t_pc,
                t_idx: in_text(t_pc),
            }
        }};
    }

    let op = match *instr {
        Add { rd, rs1, rs2 } => rrr!(Add, rd, rs1, rs2, OpKind::IntSimple),
        Sub { rd, rs1, rs2 } => rrr!(Sub, rd, rs1, rs2, OpKind::IntSimple),
        Sll { rd, rs1, rs2 } => rrr!(Sll, rd, rs1, rs2, OpKind::IntSimple),
        Slt { rd, rs1, rs2 } => rrr!(Slt, rd, rs1, rs2, OpKind::IntSimple),
        Sltu { rd, rs1, rs2 } => rrr!(Sltu, rd, rs1, rs2, OpKind::IntSimple),
        Xor { rd, rs1, rs2 } => rrr!(Xor, rd, rs1, rs2, OpKind::IntSimple),
        Srl { rd, rs1, rs2 } => rrr!(Srl, rd, rs1, rs2, OpKind::IntSimple),
        Sra { rd, rs1, rs2 } => rrr!(Sra, rd, rs1, rs2, OpKind::IntSimple),
        Or { rd, rs1, rs2 } => rrr!(Or, rd, rs1, rs2, OpKind::IntSimple),
        And { rd, rs1, rs2 } => rrr!(And, rd, rs1, rs2, OpKind::IntSimple),
        Mul { rd, rs1, rs2 } => rrr!(Mul, rd, rs1, rs2, OpKind::IntComplex),
        Mulh { rd, rs1, rs2 } => rrr!(Mulh, rd, rs1, rs2, OpKind::IntComplex),
        Div { rd, rs1, rs2 } => rrr!(Div, rd, rs1, rs2, OpKind::IntComplex),
        Divu { rd, rs1, rs2 } => rrr!(Divu, rd, rs1, rs2, OpKind::IntComplex),
        Rem { rd, rs1, rs2 } => rrr!(Rem, rd, rs1, rs2, OpKind::IntComplex),
        Remu { rd, rs1, rs2 } => rrr!(Remu, rd, rs1, rs2, OpKind::IntComplex),
        Addi { rd, rs1, imm } => rri!(
            rd,
            rs1,
            if rs1.is_zero() {
                Op::LoadImm {
                    rd: rd.number(),
                    value: sext(imm),
                }
            } else {
                Op::Addi {
                    rd: rd.number(),
                    rs1: rs1.number(),
                    imm: sext(imm),
                }
            }
        ),
        Slti { rd, rs1, imm } => rri!(
            rd,
            rs1,
            Op::Slti {
                rd: rd.number(),
                rs1: rs1.number(),
                imm: imm as i64,
            }
        ),
        Sltiu { rd, rs1, imm } => rri!(
            rd,
            rs1,
            Op::Sltiu {
                rd: rd.number(),
                rs1: rs1.number(),
                imm: sext(imm),
            }
        ),
        Xori { rd, rs1, imm } => rri!(
            rd,
            rs1,
            Op::Xori {
                rd: rd.number(),
                rs1: rs1.number(),
                imm: sext(imm),
            }
        ),
        Ori { rd, rs1, imm } => rri!(
            rd,
            rs1,
            Op::Ori {
                rd: rd.number(),
                rs1: rs1.number(),
                imm: sext(imm),
            }
        ),
        Andi { rd, rs1, imm } => rri!(
            rd,
            rs1,
            Op::Andi {
                rd: rd.number(),
                rs1: rs1.number(),
                imm: sext(imm),
            }
        ),
        Slli { rd, rs1, shamt } => rri!(
            rd,
            rs1,
            Op::Slli {
                rd: rd.number(),
                rs1: rs1.number(),
                shamt,
            }
        ),
        Srli { rd, rs1, shamt } => rri!(
            rd,
            rs1,
            Op::Srli {
                rd: rd.number(),
                rs1: rs1.number(),
                shamt,
            }
        ),
        Srai { rd, rs1, shamt } => rri!(
            rd,
            rs1,
            Op::Srai {
                rd: rd.number(),
                rs1: rs1.number(),
                shamt,
            }
        ),
        Lui { rd, imm } => {
            // `Machine` records an IntSimple with no srcs.
            tpl = TraceEntry::op(pc, OpKind::IntSimple, iref(rd), [None, None]);
            if rd.is_zero() {
                Op::Fixed
            } else {
                Op::LoadImm {
                    rd: rd.number(),
                    value: ((imm as i64) << 12) as u64,
                }
            }
        }
        Lb { rd, base, offset } => ld!(Lb, rd, base, offset),
        Lbu { rd, base, offset } => ld!(Lbu, rd, base, offset),
        Lh { rd, base, offset } => ld!(Lh, rd, base, offset),
        Lhu { rd, base, offset } => ld!(Lhu, rd, base, offset),
        Lw { rd, base, offset } => ld!(Lw, rd, base, offset),
        Lwu { rd, base, offset } => ld!(Lwu, rd, base, offset),
        Ld { rd, base, offset } => ld!(Ld, rd, base, offset),
        Fld { fd, base, offset } => {
            tpl = TraceEntry::mem_op(pc, OpKind::Load, fref(fd), [iref(base), None], PENDING);
            Op::Fld {
                fd: fd.number(),
                base: base.number(),
                off: sext(offset),
            }
        }
        Sb { rs2, base, offset } => st!(Sb, rs2, base, offset),
        Sh { rs2, base, offset } => st!(Sh, rs2, base, offset),
        Sw { rs2, base, offset } => st!(Sw, rs2, base, offset),
        Sd { rs2, base, offset } => st!(Sd, rs2, base, offset),
        Fsd { fs2, base, offset } => {
            tpl = TraceEntry::mem_op(pc, OpKind::Store, None, [iref(base), fref(fs2)], PENDING);
            Op::Fsd {
                fs2: fs2.number(),
                base: base.number(),
                off: sext(offset),
            }
        }
        FaddD { fd, fs1, fs2 } => fp3!(FaddD, fd, fs1, fs2, OpKind::FpSimple),
        FsubD { fd, fs1, fs2 } => fp3!(FsubD, fd, fs1, fs2, OpKind::FpSimple),
        FmulD { fd, fs1, fs2 } => fp3!(FmulD, fd, fs1, fs2, OpKind::FpSimple),
        FdivD { fd, fs1, fs2 } => fp3!(FdivD, fd, fs1, fs2, OpKind::FpComplex),
        FminD { fd, fs1, fs2 } => fp3!(FminD, fd, fs1, fs2, OpKind::FpSimple),
        FmaxD { fd, fs1, fs2 } => fp3!(FmaxD, fd, fs1, fs2, OpKind::FpSimple),
        FsqrtD { fd, fs1 } => fp2!(FsqrtD, fd, fs1, OpKind::FpComplex),
        FnegD { fd, fs1 } => fp2!(FnegD, fd, fs1, OpKind::FpSimple),
        FabsD { fd, fs1 } => fp2!(FabsD, fd, fs1, OpKind::FpSimple),
        FeqD { rd, fs1, fs2 } => fcmp!(FeqD, rd, fs1, fs2),
        FltD { rd, fs1, fs2 } => fcmp!(FltD, rd, fs1, fs2),
        FleD { rd, fs1, fs2 } => fcmp!(FleD, rd, fs1, fs2),
        FcvtDL { fd, rs1 } => {
            tpl = TraceEntry::op(pc, OpKind::FpSimple, fref(fd), [iref(rs1), None]);
            Op::FcvtDL {
                fd: fd.number(),
                rs1: rs1.number(),
            }
        }
        FcvtLD { rd, fs1 } => {
            tpl = TraceEntry::op(pc, OpKind::FpSimple, iref(rd), [fref(fs1), None]);
            Op::FcvtLD {
                rd: rd.number(),
                fs1: fs1.number(),
            }
        }
        FmvXD { rd, fs1 } => {
            tpl = TraceEntry::op(pc, OpKind::FpSimple, iref(rd), [fref(fs1), None]);
            Op::FmvXD {
                rd: rd.number(),
                fs1: fs1.number(),
            }
        }
        FmvDX { fd, rs1 } => {
            tpl = TraceEntry::op(pc, OpKind::FpSimple, fref(fd), [iref(rs1), None]);
            Op::FmvDX {
                fd: fd.number(),
                rs1: rs1.number(),
            }
        }
        Beq { rs1, rs2, offset } => br!(Beq, rs1, rs2, offset),
        Bne { rs1, rs2, offset } => br!(Bne, rs1, rs2, offset),
        Blt { rs1, rs2, offset } => br!(Blt, rs1, rs2, offset),
        Bge { rs1, rs2, offset } => br!(Bge, rs1, rs2, offset),
        Bltu { rs1, rs2, offset } => br!(Bltu, rs1, rs2, offset),
        Bgeu { rs1, rs2, offset } => br!(Bgeu, rs1, rs2, offset),
        Jal { rd, offset } => {
            let t_pc = pc.wrapping_add(sext(offset));
            // A direct jump's branch event is fully static: bake it in.
            let event = BranchEvent {
                taken: true,
                target: t_pc,
            };
            tpl = TraceEntry::control(pc, OpKind::Jump, iref(rd), [None, None], event);
            Op::Jal {
                rd: rd.number(),
                t_pc,
                t_idx: in_text(t_pc),
            }
        }
        Jalr { rd, rs1, offset } => {
            tpl = TraceEntry::control(
                pc,
                OpKind::IndirectJump,
                iref(rd),
                [iref(rs1), None],
                PENDING_BRANCH,
            );
            Op::Jalr {
                rd: rd.number(),
                rs1: rs1.number(),
                off: sext(offset),
            }
        }
        Out { rs1 } => {
            tpl = TraceEntry::op(pc, OpKind::System, None, [iref(rs1), None]);
            Op::Out { rs1: rs1.number() }
        }
        OutF { fs1 } => {
            tpl = TraceEntry::op(pc, OpKind::System, None, [fref(fs1), None]);
            Op::OutF { fs1: fs1.number() }
        }
        Halt => {
            tpl = TraceEntry::op(pc, OpKind::System, None, [None, None]);
            Op::Halt
        }
        Nop => {
            tpl = TraceEntry::op(pc, OpKind::System, None, [None, None]);
            Op::Fixed
        }
    };
    (op, tpl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_isa::{AsmProfile, Assembler};

    fn code_for(src: &str) -> (Program, Code) {
        let p = Assembler::new(AsmProfile::Toc).assemble(src).unwrap();
        let code = decode(&p);
        (p, code)
    }

    /// Pool fusion is gated by exactly the shared ABI proof: a `gp`
    /// write anywhere in the program suppresses fusion program-wide.
    #[test]
    fn pool_fusion_gated_by_shared_gp_proof() {
        let fused = ".data\nv: .dword 7\n.text\nmain:\n la a0, v\n halt\n";
        let (p, code) = code_for(fused);
        assert!(lvp_isa::abi::gp_is_pool_base(p.text()));
        assert!(
            code.ops.iter().any(|op| matches!(op, Op::PoolLd { .. })),
            "gp-relative load must fuse when the proof holds"
        );

        let tainted = ".data\nv: .dword 7\n.text\nmain:\n la a0, v\n addi gp, gp, 0\n halt\n";
        let (p, code) = code_for(tainted);
        assert!(!lvp_isa::abi::gp_is_pool_base(p.text()));
        assert!(
            !code.ops.iter().any(|op| matches!(op, Op::PoolLd { .. })),
            "a gp redefinition anywhere must suppress fusion"
        );
    }
}
