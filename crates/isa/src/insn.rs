//! Typed instructions and their binary encodings.

use std::fmt;

use crate::{ByteRange, IsaError, KeyReg, Reg};

/// ALU operation selector shared by register-register and register-immediate
/// instructions (including the M extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
}

impl AluOp {
    /// `(funct3, funct7)` for the OP (register-register) encoding.
    fn op_funct(self) -> (u32, u32) {
        match self {
            AluOp::Add => (0, 0),
            AluOp::Sub => (0, 0x20),
            AluOp::Sll => (1, 0),
            AluOp::Slt => (2, 0),
            AluOp::Sltu => (3, 0),
            AluOp::Xor => (4, 0),
            AluOp::Srl => (5, 0),
            AluOp::Sra => (5, 0x20),
            AluOp::Or => (6, 0),
            AluOp::And => (7, 0),
            AluOp::Mul => (0, 1),
            AluOp::Mulh => (1, 1),
            AluOp::Mulhsu => (2, 1),
            AluOp::Mulhu => (3, 1),
            AluOp::Div => (4, 1),
            AluOp::Divu => (5, 1),
            AluOp::Rem => (6, 1),
            AluOp::Remu => (7, 1),
        }
    }

    /// `true` if this op exists in the `*W` (32-bit) instruction group.
    #[must_use]
    pub fn has_word_form(self) -> bool {
        matches!(
            self,
            AluOp::Add
                | AluOp::Sub
                | AluOp::Sll
                | AluOp::Srl
                | AluOp::Sra
                | AluOp::Mul
                | AluOp::Div
                | AluOp::Divu
                | AluOp::Rem
                | AluOp::Remu
        )
    }

    /// `true` if this op exists in the OP-IMM instruction group.
    #[must_use]
    pub fn has_imm_form(self) -> bool {
        matches!(
            self,
            AluOp::Add
                | AluOp::Slt
                | AluOp::Sltu
                | AluOp::Xor
                | AluOp::Or
                | AluOp::And
                | AluOp::Sll
                | AluOp::Srl
                | AluOp::Sra
        )
    }
}

/// Conditional branch comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BranchOp {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

impl BranchOp {
    fn funct3(self) -> u32 {
        match self {
            BranchOp::Eq => 0,
            BranchOp::Ne => 1,
            BranchOp::Lt => 4,
            BranchOp::Ge => 5,
            BranchOp::Ltu => 6,
            BranchOp::Geu => 7,
        }
    }
}

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum MemWidth {
    Byte,
    Half,
    Word,
    Double,
}

impl MemWidth {
    /// Access size in bytes.
    #[must_use]
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
            MemWidth::Double => 8,
        }
    }

    fn funct3(self) -> u32 {
        match self {
            MemWidth::Byte => 0,
            MemWidth::Half => 1,
            MemWidth::Word => 2,
            MemWidth::Double => 3,
        }
    }
}

/// CSR access operation (Zicsr).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CsrOp {
    ReadWrite,
    ReadSet,
    ReadClear,
}

impl CsrOp {
    fn funct3(self) -> u32 {
        match self {
            CsrOp::ReadWrite => 1,
            CsrOp::ReadSet => 2,
            CsrOp::ReadClear => 3,
        }
    }
}

/// A decoded RV64IM + RegVault instruction.
///
/// The two RegVault instructions carry a key selection, a tweak register and
/// a byte range exactly as in Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Insn {
    /// `lui rd, imm20` — `rd = sext(imm20 << 12)`.
    Lui { rd: Reg, imm20: i32 },
    /// `auipc rd, imm20` — `rd = pc + sext(imm20 << 12)`.
    Auipc { rd: Reg, imm20: i32 },
    /// `jal rd, offset` (byte offset relative to this instruction).
    Jal { rd: Reg, offset: i32 },
    /// `jalr rd, offset(rs1)`.
    Jalr { rd: Reg, rs1: Reg, offset: i32 },
    /// Conditional branch, byte offset relative to this instruction.
    Branch {
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    /// Load from `offset(rs1)`; `signed` selects sign- vs zero-extension.
    Load {
        width: MemWidth,
        signed: bool,
        rd: Reg,
        rs1: Reg,
        offset: i32,
    },
    /// Store `rs2` to `offset(rs1)`.
    Store {
        width: MemWidth,
        rs2: Reg,
        rs1: Reg,
        offset: i32,
    },
    /// Register-immediate ALU operation (64-bit).
    OpImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// Register-immediate ALU operation on the low 32 bits (`addiw`, ...).
    OpImmW {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// Register-register ALU operation (64-bit, includes M extension).
    Op {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Register-register ALU operation on the low 32 bits.
    OpW {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// CSR access; `rs1` is a register operand (`csrrw`/`csrrs`/`csrrc`).
    Csr {
        op: CsrOp,
        rd: Reg,
        rs1: Reg,
        csr: u16,
    },
    /// CSR access with a 5-bit zero-extended immediate operand.
    CsrImm {
        op: CsrOp,
        rd: Reg,
        uimm: u8,
        csr: u16,
    },
    /// Environment call (syscall).
    Ecall,
    /// Breakpoint.
    Ebreak,
    /// Return from machine-mode trap.
    Mret,
    /// Return from supervisor-mode trap.
    Sret,
    /// Wait for interrupt.
    Wfi,
    /// Memory fence (a no-op in the simulator's simple memory model).
    Fence,
    /// `cre[x]k rd, rs[e:s], rt` — context-aware register encrypt: select
    /// bytes `[e:s]` of `rs` (zeroing the rest), encrypt with key `x` and the
    /// tweak in `rt`, put the ciphertext in `rd` (§2.3.1).
    Cre {
        key: KeyReg,
        rd: Reg,
        rs: Reg,
        rt: Reg,
        hi: u8,
        lo: u8,
    },
    /// `crd[x]k rd, rs, rt, [e:s]` — context-aware register decrypt: decrypt
    /// `rs` with key `x` and tweak `rt`; raise an integrity exception unless
    /// all bytes outside `[e:s]` decrypt to zero (§2.3.1).
    Crd {
        key: KeyReg,
        rd: Reg,
        rs: Reg,
        rt: Reg,
        hi: u8,
        lo: u8,
    },
}

/// Opcode for the RegVault encrypt instruction (RISC-V custom-0 space).
pub(crate) const OPC_CRE: u32 = 0x0B;
/// Opcode for the RegVault decrypt instruction (RISC-V custom-1 space).
pub(crate) const OPC_CRD: u32 = 0x2B;

fn r_type(opcode: u32, rd: Reg, funct3: u32, rs1: Reg, rs2: Reg, funct7: u32) -> u32 {
    opcode
        | (u32::from(rd.index()) << 7)
        | (funct3 << 12)
        | (u32::from(rs1.index()) << 15)
        | (u32::from(rs2.index()) << 20)
        | (funct7 << 25)
}

fn i_type(opcode: u32, rd: Reg, funct3: u32, rs1: Reg, imm: i32) -> u32 {
    opcode
        | (u32::from(rd.index()) << 7)
        | (funct3 << 12)
        | (u32::from(rs1.index()) << 15)
        | (((imm as u32) & 0xFFF) << 20)
}

fn s_type(opcode: u32, funct3: u32, rs1: Reg, rs2: Reg, imm: i32) -> u32 {
    let imm = imm as u32;
    opcode
        | ((imm & 0x1F) << 7)
        | (funct3 << 12)
        | (u32::from(rs1.index()) << 15)
        | (u32::from(rs2.index()) << 20)
        | (((imm >> 5) & 0x7F) << 25)
}

fn b_type(opcode: u32, funct3: u32, rs1: Reg, rs2: Reg, offset: i32) -> u32 {
    let imm = offset as u32;
    opcode
        | (((imm >> 11) & 1) << 7)
        | (((imm >> 1) & 0xF) << 8)
        | (funct3 << 12)
        | (u32::from(rs1.index()) << 15)
        | (u32::from(rs2.index()) << 20)
        | (((imm >> 5) & 0x3F) << 25)
        | (((imm >> 12) & 1) << 31)
}

fn u_type(opcode: u32, rd: Reg, imm20: i32) -> u32 {
    opcode | (u32::from(rd.index()) << 7) | (((imm20 as u32) & 0xF_FFFF) << 12)
}

fn j_type(opcode: u32, rd: Reg, offset: i32) -> u32 {
    let imm = offset as u32;
    opcode
        | (u32::from(rd.index()) << 7)
        | (((imm >> 12) & 0xFF) << 12)
        | (((imm >> 11) & 1) << 20)
        | (((imm >> 1) & 0x3FF) << 21)
        | (((imm >> 20) & 1) << 31)
}

fn check_range(mnemonic: &str, value: i64, min: i64, max: i64) -> Result<(), IsaError> {
    if value < min || value > max {
        return Err(IsaError::ImmediateOutOfRange {
            mnemonic: mnemonic.to_owned(),
            value,
        });
    }
    Ok(())
}

impl Insn {
    /// Encodes the instruction to its 32-bit binary form.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ImmediateOutOfRange`] if an immediate or offset
    /// does not fit the instruction format, and
    /// [`IsaError::InvalidByteRange`] / [`IsaError::UnknownMnemonic`] for
    /// operation/format combinations that do not exist (e.g. `subi`).
    pub fn encode(&self) -> Result<u32, IsaError> {
        match *self {
            Insn::Lui { rd, imm20 } => {
                check_range("lui", imm20.into(), -(1 << 19), (1 << 19) - 1)?;
                Ok(u_type(0x37, rd, imm20))
            }
            Insn::Auipc { rd, imm20 } => {
                check_range("auipc", imm20.into(), -(1 << 19), (1 << 19) - 1)?;
                Ok(u_type(0x17, rd, imm20))
            }
            Insn::Jal { rd, offset } => {
                check_range("jal", offset.into(), -(1 << 20), (1 << 20) - 2)?;
                Ok(j_type(0x6F, rd, offset))
            }
            Insn::Jalr { rd, rs1, offset } => {
                check_range("jalr", offset.into(), -2048, 2047)?;
                Ok(i_type(0x67, rd, 0, rs1, offset))
            }
            Insn::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                check_range("branch", offset.into(), -4096, 4094)?;
                Ok(b_type(0x63, op.funct3(), rs1, rs2, offset))
            }
            Insn::Load {
                width,
                signed,
                rd,
                rs1,
                offset,
            } => {
                check_range("load", offset.into(), -2048, 2047)?;
                let funct3 = if signed {
                    width.funct3()
                } else {
                    match width {
                        MemWidth::Byte => 4,
                        MemWidth::Half => 5,
                        MemWidth::Word => 6,
                        MemWidth::Double => {
                            return Err(IsaError::UnknownMnemonic("ldu".into()));
                        }
                    }
                };
                Ok(i_type(0x03, rd, funct3, rs1, offset))
            }
            Insn::Store {
                width,
                rs2,
                rs1,
                offset,
            } => {
                check_range("store", offset.into(), -2048, 2047)?;
                Ok(s_type(0x23, width.funct3(), rs1, rs2, offset))
            }
            Insn::OpImm { op, rd, rs1, imm } => {
                if !op.has_imm_form() {
                    return Err(IsaError::UnknownMnemonic(format!("{op:?} (imm form)")));
                }
                let (funct3, funct7) = op.op_funct();
                match op {
                    AluOp::Sll | AluOp::Srl | AluOp::Sra => {
                        check_range("shift imm", imm.into(), 0, 63)?;
                        Ok(i_type(0x13, rd, funct3, rs1, imm | ((funct7 as i32) << 5)))
                    }
                    _ => {
                        check_range("op imm", imm.into(), -2048, 2047)?;
                        Ok(i_type(0x13, rd, funct3, rs1, imm))
                    }
                }
            }
            Insn::OpImmW { op, rd, rs1, imm } => {
                let (funct3, funct7) = op.op_funct();
                match op {
                    AluOp::Add => {
                        check_range("addiw", imm.into(), -2048, 2047)?;
                        Ok(i_type(0x1B, rd, 0, rs1, imm))
                    }
                    AluOp::Sll | AluOp::Srl | AluOp::Sra => {
                        check_range("shiftw imm", imm.into(), 0, 31)?;
                        Ok(i_type(0x1B, rd, funct3, rs1, imm | ((funct7 as i32) << 5)))
                    }
                    _ => Err(IsaError::UnknownMnemonic(format!("{op:?} (imm-w form)"))),
                }
            }
            Insn::Op { op, rd, rs1, rs2 } => {
                let (funct3, funct7) = op.op_funct();
                Ok(r_type(0x33, rd, funct3, rs1, rs2, funct7))
            }
            Insn::OpW { op, rd, rs1, rs2 } => {
                if !op.has_word_form() {
                    return Err(IsaError::UnknownMnemonic(format!("{op:?} (w form)")));
                }
                let (funct3, funct7) = op.op_funct();
                Ok(r_type(0x3B, rd, funct3, rs1, rs2, funct7))
            }
            Insn::Csr { op, rd, rs1, csr } => {
                check_range("csr", csr.into(), 0, 0xFFF)?;
                Ok(i_type(0x73, rd, op.funct3(), rs1, csr as i32))
            }
            Insn::CsrImm { op, rd, uimm, csr } => {
                check_range("csr imm", uimm.into(), 0, 31)?;
                check_range("csr", csr.into(), 0, 0xFFF)?;
                let rs1 = Reg::from_index(uimm).expect("uimm < 32");
                Ok(i_type(0x73, rd, op.funct3() | 0x4, rs1, csr as i32))
            }
            Insn::Ecall => Ok(0x0000_0073),
            Insn::Ebreak => Ok(0x0010_0073),
            Insn::Sret => Ok(0x1020_0073),
            Insn::Mret => Ok(0x3020_0073),
            Insn::Wfi => Ok(0x1050_0073),
            Insn::Fence => Ok(0x0000_000F),
            Insn::Cre {
                key,
                rd,
                rs,
                rt,
                hi,
                lo,
            } => {
                let range = ByteRange::new(hi, lo)
                    .ok_or_else(|| IsaError::InvalidByteRange(format!("[{hi}:{lo}]")))?;
                let funct7 = (u32::from(range.hi()) << 3) | u32::from(range.lo());
                Ok(r_type(OPC_CRE, rd, u32::from(key.ksel()), rs, rt, funct7))
            }
            Insn::Crd {
                key,
                rd,
                rs,
                rt,
                hi,
                lo,
            } => {
                let range = ByteRange::new(hi, lo)
                    .ok_or_else(|| IsaError::InvalidByteRange(format!("[{hi}:{lo}]")))?;
                let funct7 = (u32::from(range.hi()) << 3) | u32::from(range.lo());
                Ok(r_type(OPC_CRD, rd, u32::from(key.ksel()), rs, rt, funct7))
            }
        }
    }

    /// `true` for the RegVault cryptographic instructions.
    #[must_use]
    pub fn is_crypto(&self) -> bool {
        matches!(self, Insn::Cre { .. } | Insn::Crd { .. })
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Insn::Lui { rd, imm20 } => write!(f, "lui {rd}, {imm20}"),
            Insn::Auipc { rd, imm20 } => write!(f, "auipc {rd}, {imm20}"),
            Insn::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Insn::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Insn::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let name = match op {
                    BranchOp::Eq => "beq",
                    BranchOp::Ne => "bne",
                    BranchOp::Lt => "blt",
                    BranchOp::Ge => "bge",
                    BranchOp::Ltu => "bltu",
                    BranchOp::Geu => "bgeu",
                };
                write!(f, "{name} {rs1}, {rs2}, {offset}")
            }
            Insn::Load {
                width,
                signed,
                rd,
                rs1,
                offset,
            } => {
                let name = match (width, signed) {
                    (MemWidth::Byte, true) => "lb",
                    (MemWidth::Half, true) => "lh",
                    (MemWidth::Word, true) => "lw",
                    (MemWidth::Double, _) => "ld",
                    (MemWidth::Byte, false) => "lbu",
                    (MemWidth::Half, false) => "lhu",
                    (MemWidth::Word, false) => "lwu",
                };
                write!(f, "{name} {rd}, {offset}({rs1})")
            }
            Insn::Store {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let name = match width {
                    MemWidth::Byte => "sb",
                    MemWidth::Half => "sh",
                    MemWidth::Word => "sw",
                    MemWidth::Double => "sd",
                };
                write!(f, "{name} {rs2}, {offset}({rs1})")
            }
            Insn::OpImm { op, rd, rs1, imm } => {
                let name = match op {
                    AluOp::Add => "addi",
                    AluOp::Slt => "slti",
                    AluOp::Sltu => "sltiu",
                    AluOp::Xor => "xori",
                    AluOp::Or => "ori",
                    AluOp::And => "andi",
                    AluOp::Sll => "slli",
                    AluOp::Srl => "srli",
                    AluOp::Sra => "srai",
                    _ => "op-imm?",
                };
                write!(f, "{name} {rd}, {rs1}, {imm}")
            }
            Insn::OpImmW { op, rd, rs1, imm } => {
                let name = match op {
                    AluOp::Add => "addiw",
                    AluOp::Sll => "slliw",
                    AluOp::Srl => "srliw",
                    AluOp::Sra => "sraiw",
                    _ => "op-imm-w?",
                };
                write!(f, "{name} {rd}, {rs1}, {imm}")
            }
            Insn::Op { op, rd, rs1, rs2 } => {
                let name = match op {
                    AluOp::Add => "add",
                    AluOp::Sub => "sub",
                    AluOp::Sll => "sll",
                    AluOp::Slt => "slt",
                    AluOp::Sltu => "sltu",
                    AluOp::Xor => "xor",
                    AluOp::Srl => "srl",
                    AluOp::Sra => "sra",
                    AluOp::Or => "or",
                    AluOp::And => "and",
                    AluOp::Mul => "mul",
                    AluOp::Mulh => "mulh",
                    AluOp::Mulhsu => "mulhsu",
                    AluOp::Mulhu => "mulhu",
                    AluOp::Div => "div",
                    AluOp::Divu => "divu",
                    AluOp::Rem => "rem",
                    AluOp::Remu => "remu",
                };
                write!(f, "{name} {rd}, {rs1}, {rs2}")
            }
            Insn::OpW { op, rd, rs1, rs2 } => {
                let name = match op {
                    AluOp::Add => "addw",
                    AluOp::Sub => "subw",
                    AluOp::Sll => "sllw",
                    AluOp::Srl => "srlw",
                    AluOp::Sra => "sraw",
                    AluOp::Mul => "mulw",
                    AluOp::Div => "divw",
                    AluOp::Divu => "divuw",
                    AluOp::Rem => "remw",
                    AluOp::Remu => "remuw",
                    _ => "op-w?",
                };
                write!(f, "{name} {rd}, {rs1}, {rs2}")
            }
            Insn::Csr { op, rd, rs1, csr } => {
                let name = match op {
                    CsrOp::ReadWrite => "csrrw",
                    CsrOp::ReadSet => "csrrs",
                    CsrOp::ReadClear => "csrrc",
                };
                write!(f, "{name} {rd}, {csr:#x}, {rs1}")
            }
            Insn::CsrImm { op, rd, uimm, csr } => {
                let name = match op {
                    CsrOp::ReadWrite => "csrrwi",
                    CsrOp::ReadSet => "csrrsi",
                    CsrOp::ReadClear => "csrrci",
                };
                write!(f, "{name} {rd}, {csr:#x}, {uimm}")
            }
            Insn::Ecall => f.write_str("ecall"),
            Insn::Ebreak => f.write_str("ebreak"),
            Insn::Mret => f.write_str("mret"),
            Insn::Sret => f.write_str("sret"),
            Insn::Wfi => f.write_str("wfi"),
            Insn::Fence => f.write_str("fence"),
            Insn::Cre {
                key,
                rd,
                rs,
                rt,
                hi,
                lo,
            } => write!(f, "cre{key}k {rd}, {rs}[{hi}:{lo}], {rt}"),
            Insn::Crd {
                key,
                rd,
                rs,
                rt,
                hi,
                lo,
            } => write!(f, "crd{key}k {rd}, {rs}, {rt}, [{hi}:{lo}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_standard_encodings() {
        // Cross-checked against the RISC-V spec examples / gnu as output.
        // addi a0, a0, 1  -> 0x00150513
        let insn = Insn::OpImm {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 1,
        };
        assert_eq!(insn.encode().unwrap(), 0x0015_0513);
        // sd ra, 8(sp) -> 0x00113423
        let insn = Insn::Store {
            width: MemWidth::Double,
            rs2: Reg::Ra,
            rs1: Reg::Sp,
            offset: 8,
        };
        assert_eq!(insn.encode().unwrap(), 0x0011_3423);
        // ld a0, 0(s0) -> 0x00043503
        let insn = Insn::Load {
            width: MemWidth::Double,
            signed: true,
            rd: Reg::A0,
            rs1: Reg::S0,
            offset: 0,
        };
        assert_eq!(insn.encode().unwrap(), 0x0004_3503);
        // add a0, a1, a2 -> 0x00c58533
        let insn = Insn::Op {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(insn.encode().unwrap(), 0x00C5_8533);
        // ecall -> 0x00000073
        assert_eq!(Insn::Ecall.encode().unwrap(), 0x0000_0073);
        // mret -> 0x30200073
        assert_eq!(Insn::Mret.encode().unwrap(), 0x3020_0073);
    }

    #[test]
    fn out_of_range_immediates_error() {
        let insn = Insn::OpImm {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 4096,
        };
        assert!(matches!(
            insn.encode(),
            Err(IsaError::ImmediateOutOfRange { .. })
        ));
    }

    #[test]
    fn invalid_combinations_error() {
        let insn = Insn::OpImm {
            op: AluOp::Sub,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 0,
        };
        assert!(insn.encode().is_err());
        let insn = Insn::OpW {
            op: AluOp::And,
            rd: Reg::A0,
            rs1: Reg::A0,
            rs2: Reg::A1,
        };
        assert!(insn.encode().is_err());
    }

    #[test]
    fn cre_display_matches_paper_syntax() {
        let insn = Insn::Cre {
            key: KeyReg::A,
            rd: Reg::A0,
            rs: Reg::A0,
            rt: Reg::T1,
            hi: 7,
            lo: 0,
        };
        assert_eq!(insn.to_string(), "creak a0, a0[7:0], t1");
        let insn = Insn::Crd {
            key: KeyReg::A,
            rd: Reg::A0,
            rs: Reg::A0,
            rt: Reg::T1,
            hi: 3,
            lo: 0,
        };
        assert_eq!(insn.to_string(), "crdak a0, a0, t1, [3:0]");
    }

    #[test]
    fn cre_rejects_bad_range() {
        let insn = Insn::Cre {
            key: KeyReg::A,
            rd: Reg::A0,
            rs: Reg::A0,
            rt: Reg::T1,
            hi: 2,
            lo: 5,
        };
        assert!(matches!(insn.encode(), Err(IsaError::InvalidByteRange(_))));
    }
}
