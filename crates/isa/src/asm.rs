//! A small two-pass RISC-V assembler with RegVault mnemonics.
//!
//! The assembler exists so that tests, attack payloads and examples can be
//! written in the same syntax the paper uses (Figure 2), e.g.:
//!
//! ```text
//! # encrypt and store a pointer (in a0)
//! creak a0, a0[7:0], t1    ; encrypt pointer a0 using key reg a
//! sd    a0, 0(s0)          ; store the encrypted pointer
//! ```
//!
//! Supported syntax: every instruction in [`crate::Insn`], the usual
//! pseudo-instructions (`li`, `la`, `mv`, `nop`, `j`, `call`, `ret`, `neg`,
//! `not`, `seqz`, `snez`, `beqz`, `bnez`, `csrr`, `csrw`), labels, `.word` /
//! `.dword` data directives, `.zero` padding, and `#`/`;`/`//` comments.
//! Symbolic CSR names (`mstatus`, `sepc`, `key_a_lo`, ...) are recognised.

use std::collections::BTreeMap;

use crate::{csr, AluOp, BranchOp, CsrOp, Insn, IsaError, KeyReg, MemWidth, Reg};

/// An assembled program: raw bytes plus the symbol table.
///
/// # Examples
///
/// ```
/// use regvault_isa::asm;
///
/// let program = asm::assemble(
///     "entry:
///          li a0, 42
///          ret",
/// )?;
/// assert_eq!(program.symbol("entry"), Some(0));
/// assert_eq!(program.bytes().len(), 8);
/// # Ok::<(), regvault_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    bytes: Vec<u8>,
    symbols: BTreeMap<String, u64>,
}

impl Program {
    /// The assembled little-endian byte image (offset 0 = first line).
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The image reinterpreted as 32-bit little-endian words.
    ///
    /// # Panics
    ///
    /// Panics if the image length is not a multiple of 4 (only possible via
    /// future byte-granular directives; `.word`/`.dword`/`.zero` keep it
    /// aligned).
    #[must_use]
    pub fn words(&self) -> Vec<u32> {
        assert!(
            self.bytes.len().is_multiple_of(4),
            "image is not word-aligned"
        );
        self.bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect()
    }

    /// Byte offset of a label, if defined.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// All defined symbols and their byte offsets.
    #[must_use]
    pub fn symbols(&self) -> &BTreeMap<String, u64> {
        &self.symbols
    }
}

/// Largest `.zero` padding, in bytes: bounds how far one directive can
/// grow an image (the linker pads at most one 4 KiB page).
const MAX_ZERO: u64 = 1 << 20;

/// One assembly item after parsing.
enum Item {
    Insn(Insn),
    /// Branch/jump/`la` with a pending label (fixed up in pass 2).
    LabelRef {
        line: usize,
        kind: LabelKind,
        label: String,
    },
    Word(u32),
    Dword(u64),
    /// `.zero n`: `n` zero bytes, a multiple of 4.
    Zero(u64),
}

enum LabelKind {
    Jal(Reg),
    Branch(BranchOp, Reg, Reg),
    /// `la rd, label`: auipc + addi pair.
    La(Reg),
}

impl Item {
    fn size(&self) -> u64 {
        match self {
            Item::Insn(_) | Item::Word(_) => 4,
            Item::Dword(_) => 8,
            Item::Zero(n) => *n,
            Item::LabelRef { kind, .. } => match kind {
                LabelKind::La(_) => 8,
                _ => 4,
            },
        }
    }
}

/// Assembles source text into a [`Program`].
///
/// # Errors
///
/// Returns an [`IsaError`] describing the first syntax problem, unknown
/// mnemonic, out-of-range immediate, or undefined/duplicate label.
pub fn assemble(source: &str) -> Result<Program, IsaError> {
    let mut items = Vec::new();
    let mut symbols = BTreeMap::new();
    let mut offset = 0u64;

    // Pass 1: parse lines, collect label offsets.
    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let mut line = strip_comment(raw_line).trim();
        // Leading labels (possibly several).
        while let Some(colon) = find_label_colon(line) {
            let label = line[..colon].trim();
            validate_label(label, line_no)?;
            if symbols.insert(label.to_owned(), offset).is_some() {
                return Err(IsaError::DuplicateLabel(label.to_owned()));
            }
            line = line[colon + 1..].trim();
        }
        if line.is_empty() {
            continue;
        }
        for item in parse_statement(line, line_no)? {
            offset += item.size();
            items.push(item);
        }
    }

    // Pass 2: encode, resolving label references.
    let mut bytes = Vec::with_capacity(offset as usize);
    let mut pc = 0u64;
    for item in &items {
        match item {
            Item::Insn(insn) => bytes.extend_from_slice(&insn.encode()?.to_le_bytes()),
            Item::Word(w) => bytes.extend_from_slice(&w.to_le_bytes()),
            Item::Dword(d) => bytes.extend_from_slice(&d.to_le_bytes()),
            Item::Zero(n) => bytes.resize(bytes.len() + *n as usize, 0),
            Item::LabelRef { line, kind, label } => {
                let target = *symbols
                    .get(label)
                    .ok_or_else(|| IsaError::UndefinedLabel(label.clone()))?;
                let rel = target.wrapping_sub(pc) as i64;
                let rel32 = i32::try_from(rel).map_err(|_| IsaError::Syntax {
                    line: *line,
                    message: format!("label `{label}` too far away"),
                })?;
                match kind {
                    LabelKind::Jal(rd) => {
                        let insn = Insn::Jal {
                            rd: *rd,
                            offset: rel32,
                        };
                        bytes.extend_from_slice(&insn.encode()?.to_le_bytes());
                    }
                    LabelKind::Branch(op, rs1, rs2) => {
                        let insn = Insn::Branch {
                            op: *op,
                            rs1: *rs1,
                            rs2: *rs2,
                            offset: rel32,
                        };
                        bytes.extend_from_slice(&insn.encode()?.to_le_bytes());
                    }
                    LabelKind::La(rd) => {
                        // auipc rd, hi20 ; addi rd, rd, lo12 (pc-relative).
                        let hi = (rel32 + 0x800) >> 12;
                        let lo = rel32 - (hi << 12);
                        let auipc = Insn::Auipc { rd: *rd, imm20: hi };
                        let addi = Insn::OpImm {
                            op: AluOp::Add,
                            rd: *rd,
                            rs1: *rd,
                            imm: lo,
                        };
                        bytes.extend_from_slice(&auipc.encode()?.to_le_bytes());
                        bytes.extend_from_slice(&addi.encode()?.to_le_bytes());
                    }
                }
            }
        }
        pc += item.size();
    }

    Ok(Program { bytes, symbols })
}

fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for marker in ["#", ";", "//"] {
        if let Some(pos) = line.find(marker) {
            end = end.min(pos);
        }
    }
    &line[..end]
}

fn find_label_colon(line: &str) -> Option<usize> {
    let colon = line.find(':')?;
    let head = &line[..colon];
    // Only treat as label if the head looks like an identifier (avoids
    // interpreting `[7:0]` operands on a line without mnemonic — which
    // cannot happen anyway, but be safe).
    head.trim()
        .chars()
        .all(|c| c.is_alphanumeric() || c == '_' || c == '.')
        .then_some(colon)
}

fn validate_label(label: &str, line: usize) -> Result<(), IsaError> {
    if label.is_empty() || label.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return Err(IsaError::Syntax {
            line,
            message: format!("invalid label `{label}`"),
        });
    }
    Ok(())
}

fn parse_int(text: &str, line: usize) -> Result<i64, IsaError> {
    let text = text.trim();
    let (neg, body) = match text.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, text),
    };
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).map(|v| v as i64)
    } else {
        body.parse::<u64>().map(|v| v as i64)
    }
    .map_err(|_| IsaError::Syntax {
        line,
        message: format!("invalid integer `{text}`"),
    })?;
    Ok(if neg { value.wrapping_neg() } else { value })
}

fn parse_reg(text: &str, line: usize) -> Result<Reg, IsaError> {
    text.trim().parse().map_err(|_| IsaError::Syntax {
        line,
        message: format!("expected register, found `{text}`"),
    })
}

/// Parses `offset(reg)` memory operands.
fn parse_mem(text: &str, line: usize) -> Result<(i32, Reg), IsaError> {
    let text = text.trim();
    let open = text.find('(').ok_or_else(|| IsaError::Syntax {
        line,
        message: format!("expected `offset(reg)`, found `{text}`"),
    })?;
    let close = text.rfind(')').ok_or_else(|| IsaError::Syntax {
        line,
        message: "missing `)`".into(),
    })?;
    let offset_text = &text[..open];
    let offset = if offset_text.trim().is_empty() {
        0
    } else {
        parse_int(offset_text, line)? as i32
    };
    let reg = parse_reg(&text[open + 1..close], line)?;
    Ok((offset, reg))
}

/// Parses `[e:s]` byte ranges.
fn parse_range(text: &str, line: usize) -> Result<(u8, u8), IsaError> {
    let text = text.trim();
    let inner = text
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| IsaError::InvalidByteRange(text.to_owned()))?;
    let (hi_text, lo_text) = inner
        .split_once(':')
        .ok_or_else(|| IsaError::InvalidByteRange(text.to_owned()))?;
    let hi = parse_int(hi_text, line)? as u8;
    let lo = parse_int(lo_text, line)? as u8;
    if crate::ByteRange::new(hi, lo).is_none() {
        return Err(IsaError::InvalidByteRange(text.to_owned()));
    }
    Ok((hi, lo))
}

fn parse_csr_name(text: &str, line: usize) -> Result<u16, IsaError> {
    let text = text.trim();
    let named = match text {
        "sstatus" => Some(csr::SSTATUS),
        "stvec" => Some(csr::STVEC),
        "sscratch" => Some(csr::SSCRATCH),
        "sepc" => Some(csr::SEPC),
        "scause" => Some(csr::SCAUSE),
        "stval" => Some(csr::STVAL),
        "satp" => Some(csr::SATP),
        "mstatus" => Some(csr::MSTATUS),
        "mtvec" => Some(csr::MTVEC),
        "mscratch" => Some(csr::MSCRATCH),
        "mepc" => Some(csr::MEPC),
        "mcause" => Some(csr::MCAUSE),
        "mtval" => Some(csr::MTVAL),
        "cycle" => Some(csr::CYCLE),
        "instret" => Some(csr::INSTRET),
        _ => None,
    };
    if let Some(addr) = named {
        return Ok(addr);
    }
    if let Some(rest) = text.strip_prefix("key_") {
        if let Some((key_name, half)) = rest.split_once('_') {
            let key: KeyReg = key_name.parse()?;
            return Ok(match half {
                "lo" => csr::key_lo(key),
                "hi" => csr::key_hi(key),
                _ => {
                    return Err(IsaError::Syntax {
                        line,
                        message: format!("unknown key CSR half `{half}`"),
                    })
                }
            });
        }
    }
    Ok(parse_int(text, line)? as u16)
}

/// Splits operands on top-level commas.
fn split_operands(text: &str) -> Vec<&str> {
    if text.trim().is_empty() {
        return Vec::new();
    }
    text.split(',').map(str::trim).collect()
}

fn expect_operands(ops: &[&str], n: usize, line: usize, mnemonic: &str) -> Result<(), IsaError> {
    if ops.len() != n {
        return Err(IsaError::Syntax {
            line,
            message: format!("`{mnemonic}` expects {n} operands, found {}", ops.len()),
        });
    }
    Ok(())
}

/// Materializes a 64-bit constant, like the standard `li` expansion.
fn expand_li(rd: Reg, value: i64) -> Vec<Insn> {
    if (-2048..=2047).contains(&value) {
        return vec![Insn::OpImm {
            op: AluOp::Add,
            rd,
            rs1: Reg::Zero,
            imm: value as i32,
        }];
    }
    if i32::try_from(value).is_ok() {
        let value = value as i32;
        let hi = (value.wrapping_add(0x800)) >> 12;
        let lo = value.wrapping_sub(hi << 12);
        let mut insns = vec![Insn::Lui { rd, imm20: hi }];
        if lo != 0 {
            insns.push(Insn::OpImmW {
                op: AluOp::Add,
                rd,
                rs1: rd,
                imm: lo,
            });
        }
        return insns;
    }
    // General case: materialize the upper bits, shift, add the low 12.
    let lo12 = (value << 52) >> 52;
    let hi = (value.wrapping_sub(lo12)) >> 12;
    let mut insns = expand_li(rd, hi);
    insns.push(Insn::OpImm {
        op: AluOp::Sll,
        rd,
        rs1: rd,
        imm: 12,
    });
    if lo12 != 0 {
        insns.push(Insn::OpImm {
            op: AluOp::Add,
            rd,
            rs1: rd,
            imm: lo12 as i32,
        });
    }
    insns
}

#[allow(clippy::too_many_lines)]
fn parse_statement(line: &str, line_no: usize) -> Result<Vec<Item>, IsaError> {
    let (mnemonic, rest) = match line.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (line, ""),
    };
    let ops = split_operands(rest);
    let insn = |i: Insn| Ok(vec![Item::Insn(i)]);

    // RegVault cryptographic mnemonics: cre{key}k / crd{key}k.
    if let Some(key_letter) = mnemonic
        .strip_prefix("cre")
        .and_then(|m| m.strip_suffix('k'))
    {
        if key_letter.len() == 1 {
            let key: KeyReg = key_letter.parse()?;
            expect_operands(&ops, 3, line_no, mnemonic)?;
            let rd = parse_reg(ops[0], line_no)?;
            // rs[e:s]
            let open = ops[1].find('[').ok_or_else(|| IsaError::Syntax {
                line: line_no,
                message: format!("expected `rs[e:s]`, found `{}`", ops[1]),
            })?;
            let rs = parse_reg(&ops[1][..open], line_no)?;
            let (hi, lo) = parse_range(&ops[1][open..], line_no)?;
            let rt = parse_reg(ops[2], line_no)?;
            return insn(Insn::Cre {
                key,
                rd,
                rs,
                rt,
                hi,
                lo,
            });
        }
    }
    if let Some(key_letter) = mnemonic
        .strip_prefix("crd")
        .and_then(|m| m.strip_suffix('k'))
    {
        if key_letter.len() == 1 {
            let key: KeyReg = key_letter.parse()?;
            expect_operands(&ops, 4, line_no, mnemonic)?;
            let rd = parse_reg(ops[0], line_no)?;
            let rs = parse_reg(ops[1], line_no)?;
            let rt = parse_reg(ops[2], line_no)?;
            let (hi, lo) = parse_range(ops[3], line_no)?;
            return insn(Insn::Crd {
                key,
                rd,
                rs,
                rt,
                hi,
                lo,
            });
        }
    }

    match mnemonic {
        ".word" => {
            expect_operands(&ops, 1, line_no, ".word")?;
            Ok(vec![Item::Word(parse_int(ops[0], line_no)? as u32)])
        }
        ".dword" => {
            expect_operands(&ops, 1, line_no, ".dword")?;
            Ok(vec![Item::Dword(parse_int(ops[0], line_no)? as u64)])
        }
        ".zero" => {
            expect_operands(&ops, 1, line_no, ".zero")?;
            match u64::try_from(parse_int(ops[0], line_no)?) {
                Ok(n) if n.is_multiple_of(4) && n <= MAX_ZERO => Ok(vec![Item::Zero(n)]),
                _ => Err(IsaError::Syntax {
                    line: line_no,
                    message: format!(".zero takes a multiple of 4 bytes up to {MAX_ZERO}"),
                }),
            }
        }
        "lui" | "auipc" => {
            expect_operands(&ops, 2, line_no, mnemonic)?;
            let rd = parse_reg(ops[0], line_no)?;
            let imm20 = parse_int(ops[1], line_no)? as i32;
            insn(if mnemonic == "lui" {
                Insn::Lui { rd, imm20 }
            } else {
                Insn::Auipc { rd, imm20 }
            })
        }
        "jal" => match ops.len() {
            1 => Ok(vec![label_or_jal(Reg::Ra, ops[0], line_no)?]),
            2 => {
                let rd = parse_reg(ops[0], line_no)?;
                Ok(vec![label_or_jal(rd, ops[1], line_no)?])
            }
            n => Err(IsaError::Syntax {
                line: line_no,
                message: format!("`jal` expects 1 or 2 operands, found {n}"),
            }),
        },
        "j" => {
            expect_operands(&ops, 1, line_no, "j")?;
            Ok(vec![label_or_jal(Reg::Zero, ops[0], line_no)?])
        }
        "call" => {
            expect_operands(&ops, 1, line_no, "call")?;
            Ok(vec![label_or_jal(Reg::Ra, ops[0], line_no)?])
        }
        "jalr" => {
            expect_operands(&ops, 2, line_no, "jalr")?;
            let rd = parse_reg(ops[0], line_no)?;
            let (offset, rs1) = parse_mem(ops[1], line_no)?;
            insn(Insn::Jalr { rd, rs1, offset })
        }
        "jr" => {
            expect_operands(&ops, 1, line_no, "jr")?;
            let rs1 = parse_reg(ops[0], line_no)?;
            insn(Insn::Jalr {
                rd: Reg::Zero,
                rs1,
                offset: 0,
            })
        }
        "ret" => insn(Insn::Jalr {
            rd: Reg::Zero,
            rs1: Reg::Ra,
            offset: 0,
        }),
        "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" => {
            expect_operands(&ops, 3, line_no, mnemonic)?;
            let op = branch_op(mnemonic);
            let rs1 = parse_reg(ops[0], line_no)?;
            let rs2 = parse_reg(ops[1], line_no)?;
            Ok(vec![label_or_branch(op, rs1, rs2, ops[2], line_no)?])
        }
        "beqz" | "bnez" => {
            expect_operands(&ops, 2, line_no, mnemonic)?;
            let op = if mnemonic == "beqz" {
                BranchOp::Eq
            } else {
                BranchOp::Ne
            };
            let rs1 = parse_reg(ops[0], line_no)?;
            Ok(vec![label_or_branch(op, rs1, Reg::Zero, ops[1], line_no)?])
        }
        "lb" | "lh" | "lw" | "ld" | "lbu" | "lhu" | "lwu" => {
            expect_operands(&ops, 2, line_no, mnemonic)?;
            let rd = parse_reg(ops[0], line_no)?;
            let (offset, rs1) = parse_mem(ops[1], line_no)?;
            let (width, signed) = match mnemonic {
                "lb" => (MemWidth::Byte, true),
                "lh" => (MemWidth::Half, true),
                "lw" => (MemWidth::Word, true),
                "ld" => (MemWidth::Double, true),
                "lbu" => (MemWidth::Byte, false),
                "lhu" => (MemWidth::Half, false),
                _ => (MemWidth::Word, false),
            };
            insn(Insn::Load {
                width,
                signed,
                rd,
                rs1,
                offset,
            })
        }
        "sb" | "sh" | "sw" | "sd" => {
            expect_operands(&ops, 2, line_no, mnemonic)?;
            let rs2 = parse_reg(ops[0], line_no)?;
            let (offset, rs1) = parse_mem(ops[1], line_no)?;
            let width = match mnemonic {
                "sb" => MemWidth::Byte,
                "sh" => MemWidth::Half,
                "sw" => MemWidth::Word,
                _ => MemWidth::Double,
            };
            insn(Insn::Store {
                width,
                rs2,
                rs1,
                offset,
            })
        }
        "addi" | "slti" | "sltiu" | "xori" | "ori" | "andi" | "slli" | "srli" | "srai" => {
            expect_operands(&ops, 3, line_no, mnemonic)?;
            let rd = parse_reg(ops[0], line_no)?;
            let rs1 = parse_reg(ops[1], line_no)?;
            let imm = parse_int(ops[2], line_no)? as i32;
            let op = match mnemonic {
                "addi" => AluOp::Add,
                "slti" => AluOp::Slt,
                "sltiu" => AluOp::Sltu,
                "xori" => AluOp::Xor,
                "ori" => AluOp::Or,
                "andi" => AluOp::And,
                "slli" => AluOp::Sll,
                "srli" => AluOp::Srl,
                _ => AluOp::Sra,
            };
            insn(Insn::OpImm { op, rd, rs1, imm })
        }
        "addiw" | "slliw" | "srliw" | "sraiw" => {
            expect_operands(&ops, 3, line_no, mnemonic)?;
            let rd = parse_reg(ops[0], line_no)?;
            let rs1 = parse_reg(ops[1], line_no)?;
            let imm = parse_int(ops[2], line_no)? as i32;
            let op = match mnemonic {
                "addiw" => AluOp::Add,
                "slliw" => AluOp::Sll,
                "srliw" => AluOp::Srl,
                _ => AluOp::Sra,
            };
            insn(Insn::OpImmW { op, rd, rs1, imm })
        }
        "add" | "sub" | "sll" | "slt" | "sltu" | "xor" | "srl" | "sra" | "or" | "and" | "mul"
        | "mulh" | "mulhsu" | "mulhu" | "div" | "divu" | "rem" | "remu" => {
            expect_operands(&ops, 3, line_no, mnemonic)?;
            let rd = parse_reg(ops[0], line_no)?;
            let rs1 = parse_reg(ops[1], line_no)?;
            let rs2 = parse_reg(ops[2], line_no)?;
            insn(Insn::Op {
                op: alu_op(mnemonic),
                rd,
                rs1,
                rs2,
            })
        }
        "addw" | "subw" | "sllw" | "srlw" | "sraw" | "mulw" | "divw" | "divuw" | "remw"
        | "remuw" => {
            expect_operands(&ops, 3, line_no, mnemonic)?;
            let rd = parse_reg(ops[0], line_no)?;
            let rs1 = parse_reg(ops[1], line_no)?;
            let rs2 = parse_reg(ops[2], line_no)?;
            let base = mnemonic.trim_end_matches('w').trim_end_matches('u');
            let op = match mnemonic {
                "divuw" => AluOp::Divu,
                "remuw" => AluOp::Remu,
                _ => alu_op(base),
            };
            insn(Insn::OpW { op, rd, rs1, rs2 })
        }
        "li" => {
            expect_operands(&ops, 2, line_no, "li")?;
            let rd = parse_reg(ops[0], line_no)?;
            let value = parse_int(ops[1], line_no)?;
            Ok(expand_li(rd, value).into_iter().map(Item::Insn).collect())
        }
        "la" => {
            expect_operands(&ops, 2, line_no, "la")?;
            let rd = parse_reg(ops[0], line_no)?;
            Ok(vec![Item::LabelRef {
                line: line_no,
                kind: LabelKind::La(rd),
                label: ops[1].to_owned(),
            }])
        }
        "mv" => {
            expect_operands(&ops, 2, line_no, "mv")?;
            let rd = parse_reg(ops[0], line_no)?;
            let rs1 = parse_reg(ops[1], line_no)?;
            insn(Insn::OpImm {
                op: AluOp::Add,
                rd,
                rs1,
                imm: 0,
            })
        }
        "neg" => {
            expect_operands(&ops, 2, line_no, "neg")?;
            let rd = parse_reg(ops[0], line_no)?;
            let rs2 = parse_reg(ops[1], line_no)?;
            insn(Insn::Op {
                op: AluOp::Sub,
                rd,
                rs1: Reg::Zero,
                rs2,
            })
        }
        "not" => {
            expect_operands(&ops, 2, line_no, "not")?;
            let rd = parse_reg(ops[0], line_no)?;
            let rs1 = parse_reg(ops[1], line_no)?;
            insn(Insn::OpImm {
                op: AluOp::Xor,
                rd,
                rs1,
                imm: -1,
            })
        }
        "seqz" => {
            expect_operands(&ops, 2, line_no, "seqz")?;
            let rd = parse_reg(ops[0], line_no)?;
            let rs1 = parse_reg(ops[1], line_no)?;
            insn(Insn::OpImm {
                op: AluOp::Sltu,
                rd,
                rs1,
                imm: 1,
            })
        }
        "snez" => {
            expect_operands(&ops, 2, line_no, "snez")?;
            let rd = parse_reg(ops[0], line_no)?;
            let rs2 = parse_reg(ops[1], line_no)?;
            insn(Insn::Op {
                op: AluOp::Sltu,
                rd,
                rs1: Reg::Zero,
                rs2,
            })
        }
        "nop" => insn(Insn::OpImm {
            op: AluOp::Add,
            rd: Reg::Zero,
            rs1: Reg::Zero,
            imm: 0,
        }),
        "csrrw" | "csrrs" | "csrrc" => {
            expect_operands(&ops, 3, line_no, mnemonic)?;
            let op = csr_op(mnemonic);
            let rd = parse_reg(ops[0], line_no)?;
            let csr = parse_csr_name(ops[1], line_no)?;
            let rs1 = parse_reg(ops[2], line_no)?;
            insn(Insn::Csr { op, rd, rs1, csr })
        }
        "csrrwi" | "csrrsi" | "csrrci" => {
            expect_operands(&ops, 3, line_no, mnemonic)?;
            let op = csr_op(&mnemonic[..5]);
            let rd = parse_reg(ops[0], line_no)?;
            let csr = parse_csr_name(ops[1], line_no)?;
            let uimm = parse_int(ops[2], line_no)? as u8;
            insn(Insn::CsrImm { op, rd, uimm, csr })
        }
        "csrr" => {
            expect_operands(&ops, 2, line_no, "csrr")?;
            let rd = parse_reg(ops[0], line_no)?;
            let csr = parse_csr_name(ops[1], line_no)?;
            insn(Insn::Csr {
                op: CsrOp::ReadSet,
                rd,
                rs1: Reg::Zero,
                csr,
            })
        }
        "csrw" => {
            expect_operands(&ops, 2, line_no, "csrw")?;
            let csr = parse_csr_name(ops[0], line_no)?;
            let rs1 = parse_reg(ops[1], line_no)?;
            insn(Insn::Csr {
                op: CsrOp::ReadWrite,
                rd: Reg::Zero,
                rs1,
                csr,
            })
        }
        "ecall" => insn(Insn::Ecall),
        "ebreak" => insn(Insn::Ebreak),
        "mret" => insn(Insn::Mret),
        "sret" => insn(Insn::Sret),
        "wfi" => insn(Insn::Wfi),
        "fence" => insn(Insn::Fence),
        other => Err(IsaError::UnknownMnemonic(other.to_owned())),
    }
}

fn label_or_jal(rd: Reg, target: &str, line: usize) -> Result<Item, IsaError> {
    if let Ok(offset) = parse_int(target, line) {
        Ok(Item::Insn(Insn::Jal {
            rd,
            offset: offset as i32,
        }))
    } else {
        Ok(Item::LabelRef {
            line,
            kind: LabelKind::Jal(rd),
            label: target.to_owned(),
        })
    }
}

fn label_or_branch(
    op: BranchOp,
    rs1: Reg,
    rs2: Reg,
    target: &str,
    line: usize,
) -> Result<Item, IsaError> {
    if let Ok(offset) = parse_int(target, line) {
        Ok(Item::Insn(Insn::Branch {
            op,
            rs1,
            rs2,
            offset: offset as i32,
        }))
    } else {
        Ok(Item::LabelRef {
            line,
            kind: LabelKind::Branch(op, rs1, rs2),
            label: target.to_owned(),
        })
    }
}

fn branch_op(mnemonic: &str) -> BranchOp {
    match mnemonic {
        "beq" => BranchOp::Eq,
        "bne" => BranchOp::Ne,
        "blt" => BranchOp::Lt,
        "bge" => BranchOp::Ge,
        "bltu" => BranchOp::Ltu,
        _ => BranchOp::Geu,
    }
}

fn alu_op(mnemonic: &str) -> AluOp {
    match mnemonic {
        "add" => AluOp::Add,
        "sub" => AluOp::Sub,
        "sll" => AluOp::Sll,
        "slt" => AluOp::Slt,
        "sltu" => AluOp::Sltu,
        "xor" => AluOp::Xor,
        "srl" => AluOp::Srl,
        "sra" => AluOp::Sra,
        "or" => AluOp::Or,
        "and" => AluOp::And,
        "mul" => AluOp::Mul,
        "mulh" => AluOp::Mulh,
        "mulhsu" => AluOp::Mulhsu,
        "mulhu" => AluOp::Mulhu,
        "div" => AluOp::Div,
        "divu" => AluOp::Divu,
        "rem" => AluOp::Rem,
        _ => AluOp::Remu,
    }
}

fn csr_op(mnemonic: &str) -> CsrOp {
    match mnemonic {
        "csrrw" => CsrOp::ReadWrite,
        "csrrs" => CsrOp::ReadSet,
        _ => CsrOp::ReadClear,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;

    #[test]
    fn assembles_paper_figure_2a() {
        let program = assemble(
            "creak a0, a0[7:0], t1 ; encrypt pointer
             sd a0, 0(s0)          ; store it
             ld a0, 0(s0)          # load it back
             crdak a0, a0, t1, [7:0]",
        )
        .unwrap();
        let words = program.words();
        assert_eq!(words.len(), 4);
        assert_eq!(
            decode(words[0]).unwrap().to_string(),
            "creak a0, a0[7:0], t1"
        );
        assert_eq!(
            decode(words[3]).unwrap().to_string(),
            "crdak a0, a0, t1, [7:0]"
        );
    }

    #[test]
    fn labels_and_branches_resolve() {
        let program = assemble(
            "start:
                 li a0, 0
             loop:
                 addi a0, a0, 1
                 blt a0, a1, loop
                 j start
                 ret",
        )
        .unwrap();
        assert_eq!(program.symbol("start"), Some(0));
        assert_eq!(program.symbol("loop"), Some(4));
        let words = program.words();
        // blt at offset 8 targets 4 => offset -4.
        match decode(words[2]).unwrap() {
            Insn::Branch { offset, .. } => assert_eq!(offset, -4),
            other => panic!("expected branch, got {other}"),
        }
        // j at offset 12 targets 0 => offset -12.
        match decode(words[3]).unwrap() {
            Insn::Jal { offset, .. } => assert_eq!(offset, -12),
            other => panic!("expected jal, got {other}"),
        }
    }

    #[test]
    fn li_expansion_covers_value_ranges() {
        for value in [
            0i64,
            1,
            -1,
            2047,
            -2048,
            0x1234,
            -0x1234,
            0x7FFF_FFFF,
            -0x8000_0000,
            0x1234_5678_9ABC_DEF0,
            i64::MIN,
            i64::MAX,
        ] {
            let program = assemble(&format!("li a0, {value}")).unwrap();
            assert!(!program.bytes().is_empty(), "value {value}");
            // Every emitted word must decode.
            for word in program.words() {
                decode(word).unwrap();
            }
        }
    }

    #[test]
    fn duplicate_labels_rejected() {
        assert!(matches!(
            assemble("a:\na:\n nop"),
            Err(IsaError::DuplicateLabel(_))
        ));
    }

    #[test]
    fn undefined_label_rejected() {
        assert!(matches!(
            assemble("j nowhere"),
            Err(IsaError::UndefinedLabel(_))
        ));
    }

    #[test]
    fn data_directives_emit_bytes() {
        let program = assemble(
            "value: .dword 0x1122334455667788
             tag:   .word 0xdeadbeef",
        )
        .unwrap();
        assert_eq!(program.bytes().len(), 12);
        assert_eq!(program.symbol("value"), Some(0));
        assert_eq!(program.symbol("tag"), Some(8));
        assert_eq!(program.bytes()[0], 0x88);
        assert_eq!(program.bytes()[8], 0xEF);
    }

    #[test]
    fn zero_directive_pads_whole_words() {
        let program = assemble(
            "pad:  .zero 4088
             code: addi a0, a0, 1",
        )
        .unwrap();
        assert_eq!(program.symbol("code"), Some(4088));
        assert_eq!(program.bytes().len(), 4092);
        assert!(program.bytes()[..4088].iter().all(|&b| b == 0));
        let too_big = format!(".zero {}", MAX_ZERO + 4);
        for bad in [".zero 6", ".zero -4", ".zero", too_big.as_str()] {
            assert!(
                matches!(assemble(bad), Err(IsaError::Syntax { .. })),
                "{bad}"
            );
        }
        assert!(assemble(&format!(".zero {MAX_ZERO}")).is_ok());
    }

    #[test]
    fn csr_symbolic_names() {
        let program = assemble("csrw key_a_lo, a0\ncsrw key_a_hi, a1\ncsrr t0, mstatus").unwrap();
        let words = program.words();
        match decode(words[0]).unwrap() {
            Insn::Csr { csr, .. } => assert_eq!(csr, crate::csr::key_lo(KeyReg::A)),
            other => panic!("unexpected {other}"),
        }
        match decode(words[2]).unwrap() {
            Insn::Csr { csr, .. } => assert_eq!(csr, crate::csr::MSTATUS),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn unknown_mnemonic_is_reported() {
        assert!(matches!(
            assemble("frobnicate a0"),
            Err(IsaError::UnknownMnemonic(_))
        ));
    }
}
