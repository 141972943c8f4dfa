//! RV64 code generation and linking.
//!
//! Codegen consumes instrumented IR, runs [`crate::regalloc`], and emits
//! assembly text for the `regvault-isa` assembler. RegVault-specific
//! behaviour implemented here:
//!
//! * **Return-address protection** (§3.1.1): `creak ra, ra[7:0], sp` in the
//!   prologue and `crdak ra, ra, sp, [7:0]` in the epilogue, with the stack
//!   pointer as the diversifying tweak.
//! * **Intra-procedural spilling protection** (§2.4.4): slot traffic for
//!   sensitive virtual registers is wrapped in `cre`/`crd`, with the slot
//!   address as tweak and the dedicated spill key.
//! * **Cross-call spilling protection** (§2.4.4): sensitive values live
//!   across a call are saved encrypted and restored with decryption around
//!   the call site (the allocator already keeps them out of callee-saved
//!   registers).
//!
//! The linker places globals first (8-aligned, padded out to a page of
//! their own), then all functions, then an entry trampoline; the image is
//! position-independent.

use std::fmt::Write as _;

use regvault_isa::{asm, AluOp, Reg};

use crate::config::CompileConfig;
use crate::error::CompileError;
use crate::ir::{Function, Inst, MemTy, Module, Terminator, VReg};
use crate::regalloc::{self, Allocation, Loc};

/// Scratch registers reserved by codegen (never allocated).
const SCRATCH_A: Reg = Reg::T4;
const SCRATCH_B: Reg = Reg::T5;
const SCRATCH_TWEAK: Reg = Reg::T6;

/// A fully compiled and linked program image.
///
/// The image is position independent; load it anywhere (4-byte aligned;
/// a page-aligned base keeps code off the globals' page) and start
/// execution at [`CompiledProgram::entry_offset`].
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    asm_text: String,
    program: asm::Program,
}

impl CompiledProgram {
    /// The generated assembly listing (useful for inspection and tests).
    #[must_use]
    pub fn asm_text(&self) -> &str {
        &self.asm_text
    }

    /// The raw image bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        self.program.bytes()
    }

    /// Byte offset of a symbol (function, block, or global).
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.program.symbol(name)
    }

    /// All defined symbols (functions, globals, locals) and their byte
    /// offsets in the image.
    #[must_use]
    pub fn symbols(&self) -> &std::collections::BTreeMap<String, u64> {
        self.program.symbols()
    }

    /// Byte offset of the entry trampoline (present when the module defines
    /// `main`).
    #[must_use]
    pub fn entry_offset(&self) -> Option<u64> {
        self.symbol("__start")
    }

    /// Loads the image into a machine at `base` and returns the absolute
    /// entry address.
    ///
    /// # Panics
    ///
    /// Panics if the module has no `main` (and hence no entry trampoline).
    pub fn load(&self, machine: &mut regvault_sim::Machine, base: u64) -> u64 {
        machine.load_program(base, self.bytes());
        base + self.entry_offset().expect("module defines `main`")
    }

    /// Counts occurrences of a mnemonic in the listing (test helper).
    #[must_use]
    pub fn count_mnemonic(&self, mnemonic: &str) -> usize {
        self.asm_text
            .lines()
            .filter(|line| line.trim_start().starts_with(mnemonic))
            .count()
    }
}

struct FnEmitter<'a> {
    config: &'a CompileConfig,
    alloc: Allocation,
    text: String,
    frame: Frame,
    name: String,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    size: i64,
    ra_off: i64,
    cs_base: i64,
    spill_base: i64,
    callsave_base: i64,
}

impl Frame {
    fn new(num_callee_saved: usize, num_spills: usize) -> Self {
        let ra_off = 0;
        let cs_base = 8;
        let spill_base = cs_base + 8 * num_callee_saved as i64;
        let callsave_base = spill_base + 8 * num_spills as i64;
        let raw = callsave_base + 8 * 4; // room to save t0–t3 across calls
        let size = (raw + 15) & !15;
        Self {
            size,
            ra_off,
            cs_base,
            spill_base,
            callsave_base,
        }
    }

    fn spill_off(&self, slot: usize) -> i64 {
        self.spill_base + 8 * slot as i64
    }

    fn callsave_off(&self, reg: Reg) -> i64 {
        let index = regalloc::CALLER_POOL
            .iter()
            .position(|r| *r == reg)
            .expect("call saves only for t0-t3");
        self.callsave_base + 8 * index as i64
    }
}

impl FnEmitter<'_> {
    fn emit(&mut self, line: &str) {
        let _ = writeln!(self.text, "    {line}");
    }

    fn label(&mut self, label: &str) {
        let _ = writeln!(self.text, "{label}:");
    }

    fn block_label(&self, bb: usize) -> String {
        format!(".L_{}_{bb}", self.name)
    }

    /// Materializes `sp + off` into the tweak scratch register, handling
    /// offsets beyond the 12-bit immediate range.
    fn slot_addr(&mut self, off: i64) {
        if (-2048..=2047).contains(&off) {
            self.emit(&format!("addi {SCRATCH_TWEAK}, sp, {off}"));
        } else {
            self.emit(&format!("li {SCRATCH_TWEAK}, {off}"));
            self.emit(&format!("add {SCRATCH_TWEAK}, {SCRATCH_TWEAK}, sp"));
        }
    }

    /// `sd`/`ld` on a frame slot, via the scratch register when the offset
    /// exceeds the immediate range.
    fn slot_mem(&mut self, op: &str, reg: Reg, off: i64) {
        if (-2048..=2047).contains(&off) {
            self.emit(&format!("{op} {reg}, {off}(sp)"));
        } else {
            self.slot_addr(off);
            self.emit(&format!("{op} {reg}, 0({SCRATCH_TWEAK})"));
        }
    }

    /// Encrypted (or plain) store of `reg` to a frame slot at `off`.
    fn protected_slot_store(&mut self, reg: Reg, off: i64, sensitive: bool) {
        if sensitive && self.config.protect_spills {
            let key = self.config.keys.spill;
            self.slot_addr(off);
            self.emit(&format!(
                "cre{key}k {SCRATCH_B}, {reg}[7:0], {SCRATCH_TWEAK}"
            ));
            self.emit(&format!("sd {SCRATCH_B}, 0({SCRATCH_TWEAK})"));
        } else {
            self.slot_mem("sd", reg, off);
        }
    }

    /// Decrypted (or plain) reload from a frame slot into `reg`.
    fn protected_slot_load(&mut self, reg: Reg, off: i64, sensitive: bool) {
        if sensitive && self.config.protect_spills {
            let key = self.config.keys.spill;
            self.slot_addr(off);
            self.emit(&format!("ld {reg}, 0({SCRATCH_TWEAK})"));
            self.emit(&format!("crd{key}k {reg}, {reg}, {SCRATCH_TWEAK}, [7:0]"));
        } else {
            self.slot_mem("ld", reg, off);
        }
    }

    /// Makes the value of `vreg` available in a register, loading spilled
    /// values into `scratch`.
    fn read(&mut self, vreg: VReg, scratch: Reg) -> Reg {
        match self.alloc.loc(vreg) {
            Loc::Reg(reg) => reg,
            Loc::Spill(slot) => {
                let off = self.frame.spill_off(slot);
                let sensitive = self.alloc.is_sensitive(vreg);
                self.protected_slot_load(scratch, off, sensitive);
                scratch
            }
        }
    }

    /// The register an instruction should compute its result into.
    fn dst_reg(&self, vreg: VReg) -> Reg {
        match self.alloc.loc(vreg) {
            Loc::Reg(reg) => reg,
            Loc::Spill(_) => SCRATCH_A,
        }
    }

    /// Writes a computed result back if the destination vreg is spilled.
    fn write_back(&mut self, vreg: VReg, from: Reg) {
        match self.alloc.loc(vreg) {
            Loc::Reg(reg) => {
                if reg != from {
                    self.emit(&format!("mv {reg}, {from}"));
                }
            }
            Loc::Spill(slot) => {
                let off = self.frame.spill_off(slot);
                let sensitive = self.alloc.is_sensitive(vreg);
                self.protected_slot_store(from, off, sensitive);
            }
        }
    }

    fn prologue(&mut self, function: &Function) {
        if self.frame.size <= 2047 {
            self.emit(&format!("addi sp, sp, -{}", self.frame.size));
        } else {
            self.emit(&format!("li {SCRATCH_TWEAK}, {}", self.frame.size));
            self.emit(&format!("sub sp, sp, {SCRATCH_TWEAK}"));
        }
        if self.config.protect_ra {
            let key = self.config.keys.return_addr;
            self.emit(&format!("cre{key}k ra, ra[7:0], sp"));
        }
        self.emit(&format!("sd ra, {}(sp)", self.frame.ra_off));
        let saved: Vec<Reg> = self.alloc.used_callee_saved.iter().copied().collect();
        for (i, reg) in saved.iter().enumerate() {
            let off = self.frame.cs_base + 8 * i as i64;
            self.slot_mem("sd", *reg, off);
        }
        // Move incoming arguments to their allocated homes.
        for i in 0..function.num_params {
            let param = VReg(i as u32);
            let arg_reg = regvault_isa::abi::ARG_REGS[i];
            match self.alloc.loc(param) {
                Loc::Reg(reg) => {
                    if reg != arg_reg {
                        self.emit(&format!("mv {reg}, {arg_reg}"));
                    }
                }
                Loc::Spill(slot) => {
                    let off = self.frame.spill_off(slot);
                    let sensitive = self.alloc.is_sensitive(param);
                    self.protected_slot_store(arg_reg, off, sensitive);
                }
            }
        }
    }

    fn epilogue(&mut self, value: Option<VReg>) {
        if let Some(vreg) = value {
            let reg = self.read(vreg, SCRATCH_A);
            if reg != Reg::A0 {
                self.emit(&format!("mv a0, {reg}"));
            }
        }
        let saved: Vec<Reg> = self.alloc.used_callee_saved.iter().copied().collect();
        for (i, reg) in saved.iter().enumerate() {
            let off = self.frame.cs_base + 8 * i as i64;
            self.slot_mem("ld", *reg, off);
        }
        self.emit(&format!("ld ra, {}(sp)", self.frame.ra_off));
        if self.config.protect_ra {
            let key = self.config.keys.return_addr;
            self.emit(&format!("crd{key}k ra, ra, sp, [7:0]"));
        }
        if self.frame.size <= 2047 {
            self.emit(&format!("addi sp, sp, {}", self.frame.size));
        } else {
            self.emit(&format!("li {SCRATCH_TWEAK}, {}", self.frame.size));
            self.emit(&format!("add sp, sp, {SCRATCH_TWEAK}"));
        }
        self.emit("ret");
    }

    /// Saves caller-saved registers live across the call at `pos`,
    /// encrypting sensitive ones (cross-call spilling protection).
    fn call_saves(&mut self, pos: usize) -> Vec<(VReg, Reg)> {
        let live = self.alloc.live_across_call(pos);
        for &(vreg, reg) in &live {
            let off = self.frame.callsave_off(reg);
            let sensitive = self.alloc.is_sensitive(vreg);
            self.protected_slot_store(reg, off, sensitive);
        }
        live
    }

    fn call_restores(&mut self, live: &[(VReg, Reg)]) {
        for &(vreg, reg) in live {
            let off = self.frame.callsave_off(reg);
            let sensitive = self.alloc.is_sensitive(vreg);
            self.protected_slot_load(reg, off, sensitive);
        }
    }

    fn move_args(&mut self, args: &[VReg]) {
        for (i, &arg) in args.iter().enumerate() {
            let src = self.read(arg, SCRATCH_A);
            let dst = regvault_isa::abi::ARG_REGS[i];
            if src != dst {
                self.emit(&format!("mv {dst}, {src}"));
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn inst(&mut self, inst: &Inst, pos: usize, module: &Module) -> Result<(), CompileError> {
        match inst {
            Inst::Const { dst, value } => {
                let rd = self.dst_reg(*dst);
                self.emit(&format!("li {rd}, {value}"));
                self.write_back(*dst, rd);
            }
            Inst::Bin { op, dst, lhs, rhs } => {
                let a = self.read(*lhs, SCRATCH_A);
                let b = self.read(*rhs, SCRATCH_B);
                let rd = self.dst_reg(*dst);
                self.emit(&format!("{} {rd}, {a}, {b}", op_name(*op)));
                self.write_back(*dst, rd);
            }
            Inst::BinImm { op, dst, lhs, imm } => {
                let a = self.read(*lhs, SCRATCH_A);
                let rd = self.dst_reg(*dst);
                let mnemonic = imm_op_name(*op).ok_or_else(|| {
                    CompileError::Assembly(format!("no immediate form for {op:?}"))
                })?;
                self.emit(&format!("{mnemonic} {rd}, {a}, {imm}"));
                self.write_back(*dst, rd);
            }
            Inst::GlobalAddr { dst, name } => {
                if !module.globals.iter().any(|g| g.name == *name) {
                    return Err(CompileError::UnknownFunction(name.clone()));
                }
                let rd = self.dst_reg(*dst);
                self.emit(&format!("la {rd}, {name}"));
                self.write_back(*dst, rd);
            }
            Inst::FieldAddr {
                dst,
                base,
                sid,
                field,
            } => {
                let def = module
                    .structs
                    .get(*sid)
                    .ok_or(CompileError::UnknownStruct(*sid))?;
                if *field >= def.fields.len() {
                    return Err(CompileError::UnknownField {
                        strukt: def.name.clone(),
                        field: *field,
                    });
                }
                let offset = def.offset(*field);
                let b = self.read(*base, SCRATCH_A);
                let rd = self.dst_reg(*dst);
                self.emit(&format!("addi {rd}, {b}, {offset}"));
                self.write_back(*dst, rd);
            }
            Inst::Load { dst, addr, ty } => {
                let a = self.read(*addr, SCRATCH_A);
                let rd = self.dst_reg(*dst);
                self.emit(&format!("{} {rd}, 0({a})", load_name(*ty)));
                self.write_back(*dst, rd);
            }
            Inst::Store { addr, value, ty } => {
                let a = self.read(*addr, SCRATCH_A);
                let v = self.read(*value, SCRATCH_B);
                self.emit(&format!("{} {v}, 0({a})", store_name(*ty)));
            }
            Inst::Encrypt {
                dst,
                src,
                key,
                tweak,
                range,
            } => {
                let s = self.read(*src, SCRATCH_A);
                let t = self.read(*tweak, SCRATCH_B);
                let rd = self.dst_reg(*dst);
                self.emit(&format!(
                    "cre{key}k {rd}, {s}[{}:{}], {t}",
                    range.hi(),
                    range.lo()
                ));
                self.write_back(*dst, rd);
            }
            Inst::Decrypt {
                dst,
                src,
                key,
                tweak,
                range,
            } => {
                let s = self.read(*src, SCRATCH_A);
                let t = self.read(*tweak, SCRATCH_B);
                let rd = self.dst_reg(*dst);
                self.emit(&format!(
                    "crd{key}k {rd}, {s}, {t}, [{}:{}]",
                    range.hi(),
                    range.lo()
                ));
                self.write_back(*dst, rd);
            }
            Inst::Call { dst, callee, args } => {
                if module.function(callee).is_none() {
                    return Err(CompileError::UnknownFunction(callee.clone()));
                }
                let live = self.call_saves(pos);
                self.move_args(args);
                self.emit(&format!("call {callee}"));
                if let Some(dst) = dst {
                    self.write_back(*dst, Reg::A0);
                }
                self.call_restores(&live);
            }
            Inst::CallIndirect { dst, ptr, args } => {
                let live = self.call_saves(pos);
                // Arguments first; the target is fetched last so no arg
                // move (or large-offset slot reload, which uses the tweak
                // scratch) can clobber it.
                self.move_args(args);
                let p = self.read(*ptr, SCRATCH_A);
                self.emit(&format!("jalr ra, 0({p})"));
                if let Some(dst) = dst {
                    self.write_back(*dst, Reg::A0);
                }
                self.call_restores(&live);
            }
            Inst::Syscall { dst, num, args } => {
                // Kernel contract: all registers except a0 are preserved.
                self.move_args(args);
                self.emit(&format!("li a7, {num}"));
                self.emit("ecall");
                if let Some(dst) = dst {
                    self.write_back(*dst, Reg::A0);
                }
            }
            Inst::LoadField { .. } | Inst::StoreField { .. } | Inst::CopyStruct { .. } => {
                return Err(CompileError::Assembly(
                    "typed field access survived instrumentation".into(),
                ));
            }
        }
        Ok(())
    }
}

fn op_name(op: AluOp) -> &'static str {
    match op {
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
    }
}

fn imm_op_name(op: AluOp) -> Option<&'static str> {
    Some(match op {
        AluOp::Add => "addi",
        AluOp::Slt => "slti",
        AluOp::Sltu => "sltiu",
        AluOp::Xor => "xori",
        AluOp::Or => "ori",
        AluOp::And => "andi",
        AluOp::Sll => "slli",
        AluOp::Srl => "srli",
        AluOp::Sra => "srai",
        _ => return None,
    })
}

fn load_name(ty: MemTy) -> &'static str {
    match ty {
        MemTy::U8 => "lbu",
        MemTy::U32 => "lwu",
        MemTy::I64 => "ld",
    }
}

fn store_name(ty: MemTy) -> &'static str {
    match ty {
        MemTy::U8 => "sb",
        MemTy::U32 => "sw",
        MemTy::I64 => "sd",
    }
}

/// Generates assembly for one (already instrumented) function.
fn codegen_function(
    function: &Function,
    module: &Module,
    config: &CompileConfig,
) -> Result<String, CompileError> {
    if function.num_params > 8 {
        return Err(CompileError::TooManyParams {
            function: function.name.clone(),
            count: function.num_params,
        });
    }
    let alloc = regalloc::allocate(function, config);
    let frame = Frame::new(alloc.used_callee_saved.len(), alloc.num_spill_slots);
    let mut emitter = FnEmitter {
        config,
        alloc,
        text: String::new(),
        frame,
        name: function.name.clone(),
    };

    emitter.label(&function.name);
    emitter.prologue(function);

    let mut pos = 1usize; // position 0 is function entry (parameter defs)
    for (bb, block) in function.blocks.iter().enumerate() {
        let label = emitter.block_label(bb);
        emitter.label(&label);
        for inst in &block.insts {
            emitter.inst(inst, pos, module)?;
            pos += 1;
        }
        match &block.term {
            Terminator::Ret(value) => emitter.epilogue(*value),
            Terminator::Br(target) => {
                let target = emitter.block_label(*target);
                emitter.emit(&format!("j {target}"));
            }
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = emitter.read(*cond, SCRATCH_A);
                let then_label = emitter.block_label(*then_bb);
                let else_label = emitter.block_label(*else_bb);
                emitter.emit(&format!("bnez {c}, {then_label}"));
                emitter.emit(&format!("j {else_label}"));
            }
        }
        pos += 1;
    }
    Ok(emitter.text)
}

/// Compiles and links an instrumented module into a loadable image.
///
/// Layout, from offset 0 of the image:
/// - the globals, as 8-aligned dwords, padded with zeros to the next page
///   boundary ([`regvault_sim::PAGE_SIZE`]) when the module has any;
/// - every function, the first one starting on that fresh page;
/// - the `__start` trampoline (`call main; ebreak`) if the module defines
///   `main`.
///
/// Loaded at a page-aligned base, code then never shares a page with
/// data. The simulator invalidates decoded code a page at a time, so a
/// store to a global would otherwise throw away the translated code of
/// the page it shares.
///
/// # Errors
///
/// Propagates [`CompileError`]s from codegen and wraps assembler failures.
pub fn link(module: &Module, config: &CompileConfig) -> Result<CompiledProgram, CompileError> {
    let mut text = String::new();

    // Globals first: every .dword keeps 8-byte alignment.
    let mut data_bytes = 0u64;
    for global in &module.globals {
        let _ = writeln!(text, "{}:", global.name);
        let words = global.size.div_ceil(8);
        let mut init = global.init.clone();
        init.resize((words * 8) as usize, 0);
        for chunk in init.chunks_exact(8) {
            let value = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            let _ = writeln!(text, "    .dword {value:#x}");
        }
        if words == 0 {
            let _ = writeln!(text, "    .dword 0");
        }
        data_bytes += words.max(1) * 8;
    }
    let pad = data_bytes.next_multiple_of(regvault_sim::PAGE_SIZE) - data_bytes;
    if pad > 0 {
        let _ = writeln!(text, "    .zero {pad}");
    }

    for function in &module.functions {
        text.push_str(&codegen_function(function, module, config)?);
    }

    if module.function("main").is_some() {
        text.push_str("__start:\n    call main\n    ebreak\n");
    }

    let program =
        asm::assemble(&text).map_err(|err| CompileError::Assembly(format!("{err}\n{text}")))?;
    Ok(CompiledProgram {
        asm_text: text,
        program,
    })
}

// Ensure the vreg->position bookkeeping in codegen stays in sync with the
// allocator's (they iterate blocks identically).
#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument;
    use crate::ir::{FunctionBuilder, Module};
    use crate::types::{Annotation, FieldDef, FieldType, StructDef};
    use regvault_isa::KeyReg;
    use regvault_sim::{Machine, MachineConfig};

    fn run_main(module: &Module, config: &CompileConfig) -> u64 {
        let instrumented = instrument::instrument(module, config).unwrap();
        let compiled = link(&instrumented, config).unwrap();
        let mut machine = Machine::new(MachineConfig::default());
        machine.write_key_register(KeyReg::A, 0x10, 0x11).unwrap();
        machine.write_key_register(KeyReg::B, 0x20, 0x21).unwrap();
        machine.write_key_register(KeyReg::D, 0x40, 0x41).unwrap();
        machine.write_key_register(KeyReg::E, 0x50, 0x51).unwrap();
        let entry = compiled.load(&mut machine, 0x8000_0000);
        machine.hart_mut().set_pc(entry);
        machine.memory_mut().map_region(0x7000_0000, 0x10000); // stack
        machine.hart_mut().set_reg(Reg::Sp, 0x7000_F000);
        machine.run_until_break(2_000_000).unwrap();
        machine.hart().reg(Reg::A0)
    }

    fn arith_module() -> Module {
        let mut module = Module::new("m");
        // fn main() { let mut acc = 0; for i in 1..=10 { acc += i*i } acc }
        let mut f = FunctionBuilder::new("main", 0);
        let acc0 = f.konst(0);
        let i0 = f.konst(1);
        let limit = f.konst(11);
        // Loop with explicit blocks; vregs acc0/i0 are mutated via adds into
        // fresh regs then moved back through a "phi-less" trick: use globals.
        module.add_global("acc", 8);
        module.add_global("i", 8);
        let acc_addr = f.global_addr("acc");
        let i_addr = f.global_addr("i");
        f.store(acc_addr, acc0, MemTy::I64);
        f.store(i_addr, i0, MemTy::I64);
        let body = f.new_block();
        let done = f.new_block();
        f.br(body);
        f.switch_to(body);
        let i = f.load(i_addr, MemTy::I64);
        let sq = f.bin(AluOp::Mul, i, i);
        let acc = f.load(acc_addr, MemTy::I64);
        let acc2 = f.bin(AluOp::Add, acc, sq);
        f.store(acc_addr, acc2, MemTy::I64);
        let i2 = f.bin_imm(AluOp::Add, i, 1);
        f.store(i_addr, i2, MemTy::I64);
        let cont = f.bin(AluOp::Slt, i2, limit);
        f.cond_br(cont, body, done);
        f.switch_to(done);
        let result = f.load(acc_addr, MemTy::I64);
        f.ret(Some(result));
        module.add_function(f.build());
        module
    }

    #[test]
    fn arithmetic_program_runs_on_all_configs() {
        let module = arith_module();
        for config in [
            CompileConfig::none(),
            CompileConfig::ra_only(),
            CompileConfig::full(),
        ] {
            assert_eq!(run_main(&module, &config), 385, "{config:?}");
        }
    }

    #[test]
    fn ra_protection_emits_prologue_crypto() {
        let module = arith_module();
        let config = CompileConfig::ra_only();
        let compiled = link(&module, &config).unwrap();
        assert!(compiled.asm_text().contains("creak ra, ra[7:0], sp"));
        assert!(compiled.asm_text().contains("crdak ra, ra, sp, [7:0]"));
    }

    #[test]
    fn baseline_emits_no_crypto() {
        let module = arith_module();
        let compiled = link(&module, &CompileConfig::none()).unwrap();
        assert_eq!(compiled.count_mnemonic("cre"), 0);
        assert_eq!(compiled.count_mnemonic("crd"), 0);
    }

    /// A module with `globals` (name, size) and a `main` returning 7.
    fn module_with_globals(globals: &[(&str, u64)]) -> Module {
        let mut module = Module::new("m");
        for &(name, size) in globals {
            module.add_global(name, size);
        }
        let mut f = FunctionBuilder::new("main", 0);
        let seven = f.konst(7);
        f.ret(Some(seven));
        module.add_function(f.build());
        module
    }

    #[test]
    fn globals_get_their_own_page() {
        let page = regvault_sim::PAGE_SIZE;
        // Two dwords of data: zero-padded up to the page boundary, and the
        // first instruction opens the next page.
        let compiled = link(&arith_module(), &CompileConfig::none()).unwrap();
        assert_eq!(compiled.symbol("acc"), Some(0));
        assert_eq!(compiled.symbol("i"), Some(8));
        assert_eq!(compiled.symbol("main"), Some(page));
        assert!(compiled.bytes()[16..page as usize].iter().all(|&b| b == 0));
        assert_eq!(run_main(&arith_module(), &CompileConfig::none()), 385);

        // Data that already ends on the boundary needs no padding.
        let exact = link(
            &module_with_globals(&[("buf", page)]),
            &CompileConfig::none(),
        )
        .unwrap();
        assert_eq!(exact.symbol("main"), Some(page));
        assert!(!exact.asm_text().contains(".zero"));

        // No globals, no padding: code starts at offset 0.
        let bare = module_with_globals(&[]);
        let compiled = link(&bare, &CompileConfig::none()).unwrap();
        assert_eq!(compiled.symbol("main"), Some(0));
        assert!(!compiled.asm_text().contains(".zero"));
        assert_eq!(run_main(&bare, &CompileConfig::none()), 7);
    }

    #[test]
    fn calls_and_protected_data_work_end_to_end() {
        let mut module = Module::new("m");
        let sid = module.add_struct(StructDef::new(
            "cred",
            vec![
                FieldDef::annotated("uid", FieldType::I32, Annotation::RandIntegrity),
                FieldDef::plain("pad", FieldType::I64),
            ],
        ));
        module.add_global("the_cred", 16);

        // fn set_uid(v) { the_cred.uid = v; }
        let mut f = FunctionBuilder::new("set_uid", 1);
        let v = f.param(0);
        let base = f.global_addr("the_cred");
        f.store_field(base, sid, 0, v);
        f.ret(None);
        module.add_function(f.build());

        // fn get_uid() -> the_cred.uid
        let mut f = FunctionBuilder::new("get_uid", 0);
        let base = f.global_addr("the_cred");
        let v = f.load_field(base, sid, 0);
        f.ret(Some(v));
        module.add_function(f.build());

        // fn main() { set_uid(1000); get_uid() }
        let mut f = FunctionBuilder::new("main", 0);
        let uid = f.konst(1000);
        f.call_void("set_uid", &[uid]);
        let got = f.call("get_uid", &[]);
        f.ret(Some(got));
        module.add_function(f.build());

        assert_eq!(run_main(&module, &CompileConfig::full()), 1000);
        assert_eq!(run_main(&module, &CompileConfig::none()), 1000);
    }

    #[test]
    fn unknown_callee_is_reported() {
        let mut module = Module::new("m");
        let mut f = FunctionBuilder::new("main", 0);
        f.call_void("missing", &[]);
        f.ret(None);
        module.add_function(f.build());
        assert!(matches!(
            link(&module, &CompileConfig::none()),
            Err(CompileError::UnknownFunction(_))
        ));
    }

    #[test]
    fn indirect_calls_execute() {
        let mut module = Module::new("m");
        module.add_global("fptr", 8);

        let mut f = FunctionBuilder::new("forty_two", 0);
        let v = f.konst(42);
        f.ret(Some(v));
        module.add_function(f.build());

        // main stores &forty_two into a global, loads it back, calls it.
        // (Function addresses come via la on the function label.)
        let mut f = FunctionBuilder::new("main", 0);
        let target = f.global_addr("fptr");
        // Use la on the function symbol through a small trick: GlobalAddr
        // only resolves globals, so store the address computed by the
        // linker-known label via a call-free path is not available; instead
        // call through the pointer loaded from a pre-initialised global in
        // the harness below. Here we just exercise CallIndirect with an
        // address obtained from a direct call's return value.
        let addr = f.call("addr_of_forty_two", &[]);
        f.store(target, addr, MemTy::I64);
        let loaded = f.load(target, MemTy::I64);
        let result = f.call_indirect(loaded, &[]);
        f.ret(Some(result));
        module.add_function(f.build());

        // addr_of_forty_two returns the label address using `la` via
        // GlobalAddr on a global alias placed right before the function —
        // simpler: return auipc-computed? Use a 1-element jump table global
        // initialised by the test harness after load instead.
        let mut f = FunctionBuilder::new("addr_of_forty_two", 0);
        let slot = f.global_addr("forty_two_addr");
        let v = f.load(slot, MemTy::I64);
        f.ret(Some(v));
        module.add_function(f.build());
        module.add_global("forty_two_addr", 8);

        let config = CompileConfig::none();
        let compiled = link(&module, &config).unwrap();
        let mut machine = Machine::new(MachineConfig::default());
        let base = 0x8000_0000u64;
        let entry = compiled.load(&mut machine, base);
        // Initialise the address slot with the real function address.
        let fn_addr = base + compiled.symbol("forty_two").unwrap();
        let slot_addr = base + compiled.symbol("forty_two_addr").unwrap();
        machine.memory_mut().write_u64(slot_addr, fn_addr).unwrap();
        machine.hart_mut().set_pc(entry);
        machine.memory_mut().map_region(0x7000_0000, 0x10000);
        machine.hart_mut().set_reg(Reg::Sp, 0x7000_F000);
        machine.run_until_break(100_000).unwrap();
        assert_eq!(machine.hart().reg(Reg::A0), 42);
    }
}
