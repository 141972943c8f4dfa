//! The compiler's intermediate representation.
//!
//! A deliberately small, non-SSA IR: functions hold basic blocks of
//! instructions over mutable virtual registers ([`VReg`]). All register
//! values are 64 bits wide; types matter at memory boundaries
//! ([`MemTy`], [`crate::types::StructDef`] fields) where the
//! RegVault instrumentation decides what to encrypt.

use std::fmt;

use regvault_isa::{AluOp, ByteRange, KeyReg};

use crate::types::{StructDef, StructId};

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub u32);

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Width/extension of an untyped memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemTy {
    /// Byte, zero-extended.
    U8,
    /// 32-bit word, zero-extended.
    U32,
    /// 64-bit doubleword.
    I64,
}

/// Identifier of a basic block within a function.
pub type BlockId = usize;

/// One IR instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Inst {
    /// `dst = value`.
    Const { dst: VReg, value: i64 },
    /// `dst = lhs <op> rhs`.
    Bin {
        op: AluOp,
        dst: VReg,
        lhs: VReg,
        rhs: VReg,
    },
    /// `dst = lhs <op> imm` (imm must fit a 12-bit immediate; shifts 0–63).
    BinImm {
        op: AluOp,
        dst: VReg,
        lhs: VReg,
        imm: i64,
    },
    /// `dst = &global`.
    GlobalAddr { dst: VReg, name: String },
    /// `dst = base + offset_of(sid.field)`.
    FieldAddr {
        dst: VReg,
        base: VReg,
        sid: StructId,
        field: usize,
    },
    /// Untyped load (`dst = *(ty*)addr`).
    Load { dst: VReg, addr: VReg, ty: MemTy },
    /// Untyped store (`*(ty*)addr = value`).
    Store { addr: VReg, value: VReg, ty: MemTy },
    /// Typed field load; instrumentation expands annotated fields.
    LoadField {
        dst: VReg,
        base: VReg,
        sid: StructId,
        field: usize,
    },
    /// Typed field store; instrumentation expands annotated fields.
    StoreField {
        base: VReg,
        value: VReg,
        sid: StructId,
        field: usize,
    },
    /// Direct call.
    Call {
        dst: Option<VReg>,
        callee: String,
        args: Vec<VReg>,
    },
    /// Indirect call through a (decrypted) function pointer.
    CallIndirect {
        dst: Option<VReg>,
        ptr: VReg,
        args: Vec<VReg>,
    },
    /// Environment call into the kernel (`a7 = num`).
    Syscall {
        dst: Option<VReg>,
        num: u64,
        args: Vec<VReg>,
    },
    /// Typed `memcpy(dst, src, sizeof(struct sid))` — expanded field-wise
    /// with re-encryption by the instrumentation pass (§2.4.2).
    CopyStruct { dst: VReg, src: VReg, sid: StructId },
    /// `dst = cre[key]k src[range], tweak` (inserted by instrumentation).
    Encrypt {
        dst: VReg,
        src: VReg,
        key: KeyReg,
        tweak: VReg,
        range: ByteRange,
    },
    /// `dst = crd[key]k src, tweak, [range]` (inserted by instrumentation).
    Decrypt {
        dst: VReg,
        src: VReg,
        key: KeyReg,
        tweak: VReg,
        range: ByteRange,
    },
}

impl Inst {
    /// The virtual register this instruction defines, if any.
    #[must_use]
    pub fn def(&self) -> Option<VReg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::BinImm { dst, .. }
            | Inst::GlobalAddr { dst, .. }
            | Inst::FieldAddr { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::LoadField { dst, .. }
            | Inst::Encrypt { dst, .. }
            | Inst::Decrypt { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } | Inst::CallIndirect { dst, .. } | Inst::Syscall { dst, .. } => {
                *dst
            }
            Inst::Store { .. } | Inst::StoreField { .. } | Inst::CopyStruct { .. } => None,
        }
    }

    /// The virtual registers this instruction reads.
    #[must_use]
    pub fn uses(&self) -> Vec<VReg> {
        match self {
            Inst::Const { .. } | Inst::GlobalAddr { .. } => vec![],
            Inst::Bin { lhs, rhs, .. } => vec![*lhs, *rhs],
            Inst::BinImm { lhs, .. } => vec![*lhs],
            Inst::FieldAddr { base, .. } => vec![*base],
            Inst::Load { addr, .. } => vec![*addr],
            Inst::Store { addr, value, .. } => vec![*addr, *value],
            Inst::LoadField { base, .. } => vec![*base],
            Inst::StoreField { base, value, .. } => vec![*base, *value],
            Inst::Call { args, .. } => args.clone(),
            Inst::CallIndirect { ptr, args, .. } => {
                let mut uses = vec![*ptr];
                uses.extend_from_slice(args);
                uses
            }
            Inst::Syscall { args, .. } => args.clone(),
            Inst::CopyStruct { dst, src, .. } => vec![*dst, *src],
            Inst::Encrypt { src, tweak, .. } | Inst::Decrypt { src, tweak, .. } => {
                vec![*src, *tweak]
            }
        }
    }

    /// `true` for calls (direct, indirect or syscall) — the instructions
    /// across which caller-saved registers do not survive.
    #[must_use]
    pub fn is_call(&self) -> bool {
        matches!(
            self,
            Inst::Call { .. } | Inst::CallIndirect { .. } | Inst::Syscall { .. }
        )
    }
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Return, optionally with a value (in `a0`).
    Ret(Option<VReg>),
    /// Unconditional branch.
    Br(BlockId),
    /// Conditional branch: `cond != 0` → `then_bb`, else `else_bb`.
    CondBr {
        /// Condition register.
        cond: VReg,
        /// Target when the condition is non-zero.
        then_bb: BlockId,
        /// Target when the condition is zero.
        else_bb: BlockId,
    },
}

impl Terminator {
    /// Registers read by the terminator.
    #[must_use]
    pub fn uses(&self) -> Vec<VReg> {
        match self {
            Terminator::Ret(Some(v)) => vec![*v],
            Terminator::Ret(None) | Terminator::Br(_) => vec![],
            Terminator::CondBr { cond, .. } => vec![*cond],
        }
    }

    /// Successor block ids.
    #[must_use]
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Ret(_) => vec![],
            Terminator::Br(bb) => vec![*bb],
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
        }
    }
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Instructions in execution order.
    pub insts: Vec<Inst>,
    /// The block terminator.
    pub term: Terminator,
}

/// A function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function name (also its link symbol).
    pub name: String,
    /// Number of parameters (≤ 8, passed in `a0`–`a7`; parameter `i` is
    /// virtual register `i`).
    pub num_params: usize,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Number of virtual registers used.
    pub num_vregs: u32,
}

/// A zero-or-data-initialised global allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Link symbol.
    pub name: String,
    /// Size in bytes (≥ `init.len()`).
    pub size: u64,
    /// Initial bytes (the remainder is zero).
    pub init: Vec<u8>,
    /// `true` for key-storage globals: raw key material that must never
    /// reach general-purpose registers unencrypted. Listed as
    /// `key_symbols` in the protection manifest so the verifier's
    /// raw-key-flow lint tracks loads from it.
    pub is_key: bool,
}

/// A compilation unit: struct types, globals and functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    /// Module name (diagnostics only).
    pub name: String,
    /// Struct types, indexed by [`StructId`].
    pub structs: Vec<StructDef>,
    /// Global allocations.
    pub globals: Vec<Global>,
    /// Functions.
    pub functions: Vec<Function>,
}

impl Module {
    /// Creates an empty module.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            structs: Vec::new(),
            globals: Vec::new(),
            functions: Vec::new(),
        }
    }

    /// Registers a struct type, returning its id.
    pub fn add_struct(&mut self, def: StructDef) -> StructId {
        self.structs.push(def);
        self.structs.len() - 1
    }

    /// Adds a zero-initialised global of `size` bytes.
    pub fn add_global(&mut self, name: &str, size: u64) {
        self.globals.push(Global {
            name: name.to_owned(),
            size,
            init: Vec::new(),
            is_key: false,
        });
    }

    /// Adds a data-initialised key-storage global (see [`Global::is_key`]).
    pub fn add_key_global(&mut self, name: &str, init: Vec<u8>) {
        self.globals.push(Global {
            name: name.to_owned(),
            size: init.len() as u64,
            init,
            is_key: true,
        });
    }

    /// Adds a function.
    pub fn add_function(&mut self, function: Function) {
        self.functions.push(function);
    }

    /// Looks a function up by name.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// Incremental builder for a [`Function`].
///
/// # Examples
///
/// ```
/// use regvault_compiler::ir::FunctionBuilder;
/// use regvault_isa::AluOp;
///
/// // fn add_one(x) -> x + 1
/// let mut f = FunctionBuilder::new("add_one", 1);
/// let x = f.param(0);
/// let one = f.konst(1);
/// let sum = f.bin(AluOp::Add, x, one);
/// f.ret(Some(sum));
/// let function = f.build();
/// assert_eq!(function.blocks.len(), 1);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    num_params: usize,
    blocks: Vec<Block>,
    current: BlockId,
    next_vreg: u32,
    /// Blocks created but whose terminator has not been set yet.
    open: Vec<bool>,
}

impl FunctionBuilder {
    /// Starts a function with `num_params` parameters (available via
    /// [`FunctionBuilder::param`]).
    ///
    /// # Panics
    ///
    /// Panics if `num_params > 8`.
    #[must_use]
    pub fn new(name: &str, num_params: usize) -> Self {
        assert!(num_params <= 8, "at most 8 register parameters");
        Self {
            name: name.to_owned(),
            num_params,
            blocks: vec![Block {
                insts: Vec::new(),
                term: Terminator::Ret(None),
            }],
            current: 0,
            next_vreg: num_params as u32,
            open: vec![true],
        }
    }

    /// The `i`-th parameter's virtual register.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn param(&self, i: usize) -> VReg {
        assert!(i < self.num_params, "parameter index out of range");
        VReg(i as u32)
    }

    /// Allocates a fresh virtual register.
    pub fn fresh(&mut self) -> VReg {
        let vreg = VReg(self.next_vreg);
        self.next_vreg += 1;
        vreg
    }

    /// Creates a new (empty, open) block and returns its id.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block {
            insts: Vec::new(),
            term: Terminator::Ret(None),
        });
        self.open.push(true);
        self.blocks.len() - 1
    }

    /// Redirects subsequent instructions into `block`.
    ///
    /// # Panics
    ///
    /// Panics if the block already has a terminator.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(self.open[block], "block {block} is already terminated");
        self.current = block;
    }

    fn push(&mut self, inst: Inst) {
        assert!(self.open[self.current], "emitting into a terminated block");
        self.blocks[self.current].insts.push(inst);
    }

    /// Emits `dst = value` and returns `dst`.
    pub fn konst(&mut self, value: i64) -> VReg {
        let dst = self.fresh();
        self.push(Inst::Const { dst, value });
        dst
    }

    /// Emits a register-register ALU op.
    pub fn bin(&mut self, op: AluOp, lhs: VReg, rhs: VReg) -> VReg {
        let dst = self.fresh();
        self.push(Inst::Bin { op, dst, lhs, rhs });
        dst
    }

    /// Emits a register-immediate ALU op.
    ///
    /// # Panics
    ///
    /// Panics if `imm` does not fit the 12-bit immediate (or 0–63 for
    /// shifts).
    pub fn bin_imm(&mut self, op: AluOp, lhs: VReg, imm: i64) -> VReg {
        let in_range = match op {
            AluOp::Sll | AluOp::Srl | AluOp::Sra => (0..64).contains(&imm),
            _ => (-2048..=2047).contains(&imm),
        };
        assert!(in_range, "immediate {imm} out of range for {op:?}");
        let dst = self.fresh();
        self.push(Inst::BinImm { op, dst, lhs, imm });
        dst
    }

    /// Emits `dst = &global`.
    pub fn global_addr(&mut self, name: &str) -> VReg {
        let dst = self.fresh();
        self.push(Inst::GlobalAddr {
            dst,
            name: name.to_owned(),
        });
        dst
    }

    /// Emits `dst = &base->field`.
    pub fn field_addr(&mut self, base: VReg, sid: StructId, field: usize) -> VReg {
        let dst = self.fresh();
        self.push(Inst::FieldAddr {
            dst,
            base,
            sid,
            field,
        });
        dst
    }

    /// Emits an untyped load.
    pub fn load(&mut self, addr: VReg, ty: MemTy) -> VReg {
        let dst = self.fresh();
        self.push(Inst::Load { dst, addr, ty });
        dst
    }

    /// Emits an untyped store.
    pub fn store(&mut self, addr: VReg, value: VReg, ty: MemTy) {
        self.push(Inst::Store { addr, value, ty });
    }

    /// Emits a typed field load (instrumented if the field is annotated).
    pub fn load_field(&mut self, base: VReg, sid: StructId, field: usize) -> VReg {
        let dst = self.fresh();
        self.push(Inst::LoadField {
            dst,
            base,
            sid,
            field,
        });
        dst
    }

    /// Emits a typed field store (instrumented if the field is annotated).
    pub fn store_field(&mut self, base: VReg, sid: StructId, field: usize, value: VReg) {
        self.push(Inst::StoreField {
            base,
            value,
            sid,
            field,
        });
    }

    /// Emits a direct call.
    pub fn call(&mut self, callee: &str, args: &[VReg]) -> VReg {
        let dst = self.fresh();
        self.push(Inst::Call {
            dst: Some(dst),
            callee: callee.to_owned(),
            args: args.to_vec(),
        });
        dst
    }

    /// Emits a direct call whose result is unused.
    pub fn call_void(&mut self, callee: &str, args: &[VReg]) {
        self.push(Inst::Call {
            dst: None,
            callee: callee.to_owned(),
            args: args.to_vec(),
        });
    }

    /// Emits an indirect call through a function pointer.
    pub fn call_indirect(&mut self, ptr: VReg, args: &[VReg]) -> VReg {
        let dst = self.fresh();
        self.push(Inst::CallIndirect {
            dst: Some(dst),
            ptr,
            args: args.to_vec(),
        });
        dst
    }

    /// Emits a syscall.
    pub fn syscall(&mut self, num: u64, args: &[VReg]) -> VReg {
        let dst = self.fresh();
        self.push(Inst::Syscall {
            dst: Some(dst),
            num,
            args: args.to_vec(),
        });
        dst
    }

    /// Emits a typed struct copy (re-encrypting annotated fields).
    pub fn copy_struct(&mut self, dst: VReg, src: VReg, sid: StructId) {
        self.push(Inst::CopyStruct { dst, src, sid });
    }

    // --- In-place assignment forms (the IR is not SSA; loops mutate
    // their induction and accumulator registers) -----------------------

    /// Emits `dst = value` into an existing vreg.
    pub fn assign_const(&mut self, dst: VReg, value: i64) {
        self.push(Inst::Const { dst, value });
    }

    /// Emits `dst = lhs <op> rhs` into an existing vreg.
    pub fn assign_bin(&mut self, op: AluOp, dst: VReg, lhs: VReg, rhs: VReg) {
        self.push(Inst::Bin { op, dst, lhs, rhs });
    }

    /// Emits `dst = lhs <op> imm` into an existing vreg.
    ///
    /// # Panics
    ///
    /// Panics if `imm` is out of range (see [`FunctionBuilder::bin_imm`]).
    pub fn assign_bin_imm(&mut self, op: AluOp, dst: VReg, lhs: VReg, imm: i64) {
        let in_range = match op {
            AluOp::Sll | AluOp::Srl | AluOp::Sra => (0..64).contains(&imm),
            _ => (-2048..=2047).contains(&imm),
        };
        assert!(in_range, "immediate {imm} out of range for {op:?}");
        self.push(Inst::BinImm { op, dst, lhs, imm });
    }

    /// Emits a load into an existing vreg.
    pub fn assign_load(&mut self, dst: VReg, addr: VReg, ty: MemTy) {
        self.push(Inst::Load { dst, addr, ty });
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<VReg>) {
        self.blocks[self.current].term = Terminator::Ret(value);
        self.open[self.current] = false;
    }

    /// Terminates the current block with an unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.blocks[self.current].term = Terminator::Br(target);
        self.open[self.current] = false;
    }

    /// Terminates the current block with a conditional branch.
    pub fn cond_br(&mut self, cond: VReg, then_bb: BlockId, else_bb: BlockId) {
        self.blocks[self.current].term = Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        };
        self.open[self.current] = false;
    }

    /// Finishes the function.
    ///
    /// # Panics
    ///
    /// Panics if any block is still open (missing terminator).
    #[must_use]
    pub fn build(self) -> Function {
        for (i, open) in self.open.iter().enumerate() {
            assert!(!open, "block {i} of `{}` has no terminator", self.name);
        }
        Function {
            name: self.name,
            num_params: self.num_params,
            blocks: self.blocks,
            num_vregs: self.next_vreg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_params_first() {
        let mut f = FunctionBuilder::new("f", 2);
        assert_eq!(f.param(0), VReg(0));
        assert_eq!(f.param(1), VReg(1));
        assert_eq!(f.fresh(), VReg(2));
    }

    #[test]
    #[should_panic(expected = "no terminator")]
    fn unterminated_blocks_are_rejected() {
        let mut f = FunctionBuilder::new("f", 0);
        let _ = f.new_block();
        f.ret(None); // only terminates the current (entry) block
        let _ = f.build();
    }

    #[test]
    fn def_and_uses_cover_all_instructions() {
        let a = VReg(0);
        let b = VReg(1);
        let c = VReg(2);
        let cases: Vec<(Inst, Option<VReg>, Vec<VReg>)> = vec![
            (Inst::Const { dst: c, value: 1 }, Some(c), vec![]),
            (
                Inst::Bin {
                    op: AluOp::Add,
                    dst: c,
                    lhs: a,
                    rhs: b,
                },
                Some(c),
                vec![a, b],
            ),
            (
                Inst::Store {
                    addr: a,
                    value: b,
                    ty: MemTy::I64,
                },
                None,
                vec![a, b],
            ),
            (
                Inst::Encrypt {
                    dst: c,
                    src: a,
                    key: KeyReg::D,
                    tweak: b,
                    range: ByteRange::FULL,
                },
                Some(c),
                vec![a, b],
            ),
            (
                Inst::CopyStruct {
                    dst: a,
                    src: b,
                    sid: 0,
                },
                None,
                vec![a, b],
            ),
        ];
        for (inst, def, uses) in cases {
            assert_eq!(inst.def(), def, "{inst:?}");
            assert_eq!(inst.uses(), uses, "{inst:?}");
        }
    }

    #[test]
    fn terminator_successors() {
        assert!(Terminator::Ret(None).successors().is_empty());
        assert_eq!(Terminator::Br(3).successors(), vec![3]);
        assert_eq!(
            Terminator::CondBr {
                cond: VReg(0),
                then_bb: 1,
                else_bb: 2
            }
            .successors(),
            vec![1, 2]
        );
    }

    #[test]
    fn module_function_lookup() {
        let mut module = Module::new("m");
        let mut f = FunctionBuilder::new("probe", 0);
        f.ret(None);
        module.add_function(f.build());
        assert!(module.function("probe").is_some());
        assert!(module.function("missing").is_none());
    }
}
