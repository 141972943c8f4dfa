//! Superblock translation tier: fused threaded-code traces over the decode
//! cache.
//!
//! The direct-mapped decoded-instruction cache ([`crate::icache`]) removes
//! the *decode* cost from the hot path but still pays full per-instruction
//! dispatch: fetch probe, cache probe, watchdog/timer/fault checks, and a
//! large `match` per retired instruction. This module adds a second tier
//! above it. Hot basic-block boundaries (detected by retire counts at
//! non-sequential pc updates) are pre-translated into *superblocks*:
//! threaded-code arrays of monomorphized handlers ([`SbOp`]) with operands
//! pre-extracted (immediates sign-extended, branch targets absolute, byte
//! ranges validated) and common pairs fused (ALU-imm + conditional branch,
//! address-gen + dependent load, `cre` + store of the ciphertext). The
//! machine dispatches a whole superblock with a single bounds/budget check
//! — see `Machine::step_tier` — so the per-instruction cost collapses to
//! one handler match plus the architectural work itself.
//!
//! # Exactness
//!
//! A superblock of `len` architectural instructions executes **iff** the
//! machine can prove, at entry, that no observation point falls inside it:
//! no tracer installed, at least `len` steps of run budget and watchdog
//! budget left, the cycle timer cannot fire within the block's worst-case
//! cycle cost, and no injected fault comes due within `len` retires. Under
//! those conditions block execution is bit-for-bit identical to `len`
//! single steps. The only mid-block events are architectural exceptions
//! (access faults, privilege violations, integrity failures), which the
//! handlers raise exactly like the interpreter, with `pc` rewound to the
//! faulting instruction.
//!
//! # Invalidation
//!
//! Blocks are tagged with their page's write generation, exactly like
//! decode-cache entries: the entry probe drops a block whose page
//! generation moved (lazy invalidation — snapshot restore preserves
//! generations, so restored machines never see stale traces). A store
//! *inside* a block that hits the block's own page (self-modifying code)
//! retires normally and then side-exits, so the stale tail is never
//! executed and the next entry rebuilds from fresh bytes.

use std::sync::Arc;

use regvault_isa::{decode, AluOp, BranchOp, ByteRange, Insn, KeyReg, MemWidth, Reg};

use crate::{
    cost::CostModel,
    error::ExceptionCause,
    exec,
    fxhash::FxHashMap,
    hart::Privilege,
    machine::{Event, Machine},
    mem::Memory,
    stats::InsnClass,
};

/// Retire count at which a block boundary is considered hot enough to
/// translate.
pub(crate) const HOT_THRESHOLD: u32 = 16;
/// Longest trace, in architectural instructions.
const MAX_OPS: usize = 64;
/// Shortest trace worth dispatching; below this the entry probe costs more
/// than the dispatch saves.
const MIN_OPS: usize = 3;
/// Cap on cached blocks; the map is cleared wholesale when it fills.
const MAX_BLOCKS: usize = 4096;
/// Direct-mapped boundary-profile slots (power of two). The profile is a
/// heuristic: collisions simply evict the older boundary's state, which
/// costs at worst a re-warm or a redundant rebuild, never correctness.
const PROFILE_SLOTS: usize = 1 << 12;
/// Profile sentinel for boundaries where translation failed: never retry.
const UNBUILDABLE: u32 = u32::MAX;
/// Profile sentinel for boundaries with a translated block in the cache.
const BUILT: u32 = u32::MAX - 1;

/// One pre-translated handler: operands extracted, immediates sign-extended
/// to `u64`, branch targets absolute, byte ranges validated at build time.
/// `Fused*` variants retire **two** architectural instructions.
#[derive(Debug, Clone)]
pub(crate) enum SbOp {
    /// `lui`/`auipc` collapse to a constant (`auipc`'s pc is static inside
    /// a trace).
    Const { rd: Reg, value: u64 },
    /// 64-bit ALU with immediate.
    OpImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: u64,
    },
    /// 32-bit ALU with immediate (W-form validity checked at build time).
    OpImmW {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: u64,
    },
    /// 64-bit register-register ALU; `class` pre-resolves Mul/Div costing.
    Op {
        op: AluOp,
        class: InsnClass,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// 32-bit register-register ALU.
    OpW {
        op: AluOp,
        class: InsnClass,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Memory load.
    Load {
        width: MemWidth,
        signed: bool,
        rd: Reg,
        rs1: Reg,
        offset: u64,
    },
    /// Memory store; side-exits after retiring if it hits the block's page.
    Store {
        width: MemWidth,
        rs2: Reg,
        rs1: Reg,
        offset: u64,
    },
    /// `wfi`/`fence`: architectural no-ops that retire as ALU.
    Nop,
    /// Register encrypt (`cre`).
    Cre {
        key: KeyReg,
        rd: Reg,
        rs: Reg,
        rt: Reg,
        range: ByteRange,
    },
    /// Register decrypt (`crd`).
    Crd {
        key: KeyReg,
        rd: Reg,
        rs: Reg,
        rt: Reg,
        range: ByteRange,
    },
    /// Conditional branch; always the trace terminator.
    Branch {
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        taken: u64,
        fallthrough: u64,
    },
    /// Direct jump-and-link; trace terminator.
    Jal { rd: Reg, link: u64, target: u64 },
    /// Indirect jump-and-link; trace terminator.
    Jalr {
        rd: Reg,
        link: u64,
        rs1: Reg,
        offset: u64,
    },
    /// Fused ALU-imm + conditional branch (`addi s1,s1,1; blt s1,s2,loop`).
    /// The branch operands are re-read after the ALU write, so aliasing
    /// matches two single steps exactly.
    FusedOpImmBranch {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: u64,
        bop: BranchOp,
        brs1: Reg,
        brs2: Reg,
        taken: u64,
        fallthrough: u64,
    },
    /// Fused address-gen + dependent load (`add t0,a0,a1; ld t1,0(t0)`).
    FusedAddLoad {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
        width: MemWidth,
        signed: bool,
        lrd: Reg,
        offset: u64,
    },
    /// Fused immediate address-gen + dependent load.
    FusedAddiLoad {
        rd: Reg,
        rs1: Reg,
        imm: u64,
        width: MemWidth,
        signed: bool,
        lrd: Reg,
        offset: u64,
    },
    /// Fused encrypt + store of the ciphertext (`cre a0,...; sd a0,0(s0)`).
    FusedCreStore {
        key: KeyReg,
        rd: Reg,
        rs: Reg,
        rt: Reg,
        range: ByteRange,
        width: MemWidth,
        srs1: Reg,
        offset: u64,
    },
}

/// A translated trace: straight-line code from one entry pc, within one
/// page, ending at the first control transfer or untranslatable
/// instruction.
#[derive(Debug)]
pub(crate) struct Superblock {
    /// First instruction's pc; re-entry always starts here.
    pub(crate) entry_pc: u64,
    /// The single page the trace was decoded from.
    pub(crate) page_no: u64,
    /// Page write generation at build time; a moved generation kills the
    /// block at the next entry probe.
    pub(crate) gen: u64,
    /// Architectural instruction count (fused ops count as two).
    pub(crate) len: u64,
    /// Worst-case cycle cost of the whole trace under the machine's cost
    /// model (branches taken, crypto missing); used for the timer check.
    pub(crate) max_cycles: u64,
    ops: Vec<SbOp>,
}

/// How a superblock run ended.
pub(crate) struct SbExit {
    /// Architectural instructions retired.
    pub(crate) retired: u64,
    /// Equivalent `Machine::step` calls (retired, plus one if an exception
    /// was raised — a faulting step consumes budget without retiring).
    pub(crate) consumed: u64,
    /// The event the final step produced, if any.
    pub(crate) event: Option<Event>,
    /// `true` when the block exited before its natural end (exception or
    /// self-modifying store into the block's own page).
    pub(crate) side_exit: bool,
}

/// Public snapshot of the tier's counters (exposed via
/// `Machine::superblock_stats` and `Machine::metrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperblockStats {
    /// Superblock dispatches (block entries).
    pub hits: u64,
    /// Instructions retired inside superblocks.
    pub insns: u64,
    /// Early exits: mid-block exception or self-modifying store.
    pub side_exits: u64,
    /// Traces translated.
    pub built: u64,
    /// Traces dropped because their page's write generation moved.
    pub invalidations: u64,
    /// Traces currently cached.
    pub cached: usize,
}

/// The per-machine tier state: cached blocks, the boundary profile, and
/// counters. Deliberately *not* part of [`crate::stats::Stats`] or the
/// snapshot format — like the decode cache, it is microarchitectural state
/// that restore simply resets.
#[derive(Debug, Clone)]
pub(crate) struct SuperblockCache {
    blocks: FxHashMap<u64, Arc<Superblock>>,
    /// Direct-mapped: slot `(pc >> 2) & (PROFILE_SLOTS - 1)` holds the pc
    /// tag and its warming count (or a [`BUILT`]/[`UNBUILDABLE`] sentinel).
    /// Every interpreter boundary probes this once — it must stay an array
    /// access, not a hash lookup, or event-heavy guests that never build a
    /// block pay for the tier anyway.
    profile: Vec<ProfileSlot>,
    pub(crate) hits: u64,
    pub(crate) insns: u64,
    pub(crate) side_exits: u64,
    pub(crate) built: u64,
    pub(crate) invalidations: u64,
}

/// One direct-mapped profile slot. The tag `1` is unreachable (pcs are
/// 4-aligned), so fresh slots never match.
#[derive(Debug, Clone, Copy)]
struct ProfileSlot {
    pc: u64,
    count: u32,
}

impl Default for SuperblockCache {
    fn default() -> Self {
        Self {
            blocks: FxHashMap::default(),
            profile: vec![ProfileSlot { pc: 1, count: 0 }; PROFILE_SLOTS],
            hits: 0,
            insns: 0,
            side_exits: 0,
            built: 0,
            invalidations: 0,
        }
    }
}

/// What the entry probe found at a boundary pc.
pub(crate) enum Probe {
    /// Not hot (or known untranslatable): stay on the interpreter.
    Cold,
    /// Crossed the hot threshold: attempt a build now.
    Hot,
    /// A translated block should be in the cache: look it up.
    Built,
}

impl SuperblockCache {
    /// Counter snapshot for metrics/bench export.
    pub(crate) fn stats(&self) -> SuperblockStats {
        SuperblockStats {
            hits: self.hits,
            insns: self.insns,
            side_exits: self.side_exits,
            built: self.built,
            invalidations: self.invalidations,
            cached: self.blocks.len(),
        }
    }

    /// Resets counters but keeps translated blocks (used by
    /// `Machine::reset_stats`, which zeroes measurements without cooling
    /// caches).
    pub(crate) fn reset_counters(&mut self) {
        self.hits = 0;
        self.insns = 0;
        self.side_exits = 0;
        self.built = 0;
        self.invalidations = 0;
    }

    /// The per-boundary entry probe: one direct-mapped array access on the
    /// cold path. Bumps the warming count and reports when `pc` crossed the
    /// hot threshold or already has a translated block.
    pub(crate) fn probe(&mut self, pc: u64) -> Probe {
        let slot = &mut self.profile[(pc >> 2) as usize & (PROFILE_SLOTS - 1)];
        if slot.pc != pc {
            // Collision or first visit: evict the older boundary's state.
            *slot = ProfileSlot { pc, count: 1 };
            return Probe::Cold;
        }
        match slot.count {
            UNBUILDABLE => Probe::Cold,
            BUILT => Probe::Built,
            count => {
                slot.count = count + 1;
                if slot.count >= HOT_THRESHOLD {
                    Probe::Hot
                } else {
                    Probe::Cold
                }
            }
        }
    }

    /// Looks up a still-valid block for `pc`, dropping it if its page's
    /// write generation moved since translation. On a stale hit the slot is
    /// re-armed at the hot threshold, so the very next visit rebuilds from
    /// the current bytes.
    pub(crate) fn lookup(&mut self, pc: u64, mem: &Memory) -> Option<Arc<Superblock>> {
        let Some(block) = self.blocks.get(&pc) else {
            // The blocks map was cleared wholesale (capacity) while the
            // profile still says BUILT: re-warm from the hot threshold.
            self.slot_set(pc, HOT_THRESHOLD);
            return None;
        };
        if mem.page_gen(block.page_no) == Some(block.gen) {
            return Some(Arc::clone(block));
        }
        self.blocks.remove(&pc);
        self.invalidations += 1;
        self.slot_set(pc, HOT_THRESHOLD);
        None
    }

    /// Installs a freshly built block (or records that `pc` can't be
    /// translated, so the build is never retried).
    pub(crate) fn install(
        &mut self,
        pc: u64,
        block: Option<Superblock>,
    ) -> Option<Arc<Superblock>> {
        match block {
            Some(block) => {
                self.slot_set(pc, BUILT);
                if self.blocks.len() >= MAX_BLOCKS {
                    self.blocks.clear();
                }
                let block = Arc::new(block);
                self.blocks.insert(pc, Arc::clone(&block));
                self.built += 1;
                Some(block)
            }
            None => {
                self.slot_set(pc, UNBUILDABLE);
                None
            }
        }
    }

    fn slot_set(&mut self, pc: u64, count: u32) {
        self.profile[(pc >> 2) as usize & (PROFILE_SLOTS - 1)] = ProfileSlot { pc, count };
    }
}

/// `true` for instructions a trace may end with (control transfers).
fn is_terminator(insn: &Insn) -> bool {
    matches!(
        insn,
        Insn::Branch { .. } | Insn::Jal { .. } | Insn::Jalr { .. }
    )
}

/// Ops `alu32` accepts; the rest have no W form and would raise.
fn has_w_form(op: AluOp) -> bool {
    matches!(
        op,
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

/// `true` if the instruction can live inside a trace. CSR accesses, traps,
/// privilege returns and anything that would raise unconditionally
/// (invalid W-forms, malformed byte ranges) end the trace instead — the
/// interpreter handles them with full fidelity.
fn translatable(insn: &Insn) -> bool {
    match insn {
        Insn::Lui { .. }
        | Insn::Auipc { .. }
        | Insn::Jal { .. }
        | Insn::Jalr { .. }
        | Insn::Branch { .. }
        | Insn::Load { .. }
        | Insn::Store { .. }
        | Insn::OpImm { .. }
        | Insn::Op { .. }
        | Insn::Wfi
        | Insn::Fence => true,
        Insn::OpImmW { op, .. } | Insn::OpW { op, .. } => has_w_form(*op),
        Insn::Cre { hi, lo, .. } | Insn::Crd { hi, lo, .. } => ByteRange::new(*hi, *lo).is_some(),
        Insn::Csr { .. }
        | Insn::CsrImm { .. }
        | Insn::Ecall
        | Insn::Ebreak
        | Insn::Mret
        | Insn::Sret => false,
    }
}

/// Worst-case cycle cost of one instruction under `cost` (branch taken,
/// crypto missing) — summed into `Superblock::max_cycles` for the timer
/// entry check.
fn worst_cycles(insn: &Insn, cost: &CostModel) -> u64 {
    match insn {
        Insn::Op { op, .. } | Insn::OpW { op, .. } => match exec::class_of(*op) {
            InsnClass::Mul => cost.mul,
            InsnClass::Div => cost.div,
            _ => cost.alu,
        },
        Insn::Branch { .. } => cost.branch_taken.max(cost.branch_not_taken),
        Insn::Jal { .. } | Insn::Jalr { .. } => cost.branch_taken,
        Insn::Load { .. } => cost.load,
        Insn::Store { .. } => cost.store,
        Insn::Cre { .. } | Insn::Crd { .. } => cost.crypto_hit.max(cost.crypto_miss),
        _ => cost.alu,
    }
}

/// Tries to fuse `first` (at `pc`) with the following instruction. The
/// `rd != zero` guards keep aliasing semantics identical to two single
/// steps: a discarded x0 write must not feed the second half.
fn try_fuse(first: Insn, second: Option<Insn>, pc: u64) -> Option<SbOp> {
    match (first, second?) {
        (
            Insn::OpImm { op, rd, rs1, imm },
            Insn::Branch {
                op: bop,
                rs1: brs1,
                rs2: brs2,
                offset,
            },
        ) => Some(SbOp::FusedOpImmBranch {
            op,
            rd,
            rs1,
            imm: imm as i64 as u64,
            bop,
            brs1,
            brs2,
            taken: (pc + 4).wrapping_add(offset as i64 as u64),
            fallthrough: pc + 8,
        }),
        (
            Insn::Op {
                op: AluOp::Add,
                rd,
                rs1,
                rs2,
            },
            Insn::Load {
                width,
                signed,
                rd: lrd,
                rs1: lbase,
                offset,
            },
        ) if lbase == rd && rd != Reg::Zero => Some(SbOp::FusedAddLoad {
            rd,
            rs1,
            rs2,
            width,
            signed,
            lrd,
            offset: offset as i64 as u64,
        }),
        (
            Insn::OpImm {
                op: AluOp::Add,
                rd,
                rs1,
                imm,
            },
            Insn::Load {
                width,
                signed,
                rd: lrd,
                rs1: lbase,
                offset,
            },
        ) if lbase == rd && rd != Reg::Zero => Some(SbOp::FusedAddiLoad {
            rd,
            rs1,
            imm: imm as i64 as u64,
            width,
            signed,
            lrd,
            offset: offset as i64 as u64,
        }),
        (
            Insn::Cre {
                key,
                rd,
                rs,
                rt,
                hi,
                lo,
            },
            Insn::Store {
                width,
                rs2,
                rs1: srs1,
                offset,
            },
        ) if rs2 == rd && rd != Reg::Zero => Some(SbOp::FusedCreStore {
            key,
            rd,
            rs,
            rt,
            range: ByteRange::new(hi, lo)?,
            width,
            srs1,
            offset: offset as i64 as u64,
        }),
        _ => None,
    }
}

/// Lowers one instruction to its pre-extracted handler. `None` only for
/// untranslatable instructions, which the scanner already filtered.
fn lower(insn: Insn, pc: u64) -> Option<SbOp> {
    let next = pc + 4;
    Some(match insn {
        Insn::Lui { rd, imm20 } => SbOp::Const {
            rd,
            value: (i64::from(imm20) << 12) as u64,
        },
        Insn::Auipc { rd, imm20 } => SbOp::Const {
            rd,
            value: pc.wrapping_add((i64::from(imm20) << 12) as u64),
        },
        Insn::Jal { rd, offset } => SbOp::Jal {
            rd,
            link: next,
            target: pc.wrapping_add(offset as i64 as u64),
        },
        Insn::Jalr { rd, rs1, offset } => SbOp::Jalr {
            rd,
            link: next,
            rs1,
            offset: offset as i64 as u64,
        },
        Insn::Branch {
            op,
            rs1,
            rs2,
            offset,
        } => SbOp::Branch {
            op,
            rs1,
            rs2,
            taken: pc.wrapping_add(offset as i64 as u64),
            fallthrough: next,
        },
        Insn::Load {
            width,
            signed,
            rd,
            rs1,
            offset,
        } => SbOp::Load {
            width,
            signed,
            rd,
            rs1,
            offset: offset as i64 as u64,
        },
        Insn::Store {
            width,
            rs2,
            rs1,
            offset,
        } => SbOp::Store {
            width,
            rs2,
            rs1,
            offset: offset as i64 as u64,
        },
        Insn::OpImm { op, rd, rs1, imm } => SbOp::OpImm {
            op,
            rd,
            rs1,
            imm: imm as i64 as u64,
        },
        Insn::OpImmW { op, rd, rs1, imm } => SbOp::OpImmW {
            op,
            rd,
            rs1,
            imm: imm as i64 as u64,
        },
        Insn::Op { op, rd, rs1, rs2 } => SbOp::Op {
            op,
            class: exec::class_of(op),
            rd,
            rs1,
            rs2,
        },
        Insn::OpW { op, rd, rs1, rs2 } => SbOp::OpW {
            op,
            class: exec::class_of(op),
            rd,
            rs1,
            rs2,
        },
        Insn::Wfi | Insn::Fence => SbOp::Nop,
        Insn::Cre {
            key,
            rd,
            rs,
            rt,
            hi,
            lo,
        } => SbOp::Cre {
            key,
            rd,
            rs,
            rt,
            range: ByteRange::new(hi, lo)?,
        },
        Insn::Crd {
            key,
            rd,
            rs,
            rt,
            hi,
            lo,
        } => SbOp::Crd {
            key,
            rd,
            rs,
            rt,
            range: ByteRange::new(hi, lo)?,
        },
        Insn::Csr { .. }
        | Insn::CsrImm { .. }
        | Insn::Ecall
        | Insn::Ebreak
        | Insn::Mret
        | Insn::Sret => return None,
    })
}

/// Translates the straight-line run starting at `entry_pc` into a
/// superblock. `None` when the trace would be too short to pay for its
/// entry probe (misaligned entry, unmapped page, immediate control
/// transfer, or untranslatable leading instructions).
pub(crate) fn build(mem: &Memory, cost: &CostModel, entry_pc: u64) -> Option<Superblock> {
    if !entry_pc.is_multiple_of(4) {
        return None;
    }
    let page_no = Memory::page_number(entry_pc);
    let (_, gen) = mem.fetch_word(entry_pc).ok()?;

    let mut raw: Vec<Insn> = Vec::new();
    let mut pc = entry_pc;
    while raw.len() < MAX_OPS && Memory::page_number(pc) == page_no {
        let Ok((word, _)) = mem.fetch_word(pc) else {
            break;
        };
        let Ok(insn) = decode::decode(word) else {
            break;
        };
        if !translatable(&insn) {
            break;
        }
        raw.push(insn);
        pc += 4;
        if is_terminator(&insn) {
            break;
        }
    }
    if raw.len() < MIN_OPS {
        return None;
    }

    let mut ops = Vec::with_capacity(raw.len());
    let mut max_cycles = 0u64;
    let mut i = 0;
    while i < raw.len() {
        let insn = raw[i];
        let at = entry_pc + 4 * i as u64;
        if let Some(fused) = try_fuse(insn, raw.get(i + 1).copied(), at) {
            max_cycles += worst_cycles(&insn, cost) + worst_cycles(&raw[i + 1], cost);
            ops.push(fused);
            i += 2;
            continue;
        }
        max_cycles += worst_cycles(&insn, cost);
        ops.push(lower(insn, at)?);
        i += 1;
    }

    Some(Superblock {
        entry_pc,
        page_no,
        gen,
        len: raw.len() as u64,
        max_cycles,
        ops,
    })
}

fn branch_taken(op: BranchOp, a: u64, b: u64) -> bool {
    match op {
        BranchOp::Eq => a == b,
        BranchOp::Ne => a != b,
        BranchOp::Lt => (a as i64) < (b as i64),
        BranchOp::Ge => (a as i64) >= (b as i64),
        BranchOp::Ltu => a < b,
        BranchOp::Geu => a >= b,
    }
}

fn width_bytes(width: MemWidth) -> u64 {
    match width {
        MemWidth::Byte => 1,
        MemWidth::Half => 2,
        MemWidth::Word => 4,
        MemWidth::Double => 8,
    }
}

/// `true` if a `width`-byte store at `addr` touches `page_no` (either end;
/// straddling stores are checked conservatively at both).
fn touches(page_no: u64, addr: u64, width: MemWidth) -> bool {
    let last = addr.wrapping_add(width_bytes(width) - 1);
    Memory::page_number(addr) == page_no || Memory::page_number(last) == page_no
}

fn load_value(
    mem: &Memory,
    addr: u64,
    width: MemWidth,
    signed: bool,
) -> Result<u64, ExceptionCause> {
    let raw = match width {
        MemWidth::Byte => mem.read_u8(addr).map(u64::from),
        MemWidth::Half => mem.read_u16(addr).map(u64::from),
        MemWidth::Word => mem.read_u32(addr).map(u64::from),
        MemWidth::Double => mem.read_u64(addr),
    }?;
    Ok(if signed {
        match width {
            MemWidth::Byte => raw as u8 as i8 as i64 as u64,
            MemWidth::Half => raw as u16 as i16 as i64 as u64,
            MemWidth::Word => raw as u32 as i32 as i64 as u64,
            MemWidth::Double => raw,
        }
    } else {
        raw
    })
}

fn store_value(
    mem: &mut Memory,
    addr: u64,
    width: MemWidth,
    value: u64,
) -> Result<(), ExceptionCause> {
    match width {
        MemWidth::Byte => mem.write_u8(addr, value as u8),
        MemWidth::Half => mem.write_u16(addr, value as u16),
        MemWidth::Word => mem.write_u32(addr, value as u32),
        MemWidth::Double => mem.write_u64(addr, value),
    }
}

/// Runs one superblock to completion or side-exit. The caller (the
/// machine's tier dispatch) has already proven no timer, fault, watchdog
/// expiry or step-budget boundary can land inside the block, so the only
/// exits are: the terminator, the end of the trace, an architectural
/// exception, or a self-modifying store. `pc` is written only at exits.
#[allow(clippy::too_many_lines)]
pub(crate) fn execute(m: &mut Machine, block: &Superblock) -> SbExit {
    let entry = block.entry_pc;
    let mut retired: u64 = 0;

    macro_rules! raise_at {
        ($cause:expr, $tval:expr) => {{
            m.hart.set_pc(entry + 4 * retired);
            let event = exec::raise(m, $cause, $tval);
            return SbExit {
                retired,
                consumed: retired + 1,
                event: Some(event),
                side_exit: true,
            };
        }};
    }
    macro_rules! exit_to {
        ($pc:expr) => {{
            m.hart.set_pc($pc);
            return SbExit {
                retired,
                consumed: retired,
                event: None,
                side_exit: false,
            };
        }};
    }
    // Store retired; if it rewrote the block's own page, stop before the
    // (now stale) tail.
    macro_rules! smc_check {
        ($addr:expr, $width:expr) => {{
            if touches(block.page_no, $addr, $width) {
                m.hart.set_pc(entry + 4 * retired);
                return SbExit {
                    retired,
                    consumed: retired,
                    event: None,
                    side_exit: true,
                };
            }
        }};
    }

    for op in &block.ops {
        match *op {
            SbOp::Const { rd, value } => {
                m.hart.set_reg(rd, value);
                exec::retire(m, InsnClass::Alu, false, false);
                retired += 1;
            }
            SbOp::OpImm { op, rd, rs1, imm } => {
                let value = exec::alu64(op, m.hart.reg(rs1), imm);
                m.hart.set_reg(rd, value);
                exec::retire(m, InsnClass::Alu, false, false);
                retired += 1;
            }
            SbOp::OpImmW { op, rd, rs1, imm } => {
                let Some(value) = exec::alu32(op, m.hart.reg(rs1), imm) else {
                    raise_at!(ExceptionCause::IllegalInstruction, 0);
                };
                m.hart.set_reg(rd, value);
                exec::retire(m, InsnClass::Alu, false, false);
                retired += 1;
            }
            SbOp::Op {
                op,
                class,
                rd,
                rs1,
                rs2,
            } => {
                let value = exec::alu64(op, m.hart.reg(rs1), m.hart.reg(rs2));
                m.hart.set_reg(rd, value);
                exec::retire(m, class, false, false);
                retired += 1;
            }
            SbOp::OpW {
                op,
                class,
                rd,
                rs1,
                rs2,
            } => {
                let Some(value) = exec::alu32(op, m.hart.reg(rs1), m.hart.reg(rs2)) else {
                    raise_at!(ExceptionCause::IllegalInstruction, 0);
                };
                m.hart.set_reg(rd, value);
                exec::retire(m, class, false, false);
                retired += 1;
            }
            SbOp::Load {
                width,
                signed,
                rd,
                rs1,
                offset,
            } => {
                let addr = m.hart.reg(rs1).wrapping_add(offset);
                match load_value(&m.mem, addr, width, signed) {
                    Ok(value) => {
                        m.hart.set_reg(rd, value);
                        exec::retire(m, InsnClass::Load, false, false);
                        retired += 1;
                    }
                    Err(cause) => raise_at!(cause, addr),
                }
            }
            SbOp::Store {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let addr = m.hart.reg(rs1).wrapping_add(offset);
                let value = m.hart.reg(rs2);
                if let Err(cause) = store_value(&mut m.mem, addr, width, value) {
                    raise_at!(cause, addr);
                }
                exec::retire(m, InsnClass::Store, false, false);
                retired += 1;
                smc_check!(addr, width);
            }
            SbOp::Nop => {
                exec::retire(m, InsnClass::Alu, false, false);
                retired += 1;
            }
            SbOp::Cre {
                key,
                rd,
                rs,
                rt,
                range,
            } => {
                if m.hart.privilege() != Privilege::Kernel {
                    raise_at!(ExceptionCause::IllegalInstruction, 0);
                }
                let tweak = m.hart.reg(rt);
                let value = m.hart.reg(rs);
                let result = m.engine_encrypt(key, tweak, value, range);
                m.hart.set_reg(rd, result.value);
                m.stats.encrypts += 1;
                exec::retire(m, InsnClass::Crypto, false, result.clb_hit);
                retired += 1;
            }
            SbOp::Crd {
                key,
                rd,
                rs,
                rt,
                range,
            } => {
                if m.hart.privilege() != Privilege::Kernel {
                    raise_at!(ExceptionCause::IllegalInstruction, 0);
                }
                let tweak = m.hart.reg(rt);
                let ciphertext = m.hart.reg(rs);
                m.stats.decrypts += 1;
                match m.engine_decrypt(key, tweak, ciphertext, range) {
                    Ok(result) => {
                        m.hart.set_reg(rd, result.value);
                        exec::retire(m, InsnClass::Crypto, false, result.clb_hit);
                        retired += 1;
                    }
                    Err(_) => {
                        m.stats.integrity_failures += 1;
                        raise_at!(ExceptionCause::IntegrityCheckFailure, ciphertext);
                    }
                }
            }
            SbOp::Branch {
                op,
                rs1,
                rs2,
                taken,
                fallthrough,
            } => {
                let t = branch_taken(op, m.hart.reg(rs1), m.hart.reg(rs2));
                exec::retire(m, InsnClass::Branch, t, false);
                retired += 1;
                exit_to!(if t { taken } else { fallthrough });
            }
            SbOp::Jal { rd, link, target } => {
                m.hart.set_reg(rd, link);
                exec::retire(m, InsnClass::Jump, true, false);
                retired += 1;
                exit_to!(target);
            }
            SbOp::Jalr {
                rd,
                link,
                rs1,
                offset,
            } => {
                // Target from rs1 *before* the link write (rd may alias rs1).
                let target = m.hart.reg(rs1).wrapping_add(offset) & !1;
                m.hart.set_reg(rd, link);
                exec::retire(m, InsnClass::Jump, true, false);
                retired += 1;
                exit_to!(target);
            }
            SbOp::FusedOpImmBranch {
                op,
                rd,
                rs1,
                imm,
                bop,
                brs1,
                brs2,
                taken,
                fallthrough,
            } => {
                let value = exec::alu64(op, m.hart.reg(rs1), imm);
                m.hart.set_reg(rd, value);
                exec::retire(m, InsnClass::Alu, false, false);
                retired += 1;
                let t = branch_taken(bop, m.hart.reg(brs1), m.hart.reg(brs2));
                exec::retire(m, InsnClass::Branch, t, false);
                retired += 1;
                exit_to!(if t { taken } else { fallthrough });
            }
            SbOp::FusedAddLoad {
                rd,
                rs1,
                rs2,
                width,
                signed,
                lrd,
                offset,
            } => {
                let base = m.hart.reg(rs1).wrapping_add(m.hart.reg(rs2));
                m.hart.set_reg(rd, base);
                exec::retire(m, InsnClass::Alu, false, false);
                retired += 1;
                let addr = base.wrapping_add(offset);
                match load_value(&m.mem, addr, width, signed) {
                    Ok(value) => {
                        m.hart.set_reg(lrd, value);
                        exec::retire(m, InsnClass::Load, false, false);
                        retired += 1;
                    }
                    Err(cause) => raise_at!(cause, addr),
                }
            }
            SbOp::FusedAddiLoad {
                rd,
                rs1,
                imm,
                width,
                signed,
                lrd,
                offset,
            } => {
                let base = m.hart.reg(rs1).wrapping_add(imm);
                m.hart.set_reg(rd, base);
                exec::retire(m, InsnClass::Alu, false, false);
                retired += 1;
                let addr = base.wrapping_add(offset);
                match load_value(&m.mem, addr, width, signed) {
                    Ok(value) => {
                        m.hart.set_reg(lrd, value);
                        exec::retire(m, InsnClass::Load, false, false);
                        retired += 1;
                    }
                    Err(cause) => raise_at!(cause, addr),
                }
            }
            SbOp::FusedCreStore {
                key,
                rd,
                rs,
                rt,
                range,
                width,
                srs1,
                offset,
            } => {
                if m.hart.privilege() != Privilege::Kernel {
                    raise_at!(ExceptionCause::IllegalInstruction, 0);
                }
                let tweak = m.hart.reg(rt);
                let value = m.hart.reg(rs);
                let result = m.engine_encrypt(key, tweak, value, range);
                m.hart.set_reg(rd, result.value);
                m.stats.encrypts += 1;
                exec::retire(m, InsnClass::Crypto, false, result.clb_hit);
                retired += 1;
                // Address and value re-read after the cre write, exactly
                // like the interpreter would (srs1 may alias rd).
                let addr = m.hart.reg(srs1).wrapping_add(offset);
                let stored = m.hart.reg(rd);
                if let Err(cause) = store_value(&mut m.mem, addr, width, stored) {
                    raise_at!(cause, addr);
                }
                exec::retire(m, InsnClass::Store, false, false);
                retired += 1;
                smc_check!(addr, width);
            }
        }
    }

    // Ran off the end of the trace (the next instruction wasn't
    // translatable): plain sequential exit.
    m.hart.set_pc(entry + 4 * retired);
    SbExit {
        retired,
        consumed: retired,
        event: None,
        side_exit: false,
    }
}
