//! Superblock translation tier: threaded-code traces over the decode cache.
//!
//! The direct-mapped decoded-instruction cache ([`crate::icache`]) removes
//! the *decode* cost from the hot path but still pays full per-instruction
//! dispatch: fetch probe, cache probe, watchdog/timer/fault checks, and a
//! large `match` per retired instruction. This module adds a second tier
//! above it. Hot basic-block boundaries (detected by retire counts at
//! non-sequential pc updates) are pre-translated into *superblocks*:
//! threaded-code arrays of monomorphized handlers ([`SbOp`]), one per
//! instruction, with operands pre-extracted (immediates sign-extended,
//! branch targets absolute, byte ranges validated). A trace runs on
//! through a direct jump (`jal x0`) to an aligned target on its own page,
//! which retires as a taken jump, so the `j` stubs compiled code ends its
//! blocks with do not cut it short. The machine dispatches a whole superblock with a single
//! bounds/budget check — see `Machine::step_tier` — so the per-instruction
//! cost collapses to one handler match plus the architectural work itself;
//! when a block exits cleanly, the machine chains straight into the next
//! pc's cached block, re-running the entry check first.
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
//! faulting instruction. A followed jump makes a trace's pcs
//! non-contiguous, so every exit that is not a control transfer takes its
//! pc from the trace's exit pc table (`Superblock::pcs`), never from the
//! entry pc plus four per retired instruction.
//!
//! # Invalidation
//!
//! One direct-mapped, pc-tagged table holds each boundary's warming count
//! and its block; there is no block map beside it. Blocks are tagged with
//! their page's write generation, exactly like decode-cache entries: the
//! entry probe drops a block whose page generation moved (lazy
//! invalidation). Generations are per-machine counters, so a restored page
//! can carry one this machine already built a block under from other
//! bytes: snapshot restore must clear the tier ([`SuperblockCache::clear`]).
//! A store *inside* a block that hits the block's own page (self-modifying
//! code) retires normally and then side-exits, so the stale tail is never
//! executed and the next entry rebuilds from fresh bytes.

use regvault_isa::{decode, AluOp, BranchOp, ByteRange, Insn, KeyReg, MemWidth, Reg};

use crate::{
    cost::CostModel,
    error::ExceptionCause,
    exec,
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
/// Direct-mapped tier slots (power of two), one per boundary pc. A slot
/// holds the pc tag, its warming count and its translated block, so the
/// slot count also caps the cached blocks. Collisions simply evict the
/// older boundary's state and block, which costs at worst a re-warm or a
/// redundant rebuild, never correctness.
const SLOTS: usize = 1 << 12;
// `SuperblockCache::touched` holds slot indices as `u16`.
const _: () = assert!(SLOTS <= 1 << 16);
/// Slot count for boundaries where translation failed: never retry.
const UNBUILDABLE: u32 = u32::MAX;
/// Slot block index when the slot's pc has no translated block.
const NO_BLOCK: u32 = u32::MAX;

/// One pre-translated handler: operands extracted, immediates sign-extended
/// to `u64`, branch targets absolute, byte ranges validated at build time.
/// Every op retires exactly one architectural instruction.
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
    /// A direct jump the trace follows (`jal x0` to an aligned target on
    /// the block's page): retires as a taken jump, and the trace goes on at
    /// the target.
    Jump,
    /// Indirect jump-and-link; trace terminator.
    Jalr {
        rd: Reg,
        link: u64,
        rs1: Reg,
        offset: u64,
    },
}

/// A translated trace: the instructions one entry pc runs within one page,
/// through direct jumps to targets on that page, up to the first other
/// control transfer or untranslatable instruction.
#[derive(Debug, Clone, Default)]
pub(crate) struct Superblock {
    /// The single page the trace was decoded from.
    pub(crate) page_no: u64,
    /// Page write generation at build time; a moved generation kills the
    /// block at the next entry probe.
    pub(crate) gen: u64,
    /// Worst-case cycle cost of the whole trace under the machine's cost
    /// model (branches taken, crypto missing); used for the timer check.
    pub(crate) max_cycles: u64,
    ops: Vec<SbOp>,
    /// Exit pc table: `pcs[i]` is the pc of `ops[i]` (`pcs[0]` is the
    /// entry) and `pcs[ops.len()]` the pc after the last. Every exit that
    /// is not a control transfer — an exception, a self-modifying store,
    /// running off the end — takes its pc from here, since a followed jump
    /// breaks `entry + 4 * retired`.
    pcs: Box<[u64]>,
}

impl Superblock {
    /// The pc the trace starts at; re-entry always starts here.
    pub(crate) fn entry_pc(&self) -> u64 {
        self.pcs[0]
    }
}

/// How a superblock run ended.
pub(crate) struct SbExit {
    /// Architectural instructions retired.
    pub(crate) retired: u64,
    /// Equivalent `Machine::step` calls (retired, plus one if an exception
    /// was raised — a faulting step consumes budget without retiring).
    pub(crate) consumed: u64,
    /// The event the final step produced, if any (only on a side exit).
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

/// The per-machine tier state: one direct-mapped, pc-tagged slot table,
/// the blocks it owns, and counters. Deliberately *not* part of
/// [`crate::stats::Stats`] or the snapshot format — like the decode cache,
/// it is microarchitectural state that restore simply resets.
#[derive(Debug, Clone)]
pub(crate) struct SuperblockCache {
    /// Slot `(pc >> 2) & (SLOTS - 1)` holds the pc tag, its warming count
    /// (or [`UNBUILDABLE`]) and the index of its block in `blocks` (or
    /// [`NO_BLOCK`]). Every interpreter boundary probes this once — it must
    /// stay an array access, or event-heavy guests that never build a
    /// block pay for the tier anyway. A slot is 16 bytes and `Copy`, so
    /// building a machine allocates no more than the table itself.
    slots: Vec<Slot>,
    /// Index of every slot claimed since the last [`Self::clear`], each
    /// once, so a clear costs O(touched) instead of O([`SLOTS`]).
    touched: Vec<u16>,
    /// The translated blocks, each owned by the slot of its entry pc.
    blocks: Vec<Superblock>,
    pub(crate) hits: u64,
    pub(crate) insns: u64,
    pub(crate) side_exits: u64,
    pub(crate) built: u64,
    pub(crate) invalidations: u64,
}

/// One direct-mapped slot. The tag `1` is no 4-aligned pc, so a fresh slot
/// matches no fetched pc; only a probe at the misaligned pc 1 itself hits
/// one. A fresh slot is the only one whose count is 0: claiming a slot
/// sets it to 1, which is how [`SuperblockCache::enter`] tells a first
/// claim it must record for [`SuperblockCache::clear`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    pc: u64,
    count: u32,
    block: u32,
}

/// A slot no boundary has claimed.
const FRESH: Slot = Slot {
    pc: 1,
    count: 0,
    block: NO_BLOCK,
};

/// The slot a boundary pc maps to.
fn slot_of(pc: u64) -> usize {
    (pc >> 2) as usize & (SLOTS - 1)
}

impl Default for SuperblockCache {
    fn default() -> Self {
        Self {
            slots: vec![FRESH; SLOTS],
            touched: Vec::new(),
            blocks: Vec::new(),
            hits: 0,
            insns: 0,
            side_exits: 0,
            built: 0,
            invalidations: 0,
        }
    }
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

    /// Drops every block, profile and counter (snapshot restore): the
    /// touched slots go back to [`FRESH`]. Required, not hygiene: a
    /// restored page can carry a generation this machine already built a
    /// block under from other bytes, and a kept block would pass its
    /// generation check and run stale code.
    pub(crate) fn clear(&mut self) {
        for i in self.touched.drain(..) {
            self.slots[usize::from(i)] = FRESH;
        }
        self.blocks.clear();
        self.reset_counters();
    }

    /// The entry probe at boundary `pc`: one slot access, which bumps the
    /// warming count. Returns the index of a valid block for `pc`,
    /// translating it on the visit that crosses the hot threshold; `None`
    /// keeps the interpreter. A block whose page write generation moved is
    /// dropped and its slot re-armed at the hot threshold, so the next
    /// visit rebuilds from the current bytes.
    pub(crate) fn enter(&mut self, pc: u64, mem: &Memory, cost: &CostModel) -> Option<usize> {
        let i = slot_of(pc);
        let slot = self.slots[i];
        if slot.pc != pc {
            // Collision or first visit: evict the older boundary's state.
            if slot.count == 0 {
                self.touched.push(i as u16);
            }
            self.evict(i);
            self.slots[i] = Slot {
                pc,
                count: 1,
                block: NO_BLOCK,
            };
            return None;
        }
        if slot.block != NO_BLOCK {
            let block = &self.blocks[slot.block as usize];
            if mem.page_gen(block.page_no) == Some(block.gen) {
                return Some(slot.block as usize);
            }
            self.evict(i);
            self.invalidations += 1;
            self.slots[i].count = HOT_THRESHOLD;
            return None;
        }
        if slot.count == UNBUILDABLE {
            return None;
        }
        if slot.count == 0 {
            // A fresh slot probed at the pc of its tag: claimed here.
            self.touched.push(i as u16);
        }
        let count = slot.count + 1;
        self.slots[i].count = count;
        if count < HOT_THRESHOLD {
            return None;
        }
        let Some(block) = build(mem, cost, pc) else {
            self.slots[i].count = UNBUILDABLE;
            return None;
        };
        let index = self.blocks.len();
        self.blocks.push(block);
        self.slots[i].block = index as u32;
        self.built += 1;
        Some(index)
    }

    /// Architectural length and worst-case cycles of block `index`, for
    /// the machine's entry precheck.
    pub(crate) fn bounds(&self, index: usize) -> (u64, u64) {
        let block = &self.blocks[index];
        (block.ops.len() as u64, block.max_cycles)
    }

    /// Borrows block `index` out of its slot for one run; [`Self::put_back`]
    /// returns it. Moving the block out lets it execute against the
    /// machine that owns the cache without a refcount.
    pub(crate) fn take(&mut self, index: usize) -> Superblock {
        std::mem::take(&mut self.blocks[index])
    }

    /// Returns a block [`Self::take`] borrowed. Nothing touches the cache
    /// while a block runs, so `index` still names its place.
    pub(crate) fn put_back(&mut self, index: usize, block: Superblock) {
        self.blocks[index] = block;
    }

    /// Drops slot `i`'s block, if it has one. The last block moves into the
    /// freed place, and its own slot is re-pointed there.
    fn evict(&mut self, i: usize) {
        let index = std::mem::replace(&mut self.slots[i].block, NO_BLOCK);
        if index == NO_BLOCK {
            return;
        }
        self.blocks.swap_remove(index as usize);
        if let Some(moved) = self.blocks.get(index as usize) {
            self.slots[slot_of(moved.entry_pc())].block = index;
        }
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

/// Lowers one instruction to its pre-extracted handler. `None` if the
/// instruction cannot live inside a trace: CSR accesses, traps, privilege
/// returns and anything that would raise unconditionally (invalid W-forms,
/// malformed byte ranges) end the trace instead — the interpreter handles
/// them with full fidelity.
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
        Insn::OpImmW { op, rd, rs1, imm } if has_w_form(op) => SbOp::OpImmW {
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
        Insn::OpW { op, rd, rs1, rs2 } if has_w_form(op) => SbOp::OpW {
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
        Insn::OpImmW { .. }
        | Insn::OpW { .. }
        | Insn::Csr { .. }
        | Insn::CsrImm { .. }
        | Insn::Ecall
        | Insn::Ebreak
        | Insn::Mret
        | Insn::Sret => return None,
    })
}

/// The target of a direct jump a trace follows: `jal x0` to a 4-aligned pc
/// on the trace's page. Any other jump ends the trace, so a misaligned
/// target faults on the interpreter's fetch and another page's target is
/// decoded (and invalidated) under that page's own generation.
fn followed_jump(insn: &Insn, pc: u64, page_no: u64) -> Option<u64> {
    let Insn::Jal {
        rd: Reg::Zero,
        offset,
    } = *insn
    else {
        return None;
    };
    let target = pc.wrapping_add(offset as i64 as u64);
    (target.is_multiple_of(4) && Memory::page_number(target) == page_no).then_some(target)
}

/// Translates the run starting at `entry_pc` into a superblock, following
/// direct jumps within the page. `None` when the trace would be too short
/// to pay for its entry probe (misaligned entry, unmapped page, immediate
/// control transfer, or untranslatable leading instructions).
pub(crate) fn build(mem: &Memory, cost: &CostModel, entry_pc: u64) -> Option<Superblock> {
    if !entry_pc.is_multiple_of(4) {
        return None;
    }
    let page_no = Memory::page_number(entry_pc);
    let (_, gen) = mem.fetch_word(entry_pc).ok()?;

    // `ops[i]` was lowered from the instruction at `pcs[i]`; the loop
    // leaves the pc after the last instruction in `pc`, which closes the
    // table.
    let mut ops = Vec::new();
    let mut pcs = Vec::new();
    let mut max_cycles = 0u64;
    let mut pc = entry_pc;
    while ops.len() < MAX_OPS && Memory::page_number(pc) == page_no {
        let Ok((word, _)) = mem.fetch_word(pc) else {
            break;
        };
        let Ok(insn) = decode::decode(word) else {
            break;
        };
        let Some(op) = lower(insn, pc) else {
            break;
        };
        pcs.push(pc);
        max_cycles += worst_cycles(&insn, cost);
        if let Some(target) = followed_jump(&insn, pc, page_no) {
            ops.push(SbOp::Jump);
            pc = target;
            continue;
        }
        ops.push(op);
        pc += 4;
        if is_terminator(&insn) {
            break;
        }
    }
    if ops.len() < MIN_OPS {
        return None;
    }
    pcs.push(pc);

    Some(Superblock {
        page_no,
        gen,
        max_cycles,
        ops,
        pcs: pcs.into_boxed_slice(),
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
    for (i, op) in block.ops.iter().enumerate() {
        // One op per instruction: `i` instructions retired before this one.
        let retired = i as u64;
        macro_rules! raise_at {
            ($cause:expr, $tval:expr) => {{
                m.hart.set_pc(block.pcs[i]);
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
                    retired: retired + 1,
                    consumed: retired + 1,
                    event: None,
                    side_exit: false,
                };
            }};
        }
        // Store retired; if it rewrote the block's own page, stop before
        // the (now stale) tail.
        macro_rules! smc_check {
            ($addr:expr, $width:expr) => {{
                if touches(block.page_no, $addr, $width) {
                    m.hart.set_pc(block.pcs[i + 1]);
                    return SbExit {
                        retired: retired + 1,
                        consumed: retired + 1,
                        event: None,
                        side_exit: true,
                    };
                }
            }};
        }

        match *op {
            SbOp::Const { rd, value } => {
                m.hart.set_reg(rd, value);
                exec::retire(m, InsnClass::Alu, false, false);
            }
            SbOp::OpImm { op, rd, rs1, imm } => {
                let value = exec::alu64(op, m.hart.reg(rs1), imm);
                m.hart.set_reg(rd, value);
                exec::retire(m, InsnClass::Alu, false, false);
            }
            SbOp::OpImmW { op, rd, rs1, imm } => {
                let Some(value) = exec::alu32(op, m.hart.reg(rs1), imm) else {
                    raise_at!(ExceptionCause::IllegalInstruction, 0);
                };
                m.hart.set_reg(rd, value);
                exec::retire(m, InsnClass::Alu, false, false);
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
                smc_check!(addr, width);
            }
            SbOp::Nop => {
                exec::retire(m, InsnClass::Alu, false, false);
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
                exit_to!(if t { taken } else { fallthrough });
            }
            SbOp::Jal { rd, link, target } => {
                m.hart.set_reg(rd, link);
                exec::retire(m, InsnClass::Jump, true, false);
                exit_to!(target);
            }
            SbOp::Jump => {
                exec::retire(m, InsnClass::Jump, true, false);
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
                exit_to!(target);
            }
        }
    }

    // Ran off the end of the trace (the next instruction wasn't
    // translatable, or the trace hit its length cap): exit to the pc after
    // its last instruction.
    m.hart.set_pc(block.pcs[block.ops.len()]);
    let retired = block.ops.len() as u64;
    SbExit {
        retired,
        consumed: retired,
        event: None,
        side_exit: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_returns_every_touched_slot_to_fresh() {
        let program = regvault_isa::asm::assemble(
            "loop: addi a0, a0, 1
                   addi a1, a1, 2
                   addi a2, a2, 3
                   j    loop",
        )
        .unwrap();
        let mut mem = Memory::new();
        mem.write_slice(0x1000, program.bytes());
        let cost = CostModel::default();
        let mut cache = SuperblockCache::default();
        for _ in 0..HOT_THRESHOLD {
            let _ = cache.enter(0x1000, &mem, &cost);
        }
        let _ = cache.enter(0x2000, &mem, &cost);
        // The tag of a fresh slot, probed as a pc, claims that slot too.
        let _ = cache.enter(FRESH.pc, &mem, &cost);
        assert_eq!(cache.stats().cached, 1);
        assert_eq!(cache.touched.len(), 3);
        cache.clear();
        assert!(cache.touched.is_empty());
        assert!(cache
            .slots
            .iter()
            .all(|slot| (slot.pc, slot.count, slot.block) == (FRESH.pc, 0, NO_BLOCK)));
        assert_eq!(cache.stats(), SuperblockStats::default());
        assert_eq!(cache.enter(0x1000, &mem, &cost), None, "re-warms from cold");
    }

    #[test]
    fn every_op_is_one_instruction() {
        // Each pair here once shared a handler: addi+ld, add+ld, cre+sd and
        // addi+blt.
        let program = regvault_isa::asm::assemble(
            "loop: addi  t0, a0, 8
                   ld    t1, 0(t0)
                   add   t2, a0, a1
                   ld    t3, 0(t2)
                   creak a2, a3[7:0], t4
                   sd    a2, 0(s0)
                   addi  s1, s1, 1
                   blt   s1, s2, loop",
        )
        .unwrap();
        let mut mem = Memory::new();
        mem.write_slice(0x1000, program.bytes());
        let block = build(&mem, &CostModel::default(), 0x1000).unwrap();
        assert_eq!(block.ops.len() + 1, block.pcs.len());
        assert_eq!(block.ops.len(), 8);
        assert!(matches!(block.ops[7], SbOp::Branch { .. }));
    }
}
