//! Cycle cost model.

use crate::stats::InsnClass;

/// Per-instruction-class cycle costs for the cycle-accounting model.
///
/// Defaults approximate an in-order Rocket-class core, with the QARMA
/// latency taken from the paper's FPGA measurement ("our implementation of
/// the crypto-engine completes the QARMA cipher in 3 cycles", §4.2) and a
/// single-cycle CLB hit (§2.3.3: results are "sent to the pipeline
/// directly").
///
/// # Examples
///
/// ```
/// use regvault_sim::CostModel;
///
/// let model = CostModel::default();
/// assert_eq!(model.crypto_miss, 3);
/// assert_eq!(model.crypto_hit, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Simple ALU / CSR / fence instructions.
    pub alu: u64,
    /// Not-taken branch.
    pub branch_not_taken: u64,
    /// Taken branch / jump (pipeline redirect).
    pub branch_taken: u64,
    /// Memory load.
    pub load: u64,
    /// Memory store.
    pub store: u64,
    /// Multiply.
    pub mul: u64,
    /// Divide / remainder.
    pub div: u64,
    /// `cre`/`crd` with a CLB hit.
    pub crypto_hit: u64,
    /// `cre`/`crd` that runs the full QARMA datapath.
    pub crypto_miss: u64,
    /// Trap entry / return (`ecall`, exception dispatch, `sret`).
    pub trap: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            alu: 1,
            branch_not_taken: 1,
            branch_taken: 2,
            load: 2,
            store: 1,
            mul: 3,
            div: 16,
            crypto_hit: 1,
            crypto_miss: 3,
            trap: 4,
        }
    }
}

impl CostModel {
    /// Cycles for an instruction of the given class (crypto classes already
    /// resolved to hit or miss).
    #[must_use]
    pub fn cycles(&self, class: InsnClass, branch_taken: bool, crypto_hit: bool) -> u64 {
        match class {
            InsnClass::Alu | InsnClass::Csr => self.alu,
            InsnClass::Branch => {
                if branch_taken {
                    self.branch_taken
                } else {
                    self.branch_not_taken
                }
            }
            InsnClass::Jump => self.branch_taken,
            InsnClass::Load => self.load,
            InsnClass::Store => self.store,
            InsnClass::Mul => self.mul,
            InsnClass::Div => self.div,
            InsnClass::Crypto => {
                if crypto_hit {
                    self.crypto_hit
                } else {
                    self.crypto_miss
                }
            }
            InsnClass::System => self.trap,
        }
    }
}

/// One path of work the Rust-modelled kernel and supervisor do without
/// interpreting guest instructions, and the instructions it retires: the
/// one table of modelled-work costs. Fig. 5's overheads are protection
/// cycles over a base that is ~96% this work on the syscall workloads, so
/// these rows set the denominators.
///
/// Code outside the simulator charges a row through
/// [`Machine::charge_modelled`](crate::Machine::charge_modelled). A row
/// with one `(class, 1)` entry is a unit whose count the caller computes
/// and passes as `times`. Each row's doc names its source: the Linux 5.8
/// path it stands for, and whether its counts follow that path's
/// structure or were tuned.
///
/// # Examples
///
/// ```
/// use regvault_sim::{InsnClass, Machine, MachineConfig, ModelledPath};
///
/// assert_eq!(
///     ModelledPath::TrapEntry.insns(),
///     &[(InsnClass::Alu, 35), (InsnClass::Store, 31)]
/// );
/// let mut machine = Machine::new(MachineConfig::default());
/// machine.charge_modelled(ModelledPath::TrapEntry, 1);
/// assert_eq!(machine.stats().instret, 66);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelledPath {
    /// Syscall trap entry. Linux 5.8 `arch/riscv/kernel/entry.S`
    /// `handle_exception`: 31 `REG_S` of the GPRs into `pt_regs`; its 35
    /// ALU ops (CSR swaps, stack switch, dispatch) are tuned.
    TrapEntry,
    /// One instruction of a syscall's body; `times` is the per-syscall
    /// count of `regvault_kernel::Sysno::base_insns`, tuned per Linux 5.8
    /// handler.
    SyscallBody,
    /// Syscall trap exit. Linux 5.8 `entry.S` `ret_from_exception`: 31
    /// `REG_L` of the GPRs from `pt_regs`; its 22 ALU ops are tuned.
    TrapExit,
    /// Timer-interrupt entry and exit around the scheduler. Linux 5.8
    /// `handle_exception` → `handle_arch_irq`; tuned (the interrupted
    /// registers are saved by the CIP chain, charged apart).
    TimerTrap,
    /// A kernel function prologue, besides its `ra` store (charged by the
    /// store itself). Linux 5.8 RISC-V frame-pointer prologue; tuned.
    KframePush,
    /// A kernel function epilogue, besides its `ra` load (charged by the
    /// load itself). Linux 5.8 RISC-V frame-pointer epilogue; tuned.
    KframePop,
    /// One indirect call through a resolved ops-table pointer. Linux 5.8
    /// `file_operations` and `security_hook_list` calls: one `jalr`.
    IndirectJump,
    /// Thread creation. Linux 5.8 `kernel/fork.c` `copy_process`; tuned.
    ThreadCreate,
    /// The scheduler core of every switch, saving and abandoning alike.
    /// Linux 5.8 `kernel/sched/core.c` `__schedule` + `context_switch`;
    /// tuned. ROADMAP item 3 measures what scaling it does to Fig. 5.
    SchedulerCore,
    /// Thread teardown. Linux 5.8 `kernel/exit.c` `do_exit`; tuned.
    ThreadExit,
    /// Installing a signal handler. Linux 5.8 `kernel/signal.c`
    /// `do_sigaction`; tuned.
    SigactionInstall,
    /// Marking a signal pending. Linux 5.8 `kernel/signal.c`
    /// `send_signal`; tuned.
    SignalRaise,
    /// Delivering a signal. Linux 5.8 `arch/riscv/kernel/signal.c`
    /// `do_signal` + `setup_rt_frame`; tuned.
    SignalDeliver,
    /// Resolving a file name. Linux 5.8 `fs/namei.c` `path_lookupat`;
    /// tuned.
    PathLookup,
    /// One byte of a copy's unaligned tail: one `lb` and one `sb`.
    ByteCopy,
    /// Filling a `stat` result. Linux 5.8 `fs/stat.c`
    /// `generic_fillattr`; tuned.
    StatFill,
    /// Clearing a page-table page. Linux 5.8 `clear_page`; tuned (a
    /// fraction of the page's 512 `sd`).
    PageClear,
    /// Checking one PGD entry of a walk. Linux 5.8 `pgd_present` +
    /// `pgd_page_vaddr`; tuned.
    PgdEntryCheck,
    /// Copying a 16-byte block in from user memory. Linux 5.8
    /// `copy_from_user`: two `ld`.
    UserBlockIn,
    /// Copying a 16-byte block out to user memory. Linux 5.8
    /// `copy_to_user`: two `sd`.
    UserBlockOut,
    /// One software AES-128 block, either direction. Linux 5.8
    /// `lib/crypto/aes.c`: ~10 rounds × (16 S-box + 16 shift + ~60
    /// MixColumns + 16 xor) ops; tuned.
    AesBlock,
    /// The serving frontend staging a 16-byte request frame: two `sd`.
    StageRequest,
    /// A tenant parsing a request frame; tuned.
    ParseRequest,
    /// A tenant formatting a response frame; tuned.
    FormatResponse,
    /// A tenant answering an echo request; tuned.
    Echo,
    /// One instruction of the supervisor's idle spin; `times` is computed
    /// from the cycles left to the next deadline.
    Idle,
}

impl ModelledPath {
    /// Every row, in declaration order.
    pub const ALL: [ModelledPath; 26] = [
        ModelledPath::TrapEntry,
        ModelledPath::SyscallBody,
        ModelledPath::TrapExit,
        ModelledPath::TimerTrap,
        ModelledPath::KframePush,
        ModelledPath::KframePop,
        ModelledPath::IndirectJump,
        ModelledPath::ThreadCreate,
        ModelledPath::SchedulerCore,
        ModelledPath::ThreadExit,
        ModelledPath::SigactionInstall,
        ModelledPath::SignalRaise,
        ModelledPath::SignalDeliver,
        ModelledPath::PathLookup,
        ModelledPath::ByteCopy,
        ModelledPath::StatFill,
        ModelledPath::PageClear,
        ModelledPath::PgdEntryCheck,
        ModelledPath::UserBlockIn,
        ModelledPath::UserBlockOut,
        ModelledPath::AesBlock,
        ModelledPath::StageRequest,
        ModelledPath::ParseRequest,
        ModelledPath::FormatResponse,
        ModelledPath::Echo,
        ModelledPath::Idle,
    ];

    /// The instructions one pass of this path retires, as `(class,
    /// count)` pairs in the order they are charged.
    #[must_use]
    pub const fn insns(self) -> &'static [(InsnClass, u64)] {
        use InsnClass::{Alu, Jump, Load, Store};
        match self {
            ModelledPath::TrapEntry => &[(Alu, 35), (Store, 31)],
            ModelledPath::SyscallBody | ModelledPath::Idle => &[(Alu, 1)],
            ModelledPath::TrapExit => &[(Load, 31), (Alu, 22)],
            ModelledPath::TimerTrap => &[(Alu, 40), (Store, 6)],
            ModelledPath::KframePush => &[(Alu, 4), (Store, 2)],
            ModelledPath::KframePop => &[(Alu, 3), (Load, 1)],
            ModelledPath::IndirectJump => &[(Jump, 1)],
            ModelledPath::ThreadCreate => &[(Alu, 300), (Store, 60)],
            ModelledPath::SchedulerCore => &[(Alu, 1600), (Load, 40), (Store, 40)],
            ModelledPath::ThreadExit => &[(Alu, 200)],
            ModelledPath::SigactionInstall => &[(Alu, 30)],
            ModelledPath::SignalRaise => &[(Alu, 20)],
            ModelledPath::SignalDeliver => &[(Alu, 60), (Store, 10)],
            ModelledPath::PathLookup => &[(Alu, 40), (Load, 12)],
            ModelledPath::ByteCopy => &[(Load, 1), (Store, 1)],
            ModelledPath::StatFill => &[(Load, 8)],
            ModelledPath::PageClear => &[(Store, 64)],
            ModelledPath::PgdEntryCheck => &[(Alu, 2)],
            ModelledPath::UserBlockIn => &[(Load, 2)],
            ModelledPath::UserBlockOut | ModelledPath::StageRequest => &[(Store, 2)],
            ModelledPath::AesBlock => &[(Alu, 1100)],
            ModelledPath::ParseRequest => &[(Alu, 40)],
            ModelledPath::FormatResponse => &[(Alu, 24)],
            ModelledPath::Echo => &[(Alu, 8)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crypto_cost_depends_on_clb() {
        let model = CostModel::default();
        assert_eq!(model.cycles(InsnClass::Crypto, false, true), 1);
        assert_eq!(model.cycles(InsnClass::Crypto, false, false), 3);
    }

    #[test]
    fn every_modelled_row_charges_something() {
        let distinct: std::collections::HashSet<_> = ModelledPath::ALL.into_iter().collect();
        assert_eq!(
            distinct.len(),
            ModelledPath::ALL.len(),
            "ALL lists a row twice"
        );
        for path in ModelledPath::ALL {
            let insns = path.insns();
            assert!(!insns.is_empty(), "{path:?} is empty");
            assert!(
                insns.iter().all(|&(_, count)| count > 0),
                "{path:?} has a zero count"
            );
        }
    }

    #[test]
    fn branch_cost_depends_on_direction() {
        let model = CostModel::default();
        assert!(
            model.cycles(InsnClass::Branch, true, false)
                > model.cycles(InsnClass::Branch, false, false)
        );
    }
}
