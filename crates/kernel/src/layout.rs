//! Guest physical memory map.
//!
//! Everything the kernel owns lives in guest memory so the paper's attacker
//! model (arbitrary kernel-memory read/write) applies byte-for-byte. The
//! map mirrors the RISC-V Linux convention of a high kernel half; the
//! simulator's sparse memory makes the gaps free.

/// Base of user program text.
pub const USER_CODE_BASE: u64 = 0x0000_0000_0040_0000;

/// Top of the user stack (grows down).
pub const USER_STACK_TOP: u64 = 0x0000_0000_7FF0_0000;

/// Size mapped for the user stack.
pub const USER_STACK_SIZE: u64 = 0x4_0000;

/// Base of the kernel data heap (`kmalloc` arena).
pub const KERNEL_HEAP_BASE: u64 = 0xFFFF_FFC0_0000_0000;

/// Base of per-thread kernel stacks.
pub const KERNEL_STACK_BASE: u64 = 0xFFFF_FFC0_1000_0000;

/// Bytes per kernel stack.
pub const KERNEL_STACK_SIZE: u64 = 0x4000;

/// Base of the page-table (PGD/PT) arena.
pub const PAGE_TABLE_BASE: u64 = 0xFFFF_FFC0_2000_0000;

/// Synthetic kernel text base, used to fabricate realistic return-address
/// values for the RA-protection model.
pub const KERNEL_TEXT_BASE: u64 = 0xFFFF_FFFF_8000_0000;

/// A bump allocator over the kernel heap.
///
/// # Examples
///
/// ```
/// use regvault_kernel::layout::{Kmalloc, KERNEL_HEAP_BASE};
///
/// let mut heap = Kmalloc::new();
/// let a = heap.alloc(24, 8);
/// let b = heap.alloc(100, 8);
/// assert_eq!(a, KERNEL_HEAP_BASE);
/// assert!(b >= a + 24);
/// assert_eq!(b % 8, 0);
/// ```
#[derive(Debug, Clone, Hash)]
pub struct Kmalloc {
    next: u64,
}

impl Default for Kmalloc {
    fn default() -> Self {
        Self::new()
    }
}

impl Kmalloc {
    /// A fresh arena starting at [`KERNEL_HEAP_BASE`].
    #[must_use]
    pub fn new() -> Self {
        Self {
            next: KERNEL_HEAP_BASE,
        }
    }

    /// Allocates `size` bytes at `align` alignment; never fails (the arena
    /// is terabytes of sparse address space).
    pub fn alloc(&mut self, size: u64, align: u64) -> u64 {
        debug_assert!(align.is_power_of_two());
        let addr = self.next.next_multiple_of(align);
        self.next = addr + size;
        addr
    }

    /// Bytes allocated so far.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.next - KERNEL_HEAP_BASE
    }
}

/// Kernel stack pointer for thread `tid` (top of its stack).
#[must_use]
pub fn kernel_stack_top(tid: u32) -> u64 {
    KERNEL_STACK_BASE + (u64::from(tid) + 1) * KERNEL_STACK_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmalloc_respects_alignment() {
        let mut heap = Kmalloc::new();
        heap.alloc(3, 1);
        let addr = heap.alloc(8, 64);
        assert_eq!(addr % 64, 0);
    }

    #[test]
    fn stacks_do_not_overlap() {
        let a = kernel_stack_top(0);
        let b = kernel_stack_top(1);
        assert_eq!(b - a, KERNEL_STACK_SIZE);
    }

    #[test]
    fn used_tracks_allocation() {
        let mut heap = Kmalloc::new();
        assert_eq!(heap.used(), 0);
        heap.alloc(16, 8);
        assert_eq!(heap.used(), 16);
    }
}
