//! A miniature VFS with function-pointer dispatch tables and pipes.
//!
//! The VFS is the kernel's densest source of *function pointers*: every
//! file operation dispatches through a `file_operations` table. RegVault
//! randomizes these pointers in memory (dedicated key, storage-address
//! tweak, §3.1.2); an attacker overwriting one redirects the kernel not to
//! a JOP gadget but to whatever garbage the corrupted ciphertext decrypts
//! to.
//!
//! File data lives in guest-memory buffers; read/write copy byte ranges
//! between user buffers and file buffers, charging per-word memory costs —
//! which is what makes `read`/`write` latency benchmarks meaningful.

use regvault_sim::{Machine, ModelledPath};

use crate::config::ProtectionConfig;
use crate::error::KernelError;
use crate::layout::{Kmalloc, KERNEL_TEXT_BASE};
use crate::pfield;

/// Synthetic handler addresses in kernel text (targets of the dispatch).
pub mod handlers {
    use super::KERNEL_TEXT_BASE;
    /// `file_read` handler address.
    pub const FILE_READ: u64 = KERNEL_TEXT_BASE + 0x1000;
    /// `file_write` handler address.
    pub const FILE_WRITE: u64 = KERNEL_TEXT_BASE + 0x1100;
    /// `file_stat` handler address.
    pub const FILE_STAT: u64 = KERNEL_TEXT_BASE + 0x1200;
    /// `pipe_read` handler address.
    pub const PIPE_READ: u64 = KERNEL_TEXT_BASE + 0x2000;
    /// `pipe_write` handler address.
    pub const PIPE_WRITE: u64 = KERNEL_TEXT_BASE + 0x2100;
    /// All legitimate handler entry points.
    pub const ALL: [u64; 5] = [FILE_READ, FILE_WRITE, FILE_STAT, PIPE_READ, PIPE_WRITE];
}

/// Index of an operation within a [`FileOpsTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum FileOp {
    Read = 0,
    Write = 1,
    Stat = 2,
}

/// A `file_operations`-style table of function pointers in guest memory.
#[derive(Debug, Clone, Copy, Hash)]
pub struct FileOpsTable {
    base: u64,
}

impl FileOpsTable {
    /// Allocates the table and installs (encrypting when `fp` protection is
    /// on) the three handler pointers.
    ///
    /// # Errors
    ///
    /// Propagates guest-memory faults.
    pub fn new(
        heap: &mut Kmalloc,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        read: u64,
        write: u64,
        stat: u64,
    ) -> Result<Self, KernelError> {
        let base = heap.alloc(24, 8);
        let table = Self { base };
        for (i, target) in [read, write, stat].into_iter().enumerate() {
            let addr = base + 8 * i as u64;
            pfield::write_u64_conf(machine, cfg.key_policy().fn_ptr, addr, target, cfg.fp)?;
        }
        Ok(table)
    }

    /// Guest address of the pointer slot for `op` (the attacker's target).
    #[must_use]
    pub fn slot_addr(&self, op: FileOp) -> u64 {
        self.base + 8 * op as u64
    }

    /// Resolves the indirect-call target for `op`: load + decrypt.
    ///
    /// This is where a corrupted pointer surfaces — under RegVault the
    /// decryption garbles it; unprotected, the attacker's value comes back
    /// verbatim.
    ///
    /// # Errors
    ///
    /// Propagates guest-memory faults.
    pub fn resolve(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        op: FileOp,
    ) -> Result<u64, KernelError> {
        let addr = self.slot_addr(op);
        pfield::read_u64_conf(machine, cfg.key_policy().fn_ptr, addr, cfg.fp)
    }

    /// Resolves and "calls": returns the target if it is a legitimate
    /// handler, or [`KernelError::WildJump`] (a crash) otherwise.
    ///
    /// # Errors
    ///
    /// [`KernelError::WildJump`] when the resolved target is not a known
    /// handler entry point.
    pub fn dispatch(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        op: FileOp,
    ) -> Result<u64, KernelError> {
        let target = self.resolve(machine, cfg, op)?;
        machine.charge_modelled(ModelledPath::IndirectJump, 1);
        if handlers::ALL.contains(&target) {
            Ok(target)
        } else {
            Err(KernelError::WildJump { target })
        }
    }
}

/// Maximum number of files in the mini filesystem.
pub const MAX_FILES: usize = 16;
const MAX_FDS: usize = 32;
const PIPE_CAPACITY: u64 = 4096;

#[derive(Debug, Clone, Hash)]
pub(crate) struct File {
    name: String,
    buf: u64,
    capacity: u64,
    pub(crate) size: u64,
}

#[derive(Debug, Clone, Copy, Hash)]
pub(crate) enum FdKind {
    File { index: usize, offset: u64 },
    PipeRead(usize),
    PipeWrite(usize),
}

#[derive(Debug, Clone, Hash)]
pub(crate) struct Pipe {
    buf: u64,
    /// Read position.
    pub(crate) head: u64,
    /// Write position.
    tail: u64,
}

/// The in-memory filesystem: files, descriptors, pipes, and the dispatch
/// tables.
#[derive(Debug, Clone, Hash)]
pub struct MiniFs {
    pub(crate) files: Vec<File>,
    pub(crate) fds: Vec<Option<FdKind>>,
    pub(crate) pipes: Vec<Pipe>,
    /// The regular-file operations table.
    pub file_ops: FileOpsTable,
    /// The pipe operations table.
    pub pipe_ops: FileOpsTable,
}

impl MiniFs {
    /// Creates the filesystem and its dispatch tables.
    ///
    /// # Errors
    ///
    /// Propagates guest-memory faults from table initialization.
    pub fn new(
        heap: &mut Kmalloc,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
    ) -> Result<Self, KernelError> {
        let file_ops = FileOpsTable::new(
            heap,
            machine,
            cfg,
            handlers::FILE_READ,
            handlers::FILE_WRITE,
            handlers::FILE_STAT,
        )?;
        let pipe_ops = FileOpsTable::new(
            heap,
            machine,
            cfg,
            handlers::PIPE_READ,
            handlers::PIPE_WRITE,
            handlers::FILE_STAT,
        )?;
        Ok(Self {
            files: Vec::new(),
            fds: vec![None; MAX_FDS],
            pipes: Vec::new(),
            file_ops,
            pipe_ops,
        })
    }

    /// Creates a file with a `capacity`-byte buffer.
    ///
    /// # Errors
    ///
    /// [`KernelError::ResourceExhausted`] beyond [`MAX_FILES`] files.
    pub fn create(
        &mut self,
        heap: &mut Kmalloc,
        machine: &mut Machine,
        name: &str,
        capacity: u64,
    ) -> Result<(), KernelError> {
        if self.files.len() == MAX_FILES {
            return Err(KernelError::ResourceExhausted);
        }
        let buf = heap.alloc(capacity, 8);
        machine.memory_mut().map_region(buf, capacity);
        self.files.push(File {
            name: name.to_owned(),
            buf,
            capacity,
            size: 0,
        });
        Ok(())
    }

    fn alloc_fd(&mut self, kind: FdKind) -> Result<u64, KernelError> {
        let slot = self
            .fds
            .iter()
            .position(Option::is_none)
            .ok_or(KernelError::ResourceExhausted)?;
        self.fds[slot] = Some(kind);
        Ok(slot as u64)
    }

    /// Opens a file by name.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotFound`] for unknown names,
    /// [`KernelError::ResourceExhausted`] when out of descriptors.
    pub fn open(&mut self, machine: &mut Machine, name: &str) -> Result<u64, KernelError> {
        machine.charge_modelled(ModelledPath::PathLookup, 1);
        let index = self
            .files
            .iter()
            .position(|f| f.name == name)
            .ok_or(KernelError::NotFound)?;
        self.alloc_fd(FdKind::File { index, offset: 0 })
    }

    /// Closes a descriptor.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadHandle`] for invalid descriptors.
    pub fn close(&mut self, fd: u64) -> Result<(), KernelError> {
        let slot = self
            .fds
            .get_mut(fd as usize)
            .ok_or(KernelError::BadHandle)?;
        if slot.take().is_none() {
            return Err(KernelError::BadHandle);
        }
        Ok(())
    }

    /// Creates a pipe, returning `(read_fd, write_fd)`.
    ///
    /// # Errors
    ///
    /// [`KernelError::ResourceExhausted`] when out of descriptors.
    pub fn pipe(
        &mut self,
        heap: &mut Kmalloc,
        machine: &mut Machine,
    ) -> Result<(u64, u64), KernelError> {
        let buf = heap.alloc(PIPE_CAPACITY, 8);
        machine.memory_mut().map_region(buf, PIPE_CAPACITY);
        let index = self.pipes.len();
        self.pipes.push(Pipe {
            buf,
            head: 0,
            tail: 0,
        });
        let rfd = self.alloc_fd(FdKind::PipeRead(index))?;
        let wfd = self.alloc_fd(FdKind::PipeWrite(index))?;
        Ok((rfd, wfd))
    }

    fn copy(machine: &mut Machine, src: u64, dst: u64, len: u64) -> Result<(), KernelError> {
        // Word-at-a-time copy with cycle accounting.
        let words = len / 8;
        for i in 0..words {
            let value = machine.kernel_load_u64(src + 8 * i)?;
            machine.kernel_store_u64(dst + 8 * i, value)?;
        }
        for i in (words * 8)..len {
            let byte = machine.memory().read_u8(src + i)?;
            machine.memory_mut().write_u8(dst + i, byte)?;
            machine.charge_modelled(ModelledPath::ByteCopy, 1);
        }
        Ok(())
    }

    /// Reads up to `len` bytes from `fd` into the guest buffer `user_buf`.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadHandle`] for invalid descriptors or reading a
    /// write end; [`KernelError::WildJump`] if the dispatch pointer was
    /// corrupted.
    pub fn read(
        &mut self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        fd: u64,
        user_buf: u64,
        len: u64,
    ) -> Result<u64, KernelError> {
        let kind = self
            .fds
            .get(fd as usize)
            .copied()
            .flatten()
            .ok_or(KernelError::BadHandle)?;
        match kind {
            FdKind::File { index, offset } => {
                let target = self.file_ops.dispatch(machine, cfg, FileOp::Read)?;
                debug_assert_eq!(target, handlers::FILE_READ);
                let file = &self.files[index];
                let available = file.size.saturating_sub(offset);
                let n = len.min(available);
                Self::copy(machine, file.buf + offset, user_buf, n)?;
                if let Some(FdKind::File { offset, .. }) = &mut self.fds[fd as usize] {
                    *offset += n;
                }
                Ok(n)
            }
            FdKind::PipeRead(index) => {
                let target = self.pipe_ops.dispatch(machine, cfg, FileOp::Read)?;
                debug_assert_eq!(target, handlers::PIPE_READ);
                let pipe = &mut self.pipes[index];
                let available = pipe.tail - pipe.head;
                let n = len.min(available);
                let start = pipe.buf + (pipe.head % PIPE_CAPACITY);
                // The benchmark pipes transfer well under the capacity, so
                // wrap-around is handled by resetting on empty.
                Self::copy(machine, start, user_buf, n)?;
                pipe.head += n;
                if pipe.head == pipe.tail {
                    pipe.head = 0;
                    pipe.tail = 0;
                }
                Ok(n)
            }
            FdKind::PipeWrite(_) => Err(KernelError::BadHandle),
        }
    }

    /// Writes `len` bytes from the guest buffer `user_buf` to `fd`.
    ///
    /// # Errors
    ///
    /// As [`MiniFs::read`], plus [`KernelError::ResourceExhausted`] when a
    /// file or pipe is full.
    pub fn write(
        &mut self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        fd: u64,
        user_buf: u64,
        len: u64,
    ) -> Result<u64, KernelError> {
        let kind = self
            .fds
            .get(fd as usize)
            .copied()
            .flatten()
            .ok_or(KernelError::BadHandle)?;
        match kind {
            FdKind::File { index, offset } => {
                let target = self.file_ops.dispatch(machine, cfg, FileOp::Write)?;
                debug_assert_eq!(target, handlers::FILE_WRITE);
                let file = &mut self.files[index];
                if offset + len > file.capacity {
                    return Err(KernelError::ResourceExhausted);
                }
                let buf = file.buf;
                file.size = file.size.max(offset + len);
                Self::copy(machine, user_buf, buf + offset, len)?;
                if let Some(FdKind::File { offset, .. }) = &mut self.fds[fd as usize] {
                    *offset += len;
                }
                Ok(len)
            }
            FdKind::PipeWrite(index) => {
                let target = self.pipe_ops.dispatch(machine, cfg, FileOp::Write)?;
                debug_assert_eq!(target, handlers::PIPE_WRITE);
                let pipe = &mut self.pipes[index];
                if (pipe.tail % PIPE_CAPACITY) + len > PIPE_CAPACITY {
                    return Err(KernelError::ResourceExhausted);
                }
                let start = pipe.buf + (pipe.tail % PIPE_CAPACITY);
                Self::copy(machine, user_buf, start, len)?;
                pipe.tail += len;
                Ok(len)
            }
            FdKind::PipeRead(_) => Err(KernelError::BadHandle),
        }
    }

    /// Returns the size of the file behind `fd`.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadHandle`] for non-file descriptors;
    /// [`KernelError::WildJump`] on corrupted dispatch pointers.
    pub fn stat(
        &mut self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        fd: u64,
    ) -> Result<u64, KernelError> {
        let kind = self
            .fds
            .get(fd as usize)
            .copied()
            .flatten()
            .ok_or(KernelError::BadHandle)?;
        match kind {
            FdKind::File { index, .. } => {
                let target = self.file_ops.dispatch(machine, cfg, FileOp::Stat)?;
                debug_assert_eq!(target, handlers::FILE_STAT);
                machine.charge_modelled(ModelledPath::StatFill, 1);
                Ok(self.files[index].size)
            }
            _ => Err(KernelError::BadHandle),
        }
    }

    /// Seeks a file descriptor to an absolute offset.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadHandle`] for non-file descriptors.
    pub fn seek(&mut self, fd: u64, to: u64) -> Result<(), KernelError> {
        match self.fds.get_mut(fd as usize).and_then(Option::as_mut) {
            Some(FdKind::File { offset, .. }) => {
                *offset = to;
                Ok(())
            }
            _ => Err(KernelError::BadHandle),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regvault_isa::KeyReg;
    use regvault_sim::MachineConfig;

    fn setup(cfg: &ProtectionConfig) -> (Machine, Kmalloc, MiniFs) {
        let mut machine = Machine::new(MachineConfig::default());
        machine.write_key_register(KeyReg::B, 0xB0, 0xB1).unwrap();
        let mut heap = Kmalloc::new();
        let fs = MiniFs::new(&mut heap, &mut machine, cfg).unwrap();
        (machine, heap, fs)
    }

    #[test]
    fn file_read_write_round_trip() {
        let cfg = ProtectionConfig::full();
        let (mut machine, mut heap, mut fs) = setup(&cfg);
        fs.create(&mut heap, &mut machine, "data", 4096).unwrap();
        let fd = fs.open(&mut machine, "data").unwrap();
        let user_buf = 0x10_0000;
        machine.memory_mut().write_slice(user_buf, b"hello krn");
        fs.write(&mut machine, &cfg, fd, user_buf, 9).unwrap();
        fs.seek(fd, 0).unwrap();
        let out_buf = 0x11_0000;
        machine.memory_mut().map_region(out_buf, 4096);
        let n = fs.read(&mut machine, &cfg, fd, out_buf, 9).unwrap();
        assert_eq!(n, 9);
        assert_eq!(machine.memory().read_vec(out_buf, 9).unwrap(), b"hello krn");
        assert_eq!(fs.stat(&mut machine, &cfg, fd).unwrap(), 9);
    }

    #[test]
    fn pipes_transfer_bytes() {
        let cfg = ProtectionConfig::full();
        let (mut machine, mut heap, mut fs) = setup(&cfg);
        let (rfd, wfd) = fs.pipe(&mut heap, &mut machine).unwrap();
        let buf = 0x10_0000;
        machine.memory_mut().write_slice(buf, b"pipedata");
        fs.write(&mut machine, &cfg, wfd, buf, 8).unwrap();
        let out = 0x11_0000;
        machine.memory_mut().map_region(out, 64);
        assert_eq!(fs.read(&mut machine, &cfg, rfd, out, 8).unwrap(), 8);
        assert_eq!(machine.memory().read_vec(out, 8).unwrap(), b"pipedata");
        // Empty pipe reads zero bytes.
        assert_eq!(fs.read(&mut machine, &cfg, rfd, out, 8).unwrap(), 0);
    }

    #[test]
    fn fn_ptrs_are_randomized_in_memory_when_protected() {
        let cfg = ProtectionConfig::full();
        let (machine, _, fs) = setup(&cfg);
        let raw = machine
            .memory()
            .read_u64(fs.file_ops.slot_addr(FileOp::Read))
            .unwrap();
        assert_ne!(raw, handlers::FILE_READ);
    }

    #[test]
    fn jop_redirect_is_neutralized_by_randomization() {
        let cfg = ProtectionConfig::fp_only();
        let (mut machine, mut heap, mut fs) = setup(&cfg);
        fs.create(&mut heap, &mut machine, "x", 64).unwrap();
        let fd = fs.open(&mut machine, "x").unwrap();
        // Attacker overwrites the read pointer with a gadget address.
        let gadget = KERNEL_TEXT_BASE + 0xDEAD;
        machine
            .memory_mut()
            .write_u64(fs.file_ops.slot_addr(FileOp::Read), gadget)
            .unwrap();
        let err = fs.read(&mut machine, &cfg, fd, 0x10_0000, 8).unwrap_err();
        match err {
            KernelError::WildJump { target } => {
                assert_ne!(target, gadget, "decryption garbles the gadget address");
            }
            other => panic!("expected wild jump, got {other}"),
        }
    }

    #[test]
    fn jop_redirect_succeeds_without_protection() {
        let cfg = ProtectionConfig::off();
        let (mut machine, mut heap, mut fs) = setup(&cfg);
        fs.create(&mut heap, &mut machine, "x", 64).unwrap();
        let fd = fs.open(&mut machine, "x").unwrap();
        let gadget = KERNEL_TEXT_BASE + 0xDEAD;
        machine
            .memory_mut()
            .write_u64(fs.file_ops.slot_addr(FileOp::Read), gadget)
            .unwrap();
        let err = fs.read(&mut machine, &cfg, fd, 0x10_0000, 8).unwrap_err();
        match err {
            KernelError::WildJump { target } => {
                assert_eq!(target, gadget, "control flows to the attacker's gadget");
            }
            other => panic!("expected wild jump, got {other}"),
        }
    }

    #[test]
    fn bad_descriptors_are_rejected() {
        let cfg = ProtectionConfig::full();
        let (mut machine, _, mut fs) = setup(&cfg);
        assert!(matches!(
            fs.read(&mut machine, &cfg, 17, 0, 8),
            Err(KernelError::BadHandle)
        ));
        assert!(matches!(fs.close(17), Err(KernelError::BadHandle)));
        assert!(matches!(
            fs.open(&mut machine, "missing"),
            Err(KernelError::NotFound)
        ));
    }
}
