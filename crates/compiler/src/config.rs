//! Compilation configuration: which protections are enabled and which key
//! registers they use.

use regvault_isa::KeyReg;

/// Assignment of hardware key registers to protection domains.
///
/// The paper uses dedicated keys to defeat cross-data-type substitution
/// (§2.4.3): swapping a ciphertext produced under the function-pointer key
/// into a return-address slot decrypts with the wrong key and yields
/// garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyPolicy {
    /// Per-thread return-address key (reloaded on context switch, §3.1.1).
    pub return_addr: KeyReg,
    /// Kernel-wide function-pointer key (§3.1.2).
    pub fn_ptr: KeyReg,
    /// Per-thread chain-based interrupt context protection key (§2.4.3).
    pub interrupt: KeyReg,
    /// Annotated-data key (§2.4.1).
    pub data: KeyReg,
    /// Sensitive register-spill key (§2.4.4).
    pub spill: KeyReg,
}

impl Default for KeyPolicy {
    fn default() -> Self {
        Self {
            return_addr: KeyReg::A,
            fn_ptr: KeyReg::B,
            interrupt: KeyReg::C,
            data: KeyReg::D,
            spill: KeyReg::E,
        }
    }
}

/// Which RegVault protections the compiler applies — the paper's four
/// benchmark configurations (§4.4.2) plus the unprotected baseline.
///
/// # Examples
///
/// ```
/// use regvault_compiler::CompileConfig;
///
/// let full = CompileConfig::full();
/// assert!(full.protect_ra && full.protect_fn_ptr && full.protect_data && full.protect_spills);
/// let baseline = CompileConfig::none();
/// assert!(!baseline.protect_ra);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileConfig {
    /// Encrypt return addresses in prologues/epilogues (config "RA").
    pub protect_ra: bool,
    /// Encrypt function pointers in memory (config "FP").
    pub protect_fn_ptr: bool,
    /// Instrument annotated data loads/stores (config "NON-CONTROL").
    pub protect_data: bool,
    /// Protect sensitive register spills, intra- and inter-procedural
    /// (part of config "FULL").
    pub protect_spills: bool,
    /// Run the local optimizer (constant folding, copy propagation, DCE)
    /// before code generation. Off by default so instrumentation studies
    /// see unoptimized instruction streams.
    pub optimize: bool,
    /// Run the binary-level protection verifier over the linked image and
    /// fail compilation on invariant violations. On by default (compiled
    /// without the `verifier` feature, the flag is ignored).
    pub verify_output: bool,
    /// Verify in whole-program mode: call-graph recovery, interprocedural
    /// taint summaries, and the tweak-diversity / raw-key-flow /
    /// spill-gadget lints. Lint *warnings* never fail compilation (CI's
    /// `regvault-cli verify` run fails on them); error-severity findings do. Off by
    /// default — the intraprocedural gate is the compatibility baseline.
    pub verify_interprocedural: bool,
    /// Key register assignment.
    pub keys: KeyPolicy,
}

impl Default for CompileConfig {
    fn default() -> Self {
        Self {
            protect_ra: false,
            protect_fn_ptr: false,
            protect_data: false,
            protect_spills: false,
            optimize: false,
            verify_output: true,
            verify_interprocedural: false,
            keys: KeyPolicy::default(),
        }
    }
}

impl CompileConfig {
    /// Unprotected baseline.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Return-address protection only (paper config "RA").
    #[must_use]
    pub fn ra_only() -> Self {
        Self {
            protect_ra: true,
            ..Self::default()
        }
    }

    /// Function-pointer protection only (paper config "FP").
    #[must_use]
    pub fn fp_only() -> Self {
        Self {
            protect_fn_ptr: true,
            ..Self::default()
        }
    }

    /// Annotated non-control data only (paper config "NON-CONTROL").
    #[must_use]
    pub fn non_control() -> Self {
        Self {
            protect_data: true,
            ..Self::default()
        }
    }

    /// Everything on (paper config "FULL").
    #[must_use]
    pub fn full() -> Self {
        Self {
            protect_ra: true,
            protect_fn_ptr: true,
            protect_data: true,
            protect_spills: true,
            ..Self::default()
        }
    }

    /// Returns a copy with the optimizer enabled.
    #[must_use]
    pub fn optimized(mut self) -> Self {
        self.optimize = true;
        self
    }

    /// Returns a copy with whole-program (interprocedural) verification.
    #[must_use]
    pub fn interprocedural(mut self) -> Self {
        self.verify_interprocedural = true;
        self
    }

    /// `true` if any protection is enabled.
    #[must_use]
    pub fn any_protection(&self) -> bool {
        self.protect_ra || self.protect_fn_ptr || self.protect_data || self.protect_spills
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_configs() {
        assert!(!CompileConfig::none().any_protection());
        let ra = CompileConfig::ra_only();
        assert!(ra.protect_ra && !ra.protect_fn_ptr && !ra.protect_data);
        let fp = CompileConfig::fp_only();
        assert!(fp.protect_fn_ptr && !fp.protect_ra);
        let nc = CompileConfig::non_control();
        assert!(nc.protect_data && !nc.protect_ra);
    }

    #[test]
    fn keys_are_distinct_by_default() {
        let keys = KeyPolicy::default();
        let all = [
            keys.return_addr,
            keys.fn_ptr,
            keys.interrupt,
            keys.data,
            keys.spill,
        ];
        let mut sorted = all.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }
}
