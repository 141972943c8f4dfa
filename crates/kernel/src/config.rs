//! Kernel-side protection configuration.

use regvault_compiler::KeyPolicy;
use regvault_sim::MachineConfig;

/// Which RegVault protections the running kernel applies — the paper's
/// benchmark configurations (§4.4.2).
///
/// # Examples
///
/// ```
/// use regvault_kernel::ProtectionConfig;
///
/// let full = ProtectionConfig::full();
/// assert!(full.cip && full.spill);
/// assert_eq!(ProtectionConfig::ra_only().label(), "RA");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct ProtectionConfig {
    /// Return-address randomization (config "RA").
    pub ra: bool,
    /// Function-pointer randomization (config "FP").
    pub fp: bool,
    /// The four non-control data classes: kernel keys, cred, SELinux state,
    /// PGD pointers (config "NON-CONTROL").
    pub non_control: bool,
    /// Chain-based interrupt context protection (part of "FULL").
    pub cip: bool,
    /// Sensitive register-spilling protection (part of "FULL").
    pub spill: bool,
    /// Key-register assignment shared with the compiler.
    pub keys: KeyPolicyConfig,
}

/// Wrapper so `ProtectionConfig` can derive `Default`/`Eq` while reusing the
/// compiler's [`KeyPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct KeyPolicyConfig(pub KeyPolicy);

impl ProtectionConfig {
    /// Everything off — the unprotected baseline ("Original" in Table 4).
    #[must_use]
    pub fn off() -> Self {
        Self::default()
    }

    /// Return addresses only.
    #[must_use]
    pub fn ra_only() -> Self {
        Self {
            ra: true,
            ..Self::default()
        }
    }

    /// Function pointers only.
    #[must_use]
    pub fn fp_only() -> Self {
        Self {
            fp: true,
            ..Self::default()
        }
    }

    /// The four non-control data classes only.
    #[must_use]
    pub fn non_control() -> Self {
        Self {
            non_control: true,
            ..Self::default()
        }
    }

    /// Full protection: RA + FP + non-control + CIP + spill protection.
    #[must_use]
    pub fn full() -> Self {
        Self {
            ra: true,
            fp: true,
            non_control: true,
            cip: true,
            spill: true,
            keys: KeyPolicyConfig::default(),
        }
    }

    /// The paper's label for this configuration.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match (self.ra, self.fp, self.non_control, self.cip) {
            (false, false, false, false) => "BASE",
            (true, false, false, false) => "RA",
            (false, true, false, false) => "FP",
            (false, false, true, false) => "NON-CONTROL",
            _ => "FULL",
        }
    }

    /// The key policy.
    #[must_use]
    pub fn key_policy(&self) -> KeyPolicy {
        self.keys.0
    }
}

/// Parameters for [`crate::Kernel::boot`].
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// Active protections.
    pub protection: ProtectionConfig,
    /// Underlying machine configuration (CLB entries, cost model, seed,
    /// timer).
    pub machine: MachineConfig,
    /// Timer interrupt period in cycles (None disables preemption).
    pub timer_interval: Option<u64>,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            protection: ProtectionConfig::full(),
            machine: MachineConfig::default(),
            timer_interval: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_configs() {
        assert_eq!(ProtectionConfig::off().label(), "BASE");
        assert_eq!(ProtectionConfig::ra_only().label(), "RA");
        assert_eq!(ProtectionConfig::fp_only().label(), "FP");
        assert_eq!(ProtectionConfig::non_control().label(), "NON-CONTROL");
        assert_eq!(ProtectionConfig::full().label(), "FULL");
    }

    #[test]
    fn full_enables_every_protection() {
        let full = ProtectionConfig::full();
        assert!(full.ra && full.fp && full.non_control && full.cip && full.spill);
    }
}
