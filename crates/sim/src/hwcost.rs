//! Structural FPGA area model (Table 3 of the paper).
//!
//! The paper reports the hardware cost of RegVault as *relative* LUT and
//! flip-flop usage over the whole SoC on a Xilinx VC707, with the FPU as a
//! familiar yardstick: crypto-engine < 5 %, an 8-entry CLB ≈ 4.3–4.8 %,
//! both far below the ≈ 25 % FPU. Since no Vivado run is available here,
//! this module rebuilds those numbers from a structural decomposition:
//!
//! * the **crypto-engine** is a 3-cycle QARMA-64 datapath — per-round
//!   S-box/MixColumns/tweakey logic times the unrolled round units, plus
//!   key muxing and control;
//! * the **CLB** is a fully-associative CAM — per-entry storage (valid +
//!   ksel + tweak + plaintext + ciphertext + LRU) and match comparators,
//!   plus LRU/control overhead;
//! * the **base SoC** (Rocket core, uncore, memory controller) and the
//!   **FPU** are anchored to VC707-scale constants.
//!
//! The constants are calibrated so the CLB-0 and CLB-8 configurations
//! reproduce the paper's Table 3 percentages to within ~0.2 pp; the model
//! then extrapolates to other CLB sizes for the ablation study.

/// Base SoC (Rocket + uncore + FPU, without any RegVault logic): LUTs.
pub const BASE_SOC_LUTS: u64 = 118_900;
/// Base SoC flip-flops.
pub const BASE_SOC_FFS: u64 = 114_405;
/// Double-precision FPU LUTs (included in the base SoC).
pub const FPU_LUTS: u64 = 31_600;
/// FPU flip-flops.
pub const FPU_FFS: u64 = 14_900;

/// One unrolled QARMA round unit: 16 S-box cells (~22 LUTs each), the
/// MixColumns network (~14 LUTs/cell) and the 64-bit tweakey XOR.
pub const ROUND_UNIT_LUTS: u64 = 665;
/// Round units instantiated for the 3-cycle (16-layer) datapath.
pub const ROUND_UNITS: u64 = 8;
/// Crypto-engine control FSM and exception logic.
pub const ENGINE_CONTROL_LUTS: u64 = 332;
/// Key-register file read mux (8 × 128-bit).
pub const KEY_MUX_LUTS: u64 = 448;
/// Pipeline/state registers of the engine.
pub const ENGINE_FFS: u64 = 5_756;
/// LUTs the result-forwarding mux saves when the CLB path is present
/// (logic shared between the CLB hit path and the engine output).
pub const CLB_SHARING_LUTS: u64 = 373;

/// Per-CLB-entry LUTs: two 131-bit CAM comparators (tweak+value+ksel) and
/// the result mux slice.
pub const CLB_ENTRY_LUTS: u64 = 600;
/// Per-entry storage flip-flops: 1 valid + 3 ksel + 3×64 data + LRU
/// counter and output staging.
pub const CLB_ENTRY_FFS: u64 = 700;
/// CLB control overhead (LRU update, invalidation decoder): LUTs.
pub const CLB_CONTROL_LUTS: u64 = 771;
/// CLB control overhead: flip-flops.
pub const CLB_CONTROL_FFS: u64 = 522;

/// Area report for one SoC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaReport {
    /// CLB entries in this configuration.
    pub clb_entries: usize,
    /// Crypto-engine LUTs.
    pub crypto_engine_luts: u64,
    /// Crypto-engine flip-flops.
    pub crypto_engine_ffs: u64,
    /// CLB LUTs (0 when no CLB).
    pub clb_luts: u64,
    /// CLB flip-flops.
    pub clb_ffs: u64,
    /// FPU LUTs (the paper's comparison point).
    pub fpu_luts: u64,
    /// FPU flip-flops.
    pub fpu_ffs: u64,
    /// Whole-SoC LUTs.
    pub soc_luts: u64,
    /// Whole-SoC flip-flops.
    pub soc_ffs: u64,
}

impl AreaReport {
    /// Crypto-engine LUTs as % of the SoC.
    #[must_use]
    pub fn crypto_engine_lut_pct(&self) -> f64 {
        100.0 * self.crypto_engine_luts as f64 / self.soc_luts as f64
    }

    /// Crypto-engine FFs as % of the SoC.
    #[must_use]
    pub fn crypto_engine_ff_pct(&self) -> f64 {
        100.0 * self.crypto_engine_ffs as f64 / self.soc_ffs as f64
    }

    /// CLB LUTs as % of the SoC.
    #[must_use]
    pub fn clb_lut_pct(&self) -> f64 {
        100.0 * self.clb_luts as f64 / self.soc_luts as f64
    }

    /// CLB FFs as % of the SoC.
    #[must_use]
    pub fn clb_ff_pct(&self) -> f64 {
        100.0 * self.clb_ffs as f64 / self.soc_ffs as f64
    }

    /// FPU LUTs as % of the SoC.
    #[must_use]
    pub fn fpu_lut_pct(&self) -> f64 {
        100.0 * self.fpu_luts as f64 / self.soc_luts as f64
    }

    /// FPU FFs as % of the SoC.
    #[must_use]
    pub fn fpu_ff_pct(&self) -> f64 {
        100.0 * self.fpu_ffs as f64 / self.soc_ffs as f64
    }
}

/// Computes the area report for a RegVault SoC with `clb_entries` CLB
/// slots.
///
/// # Examples
///
/// ```
/// use regvault_sim::hwcost::soc_report;
///
/// let no_clb = soc_report(0);
/// let with_clb = soc_report(8);
/// // Adding the CLB shrinks everyone else's share of the pie:
/// assert!(with_clb.crypto_engine_lut_pct() < no_clb.crypto_engine_lut_pct());
/// assert!(with_clb.fpu_lut_pct() < no_clb.fpu_lut_pct());
/// ```
#[must_use]
pub fn soc_report(clb_entries: usize) -> AreaReport {
    let mut crypto_engine_luts = ENGINE_CONTROL_LUTS + KEY_MUX_LUTS + ROUND_UNITS * ROUND_UNIT_LUTS;
    let (clb_luts, clb_ffs) = if clb_entries == 0 {
        (0, 0)
    } else {
        crypto_engine_luts -= CLB_SHARING_LUTS;
        (
            CLB_CONTROL_LUTS + CLB_ENTRY_LUTS * clb_entries as u64,
            CLB_CONTROL_FFS + CLB_ENTRY_FFS * clb_entries as u64,
        )
    };
    AreaReport {
        clb_entries,
        crypto_engine_luts,
        crypto_engine_ffs: ENGINE_FFS,
        clb_luts,
        clb_ffs,
        fpu_luts: FPU_LUTS,
        fpu_ffs: FPU_FFS,
        soc_luts: BASE_SOC_LUTS + crypto_engine_luts + clb_luts,
        soc_ffs: BASE_SOC_FFS + ENGINE_FFS + clb_ffs,
    }
}

/// Area reports for a sweep of CLB sizes (the design-space ablation).
#[must_use]
pub fn clb_sweep(entries: &[usize]) -> Vec<AreaReport> {
    entries.iter().map(|&n| soc_report(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tolerance: f64) -> bool {
        (a - b).abs() <= tolerance
    }

    #[test]
    fn clb0_row_matches_table_3() {
        let report = soc_report(0);
        assert!(
            close(report.crypto_engine_lut_pct(), 4.88, 0.2),
            "{report:?}"
        );
        assert!(close(report.crypto_engine_ff_pct(), 4.79, 0.2));
        assert!(close(report.fpu_lut_pct(), 25.28, 0.3));
        assert!(close(report.fpu_ff_pct(), 12.40, 0.3));
        assert_eq!(report.clb_luts, 0);
    }

    #[test]
    fn clb8_row_matches_table_3() {
        let report = soc_report(8);
        assert!(
            close(report.crypto_engine_lut_pct(), 4.42, 0.2),
            "{report:?}"
        );
        assert!(close(report.crypto_engine_ff_pct(), 4.55, 0.2));
        assert!(close(report.clb_lut_pct(), 4.30, 0.2));
        assert!(close(report.clb_ff_pct(), 4.84, 0.2));
        assert!(close(report.fpu_lut_pct(), 24.39, 0.3));
        assert!(close(report.fpu_ff_pct(), 11.78, 0.3));
    }

    #[test]
    fn regvault_is_cheaper_than_the_fpu() {
        for entries in [0usize, 8, 16, 32] {
            let report = soc_report(entries);
            let regvault_luts = report.crypto_engine_luts + report.clb_luts;
            assert!(regvault_luts < report.fpu_luts, "{entries} entries");
        }
    }

    #[test]
    fn area_scales_linearly_with_entries() {
        let sweep = clb_sweep(&[2, 4, 8, 16]);
        for pair in sweep.windows(2) {
            let delta = pair[1].clb_luts - pair[0].clb_luts;
            let entries_delta = (pair[1].clb_entries - pair[0].clb_entries) as u64;
            assert_eq!(delta, entries_delta * CLB_ENTRY_LUTS);
        }
    }
}
