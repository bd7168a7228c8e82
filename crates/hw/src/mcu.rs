//! MSP432P401R microcontroller model.
//!
//! "We select the MSP432P401R a 32-Bit Cortex M4F MCU which meets all of
//! our requirements with less than 1 uA sleep current, has 64 KB of
//! onboard SRAM and 256 KB of onboard flash memory" (paper §3.1.1).
//!
//! The model tracks the three things the paper's numbers depend on:
//! power state (active / LPM0 / LPM3 with the wakeup timer), an SRAM
//! allocator (the OTA decompressor must fit its working set in 64 KB,
//! which is why firmware is compressed in 30 KB blocks), and a coarse
//! flash/compute utilization ledger behind §5.2's "TTN protocol together
//! with control for the I/Q radio, backbone radio, FPGA, PMU and
//! decompression algorithm for OTA take only 18% of MCU resources".

/// On-chip SRAM, bytes.
pub const SRAM_BYTES: usize = 64 * 1024;
/// On-chip program flash, bytes.
pub const FLASH_BYTES: usize = 256 * 1024;
/// Supply voltage (power domain V1 of Table 3), volts.
pub const VDD: f64 = 1.8;

/// MCU power modes (subset the platform uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McuMode {
    /// CPU running at 48 MHz.
    Active,
    /// Sleep, peripherals on, fast wake.
    Lpm0,
    /// Deep sleep with RTC/wakeup timer running — the platform's sleep
    /// anchor ("we put the MCU in sleep mode LPM3 running only a wakeup
    /// timer").
    Lpm3,
    /// Shutdown (not used while a wakeup timer is required).
    Lpm4,
}

impl McuMode {
    /// Supply current in the mode, amps (datasheet typicals).
    pub fn supply_current_a(self) -> f64 {
        match self {
            McuMode::Active => 8.5e-3, // ≈15 mW at 1.8 V
            McuMode::Lpm0 => 1.2e-3,
            McuMode::Lpm3 => 0.85e-6, // < 1 µA, RTC running
            McuMode::Lpm4 => 0.06e-6,
        }
    }

    /// Supply power in the mode, mW.
    pub fn supply_power_mw(self) -> f64 {
        self.supply_current_a() * VDD * 1000.0
    }

    /// Wake latency to Active, nanoseconds.
    pub fn wake_latency_ns(self) -> u64 {
        match self {
            McuMode::Active => 0,
            McuMode::Lpm0 => 1_000,
            McuMode::Lpm3 => 10_000, // ~10 µs per datasheet
            McuMode::Lpm4 => 1_000_000,
        }
    }
}

/// Errors from the MCU model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McuError {
    /// SRAM allocation would exceed the 64 KB budget.
    OutOfSram {
        /// Bytes requested.
        requested: usize,
        /// Bytes free.
        available: usize,
    },
    /// Program image would exceed the 256 KB flash.
    OutOfFlash {
        /// Bytes requested.
        requested: usize,
        /// Bytes free.
        available: usize,
    },
    /// No allocation with that name exists.
    UnknownAllocation(String),
}

impl std::fmt::Display for McuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McuError::OutOfSram {
                requested,
                available,
            } => {
                write!(
                    f,
                    "MCU SRAM exhausted: need {requested} B, {available} B free"
                )
            }
            McuError::OutOfFlash {
                requested,
                available,
            } => {
                write!(
                    f,
                    "MCU flash exhausted: need {requested} B, {available} B free"
                )
            }
            McuError::UnknownAllocation(n) => write!(f, "no SRAM allocation named {n}"),
        }
    }
}

impl std::error::Error for McuError {}

/// The MCU: power mode, SRAM allocator, program store, wakeup timer.
#[derive(Debug, Clone)]
pub struct Mcu {
    mode: McuMode,
    sram_allocs: Vec<(String, usize)>,
    program_bytes: usize,
    /// Wakeup timer target, nanoseconds of platform time (None = off).
    pub wakeup_at_ns: Option<u64>,
    /// Cumulative active-mode busy fraction ledger `(cycles_used,
    /// cycles_available)` for the 18% figure.
    busy_cycles: u64,
    total_cycles: u64,
}

impl Mcu {
    /// Power-on in Active mode, nothing allocated.
    pub fn new() -> Self {
        Mcu {
            mode: McuMode::Active,
            sram_allocs: Vec::new(),
            program_bytes: 0,
            wakeup_at_ns: None,
            busy_cycles: 0,
            total_cycles: 0,
        }
    }

    /// Current power mode.
    pub fn mode(&self) -> McuMode {
        self.mode
    }

    /// Enter a power mode. Returns the wake latency that will apply when
    /// leaving it.
    pub fn set_mode(&mut self, mode: McuMode) -> u64 {
        self.mode = mode;
        mode.wake_latency_ns()
    }

    /// Supply power now, mW.
    pub fn supply_power_mw(&self) -> f64 {
        self.mode.supply_power_mw()
    }

    /// Allocate a named SRAM region.
    ///
    /// # Errors
    /// Fails (without allocating) if it would exceed 64 KB.
    pub fn alloc_sram(&mut self, name: &str, bytes: usize) -> Result<(), McuError> {
        let used = self.sram_used();
        if used + bytes > SRAM_BYTES {
            return Err(McuError::OutOfSram {
                requested: bytes,
                available: SRAM_BYTES - used,
            });
        }
        self.sram_allocs.push((name.to_string(), bytes));
        Ok(())
    }

    /// Free a named SRAM region.
    ///
    /// # Errors
    /// Fails if the name is unknown.
    pub fn free_sram(&mut self, name: &str) -> Result<(), McuError> {
        match self.sram_allocs.iter().position(|(n, _)| n == name) {
            Some(i) => {
                self.sram_allocs.remove(i);
                Ok(())
            }
            None => Err(McuError::UnknownAllocation(name.to_string())),
        }
    }

    /// Bytes of SRAM currently allocated.
    pub fn sram_used(&self) -> usize {
        self.sram_allocs.iter().map(|(_, b)| *b).sum()
    }

    /// Load a program image of `bytes` into MCU flash.
    ///
    /// # Errors
    /// Fails if it exceeds 256 KB.
    pub fn load_program(&mut self, bytes: usize) -> Result<(), McuError> {
        if bytes > FLASH_BYTES {
            return Err(McuError::OutOfFlash {
                requested: bytes,
                available: FLASH_BYTES,
            });
        }
        self.program_bytes = bytes;
        Ok(())
    }

    /// Loaded program size, bytes.
    pub fn program_bytes(&self) -> usize {
        self.program_bytes
    }

    /// Record a compute interval: `busy` of `total` cycles were used.
    pub fn record_cycles(&mut self, busy: u64, total: u64) {
        assert!(busy <= total);
        self.busy_cycles += busy;
        self.total_cycles += total;
    }

    /// CPU utilization fraction over everything recorded.
    pub fn cpu_utilization(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Combined "MCU resources" utilization the way §5.2 quotes it: the
    /// larger of flash occupancy and CPU load (the binding constraint).
    pub fn resource_utilization(&self) -> f64 {
        let flash = self.program_bytes as f64 / FLASH_BYTES as f64;
        flash.max(self.cpu_utilization())
    }
}

impl Default for Mcu {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpm3_is_sub_microamp() {
        assert!(McuMode::Lpm3.supply_current_a() < 1e-6);
        // ≈1.5 µW at 1.8 V
        assert!(McuMode::Lpm3.supply_power_mw() < 0.002);
    }

    #[test]
    fn active_power_matches_calibration() {
        // the platform calibration in tinysdr-fpga::power assumes ~15 mW
        assert!((McuMode::Active.supply_power_mw() - 15.3).abs() < 1.0);
    }

    #[test]
    fn sram_budget_enforced() {
        let mut m = Mcu::new();
        m.alloc_sram("decomp_block", 30 * 1024).unwrap();
        m.alloc_sram("mac_state", 8 * 1024).unwrap();
        assert_eq!(m.sram_used(), 38 * 1024);
        // a second 30 KB block would still fit (38+30=68 > 64? no: 68 KB > 64 KB → fails)
        let err = m.alloc_sram("second_block", 30 * 1024).unwrap_err();
        assert!(matches!(err, McuError::OutOfSram { .. }));
        m.free_sram("decomp_block").unwrap();
        m.alloc_sram("second_block", 30 * 1024).unwrap();
    }

    #[test]
    fn full_bitstream_cannot_fit_in_sram() {
        // the design rationale for 30 KB blocks: 579 KB >> 64 KB
        let mut m = Mcu::new();
        assert!(m.alloc_sram("whole_bitstream", 579 * 1024).is_err());
    }

    #[test]
    fn unknown_free_is_error() {
        let mut m = Mcu::new();
        assert!(matches!(
            m.free_sram("nope"),
            Err(McuError::UnknownAllocation(_))
        ));
    }

    #[test]
    fn program_flash_budget() {
        let mut m = Mcu::new();
        m.load_program(78 * 1024).unwrap(); // the paper's MCU image size
        assert!(m.load_program(300 * 1024).is_err());
    }

    #[test]
    fn utilization_tracks_both_axes() {
        let mut m = Mcu::new();
        m.load_program(46 * 1024).unwrap(); // 18% of 256 KB
        assert!((m.resource_utilization() - 0.18).abs() < 0.01);
        // CPU load can become the binding constraint
        m.record_cycles(50, 100);
        assert!((m.resource_utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mode_transitions_and_latency() {
        let mut m = Mcu::new();
        assert_eq!(m.set_mode(McuMode::Lpm3), 10_000);
        assert_eq!(m.mode(), McuMode::Lpm3);
        assert_eq!(m.set_mode(McuMode::Active), 0);
    }

    #[test]
    fn wakeup_timer_survives_mode_change() {
        let mut m = Mcu::new();
        m.wakeup_at_ns = Some(1_000_000_000);
        m.set_mode(McuMode::Lpm3);
        assert_eq!(m.wakeup_at_ns, Some(1_000_000_000));
    }
}
