//! MX25R6435F external flash model (the OTA programming store).
//!
//! "We chose the MX25R6435F flash chip with 8 MB memory. Although this is
//! far more than the size required, it allows tinySDR to store multiple
//! FPGA bitstreams and MCU programs to quickly switch between stored
//! protocols without having to re-send the programming data over the
//! air" (paper §3.1.2).
//!
//! NOR-flash semantics are modelled faithfully because the OTA pipeline
//! depends on them: programming can only clear bits (1→0), so a sector
//! must be erased (to 0xFF) before rewriting; writes land page-by-page;
//! the FPGA boots by streaming the image over quad SPI.

/// Total capacity, bytes (64 Mbit).
pub const CAPACITY: usize = 8 * 1024 * 1024;
/// Program page size, bytes.
pub const PAGE_SIZE: usize = 256;
/// Erase sector size, bytes.
pub const SECTOR_SIZE: usize = 4 * 1024;

/// Datasheet timing (typical), nanoseconds.
pub mod timing {
    /// Page program time.
    pub const PAGE_PROGRAM_NS: u64 = 800_000; // 0.8 ms
    /// 4 KB sector erase time.
    pub const SECTOR_ERASE_NS: u64 = 40_000_000; // 40 ms
    /// Quad-SPI read clock (FPGA configuration), Hz.
    pub const QSPI_READ_CLOCK_HZ: f64 = 62e6;
}

/// Power states, mW (datasheet: ultra-low-power part).
pub mod power {
    /// Deep power-down.
    pub const DEEP_PD_MW: f64 = 0.2e-3 * 1.8; // 0.2 µA @1.8 V
    /// Standby.
    pub const STANDBY_MW: f64 = 1.0e-3 * 1.8;
    /// Active program/erase.
    pub const PROGRAM_MW: f64 = 10.0;
    /// Active read.
    pub const READ_MW: f64 = 6.0;
}

/// Flash error conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// Address or length out of range.
    OutOfRange {
        /// Requested address.
        addr: usize,
        /// Requested length.
        len: usize,
    },
    /// Program attempted to set a bit 0→1 (needs erase first).
    NotErased {
        /// Offending byte address.
        addr: usize,
    },
    /// Erase address not sector-aligned.
    Misaligned {
        /// Offending address.
        addr: usize,
    },
}

impl std::fmt::Display for FlashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlashError::OutOfRange { addr, len } => {
                write!(f, "flash access out of range: {len} bytes at {addr:#x}")
            }
            FlashError::NotErased { addr } => {
                write!(
                    f,
                    "program to non-erased byte at {addr:#x} (bits can only clear)"
                )
            }
            FlashError::Misaligned { addr } => {
                write!(f, "erase address {addr:#x} not sector-aligned")
            }
        }
    }
}

impl std::error::Error for FlashError {}

/// The flash device.
#[derive(Clone)]
pub struct Flash {
    mem: Vec<u8>,
    /// Cumulative busy time from program/erase operations, ns.
    pub busy_ns: u64,
    /// Total bytes programmed (wear proxy).
    pub bytes_programmed: u64,
    /// Total sector erases (wear proxy).
    pub sector_erases: u64,
}

impl std::fmt::Debug for Flash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flash")
            .field("capacity", &CAPACITY)
            .field("busy_ns", &self.busy_ns)
            .field("bytes_programmed", &self.bytes_programmed)
            .field("sector_erases", &self.sector_erases)
            .finish()
    }
}

impl Flash {
    /// A factory-fresh device (all 0xFF).
    pub fn new() -> Self {
        Flash {
            mem: vec![0xFF; CAPACITY],
            busy_ns: 0,
            bytes_programmed: 0,
            sector_erases: 0,
        }
    }

    /// Read `len` bytes at `addr`.
    ///
    /// # Errors
    /// Fails if the range exceeds the device.
    pub fn read(&self, addr: usize, len: usize) -> Result<&[u8], FlashError> {
        if addr.checked_add(len).is_none_or(|end| end > CAPACITY) {
            return Err(FlashError::OutOfRange { addr, len });
        }
        Ok(&self.mem[addr..addr + len])
    }

    /// Program bytes at `addr` with NOR semantics (only 1→0 transitions).
    /// Splits across pages internally and charges page-program time.
    ///
    /// # Errors
    /// Fails on range overflow or an attempt to set a cleared bit.
    pub fn program(&mut self, addr: usize, data: &[u8]) -> Result<(), FlashError> {
        if addr
            .checked_add(data.len())
            .is_none_or(|end| end > CAPACITY)
        {
            return Err(FlashError::OutOfRange {
                addr,
                len: data.len(),
            });
        }
        // verify NOR constraint first (atomic failure)
        for (i, &b) in data.iter().enumerate() {
            let cur = self.mem[addr + i];
            if b & !cur != 0 {
                return Err(FlashError::NotErased { addr: addr + i });
            }
        }
        for (i, &b) in data.iter().enumerate() {
            self.mem[addr + i] &= b;
        }
        let first_page = addr / PAGE_SIZE;
        let last_page = (addr + data.len() - 1) / PAGE_SIZE;
        let pages = (last_page - first_page + 1) as u64;
        self.busy_ns += pages * timing::PAGE_PROGRAM_NS;
        self.bytes_programmed += data.len() as u64;
        Ok(())
    }

    /// Erase the 4 KB sector containing... no: erase the sector *at*
    /// `addr`, which must be sector-aligned.
    ///
    /// # Errors
    /// Fails on misalignment or out-of-range.
    pub fn erase_sector(&mut self, addr: usize) -> Result<(), FlashError> {
        if !addr.is_multiple_of(SECTOR_SIZE) {
            return Err(FlashError::Misaligned { addr });
        }
        if addr + SECTOR_SIZE > CAPACITY {
            return Err(FlashError::OutOfRange {
                addr,
                len: SECTOR_SIZE,
            });
        }
        self.mem[addr..addr + SECTOR_SIZE].fill(0xFF);
        self.busy_ns += timing::SECTOR_ERASE_NS;
        self.sector_erases += 1;
        Ok(())
    }

    /// Erase every sector overlapping `[addr, addr+len)` (rounded out to
    /// sector boundaries), then program `data` — the store-an-image
    /// helper the OTA path uses.
    ///
    /// # Errors
    /// Propagates range errors.
    pub fn erase_and_program(&mut self, addr: usize, data: &[u8]) -> Result<(), FlashError> {
        let start = addr / SECTOR_SIZE * SECTOR_SIZE;
        let end = addr + data.len();
        let mut s = start;
        while s < end {
            self.erase_sector(s)?;
            s += SECTOR_SIZE;
        }
        self.program(addr, data)
    }

    /// Time to clock `len` bytes out over quad SPI at the FPGA-boot
    /// clock, nanoseconds.
    pub fn qspi_read_time_ns(len: usize) -> u64 {
        ((len * 8) as f64 / (4.0 * timing::QSPI_READ_CLOCK_HZ) * 1e9) as u64
    }
}

impl Default for Flash {
    fn default() -> Self {
        Self::new()
    }
}

/// Fixed image-slot directory: where firmware images live in flash.
///
/// Slot 0..3 hold FPGA bitstreams (579 KB each, sector-rounded); slots
/// 4..7 hold MCU programs (≤256 KB). The directory leaves the first
/// sector for metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageSlot {
    /// FPGA bitstream slot (0..=3).
    Fpga(u8),
    /// MCU program slot (0..=3).
    Mcu(u8),
}

impl ImageSlot {
    /// Size reserved for the slot, bytes (sector-rounded).
    pub fn capacity(self) -> usize {
        match self {
            ImageSlot::Fpga(_) => 592 * 1024, // 579 KB rounded to sectors
            ImageSlot::Mcu(_) => 256 * 1024,
        }
    }

    /// Base address of the slot.
    ///
    /// # Panics
    /// Panics if the slot index exceeds 3.
    pub fn base_addr(self) -> usize {
        match self {
            ImageSlot::Fpga(i) => {
                assert!(i < 4, "FPGA slot index out of range");
                SECTOR_SIZE + i as usize * ImageSlot::Fpga(0).capacity()
            }
            ImageSlot::Mcu(i) => {
                assert!(i < 4, "MCU slot index out of range");
                SECTOR_SIZE
                    + 4 * ImageSlot::Fpga(0).capacity()
                    + i as usize * ImageSlot::Mcu(0).capacity()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_device_is_all_ones() {
        let f = Flash::new();
        assert!(f.read(0, 64).unwrap().iter().all(|&b| b == 0xFF));
        assert_eq!(f.read(CAPACITY - 1, 1).unwrap()[0], 0xFF);
    }

    #[test]
    fn program_and_read_back() {
        let mut f = Flash::new();
        f.program(0x1000, b"tinysdr firmware").unwrap();
        assert_eq!(f.read(0x1000, 16).unwrap(), b"tinysdr firmware");
    }

    #[test]
    fn nor_semantics_enforced() {
        let mut f = Flash::new();
        f.program(0, &[0x0F]).unwrap();
        // clearing more bits is fine
        f.program(0, &[0x0E]).unwrap();
        // setting a bit back requires erase
        let err = f.program(0, &[0x1F]).unwrap_err();
        assert!(matches!(err, FlashError::NotErased { addr: 0 }));
        f.erase_sector(0).unwrap();
        f.program(0, &[0x1F]).unwrap();
    }

    #[test]
    fn failed_program_changes_nothing() {
        let mut f = Flash::new();
        f.program(0, &[0x00, 0x00]).unwrap();
        // second byte violates NOR → neither byte may change
        let before = f.read(0, 2).unwrap().to_vec();
        assert!(f.program(0, &[0x00, 0x01]).is_err());
        assert_eq!(f.read(0, 2).unwrap(), &before[..]);
    }

    #[test]
    fn erase_alignment_checked() {
        let mut f = Flash::new();
        assert!(matches!(
            f.erase_sector(100),
            Err(FlashError::Misaligned { .. })
        ));
        f.erase_sector(4096).unwrap();
    }

    #[test]
    fn out_of_range_rejected() {
        let mut f = Flash::new();
        assert!(f.read(CAPACITY, 1).is_err());
        assert!(f.program(CAPACITY - 1, &[0, 0]).is_err());
        assert!(f.erase_sector(CAPACITY).is_err());
    }

    #[test]
    fn erase_and_program_spans_sectors() {
        let mut f = Flash::new();
        let img = vec![0xA5u8; 3 * SECTOR_SIZE + 100];
        f.program(SECTOR_SIZE, &[0x00]).unwrap(); // dirty a byte in the way
        f.erase_and_program(SECTOR_SIZE, &img).unwrap();
        assert_eq!(f.read(SECTOR_SIZE, img.len()).unwrap(), &img[..]);
        assert_eq!(f.sector_erases, 4);
    }

    #[test]
    fn timing_accumulates() {
        let mut f = Flash::new();
        f.program(0, &vec![0u8; PAGE_SIZE * 3]).unwrap();
        assert_eq!(f.busy_ns, 3 * timing::PAGE_PROGRAM_NS);
        f.erase_sector(0).unwrap();
        assert_eq!(
            f.busy_ns,
            3 * timing::PAGE_PROGRAM_NS + timing::SECTOR_ERASE_NS
        );
    }

    #[test]
    fn qspi_boot_read_is_fast() {
        // 579 KB over 62 MHz quad SPI ≈ 19 ms — under the 22 ms budget
        // (the rest is configuration overhead; see tinysdr-fpga::config)
        let t_ms = Flash::qspi_read_time_ns(579 * 1024) as f64 / 1e6;
        assert!((t_ms - 19.1).abs() < 0.5, "qspi read {t_ms} ms");
    }

    #[test]
    fn image_slots_do_not_overlap_and_fit() {
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        for i in 0..4u8 {
            let s = ImageSlot::Fpga(i);
            ranges.push((s.base_addr(), s.base_addr() + s.capacity()));
            let m = ImageSlot::Mcu(i);
            ranges.push((m.base_addr(), m.base_addr() + m.capacity()));
        }
        for r in &ranges {
            assert!(r.1 <= CAPACITY, "slot {r:?} exceeds device");
        }
        ranges.sort();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "slots overlap: {w:?}");
        }
        // a bitstream actually fits its slot
        assert!(579 * 1024 <= ImageSlot::Fpga(0).capacity());
    }
}
