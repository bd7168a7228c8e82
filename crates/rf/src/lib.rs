//! # tinysdr-rf
//!
//! RF substrate for the `tinysdr` workspace: everything between the
//! FPGA's sample interface and the antenna, simulated.
//!
//! The TinySDR board's RF chain (paper §3.1–3.2) is:
//!
//! ```text
//!  FPGA ⇄ LVDS I/Q serdes ⇄ AT86RF215 I/Q radio ⇄ balun ⇄ front-end
//!        (Fig. 4 word format)                         (PA/LNA/bypass)
//!                                                        ⇄ RF switch ⇄ antenna
//!  MCU  ⇄ SPI            ⇄ SX1276 backbone radio  ⇄ (shared 900 MHz path)
//! ```
//!
//! Modules:
//!
//! * [`units`] — dBm/dB/milliwatt conversions and the thermal noise floor.
//! * [`channel`] — RSSI scaling and measurement, carrier frequency
//!   offset, integer timing offset, and the two-transmitter sum.
//! * [`impairments`] — composable impairment chain (CFO, fractional
//!   timing offset, clock drift, I/Q imbalance, phase noise, block
//!   Rayleigh fading, ADC quantization) ending in calibrated AWGN —
//!   the channel model behind the PHY conformance waterfalls.
//! * [`phy`] — the [`phy::PhyModem`] trait and [`phy::PhyRegistry`]:
//!   the protocol-programmability seam. Workload crates (`lora`, `ble`,
//!   `zigbee`) implement it; the conformance waterfalls, the campus
//!   testbed and the device consume `&dyn PhyModem`.
//! * [`superpose`] — the [`superpose::LinearReceiver`] seam: a sweep
//!   over a chain without ADC stage decides every RSSI point of a pass
//!   from one projection of the signal and one of the noise, with a
//!   certified margin and the exact path as fallback.
//! * [`pathloss`] — free-space and log-distance (shadowed) propagation for
//!   the campus testbed of Fig. 7.
//! * [`lvds`] — bit-exact implementation of the 32-bit I/Q word of Fig. 4
//!   and its DDR serialization at 64 MHz (128 Mbit/s, 4 Mword/s).
//! * [`at86rf215`] — behavioural model of the I/Q radio chip: band plan,
//!   state machine with measured transition times (Table 4), 13-bit
//!   converters, TX/RX power draw (calibrated to Fig. 9), AGC.
//! * [`frontend`] — SE2435L (900 MHz) and SKY66112 (2.4 GHz) front-end
//!   modules with PA/LNA/bypass paths and sleep currents.
//! * [`sx1276`] — the Semtech backbone radio model: datasheet sensitivity
//!   per (SF, BW), TX/RX power, and a reference receiver used as the
//!   comparator in Fig. 10.
//! * [`switch`] — ADG904 SP4T RF switch and the two baluns, as loss/
//!   routing elements.
//! * [`catalog`] — Table 2 (off-the-shelf I/Q radio modules), as data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod at86rf215;
pub mod catalog;
pub mod channel;
pub mod frontend;
pub mod impairments;
pub mod lvds;
pub mod pathloss;
pub mod phy;
pub mod superpose;
pub mod switch;
pub mod sx1276;
pub mod units;
