//! # tinysdr-ble
//!
//! BLE beacon stack — the paper's second case study (§4.2): "To
//! demonstrate tinySDR's 2.4 GHz capabilities we implement Bluetooth
//! beacons […] non-connectable BLE advertisements (ADV_NONCONN_IND)".
//!
//! * [`packet`] — ADV_NONCONN_IND construction bit-for-bit: preamble
//!   `0xAA`, access address `0x8E89BED6`, PDU, CRC-24 LFSR (polynomial
//!   `x²⁴+x¹⁰+x⁹+x⁶+x⁴+x³+x+1`, init `0x555555`) and the 7-bit channel
//!   whitening LFSR (`x⁷+x⁴+1`) — all exactly as §4.2 describes them.
//! * [`gfsk`] — the GFSK modulator ("upsample and apply a Gaussian
//!   filter to the bitstream […] integrate to get the phase") and the
//!   matched 3-bit-template receiver used to measure the Fig. 12 BER
//!   curve (its FM discriminator serves only the access-address search).
//! * [`channels`] — the three advertising channels and their
//!   frequencies.
//! * [`advertiser`] — the beacon scheduler hopping 37→38→39 with the
//!   220 µs switching delay of Fig. 13.
//! * [`beacon`] — iBeacon / Eddystone payload builders for the
//!   examples.
//! * [`fpga_map`] — the 3%-of-LUTs baseband generator of §5.2.
//! * [`modem`] — the [`tinysdr_rf::phy::PhyModem`] implementor
//!   ([`modem::BleBerPhy`]) that plugs GFSK into the workspace-wide PHY
//!   registry and sweep engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advertiser;
pub mod beacon;
pub mod channels;
pub mod fpga_map;
pub mod gfsk;
pub mod modem;
pub mod packet;
