//! # tinysdr-dsp
//!
//! Digital signal processing substrate for the `tinysdr` workspace — the
//! Rust reproduction of *TinySDR: Low-Power SDR Platform for Over-the-Air
//! Programmable IoT Testbeds* (NSDI 2020).
//!
//! Everything the TinySDR FPGA does to samples is built out of the blocks
//! in this crate:
//!
//! * [`Complex`] — a minimal complex number type for `f64` baseband samples
//!   (the approved offline crate set has no `num-complex`, so we carry our
//!   own; it is small and fully tested).
//! * [`fft`] — an iterative radix-2 FFT with a reusable [`fft::FftPlan`],
//!   standing in for the Lattice FFT IP core the paper instantiates per
//!   spreading factor (§4.1).
//! * [`fir`] — FIR filtering and windowed-sinc design; the paper's LoRa
//!   demodulator uses a 14-tap low-pass FIR in front of the dechirper.
//! * [`gaussian`] — the Gaussian pulse-shaping filter used by BLE GFSK.
//! * [`correlate`] — the lock-step template bank behind the BLE GFSK and
//!   802.15.4 O-QPSK matched-template receivers.
//! * [`nco`] / [`chirp`] — numerically-controlled oscillator and LoRa chirp
//!   generation using the *squared phase accumulator + sin/cos lookup
//!   table* structure the paper implements in Verilog (their reference
//!   \[67\], LoRa Backscatter). The quantized accumulator is what makes the
//!   "discrete frequency steps introduce some non-orthogonality" effect of
//!   the paper's Fig. 15a appear in simulation.
//! * [`fixed`] — fixed-point quantization (the AT86RF215 data path is
//!   13-bit I/Q).
//! * [`delay`] — windowed-sinc fractional-delay interpolation and
//!   sample-clock drift, the timing impairments of the conformance
//!   harness.
//! * [`spectrum`] — Welch periodogram used to regenerate Fig. 8.
//! * [`stats`] — error-rate counters and empirical CDFs used throughout
//!   the evaluation harness, plus the [`stats::Distribution`] trait the
//!   campaign engine aggregates through.
//! * [`sketch`] — a deterministic, mergeable log-bucket quantile sketch
//!   ([`sketch::QuantileSketch`]) for bounded-memory million-node
//!   campaign aggregation.
//! * [`window`] — the usual spectral windows.
//! * [`cancel`] — the cooperative [`cancel::CancelToken`] every
//!   long-running engine (campaign scheduler, conformance sweep, the
//!   testbed daemon's jobs) observes at its checkpoint boundaries.
//! * [`executor`] — the one deterministic parallel executor every
//!   sharded engine runs on: an atomic work cursor, per-worker scratch
//!   and a fold that sees results strictly in index order.
//! * [`event`] — the deterministic integer-nanosecond
//!   [`event::EventQueue`] driving the `tinysdr-link` multi-node
//!   network simulation (time-ordered, insertion-order tie-break).
//!
//! The crate is deliberately synchronous and allocation-conscious:
//! hot loops operate on caller-provided slices and the FFT plan reuses its
//! twiddle tables, in the spirit of the event-driven, no-surprises design
//! the networking guides (smoltcp) advocate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod chirp;
pub mod complex;
pub mod correlate;
pub mod delay;
pub mod event;
pub mod executor;
pub mod fft;
pub mod fir;
pub mod fixed;
pub mod gaussian;
pub mod math;
pub mod nco;
pub mod sketch;
pub mod spectrum;
pub mod stats;
pub mod window;

pub use complex::Complex;

/// Convenience alias: complex `f64` baseband sample.
pub type Cf64 = Complex;
