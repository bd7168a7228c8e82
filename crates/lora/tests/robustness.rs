//! Robustness tests: impairments the bench figures don't sweep —
//! carrier frequency offset, receive-gain variation, and the full
//! radio-in-the-loop path through the AT86RF215 model and LVDS serdes.

use tinysdr_dsp::chirp::ChirpConfig;
use tinysdr_lora::demodulator::Demodulator;
use tinysdr_lora::modulator::Modulator;
use tinysdr_lora::packet::FrameParams;
use tinysdr_lora::phy::CodeParams;
use tinysdr_rf::channel::apply_delay;
use tinysdr_rf::impairments::ImpairmentChain;

fn modem() -> (Modulator, Demodulator, ChirpConfig) {
    let chirp = ChirpConfig::new(8, 125e3, 1);
    let fp = FrameParams::new(CodeParams::new(8, 4));
    (
        Modulator::new(chirp, fp),
        Demodulator::new(chirp, fp),
        chirp,
    )
}

/// Small carrier offsets (a fraction of one FFT bin) must not break
/// decoding. One bin at SF8/BW125 is 488 Hz; crystal error of ±10 ppm at
/// 915 MHz is ±9.2 kHz — real receivers correct that first, so we test
/// the residual-CFO regime (post-correction) of ±0.3 bin.
#[test]
fn tolerates_residual_cfo() {
    let (m, d, chirp) = modem();
    let bin_hz = chirp.bw / chirp.n_chips() as f64;
    for frac in [-0.3, -0.15, 0.15, 0.3] {
        let sig = ImpairmentChain::new(4.5).with_cfo_hz(frac * bin_hz).apply(
            &m.modulate(b"cfo test"),
            -115.0,
            chirp.fs(),
            3,
        );
        let f = d
            .demodulate(&sig)
            .unwrap_or_else(|| panic!("CFO {frac} bins"));
        assert_eq!(f.payload, b"cfo test", "CFO {frac} bins");
        assert!(f.crc_ok);
    }
}

/// Whole-bin CFO shifts every symbol identically; the frame alignment
/// absorbs it as a timing offset and decoding still succeeds.
#[test]
fn tolerates_integer_bin_cfo() {
    let (m, d, chirp) = modem();
    let bin_hz = chirp.bw / chirp.n_chips() as f64;
    for bins in [-2.0f64, 1.0, 3.0] {
        let sig = ImpairmentChain::new(4.5).with_cfo_hz(bins * bin_hz).apply(
            &m.modulate(b"int cfo"),
            -110.0,
            chirp.fs(),
            5,
        );
        if let Some(f) = d.demodulate(&sig) {
            // integer-bin offsets alias timing: either decoded clean or
            // rejected — never a silent wrong payload
            if f.crc_ok && f.header_ok {
                assert_eq!(f.payload, b"int cfo", "CFO {bins} bins decoded wrong");
            }
        }
    }
}

/// The full radio path: modulate → 13-bit DAC → LVDS serialize →
/// deserialize → AGC → 13-bit ADC → demodulate.
#[test]
fn radio_in_the_loop() {
    use tinysdr_rf::at86rf215::{At86Rf215, RadioState};
    use tinysdr_rf::lvds::{Deserializer, Serializer};

    let (m, d, chirp) = modem();
    let baseband = m.modulate(b"radio loop");

    // TX through the radio model
    let mut tx = At86Rf215::new();
    tx.transition(RadioState::Tx);
    tx.set_tx_power(0.0).unwrap();
    let rf = tx.transmit(&baseband).unwrap();

    // a weak link
    let sig = ImpairmentChain::new(4.5).apply(&rf, -112.0, chirp.fs(), 9);

    // RX through AGC + ADC
    let mut rx = At86Rf215::new();
    rx.transition(RadioState::Rx);
    rx.agc(&sig, 0.25);
    let (digitized, clipped) = rx.receive(&sig).unwrap();
    assert_eq!(clipped, 0, "AGC must avoid clipping");

    // across the LVDS interface into the FPGA
    let bits = Serializer::new().serialize(&digitized);
    let mut des = Deserializer::new();
    des.push_bits(&bits);
    let fpga_samples = des.finish();
    assert!(fpga_samples.len() >= digitized.len() - 1);

    let f = d
        .demodulate(&fpga_samples)
        .expect("decodes through the full chain");
    assert_eq!(f.payload, b"radio loop");
    assert!(f.crc_ok);
}

/// Two frames back to back in one capture: the demodulator finds the
/// first; re-running on the remainder finds the second.
#[test]
fn back_to_back_frames() {
    let (m, d, chirp) = modem();
    let mut capture = m.modulate(b"frame one");
    capture.extend(apply_delay(&m.modulate(b"frame two!"), 500));
    let capture = ImpairmentChain::new(4.5).apply(&capture, -110.0, chirp.fs(), 11);

    let f1 = d.demodulate(&capture).expect("first frame");
    assert_eq!(f1.payload, b"frame one");
    let rest = &capture[f1.payload_start + f1.symbols.len() * 256..];
    let f2 = d.demodulate(rest).expect("second frame");
    assert_eq!(f2.payload, b"frame two!");
}

/// Payload sizes from empty to large survive the whole modem.
#[test]
fn payload_size_sweep() {
    let (m, d, chirp) = modem();
    for len in [0usize, 1, 13, 64, 255] {
        let payload: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
        let sig =
            ImpairmentChain::new(4.5).apply(&m.modulate(&payload), -105.0, chirp.fs(), len as u64);
        let f = d.demodulate(&sig).unwrap_or_else(|| panic!("len {len}"));
        assert_eq!(f.payload, payload, "len {len}");
    }
}
