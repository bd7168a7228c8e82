//! Fixed-point quantization of the radio data path.
//!
//! The AT86RF215 "samples baseband signals at 4 MHz with a 13 bit
//! resolution for both I and Q" (paper §3.2.1). Quantizing at the
//! ADC/DAC boundary makes quantization noise and clipping part of the
//! simulation rather than an afterthought.

use crate::complex::Complex;

/// A signed fixed-point quantizer with saturating behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    bits: u32,
}

impl Quantizer {
    /// 13-bit quantizer used by the AT86RF215 data path.
    pub const AT86RF215: Quantizer = Quantizer { bits: 13 };

    /// Create an `bits`-bit signed quantizer (`2 ..= 24`).
    ///
    /// # Panics
    /// Panics if `bits` is out of range.
    pub fn new(bits: u32) -> Self {
        assert!(
            (2..=24).contains(&bits),
            "quantizer bits out of range: {bits}"
        );
        Quantizer { bits }
    }

    /// Word width in bits.
    #[inline]
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// Largest positive code.
    #[inline]
    pub fn max_code(self) -> i32 {
        (1 << (self.bits - 1)) - 1
    }

    /// Quantize a real value in `[-1, 1]` to an integer code, saturating
    /// outside full scale; NaN maps to code 0.
    ///
    /// Rounds half away from zero, as `f64::round` does, from a
    /// truncating cast and a test of the fraction it drops: the baseline
    /// x86-64 target has no rounding instruction, so `round` would be a
    /// library call per rail.
    #[inline]
    pub fn quantize(self, x: f64) -> i32 {
        let fs = self.max_code() as f64;
        // clamping before rounding moves no code: a value past a rail
        // rounds to that rail's code or past it
        let y = (x * fs).clamp(-(fs + 1.0), fs);
        let t = y as i32;
        // exact: a float minus its integer part loses no bits
        let frac = y - f64::from(t);
        t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)
    }

    /// Map an integer code back to a real value in `[-1, 1]`.
    #[inline]
    pub fn dequantize(self, code: i32) -> f64 {
        code as f64 / self.max_code() as f64
    }

    /// Quantize-and-dequantize a real value (what the signal "looks like"
    /// after passing through the converter).
    #[inline]
    pub fn round_trip(self, x: f64) -> f64 {
        self.dequantize(self.quantize(x))
    }

    /// Quantize a complex sample (both rails).
    #[inline]
    pub fn quantize_iq(self, z: Complex) -> (i32, i32) {
        (self.quantize(z.re), self.quantize(z.im))
    }

    /// Round-trip a complex sample through the converter.
    #[inline]
    pub fn round_trip_iq(self, z: Complex) -> Complex {
        Complex::new(self.round_trip(z.re), self.round_trip(z.im))
    }

    /// Round-trip an entire buffer in place, returning the count of
    /// saturated (clipped) rails — the AGC watches this.
    pub fn round_trip_buf(self, buf: &mut [Complex]) -> usize {
        let mut clipped = 0;
        for z in buf.iter_mut() {
            if z.re.abs() > 1.0 {
                clipped += 1;
            }
            if z.im.abs() > 1.0 {
                clipped += 1;
            }
            *z = self.round_trip_iq(*z);
        }
        clipped
    }

    /// Theoretical quantization SNR for a full-scale sine, `6.02·bits +
    /// 1.76` dB.
    pub fn ideal_snr_db(self) -> f64 {
        6.02 * self.bits as f64 + 1.76
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::mean_power;
    use crate::nco::ideal_tone;

    #[test]
    fn codes_and_ranges() {
        let q = Quantizer::new(13);
        assert_eq!(q.max_code(), 4095);
        assert_eq!(q.quantize(1.0), 4095);
        assert_eq!(q.quantize(-1.0), -4095);
        assert_eq!(q.quantize(0.0), 0);
        // saturation
        assert_eq!(q.quantize(2.0), 4095);
        assert_eq!(q.quantize(-2.0), -4096);
    }

    /// The codes the quantizer gave when it rounded with `f64::round`.
    fn round_codes(q: Quantizer, x: f64) -> i32 {
        let fs = q.max_code() as f64;
        (x * fs).round().clamp(-(fs + 1.0), fs) as i32
    }

    #[test]
    fn codes_are_those_of_round_half_away_from_zero() {
        let mut ties = 0;
        for bits in 2..=24 {
            let q = Quantizer::new(bits);
            let fs = q.max_code() as f64;
            let mut xs = vec![
                0.0,
                -0.0,
                f64::MIN_POSITIVE / 4.0,
                -f64::MIN_POSITIVE / 4.0,
                f64::from_bits(1),
                -f64::from_bits(1),
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1e300,
                -1e300,
                1.0,
                -1.0,
            ];
            // the rails and one step past them, at and beside a half code
            for edge in [fs, fs + 1.0] {
                for d in [-0.5, 0.0, 0.5] {
                    xs.extend([(edge + d) / fs, -(edge + d) / fs]);
                }
            }
            // every half code `k ± 0.5` near zero and near full scale,
            // with the values one and two ulps either side
            let near = (-40..=40).chain((fs as i64 - 40).max(41)..=fs as i64 + 1);
            for k in near {
                for half in [-0.5, 0.5] {
                    let x = (k as f64 + half) / fs;
                    let (up, down) = (x.next_up(), x.next_down());
                    xs.extend([x, up, down, up.next_up(), down.next_down()]);
                    xs.extend([-x, -up, -down]);
                }
            }
            // random rails across and beyond full scale
            let mut s = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(bits);
            for _ in 0..2000 {
                s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let u = (s >> 11) as f64 / (1u64 << 53) as f64;
                xs.push(2.5 * (2.0 * u - 1.0));
            }
            for x in xs {
                let y = x * fs;
                if y.fract().abs() == 0.5 {
                    ties += 1;
                }
                assert_eq!(q.quantize(x), round_codes(q, x), "{bits} bits, x = {x:e}");
            }
        }
        // the half-code cases really hit exact ties
        assert!(ties > 1000, "{ties} exact ties");
    }

    #[test]
    fn round_trip_error_bounded_by_half_lsb() {
        let q = Quantizer::AT86RF215;
        let lsb = 1.0 / q.max_code() as f64;
        for i in -100..=100 {
            let x = i as f64 / 100.0;
            assert!((q.round_trip(x) - x).abs() <= lsb / 2.0 + 1e-12);
        }
    }

    #[test]
    fn measured_snr_close_to_ideal() {
        let q = Quantizer::AT86RF215;
        // full-scale tone through the converter
        let x = ideal_tone(12_345.0, 1.0e6, 1 << 14);
        let y: Vec<_> = x.iter().map(|&z| q.round_trip_iq(z)).collect();
        let err: Vec<_> = x.iter().zip(&y).map(|(&a, &b)| a - b).collect();
        let snr_db = 10.0 * (mean_power(&x) / mean_power(&err)).log10();
        // ideal is 80.0 dB; LUT-free tone should be close
        assert!(snr_db > q.ideal_snr_db() - 3.0, "SNR {snr_db:.1} dB");
    }

    #[test]
    fn clip_counting() {
        let q = Quantizer::new(8);
        let mut buf = vec![
            Complex::new(0.5, 0.5),
            Complex::new(1.5, 0.0),
            Complex::new(-2.0, 3.0),
        ];
        let clipped = q.round_trip_buf(&mut buf);
        assert_eq!(clipped, 3); // one rail in sample 1, two in sample 2
        assert!(buf[1].re <= 1.0);
    }

    #[test]
    fn ideal_snr_formula() {
        assert!((Quantizer::new(13).ideal_snr_db() - 80.02).abs() < 0.01);
        assert!((Quantizer::new(12).ideal_snr_db() - 74.0).abs() < 0.1);
    }

    #[test]
    #[should_panic]
    fn rejects_1_bit() {
        Quantizer::new(1);
    }
}
