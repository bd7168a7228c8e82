//! Gaussian pulse shaping for GFSK (BLE).
//!
//! BLE's GFSK is "binary frequency shift keying (BFSK) with the addition
//! of a Gaussian filter to the square wave pulses to reduce the spectral
//! width" (paper §4.2). The Bluetooth core spec fixes the bandwidth-time
//! product at `BT = 0.5` and the modulation index between 0.45 and 0.55.

/// Gaussian pulse-shaping filter for a rectangular NRZ input.
#[derive(Debug, Clone)]
pub struct GaussianFilter {
    taps: Vec<f64>,
}

impl GaussianFilter {
    /// Design a Gaussian filter.
    ///
    /// * `bt` — bandwidth-time product (0.5 for BLE).
    /// * `sps` — samples per symbol.
    /// * `span` — filter span in symbols (3 is plenty for BT=0.5).
    ///
    /// The taps are the Gaussian impulse response convolved with a
    /// one-symbol rectangular pulse, normalized so a long run of identical
    /// bits reaches full amplitude (unit DC gain).
    ///
    /// # Panics
    /// Panics on non-positive `bt` or zero `sps`/`span`.
    pub fn new(bt: f64, sps: usize, span: usize) -> Self {
        assert!(bt > 0.0, "BT must be positive");
        assert!(sps > 0 && span > 0, "sps and span must be nonzero");
        // Gaussian std dev in samples: sigma = sqrt(ln2)/(2*pi*BT) symbols
        let sigma = (2.0f64.ln()).sqrt() / (std::f64::consts::TAU * bt) * sps as f64;
        let half = (span * sps) / 2;
        let n = 2 * half + 1;
        // Gaussian kernel
        let g: Vec<f64> = (0..n)
            .map(|i| {
                let x = i as f64 - half as f64;
                (-0.5 * (x / sigma).powi(2)).exp()
            })
            .collect();
        // convolve with one-symbol rectangle
        let mut taps = vec![0.0; n + sps - 1];
        for (i, &gv) in g.iter().enumerate() {
            for j in 0..sps {
                taps[i + j] += gv;
            }
        }
        let sum: f64 = taps.iter().sum::<f64>() / sps as f64;
        for t in &mut taps {
            *t /= sum;
        }
        GaussianFilter { taps }
    }

    /// The BLE-standard filter: BT = 0.5.
    pub fn ble(sps: usize) -> Self {
        Self::new(0.5, sps, 3)
    }

    /// Filter taps.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Shape a ±1 NRZ bit sequence into a smoothed frequency trajectory
    /// at `sps` samples per bit, into `out` (cleared and zero-filled
    /// first). The output length is `bits.len() * sps + taps.len() - 1`
    /// — full convolution, so the caller should trim `delay()` samples of
    /// lead-in. Zero allocation once `out` has capacity — the batched
    /// GFSK modulator reuses one trajectory buffer across a whole batch
    /// of frames.
    pub fn shape_into(&self, bits: &[i8], sps: usize, out: &mut Vec<f64>) {
        // upsample by zero-order hold to keep pulse energy, then convolve
        // with the Gaussian kernel alone (taps already include the rect).
        let n_in = bits.len() * sps;
        let out_len = n_in + self.taps.len() - 1;
        out.clear();
        out.resize(out_len, 0.0);
        // impulse-train convolution with combined rect⊗gauss taps:
        for (bi, &b) in bits.iter().enumerate() {
            let start = bi * sps;
            let amp = b as f64;
            for (k, &t) in self.taps.iter().enumerate() {
                out[start + k] += amp * t / sps as f64;
            }
        }
        // compensate: taps include the rectangle (width sps), so a bit
        // contributes sps impulses worth of energy; the /sps above plus
        // the rect inside taps yields unity plateau for runs.
        for o in out.iter_mut() {
            *o *= sps as f64;
        }
    }

    /// Samples of lead-in before the first bit's pulse center-ish region.
    pub fn delay(&self) -> usize {
        self.taps.len() / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`GaussianFilter::shape_into`] into a fresh buffer.
    fn shape(f: &GaussianFilter, bits: &[i8], sps: usize) -> Vec<f64> {
        let mut out = Vec::new();
        f.shape_into(bits, sps, &mut out);
        out
    }

    #[test]
    fn reused_dirty_buffer_matches_a_fresh_one_bitwise() {
        // one output buffer, pre-filled with junk and reused across
        // longer and shorter trajectories: every call equals a fresh one
        let f = GaussianFilter::ble(4);
        let mut out = vec![f64::NAN; 500];
        for n in [40usize, 3, 160, 1] {
            let bits: Vec<i8> = (0..n).map(|i| if i % 3 == 0 { 1 } else { -1 }).collect();
            f.shape_into(&bits, 4, &mut out);
            assert_eq!(out, shape(&f, &bits, 4), "{n} bits");
        }
    }

    #[test]
    fn unit_plateau_for_bit_runs() {
        let sps = 8;
        let f = GaussianFilter::ble(sps);
        let bits = vec![1i8; 16];
        let y = shape(&f, &bits, sps);
        // middle of the run must sit at +1.0
        let mid = 8 * sps + f.delay();
        assert!((y[mid] - 1.0).abs() < 1e-6, "plateau {}", y[mid]);
    }

    #[test]
    fn transitions_are_smooth() {
        let sps = 8;
        let f = GaussianFilter::ble(sps);
        let bits = [1i8, 1, 1, -1, -1, -1];
        let y = shape(&f, &bits, sps);
        // max per-sample step must be much smaller than the 2.0 bit swing
        let max_step = y
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0, f64::max);
        assert!(max_step < 0.4, "step {max_step}");
    }

    #[test]
    fn symmetric_taps() {
        let f = GaussianFilter::new(0.5, 4, 3);
        let t = f.taps();
        for i in 0..t.len() / 2 {
            assert!((t[i] - t[t.len() - 1 - i]).abs() < 1e-9);
        }
    }

    #[test]
    fn higher_bt_is_sharper() {
        // higher BT → less smoothing → faster transitions
        let sps = 8;
        let tight = GaussianFilter::new(1.0, sps, 3);
        let loose = GaussianFilter::new(0.3, sps, 3);
        let bits = [-1i8, 1];
        let step = |f: &GaussianFilter| {
            let y = shape(f, &bits, sps);
            y.windows(2)
                .map(|w| (w[1] - w[0]).abs())
                .fold(0.0, f64::max)
        };
        assert!(step(&tight) > step(&loose));
    }

    #[test]
    fn alternating_bits_reduced_amplitude() {
        // ISI from Gaussian shaping: 101010 never reaches full deviation
        let sps = 8;
        let f = GaussianFilter::ble(sps);
        let bits: Vec<i8> = (0..20).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        let y = shape(&f, &bits, sps);
        let peak = y[f.delay() + 5 * sps..f.delay() + 15 * sps]
            .iter()
            .fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(peak < 0.95, "alternating peak {peak} should show ISI");
        assert!(peak > 0.5);
    }
}
