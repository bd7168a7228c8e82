//! Power and ratio units: dBm, dB, milliwatts, and the thermal noise
//! floor.
//!
//! Internal convention: **baseband sample power is measured in
//! milliwatts** — a signal whose mean `|z|²` is `m` represents `m` mW at
//! the antenna reference plane. This makes RSSI sweeps (the paper's
//! Figs. 10–12, 15) a matter of scaling sample buffers.

/// Boltzmann constant (J/K).
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Reference temperature for noise calculations (K).
pub const T0_KELVIN: f64 = 290.0;

/// Thermal noise power spectral density at 290 K, in dBm/Hz (≈ −173.98).
pub const THERMAL_NOISE_DBM_HZ: f64 = -173.975;

/// Convert dBm to milliwatts.
#[inline]
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Convert milliwatts to dBm. Zero or negative power maps to −∞-ish
/// (−300 dBm) to keep arithmetic total.
#[inline]
pub fn mw_to_dbm(mw: f64) -> f64 {
    if mw <= 0.0 {
        -300.0
    } else {
        10.0 * mw.log10()
    }
}

/// Convert a dB ratio to linear.
#[inline]
pub fn db_to_lin(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Convert a linear ratio to dB.
#[inline]
pub fn lin_to_db(lin: f64) -> f64 {
    if lin <= 0.0 {
        -300.0
    } else {
        10.0 * lin.log10()
    }
}

/// Thermal noise power in dBm over `bw_hz` of bandwidth:
/// `−174 + 10·log10(BW)`.
#[inline]
pub fn thermal_noise_dbm(bw_hz: f64) -> f64 {
    THERMAL_NOISE_DBM_HZ + 10.0 * bw_hz.log10()
}

/// Receiver noise floor in dBm: thermal noise over `bw_hz` plus the noise
/// figure.
#[inline]
pub fn noise_floor_dbm(bw_hz: f64, noise_figure_db: f64) -> f64 {
    thermal_noise_dbm(bw_hz) + noise_figure_db
}

/// Energy in millijoules from power in milliwatts over `seconds`.
#[inline]
pub fn mj_from_mw(mw: f64, seconds: f64) -> f64 {
    mw * seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_round_trip() {
        for dbm in [-126.0, -94.0, 0.0, 14.0, 30.0] {
            assert!((mw_to_dbm(dbm_to_mw(dbm)) - dbm).abs() < 1e-9);
        }
    }

    #[test]
    fn reference_points() {
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
        assert!((dbm_to_mw(30.0) - 1000.0).abs() < 1e-9);
        assert!((dbm_to_mw(14.0) - 25.1189).abs() < 1e-3); // radio max TX
        assert!((db_to_lin(3.0) - 1.9953).abs() < 1e-3);
    }

    #[test]
    fn zero_power_is_floor() {
        assert_eq!(mw_to_dbm(0.0), -300.0);
        assert_eq!(lin_to_db(-1.0), -300.0);
    }

    #[test]
    fn thermal_noise_landmarks() {
        // 125 kHz LoRa channel: ≈ −123 dBm
        assert!((thermal_noise_dbm(125e3) + 123.0).abs() < 0.2);
        // 500 kHz: ≈ −117 dBm
        assert!((thermal_noise_dbm(500e3) + 117.0).abs() < 0.2);
        // 1 MHz BLE-ish: ≈ −114 dBm
        assert!((thermal_noise_dbm(1e6) + 114.0).abs() < 0.2);
    }

    #[test]
    fn lora_sensitivity_from_first_principles() {
        // Semtech SX1276 sensitivity for SF8/BW125 is −126 dBm; with
        // NF = 7 dB and required SNR −10 dB the formula reproduces it.
        let sens = noise_floor_dbm(125e3, 7.0) - 10.0;
        assert!((sens + 126.0).abs() < 0.5, "sens {sens}");
    }

    #[test]
    fn thermal_psd_constant_matches_kt() {
        let kt_mw_hz = BOLTZMANN * T0_KELVIN * 1000.0;
        let dbm_hz = mw_to_dbm(kt_mw_hz);
        assert!((dbm_hz - THERMAL_NOISE_DBM_HZ).abs() < 0.05);
    }

    #[test]
    fn energy_helper() {
        assert_eq!(mj_from_mw(100.0, 2.0), 200.0);
    }
}
