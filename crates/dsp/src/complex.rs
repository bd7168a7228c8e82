//! A minimal complex-number type for baseband I/Q samples.
//!
//! The radio data path in TinySDR carries 13-bit I and Q words (paper
//! Fig. 4); in the simulation we carry them as `f64` pairs and quantize at
//! the radio boundary (see [`crate::fixed`]).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Complex number with `f64` real (I) and imaginary (Q) parts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real / in-phase component.
    pub re: f64,
    /// Imaginary / quadrature component.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `j`.
    pub const J: Complex = Complex { re: 0.0, im: 1.0 };

    /// Create a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Create a unit phasor `e^{jθ}`.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex { re: c, im: s }
    }

    /// Create from polar coordinates `r·e^{jθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex {
            re: r * c,
            im: r * s,
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `|z|²` (power).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiply by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Reciprocal `1/z`. Returns `Complex::ZERO` for a zero input rather
    /// than NaN, which is the convenient convention for gain control.
    #[inline]
    pub fn recip(self) -> Self {
        let n = self.norm_sqr();
        if n == 0.0 {
            Complex::ZERO
        } else {
            Complex {
                re: self.re / n,
                im: -self.im / n,
            }
        }
    }

    /// `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex {
            re: self.re / rhs,
            im: self.im / rhs,
        }
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    // multiplying by the reciprocal IS complex division
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Complex {
        Complex { re, im: 0.0 }
    }
}

impl From<(f64, f64)> for Complex {
    #[inline]
    fn from((re, im): (f64, f64)) -> Complex {
        Complex { re, im }
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

/// Mean power `E[|z|²]` of a sample slice. Returns 0 for an empty slice.
// lint: allow(unit-suffix, digital-domain signal power in arbitrary linear units - not a physical wattage)
pub fn mean_power(x: &[Complex]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().map(|s| s.norm_sqr()).sum::<f64>() / x.len() as f64
}

/// Euclidean norm `√Σ|z|²` of a sample slice (0 for an empty slice).
pub fn l2_norm(x: &[Complex]) -> f64 {
    x.iter().map(|s| s.norm_sqr()).sum::<f64>().sqrt()
}

/// Scale a signal in place so that its mean power becomes `target`.
///
/// A silent (all-zero) signal is left untouched.
pub fn normalize_power(x: &mut [Complex], target: f64) {
    let p = mean_power(x);
    if p > 0.0 {
        let g = (target / p).sqrt();
        for s in x.iter_mut() {
            *s = s.scale(g);
        }
    }
}

/// Element-wise product `a[i] * b[i]` into a fresh vector.
///
/// This is the "Complex Multiplier unit" of the paper's Fig. 6b used for
/// dechirping. Panics if lengths differ.
pub fn elementwise_mul(a: &[Complex], b: &[Complex]) -> Vec<Complex> {
    assert_eq!(a.len(), b.len(), "elementwise_mul: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_basics() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        let p = a * b; // (1+2j)(3-j) = 3 - j + 6j - 2j² = 5 + 5j
        assert!(close(p.re, 5.0) && close(p.im, 5.0));
    }

    #[test]
    fn conj_and_norm() {
        let a = Complex::new(3.0, 4.0);
        assert_eq!(a.conj(), Complex::new(3.0, -4.0));
        assert!(close(a.norm_sqr(), 25.0));
        assert!(close(a.abs(), 5.0));
        // z * conj(z) = |z|²
        let zz = a * a.conj();
        assert!(close(zz.re, 25.0) && close(zz.im, 0.0));
    }

    #[test]
    fn division_round_trip() {
        let a = Complex::new(2.5, -1.25);
        let b = Complex::new(-0.5, 3.0);
        let q = a / b;
        let back = q * b;
        assert!(close(back.re, a.re) && close(back.im, a.im));
    }

    #[test]
    fn recip_of_zero_is_zero() {
        assert_eq!(Complex::ZERO.recip(), Complex::ZERO);
    }

    #[test]
    fn phasor_magnitude_is_one() {
        for k in 0..32 {
            let theta = k as f64 * std::f64::consts::TAU / 32.0;
            assert!(close(Complex::from_angle(theta).abs(), 1.0));
        }
    }

    #[test]
    fn from_polar_matches_components() {
        let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
        assert!(close(z.re, 0.0) && close(z.im, 2.0));
    }

    #[test]
    fn arg_quadrants() {
        assert!(close(Complex::new(1.0, 0.0).arg(), 0.0));
        assert!(close(
            Complex::new(0.0, 1.0).arg(),
            std::f64::consts::FRAC_PI_2
        ));
        assert!(close(Complex::new(-1.0, 0.0).arg(), std::f64::consts::PI));
    }

    #[test]
    fn mean_power_and_normalize() {
        let mut v = vec![Complex::new(2.0, 0.0); 16];
        assert!(close(mean_power(&v), 4.0));
        normalize_power(&mut v, 1.0);
        assert!(close(mean_power(&v), 1.0));
        // silent signal untouched
        let mut z = vec![Complex::ZERO; 4];
        normalize_power(&mut z, 1.0);
        assert!(z.iter().all(|s| *s == Complex::ZERO));
    }

    #[test]
    fn sum_iterator() {
        let v = vec![Complex::new(1.0, 1.0); 10];
        let s: Complex = v.into_iter().sum();
        assert!(close(s.re, 10.0) && close(s.im, 10.0));
    }

    #[test]
    fn elementwise_mul_dechirp_identity() {
        // multiplying a phasor sequence by its conjugate gives all-ones
        let x: Vec<Complex> = (0..64)
            .map(|n| Complex::from_angle(0.1 * n as f64))
            .collect();
        let y: Vec<Complex> = x.iter().map(|z| z.conj()).collect();
        let prod = elementwise_mul(&x, &y);
        for p in prod {
            assert!(close(p.re, 1.0) && close(p.im, 0.0));
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2j");
    }
}
