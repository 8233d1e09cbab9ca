//! The storage-precision knob and the one quantisation step behind it.
//!
//! [`Precision`] selects how the hot kernels *see* their operands —
//! accumulation is always `f64` in both modes. [`Precision::F32`] is a
//! *quantisation of operands*: each value is rounded through `f32`
//! (`v as f32 as f64`, see [`Precision::quantize_in_place`]) and the
//! ordinary `f64` kernels run on the rounded values. Widening
//! `f32 → f64` is exact, so this is bit-for-bit what an `f32`-storage
//! kernel with `f64` accumulation computes. The only kernel that keeps
//! genuine `f32` storage is the Gram kNN tile in `mtrl-graph` (via
//! [`crate::MatF32`]), the one loop where halving the stored width
//! measured faster.
//!
//! Configs across the workspace (`RhchmeConfig`, `PipelineParams`, the
//! eval scenarios, `mtrl-stream`'s dynamic-graph config) carry this enum
//! the same way they carry the ANN `GraphBackend`: switching a fit is a
//! config change, never a new call site.
//!
//! The determinism contract is *per mode*: within [`Precision::F64`] and
//! within [`Precision::F32`] results are bit-identical across thread
//! counts, but the two modes legitimately differ from each other (f32
//! quantisation rounds the operands).

use std::borrow::Cow;

/// Storage precision of the hot kernel operands (`f64` accumulation in
/// both modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum Precision {
    /// Full double-precision operands — the reference mode.
    #[default]
    F64,
    /// Operands quantised through `f32`, accumulated in `f64`; quality
    /// pinned by the eval gates.
    F32,
}

/// A container of `f64` values that can be rounded onto a
/// [`Precision`]'s grid in place, keeping its structure (a sparse
/// matrix keeps every stored entry, even one that rounds to zero).
pub trait Quantize: Clone {
    /// Round every stored value with [`Precision::quantize_in_place`].
    fn quantize(&mut self, precision: Precision);
}

impl Precision {
    /// Whether this is the full-precision reference mode.
    pub fn is_f64(&self) -> bool {
        matches!(self, Precision::F64)
    }

    /// Short stable key for report/bench entry names.
    pub fn key(&self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }

    /// Round every value onto this precision's grid: `v as f32 as f64`
    /// in F32 mode (sign, infinities and NaN carry through; values below
    /// the `f32` range flush to a zero of the same sign), nothing in F64
    /// mode. This is the definition of what F32 mode means.
    pub fn quantize_in_place(self, values: &mut [f64]) {
        if self == Precision::F32 {
            for v in values {
                *v = *v as f32 as f64;
            }
        }
    }

    /// `x` as this precision sees it: borrowed unchanged in F64 mode, a
    /// quantised copy in F32 mode.
    pub fn quantized<T: Quantize>(self, x: &T) -> Cow<'_, T> {
        if self.is_f64() {
            Cow::Borrowed(x)
        } else {
            let mut q = x.clone();
            q.quantize(self);
            Cow::Owned(q)
        }
    }
}

impl Quantize for crate::Mat {
    fn quantize(&mut self, precision: Precision) {
        precision.quantize_in_place(self.as_mut_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat;
    use serde::{Deserialize, Serialize, Value};

    #[test]
    fn default_is_f64() {
        assert!(Precision::default().is_f64());
        assert!(!Precision::F32.is_f64());
    }

    #[test]
    fn keys_are_distinct() {
        assert_ne!(Precision::F64.key(), Precision::F32.key());
    }

    #[test]
    fn serde_round_trip() {
        for p in [Precision::F64, Precision::F32] {
            assert_eq!(Precision::from_value(&p.to_value()).unwrap(), p);
        }
        assert_eq!(Precision::F32.to_value(), Value::String("F32".into()));
        assert!(Precision::from_value(&Value::String("F16".into())).is_err());
    }

    #[test]
    fn quantize_is_the_f32_round_trip_bit_for_bit() {
        let vals = [
            1.0 / 3.0,
            -2.5e-7,
            1e-300,
            -1e-300,
            1e300,
            f64::MIN_POSITIVE,
            0.1,
            f64::INFINITY,
        ];
        let mut q = vals;
        Precision::F32.quantize_in_place(&mut q);
        for (a, b) in q.iter().zip(vals) {
            assert_eq!(a.to_bits(), (b as f32 as f64).to_bits(), "{b}");
        }
        let mut nan = [f64::NAN];
        Precision::F32.quantize_in_place(&mut nan);
        assert!(nan[0].is_nan());
        let mut same = vals;
        Precision::F64.quantize_in_place(&mut same);
        assert_eq!(same.map(f64::to_bits), vals.map(f64::to_bits));
    }

    #[test]
    fn quantize_keeps_the_sign_of_zero() {
        // Signed zeros and signed underflow both keep their sign bit.
        let mut q = [0.0, -0.0, 1e-320, -1e-320];
        Precision::F32.quantize_in_place(&mut q);
        assert_eq!(
            q.map(f64::to_bits),
            [0.0, -0.0, 0.0, -0.0].map(f64::to_bits)
        );
    }

    #[test]
    fn quantized_borrows_in_f64_and_copies_in_f32() {
        let m = Mat::from_fn(5, 3, |i, j| 0.1 * (i * 3 + j) as f64 + 1.0 / 3.0);
        assert!(matches!(Precision::F64.quantized(&m), Cow::Borrowed(_)));
        let q = Precision::F32.quantized(&m);
        assert!(matches!(q, Cow::Owned(_)));
        assert_eq!(q.shape(), m.shape());
        for (a, b) in q.as_slice().iter().zip(m.as_slice()) {
            assert_eq!(a.to_bits(), (*b as f32 as f64).to_bits());
        }
    }
}
