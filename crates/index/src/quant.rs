//! Scalar quantization: f32 feature vectors compressed to one byte per
//! dimension plus a per-vector affine (min, scale) pair.
//!
//! The codes are what the side index persists; (min, scale) are stored
//! as raw IEEE-754 bits so serialization is byte-deterministic. The
//! reconstruction error of any component is bounded by `scale / 2`
//! (pinned by a unit test), which is plenty for the coarse geometric
//! embeddings the ingest pass produces.

use vr_base::{Error, Result};

/// A scalar-quantized vector: `value[i] ≈ min + codes[i] * scale`.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantized {
    pub codes: Vec<u8>,
    pub min: f32,
    pub scale: f32,
}

impl Quantized {
    /// Quantize a vector. A constant vector quantizes with `scale = 0`
    /// and reconstructs exactly.
    pub fn quantize(values: &[f32]) -> Result<Quantized> {
        if values.is_empty() {
            return Err(Error::InvalidConfig("cannot quantize an empty vector".into()));
        }
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in values {
            if !v.is_finite() {
                return Err(Error::InvalidConfig(format!("non-finite component {v}")));
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let scale = if hi > lo { (hi - lo) / 255.0 } else { 0.0 };
        let codes = values
            .iter()
            .map(|&v| {
                if scale == 0.0 {
                    0
                } else {
                    // Round-to-nearest; the clamp absorbs float slop at
                    // the top of the range.
                    (((v - lo) / scale) + 0.5).floor().clamp(0.0, 255.0) as u8
                }
            })
            .collect();
        Ok(Quantized { codes, min: lo, scale })
    }

    /// Reconstruct the (lossy) f32 vector.
    pub(crate) fn dequantize(&self) -> Vec<f32> {
        self.codes
            .iter()
            .map(|&c| self.min + c as f32 * self.scale)
            .collect()
    }

    pub(crate) fn dim(&self) -> usize {
        self.codes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_base::rng::VrRng;

    #[test]
    fn round_trip_error_is_bounded_by_half_scale() {
        let mut rng = VrRng::seed_from(0x51AB);
        for trial in 0..64 {
            let dim = 4 + (trial % 13);
            let vals: Vec<f32> = (0..dim).map(|_| rng.range_f32(-40.0, 40.0)).collect();
            let q = Quantized::quantize(&vals).unwrap();
            let back = q.dequantize();
            // The bound has a tiny epsilon for the two roundings
            // ((v-min)/scale and min + c*scale) on top of the
            // round-to-nearest half-step.
            let bound = q.scale / 2.0 + 1e-4 * q.scale.max(1.0);
            for (a, b) in vals.iter().zip(&back) {
                assert!(
                    (a - b).abs() <= bound,
                    "trial {trial}: |{a} - {b}| > {bound} (scale {})",
                    q.scale
                );
            }
        }
    }

    #[test]
    fn constant_vector_reconstructs_exactly() {
        let q = Quantized::quantize(&[3.25; 7]).unwrap();
        assert_eq!(q.scale, 0.0);
        assert_eq!(q.dequantize(), vec![3.25; 7]);
    }

    #[test]
    fn extremes_map_to_code_range_ends() {
        let q = Quantized::quantize(&[-1.0, 0.0, 1.0]).unwrap();
        assert_eq!(q.codes[0], 0);
        assert_eq!(q.codes[2], 255);
    }

    #[test]
    fn rejects_empty_and_non_finite() {
        assert!(Quantized::quantize(&[]).is_err());
        assert!(Quantized::quantize(&[1.0, f32::NAN]).is_err());
        assert!(Quantized::quantize(&[f32::INFINITY]).is_err());
    }

    #[test]
    fn quantization_is_deterministic() {
        let vals = [0.1_f32, 2.7, -3.3, 9.9, 0.0];
        let a = Quantized::quantize(&vals).unwrap();
        let b = Quantized::quantize(&vals).unwrap();
        assert_eq!(a, b);
    }
}
