//! Leaky-bucket rate control.
//!
//! Tracks a virtual buffer that fills with encoded bits and drains at
//! the target rate; QP is nudged up when the buffer runs ahead of
//! budget and down when it runs behind. This is a miniature of the
//! controllers in production encoders and exhibits the same behaviour
//! the benchmark cares about: hitting a *target bitrate* on Q3/Q10
//! re-encode operations.

use crate::quant::MAX_QP;

/// Proportional leaky-bucket rate controller.
#[derive(Debug, Clone)]
pub struct RateController {
    /// Target bits per frame.
    target_bpf: f64,
    /// Current fractional QP.
    qp: f64,
    /// Virtual buffer fullness in bits (positive = over budget).
    buffer: f64,
    /// I-frames are allowed this multiple of the per-frame budget.
    intra_weight: f64,
}

impl RateController {
    /// Create a controller for `bits_per_second` at `fps`, starting
    /// from an initial QP guess derived from the per-pixel bit budget.
    pub fn new(bits_per_second: u32, fps: u32, width: u32, height: u32) -> Self {
        let target_bpf = bits_per_second as f64 / fps.max(1) as f64;
        // Initial QP heuristic: more bits per pixel → lower QP.
        let bpp = target_bpf / (width as f64 * height as f64);
        let qp = (38.0 - 7.5 * bpp.max(1e-4).log2()).clamp(4.0, 48.0);
        Self { target_bpf, qp, buffer: 0.0, intra_weight: 4.0 }
    }

    /// QP to use for the next frame.
    pub fn frame_qp(&self, intra: bool) -> u8 {
        // I-frames get a slightly lower QP (higher quality) since
        // every subsequent P-frame predicts from them.
        let qp = if intra { self.qp - 2.0 } else { self.qp };
        qp.round().clamp(0.0, MAX_QP as f64) as u8
    }

    /// Report the actual size of an encoded frame; adapts QP.
    pub fn update(&mut self, bits_used: usize, intra: bool) {
        let budget = if intra { self.target_bpf * self.intra_weight } else { self.target_bpf };
        self.buffer += bits_used as f64 - budget;
        // Proportional QP step from the instantaneous overshoot plus
        // a slower correction from accumulated buffer drift.
        let instant = (bits_used as f64 / budget.max(1.0)).log2();
        let drift = self.buffer / (self.target_bpf * 8.0).max(1.0);
        self.qp = (self.qp + 0.7 * instant + 0.3 * drift.clamp(-2.0, 2.0)).clamp(0.0, MAX_QP as f64);
    }

    /// Target bits per frame (diagnostics).
    pub fn target_bits_per_frame(&self) -> f64 {
        self.target_bpf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_qp_scales_with_budget() {
        let generous = RateController::new(20_000_000, 30, 320, 240);
        let starved = RateController::new(100_000, 30, 320, 240);
        assert!(
            generous.frame_qp(false) < starved.frame_qp(false),
            "more bits should mean lower QP: {} vs {}",
            generous.frame_qp(false),
            starved.frame_qp(false)
        );
    }

    #[test]
    fn overshoot_raises_qp() {
        let mut rc = RateController::new(1_000_000, 30, 320, 240);
        let qp0 = rc.frame_qp(false);
        for _ in 0..10 {
            let budget = rc.target_bits_per_frame() as usize;
            rc.update(budget * 4, false); // consistently 4x over
        }
        assert!(rc.frame_qp(false) > qp0, "QP should rise under overshoot");
    }

    #[test]
    fn undershoot_lowers_qp() {
        let mut rc = RateController::new(1_000_000, 30, 320, 240);
        let qp0 = rc.frame_qp(false);
        for _ in 0..10 {
            let budget = rc.target_bits_per_frame() as usize;
            rc.update(budget / 8, false);
        }
        assert!(rc.frame_qp(false) < qp0, "QP should fall under undershoot");
    }

    #[test]
    fn intra_frames_get_better_quality() {
        let rc = RateController::new(1_000_000, 30, 320, 240);
        assert!(rc.frame_qp(true) <= rc.frame_qp(false));
    }

    #[test]
    fn qp_stays_in_range_under_extremes() {
        let mut rc = RateController::new(1_000, 30, 3840, 2160);
        for _ in 0..100 {
            rc.update(10_000_000, false);
        }
        assert!(rc.frame_qp(false) <= MAX_QP);
        let mut rc = RateController::new(u32::MAX, 30, 16, 16);
        for _ in 0..100 {
            rc.update(1, false);
        }
        // frame_qp subtracts for intra; still valid.
        let _ = rc.frame_qp(true);
    }
}
