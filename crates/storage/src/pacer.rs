//! Real-time pacing for online mode.
//!
//! "Video data is throttled to a simulated real-time throughput (i.e.,
//! the VCD exposes video frames at the corresponding camera's capture
//! rate). The VCD blocks on attempts to read video data beyond this
//! rate." (§3.2)

use std::time::{Duration, Instant};
use vr_base::FrameRate;

/// Blocks callers until each frame's wall-clock release time.
///
/// `speedup` scales simulated time (e.g. 10.0 plays a 30 FPS stream at
/// 300 FPS) so experiments can exercise the throttling path without
/// waiting out real durations; 1.0 is faithful real time.
#[derive(Debug)]
pub struct Pacer {
    start: Instant,
    interval: Duration,
}

impl Pacer {
    /// A pacer running `speedup`× faster than real time.
    pub fn with_speedup(rate: FrameRate, speedup: f64) -> Self {
        assert!(speedup > 0.0);
        let interval = Duration::from_secs_f64(rate.frame_interval_secs() / speedup);
        Self { start: Instant::now(), interval }
    }

    /// Release time of frame `index`.
    pub(crate) fn release_time(&self, index: u64) -> Instant {
        self.start + self.interval * index as u32
    }

    /// Block until frame `index` may be delivered; returns how long
    /// the call slept (zero when the consumer is behind real time).
    pub fn wait_for_frame(&self, index: u64) -> Duration {
        let release = self.release_time(index);
        let now = Instant::now();
        if release > now {
            let d = release - now;
            std::thread::sleep(d);
            d
        } else {
            Duration::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throttles_a_fast_consumer() {
        // 1000 simulated FPS → 1 ms interval; reading 20 frames
        // immediately must take ≈ 19 ms.
        let pacer = Pacer::with_speedup(FrameRate(50), 20.0);
        assert_eq!(pacer.interval, Duration::from_millis(1));
        let t0 = Instant::now();
        let mut slept = Duration::ZERO;
        for i in 0..20 {
            slept += pacer.wait_for_frame(i);
        }
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(15), "elapsed {elapsed:?}");
        assert!(slept > Duration::ZERO);
    }

    #[test]
    fn never_blocks_a_slow_consumer() {
        let pacer = Pacer::with_speedup(FrameRate(30), 1000.0);
        std::thread::sleep(Duration::from_millis(20));
        // All of these frames are already released.
        for i in 0..10 {
            assert_eq!(pacer.wait_for_frame(i), Duration::ZERO);
        }
    }

    #[test]
    fn release_times_are_evenly_spaced() {
        let pacer = Pacer::with_speedup(FrameRate(30), 1.0);
        let d = pacer.release_time(30) - pacer.release_time(0);
        let want = Duration::from_secs_f64(1.0);
        let err = d.abs_diff(want);
        assert!(err < Duration::from_millis(2), "spacing error {err:?}");
    }
}
