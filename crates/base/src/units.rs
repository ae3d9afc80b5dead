//! Physical units used throughout the benchmark: resolutions, frame
//! rates, durations, and per-frame timestamps.

use std::fmt;

/// A video frame resolution in pixels.
///
/// The benchmark's standard resolutions (§5) are exposed as associated
/// constants; arbitrary resolutions are also allowed (the VCG supports
/// configurable camera resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Resolution {
    /// Horizontal pixel count `R_x`.
    pub width: u32,
    /// Vertical pixel count `R_y`.
    pub height: u32,
}

impl Resolution {
    /// 1κ (960×540) — the paper's smallest standard resolution.
    pub const K1: Resolution = Resolution { width: 960, height: 540 };
    /// 2κ (1920×1080).
    pub const K2: Resolution = Resolution { width: 1920, height: 1080 };
    /// 4κ (3840×2160).
    pub const K4: Resolution = Resolution { width: 3840, height: 2160 };

    /// Construct a resolution.
    pub const fn new(width: u32, height: u32) -> Self {
        Self { width, height }
    }

    /// Total pixel count per frame.
    pub const fn pixels(&self) -> usize {
        (self.width as usize) * (self.height as usize)
    }

    /// Scale both dimensions by a rational factor, rounding to even
    /// (YUV 4:2:0 requires even dimensions).
    pub(crate) fn scaled(&self, num: u32, den: u32) -> Resolution {
        let w = ((self.width as u64 * num as u64) / den as u64).max(2) as u32 & !1;
        let h = ((self.height as u64 * num as u64) / den as u64).max(2) as u32 & !1;
        Resolution::new(w, h)
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

/// Frames per second. Visual Road 1.0 supports 15–90 FPS (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameRate(pub u32);

impl FrameRate {
    /// The default capture rate used by all Visual City cameras (§5).
    pub const STANDARD: FrameRate = FrameRate(30);

    /// Seconds per frame.
    pub fn frame_interval_secs(&self) -> f64 {
        1.0 / self.0 as f64
    }
}

impl fmt::Display for FrameRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} fps", self.0)
    }
}

/// A span of simulated time, stored in microseconds to keep frame
/// arithmetic exact for every supported frame rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Duration {
    micros: u64,
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration { micros: 0 };

    /// From whole microseconds.
    pub(crate) const fn from_micros(micros: u64) -> Self {
        Self { micros }
    }

    /// From (possibly fractional) seconds.
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs >= 0.0, "durations are non-negative");
        Self { micros: (secs * 1e6).round() as u64 }
    }

    /// From whole minutes (the paper specifies dataset durations in
    /// minutes; see Table 2).
    pub(crate) fn from_mins(mins: u64) -> Self {
        Self { micros: mins * 60 * 1_000_000 }
    }

    /// Microsecond count.
    pub const fn as_micros(&self) -> u64 {
        self.micros
    }

    /// Seconds as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.micros as f64 / 1e6
    }

    /// Number of frames this duration spans at `rate` (floor).
    pub fn frames(&self, rate: FrameRate) -> u64 {
        self.micros * rate.0 as u64 / 1_000_000
    }
}

impl std::ops::Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration { micros: self.micros + rhs.micros }
    }
}

impl std::ops::Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration { micros: self.micros.saturating_sub(rhs.micros) }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 60.0 {
            write!(f, "{:.1} min", s / 60.0)
        } else {
            write!(f, "{s:.2} s")
        }
    }
}

/// A timestamp within a video, measured from the start of capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Timestamp {
    micros: u64,
}

impl Timestamp {
    /// Start of the video.
    pub const ZERO: Timestamp = Timestamp { micros: 0 };

    /// From whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Self { micros }
    }

    /// Timestamp of frame `index` at `rate`.
    pub fn of_frame(index: u64, rate: FrameRate) -> Self {
        Self { micros: index * 1_000_000 / rate.0 as u64 }
    }

    /// Microsecond count.
    pub const fn as_micros(&self) -> u64 {
        self.micros
    }

    /// Index of the frame visible at this timestamp, at `rate`.
    ///
    /// Rounds to the nearest frame so that `of_frame`/`frame_index`
    /// round-trip exactly even when the frame interval is not an
    /// integer number of microseconds (e.g. 30 fps).
    pub fn frame_index(&self, rate: FrameRate) -> u64 {
        (self.micros * rate.0 as u64 + 500_000) / 1_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_resolutions() {
        assert_eq!(Resolution::K1.to_string(), "960x540");
        assert_eq!(Resolution::K2.pixels(), 1920 * 1080);
        assert_eq!(Resolution::K4.width, 3840);
    }

    #[test]
    fn scaled_stays_even() {
        let r = Resolution::new(960, 540).scaled(1, 4);
        assert_eq!(r, Resolution::new(240, 134)); // 135 rounded down to even
        assert_eq!(Resolution::new(3, 3).scaled(1, 2), Resolution::new(2, 2));
    }

    #[test]
    fn duration_frame_math_is_exact() {
        let d = Duration::from_mins(60);
        assert_eq!(d.frames(FrameRate(30)), 60 * 60 * 30);
        let d = Duration::from_secs(1.0);
        assert_eq!(d.frames(FrameRate(15)), 15);
        assert_eq!(d.frames(FrameRate(90)), 90);
    }

    #[test]
    fn timestamp_frame_round_trip() {
        let rate = FrameRate(30);
        for i in [0u64, 1, 29, 30, 12345] {
            let ts = Timestamp::of_frame(i, rate);
            assert_eq!(ts.frame_index(rate), i);
        }
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_secs(2.0);
        let b = Duration::from_secs(0.5);
        assert_eq!((a + b).as_secs_f64(), 2.5);
        assert_eq!((b - a), Duration::ZERO); // saturating
    }
}
