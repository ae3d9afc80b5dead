//! Weather and lighting configurations.
//!
//! The tile pool associates each tile with one of twelve weather
//! configurations (§5) — the cross product of four sky conditions and
//! three sun positions, mirroring CARLA's preset list. Weather affects
//! rendering (ambient light, fog, rain streaks) and therefore video
//! entropy, which is why tiles with different weather stress the codec
//! and the engines differently.

/// Sky condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sky {
    Clear,
    Cloudy,
    Wet,
    HardRain,
}

/// Sun position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SunPosition {
    Noon,
    Sunset,
    Overcast,
}

/// One of the twelve weather configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Weather {
    pub sky: Sky,
    pub sun: SunPosition,
}

/// All twelve weather configurations, in pool order.
pub(crate) const ALL_WEATHER: [Weather; 12] = [
    Weather { sky: Sky::Clear, sun: SunPosition::Noon },
    Weather { sky: Sky::Clear, sun: SunPosition::Sunset },
    Weather { sky: Sky::Clear, sun: SunPosition::Overcast },
    Weather { sky: Sky::Cloudy, sun: SunPosition::Noon },
    Weather { sky: Sky::Cloudy, sun: SunPosition::Sunset },
    Weather { sky: Sky::Cloudy, sun: SunPosition::Overcast },
    Weather { sky: Sky::Wet, sun: SunPosition::Noon },
    Weather { sky: Sky::Wet, sun: SunPosition::Sunset },
    Weather { sky: Sky::Wet, sun: SunPosition::Overcast },
    Weather { sky: Sky::HardRain, sun: SunPosition::Noon },
    Weather { sky: Sky::HardRain, sun: SunPosition::Sunset },
    Weather { sky: Sky::HardRain, sun: SunPosition::Overcast },
];

impl Weather {
    /// Ambient light level in `[0.25, 1.0]` (1.0 = clear noon).
    pub fn ambient(&self) -> f32 {
        let sky: f32 = match self.sky {
            Sky::Clear => 1.0,
            Sky::Cloudy => 0.8,
            Sky::Wet => 0.7,
            Sky::HardRain => 0.55,
        };
        let sun = match self.sun {
            SunPosition::Noon => 1.0,
            SunPosition::Sunset => 0.75,
            SunPosition::Overcast => 0.6,
        };
        (sky * sun).max(0.25)
    }

    /// Fog/haze density in `[0, 1]`.
    pub fn fog(&self) -> f32 {
        match self.sky {
            Sky::Clear => 0.0,
            Sky::Cloudy => 0.15,
            Sky::Wet => 0.25,
            Sky::HardRain => 0.45,
        }
    }

    /// Rain intensity in `[0, 1]` (drives rain-streak rendering).
    pub fn rain(&self) -> f32 {
        match self.sky {
            Sky::Clear | Sky::Cloudy => 0.0,
            Sky::Wet => 0.3,
            Sky::HardRain => 1.0,
        }
    }

    /// Warmth of the light in `[0, 1]` (sunset reddens the scene).
    pub fn warmth(&self) -> f32 {
        match self.sun {
            SunPosition::Noon => 0.0,
            SunPosition::Sunset => 0.8,
            SunPosition::Overcast => 0.2,
        }
    }

    /// Ground reflectivity (wet roads reflect the sky).
    pub fn wetness(&self) -> f32 {
        match self.sky {
            Sky::Clear | Sky::Cloudy => 0.0,
            Sky::Wet => 0.6,
            Sky::HardRain => 0.9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_distinct_configs() {
        let set: std::collections::HashSet<_> = ALL_WEATHER.iter().collect();
        assert_eq!(set.len(), 12);
    }

    #[test]
    fn clear_noon_is_brightest() {
        let clear_noon = ALL_WEATHER[0];
        for w in &ALL_WEATHER[1..] {
            assert!(w.ambient() <= clear_noon.ambient());
        }
        assert_eq!(clear_noon.fog(), 0.0);
        assert_eq!(clear_noon.rain(), 0.0);
    }

    #[test]
    fn rain_orders_by_sky() {
        let hard = Weather { sky: Sky::HardRain, sun: SunPosition::Noon };
        let wet = Weather { sky: Sky::Wet, sun: SunPosition::Noon };
        let clear = Weather { sky: Sky::Clear, sun: SunPosition::Noon };
        assert!(hard.rain() > wet.rain());
        assert!(wet.rain() > clear.rain());
        assert!(hard.fog() > clear.fog());
        assert!(hard.wetness() > clear.wetness());
    }

    #[test]
    fn sunset_is_warm() {
        let sunset = Weather { sky: Sky::Clear, sun: SunPosition::Sunset };
        let noon = Weather { sky: Sky::Clear, sun: SunPosition::Noon };
        assert!(sunset.warmth() > noon.warmth());
    }

    #[test]
    fn ambient_has_floor() {
        for w in &ALL_WEATHER {
            assert!(w.ambient() >= 0.25);
            assert!(w.ambient() <= 1.0);
        }
    }
}
