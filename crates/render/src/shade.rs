//! Lighting, sky, fog, and weather color helpers.

use vr_frame::Rgb;
use vr_geom::Vec3;
use vr_scene::Weather;

/// Sun direction (pointing *from* the sun toward the scene) for a
/// weather configuration.
pub fn sun_direction(weather: &Weather) -> Vec3 {
    use vr_scene::weather::SunPosition;
    match weather.sun {
        SunPosition::Noon => Vec3::new(0.2, 0.1, -1.0),
        SunPosition::Sunset => Vec3::new(-0.9, 0.2, -0.35),
        SunPosition::Overcast => Vec3::new(0.4, 0.4, -0.8),
    }
    .normalized()
    .unwrap()
}

/// Scale a color by a brightness factor and warm it (shift toward
/// orange) by the weather's warmth.
pub fn lit(base: Rgb, brightness: f32, weather: &Weather) -> Rgb {
    let b = brightness.clamp(0.0, 1.4);
    let warmth = weather.warmth();
    let r = base.r as f32 * b * (1.0 + 0.25 * warmth);
    let g = base.g as f32 * b * (1.0 + 0.05 * warmth);
    let bl = base.b as f32 * b * (1.0 - 0.25 * warmth);
    Rgb::new(clamp(r), clamp(g), clamp(bl))
}

/// Diffuse shading for a surface with outward normal `n`.
pub fn shade_face(base: Rgb, n: Vec3, weather: &Weather) -> Rgb {
    let sun = sun_direction(weather);
    // Lambert term against the light direction (-sun), plus ambient.
    let diffuse = (-sun.dot(n)).max(0.0);
    let brightness = weather.ambient() * (0.55 + 0.45 * diffuse);
    lit(base, brightness, weather)
}

/// Sky color for a view ray elevation `sin_elev ∈ [-1, 1]`.
pub fn sky_color(sin_elev: f32, weather: &Weather) -> Rgb {
    let t = ((sin_elev + 0.1) * 2.0).clamp(0.0, 1.0);
    // Horizon → zenith gradient.
    let (horizon, zenith) = match weather.sky {
        vr_scene::weather::Sky::Clear => (Rgb::new(200, 215, 235), Rgb::new(90, 140, 220)),
        vr_scene::weather::Sky::Cloudy => (Rgb::new(190, 195, 205), Rgb::new(140, 150, 170)),
        vr_scene::weather::Sky::Wet => (Rgb::new(170, 175, 185), Rgb::new(120, 130, 150)),
        vr_scene::weather::Sky::HardRain => (Rgb::new(130, 135, 145), Rgb::new(80, 90, 105)),
    };
    let mix = |a: u8, b: u8| (a as f32 + (b as f32 - a as f32) * t) as u8;
    lit(
        Rgb::new(mix(horizon.r, zenith.r), mix(horizon.g, zenith.g), mix(horizon.b, zenith.b)),
        weather.ambient().max(0.6),
        weather,
    )
}

/// Distance fog for one weather: its density and horizon sky colour,
/// computed once instead of per pixel.
#[derive(Debug, Clone, Copy)]
pub struct Fog {
    density: f32,
    sky: Rgb,
}

impl Fog {
    /// The fog of `weather`.
    pub fn new(weather: &Weather) -> Self {
        Self { density: weather.fog(), sky: sky_color(0.0, weather) }
    }

    /// Whether this fog changes any colour at all.
    pub fn is_visible(&self) -> bool {
        self.density > 0.0
    }

    /// Blend `color` toward the horizon sky colour by distance; a
    /// non-finite depth (the sky) is left alone.
    #[inline]
    pub fn apply(&self, color: Rgb, depth: f32) -> Rgb {
        if self.density <= 0.0 || !depth.is_finite() {
            return color;
        }
        // Exponential fog with weather-scaled extinction.
        let f = 1.0 - (-depth * self.density * 0.012).exp();
        let sky = self.sky;
        let mix = |a: u8, b: u8| (a as f32 + (b as f32 - a as f32) * f) as u8;
        Rgb::new(mix(color.r, sky.r), mix(color.g, sky.g), mix(color.b, sky.b))
    }
}

/// Blend `color` toward the horizon sky color by distance fog: the
/// per-call form [`Fog`] replaced, kept as its differential oracle.
#[cfg(test)]
pub(crate) fn apply_fog(color: Rgb, depth: f32, weather: &Weather) -> Rgb {
    let fog = weather.fog();
    if fog <= 0.0 || !depth.is_finite() {
        return color;
    }
    // Exponential fog with weather-scaled extinction.
    let f = 1.0 - (-depth * fog * 0.012).exp();
    let sky = sky_color(0.0, weather);
    let mix = |a: u8, b: u8| (a as f32 + (b as f32 - a as f32) * f) as u8;
    Rgb::new(mix(color.r, sky.r), mix(color.g, sky.g), mix(color.b, sky.b))
}

#[inline]
fn clamp(v: f32) -> u8 {
    v.clamp(0.0, 255.0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_scene::weather::{Sky, SunPosition};

    fn w(sky: Sky, sun: SunPosition) -> Weather {
        Weather { sky, sun }
    }

    #[test]
    fn sun_is_unit_and_downward() {
        for sun in [SunPosition::Noon, SunPosition::Sunset, SunPosition::Overcast] {
            let d = sun_direction(&w(Sky::Clear, sun));
            assert!((d.length() - 1.0).abs() < 1e-5);
            assert!(d.z < 0.0, "sun must shine downward");
        }
    }

    #[test]
    fn sunset_warms_colors() {
        let base = Rgb::new(128, 128, 128);
        let noon = lit(base, 1.0, &w(Sky::Clear, SunPosition::Noon));
        let sunset = lit(base, 1.0, &w(Sky::Clear, SunPosition::Sunset));
        assert!(sunset.r > noon.r);
        assert!(sunset.b < noon.b);
    }

    #[test]
    fn upward_faces_catch_noon_sun() {
        let weather = w(Sky::Clear, SunPosition::Noon);
        let up = shade_face(Rgb::new(100, 100, 100), Vec3::UP, &weather);
        let down = shade_face(Rgb::new(100, 100, 100), -Vec3::UP, &weather);
        assert!(up.g > down.g, "up-facing brighter at noon: {up:?} vs {down:?}");
    }

    #[test]
    fn rainy_sky_is_darker() {
        let clear = sky_color(0.5, &w(Sky::Clear, SunPosition::Noon));
        let rain = sky_color(0.5, &w(Sky::HardRain, SunPosition::Noon));
        assert!(rain.g < clear.g);
    }

    #[test]
    fn fog_pulls_distant_colors_toward_sky() {
        let weather = w(Sky::HardRain, SunPosition::Noon);
        let fog = Fog::new(&weather);
        let c = Rgb::new(0, 0, 0);
        let near = fog.apply(c, 5.0);
        let far = fog.apply(c, 400.0);
        let sky = sky_color(0.0, &weather);
        assert!(far.g > near.g);
        assert!(far.g.abs_diff(sky.g) < 40, "far fog approaches sky: {far:?} vs {sky:?}");
        // No fog in clear weather.
        let clear = Fog::new(&w(Sky::Clear, SunPosition::Noon));
        assert!(!clear.is_visible());
        assert_eq!(clear.apply(c, 400.0), c);
    }

    #[test]
    fn fog_matches_the_per_call_oracle() {
        let mut depths = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            -3.5,
        ];
        // Every depth a 192×108 raster sees, and far beyond.
        depths.extend((0..4000).map(|i| i as f32 * 0.37));
        depths.extend((0..200).map(|i| 1.0e3 * 1.1f32.powi(i)));
        let colors = [Rgb::new(0, 0, 0), Rgb::new(255, 255, 255), Rgb::new(17, 140, 233)];
        for sky in [Sky::Clear, Sky::Cloudy, Sky::Wet, Sky::HardRain] {
            for sun in [SunPosition::Noon, SunPosition::Sunset, SunPosition::Overcast] {
                let weather = w(sky, sun);
                let fog = Fog::new(&weather);
                assert_eq!(fog.is_visible(), weather.fog() > 0.0);
                for &depth in &depths {
                    for c in colors {
                        assert!(
                            fog.apply(c, depth) == apply_fog(c, depth, &weather),
                            "{sky:?}/{sun:?}: depth {depth:e} ({:#x}), {c:?}",
                            depth.to_bits()
                        );
                    }
                }
            }
        }
    }
}
