//! Minimal command-line flag parsing for the repro binaries.
//!
//! All binaries accept:
//!
//! * `--seed <u64>` — dataset seed (default 0);
//! * `--res <WxH>` — camera resolution (default per-binary);
//! * `--duration <secs>` — simulated video duration;
//! * `--full` — run closer to paper scale (longer, larger; expect
//!   minutes to hours).

use vr_base::Resolution;

/// Parsed common flags.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    pub seed: u64,
    pub resolution: Option<Resolution>,
    pub duration_secs: Option<f64>,
    pub full: bool,
}

impl CommonArgs {
    /// Parse from `std::env::args`, exiting with a usage message on
    /// malformed flags.
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1)).unwrap_or_else(|msg| usage(&msg))
    }

    /// Parse from an explicit iterator (testable).
    fn from_iter(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self { seed: 0, resolution: None, duration_secs: None, full: false };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--seed" => out.seed = value("a u64")?.parse().map_err(|_| "--seed needs a u64")?,
                "--res" => {
                    let v = value("WxH")?;
                    let (w, h) = v.split_once('x').ok_or("--res format is WxH")?;
                    let w: u32 = w.parse().map_err(|_| "bad width")?;
                    let h: u32 = h.parse().map_err(|_| "bad height")?;
                    out.resolution = Some(Resolution::new(w, h));
                }
                "--duration" => {
                    let secs = value("non-negative seconds")?.parse().ok();
                    let ok = secs.filter(|d: &f64| d.is_finite() && *d >= 0.0);
                    out.duration_secs = Some(ok.ok_or("--duration needs non-negative seconds")?);
                }
                "--full" => out.full = true,
                "--help" | "-h" => {
                    println!("{FLAGS}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(out)
    }
}

const FLAGS: &str = "flags: --seed <u64>  --res <WxH>  --duration <secs>  --full";

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{FLAGS}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<CommonArgs, String> {
        CommonArgs::from_iter(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.seed, 0);
        assert!(a.resolution.is_none());
        assert!(!a.full);
    }

    #[test]
    fn all_flags() {
        let a = parse(&["--seed", "7", "--res", "320x180", "--duration", "2.5", "--full"]).unwrap();
        assert_eq!(a.seed, 7);
        assert_eq!(a.resolution, Some(Resolution::new(320, 180)));
        assert_eq!(a.duration_secs, Some(2.5));
        assert!(a.full);
    }

    #[test]
    fn a_duration_that_is_negative_or_not_finite_is_refused() {
        for v in ["-1", "NaN", "inf", "x"] {
            let error = parse(&["--duration", v]).unwrap_err();
            assert_eq!(error, "--duration needs non-negative seconds", "{v}");
        }
        assert_eq!(parse(&["--duration", "0"]).unwrap().duration_secs, Some(0.0));
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs a u64");
        assert_eq!(parse(&["--jobs", "2"]).unwrap_err(), "unknown flag --jobs");
    }
}
