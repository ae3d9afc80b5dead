//! The WebVTT document model, parser, and serializer.
//!
//! Supports the subset the benchmark requires (§4.1: "need only
//! support the line and position cue settings"): the `WEBVTT` header,
//! timed cues with optional identifiers, multi-line payload text, and
//! the `line:`/`position:` percentage settings.

use vr_base::{Error, Result, Timestamp};

/// A single caption cue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cue {
    /// Optional cue identifier (the line before the timing line).
    pub id: Option<String>,
    /// Start of the display window.
    pub start: Timestamp,
    /// End of the display window (exclusive).
    pub end: Timestamp,
    /// Vertical position as a percentage of frame height (the `line`
    /// cue setting); `None` means the default (bottom).
    pub line_pct: Option<u8>,
    /// Horizontal anchor as a percentage of frame width (the
    /// `position` cue setting); `None` means centered.
    pub position_pct: Option<u8>,
    /// Caption text; embedded newlines separate rendered lines.
    pub text: String,
}

impl Cue {
    /// Whether the cue is visible at `t`.
    pub(crate) fn active_at(&self, t: Timestamp) -> bool {
        self.start <= t && t < self.end
    }
}

/// A parsed WebVTT document.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WebVtt {
    /// Cues in document order.
    pub cues: Vec<Cue>,
}

impl WebVtt {
    /// Parse a WebVTT document.
    pub fn parse(text: &str) -> Result<Self> {
        let mut lines = text.lines().peekable();
        let header = lines
            .next()
            .ok_or_else(|| Error::Corrupt("empty WebVTT document".into()))?;
        if !header.trim_start_matches('\u{feff}').starts_with("WEBVTT") {
            return Err(Error::Corrupt("missing WEBVTT header".into()));
        }
        let mut cues = Vec::new();
        let mut block: Vec<&str> = Vec::new();
        let flush = |block: &mut Vec<&str>, cues: &mut Vec<Cue>| -> Result<()> {
            if block.is_empty() {
                return Ok(());
            }
            if let Some(cue) = parse_cue_block(block)? {
                cues.push(cue);
            }
            block.clear();
            Ok(())
        };
        for line in lines {
            if line.trim().is_empty() {
                flush(&mut block, &mut cues)?;
            } else {
                block.push(line);
            }
        }
        flush(&mut block, &mut cues)?;
        Ok(Self { cues })
    }

    /// Serialize back to WebVTT text.
    pub fn serialize(&self) -> String {
        let mut out = String::from("WEBVTT\n");
        for cue in &self.cues {
            out.push('\n');
            if let Some(id) = &cue.id {
                out.push_str(id);
                out.push('\n');
            }
            out.push_str(&format_timestamp(cue.start));
            out.push_str(" --> ");
            out.push_str(&format_timestamp(cue.end));
            if let Some(l) = cue.line_pct {
                out.push_str(&format!(" line:{l}%"));
            }
            if let Some(p) = cue.position_pct {
                out.push_str(&format!(" position:{p}%"));
            }
            out.push('\n');
            out.push_str(&cue.text);
            out.push('\n');
        }
        out
    }

    /// Cues visible at timestamp `t`.
    pub(crate) fn active_at(&self, t: Timestamp) -> impl Iterator<Item = &Cue> {
        self.cues.iter().filter(move |c| c.active_at(t))
    }
}

fn parse_cue_block(block: &[&str]) -> Result<Option<Cue>> {
    // NOTE/STYLE/REGION blocks are skipped.
    if block[0].starts_with("NOTE") || block[0].starts_with("STYLE") || block[0].starts_with("REGION")
    {
        return Ok(None);
    }
    let (id, timing_idx) = if block[0].contains("-->") {
        (None, 0)
    } else if block.len() >= 2 && block[1].contains("-->") {
        (Some(block[0].trim().to_string()), 1)
    } else {
        return Err(Error::Corrupt(format!("cue block without timing line: {:?}", block[0])));
    };
    let timing = block[timing_idx];
    let (times, settings) = match timing.find("-->") {
        Some(pos) => {
            let start = parse_timestamp(timing[..pos].trim())?;
            let rest = &timing[pos + 3..];
            let mut parts = rest.trim().splitn(2, char::is_whitespace);
            let end = parse_timestamp(parts.next().unwrap_or("").trim())?;
            ((start, end), parts.next().unwrap_or(""))
        }
        None => return Err(Error::Corrupt("cue timing line missing -->".into())),
    };
    if times.1 <= times.0 {
        return Err(Error::Corrupt("cue end must be after start".into()));
    }
    let mut line_pct = None;
    let mut position_pct = None;
    for setting in settings.split_whitespace() {
        if let Some(v) = setting.strip_prefix("line:") {
            line_pct = Some(parse_pct(v)?);
        } else if let Some(v) = setting.strip_prefix("position:") {
            position_pct = Some(parse_pct(v)?);
        }
        // Unknown settings are ignored per spec.
    }
    let text = block[timing_idx + 1..].join("\n");
    Ok(Some(Cue { id, start: times.0, end: times.1, line_pct, position_pct, text }))
}

fn parse_pct(v: &str) -> Result<u8> {
    let v = v.trim_end_matches('%');
    let n: u32 = v
        .parse()
        .map_err(|_| Error::Corrupt(format!("bad percentage: {v}")))?;
    if n > 100 {
        return Err(Error::Corrupt(format!("percentage out of range: {n}")));
    }
    Ok(n as u8)
}

/// Parse `HH:MM:SS.mmm` or `MM:SS.mmm`.
fn parse_timestamp(s: &str) -> Result<Timestamp> {
    let parts: Vec<&str> = s.split(':').collect();
    let (h, m, rest) = match parts.len() {
        3 => (parts[0], parts[1], parts[2]),
        2 => ("0", parts[0], parts[1]),
        _ => return Err(Error::Corrupt(format!("bad timestamp: {s}"))),
    };
    let (sec, ms) = rest
        .split_once('.')
        .ok_or_else(|| Error::Corrupt(format!("timestamp missing millis: {s}")))?;
    let h: u64 = h.parse().map_err(|_| Error::Corrupt(format!("bad hours: {s}")))?;
    let m: u64 = m.parse().map_err(|_| Error::Corrupt(format!("bad minutes: {s}")))?;
    let sec: u64 = sec.parse().map_err(|_| Error::Corrupt(format!("bad seconds: {s}")))?;
    let ms: u64 = ms.parse().map_err(|_| Error::Corrupt(format!("bad millis: {s}")))?;
    if m >= 60 || sec >= 60 || ms >= 1000 {
        return Err(Error::Corrupt(format!("timestamp fields out of range: {s}")));
    }
    Ok(Timestamp::from_micros(((h * 3600 + m * 60 + sec) * 1000 + ms) * 1000))
}

fn format_timestamp(t: Timestamp) -> String {
    let total_ms = t.as_micros() / 1000;
    let ms = total_ms % 1000;
    let s = (total_ms / 1000) % 60;
    let m = (total_ms / 60_000) % 60;
    let h = total_ms / 3_600_000;
    format!("{h:02}:{m:02}:{s:02}.{ms:03}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "WEBVTT

1
00:00:01.000 --> 00:00:04.000 line:90% position:50%
Hello world

00:00:05.500 --> 00:01:00.000
Second cue
with two lines

NOTE this is a comment
that spans lines
";

    #[test]
    fn parses_cues_and_settings() {
        let doc = WebVtt::parse(SAMPLE).unwrap();
        assert_eq!(doc.cues.len(), 2);
        let c = &doc.cues[0];
        assert_eq!(c.id.as_deref(), Some("1"));
        assert_eq!(c.start.as_micros(), 1_000_000);
        assert_eq!(c.end.as_micros(), 4_000_000);
        assert_eq!(c.line_pct, Some(90));
        assert_eq!(c.position_pct, Some(50));
        assert_eq!(c.text, "Hello world");
        let c = &doc.cues[1];
        assert_eq!(c.id, None);
        assert_eq!(c.text, "Second cue\nwith two lines");
        assert_eq!(c.line_pct, None);
    }

    #[test]
    fn serialize_parse_round_trip() {
        let doc = WebVtt::parse(SAMPLE).unwrap();
        let text = doc.serialize();
        let doc2 = WebVtt::parse(&text).unwrap();
        assert_eq!(doc, doc2);
    }

    #[test]
    fn active_cues_by_time() {
        let doc = WebVtt::parse(SAMPLE).unwrap();
        let at = |us: u64| doc.active_at(Timestamp::from_micros(us)).count();
        assert_eq!(at(0), 0);
        assert_eq!(at(1_000_000), 1);
        assert_eq!(at(3_999_999), 1);
        assert_eq!(at(4_000_000), 0);
        assert_eq!(at(6_000_000), 1);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(WebVtt::parse("").is_err());
        assert!(WebVtt::parse("NOTAVTT\n").is_err());
        assert!(WebVtt::parse("WEBVTT\n\ncue without timing\nstill no timing\n").is_err());
        assert!(WebVtt::parse("WEBVTT\n\n00:00:02.000 --> 00:00:01.000\nbackwards\n").is_err());
        assert!(WebVtt::parse("WEBVTT\n\n00:00:01.000 --> 00:00:02.000 line:150%\nx\n").is_err());
        assert!(WebVtt::parse("WEBVTT\n\n00:99:01.000 --> 01:00:02.000\nx\n").is_err());
    }

    #[test]
    fn short_timestamp_form() {
        let doc = WebVtt::parse("WEBVTT\n\n01:02.500 --> 01:03.000\nx\n").unwrap();
        assert_eq!(doc.cues[0].start.as_micros(), 62_500_000);
    }

    #[test]
    fn timestamp_formatting() {
        assert_eq!(format_timestamp(Timestamp::from_micros(3_723_456_000)), "01:02:03.456");
        assert_eq!(format_timestamp(Timestamp::ZERO), "00:00:00.000");
    }
}
