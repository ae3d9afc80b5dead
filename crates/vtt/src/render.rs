//! Caption rasterization: cues → pixels.
//!
//! The reference implementation of Q6(b) renders each active cue into
//! an overlay frame (everything else ω/black) which the ω-coalesce
//! join then composites over the input video.

use crate::cue::{Cue, WebVtt};
use crate::font::{pixel, text_width, ADVANCE, GLYPH_H, GLYPH_W};
use vr_base::Timestamp;
use vr_frame::{Frame, Yuv};

/// Caption appearance.
#[derive(Debug, Clone, Copy)]
pub struct CaptionStyle {
    /// Text color.
    pub text: Yuv,
    /// Background box color (painted behind each text line).
    pub background: Yuv,
    /// Integer font scale.
    pub scale: u32,
}

impl Default for CaptionStyle {
    fn default() -> Self {
        Self {
            text: Yuv::new(235, 128, 128),      // white
            background: Yuv::new(40, 128, 128), // dark gray
            scale: 2,
        }
    }
}

/// Render one cue onto `frame`.
///
/// The `line` cue setting positions the top of the cue block at that
/// percentage of frame height (default 90 % — near the bottom); the
/// `position` setting centers the text at that percentage of frame
/// width (default 50 %).
pub(crate) fn render_cue(frame: &mut Frame, cue: &Cue, style: &CaptionStyle) {
    let line_pct = cue.line_pct.unwrap_or(90) as u32;
    let pos_pct = cue.position_pct.unwrap_or(50) as u32;
    let line_height = (GLYPH_H + 2) * style.scale;
    let mut y = (frame.height() * line_pct / 100).min(frame.height().saturating_sub(line_height));
    for text_line in cue.text.lines() {
        let w = text_width(text_line, style.scale);
        let anchor_x = frame.width() * pos_pct / 100;
        let x0 = anchor_x.saturating_sub(w / 2);
        draw_text_line(frame, text_line, x0, y, style);
        y += line_height;
        if y + line_height > frame.height() {
            break;
        }
    }
}

fn draw_text_line(frame: &mut Frame, text: &str, x0: u32, y0: u32, style: &CaptionStyle) {
    let s = style.scale;
    let w = text_width(text, s);
    if w == 0 {
        return;
    }
    // Background box with 1-glyph-pixel padding.
    let pad = s;
    let bx0 = x0.saturating_sub(pad);
    let by0 = y0.saturating_sub(pad);
    let bx1 = (x0 + w + pad).min(frame.width());
    let by1 = (y0 + GLYPH_H * s + pad).min(frame.height());
    vr_frame::draw::fill_rect(
        frame,
        vr_geom_rect(bx0, by0, bx1, by1),
        style.background,
    );
    // Glyphs.
    let mut cx = x0;
    for c in text.chars() {
        for gy in 0..GLYPH_H {
            for gx in 0..GLYPH_W {
                if pixel(c, gx, gy) {
                    for sy in 0..s {
                        for sx in 0..s {
                            let px = cx + gx * s + sx;
                            let py = y0 + gy * s + sy;
                            if px < frame.width() && py < frame.height() {
                                frame.set(px, py, style.text);
                            }
                        }
                    }
                }
            }
        }
        cx += ADVANCE * s;
    }
}

fn vr_geom_rect(x0: u32, y0: u32, x1: u32, y1: u32) -> vr_geom::Rect {
    vr_geom::Rect::new(x0 as i32, y0 as i32, x1 as i32, y1 as i32)
}

/// Build the caption overlay frame for timestamp `t`: ω everywhere
/// except the rendered active cues.
pub fn render_cues_frame(
    doc: &WebVtt,
    t: Timestamp,
    width: u32,
    height: u32,
    style: &CaptionStyle,
) -> Frame {
    let mut overlay = Frame::new(width, height); // all ω (black)
    for cue in doc.active_at(t) {
        render_cue(&mut overlay, cue, style);
    }
    overlay
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cue(text: &str, line: Option<u8>, pos: Option<u8>) -> Cue {
        Cue {
            id: None,
            start: Timestamp::ZERO,
            end: Timestamp::from_micros(1_000_000),
            line_pct: line,
            position_pct: pos,
            text: text.to_string(),
        }
    }

    fn lit_pixels(f: &Frame) -> usize {
        (0..f.height())
            .flat_map(|y| (0..f.width()).map(move |x| (x, y)))
            .filter(|&(x, y)| !f.is_omega(x, y))
            .count()
    }

    #[test]
    fn rendering_lights_pixels() {
        let doc = WebVtt { cues: vec![cue("HELLO", None, None)] };
        let f = render_cues_frame(&doc, Timestamp::ZERO, 128, 64, &CaptionStyle::default());
        assert!(lit_pixels(&f) > 100, "caption should light up pixels");
        // Inactive timestamp → blank overlay.
        let f = render_cues_frame(
            &doc,
            Timestamp::from_micros(5_000_000),
            128,
            64,
            &CaptionStyle::default(),
        );
        assert_eq!(lit_pixels(&f), 0);
    }

    #[test]
    fn line_setting_moves_vertically() {
        let style = CaptionStyle::default();
        let top = render_cues_frame(
            &WebVtt { cues: vec![cue("X", Some(10), None)] },
            Timestamp::ZERO,
            128,
            128,
            &style,
        );
        let bottom = render_cues_frame(
            &WebVtt { cues: vec![cue("X", Some(80), None)] },
            Timestamp::ZERO,
            128,
            128,
            &style,
        );
        let centroid = |f: &Frame| {
            let mut sum = 0u64;
            let mut n = 0u64;
            for y in 0..f.height() {
                for x in 0..f.width() {
                    if !f.is_omega(x, y) {
                        sum += y as u64;
                        n += 1;
                    }
                }
            }
            sum as f64 / n as f64
        };
        assert!(centroid(&top) + 40.0 < centroid(&bottom));
    }

    #[test]
    fn position_setting_moves_horizontally() {
        let style = CaptionStyle::default();
        let left = render_cues_frame(
            &WebVtt { cues: vec![cue("X", None, Some(15))] },
            Timestamp::ZERO,
            256,
            64,
            &style,
        );
        let right = render_cues_frame(
            &WebVtt { cues: vec![cue("X", None, Some(85))] },
            Timestamp::ZERO,
            256,
            64,
            &style,
        );
        let centroid = |f: &Frame| {
            let mut sum = 0u64;
            let mut n = 0u64;
            for y in 0..f.height() {
                for x in 0..f.width() {
                    if !f.is_omega(x, y) {
                        sum += x as u64;
                        n += 1;
                    }
                }
            }
            sum as f64 / n as f64
        };
        assert!(centroid(&left) + 100.0 < centroid(&right));
    }

    #[test]
    fn multi_line_cues_render_both_lines() {
        let style = CaptionStyle::default();
        let one = render_cues_frame(
            &WebVtt { cues: vec![cue("AAAA", Some(10), None)] },
            Timestamp::ZERO,
            128,
            128,
            &style,
        );
        let two = render_cues_frame(
            &WebVtt { cues: vec![cue("AAAA\nBBBB", Some(10), None)] },
            Timestamp::ZERO,
            128,
            128,
            &style,
        );
        assert!(lit_pixels(&two) > lit_pixels(&one) + 100);
    }

    #[test]
    fn off_frame_text_is_clipped_not_panicking() {
        let style = CaptionStyle { scale: 4, ..Default::default() };
        let doc = WebVtt {
            cues: vec![cue("A VERY LONG CAPTION THAT EXCEEDS THE FRAME WIDTH", None, Some(100))],
        };
        let f = render_cues_frame(&doc, Timestamp::ZERO, 64, 32, &style);
        let _ = lit_pixels(&f); // must not panic
    }
}
