//! Drawing primitives: filled and outlined rectangles on frames. Used
//! for bounding-box rendering (Q2c/Q6a), caption backgrounds (Q6b),
//! and by the software renderer.

use crate::color::Yuv;
use crate::frame::Frame;
use vr_geom::Rect;

/// Fill `rect` (clipped to the frame) with a solid color.
pub fn fill_rect(frame: &mut Frame, rect: Rect, color: Yuv) {
    let r = rect.clipped(frame.width(), frame.height());
    if r.is_empty() {
        return;
    }
    for y in r.y0 as u32..r.y1 as u32 {
        for x in r.x0 as u32..r.x1 as u32 {
            frame.set_y(x, y, color.y);
        }
    }
    // Chroma: cover every 2x2 block the rectangle touches.
    let (cw, ch) = frame.chroma_dims();
    let cx0 = (r.x0 as u32 / 2).min(cw);
    let cy0 = (r.y0 as u32 / 2).min(ch);
    let cx1 = ((r.x1 as u32).div_ceil(2)).min(cw);
    let cy1 = ((r.y1 as u32).div_ceil(2)).min(ch);
    for cy in cy0..cy1 {
        for cx in cx0..cx1 {
            frame.set_u(cx, cy, color.u);
            frame.set_v(cx, cy, color.v);
        }
    }
}

/// Draw a rectangle outline of the given `thickness` (grown inward).
pub fn outline_rect(frame: &mut Frame, rect: Rect, color: Yuv, thickness: u32) {
    let t = thickness.max(1) as i32;
    let r = rect;
    // Top, bottom, left, right bars.
    fill_rect(frame, Rect::new(r.x0, r.y0, r.x1, r.y0 + t), color);
    fill_rect(frame, Rect::new(r.x0, r.y1 - t, r.x1, r.y1), color);
    fill_rect(frame, Rect::new(r.x0, r.y0, r.x0 + t, r.y1), color);
    fill_rect(frame, Rect::new(r.x1 - t, r.y0, r.x1, r.y1), color);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_rect_clips() {
        let mut f = Frame::new(8, 8);
        fill_rect(&mut f, Rect::new(-4, -4, 4, 4), Yuv::new(200, 60, 60));
        assert_eq!(f.get(0, 0), Yuv::new(200, 60, 60));
        assert_eq!(f.get(3, 3), Yuv::new(200, 60, 60));
        assert!(f.is_omega(4, 4));
        // Entirely off-frame: no-op.
        fill_rect(&mut f, Rect::new(100, 100, 120, 120), Yuv::new(1, 1, 1));
    }

    #[test]
    fn outline_leaves_interior() {
        let mut f = Frame::new(16, 16);
        outline_rect(&mut f, Rect::new(2, 2, 14, 14), Yuv::new(255, 128, 128), 2);
        assert_eq!(f.get_y(2, 2), 255);
        assert_eq!(f.get_y(13, 13), 255);
        assert_eq!(f.get_y(8, 8), 0, "interior must stay untouched");
        assert_eq!(f.get_y(8, 3), 255, "top bar");
        assert_eq!(f.get_y(3, 8), 255, "left bar");
    }
}
