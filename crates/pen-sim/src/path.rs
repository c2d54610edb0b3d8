//! Timed path synthesis.
//!
//! Turns glyph strokes into a constant-speed, arc-length parameterized
//! sequence of timestamped tip positions. Multi-stroke letters (and
//! letter-to-letter gaps in words) are joined by straight "transition"
//! segments written at the same speed — the tag keeps answering during
//! pen lifts, so the tracker sees them; the recognizer's templates are
//! rendered through this same pipeline, keeping the comparison fair.

use crate::glyph::Glyph;
use rf_core::Vec2;

/// A timestamped tip position, metres / seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedPoint {
    /// Time since the start of the writing session, seconds.
    pub t: f64,
    /// Tip position on the board plane, metres.
    pub pos: Vec2,
}

/// Scale and place a glyph: unit box → a `size_m`-tall letter with its
/// top-left corner at `origin` (board metres). Letters are rendered
/// slightly narrower than tall (aspect 0.7), like natural handwriting.
pub fn place_glyph(g: &Glyph, origin: Vec2, size_m: f64) -> Vec<Vec<Vec2>> {
    let aspect = 0.7;
    g.strokes
        .iter()
        .map(|stroke| {
            stroke
                .iter()
                .map(|p| Vec2::new(origin.x + p.x * size_m * aspect, origin.y + p.y * size_m))
                .collect()
        })
        .collect()
}

/// Concatenate strokes into one continuous polyline, inserting the
/// transition segments between stroke end-points.
pub fn join_strokes(strokes: &[Vec<Vec2>]) -> Vec<Vec2> {
    let mut out: Vec<Vec2> = Vec::new();
    for stroke in strokes {
        if stroke.is_empty() {
            continue;
        }
        // The straight hop from the previous stroke's end is implicit in
        // polyline form: just append (skipping an exact duplicate point).
        for &p in stroke {
            if out.last().is_none_or(|&last| last.distance(p) > 1e-12) {
                out.push(p);
            }
        }
    }
    out
}

/// Total length of a polyline, metres.
pub fn polyline_length(points: &[Vec2]) -> f64 {
    points.windows(2).map(|w| w[0].distance(w[1])).sum()
}

/// Position along a polyline at arc length `s` (clamped to the ends).
pub fn point_at_arc_length(points: &[Vec2], s: f64) -> Option<Vec2> {
    if points.is_empty() {
        return None;
    }
    if s <= 0.0 {
        return Some(points[0]);
    }
    let mut acc = 0.0;
    for w in points.windows(2) {
        let seg = w[0].distance(w[1]);
        if acc + seg >= s && seg > 0.0 {
            return Some(w[0].lerp(w[1], (s - acc) / seg));
        }
        acc += seg;
    }
    points.last().copied()
}

/// Sample a polyline into a constant-speed timed path.
///
/// * `speed_mps` — writing speed along the ink (the paper assumes normal
///   writing stays well under its 0.2 m/s `vmax`).
/// * `dt` — sampling period, seconds (the substrate samples much faster
///   than the reader reads, so interpolation error is negligible).
/// * `t0` — timestamp of the first sample.
pub fn timed_path(points: &[Vec2], speed_mps: f64, dt: f64, t0: f64) -> Vec<TimedPoint> {
    assert!(speed_mps > 0.0 && dt > 0.0, "speed and dt must be positive");
    let total = polyline_length(points);
    if points.is_empty() {
        return Vec::new();
    }
    let duration = total / speed_mps;
    let steps = (duration / dt).ceil() as usize;
    let mut out = Vec::with_capacity(steps + 1);
    for i in 0..=steps {
        let t = i as f64 * dt;
        let s = (t * speed_mps).min(total);
        let pos = point_at_arc_length(points, s).expect("non-empty polyline");
        out.push(TimedPoint { t: t0 + t, pos });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glyph::glyph;

    #[test]
    fn place_glyph_scales_and_translates() {
        let g = glyph('I').unwrap();
        let placed = place_glyph(&g, Vec2::new(0.1, 0.6), 0.2);
        // 'I' is a vertical stroke at x = 0.5 of the unit box.
        assert!((placed[0][0].x - (0.1 + 0.5 * 0.2 * 0.7)).abs() < 1e-12);
        assert!((placed[0][0].y - 0.6).abs() < 1e-12);
        assert!((placed[0][1].y - 0.8).abs() < 1e-12);
    }

    #[test]
    fn join_strokes_dedups_shared_endpoints() {
        let strokes = vec![
            vec![Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0)],
            vec![Vec2::new(1.0, 0.0), Vec2::new(1.0, 1.0)],
        ];
        let joined = join_strokes(&strokes);
        assert_eq!(joined.len(), 3);
    }

    #[test]
    fn polyline_length_of_unit_square_path() {
        let pts = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(0.0, 1.0),
        ];
        assert!((polyline_length(&pts) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn arc_length_interpolation() {
        let pts = vec![Vec2::new(0.0, 0.0), Vec2::new(2.0, 0.0)];
        assert_eq!(point_at_arc_length(&pts, 0.5), Some(Vec2::new(0.5, 0.0)));
        assert_eq!(point_at_arc_length(&pts, -1.0), Some(Vec2::new(0.0, 0.0)));
        assert_eq!(point_at_arc_length(&pts, 99.0), Some(Vec2::new(2.0, 0.0)));
        assert_eq!(point_at_arc_length(&[], 0.0), None);
    }

    #[test]
    fn timed_path_has_constant_speed() {
        let pts = vec![Vec2::new(0.0, 0.0), Vec2::new(0.1, 0.0), Vec2::new(0.1, 0.1)];
        let tp = timed_path(&pts, 0.1, 0.01, 0.0);
        for w in tp.windows(2) {
            let v = w[0].pos.distance(w[1].pos) / (w[1].t - w[0].t);
            // Final partial step may be slower; all others at 0.1 m/s.
            assert!(v <= 0.1 + 1e-9, "speed {v}");
        }
        let mid_speeds: Vec<f64> = tp
            .windows(2)
            .take(tp.len().saturating_sub(2))
            .map(|w| w[0].pos.distance(w[1].pos) / (w[1].t - w[0].t))
            .collect();
        for v in mid_speeds {
            assert!((v - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn timed_path_duration_matches_length_over_speed() {
        let g = glyph('W').unwrap();
        let placed = place_glyph(&g, Vec2::new(0.0, 0.5), 0.2);
        let joined = join_strokes(&placed);
        let len = polyline_length(&joined);
        let tp = timed_path(&joined, 0.08, 0.005, 1.0);
        let dur = tp.last().unwrap().t - tp.first().unwrap().t;
        assert!((dur - len / 0.08).abs() < 0.01, "dur {dur} len/v {}", len / 0.08);
        assert_eq!(tp.first().unwrap().t, 1.0);
    }

    #[test]
    fn timed_path_reaches_both_endpoints() {
        let pts = vec![Vec2::new(0.0, 0.0), Vec2::new(0.05, 0.07)];
        let tp = timed_path(&pts, 0.1, 0.013, 0.0);
        assert_eq!(tp.first().unwrap().pos, pts[0]);
        assert!(tp.last().unwrap().pos.distance(pts[1]) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_speed_panics() {
        timed_path(&[Vec2::ZERO], 0.0, 0.01, 0.0);
    }
}
