//! The tracker interface shared by PolarDraw and the baseline systems.
//!
//! A trajectory tracker consumes an LLRP report stream (plus whatever
//! geometry it was constructed with) and produces a 2-D pen trail in
//! board coordinates. Keeping the trait here — next to [`TagReport`] —
//! lets `polardraw-core` and `baselines` stay independent of each other
//! while the `experiments` harness drives them interchangeably.
//!
//! The report streams trackers consume come out of [`crate::Reader`]'s
//! inventory loops, which freeze the rig once per call and evaluate
//! every round through `rf_physics::RigFactors`, the one link
//! evaluator, on any carrier plan.

use crate::TagReport;
use rf_core::Vec2;

/// A recovered pen trail: timestamped planar points.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trail {
    /// Timestamps, seconds.
    pub times: Vec<f64>,
    /// Recovered positions, metres (board frame).
    pub points: Vec<Vec2>,
}

impl Trail {
    /// Build from parallel vectors.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn new(times: Vec<f64>, points: Vec<Vec2>) -> Trail {
        assert_eq!(times.len(), points.len(), "times/points length mismatch");
        Trail { times, points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the trail is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total path length, metres.
    pub fn ink_length(&self) -> f64 {
        self.points.windows(2).map(|w| w[0].distance(w[1])).sum()
    }
}

/// Anything that can turn a report stream into a pen trail.
pub trait TrajectoryTracker {
    /// Human-readable system name (used in experiment tables).
    fn name(&self) -> &str;

    /// Number of reader antennas this instance assumes.
    fn antenna_count(&self) -> usize;

    /// Recover the pen trail from a report stream.
    fn track(&self, reports: &[TagReport]) -> Trail;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Centroid;

    impl TrajectoryTracker for Centroid {
        fn name(&self) -> &str {
            "centroid-stub"
        }
        fn antenna_count(&self) -> usize {
            1
        }
        fn track(&self, reports: &[TagReport]) -> Trail {
            let times = reports.iter().map(|r| r.t).collect();
            let points = reports.iter().map(|_| Vec2::ZERO).collect();
            Trail::new(times, points)
        }
    }

    #[test]
    fn trait_objects_work() {
        let tracker: Box<dyn TrajectoryTracker> = Box::new(Centroid);
        let reports = vec![TagReport {
            t: 0.0,
            antenna: 0,
            rssi_dbm: -40.0,
            phase_rad: 0.0,
            channel: 0,
            epc: 1,
        }];
        let trail = tracker.track(&reports);
        assert_eq!(trail.len(), 1);
        assert_eq!(tracker.name(), "centroid-stub");
    }

    #[test]
    fn trail_ink_length() {
        let trail = Trail::new(
            vec![0.0, 1.0, 2.0],
            vec![Vec2::new(0.0, 0.0), Vec2::new(0.03, 0.04), Vec2::new(0.03, 0.04)],
        );
        assert!((trail.ink_length() - 0.05).abs() < 1e-12);
        assert!(!trail.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        Trail::new(vec![0.0], vec![]);
    }
}
