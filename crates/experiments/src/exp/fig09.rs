//! Figure 9 / Table 3: two-antenna RSS trends during pen rotation
//! (γ = 30°).
//!
//! A scripted azimuth sweep (clockwise 150°→30°, then back) replaces the
//! human wrist so every window has a known true sector and rotation
//! sense; the experiment reports how often the Table 3 classifier
//! recovers them from the *measured* RSS trends.

use crate::report::Report;
use crate::runner::RunOpts;
use crate::setup::to_tag_poses;
use pen_sim::kinematics::{PenPose, WristModel};
use polardraw_core::model::{classify_rss_trend, Rotation, Sector};
use rf_core::Vec3;
use rf_physics::ChannelModel;
use rfid_sim::{Reader, TagReport};

const GAMMA_DEG: f64 = 30.0;

/// Scripted azimuth sweep under the whiteboard rig.
fn sweep_poses() -> Vec<PenPose> {
    let tip = Vec3::new(0.0, 0.7, 0.0);
    let dt = 0.002;
    let rate = 120f64.to_radians(); // matches wrist-transition speed (~6°/window)
    let (lo, hi) = (30f64.to_radians(), 150f64.to_radians());
    let mut poses = Vec::new();
    let mut t = 0.0;
    // Clockwise leg then counter-clockwise leg.
    for (from, dir) in [(hi, -1.0), (lo, 1.0)] {
        let duration = (hi - lo) / rate;
        let steps = (duration / dt) as usize;
        for i in 0..steps {
            let a = from + dir * rate * (i as f64 * dt);
            poses.push(PenPose {
                t,
                tip,
                dipole: WristModel::dipole_from_angles(a, 30f64.to_radians()),
                azimuth: a,
                elevation: 30f64.to_radians(),
            });
            t += dt;
        }
    }
    poses
}

/// The scripted sweep's poses and the report stream the reader returns
/// for them at `seed`.
pub fn sweep_stream(seed: u64) -> (Vec<PenPose>, Vec<TagReport>) {
    let channel = ChannelModel::two_antenna_whiteboard(GAMMA_DEG.to_radians(), 0.56, 0.30);
    let poses = sweep_poses();
    let reports = Reader::new(channel).inventory(&to_tag_poses(&poses), seed);
    (poses, reports)
}

/// Run the trend-classification audit.
pub fn run(opts: &RunOpts) -> Vec<Report> {
    let gamma = GAMMA_DEG.to_radians();
    let (poses, reports) = sweep_stream(opts.seed);

    // Window RSS per antenna (50 ms).
    let windows = polardraw_core::preprocess::preprocess(
        &reports,
        &polardraw_core::preprocess::PreprocessConfig::default(),
    );

    let true_state = |t: f64| -> (Sector, Rotation) {
        let idx = poses.iter().position(|p| p.t >= t).unwrap_or(poses.len() - 1);
        let a = poses[idx].azimuth;
        let prev = poses[idx.saturating_sub(10)].azimuth;
        let rot = if a < prev { Rotation::Clockwise } else { Rotation::CounterClockwise };
        (Sector::of_azimuth(a, gamma), rot)
    };

    let mut per_sector: std::collections::HashMap<&'static str, (usize, usize)> =
        std::collections::HashMap::new();
    for pair in windows.windows(2) {
        let (Some(a0), Some(b0), Some(a1), Some(b1)) =
            (pair[0].rssi[0], pair[0].rssi[1], pair[1].rssi[0], pair[1].rssi[1])
        else {
            continue;
        };
        let (ds1, ds2) = (a1 - a0, b1 - b0);
        if ds1.abs() < 0.8 || ds2.abs() < 0.8 {
            continue; // below the sign-confidence floor
        }
        let Some((sector, rotation)) = classify_rss_trend(ds1, ds2) else { continue };
        let (true_sector, true_rot) = true_state(pair[1].t);
        let key = match true_sector {
            Sector::One => "Sector 1",
            Sector::Two => "Sector 2",
            Sector::Three => "Sector 3",
        };
        let entry = per_sector.entry(key).or_insert((0, 0));
        entry.1 += 1;
        if sector == true_sector && rotation == true_rot {
            entry.0 += 1;
        }
    }

    let mut report = Report::new(
        "fig09",
        "Table 3 sector/direction decoding from measured RSS trends (γ = 30°)",
        "RSS trends separate the three sectors and both rotation senses",
    )
    .headers(vec!["True sector", "Classified windows", "Correct (sector+sense)", "Rate (%)"]);
    let mut keys: Vec<&&str> = per_sector.keys().collect();
    keys.sort();
    for key in keys {
        let (ok, total) = per_sector[*key];
        report.push_row(vec![
            key.to_string(),
            total.to_string(),
            ok.to_string(),
            format!("{:.0}", 100.0 * ok as f64 / total.max(1) as f64),
        ]);
    }
    vec![report]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_sectors_both_ways() {
        let poses = sweep_poses();
        let gamma = GAMMA_DEG.to_radians();
        let sectors: std::collections::HashSet<_> = poses
            .iter()
            .map(|p| format!("{:?}", Sector::of_azimuth(p.azimuth, gamma)))
            .collect();
        assert_eq!(sectors.len(), 3, "sweep must visit all three sectors");
        // Azimuth goes down then up.
        let n = poses.len();
        assert!(poses[n / 4].azimuth > poses[n / 2 - 10].azimuth);
        assert!(poses[3 * n / 4].azimuth > poses[n / 2 + 10].azimuth);
    }
}
