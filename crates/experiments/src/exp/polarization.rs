//! Reader polarization × tag reconfiguration under the Jones channel
//! (not in the paper).
//!
//! The cos⁴β story — and with it PolarDraw's whole rotational estimator
//! — is derived for two *linearly* polarized antennas. The Jones channel
//! can express what the scalar reduction cannot: circular or elliptical
//! reader polarization and polarization-reconfigurable tags (Fara et
//! al.). This experiment sweeps those states against two observables:
//!
//! * the **rotation null**: spin a tag dipole through the board plane at
//!   the write centre and measure the RSS swing on one port. Linear
//!   readers trace the deep cos⁴β null the paper exploits; a circular
//!   reader flattens it to the multipath ripple — the textbook scenario
//!   where cos⁴β breaks.
//! * **letter accuracy**: the flattened null destroys exactly the
//!   orientation information the decoder inverts, so the ablation also
//!   shows *why* the paper swaps the stock circular antennas out.
//!
//! Committed results live in `results/polarization.{csv,json}`.

use crate::exp::SHORT_LETTERS;
use crate::report::Report;
use crate::runner::{letter_accuracy, run_letter_trials, RunOpts};
use crate::setup::{rig_for, TrialSetup};
use pen_sim::scene::ChannelMode;
use rf_core::Vec3;
use rf_physics::channel::pol_axis_at;
use rf_physics::{PolState, RigFactors, TagPolarization};
use std::f64::consts::FRAC_PI_2;

/// One reader/tag polarization condition of the sweep.
struct Condition {
    label: &'static str,
    channel: ChannelMode,
    reader_pol: Option<PolState>,
    tag: TagPolarization,
}

fn conditions() -> Vec<Condition> {
    vec![
        Condition {
            label: "linear ±γ · fixed tag · scalar",
            channel: ChannelMode::Scalar,
            reader_pol: None,
            tag: TagPolarization::Dipole,
        },
        Condition {
            label: "linear ±γ · fixed tag · jones",
            channel: ChannelMode::Jones,
            reader_pol: None,
            tag: TagPolarization::Dipole,
        },
        Condition {
            label: "circular RH · fixed tag · jones",
            channel: ChannelMode::Jones,
            reader_pol: Some(PolState::Circular { right_handed: true }),
            tag: TagPolarization::Dipole,
        },
        Condition {
            label: "elliptical χ=22.5° · fixed tag · jones",
            channel: ChannelMode::Jones,
            reader_pol: Some(PolState::Elliptical { psi_rad: 0.0, chi_rad: 22.5f64.to_radians() }),
            tag: TagPolarization::Dipole,
        },
        Condition {
            label: "linear ±γ · reconfigurable tag · jones",
            channel: ChannelMode::Jones,
            reader_pol: None,
            tag: TagPolarization::Reconfigurable,
        },
        Condition {
            label: "circular RH · reconfigurable tag · jones",
            channel: ChannelMode::Jones,
            reader_pol: Some(PolState::Circular { right_handed: true }),
            tag: TagPolarization::Reconfigurable,
        },
    ]
}

fn setup_for(c: &Condition) -> TrialSetup {
    let mut s = TrialSetup::letter('L')
        .with_channel(c.channel)
        .with_tag_mode(c.tag);
    if let Some(state) = c.reader_pol {
        s = s.with_reader_pol(state);
    }
    s
}

/// Spin a unit dipole through the board plane at the write centre and
/// measure port 0: `(null_depth_db, blackout_fraction)`. The null depth
/// is the spread of the finite RSS samples; blackout is the fraction of
/// orientations where the forward-power gate silences the tag.
fn rotation_sweep(setup: &TrialSetup) -> (f64, f64) {
    let rig = RigFactors::freeze(&rig_for(setup));
    let write_center = Vec3::new(0.0, 0.72, 0.0);
    let steps = 36; // 5° steps through a half turn
    let mut finite: Vec<f64> = Vec::new();
    let mut blackouts = 0usize;
    for i in 0..steps {
        let beta = i as f64 / steps as f64 * std::f64::consts::PI;
        let obs = rig.evaluate(0, write_center, pol_axis_at(FRAC_PI_2 + beta), 0.0);
        if !obs.tag_powered {
            blackouts += 1;
        }
        if obs.rx_power_dbm.is_finite() {
            finite.push(obs.rx_power_dbm);
        }
    }
    let depth = match (
        finite.iter().cloned().reduce(f64::max),
        finite.iter().cloned().reduce(f64::min),
    ) {
        (Some(max), Some(min)) => max - min,
        _ => f64::INFINITY, // every orientation below the noise floor
    };
    (depth, blackouts as f64 / steps as f64)
}

/// Run the polarization-state sweep.
pub fn run(opts: &RunOpts) -> Vec<Report> {
    let mut report = Report::new(
        "polarization",
        "Reader polarization × tag reconfiguration under the Jones channel",
        "not in paper: circular reader flattens the rotation null to the multipath ripple but costs letter accuracy; reconfigurable tags clear blackouts",
    )
    .headers(vec![
        "Condition",
        "Rotation null depth (dB)",
        "Blackout (% of sweep)",
        "Letter accuracy (%)",
    ]);
    let trials_per = opts.trials.div_ceil(2).max(1);
    for (ci, cond) in conditions().iter().enumerate() {
        let base = setup_for(cond);
        let (depth, blackout) = rotation_sweep(&base);
        let conditions: Vec<(char, TrialSetup)> = SHORT_LETTERS
            .iter()
            .map(|&ch| {
                let mut s = base.clone();
                s.text = ch.to_string();
                (ch, s)
            })
            .collect();
        let trials = run_letter_trials(
            &conditions,
            trials_per,
            opts.seed.wrapping_add(900 + ci as u64),
            opts,
        );
        report.push_row(vec![
            cond.label.to_string(),
            format!("{:.1}", depth),
            format!("{:.0}", 100.0 * blackout),
            format!("{:.0}", 100.0 * letter_accuracy(&trials)),
        ]);
    }
    vec![report]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conditions_are_distinct_and_cover_both_channels() {
        let conds = conditions();
        let mut labels: Vec<&str> = conds.iter().map(|c| c.label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), conds.len());
        assert!(conds.iter().any(|c| c.channel == ChannelMode::Scalar));
        assert!(conds.iter().any(|c| c.channel == ChannelMode::Jones));
        assert!(conds.iter().any(|c| c.tag == TagPolarization::Reconfigurable));
    }

    #[test]
    fn circular_reader_flattens_the_rotation_null() {
        // The acceptance-criterion scenario: the scalar/linear rig's
        // deep rotation null collapses under a circular reader.
        let conds = conditions();
        let (linear_depth, _) = rotation_sweep(&setup_for(&conds[0]));
        let (circ_depth, circ_blackout) = rotation_sweep(&setup_for(&conds[2]));
        assert!(
            linear_depth > circ_depth + 6.0,
            "linear null {linear_depth:.1} dB must dwarf circular {circ_depth:.1} dB"
        );
        assert_eq!(circ_blackout, 0.0, "circular coupling never gates the tag off");
    }

    #[test]
    fn reconfigurable_tag_clears_linear_blackouts() {
        let conds = conditions();
        let (_, fixed_blackout) = rotation_sweep(&setup_for(&conds[1]));
        let (_, reconf_blackout) = rotation_sweep(&setup_for(&conds[4]));
        assert!(reconf_blackout <= fixed_blackout);
        assert_eq!(reconf_blackout, 0.0);
    }
}
