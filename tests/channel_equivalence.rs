//! Jones ↔ scalar channel equivalence: the full-polarimetric channel
//! must *reduce* to the legacy cos²β coupling on every rig the paper
//! (and every committed artifact) actually uses — broadside mounted,
//! linearly co-polarized antennas with empirical reflectors.
//!
//! Three layers:
//!
//! * **Link-level sweep** — over a derived-seed family of PolarDraw
//!   rigs (γ, spacing, standoff varied; some with a walking bystander),
//!   the Jones channel's RSS/phase/forward power agree with the scalar
//!   path within 1e-12 at every sampled tag pose on both ports, and the
//!   power gate decision is identical.
//! * **Trail parity** — a full-fidelity letter-L trial under
//!   `--channel jones` reproduces the `--channel scalar` report stream
//!   and recovered trail bit-for-bit (the reader's 0.5 dB RSSI and
//!   12-bit phase quantization absorb the sub-1e-12 ulp dust).
//! * **Non-degeneracy** — the Jones channel is not a no-op: a circular
//!   reader-polarization override produces a genuinely different link.
//!
//! A fourth test pins the link model itself: every link recorded in
//! `tests/snapshots/channel_links.json` must evaluate to the recorded
//! observables bit for bit. The snapshot covers every branch of the
//! forward model and is never regenerated.

use experiments::setup::{rig_for, run_trial, TrialSetup};
use pen_sim::scene::ChannelMode;
use rf_core::json::Json;
use rf_core::rng::{derive_seed_indexed, rng_from_seed, Rng64};
use rf_core::Vec3;
use rf_physics::channel::pol_axis_at;
use rf_physics::RigFactors;
use rf_physics::{
    Antenna, Bystander, BystanderMotion, ChannelModel, ChannelPlan, LinkObservation, PolState,
    Polarimetry, Polarization, Surface, TagPolarization,
};
use std::f64::consts::FRAC_PI_2;

const TOL: f64 = 1e-12;

/// Assert two dB quantities agree within TOL, treating a shared −inf
/// (both paths below the amplitude floor) as equal.
fn assert_db_close(a: f64, b: f64, what: &str, ctx: &str) {
    if a == f64::NEG_INFINITY && b == f64::NEG_INFINITY {
        return;
    }
    assert!(
        (a - b).abs() <= TOL,
        "{what} diverged: scalar {a:.15} vs jones {b:.15} ({ctx})"
    );
}

/// One broadside linear-copolarized rig drawn from the derived-seed
/// family: the paper's two-antenna whiteboard geometry with γ ∈
/// [5°, 40°], spacing ∈ [0.3, 0.8] m, standoff ∈ [0.2, 1.0] m.
fn sampled_rig(rng: &mut Rng64, with_bystander: bool) -> ChannelModel {
    let gamma = rng.gen_range(5.0..40.0).to_radians();
    let spacing = rng.gen_range(0.3..0.8);
    let standoff = rng.gen_range(0.2..1.0);
    let mut ch = ChannelModel::two_antenna_whiteboard(gamma, spacing, standoff);
    if with_bystander {
        ch.bystander = Some(Bystander {
            position: Vec3::new(rng.gen_range(-0.5..0.5), 1.0, rng.gen_range(1.0..2.0)),
            motion: BystanderMotion::Walking { amplitude_m: 0.5, frequency_hz: 0.6 },
            scattering: 0.2,
            depolarization: rng.gen_range(0.0..1.0),
        });
    }
    ch
}

/// Random tag pose in the writing volume: position near the board,
/// unit dipole in a random transverse-ish direction.
fn sampled_pose(rng: &mut Rng64) -> (Vec3, Vec3) {
    let pos = Vec3::new(
        rng.gen_range(-0.3..0.3),
        rng.gen_range(0.5..1.0),
        rng.gen_range(-0.05..0.05),
    );
    let dipole = loop {
        let v = Vec3::new(
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        );
        if let Some(u) = v.normalized() {
            break u;
        }
    };
    (pos, dipole)
}

#[test]
fn jones_matches_scalar_on_every_broadside_rig() {
    let master = 20_260_808u64;
    for rig_idx in 0..12u64 {
        let seed = derive_seed_indexed(master, "equiv-rig", rig_idx);
        let mut rng = rng_from_seed(seed);
        let with_bystander = rig_idx % 3 == 2;
        let scalar_ch = sampled_rig(&mut rng, with_bystander);
        let mut jones_ch = scalar_ch.clone();
        jones_ch.polarimetry = Polarimetry::Jones;
        let scalar = RigFactors::freeze(&scalar_ch);
        let jones = RigFactors::freeze(&jones_ch);

        for sample in 0..40 {
            let (pos, dipole) = sampled_pose(&mut rng);
            let t = rng.gen_range(0.0..5.0);
            for port in 0..scalar_ch.antenna_count() {
                let s = scalar.evaluate(port, pos, dipole, t);
                let j = jones.evaluate(port, pos, dipole, t);
                let ctx = format!(
                    "rig {rig_idx}, sample {sample}, port {port}, \
                     bystander={with_bystander}, pos={pos:?}"
                );
                assert_db_close(s.rx_power_dbm, j.rx_power_dbm, "rx_power_dbm", &ctx);
                assert_db_close(s.forward_power_dbm, j.forward_power_dbm, "forward_power_dbm", &ctx);
                assert_eq!(s.tag_powered, j.tag_powered, "power gate flipped ({ctx})");
                if s.rx_power_dbm.is_finite() {
                    assert!(
                        (s.phase_rad - j.phase_rad).abs() <= TOL,
                        "phase diverged: {} vs {} ({ctx})",
                        s.phase_rad,
                        j.phase_rad
                    );
                }
            }
        }
    }
}

#[test]
fn letter_trail_parity_between_scalar_and_jones() {
    // The end-to-end form of the reduction: `repro --channel jones`
    // must reproduce the committed scalar artifacts bit-for-bit on the
    // stock rig. Full fidelity, no cell coarsening.
    let scalar = run_trial(&TrialSetup::letter('L'), 42);
    let jones = run_trial(&TrialSetup::letter('L').with_channel(ChannelMode::Jones), 42);
    assert_eq!(scalar.reports, jones.reports, "report streams must be bit-identical");
    assert_eq!(scalar.trail.points, jones.trail.points);
    assert_eq!(scalar.trail.times, jones.trail.times);
}

#[test]
fn jones_channel_is_not_a_no_op() {
    // Guard against a vacuous equivalence: under a reader-polarization
    // override only the Jones path can express, the link must actually
    // change.
    let linear = TrialSetup::letter('L').with_channel(ChannelMode::Jones);
    let circular = linear
        .clone()
        .with_reader_pol(PolState::Circular { right_handed: true });
    let pos = Vec3::new(0.0, 0.72, 0.0);
    let a = RigFactors::freeze(&rig_for(&linear)).evaluate(0, pos, Vec3::Y, 0.0);
    let b = RigFactors::freeze(&rig_for(&circular)).evaluate(0, pos, Vec3::Y, 0.0);
    assert!(
        (a.rx_power_dbm - b.rx_power_dbm).abs() > 0.5,
        "circular override changed nothing: {} vs {}",
        a.rx_power_dbm,
        b.rx_power_dbm
    );
}

// ---------------------------------------------------------------------
// The link snapshot: every branch of the forward model, bit for bit.
// ---------------------------------------------------------------------

/// The rig variants the snapshot covers, each run under both
/// polarimetries: linear, circular and elliptical reader states,
/// Empirical and Fresnel reflectors, static and walking bystanders,
/// Dipole and Reconfigurable tags, fixed and hopping carrier plans.
fn snapshot_variants() -> Vec<(&'static str, ChannelModel)> {
    let gamma = 15f64.to_radians();
    let whiteboard = || ChannelModel::two_antenna_whiteboard(gamma, 0.56, 0.30);
    let standing = Bystander {
        position: Vec3::new(-0.3, 0.9, 1.2),
        motion: BystanderMotion::Static,
        scattering: 0.25,
        depolarization: 0.4,
    };
    let walking = Bystander {
        position: Vec3::new(0.2, 1.0, 1.4),
        motion: BystanderMotion::Walking { amplitude_m: 0.5, frequency_hz: 0.6 },
        scattering: 0.2,
        depolarization: 0.7,
    };
    let fresnel = |ch: &mut ChannelModel| {
        ch.reflectors[0].surface = Surface::Fresnel { rel_permittivity: 4.0 };
        ch.reflectors[2].surface = Surface::Fresnel { rel_permittivity: 2.5 };
    };
    let circular_and_elliptical = |ch: &mut ChannelModel| {
        ch.antennas[0].polarization = Polarization::Circular;
        ch.antennas[1].polarization = Polarization::Jones {
            axis: pol_axis_at(FRAC_PI_2 - gamma),
            state: PolState::Elliptical { psi_rad: 0.3, chi_rad: 0.2 },
        };
    };
    let hopping = |ch: &mut ChannelModel, seed| ch.plan = ChannelPlan::hopping_from_seed(seed, 0.2);

    let paper = whiteboard();

    let mut fresnel_standing = whiteboard();
    fresnel(&mut fresnel_standing);
    fresnel_standing.bystander = Some(standing);
    fresnel_standing.tag = TagPolarization::Reconfigurable;

    let mut linear_hopping = whiteboard();
    linear_hopping.bystander = Some(walking);
    hopping(&mut linear_hopping, 3);

    let mut states_walking = whiteboard();
    circular_and_elliptical(&mut states_walking);
    states_walking.bystander = Some(walking);

    let mut states_everything = whiteboard();
    circular_and_elliptical(&mut states_everything);
    fresnel(&mut states_everything);
    states_everything.bystander = Some(walking);
    states_everything.tag = TagPolarization::Reconfigurable;
    hopping(&mut states_everything, 11);

    let mut states_standing = whiteboard();
    circular_and_elliptical(&mut states_standing);
    states_standing.bystander = Some(standing);
    states_standing.plan = ChannelPlan::Fixed(3);

    vec![
        ("linear/empirical/dipole/fixed", paper),
        ("linear/fresnel/standing/reconfigurable/fixed", fresnel_standing),
        ("linear/empirical/walking/dipole/hopping", linear_hopping),
        ("states/empirical/walking/dipole/fixed", states_walking),
        ("states/fresnel/walking/reconfigurable/hopping", states_everything),
        ("states/empirical/standing/dipole/fixed3", states_standing),
    ]
}

/// A single downward-looking antenna in free space: the degenerate
/// corners (crossed dipole with no multipath, the back hemisphere, a
/// zero dipole) where the observables leave the finite range.
fn free_space_edge() -> ChannelModel {
    ChannelModel::free_space(vec![Antenna::linear(Vec3::new(0.0, 0.0, 1.0), -Vec3::Z, Vec3::X)])
}

/// One snapshot link input: `(antenna, position, dipole, t)`.
type LinkInput = (usize, Vec3, Vec3, f64);

fn free_space_edge_poses() -> Vec<LinkInput> {
    vec![
        (0, Vec3::ZERO, Vec3::X, 0.0),
        (0, Vec3::ZERO, Vec3::Y, 0.0),
        (0, Vec3::ZERO, Vec3::ZERO, 0.0),
        (0, Vec3::new(0.0, 0.0, 2.0), Vec3::X, 0.0),
        (0, Vec3::new(0.3, -0.2, 0.1), Vec3::new(0.6, 0.8, 0.0), 1.5),
    ]
}

/// Every snapshot case: `(name, rig, links)`.
fn snapshot_cases() -> Vec<(String, ChannelModel, Vec<LinkInput>)> {
    let mut cases = Vec::new();
    for (polarimetry, label) in [(Polarimetry::Scalar, "scalar"), (Polarimetry::Jones, "jones")] {
        for (vi, (name, mut ch)) in snapshot_variants().into_iter().enumerate() {
            ch.polarimetry = polarimetry;
            let seed = derive_seed_indexed(20_261_017, label, vi as u64);
            let mut rng = rng_from_seed(seed);
            let mut links = Vec::new();
            for _ in 0..16 {
                let (pos, dipole) = sampled_pose(&mut rng);
                let t = rng.gen_range(0.0..5.0);
                for port in 0..ch.antennas.len() {
                    links.push((port, pos, dipole, t));
                }
            }
            cases.push((format!("{label}/{name}"), ch, links));
        }
        let mut edge = free_space_edge();
        edge.polarimetry = polarimetry;
        cases.push((format!("{label}/free-space-edges"), edge, free_space_edge_poses()));
    }
    cases
}

fn vec3_json(v: Vec3) -> Json {
    Json::Arr(vec![Json::num(v.x), Json::num(v.y), Json::num(v.z)])
}

/// A dB value in the snapshot: the shortest round-trip number, or
/// `null` for −∞ (the only non-finite value the link model produces).
fn db_json(x: f64) -> Json {
    assert!(x.is_finite() || x == f64::NEG_INFINITY, "unexpected non-finite dB value {x}");
    Json::num(x)
}

fn link_json(port: usize, pos: Vec3, dipole: Vec3, t: f64, obs: &LinkObservation) -> Json {
    Json::obj([
        ("antenna", Json::num(port as f64)),
        ("position", vec3_json(pos)),
        ("dipole", vec3_json(dipole)),
        ("t", Json::num(t)),
        ("forward_power_dbm", db_json(obs.forward_power_dbm)),
        ("rx_power_dbm", db_json(obs.rx_power_dbm)),
        ("phase_rad", Json::num(obs.phase_rad)),
        ("mismatch_rad", Json::num(obs.mismatch_rad)),
        ("tag_powered", Json::Bool(obs.tag_powered)),
        ("round_trip", Json::Arr(vec![Json::num(obs.round_trip.re), Json::num(obs.round_trip.im)])),
    ])
}

/// Evaluate every snapshot link through `RigFactors` and render the
/// document, one link per line.
fn links_document() -> String {
    let mut out = String::from("{\"format\":\"polardraw.channel_links.v1\",\"cases\":[\n");
    let cases = snapshot_cases();
    for (ci, (name, ch, links)) in cases.iter().enumerate() {
        out.push_str(&format!("{{\"name\":{},\"links\":[\n", Json::str(name.as_str())));
        let rig = RigFactors::freeze(ch);
        for (li, &(port, pos, dipole, t)) in links.iter().enumerate() {
            let obs = rig.evaluate(port, pos, dipole, t);
            out.push_str(&link_json(port, pos, dipole, t, &obs).to_json_string());
            out.push_str(if li + 1 < links.len() { ",\n" } else { "\n" });
        }
        out.push_str(if ci + 1 < cases.len() { "]},\n" } else { "]}\n" });
    }
    out.push_str("]}\n");
    out
}

fn snapshot_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/channel_links.json")
}

/// Compare a freshly evaluated link document with the committed one
/// line by line (one link per line), so a drift names its case and
/// link. Shortest round-trip numbers make text equality bit equality.
fn assert_matches_link_snapshot(actual: &str) {
    let expected = std::fs::read_to_string(snapshot_path()).expect("committed link snapshot");
    let mut case = "";
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        if want.starts_with("{\"name\"") {
            case = want;
        }
        assert_eq!(want, got, "link snapshot drifted at line {} ({case})", line + 1);
    }
    assert_eq!(expected.lines().count(), actual.lines().count(), "link count drifted");
}

#[test]
fn link_model_matches_the_pinned_snapshot_bitwise() {
    assert_matches_link_snapshot(&links_document());
}
