//! Emission-table build and rig-frozen link gates (tier-1, named in
//! scripts/verify.sh).
//!
//! The decoder's Δθ emission tables are built row by row on SoA
//! distance kernels (`polardraw_core::distance`). Two contracts are
//! pinned here:
//!
//! 1. **f64 bitwise** — `EmissionTable::build` equals the per-cell
//!    `expected_dtheta21` spec bit for bit, at every worker count. The
//!    fast kernel's `f32` table is this table cast per cell
//!    (`EmissionTableF32::from_table`); its oracles live in
//!    `tests/golden.rs` and `tests/kernel_equivalence.rs`.
//! 2. **Per-link bitwise** — over two derived-seed whiteboard-rig
//!    families (scalar, incl. reconfigurable tags; Jones, incl.
//!    circular readers), `RigFactors::evaluate` reproduces the
//!    observables recorded from the per-link `ChannelModel` bodies it
//!    replaced, bit for bit.
//!
//! The branch-by-branch link snapshot lives in
//! `tests/channel_equivalence.rs`.

use polardraw_core::distance::expected_dtheta21;
use polardraw_core::hmm::{EmissionTable, Grid};
use rf_core::json::Json;
use rf_core::rng::{derive_seed_indexed, rng_from_seed, Rng64};
use rf_core::{Vec2, Vec3};
use rf_physics::{
    Bystander, BystanderMotion, ChannelModel, LinkObservation, Polarimetry, Polarization,
    RigFactors, TagPolarization,
};

// ---------------------------------------------------------------------
// 1. Emission builds on the row kernels: bitwise at every worker count.
// ---------------------------------------------------------------------

fn paper_rig() -> ([Vec3; 2], Grid) {
    let antennas = [Vec3::new(-0.28, 0.15, 0.65), Vec3::new(0.28, 0.15, 0.65)];
    let grid = Grid::covering(Vec2::new(-0.45, 0.35), Vec2::new(0.45, 1.05), 0.01);
    (antennas, grid)
}

/// The paper board (71 rows) and a 3-row strip of it: the worker
/// counts below run under the row count on the first and up to and
/// past it on the second, where the row-band helper clamps them.
fn emission_grids() -> [Grid; 2] {
    let (_, grid) = paper_rig();
    [grid, Grid { ny: 3, ..grid }]
}

const EMISSION_WORKERS: [usize; 4] = [2, 3, 4, 8];

#[test]
fn emission_build_is_bitwise_vs_per_cell_spec_at_all_worker_counts() {
    let (antennas, _) = paper_rig();
    let lambda = 0.3276;
    for grid in emission_grids() {
        let rows = grid.ny;
        let seq = EmissionTable::build(&grid, antennas, lambda, 1);
        assert_eq!(seq.len(), grid.len());
        for idx in 0..grid.len() {
            let want = expected_dtheta21(grid.center(idx), antennas, lambda);
            assert_eq!(want.to_bits(), seq.expected(idx).to_bits(), "{rows} rows cell {idx}");
        }
        for workers in EMISSION_WORKERS {
            let par = EmissionTable::build(&grid, antennas, lambda, workers);
            assert_eq!(par.len(), grid.len());
            for idx in 0..grid.len() {
                assert_eq!(
                    seq.expected(idx).to_bits(),
                    par.expected(idx).to_bits(),
                    "{rows} rows, workers {workers}, cell {idx}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. The link model vs the per-link channel it replaced: bitwise.
// ---------------------------------------------------------------------
//
// `RigFactors::evaluate` took over from the per-link `ChannelModel`
// bodies. `tests/snapshots/channel_per_link_{scalar,jones}.json` hold
// the observables those bodies produced on two derived-seed rig
// families; the families are re-drawn here from the same seeds, and
// every link must evaluate to the recorded bits. Like the link
// snapshot, these files are never regenerated.

const MASTER: u64 = 20_260_808;

/// Whiteboard-rig family: γ ∈ [5°, 40°], spacing ∈ [0.3, 0.8] m,
/// standoff ∈ [0.2, 1.0] m, optionally with a walking bystander.
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

/// Random tag pose in the writing volume.
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

/// One link input: `(antenna, position, dipole, t)`.
type LinkInput = (usize, Vec3, Vec3, f64);

/// The scalar family: 12 rigs (every third with a walking bystander,
/// every fourth with a reconfigurable tag), 40 poses per port.
fn scalar_family() -> Vec<(String, ChannelModel, Vec<LinkInput>)> {
    let mut cases = Vec::new();
    for rig_idx in 0..12u64 {
        let seed = derive_seed_indexed(MASTER, "batch-rig", rig_idx);
        let mut rng = rng_from_seed(seed);
        let mut ch = sampled_rig(&mut rng, rig_idx % 3 == 2);
        if rig_idx % 4 == 3 {
            ch.tag = TagPolarization::Reconfigurable;
        }
        for port in 0..ch.antenna_count() {
            let links = (0..40)
                .map(|_| {
                    let (pos, dipole) = sampled_pose(&mut rng);
                    (port, pos, dipole, rng.gen_range(0.0..5.0))
                })
                .collect();
            cases.push((format!("rig {rig_idx} port {port}"), ch.clone(), links));
        }
    }
    cases
}

/// The Jones family: 8 rigs (every third with a walking bystander,
/// every other with a circular reader on port 0), 40 poses on both
/// ports.
fn jones_family() -> Vec<(String, ChannelModel, Vec<LinkInput>)> {
    let mut cases = Vec::new();
    for rig_idx in 0..8u64 {
        let seed = derive_seed_indexed(MASTER, "batch-jones-link", rig_idx);
        let mut rng = rng_from_seed(seed);
        let mut ch = sampled_rig(&mut rng, rig_idx % 3 == 2);
        ch.polarimetry = Polarimetry::Jones;
        if rig_idx % 2 == 1 {
            ch.antennas[0].polarization = Polarization::Circular;
        }
        let mut links = Vec::new();
        for _ in 0..40 {
            let (pos, dipole) = sampled_pose(&mut rng);
            let t = rng.gen_range(0.0..5.0);
            for port in 0..ch.antenna_count() {
                links.push((port, pos, dipole, t));
            }
        }
        cases.push((format!("rig {rig_idx}"), ch, links));
    }
    cases
}

/// One link's observables, as a JSON array `[forward, rx, phase,
/// mismatch, powered]`. dB values may be −∞ (rendered `null`); nothing
/// else may leave the finite range.
fn observation_json(obs: &LinkObservation) -> Json {
    for (what, x) in [("forward", obs.forward_power_dbm), ("rx", obs.rx_power_dbm)] {
        assert!(x.is_finite() || x == f64::NEG_INFINITY, "unexpected {what} power {x}");
    }
    for (what, x) in [("phase", obs.phase_rad), ("mismatch", obs.mismatch_rad)] {
        assert!(x.is_finite(), "unexpected {what} {x}");
    }
    Json::Arr(vec![
        Json::num(obs.forward_power_dbm),
        Json::num(obs.rx_power_dbm),
        Json::num(obs.phase_rad),
        Json::num(obs.mismatch_rad),
        Json::Bool(obs.tag_powered),
    ])
}

/// Evaluate a family through the rig-frozen link model and render it,
/// one link per line.
fn family_document(family: &str, cases: &[(String, ChannelModel, Vec<LinkInput>)]) -> String {
    let mut out = format!(
        "{{\"format\":\"polardraw.channel_per_link.v1\",\"family\":{},\"cases\":[\n",
        Json::str(family)
    );
    for (ci, (name, ch, links)) in cases.iter().enumerate() {
        out.push_str(&format!("{{\"name\":{},\"links\":[\n", Json::str(name.as_str())));
        let rig = RigFactors::freeze(ch);
        for (li, &(port, pos, dipole, t)) in links.iter().enumerate() {
            let obs = rig.evaluate(port, pos, dipole, t);
            out.push_str(&observation_json(&obs).to_json_string());
            out.push_str(if li + 1 < links.len() { ",\n" } else { "\n" });
        }
        out.push_str(if ci + 1 < cases.len() { "]},\n" } else { "]}\n" });
    }
    out.push_str("]}\n");
    out
}

/// Compare a family document with its committed per-link record line
/// by line, so a drift names its rig and link. Shortest round-trip
/// numbers make text equality bit equality.
fn assert_matches_per_link_record(family: &str, actual: &str) {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/snapshots/channel_per_link_{family}.json"));
    let expected = std::fs::read_to_string(&path).expect("committed per-link record");
    let mut case = "";
    let mut link = 0usize;
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        if want.starts_with("{\"name\"") {
            case = want;
            link = 0;
        } else if want.starts_with('[') {
            link += 1;
        }
        assert_eq!(want, got, "{family} line {} ({case} link {link}) left the per-link bits", line + 1);
    }
    assert_eq!(expected.lines().count(), actual.lines().count(), "{family} link count drifted");
}

#[test]
fn scalar_batch_is_bitwise_vs_per_link_channel() {
    assert_matches_per_link_record("scalar", &family_document("scalar", &scalar_family()));
}

/// The rig-frozen link is bitwise for the Jones polarimetry too: this
/// is what the simulator's report generation rides on under
/// `--channel jones`.
#[test]
fn frozen_single_link_is_bitwise_for_jones() {
    assert_matches_per_link_record("jones", &family_document("jones", &jones_family()));
}
