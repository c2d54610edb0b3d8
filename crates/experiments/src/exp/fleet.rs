//! Multi-session serving sweep: a fleet of pens on one rig through a
//! one-shard `polardraw_core::fleet::FleetRouter` (not in the paper).
//!
//! The paper's §3.5 real-time claim covers one pen; the ROADMAP's
//! north star is many concurrent sessions. This experiment sweeps the
//! session count and reports what the serving layer *does* —
//! wake/skip behaviour, artifact sharing, and the determinism check
//! against per-session sequential runs. The table's columns are
//! deterministic (reruns are byte-identical, like every other
//! committed result); wall-clock throughput lives in the notes because
//! it is a property of the measurement host, and the committed
//! throughput baseline lives in `BENCH_throughput.json` (see
//! `scripts/bench.sh`).

use crate::report::Report;
use crate::runner::RunOpts;
use crate::setup::{polardraw_config_for, simulate_reports, TrialSetup};
use polardraw_core::fleet::{FleetConfig, FleetRouter};
use polardraw_core::{OnlineOptions, OnlineTracker, TrackOutput};
use rfid_sim::faults::FaultPlan;
use rfid_sim::TagReport;
use std::sync::Arc;
use std::time::Instant;

/// The swept fleet sizes.
pub const SESSIONS: [usize; 4] = [1, 2, 4, 8];

/// The letters the fleet cycles through (same rig: the board depends
/// only on the letter count, so every session shares one config).
const LETTERS: [char; 4] = ['L', 'S', 'W', 'Z'];

fn fleet_streams(n: usize, opts: &RunOpts) -> Vec<Vec<TagReport>> {
    (0..n)
        .map(|i| {
            let mut setup = TrialSetup::letter(LETTERS[i % LETTERS.len()]);
            setup.cell_scale *= opts.cell_scale;
            if i % 2 == 1 {
                setup.faults = Some(FaultPlan::flaky_office());
            }
            let seed = rf_core::rng::derive_seed_indexed(opts.seed, "fleet.pen", i as u64);
            simulate_reports(&setup, seed).1
        })
        .collect()
}

fn outputs_equal(a: &TrackOutput, b: &TrackOutput) -> bool {
    a.trail.points.len() == b.trail.points.len()
        && a.trail.points.iter().zip(&b.trail.points).all(|(p, q)| {
            p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits()
        })
        && a.decode_stats == b.decode_stats
}

/// Run the session-count sweep.
pub fn run(opts: &RunOpts) -> Vec<Report> {
    let mut report = Report::new(
        "fleet",
        "Multi-session serving: fleet size vs pool behaviour on one rig",
        "not in the paper; the serving layer for the ROADMAP's many-user \
         north star — shared decode artifacts plus a session worker pool",
    )
    .headers(vec![
        "Sessions".to_string(),
        "Reports".to_string(),
        "Drains".to_string(),
        "Wakes".to_string(),
        "Idle skips".to_string(),
        "Points".to_string(),
        "Shared table".to_string(),
        "Bitwise == sequential".to_string(),
    ]);

    let mut served_secs = Vec::new();
    let mut seq_secs = Vec::new();
    for &n in &SESSIONS {
        let setup0 = {
            let mut s = TrialSetup::letter(LETTERS[0]);
            s.cell_scale *= opts.cell_scale;
            s
        };
        let cfg = polardraw_config_for(&setup0);
        let streams = fleet_streams(n, opts);
        let options = OnlineOptions::default();

        // Sequential reference (and its wall time).
        let t0 = Instant::now();
        let want: Vec<TrackOutput> = streams
            .iter()
            .map(|reports| {
                let mut solo = OnlineTracker::new(cfg, options);
                solo.extend(reports);
                solo.finalize()
            })
            .collect();
        seq_secs.push(t0.elapsed().as_secs_f64());

        // Router run: one shard whose queue bound never bites, chunked
        // offers so drains interleave sessions.
        let t1 = Instant::now();
        let mut fleet = FleetRouter::new(FleetConfig {
            shards: 1,
            threads_per_shard: opts.threads,
            queue_cap: usize::MAX,
            soft_session_cap: usize::MAX,
            ..FleetConfig::default()
        });
        let ids: Vec<_> = (0..n).map(|_| fleet.add_session(cfg, options)).collect();
        let chunk = 64;
        let longest = streams.iter().map(|s| s.len()).max().unwrap_or(0);
        let (mut drains, mut wakes, mut points) = (0, 0, 0);
        let mut at = 0;
        while at < longest {
            for (i, reports) in streams.iter().enumerate() {
                let lo = at.min(reports.len());
                let hi = (at + chunk).min(reports.len());
                fleet.offer(ids[i], &reports[lo..hi]);
            }
            let round = fleet.drain();
            drains += 1;
            wakes += round.woken;
            points += round.newly_committed;
            at += chunk;
        }
        let shared = {
            let mut handles = ids
                .iter()
                .filter_map(|&id| fleet.tracker(id).decoder().artifacts().cloned());
            match handles.next() {
                Some(first) => handles.all(|h| Arc::ptr_eq(&h, &first)),
                None => false,
            }
        };
        let got: Vec<TrackOutput> = fleet.finish().into_iter().map(|(_, out)| out).collect();
        served_secs.push(t1.elapsed().as_secs_f64());

        let bitwise = got.len() == want.len()
            && got.iter().zip(&want).all(|(g, w)| outputs_equal(g, w));
        report.push_row(vec![
            n.to_string(),
            streams.iter().map(|s| s.len()).sum::<usize>().to_string(),
            drains.to_string(),
            wakes.to_string(),
            (drains * n - wakes).to_string(),
            points.to_string(),
            if shared { "yes" } else { "no" }.to_string(),
            if bitwise { "yes" } else { "no" }.to_string(),
        ]);
    }

    report.push_note(
        "every session shares one rig config, so all decoders resolve one \
         DecodeArtifacts entry (one EmissionTable build + one copy in memory); \
         'Idle skips' counts drain rounds that left a session asleep \
         (empty queue) — the wake model's saving",
    );
    report.push_note(format!(
        "host-dependent wall times this run (not committed as columns): \
         sequential {:?} s, router@{} threads {:?} s per fleet size {:?}; the \
         committed throughput baseline is BENCH_throughput.json",
        seq_secs.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        opts.threads,
        served_secs.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        SESSIONS,
    ));
    vec![report]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_sizes_grow_and_letters_share_a_board() {
        assert!(SESSIONS.windows(2).all(|w| w[0] < w[1]));
        // One rig for the whole fleet: every letter setup resolves the
        // same PolarDraw config (the board depends on letter count).
        let a = polardraw_config_for(&TrialSetup::letter(LETTERS[0]));
        let b = polardraw_config_for(&TrialSetup::letter(LETTERS[3]));
        assert_eq!(a.board_min, b.board_min);
        assert_eq!(a.board_max, b.board_max);
        assert_eq!(a.antennas, b.antennas);
    }
}
