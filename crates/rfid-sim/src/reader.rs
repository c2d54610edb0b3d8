//! The reader: antenna multiplexing, inventory loop, measurement
//! quantization.
//!
//! Mirrors an ImpinJ Speedway driving multiple antenna ports: the reader
//! dwells on a port for a configurable number of inventory rounds, then
//! switches. Each successful round yields one [`TagReport`] whose RSSI
//! is quantized to 0.5 dB and phase to 12 bits over `[0, 2π)` — the
//! granularity real LLRP reports carry.

use crate::gen2::Gen2Config;
use crate::TagReport;
use rf_core::rng::{gaussian, rng_from_seed};
use rf_core::wrap_tau;
use rf_physics::{ChannelModel, RigFactors};

/// Reader configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReaderConfig {
    /// MAC/modulation timing.
    pub gen2: Gen2Config,
    /// RSSI quantization step, dB (ImpinJ: 0.5).
    pub rssi_step_db: f64,
    /// Phase quantization resolution, bits over `[0, 2π)` (ImpinJ: 12).
    pub phase_bits: u32,
    /// Inventory rounds per antenna before switching ports.
    pub dwell_rounds: usize,
    /// Relative jitter on round durations (reader scheduling slop).
    pub timing_jitter: f64,
    /// The tag's EPC.
    pub epc: u64,
}

impl Default for ReaderConfig {
    fn default() -> Self {
        ReaderConfig {
            gen2: Gen2Config::default(),
            rssi_step_db: 0.5,
            phase_bits: 12,
            dwell_rounds: 1,
            timing_jitter: 0.05,
            epc: 0xE280_1160_6000_0001,
        }
    }
}

/// A simulated multi-port reader bound to an RF environment.
#[derive(Debug, Clone)]
pub struct Reader {
    /// The RF environment (antennas, clutter, budgets).
    pub channel: ChannelModel,
    /// Reader behaviour.
    pub config: ReaderConfig,
}

/// Minimal pen-pose view the reader needs (avoids a dependency on
/// `pen-sim`): position and dipole at a timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagPose {
    /// Timestamp, seconds.
    pub t: f64,
    /// Tag position, metres.
    pub position: rf_core::Vec3,
    /// Tag dipole orientation (unit).
    pub dipole: rf_core::Vec3,
}

impl Reader {
    /// Create a reader over a channel with default configuration.
    pub fn new(channel: ChannelModel) -> Reader {
        Reader { channel, config: ReaderConfig::default() }
    }

    /// Run the inventory loop across a pose trajectory, producing the
    /// LLRP-visible report stream. Deterministic in `seed`.
    ///
    /// The channel is frozen once per call ([`RigFactors::freeze`]) and
    /// every round evaluates its link through [`RigFactors::evaluate`],
    /// on whatever carrier the plan selects at the round's time.
    ///
    /// Poses must be sorted by time; the reader samples the pose with
    /// the latest timestamp ≤ the current MAC time (zero-order hold, so
    /// pose sampling should be finer than the ~5–10 ms round time).
    pub fn inventory(&self, poses: &[TagPose], seed: u64) -> Vec<TagReport> {
        let mut reports = Vec::new();
        let (first, last) = match (poses.first(), poses.last()) {
            (Some(f), Some(l)) => (f.t, l.t),
            _ => return reports,
        };
        let mut rng = rng_from_seed(seed);
        let rig = RigFactors::freeze(&self.channel);
        let n_ant = self.channel.antenna_count().max(1);
        let mut t = first;
        let mut pose_idx = 0usize;
        let mut port = 0usize;
        let mut rounds_on_port = 0usize;

        while t <= last {
            while pose_idx + 1 < poses.len() && poses[pose_idx + 1].t <= t {
                pose_idx += 1;
            }
            let pose = poses[pose_idx];
            let obs = rig.evaluate(port, pose.position, pose.dipole, t);

            let round = if obs.tag_powered {
                let snr = self.channel.noise.snr_db(obs.rx_power_dbm);
                let p_ok = self
                    .config
                    .gen2
                    .scheme
                    .packet_success(snr, crate::gen2::frame::EPC_BITS);
                if rng.gen_bool(p_ok) {
                    let rssi = obs.rx_power_dbm
                        + self.channel.noise.sample_rssi_noise(&mut rng, obs.rx_power_dbm);
                    let phase = obs.phase_rad
                        + self.channel.noise.sample_phase_noise(&mut rng, obs.rx_power_dbm);
                    reports.push(TagReport {
                        t,
                        antenna: port,
                        rssi_dbm: quantize_rssi(rssi, self.config.rssi_step_db),
                        phase_rad: quantize_phase(wrap_tau(phase), self.config.phase_bits),
                        channel: self.channel.plan.channel_at(t),
                        epc: self.config.epc,
                    });
                    self.config.gen2.successful_round_duration()
                } else {
                    // RN16 or EPC decode failure: the round is spent.
                    self.config.gen2.successful_round_duration()
                }
            } else {
                self.config.gen2.empty_round_duration()
            };

            let jitter = 1.0 + gaussian(&mut rng, self.config.timing_jitter).clamp(-0.5, 0.5);
            t += round * jitter;

            rounds_on_port += 1;
            if rounds_on_port >= self.config.dwell_rounds.max(1) {
                rounds_on_port = 0;
                port = (port + 1) % n_ant;
            }
        }
        reports
    }

    /// Multi-tag inventory (§7's multi-user extension): several tags
    /// share the reader, contending through the Gen2 Q-protocol. Each
    /// round, every powered tag draws a slot; collisions burn the round
    /// with no report, a singleton yields a report for that tag.
    ///
    /// `tags` maps an EPC to its pose trajectory (all trajectories
    /// should cover a similar time span; a tag is out of the running
    /// once its trajectory ends). Downstream, trackers separate the
    /// stream by EPC — exactly the per-tag phase separation the paper
    /// sketches for multi-user whiteboards. Each live tag's link is
    /// evaluated once per round; the winner's report reuses it.
    pub fn inventory_multi(&self, tags: &[(u64, Vec<TagPose>)], seed: u64) -> Vec<TagReport> {
        let mut reports = Vec::new();
        let first = tags
            .iter()
            .filter_map(|(_, p)| p.first().map(|p| p.t))
            .fold(f64::INFINITY, f64::min);
        let last = tags
            .iter()
            .filter_map(|(_, p)| p.last().map(|p| p.t))
            .fold(f64::NEG_INFINITY, f64::max);
        if !first.is_finite() || !last.is_finite() {
            return reports;
        }
        let mut rng = rng_from_seed(seed);
        let rig = RigFactors::freeze(&self.channel);
        let n_ant = self.channel.antenna_count().max(1);
        let mut q = crate::gen2::QAlgorithm::new((tags.len() as f64).log2().ceil() as u32);
        let mut t = first;
        let mut pose_idx = vec![0usize; tags.len()];
        let mut port = 0usize;

        while t <= last {
            // Which tags are powered (and in time range) this round?
            let mut live: Vec<(usize, rf_physics::LinkObservation)> = Vec::new();
            for (ti, (_, poses)) in tags.iter().enumerate() {
                while pose_idx[ti] + 1 < poses.len() && poses[pose_idx[ti] + 1].t <= t {
                    pose_idx[ti] += 1;
                }
                let Some(pose) = poses.get(pose_idx[ti]) else { continue };
                if pose.t > t || poses.last().is_none_or(|p| p.t < t) {
                    continue;
                }
                let obs = rig.evaluate(port, pose.position, pose.dipole, t);
                if obs.tag_powered {
                    live.push((ti, obs));
                }
            }

            let outcome = crate::gen2::slot_outcome(&mut rng, live.len(), q.q());
            q.update(outcome);
            let round = match outcome {
                crate::gen2::SlotOutcome::Single => {
                    // The responding tag is uniform among the live set.
                    let (ti, obs) = live[rng.gen_index(live.len())];
                    let rx = obs.rx_power_dbm;
                    let snr = self.channel.noise.snr_db(rx);
                    let p_ok = self
                        .config
                        .gen2
                        .scheme
                        .packet_success(snr, crate::gen2::frame::EPC_BITS);
                    if rng.gen_bool(p_ok) {
                        let rssi = rx + self.channel.noise.sample_rssi_noise(&mut rng, rx);
                        let phase =
                            obs.phase_rad + self.channel.noise.sample_phase_noise(&mut rng, rx);
                        reports.push(TagReport {
                            t,
                            antenna: port,
                            rssi_dbm: quantize_rssi(rssi, self.config.rssi_step_db),
                            phase_rad: quantize_phase(wrap_tau(phase), self.config.phase_bits),
                            channel: self.channel.plan.channel_at(t),
                            epc: tags[ti].0,
                        });
                    }
                    self.config.gen2.successful_round_duration()
                }
                _ => self.config.gen2.empty_round_duration(),
            };
            let jitter = 1.0 + gaussian(&mut rng, self.config.timing_jitter).clamp(-0.5, 0.5);
            t += round * jitter;
            port = (port + 1) % n_ant;
        }
        reports
    }

    /// Aggregate read rate achieved over a report stream, Hz.
    pub fn achieved_rate_hz(reports: &[TagReport]) -> f64 {
        match (reports.first(), reports.last()) {
            (Some(f), Some(l)) if l.t > f.t => (reports.len() - 1) as f64 / (l.t - f.t),
            _ => 0.0,
        }
    }
}

/// Quantize an RSSI to the reader's reporting step.
pub fn quantize_rssi(rssi_dbm: f64, step_db: f64) -> f64 {
    if step_db <= 0.0 {
        return rssi_dbm;
    }
    (rssi_dbm / step_db).round() * step_db
}

/// Quantize a phase (already wrapped to `[0, 2π)`) to `bits` resolution.
pub fn quantize_phase(phase_rad: f64, bits: u32) -> f64 {
    let levels = f64::from(1u32 << bits.min(31));
    let tau = std::f64::consts::TAU;
    let q = (phase_rad / tau * levels).round() % levels;
    wrap_tau(q * tau / levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_core::Vec3;
    use rf_physics::antenna::Antenna;

    fn static_poses(duration: f64, dipole: Vec3) -> Vec<TagPose> {
        let dt = 0.002;
        let n = (duration / dt) as usize;
        (0..=n)
            .map(|i| TagPose { t: i as f64 * dt, position: Vec3::ZERO, dipole })
            .collect()
    }

    fn bench_reader(n_ant: usize) -> Reader {
        let antennas: Vec<Antenna> = (0..n_ant)
            .map(|i| {
                Antenna::linear(
                    Vec3::new(i as f64 * 0.3 - 0.15, 0.0, 1.0),
                    -Vec3::Z,
                    Vec3::X,
                )
            })
            .collect();
        Reader::new(ChannelModel::free_space(antennas))
    }

    #[test]
    fn static_aligned_tag_reads_at_expected_rate() {
        let reader = bench_reader(1);
        let reports = reader.inventory(&static_poses(2.0, Vec3::X), 1);
        let rate = Reader::achieved_rate_hz(&reports);
        let nominal = reader.config.gen2.read_rate_hz();
        assert!(
            (rate - nominal).abs() / nominal < 0.15,
            "rate {rate} vs nominal {nominal}"
        );
    }

    #[test]
    fn ports_alternate_with_dwell_one() {
        let reader = bench_reader(2);
        let reports = reader.inventory(&static_poses(1.0, Vec3::X), 1);
        let mut alternations = 0;
        for w in reports.windows(2) {
            if w[0].antenna != w[1].antenna {
                alternations += 1;
            }
        }
        assert!(alternations >= reports.len() - 2, "strict alternation expected");
    }

    #[test]
    fn cross_polarized_tag_produces_no_reports_in_free_space() {
        let reader = bench_reader(1);
        let reports = reader.inventory(&static_poses(1.0, Vec3::Y), 1);
        assert!(reports.is_empty(), "got {} reports", reports.len());
    }

    #[test]
    fn reports_are_time_ordered_and_quantized() {
        let reader = bench_reader(2);
        let reports = reader.inventory(&static_poses(1.0, Vec3::X), 9);
        assert!(!reports.is_empty());
        for w in reports.windows(2) {
            assert!(w[0].t < w[1].t);
        }
        for r in &reports {
            let q = (r.rssi_dbm / 0.5).round() * 0.5;
            assert!((r.rssi_dbm - q).abs() < 1e-9, "rssi not on 0.5 dB grid");
            assert!((0.0..std::f64::consts::TAU).contains(&r.phase_rad));
        }
    }

    #[test]
    fn inventory_is_deterministic_in_seed() {
        let reader = bench_reader(2);
        let poses = static_poses(0.5, Vec3::X);
        assert_eq!(reader.inventory(&poses, 5), reader.inventory(&poses, 5));
        assert_ne!(reader.inventory(&poses, 5), reader.inventory(&poses, 6));
    }

    #[test]
    fn empty_pose_list_yields_no_reports() {
        let reader = bench_reader(1);
        assert!(reader.inventory(&[], 1).is_empty());
    }

    #[test]
    fn rssi_quantization_grid() {
        assert_eq!(quantize_rssi(-40.26, 0.5), -40.5);
        assert_eq!(quantize_rssi(-40.24, 0.5), -40.0);
        assert_eq!(quantize_rssi(-40.3, 0.0), -40.3, "step 0 disables");
    }

    #[test]
    fn phase_quantization_wraps_and_grids() {
        let q = quantize_phase(std::f64::consts::TAU - 1e-9, 12);
        assert_eq!(q, 0.0, "top of the circle rounds to level 0");
        let step = std::f64::consts::TAU / 4096.0;
        let q = quantize_phase(2.5 * step, 12);
        assert!((q - 3.0 * step).abs() < 1e-12 || (q - 2.0 * step).abs() < 1e-12);
    }

    #[test]
    fn multi_tag_inventory_reports_all_tags_at_reduced_rate() {
        let reader = bench_reader(1);
        let poses_a = static_poses(2.0, Vec3::X);
        let poses_b = static_poses(2.0, Vec3::new(0.9, 0.3, 0.0).normalized().unwrap());
        let single = reader.inventory(&poses_a, 1).len();
        let multi =
            reader.inventory_multi(&[(0xA, poses_a.clone()), (0xB, poses_b.clone())], 1);
        let a_reads = multi.iter().filter(|r| r.epc == 0xA).count();
        let b_reads = multi.iter().filter(|r| r.epc == 0xB).count();
        assert!(a_reads > 10, "tag A read {a_reads} times");
        assert!(b_reads > 10, "tag B read {b_reads} times");
        // Contention: each tag reads slower than a lone tag would.
        assert!(a_reads < single, "contention must cost rate: {a_reads} vs {single}");
    }

    #[test]
    fn multi_tag_inventory_is_deterministic_and_handles_empty() {
        let reader = bench_reader(1);
        assert!(reader.inventory_multi(&[], 1).is_empty());
        let poses = static_poses(0.5, Vec3::X);
        let a = reader.inventory_multi(&[(1, poses.clone()), (2, poses.clone())], 9);
        let b = reader.inventory_multi(&[(1, poses.clone()), (2, poses)], 9);
        assert_eq!(a, b);
    }

    #[test]
    fn four_port_reader_covers_all_ports() {
        let reader = bench_reader(4);
        let reports = reader.inventory(&static_poses(2.0, Vec3::X), 2);
        for port in 0..4 {
            assert!(
                reports.iter().any(|r| r.antenna == port),
                "port {port} never reported"
            );
        }
    }
}
