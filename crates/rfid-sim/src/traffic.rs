//! Deterministic synthetic fleet traffic.
//!
//! The serving layer (`polardraw_core::fleet`) needs realistic *load
//! shapes* — not realistic pen strokes — to be exercised honestly:
//! arrival rates that swing over a day, flash crowds that pile
//! sessions onto one rig at once, constant session churn, and write
//! durations with a heavy tail (most strokes are a word, a few are a
//! whiteboard lecture). This module generates all of
//! that from one seed via `rf_core::rng` derived seeds, so every
//! scenario is bit-identical run to run and across machines:
//!
//! * [`TrafficModel::generate`] samples a [`SessionPlan`] per session —
//!   arrival time by inverse-CDF over a diurnal × flash-crowd intensity
//!   profile, duration from a bounded Pareto tail, a rig assignment for
//!   shard-affinity testing.
//! * [`TrafficModel::reports_for`] renders any virtual-time slice of a
//!   session's report stream as a pure function of the plan (no
//!   sequential generator state), so a driver may slice the timeline
//!   arbitrarily — per drain round, per shard, per retry after
//!   backpressure — and always observe the same stream.
//!
//! The reports themselves are the same shape the serving tests use
//! (alternating antennas at the aggregate read rate, slowly advancing
//! phase): enough to push real windows through real trackers without
//! paying for full channel physics per session.

use crate::TagReport;
use rf_core::rng::{derive_seed, derive_seed_indexed, rng_from_seed};

/// Shape of the synthetic fleet workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Total sessions over the horizon.
    pub sessions: usize,
    /// Scenario length, virtual seconds.
    pub horizon_s: f64,
    /// Diurnal cycle period (a "day", compressed to taste).
    pub diurnal_period_s: f64,
    /// Trough-to-peak arrival-intensity ratio in `[0, 1]`
    /// (1 = flat load, 0 = dead troughs).
    pub diurnal_floor: f64,
    /// Number of flash crowds superimposed on the diurnal cycle.
    pub flash_crowds: usize,
    /// Peak extra intensity of each flash crowd, as a multiple of the
    /// local baseline.
    pub flash_boost: f64,
    /// Gaussian half-width of each flash crowd, seconds.
    pub flash_width_s: f64,
    /// Distinct rigs (board/antenna configurations) sessions are
    /// assigned to, uniformly. Shard routing keys on the rig.
    pub rigs: usize,
    /// Minimum write duration, seconds (the Pareto scale).
    pub write_min_s: f64,
    /// Pareto tail exponent for write durations (smaller = heavier
    /// tail; 1.1–1.5 is heavy).
    pub write_tail_alpha: f64,
    /// Hard cap on write duration, seconds (bounds the Pareto tail).
    pub write_max_s: f64,
    /// Per-session aggregate read rate, reports per second (the paper's
    /// rig delivers ~100 Hz).
    pub report_hz: f64,
}

impl Default for TrafficConfig {
    fn default() -> TrafficConfig {
        TrafficConfig {
            sessions: 256,
            horizon_s: 600.0,
            diurnal_period_s: 600.0,
            diurnal_floor: 0.2,
            flash_crowds: 2,
            flash_boost: 3.0,
            flash_width_s: 15.0,
            rigs: 4,
            write_min_s: 4.0,
            write_tail_alpha: 1.3,
            write_max_s: 90.0,
            report_hz: 100.0,
        }
    }
}

/// One planned session: when it arrives, how long it writes, which rig
/// it writes on, and the seed its report stream derives from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionPlan {
    /// Tag EPC (unique per session).
    pub epc: u64,
    /// Rig index in `0..config.rigs`.
    pub rig: usize,
    /// Arrival time, virtual seconds.
    pub start_s: f64,
    /// Write duration, virtual seconds.
    pub duration_s: f64,
    /// Derived seed the session's report stream is a pure function of.
    pub seed: u64,
}

impl SessionPlan {
    /// When the session stops writing.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.duration_s
    }
}

/// Per-session report-stream parameters, derived once from the plan
/// seed so any report index is O(1) to render.
struct StreamParams {
    phase0: f64,
    phase_rate: f64,
    rssi0: f64,
    rssi_wobble: f64,
    channel0: usize,
}

fn stream_params(plan: &SessionPlan) -> StreamParams {
    let mut rng = rng_from_seed(plan.seed);
    StreamParams {
        phase0: std::f64::consts::TAU * rng.gen_f64(),
        phase_rate: 0.01 + 0.04 * rng.gen_f64(),
        rssi0: -58.0 + 6.0 * rng.gen_f64(),
        rssi_wobble: 1.5 * rng.gen_f64(),
        channel0: rng.gen_index(50),
    }
}

/// A generated fleet workload: the session plans plus the intensity
/// profile they were sampled from.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    config: TrafficConfig,
    flash_centers: Vec<f64>,
    plans: Vec<SessionPlan>,
}

impl TrafficModel {
    /// Generate the workload. Deterministic: every random draw comes
    /// from `derive_seed`/`derive_seed_indexed` children of `seed`, and
    /// per-session draws are independently seeded (reordering sessions
    /// or adding more never perturbs existing ones).
    pub fn generate(config: TrafficConfig, seed: u64) -> TrafficModel {
        let mut flash_rng = rng_from_seed(derive_seed(seed, "traffic.flash"));
        let flash_centers: Vec<f64> = (0..config.flash_crowds)
            .map(|_| (0.1 + 0.8 * flash_rng.gen_f64()) * config.horizon_s)
            .collect();
        let mut model = TrafficModel { config, flash_centers, plans: Vec::new() };

        // Cumulative intensity on a fixed grid; arrivals are inverse-CDF
        // samples against it (linear interpolation within a bin).
        const BINS: usize = 2048;
        let h = model.config.horizon_s.max(1e-9);
        let mut cum = Vec::with_capacity(BINS + 1);
        cum.push(0.0);
        for b in 0..BINS {
            let t = (b as f64 + 0.5) / BINS as f64 * h;
            cum.push(cum[b] + model.intensity(t).max(0.0));
        }
        let total = *cum.last().expect("non-empty cumulative");

        let mut plans = Vec::with_capacity(model.config.sessions);
        for i in 0..model.config.sessions {
            let mut rng =
                rng_from_seed(derive_seed_indexed(seed, "traffic.session", i as u64));
            let target = rng.gen_f64() * total;
            let b = cum[1..].partition_point(|&c| c < target).min(BINS - 1);
            let (lo, hi) = (cum[b], cum[b + 1]);
            let frac = if hi > lo { (target - lo) / (hi - lo) } else { 0.5 };
            let start_s = (b as f64 + frac) / BINS as f64 * h;
            // Bounded Pareto: x = min · (1-u)^(-1/α), capped.
            let u = rng.gen_f64().min(1.0 - 1e-12);
            let duration_s = (model.config.write_min_s
                * (1.0 - u).powf(-1.0 / model.config.write_tail_alpha.max(1e-3)))
            .min(model.config.write_max_s);
            let rig = rng.gen_index(model.config.rigs.max(1));
            plans.push(SessionPlan {
                epc: 0xF1EE_0000_0000_0000 | i as u64,
                rig,
                start_s,
                duration_s,
                seed: derive_seed_indexed(seed, "traffic.stream", i as u64),
            });
        }
        // Arrival order (ties broken by EPC) — the order a front door
        // would admit them in.
        plans.sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.epc.cmp(&b.epc)));
        model.plans = plans;
        model
    }

    /// The workload's configuration.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// Every session plan, in arrival order.
    pub fn plans(&self) -> &[SessionPlan] {
        &self.plans
    }

    /// The sampled flash-crowd centres, seconds.
    pub fn flash_centers(&self) -> &[f64] {
        &self.flash_centers
    }

    /// Relative arrival intensity at `t`: raised-cosine diurnal cycle
    /// times superimposed Gaussian flash bumps. Unnormalized — only
    /// ratios matter to the sampler.
    pub fn intensity(&self, t: f64) -> f64 {
        let c = &self.config;
        let phase = std::f64::consts::TAU * t / c.diurnal_period_s.max(1e-9);
        let diurnal = c.diurnal_floor + (1.0 - c.diurnal_floor) * 0.5 * (1.0 - phase.cos());
        let mut boost = 1.0;
        for &fc in &self.flash_centers {
            let z = (t - fc) / c.flash_width_s.max(1e-9);
            boost += c.flash_boost * (-0.5 * z * z).exp();
        }
        diurnal * boost
    }

    /// Sessions concurrently writing at `t` (the churn curve).
    pub fn active_at(&self, t: f64) -> usize {
        self.plans.iter().filter(|p| p.start_s <= t && t < p.end_s()).count()
    }

    /// Total reports the whole fleet offers in `[t0, t1)` — the offered
    /// load a front door must admit or defer.
    pub fn offered_in(&self, t0: f64, t1: f64) -> usize {
        self.plans.iter().map(|p| self.report_indices(p, t0, t1).len()).sum()
    }

    /// The reports session `plan` emits in `[t0, t1)`. A pure function
    /// of the plan: report `k` is fully determined by `(plan.seed, k)`,
    /// so slicing the timeline anywhere yields the same stream — see
    /// the module docs.
    pub fn reports_for(&self, plan: &SessionPlan, t0: f64, t1: f64) -> Vec<TagReport> {
        let mut out = Vec::new();
        self.reports_into(plan, t0, t1, &mut out);
        out
    }

    /// [`reports_for`](Self::reports_for), appending into a
    /// caller-owned buffer (ingest loops reuse one buffer across
    /// rounds).
    pub fn reports_into(&self, plan: &SessionPlan, t0: f64, t1: f64, out: &mut Vec<TagReport>) {
        let range = self.report_indices(plan, t0, t1);
        if range.is_empty() {
            return;
        }
        let dt = 1.0 / self.config.report_hz.max(1e-9);
        let p = stream_params(plan);
        out.reserve(range.len());
        for k in range {
            let t = plan.start_s + k as f64 * dt;
            out.push(TagReport {
                t,
                antenna: k % 2,
                rssi_dbm: p.rssi0 + p.rssi_wobble * (0.05 * k as f64).sin(),
                phase_rad: rf_core::wrap_tau(p.phase0 + p.phase_rate * k as f64),
                channel: (p.channel0 + k / 64) % 50,
                epc: plan.epc,
            });
        }
    }

    /// Report indices `k` (report `k` fires at `start_s + k/report_hz`)
    /// that land in `[t0, t1)` ∩ the session's lifetime. The boundary
    /// comparisons are on the identically-computed emission time, so a
    /// report lands in exactly one slice of any partition.
    fn report_indices(&self, plan: &SessionPlan, t0: f64, t1: f64) -> std::ops::Range<usize> {
        let dt = 1.0 / self.config.report_hz.max(1e-9);
        let lo = t0.max(plan.start_s);
        let hi = t1.min(plan.end_s());
        if hi <= lo {
            return 0..0;
        }
        // Start from a conservative underestimate and walk forward to
        // the first index whose emission time reaches `lo`; float error
        // in the seek never double-counts a boundary report because
        // membership is decided by the same `start_s + k·dt` both
        // slices compute.
        let mut k0 = (((lo - plan.start_s) / dt).floor() as usize).saturating_sub(1);
        while plan.start_s + k0 as f64 * dt < lo {
            k0 += 1;
        }
        let mut k1 = k0;
        while plan.start_s + k1 as f64 * dt < hi {
            k1 += 1;
        }
        k0..k1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> TrafficConfig {
        TrafficConfig { sessions: 64, flash_crowds: 0, ..TrafficConfig::default() }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TrafficModel::generate(TrafficConfig::default(), 7);
        let b = TrafficModel::generate(TrafficConfig::default(), 7);
        assert_eq!(a.plans(), b.plans());
        let p = a.plans()[0];
        assert_eq!(a.reports_for(&p, 0.0, 1e9), b.reports_for(&p, 0.0, 1e9));
        let c = TrafficModel::generate(TrafficConfig::default(), 8);
        assert_ne!(a.plans(), c.plans(), "different seed, different workload");
    }

    #[test]
    fn slicing_the_timeline_is_exact() {
        let m = TrafficModel::generate(TrafficConfig::default(), 11);
        let plan = m.plans()[3];
        let whole = m.reports_for(&plan, 0.0, m.config().horizon_s * 2.0);
        assert!(!whole.is_empty());
        // Arbitrary (non-window-aligned) cuts must tile the stream.
        for cuts in [3usize, 7, 41] {
            let mut tiled = Vec::new();
            let span = plan.duration_s + 2.0;
            for c in 0..cuts {
                let t0 = plan.start_s - 1.0 + span * c as f64 / cuts as f64;
                let t1 = plan.start_s - 1.0 + span * (c + 1) as f64 / cuts as f64;
                m.reports_into(&plan, t0, t1, &mut tiled);
            }
            assert_eq!(tiled, whole, "cuts={cuts}");
        }
    }

    #[test]
    fn reports_are_sorted_alternating_and_in_slice() {
        let m = TrafficModel::generate(TrafficConfig::default(), 5);
        let plan = m.plans()[0];
        let (t0, t1) = (plan.start_s + 0.33, plan.start_s + 1.77);
        let reports = m.reports_for(&plan, t0, t1);
        assert!(!reports.is_empty());
        for w in reports.windows(2) {
            assert!(w[0].t < w[1].t);
            assert_ne!(w[0].antenna, w[1].antenna, "ports alternate");
        }
        for r in &reports {
            assert!(r.t >= t0 && r.t < t1);
            assert_eq!(r.epc, plan.epc);
        }
    }

    #[test]
    fn diurnal_cycle_concentrates_arrivals_at_the_peak() {
        let cfg = TrafficConfig { diurnal_floor: 0.05, sessions: 512, ..quiet() };
        let m = TrafficModel::generate(cfg, 13);
        // Peak half of the cycle is the middle (cos phase π at t = T/2).
        let (h, q) = (m.config().horizon_s, m.config().horizon_s / 4.0);
        let mid = m.plans().iter().filter(|p| p.start_s >= q && p.start_s < h - q).count();
        let edges = m.plans().len() - mid;
        assert!(
            mid > 2 * edges,
            "arrivals should pile into the diurnal peak: mid={mid} edges={edges}"
        );
    }

    #[test]
    fn flash_crowds_spike_local_arrivals() {
        let base = TrafficModel::generate(quiet(), 17);
        let flashy = TrafficModel::generate(
            TrafficConfig {
                flash_crowds: 1,
                flash_boost: 20.0,
                flash_width_s: 8.0,
                sessions: 64,
                ..quiet()
            },
            17,
        );
        let c = flashy.flash_centers()[0];
        let near = |m: &TrafficModel| {
            m.plans().iter().filter(|p| (p.start_s - c).abs() < 16.0).count()
        };
        assert!(
            near(&flashy) > near(&base),
            "flash window should out-draw the same window without the flash: {} vs {}",
            near(&flashy),
            near(&base)
        );
        assert!(flashy.intensity(c) > 4.0 * base.intensity(c));
    }

    #[test]
    fn write_durations_are_bounded_and_heavy_tailed() {
        let cfg = TrafficConfig {
            sessions: 512,
            write_min_s: 2.0,
            write_tail_alpha: 1.1,
            write_max_s: 500.0,
            ..TrafficConfig::default()
        };
        let m = TrafficModel::generate(cfg, 23);
        for p in m.plans() {
            assert!(p.duration_s >= 2.0 && p.duration_s <= 500.0);
        }
        let long = m.plans().iter().filter(|p| p.duration_s > 10.0).count();
        let median = {
            let mut d: Vec<f64> = m.plans().iter().map(|p| p.duration_s).collect();
            d.sort_by(f64::total_cmp);
            d[d.len() / 2]
        };
        assert!(median < 5.0, "bulk stays near the minimum (median {median})");
        assert!(long > 10, "tail reaches past 5× the minimum ({long} sessions)");
    }

    #[test]
    fn active_count_tracks_lifetimes() {
        let m = TrafficModel::generate(TrafficConfig::default(), 29);
        let p = m.plans()[10];
        assert!(m.active_at(p.start_s) >= 1);
        assert!(m.active_at(p.start_s + p.duration_s / 2.0) >= 1);
        let before = m.active_at(-1.0);
        assert_eq!(before, 0, "nobody writes before the horizon opens");
        // Offered load over the whole horizon is every session's full
        // stream.
        let h = m.config().horizon_s;
        let all: usize =
            m.plans().iter().map(|p| m.reports_for(p, 0.0, h * 10.0).len()).sum();
        assert_eq!(m.offered_in(0.0, h * 10.0), all);
    }
}
