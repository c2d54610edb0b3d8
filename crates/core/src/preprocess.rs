//! RFID data pre-processing (§3.1): window averaging and spurious data
//! rejection.
//!
//! The reader delivers an irregular ~100 Hz interleaved stream from both
//! antennas. PolarDraw divides time into fixed windows (50 ms in the
//! paper), averages the RSS and phase readings inside each window per
//! antenna, and then rejects windows whose phase jumps implausibly far
//! from the previous window — the signature of a cross-polarized tag
//! briefly powered through a reflection (§2's "spurious" readings).
//!
//! Both steps live in one place, `Windower`: the batch [`preprocess`]
//! feeds it a whole stream and closes every window, and the online
//! engine (`OnlineTracker`) feeds it report by report and pulls windows
//! as they close.

use rf_core::angle::{circular_mean, phase_distance};
use rfid_sim::TagReport;

/// One aligned pre-processing window across both antennas.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Windowed {
    /// Window centre time, seconds.
    pub t: f64,
    /// Mean RSS per antenna, dBm (`None`: no reads in the window).
    pub rssi: [Option<f64>; 2],
    /// Circular-mean phase per antenna, radians (`None`: no reads, or
    /// rejected as spurious).
    pub phase: [Option<f64>; 2],
    /// Raw read counts per antenna (diagnostics).
    pub reads: [usize; 2],
    /// Quality flags for this window (degradation diagnostics).
    pub flags: WindowFlags,
}

/// Per-window quality flags, set during pre-processing so downstream
/// stages (and the pipeline's `DegradationReport`) can tell *why* a
/// window is weak without re-deriving it from the raw fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowFlags {
    /// No reads landed on either antenna.
    pub empty: bool,
    /// Exactly one antenna produced reads (port outage signature).
    pub single_antenna: bool,
    /// The phase on this antenna was measured but struck as spurious.
    pub spurious: [bool; 2],
}

/// What pre-processing had to tolerate in one stream — returned by
/// [`preprocess_with_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PreprocessStats {
    /// Reports in the input stream.
    pub input_reports: usize,
    /// The input was not sorted by timestamp and had to be sorted.
    pub input_unsorted: bool,
    /// Exact duplicate reports removed after sorting.
    pub duplicates_removed: usize,
    /// Reports ignored because `antenna >= 2`.
    pub ignored_ports: usize,
    /// Total windows produced.
    pub windows: usize,
    /// Windows with no reads on either antenna.
    pub empty_windows: usize,
    /// Windows with reads on exactly one antenna.
    pub single_antenna_windows: usize,
    /// Phases struck by the spurious-rejection screen (both antennas).
    pub spurious_rejected: usize,
    /// Longest run of consecutive empty windows.
    pub largest_empty_run: usize,
}

/// Pre-processing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreprocessConfig {
    /// Window length, seconds (paper: 50 ms).
    pub window_s: f64,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig { window_s: 0.05 }
    }
}

/// Reject a window's phase when it differs from the previous valid
/// window by more than this, radians (paper: 0.2 rad).
pub const SPURIOUS_THRESHOLD_RAD: f64 = 0.25;

/// Window-average a report stream and reject spurious phases.
///
/// Returns one [`Windowed`] per window from the first to the last
/// report; windows with no reads on either antenna are retained (with
/// `None` entries) so that downstream timing stays uniform.
///
/// The input does **not** have to be sorted or duplicate-free: each
/// window's reports are stably sorted by timestamp and exact adjacent
/// duplicates (LLRP redelivery) removed before averaging.
pub fn preprocess(reports: &[TagReport], config: &PreprocessConfig) -> Vec<Windowed> {
    preprocess_with_stats(reports, config).0
}

/// [`preprocess`], also returning [`PreprocessStats`] describing what
/// the stream needed tolerated: a `Windower` that holds nothing back,
/// fed the whole stream and then closed.
pub fn preprocess_with_stats(
    reports: &[TagReport],
    config: &PreprocessConfig,
) -> (Vec<Windowed>, PreprocessStats) {
    let mut windower = Windower::new(*config, usize::MAX);
    for &r in reports {
        windower.push(r);
    }
    windower.close_all();
    (windower.windows, windower.stats)
}

/// The one implementation of §3.1 windowing, shared by the batch
/// [`preprocess`] and the online engine (`OnlineTracker` owns one).
///
/// Reports arrive one at a time. Window 0 is anchored at the smallest
/// timestamp seen before the first window closes, and a window closes
/// once the stream head is more than `hold` windows past it (`usize::MAX`
/// closes nothing before [`close_all`](Self::close_all)). Closing a
/// window stably sorts its reports by timestamp and drops exact
/// adjacent duplicates; reports sharing a timestamp share a window, so
/// this is exactly a global sort-and-dedup restricted to the window.
/// The window is then averaged ([`build_window`]) and screened for
/// spurious phases against the previous window's *measured* phase per
/// antenna — even when that window itself was struck, as the paper
/// states ("comparing phase readings of adjacent windows"). Holding a
/// stale reference instead would cascade: legitimate pen motion drifts
/// the phase away from it and every later window would be rejected. The
/// cost is that an isolated glitch strikes two windows (the glitch and
/// the re-entry jump), after which the stream is back.
///
/// Reports for an already-closed window are dropped and counted. The
/// fields are the online checkpoint's `stream` and `pre` state.
#[derive(Debug, Clone)]
pub(crate) struct Windower {
    config: PreprocessConfig,
    hold: usize,
    // Stream state.
    pub(crate) first_t: Option<f64>,
    pub(crate) max_t: f64,
    pub(crate) prev_push_t: Option<f64>,
    pub(crate) pending: Vec<TagReport>,
    pub(crate) next_window: usize,
    pub(crate) late_dropped: usize,
    // Per-window carry.
    pub(crate) stats: PreprocessStats,
    pub(crate) empty_run: usize,
    pub(crate) prev_measured: [Option<f64>; 2],
    /// Every window closed so far, in window order.
    pub(crate) windows: Vec<Windowed>,
    // Scratch.
    close_buf: Vec<TagReport>,
}

impl Windower {
    /// An empty stream that closes windows `hold` windows behind its
    /// head.
    pub(crate) fn new(config: PreprocessConfig, hold: usize) -> Windower {
        Windower {
            config,
            hold,
            first_t: None,
            max_t: 0.0,
            prev_push_t: None,
            pending: Vec::new(),
            next_window: 0,
            late_dropped: 0,
            stats: PreprocessStats::default(),
            empty_run: 0,
            prev_measured: [None; 2],
            windows: Vec::new(),
            close_buf: Vec::new(),
        }
    }

    /// Consume one report, then close every window the stream head has
    /// left more than `hold` windows behind.
    pub(crate) fn push(&mut self, r: TagReport) {
        self.stats.input_reports += 1;
        if let Some(prev) = self.prev_push_t {
            if r.t < prev {
                self.stats.input_unsorted = true;
            }
        }
        self.prev_push_t = Some(r.t);

        let wlen = self.config.window_s;
        match self.first_t {
            None => {
                assert!(wlen > 0.0, "window length must be positive");
                self.first_t = Some(r.t);
                self.max_t = r.t;
            }
            Some(f) if r.t < f => {
                if self.next_window == 0 {
                    // Nothing closed yet: the window origin is still
                    // free to move back to the smallest timestamp.
                    self.first_t = Some(r.t);
                } else {
                    self.late_dropped += 1;
                    return;
                }
            }
            _ => {}
        }
        let first = self.first_t.expect("the match above sets `first_t`");
        if window_index(r.t, first, wlen) < self.next_window {
            // Belongs to an already-closed window: too late.
            self.late_dropped += 1;
            return;
        }
        self.max_t = self.max_t.max(r.t);
        self.pending.push(r);

        let cur = window_index(self.max_t, first, wlen);
        while self.next_window < cur.saturating_sub(self.hold) {
            // Drain the oldest open window's reports, preserving arrival
            // order both in the extracted buffer and among the survivors.
            let i = self.next_window;
            self.close_buf.clear();
            let mut kept = 0;
            for k in 0..self.pending.len() {
                let r = self.pending[k];
                if window_index(r.t, first, wlen) == i {
                    self.close_buf.push(r);
                } else {
                    self.pending[kept] = r;
                    kept += 1;
                }
            }
            self.pending.truncate(kept);
            self.close_buffered(first);
        }
    }

    /// Close every window up to the stream head (end of stream). One
    /// stable sort of the pending reports by window, instead of one scan
    /// of them per window, hands each window its reports in arrival
    /// order all the same.
    pub(crate) fn close_all(&mut self) {
        let Some(first) = self.first_t else { return };
        let wlen = self.config.window_s;
        let cur = window_index(self.max_t, first, wlen);
        let mut keyed: Vec<(usize, TagReport)> =
            self.pending.drain(..).map(|r| (window_index(r.t, first, wlen), r)).collect();
        keyed.sort_by_key(|&(w, _)| w);
        let mut rest = keyed.as_slice();
        while self.next_window <= cur {
            let i = self.next_window;
            let n = rest.iter().take_while(|&&(w, _)| w == i).count();
            self.close_buf.clear();
            self.close_buf.extend(rest[..n].iter().map(|&(_, r)| r));
            rest = &rest[n..];
            self.close_buffered(first);
        }
    }

    /// Close window `next_window` over its reports in `close_buf`: sort
    /// and dedup them, average, screen spurious phases, and count.
    fn close_buffered(&mut self, first: f64) {
        let i = self.next_window;
        let wlen = self.config.window_s;

        // Stable sort by timestamp (equal stamps keep arrival order) and
        // adjacent exact-duplicate removal.
        self.close_buf.sort_by(|a, b| a.t.total_cmp(&b.t));
        let before = self.close_buf.len();
        self.close_buf.dedup();
        self.stats.duplicates_removed += before - self.close_buf.len();

        let t = first + (i as f64 + 0.5) * wlen;
        let (mut w, ignored) = build_window(t, &self.close_buf);
        self.stats.ignored_ports += ignored;

        // Spurious screen; the reference updates to the measured value
        // even when the window is struck.
        for ant in 0..2 {
            if let Some(p) = w.phase[ant] {
                if let Some(prev) = self.prev_measured[ant] {
                    if phase_distance(p, prev) > SPURIOUS_THRESHOLD_RAD {
                        w.phase[ant] = None;
                        w.flags.spurious[ant] = true;
                        self.stats.spurious_rejected += 1;
                    }
                }
                self.prev_measured[ant] = Some(p);
            }
        }

        self.stats.windows += 1;
        if w.flags.empty {
            self.stats.empty_windows += 1;
            self.empty_run += 1;
            self.stats.largest_empty_run = self.stats.largest_empty_run.max(self.empty_run);
        } else {
            self.empty_run = 0;
        }
        if w.flags.single_antenna {
            self.stats.single_antenna_windows += 1;
        }
        self.windows.push(w);
        self.next_window += 1;
    }
}

/// The window a timestamp falls in, counting from the stream origin
/// `first`.
#[inline]
fn window_index(t: f64, first: f64, wlen: f64) -> usize {
    ((t - first) / wlen).floor() as usize
}

/// Build one window from its (sorted, deduplicated) reports: accumulate
/// per antenna, average, and flag. Returns the window and how many
/// reports were ignored for being on `antenna >= 2`.
fn build_window(t: f64, reports: &[TagReport]) -> (Windowed, usize) {
    let mut acc: [WindowAcc; 2] = Default::default();
    let mut ignored = 0;
    for r in reports {
        if r.antenna >= 2 {
            ignored += 1;
            continue; // PolarDraw is strictly two-antenna
        }
        acc[r.antenna].push(r.rssi_dbm, r.phase_rad);
    }
    let mut w = Windowed { t, ..Default::default() };
    for (ant, a) in acc.iter().enumerate() {
        w.reads[ant] = a.n;
        w.rssi[ant] = a.mean_rssi();
        w.phase[ant] = a.mean_phase();
    }
    w.flags.empty = w.reads == [0, 0];
    w.flags.single_antenna = (w.reads[0] == 0) != (w.reads[1] == 0);
    (w, ignored)
}

#[derive(Debug, Clone, Copy, Default)]
struct WindowAcc {
    n: usize,
    rssi_sum: f64,
    sin_sum: f64,
    cos_sum: f64,
}

impl WindowAcc {
    fn push(&mut self, rssi: f64, phase: f64) {
        self.n += 1;
        self.rssi_sum += rssi;
        self.sin_sum += phase.sin();
        self.cos_sum += phase.cos();
    }

    fn mean_rssi(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.rssi_sum / self.n as f64)
        }
    }

    fn mean_phase(&self) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        // Circular mean: immune to 0/2π straddling inside a window.
        circular_mean(&[self.sin_sum.atan2(self.cos_sum)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn report(t: f64, antenna: usize, rssi: f64, phase: f64) -> TagReport {
        TagReport { t, antenna, rssi_dbm: rssi, phase_rad: phase, channel: 24, epc: 1 }
    }

    #[test]
    fn empty_stream_preprocesses_to_nothing() {
        assert!(preprocess(&[], &PreprocessConfig::default()).is_empty());
    }

    #[test]
    fn averages_within_windows() {
        let reports = vec![
            report(0.00, 0, -40.0, 1.0),
            report(0.01, 0, -42.0, 1.2),
            report(0.02, 1, -50.0, 2.0),
            report(0.06, 0, -44.0, 1.1),
        ];
        let w = preprocess(&reports, &PreprocessConfig::default());
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].rssi[0], Some(-41.0));
        assert_eq!(w[0].reads[0], 2);
        assert_eq!(w[0].rssi[1], Some(-50.0));
        let p = w[0].phase[0].unwrap();
        assert!((p - 1.1).abs() < 1e-6, "circular mean of 1.0, 1.2 is 1.1, got {p}");
        assert_eq!(w[1].rssi[0], Some(-44.0));
        assert_eq!(w[1].rssi[1], None);
    }

    #[test]
    fn circular_mean_straddles_wrap() {
        let reports = vec![
            report(0.00, 0, -40.0, 0.1),
            report(0.01, 0, -40.0, TAU - 0.1),
        ];
        let w = preprocess(&reports, &PreprocessConfig::default());
        let p = w[0].phase[0].unwrap();
        assert!(p.min(TAU - p) < 0.01, "mean of ±0.1 wraps to ~0, got {p}");
    }

    #[test]
    fn spurious_jump_is_rejected_but_stream_recovers() {
        let cfg = PreprocessConfig::default();
        // Window-centre timestamps avoid binary-float boundary flapping.
        let reports = vec![
            report(0.000, 0, -40.0, 1.0),
            report(0.070, 0, -40.0, 1.05),
            report(0.120, 0, -58.0, 3.0), // cross-pol glitch: +1.95 rad
            report(0.170, 0, -40.0, 1.10),
            report(0.220, 0, -40.0, 1.15),
        ];
        let w = preprocess(&reports, &cfg);
        assert_eq!(w.len(), 5);
        assert_eq!(w[2].phase[0], None, "glitch window rejected");
        // The re-entry jump (3.0 → 1.10) is also over threshold, so the
        // window after the glitch is sacrificed too...
        assert_eq!(w[3].phase[0], None, "re-entry window also rejected");
        // ...but the stream is back one window later.
        assert!(w[4].phase[0].is_some(), "stream recovers after the glitch");
        // RSS is never rejected — only phase is screened.
        assert_eq!(w[2].rssi[0], Some(-58.0));
    }

    #[test]
    fn gradual_phase_motion_is_kept() {
        // 0.1 rad per window is a legitimate writing speed; nothing may
        // be rejected.
        let cfg = PreprocessConfig::default();
        let reports: Vec<TagReport> =
            (0..20).map(|i| report(i as f64 * 0.05, 0, -40.0, 1.0 + 0.1 * i as f64)).collect();
        let w = preprocess(&reports, &cfg);
        assert!(w.iter().all(|w| w.phase[0].is_some()));
    }

    #[test]
    fn antennas_are_screened_independently() {
        let cfg = PreprocessConfig::default();
        let reports = vec![
            report(0.00, 0, -40.0, 1.0),
            report(0.00, 1, -40.0, 2.0),
            report(0.07, 0, -40.0, 1.02),
            report(0.07, 1, -40.0, 4.5), // spurious on antenna 1 only
        ];
        let w = preprocess(&reports, &cfg);
        assert!(w[1].phase[0].is_some());
        assert_eq!(w[1].phase[1], None);
    }

    #[test]
    fn reports_from_extra_antennas_are_ignored() {
        let reports = vec![report(0.0, 0, -40.0, 1.0), report(0.0, 2, -30.0, 0.5)];
        let w = preprocess(&reports, &PreprocessConfig::default());
        assert_eq!(w[0].reads, [1, 0]);
    }

    #[test]
    fn unsorted_stream_buckets_like_its_sorted_self() {
        // Regression: the old code took `reports.first()/last()` as the
        // time extremes and clamped stragglers into the *last* window,
        // so an out-of-order stream silently mis-bucketed. Sorting must
        // make the two streams indistinguishable.
        let sorted = vec![
            report(0.00, 0, -40.0, 1.0),
            report(0.03, 1, -50.0, 2.0),
            report(0.06, 0, -42.0, 1.1),
            report(0.12, 0, -44.0, 1.2),
            report(0.16, 1, -52.0, 2.1),
        ];
        let mut shuffled = sorted.clone();
        shuffled.swap(0, 3); // first/last no longer the extremes
        shuffled.swap(1, 4);
        let cfg = PreprocessConfig::default();
        let (from_sorted, s1) = preprocess_with_stats(&sorted, &cfg);
        let (from_shuffled, s2) = preprocess_with_stats(&shuffled, &cfg);
        assert_eq!(from_sorted, from_shuffled);
        assert!(!s1.input_unsorted);
        assert!(s2.input_unsorted);
        // Every report must land in its own window, none clamped away:
        // 0.16 s span at 50 ms windows = 4 windows, reads [1,1,1]+[0]+...
        assert_eq!(from_shuffled.len(), 4);
        assert_eq!(from_shuffled.iter().map(|w| w.reads[0] + w.reads[1]).sum::<usize>(), 5);
        assert_eq!(from_shuffled[1].reads, [1, 0], "0.06 s read stays in window 1");
    }

    #[test]
    fn exact_duplicates_are_removed_once() {
        let base = vec![
            report(0.00, 0, -40.0, 1.0),
            report(0.02, 1, -50.0, 2.0),
            report(0.04, 0, -42.0, 1.1),
        ];
        let mut dup = base.clone();
        dup.insert(1, base[0]); // exact LLRP redelivery
        dup.push(base[2]);
        let cfg = PreprocessConfig::default();
        let (clean, _) = preprocess_with_stats(&base, &cfg);
        let (deduped, stats) = preprocess_with_stats(&dup, &cfg);
        assert_eq!(stats.duplicates_removed, 2);
        assert_eq!(clean, deduped, "duplicates must not bias window means");
    }

    #[test]
    fn clean_streams_need_no_sort_or_dedup() {
        let reports: Vec<TagReport> =
            (0..40).map(|i| report(i as f64 * 0.011, i % 2, -40.0, 1.0 + 0.01 * i as f64)).collect();
        let cfg = PreprocessConfig::default();
        let (w, stats) = preprocess_with_stats(&reports, &cfg);
        assert!(!stats.input_unsorted);
        assert_eq!(stats.duplicates_removed, 0);
        assert_eq!(preprocess(&reports, &cfg), w);
    }

    #[test]
    fn quality_flags_and_stats_describe_the_stream() {
        let reports = vec![
            report(0.00, 0, -40.0, 1.0),
            report(0.01, 1, -50.0, 2.0),
            // windows 1-2 empty (gap 0.05..0.15)
            report(0.16, 0, -40.0, 1.05),
            // window 3: antenna 0 only
        ];
        let cfg = PreprocessConfig::default();
        let (w, stats) = preprocess_with_stats(&reports, &cfg);
        assert_eq!(w.len(), 4);
        assert!(!w[0].flags.empty && !w[0].flags.single_antenna);
        assert!(w[1].flags.empty && w[2].flags.empty);
        assert!(w[3].flags.single_antenna);
        assert_eq!(stats.windows, 4);
        assert_eq!(stats.empty_windows, 2);
        assert_eq!(stats.largest_empty_run, 2);
        assert_eq!(stats.single_antenna_windows, 1);
        assert_eq!(stats.input_reports, 3);
    }

    #[test]
    fn spurious_rejections_are_counted_and_flagged() {
        let cfg = PreprocessConfig::default();
        let reports = vec![
            report(0.000, 0, -40.0, 1.0),
            report(0.070, 0, -40.0, 1.05),
            report(0.120, 0, -58.0, 3.0), // glitch
            report(0.170, 0, -40.0, 1.10),
            report(0.220, 0, -40.0, 1.15),
        ];
        let (w, stats) = preprocess_with_stats(&reports, &cfg);
        assert_eq!(stats.spurious_rejected, 2);
        assert!(w[2].flags.spurious[0] && w[3].flags.spurious[0]);
        assert!(!w[4].flags.spurious[0]);
    }

    #[test]
    fn window_boundary_wraparound_jump_not_spurious() {
        // A phase sequence crossing 2π→0 moves only slightly on the
        // circle; the circular distance must see through the wrap.
        let cfg = PreprocessConfig::default();
        let reports = vec![
            report(0.00, 0, -40.0, TAU - 0.05),
            report(0.07, 0, -40.0, 0.05),
        ];
        let w = preprocess(&reports, &cfg);
        assert!(w[1].phase[0].is_some(), "wrap crossing is not a spurious jump");
    }
}
