//! Steady-state allocation gate for the serve drain path.
//!
//! A store-less one-shard `FleetRouter` on one thread keeps its
//! per-session ingest queues' capacity and walks the shard's sessions
//! in place, so once it is warm an `offer` + `drain` round allocates
//! NOTHING: `offer` writes into retained queue capacity, `drain` counts
//! and visits the woken sessions by index, and late reports are dropped
//! inside `OnlineTracker::push` with a counter bump. This binary installs a
//! counting global allocator to prove it (which needs `unsafe`, so the
//! test lives in the workspace-root test crate rather than under the
//! core crate's `#![forbid(unsafe_code)]`), and keeps exactly one
//! `#[test]` so no sibling test thread allocates concurrently.

use experiments::setup::{polardraw_config_for, TrialSetup};
use polardraw_core::{FleetConfig, FleetRouter, OnlineOptions};
use rfid_sim::TagReport;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper that counts every allocation entry point.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn in_order_report(k: usize) -> TagReport {
    TagReport {
        t: 1_000.0 + k as f64 * 0.01,
        antenna: k % 2,
        rssi_dbm: -55.0,
        phase_rad: rf_core::wrap_tau(0.02 * k as f64),
        channel: 0,
        epc: 0xA110C,
    }
}

/// A report far older than the tracker's first window: dropped at
/// `OnlineTracker::push` with nothing but a counter increment.
fn late_report(k: usize) -> TagReport {
    TagReport { t: 1.0 + (k % 8) as f64 * 0.01, ..in_order_report(k) }
}

#[test]
fn warm_single_thread_drain_rounds_allocate_nothing() {
    const ROUND: usize = 32;

    // Warm up: real stream past several closed windows (so late
    // reports below hit the drop path), queue capacity established at
    // the steady-state chunk size.
    let cfg = polardraw_config_for(&TrialSetup::letter('L').with_cell_scale(8.0));
    let warm: Vec<TagReport> = (0..256).map(in_order_report).collect();
    let late: Vec<TagReport> = (0..ROUND).map(late_report).collect();
    let mut fleet =
        FleetRouter::new(FleetConfig { shards: 1, threads_per_shard: 1, ..FleetConfig::default() });
    let id = fleet.add_session(cfg, OnlineOptions::default());
    for chunk in warm.chunks(ROUND) {
        assert_eq!(fleet.offer(id, chunk), chunk.len());
        fleet.drain();
    }
    assert_eq!(fleet.offer(id, &late), ROUND);
    fleet.drain();
    let dropped_before = fleet.tracker(id).late_reports_dropped();

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..100 {
        let admitted = fleet.offer(id, &late);
        let round = fleet.drain();
        assert_eq!(admitted, ROUND);
        assert_eq!(round.woken, 1);
        assert_eq!(round.reports, ROUND);
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "warm store-less one-shard fleet offer+drain rounds must not allocate"
    );
    assert_eq!(
        fleet.tracker(id).late_reports_dropped(),
        dropped_before + 100 * ROUND,
        "every steady-state fleet report took the late-drop path"
    );
    drop(fleet.finish());
}
