//! Durability-layer integration suite (tier 1).
//!
//! * **Mutation sweep** — 2000 deterministic corruptions of a sealed
//!   `checkpoint.v2` envelope through `rfid_sim::chaos::mutate_bytes`
//!   (bit flips, truncation, garbage extension, field rewrites,
//!   splices, wholesale noise). Restore must be total: every case is
//!   either a clean `Ok` whose state is bit-identical to the original,
//!   or a typed `RestoreError` that renders — never a panic. Mirrors
//!   the `llrp::decode_report` wire sweep, so both untrusted-byte
//!   surfaces get the same treatment.
//! * **v1 → v2 migration golden** — a legacy `checkpoint.v1` document
//!   opens as generation 0 and re-seals into a byte-pinned v2 envelope
//!   (snapshot under `tests/snapshots/`; regenerate with
//!   `GOLDEN_REGEN=1` and review the diff).
//! * **Store crash semantics** — staged-but-uncommitted writes stay
//!   invisible, walk-back recovery survives corrupted newest
//!   generations, and a fully rotten store returns a typed error.
//! * **Seal bytes pinned** — every seal of fast-kernel trackers
//!   (`f32`-widened scores) and exact-kernel trackers at a sweep of cut
//!   points matches the length and CRC-32 recorded in
//!   `tests/snapshots/seal_bytes.json`, and two of them match in full.
//!   The snapshot was recorded before the workspace wrote numbers with
//!   its own formatter and is never regenerated: it holds the writer to
//!   the text Rust's `{}` Display gave.
//! * **Incremental seals** — a tracker sealed again and again, whose
//!   seal cache copies the text of everything sealed before, writes
//!   exactly the bytes a never-sealed tracker in the same state writes,
//!   through lag shrinks and growth, kernel swaps, a gap bridge and a
//!   mid-run restore.

use polardraw_core::hmm::KernelOptions;
use polardraw_core::{
    durability, open_checkpoint, seal_checkpoint, CheckpointStore, OnlineOptions, OnlineTracker,
    PolarDrawConfig, RestoreError,
};
use rf_core::{crc32, Json};
use rfid_sim::chaos::mutate_bytes;
use rfid_sim::TagReport;
use std::path::PathBuf;

fn coarse_config() -> PolarDrawConfig {
    let mut cfg = PolarDrawConfig::default();
    cfg.hmm.cell_m *= 8.0;
    cfg
}

fn stream(n: usize, t0: f64) -> Vec<TagReport> {
    (0..n)
        .map(|i| TagReport {
            t: t0 + i as f64 * 0.01,
            antenna: i % 2,
            rssi_dbm: -52.0 - (i % 5) as f64 * 0.5,
            phase_rad: rf_core::wrap_tau(0.03 * i as f64),
            channel: i % 4,
            epc: 0xD0_0D5,
        })
        .collect()
}

/// A tracker with real decoded state (not a blank slate), so the sweep
/// exercises the full payload surface: frames, frontier, preprocess
/// windows, model state.
fn warmed_tracker() -> OnlineTracker {
    let mut tracker = OnlineTracker::new(coarse_config(), OnlineOptions::default());
    for r in stream(120, 0.0) {
        tracker.push(r);
    }
    tracker
}

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots").join(name)
}

fn assert_matches_snapshot(name: &str, actual: &str) {
    let path = snapshot_path(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {} ({e}); run GOLDEN_REGEN=1", path.display()));
    assert!(
        expected == actual,
        "{name}: the checkpoint envelope format drifted.\n\
         If this change is intentional, regenerate with GOLDEN_REGEN=1, review the \
         diff, and bump the format tag if old documents can no longer restore."
    );
}

#[test]
fn restore_survives_2000_mutated_envelopes() {
    let tracker = warmed_tracker();
    let reference = tracker.checkpoint_string();
    let sealed = seal_checkpoint(&tracker, 3);

    let mut accepted = 0;
    let mut rejected = 0;
    for case in 0..2000u64 {
        let mutated = mutate_bytes(sealed.as_bytes(), case);
        let opened = match std::str::from_utf8(&mutated) {
            Ok(text) => open_checkpoint(coarse_config(), text),
            // Non-UTF-8 corruption is rejected before parsing, the
            // same way `CheckpointStore::recover` rejects it.
            Err(_) => Err(RestoreError::Field("not UTF-8".into())),
        };
        match opened {
            Ok(restored) => {
                // The CRC admits only semantically identical bytes
                // (e.g. a truncation at full length): the restored
                // state must be bit-identical to the original.
                assert_eq!(restored.generation, 3, "case {case}");
                assert_eq!(
                    restored.tracker.checkpoint_string(),
                    reference,
                    "case {case}: corrupted bytes restored to different state"
                );
                accepted += 1;
            }
            Err(e) => {
                // Typed errors must render without panicking.
                let rendered = e.to_string();
                assert!(!rendered.is_empty(), "case {case}");
                rejected += 1;
            }
        }
    }
    // The sweep is only meaningful if the vast majority of corruptions
    // are actually caught.
    assert!(rejected > 1900, "only {rejected}/2000 rejected");
    assert!(accepted + rejected == 2000);
}

/// Rewrite the number at `path` inside a sealed envelope's payload
/// (object keys, or array indices written as digits) and re-seal it
/// with a valid CRC — what a hostile or buggy writer could hand to
/// restore. Returns the edited envelope.
fn reseal_with(sealed: &str, path: &[&str], value: f64) -> String {
    let mut doc = Json::parse(sealed).expect("sealed envelope parses");
    let Json::Obj(env) = &mut doc else { panic!("envelope is an object") };
    env.remove("crc");
    let mut at = env.get_mut("payload").expect("payload");
    for step in path {
        at = match at {
            Json::Obj(o) => o.get_mut(*step),
            Json::Arr(a) => step.parse::<usize>().ok().and_then(|i| a.get_mut(i)),
            _ => None,
        }
        .unwrap_or_else(|| panic!("no `{step}` on the path {path:?}"));
    }
    *at = Json::num(value);
    let crc = crc32(doc.to_json_string().as_bytes());
    if let Json::Obj(env) = &mut doc {
        env.insert("crc".to_string(), Json::num(crc as f64));
    }
    doc.to_json_string()
}

fn reseal_with_kernel_threads(sealed: &str, threads: f64) -> String {
    reseal_with(sealed, &["options", "kernel", "threads"], threads)
}

#[test]
fn restore_bounds_the_kernel_thread_count() {
    let tracker = warmed_tracker();
    let sealed = seal_checkpoint(&tracker, 3);

    // `threads` is a format field the decode step no longer reads, but
    // a re-CRC'd envelope above its ceiling stays a typed field error.
    let hostile = reseal_with_kernel_threads(&sealed, 1e9);
    match open_checkpoint(coarse_config(), &hostile) {
        Err(RestoreError::Field(msg)) => assert!(msg.contains("threads"), "{msg}"),
        other => panic!("threads = 1e9 must be rejected as a field error, got {other:?}"),
    }

    // A value within the ceiling restores, is normalised back to the
    // format constant 1 (so the state re-serialises as the untouched
    // tracker's), and decodes the rest of the stream exactly like the
    // untouched tracker.
    let edited = reseal_with_kernel_threads(&sealed, 8.0);
    assert!(edited.contains(r#""threads":8"#), "precondition: the edit reached the envelope");
    let restored = open_checkpoint(coarse_config(), &edited).expect("threads = 8 restores");
    assert_eq!(restored.generation, 3);
    assert_eq!(restored.tracker.checkpoint_string(), tracker.checkpoint_string());
    let mut want = tracker;
    let mut got = restored.tracker;
    for r in stream(120, 1.2) {
        want.push(r);
        got.push(r);
    }
    let (want, got) = (want.finalize(), got.finalize());
    assert_eq!(got.trail.points.len(), want.trail.points.len());
    for (a, b) in got.trail.points.iter().zip(&want.trail.points) {
        assert!(
            a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits(),
            "{a:?} vs {b:?}"
        );
    }
}

#[test]
fn restore_rejects_negative_and_fractional_counts() {
    let tracker = warmed_tracker();
    let sealed = seal_checkpoint(&tracker, 3);
    // Each of these once cast to a valid value (cell 0, prev 2, lag 0
    // clamped to 1, 0 reads, a pending report on port 0 or channel 0)
    // and restored a state no tracker wrote.
    let cases: [(&[&str], f64); 7] = [
        (&["decoder", "frontier", "0", "0"], -1.0),
        (&["decoder", "frames", "0", "prevs", "0"], 2.5),
        (&["options", "lag"], -3.0),
        (&["windows", "0", "reads", "0"], 0.5),
        (&["stream", "pending", "0", "antenna"], -1.0),
        (&["stream", "pending", "0", "antenna"], 0.5),
        (&["stream", "pending", "0", "channel"], -7.0),
    ];
    for (path, value) in cases {
        let hostile = reseal_with(&sealed, path, value);
        match open_checkpoint(coarse_config(), &hostile) {
            Err(RestoreError::Field(_)) => {}
            other => panic!("{path:?} = {value} must be a field error, got {other:?}"),
        }
    }
    // The `usize::MAX` sentinel (written as 2^64) still restores.
    let unbounded = reseal_with(&sealed, &["options", "lag"], 2f64.powi(64));
    let restored = open_checkpoint(coarse_config(), &unbounded).expect("lag = 2^64 restores");
    assert_eq!(restored.tracker.options().lag, usize::MAX);
}

#[test]
fn v1_documents_migrate_to_a_pinned_v2_envelope() {
    let tracker = warmed_tracker();
    let v1 = tracker.checkpoint_string();
    assert!(
        v1.contains("polardraw.online.checkpoint.v1"),
        "precondition: the legacy format tag is intact"
    );

    // A bare v1 document opens as generation 0 …
    let restored = open_checkpoint(coarse_config(), &v1).expect("v1 opens");
    assert_eq!(restored.generation, 0);
    assert_eq!(restored.tracker.checkpoint_string(), v1, "v1 round trip is bitwise");

    // … and re-seals into a v2 envelope whose exact bytes are pinned:
    // any unreviewed format drift (field rename, CRC definition change,
    // serialization change) fails here before it strands old stores.
    let migrated = seal_checkpoint(&restored.tracker, 1);
    assert_matches_snapshot("checkpoint_v2_migration.json", &migrated);

    // The pinned envelope itself restores, to the same v1 payload.
    let reopened = open_checkpoint(coarse_config(), &migrated).expect("v2 opens");
    assert_eq!(reopened.generation, 1);
    assert_eq!(reopened.tracker.checkpoint_string(), v1);

    // And its recorded rig CRC matches the live computation.
    assert!(migrated
        .contains(&format!("\"rig_crc\":{}", durability::rig_crc(&coarse_config()))));
}

#[test]
fn store_walks_back_over_chaos_corruption() {
    let mut store = CheckpointStore::in_memory(3);
    let mut tracker = OnlineTracker::new(coarse_config(), OnlineOptions::default());
    let mut sealed_states = Vec::new();
    for round in 0..4 {
        for r in stream(60, round as f64 * 0.6) {
            tracker.push(r);
        }
        let generation = store.save(9, &tracker);
        sealed_states.push((generation, tracker.checkpoint_string()));
    }
    assert_eq!(store.generations(9), vec![2, 3, 4], "keep=3 pruned generation 1");

    // Chaos-corrupt the newest two generations; recovery must land on
    // generation 2 and reproduce exactly the state sealed then.
    for (i, &generation) in [4u64, 3].iter().enumerate() {
        let bytes = store.read(9, generation).unwrap();
        let mut corrupt = mutate_bytes(&bytes, 1000 + i as u64);
        if corrupt == bytes {
            corrupt.truncate(bytes.len() / 2);
        }
        store.overwrite(9, generation, &corrupt);
    }
    let recovered = store.recover(9, coarse_config()).expect("walk-back");
    assert_eq!(recovered.generation, 2);
    assert_eq!(recovered.fallbacks, 2);
    let expected = &sealed_states.iter().find(|(g, _)| *g == 2).unwrap().1;
    assert_eq!(&recovered.tracker.checkpoint_string(), expected);

    // Rot the last good one too: typed error, not a panic.
    store.overwrite(9, 2, b"\xFF\xFEnot a checkpoint");
    let err = store.recover(9, coarse_config()).unwrap_err();
    assert!(!err.to_string().is_empty());
    assert_eq!(store.recover(1234, coarse_config()).unwrap_err(), RestoreError::Missing);
}

#[test]
fn a_torn_write_never_becomes_visible() {
    let mut store = CheckpointStore::in_memory(2);
    let tracker = warmed_tracker();
    store.save(5, &tracker);

    // Writer crashes after staging generation 2 but before commit.
    let next = seal_checkpoint(&tracker, 2);
    store.stage(5, 2, next.into_bytes());
    assert_eq!(store.latest(5), Some(1), "staged bytes are invisible");
    assert_eq!(store.recover(5, coarse_config()).expect("recover").generation, 1);

    // The restarted writer completes the commit; only now it lands.
    assert!(store.commit(5, 2));
    assert_eq!(store.recover(5, coarse_config()).expect("recover").generation, 2);
}

/// One call a serving fleet makes on a tracker between seals.
#[derive(Debug, Clone, Copy)]
enum Call {
    /// A drain that hands the tracker the next `n` reports.
    Drain(usize),
    SetLag(usize),
    SetKernel(KernelOptions),
    /// Replace the tracker by what its own seal opens to.
    Restore,
}

/// Reports that make rotational, translational and still steps, with
/// one 0.6 s outage (12 empty windows, enough for a gap bridge).
fn varied_stream(n: usize) -> Vec<TagReport> {
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            t += if i == 300 { 0.6 } else { 0.01 };
            let turning = (i / 100) % 2 == 0;
            TagReport {
                t,
                antenna: i % 2,
                rssi_dbm: if turning { -50.0 + 6.0 * (0.05 * i as f64).sin() } else { -40.0 },
                phase_rad: rf_core::wrap_tau(0.03 * i as f64 + 0.4 * (i % 2) as f64),
                channel: i % 4,
                epc: 0x5EA1,
            }
        })
        .collect()
}

/// Apply `call` to `tracker`, taking drained reports from `reports`
/// starting at `*at`.
fn apply(tracker: &mut OnlineTracker, call: Call, reports: &[TagReport], at: &mut usize) {
    match call {
        Call::Drain(n) => {
            tracker.extend(&reports[*at..*at + n]);
            *at += n;
        }
        Call::SetLag(lag) => {
            tracker.set_lag(lag);
        }
        Call::SetKernel(kernel) => tracker.set_kernel(kernel),
        Call::Restore => {
            let config = *tracker.config();
            *tracker = open_checkpoint(config, &seal_checkpoint(tracker, 0))
                .expect("a tracker's own seal opens")
                .tracker;
        }
    }
}

#[test]
fn incremental_seal_equals_cold_seal() {
    let options = OnlineOptions { lag: 24, ..OnlineOptions::default() };
    let mut calls = vec![Call::Drain(8); 20];
    calls.push(Call::SetLag(6)); // shrink: commits 18 sealed frames at once
    calls.extend([Call::Drain(8); 5]);
    calls.push(Call::SetLag(30)); // grow
    calls.extend([Call::Drain(8); 10]);
    calls.push(Call::SetKernel(KernelOptions::fast()));
    calls.extend([Call::Drain(8), Call::Drain(40), Call::Drain(1), Call::Drain(8)]);
    calls.push(Call::Restore);
    calls.extend([Call::Drain(8); 6]);
    calls.push(Call::SetKernel(KernelOptions::exact()));
    calls.extend([Call::Drain(8); 8]);
    calls.push(Call::SetLag(1)); // shrink to the floor
    calls.extend([Call::Drain(8); 4]);
    calls.push(Call::SetLag(24));
    calls.extend([Call::Drain(8); 10]);
    let total: usize = calls.iter().map(|c| if let Call::Drain(n) = c { *n } else { 0 }).sum();
    let reports = varied_stream(total);

    for period in [1usize, 3] {
        let mut live = OnlineTracker::new(coarse_config(), options);
        let mut at = 0;
        let (mut drains, mut sealed_bytes, mut formatted_bytes) = (0u64, 0u64, 0u64);
        for (i, &call) in calls.iter().enumerate() {
            apply(&mut live, call, &reports, &mut at);
            if !matches!(call, Call::Drain(_)) {
                continue;
            }
            drains += 1;
            if drains % period as u64 != 0 {
                continue;
            }
            let before = live.checkpoint_bytes_formatted();
            let warm = seal_checkpoint(&live, drains);
            formatted_bytes += live.checkpoint_bytes_formatted() - before;
            sealed_bytes += warm.len() as u64;

            // The reference: a tracker that saw the same reports and
            // calls but was never sealed, so its cache starts empty.
            let mut cold = OnlineTracker::new(coarse_config(), options);
            let mut cold_at = 0;
            for &c in &calls[..=i] {
                apply(&mut cold, c, &reports, &mut cold_at);
            }
            assert_eq!(cold.checkpoint_bytes_formatted(), 0, "the reference was never sealed");
            let reference = seal_checkpoint(&cold, drains);
            assert!(warm == reference, "period {period}: seal after call {i} ({call:?}) drifted");
            let canonical = Json::parse(&warm).expect("sealed JSON parses").to_json_string();
            assert!(warm == canonical, "period {period}: seal after call {i} is not canonical");
        }
        assert_eq!(at, reports.len());
        assert!(live.degradation_so_far().gaps_bridged > 0, "the outage was bridged");
        // The cache did the work it exists for: most sealed bytes were
        // copied, not formatted again.
        assert!(
            formatted_bytes * 2 < sealed_bytes,
            "period {period}: formatted {formatted_bytes} of {sealed_bytes} sealed bytes"
        );
    }
}

/// The trackers and cuts `seal_bytes.json` pins: both kernels at the
/// default lag and at a short one, sealed after every 32 reports of a
/// 640-report stream with turns, translations and an outage.
const SEAL_LAGS: [usize; 2] = [64, 12];
const SEAL_EVERY: usize = 32;
const SEAL_REPORTS: usize = 640;
/// The two seals the snapshot holds in full: `(kernel, lag, reports)`.
const SEAL_IN_FULL: [(&str, usize, usize); 2] = [("fast", 12, 320), ("exact", 12, 96)];

/// `(name, reports, generation, envelope)` for every pinned seal.
fn pinned_seals() -> Vec<(String, usize, u64, String)> {
    let reports = varied_stream(SEAL_REPORTS);
    let mut seals = Vec::new();
    let kernels = [("fast", KernelOptions::fast()), ("exact", KernelOptions::exact())];
    for (kernel_name, kernel) in kernels {
        for lag in SEAL_LAGS {
            let options = OnlineOptions { lag, kernel, ..OnlineOptions::default() };
            let mut tracker = OnlineTracker::new(coarse_config(), options);
            for (cut, chunk) in reports.chunks(SEAL_EVERY).enumerate() {
                tracker.extend(chunk);
                let generation = cut as u64 + 1;
                let fed = (cut + 1) * SEAL_EVERY;
                let name = format!("{kernel_name}/lag{lag}");
                seals.push((name, fed, generation, seal_checkpoint(&tracker, generation)));
            }
        }
    }
    seals
}

#[test]
fn seals_match_the_pinned_bytes() {
    let path = snapshot_path("seal_bytes.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {} ({e})", path.display()));
    let pinned = Json::parse(&text).expect("seal_bytes.json parses");
    let entries = pinned.get("seals").and_then(Json::as_arr).expect("seals array");
    let seals = pinned_seals();
    assert_eq!(entries.len(), seals.len(), "one pinned entry per seal");
    for ((name, fed, generation, sealed), entry) in seals.iter().zip(entries) {
        let at = format!("{name} after {fed} reports");
        assert_eq!(entry.get("tracker").and_then(Json::as_str), Some(name.as_str()), "{at}");
        assert_eq!(entry.req_f64("reports").ok(), Some(*fed as f64), "{at}");
        assert_eq!(entry.req_f64("generation").ok(), Some(*generation as f64), "{at}");
        assert_eq!(entry.req_f64("len").ok(), Some(sealed.len() as f64), "{at}: length drifted");
        assert_eq!(
            entry.req_f64("crc").ok(),
            Some(crc32(sealed.as_bytes()) as f64),
            "{at}: bytes drifted"
        );
    }
    let full = pinned.get("full").and_then(Json::as_arr).expect("full array");
    assert_eq!(full.len(), SEAL_IN_FULL.len());
    for ((kernel, lag, fed), entry) in SEAL_IN_FULL.iter().zip(full) {
        let name = format!("{kernel}/lag{lag}");
        let (_, _, _, sealed) = seals
            .iter()
            .find(|(n, f, _, _)| *n == name && f == fed)
            .expect("the full seal is one of the swept seals");
        assert_eq!(entry.get("tracker").and_then(Json::as_str), Some(name.as_str()));
        assert_eq!(entry.req_f64("reports").ok(), Some(*fed as f64));
        let want = entry.get("envelope").and_then(Json::as_str).expect("envelope text");
        assert!(want == sealed, "{name} after {fed} reports: the sealed text drifted");
    }
}
