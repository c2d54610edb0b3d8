//! Crash-safe checkpoint durability.
//!
//! The online engine's `checkpoint.v1` documents (see
//! [`crate::online`]) are bitwise round-trippable but assume the bytes
//! come back exactly as written. This module makes them survive a
//! hostile world — crashes mid-write, bit rot at rest, truncation —
//! and makes *restore from untrusted bytes* a total function: every
//! failure is a typed [`RestoreError`], never a panic.
//!
//! Three pieces:
//!
//! * **The `checkpoint.v2` envelope** — a JSON wrapper around a full
//!   v1 payload carrying a `generation` counter, a `rig_crc`
//!   (CRC-32 of the canonical rig fingerprint, so a store can cheaply
//!   reject a checkpoint from the wrong rig), and a `crc` over the
//!   canonical serialization of the entire envelope minus the `crc`
//!   field itself. Because the workspace JSON writer is canonical
//!   (sorted keys, shortest-round-trip numbers), *any* semantic
//!   mutation of the document changes the CRC. Plain v1 documents
//!   (and v1 payloads inside the envelope) still parse; they restore
//!   as generation 0.
//! * **[`CheckpointStore`]** — generations of sealed envelopes per
//!   session in a virtual [`BlobStore`], written with
//!   stage-then-commit atomicity (a crash between the two leaves an
//!   ignored `stage/…` orphan, never a half-visible checkpoint),
//!   pruned to the last `keep` generations, and recovered by walking
//!   generations newest → oldest until one opens cleanly.
//! * **[`RestoreError`]** — the typed error surface shared with
//!   [`OnlineTracker::restore`](crate::online::OnlineTracker::restore).
//!
//! Sealing writes the envelope straight into one buffer: the payload
//! text comes from
//! [`OnlineTracker::write_checkpoint`](crate::online::OnlineTracker::write_checkpoint),
//! which formats only what changed since the tracker's previous seal
//! and copies the rest from its seal cache, then one CRC pass and a
//! splice of the `crc` field. Opening parses the text into a `Json`
//! tree and checks the CRC over its canonical re-serialization.
//!
//! The fleet layer ([`crate::fleet`]) drives this with a checkpoint
//! policy and an escrow ledger so that crash recovery is loss-free;
//! the chaos harness (`rfid_sim::chaos` + `tests/chaos.rs`) proves it.

use rf_core::crc::crc32;
use rf_core::json::{write_escaped, write_integer, write_number, Json, JsonError};
use rf_core::store::{BlobStore, MemBlobStore};

use crate::online::{fingerprint_json, OnlineTracker};
use crate::PolarDrawConfig;

/// Format tag carried by every sealed v2 envelope.
pub const CHECKPOINT_FORMAT_V2: &str = "polardraw.online.checkpoint.v2";

/// Why a checkpoint could not be restored. Every variant is reachable
/// from corrupted or hostile bytes; none of them panic.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The bytes are not valid JSON (or not valid UTF-8).
    Parse(JsonError),
    /// The document's format tag is neither `checkpoint.v1` nor
    /// `checkpoint.v2`.
    Format {
        /// The format tag actually found (empty if absent/mistyped).
        found: String,
    },
    /// The envelope CRC does not cover the bytes that came back:
    /// the document was corrupted at rest.
    Checksum {
        /// CRC recorded in the envelope when it was sealed.
        recorded: u32,
        /// CRC recomputed over the document as read back.
        computed: u32,
    },
    /// The checkpoint was produced under a different rig
    /// configuration than the one supplied to restore.
    Fingerprint,
    /// A required field is missing, mistyped, or out of range.
    Field(String),
    /// No checkpoint exists at all for the requested session.
    Missing,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Parse(e) => write!(f, "checkpoint is not valid JSON: {e}"),
            RestoreError::Format { found } => {
                write!(f, "unknown checkpoint format `{found}`")
            }
            RestoreError::Checksum { recorded, computed } => write!(
                f,
                "checkpoint checksum mismatch (recorded {recorded:#010x}, computed {computed:#010x})"
            ),
            RestoreError::Fingerprint => {
                write!(f, "checkpoint fingerprint does not match the supplied configuration")
            }
            RestoreError::Field(msg) => write!(f, "malformed checkpoint field: {msg}"),
            RestoreError::Missing => write!(f, "no checkpoint exists for this session"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<JsonError> for RestoreError {
    fn from(e: JsonError) -> RestoreError {
        RestoreError::Field(e.to_string())
    }
}

/// A checkpoint opened successfully, with its provenance.
#[derive(Debug)]
pub struct Restored {
    /// The rebuilt tracker.
    pub tracker: OnlineTracker,
    /// Generation counter from the envelope (0 for bare v1 documents).
    pub generation: u64,
}

/// CRC-32 of a configuration's canonical fingerprint document — the
/// cheap rig-identity check carried in every v2 envelope.
pub fn rig_crc(config: &PolarDrawConfig) -> u32 {
    crc32(fingerprint_json(config).to_json_string().as_bytes())
}

/// Seal a tracker's state into a `checkpoint.v2` envelope string.
///
/// The envelope is canonical JSON; `crc` covers the canonical
/// serialization of every other field (including the full v1 payload),
/// so any semantic corruption is detected on open. `generation` is the
/// caller's monotone counter ([`CheckpointStore::save`] manages it);
/// it must stay below 2^53 to survive the JSON number round trip,
/// which a per-session counter always does.
///
/// The envelope is written once, straight into one buffer, with no
/// `Json` tree: the payload comes from
/// [`OnlineTracker::write_checkpoint`], which copies the text of
/// history items and lag frames sealed before from the tracker's seal
/// cache and formats only what is new. `"crc"` sorts before every other
/// envelope key, so the canonical envelope is `{"crc":N,` followed by
/// the CRC'd body minus its opening brace: splicing the two gives the
/// same bytes as inserting `crc` and serializing again.
pub fn seal_checkpoint(tracker: &OnlineTracker, generation: u64) -> String {
    // Envelope keys in sorted order: format, generation, payload, rig_crc.
    let mut out = String::from("{\"format\":");
    write_escaped(CHECKPOINT_FORMAT_V2, &mut out);
    out.push_str(",\"generation\":");
    write_number(generation as f64, &mut out);
    out.push_str(",\"payload\":");
    tracker.write_checkpoint(&mut out);
    out.push_str(",\"rig_crc\":");
    write_integer(rig_crc(tracker.config()).into(), &mut out);
    out.push('}');
    let crc = crc32(out.as_bytes());
    // A u32 prints the same digits as the f64 it widens to.
    let mut head = String::from("{\"crc\":");
    write_integer(crc.into(), &mut head);
    head.push(',');
    out.replace_range(..1, &head);
    out
}

/// Open a checkpoint document of either format from untrusted text.
///
/// v2 envelopes are CRC- and fingerprint-verified before the payload
/// is parsed; bare v1 documents restore directly as generation 0
/// (fingerprint-verified by [`OnlineTracker::restore`] itself).
pub fn open_checkpoint(
    config: PolarDrawConfig,
    text: &str,
) -> Result<Restored, RestoreError> {
    let doc = Json::parse(text).map_err(RestoreError::Parse)?;
    open_checkpoint_json(config, &doc)
}

/// [`open_checkpoint`] for an already-parsed document.
pub fn open_checkpoint_json(
    config: PolarDrawConfig,
    doc: &Json,
) -> Result<Restored, RestoreError> {
    let format = doc.get("format").and_then(Json::as_str).unwrap_or("");
    if format == OnlineTracker::CHECKPOINT_FORMAT {
        let tracker = OnlineTracker::restore(config, doc)?;
        return Ok(Restored { tracker, generation: 0 });
    }
    if format != CHECKPOINT_FORMAT_V2 {
        return Err(RestoreError::Format { found: format.to_string() });
    }

    // Integrity first: recompute the CRC over the canonical
    // serialization of the envelope minus its `crc` field. The writer
    // is canonical, so intact bytes always verify and any semantic
    // mutation (bit flip, truncation repaired by luck, type
    // confusion) is caught here.
    let recorded = req_u32(doc, "crc")?;
    let computed = crc32(doc.to_json_string_without("crc").as_bytes());
    if recorded != computed {
        return Err(RestoreError::Checksum { recorded, computed });
    }

    // Identity second: the envelope-level rig CRC rejects a
    // checkpoint from a different rig without parsing the payload.
    if req_u32(doc, "rig_crc")? != rig_crc(&config) {
        return Err(RestoreError::Fingerprint);
    }

    let generation = req_u53(doc, "generation")?;
    let payload =
        doc.get("payload").ok_or_else(|| RestoreError::Field("missing `payload`".into()))?;
    let tracker = OnlineTracker::restore(config, payload)?;
    Ok(Restored { tracker, generation })
}

fn req_u32(doc: &Json, key: &str) -> Result<u32, RestoreError> {
    match doc.get(key).and_then(Json::as_f64) {
        Some(x) if x.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&x) => Ok(x as u32),
        _ => Err(RestoreError::Field(format!("missing or non-u32 field `{key}`"))),
    }
}

fn req_u53(doc: &Json, key: &str) -> Result<u64, RestoreError> {
    match doc.get(key).and_then(Json::as_f64) {
        Some(x) if x.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&x) => {
            Ok(x as u64)
        }
        _ => Err(RestoreError::Field(format!("missing or non-integer field `{key}`"))),
    }
}

/// A checkpoint recovered through the generation walk-back.
#[derive(Debug)]
pub struct Recovered {
    /// The rebuilt tracker.
    pub tracker: OnlineTracker,
    /// Generation it was rebuilt from.
    pub generation: u64,
    /// Newer generations that failed to open and were skipped.
    pub fallbacks: usize,
}

/// Generations of sealed checkpoints per session over a virtual
/// [`BlobStore`], with stage-then-commit writes and walk-back
/// recovery.
///
/// Key scheme: `ckpt/{session:016x}/{generation:016x}` — fixed-width
/// hex, so the store's sorted keys enumerate generations in order.
/// Writes go to `stage/…` first and are only then moved to their
/// final key; recovery never looks at `stage/…`, so a crash between
/// the two steps leaves the previous generation intact.
#[derive(Debug)]
pub struct CheckpointStore {
    backend: Box<dyn BlobStore>,
    keep: usize,
}

impl CheckpointStore {
    /// Store over `backend`, retaining the last `keep ≥ 1` generations
    /// per session.
    pub fn new(backend: Box<dyn BlobStore>, keep: usize) -> CheckpointStore {
        CheckpointStore { backend, keep: keep.max(1) }
    }

    /// In-memory store (the default for tests and single-process
    /// fleets).
    pub fn in_memory(keep: usize) -> CheckpointStore {
        CheckpointStore::new(Box::new(MemBlobStore::new()), keep)
    }

    /// How many generations are retained per session.
    pub fn keep(&self) -> usize {
        self.keep
    }

    fn final_key(session: u64, generation: u64) -> String {
        format!("ckpt/{session:016x}/{generation:016x}")
    }

    fn stage_key(session: u64, generation: u64) -> String {
        format!("stage/{session:016x}/{generation:016x}")
    }

    /// Committed generations for `session`, ascending. Scans only that
    /// session's keys, so the cost is O(`keep`), not O(store).
    pub fn generations(&self, session: u64) -> Vec<u64> {
        let prefix = format!("ckpt/{session:016x}/");
        self.backend
            .keys_with_prefix(&prefix)
            .iter()
            .filter_map(|k| k.strip_prefix(&prefix))
            .filter_map(|suffix| u64::from_str_radix(suffix, 16).ok())
            .collect()
    }

    /// Forget `session` entirely: remove every committed generation and
    /// any staged write it left behind. Called when a session finishes,
    /// so the store holds live sessions only.
    pub fn purge(&mut self, session: u64) {
        for area in ["ckpt", "stage"] {
            for key in self.backend.keys_with_prefix(&format!("{area}/{session:016x}/")) {
                self.backend.remove(&key);
            }
        }
    }

    /// Newest committed generation for `session`, if any.
    pub fn latest(&self, session: u64) -> Option<u64> {
        self.generations(session).last().copied()
    }

    /// Oldest retained generation for `session`, if any.
    pub fn oldest(&self, session: u64) -> Option<u64> {
        self.generations(session).first().copied()
    }

    /// Seal and durably write the next generation for `session`,
    /// returning the generation number. Stage + commit in one call.
    pub fn save(&mut self, session: u64, tracker: &OnlineTracker) -> u64 {
        let generation = self.latest(session).map_or(1, |g| g + 1);
        let mut bytes = seal_checkpoint(tracker, generation).into_bytes();
        // The sealed buffer reserved room for the document to grow; a
        // blob kept for `keep` generations should not hold that slack.
        // Shrinking gives the tail back to the allocator, normally
        // without moving the text.
        bytes.shrink_to_fit();
        self.stage(session, generation, bytes);
        self.commit(session, generation);
        generation
    }

    /// First half of a write: park the sealed bytes at a staging key.
    /// Recovery ignores staged bytes; only [`commit`](Self::commit)
    /// makes them visible. Exposed so the chaos harness can crash a
    /// writer between the two steps. The store takes the buffer itself:
    /// [`save`](Self::save) hands over the sealed text's bytes uncopied.
    pub fn stage(&mut self, session: u64, generation: u64, bytes: Vec<u8>) {
        self.backend.put(&Self::stage_key(session, generation), bytes);
    }

    /// Second half of a write: move the staged bytes to their final
    /// key ([`BlobStore::rename`], so an in-memory store copies
    /// nothing) and prune old generations. Returns `false` (and changes
    /// nothing) if nothing was staged.
    pub fn commit(&mut self, session: u64, generation: u64) -> bool {
        let stage = Self::stage_key(session, generation);
        if !self.backend.rename(&stage, &Self::final_key(session, generation)) {
            return false;
        }
        let gens = self.generations(session);
        for &old in gens.iter().take(gens.len().saturating_sub(self.keep)) {
            self.backend.remove(&Self::final_key(session, old));
        }
        true
    }

    /// Raw sealed bytes of one committed generation (for inspection
    /// and for the chaos harness's corruption hooks).
    pub fn read(&self, session: u64, generation: u64) -> Option<Vec<u8>> {
        self.backend.get(&Self::final_key(session, generation))
    }

    /// Overwrite one committed generation's bytes in place — the
    /// corruption hook the chaos harness uses to model bit rot.
    pub fn overwrite(&mut self, session: u64, generation: u64, bytes: &[u8]) {
        self.backend.put(&Self::final_key(session, generation), bytes.to_vec());
    }

    /// Rebuild `session`'s tracker from the newest generation that
    /// opens cleanly, walking back over corrupted ones.
    ///
    /// `Err(RestoreError::Missing)` if no generation is committed;
    /// otherwise the last (oldest) failure if every generation is bad.
    pub fn recover(
        &self,
        session: u64,
        config: PolarDrawConfig,
    ) -> Result<Recovered, RestoreError> {
        let mut fallbacks = 0;
        let mut last_err = RestoreError::Missing;
        for &generation in self.generations(session).iter().rev() {
            let Some(bytes) = self.read(session, generation) else {
                continue;
            };
            let opened = match std::str::from_utf8(&bytes) {
                Ok(text) => open_checkpoint(config, text),
                Err(_) => {
                    Err(RestoreError::Field("checkpoint bytes are not UTF-8".into()))
                }
            };
            match opened {
                Ok(restored) if restored.generation == generation => {
                    return Ok(Recovered {
                        tracker: restored.tracker,
                        generation,
                        fallbacks,
                    });
                }
                Ok(_) => {
                    // Envelope opened but claims a different
                    // generation than its key: treat as corrupt.
                    fallbacks += 1;
                    last_err = RestoreError::Field(
                        "envelope generation does not match its key".into(),
                    );
                }
                Err(e) => {
                    fallbacks += 1;
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OnlineOptions;

    fn coarse_config() -> PolarDrawConfig {
        let mut cfg = PolarDrawConfig::default();
        cfg.hmm.cell_m *= 8.0;
        cfg
    }

    fn fresh_tracker() -> OnlineTracker {
        OnlineTracker::new(coarse_config(), OnlineOptions::default())
    }

    /// A tracker fed `n` synthetic reports, deep enough to carry lag
    /// frames, history and pending reports.
    fn warmed_tracker(n: usize) -> OnlineTracker {
        let mut tracker = fresh_tracker();
        for i in 0..n {
            tracker.push(rfid_sim::TagReport {
                t: i as f64 * 0.01,
                antenna: i % 2,
                rssi_dbm: -55.0 - (i % 7) as f64 * 0.25,
                phase_rad: rf_core::wrap_tau(0.02 * i as f64),
                channel: 0,
                epc: 0xD0_AB1E,
            });
        }
        tracker
    }

    /// The two-pass reference seal: build the envelope, CRC its
    /// serialization, insert `crc`, serialize again.
    /// `seal_checkpoint` must match it byte for byte.
    fn seal_two_pass(tracker: &OnlineTracker, generation: u64) -> String {
        let mut doc = Json::obj([
            ("format", Json::str(CHECKPOINT_FORMAT_V2)),
            ("generation", Json::num(generation as f64)),
            ("rig_crc", Json::num(rig_crc(tracker.config()) as f64)),
            ("payload", Json::parse(&tracker.checkpoint_string()).expect("checkpoint parses")),
        ]);
        let crc = crc32(doc.to_json_string().as_bytes());
        if let Json::Obj(map) = &mut doc {
            map.insert("crc".to_string(), Json::num(crc as f64));
        }
        doc.to_json_string()
    }

    #[test]
    fn one_pass_seal_is_byte_identical_to_two_pass() {
        let warmed = warmed_tracker(300);
        let restored = open_checkpoint(coarse_config(), &seal_checkpoint(&warmed, 9))
            .expect("open warmed")
            .tracker;
        for (name, tracker) in
            [("fresh", fresh_tracker()), ("warmed", warmed), ("restored", restored)]
        {
            for generation in [0, 1, 9, 1 << 40, (1 << 53) - 1] {
                let sealed = seal_checkpoint(&tracker, generation);
                assert_eq!(sealed, seal_two_pass(&tracker, generation), "{name} @ {generation}");
                let doc = Json::parse(&sealed).expect("sealed JSON parses");
                assert_eq!(doc.to_json_string(), sealed, "{name}: sealed text is canonical");
                assert_eq!(
                    open_checkpoint(coarse_config(), &sealed).expect("opens").generation,
                    generation
                );
            }
        }
    }

    #[test]
    fn purge_removes_only_that_session() {
        let mut store = CheckpointStore::in_memory(3);
        let tracker = fresh_tracker();
        for session in [1u64, 2, 16, 17] {
            for _ in 0..4 {
                store.save(session, &tracker);
            }
        }
        // An orphaned staged write (a writer crashed between stage and
        // commit) goes with its session too.
        store.stage(16, 9, seal_checkpoint(&tracker, 9).into_bytes());
        store.stage(17, 9, seal_checkpoint(&tracker, 9).into_bytes());
        store.purge(16);
        assert_eq!(store.generations(16), Vec::<u64>::new());
        assert_eq!(store.recover(16, coarse_config()).unwrap_err(), RestoreError::Missing);
        assert!(!store.commit(16, 9), "the staged orphan is gone");
        for session in [1u64, 2, 17] {
            assert_eq!(store.generations(session), vec![2, 3, 4], "session {session} untouched");
        }
        assert!(store.commit(17, 9), "a neighbour's staged write survives");
        store.purge(99); // never saved: a no-op
        assert_eq!(store.generations(1), vec![2, 3, 4]);
    }

    #[test]
    fn seal_open_round_trips_and_v1_still_opens() {
        let tracker = fresh_tracker();
        let sealed = seal_checkpoint(&tracker, 7);
        let restored = open_checkpoint(coarse_config(), &sealed).expect("open v2");
        assert_eq!(restored.generation, 7);
        assert_eq!(restored.tracker.checkpoint_string(), tracker.checkpoint_string());

        // A bare v1 document is generation 0.
        let v1 = tracker.checkpoint_string();
        let restored = open_checkpoint(coarse_config(), &v1).expect("open v1");
        assert_eq!(restored.generation, 0);
        assert_eq!(restored.tracker.checkpoint_string(), v1);
    }

    #[test]
    fn wrong_rig_is_a_fingerprint_error_cheaply() {
        let sealed = seal_checkpoint(&fresh_tracker(), 1);
        let mut other = coarse_config();
        other.hmm.cell_m *= 2.0;
        assert_eq!(
            open_checkpoint(other, &sealed).unwrap_err(),
            RestoreError::Fingerprint
        );
    }

    #[test]
    fn any_semantic_mutation_fails_the_checksum() {
        let sealed = seal_checkpoint(&fresh_tracker(), 3);
        // Flip the generation: a "valid JSON" corruption the payload
        // CRC of a naive scheme would miss — the whole-envelope CRC
        // catches it.
        let tampered = sealed.replace("\"generation\":3", "\"generation\":4");
        assert_ne!(tampered, sealed);
        match open_checkpoint(coarse_config(), &tampered) {
            Err(RestoreError::Checksum { .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
        // Whitespace-only changes are semantically identical and
        // verify fine (the CRC is over the canonical re-serialization).
        let spaced = sealed.replace("\"generation\":3", "\"generation\": 3");
        assert!(open_checkpoint(coarse_config(), &spaced).is_ok());
    }

    #[test]
    fn store_saves_prunes_and_walks_back() {
        let mut store = CheckpointStore::in_memory(3);
        let tracker = fresh_tracker();
        for expect in 1..=5u64 {
            assert_eq!(store.save(42, &tracker), expect);
        }
        assert_eq!(store.generations(42), vec![3, 4, 5], "pruned to keep=3");
        assert_eq!(store.generations(7), Vec::<u64>::new(), "other sessions untouched");

        // Corrupt the newest two: recovery walks back to 3.
        store.overwrite(42, 5, b"garbage");
        let mut bytes = store.read(42, 4).unwrap();
        bytes[40] ^= 0x10;
        store.overwrite(42, 4, &bytes);
        let recovered = store.recover(42, coarse_config()).expect("walk back");
        assert_eq!(recovered.generation, 3);
        assert_eq!(recovered.fallbacks, 2);
        assert_eq!(recovered.tracker.checkpoint_string(), tracker.checkpoint_string());

        // All generations corrupt: a typed error, never a panic.
        store.overwrite(42, 3, &[0xFF, 0xFE]);
        assert!(store.recover(42, coarse_config()).is_err());
        // Unknown session: Missing.
        assert_eq!(store.recover(7, coarse_config()).unwrap_err(), RestoreError::Missing);
    }

    #[test]
    fn staged_but_uncommitted_writes_are_invisible() {
        let mut store = CheckpointStore::in_memory(2);
        let tracker = fresh_tracker();
        store.save(1, &tracker);
        // A writer crashes after staging generation 2.
        let sealed = seal_checkpoint(&tracker, 2);
        store.stage(1, 2, sealed.into_bytes());
        assert_eq!(store.latest(1), Some(1), "staged bytes are not visible");
        let recovered = store.recover(1, coarse_config()).expect("recover");
        assert_eq!(recovered.generation, 1);
        assert_eq!(recovered.fallbacks, 0);
        // A later writer (or the restarted one) commits; now it lands.
        assert!(store.commit(1, 2));
        assert_eq!(store.latest(1), Some(2));
        assert!(!store.commit(1, 2), "commit is idempotent-safe: nothing staged");
    }
}
