//! Virtual blob storage for durable state.
//!
//! [`BlobStore`] is the narrow waist between anything that wants to
//! persist bytes (checkpoints, escrow ledgers) and where those bytes
//! actually live. The trait is object-safe on purpose: the durability
//! layer holds a `Box<dyn BlobStore>` so a router does not become
//! generic over its storage backend, and the chaos harness can wrap
//! any backend to inject corruption, torn writes, and lost commits
//! without the code under test knowing.
//!
//! Keys are flat strings; hierarchical layouts use `/`-separated
//! prefixes by convention (e.g. `ckpt/{session}/{generation}`) and
//! [`BlobStore::keys`] returns lexicographically sorted keys so a
//! fixed-width hex key scheme enumerates in logical order.
//!
//! [`MemBlobStore`] is the reference in-memory implementation; it is
//! what the fleet tests and the chaos soak run against.

use std::collections::BTreeMap;
use std::ops::Bound;

/// An ordered key → bytes store. See the module docs for the contract.
///
/// Implementations must make `put` replace atomically from the
/// caller's point of view (`get` sees either the old or the new
/// bytes, never a mix); write-then-commit sequencing across *keys* is
/// the durability layer's job, not the store's.
pub trait BlobStore: std::fmt::Debug {
    /// Insert or replace the blob at `key`, taking ownership of its
    /// bytes (an in-memory store keeps the buffer itself, no copy).
    fn put(&mut self, key: &str, bytes: Vec<u8>);
    /// Fetch a copy of the blob at `key`, if present.
    fn get(&self, key: &str) -> Option<Vec<u8>>;
    /// All keys, lexicographically sorted.
    fn keys(&self) -> Vec<String>;
    /// The keys starting with `prefix`, lexicographically sorted.
    ///
    /// The default filters [`keys`](Self::keys); an ordered backend
    /// should override it to visit only the matching range, since the
    /// durability layer lists one session's generations per write.
    fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        self.keys().into_iter().filter(|k| k.starts_with(prefix)).collect()
    }
    /// Remove the blob at `key`; returns whether it existed.
    fn remove(&mut self, key: &str) -> bool;
    /// Move the blob at `from` to `to`, replacing any blob there;
    /// returns whether `from` existed (if not, nothing changes).
    ///
    /// The default copies it out, writes it back and removes the
    /// source; a backend that can re-key a blob in place should
    /// override it.
    fn rename(&mut self, from: &str, to: &str) -> bool {
        let Some(bytes) = self.get(from) else {
            return false;
        };
        self.put(to, bytes);
        self.remove(from);
        true
    }
}

/// In-memory [`BlobStore`] over a `BTreeMap` (keys come back sorted
/// for free). Cloneable so tests can snapshot a store mid-scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemBlobStore {
    blobs: BTreeMap<String, Vec<u8>>,
}

impl MemBlobStore {
    /// New empty store.
    pub fn new() -> MemBlobStore {
        MemBlobStore::default()
    }

    /// Number of blobs held.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// Whether the store holds no blobs.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Mutable access to a blob's bytes in place — the corruption
    /// hook used by the chaos harness (a real backend would never
    /// offer this).
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Vec<u8>> {
        self.blobs.get_mut(key)
    }
}

impl BlobStore for MemBlobStore {
    fn put(&mut self, key: &str, bytes: Vec<u8>) {
        self.blobs.insert(key.to_string(), bytes);
    }

    fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.blobs.get(key).cloned()
    }

    fn keys(&self) -> Vec<String> {
        self.blobs.keys().cloned().collect()
    }

    fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        // Every key with the prefix sorts at or after it, contiguously.
        self.blobs
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .map(|(k, _)| k)
            .take_while(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    fn remove(&mut self, key: &str) -> bool {
        self.blobs.remove(key).is_some()
    }

    fn rename(&mut self, from: &str, to: &str) -> bool {
        // Re-key the buffer itself: no copy of the bytes.
        let Some(bytes) = self.blobs.remove(from) else {
            return false;
        };
        self.blobs.insert(to.to_string(), bytes);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove_round_trip() {
        let mut s = MemBlobStore::new();
        assert!(s.is_empty());
        s.put("a/1", b"one".to_vec());
        s.put("a/2", b"two".to_vec());
        assert_eq!(s.get("a/1").as_deref(), Some(&b"one"[..]));
        assert_eq!(s.get("missing"), None);
        s.put("a/1", b"uno".to_vec());
        assert_eq!(s.get("a/1").as_deref(), Some(&b"uno"[..]));
        assert_eq!(s.len(), 2);
        assert!(s.remove("a/1"));
        assert!(!s.remove("a/1"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn keys_are_sorted() {
        let mut s = MemBlobStore::new();
        for k in ["b", "a/2", "a/10", "a/1", "c"] {
            s.put(k, b"x".to_vec());
        }
        let keys = s.keys();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // Fixed-width keys enumerate in numeric order; "10" < "2"
        // lexicographically is exactly why the durability layer pads.
        assert_eq!(keys, vec!["a/1", "a/10", "a/2", "b", "c"]);
    }

    /// A backend that keeps only the trait's default prefix scan.
    #[derive(Debug)]
    struct DefaultScan(MemBlobStore);

    impl BlobStore for DefaultScan {
        fn put(&mut self, key: &str, bytes: Vec<u8>) {
            self.0.put(key, bytes)
        }
        fn get(&self, key: &str) -> Option<Vec<u8>> {
            self.0.get(key)
        }
        fn keys(&self) -> Vec<String> {
            self.0.keys()
        }
        fn remove(&mut self, key: &str) -> bool {
            self.0.remove(key)
        }
    }

    #[test]
    fn rename_moves_a_blob_in_both_backends() {
        let mut mem = MemBlobStore::new();
        mem.put("stage/1", b"sealed".to_vec());
        mem.put("ckpt/1", b"old".to_vec());
        mem.put("other", b"x".to_vec());
        let mut fallback = DefaultScan(mem.clone());
        for s in [&mut mem as &mut dyn BlobStore, &mut fallback] {
            assert!(s.rename("stage/1", "ckpt/1"), "replaces the blob at the target");
            assert_eq!(s.get("ckpt/1").as_deref(), Some(&b"sealed"[..]));
            assert_eq!(s.get("stage/1"), None);
            assert!(!s.rename("stage/1", "ckpt/1"), "nothing left to move");
            assert_eq!(s.get("ckpt/1").as_deref(), Some(&b"sealed"[..]), "unchanged");
            assert_eq!(s.keys(), vec!["ckpt/1", "other"]);
        }
    }

    #[test]
    fn prefix_scan_stops_at_neighbouring_prefixes() {
        let mut s = MemBlobStore::new();
        for k in [
            "ckpt/0000000000000001/0000000000000002",
            "ckpt/0000000000000001/0000000000000001",
            "ckpt/0000000000000000/0000000000000009",
            "ckpt/00000000000000010/0000000000000001",
            "ckpt/0000000000000002/0000000000000001",
            "ckpt/0000000000000001",
            "ckpt/000000000000000",
            "stage/0000000000000001/0000000000000003",
            "ckpt0",
        ] {
            s.put(k, b"x".to_vec());
        }
        let fallback = DefaultScan(s.clone());
        for prefix in [
            "ckpt/0000000000000001/",
            "ckpt/0000000000000001",
            "ckpt/",
            "stage/",
            "ckpt",
            "",
            "missing/",
            "ckpt/0000000000000003/",
        ] {
            let expect: Vec<String> =
                s.keys().into_iter().filter(|k| k.starts_with(prefix)).collect();
            assert_eq!(s.keys_with_prefix(prefix), expect, "range scan, prefix {prefix:?}");
            assert_eq!(fallback.keys_with_prefix(prefix), expect, "default, prefix {prefix:?}");
        }
        assert_eq!(
            s.keys_with_prefix("ckpt/0000000000000001/"),
            vec!["ckpt/0000000000000001/0000000000000001", "ckpt/0000000000000001/0000000000000002"]
        );
    }

    #[test]
    fn trait_object_usable() {
        let mut boxed: Box<dyn BlobStore> = Box::new(MemBlobStore::new());
        boxed.put("k", b"v".to_vec());
        assert_eq!(boxed.get("k").as_deref(), Some(&b"v"[..]));
        assert_eq!(boxed.keys(), vec!["k"]);
    }
}
