//! In-memory checkpoint store shared by all ranks of a threaded run.
//!
//! Stands in for the stable storage (parallel filesystem or buddy-rank
//! memory) a production deployment would use: ranks save encoded
//! checkpoints, and any survivor can later load a *peer's* checkpoint to
//! replay a lost round. Encoded bytes are stored, not live objects —
//! recovery pays the same decode + CRC cost a disk-based store would.
//!
//! Only each rank's latest cut is kept. Recovery at cursor *r* reads
//! only checkpoints saved at *r* (a crashed rank restores the cut it
//! crashed at; a root replays its member's cut of the same round), and a
//! rank saves *r + 1* only after the barrier that ends round *r*, so an
//! older cut is never read again.

use bytes::Bytes;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Cloneable handle; all clones share one underlying map.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    /// Rank → (merge cursor, encoded checkpoint).
    inner: Arc<Mutex<HashMap<u32, (u32, Bytes)>>>,
}

impl CheckpointStore {
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// Save `rank`'s checkpoint for merge-round cursor `round`,
    /// replacing any previous one of that rank. Returns the encoded size
    /// in bytes (what the caller should account as `checkpoint_bytes`).
    pub fn save(&self, rank: u32, round: u32, encoded: Bytes) -> usize {
        let n = encoded.len();
        self.inner.lock().unwrap().insert(rank, (round, encoded));
        n
    }

    /// Load the checkpoint `rank` saved at `round`, if it is the latest.
    pub fn load(&self, rank: u32, round: u32) -> Option<Bytes> {
        let map = self.inner.lock().unwrap();
        map.get(&rank)
            .filter(|(r, _)| *r == round)
            .map(|(_, b)| b.clone())
    }

    /// Number of checkpoints currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total encoded bytes currently held.
    pub fn total_bytes(&self) -> usize {
        let map = self.inner.lock().unwrap();
        map.values().map(|(_, b)| b.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_load_latest() {
        let store = CheckpointStore::new();
        assert!(store.is_empty());
        store.save(1, 0, Bytes::from_static(b"r1k0"));
        store.save(0, 1, Bytes::from_static(b"r0k1"));
        assert_eq!(store.load(1, 0).unwrap(), Bytes::from_static(b"r1k0"));
        // a later cut replaces the rank's earlier one
        store.save(1, 2, Bytes::from_static(b"r1k2!"));
        assert_eq!(store.len(), 2);
        assert_eq!(store.total_bytes(), 9);
        assert_eq!(store.load(1, 2).unwrap(), Bytes::from_static(b"r1k2!"));
        assert!(store.load(1, 0).is_none(), "the older cut is gone");
        assert!(store.load(1, 1).is_none());
        assert_eq!(store.load(0, 1).unwrap(), Bytes::from_static(b"r0k1"));
        assert!(store.load(7, 2).is_none());
    }

    #[test]
    fn clones_share_state() {
        let a = CheckpointStore::new();
        let b = a.clone();
        a.save(0, 0, Bytes::from_static(b"x"));
        assert_eq!(b.load(0, 0).unwrap(), Bytes::from_static(b"x"));
    }
}
