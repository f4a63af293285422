//! Threaded message-passing backend: one OS thread per rank.
//!
//! Point-to-point messages carry `(source, tag, payload)`; receives match
//! on `(source, tag)`, buffering out-of-order arrivals per rank — the
//! same envelope semantics MPI provides, minus wildcards (the pipeline
//! never needs them).
//!
//! Every operation is **fallible**: sends and receives return
//! [`CommError`] instead of panicking, and receives accept an optional
//! deadline ([`Rank::recv_deadline`]), the detector of a message that
//! never comes from a peer still running. A rank that returns tears its
//! inbox down, so *sends to* it fail with `Disconnected`, and leaves one
//! departure token with every peer, so a *receive from* it fails with
//! `Disconnected` as soon as everything it sent before has been matched:
//! no receive waits on a peer that is gone, deadline or not.
//!
//! A rank that panics ends the run rather than hanging it: its thread
//! catches the unwind and wakes every peer, whose pending and later
//! receives then fail with [`CommError::PeerPanicked`], and
//! [`Universe::try_run`] returns the panic as a [`RankPanic`] once every
//! rank has returned.
//!
//! Causal tracing plugs in through [`Rank::attach_tracer`], which hands
//! the endpoint a [`TraceSink`]: every data-plane send/recv is stamped
//! with `(src, dst, tag, seq, bytes)` — `seq` being the 1-based
//! per-directed-link ordinal carried in the message envelope, so the
//! two sides of a transfer can be paired exactly after the run, and a
//! message nobody received stays an orphan send. Control-plane tokens
//! (barrier, panic, departure) are neither counted nor traced.

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use msp_telemetry::TraceSink;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Msg {
    from: usize,
    tag: u32,
    /// Per-directed-link ordinal (0 for control-plane tokens).
    seq: u64,
    payload: Bytes,
}

/// Tag namespace reserved by the barrier (`0x7FF0_0000..`); user tags
/// must stay below it. The pipeline's highest tags are in the 9xxx
/// range plus `round << 20`, far underneath.
const TAG_BARRIER: u32 = 0x7FF0_0000;

/// Tag of the token a panicking rank sends every peer to wake its
/// receives (in the reserved namespace, above every barrier tag).
const TAG_PANIC: u32 = 0x7FFF_FFFF;

/// Tag of the token a returning rank leaves with every peer: after it,
/// that peer sends nothing more.
const TAG_DEPART: u32 = 0x7FFF_FFFE;

/// Error from a communication operation. Carries enough context to log
/// or to drive recovery (who was involved, on which tag, for how long
/// the receiver waited).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A receive on rank `to` from rank `from` expired with no matching
    /// message within its deadline.
    Timeout {
        from: usize,
        to: usize,
        tag: u32,
        waited: Duration,
    },
    /// The peer's endpoint is gone: its thread returned, and nothing it
    /// sent before matches.
    Disconnected { peer: usize, tag: u32 },
    /// Rank `rank` panicked: the run is ending, so no receive waits for
    /// a message any more.
    PeerPanicked { rank: usize },
    /// A typed message failed to decode — a protocol bug on the sender,
    /// surfaced as an error so the pipeline's failure path stays uniform.
    Protocol {
        from: usize,
        tag: u32,
        detail: String,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout {
                from,
                to,
                tag,
                waited,
            } => write!(
                f,
                "receive on rank {to} from rank {from} (tag {tag:#x}) timed out after {:.3}s",
                waited.as_secs_f64()
            ),
            CommError::Disconnected { peer, tag } => {
                write!(f, "rank {peer} disconnected (tag {tag:#x})")
            }
            CommError::PeerPanicked { rank } => write!(f, "rank {rank} panicked"),
            CommError::Protocol { from, tag, detail } => {
                write!(
                    f,
                    "malformed message from rank {from} (tag {tag:#x}): {detail}"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

/// A rank's panic, as [`Universe::try_run`] returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPanic {
    pub rank: usize,
    /// The panic's message (its payload, when that is a string).
    pub message: String,
}

impl RankPanic {
    /// Rank `rank`'s panic with payload `payload`, as `catch_unwind`
    /// returns it.
    pub fn new(rank: usize, payload: &(dyn std::any::Any + Send)) -> Self {
        let message = (payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "a non-string panic payload".to_string());
        RankPanic { rank, message }
    }
}

impl std::fmt::Display for RankPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} panicked: {}", self.rank, self.message)
    }
}

impl std::error::Error for RankPanic {}

/// Cumulative per-rank traffic totals, counted at the point-to-point
/// layer so collectives (gather/broadcast/allreduce) are included
/// automatically. Payload bytes only — the `(from, tag)` envelope is
/// backend bookkeeping, not wire data. Zero-payload barrier tokens are
/// control-plane traffic and are not counted either.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    pub bytes_sent: u64,
    pub bytes_recv: u64,
    pub msgs_sent: u64,
    pub msgs_recv: u64,
}

/// Launches a world of ranks, each on its own thread.
pub struct Universe;

impl Universe {
    /// Run `f` on `world` ranks concurrently and collect each rank's
    /// return value (indexed by rank).
    ///
    /// A panic in any rank is raised again, as a [`RankPanic`] message,
    /// once every rank has returned.
    pub fn run<R, F>(world: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Rank) -> R + Send + Sync,
    {
        Self::try_run(world, f).unwrap_or_else(|p| panic!("{p}"))
    }

    /// [`Universe::run`] with a rank's panic returned as an error: the
    /// lowest-numbered rank that panicked, once every rank has returned
    /// (its peers' receives fail with [`CommError::PeerPanicked`], so
    /// none waits for it).
    pub fn try_run<R, F>(world: usize, f: F) -> Result<Vec<R>, RankPanic>
    where
        R: Send,
        F: Fn(&mut Rank) -> R + Send + Sync,
    {
        assert!(world >= 1, "world must have at least one rank");
        let mut senders = Vec::with_capacity(world);
        let mut receivers = Vec::with_capacity(world);
        for _ in 0..world {
            let (tx, rx) = unbounded::<Msg>();
            senders.push(tx);
            receivers.push(rx);
        }
        let senders = Arc::new(senders);
        let panicked = Arc::new(AtomicUsize::new(0));
        let f = &f;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(world);
            for (rank, rx) in receivers.into_iter().enumerate() {
                let senders = Arc::clone(&senders);
                let panicked = Arc::clone(&panicked);
                handles.push(scope.spawn(move || {
                    let mut r = Rank {
                        rank,
                        size: world,
                        senders,
                        receiver: rx,
                        stash: RefCell::new(HashMap::new()),
                        stats: Cell::new(CommStats::default()),
                        barrier_gen: Cell::new(0),
                        link_seq: RefCell::new(vec![0; world]),
                        tracer: RefCell::new(None),
                        panicked,
                    };
                    let out = catch_unwind(AssertUnwindSafe(|| f(&mut r)));
                    match out {
                        Ok(out) => {
                            r.tell_peers(TAG_DEPART);
                            Ok(out)
                        }
                        Err(payload) => {
                            r.wake_peers();
                            Err(RankPanic::new(rank, &*payload))
                        }
                    }
                }));
            }
            let joined: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("the unwind is caught in the rank"))
                .collect();
            joined.into_iter().collect()
        })
    }
}

/// Out-of-order messages parked until their `(source, tag)` is asked
/// for, each alongside its envelope sequence number.
type Stash = HashMap<(usize, u32), VecDeque<(Bytes, u64)>>;

/// A rank's communication endpoint. Not `Sync`: it lives on one thread.
pub struct Rank {
    rank: usize,
    size: usize,
    senders: Arc<Vec<Sender<Msg>>>,
    receiver: Receiver<Msg>,
    stash: RefCell<Stash>,
    stats: Cell<CommStats>,
    /// Wrapping barrier generation; dissemination tags embed it so a
    /// fast rank entering the next barrier cannot confuse a slow one.
    barrier_gen: Cell<u8>,
    /// Per-destination message ordinals: travel in the envelope as the
    /// causal-matching sequence number.
    link_seq: RefCell<Vec<u64>>,
    /// Optional causal tracer stamping data-plane sends/recvs.
    tracer: RefCell<Option<TraceSink>>,
    /// 1 + the first rank of the universe that panicked, 0 while none
    /// has.
    panicked: Arc<AtomicUsize>,
}

impl Rank {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// Stamp every subsequent data-plane send/recv (and receive
    /// timeout) into `sink`. The sink must share its epoch with the
    /// other ranks' sinks for cross-rank timestamps to be comparable.
    pub fn attach_tracer(&self, sink: TraceSink) {
        *self.tracer.borrow_mut() = Some(sink);
    }

    /// Fail every peer's pending and later receives: this rank panicked.
    fn wake_peers(&self) {
        // only the first panic is recorded
        let _ =
            (self.panicked).compare_exchange(0, self.rank + 1, Ordering::SeqCst, Ordering::SeqCst);
        self.tell_peers(TAG_PANIC);
    }

    /// Leave control token `tag` with every peer.
    fn tell_peers(&self, tag: u32) {
        for to in (0..self.size).filter(|&to| to != self.rank) {
            // a peer that already returned needs no telling
            let _ = self.send_control(to, tag);
        }
    }

    /// Snapshot of this rank's cumulative traffic counters.
    pub fn comm_stats(&self) -> CommStats {
        self.stats.get()
    }

    fn count_sent(&self, bytes: usize) {
        let mut s = self.stats.get();
        s.bytes_sent += bytes as u64;
        s.msgs_sent += 1;
        self.stats.set(s);
    }

    fn count_recv(&self, bytes: usize) {
        let mut s = self.stats.get();
        s.bytes_recv += bytes as u64;
        s.msgs_recv += 1;
        self.stats.set(s);
    }

    /// Hand a control token to the transport without touching CommStats
    /// or the link ordinals.
    fn send_control(&self, to: usize, tag: u32) -> Result<(), CommError> {
        self.senders[to]
            .send(Msg {
                from: self.rank,
                tag,
                seq: 0,
                payload: Bytes::new(),
            })
            .map_err(|_| CommError::Disconnected { peer: to, tag })
    }

    /// Send `payload` to rank `to` with the given tag. Never blocks
    /// (buffered channels), like an MPI eager-protocol send.
    ///
    /// Errors with [`CommError::Disconnected`] if the destination rank
    /// already tore down its endpoint.
    pub fn send(&self, to: usize, tag: u32, payload: Bytes) -> Result<(), CommError> {
        let seq = {
            let mut ls = self.link_seq.borrow_mut();
            ls[to] += 1;
            ls[to]
        };
        self.count_sent(payload.len());
        if let Some(t) = self.tracer.borrow().as_ref() {
            t.send(to as u32, tag, seq, payload.len() as u64);
        }
        self.senders[to]
            .send(Msg {
                from: self.rank,
                tag,
                seq,
                payload,
            })
            .map_err(|_| CommError::Disconnected { peer: to, tag })
    }

    /// Blocking receive matching `(from, tag)`; other messages arriving
    /// meanwhile are stashed for later receives.
    ///
    /// Counters attribute a message to the receive that consumed it, so a
    /// stashed out-of-order arrival is counted when it is matched, not
    /// when it lands.
    pub fn recv(&self, from: usize, tag: u32) -> Result<Bytes, CommError> {
        self.recv_deadline(from, tag, None)
    }

    /// [`Rank::recv`] with an optional deadline. `None` waits until the
    /// message comes or its sender is gone; `Some(d)` returns
    /// [`CommError::Timeout`] if no matching message arrives within `d`
    /// — the detection primitive the fault-tolerant pipeline uses to
    /// declare a group member dead.
    pub fn recv_deadline(
        &self,
        from: usize,
        tag: u32,
        deadline: Option<Duration>,
    ) -> Result<Bytes, CommError> {
        let (b, seq) = self.take(from, tag, deadline)?;
        self.count_recv(b.len());
        self.trace_recv(from, tag, seq, b.len());
        Ok(b)
    }

    /// The matching half of every receive: the first message from
    /// `from` on `tag` with its sequence number, stashing the others
    /// that arrive meanwhile. A peer's departure token comes after
    /// everything it sent, so once it is in, nothing more will match.
    fn take(
        &self,
        from: usize,
        tag: u32,
        deadline: Option<Duration>,
    ) -> Result<(Bytes, u64), CommError> {
        if let Some(rank) = self.panicked.load(Ordering::SeqCst).checked_sub(1) {
            return Err(CommError::PeerPanicked { rank });
        }
        let disconnected = || CommError::Disconnected { peer: from, tag };
        {
            let mut stash = self.stash.borrow_mut();
            if let Some(hit) = stash.get_mut(&(from, tag)).and_then(VecDeque::pop_front) {
                return Ok(hit);
            }
            if stash.contains_key(&(from, TAG_DEPART)) {
                return Err(disconnected());
            }
        }
        let started = Instant::now();
        let timeout = |waited| {
            self.trace_timeout(from, tag, waited);
            CommError::Timeout {
                from,
                to: self.rank,
                tag,
                waited,
            }
        };
        loop {
            let msg = match deadline {
                Some(d) => {
                    let waited = started.elapsed();
                    let left = d.checked_sub(waited).ok_or_else(|| timeout(waited))?;
                    match self.receiver.recv_timeout(left) {
                        Ok(m) => m,
                        Err(RecvTimeoutError::Timeout) => return Err(timeout(started.elapsed())),
                        Err(RecvTimeoutError::Disconnected) => return Err(disconnected()),
                    }
                }
                None => self.receiver.recv().map_err(|_| disconnected())?,
            };
            if msg.tag == TAG_PANIC {
                return Err(CommError::PeerPanicked { rank: msg.from });
            }
            if msg.from == from && msg.tag == tag {
                return Ok((msg.payload, msg.seq));
            }
            let departed = msg.from == from && msg.tag == TAG_DEPART;
            self.stash
                .borrow_mut()
                .entry((msg.from, msg.tag))
                .or_default()
                .push_back((msg.payload, msg.seq));
            if departed {
                return Err(disconnected());
            }
        }
    }

    /// Stamp a matched data-plane receive (attributed to the receive
    /// that consumed it, like CommStats, so the envelope seq pairs it
    /// with its send).
    fn trace_recv(&self, from: usize, tag: u32, seq: u64, bytes: usize) {
        if let Some(t) = self.tracer.borrow().as_ref() {
            t.recv(from as u32, tag, seq, bytes as u64);
        }
    }

    /// Stamp an expired receive deadline — the fault-detection event.
    fn trace_timeout(&self, from: usize, tag: u32, waited: Duration) {
        if let Some(t) = self.tracer.borrow().as_ref() {
            t.timeout(from as u32, tag, waited.as_nanos() as u64);
        }
    }

    /// Synchronize all ranks: a dissemination barrier over the message
    /// channels (⌈log₂ P⌉ token exchanges per rank). Unlike a shared
    /// `std::sync::Barrier`, a rank that already exited on an error
    /// surfaces as `Disconnected` on the token send to it, rather than
    /// poisoning a process-wide sync primitive.
    pub fn barrier(&self) -> Result<(), CommError> {
        let gen = self.barrier_gen.get();
        self.barrier_gen.set(gen.wrapping_add(1));
        let mut step = 0u32;
        let mut dist = 1usize;
        while dist < self.size {
            let tag = TAG_BARRIER | (u32::from(gen) << 8) | step;
            let to = (self.rank + dist) % self.size;
            let from = (self.rank + self.size - dist) % self.size;
            self.send_control(to, tag)?;
            self.recv_control(from, tag)?;
            step += 1;
            dist *= 2;
        }
        Ok(())
    }

    /// Receive a control token without counting it (pair of
    /// [`Rank::send_control`]).
    fn recv_control(&self, from: usize, tag: u32) -> Result<(), CommError> {
        self.take(from, tag, None).map(drop)
    }

    /// Gather every rank's payload at `root`; returns `Some(vec indexed
    /// by rank)` at the root, `None` elsewhere.
    pub fn gather(
        &self,
        root: usize,
        tag: u32,
        payload: Bytes,
    ) -> Result<Option<Vec<Bytes>>, CommError> {
        if self.rank == root {
            let mut out = Vec::with_capacity(self.size);
            for r in 0..self.size {
                if r == root {
                    out.push(payload.clone());
                } else {
                    out.push(self.recv(r, tag)?);
                }
            }
            Ok(Some(out))
        } else {
            self.send(root, tag, payload)?;
            Ok(None)
        }
    }

    /// Broadcast `payload` from `root` to every rank; returns the payload
    /// everywhere.
    pub fn broadcast(
        &self,
        root: usize,
        tag: u32,
        payload: Option<Bytes>,
    ) -> Result<Bytes, CommError> {
        if self.rank == root {
            let p = payload.expect("root must supply the broadcast payload");
            for r in 0..self.size {
                if r != root {
                    self.send(r, tag, p.clone())?;
                }
            }
            Ok(p)
        } else {
            self.recv(root, tag)
        }
    }

    /// All-reduce an `f64` with the given associative op (gather at rank
    /// 0, reduce, broadcast).
    pub fn allreduce_f64(
        &self,
        tag: u32,
        value: f64,
        op: impl Fn(f64, f64) -> f64,
    ) -> Result<f64, CommError> {
        let payload = Bytes::copy_from_slice(&value.to_le_bytes());
        let gathered = self.gather(0, tag, payload)?;
        let result = if let Some(all) = gathered {
            let reduced = all
                .iter()
                .map(|b| f64::from_le_bytes(b[..8].try_into().unwrap()))
                .reduce(&op)
                .unwrap();
            self.broadcast(
                0,
                tag + 1,
                Some(Bytes::copy_from_slice(&reduced.to_le_bytes())),
            )?
        } else {
            self.broadcast(0, tag + 1, None)?
        };
        Ok(f64::from_le_bytes(result[..8].try_into().unwrap()))
    }

    /// Convenience min/max all-reduce pair (used for global value range).
    pub fn allreduce_min_max(&self, tag: u32, lo: f64, hi: f64) -> Result<(f64, f64), CommError> {
        let l = self.allreduce_f64(tag, lo, f64::min)?;
        let h = self.allreduce_f64(tag + 2, hi, f64::max)?;
        Ok((l, h))
    }

    /// All-reduce a `u64` with the given associative op — same
    /// gather-reduce-broadcast scheme as [`Rank::allreduce_f64`], for
    /// exact integer totals (counters, sizes) where floating-point
    /// rounding is unacceptable.
    pub fn allreduce_u64(
        &self,
        tag: u32,
        value: u64,
        op: impl Fn(u64, u64) -> u64,
    ) -> Result<u64, CommError> {
        let payload = Bytes::copy_from_slice(&value.to_le_bytes());
        let gathered = self.gather(0, tag, payload)?;
        let result = if let Some(all) = gathered {
            let reduced = all
                .iter()
                .map(|b| u64::from_le_bytes(b[..8].try_into().unwrap()))
                .reduce(&op)
                .unwrap();
            self.broadcast(
                0,
                tag + 1,
                Some(Bytes::copy_from_slice(&reduced.to_le_bytes())),
            )?
        } else {
            self.broadcast(0, tag + 1, None)?
        };
        Ok(u64::from_le_bytes(result[..8].try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_rank_ends_the_run_instead_of_hanging_it() {
        let t0 = Instant::now();
        let woken = Err(CommError::PeerPanicked { rank: 1 });
        let got = Universe::try_run(3, |r| match r.rank() {
            0 => {
                r.send(1, 1, Bytes::new()).unwrap();
                // only the panic ends this receive
                assert_eq!(r.recv(1, 7), woken);
            }
            1 => {
                r.recv(0, 1).unwrap();
                panic!("bounds bug on rank {}", r.rank())
            }
            _ => {
                // the panic wakes this receive and fails every later one
                assert_eq!(r.recv(1, 7), woken);
                assert_eq!(r.recv(0, 8), woken);
            }
        });
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "took {:?}",
            t0.elapsed()
        );
        let want = RankPanic {
            rank: 1,
            message: "bounds bug on rank 1".to_string(),
        };
        assert_eq!(got.unwrap_err(), want);
    }

    #[test]
    fn single_rank_world() {
        let out = Universe::run(1, |r| {
            r.barrier().unwrap();
            r.rank() + r.size()
        });
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn ring_pass() {
        let out = Universe::run(8, |r| {
            let next = (r.rank() + 1) % r.size();
            let prev = (r.rank() + r.size() - 1) % r.size();
            r.send(
                next,
                7,
                Bytes::copy_from_slice(&(r.rank() as u64).to_le_bytes()),
            )
            .unwrap();
            let got = r.recv(prev, 7).unwrap();
            u64::from_le_bytes(got[..8].try_into().unwrap())
        });
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(*got as usize, (rank + 7) % 8);
        }
    }

    #[test]
    fn out_of_order_tags() {
        let out = Universe::run(2, |r| {
            if r.rank() == 0 {
                r.send(1, 5, Bytes::from_static(b"five")).unwrap();
                r.send(1, 3, Bytes::from_static(b"three")).unwrap();
                Vec::new()
            } else {
                // receive in the opposite order of sending
                let a = r.recv(0, 3).unwrap();
                let b = r.recv(0, 5).unwrap();
                vec![a, b]
            }
        });
        assert_eq!(
            out[1],
            vec![Bytes::from_static(b"three"), Bytes::from_static(b"five")]
        );
    }

    #[test]
    fn gather_and_broadcast() {
        let out = Universe::run(5, |r| {
            let mine = Bytes::copy_from_slice(&[r.rank() as u8]);
            let gathered = r.gather(2, 1, mine).unwrap();
            if let Some(all) = &gathered {
                assert_eq!(all.len(), 5);
                for (i, b) in all.iter().enumerate() {
                    assert_eq!(b[0] as usize, i);
                }
            }
            let bc = r
                .broadcast(2, 9, (r.rank() == 2).then(|| Bytes::from_static(b"hello")))
                .unwrap();
            bc.len()
        });
        assert!(out.iter().all(|&l| l == 5));
    }

    #[test]
    fn allreduce_min_max() {
        let out = Universe::run(6, |r| {
            let v = r.rank() as f64 * 2.0 - 3.0;
            r.allreduce_min_max(100, v, v).unwrap()
        });
        for (lo, hi) in out {
            assert_eq!(lo, -3.0);
            assert_eq!(hi, 7.0);
        }
    }

    #[test]
    fn allreduce_u64_sum_and_max() {
        let out = Universe::run(5, |r| {
            let v = r.rank() as u64 + 1;
            let sum = r.allreduce_u64(200, v, |a, b| a + b).unwrap();
            let max = r.allreduce_u64(210, v, u64::max).unwrap();
            (sum, max)
        });
        for (sum, max) in out {
            assert_eq!(sum, 15);
            assert_eq!(max, 5);
        }
    }

    #[test]
    fn comm_stats_count_point_to_point() {
        let out = Universe::run(2, |r| {
            if r.rank() == 0 {
                r.send(1, 1, Bytes::from_static(b"abcde")).unwrap();
                r.send(1, 2, Bytes::from_static(b"xy")).unwrap();
            } else {
                // out-of-order match exercises the stash path
                let b = r.recv(0, 2).unwrap();
                assert_eq!(&b[..], b"xy");
                let a = r.recv(0, 1).unwrap();
                assert_eq!(&a[..], b"abcde");
            }
            r.comm_stats()
        });
        assert_eq!(
            out[0],
            CommStats {
                bytes_sent: 7,
                bytes_recv: 0,
                msgs_sent: 2,
                msgs_recv: 0
            }
        );
        assert_eq!(
            out[1],
            CommStats {
                bytes_sent: 0,
                bytes_recv: 7,
                msgs_sent: 0,
                msgs_recv: 2
            }
        );
    }

    #[test]
    fn comm_stats_cover_collectives() {
        // One allreduce_f64 over W ranks: gather = (W-1) 8-byte sends into
        // root, broadcast = (W-1) 8-byte sends out of root.
        const W: usize = 4;
        let out = Universe::run(W, |r| {
            let _ = r.allreduce_f64(300, r.rank() as f64, f64::max).unwrap();
            r.comm_stats()
        });
        let total_sent: u64 = out.iter().map(|s| s.bytes_sent).sum();
        let total_recv: u64 = out.iter().map(|s| s.bytes_recv).sum();
        assert_eq!(total_sent, 16 * (W as u64 - 1));
        assert_eq!(total_recv, total_sent);
        let msgs: u64 = out.iter().map(|s| s.msgs_sent).sum();
        assert_eq!(msgs, 2 * (W as u64 - 1));
        // Root sends the broadcast fan-out, leaves send one gather leg.
        assert_eq!(out[0].msgs_sent, W as u64 - 1);
        for s in &out[1..] {
            assert_eq!(s.msgs_sent, 1);
        }
    }

    #[test]
    fn comm_stats_reset() {
        // every universe starts its ranks from zeroed counters
        let out = Universe::run(2, |r| r.comm_stats());
        assert!(out.iter().all(|s| *s == CommStats::default()));
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let phase1 = AtomicUsize::new(0);
        let out = Universe::run(4, |r| {
            phase1.fetch_add(1, Ordering::SeqCst);
            r.barrier().unwrap();
            // after the barrier every rank must observe all increments
            phase1.load(Ordering::SeqCst)
        });
        assert!(out.iter().all(|&v| v == 4));
    }

    #[test]
    fn barrier_is_control_plane_traffic() {
        // Repeated barriers exchange tokens but never touch CommStats.
        let out = Universe::run(3, |r| {
            for _ in 0..5 {
                r.barrier().unwrap();
            }
            r.comm_stats()
        });
        assert!(out.iter().all(|s| *s == CommStats::default()));
    }

    #[test]
    fn recv_deadline_times_out() {
        let out = Universe::run(2, |r| {
            if r.rank() == 0 {
                // never send; rank 1 must time out
                r.barrier().unwrap();
                None
            } else {
                let e = r
                    .recv_deadline(0, 42, Some(Duration::from_millis(30)))
                    .unwrap_err();
                r.barrier().unwrap();
                Some(e)
            }
        });
        match out[1].clone().unwrap() {
            CommError::Timeout {
                from,
                to,
                tag,
                waited,
            } => {
                assert_eq!((from, to), (0, 1));
                assert_eq!(tag, 42);
                assert!(waited >= Duration::from_millis(30));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn a_receive_from_a_departed_peer_fails_at_once() {
        let t0 = Instant::now();
        let out = Universe::run(2, |r| {
            if r.rank() == 1 {
                // sent before returning: still delivered after departure
                r.send(0, 2, Bytes::from_static(b"last")).unwrap();
                return None;
            }
            // rank 1 returns without sending what rank 0 waits for, and
            // no deadline bounds the wait
            let lost = r.recv(1, 3).unwrap_err();
            let last = r.recv(1, 2).unwrap();
            Some((lost, last, r.recv(1, 4).unwrap_err()))
        });
        let (lost, last, again) = out[0].clone().unwrap();
        assert_eq!(lost, CommError::Disconnected { peer: 1, tag: 3 });
        assert_eq!(&last[..], b"last");
        assert_eq!(again, CommError::Disconnected { peer: 1, tag: 4 });
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    }

    #[test]
    fn recv_deadline_delivers_in_time() {
        let out = Universe::run(2, |r| {
            if r.rank() == 0 {
                r.send(1, 9, Bytes::from_static(b"ok")).unwrap();
                Bytes::new()
            } else {
                r.recv_deadline(0, 9, Some(Duration::from_secs(5))).unwrap()
            }
        });
        assert_eq!(&out[1][..], b"ok");
    }

    #[test]
    fn tracer_stamps_sends_recvs_and_pairs_by_seq() {
        use msp_telemetry::RunTrace;
        let epoch = Instant::now();
        let traces = Universe::run(3, |r| {
            let sink = TraceSink::new(r.rank() as u32, epoch);
            r.attach_tracer(sink.clone());
            let next = (r.rank() + 1) % r.size();
            let prev = (r.rank() + r.size() - 1) % r.size();
            // two messages per link, received out of order to cross
            // the stash path
            r.send(next, 11, Bytes::from_static(b"first")).unwrap();
            r.send(next, 12, Bytes::from_static(b"second!")).unwrap();
            let b = r.recv(prev, 12).unwrap();
            assert_eq!(&b[..], b"second!");
            let a = r.recv(prev, 11).unwrap();
            assert_eq!(&a[..], b"first");
            r.barrier().unwrap(); // control plane: must not be traced
            sink.finish()
        });
        for t in &traces {
            assert_eq!(t.sends.len(), 2);
            assert_eq!(t.recvs.len(), 2);
            assert_eq!(t.sends[0].seq, 1);
            assert_eq!(t.sends[1].seq, 2);
            assert_eq!(t.sends[0].bytes, 5);
            assert_eq!(t.sends[1].bytes, 7);
            // stash-matched recv kept the envelope seq of its send
            assert_eq!(t.recvs[0].tag, 12);
            assert_eq!(t.recvs[0].seq, 2);
            assert_eq!(t.recvs[1].tag, 11);
            assert_eq!(t.recvs[1].seq, 1);
        }
        let run = RunTrace::from_ranks(traces);
        let m = run.match_messages();
        assert_eq!(m.edges.len(), 6, "every traced recv pairs with a send");
        assert!(m.unmatched_sends.is_empty());
        assert!(m.unmatched_recvs.is_empty());
        for e in &m.edges {
            assert!(e.t_recv_ns >= e.t_send_ns, "recv after send per edge");
        }
    }

    #[test]
    fn tracer_records_timeout_and_orphan_send() {
        use msp_telemetry::RunTrace;
        let epoch = Instant::now();
        let traces = Universe::run(2, |r| {
            let sink = TraceSink::new(r.rank() as u32, epoch);
            r.attach_tracer(sink.clone());
            if r.rank() == 0 {
                r.send(1, 1, Bytes::from_static(b"ok")).unwrap();
                r.send(1, 2, Bytes::from_static(b"late")).unwrap();
                // alive through rank 1's wait, which would otherwise
                // end on the departure
                r.barrier().unwrap();
            } else {
                let _ = r.recv(0, 1).unwrap();
                // waits on a tag rank 0 never sends, and never takes tag 2
                let e = r
                    .recv_deadline(0, 3, Some(Duration::from_millis(20)))
                    .unwrap_err();
                assert!(matches!(e, CommError::Timeout { .. }));
                r.barrier().unwrap();
            }
            sink.finish()
        });
        assert_eq!(traces[0].sends.len(), 2, "the unreceived send is stamped");
        assert_eq!(traces[1].timeouts.len(), 1);
        assert_eq!(traces[1].timeouts[0].src, 0);
        assert_eq!(traces[1].timeouts[0].tag, 3);
        assert!(traces[1].timeouts[0].waited_ns >= 20_000_000);
        let m = RunTrace::from_ranks(traces).match_messages();
        assert_eq!(m.edges.len(), 1);
        assert_eq!(m.unmatched_sends.len(), 1, "the drop is an orphan");
        assert_eq!(m.unmatched_sends[0].seq, 2);
    }

    #[test]
    fn send_to_departed_rank_disconnects() {
        // rank 1 announces it is "dying" and returns, dropping its inbox;
        // rank 0's sends to it start failing with Disconnected.
        let out = Universe::run(2, |r| {
            if r.rank() == 1 {
                r.send(0, 1, Bytes::from_static(b"bye")).unwrap();
                return Ok(());
            }
            let _ = r.recv(1, 1)?;
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match r.send(1, 2, Bytes::from_static(b"ping")) {
                    Err(e) => return Err(e),
                    Ok(()) if Instant::now() > deadline => {
                        panic!("send to departed rank never failed")
                    }
                    Ok(()) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        });
        assert!(
            matches!(out[0], Err(CommError::Disconnected { peer: 1, .. })),
            "got {:?}",
            out[0]
        );
        assert!(out[1].is_ok());
    }
}
