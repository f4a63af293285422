//! Performance model of a Blue Gene/P-like machine: a 3D torus
//! interconnect with LogGP-style message costs, and a shared parallel
//! filesystem.
//!
//! The constants default to published BG/P figures (DMA torus links of
//! 425 MB/s raw / ≈ 375 MB/s usable, ≈ 3.5 µs MPI latency, ≈ 0.1 µs per
//! hop) and ALCF-Intrepid-era GPFS aggregate bandwidth. They are inputs,
//! not truths: the scaling *shapes* of Figs 6/9/10 are insensitive to
//! ±2× changes here, which EXPERIMENTS.md demonstrates with a parameter
//! note.

/// A 3D torus with `dims[0] · dims[1] · dims[2] >= n_ranks` nodes,
/// factored as near-cubically as possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torus {
    pub dims: [u32; 3],
}

impl Torus {
    /// Build the smallest near-cubic torus holding `n` ranks.
    pub fn for_ranks(n: u32) -> Self {
        assert!(n >= 1);
        // factor n = a*b*c with a <= b <= c as balanced as possible;
        // fall back to enlarging when n has awkward factors
        let mut best: Option<[u32; 3]> = None;
        let mut best_score = u64::MAX;
        let cap = n + n / 4 + 2; // allow slight overprovisioning
        let mut m = n;
        while m <= cap && best_score > 0 {
            let mut a = 1;
            while a * a * a <= m {
                if m.is_multiple_of(a) {
                    let rest = m / a;
                    let mut b = a;
                    while b * b <= rest {
                        if rest.is_multiple_of(b) {
                            let c = rest / b;
                            let score = (c - a) as u64 * 1000 + (m - n) as u64;
                            if score < best_score {
                                best_score = score;
                                best = Some([a, b, c]);
                            }
                        }
                        b += 1;
                    }
                }
                a += 1;
            }
            m += 1;
        }
        Torus {
            dims: best.unwrap(),
        }
    }

    pub fn n_nodes(&self) -> u32 {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Coordinates of a rank in row-major placement.
    pub fn coords(&self, rank: u32) -> [u32; 3] {
        let x = rank % self.dims[0];
        let rest = rank / self.dims[0];
        [x, rest % self.dims[1], rest / self.dims[1]]
    }

    /// Minimal hop count between two ranks with wraparound links.
    pub fn hops(&self, a: u32, b: u32) -> u32 {
        let ca = self.coords(a);
        let cb = self.coords(b);
        (0..3)
            .map(|i| {
                let d = ca[i].abs_diff(cb[i]);
                d.min(self.dims[i] - d)
            })
            .sum()
    }

    /// Network diameter (maximum hop distance).
    pub fn diameter(&self) -> u32 {
        (0..3).map(|i| self.dims[i] / 2).sum()
    }
}

/// LogGP-style point-to-point message cost parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetParams {
    /// Software + injection latency per message (s).
    pub latency_s: f64,
    /// Transfer time per byte (s) — inverse link bandwidth.
    pub byte_time_s: f64,
    /// Additional per-hop routing delay (s).
    pub hop_time_s: f64,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            latency_s: 3.5e-6,
            byte_time_s: 1.0 / 375.0e6,
            hop_time_s: 1.0e-7,
        }
    }
}

impl NetParams {
    /// Modeled time to move one `bytes`-sized message across `hops`.
    pub fn msg_time(&self, bytes: u64, hops: u32) -> f64 {
        self.latency_s + self.hop_time_s * hops as f64 + self.byte_time_s * bytes as f64
    }

    /// Modeled time to re-ship a lost message: detection already charged
    /// separately by the caller, so this is a fresh transfer plus one
    /// extra software round-trip for the retry handshake (NACK + resend
    /// setup). Used by the sim driver to price fault-recovery traffic.
    pub fn retry_time(&self, bytes: u64, hops: u32) -> f64 {
        2.0 * (self.latency_s + self.hop_time_s * hops as f64) + self.msg_time(bytes, hops)
    }
}

/// Shared-parallel-filesystem model (collective read/write).
#[derive(Debug, Clone, Copy)]
pub struct IoParams {
    /// Aggregate filesystem bandwidth (bytes/s) across all ranks.
    pub aggregate_bw: f64,
    /// Per-process achievable bandwidth (bytes/s).
    pub per_proc_bw: f64,
    /// Fixed collective-operation latency (s) — open, view setup, sync.
    pub latency_s: f64,
    /// Additional per-rank collective coordination cost (s) — metadata
    /// pressure that makes very wide collectives slightly slower.
    pub per_rank_s: f64,
}

impl Default for IoParams {
    fn default() -> Self {
        IoParams {
            aggregate_bw: 8.0e9,
            per_proc_bw: 300.0e6,
            latency_s: 5.0e-3,
            per_rank_s: 2.0e-6,
        }
    }
}

impl IoParams {
    /// Modeled wall time for a collective transfer of `total_bytes`
    /// spread over `n_ranks` ranks, the widest single rank moving
    /// `max_rank_bytes`.
    pub fn collective_time(&self, total_bytes: u64, max_rank_bytes: u64, n_ranks: u32) -> f64 {
        let aggregate_limited = total_bytes as f64 / self.aggregate_bw;
        let rank_limited = max_rank_bytes as f64 / self.per_proc_bw;
        self.latency_s + self.per_rank_s * n_ranks as f64 + aggregate_limited.max(rank_limited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_factorization_is_exactish() {
        for n in [1u32, 2, 8, 32, 64, 512, 2048, 8192, 32768] {
            let t = Torus::for_ranks(n);
            assert!(t.n_nodes() >= n);
            assert!(t.n_nodes() <= n + n / 4 + 2);
            assert!(t.dims[0] <= t.dims[1] && t.dims[1] <= t.dims[2]);
        }
        // powers of two factor perfectly
        assert_eq!(Torus::for_ranks(4096).n_nodes(), 4096);
        assert_eq!(Torus::for_ranks(8).dims, [2, 2, 2]);
    }

    #[test]
    fn hops_wraparound() {
        let t = Torus { dims: [4, 4, 4] };
        // ranks 0 and 3 on the x ring: distance 1 via wraparound
        assert_eq!(t.hops(0, 3), 1);
        assert_eq!(t.hops(0, 2), 2);
        // self distance 0
        assert_eq!(t.hops(17, 17), 0);
        // symmetric
        assert_eq!(t.hops(5, 42), t.hops(42, 5));
        assert!(t.hops(5, 42) <= t.diameter());
    }

    #[test]
    fn msg_time_monotone() {
        let p = NetParams::default();
        assert!(p.msg_time(1000, 1) < p.msg_time(2000, 1));
        assert!(p.msg_time(1000, 1) < p.msg_time(1000, 5));
        // large messages are bandwidth dominated
        let t = p.msg_time(100_000_000, 1);
        assert!((t - 100_000_000.0 / 375.0e6).abs() / t < 0.01);
    }

    #[test]
    fn io_model_caps_at_aggregate() {
        let io = IoParams::default();
        let total = 8_000_000_000u64; // 8 GB collective
        let t = |n: u64| io.collective_time(total, total / n, n as u32);
        // few ranks: per-process bandwidth limited — more ranks help
        assert!(t(16) > t(512), "scaling out helps while per-proc limited");
        // beyond the aggregate cap, extra ranks only add coordination cost
        assert!(
            t(32768) > t(512),
            "past the cap wider collectives cost more"
        );
        // and never beat the aggregate-bandwidth floor
        assert!(t(32768) > total as f64 / io.aggregate_bw);
    }
}
