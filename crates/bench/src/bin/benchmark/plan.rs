//! Workloads and the seeded request plans they send.
//!
//! A plan is the whole input of a run, fixed before the service starts:
//! every request's intended send time, connection, and operation. The
//! service never sees the seed, only the requests it produces.

use std::time::Duration;

/// The five workloads; see the README for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, Poisson 20,000 ops/s, alternating open/assign per
    /// connection, 16 B summaries.
    Mix,
    /// Open loop: opens at 10,000/s on connection 0, one assign per open
    /// on connection 1 at the open's due time ± 200 µs.
    Handoff,
    /// `Mix` at 4,000 ops/s with 16 KiB summaries.
    Bulk16k,
    /// Closed loop, 8 pipelined requests per connection.
    Saturate,
    /// Three peer nodes in a ring behind fault proxies.
    LeaseRing,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Mix,
        Workload::Handoff,
        Workload::Bulk16k,
        Workload::Saturate,
        Workload::LeaseRing,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mix => "mix",
            Workload::Handoff => "handoff",
            Workload::Bulk16k => "bulk16k",
            Workload::Saturate => "saturate",
            Workload::LeaseRing => "lease_ring",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ticket summary length in bytes.
    pub fn summary_len(self) -> usize {
        match self {
            Workload::Bulk16k => 16 * 1024,
            _ => 16,
        }
    }

    /// Offered requests per second of an open-loop workload.
    pub fn rate(self) -> f64 {
        match self {
            Workload::Mix | Workload::Handoff => 20_000.0,
            Workload::Bulk16k => 4_000.0,
            Workload::Saturate | Workload::LeaseRing => 0.0,
        }
    }

    /// Whether latency counts from the intended send time.
    pub fn open_loop(self) -> bool {
        self.rate() > 0.0
    }
}

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Open { id: u64 },
    Assign,
}

/// One request of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Intended send time, ns after the run's start.
    pub due_ns: u64,
    /// Which of the two connections carries it.
    pub conn: usize,
    pub kind: Kind,
}

/// SplitMix64: small, seedable, and good enough for arrival times.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap of a Poisson process, ns.
    pub fn poisson_gap_ns(&mut self, rate: f64) -> u64 {
        (-(1.0 - self.next_f64()).ln() / rate * 1e9) as u64
    }
}

/// The SplitMix64 finaliser.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The k-th request of a connection in the alternating pattern of
/// `mix`, `bulk16k` and `saturate`: even k opens, odd k assigns, so a
/// connection never assigns more tickets than it opened before. Open
/// ids interleave the two connections and never collide.
pub fn alternating(conn: usize, k: u64) -> Kind {
    if k.is_multiple_of(2) {
        Kind::Open {
            id: k + conn as u64,
        }
    } else {
        Kind::Assign
    }
}

/// The open-loop plan of `w` covering `[0, length)`.
pub fn open_loop(w: Workload, seed: u64, length: Duration) -> Vec<Op> {
    let total = length.as_nanos() as u64;
    let mut rng = Rng::new(seed ^ mix64(w as u64 + 1));
    let mut plan = Vec::with_capacity((w.rate() * length.as_secs_f64() * 1.05) as usize + 16);
    match w {
        Workload::Mix | Workload::Bulk16k => {
            let mut sent = [0u64; 2];
            let mut t = 0;
            for i in 0.. {
                t += rng.poisson_gap_ns(w.rate());
                if t >= total {
                    break;
                }
                let conn = i % 2;
                plan.push(Op {
                    due_ns: t,
                    conn,
                    kind: alternating(conn, sent[conn]),
                });
                sent[conn] += 1;
            }
        }
        Workload::Handoff => {
            const JITTER_NS: f64 = 200_000.0;
            let mut t = 0;
            for id in 0.. {
                t += rng.poisson_gap_ns(w.rate() / 2.0);
                if t >= total {
                    break;
                }
                plan.push(Op {
                    due_ns: t,
                    conn: 0,
                    kind: Kind::Open { id },
                });
                let jitter = (rng.next_f64() * 2.0 - 1.0) * JITTER_NS;
                plan.push(Op {
                    due_ns: (t as f64 + jitter).max(0.0) as u64,
                    conn: 1,
                    kind: Kind::Assign,
                });
            }
            plan.sort_by_key(|op| op.due_ns);
        }
        Workload::Saturate | Workload::LeaseRing => {}
    }
    plan
}

/// Deterministic ASCII ticket summaries: each open id maps to a slice
/// of a seeded pool, so a reply can be checked byte for byte without
/// storing what was sent.
#[derive(Debug, Clone)]
pub struct Summaries {
    pool: String,
    len: usize,
}

const SUMMARY_OFFSETS: usize = 4096;

impl Summaries {
    pub fn new(seed: u64, len: usize) -> Self {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        let mut rng = Rng::new(seed ^ 0x5EED_5A11);
        let pool = (0..len + SUMMARY_OFFSETS)
            .map(|_| ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize] as char)
            .collect();
        Self { pool, len }
    }

    /// The summary of ticket `id`.
    pub fn get(&self, id: u64) -> &str {
        let off = (mix64(id) % SUMMARY_OFFSETS as u64) as usize;
        &self.pool[off..off + self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEN: Duration = Duration::from_millis(500);

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        for w in [Workload::Mix, Workload::Handoff, Workload::Bulk16k] {
            let a = open_loop(w, 7, LEN);
            assert!(!a.is_empty());
            assert_eq!(a, open_loop(w, 7, LEN), "{w:?}");
            assert_ne!(a, open_loop(w, 8, LEN), "{w:?}");
        }
        assert_eq!(Summaries::new(3, 16).get(9), Summaries::new(3, 16).get(9));
        assert_ne!(Summaries::new(3, 16).get(9), Summaries::new(4, 16).get(9));
    }

    #[test]
    fn plans_offer_the_stated_rate() {
        for w in [Workload::Mix, Workload::Handoff, Workload::Bulk16k] {
            let n = open_loop(w, 1, Duration::from_secs(2)).len() as f64;
            let expected = w.rate() * 2.0;
            assert!((n - expected).abs() < expected * 0.05, "{w:?}: {n}");
        }
    }

    fn assert_opens_lead(kinds: impl Iterator<Item = Kind>) {
        let (mut opens, mut assigns) = (0, 0);
        for kind in kinds {
            match kind {
                Kind::Open { .. } => opens += 1,
                Kind::Assign => assigns += 1,
            }
            assert!(assigns <= opens, "assign #{assigns} before its open");
        }
    }

    #[test]
    fn assigns_never_outnumber_earlier_opens_per_connection() {
        for w in [Workload::Mix, Workload::Bulk16k] {
            let plan = open_loop(w, 11, LEN);
            for conn in 0..2 {
                assert_opens_lead(plan.iter().filter(|o| o.conn == conn).map(|o| o.kind));
            }
        }
        // Saturate draws each connection's requests from the same rule.
        for conn in 0..2 {
            assert_opens_lead((0..10_000).map(|k| alternating(conn, k)));
        }
    }

    #[test]
    fn handoff_pairs_every_open_with_one_assign() {
        let plan = open_loop(Workload::Handoff, 5, LEN);
        let opens = plan
            .iter()
            .filter(|o| matches!(o.kind, Kind::Open { .. }))
            .count();
        assert_eq!(opens * 2, plan.len());
        assert!(plan
            .iter()
            .all(|o| (o.conn == 0) == (o.kind != Kind::Assign)));
        assert!(plan.windows(2).all(|p| p[0].due_ns <= p[1].due_ns));
    }

    #[test]
    fn open_ids_are_unique() {
        for w in [Workload::Mix, Workload::Handoff] {
            let mut ids: Vec<u64> = open_loop(w, 2, LEN)
                .iter()
                .filter_map(|o| match o.kind {
                    Kind::Open { id } => Some(id),
                    Kind::Assign => None,
                })
                .collect();
            let n = ids.len();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), n, "{w:?}");
        }
    }
}
