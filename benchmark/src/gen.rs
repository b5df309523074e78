//! The benchmark's own inputs: a seeded PRNG, a Zipfian key chooser, the
//! four workload specifications and the op-stream generator.
//!
//! Nothing here calls `crates/workloads` — later PRs may edit that crate,
//! and a benchmark whose inputs move with the code under test measures
//! nothing. The same `--seed` always yields the same op stream.

/// Initial balance of every account. `update` values are drawn from
/// `[INITIAL_BALANCE / 2, 3 * INITIAL_BALANCE / 2)` and transfer amounts are
/// tiny, so no transfer is ever refused for lack of funds.
pub const INITIAL_BALANCE: i64 = 1_000_000;

/// Upper bound on the pre-generated op pool (the load loop cycles over it),
/// so generator memory does not dominate `peak_rss_mb`.
pub const MAX_POOL: usize = 1 << 18;

/// xoshiro256** seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` (multiply-shift; the bias is below 2^-40 for the
    /// sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Zipfian key chooser, P(i) ∝ 1 / (i + 1)^θ with index 0 the hottest key.
/// Sampled exactly by inverting a cumulative table (the key spaces here are
/// small); YCSB's closed-form approximation overweights the ten hottest of
/// 1 000 keys by 1.6 points at θ = 0.99.
#[derive(Debug, Clone)]
pub struct Zipfian {
    /// `cumulative[i]` = P(index <= i).
    cumulative: Vec<f64>,
}

impl Zipfian {
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "a Zipfian needs at least one item");
        let mut cumulative: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-theta)).collect();
        let mut sum = 0.0;
        for p in &mut cumulative {
            sum += *p;
            *p = sum;
        }
        for p in &mut cumulative {
            *p /= sum;
        }
        Zipfian { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }

    /// Probability mass of the `k` hottest keys.
    #[cfg(test)]
    pub fn head_mass(&self, k: usize) -> f64 {
        self.cumulative[k.min(self.cumulative.len()) - 1]
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    Uniform,
    Zipfian(f64),
}

/// Operation mix in percent; the four shares sum to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub read: u32,
    pub update: u32,
    pub credit: u32,
    pub transfer: u32,
}

/// One client operation against the Account program, by account index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read { key: u32 },
    Update { key: u32, value: i64 },
    Credit { key: u32, amount: i64 },
    Transfer { from: u32, to: u32, amount: i64 },
}

/// One workload: its inputs, its fixed open-loop rates, and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub accounts: u32,
    pub payload_bytes: usize,
    pub keys: KeyDist,
    pub mix: Mix,
    pub durable: bool,
    /// Open-loop arrival rates (req/s) of the `lo` and `hi` phases: at most
    /// about a quarter of closed-loop capacity, so nothing is shed.
    pub lo_rps: u32,
    pub hi_rps: u32,
    pub why: &'static str,
}

const OLTP: Mix = Mix {
    read: 40,
    update: 30,
    credit: 20,
    transfer: 10,
};

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "oltp_mem",
        accounts: 10_000,
        payload_bytes: 64,
        keys: KeyDist::Uniform,
        mix: OLTP,
        durable: false,
        lo_rps: 2_000,
        hi_rps: 10_000,
        why: "General request path (admission, mq, batch forming, dispatch, interpreter, retire): \
              little conflict, no disk, small snapshots, so per-request engine overhead dominates.",
    },
    Spec {
        name: "txn_hot",
        accounts: 1_000,
        payload_bytes: 64,
        keys: KeyDist::Zipfian(0.99),
        mix: Mix {
            read: 0,
            update: 0,
            credit: 0,
            transfer: 100,
        },
        durable: false,
        lo_rps: 2_000,
        hi_rps: 5_000,
        why: "YCSB+T on hot keys: every call is a split function with a remote hop, so deferrals, \
              adaptive fallback and the cross-shard mailbox dominate; snapshots are tiny.",
    },
    Spec {
        name: "oltp_durable",
        accounts: 10_000,
        payload_bytes: 64,
        keys: KeyDist::Uniform,
        mix: OLTP,
        durable: true,
        lo_rps: 2_000,
        hi_rps: 5_000,
        why: "Same ops and state as oltp_mem on the durable tier (group-commit window 8): the \
              difference between the two is the durability tax of log fsync and manifest commit.",
    },
    Spec {
        name: "view_large",
        accounts: 2_000,
        payload_bytes: 2_048,
        keys: KeyDist::Uniform,
        mix: Mix {
            read: 50,
            update: 50,
            credit: 0,
            transfer: 0,
        },
        durable: false,
        lo_rps: 2_000,
        hi_rps: 8_000,
        why: "Large 2 KiB entities (4 MB), no cross-shard calls: capture, encode, seal and read-view \
              rebuild dominate, while sealed-view readers and a CDC subscriber contend with the seals.",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Generate `n` ops for `spec` from `seed`.
pub fn gen_ops(spec: &Spec, seed: u64, n: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let accounts = spec.accounts as u64;
    let zipf = match spec.keys {
        KeyDist::Zipfian(theta) => Some(Zipfian::new(spec.accounts as usize, theta)),
        KeyDist::Uniform => None,
    };
    let key = |rng: &mut Rng| match &zipf {
        Some(z) => z.sample(rng) as u32,
        None => rng.below(accounts) as u32,
    };
    let Mix {
        read,
        update,
        credit,
        ..
    } = spec.mix;
    (0..n)
        .map(|_| {
            let kind = rng.below(100) as u32;
            let k = key(&mut rng);
            if kind < read {
                Op::Read { key: k }
            } else if kind < read + update {
                let value = INITIAL_BALANCE / 2 + rng.below(INITIAL_BALANCE as u64) as i64;
                Op::Update { key: k, value }
            } else if kind < read + update + credit {
                Op::Credit {
                    key: k,
                    amount: 1 + rng.below(10) as i64,
                }
            } else {
                let mut to = key(&mut rng);
                if to == k {
                    to = (k + 1) % spec.accounts;
                }
                Op::Transfer {
                    from: k,
                    to,
                    amount: 1 + rng.below(10) as i64,
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_other_seed_differs() {
        for spec in &SPECS {
            let a = gen_ops(spec, 7, 20_000);
            assert_eq!(a, gen_ops(spec, 7, 20_000), "{}", spec.name);
            assert_ne!(a, gen_ops(spec, 8, 20_000), "{}", spec.name);
        }
    }

    #[test]
    fn mix_shares_within_one_percent() {
        const N: usize = 200_000;
        for spec in &SPECS {
            let mut counts = [0usize; 4];
            for op in gen_ops(spec, 11, N) {
                counts[match op {
                    Op::Read { .. } => 0,
                    Op::Update { .. } => 1,
                    Op::Credit { .. } => 2,
                    Op::Transfer { .. } => 3,
                }] += 1;
            }
            let want = [
                spec.mix.read,
                spec.mix.update,
                spec.mix.credit,
                spec.mix.transfer,
            ];
            for (got, want) in counts.iter().zip(want) {
                let share = *got as f64 / N as f64 * 100.0;
                assert!(
                    (share - want as f64).abs() < 1.0,
                    "{}: {share} vs {want}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn zipfian_head_mass_within_one_percent() {
        const N: usize = 400_000;
        let z = Zipfian::new(1_000, 0.99);
        let mut rng = Rng::new(3);
        let mut head = 0usize;
        for _ in 0..N {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        let got = head as f64 / N as f64;
        let want = z.head_mass(10);
        assert!(want > 0.35, "θ=0.99 over 1000 keys is hot: {want}");
        assert!((got - want).abs() < 0.01, "{got} vs {want}");
    }

    #[test]
    fn transfers_never_target_their_source_and_keys_stay_in_range() {
        for spec in &SPECS {
            for op in gen_ops(spec, 5, 50_000) {
                match op {
                    Op::Transfer { from, to, .. } => {
                        assert_ne!(from, to);
                        assert!(from < spec.accounts && to < spec.accounts);
                    }
                    Op::Read { key } | Op::Update { key, .. } | Op::Credit { key, .. } => {
                        assert!(key < spec.accounts)
                    }
                }
            }
        }
    }
}
