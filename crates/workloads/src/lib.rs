//! # workloads
//!
//! Workload generators for the evaluation (Section 4 of the paper):
//!
//! * **YCSB A** — update-heavy: 50 % reads, 50 % updates;
//! * **YCSB B** — read-heavy: 95 % reads, 5 % updates;
//! * **YCSB+T (T)** — transactional: atomic transfers between two accounts
//!   (2 reads + 2 writes);
//! * **M** — the mixed workload the paper defines for the throughput sweep:
//!   45 % reads, 45 % updates, 10 % transfers;
//! * Zipfian and uniform key distributions;
//! * an open-loop arrival process at a configurable request rate.
//!
//! Operations are generated against the `Account` entity program from
//! [`entity_lang::corpus::ACCOUNT_SOURCE`], compiled through the real
//! stateful-entities pipeline, so the benchmarks exercise exactly the code
//! path the paper describes (imperative entity program → dataflow IR →
//! runtime).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use desim_time::{Time, SECONDS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stateful_entities::{DataflowIR, EntityAddr, Key, MethodCall, Value};

// Re-use the desim time base without depending on the whole simulator here.
mod desim_time {
    /// Virtual time in microseconds (same base as `desim::Time`).
    pub type Time = u64;
    /// One virtual second.
    pub const SECONDS: Time = 1_000_000;
}

/// Key-chooser distributions used by the paper's latency experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDistribution {
    /// Every record equally likely.
    Uniform,
    /// Zipfian with the classic YCSB constant (0.99): a small set of hot keys.
    Zipfian,
}

impl KeyDistribution {
    /// Short name used in benchmark tables.
    pub fn label(&self) -> &'static str {
        match self {
            KeyDistribution::Uniform => "uniform",
            KeyDistribution::Zipfian => "zipfian",
        }
    }
}

/// Zipfian key generator (Gray et al. / YCSB's `ZipfianGenerator`).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: usize,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Create a generator over `n` items with the standard YCSB constant.
    pub fn new(n: usize) -> Self {
        Self::with_theta(n, 0.99)
    }

    /// Create a generator with an explicit skew parameter `theta`.
    pub fn with_theta(n: usize, theta: f64) -> Self {
        assert!(n > 0);
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: usize, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draw the next key index in `[0, n)`; index 0 is the hottest key.
    pub fn next(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let idx = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
        idx.min(self.n - 1)
    }

    /// Number of items.
    pub fn item_count(&self) -> usize {
        self.n
    }
}

/// One generated client operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Operation {
    /// Point read of an account balance.
    Read {
        /// Target account index.
        key: usize,
    },
    /// Overwrite of an account balance.
    Update {
        /// Target account index.
        key: usize,
        /// New value.
        value: i64,
    },
    /// Atomic transfer between two accounts (YCSB+T): 2 reads + 2 writes.
    Transfer {
        /// Debited account index.
        from: usize,
        /// Credited account index.
        to: usize,
        /// Transferred amount.
        amount: i64,
    },
    /// Commutative counter increment (`Account.credit`): a read-modify-write
    /// whose deltas commute, the building block of the hot-key storm
    /// workload (PR 7's commutative commit classes).
    Credit {
        /// Target account index.
        key: usize,
        /// Increment amount.
        amount: i64,
    },
    /// Transfer that first consults a shared audit-log account
    /// (`Account.transfer_audited`): the log reference is **read-only**
    /// under per-parameter effect analysis but an exclusive write under the
    /// one-bit `writes_ref_args` summary — the workload that exercises
    /// per-parameter write sets.
    TransferAudited {
        /// Debited account index.
        from: usize,
        /// Credited account index.
        to: usize,
        /// Transferred amount.
        amount: i64,
        /// Audit-log account index (shared and hot by construction).
        log: usize,
    },
}

impl Operation {
    /// True for operations that need transactional execution.
    pub fn is_transactional(&self) -> bool {
        matches!(
            self,
            Operation::Transfer { .. } | Operation::TransferAudited { .. }
        )
    }

    /// Convert the operation into an id-resolved [`MethodCall`] against the
    /// `Account` entity program compiled into `ir` (the ingress boundary:
    /// names are resolved here, once per request, never per hop).
    pub fn to_call(&self, ir: &DataflowIR) -> MethodCall {
        let resolve = |key: usize, method: &str, args: Vec<Value>| {
            ir.resolve_call("Account", account_key(key), method, args)
                .expect("the Account program defines read/update/credit/transfer")
        };
        match self {
            Operation::Read { key } => resolve(*key, "read", vec![]),
            Operation::Update { key, value } => resolve(*key, "update", vec![Value::Int(*value)]),
            Operation::Transfer { from, to, amount } => resolve(
                *from,
                "transfer",
                vec![Value::Int(*amount), Value::EntityRef(account_addr(*to))],
            ),
            Operation::Credit { key, amount } => resolve(*key, "credit", vec![Value::Int(*amount)]),
            Operation::TransferAudited {
                from,
                to,
                amount,
                log,
            } => resolve(
                *from,
                "transfer_audited",
                vec![
                    Value::Int(*amount),
                    Value::EntityRef(account_addr(*to)),
                    Value::EntityRef(account_addr(*log)),
                ],
            ),
        }
    }
}

/// The key of account number `i`.
pub fn account_key(i: usize) -> Key {
    Key::Str(format!("acc{i}").into())
}

/// The address of account number `i`.
pub fn account_addr(i: usize) -> EntityAddr {
    EntityAddr::new("Account", account_key(i))
}

/// Operation mix of a YCSB-style workload, in percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadMix {
    /// Workload name as reported in the paper ("A", "B", "T", "M").
    pub name: &'static str,
    /// Percentage of reads.
    pub read_pct: u32,
    /// Percentage of updates.
    pub update_pct: u32,
    /// Percentage of transfers (transactions).
    pub transfer_pct: u32,
    /// Percentage of commutative credits.
    pub credit_pct: u32,
    /// Percentage of audited transfers (shared read-only audit-log ref).
    pub audited_pct: u32,
}

impl WorkloadMix {
    fn plain(name: &'static str, read_pct: u32, update_pct: u32, transfer_pct: u32) -> Self {
        WorkloadMix {
            name,
            read_pct,
            update_pct,
            transfer_pct,
            credit_pct: 0,
            audited_pct: 0,
        }
    }

    /// YCSB workload A: 50 % reads, 50 % updates.
    pub fn ycsb_a() -> Self {
        WorkloadMix::plain("A", 50, 50, 0)
    }

    /// YCSB workload B: 95 % reads, 5 % updates.
    pub fn ycsb_b() -> Self {
        WorkloadMix::plain("B", 95, 5, 0)
    }

    /// YCSB+T workload T: 100 % transfers.
    pub fn ycsb_t() -> Self {
        WorkloadMix::plain("T", 0, 0, 100)
    }

    /// The paper's mixed workload M: 45 % reads, 45 % updates, 10 % transfers.
    pub fn mixed_m() -> Self {
        WorkloadMix::plain("M", 45, 45, 10)
    }

    /// The hot-key commutative storm: 100 % credits. Under a Zipfian key
    /// chooser (θ = 0.99) the bulk of the increments lands on a handful of
    /// hot keys; commutative commit classes let them share batches, the
    /// write-write-defer baseline serializes them one per batch.
    pub fn credit_storm() -> Self {
        WorkloadMix {
            name: "C",
            read_pct: 0,
            update_pct: 0,
            transfer_pct: 0,
            credit_pct: 100,
            audited_pct: 0,
        }
    }

    /// Audited YCSB-B: the 5 % write slice of workload B becomes audited
    /// transfers that all consult **one shared audit-log account**. Under
    /// the one-bit `writes_ref_args` summary the log is write-locked by
    /// every transfer (a serialization point); per-parameter write sets
    /// prove it read-only and let the transfers commit in parallel.
    pub fn ycsb_b_audited() -> Self {
        WorkloadMix {
            name: "B-aud",
            read_pct: 95,
            update_pct: 0,
            transfer_pct: 0,
            credit_pct: 0,
            audited_pct: 5,
        }
    }

    /// The service-tier mix S: the OLTP blend a live front door sees —
    /// 40 % reads, 30 % updates, 20 % credits, 10 % transfers. Read-heavy
    /// enough that snapshot-isolated reads matter, write-heavy enough that
    /// every seal carries a CDC dirty set (the service suites and the
    /// front-door bench drive this through concurrent sessions).
    pub fn service() -> Self {
        WorkloadMix {
            name: "S",
            read_pct: 40,
            update_pct: 30,
            transfer_pct: 10,
            credit_pct: 20,
            audited_pct: 0,
        }
    }

    /// True if the mix contains transactional operations.
    pub fn has_transactions(&self) -> bool {
        self.transfer_pct > 0 || self.audited_pct > 0
    }

    /// The full workload corpus: the paper's mixes in the order it reports
    /// them (A, B, T, M), then the PR 7 precision mixes (C, B-aud) and the
    /// PR 8 service mix (S) — what corpus-wide sweeps and the
    /// shard-equivalence suite iterate over.
    pub fn corpus() -> [WorkloadMix; 7] {
        [
            WorkloadMix::ycsb_a(),
            WorkloadMix::ycsb_b(),
            WorkloadMix::ycsb_t(),
            WorkloadMix::mixed_m(),
            WorkloadMix::credit_storm(),
            WorkloadMix::ycsb_b_audited(),
            WorkloadMix::service(),
        ]
    }
}

/// Full specification of a workload run.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Operation mix.
    pub mix: WorkloadMix,
    /// Key distribution.
    pub distribution: KeyDistribution,
    /// Number of account records.
    pub record_count: usize,
    /// Offered load, requests per (virtual) second.
    pub requests_per_second: u64,
    /// Duration of the run in virtual seconds.
    pub duration_secs: u64,
    /// RNG seed (the whole workload is deterministic given the seed).
    pub seed: u64,
}

impl WorkloadSpec {
    /// A specification matching the paper's latency experiment: 100 RPS.
    pub fn latency_experiment(mix: WorkloadMix, distribution: KeyDistribution) -> Self {
        WorkloadSpec {
            mix,
            distribution,
            record_count: 1_000,
            requests_per_second: 100,
            duration_secs: 20,
            seed: 0xEDB7,
        }
    }

    /// A specification matching the throughput sweep (workload M at a given
    /// offered load).
    pub fn throughput_experiment(requests_per_second: u64) -> Self {
        WorkloadSpec {
            mix: WorkloadMix::mixed_m(),
            distribution: KeyDistribution::Uniform,
            record_count: 10_000,
            requests_per_second,
            duration_secs: 5,
            seed: 0xEDB7,
        }
    }

    /// Total number of requests the run will generate.
    pub fn total_requests(&self) -> u64 {
        self.requests_per_second * self.duration_secs
    }

    /// Generate the full request timeline: `(arrival time, operation)` pairs
    /// with open-loop (fixed-rate) arrivals.
    pub fn generate(&self) -> Vec<(Time, Operation)> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let zipf = Zipfian::new(self.record_count);
        let interval = SECONDS / self.requests_per_second.max(1);
        let total = self.total_requests();
        let mut out = Vec::with_capacity(total as usize);
        for i in 0..total {
            let arrival = i * interval;
            let op = self.next_operation(&mut rng, &zipf);
            out.push((arrival, op));
        }
        out
    }

    /// The operations of [`WorkloadSpec::generate`] without arrival times —
    /// what closed-loop consumers (the sharded runtime's batch scheduler, the
    /// sequential oracle) feed in submission order.
    pub fn operations(&self) -> Vec<Operation> {
        self.generate().into_iter().map(|(_, op)| op).collect()
    }

    fn choose_key(&self, rng: &mut StdRng, zipf: &Zipfian) -> usize {
        match self.distribution {
            KeyDistribution::Uniform => rng.gen_range(0..self.record_count),
            KeyDistribution::Zipfian => zipf.next(rng),
        }
    }

    /// The account index serving as the shared audit log for
    /// [`Operation::TransferAudited`]: the last record, so it stays cold
    /// under the Zipfian chooser (index 0 is the hottest key) and the only
    /// pressure on it is the audit reads themselves.
    pub fn audit_log_key(&self) -> usize {
        self.record_count - 1
    }

    fn next_operation(&self, rng: &mut StdRng, zipf: &Zipfian) -> Operation {
        let roll = rng.gen_range(0..100u32);
        let key = self.choose_key(rng, zipf);
        let mix = &self.mix;
        let distinct_to = |rng: &mut StdRng, zipf: &Zipfian| {
            let mut to = self.choose_key(rng, zipf);
            if to == key {
                to = (to + 1) % self.record_count;
            }
            to
        };
        if roll < mix.read_pct {
            Operation::Read { key }
        } else if roll < mix.read_pct + mix.update_pct {
            Operation::Update {
                key,
                value: rng.gen_range(0..1_000),
            }
        } else if roll < mix.read_pct + mix.update_pct + mix.credit_pct {
            Operation::Credit {
                key,
                amount: rng.gen_range(1..10),
            }
        } else if roll < mix.read_pct + mix.update_pct + mix.credit_pct + mix.audited_pct {
            let to = distinct_to(rng, zipf);
            Operation::TransferAudited {
                from: key,
                to,
                amount: rng.gen_range(1..10),
                log: self.audit_log_key(),
            }
        } else {
            let to = distinct_to(rng, zipf);
            Operation::Transfer {
                from: key,
                to,
                amount: rng.gen_range(1..10),
            }
        }
    }
}

/// The compiled `Account` entity program shared by all YCSB-style benchmarks.
pub fn account_program() -> stateful_entities::CompiledProgram {
    stateful_entities::compile(entity_lang::corpus::ACCOUNT_SOURCE)
        .expect("the bundled Account program always compiles")
}

/// Initial balance loaded into every account.
pub const INITIAL_BALANCE: i64 = 1_000_000;

/// Arguments for creating account number `i` (used to bulk-load runtimes).
pub fn account_init_args(i: usize, payload_bytes: usize) -> Vec<Value> {
    vec![
        Value::Str(format!("acc{i}").into()),
        Value::Int(INITIAL_BALANCE),
        Value::Str("x".repeat(payload_bytes).into()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn mixes_have_paper_proportions() {
        assert_eq!(WorkloadMix::ycsb_a().read_pct, 50);
        assert_eq!(WorkloadMix::ycsb_b().read_pct, 95);
        assert_eq!(WorkloadMix::ycsb_t().transfer_pct, 100);
        let m = WorkloadMix::mixed_m();
        assert_eq!(m.read_pct + m.update_pct + m.transfer_pct, 100);
        assert!(m.has_transactions());
        assert!(!WorkloadMix::ycsb_a().has_transactions());
    }

    #[test]
    fn generation_is_deterministic_and_correctly_sized() {
        let spec =
            WorkloadSpec::latency_experiment(WorkloadMix::ycsb_a(), KeyDistribution::Uniform);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b);
        assert_eq!(a.len() as u64, spec.total_requests());
        // Arrivals are strictly increasing at a fixed interval.
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn corpus_covers_all_mixes_and_operations_strip_arrivals() {
        let names: Vec<&str> = WorkloadMix::corpus().iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["A", "B", "T", "M", "C", "B-aud", "S"]);
        let spec =
            WorkloadSpec::latency_experiment(WorkloadMix::ycsb_a(), KeyDistribution::Uniform);
        let with_times: Vec<Operation> = spec.generate().into_iter().map(|(_, op)| op).collect();
        assert_eq!(spec.operations(), with_times);
    }

    #[test]
    fn mix_proportions_are_respected() {
        let mut spec = WorkloadSpec::throughput_experiment(2_000);
        spec.duration_secs = 2;
        let ops = spec.generate();
        let transfers = ops.iter().filter(|(_, o)| o.is_transactional()).count();
        let frac = transfers as f64 / ops.len() as f64;
        assert!(
            (0.06..0.14).contains(&frac),
            "10% ± noise transfers, got {frac}"
        );
    }

    #[test]
    fn zipfian_is_skewed_and_uniform_is_not() {
        let mut rng = StdRng::seed_from_u64(1);
        let zipf = Zipfian::new(1_000);
        let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
        for _ in 0..20_000 {
            *counts.entry(zipf.next(&mut rng)).or_default() += 1;
        }
        let hottest = counts.values().max().copied().unwrap();
        assert!(
            hottest > 20_000 / 50,
            "the hottest zipfian key should receive far more than its uniform share"
        );
        assert!(counts.keys().all(|k| *k < zipf.item_count()));

        let mut rng = StdRng::seed_from_u64(1);
        let mut uni_counts: BTreeMap<usize, usize> = BTreeMap::new();
        for _ in 0..20_000 {
            *uni_counts.entry(rng.gen_range(0..1_000)).or_default() += 1;
        }
        let uni_hottest = uni_counts.values().max().copied().unwrap();
        assert!(
            hottest > uni_hottest * 3,
            "zipfian skew must exceed uniform noise"
        );
    }

    #[test]
    fn transfer_never_targets_itself() {
        let spec = WorkloadSpec {
            mix: WorkloadMix::ycsb_t(),
            distribution: KeyDistribution::Zipfian,
            record_count: 10,
            requests_per_second: 1_000,
            duration_secs: 1,
            seed: 3,
        };
        for (_, op) in spec.generate() {
            if let Operation::Transfer { from, to, .. } = op {
                assert_ne!(from, to);
            }
        }
    }

    #[test]
    fn operations_convert_to_method_calls() {
        let program = account_program();
        let account = program.ir.operator("Account").unwrap();
        let read = Operation::Read { key: 3 }.to_call(&program.ir);
        assert_eq!(read.method, account.method_id("read").unwrap());
        assert_eq!(read.target, account_addr(3));
        let transfer = Operation::Transfer {
            from: 1,
            to: 2,
            amount: 5,
        }
        .to_call(&program.ir);
        assert_eq!(transfer.method, account.method_id("transfer").unwrap());
        assert_eq!(transfer.args.len(), 2);
        assert!(Operation::Transfer {
            from: 1,
            to: 2,
            amount: 5
        }
        .is_transactional());
    }

    #[test]
    fn credit_storm_is_all_credits_and_audited_b_shares_one_log() {
        let storm = WorkloadSpec {
            mix: WorkloadMix::credit_storm(),
            distribution: KeyDistribution::Zipfian,
            record_count: 100,
            requests_per_second: 500,
            duration_secs: 2,
            seed: 7,
        };
        let ops = storm.operations();
        assert!(ops.iter().all(|op| matches!(op, Operation::Credit { .. })));
        // Zipfian skew: the hottest key soaks up a large share of credits.
        let hot = ops
            .iter()
            .filter(|op| matches!(op, Operation::Credit { key: 0, .. }))
            .count();
        assert!(hot * 10 > ops.len(), "key 0 must be hot under zipfian");

        let audited = WorkloadSpec {
            mix: WorkloadMix::ycsb_b_audited(),
            distribution: KeyDistribution::Uniform,
            record_count: 100,
            requests_per_second: 2_000,
            duration_secs: 2,
            seed: 7,
        };
        let ops = audited.operations();
        let transfers: Vec<&Operation> = ops
            .iter()
            .filter(|op| matches!(op, Operation::TransferAudited { .. }))
            .collect();
        let frac = transfers.len() as f64 / ops.len() as f64;
        assert!((0.02..0.09).contains(&frac), "~5% audited, got {frac}");
        assert!(transfers.iter().all(|op| matches!(
            op,
            Operation::TransferAudited { log, .. } if *log == audited.audit_log_key()
        )));
    }

    #[test]
    fn credit_and_audited_transfer_convert_to_method_calls() {
        let program = account_program();
        let account = program.ir.operator("Account").unwrap();
        let credit = Operation::Credit { key: 2, amount: 9 }.to_call(&program.ir);
        assert_eq!(credit.method, account.method_id("credit").unwrap());
        assert_eq!(credit.args, vec![Value::Int(9)]);
        let audited = Operation::TransferAudited {
            from: 1,
            to: 2,
            amount: 5,
            log: 9,
        }
        .to_call(&program.ir);
        assert_eq!(
            audited.method,
            account.method_id("transfer_audited").unwrap()
        );
        assert_eq!(audited.args.len(), 3);
        assert_eq!(audited.args[2], Value::EntityRef(account_addr(9)));
        assert!(Operation::TransferAudited {
            from: 1,
            to: 2,
            amount: 5,
            log: 9
        }
        .is_transactional());
    }

    #[test]
    fn account_program_compiles_and_has_transfer() {
        let program = account_program();
        assert!(program
            .ir
            .operator("Account")
            .unwrap()
            .method("transfer")
            .unwrap()
            .is_split());
        let args = account_init_args(7, 32);
        assert_eq!(args.len(), 3);
    }
}
