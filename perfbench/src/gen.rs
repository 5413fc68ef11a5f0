//! Seeded job generators. The program only ever sees the generated job
//! specs; the workload seed never reaches it directly.
//!
//! Each generator deals its jobs from shuffled *decks*: one deck holds
//! every job kind of the workload in its fixed share, so any run that
//! finishes whole decks measures the same mix whatever the seed, and the
//! seed only changes the order and the simulation seeds.

use driver::Paradigm;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One driver-path analysis: exactly the inputs `driver::analyze` takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectJob {
    pub workload: &'static str,
    pub paradigm: Paradigm,
    pub ranks: u32,
    pub small_ranks: u32,
    pub threads: u32,
    pub seed: u64,
}

impl DirectJob {
    pub fn cfg(&self) -> driver::AnalysisConfig {
        driver::AnalysisConfig {
            ranks: self.ranks,
            small_ranks: self.small_ranks,
            threads: self.threads,
            seed: self.seed,
        }
    }

    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}x{}",
            self.workload,
            self.paradigm.name(),
            self.ranks,
            self.threads
        )
    }
}

/// Simulation seeds stay below 2^53 so they survive the daemon's JSON
/// numbers exactly.
fn sim_seed(rng: &mut Rng) -> u64 {
    rng.next_u64() >> 11
}

pub const PROFILE_RANKS: [u32; 3] = [32, 64, 128];
pub const PROFILE_PARADIGMS: [Paradigm; 2] = [Paradigm::Hotspot, Paradigm::MpiProfiler];

/// `profile`: every bundled workload × {hotspot, mpip} × {32, 64, 128}
/// ranks, one of each per deck.
pub fn profile_jobs(seed: u64, decks: usize) -> Vec<DirectJob> {
    let mut rng = Rng::new(seed ^ 0x5052_4F46);
    let mut out = Vec::new();
    for _ in 0..decks {
        let mut deck = Vec::new();
        for &workload in driver::WORKLOAD_NAMES {
            for paradigm in PROFILE_PARADIGMS {
                for ranks in PROFILE_RANKS {
                    deck.push((workload, paradigm, ranks));
                }
            }
        }
        rng.shuffle(&mut deck);
        out.extend(
            deck.into_iter()
                .map(|(workload, paradigm, ranks)| DirectJob {
                    workload,
                    paradigm,
                    ranks,
                    small_ranks: 4,
                    threads: 1,
                    seed: sim_seed(&mut rng),
                }),
        );
    }
    out
}

/// `diagnose`: the paper's three case studies with their own paradigms,
/// one of each per deck. Each report must name the bug [`planted_bug`]
/// lists for its workload.
pub fn diagnose_jobs(seed: u64, decks: usize) -> Vec<DirectJob> {
    let mut rng = Rng::new(seed ^ 0x4449_4147);
    let mut out = Vec::new();
    for _ in 0..decks {
        let mut deck = vec![
            ("zeusmp", Paradigm::Scalability, 64, 1),
            ("lammps", Paradigm::Causal, 64, 1),
            ("lammps", Paradigm::CriticalPath, 64, 1),
            ("vite", Paradigm::Contention, 16, 8),
        ];
        rng.shuffle(&mut deck);
        out.extend(
            deck.into_iter()
                .map(|(workload, paradigm, ranks, threads)| DirectJob {
                    workload,
                    paradigm,
                    ranks,
                    small_ranks: 4,
                    threads,
                    seed: sim_seed(&mut rng),
                }),
        );
    }
    out
}

/// Vertex names (or name prefixes) of the bug planted in a case-study
/// workload; its report must mention one of them.
pub fn planted_bug(workload: &str) -> &'static [&'static str] {
    match workload {
        "zeusmp" => &["bvald_fill", "loop_10"],
        "lammps" => &["lj_inner", "loop_1"],
        "vite" => &["_M_realloc_insert", "_M_emplace"],
        _ => &[],
    }
}

/// The analysis a served request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeKind {
    Paradigm(Paradigm),
    Comm { retries: u32 },
    Query(&'static str),
}

/// One served job spec, as submitted to the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSpec {
    pub workload: &'static str,
    pub kind: ServeKind,
    pub ranks: u32,
    pub seed: u64,
}

impl ServeSpec {
    pub fn cfg(&self) -> driver::AnalysisConfig {
        driver::AnalysisConfig {
            ranks: self.ranks,
            seed: self.seed,
            ..driver::AnalysisConfig::default()
        }
    }

    /// The `POST` path and JSON body.
    pub fn request(&self) -> (&'static str, String) {
        let head = format!(
            "\"workload\":\"{}\",\"ranks\":{},\"seed\":{}",
            self.workload, self.ranks, self.seed
        );
        match &self.kind {
            ServeKind::Paradigm(p) => {
                ("/jobs", format!("{{{head},\"paradigm\":\"{}\"}}", p.name()))
            }
            ServeKind::Comm { retries } => (
                "/jobs",
                format!("{{{head},\"paradigm\":\"comm\",\"retries\":{retries}}}"),
            ),
            ServeKind::Query(q) => (
                "/query",
                format!("{{{head},\"query\":\"{}\"}}", q.replace('"', "\\\"")),
            ),
        }
    }
}

/// What a served request is, and what the daemon must answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeOp {
    /// A fresh simulation seed: every cache misses.
    Cold(ServeSpec),
    /// An earlier spec of the same client: answered from the report cache.
    Resubmit(ServeSpec),
    /// A valid query over an earlier run: run-cache hit plus the query lint.
    Query(ServeSpec),
    /// The comm session on an earlier run with a new `retries`: the report
    /// cache misses, the pass cache hits after the first one.
    Comm(ServeSpec),
    /// A query the lint rejects: 400 with a PF03xx code, nothing queued.
    Invalid(ServeSpec),
}

impl ServeOp {
    pub fn spec(&self) -> &ServeSpec {
        match self {
            ServeOp::Cold(s)
            | ServeOp::Resubmit(s)
            | ServeOp::Query(s)
            | ServeOp::Comm(s)
            | ServeOp::Invalid(s) => s,
        }
    }

    pub fn is_cold(&self) -> bool {
        matches!(self, ServeOp::Cold(_))
    }
}

const SERVE_WORKLOADS: [&str; 6] = ["cg", "ep", "is", "mg", "ft", "lu"];
const SERVE_RANKS: [u32; 3] = [8, 12, 16];
const SERVE_PARADIGMS: [Paradigm; 2] = [Paradigm::Hotspot, Paradigm::MpiProfiler];
pub const VALID_QUERIES: [&str; 3] = [
    "from vertices | score time | sort score desc nan_last | top 10 | select name, label, time",
    "from vertices | filter name ~ \"MPI_*\" | sort time desc nan_last | top 8 | select name, time",
    "from vertices | group label sum time",
];
pub const INVALID_QUERIES: [&str; 2] = [
    "from vertices | filter tme > 5",
    "from vertices | fliter time > 5",
];

/// Slots of one serve deck: the shares of the mix.
pub const SERVE_DECK: [(&str, usize); 5] = [
    ("cold", 5),
    ("resubmit", 7),
    ("query", 4),
    ("comm", 2),
    ("invalid", 2),
];

/// One client's request stream. Each client refers only to its own
/// earlier jobs, which a closed loop has always finished, so whether a
/// request hits a cache does not depend on how the clients interleave.
pub fn serve_ops(seed: u64, client: u64, decks: usize) -> Vec<ServeOp> {
    let mut rng = Rng::new(seed ^ 0x5345_5256 ^ client.wrapping_mul(0x9E37_79B9));
    let mut out = Vec::new();
    // Recent cold specs (run-cache residents) and recent answered specs
    // (report-cache residents) of this client, newest last.
    let mut runs: Vec<ServeSpec> = Vec::new();
    let mut answered: Vec<ServeSpec> = Vec::new();
    let mut comm_retries: Vec<(ServeSpec, u32)> = Vec::new();
    for _ in 0..decks {
        let mut deck: Vec<&str> = SERVE_DECK
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        rng.shuffle(&mut deck);
        while !deck.is_empty() {
            // A client's first request has no history to refer to: take
            // the next cold slot instead.
            let pick = if runs.is_empty() {
                deck.iter()
                    .position(|&k| k == "cold")
                    .expect("deck has cold slots")
            } else {
                0
            };
            let op = match deck.remove(pick) {
                "cold" => {
                    let spec = ServeSpec {
                        workload: SERVE_WORKLOADS[rng.below(SERVE_WORKLOADS.len())],
                        kind: ServeKind::Paradigm(
                            SERVE_PARADIGMS[rng.below(SERVE_PARADIGMS.len())],
                        ),
                        ranks: SERVE_RANKS[rng.below(SERVE_RANKS.len())],
                        seed: sim_seed(&mut rng),
                    };
                    runs.push(spec.clone());
                    if runs.len() > 4 {
                        runs.remove(0);
                    }
                    ServeOp::Cold(spec)
                }
                "resubmit" => ServeOp::Resubmit(answered[rng.below(answered.len())].clone()),
                "query" => {
                    let base = &runs[rng.below(runs.len())];
                    ServeOp::Query(ServeSpec {
                        kind: ServeKind::Query(VALID_QUERIES[rng.below(VALID_QUERIES.len())]),
                        ..base.clone()
                    })
                }
                "comm" => {
                    // Re-run the comm session of the newest run that has one,
                    // so the pass cache answers its passes.
                    let base = runs
                        .iter()
                        .rev()
                        .find(|r| comm_retries.iter().any(|(s, _)| s == *r))
                        .unwrap_or(&runs[rng.below(runs.len())])
                        .clone();
                    let retries = match comm_retries.iter_mut().find(|(s, _)| *s == base) {
                        Some((_, r)) => {
                            *r += 1;
                            *r
                        }
                        None => {
                            comm_retries.push((base.clone(), 0));
                            0
                        }
                    };
                    ServeOp::Comm(ServeSpec {
                        kind: ServeKind::Comm { retries },
                        ..base
                    })
                }
                "invalid" => {
                    let base = &runs[rng.below(runs.len())];
                    ServeOp::Invalid(ServeSpec {
                        kind: ServeKind::Query(INVALID_QUERIES[rng.below(INVALID_QUERIES.len())]),
                        ..base.clone()
                    })
                }
                other => unreachable!("unknown deck slot {other}"),
            };
            if !matches!(op, ServeOp::Invalid(_) | ServeOp::Resubmit(_)) {
                answered.push(op.spec().clone());
                if answered.len() > 8 {
                    answered.remove(0);
                }
            }
            out.push(op);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs_other_seed_other_jobs() {
        assert_eq!(profile_jobs(7, 2), profile_jobs(7, 2));
        assert_ne!(profile_jobs(7, 2), profile_jobs(8, 2));
        assert_eq!(diagnose_jobs(7, 5), diagnose_jobs(7, 5));
        assert_ne!(diagnose_jobs(7, 5), diagnose_jobs(8, 5));
        assert_eq!(serve_ops(7, 0, 3), serve_ops(7, 0, 3));
        assert_ne!(serve_ops(7, 0, 3), serve_ops(8, 0, 3));
        assert_ne!(serve_ops(7, 0, 3), serve_ops(7, 1, 3));
    }

    #[test]
    fn decks_keep_the_mix_whatever_the_seed() {
        for seed in 0..20 {
            let jobs = profile_jobs(seed, 1);
            assert_eq!(jobs.len(), 14 * 2 * 3);
            let mut combos: Vec<_> = jobs
                .iter()
                .map(|j| (j.workload, j.paradigm.name(), j.ranks))
                .collect();
            combos.sort();
            combos.dedup();
            assert_eq!(combos.len(), jobs.len(), "one of each combination per deck");
            let diag = diagnose_jobs(seed, 3);
            for kind in [
                Paradigm::Scalability,
                Paradigm::Causal,
                Paradigm::CriticalPath,
                Paradigm::Contention,
            ] {
                assert_eq!(diag.iter().filter(|j| j.paradigm == kind).count(), 3);
            }
        }
    }

    /// p50 must fall well inside the cache-answered mode and p90 inside the
    /// cold mode: the cold share sits between 10% and 50% with at least 15
    /// points to spare on each side.
    #[test]
    fn serve_shares_separate_p50_and_p90() {
        let deck: usize = SERVE_DECK.iter().map(|&(_, n)| n).sum();
        for seed in 0..20 {
            for client in 0..2 {
                let ops = serve_ops(seed, client, 4);
                assert_eq!(ops.len(), 4 * deck);
                let cold = ops.iter().filter(|o| o.is_cold()).count() as f64 / ops.len() as f64;
                assert!(
                    (0.10 + 0.15..=0.50 - 0.15).contains(&cold),
                    "cold share {cold}"
                );
                assert!(ops[0].is_cold(), "a client starts with a cold job");
            }
        }
    }

    #[test]
    fn serve_references_stay_within_the_client_history() {
        let ops = serve_ops(3, 0, 6);
        let mut seen_runs = Vec::new();
        for op in &ops {
            let s = op.spec();
            let run = (s.workload, s.ranks, s.seed);
            match op {
                ServeOp::Cold(_) => seen_runs.push(run),
                _ => assert!(seen_runs.contains(&run), "{op:?} refers to an unknown run"),
            }
        }
        // Comm re-runs on one run use distinct retries, so each misses the
        // report cache.
        let mut comm: Vec<_> = ops
            .iter()
            .filter_map(|o| match o {
                ServeOp::Comm(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        let n = comm.len();
        comm.sort_by_key(|s| format!("{s:?}"));
        comm.dedup();
        assert_eq!(comm.len(), n);
    }
}
