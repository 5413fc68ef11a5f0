//! Workload-wide structural invariants: every bundled program honours
//! the Table-2 invariants at any scale, and both PAG views validate.

use perflow::{PerFlow, RunHandleExt};
use simrt::RunConfig;

#[test]
fn every_workload_honours_table2_invariants() {
    let pflow = PerFlow::new();
    for (prog, name) in workloads::all_programs()
        .iter()
        .zip(workloads::PROGRAM_NAMES)
    {
        let run = pflow
            .run(prog, &RunConfig::new(4).with_threads(2))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let td = run.topdown();
        // Top-down view is a tree.
        assert_eq!(td.num_edges(), td.num_vertices() - 1, "{name} not a tree");
        assert!(td.validate().is_empty(), "{name}: {:?}", td.validate());
        // Parallel view replicates ≥ |V_td| × P (thread flows add more).
        let pv = run.parallel();
        assert!(
            pv.num_vertices() >= td.num_vertices() * 4,
            "{name}: parallel {} < topdown {} × 4",
            pv.num_vertices(),
            td.num_vertices()
        );
        assert!(pv.validate().is_empty(), "{name}: {:?}", pv.validate());
        // Root carries exact elapsed.
        assert!(td.total_time() > 0.0, "{name} has no time");
        // Serialization roundtrips both views.
        let back = pag::serialize::decode(&pag::serialize::encode(td)).unwrap();
        assert_eq!(back.num_vertices(), td.num_vertices(), "{name}");
    }
}

#[test]
fn every_workload_survives_hotspot_and_imbalance_passes() {
    let pflow = PerFlow::new();
    for (prog, name) in workloads::all_programs()
        .iter()
        .zip(workloads::PROGRAM_NAMES)
    {
        let run = pflow
            .run(prog, &RunConfig::new(4).with_threads(2))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let hot = pflow.hotspot_detection(&run.vertices(), 10);
        assert!(!hot.is_empty(), "{name}: no hotspots at all");
        // Passes must not panic on any workload; results may be empty.
        let _ = pflow.imbalance_analysis(&hot, 0.2);
        let comm = pflow.filter(&run.vertices(), "MPI_*");
        let (_, report) = pflow.breakdown_analysis(&comm);
        assert!(!report.render().is_empty(), "{name}");
    }
}

/// `RunData::digest` of every driver workload at 8 ranks × 2 threads,
/// seed 42, recorded before the interpreter's hash-free statement step
/// landed. Simulation output must stay bit-identical across engine
/// changes, serial (`sim_workers` 1) and pooled (2) alike; a deliberate
/// model change re-records these values and says why.
const GOLDEN_DIGESTS: &[(&str, u64)] = &[
    ("bt", 0x24734876cee3d3c8),
    ("cg", 0xaaa10f3aff866849),
    ("ep", 0x03b209ad9caaca5b),
    ("ft", 0xc345a276dd98b324),
    ("is", 0x15f22db7f89033d0),
    ("lu", 0xd9d236a8567669b2),
    ("mg", 0x57fdb1677276de76),
    ("sp", 0x0d060222815eecfd),
    ("zeusmp", 0x914aafaae84279d5),
    ("zeusmp-fixed", 0xfa77614fe552dc1c),
    ("lammps", 0x25b6b93b9a63c589),
    ("lammps-balanced", 0xd9a27f7b868a1a16),
    ("vite", 0xd09ee92034bb3c7b),
    ("vite-optimized", 0x5a1063d340c111a6),
];

#[test]
fn simulation_digests_match_golden_values() {
    let names: Vec<&str> = GOLDEN_DIGESTS.iter().map(|&(n, _)| n).collect();
    assert_eq!(
        names,
        driver::WORKLOAD_NAMES,
        "golden table covers every workload"
    );
    for &(name, want) in GOLDEN_DIGESTS {
        let prog = driver::workload(name).unwrap();
        for workers in [1, 2] {
            let cfg = RunConfig::new(8)
                .with_threads(2)
                .with_seed(42)
                .with_sim_workers(workers);
            let got = simrt::simulate(&prog, &cfg)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .digest();
            assert_eq!(
                got, want,
                "{name} at sim_workers {workers}: digest {got:#018x}, golden {want:#018x}"
            );
        }
    }
}

/// A crash, message drops, sample loss and PMU corruption at once, as in
/// the engine's own fault-injection bit-identity test.
fn faulted(nranks: u32, crash: Option<u32>) -> RunConfig {
    let mut plan = simrt::FaultPlan::new()
        .with_message_drop(0.1, 500.0)
        .with_sample_loss(0.2)
        .with_pmu_corruption(0.1);
    if let Some(rank) = crash {
        plan = plan.crash_rank(rank, 2000.0);
    }
    RunConfig::new(nranks).with_seed(7).with_faults(plan)
}

/// Digest of `name` simulated under `cfg` at every worker count 1..=4,
/// asserting they agree.
fn digest_at_any_worker_count(name: &str, cfg: &RunConfig) -> simrt::RunData {
    let prog = driver::workload(name).unwrap();
    let want = simrt::simulate(&prog, &cfg.clone().with_sim_workers(1))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    for workers in 2..=4 {
        let got = simrt::simulate(&prog, &cfg.clone().with_sim_workers(workers))
            .unwrap_or_else(|e| panic!("{name} at {workers} workers: {e}"));
        assert_eq!(
            got.digest(),
            want.digest(),
            "{name} at {} ranks: {workers} workers diverged from 1",
            cfg.nranks
        );
    }
    want
}

#[test]
fn faulted_runs_are_bit_identical_at_any_worker_count_at_profile_scale() {
    for name in ["cg", "zeusmp", "lammps"] {
        let run = digest_at_any_worker_count(name, &faulted(64, Some(5)));
        assert!(
            matches!(run.rank_status[5], simrt::RankStatus::Crashed { .. }),
            "{name}: the crash must fire"
        );
        assert!(run.retransmits > 0, "{name}: the drop rate must fire");
    }
}

#[test]
fn runs_with_fewer_ranks_than_workers_are_bit_identical() {
    for name in ["lu", "zeusmp", "vite"] {
        digest_at_any_worker_count(name, &faulted(1, None));
        let run = digest_at_any_worker_count(name, &faulted(3, Some(2)));
        assert!(
            matches!(run.rank_status[2], simrt::RankStatus::Crashed { .. }),
            "{name}: the crash must fire"
        );
    }
}
