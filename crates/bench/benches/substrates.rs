//! Substrate benches: the Hungarian solver's `O(n³)` scaling (random
//! matrices, where no column repeats, and Eq. (13)-structured ones, where
//! most do), SSS at three mesh sizes, incremental vs from-scratch APL
//! evaluation, trace generation, and simulator throughput.

use assignment::CostMatrix;
use cmp_cache::address::AddressPattern;
use cmp_cache::system::{CacheAppSpec, CmpSystem, SystemConfig, ThreadSpec};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noc_model::TileId;
use obm_bench::harness::paper_instance;
use obm_core::algorithms::{Mapper, SortSelectSwap};
use obm_core::{evaluate, IncrementalEvaluator, Mapping, ObmInstance};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workload::{PaperConfig, WorkloadBuilder};

/// A full `side×side` chip: `max(4, side²/64)` applications sharing every
/// tile, at C2's Table 3 rates on the paper's latency parameters (the
/// perfbench `scale32` recipe at `side = 32`).
fn filled_instance(side: usize) -> ObmInstance {
    let tiles = side * side;
    let apps = (tiles / 64).max(4);
    let (cache, mem) = PaperConfig::C2.targets();
    let profiles = workload::config::round_robin_profiles(apps);
    let (work, _) = WorkloadBuilder::custom(profiles, tiles / apps, cache, mem)
        .epochs(2_000)
        .seed(side as u64)
        .build();
    let mesh = noc_model::Mesh::square(side);
    let (c, m) = work.rate_vectors();
    ObmInstance::new(
        noc_model::TileLatencies::paper_default(&mesh),
        work.boundaries(),
        c,
        m,
    )
}

/// An `n×n` matrix of uniform random reals in `0..100`, seeded by `n`.
fn random_costs(n: usize) -> CostMatrix {
    let mut rng = SmallRng::seed_from_u64(n as u64);
    let mut m = CostMatrix::zeros(n, n);
    for r in 0..n {
        for col in 0..n {
            m.set(r, col, rng.gen_range(0.0..100.0));
        }
    }
    m
}

fn hungarian_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("hungarian");
    for n in [16usize, 64, 128, 256] {
        let m = random_costs(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &m, |b, m| {
            b.iter(|| m.solve())
        });
    }
    // No repeated columns at scale: every column class is a singleton, so
    // the solver's grouped search degenerates to one column per group.
    let m = random_costs(1024);
    group.bench_with_input(BenchmarkId::new("distinct", 1024), &m, |b, m| {
        b.iter(|| m.solve())
    });
    // Global's actual input: the Eq. (13) matrix of a filled chip, rank
    // two with many equal tile latencies, so reduced-cost ties abound.
    for side in [16usize, 32] {
        let inst = filled_instance(side);
        let m = inst.eval_tables().cost_matrix();
        group.bench_with_input(BenchmarkId::new("eq13", side * side), m, |b, m| {
            b.iter(|| m.solve())
        });
    }
    group.finish();
}

fn sss_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sss");
    for side in [8usize, 16, 32] {
        let inst = filled_instance(side);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{side}x{side}")),
            &inst,
            |b, inst| b.iter(|| SortSelectSwap::default().map(inst, 0)),
        );
    }
    group.finish();
}

fn evaluation(c: &mut Criterion) {
    let pi = paper_instance(PaperConfig::C1);
    let mapping = Mapping::identity(64);
    c.bench_function("evaluate_from_scratch", |b| {
        b.iter(|| evaluate(&pi.instance, &mapping))
    });
    c.bench_function("incremental_swap_and_max_apl", |b| {
        let mut ev = IncrementalEvaluator::new(&pi.instance, mapping.clone());
        b.iter(|| {
            ev.swap_tiles(TileId(3), TileId(40));
            let v = ev.max_apl();
            ev.swap_tiles(TileId(3), TileId(40));
            v
        })
    });
}

fn trace_generation(c: &mut Criterion) {
    c.bench_function("workload_c1_build_2k_epochs", |b| {
        b.iter(|| {
            workload::WorkloadBuilder::paper(PaperConfig::C1)
                .epochs(2_000)
                .build()
        })
    });
}

fn cache_hierarchy(c: &mut Criterion) {
    let mesh = noc_model::Mesh::square(4);
    c.bench_function("cmp_cache_20_epochs", |b| {
        b.iter(|| {
            let cfg = SystemConfig {
                epochs: 20,
                ..SystemConfig::paper_defaults(mesh)
            };
            let app = CacheAppSpec {
                name: "bench".into(),
                threads: (0..8)
                    .map(|i| ThreadSpec {
                        accesses_per_kilocycle: 500.0,
                        write_fraction: 0.2,
                        line_reuse: 8,
                        private: AddressPattern::working_set(
                            0x1000_0000 + i * 0x0100_20C0,
                            2_000,
                            0.8,
                        ),
                        shared_fraction: 0.05,
                    })
                    .collect(),
                shared: AddressPattern::working_set(0x9000_0000, 128, 0.9),
            };
            CmpSystem::new(cfg, vec![app]).run()
        })
    });
}

fn exact_solver(c: &mut Criterion) {
    use obm_core::algorithms::BranchAndBound;
    let pi = paper_instance(PaperConfig::C2);
    // full 8×8 proof is out of reach; bench the 4×4 proof.
    let mesh = noc_model::Mesh::square(4);
    let mcs = noc_model::MemoryControllers::corners(&mesh);
    let tl =
        noc_model::TileLatencies::compute(&mesh, &mcs, noc_model::LatencyParams::paper_table2());
    let mut rng = SmallRng::seed_from_u64(1);
    let c16: Vec<f64> = (0..16).map(|_| rng.gen_range(0.3..3.0)).collect();
    let m16: Vec<f64> = c16.iter().map(|x| x * 0.15).collect();
    let inst = obm_core::ObmInstance::new(tl, vec![0, 4, 8, 12, 16], c16, m16);
    c.bench_function("bnb_prove_optimality_4x4", |b| {
        b.iter(|| {
            BranchAndBound::default().solve_budgeted(&inst, &obm_core::CancelToken::never(), None)
        })
    });
    let _ = pi;
    let mut group = c.benchmark_group("bnb_vs_sss");
    group.bench_function("sss_4x4", |b| {
        b.iter(|| obm_core::algorithms::SortSelectSwap::default().map(&inst, 0))
    });
    group.finish();
}

criterion_group!(
    benches,
    hungarian_scaling,
    sss_scaling,
    evaluation,
    trace_generation,
    cache_hierarchy,
    exact_solver
);
criterion_main!(benches);
