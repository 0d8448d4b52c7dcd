//! Determinism suite for the batched evaluation engine (DESIGN.md §13).
//!
//! Three contracts, all bitwise:
//! 1. `BatchEvaluator::eval_many` ≡ per-mapping `evaluate()` on arbitrary
//!    instances and batches — every field of every report.
//! 2. `eval_many_parallel` is worker-count invariant (1/2/4 workers).
//! 3. The solver hot-path rewiring onto `EvalTables` left every solver's
//!    output mapping and objective bit-identical to the pre-rewire values
//!    (pinned goldens captured before the batch engine existed).

use obm::mapping::algorithms::{
    BalancedGreedy, BranchAndBound, Global, HybridSssSa, Mapper, MonteCarlo, RandomMapper,
    SimulatedAnnealing, SortSelectSwap,
};
use obm::mapping::{evaluate, BatchEvaluator, CancelToken, Mapping, ObmInstance};
use obm::model::{LatencyParams, MemoryControllers, Mesh, TileLatencies};
use obm::workload::{PaperConfig, WorkloadBuilder};
use proptest::prelude::*;

/// Strategy: a random OBM instance on an n×n mesh (n ∈ 2..=5) with 2–4
/// applications and positive rates, possibly fewer threads than tiles.
fn arb_instance() -> impl Strategy<Value = ObmInstance> {
    (2usize..=5, 2usize..=4, 0usize..=3)
        .prop_flat_map(|(n, apps, spare)| {
            let tiles_total = n * n;
            let threads = tiles_total.saturating_sub(spare).max(apps);
            (
                Just(n),
                Just(apps),
                Just(threads),
                proptest::collection::vec(0.01f64..10.0, threads),
                proptest::collection::vec(0.0f64..2.0, threads),
            )
        })
        .prop_map(|(n, apps, threads, c, m)| {
            let mesh = Mesh::square(n);
            let mcs = MemoryControllers::corners(&mesh);
            let tl = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
            let mut bounds = vec![0];
            for a in 1..=apps {
                bounds.push(a * threads / apps);
            }
            bounds.dedup();
            if bounds.len() < 2 {
                bounds.push(threads);
            }
            *bounds.last_mut().unwrap() = threads;
            ObmInstance::new(tl, bounds, c, m)
        })
}

/// Draw `count` random mappings from a seeded RNG.
fn random_batch(inst: &ObmInstance, count: usize, seed: u64) -> Vec<Mapping> {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| RandomMapper::draw(inst, &mut rng))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `eval_many` is bit-identical to per-mapping `evaluate()` — every
    /// report field, down to the sign of zero.
    #[test]
    fn eval_many_matches_scratch_bitwise(
        inst in arb_instance(),
        count in 1usize..120,
        seed in any::<u64>(),
    ) {
        let batch = random_batch(&inst, count, seed);
        let be = BatchEvaluator::new(&inst);
        let got = be.eval_many(&batch);
        prop_assert_eq!(got.len(), batch.len());
        for (r, m) in got.iter().zip(&batch) {
            let want = evaluate(&inst, m);
            prop_assert_eq!(r.per_app.len(), want.per_app.len());
            for (a, b) in r.per_app.iter().zip(&want.per_app) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(r.max_apl.to_bits(), want.max_apl.to_bits());
            prop_assert_eq!(r.min_apl.to_bits(), want.min_apl.to_bits());
            prop_assert_eq!(r.argmax, want.argmax);
            prop_assert_eq!(r.dev_apl.to_bits(), want.dev_apl.to_bits());
            prop_assert_eq!(r.g_apl.to_bits(), want.g_apl.to_bits());
        }
    }

    /// `eval_many_into` recycling a live report buffer across batches of
    /// different sizes (shrinking and growing) produces the same bits as
    /// a fresh `eval_many` of each batch.
    #[test]
    fn eval_many_into_recycled_buffer_matches_fresh(
        inst in arb_instance(),
        count_a in 1usize..120,
        count_b in 1usize..120,
        seed in any::<u64>(),
    ) {
        let be = BatchEvaluator::new(&inst);
        let mut reports = Vec::new();
        for count in [count_a, count_b, count_a] {
            let batch = random_batch(&inst, count, seed ^ count as u64);
            be.eval_many_into(&batch, &mut reports);
            let fresh = be.eval_many(&batch);
            prop_assert_eq!(reports.len(), fresh.len());
            for (r, w) in reports.iter().zip(&fresh) {
                prop_assert_eq!(r.per_app.len(), w.per_app.len());
                for (a, b) in r.per_app.iter().zip(&w.per_app) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                prop_assert_eq!(r.max_apl.to_bits(), w.max_apl.to_bits());
                prop_assert_eq!(r.min_apl.to_bits(), w.min_apl.to_bits());
                prop_assert_eq!(r.argmax, w.argmax);
                prop_assert_eq!(r.dev_apl.to_bits(), w.dev_apl.to_bits());
                prop_assert_eq!(r.g_apl.to_bits(), w.g_apl.to_bits());
            }
        }
    }

    /// The parallel chunked path returns the same bits at any worker count.
    #[test]
    fn parallel_eval_is_worker_count_invariant(
        inst in arb_instance(),
        count in 1usize..600,
        seed in any::<u64>(),
    ) {
        let batch = random_batch(&inst, count, seed);
        let be = BatchEvaluator::new(&inst);
        let sequential = be.eval_many(&batch);
        for workers in [1, 2, 4] {
            let par = be.eval_many_parallel(&batch, workers);
            prop_assert_eq!(par.len(), sequential.len());
            for (a, b) in par.iter().zip(&sequential) {
                prop_assert_eq!(a.max_apl.to_bits(), b.max_apl.to_bits());
                prop_assert_eq!(a.g_apl.to_bits(), b.g_apl.to_bits());
                prop_assert_eq!(a.dev_apl.to_bits(), b.dev_apl.to_bits());
                for (x, y) in a.per_app.iter().zip(&b.per_app) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned goldens: solver outputs captured BEFORE the hot paths were rewired
// onto `EvalTables`. The rewiring contract is bit-identity, so these must
// never change. If a legitimate change to an algorithm (not the evaluator)
// moves one, re-capture and justify in the commit message.
// ---------------------------------------------------------------------------

fn c1_instance() -> ObmInstance {
    let (workload, _) = WorkloadBuilder::paper(PaperConfig::C1).build();
    let mesh = Mesh::square(8);
    let tiles = TileLatencies::paper_default(&mesh);
    let (c, m) = workload.rate_vectors();
    ObmInstance::new(tiles, workload.boundaries(), c, m)
}

fn fig5_instance() -> ObmInstance {
    let mesh = Mesh::square(4);
    let mcs = MemoryControllers::corners(&mesh);
    let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
    let c: Vec<f64> = (0..4).flat_map(|_| [0.1, 0.2, 0.3, 0.4]).collect();
    ObmInstance::new(tiles, vec![0, 4, 8, 12, 16], c, vec![0.0; 16])
}

/// Assert a solver's output against its pre-rewire capture: the objective
/// bits AND the full tile assignment.
fn assert_golden(name: &str, inst: &ObmInstance, m: &Mapping, obj_bits: u64, tiles: &[usize]) {
    let got: Vec<usize> = m.as_slice().iter().map(|t| t.index()).collect();
    assert_eq!(got, tiles, "{name}: mapping drifted from pre-rewire golden");
    let v = evaluate(inst, m).max_apl;
    assert_eq!(
        v.to_bits(),
        obj_bits,
        "{name}: objective drifted (got {v}, bits 0x{:016x})",
        v.to_bits()
    );
    // The batch engine must agree with the scratch evaluator on the golden.
    let b = BatchEvaluator::new(inst).eval_one(m).max_apl;
    assert_eq!(
        b.to_bits(),
        obj_bits,
        "{name}: eval_one disagrees with evaluate"
    );
}

#[test]
fn golden_sss_c1() {
    let c1 = c1_instance();
    let m = SortSelectSwap::default().map(&c1, 0);
    assert_golden(
        "sss_c1",
        &c1,
        &m,
        0x403649c022b803ea,
        &[
            28, 17, 37, 14, 6, 36, 31, 44, 18, 55, 21, 12, 54, 51, 7, 47, 27, 26, 34, 38, 43, 33,
            46, 56, 2, 32, 50, 40, 57, 58, 24, 60, 19, 20, 52, 25, 30, 41, 9, 10, 8, 49, 5, 39, 48,
            1, 4, 0, 35, 45, 22, 42, 11, 29, 13, 53, 63, 59, 61, 3, 15, 23, 16, 62,
        ],
    );
}

#[test]
fn golden_sss_c1_event_stream() {
    // The probed SSS run on C1: how many windows accepted a swap and the
    // evaluator's edit count at the last step-size pass, pinned before the
    // window search moved to the scoring kernel (which must replay the
    // two edits per tried permutation).
    use obm::telemetry::{RingSink, SolverEvent};
    let c1 = c1_instance();
    let mut sink = RingSink::new(1 << 16);
    let m = SortSelectSwap::default().map_cancellable(&c1, 0, &CancelToken::never(), &mut sink);
    assert_eq!(m, Some(SortSelectSwap::default().map(&c1, 0)));
    assert_eq!(sink.dropped(), 0);
    let mut swaps = 0usize;
    let mut last_edits = 0u64;
    for e in sink.solver_events() {
        match e {
            SolverEvent::SwapAccepted { .. } => swaps += 1,
            SolverEvent::EvalDelta { edits, .. } => last_edits = *edits,
            _ => {}
        }
    }
    assert_eq!(
        (swaps, last_edits),
        (23, 28_359),
        "SSS C1 event stream drifted"
    );
}

#[test]
fn golden_sa_5k_c1() {
    let c1 = c1_instance();
    let sa = SimulatedAnnealing {
        iterations: 5_000,
        ..SimulatedAnnealing::default()
    };
    assert_golden(
        "sa5k_c1_seed1",
        &c1,
        &sa.map(&c1, 1),
        0x40365dc1edd9ccce,
        &[
            27, 50, 29, 24, 0, 38, 4, 43, 33, 32, 20, 11, 16, 21, 7, 25, 42, 19, 52, 40, 18, 44,
            12, 23, 3, 17, 61, 31, 46, 39, 14, 59, 28, 36, 10, 45, 22, 53, 60, 34, 54, 8, 48, 6,
            56, 63, 1, 57, 35, 51, 30, 26, 41, 37, 58, 9, 15, 13, 49, 2, 55, 47, 5, 62,
        ],
    );
    assert_golden(
        "sa5k_c1_seed2",
        &c1,
        &sa.map(&c1, 2),
        0x40365c7d72dd52f6,
        &[
            20, 52, 30, 5, 32, 41, 22, 36, 44, 8, 13, 12, 45, 24, 39, 58, 19, 43, 29, 42, 51, 21,
            10, 3, 60, 17, 9, 55, 15, 63, 53, 47, 27, 28, 38, 34, 33, 61, 40, 54, 56, 1, 11, 62, 7,
            59, 49, 48, 35, 37, 50, 14, 26, 18, 46, 25, 0, 16, 31, 6, 2, 4, 57, 23,
        ],
    );
}

#[test]
fn golden_monte_carlo_c1() {
    let c1 = c1_instance();
    let mc = MonteCarlo {
        samples: 2_000,
        workers: 1,
    };
    assert_golden(
        "mc2k_c1_seed0",
        &c1,
        &mc.map(&c1, 0),
        0x4036e764db9593db,
        &[
            45, 30, 25, 43, 4, 58, 48, 12, 32, 34, 41, 29, 63, 6, 13, 38, 28, 19, 56, 24, 9, 14,
            10, 39, 44, 59, 16, 17, 8, 46, 18, 37, 26, 3, 52, 57, 20, 31, 27, 55, 53, 62, 21, 49,
            7, 50, 5, 23, 40, 22, 35, 2, 42, 1, 51, 60, 0, 33, 36, 11, 61, 47, 54, 15,
        ],
    );
    let mc4 = MonteCarlo {
        samples: 2_000,
        workers: 4,
    };
    assert_golden(
        "mc2k4w_c1_seed0",
        &c1,
        &mc4.map(&c1, 0),
        0x4036bff5856cbf62,
        &[
            33, 59, 20, 21, 54, 49, 58, 44, 7, 14, 28, 46, 16, 19, 15, 25, 50, 9, 42, 30, 53, 34,
            37, 2, 35, 27, 62, 6, 1, 31, 3, 39, 18, 12, 23, 22, 17, 38, 13, 4, 56, 32, 52, 10, 0,
            8, 11, 40, 45, 48, 24, 41, 26, 51, 43, 5, 61, 55, 36, 29, 57, 47, 63, 60,
        ],
    );
}

#[test]
fn golden_greedy_and_hybrid_c1() {
    let c1 = c1_instance();
    assert_golden(
        "greedy_c1",
        &c1,
        &BalancedGreedy.map(&c1, 0),
        0x4036c7f51edbf0b0,
        &[
            27, 34, 19, 24, 1, 33, 49, 10, 11, 48, 18, 41, 2, 3, 0, 40, 28, 20, 37, 12, 21, 38, 13,
            6, 47, 4, 46, 5, 7, 55, 31, 54, 35, 26, 43, 42, 25, 51, 50, 17, 16, 32, 59, 9, 57, 8,
            58, 56, 36, 29, 45, 44, 52, 30, 22, 53, 23, 14, 39, 60, 63, 61, 62, 15,
        ],
    );
    let hy = HybridSssSa {
        sa_iterations: 5_000,
        ..HybridSssSa::default()
    };
    // Hybrid converges to the SSS fixed point on C1 — same golden as sss_c1.
    assert_golden(
        "hybrid5k_c1_seed1",
        &c1,
        &hy.map(&c1, 1),
        0x403649c022b803ea,
        &[
            28, 17, 37, 14, 6, 36, 31, 44, 18, 55, 21, 12, 54, 51, 7, 47, 27, 26, 34, 38, 43, 33,
            46, 56, 2, 32, 50, 40, 57, 58, 24, 60, 19, 20, 52, 25, 30, 41, 9, 10, 8, 49, 5, 39, 48,
            1, 4, 0, 35, 45, 22, 42, 11, 29, 13, 53, 63, 59, 61, 3, 15, 23, 16, 62,
        ],
    );
}

#[test]
fn golden_branch_and_bound_fig5() {
    let f5 = fig5_instance();
    let bnb = BranchAndBound {
        node_budget: 200_000,
    };
    assert_golden(
        "bnb_fig5",
        &f5,
        &bnb.map(&f5, 0),
        0x4024accccccccccd,
        &[3, 2, 11, 6, 12, 4, 13, 9, 0, 1, 8, 5, 15, 7, 14, 10],
    );
}

/// A full 32×32 chip: 16 applications × 64 threads at C2's Table 3 rates
/// on the paper's latency parameters — the `filled_instance(32)` recipe of
/// the substrates bench and the perfbench `scale32` shape.
fn filled_instance_32() -> ObmInstance {
    let side = 32;
    let tiles = side * side;
    let apps = tiles / 64;
    let (cache, mem) = PaperConfig::C2.targets();
    let profiles = obm::workload::config::round_robin_profiles(apps);
    let (work, _) = WorkloadBuilder::custom(profiles, tiles / apps, cache, mem)
        .epochs(2_000)
        .seed(side as u64)
        .build();
    let mesh = Mesh::square(side);
    let (c, m) = work.rate_vectors();
    ObmInstance::new(TileLatencies::paper_default(&mesh), work.boundaries(), c, m)
}

/// Global's 1024×1024 Hungarian solve on the Eq. (13) matrix, where only a
/// few columns are distinct: pinned before the solver's search moved to
/// groups of identical columns, so any drift in its search order or
/// tie-breaking shows here.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: 1024² solve")]
fn golden_global_32x32() {
    let inst = filled_instance_32();
    let mapping = Global.map(&inst, 0);
    // The solver's `cost`: the assigned entries summed in row order.
    let costs = inst.eval_tables().cost_matrix();
    let cost: f64 = mapping
        .as_slice()
        .iter()
        .enumerate()
        .map(|(r, t)| costs.get(r, t.index()))
        .sum();
    // FNV-1a over the tile indices.
    let hash = mapping
        .as_slice()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, t| {
            (h ^ t.index() as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    let r = evaluate(&inst, &mapping);
    assert_eq!(
        (hash, cost.to_bits(), r.g_apl.to_bits(), r.max_apl.to_bits()),
        (
            0x368d_d13a_72b6_d791,
            0x4106_532c_dd44_cd5b,
            0x4053_bfe7_35e2_11fa,
            0x4057_a79e_968c_8ea9
        ),
        "Global 32x32 drifted: hash 0x{hash:016x}, cost {} (0x{:016x}), \
         g-APL {} (0x{:016x}), max-APL {} (0x{:016x})",
        cost,
        cost.to_bits(),
        r.g_apl,
        r.g_apl.to_bits(),
        r.max_apl,
        r.max_apl.to_bits()
    );
}
