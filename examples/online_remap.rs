//! Closed-loop online remapping (DESIGN.md §14) — the full lifecycle the
//! paper's §IV.B sketches, end to end against the cycle-level simulator:
//!
//! 1. **arrive** — two applications are admitted onto a shared 4×4 CMP
//!    with a single memory controller and mapped with sort-select-swap;
//! 2. **drift** — mid-run the workloads trade roles (the light
//!    cache-bound app turns memory-bound and vice versa), so the
//!    arrival-time mapping strands the now-memory-bound app far from
//!    the controller;
//! 3. **remap** — a [`RemapController`] plugged into
//!    `Network::run_with` (as a hook) watches the windowed telemetry,
//!    detects the per-app APL drift, re-solves warm-started from the
//!    incumbent under a migration-penalized objective and swaps the
//!    mapping at a window boundary, without draining the network;
//! 4. **depart** — one app exits and the system re-packs the survivor
//!    from the controller's final mapping, accounting migration cost.
//!
//! ```text
//! cargo run --release --example online_remap
//! ```

use obm::mapping::dynamic::{AppSpec, DynamicSystem};
use obm::prelude::*;

const WARMUP: u64 = 2_000;
const MEASURE: u64 = 28_000;
const EPOCH: u64 = 6_000;

fn max_group_apl(report: &SimReport) -> f64 {
    report
        .groups
        .iter()
        .filter(|g| g.packets > 0)
        .map(|g| g.apl())
        .fold(f64::NEG_INFINITY, f64::max)
}

fn main() {
    // -- arrive ----------------------------------------------------------
    let mesh = Mesh::square(4);
    let mcs = MemoryControllers::try_custom(&mesh, vec![TileId(0)]).expect("valid placement");
    let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
    let mut sys = DynamicSystem::new(tiles.clone());

    // db-shard arrives memory-bound, edge-cache arrives cache-bound.
    let heavy = (2.0, 10.0); // (cache, mem) packets per kilocycle per thread
    let light = (3.0, 0.3);
    let app = |name: &str, (c, m): (f64, f64)| AppSpec {
        name: name.to_string(),
        cache_rates: vec![c; 4],
        mem_rates: vec![m; 4],
    };
    println!("== arrive: db-shard (4 threads, memory-bound)");
    sys.add_app(app("db-shard", heavy))
        .expect("capacity for 4 threads");
    println!("== arrive: edge-cache (4 threads, cache-bound)");
    sys.add_app(app("edge-cache", light))
        .expect("capacity for 8 threads");

    let mapper = SortSelectSwap::default();
    let admitted = sys.remap(&mapper, 0);
    let e1 = sys.instance();
    println!(
        "   mapped {} threads: analytic per-app APL {:?}, max-APL {:.2}",
        sys.threads_in_use(),
        admitted
            .report
            .per_app
            .iter()
            .map(|d| (d * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
        admitted.report.max_apl
    );

    // -- drift -----------------------------------------------------------
    // At cycle 6 000 the roles flip: edge-cache turns memory-bound while
    // db-shard goes light. The piecewise trace covers warmup + measure
    // exactly (5 × 6 000 cycles), so the wrap-around never engages.
    let e2 = ObmInstance::new(
        tiles,
        e1.boundaries().to_vec(),
        [light.0; 4]
            .iter()
            .chain([heavy.0; 4].iter())
            .copied()
            .collect(),
        [light.1; 4]
            .iter()
            .chain([heavy.1; 4].iter())
            .copied()
            .collect(),
    );
    let traffic =
        |mapping: &Mapping| piecewise_traffic_spec(&[&e1, &e2, &e2, &e2, &e2], mapping, EPOCH);
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.controllers =
        MemoryControllers::try_custom(&mesh, vec![TileId(0)]).expect("valid placement");
    cfg.warmup_cycles = WARMUP;
    cfg.measure_cycles = MEASURE;
    cfg.seed = 0xD01F;
    println!("== drift: at cycle {EPOCH} the apps trade roles (cache-bound <-> memory-bound)");

    // Baseline: fly the arrival-time mapping statically through the drift.
    let static_report = Network::new(cfg.clone(), traffic(&admitted.mapping))
        .expect("valid scenario")
        .run();
    let static_apl = max_group_apl(&static_report);
    println!("   static mapping realized max-APL {static_apl:.2} (no reaction)");

    // -- remap -----------------------------------------------------------
    // Same seed, same traffic — but now the controller watches the
    // windowed telemetry and may retarget the sources mid-run.
    let mut ctrl =
        RemapController::new(e1.clone(), admitted.mapping.clone(), mesh).expect("valid controller");
    let controlled_report = Network::new(cfg, traffic(&admitted.mapping))
        .expect("valid scenario")
        .run_with(RunHooks::default().controller(&mut ctrl))
        .expect("controller produces valid retargets");
    let controlled_apl = max_group_apl(&controlled_report);
    for ev in ctrl.events() {
        println!(
            "   remap @ cycle {}: app {} drifted {:.0}% (APL {:.2} vs baseline {:.2}) -> \
             moved {} threads over {} hops, predicted max-APL {:.2} -> {:.2}",
            ev.cycle,
            ev.app,
            ev.drift * 100.0,
            ev.realized_apl,
            ev.baseline_apl,
            ev.threads_moved,
            ev.migration_cost,
            ev.predicted_before,
            ev.predicted_after
        );
    }
    println!(
        "   controlled realized max-APL {controlled_apl:.2} ({:.1}% better, {} remap(s), {} re-solve(s))",
        (static_apl - controlled_apl) / static_apl * 100.0,
        ctrl.remap_count(),
        ctrl.solves()
    );

    // -- depart ----------------------------------------------------------
    println!("== depart: db-shard exits");
    sys.remove_app(0);
    let repacked = sys.remap_from(&mapper, 0, ctrl.mapping(), &mesh);
    println!(
        "   re-packed {} threads from the controller's final mapping: \
         max-APL {:.2}, moved {} threads ({} hops)",
        sys.threads_in_use(),
        repacked.report.max_apl,
        repacked.threads_moved,
        repacked.migration_cost
    );
}
