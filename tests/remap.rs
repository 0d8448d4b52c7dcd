//! Integration tests for the closed-loop online remapping subsystem
//! (DESIGN.md §14): the headline drifting-workload scenario where the
//! [`RemapController`] beats a static mapping's realized max-APL, the
//! golden determinism pins (remap cycles + final mapping for a fixed
//! seed), the no-drift guarantee (zero remaps and a semantically
//! identical report), and the retarget-vector validation errors.

use obm::prelude::*;

const SEED: u64 = 0xD01F;
const WARMUP: u64 = 2_000;
const MEASURE: u64 = 28_000;
const WINDOW: u64 = 1_000;
const EPOCH: u64 = 6_000;

/// The drifting-workload scenario: 2 apps × 4 threads on a 4×4 mesh
/// with a single memory controller at tile 0, so distance-to-memory
/// dominates placement quality. In epoch 1 app 0 is memory-bound and
/// app 1 is a light cache-bound app; epoch 2 flips the roles, so the
/// mapping solved for epoch 1 strands the (newly memory-bound) app 1
/// far from the controller.
fn drift_epochs() -> (ObmInstance, ObmInstance, Mesh) {
    let mesh = Mesh::square(4);
    let mcs = MemoryControllers::try_custom(&mesh, vec![TileId(0)]).expect("valid placement");
    let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
    let heavy = (2.0, 10.0); // (cache, mem) packets per kilocycle per thread
    let light = (3.0, 0.3);
    let build = |first: (f64, f64), second: (f64, f64)| {
        let c: Vec<f64> = std::iter::repeat_n(first.0, 4)
            .chain(std::iter::repeat_n(second.0, 4))
            .collect();
        let m: Vec<f64> = std::iter::repeat_n(first.1, 4)
            .chain(std::iter::repeat_n(second.1, 4))
            .collect();
        ObmInstance::new(tiles.clone(), vec![0, 4, 8], c, m)
    };
    (build(heavy, light), build(light, heavy), mesh)
}

fn drift_config(mesh: Mesh) -> SimConfig {
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.controllers =
        MemoryControllers::try_custom(&mesh, vec![TileId(0)]).expect("valid placement");
    cfg.warmup_cycles = WARMUP;
    cfg.measure_cycles = MEASURE;
    cfg.seed = SEED;
    cfg.telemetry_window = WINDOW;
    cfg
}

/// The drifting traffic: epoch 1 until cycle 6 000, epoch 2 for the
/// rest of the run (the trace covers warmup + measurement exactly, so
/// the wrap-around of `piecewise_traffic_spec` never engages).
fn drift_traffic(e1: &ObmInstance, e2: &ObmInstance, mapping: &Mapping) -> TrafficSpec {
    piecewise_traffic_spec(&[e1, e2, e2, e2, e2], mapping, EPOCH)
}

fn max_group_apl(report: &SimReport) -> f64 {
    report
        .groups
        .iter()
        .filter(|g| g.packets > 0)
        .map(|g| g.apl())
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Run the drifting scenario under the controller; returns the report
/// and the controller (with its event log and final mapping).
fn controlled_drift_run() -> (SimReport, RemapController) {
    let (e1, e2, mesh) = drift_epochs();
    let mapping = SortSelectSwap::default().map(&e1, 0);
    let traffic = drift_traffic(&e1, &e2, &mapping);
    let mut ctrl = RemapController::new(e1.clone(), mapping, mesh).expect("valid controller");
    let report = Network::new(drift_config(mesh), traffic)
        .expect("valid scenario")
        .run_with(RunHooks::default().controller(&mut ctrl))
        .expect("controller produces valid retargets");
    (report, ctrl)
}

/// Headline: on the drifting workload the closed-loop controller beats
/// the static epoch-1 mapping's realized max-APL by at least 5%, with
/// a bounded number of migrations.
#[test]
fn controller_beats_static_mapping_on_drifting_workload() {
    let (e1, e2, mesh) = drift_epochs();
    let mapping = SortSelectSwap::default().map(&e1, 0);

    let static_report = Network::new(drift_config(mesh), drift_traffic(&e1, &e2, &mapping))
        .expect("valid scenario")
        .run();
    let (controlled_report, ctrl) = controlled_drift_run();

    let static_apl = max_group_apl(&static_report);
    let controlled_apl = max_group_apl(&controlled_report);
    assert!(
        ctrl.remap_count() >= 1,
        "the drift must trigger at least one accepted remap"
    );
    let improvement = (static_apl - controlled_apl) / static_apl;
    assert!(
        improvement >= 0.05,
        "controller must beat static max-APL by >= 5%: \
         static {static_apl:.3}, controlled {controlled_apl:.3} \
         ({:.1}% better, {} remaps, {} threads moved over {} hops)",
        improvement * 100.0,
        ctrl.remap_count(),
        ctrl.events().iter().map(|e| e.threads_moved).sum::<usize>(),
        ctrl.total_migration_cost(),
    );
    // The migrations that bought the improvement are accounted for.
    assert!(ctrl.total_migration_cost() > 0);
    for ev in ctrl.events() {
        assert!(ev.threads_moved > 0);
        assert!(ev.migration_cost >= ev.threads_moved as u64);
        assert!(ev.drift > 0.0);
    }
}

/// Golden determinism: the fixed seed pins the controller's decision
/// sequence — same remap cycles, same final mapping, bit-identical
/// report on a re-run.
#[test]
fn controlled_run_is_deterministic_and_pinned() {
    let (first_report, first_ctrl) = controlled_drift_run();
    let (second_report, second_ctrl) = controlled_drift_run();

    assert_eq!(first_ctrl.events(), second_ctrl.events());
    assert_eq!(
        first_ctrl.mapping().as_slice(),
        second_ctrl.mapping().as_slice()
    );
    assert!(
        first_report.semantic_eq(&second_report),
        "same seed must replay bit-identically"
    );

    // Pinned decision sequence for SEED (regenerate deliberately if the
    // simulator or controller semantics change).
    let cycles: Vec<u64> = first_ctrl.events().iter().map(|e| e.cycle).collect();
    assert_eq!(cycles, vec![8_000], "remap cycles drifted from the pin");
    let final_tiles: Vec<usize> = first_ctrl
        .mapping()
        .as_slice()
        .iter()
        .map(|t| t.index())
        .collect();
    assert_eq!(
        final_tiles,
        vec![0, 2, 12, 1, 9, 8, 5, 4],
        "final mapping drifted from the pin"
    );
}

/// No drift, no action: under steady traffic the controller never
/// remaps, never even re-solves, and the report is semantically
/// identical to the plain uncontrolled run. Bernoulli injection keeps
/// both paths on the exact same per-cycle RNG schedule. The telemetry
/// window is sized so each app sees a few hundred packets per window:
/// drift detection compares per-window sample means against the
/// calibration baseline, and the window must be long enough that
/// sampling noise stays well below the 15% drift threshold (a
/// mixed near/far app on ~50-packet windows can wander past it by
/// chance — window sizing is the deployment knob that sets the
/// detector's noise floor, see DESIGN.md §14).
#[test]
fn steady_traffic_is_left_untouched() {
    let (e1, _, mesh) = drift_epochs();
    let mapping = SortSelectSwap::default().map(&e1, 0);
    let traffic = || traffic_spec(&e1, &mapping);
    let mut cfg = drift_config(mesh);
    cfg.measure_cycles = 24_000;
    cfg.telemetry_window = 4_000;
    cfg.injection = obm::sim::InjectionProcess::BernoulliPerCycle;

    let plain = Network::new(cfg.clone(), traffic())
        .expect("valid scenario")
        .run();
    let mut ctrl =
        RemapController::new(e1.clone(), mapping.clone(), mesh).expect("valid controller");
    let controlled = Network::new(cfg, traffic())
        .expect("valid scenario")
        .run_with(RunHooks::default().controller(&mut ctrl))
        .expect("no retarget can fail");

    assert_eq!(ctrl.remap_count(), 0, "steady traffic must not remap");
    assert_eq!(ctrl.solves(), 0, "steady traffic must not even re-solve");
    assert_eq!(
        ctrl.mapping().as_slice(),
        mapping.as_slice(),
        "incumbent mapping must survive"
    );
    assert!(
        plain.semantic_eq(&controlled),
        "an idle controller must not perturb the simulation"
    );
}

/// A controller handing back a malformed retarget vector aborts the
/// run with the matching [`ConfigError`] instead of corrupting it.
struct BadRetarget(Option<Vec<TileId>>);

impl SwapController for BadRetarget {
    fn on_window(&mut self, record: &WindowRecord, _: &[SourceCounters]) -> Option<Vec<TileId>> {
        if record.phase == Phase::Measure {
            self.0.take()
        } else {
            None
        }
    }
}

#[test]
fn malformed_retargets_abort_the_run() {
    let (e1, _, mesh) = drift_epochs();
    let mapping = SortSelectSwap::default().map(&e1, 0);
    let run_with = |tiles: Vec<TileId>| {
        let mut ctrl = BadRetarget(Some(tiles));
        Network::new(drift_config(mesh), traffic_spec(&e1, &mapping))
            .expect("valid scenario")
            .run_with(RunHooks::default().controller(&mut ctrl))
    };

    assert!(matches!(
        run_with(vec![TileId(0)]),
        Err(ConfigError::RetargetLength {
            got: 1,
            expected: 8
        })
    ));
    assert!(matches!(
        run_with((0..7).map(TileId).chain([TileId(99)]).collect()),
        Err(ConfigError::SourceTileOutOfRange { tile: 99, .. })
    ));
    assert!(matches!(
        run_with(vec![TileId(3); 8]),
        Err(ConfigError::DuplicateSourceTile(3))
    ));
}
