//! Degenerate-shape regression tests: every solver terminates on a
//! one-tile chip, and the exact solvers on other degenerate shapes.
//!
//! A 1×1 mesh with a single thread leaves no pair of tiles to swap, so a
//! local search that draws two distinct tiles can never make a move. The
//! Hungarian-based solvers also meet a 1×N row with one thread, and a chip
//! whose tiles all have the same latencies, where every column of the
//! Eq. (13) matrix is the same. Each solve below runs on a watchdog
//! thread: a hang fails the test after a bounded wait instead of stalling
//! the suite.

use obm::lap::CostMatrix;
use obm::mapping::solve_sam;
use obm::prelude::*;
use std::sync::mpsc;
use std::time::Duration;

/// Generous bound for solves that finish in microseconds on one tile.
const WATCHDOG: Duration = Duration::from_secs(10);

/// One thread of one app on the paper-default 1×1 chip.
fn one_tile_instance() -> ObmInstance {
    let tiles = TileLatencies::paper_default(&Mesh::square(1));
    ObmInstance::new(tiles, vec![0, 1], vec![1.0], vec![0.1])
}

/// One thread on a 1×8 row of tiles: seven tiles stay empty.
fn one_by_n_instance() -> ObmInstance {
    let tiles = TileLatencies::paper_default(&Mesh::new(1, 8));
    ObmInstance::new(tiles, vec![0, 1], vec![1.0], vec![0.1])
}

/// Three threads of two apps on six tiles with equal latencies: every
/// column of the Eq. (13) matrix is the same, and three tiles stay empty.
fn equal_tiles_instance() -> ObmInstance {
    let tiles =
        TileLatencies::from_raw(vec![20.0; 6], vec![40.0; 6], LatencyParams::paper_table2());
    ObmInstance::new(
        tiles,
        vec![0, 2, 3],
        vec![1.0, 2.0, 0.5],
        vec![0.1, 0.3, 0.05],
    )
}

/// Run `solve` on its own thread and return its result, failing the test
/// if it has not returned within [`WATCHDOG`].
fn within_watchdog<T: Send + 'static>(
    label: &str,
    solve: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(solve());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(out) => out,
        Err(_) => panic!("{label} did not return within {WATCHDOG:?}"),
    }
}

#[test]
fn simulated_annealing_terminates_on_one_tile() {
    let inst = one_tile_instance();
    let mapping = within_watchdog("SA on a 1×1 chip", move || {
        SimulatedAnnealing::default().map(&one_tile_instance(), 0)
    });
    assert!(mapping.is_valid_for(&inst));
    assert_eq!(mapping.tile_of(0), TileId(0));
}

#[test]
fn hybrid_terminates_on_one_tile() {
    let inst = one_tile_instance();
    let mapping = within_watchdog("hybrid SSS+SA on a 1×1 chip", move || {
        HybridSssSa::default().map(&one_tile_instance(), 0)
    });
    assert!(mapping.is_valid_for(&inst));
    assert_eq!(mapping.tile_of(0), TileId(0));
}

#[test]
fn portfolio_under_deadline_terminates_on_one_tile() {
    let outcome = within_watchdog("portfolio on a 1×1 chip", || {
        let inst = one_tile_instance();
        SolveRequest::builder(&inst)
            .algorithms(Algorithm::default_portfolio())
            .seeds([0, 1])
            .deadline(Duration::from_millis(500))
            .workers(2)
            .build()
            .expect("valid request")
            .solve()
    });
    assert_eq!(outcome.mapping.tile_of(0), TileId(0));
    assert_eq!(outcome.objective, 0.0, "a lone local thread sends nothing");
}

#[test]
fn exact_solvers_terminate_on_degenerate_shapes() {
    type Make = fn() -> ObmInstance;
    let shapes: [(&str, Make); 3] = [
        ("a 1×1 chip", one_tile_instance),
        ("a 1×8 chip with one thread", one_by_n_instance),
        ("equal tiles with holes", equal_tiles_instance),
    ];
    for (shape, make) in shapes {
        let inst = make();
        let global = within_watchdog(&format!("Global on {shape}"), move || {
            Global.map(&make(), 0)
        });
        assert!(global.is_valid_for(&inst), "Global on {shape}");
        let sam = within_watchdog(&format!("SAM on {shape}"), move || {
            let inst = make();
            let threads: Vec<usize> = (0..inst.num_threads()).collect();
            let tiles: Vec<TileId> = (0..inst.num_tiles()).map(TileId).collect();
            solve_sam(&inst, &threads, &tiles)
        });
        assert!(
            Mapping::new(sam.assignment).is_valid_for(&inst),
            "SAM on {shape}"
        );
        let bnb = within_watchdog(&format!("BnB on {shape}"), move || {
            BranchAndBound::default().map(&make(), 0)
        });
        assert!(bnb.is_valid_for(&inst), "BnB on {shape}");
    }
}

#[test]
fn all_equal_row_takes_the_first_column() {
    // The dense first-minimum scan picks the lowest of equal columns.
    let sol = CostMatrix::from_rows(&[vec![3.5; 7]]).solve();
    assert_eq!(sol.row_to_col, vec![0]);
    assert_eq!(sol.cost, 3.5);
}
