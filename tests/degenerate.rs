//! Degenerate-shape regression tests: every solver terminates on a
//! one-tile chip.
//!
//! A 1×1 mesh with a single thread leaves no pair of tiles to swap, so a
//! local search that draws two distinct tiles can never make a move. Each
//! solve below runs on a watchdog thread: a hang fails the test after a
//! bounded wait instead of stalling the suite.

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
        Err(_) => panic!("{label} did not return within {WATCHDOG:?} on a 1×1 chip"),
    }
}

#[test]
fn simulated_annealing_terminates_on_one_tile() {
    let inst = one_tile_instance();
    let mapping = within_watchdog("SA", move || {
        SimulatedAnnealing::default().map(&one_tile_instance(), 0)
    });
    assert!(mapping.is_valid_for(&inst));
    assert_eq!(mapping.tile_of(0), TileId(0));
}

#[test]
fn hybrid_terminates_on_one_tile() {
    let inst = one_tile_instance();
    let mapping = within_watchdog("hybrid SSS+SA", move || {
        HybridSssSa::default().map(&one_tile_instance(), 0)
    });
    assert!(mapping.is_valid_for(&inst));
    assert_eq!(mapping.tile_of(0), TileId(0));
}

#[test]
fn portfolio_under_deadline_terminates_on_one_tile() {
    let outcome = within_watchdog("portfolio", || {
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
