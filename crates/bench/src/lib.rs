//! Experiment harness for the IPDPS'14 OBM reproduction: regenerates every
//! table and figure of the paper's evaluation (run
//! `cargo run --release -p obm-cli -- experiments all`) and hosts the
//! criterion benchmarks.

pub mod experiments;
pub mod harness;
pub mod lineup;
pub mod sim_bridge;
pub mod table;

/// Worker budget of the sweep grids: `OBM_WORKERS` if set to a positive
/// integer, otherwise every detected core. The sweeps fan out on
/// [`obm_core::pool::run_indexed`]; `validate` prints the effective value
/// so sweep logs record what actually ran.
pub fn effective_workers() -> usize {
    std::env::var("OBM_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(obm_core::pool::detected_cores)
}

#[cfg(test)]
mod tests {
    #[test]
    fn env_override_is_ignored_when_invalid() {
        // `effective_workers` falls back to the detected core count for
        // unset/invalid values; every path returns at least 1.
        assert!(super::effective_workers() >= 1);
    }
}
