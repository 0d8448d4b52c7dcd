//! **Figure 3, measured** (extension) — reproduce the paper's per-tile
//! latency heatmaps from *measurement*: every tile injects identical
//! uniform traffic through the cycle-level simulator, and the measured
//! per-source APL grid is compared against the analytic `TC`-dominated
//! prediction. Closes the loop between Eq. (3) and the flit-level network.

use noc_model::{Coord, Mesh, TileLatencies};
use noc_sim::{Network, Schedule, SimConfig, TrafficSpec};

pub fn run(fast: bool) -> String {
    let mesh = Mesh::square(8);
    let cycles: u64 = if fast { 30_000 } else { 150_000 };
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.warmup_cycles = cycles / 10;
    cfg.measure_cycles = cycles;
    cfg.seed = 23;
    let cache_rate = 7.0; // C1-scale
    let mem_rate = 0.9;
    let traffic = TrafficSpec::uniform(
        &mesh,
        Schedule::per_kilocycle(cache_rate),
        Schedule::per_kilocycle(mem_rate),
    );
    let report = Network::new(cfg, traffic).expect("valid scenario").run();

    // Analytic prediction of a tile's mixed APL.
    let tl = TileLatencies::paper_default(&mesh);
    let predict = |t: noc_model::TileId| {
        (cache_rate * tl.tc(t) + mem_rate * tl.tm(t)) / (cache_rate + mem_rate)
    };

    let mut measured_grid = String::new();
    let mut worst_err: f64 = 0.0;
    for r in 0..8 {
        for c in 0..8 {
            let t = mesh.tile(Coord::new(r, c));
            let apl = report.per_source[t.index()].apl();
            let err = (apl - predict(t)).abs() / predict(t);
            worst_err = worst_err.max(err);
            measured_grid.push_str(&format!("{apl:>7.2}"));
        }
        measured_grid.push('\n');
    }
    format!(
        "## Figure 3, measured (extension) — per-source APL from the simulator\n\n\
         measured per-tile APL (cycles), uniform C1-scale traffic from every tile:\n{measured_grid}\n\
         worst per-tile deviation from the analytic (c·TC + m·TM)/(c+m) prediction: {:.1}%\n\
         (center tiles fast, corners slow — the Figure 3a gradient, reproduced from flits).\n",
        worst_err * 100.0
    )
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "runs the cycle-level simulator; exercised by `obm experiments fig3sim`"]
    fn fig3sim_runs() {
        let out = super::run(true);
        assert!(out.contains("measured"));
    }
}
