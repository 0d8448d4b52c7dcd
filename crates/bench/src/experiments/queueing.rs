//! **Queueing prediction** (extension) — the analytic M/D/1-style per-hop
//! queueing estimate of `noc-model::loads` against the cycle-level
//! simulator across the load sweep. Where the paper *measures* `td_q` and
//! observes 0–1 cycles, this shows the number is predictable from link
//! loads alone.

use crate::table::{f, MarkdownTable};
use noc_model::{LinkLoads, MemoryControllers, Mesh, SourceLoad};
use noc_sim::{Network, Schedule, SimConfig, TrafficSpec};

fn run_point(rate_per_kcycle: f64, cycles: u64) -> (f64, f64, f64) {
    let mesh = Mesh::square(8);
    let mcs = MemoryControllers::corners(&mesh);
    // analytic
    let sources: Vec<SourceLoad> = mesh
        .tiles()
        .map(|t| SourceLoad {
            tile: t,
            cache_rate: rate_per_kcycle / 1000.0,
            mem_rate: rate_per_kcycle * 0.15 / 1000.0,
        })
        .collect();
    let loads = LinkLoads::compute(&mesh, &mcs, &sources, 3.0);
    // simulated
    let mut cfg = SimConfig::paper_defaults(mesh);
    cfg.warmup_cycles = cycles / 10;
    cfg.measure_cycles = cycles;
    cfg.max_drain_cycles = 6 * cycles;
    cfg.seed = 11;
    let sim_traffic = TrafficSpec::uniform(
        &mesh,
        Schedule::per_kilocycle(rate_per_kcycle),
        Schedule::per_kilocycle(rate_per_kcycle * 0.15),
    );
    let report = Network::new(cfg, sim_traffic)
        .expect("valid scenario")
        .run();
    (loads.mean_td_q(), report.mean_td_q(), loads.max_load())
}

pub fn run(fast: bool) -> String {
    let cycles = if fast { 10_000 } else { 40_000 };
    let rates: &[f64] = if fast {
        &[8.0, 32.0]
    } else {
        &[2.0, 8.0, 16.0, 32.0, 48.0, 64.0]
    };
    let mut t = MarkdownTable::new(vec![
        "cache req/kcycle/tile",
        "predicted td_q (M/D/1)",
        "simulated td_q",
        "max link load (flits/cyc)",
    ]);
    for &r in rates {
        let (pred, sim, maxload) = run_point(r, cycles);
        t.row(vec![format!("{r}"), f(pred), f(sim), f(maxload)]);
    }
    format!(
        "## Queueing prediction (extension) — analytic link loads vs simulation\n\n{}\n\
         Both predicted and simulated td_q stay well below one cycle through the paper's \
         operating range (≤ 11 req/kcycle), and the estimate reproduces the convex growth \
         shape; absolute values under-predict by a small factor because NI serialization, \
         switch arbitration and VC contention are not in the M/D/1 abstraction — the same \
         effects the paper folds into its measured constant.\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "runs the cycle-level simulator; exercised by `obm experiments queueing`"]
    fn queueing_runs() {
        let out = super::run(true);
        assert!(out.contains("Queueing"));
    }
}
