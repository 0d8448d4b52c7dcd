//! One module per table/figure of the paper. Each `run()` returns the
//! formatted output block; `obm experiments <id>...` dispatches on the
//! experiment id and prints it.

pub mod ablation;
pub mod fig12;
pub mod fig3;
pub mod fig3sim;
pub mod fig4;
pub mod fig5;
pub mod fig8;
pub mod firstprinciples;
pub mod lineup_views;
pub mod loadcurve;
pub mod nocparams;
pub mod optgap;
pub mod oversub;
pub mod placement;
pub mod queueing;
pub mod scaling;
pub mod table1;
pub mod table3;
pub mod tails;
pub mod torus;
pub mod validate;
pub mod weighted;

/// All experiment ids: the paper's tables/figures in order, then the
/// validation pass and this repo's extension studies.
pub const ALL: &[&str] = &[
    "table1",
    "table3",
    "table4",
    "fig3",
    "fig4",
    "fig5",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "validate",
    "ablation",
    "loadcurve",
    "scaling",
    "weighted",
    "torus",
    "firstprinciples",
    "optgap",
    "queueing",
    "fig3sim",
    "oversub",
    "nocparams",
    "tails",
    "placement",
];

/// Run one experiment by id. `fast` trims sample counts / simulated cycles
/// so the full suite stays CI-friendly. `injection` picks the process of
/// the simulator-sweep experiments (`loadcurve`, `validate`, `tails`);
/// ids whose output is pinned to the default Bernoulli RNG stream (seeded
/// replays, golden comparisons) ignore it. Every experiment counts its run
/// under `experiment_runs_total` in `metrics` (DESIGN.md §17,
/// `obm experiments <id> --metrics`); `validate` additionally publishes
/// its throughput/parallelism gauges and the portfolio instrumentation.
pub fn run(
    id: &str,
    fast: bool,
    injection: noc_sim::InjectionProcess,
    metrics: &noc_metrics::MetricsHandle,
) -> Option<String> {
    let out = dispatch(id, fast, injection, metrics);
    if out.is_some() {
        metrics.inc("experiment_runs_total");
    }
    out
}

fn dispatch(
    id: &str,
    fast: bool,
    injection: noc_sim::InjectionProcess,
    metrics: &noc_metrics::MetricsHandle,
) -> Option<String> {
    Some(match id {
        "table1" => table1::run(fast),
        "table3" => table3::run(),
        "table4" => lineup_views::run_table4(),
        "fig3" => fig3::run(),
        "fig4" => fig4::run(),
        "fig5" => fig5::run(),
        "fig8" => fig8::run(),
        "fig9" => lineup_views::run_fig9(),
        "fig10" => lineup_views::run_fig10(),
        "fig11" => lineup_views::run_fig11(),
        "fig12" => fig12::run(fast),
        "validate" => validate::run(fast, injection, metrics),
        "ablation" => ablation::run(),
        "loadcurve" => loadcurve::run(fast, injection),
        "scaling" => scaling::run(fast),
        "weighted" => weighted::run(),
        "torus" => torus::run(),
        "firstprinciples" => firstprinciples::run(fast),
        "optgap" => optgap::run(fast),
        "queueing" => queueing::run(fast),
        "fig3sim" => fig3sim::run(fast),
        "oversub" => oversub::run(),
        "nocparams" => nocparams::run(fast),
        "tails" => tails::run(fast, injection),
        "placement" => placement::run(fast),
        _ => return None,
    })
}
