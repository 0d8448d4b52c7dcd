//! **Placement co-optimization** (extension) — the paper fixes the
//! memory controllers at the corners (Section II) and only maps threads;
//! this sweep makes the placement a decision variable. An exhaustive
//! outer search over symmetry-reduced controller placements (DESIGN.md
//! §15) with sort-select-swap in the inner loop finds the layout whose
//! *optimized* mapping has the lowest max-APL, then both layouts are
//! replayed through the cycle-level simulator under a telemetry probe so
//! the PR 5 link heatmaps show where the traffic moved.

use crate::table::{f, MarkdownTable};
use noc_model::{LatencyParams, MemoryControllers, Mesh, TileLatencies};
use noc_sim::telemetry::RingSink;
use noc_sim::{Network, RunHooks, SimConfig};
use obm_core::placement::{co_optimize, sss_inner, PlacementOptions, SearchMode};
use obm_core::{evaluate, ObmInstance};

/// Four 4-thread applications on a 4×4 chip, app 4 the most
/// memory-intensive — enough heterogeneity that where the controllers
/// sit decides who pays the memory-latency bill.
fn rates() -> (Vec<f64>, Vec<f64>, Vec<usize>) {
    let c: Vec<f64> = (0..16).map(|j| 1.0 + 0.5 * (j % 4) as f64).collect();
    let m: Vec<f64> = (0..16).map(|j| 0.2 + 0.15 * (j / 4) as f64).collect();
    (c, m, vec![0, 4, 8, 12, 16])
}

pub fn run(fast: bool) -> String {
    let mesh = Mesh::square(4);
    let params = LatencyParams::paper_table2();
    let (c, m, bounds) = rates();
    let corners = TileLatencies::compute(&mesh, &MemoryControllers::corners(&mesh), params);
    let inst = ObmInstance::new(corners, bounds.clone(), c.clone(), m.clone());

    let mut opts = PlacementOptions::new(4);
    opts.mode = SearchMode::Exhaustive;
    let out = co_optimize(&inst, &mesh, &opts, sss_inner)
        .expect("4 controllers on a 4x4 mesh is a valid placement search");

    let cycles: u64 = if fast { 3_000 } else { 20_000 };
    let mut t = MarkdownTable::new(vec![
        "layout",
        "controllers (tiles)",
        "max-APL",
        "dev-APL",
        "sim max-APL",
        "delivered",
    ]);
    let mut heatmaps = String::new();
    for (label, layout, mapping) in [
        (
            "corner-default",
            &out.baseline_layout,
            &out.baseline_mapping,
        ),
        ("best-found", &out.layout, &out.mapping),
    ] {
        let il = ObmInstance::new(
            TileLatencies::for_layout(layout, params),
            bounds.clone(),
            c.clone(),
            m.clone(),
        );
        let r = evaluate(&il, mapping);
        let mut cfg = SimConfig::for_layout(layout).expect("search layouts have no failed links");
        cfg.warmup_cycles = (cycles / 10).max(100);
        cfg.measure_cycles = cycles;
        cfg.seed = 0xBEEF;
        let traffic = obm_core::traffic_spec(&il, mapping);
        let mut sink = RingSink::new(4096);
        let report = Network::new(cfg, traffic)
            .expect("sweep simulation config is valid")
            .run_with(RunHooks::default().probe(&mut sink))
            .expect("a run without a controller cannot fail");
        let heat = sink
            .heatmaps()
            .next()
            .cloned()
            .expect("probed runs emit a heatmap record");
        let tiles: Vec<String> = layout
            .controllers()
            .tiles()
            .iter()
            .map(|k| k.to_paper().to_string())
            .collect();
        t.row(vec![
            label.to_string(),
            tiles.join(" "),
            f(r.max_apl),
            f(r.dev_apl),
            f(report.max_apl()),
            format!("{}/{}", report.delivered, report.injected),
        ]);
        heatmaps.push_str(&format!(
            "### {label} — link heatmap (decile digits, 9 = hottest link, . = idle)\n\n\
             ```\n{}```\n\n",
            heat.ascii_mesh()
        ));
    }

    format!(
        "## Placement co-optimization (extension) — 4 controllers on a 4x4 chip\n\n\
         Exhaustive outer search over {} canonical controller placements \
         (D4 symmetry reduction of C(16,4) = 1820 combinations), \
         sort-select-swap inner solve per candidate, seed {}.\n\n{}\n\
         Best-found placement cuts max-APL by {:.2}% vs the paper's corner \
         default — moving the controllers toward the memory-heavy rows \
         shortens exactly the TM terms that the corner layout forces onto \
         whichever application loses the mapping race; the heatmaps show \
         the corner layout funnelling memory traffic through the perimeter \
         while the optimized layout spreads it across interior links.\n\n{}",
        out.evaluated,
        opts.seed,
        t.render(),
        out.gain_pct(),
        heatmaps
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn placement_sweep_beats_corners_and_exports_heatmaps() {
        let out = super::run(true);
        assert!(out.contains("Placement co-optimization"), "{out}");
        assert!(out.contains("corner-default"), "{out}");
        assert!(out.contains("best-found"), "{out}");
        // The heatmap pair is exported (two fenced ASCII meshes).
        assert_eq!(out.matches("link heatmap").count(), 2, "{out}");
        assert_eq!(out.matches("```\n").count(), 4, "{out}");
        // The search finds a strictly better layout on this config.
        assert!(!out.contains("by 0.00%"), "{out}");
    }
}
