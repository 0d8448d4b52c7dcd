//! **Figure 5** — the metric-pitfall example of §III.A: on a 4×4 mesh with
//! four 4-thread applications (cache rates .1/.2/.3/.4, `td_r=3, td_w=1,
//! td_s=1`), two mappings both have perfectly equal APLs — dev-APL 0 and
//! min-to-max ratio 1 cannot tell them apart — yet one is optimal at
//! 10.3375 cycles and the other equally *bad* at 11.5375. Only max-APL
//! separates them, which is why the paper adopts it as the objective.

use noc_model::{LatencyParams, MemoryControllers, Mesh, TileId, TileLatencies};
use obm_core::algorithms::{Mapper, SortSelectSwap};
use obm_core::{evaluate, AplReport, Mapping, ObmInstance};

/// The Figure 5 instance.
pub fn fig5_instance() -> ObmInstance {
    let mesh = Mesh::square(4);
    let mcs = MemoryControllers::corners(&mesh);
    let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
    let c: Vec<f64> = (0..4).flat_map(|_| [0.1, 0.2, 0.3, 0.4]).collect();
    ObmInstance::new(tiles, vec![0, 4, 8, 12, 16], c, vec![0.0; 16])
}

/// The optimal (a) and reversed "equally bad" (b) mappings.
pub fn fig5_mappings(inst: &ObmInstance) -> (Mapping, Mapping) {
    // classify tiles by TC
    let mut corners = vec![];
    let mut edges = vec![];
    let mut centers = vec![];
    for k in 0..16 {
        let t = TileId(k);
        let tc = inst.tiles().tc(t);
        if (tc - 12.9375).abs() < 1e-9 {
            corners.push(t);
        } else if (tc - 10.9375).abs() < 1e-9 {
            edges.push(t);
        } else {
            centers.push(t);
        }
    }
    let mut good = vec![TileId(0); 16];
    let mut bad = vec![TileId(0); 16];
    for app in 0..4 {
        // (a): .1→corner, .2/.3→edges, .4→center
        good[app * 4] = corners[app];
        good[app * 4 + 1] = edges[2 * app];
        good[app * 4 + 2] = edges[2 * app + 1];
        good[app * 4 + 3] = centers[app];
        // (b): reversed
        bad[app * 4] = centers[app];
        bad[app * 4 + 1] = edges[2 * app + 1];
        bad[app * 4 + 2] = edges[2 * app];
        bad[app * 4 + 3] = corners[app];
    }
    (Mapping::new(good), Mapping::new(bad))
}

/// `min_i d_i / max_i d_i` (1 = perfectly equal; an all-zero report
/// counts as equal).
fn min_to_max(report: &AplReport) -> f64 {
    if report.max_apl == 0.0 {
        1.0
    } else {
        report.min_apl / report.max_apl
    }
}

pub fn run() -> String {
    let inst = fig5_instance();
    let (good, bad) = fig5_mappings(&inst);
    let ra = evaluate(&inst, &good);
    let rb = evaluate(&inst, &bad);
    let sss = evaluate(&inst, &SortSelectSwap::default().map(&inst, 0));
    format!(
        "## Figure 5 — why max-APL is the right objective (4×4 example)\n\n\
         mapping (a) optimal      : APLs {:?} | max-APL {:.4} | dev-APL {:.4} | min/max {:.3}\n\
         mapping (b) equally bad  : APLs {:?} | max-APL {:.4} | dev-APL {:.4} | min/max {:.3}\n\
         (paper values: 10.3375 vs 11.5375 cycles)\n\n\
         dev-APL and min-to-max rate (a) and (b) identically; max-APL prefers (a) by {:.2} cycles.\n\
         SSS on this instance reaches max-APL {:.4} (= the optimum).\n",
        ra.per_app.iter().map(|d| (d * 1e4).round() / 1e4).collect::<Vec<_>>(),
        ra.max_apl,
        ra.dev_apl,
        min_to_max(&ra),
        rb.per_app.iter().map(|d| (d * 1e4).round() / 1e4).collect::<Vec<_>>(),
        rb.max_apl,
        rb.dev_apl,
        min_to_max(&rb),
        rb.max_apl - ra.max_apl,
        sss.max_apl,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_paper_values() {
        let inst = fig5_instance();
        let (good, bad) = fig5_mappings(&inst);
        let ra = evaluate(&inst, &good);
        let rb = evaluate(&inst, &bad);
        assert!((ra.max_apl - 10.3375).abs() < 1e-9);
        assert!((rb.max_apl - 11.5375).abs() < 1e-9);
        assert!(ra.dev_apl < 1e-9 && rb.dev_apl < 1e-9);
    }

    fn report(per_app: &[f64]) -> AplReport {
        let max = per_app.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = per_app.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = per_app.iter().sum::<f64>() / per_app.len() as f64;
        let dev =
            (per_app.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / per_app.len() as f64).sqrt();
        AplReport {
            per_app: per_app.to_vec(),
            max_apl: max,
            min_apl: min,
            argmax: 0,
            dev_apl: dev,
            g_apl: mean,
        }
    }

    #[test]
    fn fig5_style_tie_under_dev_but_not_max() {
        // Two perfectly balanced outcomes: APLs all 10.3375 vs all 11.5375.
        // dev-APL and min-to-max cannot tell them apart; max-APL can.
        let good = report(&[10.3375; 4]);
        let bad = report(&[11.5375; 4]);
        assert_eq!(good.dev_apl, bad.dev_apl);
        assert_eq!(min_to_max(&good), min_to_max(&bad));
        assert!(good.max_apl < bad.max_apl);
    }

    #[test]
    fn min_to_max_of_degenerate_zero_max() {
        assert_eq!(min_to_max(&report(&[0.0, 0.0])), 1.0);
    }
}
