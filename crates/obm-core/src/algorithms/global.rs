//! The *Global* baseline: minimize the overall packet latency of all
//! threads (the g-APL), ignoring per-application balance.
//!
//! Because the g-APL denominator (total communication volume) is fixed,
//! minimizing g-APL is exactly minimizing
//! `Σ_j c_j·TC(π(j)) + m_j·TM(π(j))`, a single `N×N` linear assignment
//! problem — solved optimally by the Hungarian method. This makes our
//! Global baseline the *true* optimum of the traditional objective, which
//! is the strongest version of the comparison in the paper's Section II.D:
//! the imbalance it exhibits is inherent to the objective, not an artifact
//! of a weak solver.

use crate::algorithms::Mapper;
use crate::problem::{Mapping, ObmInstance};
use noc_model::TileId;

/// Globally-optimal overall-latency mapper.
#[derive(Debug, Clone, Copy, Default)]
pub struct Global;

impl Mapper for Global {
    fn name(&self) -> &'static str {
        "Global"
    }

    fn map(&self, inst: &ObmInstance, _seed: u64) -> Mapping {
        // The Hungarian input is exactly the instance's cached Eq. (13)
        // matrix: solve it in place, no N×K copy.
        let sol = inst.eval_tables().cost_matrix().solve();
        Mapping::new(sol.row_to_col.iter().map(|&k| TileId(k)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::random::RandomMapper;
    use crate::eval::evaluate;
    use noc_model::{LatencyParams, MemoryControllers, Mesh, TileLatencies};

    fn paper_style_instance(seed: u64) -> ObmInstance {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
        let mut rng = SmallRng::seed_from_u64(seed);
        // Two apps with very different rates: app 1 light, app 2 heavy.
        let mut c = vec![];
        for _ in 0..8 {
            c.push(rng.gen_range(0.5..1.0));
        }
        for _ in 0..8 {
            c.push(rng.gen_range(5.0..10.0));
        }
        let m: Vec<f64> = c.iter().map(|x| x * 0.15).collect();
        ObmInstance::new(tiles, vec![0, 8, 16], c, m)
    }

    #[test]
    fn global_beats_random_on_g_apl() {
        let inst = paper_style_instance(1);
        let g = evaluate(&inst, &Global.map(&inst, 0));
        for seed in 0..50 {
            let r = evaluate(&inst, &RandomMapper.map(&inst, seed));
            assert!(g.g_apl <= r.g_apl + 1e-9, "random seed {seed} beat Global");
        }
    }

    #[test]
    fn global_exacerbates_imbalance() {
        // Section II.D's observation: optimizing g-APL places the heavy
        // app on the cheap tiles, inflating the light app's APL — its
        // dev-APL should exceed the random-average dev-APL.
        let inst = paper_style_instance(2);
        let g = evaluate(&inst, &Global.map(&inst, 0));
        let avg = crate::algorithms::RandomMapper::averages(&inst, 500, 7);
        assert!(
            g.dev_apl > avg.mean_dev_apl,
            "Global dev-APL {} not worse than random {}",
            g.dev_apl,
            avg.mean_dev_apl
        );
        // The light application (app 0) gets the worse APL.
        assert!(g.per_app[0] > g.per_app[1]);
    }

    #[test]
    fn global_is_deterministic() {
        let inst = paper_style_instance(3);
        assert_eq!(Global.map(&inst, 0), Global.map(&inst, 99));
    }

    #[test]
    fn golden_global_16x16() {
        // 256 threads in four 64-thread apps with rate scales spanning
        // 18×, on the paper's Table 2 latencies: pinned before the solver
        // moved to a compact column list, so any drift in its search
        // order or tie-breaking shows here.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mesh = Mesh::square(16);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
        let mut rng = SmallRng::seed_from_u64(16);
        let mut c = Vec::with_capacity(256);
        for scale in [0.5, 1.5, 4.0, 9.0] {
            for _ in 0..64 {
                c.push(scale * rng.gen_range(0.2..2.0));
            }
        }
        let m: Vec<f64> = c.iter().map(|x| x * 0.15).collect();
        let inst = ObmInstance::new(tiles, vec![0, 64, 128, 192, 256], c, m);
        let mapping = Global.map(&inst, 0);
        // FNV-1a over the tile indices.
        let hash = mapping
            .as_slice()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, t| {
                (h ^ t.index() as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        let r = evaluate(&inst, &mapping);
        assert_eq!(
            (hash, r.g_apl.to_bits(), r.max_apl.to_bits()),
            (0xe7ed_6b30_e61f_4aa5, 0x4043_fde0_4b99_7951, 0x4047_f237_fa0b_2616),
            "Global 16x16 drifted: hash 0x{hash:016x}, g-APL {} (0x{:016x}), max-APL {} (0x{:016x})",
            r.g_apl,
            r.g_apl.to_bits(),
            r.max_apl,
            r.max_apl.to_bits()
        );
    }

    #[test]
    fn heavy_threads_get_low_tc_tiles() {
        // With cache-only traffic, the heaviest thread must sit on a
        // minimum-TC tile in the Global optimum (exchange argument).
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tl = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let mut c = vec![1.0; 16];
        c[5] = 100.0; // one very heavy thread
        let inst = ObmInstance::new(tl, vec![0, 16], c, vec![0.0; 16]);
        let m = Global.map(&inst, 0);
        let tc_of_heavy = inst.tiles().tc(m.tile_of(5));
        let min_tc = inst
            .tiles()
            .tc_array()
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!((tc_of_heavy - min_tc).abs() < 1e-9);
    }
}
