//! Hybrid mapper (extension): seed simulated annealing with the
//! sort-select-swap solution instead of a random mapping.
//!
//! Figure 12's trade-off suggests the natural combination — spend the
//! deterministic `O(N³)` pass first, then let a short annealing run explore
//! the neighbourhood SSS cannot reach (its window permutations only act on
//! the TC-sorted list). With an SSS-quality incumbent the annealer can run
//! cold (low initial temperature), making the hybrid strictly a refinement
//! in practice.

use crate::algorithms::{Mapper, SortSelectSwap};
use crate::cancel::CancelToken;
use crate::eval::{evaluate, IncrementalEvaluator};
use crate::problem::{Mapping, ObmInstance};
use noc_model::TileId;
use noc_telemetry::{NoopSink, Probe};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Annealing moves between [`CancelToken`] polls (power of two: mask
/// test); same cadence as `SimulatedAnnealing`.
const CANCEL_POLL_MASK: usize = 1024 - 1;

/// SSS followed by a cold annealing refinement.
#[derive(Debug, Clone, Copy)]
pub struct HybridSssSa {
    /// The SSS configuration used for the seed.
    pub sss: SortSelectSwap,
    /// Annealing moves after seeding.
    pub sa_iterations: usize,
    /// Initial temperature as a fraction of the seed objective (cold:
    /// small values only accept near-lateral moves).
    pub initial_temp_fraction: f64,
}

impl Default for HybridSssSa {
    fn default() -> Self {
        HybridSssSa {
            sss: SortSelectSwap::default(),
            sa_iterations: 20_000,
            initial_temp_fraction: 0.002,
        }
    }
}

impl Mapper for HybridSssSa {
    fn name(&self) -> &'static str {
        "SSS+SA"
    }

    fn map(&self, inst: &ObmInstance, seed: u64) -> Mapping {
        self.map_cancellable(inst, seed, &CancelToken::never(), &mut NoopSink)
            .expect("a never-firing token cannot cancel the hybrid")
    }

    fn map_cancellable(
        &self,
        inst: &ObmInstance,
        seed: u64,
        token: &CancelToken,
        probe: &mut dyn Probe,
    ) -> Option<Mapping> {
        // The SSS seed pass polls between its own passes; the refinement
        // loop below polls every CANCEL_POLL_MASK+1 moves.
        let init = self.sss.map_cancellable(inst, seed, token, probe)?;
        // With fewer than two tiles there is no swap to try.
        if inst.num_tiles() < 2 {
            return Some(init);
        }
        let init_val = evaluate(inst, &init).max_apl;
        let mut ev = IncrementalEvaluator::new(inst, init.clone());
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5555_aaaa);
        let mut cur = init_val;
        let mut best = init_val;
        let mut best_mapping = init;
        let t0 = (init_val * self.initial_temp_fraction).max(1e-9);
        let alpha = (1e-3f64).powf(1.0 / self.sa_iterations.max(1) as f64);
        let mut temp = t0;
        let n = inst.num_tiles();
        for it in 0..self.sa_iterations {
            if it & CANCEL_POLL_MASK == 0 && token.is_cancelled() {
                return None;
            }
            let a = TileId(rng.gen_range(0..n));
            let mut b = TileId(rng.gen_range(0..n));
            while b == a {
                b = TileId(rng.gen_range(0..n));
            }
            ev.swap_tiles(a, b);
            let cand = ev.max_apl();
            let delta = cand - cur;
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp() {
                cur = cand;
                if cur < best {
                    best = cur;
                    best_mapping = ev.mapping().clone();
                }
            } else {
                ev.swap_tiles(a, b);
            }
            temp *= alpha;
        }
        Some(best_mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::{LatencyParams, MemoryControllers, Mesh, TileLatencies};
    use rand::rngs::SmallRng as TestRng;

    fn instance(seed: u64) -> ObmInstance {
        let mesh = Mesh::square(8);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
        let mut rng = TestRng::seed_from_u64(seed);
        let mut c = Vec::with_capacity(64);
        for app in 0..4 {
            let scale = [0.5, 1.5, 4.0, 9.0][app];
            for _ in 0..16 {
                c.push(scale * rng.gen_range(0.2..2.0));
            }
        }
        let m: Vec<f64> = c.iter().map(|x| x * 0.15).collect();
        ObmInstance::new(tiles, vec![0, 16, 32, 48, 64], c, m)
    }

    #[test]
    fn hybrid_never_worse_than_sss() {
        for seed in 0..3 {
            let inst = instance(seed);
            let sss = evaluate(&inst, &SortSelectSwap::default().map(&inst, 0)).max_apl;
            let hybrid = evaluate(&inst, &HybridSssSa::default().map(&inst, 0)).max_apl;
            assert!(
                hybrid <= sss + 1e-9,
                "seed {seed}: hybrid {hybrid} vs SSS {sss}"
            );
        }
    }

    #[test]
    fn hybrid_is_seeded_deterministic() {
        let inst = instance(5);
        let h = HybridSssSa::default();
        assert_eq!(h.map(&inst, 3), h.map(&inst, 3));
    }

    #[test]
    fn cancelled_token_yields_none_quiet_token_matches_map() {
        use noc_telemetry::NoopSink;
        let inst = instance(2);
        let h = HybridSssSa {
            sa_iterations: 2_000,
            ..Default::default()
        };
        let fired = CancelToken::new();
        fired.cancel();
        assert!(h.map_cancellable(&inst, 3, &fired, &mut NoopSink).is_none());
        assert_eq!(
            h.map_cancellable(&inst, 3, &CancelToken::never(), &mut NoopSink),
            Some(h.map(&inst, 3))
        );
    }

    #[test]
    fn valid_with_spare_tiles() {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tl = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let inst = ObmInstance::new(tl, vec![0, 5, 10], vec![1.0; 10], vec![0.1; 10]);
        let h = HybridSssSa {
            sa_iterations: 2_000,
            ..Default::default()
        };
        assert!(h.map(&inst, 0).is_valid_for(&inst));
    }
}
