//! The proposed **sort-select-swap** heuristic (paper §IV.B, Algorithm 2).
//!
//! 1. **Sort** all tiles by their L2-cache APL `TC(k)`.
//! 2. **Select** ("coarse tuning"): for each application, split the
//!    remaining sorted tile list into `ΔN_i` equal sections and take the
//!    middle tile of each — every application receives the same spread of
//!    cheap and expensive cache tiles — then run the Hungarian-based SAM
//!    (Algorithm 1) to place the application's threads on its tiles.
//! 3. **Swap** ("fine tuning"): slide a 4-tile window over the sorted tile
//!    list with step sizes `s = 1 .. N/4`; in each window try all 24
//!    permutations of the window occupants and greedily keep the one with
//!    the smallest max-APL. Finish with one more SAM pass per application.
//!
//! Overall complexity `O(N³)` (sort `O(N log N)`, selection + SAM `O(N³)`,
//! `O(N²)` windows × 24 permutations with `O(1)` incremental evaluation,
//! final SAM `O(N³)`).
//!
//! The window size, step-size schedule, selection rule and final SAM pass
//! are configurable so the ablation benches can quantify each design
//! choice; the defaults are exactly the paper's.

use crate::algorithms::Mapper;
use crate::cancel::CancelToken;
use crate::eval::IncrementalEvaluator;
use crate::problem::{Mapping, ObmInstance};
use crate::sam::solve_sam;
use noc_model::TileId;
use noc_telemetry::{NoopSink, Probe, SolverEvent};

/// Window positions between [`CancelToken`] polls inside a step-size pass
/// (power of two: mask test). Each position tries up to 24 permutations,
/// so 256 positions is a comfortable poll cadence.
const CANCEL_POLL_MASK: usize = 256 - 1;

/// Which tile each section contributes during the select step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionRule {
    /// The paper's rule: the middle tile of each section.
    Middle,
    /// The first (cheapest) tile of each section — biased; for ablation.
    First,
    /// The last (most expensive) tile of each section — biased; ablation.
    Last,
}

/// The sort-select-swap mapper.
#[derive(Debug, Clone, Copy)]
pub struct SortSelectSwap {
    /// Sliding-window size (paper: 4). 1 disables swapping; sizes up to 6
    /// are supported (w! permutations are enumerated).
    pub window: usize,
    /// Largest window step size; `None` = `N / window` (the paper's
    /// schedule `s = 1 .. N/4`).
    pub max_step: Option<usize>,
    /// Run the final per-application SAM pass (paper: yes).
    pub final_sam: bool,
    /// Section selection rule (paper: middle).
    pub selection: SelectionRule,
}

impl Default for SortSelectSwap {
    fn default() -> Self {
        SortSelectSwap {
            window: 4,
            max_step: None,
            final_sam: true,
            selection: SelectionRule::Middle,
        }
    }
}

impl Mapper for SortSelectSwap {
    fn name(&self) -> &'static str {
        "SSS"
    }

    fn map(&self, inst: &ObmInstance, seed: u64) -> Mapping {
        self.map_cancellable(inst, seed, &CancelToken::never(), &mut NoopSink)
            .expect("a never-firing token cannot cancel SSS")
    }

    fn map_cancellable(
        &self,
        inst: &ObmInstance,
        _seed: u64,
        token: &CancelToken,
        probe: &mut dyn Probe,
    ) -> Option<Mapping> {
        assert!(
            (1..=6).contains(&self.window),
            "window size {} out of supported range 1..=6",
            self.window
        );
        // ---- Step 1: sort tiles by TC.
        if token.is_cancelled() {
            return None;
        }
        let sorted = sorted_tiles(inst);

        // ---- Step 2: select + SAM per application (each SAM is O(N³), so
        // poll between applications).
        let mut assignment: Vec<Option<TileId>> = vec![None; inst.num_threads()];
        let mut remaining = sorted.clone();
        for i in 0..inst.num_apps() {
            if token.is_cancelled() {
                return None;
            }
            let threads: Vec<usize> = inst.app_threads(i).collect();
            let picked = select_sections(&remaining, threads.len(), self.selection);
            let tiles: Vec<TileId> = picked.iter().map(|&idx| remaining[idx]).collect();
            let sam = solve_sam(inst, &threads, &tiles);
            for (t, &tile) in threads.iter().zip(&sam.assignment) {
                assignment[*t] = Some(tile);
            }
            remove_indices(&mut remaining, &picked);
        }
        let mapping = Mapping::new(
            assignment
                .into_iter()
                .map(|t| t.expect("all threads assigned"))
                .collect(),
        );

        // ---- Step 3: greedy sliding-window swap.
        let mut ev = IncrementalEvaluator::new(inst, mapping);
        if self.window >= 2 {
            let enabled = probe.is_enabled();
            let n = sorted.len();
            let perms = permutations(self.window);
            let max_step = self.max_step.unwrap_or(n / self.window).max(1);
            let mut window_tiles = vec![TileId(0); self.window];
            let mut scores = Vec::with_capacity(perms.len());
            for s in 1..=max_step {
                let span = (self.window - 1) * s;
                if span >= n {
                    break;
                }
                let pass_start_obj = ev.max_apl();
                for start in 0..(n - span) {
                    if start & CANCEL_POLL_MASK == 0 && token.is_cancelled() {
                        return None;
                    }
                    for (t, wt) in window_tiles.iter_mut().enumerate() {
                        *wt = sorted[start + t * s];
                    }
                    let accepted =
                        best_window_permutation(&mut ev, &window_tiles, &perms, &mut scores);
                    if enabled {
                        if let Some((objective, delta)) = accepted {
                            probe.on_solver_event(&SolverEvent::SwapAccepted {
                                window_start: start,
                                step: s as u64,
                                objective,
                                delta,
                            });
                        }
                    }
                }
                if enabled {
                    ev.emit_delta(probe, ev.max_apl() - pass_start_obj);
                }
            }
        }

        // ---- Final SAM per application on its current tiles.
        if self.final_sam {
            let mut mapping = ev.into_mapping();
            for i in 0..inst.num_apps() {
                if token.is_cancelled() {
                    return None;
                }
                let threads: Vec<usize> = inst.app_threads(i).collect();
                let tiles: Vec<TileId> = threads.iter().map(|&j| mapping.tile_of(j)).collect();
                let sam = solve_sam(inst, &threads, &tiles);
                for (t, &tile) in threads.iter().zip(&sam.assignment) {
                    mapping.set_tile(*t, tile);
                }
            }
            debug_assert!(mapping.is_valid_for(inst));
            Some(mapping)
        } else {
            Some(ev.into_mapping())
        }
    }
}

/// Tiles sorted ascending by `TC(k)`, ties broken by index (deterministic).
fn sorted_tiles(inst: &ObmInstance) -> Vec<TileId> {
    let mut tiles: Vec<TileId> = (0..inst.num_tiles()).map(TileId).collect();
    tiles.sort_by(|&a, &b| {
        inst.tiles()
            .tc(a)
            .partial_cmp(&inst.tiles().tc(b))
            .expect("finite TC")
            .then(a.index().cmp(&b.index()))
    });
    tiles
}

/// Indices (into the remaining list) of the tile chosen from each of
/// `sections` equal-length sections.
fn select_sections(remaining: &[TileId], sections: usize, rule: SelectionRule) -> Vec<usize> {
    let len = remaining.len();
    assert!(sections >= 1 && sections <= len);
    (0..sections)
        .map(|s| {
            let start = s * len / sections;
            let end = (s + 1) * len / sections;
            debug_assert!(start < end);
            match rule {
                SelectionRule::Middle => (start + end - 1) / 2,
                SelectionRule::First => start,
                SelectionRule::Last => end - 1,
            }
        })
        .collect()
}

/// Remove the (ascending) `indices` from `v`.
fn remove_indices(v: &mut Vec<TileId>, indices: &[usize]) {
    debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
    for &idx in indices.iter().rev() {
        v.remove(idx);
    }
}

/// Try every permutation of the window occupants; keep the best (the
/// identity wins ties, so the search never churns). Returns
/// `Some((new objective, objective delta))` when a non-identity
/// permutation was kept, `None` otherwise. `scores` is scratch space,
/// reused across windows.
fn best_window_permutation(
    ev: &mut IncrementalEvaluator<'_>,
    tiles: &[TileId],
    perms: &[Vec<usize>],
    scores: &mut Vec<f64>,
) -> Option<(f64, f64)> {
    let start_val = ev.score_window_permutations(tiles, perms, scores);
    let mut best_val = start_val;
    let mut best_perm = None;
    for (k, &val) in scores.iter().enumerate() {
        if val + 1e-12 < best_val {
            best_val = val;
            best_perm = Some(&perms[k + 1]);
        }
    }
    ev.apply_window_permutation(tiles, best_perm?);
    Some((best_val, best_val - start_val))
}

/// All permutations of `0..w` with the identity first. The paper's window
/// size (4) uses the precomputed table.
fn permutations(w: usize) -> Vec<Vec<usize>> {
    if w == 4 {
        return crate::algorithms::PERMS4
            .iter()
            .map(|p| p.to_vec())
            .collect();
    }
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..w).collect();
    heap_permute(&mut items, w, &mut out);
    out.sort(); // lexicographic ⇒ identity first
    out
}

fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k == 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Global, Mapper, RandomMapper};
    use crate::eval::evaluate;
    use noc_model::{LatencyParams, MemoryControllers, Mesh, TileLatencies};
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn fig5_instance() -> ObmInstance {
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let c: Vec<f64> = (0..4).flat_map(|_| [0.1, 0.2, 0.3, 0.4]).collect();
        ObmInstance::new(tiles, vec![0, 4, 8, 12, 16], c, vec![0.0; 16])
    }

    fn random_8x8_instance(seed: u64) -> ObmInstance {
        let mesh = Mesh::square(8);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
        let mut rng = SmallRng::seed_from_u64(seed);
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

    /// Inverse permutation `q` with `p[q[s]] = s`.
    fn invert(p: &[usize]) -> Vec<usize> {
        let mut q = vec![0; p.len()];
        for (x, &px) in p.iter().enumerate() {
            q[px] = x;
        }
        q
    }

    /// The window search as it was written before the scoring kernel:
    /// apply each permutation, read `max_apl`, revert by the inverse
    /// permutation. The differential oracle for `best_window_permutation`.
    fn best_window_permutation_oracle(
        ev: &mut IncrementalEvaluator<'_>,
        tiles: &[TileId],
        perms: &[Vec<usize>],
    ) -> Option<(f64, f64)> {
        let start_val = ev.max_apl();
        let mut best_val = start_val;
        let mut best_perm: Option<&[usize]> = None;
        for perm in perms.iter().skip(1) {
            ev.apply_window_permutation(tiles, perm);
            let val = ev.max_apl();
            if val + 1e-12 < best_val {
                best_val = val;
                best_perm = Some(perm);
            }
            ev.apply_window_permutation(tiles, &invert(perm));
        }
        let perm = best_perm?;
        ev.apply_window_permutation(tiles, perm);
        Some((best_val, best_val - start_val))
    }

    /// A random instance on an `n×n` mesh with `holes` empty tiles,
    /// `apps` applications of uneven size and (optionally) non-unit
    /// priority weights.
    fn random_holey_instance(
        rng: &mut SmallRng,
        n: usize,
        holes: usize,
        apps: usize,
    ) -> ObmInstance {
        let mesh = Mesh::square(n);
        let mcs = MemoryControllers::corners(&mesh);
        let tiles = TileLatencies::compute(&mesh, &mcs, LatencyParams::paper_table2());
        let threads = n * n - holes;
        let mut cuts: Vec<usize> = (1..threads).collect();
        cuts.shuffle(rng);
        cuts.truncate(apps - 1);
        cuts.sort_unstable();
        let mut bounds = vec![0];
        bounds.extend(cuts);
        bounds.push(threads);
        let c: Vec<f64> = (0..threads).map(|_| rng.gen_range(0.05..6.0)).collect();
        let m: Vec<f64> = c.iter().map(|x| x * rng.gen_range(0.0..0.4)).collect();
        let inst = ObmInstance::new(tiles, bounds, c, m);
        if rng.gen_bool(0.5) {
            let weights = (0..apps).map(|_| rng.gen_range(0.5..3.0)).collect();
            inst.with_app_weights(weights)
        } else {
            inst
        }
    }

    #[test]
    fn window_search_matches_apply_revert_oracle() {
        // Run SSS's full swap schedule twice in lockstep from the same
        // random start, once through the scoring kernel and once through
        // the apply/evaluate/revert oracle: every window must keep the
        // same permutation and leave the same numerator bits and edits.
        let mut rng = SmallRng::seed_from_u64(0x5555);
        let mut kept = 0usize;
        for case in 0..40 {
            let n = rng.gen_range(3..=6);
            let holes = rng.gen_range(0..=n);
            let apps = rng.gen_range(1..=4);
            let inst = random_holey_instance(&mut rng, n, holes, apps);
            let window = 2 + case % 5;
            let start = RandomMapper::draw(&inst, &mut rng);
            let mut fast = IncrementalEvaluator::new(&inst, start.clone());
            let mut slow = IncrementalEvaluator::new(&inst, start);
            let sorted = sorted_tiles(&inst);
            let perms = permutations(window);
            let mut scores = Vec::new();
            let mut tiles = vec![TileId(0); window];
            for s in 1..=(n * n / window).max(1) {
                let span = (window - 1) * s;
                if span >= sorted.len() {
                    break;
                }
                for first in 0..(sorted.len() - span) {
                    for (t, wt) in tiles.iter_mut().enumerate() {
                        *wt = sorted[first + t * s];
                    }
                    let got = best_window_permutation(&mut fast, &tiles, &perms, &mut scores);
                    let want = best_window_permutation_oracle(&mut slow, &tiles, &perms);
                    let bits = |r: Option<(f64, f64)>| r.map(|(v, d)| (v.to_bits(), d.to_bits()));
                    let ctx = format!("case {case} (w={window}, s={s}, start={first})");
                    assert_eq!(bits(got), bits(want), "{ctx}: kept permutation");
                    kept += usize::from(got.is_some());
                    assert_eq!(fast.mapping(), slow.mapping(), "{ctx}: mapping");
                    assert_eq!(fast.edits(), slow.edits(), "{ctx}: edits");
                    assert_eq!(
                        fast.total_latency().to_bits(),
                        slow.total_latency().to_bits(),
                        "{ctx}: total latency"
                    );
                    for i in 0..inst.num_apps() {
                        assert_eq!(
                            fast.app_apl(i).to_bits(),
                            slow.app_apl(i).to_bits(),
                            "{ctx}: app {i} numerator drift"
                        );
                    }
                }
            }
        }
        assert!(
            kept > 100,
            "only {kept} windows improved: the check is vacuous"
        );
    }

    #[test]
    fn sss_finds_fig5_optimum() {
        // The paper's 4×4 example has a known optimum: every app at
        // 10.3375 cycles. SSS should land exactly there.
        let inst = fig5_instance();
        let r = evaluate(&inst, &SortSelectSwap::default().map(&inst, 0));
        assert!(
            (r.max_apl - 10.3375).abs() < 1e-9,
            "SSS max-APL {} != 10.3375",
            r.max_apl
        );
        assert!(r.dev_apl < 1e-9, "dev-APL {}", r.dev_apl);
    }

    #[test]
    fn sss_beats_global_on_max_apl() {
        for seed in 0..3 {
            let inst = random_8x8_instance(seed);
            let sss = evaluate(&inst, &SortSelectSwap::default().map(&inst, 0));
            let glob = evaluate(&inst, &Global.map(&inst, 0));
            assert!(
                sss.max_apl <= glob.max_apl + 1e-9,
                "seed {seed}: SSS {} vs Global {}",
                sss.max_apl,
                glob.max_apl
            );
            assert!(
                sss.dev_apl < glob.dev_apl,
                "seed {seed}: SSS dev {} vs Global dev {}",
                sss.dev_apl,
                glob.dev_apl
            );
        }
    }

    #[test]
    fn sss_g_apl_close_to_global() {
        // Figure 10: SSS pays less than ~6% g-APL over the Global optimum.
        let inst = random_8x8_instance(11);
        let sss = evaluate(&inst, &SortSelectSwap::default().map(&inst, 0));
        let glob = evaluate(&inst, &Global.map(&inst, 0));
        assert!(
            sss.g_apl <= glob.g_apl * 1.06,
            "SSS g-APL {} vs Global {}",
            sss.g_apl,
            glob.g_apl
        );
    }

    #[test]
    fn sss_is_deterministic() {
        let inst = random_8x8_instance(5);
        assert_eq!(
            SortSelectSwap::default().map(&inst, 0),
            SortSelectSwap::default().map(&inst, 42)
        );
    }

    #[test]
    fn swap_step_never_hurts() {
        // With swapping disabled the result must be no better than with it.
        let inst = random_8x8_instance(7);
        let no_swap = SortSelectSwap {
            window: 1,
            ..Default::default()
        };
        let with_swap = SortSelectSwap::default();
        let a = evaluate(&inst, &no_swap.map(&inst, 0)).max_apl;
        let b = evaluate(&inst, &with_swap.map(&inst, 0)).max_apl;
        assert!(b <= a + 1e-9, "swap made things worse: {b} > {a}");
    }

    #[test]
    fn selection_rules_all_yield_valid_mappings() {
        let inst = random_8x8_instance(9);
        for rule in [
            SelectionRule::Middle,
            SelectionRule::First,
            SelectionRule::Last,
        ] {
            let cfg = SortSelectSwap {
                selection: rule,
                ..Default::default()
            };
            assert!(cfg.map(&inst, 0).is_valid_for(&inst));
        }
    }

    #[test]
    fn spare_tiles_supported() {
        // 10 threads on 16 tiles: SSS must leave 6 tiles empty and still
        // produce a valid mapping.
        let mesh = Mesh::square(4);
        let mcs = MemoryControllers::corners(&mesh);
        let tl = TileLatencies::compute(&mesh, &mcs, LatencyParams::fig5_example());
        let inst = ObmInstance::new(tl, vec![0, 5, 10], vec![1.0; 10], vec![0.1; 10]);
        let m = SortSelectSwap::default().map(&inst, 0);
        assert!(m.is_valid_for(&inst));
    }

    #[test]
    fn select_sections_middle_of_16_into_16() {
        let tiles: Vec<TileId> = (0..16).map(TileId).collect();
        let idx = select_sections(&tiles, 16, SelectionRule::Middle);
        assert_eq!(idx, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn select_sections_middle_of_16_into_4() {
        let tiles: Vec<TileId> = (0..16).map(TileId).collect();
        // Sections [0,4) [4,8) [8,12) [12,16); middles 1, 5, 9, 13
        // ((start+end-1)/2 with integer floor).
        let idx = select_sections(&tiles, 4, SelectionRule::Middle);
        assert_eq!(idx, vec![1, 5, 9, 13]);
    }

    #[test]
    fn permutations_counts() {
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(2).len(), 2);
        assert_eq!(permutations(4).len(), 24);
        assert_eq!(permutations(5).len(), 120);
        assert_eq!(permutations(4)[0], vec![0, 1, 2, 3]);
    }

    #[test]
    fn permutations_match_const_table() {
        let dynamic = permutations(4);
        for (a, b) in dynamic.iter().zip(crate::algorithms::PERMS4.iter()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn invert_roundtrip() {
        let p = vec![2usize, 0, 3, 1];
        let q = invert(&p);
        for s in 0..4 {
            assert_eq!(p[q[s]], s);
        }
    }

    #[test]
    fn probed_map_matches_map_and_emits_events() {
        use noc_telemetry::{RingSink, SolverEvent};
        let inst = random_8x8_instance(3);
        let sss = SortSelectSwap::default();
        let plain = sss.map(&inst, 0);
        let mut sink = RingSink::new(1 << 16);
        let probed = sss.map_cancellable(&inst, 0, &CancelToken::never(), &mut sink);
        assert_eq!(Some(plain), probed, "probe perturbed the search");
        assert_eq!(sink.dropped(), 0);
        let mut swaps = 0usize;
        let mut deltas = 0usize;
        for e in sink.solver_events() {
            match e {
                SolverEvent::SwapAccepted { delta, .. } => {
                    swaps += 1;
                    assert!(*delta < 0.0, "accepted swap must improve: {delta}");
                }
                SolverEvent::EvalDelta { edits, .. } => {
                    deltas += 1;
                    assert!(*edits > 0);
                }
                other => panic!("unexpected event from SSS: {other:?}"),
            }
        }
        assert!(swaps > 0, "expected accepted swaps on a random instance");
        assert!(deltas > 0, "expected one eval-delta per step-size pass");
    }

    #[test]
    fn cancelled_token_yields_none_quiet_token_matches_map() {
        let inst = random_8x8_instance(3);
        let sss = SortSelectSwap::default();
        let fired = CancelToken::new();
        fired.cancel();
        assert!(sss
            .map_cancellable(&inst, 0, &fired, &mut NoopSink)
            .is_none());
        assert_eq!(
            sss.map_cancellable(&inst, 0, &CancelToken::never(), &mut NoopSink),
            Some(sss.map(&inst, 0))
        );
    }

    #[test]
    fn window_sizes_2_through_5_work() {
        let inst = fig5_instance();
        for w in 2..=5 {
            let cfg = SortSelectSwap {
                window: w,
                ..Default::default()
            };
            let m = cfg.map(&inst, 0);
            assert!(m.is_valid_for(&inst), "window {w}");
        }
    }
}
