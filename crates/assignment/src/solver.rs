//! Shortest-augmenting-path Hungarian solver with dual potentials.
//!
//! Classic `O(rows² · cols)` formulation (Jonker–Volgenant / e-maxx): rows
//! are inserted one at a time; for each row a Dijkstra-like search over
//! reduced costs finds the shortest augmenting path, and the dual potentials
//! `u` (rows) / `v` (columns) are updated to keep all reduced costs
//! non-negative. Exact for `f64` inputs up to floating-point accumulation.
//!
//! Each search step walks compact lists of the unvisited and the visited
//! columns instead of masking a dense scan, but performs the textbook
//! loop's floating-point operations on every value, in the same order per
//! value, and picks the same column on ties (the lowest index), so the
//! output is bit-identical to the dense loop — the `#[cfg(test)]` oracle
//! below.

use crate::matrix::CostMatrix;

/// An optimal assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// `row_to_col[r]` is the column assigned to row `r`.
    pub row_to_col: Vec<usize>,
    /// Total cost of the assignment (sum of selected entries).
    pub cost: f64,
}

/// Solve the minimum-cost assignment problem for `costs`.
pub(crate) fn solve(costs: &CostMatrix) -> Solution {
    let n = costs.rows();
    let m = costs.cols();
    debug_assert!(n <= m);
    for r in 0..n {
        for c in 0..m {
            assert!(costs.get(r, c).is_finite(), "non-finite cost at ({r}, {c})");
        }
    }

    // 1-based arrays with a dummy 0 column/row, as in the classic
    // presentation. p[j] = row matched to column j (0 = free).
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; m + 1];
    let mut p = vec![0usize; m + 1];
    let mut way = vec![0usize; m + 1];
    // Per-row search state, allocated once per solve. Instead of a dense
    // `used[]` mask the search keeps the unvisited columns compact: slot
    // `s` holds column `free[s]`, its `minv`, its `way` and its `v` (which
    // cannot change while the column is unvisited). A visited column
    // leaves all four by swap-remove, so slots are in no particular order.
    // `visited` lists the visited columns in visit order, column 0 first,
    // next to the duals the row's steps update: `visited_v` the columns'
    // `v`, `visited_u` the `u` of their matched rows. They are written back
    // to `u`/`v` once the row's path is found.
    let mut free: Vec<usize> = Vec::with_capacity(m);
    let mut free_minv: Vec<f64> = Vec::with_capacity(m);
    let mut free_way: Vec<usize> = Vec::with_capacity(m);
    let mut free_v: Vec<f64> = Vec::with_capacity(m);
    let mut visited: Vec<usize> = Vec::with_capacity(m + 1);
    let mut visited_u: Vec<f64> = Vec::with_capacity(m + 1);
    let mut visited_v: Vec<f64> = Vec::with_capacity(m + 1);

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        free.clear();
        free.extend(1..=m);
        free_minv.clear();
        free_minv.resize(m, f64::INFINITY);
        free_way.clear();
        free_way.resize(m, 0);
        free_v.clear();
        free_v.extend_from_slice(&v[1..]);
        visited.clear();
        visited_u.clear();
        visited_v.clear();
        // The previous step's delta, still owed by every unvisited `minv`.
        // The dense loop subtracts it right after the step; subtracting it
        // just before the next comparison is the same operation (and
        // `x - 0.0 == x` bitwise, so the first step owes nothing).
        let mut owed = 0.0f64;
        loop {
            let i0 = p[j0];
            let ui0 = u[i0];
            visited.push(j0);
            visited_u.push(ui0);
            visited_v.push(v[j0]);
            let row = costs.row(i0 - 1);
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            let mut slot1 = 0usize;
            let slots = free
                .iter()
                .zip(free_minv.iter_mut())
                .zip(free_way.iter_mut())
                .zip(&free_v);
            for (slot, (((&j, minv), way_j), &vj)) in slots.enumerate() {
                let owed_minv = *minv - owed;
                let cur = row[j - 1] - ui0 - vj;
                // Selects, not branches: whether a column improves is
                // data-dependent and mispredicts.
                let better = cur < owed_minv;
                let mj = if better { cur } else { owed_minv };
                *way_j = if better { j0 } else { *way_j };
                *minv = mj;
                // Lowest column index among equal minima: the choice the
                // dense ascending first-minimum scan makes.
                if mj < delta || (mj == delta && j < j1) {
                    delta = mj;
                    j1 = j;
                    slot1 = slot;
                }
            }
            debug_assert!(delta.is_finite(), "augmenting path search stuck");
            for uj in &mut visited_u {
                *uj += delta;
            }
            for vj in &mut visited_v {
                *vj -= delta;
            }
            owed = delta;
            // A visited column's `way` is final: park it for the augment.
            way[j1] = free_way.swap_remove(slot1);
            free.swap_remove(slot1);
            free_minv.swap_remove(slot1);
            free_v.swap_remove(slot1);
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        for ((&j, &uj), &vj) in visited.iter().zip(&visited_u).zip(&visited_v) {
            u[p[j]] = uj;
            v[j] = vj;
        }
        // Augment along the found path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut row_to_col = vec![usize::MAX; n];
    for j in 1..=m {
        if p[j] != 0 {
            row_to_col[p[j] - 1] = j - 1;
        }
    }
    debug_assert!(row_to_col.iter().all(|&c| c != usize::MAX));
    let cost = row_to_col
        .iter()
        .enumerate()
        .map(|(r, &c)| costs.get(r, c))
        .sum();
    Solution { row_to_col, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook dense e-maxx loop, kept as the differential oracle for
    /// [`solve`]: a `used[]` mask, a fresh `minv` per row, full ascending
    /// scans and full dual updates.
    fn solve_dense(costs: &CostMatrix) -> Solution {
        let n = costs.rows();
        let m = costs.cols();
        let mut u = vec![0.0f64; n + 1];
        let mut v = vec![0.0f64; m + 1];
        let mut p = vec![0usize; m + 1];
        let mut way = vec![0usize; m + 1];
        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            let mut minv = vec![f64::INFINITY; m + 1];
            let mut used = vec![false; m + 1];
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = f64::INFINITY;
                let mut j1 = 0usize;
                let row = costs.row(i0 - 1);
                for j in 1..=m {
                    if !used[j] {
                        let cur = row[j - 1] - u[i0] - v[j];
                        if cur < minv[j] {
                            minv[j] = cur;
                            way[j] = j0;
                        }
                        if minv[j] < delta {
                            delta = minv[j];
                            j1 = j;
                        }
                    }
                }
                for j in 0..=m {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }
        let mut row_to_col = vec![usize::MAX; n];
        for j in 1..=m {
            if p[j] != 0 {
                row_to_col[p[j] - 1] = j - 1;
            }
        }
        let cost = row_to_col
            .iter()
            .enumerate()
            .map(|(r, &c)| costs.get(r, c))
            .sum();
        Solution { row_to_col, cost }
    }

    fn assert_same(costs: &CostMatrix) {
        let fast = solve(costs);
        let dense = solve_dense(costs);
        assert_eq!(fast.row_to_col, dense.row_to_col, "{costs:?}");
        assert_eq!(fast.cost.to_bits(), dense.cost.to_bits(), "{costs:?}");
    }

    /// A tie-heavy matrix: integer costs from `-3..=3`, column `c` a copy
    /// of column `src[c] ≤ c` (so duplicated columns are common), and the
    /// zeros flagged in `neg_zero` stored as `-0.0`.
    fn tie_heavy() -> impl Strategy<Value = CostMatrix> {
        (1usize..=9, 0usize..=4)
            .prop_flat_map(|(rows, extra)| {
                let cols = rows + extra;
                (
                    Just(rows),
                    Just(cols),
                    proptest::collection::vec(-3i32..=3, rows * cols),
                    proptest::collection::vec(any::<usize>(), cols),
                    proptest::collection::vec(any::<bool>(), rows * cols),
                )
            })
            .prop_map(|(rows, cols, vals, src, neg_zero)| {
                CostMatrix::from_fn(rows, cols, |r, c| {
                    let from = src[c] % (c + 1);
                    let x = f64::from(vals[r * cols + from]);
                    if x == 0.0 && neg_zero[r * cols + c] {
                        -0.0
                    } else {
                        x
                    }
                })
            })
    }

    /// Real-valued costs in `-50..50`, up to 40 rows and 12 spare columns.
    fn real_valued() -> impl Strategy<Value = CostMatrix> {
        (1usize..=40, 0usize..=12)
            .prop_flat_map(|(rows, extra)| {
                let cols = rows + extra;
                (
                    Just(rows),
                    Just(cols),
                    proptest::collection::vec(-50.0f64..50.0, rows * cols),
                )
            })
            .prop_map(|(rows, cols, vals)| {
                CostMatrix::from_fn(rows, cols, |r, c| vals[r * cols + c])
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Ties everywhere: the compact search must pick the same columns
        /// as the dense first-minimum scan, down to the cost's bits.
        #[test]
        fn matches_dense_oracle_on_ties(costs in tie_heavy()) {
            assert_same(&costs);
        }

        /// Larger rectangular instances with real-valued costs, where the
        /// per-row searches run many steps.
        #[test]
        fn matches_dense_oracle_on_reals(costs in real_valued()) {
            assert_same(&costs);
        }
    }

    /// An Eq. (13)-shaped matrix (`c_j·TC(k) + m_j·TM(k)` with few
    /// distinct tile latencies), the structure the mappers hand the
    /// solver: rank two, with long runs of equal reduced costs.
    #[test]
    fn matches_dense_oracle_on_rank_two_costs() {
        let n = 64;
        let tc: Vec<f64> = (0..n)
            .map(|k| 10.0 + ((k % 8) as f64 - 3.5).abs())
            .collect();
        let tm: Vec<f64> = (0..n)
            .map(|k| 20.0 + ((k / 8) as f64 - 3.5).abs())
            .collect();
        let c: Vec<f64> = (0..n).map(|j| 0.25 * (1 + j % 5) as f64).collect();
        let m: Vec<f64> = c.iter().map(|x| x * 0.15).collect();
        let costs = CostMatrix::from_fn(n, n, |j, k| c[j] * tc[k] + m[j] * tm[k]);
        assert_same(&costs);
    }
}
