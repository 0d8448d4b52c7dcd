//! Shortest-augmenting-path Hungarian solver with dual potentials.
//!
//! Classic `O(rows² · cols)` formulation (Jonker–Volgenant / e-maxx): rows
//! are inserted one at a time; for each row a Dijkstra-like search over
//! reduced costs finds the shortest augmenting path, and the dual potentials
//! `u` (rows) / `v` (columns) are updated to keep all reduced costs
//! non-negative. Exact for `f64` inputs up to floating-point accumulation.
//!
//! The search walks *groups* of unvisited columns instead of single
//! columns. Columns whose costs are bitwise equal in every row form a class
//! (the Eq. (13) matrix of a symmetric mesh has few: 136 of 1024 at
//! 32×32), and at each row insertion a class splits into groups of equal
//! `v`. The members of a group have the same cost in every row, and their
//! `v` cannot change while they are unvisited, so the textbook loop would
//! put them all through the same `minv`/`way` arithmetic and its ascending
//! first-minimum scan would pick the lowest of them. A group carries that
//! state once and, when visited, gives up its lowest member. Every value
//! sees the textbook loop's floating-point operations in the same order
//! and ties go to the lowest column index, so the output is bit-identical
//! to the dense loop — the `#[cfg(test)]` oracle below. When no column
//! repeats, every group is a single column.

use crate::matrix::CostMatrix;
use std::borrow::Cow;

/// An optimal assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// `row_to_col[r]` is the column assigned to row `r`.
    pub row_to_col: Vec<usize>,
    /// Total cost of the assignment (sum of selected entries).
    pub cost: f64,
}

/// One step of a column hash: fold in the bits of the next row's cost.
fn mix(h: u64, x: f64) -> u64 {
    (h.rotate_left(5) ^ x.to_bits()).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The columns of a cost matrix sorted into classes of bitwise-equal
/// columns, with one cost column per class.
struct ColumnClasses<'a> {
    /// 1-based column numbers, class by class, ascending within a class:
    /// class `k` holds `cols[start[k]..start[k + 1]]`.
    cols: Vec<usize>,
    start: Vec<usize>,
    /// Row-major `rows × classes` costs: `table[r * classes + k]` is the
    /// cost of row `r` on every column of class `k`. When no column
    /// repeats this is the matrix itself.
    table: Cow<'a, [f64]>,
}

impl<'a> ColumnClasses<'a> {
    /// Classify the columns of `costs`, after asserting that every cost is
    /// finite. Out of line, like [`Groups::regroup`]: inlined into
    /// [`solve`], the setup code costs the search loop measurably.
    #[inline(never)]
    fn new(costs: &'a CostMatrix) -> Self {
        let (n, m) = (costs.rows(), costs.cols());
        if let Some(i) = costs.as_slice().iter().position(|x| !x.is_finite()) {
            panic!("non-finite cost at ({}, {})", i / m, i % m);
        }
        // Columns that differ in the first row are in different classes.
        // When no first-row cost repeats (a random matrix), every column
        // is a class of its own and the matrix itself is the table.
        let mut hash: Vec<u64> = costs.row(0).iter().map(|x| x.to_bits()).collect();
        hash.sort_unstable();
        if hash.windows(2).all(|w| w[0] != w[1]) {
            return ColumnClasses {
                cols: (1..=m).collect(),
                start: (0..=m).collect(),
                table: Cow::Borrowed(costs.as_slice()),
            };
        }
        // Hash each column's bits, row by row so the matrix is read in
        // order. A column joins the first class with its hash; classes
        // are numbered by their first column.
        hash.fill(0);
        for r in 0..n {
            for (h, &x) in hash.iter_mut().zip(costs.row(r)) {
                *h = mix(*h, x);
            }
        }
        let mut first: Vec<(u64, usize)> = Vec::with_capacity(m);
        let mut class_of: Vec<usize> = Vec::with_capacity(m);
        for (c, &h) in hash.iter().enumerate() {
            let k = first.iter().position(|&(fh, _)| fh == h);
            class_of.push(k.unwrap_or_else(|| {
                first.push((h, c));
                first.len() - 1
            }));
        }
        // Confirm every column against its class's first column. One that
        // differs (a hash collision) becomes a class of its own: classes
        // need only hold equal columns, not all of them.
        for r in 0..n {
            let row = costs.row(r);
            for c in 0..m {
                if row[c].to_bits() != row[first[class_of[c]].1].to_bits() {
                    class_of[c] = first.len();
                    first.push((hash[c], c));
                }
            }
        }
        // Counting sort by class, filled from the back so each class's
        // columns are ascending and `start[k]` ends at class `k`'s start.
        let count = first.len();
        let mut start = vec![0usize; count + 1];
        for &k in &class_of {
            start[k] += 1;
        }
        for k in 1..count {
            start[k] += start[k - 1];
        }
        start[count] = m;
        let mut cols = vec![0usize; m];
        for (c, &k) in class_of.iter().enumerate().rev() {
            start[k] -= 1;
            cols[start[k]] = c + 1;
        }
        let mut table = Vec::with_capacity(n * count);
        for r in 0..n {
            let row = costs.row(r);
            table.extend(first.iter().map(|&(_, c)| row[c]));
        }
        ColumnClasses {
            cols,
            start,
            table: Cow::Owned(table),
        }
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }
}

/// Unvisited columns that share a class and a `v`, with the state the
/// textbook loop would keep for each of them: the members' common `minv`,
/// `way` and `v`, the class whose table entry is their cost, and the lowest
/// unvisited member `low`.
#[derive(Debug, Clone, Copy)]
struct Group {
    minv: f64,
    v: f64,
    class: usize,
    way: usize,
    low: usize,
}

/// The groups of one row's search, and the grouping each search starts
/// from.
#[derive(Default)]
struct Groups {
    /// The unvisited groups. A group leaves by swap-remove once its last
    /// member is visited, so they are in no particular order.
    live: Vec<Group>,
    /// The grouping every row's search starts from, kept across rows:
    /// every member unvisited, `minv` infinite and `way` 0.
    first: Vec<Group>,
    /// `links[j] = (g, after)`: 1-based column `j` is in group `g` of
    /// `first`, and `after` is the next member of that group, ascending
    /// (0 if none).
    links: Vec<(usize, usize)>,
    /// `(v bits, column)` pairs of the class being split.
    split: Vec<(u64, usize)>,
}

impl Groups {
    /// Split every class into groups of bitwise-equal `v`.
    #[inline(never)]
    fn regroup(&mut self, classes: &ColumnClasses, v: &[f64]) {
        self.first.clear();
        self.first.reserve(classes.len());
        self.links.resize(v.len(), (0, 0));
        for (k, range) in classes.start.windows(2).enumerate() {
            let cols = &classes.cols[range[0]..range[1]];
            let v0 = v[cols[0]].to_bits();
            if cols.iter().all(|&j| v[j].to_bits() == v0) {
                self.push(k, v, cols.iter().copied());
                continue;
            }
            let mut split = std::mem::take(&mut self.split);
            split.clear();
            split.extend(cols.iter().map(|&j| (v[j].to_bits(), j)));
            split.sort_unstable();
            for run in split.chunk_by(|a, b| a.0 == b.0) {
                self.push(k, v, run.iter().map(|&(_, j)| j));
            }
            self.split = split;
        }
    }

    /// Add a group of `class` with the given ascending, non-empty members.
    fn push(&mut self, class: usize, v: &[f64], mut members: impl Iterator<Item = usize>) {
        let g = self.first.len();
        let mut j = members.next().unwrap_or_default();
        self.first.push(Group {
            minv: f64::INFINITY,
            v: v[j],
            class,
            way: 0,
            low: j,
        });
        loop {
            let after = members.next().unwrap_or_default();
            self.links[j] = (g, after);
            if after == 0 {
                break;
            }
            j = after;
        }
    }

    /// Column `j`'s `v` changed to `v`: record it in `j`'s starting group,
    /// and report whether the group has other members (and so must be
    /// split before the next search).
    fn moved(&mut self, j: usize, v: f64) -> bool {
        let (g, after) = self.links[j];
        let group = &mut self.first[g];
        group.v = v;
        group.low != j || after != 0
    }

    /// Visit group `g`'s lowest member: return its `way` and drop it.
    fn pop(&mut self, g: usize) -> usize {
        let group = &mut self.live[g];
        let way = group.way;
        group.low = self.links[group.low].1;
        if group.low == 0 {
            self.live.swap_remove(g);
        }
        way
    }
}

/// One search step over the unvisited groups: fold the previous step's
/// `owed` delta and row `i0`'s reduced costs (`row` from the class table,
/// `ui0 = u[i0]`) into every group's `minv`/`way`, and return the new
/// `delta` with the column and group that attain it. Out of line, so the
/// hot loop's code does not depend on the code around it in [`solve`].
#[inline(never)]
fn step(groups: &mut [Group], row: &[f64], ui0: f64, owed: f64, j0: usize) -> (f64, usize, usize) {
    let mut delta = f64::INFINITY;
    let mut j1 = 0usize;
    let mut g1 = 0usize;
    for (g, group) in groups.iter_mut().enumerate() {
        let owed_minv = group.minv - owed;
        let cur = row[group.class] - ui0 - group.v;
        // Selects, not branches: whether a group improves is
        // data-dependent and mispredicts.
        let better = cur < owed_minv;
        let mj = if better { cur } else { owed_minv };
        group.way = if better { j0 } else { group.way };
        group.minv = mj;
        // Lowest column index among equal minima: the choice the dense
        // ascending first-minimum scan makes.
        if mj < delta || (mj == delta && group.low < j1) {
            delta = mj;
            j1 = group.low;
            g1 = g;
        }
    }
    (delta, j1, g1)
}

/// Solve the minimum-cost assignment problem for `costs`.
pub(crate) fn solve(costs: &CostMatrix) -> Solution {
    let n = costs.rows();
    let m = costs.cols();
    debug_assert!(n <= m);
    let classes = ColumnClasses::new(costs);
    let k = classes.len();

    // 1-based arrays with a dummy 0 column/row, as in the classic
    // presentation. p[j] = row matched to column j (0 = free).
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; m + 1];
    let mut p = vec![0usize; m + 1];
    let mut way = vec![0usize; m + 1];
    // Per-row search state, allocated once per solve. `visited` lists the
    // visited columns in visit order, column 0 first; `visited_duals` the
    // duals the row's steps update: the `u` of each column's matched row
    // and the column's `v`. They are written back to `u`/`v` once the
    // row's path is found.
    let mut groups = Groups::default();
    let mut visited: Vec<usize> = Vec::with_capacity(m + 1);
    let mut visited_duals: Vec<(f64, f64)> = Vec::with_capacity(m + 1);
    let mut regroup = true;

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        if regroup {
            groups.regroup(&classes, &v);
            regroup = false;
        }
        groups.live.clone_from(&groups.first);
        visited.clear();
        visited_duals.clear();
        // The previous step's delta, still owed by every unvisited `minv`.
        // The dense loop subtracts it right after the step; subtracting it
        // just before the next comparison is the same operation (and
        // `x - 0.0 == x` bitwise, so the first step owes nothing).
        let mut owed = 0.0f64;
        loop {
            let i0 = p[j0];
            let ui0 = u[i0];
            visited.push(j0);
            visited_duals.push((ui0, v[j0]));
            let row = &classes.table[(i0 - 1) * k..i0 * k];
            let (delta, j1, g1) = step(&mut groups.live, row, ui0, owed, j0);
            debug_assert!(delta.is_finite(), "augmenting path search stuck");
            // Adding or subtracting a zero can only turn a `-0.0` dual into
            // `0.0`. Values equal up to the sign of zero give equal results
            // under `+` and `-` and compare equal, so skipping it changes no
            // comparison, no chosen column and no cost.
            if delta != 0.0 {
                for (uj, vj) in &mut visited_duals {
                    *uj += delta;
                    *vj -= delta;
                }
            }
            owed = delta;
            // A visited column's `way` is final: park it for the augment.
            way[j1] = groups.pop(g1);
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Write the duals back. A column whose `v` changed splits its
        // group, unless it is the only member.
        (u[i], v[0]) = visited_duals[0];
        for (&j, &(uj, vj)) in visited.iter().zip(&visited_duals).skip(1) {
            u[p[j]] = uj;
            if v[j].to_bits() != vj.to_bits() {
                regroup |= groups.moved(j, vj);
                v[j] = vj;
            }
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

    /// Few classes, many members: at most 4 distinct cost columns copied
    /// into up to 24 columns in shuffled order, with holes (rows ≤ cols).
    /// Costs are small integers or rank-two reals `a_r·x_k + b_r·y_k`. A
    /// copy flagged in `neg_zero` stores its zeros as `-0.0`: equal in
    /// value to its source, but a different class.
    fn class_heavy() -> impl Strategy<Value = CostMatrix> {
        (1usize..=4, 1usize..=24)
            .prop_flat_map(|(distinct, cols)| {
                (
                    Just((distinct, cols)),
                    1usize..=cols,
                    any::<bool>(),
                    proptest::collection::vec(-3i32..=3, cols * distinct),
                    proptest::collection::vec(-4.0f64..4.0, 2 * (cols + distinct)),
                    proptest::collection::vec(0..distinct, cols),
                    proptest::collection::vec(any::<bool>(), cols),
                )
            })
            .prop_map(
                |((distinct, cols), rows, integer, ints, reals, src, neg_zero)| {
                    let (ab, xy) = reals.split_at(2 * cols);
                    CostMatrix::from_fn(rows, cols, |r, c| {
                        let k = src[c];
                        let x = if integer {
                            f64::from(ints[r * distinct + k])
                        } else {
                            ab[2 * r] * xy[2 * k] + ab[2 * r + 1] * xy[2 * k + 1]
                        };
                        if x == 0.0 && neg_zero[c] {
                            -0.0
                        } else {
                            x
                        }
                    })
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Large groups of identical columns: visiting a group must give
        /// up its lowest member, the column the dense scan picks.
        #[test]
        fn matches_dense_oracle_on_repeated_columns(costs in class_heavy()) {
            assert_same(&costs);
        }

        /// Ties everywhere: the grouped search must pick the same columns
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

    /// Columns that agree in the first row and collide in the hash of
    /// the others, yet differ: the check against the class's first column
    /// must put them in different classes.
    #[test]
    fn hash_collisions_split_classes() {
        // Columns `[0.5, a, b]` and `[0.5, a2, b2]` hash alike when
        // `b2 = b ^ rot(a) ^ rot(a2)`: the last `mix` then sees equal
        // inputs.
        let h0 = mix(0, 0.5);
        let rot = |x: f64| mix(h0, x).rotate_left(5);
        let (a, b) = (1.0f64, 2.0f64);
        let (a2, b2) = (3..)
            .map(|i| {
                let a2 = f64::from(i);
                (a2, f64::from_bits(b.to_bits() ^ rot(a) ^ rot(a2)))
            })
            .find(|&(_, b2)| (1e-3..1e3).contains(&b2.abs()))
            .unwrap();
        let column_hash = |col: [f64; 3]| col.into_iter().fold(0, mix);
        assert_eq!(column_hash([0.5, a, b]), column_hash([0.5, a2, b2]));
        let costs = CostMatrix::from_rows(&[vec![0.5, 0.5, 0.5], vec![a, a2, a], vec![b, b2, b]]);
        let classes = ColumnClasses::new(&costs);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes.cols, [1, 3, 2]);
        assert_same(&costs);
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
