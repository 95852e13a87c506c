//! Internal clustering-quality indexes.
//!
//! Implements the paper's **Table 2** — the five new internal indexes for
//! predicting the number of clusters — plus two classical baselines for
//! the ablation benches. Notation follows the paper: a clustering with k
//! clusters has per-cluster `ISIM_i`, `ESIM_i` and sizes `|S_i|`.
//!
//! | index | definition | optimum |
//! |-------|-----------|---------|
//! | `a_k` | `(Σ ISIM_i)/k` | max |
//! | `b_k` | `(Σ ESIM_i)/k` | min |
//! | `c_k` | `(1/k) Σ \|S_i\|·(ISIM_i − ESIM_i)` | max |
//! | `e_k` | `(Σ \|S_i\|·ISIM_i) / (Σ \|S_i\|·ESIM_i)` | max |
//! | `f_k` | `a_k / log10(k)` | max |
//!
//! (Table 2 prints `ESIM_k`/`ISIM_k` inside the c/e sums; we read those as
//! the per-cluster values `ESIM_i`/`ISIM_i`, the only interpretation under
//! which the sums are well-typed.)

use crate::isim::ClusterStats;
use crate::similarity::UnitVectors;
use crate::solution::ClusterSolution;
use boe_corpus::SparseVector;

/// An internal index for scoring a clustering solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InternalIndex {
    /// Average of ISIM (`a_k`, maximize).
    Ak,
    /// Average of ESIM (`b_k`, minimize).
    Bk,
    /// Size-weighted average ISIM−ESIM gap (`c_k`, maximize).
    Ck,
    /// Ratio of size-weighted ISIM to size-weighted ESIM (`e_k`, maximize).
    Ek,
    /// `a_k` divided by `log10(k)` (`f_k`, maximize) — the index the paper
    /// reports as the best performer (93.1% accuracy).
    Fk,
    /// Silhouette coefficient with cosine distance (baseline, maximize).
    Silhouette,
    /// Calinski–Harabasz pseudo-F (baseline, maximize).
    CalinskiHarabasz,
}

impl InternalIndex {
    /// The paper's five indexes, in Table-2 order.
    pub const PAPER: [InternalIndex; 5] = [
        InternalIndex::Ak,
        InternalIndex::Bk,
        InternalIndex::Ck,
        InternalIndex::Ek,
        InternalIndex::Fk,
    ];

    /// All indexes including baselines.
    pub const ALL: [InternalIndex; 7] = [
        InternalIndex::Ak,
        InternalIndex::Bk,
        InternalIndex::Ck,
        InternalIndex::Ek,
        InternalIndex::Fk,
        InternalIndex::Silhouette,
        InternalIndex::CalinskiHarabasz,
    ];

    /// Display name matching the paper's notation.
    pub fn name(self) -> &'static str {
        match self {
            InternalIndex::Ak => "max(ak)",
            InternalIndex::Bk => "min(bk)",
            InternalIndex::Ck => "max(ck)",
            InternalIndex::Ek => "max(ek)",
            InternalIndex::Fk => "max(fk)",
            InternalIndex::Silhouette => "silhouette",
            InternalIndex::CalinskiHarabasz => "calinski-harabasz",
        }
    }

    /// Whether the best k *maximizes* the score (only `b_k` minimizes).
    pub fn maximize(self) -> bool {
        !matches!(self, InternalIndex::Bk)
    }

    /// Score `solution` over the `unit` set it clusters.
    ///
    /// Total over degenerate input: `f_k` at `k = 1` (where `log10(k)`
    /// vanishes) reports the worst possible score, and any NaN arising
    /// from degenerate similarities is mapped to the worst score for the
    /// index's direction, so argmax/argmin sweeps stay well-defined.
    pub fn score(self, solution: &ClusterSolution, unit: &UnitVectors) -> f64 {
        let s = self.raw_score(solution, unit);
        if s.is_nan() {
            if self.maximize() {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        } else {
            s
        }
    }

    fn raw_score(self, solution: &ClusterSolution, unit: &UnitVectors) -> f64 {
        let k = solution.k() as f64;
        match self {
            InternalIndex::Ak => {
                let st = ClusterStats::compute(solution, unit.vectors());
                st.isim.iter().sum::<f64>() / k
            }
            InternalIndex::Bk => {
                let st = ClusterStats::compute(solution, unit.vectors());
                st.esim.iter().sum::<f64>() / k
            }
            InternalIndex::Ck => {
                let st = ClusterStats::compute(solution, unit.vectors());
                st.isim
                    .iter()
                    .zip(&st.esim)
                    .zip(&st.sizes)
                    .map(|((i, e), &s)| s as f64 * (i - e))
                    .sum::<f64>()
                    / k
            }
            InternalIndex::Ek => {
                let st = ClusterStats::compute(solution, unit.vectors());
                let num: f64 = st
                    .isim
                    .iter()
                    .zip(&st.sizes)
                    .map(|(i, &s)| s as f64 * i)
                    .sum();
                let den: f64 = st
                    .esim
                    .iter()
                    .zip(&st.sizes)
                    .map(|(e, &s)| s as f64 * e)
                    .sum();
                if den.abs() < 1e-12 {
                    // Perfectly separated solution: report a large finite
                    // score so argmax comparisons stay total.
                    num * 1e12
                } else {
                    num / den
                }
            }
            InternalIndex::Fk => {
                if solution.k() < 2 {
                    // f_k = a_k / log10(k) is undefined at k = 1; report
                    // the worst score so any valid k beats it in a sweep.
                    return f64::NEG_INFINITY;
                }
                let ak = InternalIndex::Ak.score(solution, unit);
                ak / k.log10()
            }
            InternalIndex::Silhouette => silhouette(solution, unit),
            InternalIndex::CalinskiHarabasz => calinski_harabasz(solution, unit.vectors()),
        }
    }
}

impl std::fmt::Display for InternalIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Mean silhouette coefficient with cosine distance `1 − cos`.
/// Singleton clusters contribute 0 (standard convention).
///
/// Per-object contributions are independent given the pairwise
/// similarities, so they are computed in parallel over the set's shared
/// [`crate::similarity::SimMatrix`] and summed serially in index order —
/// the result is bit-identical at any thread count.
fn silhouette(solution: &ClusterSolution, unit: &UnitVectors) -> f64 {
    let n = unit.len();
    if n == 0 || solution.k() < 2 {
        return 0.0;
    }
    let sizes = solution.sizes();
    let sim = unit.similarities();
    let contributions: Vec<f64> = boe_par::par_map_indexed_min(n, 64, |i| {
        let own = solution.assignment(i);
        if sizes[own] < 2 {
            return 0.0; // silhouette of a singleton is 0
        }
        // Mean distance to own cluster (excluding self) and to the nearest
        // other cluster.
        let mut sums = vec![0.0; solution.k()];
        for j in 0..n {
            if i == j {
                continue;
            }
            sums[solution.assignment(j)] += 1.0 - sim.get(i, j);
        }
        let a = sums[own] / (sizes[own] - 1) as f64;
        let b = (0..solution.k())
            .filter(|&c| c != own && sizes[c] > 0)
            .map(|c| sums[c] / sizes[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if b.is_finite() {
            (b - a) / a.max(b).max(1e-12)
        } else {
            0.0
        }
    });
    contributions.into_iter().sum::<f64>() / n as f64
}

/// Calinski–Harabasz pseudo-F over unit vectors, computed from composite
/// identities: `WSS_i = n_i − ||D_i||²/n_i`, `BSS = Σ ||D_i||²/n_i −
/// ||D||²/N`.
fn calinski_harabasz(solution: &ClusterSolution, unit: &[SparseVector]) -> f64 {
    let n = unit.len() as f64;
    let k = solution.k() as f64;
    if solution.k() < 2 || unit.len() <= solution.k() {
        return 0.0;
    }
    let comps = solution.composites(unit);
    let sizes = solution.sizes();
    let total = SparseVector::sum_of(&comps);
    let mut wss = 0.0;
    let mut sum_sq_over_n = 0.0;
    for (d, &sz) in comps.iter().zip(&sizes) {
        let ni = sz as f64;
        let sq = d.dot(d);
        wss += ni - sq / ni;
        sum_sq_over_n += sq / ni;
    }
    let bss = sum_sq_over_n - total.dot(&total) / n;
    if wss.abs() < 1e-12 {
        return bss * 1e12;
    }
    (bss / (k - 1.0)) / (wss / (n - k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().copied())
    }

    /// Two clean blobs (4 + 4), plus helpers to build partitions.
    fn two_blobs() -> UnitVectors {
        let mut vs = Vec::new();
        for c in 0..2u32 {
            for i in 0..4u32 {
                vs.push(raw(&[(c * 100, 10.0), (c * 100 + 1 + i, 1.0)]));
            }
        }
        UnitVectors::new(&vs)
    }

    fn good_partition() -> ClusterSolution {
        ClusterSolution::new(vec![0, 0, 0, 0, 1, 1, 1, 1], 2)
    }

    fn bad_partition() -> ClusterSolution {
        ClusterSolution::new(vec![0, 1, 0, 1, 0, 1, 0, 1], 2)
    }

    #[test]
    fn ak_prefers_good_partition() {
        let vs = two_blobs();
        assert!(
            InternalIndex::Ak.score(&good_partition(), &vs)
                > InternalIndex::Ak.score(&bad_partition(), &vs)
        );
    }

    #[test]
    fn bk_is_lower_for_good_partition() {
        let vs = two_blobs();
        assert!(
            InternalIndex::Bk.score(&good_partition(), &vs)
                < InternalIndex::Bk.score(&bad_partition(), &vs)
        );
        assert!(!InternalIndex::Bk.maximize());
    }

    #[test]
    fn ck_ek_fk_prefer_good_partition() {
        let vs = two_blobs();
        for idx in [InternalIndex::Ck, InternalIndex::Ek, InternalIndex::Fk] {
            assert!(
                idx.score(&good_partition(), &vs) > idx.score(&bad_partition(), &vs),
                "{idx}"
            );
        }
    }

    #[test]
    fn fk_is_ak_over_log10k() {
        let vs = two_blobs();
        let sol = good_partition();
        let ak = InternalIndex::Ak.score(&sol, &vs);
        let fk = InternalIndex::Fk.score(&sol, &vs);
        assert!((fk - ak / 2.0f64.log10()).abs() < 1e-12);
    }

    #[test]
    fn fk_is_worst_possible_for_k1() {
        let vs = two_blobs();
        let sol = ClusterSolution::new(vec![0; 8], 1);
        // Undefined in the paper (log10(1) = 0); must lose every sweep
        // against a valid k instead of panicking.
        assert_eq!(InternalIndex::Fk.score(&sol, &vs), f64::NEG_INFINITY);
    }

    #[test]
    fn scores_are_never_nan_on_zero_vectors() {
        // All-zero context vectors drive every similarity to 0/0 territory;
        // scores must stay comparable (non-NaN) for argmax sweeps.
        let vs = UnitVectors::new(&vec![SparseVector::new(); 4]);
        let sol = ClusterSolution::new(vec![0, 0, 1, 1], 2);
        for index in InternalIndex::ALL {
            let s = index.score(&sol, &vs);
            assert!(!s.is_nan(), "{index}: NaN leaked");
        }
    }

    #[test]
    fn silhouette_in_range_and_prefers_good() {
        let vs = two_blobs();
        let g = InternalIndex::Silhouette.score(&good_partition(), &vs);
        let b = InternalIndex::Silhouette.score(&bad_partition(), &vs);
        assert!((-1.0..=1.0).contains(&g));
        assert!(g > b);
        assert!(g > 0.5, "clean blobs should have high silhouette: {g}");
    }

    /// The textbook mean silhouette with cosine distance, from the
    /// test's own dot products (each pair taken as the matrix's upper
    /// triangle holds it: lower index first).
    fn silhouette_oracle(sol: &ClusterSolution, vs: &[SparseVector]) -> f64 {
        let n = vs.len();
        let dist = |i: usize, j: usize| 1.0 - vs[i.min(j)].dot(&vs[i.max(j)]);
        let mean_to = |i: usize, c: usize| {
            let (mut sum, mut count) = (0.0, 0usize);
            for j in (0..n).filter(|&j| j != i && sol.assignment(j) == c) {
                sum += dist(i, j);
                count += 1;
            }
            sum / count as f64
        };
        let total: f64 = (0..n)
            .map(|i| {
                let own = sol.assignment(i);
                if sol.sizes()[own] < 2 {
                    return 0.0;
                }
                let a = mean_to(i, own);
                let b = (0..sol.k())
                    .filter(|&c| c != own)
                    .map(|c| mean_to(i, c))
                    .fold(f64::INFINITY, f64::min);
                (b - a) / a.max(b)
            })
            .sum();
        total / n as f64
    }

    #[test]
    fn silhouette_equals_its_oracle_bit_for_bit() {
        let contexts: Vec<SparseVector> = (0..11u32)
            .map(|i| {
                raw(&[
                    (i % 3, 2.0 + f64::from(i) * 0.3),
                    (5 + i % 4, 1.0),
                    (9, 0.2),
                ])
            })
            .collect();
        let unit = UnitVectors::new(&contexts);
        let partitions = [
            ClusterSolution::new((0..11).map(|i| i % 3).collect(), 3),
            ClusterSolution::new((0..11).map(|i| usize::from(i >= 5)).collect(), 2),
            // A singleton cluster contributes 0.
            ClusterSolution::new(
                (0..11)
                    .map(|i| usize::from(i == 4) + 2 * usize::from(i > 7))
                    .collect(),
                3,
            ),
        ];
        for sol in &partitions {
            let got = InternalIndex::Silhouette.score(sol, &unit);
            let want = silhouette_oracle(sol, unit.vectors());
            assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
        }
    }

    #[test]
    fn calinski_harabasz_prefers_good() {
        let vs = two_blobs();
        let g = InternalIndex::CalinskiHarabasz.score(&good_partition(), &vs);
        let b = InternalIndex::CalinskiHarabasz.score(&bad_partition(), &vs);
        assert!(g > b);
        assert!(g > 0.0);
    }

    #[test]
    fn ek_handles_perfect_separation() {
        // Orthogonal blobs ⇒ ESIM sums to 0 ⇒ huge but finite score.
        let vs = UnitVectors::new(&[
            raw(&[(0, 1.0)]),
            raw(&[(0, 1.0)]),
            raw(&[(5, 1.0)]),
            raw(&[(5, 1.0)]),
        ]);
        let sol = ClusterSolution::new(vec![0, 0, 1, 1], 2);
        let s = InternalIndex::Ek.score(&sol, &vs);
        assert!(s.is_finite());
        assert!(s > 1e6);
    }

    #[test]
    fn names_match_paper_notation() {
        assert_eq!(InternalIndex::Fk.name(), "max(fk)");
        assert_eq!(InternalIndex::Bk.name(), "min(bk)");
        assert_eq!(InternalIndex::PAPER.len(), 5);
        assert_eq!(InternalIndex::ALL.len(), 7);
    }
}
