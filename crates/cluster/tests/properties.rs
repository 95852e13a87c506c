//! Property tests for the clustering substrate.
//!
//! Driven by the workspace's own deterministic PRNG (no external
//! dependencies); each test sweeps seeded random vector collections.

use boe_cluster::external::{adjusted_rand, nmi, purity};
use boe_cluster::isim::ClusterStats;
use boe_cluster::kpredict::KSweep;
use boe_cluster::{Algorithm, ClusterSolution, InternalIndex, UnitVectors};
use boe_corpus::SparseVector;
use boe_rng::StdRng;

const CASES: usize = 50;

/// Random sparse vectors, as the unit set the clustering methods take.
fn rand_vectors(rng: &mut StdRng) -> UnitVectors {
    let n = rng.gen_range(3usize..20);
    let raw: Vec<SparseVector> = (0..n)
        .map(|_| {
            let nnz = rng.gen_range(1usize..6);
            let pairs: Vec<(u32, f64)> = (0..nnz)
                .map(|_| (rng.gen_range(0u32..24), 0.1 + rng.gen::<f64>() * 2.9))
                .collect();
            SparseVector::from_pairs(pairs)
        })
        .collect();
    UnitVectors::new(&raw)
}

#[test]
fn every_algorithm_yields_a_valid_partition() {
    let mut rng = StdRng::seed_from_u64(40);
    for _ in 0..CASES {
        let vs = rand_vectors(&mut rng);
        let k = rng.gen_range(1usize..5).min(vs.len());
        let seed = rng.gen_range(0u64..20);
        for alg in Algorithm::ALL {
            let sol = alg.cluster(&vs, k, seed);
            assert_eq!(sol.k(), k, "{alg}");
            assert_eq!(sol.len(), vs.len());
            assert!(sol.sizes().iter().all(|&s| s > 0), "{alg}");
        }
    }
}

#[test]
fn isim_esim_are_bounded() {
    let mut rng = StdRng::seed_from_u64(41);
    for _ in 0..CASES {
        let vs = rand_vectors(&mut rng);
        let k = rng.gen_range(1usize..4).min(vs.len());
        let seed = rng.gen_range(0u64..10);
        let sol = Algorithm::Direct.cluster(&vs, k, seed);
        let st = ClusterStats::compute(&sol, vs.vectors());
        for (&i, &e) in st.isim.iter().zip(&st.esim) {
            assert!((-1.0..=1.0).contains(&i), "ISIM {i}");
            assert!((-1.0..=1.0).contains(&e), "ESIM {e}");
        }
        assert_eq!(st.k(), k);
    }
}

#[test]
fn internal_indexes_are_finite() {
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..CASES {
        let vs = rand_vectors(&mut rng);
        if vs.len() < 2 {
            continue;
        }
        let seed = rng.gen_range(0u64..10);
        let sol = Algorithm::Rbr.cluster(&vs, 2, seed);
        for index in InternalIndex::ALL {
            let s = index.score(&sol, &vs);
            assert!(s.is_finite(), "{index}: {s}");
        }
    }
}

#[test]
fn predict_k_respects_the_range() {
    let mut rng = StdRng::seed_from_u64(43);
    for _ in 0..CASES {
        let vs = rand_vectors(&mut rng);
        let seed = rng.gen_range(0u64..10);
        if let Some(sweep) = KSweep::run(&vs, Algorithm::Direct, (2, 5), seed) {
            let pred = sweep.predict(InternalIndex::Fk);
            assert!((2..=5).contains(&pred.k));
            assert!(pred.k <= vs.len());
            assert!(!pred.scores.is_empty());
        } else {
            assert!(vs.len() < 2);
        }
    }
}

#[test]
fn external_indexes_bounds_and_identity() {
    let mut rng = StdRng::seed_from_u64(44);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..24);
        let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0usize..4)).collect();
        // Build a solution identical to gold (relabelled densely).
        let mut map = std::collections::HashMap::new();
        let mut next = 0usize;
        let dense: Vec<usize> = labels
            .iter()
            .map(|&l| {
                *map.entry(l).or_insert_with(|| {
                    let v = next;
                    next += 1;
                    v
                })
            })
            .collect();
        let k = next.max(1);
        let sol = ClusterSolution::new(dense.clone(), k);
        assert!((purity(&sol, &dense) - 1.0).abs() < 1e-12);
        assert!((adjusted_rand(&sol, &dense) - 1.0).abs() < 1e-12 || k == 1 || dense.len() < 2);
        let nmi_v = nmi(&sol, &dense);
        assert!((0.0..=1.0).contains(&nmi_v));
    }
}

#[test]
fn composites_match_the_add_assign_fold() {
    // Raw (not unit) vectors whose per-dimension sums depend on the
    // order they are added in: magnitudes that absorb small addends,
    // exact cancellations, and empty members.
    let value = |rng: &mut StdRng| match rng.gen_range(0u32..5) {
        0 => 1.0e16,
        1 => -1.0e16,
        2 => 1.0,
        3 => -1.0,
        _ => (rng.gen::<f64>() - 0.5) * 4.0,
    };
    let mut rng = StdRng::seed_from_u64(45);
    for case in 0..CASES * 4 {
        let k = 1 + case % 5;
        let n = k + rng.gen_range(0usize..12);
        let vs: Vec<SparseVector> = (0..n)
            .map(|_| {
                let nnz = rng.gen_range(0usize..5);
                SparseVector::from_pairs(
                    (0..nnz)
                        .map(|_| (rng.gen_range(0u32..8), value(&mut rng)))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        // Every label appears (the first k objects hold 0..k), the rest
        // are random.
        let labels: Vec<usize> = (0..n)
            .map(|i| if i < k { i } else { rng.gen_range(0..k) })
            .collect();
        let sol = ClusterSolution::new(labels.clone(), k);
        let got = sol.composites(&vs);
        assert_eq!(got.len(), k);
        for (c, comp) in got.iter().enumerate() {
            let mut fold = SparseVector::new();
            for (v, _) in vs.iter().zip(&labels).filter(|&(_, &l)| l == c) {
                fold.add_assign(v);
            }
            assert_eq!(comp.entries().len(), fold.entries().len(), "case {case}");
            for (a, b) in comp.iter().zip(fold.iter()) {
                assert_eq!(a.0, b.0, "case {case}, cluster {c}: dimension");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "case {case}, cluster {c}");
            }
            assert_eq!(comp.norm().to_bits(), fold.norm().to_bits(), "case {case}");
        }
    }
}
