//! Integration: the paper's evaluation *shapes* hold at test scale
//! (EXPERIMENTS.md records the full-scale numbers).

use bio_onto_enrich::cluster::InternalIndex;
use bio_onto_enrich::eval::world::{World, WorldConfig};
use bio_onto_enrich::eval::{
    exp_linkage_precision, exp_polysemy, exp_sense_number, exp_table1, exp_term_measures,
};
use bio_onto_enrich::workflow::termex::TermMeasure;

#[test]
fn table1_counts_match_calibration_exactly() {
    let (umls, mesh) = exp_table1::run(100);
    assert_eq!(umls.rows[0], [542, 77, 18, 16]);
    assert_eq!(mesh.rows[0], [178, 1, 0, 0]);
    // Shape: decay in k, EN ≫ ES ≫ FR for UMLS.
    assert!(umls.rows[0][0] > umls.rows[2][0]);
    assert!(umls.rows[2][0] > umls.rows[1][0]);
}

#[test]
fn sense_number_best_index_beats_majority_baseline() {
    let cfg = exp_sense_number::SenseNumberConfig::quick();
    let res = exp_sense_number::run(&cfg, &exp_sense_number::SenseNumberData::generate(&cfg));
    let best = res.best();
    assert!(
        best.accuracy > res.majority_baseline,
        "best {} <= baseline {}",
        best.accuracy,
        res.majority_baseline
    );
    assert!(best.accuracy > 0.85, "best accuracy {}", best.accuracy);
    // The literal Table-2 f_k tracks the majority baseline (it almost
    // always picks k = 2) — the reproduction finding EXPERIMENTS.md
    // discusses.
    let fk = res.best_for_index(InternalIndex::Fk);
    assert!(
        (fk - res.majority_baseline).abs() < 0.15,
        "fk {} vs baseline {}",
        fk,
        res.majority_baseline
    );
}

#[test]
fn polysemy_f_measure_is_high() {
    let cfg = exp_polysemy::PolysemyExpConfig::quick();
    let results = exp_polysemy::run(&cfg);
    let best = exp_polysemy::best_f1(&results);
    assert!(best > 0.85, "best F1 {best} (paper: 0.98)");
}

#[test]
fn linkage_precision_shape_holds() {
    let w = World::generate(&WorldConfig {
        n_concepts: 100,
        n_holdout: 12,
        abstracts_per_concept: 5,
        seed: 4,
        ..Default::default()
    });
    let r = exp_linkage_precision::run(&w, 200, true);
    // Monotone in N with a meaningful top-10 — the paper's shape
    // (0.333 → 0.583).
    assert!(r.at[0] <= r.at[1] && r.at[1] <= r.at[2] && r.at[2] <= r.at[3]);
    assert!(r.at[3] >= 0.5, "top-10 precision {}", r.at[3]);
    assert!(r.at[0] > 0.0, "top-1 precision should be nonzero");
}

#[test]
fn term_measure_precision_has_one_row_per_measure() {
    let w = World::generate(&WorldConfig {
        n_concepts: 60,
        n_holdout: 6,
        abstracts_per_concept: 4,
        seed: 4,
        ..Default::default()
    });
    let rows = exp_term_measures::run(&w, 50);
    let measures: Vec<TermMeasure> = rows.iter().map(|r| r.measure).collect();
    assert_eq!(measures, TermMeasure::ALL);
    for r in &rows {
        assert!(
            (0.0..=1.0).contains(&r.precision),
            "{}: P@50 {}",
            r.measure.name(),
            r.precision
        );
    }
    // Some measure recovers gold terms at all, so the scoring is live.
    assert!(rows.iter().any(|r| r.precision > 0.0));
}
