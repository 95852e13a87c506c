//! LIDF-value (Linguistic patterns + IDF + C-value), the flagship BIOTEX
//! measure of the IRJ-2016 companion paper:
//!
//! `LIDF-value(t) = P(pattern(t)) × IDF(t) × C-value(t)`
//!
//! where `P(pattern(t))` is the prior probability of the term's linguistic
//! pattern among reference-ontology terms (from
//! [`boe_textkit::pattern::PatternSet`]) and IDF uses exact phrase
//! document frequency.

use crate::termex::candidates::CandidateTerm;
use crate::termex::measures::c_value;
use boe_corpus::OccurrenceIndex;
use boe_textkit::pattern::PatternSet;

/// LIDF-value of one candidate.
pub fn lidf_value(index: &OccurrenceIndex, patterns: &PatternSet, term: &CandidateTerm) -> f64 {
    let p_pattern = patterns.weight(term.pattern);
    let df = index.phrase_matches(&term.tokens).len() as f64;
    let n = index.doc_count() as f64;
    let idf = ((n + 1.0) / (df + 1.0)).ln() + 1.0;
    p_pattern * idf * c_value(term)
}

/// LIDF-values for a whole candidate set (index-aligned). Each score is
/// an independent read-only computation, so the loop runs on `boe_par`
/// (bit-identical to the serial map at any thread count).
pub fn lidf_values(
    index: &OccurrenceIndex,
    patterns: &PatternSet,
    set: &crate::termex::candidates::CandidateSet,
) -> Vec<f64> {
    boe_par::par_map_min(&set.terms, 64, |t| lidf_value(index, patterns, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::termex::candidates::{extract_candidates, CandidateOptions, CandidateSet};
    use boe_corpus::corpus::CorpusBuilder;
    use boe_textkit::Language;

    fn setup(texts: &[&str]) -> (OccurrenceIndex, CandidateSet, PatternSet) {
        let mut b = CorpusBuilder::new(Language::English);
        for t in texts {
            b.add_text(t);
        }
        let c = b.build();
        let ix = OccurrenceIndex::build(&c);
        let set = extract_candidates(&c, CandidateOptions::default());
        (ix, set, PatternSet::for_language(Language::English))
    }

    #[test]
    fn lidf_is_positive_and_combines_factors() {
        let (ix, set, ps) = setup(&[
            "corneal injuries heal. corneal injuries persist.",
            "corneal injuries worsen.",
        ]);
        let t = set.get_surface("corneal injuries").expect("kept");
        let v = lidf_value(&ix, &ps, t);
        assert!(v > 0.0);
        // Manual recomputation of each factor.
        let df = ix.phrase_matches(&t.tokens).len() as f64;
        let n = ix.doc_count() as f64;
        let idf = ((n + 1.0) / (df + 1.0)).ln() + 1.0;
        let manual = ps.weight(t.pattern) * idf * c_value(t);
        assert!((v - manual).abs() < 1e-12);
    }

    #[test]
    fn common_pattern_beats_rare_pattern_at_equal_stats() {
        let (ix, set, ps) = setup(&[
            "corneal injuries heal. injuries cornea overlap.",
            "corneal injuries persist. injuries cornea mix.",
        ]);
        // "corneal injuries" matches A N (high prior); "injuries cornea"
        // matches N N (lower prior); both freq 2, len 2.
        let an = set.get_surface("corneal injuries").expect("kept");
        let nn = set.get_surface("injuries cornea").expect("kept");
        assert!(ps.weight(an.pattern) > ps.weight(nn.pattern));
        assert!(lidf_value(&ix, &ps, an) > lidf_value(&ix, &ps, nn));
    }
}
