//! The ontology-term inventory of a corpus: which ontology terms occur in
//! the text, where, and with what aggregate context.

use boe_corpus::context::{ContextOptions, ContextScope};
use boe_corpus::occurrence::OccurrenceIndex;
use boe_corpus::{Corpus, SparseVector};
use boe_ontology::{ConceptId, Ontology};
use boe_textkit::normalize::match_key;
use boe_textkit::TokenId;
use std::collections::HashMap;

/// One ontology term that occurs in the corpus.
#[derive(Debug, Clone)]
pub struct LinkedTerm {
    /// Surface form as written in the ontology/corpus (accents intact).
    pub surface: String,
    /// Normalized identity key ([`match_key`]).
    pub key: String,
    /// Token-id sequence in the corpus.
    pub tokens: Vec<TokenId>,
    /// Concepts carrying this term.
    pub concepts: Vec<ConceptId>,
    /// Number of corpus occurrences.
    pub freq: u32,
    /// Aggregate (stemmed) context vector.
    pub context: SparseVector,
}

/// Inventory of every ontology term present in the corpus.
#[derive(Debug)]
pub struct OntologyTermInventory {
    terms: Vec<LinkedTerm>,
    /// The sentence-keyed neighbourhood: one `(doc, sentence, term
    /// index)` triple per sentence a term occurs in, sorted, so the
    /// terms of one sentence form a contiguous run in ascending index
    /// order.
    sentence_terms: Vec<(u32, u32, u32)>,
    /// Per ontology concept (by [`ConceptId::index`]): the inventory
    /// indices of its terms, in [`boe_ontology::Concept::terms`] order,
    /// skipping terms absent from the corpus — what [`Self::index_of`]
    /// returns for each term, resolved once.
    concept_terms: Vec<Vec<usize>>,
    /// Normalized key → term index.
    by_key: HashMap<String, usize>,
    /// Inverted index over context dimensions, one CSR array: the
    /// `(term index, value)` postings of dimension `d` are
    /// `postings[posting_start[d]..posting_start[d + 1]]`, term indices
    /// ascending. `posting_start` has one entry per dimension up to the
    /// largest one any term context holds, plus one; context dimensions
    /// are corpus stem (or token) ids, so it is bounded by the corpus's
    /// vocabulary. Lets Step IV score a query context against many term
    /// contexts by walking only the query's dimensions instead of
    /// merge-joining every pair.
    posting_start: Vec<usize>,
    /// Every dimension's postings, concatenated in dimension order.
    postings: Vec<(u32, f64)>,
}

impl OntologyTermInventory {
    /// Harvest the aggregate context, at `scope`, of every term
    /// [`terms_in_corpus`] finds for `onto` and `extras`. `extras` are
    /// corpus terms (typically Step-I candidates) that are *not* in the
    /// ontology but may still be proposed as positions, as in the
    /// paper's Table 3 ("re-epithelialization", "wound"); they carry no
    /// concepts. Occurrences and contexts are resolved through `occ`
    /// (through its context cache, at either scope), batched over all
    /// terms in one fan-out.
    pub fn build(
        corpus: &Corpus,
        onto: &Ontology,
        extras: &[String],
        scope: ContextScope,
        occ: &OccurrenceIndex,
    ) -> Self {
        let opts = context_options(scope);
        let mut terms = Vec::new();
        let mut sentence_terms = Vec::new();
        let mut by_key: HashMap<String, usize> = HashMap::new();
        // One batched harvest: the index fans the per-phrase lookups out
        // across threads and returns results in key order, making the
        // assembly below — and therefore term indices and posting lists
        // — identical to the serial build at any thread count. The first
        // lookup builds the index's context cache unless an earlier
        // stage did: that build fans out over document chunks itself, so
        // the workers that wait on it wait on a parallel build.
        let found = terms_in_corpus(corpus, onto, extras, occ);
        let harvested = boe_par::par_map(&found, |t| {
            occ.occurrences_and_context(corpus, &t.tokens, opts)
        });
        for (t, (occs, context)) in found.into_iter().zip(harvested) {
            let i = terms.len() as u32;
            sentence_terms.extend(occs.iter().map(|o| (o.doc.0, o.sentence as u32, i)));
            let concepts = onto.concepts_of_term(&t.key).to_vec();
            by_key.insert(t.key.clone(), terms.len());
            terms.push(LinkedTerm {
                surface: t.surface,
                key: t.key,
                tokens: t.tokens,
                concepts,
                freq: occs.len() as u32,
                context,
            });
        }
        sentence_terms.sort_unstable();
        sentence_terms.dedup();
        let concept_terms = onto
            .concepts()
            .iter()
            .map(|c| {
                c.terms()
                    .filter_map(|t| by_key.get(&match_key(t)).copied())
                    .collect()
            })
            .collect();
        let dim_space = terms
            .iter()
            .filter_map(|t| t.context.entries().last())
            .map(|&(d, _)| d as usize + 1)
            .max()
            .unwrap_or(0);
        // Count per dimension, prefix-sum, then scatter in term order.
        let mut posting_start = vec![0usize; dim_space + 1];
        for t in &terms {
            for (dim, _) in t.context.iter() {
                posting_start[dim as usize + 1] += 1;
            }
        }
        for d in 0..dim_space {
            posting_start[d + 1] += posting_start[d];
        }
        let mut next = posting_start.clone();
        let mut postings = vec![(0u32, 0.0f64); posting_start[dim_space]];
        for (i, t) in terms.iter().enumerate() {
            for (dim, v) in t.context.iter() {
                postings[next[dim as usize]] = (i as u32, v);
                next[dim as usize] += 1;
            }
        }
        OntologyTermInventory {
            terms,
            sentence_terms,
            concept_terms,
            by_key,
            posting_start,
            postings,
        }
    }

    /// Cosine of `query` against the context of each term in `targets`
    /// (same order), computed through the inverted index: for every
    /// query dimension, its posting list is walked and `query_value ×
    /// term_value` is accumulated into the slot of any listed target.
    ///
    /// Query dimensions are visited in ascending order, so each target's
    /// products accumulate in exactly the order of
    /// [`SparseVector::dot`]'s merge join — with the same
    /// norm-denominator and clamp, the result is bit-identical to
    /// `query.cosine(&term.context)`, only without touching the
    /// dimensions of untargeted terms.
    pub fn cosines_against(&self, query: &SparseVector, targets: &[usize]) -> Vec<f64> {
        const NO_SLOT: u32 = u32::MAX;
        let mut slot = vec![NO_SLOT; self.terms.len()];
        for (s, &t) in targets.iter().enumerate() {
            slot[t] = s as u32;
        }
        let mut dots = vec![0.0f64; targets.len()];
        for (dim, qv) in query.iter() {
            let Some(&[lo, hi]) = self.posting_start.get(dim as usize..dim as usize + 2) else {
                continue;
            };
            for &(ti, tv) in &self.postings[lo..hi] {
                let s = slot[ti as usize];
                if s != NO_SLOT {
                    dots[s as usize] += qv * tv;
                }
            }
        }
        targets
            .iter()
            .zip(dots)
            .map(|(&t, dot)| {
                let denom = query.norm() * self.terms[t].context.norm();
                if denom == 0.0 {
                    0.0
                } else {
                    (dot / denom).clamp(-1.0, 1.0)
                }
            })
            .collect()
    }

    /// All linked terms.
    pub fn terms(&self) -> &[LinkedTerm] {
        &self.terms
    }

    /// Number of linked terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether no ontology term occurs in the corpus.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Look up a linked term by surface (normalized internally).
    pub fn get(&self, surface: &str) -> Option<&LinkedTerm> {
        self.index_of(surface).map(|i| &self.terms[i])
    }

    /// Index of a linked term by surface (normalized internally).
    pub fn index_of(&self, surface: &str) -> Option<usize> {
        self.by_key.get(&match_key(surface)).copied()
    }

    /// Indices of terms sharing at least one sentence with any of the
    /// given `(doc, sentence)` pairs — the *co-occurrence neighbourhood*
    /// — ascending and unique. Each pair costs one binary search into
    /// the sentence-keyed runs, so the cost follows the sentences given,
    /// not the inventory size.
    pub fn cooccurring(&self, sentences: &[(u32, u32)]) -> Vec<usize> {
        let mut hits = Vec::new();
        for &(doc, sentence) in sentences {
            let from = self
                .sentence_terms
                .partition_point(|&(d, s, _)| (d, s) < (doc, sentence));
            hits.extend(
                self.sentence_terms[from..]
                    .iter()
                    .take_while(|&&(d, s, _)| (d, s) == (doc, sentence))
                    .map(|&(_, _, t)| t as usize),
            );
        }
        hits.sort_unstable();
        hits.dedup();
        hits
    }

    /// Inventory indices of the corpus-linked terms of `concept`, in the
    /// concept's term order (as [`Self::index_of`] resolves each term).
    pub(crate) fn concept_terms(&self, concept: ConceptId) -> &[usize] {
        &self.concept_terms[concept.index()]
    }
}

/// An ontology term found in the corpus by [`terms_in_corpus`].
#[derive(Debug, Clone)]
pub struct CorpusTerm {
    /// Normalized identity key ([`match_key`]).
    pub key: String,
    /// The chosen raw surface (accents intact).
    pub surface: String,
    /// That surface's token ids.
    pub tokens: Vec<TokenId>,
}

/// The one rule for finding ontology terms in the corpus, shared by
/// Step II's training examples and Step IV's inventory: every match key
/// of `onto` and `extras` that occurs in `corpus`, in key order, with
/// the first of its raw surfaces whose phrase occurs — concept order,
/// preferred term first, then `extras` — and that surface's token ids.
/// The lookup uses raw surfaces because the corpus tokens keep their
/// accents: the accent-folded key would miss every accented French or
/// Spanish term.
pub fn terms_in_corpus(
    corpus: &Corpus,
    onto: &Ontology,
    extras: &[String],
    occ: &OccurrenceIndex,
) -> Vec<CorpusTerm> {
    let mut surfaces: Vec<(String, &str)> = onto
        .concepts()
        .iter()
        .flat_map(|c| c.terms())
        .chain(extras.iter().map(String::as_str))
        .map(|raw| (match_key(raw), raw))
        .collect();
    // Stable, so each key's surfaces keep the order above.
    surfaces.sort_by(|a, b| a.0.cmp(&b.0));
    surfaces
        .chunk_by(|a, b| a.0 == b.0)
        .filter_map(|same_key| {
            same_key.iter().find_map(|(key, raw)| {
                let tokens = corpus.phrase_ids(raw).filter(|t| occ.contains(corpus, t))?;
                Some(CorpusTerm {
                    key: key.clone(),
                    surface: (*raw).to_owned(),
                    tokens,
                })
            })
        })
        .collect()
}

/// The context options every Step IV harvest uses: stemmed, no window,
/// at `scope`.
pub(crate) fn context_options(scope: ContextScope) -> ContextOptions {
    ContextOptions {
        window: None,
        stemmed: true,
        scope,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boe_corpus::corpus::CorpusBuilder;
    use boe_ontology::OntologyBuilder;
    use boe_textkit::Language;

    /// The sentence-scope inventory of every ontology term, no extras.
    fn inventory(c: &Corpus, o: &Ontology) -> OntologyTermInventory {
        OntologyTermInventory::build(
            c,
            o,
            &[],
            ContextScope::Sentence,
            &OccurrenceIndex::build(c),
        )
    }

    fn world() -> (Corpus, Ontology) {
        let mut ob = OntologyBuilder::new("t", Language::English);
        let eye = ob.add_concept("eye diseases", vec![]);
        let cd = ob.add_concept("corneal diseases", vec!["keratopathy".to_owned()]);
        ob.add_is_a(cd, eye);
        ob.add_concept("absent term", vec![]);
        let onto = ob.build().expect("valid");
        let mut cb = CorpusBuilder::new(Language::English);
        cb.add_text("corneal diseases damage vision. eye diseases worsen.");
        cb.add_text("keratopathy affects the cornea.");
        (cb.build(), onto)
    }

    #[test]
    fn finds_occurring_terms_only() {
        let (c, o) = world();
        let inv = inventory(&c, &o);
        assert!(inv.get("corneal diseases").is_some());
        assert!(inv.get("keratopathy").is_some());
        assert!(inv.get("eye diseases").is_some());
        assert!(inv.get("absent term").is_none());
        assert_eq!(inv.len(), 3);
        assert!(!inv.is_empty());
    }

    #[test]
    fn linked_terms_carry_concepts_and_contexts() {
        let (c, o) = world();
        let inv = inventory(&c, &o);
        let t = inv.get("keratopathy").expect("linked");
        assert_eq!(t.concepts, o.concepts_of_term("keratopathy").to_vec());
        assert_eq!(t.freq, 1);
        assert!(!t.context.is_empty());
    }

    #[test]
    fn cooccurrence_neighbourhood() {
        let (c, o) = world();
        let inv = inventory(&c, &o);
        // Sentence (0, 0) contains "corneal diseases" only; (0, 1)
        // contains "eye diseases".
        let nb = inv.cooccurring(&[(0, 0)]);
        let surfaces: Vec<&str> = nb
            .iter()
            .map(|&i| inv.terms()[i].surface.as_str())
            .collect();
        assert_eq!(surfaces, vec!["corneal diseases"]);
        assert!(inv.cooccurring(&[(9, 9)]).is_empty());
    }

    #[test]
    fn inverted_index_cosines_are_bit_identical() {
        let (c, o) = world();
        let inv = inventory(&c, &o);
        // Query with a context that overlaps some terms but not others.
        let query = inv.get("corneal diseases").expect("linked").context.clone();
        let all: Vec<usize> = (0..inv.len()).collect();
        let fast = inv.cosines_against(&query, &all);
        for (&i, f) in all.iter().zip(&fast) {
            let naive = query.cosine(&inv.terms()[i].context);
            assert_eq!(f.to_bits(), naive.to_bits(), "term {i}");
        }
        // A masked subset only scores the listed targets, in order.
        let subset = vec![2usize, 0];
        let masked = inv.cosines_against(&query, &subset);
        assert_eq!(masked[0].to_bits(), fast[2].to_bits());
        assert_eq!(masked[1].to_bits(), fast[0].to_bits());
        // Empty query → all zeros (cosine's zero-vector guard).
        let zeros = inv.cosines_against(&SparseVector::new(), &all);
        assert!(zeros.iter().all(|&z| z == 0.0));
    }

    /// Brute-force neighbourhood: every term whose own occurrences touch
    /// one of `sentences`, found by resolving each term afresh.
    fn brute_force_cooccurring(
        c: &Corpus,
        inv: &OntologyTermInventory,
        sentences: &[(u32, u32)],
    ) -> Vec<usize> {
        let occ = OccurrenceIndex::build(c);
        (0..inv.len())
            .filter(|&i| {
                occ.find_occurrences(c, &inv.terms()[i].tokens)
                    .iter()
                    .any(|o| sentences.contains(&(o.doc.0, o.sentence as u32)))
            })
            .collect()
    }

    #[test]
    fn cooccurring_matches_a_brute_force_scan() {
        let mut ob = OntologyBuilder::new("t", Language::English);
        let eye = ob.add_concept("eye diseases", vec![]);
        let cd = ob.add_concept("corneal diseases", vec!["keratopathy".to_owned()]);
        ob.add_is_a(cd, eye);
        ob.add_concept("cornea", vec![]);
        let o = ob.build().expect("valid");
        let mut cb = CorpusBuilder::new(Language::English);
        cb.add_text("keratopathy and corneal diseases are eye diseases. the cornea heals.");
        cb.add_text("the cornea scars. vision fades.");
        cb.add_text("eye diseases worsen. keratopathy persists.");
        let c = cb.build();
        let inv = inventory(&c, &o);
        assert_eq!(inv.len(), 4);
        // (0, 0) holds three terms.
        assert_eq!(inv.cooccurring(&[(0, 0)]).len(), 3);
        let queries: [&[(u32, u32)]; 7] = [
            &[],
            &[(0, 0)],
            &[(2, 1), (0, 1), (2, 1), (0, 0), (0, 1)],
            &[(1, 1), (7, 0), (0, 9)],
            &[(1, 0), (1, 0), (1, 0)],
            &[(9, 9), (3, 0)],
            &[(2, 0), (2, 1), (1, 0), (0, 1), (0, 0)],
        ];
        for q in queries {
            let got = inv.cooccurring(q);
            assert!(got.windows(2).all(|w| w[0] < w[1]), "{q:?}: {got:?}");
            assert_eq!(got, brute_force_cooccurring(&c, &inv, q), "{q:?}");
        }
        assert!(inv.cooccurring(&[(1, 1), (9, 9)]).is_empty());
    }

    #[test]
    fn concept_terms_agree_with_index_of_on_accented_surfaces() {
        let cases = [
            (
                Language::French,
                vec![
                    ("maladies de l'œil", vec![]),
                    ("kératite", vec!["inflammation cornéenne"]),
                    ("ulcère cornéen", vec!["kératite ulcéreuse", "absente"]),
                ],
                "la kératite touche l'œil. un ulcère cornéen suit la kératite ulcéreuse. \
                 l'inflammation cornéenne guérit.",
            ),
            (
                Language::Spanish,
                vec![
                    ("enfermedades oculares", vec![]),
                    ("queratitis", vec!["inflamación corneal"]),
                    ("úlcera corneal", vec!["úlcera de córnea", "ausente"]),
                ],
                "la queratitis daña la visión. una úlcera corneal sigue. \
                 la úlcera de córnea y la inflamación corneal curan.",
            ),
        ];
        for (lang, concepts, text) in cases {
            let mut ob = OntologyBuilder::new("t", lang);
            let ids: Vec<ConceptId> = concepts
                .iter()
                .map(|(p, syn)| ob.add_concept(*p, syn.iter().map(|s| s.to_string()).collect()))
                .collect();
            ob.add_is_a(ids[1], ids[0]);
            ob.add_is_a(ids[2], ids[1]);
            let o = ob.build().expect("valid");
            let mut cb = CorpusBuilder::new(lang);
            cb.add_text(text);
            let c = cb.build();
            let inv = inventory(&c, &o);
            let mut linked = 0;
            for concept in o.concepts() {
                let want: Vec<usize> = concept.terms().filter_map(|t| inv.index_of(t)).collect();
                assert_eq!(
                    inv.concept_terms(concept.id),
                    want,
                    "{lang:?} {}",
                    concept.preferred
                );
                linked += want.len();
            }
            assert_eq!(linked, 4, "{lang:?}: accented surfaces must link");
        }
    }

    #[test]
    fn presence_is_deduplicated() {
        let mut ob = OntologyBuilder::new("t", Language::English);
        ob.add_concept("cornea", vec![]);
        let o = ob.build().expect("valid");
        let mut cb = CorpusBuilder::new(Language::English);
        cb.add_text("cornea meets cornea in one sentence.");
        let c = cb.build();
        let inv = inventory(&c, &o);
        let t = inv.get("cornea").expect("linked");
        assert_eq!(t.freq, 2);
        assert_eq!(inv.sentence_terms, vec![(0, 0, 0)], "one sentence");
        assert_eq!(inv.cooccurring(&[(0, 0)]), vec![0]);
    }
}
