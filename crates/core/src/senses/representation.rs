//! Context representations for sense induction.
//!
//! The paper represents the corpus "of two different manners: (i)
//! bag-of-words representation, and (ii) graph representation". Both map
//! each occurrence context of a term to a sparse vector:
//!
//! * **Bag-of-words** — dimensions are the (stemmed) context words;
//! * **Graph** — dimensions are the *co-occurrence edges* among the
//!   context's words: occurrence contexts vote for the word *pairs* they
//!   activate in the induced graph, which sharpens sense separation when
//!   single words are shared between senses but their combinations are
//!   not.

use boe_corpus::context::{ContextOptions, ContextScope};
use boe_corpus::occurrence::OccurrenceIndex;
use boe_corpus::{Corpus, SparseVector};
use boe_textkit::TokenId;

/// The two context representations of §2(III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Representation {
    /// Bag of (stemmed) context words.
    BagOfWords,
    /// Bag of context word *pairs* (edges of the induced graph).
    Graph,
}

impl Representation {
    /// Both representations in the paper's order.
    pub const ALL: [Representation; 2] = [Representation::BagOfWords, Representation::Graph];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Representation::BagOfWords => "bag-of-words",
            Representation::Graph => "graph",
        }
    }
}

impl std::fmt::Display for Representation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Stable dimension id for an unordered word pair (graph representation).
/// Uses an order-independent 32-bit mix of the two stem dimensions.
fn pair_dim(a: u32, b: u32) -> u32 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    // Szudzik-style pairing folded into 32 bits; collisions are rare and
    // harmless (they only merge two unrelated dimensions).
    let h = u64::from(hi) * 0x9E37_79B9 + u64::from(lo) * 0x85EB_CA6B;
    (h ^ (h >> 31)) as u32
}

/// The bag-of-words context of sense induction at `scope`: unwindowed
/// and stem-conflated.
pub(crate) fn bag_of_words_options(scope: ContextScope) -> ContextOptions {
    ContextOptions {
        window: None,
        stemmed: true,
        scope,
    }
}

/// Build one context vector per occurrence of `phrase` under the chosen
/// representation. Context = the occurrence's sentence minus the phrase,
/// stopwords and non-lexical tokens, stem-conflated. Use
/// [`ContextScope::Document`] when each document is one citation-style
/// context (the MSH-WSD setting). Contexts come from `occ`, shared with
/// the other pipeline stages, out of its stemmed context cache, which
/// the linker shares.
pub fn build_representation(
    corpus: &Corpus,
    occ: &OccurrenceIndex,
    phrase: &[TokenId],
    repr: Representation,
    scope: ContextScope,
) -> Vec<SparseVector> {
    let bows = occ.contexts(corpus, phrase, bag_of_words_options(scope));
    match repr {
        Representation::BagOfWords => bows,
        Representation::Graph => bows.iter().map(graph_vector).collect(),
    }
}

/// The graph representation of one bag-of-words context: one dimension
/// per pair of its words.
fn graph_vector(bow: &SparseVector) -> SparseVector {
    let dims: Vec<u32> = bow.iter().map(|(d, _)| d).collect();
    let mut pairs = Vec::new();
    for i in 0..dims.len() {
        for j in (i + 1)..dims.len() {
            pairs.push((pair_dim(dims[i], dims[j]), 1.0));
        }
    }
    SparseVector::from_pairs(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use boe_corpus::context::context_vector;
    use boe_corpus::corpus::CorpusBuilder;
    use boe_textkit::Language;

    const SCOPES: [ContextScope; 2] = [ContextScope::Sentence, ContextScope::Document];

    fn corpus(texts: &[&str]) -> Corpus {
        let mut b = CorpusBuilder::new(Language::English);
        for t in texts {
            b.add_text(t);
        }
        b.build()
    }

    /// `build_representation` through a fresh index, one call per
    /// representation and scope.
    fn build(
        c: &Corpus,
        phrase: &str,
        repr: Representation,
        scope: ContextScope,
    ) -> Vec<SparseVector> {
        let ids = c.phrase_ids(phrase).expect("known");
        build_representation(c, &OccurrenceIndex::build(c), &ids, repr, scope)
    }

    #[test]
    fn bow_vectors_one_per_occurrence() {
        let c = corpus(&["target alpha beta.", "target gamma delta."]);
        for scope in SCOPES {
            let vs = build(&c, "target", Representation::BagOfWords, scope);
            assert_eq!(vs.len(), 2);
            assert!(vs.iter().all(|v| v.nnz() == 2));
            assert_eq!(vs[0].cosine(&vs[1]), 0.0, "disjoint contexts");
        }
    }

    #[test]
    fn graph_vectors_encode_pairs() {
        let c = corpus(&["target alpha beta gamma."]);
        for scope in SCOPES {
            let vs = build(&c, "target", Representation::Graph, scope);
            // 3 context words → C(3,2) = 3 pair dimensions.
            assert_eq!(vs[0].nnz(), 3);
        }
    }

    #[test]
    fn graph_repr_separates_shared_word_senses() {
        // Both senses share "common", but pair combinations differ:
        // bow contexts overlap, graph contexts overlap less.
        let c = corpus(&[
            "target common alpha.",
            "target common beta.",
            "target common alpha.",
        ]);
        for scope in SCOPES {
            let bow = build(&c, "target", Representation::BagOfWords, scope);
            let graph = build(&c, "target", Representation::Graph, scope);
            // occurrences 0 and 1: bow share "common" → cos = 0.5; graph
            // pair dims (common,alpha) vs (common,beta) are disjoint →
            // cos = 0.
            assert!(bow[0].cosine(&bow[1]) > 0.4);
            assert_eq!(graph[0].cosine(&graph[1]), 0.0);
            // identical contexts stay identical in both.
            assert!((bow[0].cosine(&bow[2]) - 1.0).abs() < 1e-9);
            assert!((graph[0].cosine(&graph[2]) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn representations_match_per_occurrence_contexts() {
        // Several occurrences per document and sentence, so document
        // scope differs from sentence scope and the cached document
        // bases lose different tokens per occurrence.
        let c = corpus(&[
            "target graft heals. grafted target tissue scars target.",
            "the target membrane. amniotic membranes cover a target.",
            "no mention here.",
        ]);
        let phrase = c.phrase_ids("target").expect("known");
        let ox = OccurrenceIndex::build(&c);
        let occs = ox.find_occurrences(&c, &phrase);
        for scope in SCOPES {
            let opts = ContextOptions {
                window: None,
                stemmed: true,
                scope,
            };
            let want: Vec<SparseVector> = occs
                .iter()
                .map(|&o| context_vector(&c, o, phrase.len(), opts))
                .collect();
            for repr in Representation::ALL {
                let want: Vec<SparseVector> = match repr {
                    Representation::BagOfWords => want.clone(),
                    Representation::Graph => want.iter().map(graph_vector).collect(),
                };
                let got = build_representation(&c, &ox, &phrase, repr, scope);
                assert_eq!(got, want, "{repr} at {scope:?}");
            }
        }
    }

    #[test]
    fn pair_dim_is_symmetric() {
        assert_eq!(pair_dim(3, 9), pair_dim(9, 3));
        assert_ne!(pair_dim(3, 9), pair_dim(3, 10));
    }

    #[test]
    fn stemming_conflates_context_variants() {
        let c = corpus(&["target graft tissue.", "target grafts tissue."]);
        for scope in SCOPES {
            let vs = build(&c, "target", Representation::BagOfWords, scope);
            assert!((vs[0].cosine(&vs[1]) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn names() {
        assert_eq!(Representation::BagOfWords.to_string(), "bag-of-words");
        assert_eq!(Representation::Graph.to_string(), "graph");
        assert_eq!(Representation::ALL.len(), 2);
    }
}
