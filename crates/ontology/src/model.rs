//! The ontology data model.
//!
//! Mirrors the structure the paper works with (MeSH / UMLS): *concepts*
//! carry one preferred term and any number of synonym terms, and are
//! organized by an is-a hierarchy that may be a DAG (a concept can have
//! several fathers, as in MeSH's poly-hierarchy).

use boe_textkit::normalize::match_key;
use boe_textkit::Language;
use std::collections::HashMap;
use std::fmt;

/// Dense concept identifier within one [`Ontology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConceptId(pub u32);

impl ConceptId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ConceptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One concept: preferred term, synonyms, hierarchy links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Concept {
    /// This concept's id.
    pub id: ConceptId,
    /// Preferred term (surface form).
    pub preferred: String,
    /// Synonym terms.
    pub synonyms: Vec<String>,
    /// Fathers (is-a targets).
    pub parents: Vec<ConceptId>,
    /// Sons (is-a sources).
    pub children: Vec<ConceptId>,
}

impl Concept {
    /// All terms of this concept (preferred first).
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.preferred.as_str()).chain(self.synonyms.iter().map(String::as_str))
    }
}

/// An immutable ontology. Construct through [`OntologyBuilder`].
#[derive(Debug, Clone)]
pub struct Ontology {
    name: String,
    lang: Language,
    concepts: Vec<Concept>,
    /// Normalized term → concepts using that term.
    term_index: HashMap<String, Vec<ConceptId>>,
}

impl Ontology {
    /// Human-readable name ("MeSH-like (en)" etc.).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Language of the terminology.
    pub fn language(&self) -> Language {
        self.lang
    }

    /// Number of concepts.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// Whether the ontology has no concepts.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// Get a concept.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn concept(&self, id: ConceptId) -> &Concept {
        &self.concepts[id.index()]
    }

    /// Iterate all concepts in id order.
    pub fn concepts(&self) -> &[Concept] {
        &self.concepts
    }

    /// Concepts whose term set contains `term` (normalized matching).
    pub fn concepts_of_term(&self, term: &str) -> &[ConceptId] {
        self.term_index
            .get(&match_key(term))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether `term` is attached to at least one concept.
    pub fn contains_term(&self, term: &str) -> bool {
        !self.concepts_of_term(term).is_empty()
    }

    /// Iterate `(normalized term, concepts)` in sorted term order.
    pub fn terms(&self) -> Vec<(&str, &[ConceptId])> {
        let mut v: Vec<(&str, &[ConceptId])> = self
            .term_index
            .iter()
            .map(|(t, cs)| (t.as_str(), cs.as_slice()))
            .collect();
        v.sort_unstable_by_key(|(t, _)| *t);
        v
    }

    /// Root concepts (no parents).
    pub fn roots(&self) -> Vec<ConceptId> {
        self.concepts
            .iter()
            .filter(|c| c.parents.is_empty())
            .map(|c| c.id)
            .collect()
    }

    /// Leaf concepts (no children).
    pub fn leaves(&self) -> Vec<ConceptId> {
        self.concepts
            .iter()
            .filter(|c| c.children.is_empty())
            .map(|c| c.id)
            .collect()
    }
}

/// Errors from ontology construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An is-a edge references an unknown concept.
    UnknownConcept(ConceptId),
    /// An is-a edge from a concept to itself.
    SelfLink(ConceptId),
    /// The is-a relation contains a cycle through this concept.
    Cycle(ConceptId),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownConcept(c) => write!(f, "unknown concept {c}"),
            BuildError::SelfLink(c) => write!(f, "self is-a link on {c}"),
            BuildError::Cycle(c) => write!(f, "is-a cycle through {c}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Mutable builder for [`Ontology`].
///
/// ```
/// use boe_ontology::OntologyBuilder;
/// use boe_textkit::Language;
///
/// let mut b = OntologyBuilder::new("demo", Language::English);
/// let eye = b.add_concept("eye diseases", vec![]);
/// let cd = b.add_concept("corneal diseases", vec!["keratopathy".into()]);
/// b.add_is_a(cd, eye);
/// let onto = b.build().unwrap();
/// assert_eq!(onto.concepts_of_term("Keratopathy"), &[cd]);
/// assert_eq!(onto.concept(cd).parents, vec![eye]);
/// ```
#[derive(Debug)]
pub struct OntologyBuilder {
    name: String,
    lang: Language,
    concepts: Vec<Concept>,
    links: Vec<(ConceptId, ConceptId)>, // (child, parent)
}

impl OntologyBuilder {
    /// New builder.
    pub fn new(name: impl Into<String>, lang: Language) -> Self {
        OntologyBuilder {
            name: name.into(),
            lang,
            concepts: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Add a concept with its preferred term and synonyms; returns its id.
    pub fn add_concept(
        &mut self,
        preferred: impl Into<String>,
        synonyms: Vec<String>,
    ) -> ConceptId {
        let id = ConceptId(u32::try_from(self.concepts.len()).expect("too many concepts"));
        self.concepts.push(Concept {
            id,
            preferred: preferred.into(),
            synonyms,
            parents: Vec::new(),
            children: Vec::new(),
        });
        id
    }

    /// Declare `child` is-a `parent`.
    pub fn add_is_a(&mut self, child: ConceptId, parent: ConceptId) {
        self.links.push((child, parent));
    }

    /// Number of concepts added so far.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// Whether no concepts were added.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// Validate and build. Checks link sanity and is-a acyclicity.
    pub fn build(mut self) -> Result<Ontology, BuildError> {
        let n = self.concepts.len();
        for &(c, p) in &self.links {
            if c.index() >= n {
                return Err(BuildError::UnknownConcept(c));
            }
            if p.index() >= n {
                return Err(BuildError::UnknownConcept(p));
            }
            if c == p {
                return Err(BuildError::SelfLink(c));
            }
        }
        // Materialize links (deduplicated).
        let mut links = std::mem::take(&mut self.links);
        links.sort_unstable();
        links.dedup();
        for (c, p) in links {
            self.concepts[c.index()].parents.push(p);
            self.concepts[p.index()].children.push(c);
        }
        // Cycle check: Kahn's algorithm over the child→parent DAG.
        let mut indeg: Vec<usize> = self.concepts.iter().map(|c| c.parents.len()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &child in &self.concepts[i].children {
                indeg[child.index()] -= 1;
                if indeg[child.index()] == 0 {
                    queue.push(child.index());
                }
            }
        }
        if seen != n {
            let culprit = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| ConceptId(i as u32))
                .expect("cycle implies a positive indegree node");
            return Err(BuildError::Cycle(culprit));
        }
        // Term index.
        let mut term_index: HashMap<String, Vec<ConceptId>> = HashMap::new();
        for c in &self.concepts {
            for t in c.terms() {
                let key = match_key(t);
                let entry = term_index.entry(key).or_default();
                if !entry.contains(&c.id) {
                    entry.push(c.id);
                }
            }
        }
        for v in term_index.values_mut() {
            v.sort_unstable();
        }
        Ok(Ontology {
            name: self.name,
            lang: self.lang,
            concepts: self.concepts,
            term_index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Ontology {
        let mut b = OntologyBuilder::new("test", Language::English);
        let eye = b.add_concept("eye diseases", vec![]);
        let corneal = b.add_concept(
            "corneal diseases",
            vec!["disorders of the cornea".to_owned()],
        );
        let ulcer = b.add_concept("corneal ulcer", vec!["ulcerative keratitis".to_owned()]);
        b.add_is_a(corneal, eye);
        b.add_is_a(ulcer, corneal);
        b.build().expect("valid")
    }

    #[test]
    fn structure_is_materialized() {
        let o = tiny();
        assert_eq!(o.len(), 3);
        assert_eq!(o.concept(ConceptId(1)).parents, vec![ConceptId(0)]);
        assert_eq!(o.concept(ConceptId(0)).children, vec![ConceptId(1)]);
        assert_eq!(o.roots(), vec![ConceptId(0)]);
        assert_eq!(o.leaves(), vec![ConceptId(2)]);
    }

    #[test]
    fn term_lookup_is_normalized() {
        let o = tiny();
        assert_eq!(o.concepts_of_term("Corneal  Ulcer"), &[ConceptId(2)]);
        assert_eq!(o.concepts_of_term("ULCERATIVE KERATITIS"), &[ConceptId(2)]);
        assert!(o.concepts_of_term("hepatitis").is_empty());
        assert!(o.contains_term("eye diseases"));
    }

    #[test]
    fn term_count_counts_synonyms() {
        let o = tiny();
        let terms = o.terms();
        assert_eq!(terms.len(), 5);
        assert!(terms.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn polysemous_term_maps_to_multiple_concepts() {
        let mut b = OntologyBuilder::new("t", Language::English);
        let a = b.add_concept("cold", vec![]); // common cold
        let c = b.add_concept("cold temperature", vec!["cold".to_owned()]);
        let o = b.build().expect("valid");
        assert_eq!(o.concepts_of_term("cold"), &[a, c]);
    }

    #[test]
    fn cycle_is_rejected() {
        let mut b = OntologyBuilder::new("t", Language::English);
        let x = b.add_concept("x", vec![]);
        let y = b.add_concept("y", vec![]);
        b.add_is_a(x, y);
        b.add_is_a(y, x);
        assert!(matches!(b.build(), Err(BuildError::Cycle(_))));
    }

    #[test]
    fn self_link_is_rejected() {
        let mut b = OntologyBuilder::new("t", Language::English);
        let x = b.add_concept("x", vec![]);
        b.add_is_a(x, x);
        assert_eq!(b.build().unwrap_err(), BuildError::SelfLink(x));
    }

    #[test]
    fn unknown_concept_is_rejected() {
        let mut b = OntologyBuilder::new("t", Language::English);
        let x = b.add_concept("x", vec![]);
        b.add_is_a(x, ConceptId(99));
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::UnknownConcept(ConceptId(99))
        );
    }

    #[test]
    fn duplicate_links_are_deduplicated() {
        let mut b = OntologyBuilder::new("t", Language::English);
        let x = b.add_concept("x", vec![]);
        let y = b.add_concept("y", vec![]);
        b.add_is_a(x, y);
        b.add_is_a(x, y);
        let o = b.build().expect("valid");
        assert_eq!(o.concept(x).parents.len(), 1);
        assert_eq!(o.concept(y).children.len(), 1);
    }

    #[test]
    fn poly_hierarchy_is_allowed() {
        let mut b = OntologyBuilder::new("t", Language::English);
        let p1 = b.add_concept("corneal diseases", vec![]);
        let p2 = b.add_concept("eye injuries", vec![]);
        let c = b.add_concept("corneal injuries", vec![]);
        b.add_is_a(c, p1);
        b.add_is_a(c, p2);
        let o = b.build().expect("valid");
        assert_eq!(o.concept(c).parents, vec![p1, p2]);
    }
}
