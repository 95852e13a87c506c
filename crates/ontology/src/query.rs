//! Hierarchy navigation and term neighbourhoods.
//!
//! Step IV evaluates a candidate term against "its MeSH neighbours, and
//! the fathers/sons of those neighbours" — the queries below provide
//! exactly that vocabulary of moves.

use crate::model::{ConceptId, Ontology};
use std::collections::{HashSet, VecDeque};

/// Fathers (direct parents) of a concept.
pub fn fathers(onto: &Ontology, c: ConceptId) -> &[ConceptId] {
    &onto.concept(c).parents
}

/// Sons (direct children) of a concept.
pub fn sons(onto: &Ontology, c: ConceptId) -> &[ConceptId] {
    &onto.concept(c).children
}

/// Siblings: other children of this concept's fathers, deduplicated,
/// sorted.
pub fn siblings(onto: &Ontology, c: ConceptId) -> Vec<ConceptId> {
    let mut out: HashSet<ConceptId> = HashSet::new();
    for &p in fathers(onto, c) {
        for &s in sons(onto, p) {
            if s != c {
                out.insert(s);
            }
        }
    }
    let mut v: Vec<ConceptId> = out.into_iter().collect();
    v.sort_unstable();
    v
}

/// All ancestors (transitive fathers), sorted.
pub fn ancestors(onto: &Ontology, c: ConceptId) -> Vec<ConceptId> {
    let mut seen = HashSet::new();
    let mut queue: VecDeque<ConceptId> = fathers(onto, c).iter().copied().collect();
    while let Some(p) = queue.pop_front() {
        if seen.insert(p) {
            queue.extend(fathers(onto, p).iter().copied());
        }
    }
    let mut v: Vec<ConceptId> = seen.into_iter().collect();
    v.sort_unstable();
    v
}

/// All descendants (transitive sons), sorted.
pub fn descendants(onto: &Ontology, c: ConceptId) -> Vec<ConceptId> {
    let mut seen = HashSet::new();
    let mut queue: VecDeque<ConceptId> = sons(onto, c).iter().copied().collect();
    while let Some(s) = queue.pop_front() {
        if seen.insert(s) {
            queue.extend(sons(onto, s).iter().copied());
        }
    }
    let mut v: Vec<ConceptId> = seen.into_iter().collect();
    v.sort_unstable();
    v
}

/// Concepts within hierarchical distance `radius` of `c` (both directions),
/// excluding `c`, sorted.
pub fn neighbourhood(onto: &Ontology, c: ConceptId, radius: usize) -> Vec<ConceptId> {
    let mut dist: std::collections::HashMap<ConceptId, usize> = std::collections::HashMap::new();
    let mut queue = VecDeque::new();
    dist.insert(c, 0);
    queue.push_back(c);
    while let Some(v) = queue.pop_front() {
        let d = dist[&v];
        if d == radius {
            continue;
        }
        for &n in fathers(onto, v).iter().chain(sons(onto, v)) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(n) {
                e.insert(d + 1);
                queue.push_back(n);
            }
        }
    }
    let mut out: Vec<ConceptId> = dist.into_keys().filter(|&x| x != c).collect();
    out.sort_unstable();
    out
}

/// The paradigmatic relatives of a concept — its synonyms live on the
/// concept itself; hierarchically these are fathers ∪ sons. The paper's
/// Table-4 correctness criterion is "the proposed position is a synonym,
/// father or son of the gold concept".
fn paradigmatic_relatives(onto: &Ontology, c: ConceptId) -> Vec<ConceptId> {
    let mut v: Vec<ConceptId> = fathers(onto, c)
        .iter()
        .chain(sons(onto, c))
        .copied()
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The set of term strings that count as *correct positions* for a gold
/// concept: all its own terms (synonyms) plus every term of its fathers
/// and sons. Returned normalized via the ontology's match keys (lowercase).
pub fn gold_position_terms(onto: &Ontology, c: ConceptId) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut push_terms = |id: ConceptId| {
        for t in onto.concept(id).terms() {
            out.push(boe_textkit::normalize::match_key(t));
        }
    };
    push_terms(c);
    for &r in &paradigmatic_relatives(onto, c) {
        push_terms(r);
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OntologyBuilder;
    use boe_textkit::Language;

    /// eye
    /// ├── corneal diseases
    /// │   ├── corneal ulcer
    /// │   └── corneal injuries   (also under eye injuries)
    /// └── eye injuries
    ///     └── corneal injuries
    fn onto() -> (Ontology, [ConceptId; 5]) {
        let mut b = OntologyBuilder::new("t", Language::English);
        let eye = b.add_concept("eye diseases", vec![]);
        let cd = b.add_concept("corneal diseases", vec![]);
        let ei = b.add_concept("eye injuries", vec![]);
        let cu = b.add_concept("corneal ulcer", vec![]);
        let ci = b.add_concept(
            "corneal injuries",
            vec!["corneal injury".to_owned(), "corneal trauma".to_owned()],
        );
        b.add_is_a(cd, eye);
        b.add_is_a(ei, eye);
        b.add_is_a(cu, cd);
        b.add_is_a(ci, cd);
        b.add_is_a(ci, ei);
        (b.build().expect("valid"), [eye, cd, ei, cu, ci])
    }

    #[test]
    fn fathers_and_sons() {
        let (o, [eye, cd, ei, _cu, ci]) = onto();
        assert_eq!(fathers(&o, ci), &[cd, ei]);
        assert_eq!(sons(&o, eye), &[cd, ei]);
    }

    #[test]
    fn siblings_via_any_father() {
        let (o, [_, cd, ei, cu, ci]) = onto();
        assert_eq!(siblings(&o, cu), vec![ci]);
        let sib_ci = siblings(&o, ci);
        assert_eq!(sib_ci, vec![cu]);
        assert_eq!(siblings(&o, cd), vec![ei]);
    }

    #[test]
    fn ancestors_and_descendants() {
        let (o, [eye, cd, ei, cu, ci]) = onto();
        assert_eq!(ancestors(&o, ci), vec![eye, cd, ei]);
        assert_eq!(descendants(&o, eye), vec![cd, ei, cu, ci]);
        assert!(ancestors(&o, eye).is_empty());
        assert!(descendants(&o, cu).is_empty());
    }

    #[test]
    fn neighbourhood_radius() {
        let (o, [eye, cd, ei, cu, ci]) = onto();
        assert_eq!(neighbourhood(&o, ci, 1), vec![cd, ei]);
        let n2 = neighbourhood(&o, ci, 2);
        assert_eq!(n2, vec![eye, cd, ei, cu]);
        assert!(neighbourhood(&o, ci, 0).is_empty());
    }

    #[test]
    fn paradigmatic_relatives_of_leaf() {
        let (o, [_, cd, ei, _, ci]) = onto();
        assert_eq!(paradigmatic_relatives(&o, ci), vec![cd, ei]);
    }

    #[test]
    fn gold_position_terms_cover_synonyms_and_relatives() {
        let (o, [_, _, _, _, ci]) = onto();
        let gold = gold_position_terms(&o, ci);
        for t in [
            "corneal injuries",
            "corneal injury",
            "corneal trauma",
            "corneal diseases",
            "eye injuries",
        ] {
            assert!(gold.contains(&t.to_owned()), "missing {t}");
        }
        assert!(!gold.contains(&"corneal ulcer".to_owned()));
    }
}
