//! The correctness gate: one digest of everything an enrichment report
//! answers, bit for bit. The timed runs, the reference run at the other
//! thread count and the traced rebuild must all produce the same digest.

use boe_core::report::EnrichmentReport;

/// 64-bit FNV-1a over every term's surface, Step-I score bits, polysemy
/// and truncation flags, sense count, induced concepts, context
/// assignments and propositions (term, concepts, cosine bits, origin),
/// then the already-known terms. Diagnostics (timings, detector outcome)
/// are left out: they are checked separately.
pub fn report_digest(report: &EnrichmentReport) -> u64 {
    let mut h = Fnv::default();
    h.len(report.terms.len());
    for t in &report.terms {
        h.str(&t.surface);
        h.u64(t.term_score.to_bits());
        h.u64(u64::from(t.polysemic) | (u64::from(t.truncated) << 1));
        h.len(t.senses.k);
        h.len(t.senses.concepts.len());
        for c in &t.senses.concepts {
            h.len(c.cluster);
            h.len(c.support);
            h.len(c.features.len());
            for &(dim, weight) in &c.features {
                h.u64(u64::from(dim));
                h.u64(weight.to_bits());
            }
        }
        h.len(t.senses.assignments.len());
        for &a in &t.senses.assignments {
            h.len(a);
        }
        h.len(t.propositions.len());
        for p in &t.propositions {
            h.str(&p.term);
            h.len(p.concepts.len());
            for c in &p.concepts {
                h.u64(u64::from(c.0));
            }
            h.u64(p.cosine.to_bits());
            h.str(p.origin.name());
        }
    }
    h.len(report.already_known.len());
    for k in &report.already_known {
        h.str(k);
    }
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Length-prefixed, so `("ab", "c")` and `("a", "bc")` differ.
    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.bytes(s.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boe_core::linkage::{PositionOrigin, Proposition};
    use boe_core::report::TermReport;
    use boe_core::senses::InducedSenses;
    use boe_ontology::ConceptId;

    fn report() -> EnrichmentReport {
        let term = |surface: &str, cosine: f64| TermReport {
            surface: surface.to_owned(),
            term_score: 1.5,
            polysemic: false,
            senses: InducedSenses {
                k: 1,
                concepts: Vec::new(),
                assignments: vec![0, 0],
                repaired: 0,
            },
            propositions: vec![Proposition {
                term: "eye diseases".to_owned(),
                concepts: vec![ConceptId(3)],
                cosine,
                origin: PositionOrigin::Neighbour,
            }],
            truncated: false,
        };
        EnrichmentReport {
            terms: vec![term("corneal injuries", 0.5), term("keratitis", 0.25)],
            already_known: vec!["cornea".to_owned()],
            diagnostics: Default::default(),
        }
    }

    #[test]
    fn every_answer_moves_the_digest() {
        let base = report_digest(&report());
        assert_eq!(report_digest(&report().clone()), base);
        type Change = (&'static str, fn(&mut EnrichmentReport));
        let changes: [Change; 5] = [
            ("one ulp of a cosine", |r| {
                let p = &mut r.terms[0].propositions[0];
                p.cosine = f64::from_bits(p.cosine.to_bits() + 1);
            }),
            ("term order", |r| r.terms.swap(0, 1)),
            ("a context assignment", |r| {
                r.terms[1].senses.assignments[1] = 1
            }),
            ("a polysemy flag", |r| r.terms[0].polysemic = true),
            ("the known terms", |r| r.already_known.clear()),
        ];
        for (what, change) in changes {
            let mut r = report();
            change(&mut r);
            assert_ne!(report_digest(&r), base, "{what}");
        }
    }

    #[test]
    fn diagnostics_do_not_count() {
        let mut r = report();
        r.diagnostics.warn("a warning is checked on its own");
        assert_eq!(report_digest(&r), report_digest(&report()));
    }
}
