//! Correctness checks and result digests.
//!
//! Results are compared field by field with floats compared by their
//! bits, so a change in rounding, order or tie-breaking is a failure.

use context_search::SearchResult;

/// FNV-1a, 64-bit: a stable digest for results and bodies.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Fold bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Fold one 64-bit word in.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Fold a ranked result list in: length, then every field of every
    /// result, floats as bits.
    pub fn results(&mut self, results: &[SearchResult]) {
        self.word(results.len() as u64);
        for r in results {
            self.word(u64::from(r.paper.0));
            self.word(u64::from(r.context.0));
            self.word(r.relevancy.to_bits());
            self.word(r.matching.to_bits());
            self.word(r.prestige.to_bits());
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The digest of one result list.
pub fn results_digest(results: &[SearchResult]) -> u64 {
    let mut d = Digest::default();
    d.results(results);
    d.value()
}

/// Whether two ranked result lists are identical: same order, same
/// papers and contexts, bit-identical scores.
pub fn same_results(a: &[SearchResult], b: &[SearchResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.paper == y.paper
                && x.context == y.context
                && x.relevancy.to_bits() == y.relevancy.to_bits()
                && x.matching.to_bits() == y.matching.to_bits()
                && x.prestige.to_bits() == y.prestige.to_bits()
        })
}

/// Whether a wire response is the expected success: status 200 and a
/// body byte-equal to `serve::encode_results` of the in-process query.
pub fn wire_ok(status: u16, body: &[u8], expected: &str) -> bool {
    status == 200 && body == expected.as_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::PaperId;
    use ontology::TermId;

    fn hit(paper: u32, relevancy: f64) -> SearchResult {
        SearchResult {
            paper: PaperId(paper),
            relevancy,
            matching: 0.5,
            prestige: 0.25,
            context: TermId(3),
        }
    }

    #[test]
    fn identical_results_pass() {
        let a = vec![hit(1, 0.9), hit(2, 0.8)];
        assert!(same_results(&a, &a.clone()));
        assert_eq!(results_digest(&a), results_digest(&a.clone()));
    }

    #[test]
    fn a_wrong_result_is_flagged() {
        let good = vec![hit(1, 0.9), hit(2, 0.8)];
        // One ULP off.
        let mut ulp = good.clone();
        ulp[1].relevancy = f64::from_bits(0.8f64.to_bits() + 1);
        // Swapped order.
        let swapped = vec![hit(2, 0.8), hit(1, 0.9)];
        // Truncated.
        let short = vec![hit(1, 0.9)];
        // Other winning context.
        let mut context = good.clone();
        context[0].context = TermId(4);
        // Signed zero differs in bits.
        let zero = vec![hit(1, 0.0)];
        let neg = vec![hit(1, -0.0)];
        for bad in [&ulp, &swapped, &short, &context] {
            assert!(!same_results(&good, bad));
            assert_ne!(results_digest(&good), results_digest(bad));
        }
        assert!(!same_results(&zero, &neg));
    }

    #[test]
    fn a_wrong_body_or_status_is_flagged() {
        let expected = serve::encode_results(&[hit(1, 0.9)]);
        assert!(wire_ok(200, expected.as_bytes(), &expected));
        assert!(!wire_ok(429, expected.as_bytes(), &expected));
        assert!(!wire_ok(503, expected.as_bytes(), &expected));
        let other = serve::encode_results(&[hit(1, 0.8)]);
        assert!(!wire_ok(200, other.as_bytes(), &expected));
        assert!(!wire_ok(200, b"", &expected));
        let mut trailing = expected.clone().into_bytes();
        trailing.push(b' ');
        assert!(!wire_ok(200, &trailing, &expected));
    }
}
