//! Frequent contiguous phrase (n-gram) mining.
//!
//! The pattern-based score function (paper §3.3) builds its "significant
//! terms" from frequent terms/phrases in a context's training papers,
//! "combined using a procedure similar to the apriori algorithm" (paper
//! ref \[5\]). This module implements that: level-wise mining of contiguous
//! token sequences with document-level support, where the candidate
//! (n+1)-grams are generated only from frequent n-grams (the apriori
//! pruning property — every sub-phrase of a frequent phrase is frequent).

use crate::vocab::TermId;
use std::collections::{HashMap, HashSet};

/// A mined phrase with its document-level support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentPhrase {
    /// The phrase as a contiguous token-id sequence (length ≥ 1).
    pub tokens: Vec<TermId>,
    /// Number of documents containing the phrase at least once.
    pub support: u32,
}

/// Mine phrases of length `1..=max_len` appearing in at least
/// `min_support` documents.
///
/// Results are sorted by descending support then ascending token
/// sequence, for deterministic output.
pub fn frequent_phrases(
    docs: &[Vec<TermId>],
    min_support: u32,
    max_len: usize,
) -> Vec<FrequentPhrase> {
    if max_len == 0 || docs.is_empty() {
        return Vec::new();
    }
    let mut result: Vec<FrequentPhrase> = Vec::new();

    // Level 1: unigram document frequencies.
    let mut frequent_prev: HashSet<Vec<TermId>> = HashSet::new();
    let mut counts: HashMap<Vec<TermId>, u32> = HashMap::new();
    for doc in docs {
        let distinct: HashSet<TermId> = doc.iter().copied().collect();
        for t in distinct {
            *counts.entry(vec![t]).or_insert(0) += 1;
        }
    }
    collect_level(&mut counts, min_support, &mut frequent_prev, &mut result);

    // Levels 2..=max_len: count candidate n-grams whose two (n-1)-length
    // sub-phrases are both frequent.
    for n in 2..=max_len {
        if frequent_prev.is_empty() {
            break;
        }
        let mut counts: HashMap<Vec<TermId>, u32> = HashMap::new();
        for doc in docs {
            if doc.len() < n {
                continue;
            }
            let mut seen: HashSet<&[TermId]> = HashSet::new();
            for window in doc.windows(n) {
                if seen.contains(window) {
                    continue;
                }
                // Apriori pruning: both length-(n-1) sub-windows frequent.
                if !frequent_prev.contains(&window[..n - 1])
                    || !frequent_prev.contains(&window[1..])
                {
                    continue;
                }
                seen.insert(window);
                *counts.entry(window.to_vec()).or_insert(0) += 1;
            }
        }
        frequent_prev.clear();
        collect_level(&mut counts, min_support, &mut frequent_prev, &mut result);
    }

    result.sort_by(|a, b| b.support.cmp(&a.support).then(a.tokens.cmp(&b.tokens)));
    result
}

fn collect_level(
    counts: &mut HashMap<Vec<TermId>, u32>,
    min_support: u32,
    frequent: &mut HashSet<Vec<TermId>>,
    result: &mut Vec<FrequentPhrase>,
) {
    for (phrase, support) in counts.drain() {
        if support >= min_support {
            frequent.insert(phrase.clone());
            result.push(FrequentPhrase {
                tokens: phrase,
                support,
            });
        }
    }
}

/// Count occurrences (not documents) of each n-gram of length `n` in one
/// token sequence. Used for pattern occurrence-frequency statistics.
pub fn ngram_occurrences(doc: &[TermId], n: usize) -> HashMap<Vec<TermId>, u32> {
    let mut out = HashMap::new();
    if n == 0 || doc.len() < n {
        return out;
    }
    for w in doc.windows(n) {
        *out.entry(w.to_vec()).or_insert(0) += 1;
    }
    out
}

/// Start positions where `needle` occurs contiguously in `haystack`,
/// ascending and produced lazily (no allocation). An empty needle
/// occurs nowhere.
pub fn occurrences<'a>(
    haystack: &'a [TermId],
    needle: &'a [TermId],
) -> impl Iterator<Item = usize> + 'a {
    // Candidate starts: every position a full needle still fits after
    // (none for an empty needle). One token compare rejects most.
    let n_starts = match needle.len() {
        0 => 0,
        len => (haystack.len() + 1).saturating_sub(len),
    };
    haystack[..n_starts]
        .iter()
        .enumerate()
        .filter(move |&(i, &t)| t == needle[0] && haystack[i + 1..i + needle.len()] == needle[1..])
        .map(|(i, _)| i)
}

/// Whether `needle` occurs contiguously in `haystack` (stops at the
/// first occurrence, no allocation).
pub fn contains_phrase(haystack: &[TermId], needle: &[TermId]) -> bool {
    occurrences(haystack, needle).next().is_some()
}

/// Find all start positions where `needle` occurs contiguously in
/// `haystack`.
pub fn find_occurrences(haystack: &[TermId], needle: &[TermId]) -> Vec<usize> {
    occurrences(haystack, needle).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<TermId> {
        xs.iter().map(|&x| TermId(x)).collect()
    }

    #[test]
    fn unigrams_counted_per_document() {
        let docs = vec![ids(&[1, 1, 2]), ids(&[1, 3])];
        let phrases = frequent_phrases(&docs, 2, 1);
        assert_eq!(phrases.len(), 1);
        assert_eq!(phrases[0].tokens, ids(&[1]));
        assert_eq!(phrases[0].support, 2);
    }

    #[test]
    fn bigrams_require_frequent_parts() {
        // "1 2" occurs in both docs; "3 4" only in one.
        let docs = vec![ids(&[1, 2, 3, 4]), ids(&[1, 2, 5])];
        let phrases = frequent_phrases(&docs, 2, 2);
        let bigrams: Vec<_> = phrases.iter().filter(|p| p.tokens.len() == 2).collect();
        assert_eq!(bigrams.len(), 1);
        assert_eq!(bigrams[0].tokens, ids(&[1, 2]));
    }

    #[test]
    fn trigram_mining() {
        let docs = vec![ids(&[1, 2, 3]), ids(&[0, 1, 2, 3]), ids(&[1, 2, 3, 9])];
        let phrases = frequent_phrases(&docs, 3, 3);
        assert!(phrases.iter().any(|p| p.tokens == ids(&[1, 2, 3])));
    }

    #[test]
    fn support_is_document_level() {
        // Phrase repeated many times in one doc still counts support 1.
        let docs = vec![ids(&[7, 8, 7, 8, 7, 8])];
        let phrases = frequent_phrases(&docs, 1, 2);
        let p = phrases.iter().find(|p| p.tokens == ids(&[7, 8])).unwrap();
        assert_eq!(p.support, 1);
    }

    #[test]
    fn empty_inputs() {
        assert!(frequent_phrases(&[], 1, 3).is_empty());
        assert!(frequent_phrases(&[ids(&[1])], 1, 0).is_empty());
        let none = frequent_phrases(&[ids(&[])], 1, 2);
        assert!(none.is_empty());
    }

    #[test]
    fn find_occurrences_finds_all() {
        let hay = ids(&[1, 2, 1, 2, 1]);
        assert_eq!(find_occurrences(&hay, &ids(&[1, 2])), vec![0, 2]);
        assert_eq!(find_occurrences(&hay, &ids(&[2, 1])), vec![1, 3]);
        assert!(find_occurrences(&hay, &ids(&[9])).is_empty());
        assert!(find_occurrences(&hay, &ids(&[])).is_empty());
        assert!(find_occurrences(&ids(&[1]), &ids(&[1, 2])).is_empty());
    }

    #[test]
    fn contains_phrase_agrees_with_find_occurrences() {
        let hay = ids(&[1, 2, 1, 2, 1]);
        assert!(contains_phrase(&hay, &ids(&[2, 1])));
        assert!(contains_phrase(&hay, &hay));
        assert!(!contains_phrase(&hay, &ids(&[1, 1])));
        assert!(!contains_phrase(&hay, &ids(&[])));
        assert!(!contains_phrase(&ids(&[]), &ids(&[1])));
        assert!(!contains_phrase(&ids(&[1, 2]), &ids(&[1, 2, 1])));
    }

    #[test]
    fn ngram_occurrences_counts_tokens() {
        let doc = ids(&[1, 2, 1, 2]);
        let bi = ngram_occurrences(&doc, 2);
        assert_eq!(bi[&ids(&[1, 2])], 2);
        assert_eq!(bi[&ids(&[2, 1])], 1);
    }

    proptest::proptest! {
        /// The lazy scan finds exactly the windows equal to the needle.
        #[test]
        fn occurrences_match_a_window_scan(
            hay in proptest::collection::vec(0u32..4, 0..16),
            needle in proptest::collection::vec(0u32..4, 0..4),
        ) {
            let (hay, needle) = (ids(&hay), ids(&needle));
            let expected: Vec<usize> = if needle.is_empty() {
                Vec::new()
            } else {
                (0..hay.len().saturating_sub(needle.len() - 1))
                    .filter(|&i| hay[i..i + needle.len()] == needle[..])
                    .collect()
            };
            proptest::prop_assert_eq!(find_occurrences(&hay, &needle), expected.clone());
            proptest::prop_assert_eq!(contains_phrase(&hay, &needle), !expected.is_empty());
        }

        /// Apriori downward-closure: every sub-phrase of a reported
        /// frequent phrase must itself be frequent with >= support.
        #[test]
        fn downward_closure(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u32..6, 0..12), 1..8),
            min_support in 1u32..3,
        ) {
            let docs: Vec<Vec<TermId>> = docs.iter().map(|d| ids(d)).collect();
            let phrases = frequent_phrases(&docs, min_support, 3);
            let by_tokens: HashMap<&[TermId], u32> =
                phrases.iter().map(|p| (p.tokens.as_slice(), p.support)).collect();
            for p in &phrases {
                if p.tokens.len() >= 2 {
                    let left = &p.tokens[..p.tokens.len() - 1];
                    let right = &p.tokens[1..];
                    proptest::prop_assert!(by_tokens.get(left).copied().unwrap_or(0) >= p.support);
                    proptest::prop_assert!(by_tokens.get(right).copied().unwrap_or(0) >= p.support);
                }
            }
        }
    }
}
