//! Pattern-based context paper set (paper §4) and the shared
//! per-context pattern sets.
//!
//! The paper's simplified variant: "only middle tuples of patterns were
//! considered during pattern matching, extended patterns were not used,
//! and descendant contexts' papers were included with the ancestor
//! context. If the context contained zero papers, then the closest
//! ancestor's paper set was assigned to the context" — with the score
//! decay `RateOfDecay(Cancs, Cdesc) = I(Cancs)/I(Cdesc)` applied later
//! by the pattern prestige function.

use crate::config::EngineConfig;
use crate::context::{ContextId, ContextPaperSets, ContextSetKind};
use crate::indexes::CorpusIndex;
use corpus::{Corpus, PaperId};
use ontology::Ontology;
use patterns::matcher::find_match;
use patterns::{build_patterns, extract_significant_terms, MatcherConfig, Pattern, SectionTokens};
use std::collections::HashMap;

/// The scored pattern sets of every context that has any.
#[derive(Default)]
pub struct ContextPatterns {
    /// Patterns per context, best-scored first.
    pub by_context: HashMap<ContextId, Vec<Pattern>>,
}

impl ContextPatterns {
    /// Patterns of one context (empty slice if none).
    pub fn patterns(&self, context: ContextId) -> &[Pattern] {
        self.by_context
            .get(&context)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// Build every context's pattern set from its term name and training
/// (annotation-evidence) papers. Contexts without evidence still get
/// patterns from their term name alone — that is what lets the
/// pattern-based paper set cover *all* contexts (§4), unlike the
/// text-based one.
pub fn patterns_by_context(
    ontology: &Ontology,
    corpus: &Corpus,
    index: &CorpusIndex,
    config: &EngineConfig,
) -> ContextPatterns {
    let mut pattern_cfg = config.pattern.clone();
    if !config.use_extended_patterns {
        pattern_cfg.max_extended = 0;
    }
    let contexts: Vec<ContextId> = ontology.term_ids().collect();
    let built: Vec<(ContextId, Vec<Pattern>)> =
        crate::parallel_map(config.threads, &contexts, |&context| {
            let name_tokens = &index.term_name_tokens[context.index()];
            let training: Vec<Vec<textproc::TermId>> = corpus
                .evidence_for(context)
                .iter()
                .map(|&p| corpus.analyzed(p).concat())
                .collect();
            let sig = extract_significant_terms(
                name_tokens,
                &training,
                pattern_cfg.min_support,
                pattern_cfg.max_phrase_len,
            );
            let pats = build_patterns(
                &sig,
                name_tokens,
                &training,
                &index.selectivity,
                &|middle| index.coverage_estimate(middle),
                &pattern_cfg,
            );
            (context, pats)
        });
    ContextPatterns {
        by_context: built.into_iter().filter(|(_, p)| !p.is_empty()).collect(),
    }
}

/// Build the pattern-based context paper set using the simplified
/// (middle-only) matching.
pub fn build_pattern_sets(
    ontology: &Ontology,
    corpus: &Corpus,
    index: &CorpusIndex,
    patterns: &ContextPatterns,
    config: &EngineConfig,
) -> ContextPaperSets {
    let matcher = MatcherConfig {
        middle_only: true,
        ..config.matcher.clone()
    };
    let contexts: Vec<ContextId> = ontology.term_ids().collect();

    // Direct assignment: candidate papers from the inverted index, then
    // one middle-only scan of each candidate's sections.
    let direct: Vec<(ContextId, Vec<PaperId>)> =
        crate::parallel_map(config.threads, &contexts, |&context| {
            let mut members: Vec<PaperId> = Vec::new();
            let mut scanned = 0u64;
            for pat in patterns.patterns(context) {
                for paper in index.phrase_candidates(&pat.middle) {
                    scanned += 1;
                    if pattern_match(corpus, paper, pat, &matcher)
                        .is_some_and(|strength| strength >= config.assign.pattern_min_strength)
                    {
                        members.push(paper);
                    }
                }
            }
            obs::counter("assign.pattern_sets.phrase_candidates", scanned);
            members.sort_unstable();
            members.dedup();
            (context, members)
        });
    let mut members: HashMap<ContextId, Vec<PaperId>> = direct.into_iter().collect();

    // Descendant aggregation: children's papers flow into ancestors.
    // Reverse topological order guarantees children are final first.
    let topo: Vec<ContextId> = ontology.topological_order().to_vec();
    for &c in topo.iter().rev() {
        let child_papers: Vec<PaperId> = ontology
            .children(c)
            .iter()
            .flat_map(|ch| members.get(ch).cloned().unwrap_or_default())
            .collect();
        if !child_papers.is_empty() {
            let e = members.entry(c).or_default();
            e.extend(child_papers);
            e.sort_unstable();
            e.dedup();
        }
    }

    // Empty contexts inherit the closest ancestor's set.
    let mut inherited_from: HashMap<ContextId, ContextId> = HashMap::new();
    for &c in &topo {
        // Topological order: ancestors settle before descendants, so an
        // inherited set can cascade further down.
        if members.get(&c).is_none_or(Vec::is_empty) {
            let mut cur = c;
            while let Some(ancestor) = ontology.closest_ancestor(cur) {
                if let Some(set) = members.get(&ancestor) {
                    if !set.is_empty() {
                        members.insert(c, set.clone());
                        // Record the *original* owner if the ancestor
                        // itself inherited.
                        let origin = inherited_from.get(&ancestor).copied().unwrap_or(ancestor);
                        inherited_from.insert(c, origin);
                        break;
                    }
                }
                cur = ancestor;
            }
        }
    }

    let mut sets = ContextPaperSets::new(members, ContextSetKind::PatternBased);
    sets.inherited_from = inherited_from;
    sets
}

/// One scan of `paper`'s sections for `pattern`'s middle: `None` when
/// no section contains it, otherwise its match strength (see
/// [`find_match`]).
pub(crate) fn pattern_match(
    corpus: &Corpus,
    paper: PaperId,
    pattern: &Pattern,
    matcher: &MatcherConfig,
) -> Option<f64> {
    let a = corpus.analyzed(paper);
    let sections = SectionTokens {
        title: &a.title,
        abstract_text: &a.abstract_text,
        body: &a.body,
        index_terms: &a.index_terms,
    };
    find_match(pattern, &sections, matcher)
}

#[cfg(test)]
mod tests {
    use super::*;
    use citegraph::PageRankConfig;
    use corpus::{generate_corpus, CorpusConfig};
    use ontology::{generate_ontology, GeneratorConfig};

    fn setup() -> (Ontology, Corpus, CorpusIndex, EngineConfig) {
        let onto = generate_ontology(&GeneratorConfig {
            n_terms: 80,
            seed: 3,
            ..Default::default()
        });
        let corpus = generate_corpus(
            &onto,
            &CorpusConfig {
                n_papers: 150,
                seed: 5,
                body_len: (40, 60),
                abstract_len: (20, 30),
                ..Default::default()
            },
        );
        let config = EngineConfig::default();
        let index = CorpusIndex::build(&onto, &corpus, &PageRankConfig::default());
        (onto, corpus, index, config)
    }

    #[test]
    fn all_terms_get_patterns() {
        let (onto, corpus, index, config) = setup();
        let pats = patterns_by_context(&onto, &corpus, &index, &config);
        // Every term has a name, so virtually every term has patterns.
        assert!(pats.by_context.len() as f64 > onto.len() as f64 * 0.9);
    }

    #[test]
    fn pattern_sets_cover_far_more_contexts_than_text_sets() {
        let (onto, corpus, index, config) = setup();
        let pats = patterns_by_context(&onto, &corpus, &index, &config);
        let pattern_sets = build_pattern_sets(&onto, &corpus, &index, &pats, &config);
        let text_sets = crate::assign::build_text_sets(&onto, &corpus, &index, &config);
        assert!(
            pattern_sets.n_contexts() > text_sets.n_contexts(),
            "pattern: {} vs text: {}",
            pattern_sets.n_contexts(),
            text_sets.n_contexts()
        );
    }

    #[test]
    fn ancestors_contain_descendant_papers() {
        let (onto, corpus, index, config) = setup();
        let pats = patterns_by_context(&onto, &corpus, &index, &config);
        let sets = build_pattern_sets(&onto, &corpus, &index, &pats, &config);
        for c in onto.term_ids() {
            if !sets.contains_context(c) || sets.inherited_from.contains_key(&c) {
                continue;
            }
            for &child in onto.children(c) {
                if sets.inherited_from.contains_key(&child) {
                    continue;
                }
                for &p in sets.members(child) {
                    assert!(
                        sets.is_member(c, p),
                        "paper {p:?} in child {child} missing from ancestor {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn inherited_contexts_copy_ancestor_sets() {
        let (onto, corpus, index, config) = setup();
        let pats = patterns_by_context(&onto, &corpus, &index, &config);
        let sets = build_pattern_sets(&onto, &corpus, &index, &pats, &config);
        for (&c, &a) in &sets.inherited_from {
            assert!(onto.is_descendant(c, a), "{c} must descend from {a}");
            assert_eq!(sets.members(c), sets.members(a));
            assert!(
                !sets.inherited_from.contains_key(&a),
                "inheritance records the original owner"
            );
        }
    }

    #[test]
    fn direct_members_match_a_middle() {
        let (onto, corpus, index, config) = setup();
        let pats = patterns_by_context(&onto, &corpus, &index, &config);
        let sets = build_pattern_sets(&onto, &corpus, &index, &pats, &config);
        // Pick a leaf context with direct members (no children, not
        // inherited): each member must contain some pattern middle.
        let leaf = onto
            .term_ids()
            .find(|&t| {
                onto.children(t).is_empty()
                    && sets.contains_context(t)
                    && !sets.inherited_from.contains_key(&t)
            })
            .expect("some leaf with direct members");
        for &p in sets.members(leaf).iter().take(10) {
            let a = corpus.analyzed(p);
            let any_middle = pats.patterns(leaf).iter().any(|pat| {
                corpus::Section::ALL
                    .iter()
                    .any(|&s| textproc::phrase::contains_phrase(a.section(s), &pat.middle))
            });
            assert!(any_middle, "member {p:?} matches no middle");
        }
    }
}
