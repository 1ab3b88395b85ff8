//! Text-based prestige (paper §3.2): a paper's prestige in a context is
//! its weighted similarity to the context's *representative paper*
//! across six components — title, abstract, body, and index-term
//! TF-IDF cosines, author overlap (level 0 + level 1), and citation
//! similarity (bibliographic coupling + co-citation).

use crate::config::EngineConfig;
use crate::context::{ContextId, ContextPaperSets};
use crate::indexes::CorpusIndex;
use crate::prestige::{PrestigeScores, ScoreFunction};
use citegraph::coupling::citation_similarity;
use corpus::{Corpus, PaperId, Section};
use std::collections::HashMap;

/// Compute text-based prestige for every context that has a
/// representative paper. Contexts without one (no annotation evidence)
/// get no text scores — mirroring the paper, where only 5,632 contexts
/// carried them. Every input the similarity reads lives in `index`;
/// `_corpus` stays because the lifecycle benchmark (`perfbench/`, a
/// package outside the workspace) calls this function with it.
pub fn text_prestige(
    sets: &ContextPaperSets,
    _corpus: &Corpus,
    index: &CorpusIndex,
    config: &EngineConfig,
) -> PrestigeScores {
    // `sets.contexts()` iterates ascending, so this is already the
    // deterministic population for the parallel map.
    let contexts: Vec<ContextId> = sets
        .contexts()
        .filter(|c| sets.representatives.contains_key(c))
        .collect();
    let computed: Vec<(ContextId, Vec<(PaperId, f64)>)> =
        crate::parallel_map(config.threads, &contexts, |&context| {
            let rep = sets.representatives[&context];
            let members = sets.members(context);
            obs::counter("prestige.text.pairs", members.len() as u64);
            // Absolute similarities (already in [0, 1]): diffuse
            // upper-level contexts legitimately yield small scores — the
            // paper's Fig 5.5 observation depends on this.
            let scores: Vec<(PaperId, f64)> = members
                .iter()
                .map(|&p| (p, combined_similarity(index, config, p, rep)))
                .collect();
            (context, scores)
        });
    PrestigeScores::new(
        computed.into_iter().collect::<HashMap<_, _>>(),
        ScoreFunction::Text,
    )
}

/// The §3.2 similarity `Sim(PX, PC) = Σ weight_i · Sim_i(PX, PC)`.
pub fn combined_similarity(
    index: &CorpusIndex,
    config: &EngineConfig,
    paper: PaperId,
    representative: PaperId,
) -> f64 {
    let w = &config.text_sim;
    let s_title = index.section_cosine(Section::Title, paper, representative);
    let s_abs = index.section_cosine(Section::Abstract, paper, representative);
    let s_body = index.section_cosine(Section::Body, paper, representative);
    let s_idx = index.section_cosine(Section::IndexTerms, paper, representative);
    let s_auth = index.author_similarity(paper, representative, w);
    let s_ref = citation_similarity(&index.graph, paper.0, representative.0, w.bib_weight);
    w.title * s_title
        + w.abstract_text * s_abs
        + w.body * s_body
        + w.index_terms * s_idx
        + w.authors * s_auth
        + w.references * s_ref
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::build_text_sets;
    use citegraph::PageRankConfig;
    use corpus::{generate_corpus, CorpusConfig};
    use ontology::{generate_ontology, GeneratorConfig, Ontology};

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
    fn representative_scores_maximal() {
        let (onto, corpus, index, config) = setup();
        let sets = build_text_sets(&onto, &corpus, &index, &config);
        let prestige = text_prestige(&sets, &corpus, &index, &config);
        let mut checked = 0;
        for (&c, &rep) in &sets.representatives {
            if let Some(s) = prestige.get(c, rep) {
                // The representative's self-similarity dominates every
                // other member's similarity to it.
                for &(p, other) in prestige.scores(c).iter() {
                    if p != rep {
                        assert!(s >= other - 1e-9, "rep {s} vs {p:?} {other} in {c}");
                    }
                }
                checked += 1;
            }
        }
        assert!(checked > 3);
    }

    #[test]
    fn scores_are_in_unit_range_and_varied() {
        let (onto, corpus, index, config) = setup();
        let sets = build_text_sets(&onto, &corpus, &index, &config);
        let prestige = text_prestige(&sets, &corpus, &index, &config);
        let big = sets
            .contexts_with_min_size(5)
            .into_iter()
            .next()
            .expect("some sizable context");
        let values = prestige.score_values(big);
        assert!(values.iter().all(|&v| (0.0..=1.0).contains(&v)));
        let distinct: std::collections::HashSet<u64> = values.iter().map(|v| v.to_bits()).collect();
        assert!(
            distinct.len() > 1,
            "text scores should differentiate members"
        );
    }

    #[test]
    fn only_contexts_with_representatives_get_scores() {
        let (onto, corpus, index, config) = setup();
        let mut sets = build_text_sets(&onto, &corpus, &index, &config);
        // Drop one representative; its context must get no scores.
        let victim = sets.contexts().next().unwrap();
        sets.representatives.remove(&victim);
        let prestige = text_prestige(&sets, &corpus, &index, &config);
        assert!(prestige.scores(victim).is_empty());
    }

    #[test]
    fn combined_similarity_is_bounded() {
        let (_, _, index, config) = setup();
        for a in 0..10u32 {
            for b in 0..10u32 {
                let s = combined_similarity(&index, &config, PaperId(a), PaperId(b));
                assert!((0.0..=1.0 + 1e-9).contains(&s), "sim {s}");
            }
        }
    }

    #[test]
    fn self_similarity_is_maximal_among_pairs() {
        let (_, _, index, config) = setup();
        let s_self = combined_similarity(&index, &config, PaperId(3), PaperId(3));
        for b in 0..20u32 {
            if b != 3 {
                let s = combined_similarity(&index, &config, PaperId(3), PaperId(b));
                assert!(s_self >= s - 1e-9, "self {s_self} vs {b}: {s}");
            }
        }
    }
}
