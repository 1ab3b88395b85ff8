//! Integration tests spanning every crate: the full pipeline from
//! ontology generation to ranked context-based search output.

use litsearch::context_search::{ContextSetKind, PrestigeScores, ScoreFunction, Searcher};
use litsearch::corpus::queries::{generate_queries, QueryConfig};
use litsearch::demo::{snapshot, Scale};

const PATTERN: ContextSetKind = ContextSetKind::PatternBased;
const TEXT: ContextSetKind = ContextSetKind::TextBased;

fn tiny_engine(seed: u64) -> Searcher {
    snapshot(Scale::Tiny, seed).searcher()
}

fn table(e: &Searcher, kind: ContextSetKind, function: ScoreFunction) -> &PrestigeScores {
    e.prestige(kind, function)
        .expect("the demo snapshot prepares every standard pair")
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let (e1, e2) = (tiny_engine(5), tiny_engine(5));
    let (s1, s2) = (e1.sets(PATTERN), e2.sets(PATTERN));
    assert_eq!(s1.n_contexts(), s2.n_contexts());
    let p1 = table(&e1, PATTERN, ScoreFunction::Pattern);
    let p2 = table(&e2, PATTERN, ScoreFunction::Pattern);
    for c in s1.contexts() {
        assert_eq!(p1.scores(c), p2.scores(c), "context {c}");
    }
    let q = "membrane transport regulation";
    let h1 = e1.query(q, PATTERN, ScoreFunction::Pattern, 10).unwrap();
    let h2 = e2.query(q, PATTERN, ScoreFunction::Pattern, 10).unwrap();
    assert_eq!(h1.len(), h2.len());
    for (a, b) in h1.iter().zip(&h2) {
        assert_eq!(a.paper, b.paper);
        assert!((a.relevancy - b.relevancy).abs() < 1e-12);
    }
}

#[test]
fn all_three_score_functions_produce_valid_scores() {
    let e = tiny_engine(9);
    for (kind, function) in [
        (PATTERN, ScoreFunction::Citation),
        (PATTERN, ScoreFunction::Pattern),
        (TEXT, ScoreFunction::Text),
    ] {
        let prestige = table(&e, kind, function);
        let mut n_scores = 0usize;
        for c in prestige.contexts() {
            for &(p, s) in prestige.scores(c).iter() {
                assert!(
                    s.is_finite() && (0.0..=1.0 + 1e-9).contains(&s),
                    "{function:?} score {s} for {p:?} in {c}"
                );
                n_scores += 1;
            }
        }
        assert!(n_scores > 0, "{function:?} produced no scores");
    }
}

#[test]
fn hierarchy_propagation_gives_ancestors_at_least_descendant_scores() {
    let e = tiny_engine(13);
    let sets = e.sets(PATTERN);
    let prestige = table(&e, PATTERN, ScoreFunction::Pattern);
    let onto = e.ontology();
    for c in sets.contexts() {
        for &child in onto.children(c) {
            for &(p, s_child) in prestige.scores(child).iter() {
                if sets.is_member(c, p) {
                    let s_parent = prestige
                        .get(c, p)
                        .expect("member papers have scores after propagation");
                    assert!(
                        s_parent >= s_child - 1e-9,
                        "paper {p:?}: parent {c} has {s_parent}, child {child} has {s_child}"
                    );
                }
            }
        }
    }
}

#[test]
fn citation_scores_tie_more_than_text_scores() {
    // The mechanism behind the paper's separability result: sparse
    // in-context citation graphs produce masses of identical scores.
    let e = tiny_engine(21);
    let tsets = e.sets(TEXT);
    let citation = table(&e, TEXT, ScoreFunction::Citation);
    let text = table(&e, TEXT, ScoreFunction::Text);
    let tie_fraction = |p: &PrestigeScores| {
        let (mut total, mut distinct) = (0usize, 0usize);
        for c in tsets.contexts_with_min_size(10) {
            let values = p.score_values(c);
            let set: std::collections::HashSet<u64> = values.iter().map(|v| v.to_bits()).collect();
            total += values.len();
            distinct += set.len();
        }
        1.0 - distinct as f64 / total.max(1) as f64
    };
    let cit_ties = tie_fraction(citation);
    let text_ties = tie_fraction(text);
    assert!(
        cit_ties > text_ties,
        "citation tie fraction {cit_ties:.3} should exceed text {text_ties:.3}"
    );
}

#[test]
fn queries_find_their_ground_truth_contexts() {
    let e = tiny_engine(33);
    let sets = e.sets(PATTERN);
    let queries = generate_queries(
        e.ontology(),
        e.corpus(),
        &QueryConfig {
            n_queries: 10,
            min_level: 2,
            ..Default::default()
        },
    );
    assert!(!queries.is_empty());
    let mut hits = 0;
    for q in &queries {
        let selected = e.select_contexts(&q.text, sets);
        let found = selected.iter().any(|&(c, _)| {
            c == q.mapped_term
                || e.ontology().is_descendant(c, q.mapped_term)
                || e.ontology().is_descendant(q.mapped_term, c)
        });
        if found {
            hits += 1;
        }
    }
    assert!(
        hits * 2 >= queries.len(),
        "selection should find the mapped term family for most queries: {hits}/{}",
        queries.len()
    );
}

#[test]
fn ac_answer_sets_are_reasonable_ground_truth() {
    let e = tiny_engine(44);
    let queries = generate_queries(
        e.ontology(),
        e.corpus(),
        &QueryConfig {
            n_queries: 8,
            min_level: 2,
            ..Default::default()
        },
    );
    let mut non_empty = 0;
    for q in &queries {
        let ac = e.ac_answer_set(&q.text);
        if !ac.is_empty() {
            non_empty += 1;
            assert!(
                ac.len() < e.corpus().len(),
                "AC set must not be the whole corpus"
            );
        }
    }
    assert!(non_empty * 2 >= queries.len());
}

#[test]
fn search_relevancy_ranks_above_pure_matching_for_prestigious_papers() {
    let e = tiny_engine(55);
    let term = e
        .ontology()
        .term_ids()
        .find(|&t| e.ontology().level(t) == 3)
        .unwrap();
    let q = e.ontology().term(term).name.clone();
    let hits = e.query(&q, PATTERN, ScoreFunction::Pattern, 0).unwrap();
    if hits.len() >= 2 {
        // Relevancy must not equal pure matching order when prestige
        // varies — check that the components actually combine.
        for h in &hits {
            let expected = 0.5 * h.prestige + 0.5 * h.matching;
            assert!((h.relevancy - expected).abs() < 1e-9);
        }
    }
}
