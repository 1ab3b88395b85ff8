//! The online query path, as an `impl` block on [`Searcher`].
//!
//! These methods read only the four immutable pieces every query needs
//! — ontology, corpus, config, index — from the searcher's
//! [`crate::EngineSnapshot`], and implement context selection,
//! relevancy scoring, and the auxiliary lookups (snippets, baseline
//! keyword search, AC-answer sets, more-like-this). Nothing on this
//! path takes a lock or mutates shared state, so any number of threads
//! can execute it concurrently over the same snapshot; per-query
//! working memory comes from the thread-local
//! [`crate::search::scratch::QueryScratch`] pool, so the steady-state
//! path is also allocation-light.

use crate::ac_answer::ac_answer_set;
use crate::context::{ContextId, ContextPaperSets};
use crate::prestige::PrestigeScores;
use crate::search::scratch::with_scratch;
use crate::search::select::select_contexts;
use crate::search::serve::Searcher;
use corpus::PaperId;
use std::collections::HashSet;

/// One ranked context-based search result.
#[derive(Debug, Clone, Copy)]
pub struct SearchResult {
    /// The paper.
    pub paper: PaperId,
    /// Combined relevancy `R(p, q, c)` (the ranking key).
    pub relevancy: f64,
    /// The text-matching component.
    pub matching: f64,
    /// The prestige component (in the winning context).
    pub prestige: f64,
    /// The context that produced this paper's best relevancy.
    pub context: ContextId,
}

/// Work counters from one query execution — how much the engine did,
/// not how long it took. Pure functions of (snapshot, query), so they
/// are identical across runs and threads; the load generator's
/// deterministic simulation mode derives synthetic per-query costs
/// from exactly these numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Contexts the selection stage picked.
    pub selected_contexts: u64,
    /// Papers with a nonzero keyword match.
    pub keyword_candidates: u64,
    /// (context, paper) pairs scored by the relevancy stage.
    pub scored_pairs: u64,
    /// Ranked results returned (after the limit).
    pub results: u64,
    /// Pushes into the bounded top-k heap. On the unlimited path every
    /// scored paper enters the ranking, so this equals the distinct
    /// paper count there; with a limit it shrinks toward `limit` as
    /// candidates arrive in better-first order.
    pub heap_pushes: u64,
}

/// The total order of ranked output: descending relevancy, ties broken
/// by ascending paper id. Both ranking paths implement exactly this
/// order — the full sort when unlimited, and the bounded top-k heap's
/// eviction rule when a limit is set — which is what makes them
/// interchangeable byte for byte.
pub(crate) fn rank_order(a: &SearchResult, b: &SearchResult) -> std::cmp::Ordering {
    b.relevancy
        .total_cmp(&a.relevancy)
        .then(a.paper.cmp(&b.paper))
}

impl Searcher {
    /// Task 3: select the contexts a query should search.
    pub fn select_contexts(&self, query: &str, sets: &ContextPaperSets) -> Vec<(ContextId, f64)> {
        let _span = obs::span("search.select_contexts");
        let tokens = self.corpus().analyze_known(query);
        let selected = select_contexts(&tokens, self.index(), sets, &self.config().selection);
        if obs::trace_enabled() {
            obs::trace_instant(
                "search.contexts_selected",
                vec![
                    ("query_tokens".to_string(), tokens.len().into()),
                    ("n_selected".to_string(), selected.len().into()),
                ],
            );
            for (rank, &(c, score)) in selected.iter().enumerate() {
                obs::trace_instant(
                    "search.context",
                    vec![
                        ("rank".to_string(), (rank + 1).into()),
                        ("context".to_string(), c.index().into()),
                        (
                            "name".to_string(),
                            self.ontology().term(c).name.as_str().into(),
                        ),
                        ("level".to_string(), self.ontology().level(c).into()),
                        ("match_score".to_string(), score.into()),
                        ("members".to_string(), sets.members(c).len().into()),
                    ],
                );
            }
        }
        selected
    }

    /// Tasks 4 + 5 with explicit tables: search within the selected
    /// contexts and rank by relevancy; results from different contexts
    /// are merged by keeping each paper's best relevancy. `limit = 0`
    /// means unlimited. [`query`](Self::query) calls this with the
    /// snapshot's own tables; the experiment harness passes ablation
    /// variants here.
    pub fn search(
        &self,
        query: &str,
        sets: &ContextPaperSets,
        prestige: &PrestigeScores,
        limit: usize,
    ) -> Vec<SearchResult> {
        self.search_with_stats(query, sets, prestige, limit).0
    }

    /// [`search`](Self::search) plus the execution's [`QueryStats`] —
    /// the serve path and load harness read the work counters without
    /// needing tracing armed.
    pub fn search_with_stats(
        &self,
        query: &str,
        sets: &ContextPaperSets,
        prestige: &PrestigeScores,
        limit: usize,
    ) -> (Vec<SearchResult>, QueryStats) {
        let _span = obs::span("engine.search");
        obs::counter("engine.queries", 1);
        let tracing = obs::trace_enabled();
        if tracing {
            obs::trace_instant(
                "search.query",
                vec![
                    ("query".to_string(), query.into()),
                    ("limit".to_string(), limit.into()),
                ],
            );
        }
        let qvec = self.index().query_vector(self.corpus(), query);
        let contexts = self.select_contexts(query, sets);
        with_scratch(|scratch| {
            scratch.begin(self.corpus().len());
            {
                let _s = obs::span("search.candidates");
                scratch.gather_candidates(self.index(), &qvec);
            }
            if tracing {
                obs::trace_instant(
                    "search.keyword_candidates",
                    vec![("matched_papers".to_string(), scratch.n_candidates().into())],
                );
            }

            let _scoring = obs::span("search.rank");
            let mut scored_pairs = 0u64;
            let n_contexts = contexts.len() as u64;
            for &(context, _ctx_score) in &contexts {
                scored_pairs += scratch.score_context(prestige, context, &self.config().relevancy);
            }
            if tracing {
                obs::trace_instant(
                    "search.relevancy_candidates",
                    vec![
                        ("scored_pairs".to_string(), scored_pairs.into()),
                        ("distinct_papers".to_string(), scratch.distinct().into()),
                    ],
                );
            }
            let (out, heap_pushes) = scratch.ranked(limit);
            drop(_scoring);
            if tracing {
                self.trace_explain_hits(&out);
            }
            obs::observe_ns("engine.search.results", out.len() as u64);
            let stats = QueryStats {
                selected_contexts: n_contexts,
                keyword_candidates: scratch.n_candidates() as u64,
                scored_pairs,
                results: out.len() as u64,
                heap_pushes,
            };
            (out, stats)
        })
    }

    /// Emit one `explain.hit` instant per top result: the context that
    /// won, both relevancy components with their weights, and the
    /// context's place in the hierarchy — the per-query evidence behind
    /// the paper's precision/separability numbers.
    fn trace_explain_hits(&self, hits: &[SearchResult]) {
        const EXPLAIN_TOP_K: usize = 10;
        let w = &self.config().relevancy;
        for (rank, h) in hits.iter().take(EXPLAIN_TOP_K).enumerate() {
            let term = self.ontology().term(h.context);
            obs::trace_instant(
                "explain.hit",
                vec![
                    ("rank".to_string(), (rank + 1).into()),
                    ("paper".to_string(), h.paper.index().into()),
                    ("relevancy".to_string(), h.relevancy.into()),
                    ("prestige".to_string(), h.prestige.into()),
                    ("matching".to_string(), h.matching.into()),
                    ("w_prestige".to_string(), w.prestige.into()),
                    ("w_matching".to_string(), w.matching.into()),
                    ("context".to_string(), h.context.index().into()),
                    ("context_name".to_string(), term.name.as_str().into()),
                    (
                        "context_level".to_string(),
                        self.ontology().level(h.context).into(),
                    ),
                ],
            );
        }
    }

    /// The PubMed-style keyword-search baseline over the whole corpus.
    pub fn keyword_search(&self, query: &str, min_score: f64) -> Vec<(PaperId, f64)> {
        let qvec = self.index().query_vector(self.corpus(), query);
        self.index().keyword_search(&qvec, min_score)
    }

    /// Display snippet for a hit: the abstract window best covering the
    /// query (falls back to the title when nothing matches there).
    pub fn snippet(&self, paper: PaperId, query: &str) -> String {
        let terms = self.corpus().analyze_known(query);
        let p = self.corpus().paper(paper);
        textproc::snippet::best_snippet(
            &p.abstract_text,
            &terms,
            self.corpus().vocab(),
            &self.index().model,
            &textproc::snippet::SnippetConfig::default(),
        )
        .unwrap_or_else(|| p.title.clone())
    }

    /// "More like this": papers related to `source` through shared
    /// contexts, ranked by the §3.2 combined similarity.
    pub fn more_like_this(
        &self,
        sets: &ContextPaperSets,
        source: PaperId,
        limit: usize,
    ) -> Vec<crate::search::related::RelatedPaper> {
        crate::search::related::more_like_this(self.index(), self.config(), sets, source, limit)
    }

    /// The §2 AC-answer ground-truth set for a query.
    pub fn ac_answer_set(&self, query: &str) -> HashSet<PaperId> {
        let qvec = self.index().query_vector(self.corpus(), query);
        ac_answer_set(self.index(), &self.config().ac, &qvec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::context::ContextSetKind;
    use crate::prestige::citation_weighted::CrossContextWeights;
    use crate::prestige::ScoreFunction;
    use crate::snapshot::{EngineSnapshot, PrepareOptions};
    use corpus::{generate_corpus, CorpusConfig};
    use ontology::{generate_ontology, GeneratorConfig, TermId};
    use std::cmp::Ordering;

    const PATTERN: ContextSetKind = ContextSetKind::PatternBased;

    /// A searcher over the pairs these tests query.
    fn searcher() -> Searcher {
        let onto = generate_ontology(&GeneratorConfig {
            n_terms: 80,
            seed: 3,
            ..Default::default()
        });
        let corpus = generate_corpus(
            &onto,
            &CorpusConfig {
                n_papers: 200,
                seed: 5,
                body_len: (40, 60),
                abstract_len: (20, 30),
                ..Default::default()
            },
        );
        let pairs = vec![
            (PATTERN, ScoreFunction::Pattern),
            (PATTERN, ScoreFunction::Citation),
            (ContextSetKind::TextBased, ScoreFunction::Text),
        ];
        EngineSnapshot::prepare_with(
            onto,
            corpus,
            EngineConfig::default(),
            PrepareOptions { pairs },
        )
        .searcher()
    }

    fn a_query(s: &Searcher) -> (String, ContextId) {
        // Query the deepest available mid-level term's name; it maps to
        // that term.
        let target = s.ontology().max_level().clamp(3, 4);
        let term = s
            .ontology()
            .term_ids()
            .find(|&t| s.ontology().level(t) == target)
            .expect("mid-level term");
        (s.ontology().term(term).name.clone(), term)
    }

    fn pattern_query(s: &Searcher, q: &str, limit: usize) -> Vec<SearchResult> {
        s.query(q, PATTERN, ScoreFunction::Pattern, limit)
            .expect("prepared pair")
    }

    #[test]
    fn end_to_end_search_returns_ranked_results() {
        let s = searcher();
        let (q, _) = a_query(&s);
        let hits = pattern_query(&s, &q, 20);
        assert!(!hits.is_empty(), "query {q:?} found nothing");
        for w in hits.windows(2) {
            assert!(w[0].relevancy >= w[1].relevancy);
        }
        for h in &hits {
            assert!((0.0..=1.0 + 1e-9).contains(&h.relevancy));
            assert!(s.sets(PATTERN).is_member(h.context, h.paper));
        }
    }

    #[test]
    fn search_results_are_topically_relevant() {
        let s = searcher();
        let (q, term) = a_query(&s);
        let hits = pattern_query(&s, &q, 10);
        // At least one top hit's true topics relate to the query term
        // (itself, an ancestor, or a descendant).
        let related = hits.iter().any(|h| {
            s.corpus().paper(h.paper).true_topics.iter().any(|&t| {
                t == term
                    || s.ontology().is_descendant(t, term)
                    || s.ontology().is_descendant(term, t)
            })
        });
        assert!(related, "no topically related paper in top hits for {q:?}");
    }

    #[test]
    fn context_search_output_is_smaller_than_keyword_search() {
        // The paper's headline: context-based search reduces output size.
        let s = searcher();
        let (q, _) = a_query(&s);
        let keyword = s.keyword_search(&q, 0.0);
        let context = pattern_query(&s, &q, 0);
        assert!(
            context.len() <= keyword.len(),
            "context {} vs keyword {}",
            context.len(),
            keyword.len()
        );
    }

    #[test]
    fn limit_zero_means_unlimited() {
        let s = searcher();
        let (q, _) = a_query(&s);
        let all = pattern_query(&s, &q, 0);
        let limited = pattern_query(&s, &q, 3);
        assert!(limited.len() <= 3);
        assert!(all.len() >= limited.len());
    }

    #[test]
    fn prestige_functions_cover_expected_contexts() {
        let s = searcher();
        let psets = s.sets(PATTERN);
        // Citation and pattern scores exist for all pattern contexts.
        for function in [ScoreFunction::Citation, ScoreFunction::Pattern] {
            let table = s.prestige(PATTERN, function).expect("prepared pair");
            assert_eq!(table.contexts().count(), psets.n_contexts());
        }
        // Text scores only where representatives exist.
        let tsets = s.sets(ContextSetKind::TextBased);
        let txt = s
            .prestige(ContextSetKind::TextBased, ScoreFunction::Text)
            .expect("prepared pair");
        assert_eq!(txt.contexts().count(), tsets.representatives.len());
    }

    #[test]
    fn snippets_cover_query_or_fall_back_to_title() {
        let s = searcher();
        let (q, _) = a_query(&s);
        for h in &pattern_query(&s, &q, 5) {
            assert!(!s.snippet(h.paper, &q).is_empty());
        }
        // Nonsense query → title fallback.
        let snippet = s.snippet(PaperId(0), "zzznonsense");
        assert_eq!(snippet, s.corpus().paper(PaperId(0)).title);
    }

    #[test]
    fn weighted_citation_prestige_reduces_ties() {
        let s = searcher();
        let sets = s.sets(PATTERN);
        let plain = s
            .prestige(PATTERN, ScoreFunction::Citation)
            .expect("prepared pair");
        let weighted = s.weighted_citation_prestige(sets, &CrossContextWeights::default());
        let tie_fraction = |p: &PrestigeScores| {
            let (mut total, mut distinct) = (0usize, 0usize);
            for c in sets.contexts_with_min_size(5) {
                let values: Vec<u64> = p.scores(c).iter().map(|&(_, s)| s.to_bits()).collect();
                total += values.len();
                distinct += values.iter().collect::<HashSet<_>>().len();
            }
            1.0 - distinct as f64 / total.max(1) as f64
        };
        assert!(
            tie_fraction(&weighted) <= tie_fraction(plain) + 1e-9,
            "weighted variant must not add ties"
        );
        // Coverage identical.
        assert_eq!(plain.contexts().count(), weighted.contexts().count());
    }

    #[test]
    fn nonsense_query_returns_empty() {
        let s = searcher();
        let hits = s
            .query("zzz qqq xxx", PATTERN, ScoreFunction::Citation, 10)
            .expect("prepared pair");
        assert!(hits.is_empty());
    }

    fn result(paper: u32, relevancy: f64) -> SearchResult {
        SearchResult {
            paper: PaperId(paper),
            relevancy,
            matching: 0.0,
            prestige: 0.0,
            context: TermId(0),
        }
    }

    #[test]
    fn rank_order_is_descending_relevancy() {
        assert_eq!(
            rank_order(&result(5, 0.9), &result(1, 0.3)),
            Ordering::Less,
            "higher relevancy sorts first"
        );
    }

    #[test]
    fn equal_relevancy_breaks_ties_by_paper_id() {
        assert_eq!(rank_order(&result(2, 0.5), &result(7, 0.5)), Ordering::Less);
        assert_eq!(
            rank_order(&result(7, 0.5), &result(2, 0.5)),
            Ordering::Greater
        );
    }

    #[test]
    fn tied_results_sort_identically_from_any_initial_order() {
        // The regression this comparator guards against: equal-relevancy
        // results coming out in HashMap iteration order.
        let mut a: Vec<SearchResult> = (0..20).rev().map(|p| result(p, 0.5)).collect();
        let mut b: Vec<SearchResult> = (0..20).map(|p| result((p * 7) % 20, 0.5)).collect();
        a.sort_by(rank_order);
        b.sort_by(rank_order);
        let ids = |v: &[SearchResult]| v.iter().map(|r| r.paper).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
        assert_eq!(ids(&a), (0..20).map(PaperId).collect::<Vec<_>>());
    }

    #[test]
    fn nan_relevancy_sorts_deterministically_and_never_panics() {
        // Before the total_cmp migration this comparator was
        // `partial_cmp(..).unwrap_or(Equal)`: a NaN score compared
        // "equal to everything", so its final position depended on the
        // input permutation. Under IEEE 754 totalOrder, positive NaN
        // sorts above +inf — in this descending comparator, NaN-scored
        // results surface at the front, identically from any order.
        let scores = [f64::NAN, 0.7, f64::NAN, 0.1, f64::INFINITY, 0.4];
        let mut fwd: Vec<SearchResult> = scores
            .iter()
            .enumerate()
            .map(|(p, &s)| result(p as u32, s))
            .collect();
        let mut rev: Vec<SearchResult> = fwd.clone();
        rev.reverse();
        fwd.sort_by(rank_order);
        rev.sort_by(rank_order);
        let ids = |v: &[SearchResult]| v.iter().map(|r| r.paper).collect::<Vec<_>>();
        assert_eq!(
            ids(&fwd),
            ids(&rev),
            "NaN must not make order input-dependent"
        );
        assert_eq!(
            ids(&fwd),
            [0, 2, 4, 1, 5, 3].map(PaperId).to_vec(),
            "NaN > +inf > finite, ties by paper id"
        );
    }

    #[test]
    fn negative_zero_relevancy_stays_adjacent_to_positive_zero() {
        // totalOrder distinguishes -0.0 from +0.0; the paper tie-break
        // no longer applies across the pair, but the order is still a
        // pure function of the inputs.
        let mut v = [result(3, -0.0), result(1, 0.0), result(2, 0.0)];
        v.sort_by(rank_order);
        let ids: Vec<PaperId> = v.iter().map(|r| r.paper).collect();
        assert_eq!(
            ids,
            [1, 2, 3].map(PaperId).to_vec(),
            "+0.0 ranks above -0.0"
        );
    }
}
