//! Lock-free serving over an immutable [`EngineSnapshot`].
//!
//! A [`Searcher`] is a cheap, cloneable handle (`Arc` clone) that any
//! number of threads can use concurrently: every query reads only the
//! snapshot's immutable state (the query methods live in
//! `search/exec.rs`), so the hot path takes zero locks — no `RwLock`,
//! no lazy initialization, no interior mutability of any kind. Results
//! are deterministic and identical across threads (asserted by the
//! `snapshot_serving` integration test).

use crate::context::{ContextPaperSets, ContextSetKind};
use crate::prestige::{PrestigeScores, ScoreFunction};
use crate::search::exec::{QueryStats, SearchResult};
use crate::snapshot::EngineSnapshot;
use std::collections::HashMap;
use std::sync::Arc;

/// A serve-time problem: the snapshot lacks a requested table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The snapshot was prepared without this (paper set, function)
    /// prestige pair.
    MissingPrestige {
        /// The requested paper-set kind.
        kind: ContextSetKind,
        /// The requested score function.
        function: ScoreFunction,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingPrestige { kind, function } => write!(
                f,
                "snapshot has no prestige table for ({}, {}); prepare it with that pair",
                kind.name(),
                function.name()
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// A lock-free query handle over a shared [`EngineSnapshot`].
#[derive(Clone)]
pub struct Searcher {
    snapshot: Arc<EngineSnapshot>,
    /// Immutable prestige-table overrides consulted before the
    /// snapshot's own tables: the perturbation/ablation hook (what-if
    /// serving, quality-drift injection in tests). `None` on the
    /// ordinary serve path, so the common case costs one branch.
    overrides: Option<Arc<HashMap<(ContextSetKind, ScoreFunction), PrestigeScores>>>,
}

impl Searcher {
    /// Wrap a snapshot.
    pub fn new(snapshot: Arc<EngineSnapshot>) -> Self {
        Self {
            snapshot,
            overrides: None,
        }
    }

    /// A handle that serves `(kind, function)` from `scores` instead of
    /// the snapshot's prepared table. Other pairs are unaffected; the
    /// snapshot itself is untouched, so handles with and without the
    /// override serve concurrently from the same memory. This is the
    /// what-if/ablation hook — the quality gate's tests use it to
    /// inject a degraded prestige function and prove drift detection
    /// fires.
    pub fn with_prestige_override(
        &self,
        kind: ContextSetKind,
        function: ScoreFunction,
        scores: PrestigeScores,
    ) -> Self {
        let mut map = self
            .overrides
            .as_ref()
            .map(|m| (**m).clone())
            .unwrap_or_default();
        map.insert((kind, function), scores);
        Self {
            snapshot: Arc::clone(&self.snapshot),
            overrides: Some(Arc::new(map)),
        }
    }

    /// The underlying snapshot.
    pub fn snapshot(&self) -> &Arc<EngineSnapshot> {
        &self.snapshot
    }

    /// The ontology.
    pub fn ontology(&self) -> &ontology::Ontology {
        self.snapshot.ontology()
    }

    /// The corpus.
    pub fn corpus(&self) -> &corpus::Corpus {
        self.snapshot.corpus()
    }

    /// The configuration.
    pub fn config(&self) -> &crate::config::EngineConfig {
        self.snapshot.config()
    }

    /// The prepared index state.
    pub fn index(&self) -> &crate::indexes::CorpusIndex {
        self.snapshot.index()
    }

    /// One of the two §4 context paper sets.
    pub fn sets(&self, kind: ContextSetKind) -> &ContextPaperSets {
        self.snapshot.sets(kind)
    }

    /// A prepared prestige table, if the snapshot (or an override
    /// installed with
    /// [`with_prestige_override`](Self::with_prestige_override)) has
    /// it.
    pub fn prestige(
        &self,
        kind: ContextSetKind,
        function: ScoreFunction,
    ) -> Option<&PrestigeScores> {
        if let Some(overrides) = &self.overrides {
            if let Some(table) = overrides.get(&(kind, function)) {
                return Some(table);
            }
        }
        self.snapshot.prestige(kind, function)
    }

    /// Serve one query against a prepared (paper set, function) pair.
    pub fn query(
        &self,
        query: &str,
        kind: ContextSetKind,
        function: ScoreFunction,
        limit: usize,
    ) -> Result<Vec<SearchResult>, ServeError> {
        self.query_with_stats(query, kind, function, limit)
            .map(|(results, _)| results)
    }

    /// [`query`](Self::query) plus the execution's [`QueryStats`].
    /// This is the serve path proper: it carries the `serve.query` span
    /// (the end-to-end latency series the rolling windows and SLOs
    /// watch) and the `serve.queries` / `serve.errors` counters.
    pub fn query_with_stats(
        &self,
        query: &str,
        kind: ContextSetKind,
        function: ScoreFunction,
        limit: usize,
    ) -> Result<(Vec<SearchResult>, QueryStats), ServeError> {
        let _span = obs::span("serve.query");
        obs::counter("serve.queries", 1);
        let Some(prestige) = self.prestige(kind, function) else {
            obs::counter("serve.errors", 1);
            return Err(ServeError::MissingPrestige { kind, function });
        };
        Ok(self.search_with_stats(query, self.sets(kind), prestige, limit))
    }

    /// Recompute a prestige table with explicit options (ablation hook;
    /// not a serve-path operation — it does offline-phase work).
    ///
    /// # Panics
    /// For [`ScoreFunction::Pattern`] on a warm-loaded snapshot: mined
    /// patterns are not persisted, so pattern prestige cannot be
    /// recomputed from disk.
    pub fn prestige_with_options(
        &self,
        sets: &ContextPaperSets,
        function: ScoreFunction,
        simplified: bool,
        propagate: bool,
    ) -> PrestigeScores {
        crate::prestige::compute_prestige(
            self.ontology(),
            self.corpus(),
            self.index(),
            self.config(),
            sets,
            function,
            simplified,
            propagate,
            || {
                // lint:allow(no-panic-serving, ablation-only hook: pattern prestige is never requested on warm-loaded snapshots and the message documents the contract)
                Arc::clone(self.snapshot.patterns().expect(
                    "pattern prestige needs mined patterns; \
                     warm-loaded snapshots do not carry them",
                ))
            },
        )
    }

    /// The §7 weighted cross-context citation function.
    pub fn weighted_citation_prestige(
        &self,
        sets: &ContextPaperSets,
        weights: &crate::prestige::citation_weighted::CrossContextWeights,
    ) -> PrestigeScores {
        let mut scores = crate::prestige::citation_weighted::weighted_citation_prestige(
            self.ontology(),
            sets,
            &self.index().graph,
            self.config(),
            weights,
        );
        scores.propagate_hierarchy_max(self.ontology(), sets);
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use corpus::{generate_corpus, CorpusConfig};
    use ontology::{generate_ontology, GeneratorConfig};

    fn testbed() -> (ontology::Ontology, corpus::Corpus) {
        let onto = generate_ontology(&GeneratorConfig {
            n_terms: 70,
            seed: 11,
            ..Default::default()
        });
        let corp = generate_corpus(
            &onto,
            &CorpusConfig {
                n_papers: 160,
                seed: 13,
                body_len: (40, 60),
                abstract_len: (20, 30),
                ..Default::default()
            },
        );
        (onto, corp)
    }

    #[test]
    fn searcher_matches_the_engine_exactly() {
        // `query` resolves the snapshot's own tables; `search` with those
        // tables passed explicitly must give the same results bit for bit.
        let (onto, corp) = testbed();
        let searcher = EngineSnapshot::prepare(onto, corp, EngineConfig::default()).searcher();
        for (kind, function) in searcher.snapshot().pairs() {
            let sets = searcher.sets(kind);
            let prestige = searcher.prestige(kind, function).unwrap();
            for query in ["biological process", "binding", "molecular function"] {
                let via_query = searcher.query(query, kind, function, 0).unwrap();
                let via_search = searcher.search(query, sets, prestige, 0);
                assert_eq!(via_query.len(), via_search.len(), "query {query:?}");
                for (a, b) in via_query.iter().zip(&via_search) {
                    assert_eq!(a.paper, b.paper);
                    assert_eq!(a.relevancy.to_bits(), b.relevancy.to_bits());
                    assert_eq!(a.matching.to_bits(), b.matching.to_bits());
                    assert_eq!(a.prestige.to_bits(), b.prestige.to_bits());
                    assert_eq!(a.context, b.context);
                }
            }
        }
    }

    #[test]
    fn missing_pair_is_a_clean_error() {
        let (onto, corp) = testbed();
        let snap = EngineSnapshot::prepare_with(
            onto,
            corp,
            EngineConfig::default(),
            crate::snapshot::PrepareOptions {
                pairs: vec![(ContextSetKind::TextBased, ScoreFunction::Citation)],
            },
        );
        let err = snap
            .searcher()
            .query(
                "binding",
                ContextSetKind::PatternBased,
                ScoreFunction::Pattern,
                5,
            )
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::MissingPrestige {
                kind: ContextSetKind::PatternBased,
                function: ScoreFunction::Pattern
            }
        );
        assert!(err.to_string().contains("pattern"));
    }

    #[test]
    fn cloned_handles_share_the_snapshot() {
        let (onto, corp) = testbed();
        let snap = EngineSnapshot::prepare_with(
            onto,
            corp,
            EngineConfig::default(),
            crate::snapshot::PrepareOptions {
                pairs: vec![(ContextSetKind::TextBased, ScoreFunction::Citation)],
            },
        );
        let a = snap.searcher();
        let b = a.clone();
        assert!(Arc::ptr_eq(a.snapshot(), b.snapshot()));
    }
}
