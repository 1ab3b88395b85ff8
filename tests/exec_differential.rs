//! Differential proof for the columnar execution core: the dense-ID
//! scratch + merge-intersection + bounded top-k path must reproduce the
//! old map-shaped algorithm **byte for byte** — same papers, same
//! float bits, same winning contexts — cold-built, warm-loaded from a
//! snapshot (both current and version-1 layouts), single-threaded and
//! across 8 concurrent threads.
//!
//! The reference implementation below is the pre-columnar algorithm
//! kept verbatim: keyword scores collected into a `HashMap`, a nested
//! context × prestige-pair loop with first-wins best tracking, a full
//! sort, then truncate.

use litsearch::context_search::persist::{
    load_snapshot, prestige_from_json, save_snapshot, PrestigeFile,
};
use litsearch::context_search::search::{relevancy, select_contexts};
use litsearch::context_search::{
    ContextPaperSets, ContextSetKind, EngineConfig, PrestigeScores, ScoreFunction, SearchResult,
    Searcher,
};
use litsearch::corpus::PaperId;
use litsearch::demo::{snapshot, Scale};
use proptest::prelude::*;
use std::collections::HashMap;

/// The pre-columnar execution algorithm, reference copy.
fn reference_search(
    e: &Searcher,
    sets: &ContextPaperSets,
    prestige: &PrestigeScores,
    query: &str,
    limit: usize,
) -> Vec<SearchResult> {
    let tokens = e.corpus().analyze_known(query);
    let contexts = select_contexts(&tokens, e.index(), sets, &e.config().selection);
    let matching: HashMap<PaperId, f64> = e.keyword_search(query, 0.0).into_iter().collect();
    let mut best: HashMap<PaperId, SearchResult> = HashMap::new();
    for (context, _ctx_score) in contexts {
        for &(paper, pscore) in prestige.scores(context).iter() {
            let Some(&m) = matching.get(&paper) else {
                continue;
            };
            let r = relevancy(pscore, m, &e.config().relevancy);
            let candidate = SearchResult {
                paper,
                relevancy: r,
                matching: m,
                prestige: pscore,
                context,
            };
            best.entry(paper)
                .and_modify(|cur| {
                    if r > cur.relevancy {
                        *cur = candidate;
                    }
                })
                .or_insert(candidate);
        }
    }
    let mut out: Vec<SearchResult> = best.into_values().collect();
    out.sort_by(|a, b| {
        b.relevancy
            .total_cmp(&a.relevancy)
            .then(a.paper.cmp(&b.paper))
    });
    if limit > 0 {
        out.truncate(limit);
    }
    out
}

fn assert_bitwise_eq(a: &[SearchResult], b: &[SearchResult], tag: &str) {
    assert_eq!(a.len(), b.len(), "{tag}: result counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.paper, y.paper, "{tag}: paper at rank {i}");
        assert_eq!(
            x.relevancy.to_bits(),
            y.relevancy.to_bits(),
            "{tag}: relevancy bits at rank {i} ({} vs {})",
            x.relevancy,
            y.relevancy
        );
        assert_eq!(
            x.matching.to_bits(),
            y.matching.to_bits(),
            "{tag}: matching bits at rank {i}"
        );
        assert_eq!(
            x.prestige.to_bits(),
            y.prestige.to_bits(),
            "{tag}: prestige bits at rank {i}"
        );
        assert_eq!(x.context, y.context, "{tag}: winning context at rank {i}");
    }
}

/// A query mix that exercises every execution shape: exact term names
/// (dense candidate overlap), multi-term paraphrases, an unknown word,
/// and the empty query.
fn query_mix(e: &Searcher) -> Vec<String> {
    let onto = e.ontology();
    let mut queries: Vec<String> = onto
        .term_ids()
        .take(8)
        .map(|t| onto.term(t).name.clone())
        .collect();
    let paired: Vec<String> = queries
        .chunks(2)
        .map(|pair| pair.join(" "))
        .take(4)
        .collect();
    queries.extend(paired);
    queries.push("membrane transport regulation".to_string());
    queries.push("zzzzz unknown words only".to_string());
    queries.push(String::new());
    queries
}

const LIMITS: [usize; 5] = [0, 1, 3, 10, 100];

const PATTERN: ContextSetKind = ContextSetKind::PatternBased;

#[test]
fn columnar_execution_matches_reference_bit_for_bit() {
    for seed in [9, 40] {
        let e = snapshot(Scale::Tiny, seed).searcher();
        for (kind, function, tag) in [
            (PATTERN, ScoreFunction::Pattern, "pattern/pattern"),
            (PATTERN, ScoreFunction::Citation, "pattern/citation"),
            (ContextSetKind::TextBased, ScoreFunction::Text, "text/text"),
        ] {
            let sets = e.sets(kind);
            let prestige = e.prestige(kind, function).expect("standard pair");
            for q in query_mix(&e) {
                for limit in LIMITS {
                    let columnar = e.query(&q, kind, function, limit).expect("standard pair");
                    let reference = reference_search(&e, sets, prestige, &q, limit);
                    assert_bitwise_eq(
                        &columnar,
                        &reference,
                        &format!("seed {seed} {tag} limit {limit} query {q:?}"),
                    );
                }
            }
        }
    }
}

#[test]
fn columnar_execution_is_identical_across_8_threads() {
    // Each thread has its own scratch pool; results must not depend on
    // which thread (or how warm a scratch) executes the query.
    let e = snapshot(Scale::Tiny, 9).searcher();
    let sets = e.sets(PATTERN);
    let prestige = e.prestige(PATTERN, ScoreFunction::Pattern).unwrap();
    let queries = query_mix(&e);
    let reference: Vec<Vec<SearchResult>> = queries
        .iter()
        .map(|q| reference_search(&e, sets, prestige, q, 10))
        .collect();
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let (e, queries, reference) = (&e, &queries, &reference);
            scope.spawn(move || {
                // Interleave repeats so scratch reuse (epoch bumping)
                // is exercised against every query shape.
                for round in 0..3 {
                    for (q, want) in queries.iter().zip(reference) {
                        let got = e.query(q, PATTERN, ScoreFunction::Pattern, 10).unwrap();
                        assert_bitwise_eq(
                            &got,
                            want,
                            &format!("worker {worker} round {round} query {q:?}"),
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn warm_snapshots_v2_and_v1_match_the_cold_reference() {
    let seed = 9;
    let snap = snapshot(Scale::Tiny, seed);
    let dir = std::env::temp_dir().join(format!("litsearch_execdiff_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_snapshot(&snap, &dir).expect("save");

    // The cold, never-persisted snapshot drives the reference
    // implementation.
    let e = snap.searcher();

    let v2 = load_snapshot(&dir, EngineConfig::default()).expect("v2 load");

    // Downgrade the directory to the version-1 layout: pair-shaped
    // prestige files and a version-1 header — what an old deployment's
    // snapshots look like on disk.
    for (kind, function) in snap.pairs() {
        let path = dir.join(format!("prestige_{}_{}.json", kind.name(), function.name()));
        let table = prestige_from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let v1_file = PrestigeFile {
            function: table.function.name().to_string(),
            scores: table
                .contexts()
                .map(|c| {
                    (
                        c.0,
                        table.scores(c).iter().map(|&(p, s)| (p.0, s)).collect(),
                    )
                })
                .collect(),
        };
        std::fs::write(&path, serde_json::to_string(&v1_file).unwrap()).unwrap();
    }
    let header_path = dir.join("snapshot.json");
    let header = std::fs::read_to_string(&header_path).unwrap();
    assert!(header.contains("\"version\": 2"), "{header}");
    std::fs::write(
        &header_path,
        header.replace("\"version\": 2", "\"version\": 1"),
    )
    .unwrap();
    let v1 = load_snapshot(&dir, EngineConfig::default()).expect("v1 load");

    let (sv2, sv1) = (v2.searcher(), v1.searcher());
    for (kind, function) in snap.pairs() {
        let sets = e.sets(kind);
        let prestige = e.prestige(kind, function).expect("prepared pair");
        for q in query_mix(&e) {
            for limit in [0usize, 10] {
                let want = reference_search(&e, sets, prestige, &q, limit);
                let got_v2 = sv2.query(&q, kind, function, limit).expect("v2 query");
                let got_v1 = sv1.query(&q, kind, function, limit).expect("v1 query");
                let tag = format!(
                    "{}/{} limit {limit} query {q:?}",
                    kind.name(),
                    function.name()
                );
                assert_bitwise_eq(&got_v2, &want, &format!("v2 snapshot vs reference: {tag}"));
                assert_bitwise_eq(&got_v1, &got_v2, &format!("v1 snapshot vs v2: {tag}"));
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

fn shared_engine() -> &'static Searcher {
    static CELL: std::sync::OnceLock<Searcher> = std::sync::OnceLock::new();
    CELL.get_or_init(|| snapshot(Scale::Tiny, 17).searcher())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The bounded top-k heap is exactly full-sort-then-truncate, for
    /// arbitrary queries and limits. Real corpora make relevancy ties
    /// common (shared prestige values × identical match scores), so
    /// this continually exercises the PaperId tie-break through the
    /// heap's eviction decisions.
    #[test]
    fn bounded_top_k_equals_sort_then_truncate(
        query in "[a-z ]{2,30}",
        limit in 1usize..40,
    ) {
        let e = shared_engine();
        let full = e.query(&query, PATTERN, ScoreFunction::Pattern, 0).unwrap();
        let bounded = e.query(&query, PATTERN, ScoreFunction::Pattern, limit).unwrap();
        prop_assert_eq!(bounded.len(), full.len().min(limit));
        for (i, (x, y)) in bounded.iter().zip(&full).enumerate() {
            prop_assert_eq!(x.paper, y.paper, "rank {} of query {:?}", i, &query);
            prop_assert_eq!(x.relevancy.to_bits(), y.relevancy.to_bits());
            prop_assert_eq!(x.context, y.context);
        }
    }
}
