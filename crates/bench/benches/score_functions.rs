//! Criterion benchmarks of the paper's three prestige score functions
//! and the end-to-end pipeline stages, on a small shared testbed.

use context_search::assign::{build_pattern_sets, build_text_sets};
use context_search::{ContextSetKind, EngineConfig, EngineSnapshot, ScoreFunction, Searcher};
use corpus::{generate_corpus, CorpusConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use ontology::{generate_ontology, GeneratorConfig};
use std::hint::black_box;

fn build_engine() -> Searcher {
    let onto = generate_ontology(&GeneratorConfig {
        n_terms: 150,
        seed: 3,
        ..Default::default()
    });
    let corp = generate_corpus(
        &onto,
        &CorpusConfig {
            n_papers: 800,
            seed: 5,
            body_len: (80, 140),
            abstract_len: (30, 60),
            ..Default::default()
        },
    );
    EngineSnapshot::prepare(onto, corp, EngineConfig::default()).searcher()
}

fn bench_pipeline(c: &mut Criterion) {
    let engine = build_engine();
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);

    let (onto, corp, index, config) = (
        engine.ontology(),
        engine.corpus(),
        engine.index(),
        engine.config(),
    );
    let patterns = engine
        .snapshot()
        .patterns()
        .expect("cold prepare keeps patterns");
    group.bench_function("text_context_sets", |b| {
        b.iter(|| black_box(build_text_sets(onto, corp, index, config)))
    });
    group.bench_function("pattern_context_sets", |b| {
        // Patterns are mined once by prepare; this measures the
        // assignment sweep itself.
        b.iter(|| black_box(build_pattern_sets(onto, corp, index, patterns, config)))
    });

    let tsets = engine.sets(ContextSetKind::TextBased);
    let psets = engine.sets(ContextSetKind::PatternBased);
    let prestige = |sets, function| engine.prestige_with_options(sets, function, true, true);
    group.bench_function("prestige/citation", |b| {
        b.iter(|| black_box(prestige(psets, ScoreFunction::Citation)))
    });
    group.bench_function("prestige/text", |b| {
        b.iter(|| black_box(prestige(tsets, ScoreFunction::Text)))
    });
    group.bench_function("prestige/pattern", |b| {
        b.iter(|| black_box(prestige(psets, ScoreFunction::Pattern)))
    });
    group.finish();

    let prestige = engine
        .prestige(ContextSetKind::PatternBased, ScoreFunction::Pattern)
        .expect("default pair");
    let term = engine
        .ontology()
        .term_ids()
        .find(|&t| engine.ontology().level(t) == 3)
        .expect("level-3 term");
    let query = engine.ontology().term(term).name.clone();
    let mut group = c.benchmark_group("query");
    group.bench_function("context_search", |b| {
        b.iter(|| black_box(engine.search(black_box(&query), psets, prestige, 20)))
    });
    group.bench_function("keyword_baseline", |b| {
        b.iter(|| black_box(engine.keyword_search(black_box(&query), 0.0)))
    });
    group.bench_function("ac_answer_set", |b| {
        b.iter(|| black_box(engine.ac_answer_set(black_box(&query))))
    });
    group.finish();
}

/// The search hot path with telemetry off vs on. The disabled cost is
/// one relaxed atomic load per instrumentation site; enabled adds span
/// bookkeeping. Compare the two medians — enabled must stay within a
/// few percent of disabled.
fn bench_obs_overhead(c: &mut Criterion) {
    let engine = build_engine();
    let psets = engine.sets(ContextSetKind::PatternBased);
    let prestige = engine
        .prestige(ContextSetKind::PatternBased, ScoreFunction::Pattern)
        .expect("default pair");
    let term = engine
        .ontology()
        .term_ids()
        .find(|&t| engine.ontology().level(t) == 3)
        .expect("level-3 term");
    let query = engine.ontology().term(term).name.clone();

    let mut group = c.benchmark_group("obs_overhead");
    obs::disable();
    group.bench_function("search/telemetry_off", |b| {
        b.iter(|| black_box(engine.search(black_box(&query), psets, prestige, 20)))
    });
    obs::enable();
    group.bench_function("search/telemetry_on", |b| {
        b.iter(|| black_box(engine.search(black_box(&query), psets, prestige, 20)))
    });
    obs::disable();
    obs::reset();
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_obs_overhead);
criterion_main!(benches);
