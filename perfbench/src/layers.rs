//! The traced run: per-layer numbers, timed from outside the program.
//!
//! The run generates the workload's inputs once, then calls each
//! layer's public functions on them in sequence with a benchmark span
//! around every call ([`crate::trace::Tracer`]):
//!
//! - prepare: the plan's stages one after another (index, both context
//!   sets, pattern mining, five prestige tables and their propagation),
//!   `EngineSnapshot::prepare` with one build thread, the stages again,
//!   and `EngineSnapshot::prepare` with two build threads;
//! - persist: `save_snapshot`, then the load split into reading files,
//!   parsing each file kind and rebuilding the index, then the whole
//!   `load_snapshot`;
//! - query: `query_vector`, `select_contexts`, `keyword_search_columns`
//!   and `query_with_stats` per input of the closed-loop stream;
//! - serve: `parse_request`, `handle_request`, `Response::to_bytes`,
//!   `Searcher::query` and `encode_results` per wire input, then a
//!   short open loop and a closed loop against the deployed server;
//! - obs: `Searcher::query` with the server's telemetry (enable +
//!   rolling windows) on and off.
//!
//! Layers whose time is defined as a remainder (`search.rank`,
//! `persist.load_other`, `serve.wire_overhead`) are the end-to-end call
//! minus its directly timed parts on the same input.
//!
//! Two figures judge the trace itself. `trace_overhead` compares the
//! traced query operation (its root span, which holds every timed layer
//! call) with `Searcher::query` untraced on the same inputs.
//! `unattributed_share` is 1 minus the stage passes' time over the
//! one-thread plan's: the plan runs between two stage passes, so a
//! drift of the host's speed during the run affects both sides alike.

use crate::check::same_results;
use crate::mix::{NoRepeat, Rng, WireMix, PAIRS};
use crate::phases::{
    check_warm_against_fresh, generate_world, prepare_config, query, server_counters, WireClient,
    CHECK_MIX, TEXT_ROUNDS,
};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::wire::{search_request, Server};
use crate::{Args, Report};
use context_search::assign::{build_pattern_sets, build_text_sets, patterns_by_context};
use context_search::indexes::CorpusIndex;
use context_search::persist::{
    context_sets_from_json, load_snapshot, prestige_from_json, save_snapshot,
};
use context_search::prestige::{
    citation::citation_prestige, pattern::pattern_prestige, text::text_prestige,
};
use context_search::{
    ContextSetKind, EngineConfig, EngineSnapshot, PrepareOptions, PrestigeScores, ScoreFunction,
};
use corpus::Corpus;
use ontology::Ontology;
use serve::handler::handle_request;
use serve::{parse_request, AppState, Parsed, SearchDefaults};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::time::Instant;

/// Load splits per run (medians are reported).
const LOAD_REPEATS: usize = 3;

/// Closed-loop inputs timed per query layer.
const TRACE_QUERIES: u64 = 2000;

/// Wire inputs timed per serve layer, and queries per telemetry pass.
const SERVE_OPS: usize = 2000;

/// Queries per telemetry on/off block.
const OBS_BLOCK: usize = 50;

/// Operation ids of the two stage passes.
const STAGE_OPS: [u64; 2] = [1, 3];

/// The plan's stages, in sequence.
const STAGE_NAMES: [&str; 8] = [
    "indexes.build",
    "assign.text_sets",
    "assign.patterns",
    "assign.pattern_sets",
    "prestige.citation",
    "prestige.text",
    "prestige.pattern",
    "prestige.propagate",
];

/// One pass over the plan's stages.
struct StagePass {
    /// Sum of the stage spans, ns.
    ns: f64,
    /// Prestige entries, text-set members, pattern-set members.
    counts: (usize, usize, usize),
}

/// Papers over all contexts of a paper-set family.
fn members(s: &context_search::ContextPaperSets) -> usize {
    s.contexts().map(|c| s.members(c).len()).sum()
}

/// Run the plan's stages one after another, each in its own span under
/// operation `op`.
fn stage_pass(tr: &mut Tracer, ontology: &Ontology, corpus: &Corpus, op: u64) -> StagePass {
    let cfg = prepare_config();
    let root = tr.begin("op.prepare_stages", op);
    let index = tr.span("indexes.build", op, || {
        CorpusIndex::build(ontology, corpus, &cfg.pagerank)
    });
    let text_sets = tr.span("assign.text_sets", op, || {
        build_text_sets(ontology, corpus, &index, &cfg)
    });
    let patterns = tr.span("assign.patterns", op, || {
        patterns_by_context(ontology, corpus, &index, &cfg)
    });
    let pattern_sets = tr.span("assign.pattern_sets", op, || {
        build_pattern_sets(ontology, corpus, &index, &patterns, &cfg)
    });
    let mut entries = 0usize;
    for (kind, function) in PAIRS {
        let sets = match kind {
            ContextSetKind::TextBased => &text_sets,
            ContextSetKind::PatternBased => &pattern_sets,
        };
        let mut scores: PrestigeScores = match (kind, function) {
            (_, ScoreFunction::Citation) => tr.span("prestige.citation", op, || {
                citation_prestige(sets, &index.graph, &cfg)
            }),
            (ContextSetKind::PatternBased, ScoreFunction::Text) => {
                tr.span("prestige.text", op, || {
                    // As prepare does: the pattern sets carrying the text
                    // sets' representatives.
                    let mut view = sets.clone();
                    view.representatives = text_sets.representatives.clone();
                    text_prestige(&view, corpus, &index, &cfg)
                })
            }
            (_, ScoreFunction::Text) => tr.span("prestige.text", op, || {
                text_prestige(sets, corpus, &index, &cfg)
            }),
            (_, ScoreFunction::Pattern) => tr.span("prestige.pattern", op, || {
                pattern_prestige(ontology, sets, corpus, &index, &patterns, &cfg, true)
            }),
        };
        tr.span("prestige.propagate", op, || {
            scores.propagate_hierarchy_max(ontology, sets)
        });
        entries += scores
            .contexts()
            .map(|c| scores.columns(c).0.len())
            .sum::<usize>();
    }
    tr.end(root);
    StagePass {
        ns: STAGE_NAMES.iter().map(|n| sum_ns(tr, n, op)).sum(),
        counts: (entries, members(&text_sets), members(&pattern_sets)),
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Sum of the durations of the spans named `name` under op `op`.
fn sum_ns(tr: &Tracer, name: &str, op: u64) -> f64 {
    tr.spans()
        .iter()
        .filter(|s| s.name == name && s.op == op)
        .map(|s| s.duration_ns() as f64)
        .sum()
}

/// The traced run.
pub fn run(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    let spec = &args.spec;
    let mut tr = Tracer::default();
    let cfg = prepare_config();

    // corpus / ontology generation (op 0).
    let (ontology, corpus) = tr.span("corpus.generate", 0, || generate_world(spec));
    let texts = crate::mix::concept_texts(&ontology, &corpus, args.seed, TEXT_ROUNDS);

    // Stage pass, one-thread plan, stage pass (op 1), then the
    // two-thread plan.
    let first = stage_pass(&mut tr, &ontology, &corpus, STAGE_OPS[0]);
    let (o, c) = (ontology.clone(), corpus.clone());
    let sequential_cfg = EngineConfig {
        build_threads: 1,
        ..prepare_config()
    };
    let s = tr.begin("prepare.plan_1_thread", 1);
    let sequential = EngineSnapshot::prepare_with(o, c, sequential_cfg, PrepareOptions::default());
    tr.end(s);
    drop(sequential);
    let second = stage_pass(&mut tr, &ontology, &corpus, STAGE_OPS[1]);
    if first.counts != second.counts {
        return Err("the two stage passes built different context sets".into());
    }
    let (entries, text_members, pattern_members) = first.counts;
    let (o, c) = (ontology.clone(), corpus.clone());
    let p = tr.begin("prepare.plan_2_threads", 1);
    let fresh = EngineSnapshot::prepare(o, c, cfg.clone());
    tr.end(p);
    let stages_ns = (first.ns + second.ns) / 2.0;
    let plan1_ns = sum_ns(&tr, "prepare.plan_1_thread", 1);
    let plan2_ns = sum_ns(&tr, "prepare.plan_2_threads", 1);
    if text_members != members(fresh.sets(ContextSetKind::TextBased))
        || pattern_members != members(fresh.sets(ContextSetKind::PatternBased))
    {
        return Err("staged context sets differ from the prepared snapshot".into());
    }
    // Persist (op 2): save, then the load split, then the whole load.
    let dir = work.join("snapshot");
    tr.span("persist.save", 2, || save_snapshot(&fresh, &dir))
        .map_err(|e| format!("save_snapshot: {e}"))?;
    let mut bytes: BTreeMap<&str, u64> = BTreeMap::new();
    for entry in std::fs::read_dir(&dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let category = if name == "corpus.json" {
            "corpus"
        } else if name.starts_with("sets_") {
            "sets"
        } else if name.starts_with("prestige_") {
            "prestige"
        } else {
            "other"
        };
        *bytes.entry(category).or_default() += entry.metadata().map_err(|e| e.to_string())?.len();
    }
    let load_parts = [
        "persist.read",
        "persist.parse_ontology",
        "persist.parse_corpus",
        "persist.parse_sets",
        "persist.parse_prestige",
        "persist.index_rebuild",
    ];
    let mut part_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut load_other_ms = Vec::new();
    let mut warm = None;
    for r in 0..LOAD_REPEATS {
        let op = 100 + r as u64;
        let root = tr.begin("op.load_parts", op);
        let files = tr.span(
            "persist.read",
            op,
            || -> Result<HashMap<String, String>, String> {
                let mut files = HashMap::new();
                for entry in std::fs::read_dir(&dir).map_err(|e| e.to_string())? {
                    let path = entry.map_err(|e| e.to_string())?.path();
                    let raw = std::fs::read(&path).map_err(|e| e.to_string())?;
                    let text = String::from_utf8(raw).map_err(|e| e.to_string())?;
                    let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
                    files.insert(name.unwrap_or_default(), text);
                }
                Ok(files)
            },
        )?;
        let file = |name: &str| files.get(name).ok_or(format!("snapshot lacks {name}"));
        let o = tr.span("persist.parse_ontology", op, || {
            ontology::obo::parse_obo(file("ontology.obo")?).map_err(|e| e.to_string())
        })?;
        let c = tr.span("persist.parse_corpus", op, || {
            Corpus::from_json(file("corpus.json")?).map_err(|e| e.to_string())
        })?;
        tr.span("persist.parse_sets", op, || -> Result<(), String> {
            for kind in ["text", "pattern"] {
                context_sets_from_json(file(&format!("sets_{kind}.json"))?)
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        tr.span("persist.parse_prestige", op, || -> Result<(), String> {
            for (kind, function) in PAIRS {
                let name = format!("prestige_{}_{}.json", kind.name(), function.name());
                prestige_from_json(file(&name)?).map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        tr.span("persist.index_rebuild", op, || {
            CorpusIndex::build(&o, &c, &EngineConfig::default().pagerank)
        });
        tr.end(root);
        drop(files);
        let loaded = tr.span("persist.load_snapshot", op, || {
            load_snapshot(&dir, EngineConfig::default())
        });
        warm = Some(loaded.map_err(|e| format!("load_snapshot: {e}"))?);
        let mut parts = 0.0;
        for name in load_parts {
            let v = sum_ns(&tr, name, op);
            parts += v;
            part_ms.entry(name).or_default().push(ms(v));
        }
        load_other_ms.push(ms(sum_ns(&tr, "persist.load_snapshot", op) - parts));
    }
    let warm = warm.expect("loaded").searcher();
    let fresh = fresh.searcher();
    let stream = NoRepeat::new(texts.clone(), args.seed);
    let (check_failed, digest) = check_warm_against_fresh(&fresh, &warm, &stream, false)?;
    report.ops(CHECK_MIX, check_failed);

    // Query layers (ops from 1000).
    let mut scratch = textproc::CandidateScratch::new();
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut e2e_traced, mut e2e_untraced) = (Vec::new(), Vec::new());
    let (mut selected, mut candidates, mut scored, mut pushes, mut results) = (0, 0, 0, 0, 0);
    let mut long = 0usize;
    let mut k = 0u64;
    let index = warm.index();
    while k < TRACE_QUERIES.min(stream.len()) {
        let input = stream.input(k).ok_or("stream ended")?;
        let op = 1000 + k;
        let (kind, function) = input.kind_function();
        // The untraced end-to-end call, alternately before and after the
        // traced operation, so that neither side always runs warmer.
        let untraced = || {
            let t = Instant::now();
            let out = query(&warm, &input);
            (out, t.elapsed().as_nanos() as f64)
        };
        let mut bare = None;
        if k.is_multiple_of(2) {
            bare = Some(untraced());
        }
        let root = tr.begin("op.query", op);
        let qvec = tr.span("textproc.analyze", op, || {
            index.query_vector(warm.corpus(), &input.query)
        });
        let analyze_ns = tr.last_ns();
        tr.span("search.select", op, || {
            std::hint::black_box(warm.select_contexts(&input.query, warm.sets(kind)))
        });
        let select_ns = tr.last_ns();
        tr.span("search.candidates", op, || {
            index.keyword_search_columns(&qvec, 0.0, &mut scratch)
        });
        let candidates_ns = tr.last_ns();
        let answer = tr.span("search.query_with_stats", op, || {
            warm.query_with_stats(&input.query, kind, function, input.limit)
        });
        let e2e_ns = tr.last_ns();
        tr.end(root);
        let op_ns = tr.last_ns();
        if bare.is_none() {
            bare = Some(untraced());
        }
        let (bare_answer, bare_ns) = bare.expect("timed");
        let (got, stats) = answer.map_err(|e| e.to_string())?;
        let expected = query(&fresh, &input)?;
        let same =
            same_results(&got, &expected) && bare_answer.is_ok_and(|r| same_results(&r, &expected));
        report.ops(1, u64::from(!same));
        e2e_traced.push(op_ns);
        e2e_untraced.push(bare_ns);
        let rank_ns = e2e_ns - analyze_ns - select_ns - candidates_ns;
        for (name, ns) in [
            ("textproc.analyze", analyze_ns),
            ("search.select", select_ns),
            ("search.candidates", candidates_ns),
            ("search.rank", rank_ns),
        ] {
            samples.entry(name).or_default().push(ns / 1e3);
        }
        selected += stats.selected_contexts;
        candidates += stats.keyword_candidates;
        scored += stats.scored_pairs;
        pushes += stats.heap_pushes;
        results += stats.results;
        long += usize::from(input.two_concept);
        k += 1;
    }
    let n_queries = k as f64;

    // Serve layers on wire inputs (ops from 10_000_000).
    let mix = WireMix::new(&texts, args.seed);
    let mut rng = Rng::new(args.seed ^ 0x0A11_1BA1);
    let state = AppState {
        searcher: warm.clone(),
        defaults: SearchDefaults::default(),
        draining: Arc::new(AtomicBool::new(false)),
        queue_depth: Arc::new(AtomicU64::new(0)),
        served_seq: Arc::new(AtomicU64::new(0)),
        shadow: None,
    };
    let draws = mix.draw(SERVE_OPS, &mut rng);
    let mut handle_total_us = Vec::new();
    for (i, &item) in draws.iter().enumerate() {
        let op = 10_000_000 + i as u64;
        let input = mix.item(item);
        let bytes = search_request(&input.body_json());
        let root = tr.begin("op.wire", op);
        let request = match tr.span("serve.parse", op, || parse_request(&bytes)) {
            Parsed::Complete(request, _) => request,
            other => return Err(format!("the benchmark's request did not parse: {other:?}")),
        };
        let parse_us = tr.last_ns() / 1e3;
        let response = tr.span("serve.handle", op, || handle_request(&state, &request));
        let handle_us = tr.last_ns() / 1e3;
        tr.span("serve.response", op, || {
            std::hint::black_box(response.to_bytes(request.keep_alive))
        });
        let response_us = tr.last_ns() / 1e3;
        let found = tr.span("serve.search", op, || query(&warm, input))?;
        let search_us = tr.last_ns() / 1e3;
        let body = tr.span("serve.encode", op, || serve::encode_results(&found));
        let encode_us = tr.last_ns() / 1e3;
        tr.end(root);
        report.ops(
            1,
            u64::from(!crate::check::wire_ok(
                response.status,
                &response.body,
                &body,
            )),
        );
        handle_total_us.push(handle_us);
        for (name, us) in [
            ("serve.parse", parse_us),
            ("serve.handle", handle_us - search_us - encode_us),
            ("serve.response", response_us),
            ("serve.encode", encode_us),
        ] {
            samples.entry(name).or_default().push(us);
        }
    }

    // A short open loop at the nominal rate against the deployed server,
    // then a closed loop of SERVE_OPS requests.
    let server = Server::start(&args.litsearch, &dir, work)?;
    let mut client = WireClient::new(warm.clone(), &texts, args.seed);
    let mut wire = client.run(
        &server,
        spec.rates[0],
        spec.wire_share * args.seconds / 3.0,
        false,
    )?;
    let mut closed = client.run_closed(&server, SERVE_OPS as u64, false)?;
    let counters = server_counters(&server)?;
    server.stop()?;
    report.ops(wire.due, wire.failed);
    report.ops(SERVE_OPS as u64, closed.failed);
    let closed_p50 = summarize(&mut closed.latencies_us).p50;
    let timeouts =
        wire.statuses.get(&408).copied().unwrap_or(0) + wire.statuses.get(&0).copied().unwrap_or(0);
    let late = summarize(&mut wire.late_us);

    // Telemetry as the server keeps it on, versus off (ops from 20_000_000).
    let obs_draws = mix.draw(SERVE_OPS, &mut rng);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let rolling = Arc::new(obs::RollingRecorder::new(
        obs::RollingConfig {
            bucket_secs: 1,
            window_secs: 60,
            shards: crate::wire::SERVER_WORKERS,
        },
        Arc::new(obs::MonotonicClock::new()),
    ));
    obs::attach_rolling(rolling);
    for (b, block) in obs_draws.chunks(OBS_BLOCK).enumerate() {
        let telemetry = b % 2 == 1;
        if telemetry {
            obs::enable();
        }
        for (i, &item) in block.iter().enumerate() {
            let op = 20_000_000 + (b * OBS_BLOCK + i) as u64;
            let name = if telemetry {
                "obs.query_on"
            } else {
                "obs.query_off"
            };
            let got = tr.span(name, op, || query(&warm, mix.item(item)));
            report.ops(1, u64::from(got.is_err()));
            let us = tr.last_ns() / 1e3;
            if telemetry { &mut on } else { &mut off }.push(us);
        }
        obs::disable();
    }

    let trace_path =
        Path::new(crate::OUT_DIR).join(format!("trace-{}-{}.jsonl", spec.name, args.seed));
    tr.write_jsonl(&trace_path)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    let by_name = tr.self_times_by_name();
    let total_ms = |name: &str| by_name.get(name).map_or(0.0, |v| ms(v.iter().sum()));
    report.note(format!(
        "traced: {} queries, {} serve inputs, {} wire requests | warm == fresh: {check_failed} mismatches | results digest {digest:016x} | spans written to {}",
        k,
        draws.len(),
        wire.due,
        trace_path.display()
    ));

    let g_s = total_ms("corpus.generate") / 1e3;
    report.metric("corpus.generate_s", g_s, "s");
    // Stage spans: the mean of the two passes.
    let stage_ms = |name: &str| total_ms(name) / STAGE_OPS.len() as f64;
    report.metric("indexes.build_ms", stage_ms("indexes.build"), "ms");
    for (metric, span) in [
        ("assign.text_sets_ms", "assign.text_sets"),
        ("assign.patterns_ms", "assign.patterns"),
        ("assign.pattern_sets_ms", "assign.pattern_sets"),
    ] {
        report.metric(metric, stage_ms(span), "ms");
    }
    report.metric("assign.text_members", text_members as f64, "count");
    report.metric("assign.pattern_members", pattern_members as f64, "count");
    for (metric, span) in [
        ("prestige.citation_ms", "prestige.citation"),
        ("prestige.text_ms", "prestige.text"),
        ("prestige.pattern_ms", "prestige.pattern"),
        ("prestige.propagate_ms", "prestige.propagate"),
    ] {
        report.metric(metric, stage_ms(span), "ms");
    }
    report.metric("prestige.entries", entries as f64, "count");
    report.metric("plan.speedup", stages_ns / plan2_ns, "ratio");
    report.metric("persist.save_ms", total_ms("persist.save"), "ms");
    for category in ["corpus", "sets", "prestige", "other"] {
        let b = bytes.get(category).copied().unwrap_or(0);
        report.metric(format!("persist.bytes.{category}"), b as f64, "bytes");
    }
    for (metric, span) in [
        ("persist.read_ms", "persist.read"),
        ("persist.parse_ontology_ms", "persist.parse_ontology"),
        ("persist.parse_corpus_ms", "persist.parse_corpus"),
        ("persist.parse_sets_ms", "persist.parse_sets"),
        ("persist.parse_prestige_ms", "persist.parse_prestige"),
        ("persist.index_rebuild_ms", "persist.index_rebuild"),
    ] {
        report.metric(metric, median(&part_ms[span]), "ms");
    }
    report.metric("persist.load_other_ms", median(&load_other_ms), "ms");
    for (prefix, span) in [
        ("textproc.analyze", "textproc.analyze"),
        ("search.select", "search.select"),
        ("search.candidates", "search.candidates"),
        ("search.rank", "search.rank"),
        ("serve.parse", "serve.parse"),
        ("serve.response", "serve.response"),
        ("serve.handle", "serve.handle"),
        ("serve.encode", "serve.encode"),
    ] {
        let s = summarize(samples.get_mut(span).ok_or("no samples")?);
        report.metric(format!("{prefix}_p50_us"), s.p50, "us");
        report.metric(format!("{prefix}_p99_us"), s.p99, "us");
    }
    report.metric(
        "search.selected_contexts",
        selected as f64 / n_queries,
        "count",
    );
    report.metric(
        "search.keyword_candidates",
        candidates as f64 / n_queries,
        "count",
    );
    report.metric("search.scored_pairs", scored as f64 / n_queries, "count");
    report.metric("search.heap_pushes", pushes as f64 / n_queries, "count");
    report.metric(
        "search.results_per_scored_pair",
        results as f64 / (scored as f64).max(1.0),
        "ratio",
    );
    let layer_p50 = |name: &str| summarize(&mut samples[name].clone()).p50;
    let handle_p50 = summarize(&mut handle_total_us).p50;
    report.metric(
        "serve.wire_overhead_us",
        closed_p50 - layer_p50("serve.parse") - handle_p50 - layer_p50("serve.response"),
        "us",
    );
    report.metric("serve.queue_wait_us", counters.queue_wait_us, "us");
    report.metric("serve.shed", counters.shed as f64, "count");
    report.metric("serve.rejected", counters.rejected as f64, "count");
    report.metric("serve.timeouts", timeouts as f64, "count");
    report.metric(
        "obs.overhead_us",
        summarize(&mut on).p50 - summarize(&mut off).p50,
        "us",
    );
    report.metric("loadgen.late_p99_us", late.p99, "us");
    report.metric("loadgen.sent", wire.sent as f64, "count");
    report.metric("mix.repeat_share", wire.repeat_share, "ratio");
    report.metric("mix.long_query_share", long as f64 / n_queries, "ratio");
    let traced = median(&e2e_traced);
    let untraced = median(&e2e_untraced);
    report.metric("trace_overhead", (traced - untraced) / untraced, "ratio");
    report.metric("unattributed_share", 1.0 - stages_ns / plan1_ns, "ratio");
    report.note(format!(
        "trace: op.query p50 {:.1} µs vs untraced Searcher::query p50 {:.1} µs | stage passes {:.1} and {:.1} ms around the one-thread plan's {:.1} ms",
        traced / 1e3,
        untraced / 1e3,
        ms(first.ns),
        ms(second.ns),
        ms(plan1_ns)
    ));
    Ok(())
}
