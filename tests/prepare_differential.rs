//! Differential proof for the prepare kernels: the sorted-id author
//! similarity and the single phrase walk (candidate postings, then one
//! scan of each candidate's sections) must reproduce the allocation-
//! heavy algorithms they replaced **bit for bit**.
//!
//! The oracles below are the replaced code kept verbatim: the
//! `HashSet`-based `author_similarity` over a `HashMap` co-author
//! table, and `papers_containing_phrase` followed by a second
//! `match_strength` scan of every found paper. The integration tests
//! rebuild every prestige table through these oracles and compare each
//! column with what `EngineSnapshot::prepare` produced at 1 and 2
//! build threads.

use litsearch::citegraph::coupling::citation_similarity;
use litsearch::context_search::assign::{build_text_sets, ContextPatterns};
use litsearch::context_search::config::TextSimWeights;
use litsearch::context_search::indexes::CorpusIndex;
use litsearch::context_search::prestige::citation::citation_prestige;
use litsearch::context_search::{
    ContextId, ContextPaperSets, ContextSetKind, EngineConfig, EngineSnapshot, PrestigeScores,
    ScoreFunction,
};
use litsearch::corpus::{generate_corpus, AuthorId, Corpus, CorpusConfig, Paper, PaperId, Section};
use litsearch::ontology::{generate_ontology, rate_of_decay, GeneratorConfig, Ontology};
use litsearch::patterns::matcher::{find_match, match_strength};
use litsearch::patterns::{MatcherConfig, Pattern, PatternKind, SectionTokens};
use litsearch::textproc::TermId;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet};

// ---------------------------------------------------------------------
// Oracles: the replaced kernels, verbatim.
// ---------------------------------------------------------------------

/// The co-author table as `CorpusIndex::build` used to build it.
fn oracle_coauthors(corpus: &Corpus) -> HashMap<AuthorId, HashSet<AuthorId>> {
    let mut coauthors: HashMap<AuthorId, HashSet<AuthorId>> = HashMap::new();
    for p in corpus.papers() {
        for &a in &p.authors {
            for &b in &p.authors {
                if a != b {
                    coauthors.entry(a).or_default().insert(b);
                }
            }
        }
    }
    coauthors
}

/// The former `CorpusIndex::author_similarity`.
fn oracle_author_similarity(
    coauthors: &HashMap<AuthorId, HashSet<AuthorId>>,
    corpus: &Corpus,
    a: PaperId,
    b: PaperId,
    weights: &TextSimWeights,
) -> f64 {
    let aa = &corpus.paper(a).authors;
    let ab = &corpus.paper(b).authors;
    if aa.is_empty() || ab.is_empty() {
        return 0.0;
    }
    let set_a: HashSet<AuthorId> = aa.iter().copied().collect();
    let set_b: HashSet<AuthorId> = ab.iter().copied().collect();
    let l0 =
        set_a.intersection(&set_b).count() as f64 / ((set_a.len() * set_b.len()) as f64).sqrt();

    // Level 1: an author of `a` and an author of `b` co-wrote some
    // third paper ⇔ b's author appears in the coauthor set of a's
    // author.
    let neighbors_a: HashSet<AuthorId> = set_a
        .iter()
        .flat_map(|x| coauthors.get(x).into_iter().flatten())
        .copied()
        .collect();
    let l1_hits = set_b.iter().filter(|x| neighbors_a.contains(x)).count() as f64;
    let l1 = (l1_hits / set_b.len() as f64).min(1.0);

    (weights.l0_author * l0 + weights.l1_author * l1).clamp(0.0, 1.0)
}

/// The former `textproc::phrase::find_occurrences`.
fn oracle_find_occurrences(haystack: &[TermId], needle: &[TermId]) -> Vec<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return Vec::new();
    }
    haystack
        .windows(needle.len())
        .enumerate()
        .filter(|(_, w)| *w == needle)
        .map(|(i, _)| i)
        .collect()
}

/// The former `patterns::matcher::match_strength`.
fn oracle_match_strength(
    pattern: &Pattern,
    sections: &SectionTokens<'_>,
    config: &MatcherConfig,
) -> f64 {
    let mut sections_arr = [
        (sections.title, 0.0),
        (sections.abstract_text, 0.0),
        (sections.body, 0.0),
        (sections.index_terms, 0.0),
    ];
    for (i, w) in config.section_weights.iter().enumerate() {
        sections_arr[i].1 = *w;
    }
    let mut best = 0.0f64;
    for (tokens, weight) in sections_arr {
        if weight <= 0.0 || tokens.len() < pattern.middle.len() {
            continue;
        }
        for start in oracle_find_occurrences(tokens, &pattern.middle) {
            let fidelity = if config.middle_only {
                1.0
            } else {
                oracle_side_fidelity(pattern, tokens, start, config.window)
            };
            let quality =
                weight * ((1.0 - config.context_weight) + config.context_weight * fidelity);
            if quality > best {
                best = quality;
            }
        }
    }
    best
}

/// The former `patterns::matcher::side_fidelity`.
fn oracle_side_fidelity(pattern: &Pattern, tokens: &[TermId], start: usize, window: usize) -> f64 {
    let n_side = pattern.left.len() + pattern.right.len();
    if n_side == 0 {
        return 1.0;
    }
    let lo = start.saturating_sub(window);
    let end = start + pattern.middle.len();
    let hi = (end + window).min(tokens.len());
    let left_window: HashSet<TermId> = tokens[lo..start].iter().copied().collect();
    let right_window: HashSet<TermId> = tokens[end..hi].iter().copied().collect();
    let hit = pattern
        .left
        .iter()
        .filter(|t| left_window.contains(t))
        .count()
        + pattern
            .right
            .iter()
            .filter(|t| right_window.contains(t))
            .count();
    hit as f64 / n_side as f64
}

/// The former `CorpusIndex::papers_containing_phrase`.
fn oracle_papers_containing_phrase(
    index: &CorpusIndex,
    corpus: &Corpus,
    phrase: &[TermId],
) -> Vec<PaperId> {
    if phrase.is_empty() {
        return Vec::new();
    }
    let rarest = phrase
        .iter()
        .copied()
        .min_by_key(|&t| index.model.df(t))
        .expect("non-empty phrase");
    let mut out = Vec::new();
    for doc in index.inverted.docs_containing(rarest) {
        let paper = PaperId(doc.0);
        let a = corpus.analyzed(paper);
        let found = Section::ALL
            .iter()
            .any(|&s| !oracle_find_occurrences(a.section(s), phrase).is_empty());
        if found {
            out.push(paper);
        }
    }
    out
}

fn sections_of(corpus: &Corpus, paper: PaperId) -> SectionTokens<'_> {
    let a = corpus.analyzed(paper);
    SectionTokens {
        title: &a.title,
        abstract_text: &a.abstract_text,
        body: &a.body,
        index_terms: &a.index_terms,
    }
}

/// The former `build_pattern_sets`, on the oracle walk.
fn oracle_pattern_sets(
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
    let mut members: HashMap<ContextId, Vec<PaperId>> = HashMap::new();
    for context in ontology.term_ids() {
        let mut direct: Vec<PaperId> = Vec::new();
        for pat in patterns.patterns(context) {
            for paper in oracle_papers_containing_phrase(index, corpus, &pat.middle) {
                let strength = oracle_match_strength(pat, &sections_of(corpus, paper), &matcher);
                if strength >= config.assign.pattern_min_strength {
                    direct.push(paper);
                }
            }
        }
        direct.sort_unstable();
        direct.dedup();
        members.insert(context, direct);
    }

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

    let mut inherited_from: HashMap<ContextId, ContextId> = HashMap::new();
    for &c in &topo {
        if members.get(&c).is_none_or(Vec::is_empty) {
            let mut cur = c;
            while let Some(ancestor) = ontology.closest_ancestor(cur) {
                if let Some(set) = members.get(&ancestor) {
                    if !set.is_empty() {
                        members.insert(c, set.clone());
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

/// The former `text_prestige`, on the oracle author similarity.
fn oracle_text_prestige(
    sets: &ContextPaperSets,
    corpus: &Corpus,
    index: &CorpusIndex,
    config: &EngineConfig,
) -> PrestigeScores {
    let coauthors = oracle_coauthors(corpus);
    let w = &config.text_sim;
    let mut by_context = HashMap::new();
    for context in sets.contexts() {
        let Some(&rep) = sets.representatives.get(&context) else {
            continue;
        };
        let scores: Vec<(PaperId, f64)> = sets
            .members(context)
            .iter()
            .map(|&p| {
                let s_auth = oracle_author_similarity(&coauthors, corpus, p, rep, w);
                let sim = w.title * index.section_cosine(Section::Title, p, rep)
                    + w.abstract_text * index.section_cosine(Section::Abstract, p, rep)
                    + w.body * index.section_cosine(Section::Body, p, rep)
                    + w.index_terms * index.section_cosine(Section::IndexTerms, p, rep)
                    + w.authors * s_auth
                    + w.references * citation_similarity(&index.graph, p.0, rep.0, w.bib_weight);
                (p, sim)
            })
            .collect();
        by_context.insert(context, scores);
    }
    PrestigeScores::new(by_context, ScoreFunction::Text)
}

/// The former pattern-prestige `score_context` loop (simplified
/// matching) plus the inherited-context decay, on the oracle walk.
fn oracle_pattern_prestige(
    ontology: &Ontology,
    sets: &ContextPaperSets,
    corpus: &Corpus,
    index: &CorpusIndex,
    patterns: &ContextPatterns,
    config: &EngineConfig,
) -> PrestigeScores {
    let matcher = MatcherConfig {
        middle_only: true,
        ..config.matcher.clone()
    };
    let mut by_context: HashMap<ContextId, Vec<(PaperId, f64)>> = HashMap::new();
    for context in sets.contexts() {
        if sets.inherited_from.contains_key(&context) {
            continue;
        }
        let members = sets.members(context);
        let mut acc: HashMap<PaperId, f64> = HashMap::with_capacity(members.len());
        for pat in patterns.patterns(context) {
            for paper in oracle_papers_containing_phrase(index, corpus, &pat.middle) {
                if members.binary_search(&paper).is_err() {
                    continue;
                }
                let m = oracle_match_strength(pat, &sections_of(corpus, paper), &matcher);
                if m > 0.0 {
                    *acc.entry(paper).or_insert(0.0) += pat.score * m;
                }
            }
        }
        let mut scores: Vec<(PaperId, f64)> = members
            .iter()
            .map(|&p| (p, acc.get(&p).copied().unwrap_or(0.0)))
            .collect();
        let max = scores.iter().map(|&(_, s)| s).fold(0.0f64, f64::max);
        if max > 0.0 {
            for (_, s) in scores.iter_mut() {
                *s /= max;
            }
        }
        by_context.insert(context, scores);
    }
    let mut inherited: Vec<(ContextId, ContextId)> =
        sets.inherited_from.iter().map(|(&c, &a)| (c, a)).collect();
    inherited.sort_unstable();
    for (context, ancestor) in inherited {
        let decay = rate_of_decay(ontology, ancestor, context);
        let decayed: Vec<(PaperId, f64)> = by_context
            .get(&ancestor)
            .map(|scores| scores.iter().map(|&(p, s)| (p, s * decay)).collect())
            .unwrap_or_default();
        by_context.insert(context, decayed);
    }
    PrestigeScores::new(by_context, ScoreFunction::Pattern)
}

// ---------------------------------------------------------------------
// Comparisons.
// ---------------------------------------------------------------------

fn assert_sets_eq(got: &ContextPaperSets, want: &ContextPaperSets, tag: &str) {
    let got_contexts: Vec<ContextId> = got.contexts().collect();
    let want_contexts: Vec<ContextId> = want.contexts().collect();
    assert_eq!(got_contexts, want_contexts, "{tag}: contexts");
    for c in want_contexts {
        assert_eq!(got.members(c), want.members(c), "{tag}: members of {c}");
    }
    assert_eq!(got.inherited_from, want.inherited_from, "{tag}: inherited");
}

fn assert_prestige_eq(got: &PrestigeScores, want: &PrestigeScores, tag: &str) {
    let got_contexts: Vec<ContextId> = got.contexts().collect();
    let want_contexts: Vec<ContextId> = want.contexts().collect();
    assert_eq!(got_contexts, want_contexts, "{tag}: contexts");
    for c in want_contexts {
        let (gp, gv) = got.columns(c);
        let (wp, wv) = want.columns(c);
        assert_eq!(gp, wp, "{tag}: papers of {c}");
        let gb: Vec<u64> = gv.iter().map(|v| v.to_bits()).collect();
        let wb: Vec<u64> = wv.iter().map(|v| v.to_bits()).collect();
        assert_eq!(gb, wb, "{tag}: score bits of {c}");
    }
}

fn small_inputs(seed: u64) -> (Ontology, Corpus) {
    let onto = generate_ontology(&GeneratorConfig {
        n_terms: 60,
        seed,
        ..Default::default()
    });
    let corpus = generate_corpus(
        &onto,
        &CorpusConfig {
            n_papers: 140,
            seed: seed + 1,
            body_len: (40, 80),
            abstract_len: (20, 40),
            ..Default::default()
        },
    );
    (onto, corpus)
}

/// Prepare at 1 and 2 build threads and compare the pattern sets and
/// every prestige column with tables built through the oracles.
fn check_prepare_against_oracles(config: EngineConfig, tag: &str) {
    let (onto, corpus) = small_inputs(11);
    let index = CorpusIndex::build(&onto, &corpus, &config.pagerank);
    let text_sets = build_text_sets(&onto, &corpus, &index, &config);
    let patterns =
        litsearch::context_search::assign::patterns_by_context(&onto, &corpus, &index, &config);
    let pattern_sets = oracle_pattern_sets(&onto, &corpus, &index, &patterns, &config);
    let mut pattern_view = pattern_sets.clone();
    pattern_view.representatives = text_sets.representatives.clone();

    let mut want: Vec<(
        (ContextSetKind, ScoreFunction),
        PrestigeScores,
        &ContextPaperSets,
    )> = vec![
        (
            (ContextSetKind::TextBased, ScoreFunction::Text),
            oracle_text_prestige(&text_sets, &corpus, &index, &config),
            &text_sets,
        ),
        (
            (ContextSetKind::TextBased, ScoreFunction::Citation),
            citation_prestige(&text_sets, &index.graph, &config),
            &text_sets,
        ),
        (
            (ContextSetKind::PatternBased, ScoreFunction::Text),
            oracle_text_prestige(&pattern_view, &corpus, &index, &config),
            &pattern_sets,
        ),
        (
            (ContextSetKind::PatternBased, ScoreFunction::Citation),
            citation_prestige(&pattern_sets, &index.graph, &config),
            &pattern_sets,
        ),
        (
            (ContextSetKind::PatternBased, ScoreFunction::Pattern),
            oracle_pattern_prestige(&onto, &pattern_sets, &corpus, &index, &patterns, &config),
            &pattern_sets,
        ),
    ];
    for (_, scores, sets) in want.iter_mut() {
        scores.propagate_hierarchy_max(&onto, sets);
    }

    for threads in [1, 2] {
        let snap = EngineSnapshot::prepare(
            onto.clone(),
            corpus.clone(),
            EngineConfig {
                build_threads: threads,
                threads,
                ..config.clone()
            },
        );
        let tag = format!("{tag}, {threads} build threads");
        assert_sets_eq(
            snap.sets(ContextSetKind::PatternBased),
            &pattern_sets,
            &format!("{tag}: pattern sets"),
        );
        for ((kind, function), scores, _) in &want {
            let got = snap
                .prestige(*kind, *function)
                .unwrap_or_else(|| panic!("{tag}: {kind:?}/{function:?} prepared"));
            assert_prestige_eq(got, scores, &format!("{tag}: {kind:?}/{function:?}"));
        }
        assert_eq!(snap.pairs().len(), want.len(), "{tag}: no other tables");
    }
}

#[test]
fn prepared_tables_match_the_oracles_bit_for_bit() {
    check_prepare_against_oracles(EngineConfig::default(), "default config");
}

#[test]
fn prepared_tables_match_the_oracles_at_zero_min_strength_and_a_zero_weight_section() {
    let mut config = EngineConfig::default();
    // Papers whose only match sits in the zero-weight abstract join the
    // pattern sets with strength 0.0 and add nothing to pattern prestige.
    config.assign.pattern_min_strength = 0.0;
    config.matcher.section_weights[1] = 0.0;
    check_prepare_against_oracles(config.clone(), "min strength 0, abstract weight 0");

    // The corpus really has such papers, so the comparison covered them.
    let (onto, corpus) = small_inputs(11);
    let index = CorpusIndex::build(&onto, &corpus, &config.pagerank);
    let patterns =
        litsearch::context_search::assign::patterns_by_context(&onto, &corpus, &index, &config);
    let matcher = MatcherConfig {
        middle_only: true,
        ..config.matcher.clone()
    };
    let zero_strength_hits = onto
        .term_ids()
        .flat_map(|c| patterns.patterns(c))
        .flat_map(|pat| {
            oracle_papers_containing_phrase(&index, &corpus, &pat.middle)
                .into_iter()
                .map(move |paper| (pat, paper))
        })
        .filter(|&(pat, paper)| {
            oracle_match_strength(pat, &sections_of(&corpus, paper), &matcher) == 0.0
        })
        .count();
    assert!(
        zero_strength_hits > 0,
        "no abstract-only match in the corpus"
    );
}

#[test]
fn a_phrase_found_only_in_a_zero_weight_section_is_found_with_zero_strength() {
    let ids = |xs: &[u32]| xs.iter().map(|&x| TermId(x)).collect::<Vec<_>>();
    let (title, abstract_text, body, index_terms) =
        (ids(&[1, 2]), ids(&[5, 6, 7]), ids(&[]), ids(&[9]));
    let sections = SectionTokens {
        title: &title,
        abstract_text: &abstract_text,
        body: &body,
        index_terms: &index_terms,
    };
    let pattern = Pattern {
        left: BTreeSet::new(),
        middle: ids(&[6, 7]),
        right: BTreeSet::new(),
        kind: PatternKind::Regular,
        score: 1.0,
    };
    for middle_only in [true, false] {
        let config = MatcherConfig {
            section_weights: [1.0, 0.0, 0.5, 0.9],
            middle_only,
            ..Default::default()
        };
        assert_eq!(find_match(&pattern, &sections, &config), Some(0.0));
        assert_eq!(match_strength(&pattern, &sections, &config), 0.0);
        assert_eq!(oracle_match_strength(&pattern, &sections, &config), 0.0);
    }
    let absent = Pattern {
        middle: ids(&[7, 6]),
        ..pattern
    };
    assert_eq!(
        find_match(&absent, &sections, &MatcherConfig::default()),
        None
    );
}

// ---------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------

/// A corpus whose papers carry exactly the given author lists (the
/// text is a constant placeholder; only the authors matter here).
fn corpus_with_authors(authors: &[Vec<u32>]) -> (Ontology, Corpus) {
    let onto = generate_ontology(&GeneratorConfig {
        n_terms: 5,
        seed: 1,
        ..Default::default()
    });
    let papers: Vec<Paper> = authors
        .iter()
        .enumerate()
        .map(|(i, a)| Paper {
            id: PaperId(i as u32),
            title: "cell membrane transport".into(),
            abstract_text: "protein binding".into(),
            body: "membrane protein".into(),
            index_terms: vec!["transport".into()],
            authors: a.iter().map(|&x| AuthorId(x)).collect(),
            references: Vec::new(),
            year: 2000,
            true_topics: Vec::new(),
        })
        .collect();
    let corpus = Corpus::new(papers, Vec::new(), HashMap::new(), &[]);
    (onto, corpus)
}

/// Author ids from a small pool (so lists overlap and repeat); pool
/// slots 8 and 9 stand for huge ids, which must not size any table.
fn author_ids(pool: &[Vec<u32>]) -> Vec<Vec<u32>> {
    pool.iter()
        .map(|list| {
            list.iter()
                .map(|&x| if x >= 8 { u32::MAX - (x - 8) } else { x })
                .collect()
        })
        .collect()
}

/// A section weight: zero, one, negative, or a draw from [0, 1).
fn weight(choice: u32, draw: f64) -> f64 {
    [0.0, 1.0, -0.5, draw][choice as usize]
}

fn term_ids(xs: &[u32]) -> Vec<TermId> {
    xs.iter().map(|&x| TermId(x)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Sorted-id author similarity equals the `HashSet` oracle for
    /// every ordered pair, self pairs included, over empty and
    /// duplicate-laden author lists.
    #[test]
    fn author_similarity_matches_the_hashset_oracle(
        pool in proptest::collection::vec(proptest::collection::vec(0u32..10, 0..5), 1..7),
        l0 in 0.0f64..1.5,
        l1 in 0.0f64..1.5,
    ) {
        let (onto, corpus) = corpus_with_authors(&author_ids(&pool));
        let index = CorpusIndex::build(&onto, &corpus, &Default::default());
        let coauthors = oracle_coauthors(&corpus);
        let weights = TextSimWeights { l0_author: l0, l1_author: l1, ..Default::default() };
        for a in corpus.paper_ids() {
            for b in corpus.paper_ids() {
                let got = index.author_similarity(a, b, &weights);
                let want = oracle_author_similarity(&coauthors, &corpus, a, b, &weights);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} vs {:?}: {} vs {}", a, b, got, want);
            }
        }
    }

    /// One section scan gives the oracle's existence answer and the
    /// oracle's strength bits, in both matching modes, for phrases
    /// longer than sections, empty phrases and non-positive weights.
    #[test]
    fn find_match_matches_the_two_pass_oracle(
        sections in (
            proptest::collection::vec(0u32..3, 0..4),
            proptest::collection::vec(0u32..3, 0..10),
            proptest::collection::vec(0u32..3, 0..16),
            proptest::collection::vec(0u32..3, 0..3),
        ),
        shape in (
            proptest::collection::vec(0u32..3, 0..4),
            proptest::collection::vec(0u32..5, 0..3),
            proptest::collection::vec(0u32..5, 0..3),
        ),
        weight_choice in (0u32..4, 0u32..4, 0u32..4, 0u32..4),
        weight_draw in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        context in (0u32..3, 0.0f64..1.0, 0usize..3),
        middle_only in 0u32..2,
    ) {
        let (title, abstract_text, body, index_terms) = (
            term_ids(&sections.0),
            term_ids(&sections.1),
            term_ids(&sections.2),
            term_ids(&sections.3),
        );
        let tokens = SectionTokens {
            title: &title,
            abstract_text: &abstract_text,
            body: &body,
            index_terms: &index_terms,
        };
        let pattern = Pattern {
            left: term_ids(&shape.1).into_iter().collect(),
            middle: term_ids(&shape.0),
            right: term_ids(&shape.2).into_iter().collect(),
            kind: PatternKind::Regular,
            score: 1.0,
        };
        let config = MatcherConfig {
            section_weights: [
                weight(weight_choice.0, weight_draw.0),
                weight(weight_choice.1, weight_draw.1),
                weight(weight_choice.2, weight_draw.2),
                weight(weight_choice.3, weight_draw.3),
            ],
            window: context.2,
            context_weight: [0.0, 1.0, context.1][context.0 as usize],
            middle_only: middle_only == 1,
        };
        let found = [&title, &abstract_text, &body, &index_terms]
            .iter()
            .any(|s| !oracle_find_occurrences(s, &pattern.middle).is_empty());
        let want = oracle_match_strength(&pattern, &tokens, &config);
        let got = find_match(&pattern, &tokens, &config);
        prop_assert_eq!(got.is_some(), found);
        prop_assert_eq!(got.unwrap_or(0.0).to_bits(), want.to_bits());
        prop_assert_eq!(match_strength(&pattern, &tokens, &config).to_bits(), want.to_bits());
    }
}
