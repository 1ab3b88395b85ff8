//! Prepared corpus state shared by every stage of the paradigm:
//! per-section and whole-paper TF-IDF vectors, the inverted index that
//! backs both the keyword-search baseline and pattern-candidate
//! generation, the citation graph with a global PageRank, sorted
//! author and co-author id lists, and the analyzed ontology-term names.

use crate::config::TextSimWeights;
use citegraph::coupling::sorted_intersection_size;
use citegraph::{pagerank, CitationGraph, PageRankConfig};
use corpus::{Corpus, PaperId, Section};
use ontology::Ontology;
use patterns::Selectivity;
use textproc::index::{DocId, InvertedIndex};
use textproc::{CandidateScratch, SparseVector, TermId, TfIdfModel};

/// Immutable prepared state over one (ontology, corpus) pair.
pub struct CorpusIndex {
    /// Whole-paper TF-IDF model (title+abstract+body+index terms).
    pub model: TfIdfModel,
    /// Unit-norm whole-paper vectors, by paper id.
    pub doc_vectors: Vec<SparseVector>,
    /// Inverted index over the whole-paper vectors.
    pub inverted: InvertedIndex,
    /// Per-section TF-IDF models, indexed by [`section_index`].
    pub section_models: [TfIdfModel; 4],
    /// Per-section unit-norm vectors, `section_vectors[s][paper]`.
    pub section_vectors: [Vec<SparseVector>; 4],
    /// The corpus citation graph (node i == paper i).
    pub graph: CitationGraph,
    /// Global (whole-corpus) PageRank as a probability distribution
    /// (used by the AC-answer citation expansion's quantile cut).
    pub global_pagerank: Vec<f64>,
    /// Each paper's distinct authors as ascending author rows (see
    /// [`build_author_lists`]).
    paper_authors: IdLists,
    /// Each author row's co-authors (excluding itself), ascending.
    coauthors: IdLists,
    /// Analyzed term-name tokens per ontology term (corpus vocabulary).
    pub term_name_tokens: Vec<Vec<TermId>>,
    /// Sorted, deduped name tokens per term — the prepared column
    /// behind context selection, so the query path never re-sorts a
    /// name.
    pub name_terms_sorted: Vec<Vec<TermId>>,
    /// IDF mass of each term's name, summed in ascending term order at
    /// build time (bit-identical to summing the sorted tokens per
    /// query, which is what selection used to do).
    pub name_idf_mass: Vec<f64>,
    /// Word selectivity across all term names (§3.3 TotalTermScore).
    pub selectivity: Selectivity,
}

/// Dense index of a [`Section`] into the per-section arrays.
pub fn section_index(section: Section) -> usize {
    match section {
        Section::Title => 0,
        Section::Abstract => 1,
        Section::Body => 2,
        Section::IndexTerms => 3,
    }
}

impl CorpusIndex {
    /// Build all prepared state. The heavyweight step of engine
    /// construction — everything after this is per-context work.
    pub fn build(ontology: &Ontology, corpus: &Corpus, pagerank_cfg: &PageRankConfig) -> Self {
        let _span = obs::span("index.build");
        let n = corpus.len();

        // Whole-paper model + vectors + index.
        let (model, doc_vectors, inverted) = {
            let _s = obs::span("index.tfidf_whole");
            let concat_docs: Vec<Vec<TermId>> = corpus
                .paper_ids()
                .map(|id| corpus.analyzed(id).concat())
                .collect();
            let model = TfIdfModel::fit(concat_docs.iter().map(Vec::as_slice));
            let doc_vectors: Vec<SparseVector> = concat_docs
                .iter()
                .map(|d| model.vectorize_normalized(d))
                .collect();
            let inverted = InvertedIndex::build(&doc_vectors);
            (model, doc_vectors, inverted)
        };

        // Per-section models + vectors.
        let _sections = obs::span("index.tfidf_sections");
        let mut section_models: Vec<TfIdfModel> = Vec::with_capacity(4);
        let mut section_vectors: Vec<Vec<SparseVector>> = Vec::with_capacity(4);
        for section in Section::ALL {
            let docs: Vec<&[TermId]> = corpus
                .paper_ids()
                .map(|id| corpus.analyzed(id).section(section))
                .collect();
            let m = TfIdfModel::fit(docs.iter().copied());
            let vecs: Vec<SparseVector> = docs.iter().map(|d| m.vectorize_normalized(d)).collect();
            section_models.push(m);
            section_vectors.push(vecs);
        }
        let section_models: [TfIdfModel; 4] = section_models
            .try_into()
            .unwrap_or_else(|_| unreachable!("exactly four sections"));
        let section_vectors: [Vec<SparseVector>; 4] = section_vectors
            .try_into()
            .unwrap_or_else(|_| unreachable!("exactly four sections"));
        drop(_sections);

        // Citations.
        let (graph, global_pagerank) = {
            let _s = obs::span("index.citation_graph");
            let graph = CitationGraph::from_edges(n as u32, &corpus.citation_edges());
            let global_pagerank = pagerank(&graph, pagerank_cfg).scores;
            (graph, global_pagerank)
        };

        let _aux = obs::span("index.aux_tables");
        let (paper_authors, coauthors) = build_author_lists(corpus);

        // Term names (analyzed against the corpus vocabulary, which
        // interned them at corpus build).
        let term_name_tokens: Vec<Vec<TermId>> = ontology
            .term_ids()
            .map(|t| corpus.analyze_known(&ontology.term(t).name))
            .collect();
        let selectivity = Selectivity::new(term_name_tokens.iter().map(Vec::as_slice));
        let name_terms_sorted: Vec<Vec<TermId>> = term_name_tokens
            .iter()
            .map(|name| {
                let mut terms = name.clone();
                terms.sort_unstable();
                terms.dedup();
                terms
            })
            .collect();
        let name_idf_mass: Vec<f64> = name_terms_sorted
            .iter()
            .map(|terms| terms.iter().map(|&t| model.idf(t)).sum())
            .collect();
        drop(_aux);

        Self {
            model,
            doc_vectors,
            inverted,
            section_models,
            section_vectors,
            graph,
            global_pagerank,
            paper_authors,
            coauthors,
            term_name_tokens,
            name_terms_sorted,
            name_idf_mass,
            selectivity,
        }
    }

    /// Unit-norm query vector over the whole-paper model (unknown words
    /// dropped).
    pub fn query_vector(&self, corpus: &Corpus, text: &str) -> SparseVector {
        let ids = corpus.analyze_known(text);
        self.model.vectorize_normalized(&ids)
    }

    /// Keyword search (the PubMed-style baseline): cosine scores above
    /// `min_score`, descending.
    pub fn keyword_search(&self, query: &SparseVector, min_score: f64) -> Vec<(PaperId, f64)> {
        self.inverted
            .search(query, min_score)
            .into_iter()
            .map(|(DocId(d), s)| (PaperId(d), s))
            .collect()
    }

    /// Columnar keyword search into a reusable scratch: candidate doc
    /// ids ascending, scores parallel. Same candidate set and score
    /// bits as [`keyword_search`](Self::keyword_search), minus the
    /// descending sort (the caller's ranking stage replaces it) and
    /// the per-call allocation.
    pub fn keyword_search_columns(
        &self,
        query: &SparseVector,
        min_score: f64,
        scratch: &mut CandidateScratch,
    ) {
        self.inverted.search_columns(query, min_score, scratch);
    }

    /// Whole-paper cosine between a paper and an arbitrary unit vector.
    pub fn whole_cosine(&self, paper: PaperId, v: &SparseVector) -> f64 {
        self.doc_vectors[paper.index()].cosine(v)
    }

    /// Per-section cosine between two papers.
    pub fn section_cosine(&self, section: Section, a: PaperId, b: PaperId) -> f64 {
        let vecs = &self.section_vectors[section_index(section)];
        vecs[a.index()].cosine(&vecs[b.index()])
    }

    /// Estimated fraction of corpus papers containing a middle tuple:
    /// the minimum unigram document frequency of its words (an upper
    /// bound on the phrase frequency, adequate for the `(1/coverage)^t`
    /// boost). Floor `1/N` keeps the score finite.
    pub fn coverage_estimate(&self, middle: &[TermId]) -> f64 {
        let n = self.doc_vectors.len().max(1) as f64;
        let min_df = middle.iter().map(|&t| self.model.df(t)).min().unwrap_or(0) as f64;
        (min_df.max(1.0)) / n
    }

    /// Candidate papers for `phrase`: the postings of its rarest word,
    /// so every paper containing the phrase is among them. This is the
    /// one phrase-candidate enumerator; callers confirm contiguity per
    /// section (never across boundaries) with
    /// [`patterns::matcher::find_match`]. Empty for an empty phrase.
    pub fn phrase_candidates(&self, phrase: &[TermId]) -> impl Iterator<Item = PaperId> + '_ {
        let rarest = phrase.iter().copied().min_by_key(|&t| self.model.df(t));
        rarest
            .into_iter()
            .flat_map(|t| self.inverted.docs_containing(t))
            .map(|doc| PaperId(doc.0))
    }

    /// The §3.2 author similarity:
    /// `SimAuthors = L0Weight·SimL0 + L1Weight·SimL1`, where level 0 is
    /// shared authors and level 1 counts `b`'s authors who co-wrote some
    /// corpus paper (`a` and `b` included) with one of `a`'s authors.
    ///
    /// Both levels are integer counts over sorted id lists, so nothing
    /// is allocated per pair.
    pub fn author_similarity(&self, a: PaperId, b: PaperId, weights: &TextSimWeights) -> f64 {
        let aa = self.paper_authors.get(a.index());
        let ab = self.paper_authors.get(b.index());
        if aa.is_empty() || ab.is_empty() {
            return 0.0;
        }
        let l0 = sorted_intersection_size(aa, ab) as f64 / ((aa.len() * ab.len()) as f64).sqrt();

        // Level 1: b's author co-wrote a paper with one of a's authors
        // ⇔ it appears in the co-author list of one of a's authors.
        let l1_hits = ab
            .iter()
            .filter(|y| {
                aa.iter()
                    .any(|&x| self.coauthors.get(x as usize).binary_search(y).is_ok())
            })
            .count() as f64;
        let l1 = (l1_hits / ab.len() as f64).min(1.0);

        (weights.l0_author * l0 + weights.l1_author * l1).clamp(0.0, 1.0)
    }
}

/// Sorted `u32` id lists stored in one flat arena: list `i` is
/// `ids[offsets[i]..offsets[i + 1]]`.
struct IdLists {
    offsets: Vec<usize>,
    ids: Vec<u32>,
}

impl IdLists {
    /// Group `(list, id)` pairs into `n_lists` lists, each ascending
    /// and deduplicated.
    fn from_pairs(n_lists: usize, mut pairs: Vec<(u32, u32)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0usize; n_lists + 1];
        let mut ids = Vec::with_capacity(pairs.len());
        for &(list, id) in &pairs {
            offsets[list as usize + 1] += 1;
            ids.push(id);
        }
        for i in 0..n_lists {
            offsets[i + 1] += offsets[i];
        }
        Self { offsets, ids }
    }

    fn get(&self, list: usize) -> &[u32] {
        &self.ids[self.offsets[list]..self.offsets[list + 1]]
    }
}

/// Per-paper author lists and per-author co-author lists. Author ids
/// are first mapped to dense *rows*: their rank among the distinct ids
/// in the corpus. The map preserves order, so overlap counts over rows
/// equal those over ids, and the tables stay sized by the authors that
/// occur, whatever their id values.
fn build_author_lists(corpus: &Corpus) -> (IdLists, IdLists) {
    let mut ids: Vec<u32> = corpus
        .papers()
        .iter()
        .flat_map(|p| p.authors.iter().map(|a| a.0))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let row = |id: u32| ids.binary_search(&id).expect("id collected above") as u32;
    let paper_authors = IdLists::from_pairs(
        corpus.len(),
        corpus
            .papers()
            .iter()
            .enumerate()
            .flat_map(|(paper, p)| p.authors.iter().map(move |a| (paper as u32, row(a.0))))
            .collect(),
    );
    let n_pairs = (0..corpus.len())
        .map(|paper| {
            let k = paper_authors.get(paper).len();
            k * k.saturating_sub(1)
        })
        .sum();
    let mut pairs = Vec::with_capacity(n_pairs);
    for paper in 0..corpus.len() {
        let authors = paper_authors.get(paper);
        for &a in authors {
            pairs.extend(authors.iter().filter(|&&b| b != a).map(|&b| (a, b)));
        }
    }
    let coauthors = IdLists::from_pairs(ids.len(), pairs);
    (paper_authors, coauthors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::{generate_corpus, CorpusConfig};
    use ontology::{generate_ontology, GeneratorConfig};

    fn setup() -> (Ontology, Corpus, CorpusIndex) {
        let onto = generate_ontology(&GeneratorConfig {
            n_terms: 60,
            seed: 3,
            ..Default::default()
        });
        let corpus = generate_corpus(
            &onto,
            &CorpusConfig {
                n_papers: 80,
                seed: 5,
                body_len: (40, 60),
                abstract_len: (20, 30),
                ..Default::default()
            },
        );
        let idx = CorpusIndex::build(&onto, &corpus, &PageRankConfig::default());
        (onto, corpus, idx)
    }

    #[test]
    fn vectors_are_unit_norm() {
        let (_, corpus, idx) = setup();
        for id in corpus.paper_ids().take(10) {
            let v = &idx.doc_vectors[id.index()];
            assert!((v.norm() - 1.0).abs() < 1e-9 || v.is_empty());
        }
    }

    #[test]
    fn self_cosine_is_one() {
        let (_, _, idx) = setup();
        let p = PaperId(0);
        assert!((idx.whole_cosine(p, &idx.doc_vectors[0]) - 1.0).abs() < 1e-9);
        assert!((idx.section_cosine(Section::Title, p, p) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn keyword_search_finds_title_words() {
        let (_, corpus, idx) = setup();
        let title = corpus.paper(PaperId(3)).title.clone();
        let q = idx.query_vector(&corpus, &title);
        let hits = idx.keyword_search(&q, 0.05);
        assert!(
            hits.iter().take(5).any(|&(p, _)| p == PaperId(3)),
            "paper should rank highly for its own title"
        );
    }

    #[test]
    fn phrase_candidates_actually_contain_phrase() {
        let (_, corpus, idx) = setup();
        // Use a term name that some paper's title starts with.
        let primary = corpus.paper(PaperId(0)).true_topics[0];
        let phrase = &idx.term_name_tokens[primary.index()];
        assert!(!phrase.is_empty());
        let candidates: Vec<PaperId> = idx.phrase_candidates(phrase).collect();
        assert!(
            candidates.contains(&PaperId(0)),
            "paper 0's title starts with its topic name"
        );
        // Every paper containing the phrase is a candidate.
        for p in corpus.paper_ids() {
            let a = corpus.analyzed(p);
            if Section::ALL
                .iter()
                .any(|&s| textproc::phrase::contains_phrase(a.section(s), phrase))
            {
                assert!(candidates.contains(&p), "{p:?} contains the phrase");
            }
        }
        assert_eq!(idx.phrase_candidates(&[]).count(), 0);
    }

    #[test]
    fn coverage_estimate_in_unit_range() {
        let (_, corpus, idx) = setup();
        let toks = corpus.analyze_known(&corpus.paper(PaperId(0)).title);
        let c = idx.coverage_estimate(&toks);
        assert!(c > 0.0 && c <= 1.0);
        // Unknown token → floor.
        let unknown = idx.coverage_estimate(&[TermId(9_999_999)]);
        assert!((unknown - 1.0 / corpus.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn author_similarity_self_is_high() {
        let (_, _, idx) = setup();
        let w = TextSimWeights::default();
        let s = idx.author_similarity(PaperId(0), PaperId(0), &w);
        assert!(s > 0.5, "self author similarity: {s}");
        assert!(s <= 1.0);
    }

    #[test]
    fn author_lists_are_sorted_and_exclude_self() {
        let (_, corpus, idx) = setup();
        for p in corpus.paper_ids() {
            let rows = idx.paper_authors.get(p.index());
            assert!(rows.windows(2).all(|w| w[0] < w[1]));
            let mut distinct: Vec<u32> = corpus.paper(p).authors.iter().map(|a| a.0).collect();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(rows.len(), distinct.len());
            for &a in rows {
                let co = idx.coauthors.get(a as usize);
                assert!(co.windows(2).all(|w| w[0] < w[1]));
                assert!(co.binary_search(&a).is_err(), "no self co-authorship");
                for &b in rows.iter().filter(|&&b| b != a) {
                    assert!(co.binary_search(&b).is_ok());
                }
            }
        }
    }

    #[test]
    fn global_pagerank_is_a_distribution() {
        let (_, _, idx) = setup();
        let total: f64 = idx.global_pagerank.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(idx.global_pagerank.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn term_names_are_analyzed() {
        let (onto, _, idx) = setup();
        let non_empty = idx
            .term_name_tokens
            .iter()
            .filter(|v| !v.is_empty())
            .count();
        assert!(non_empty > onto.len() / 2);
    }
}
