//! Bibliographic coupling and co-citation similarity.
//!
//! The text-based prestige score's citation-similarity component (paper
//! §3.2) is `SimReferences = BibWeight·Sim_bib + (1-BibWeight)·Sim_coc`:
//!
//! * **Bibliographic coupling** (Kessler 1963, paper ref \[15\]): two
//!   papers are similar when they *cite* the same papers.
//! * **Co-citation** (Small 1973, paper ref \[14\]): two papers are
//!   similar when the same papers *cite both*.
//!
//! Both are normalized cosine-style: `|A ∩ B| / sqrt(|A|·|B|)`, giving
//! scores in [0, 1] comparable with the other similarity components.

use crate::graph::CitationGraph;

/// Size of the intersection of two sorted, deduplicated u32 slices
/// (two-pointer merge, no allocation).
pub fn sorted_intersection_size(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

fn cosine_overlap(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    sorted_intersection_size(a, b) as f64 / ((a.len() * b.len()) as f64).sqrt()
}

/// Bibliographic-coupling similarity of papers `u` and `v` in [0, 1]:
/// normalized overlap of their reference lists.
pub fn bibliographic_coupling(graph: &CitationGraph, u: u32, v: u32) -> f64 {
    cosine_overlap(graph.references(u), graph.references(v))
}

/// Co-citation similarity of papers `u` and `v` in [0, 1]: normalized
/// overlap of the sets of papers citing them.
pub fn cocitation(graph: &CitationGraph, u: u32, v: u32) -> f64 {
    cosine_overlap(graph.citations(u), graph.citations(v))
}

/// The paper's combined citation similarity:
/// `BibWeight·Sim_bib + (1-BibWeight)·Sim_coc`.
pub fn citation_similarity(graph: &CitationGraph, u: u32, v: u32, bib_weight: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&bib_weight));
    bib_weight * bibliographic_coupling(graph, u, v) + (1.0 - bib_weight) * cocitation(graph, u, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 and 1 both cite {2, 3}; 4 and 5 both cite 0 and 1.
    fn g() -> CitationGraph {
        CitationGraph::from_edges(
            6,
            &[
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (4, 0),
                (4, 1),
                (5, 0),
                (5, 1),
            ],
        )
    }

    #[test]
    fn identical_reference_lists_couple_fully() {
        assert_eq!(bibliographic_coupling(&g(), 0, 1), 1.0);
    }

    #[test]
    fn no_shared_references_is_zero() {
        assert_eq!(bibliographic_coupling(&g(), 0, 4), 0.0);
    }

    #[test]
    fn cocitation_of_jointly_cited_papers_is_one() {
        // 0 and 1 are both cited by exactly {4, 5}.
        assert_eq!(cocitation(&g(), 0, 1), 1.0);
    }

    #[test]
    fn cocitation_with_uncited_paper_is_zero() {
        assert_eq!(cocitation(&g(), 0, 4), 0.0);
    }

    #[test]
    fn partial_overlap_is_fractional() {
        // 0 cites {1,2}; 3 cites {1,4}: overlap 1, norm sqrt(4)=2.
        let g = CitationGraph::from_edges(5, &[(0, 1), (0, 2), (3, 1), (3, 4)]);
        assert!((bibliographic_coupling(&g, 0, 3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn combined_similarity_mixes_components() {
        let graph = g();
        let full_bib = citation_similarity(&graph, 0, 1, 1.0);
        let full_coc = citation_similarity(&graph, 0, 1, 0.0);
        let half = citation_similarity(&graph, 0, 1, 0.5);
        assert_eq!(full_bib, 1.0);
        assert_eq!(full_coc, 1.0);
        assert_eq!(half, 1.0);
        // Asymmetric case: 0 vs 2 (2 cites nothing, cited by 0 and 1).
        let bib = citation_similarity(&graph, 2, 3, 1.0);
        assert_eq!(bib, 0.0); // neither cites anything
        let coc = citation_similarity(&graph, 2, 3, 0.0);
        assert_eq!(coc, 1.0); // both cited by exactly {0,1}
    }

    #[test]
    fn self_similarity_is_one_when_nonempty() {
        let graph = g();
        assert_eq!(bibliographic_coupling(&graph, 0, 0), 1.0);
        assert_eq!(cocitation(&graph, 2, 2), 1.0);
    }

    proptest::proptest! {
        #[test]
        fn similarities_are_symmetric_and_bounded(
            edges in proptest::collection::vec((0u32..15, 0u32..15), 0..40),
            u in 0u32..15,
            v in 0u32..15,
            w in 0.0f64..1.0,
        ) {
            let g = CitationGraph::from_edges(15, &edges);
            let ab = citation_similarity(&g, u, v, w);
            let ba = citation_similarity(&g, v, u, w);
            proptest::prop_assert!((ab - ba).abs() < 1e-12);
            proptest::prop_assert!((0.0..=1.0 + 1e-12).contains(&ab));
        }
    }
}
