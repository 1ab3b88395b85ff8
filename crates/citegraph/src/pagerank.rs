//! The paper's PageRank variant (§3.1).
//!
//! Iterates `P_{i+1} = d · Mᵀ P_i + E` where `M` is the row-normalized
//! citation matrix (row u spreads u's mass equally over the papers u
//! cites), `d` the probability of following a citation, and `E` the
//! teleport term. The paper offers two teleport options:
//!
//! * `E1 = (1-d)` — a constant added to every paper (mass is *not*
//!   conserved during iteration; we renormalize at the end),
//! * `E2 = ((1-d)/N)·Σ P_i` — teleport proportional to current total
//!   mass (the standard, mass-conserving choice).
//!
//! Papers with no in-context references (dangling nodes) spread their
//! mass uniformly — the paper's "hidden citation link between a paper
//! and all other papers", which guarantees convergence.
//!
//! Scores are finally normalized to a probability distribution
//! (sum = 1). Callers that need a bounded absolute prestige (the
//! citation score function, §3) rescale relative to the uniform score
//! `1/N` — that mapping keeps an isolated paper's prestige *low*
//! instead of inflating whole-context ties to 1.0.

use crate::graph::CitationGraph;

/// Teleport term choice (the paper's E1 / E2 options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TeleportMode {
    /// `E1`: constant `(1-d)` per node.
    Constant,
    /// `E2`: `((1-d)/N) · Σ P_i` per node (mass-conserving).
    #[default]
    MassProportional,
}

/// PageRank parameters.
#[derive(Debug, Clone)]
pub struct PageRankConfig {
    /// Probability `d` of following a citation (damping factor).
    pub damping: f64,
    /// Teleport option.
    pub teleport: TeleportMode,
    /// Iteration cap.
    pub max_iterations: usize,
    /// L1 convergence tolerance on the (pre-normalization) vector.
    pub tolerance: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self {
            damping: 0.85,
            teleport: TeleportMode::MassProportional,
            max_iterations: 100,
            tolerance: 1e-9,
        }
    }
}

/// Result of a PageRank run.
#[derive(Debug, Clone)]
pub struct PageRankResult {
    /// Per-node scores, normalized to sum = 1.0 (a probability
    /// distribution; empty for an empty graph).
    pub scores: Vec<f64>,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Whether the L1 delta fell below tolerance within the cap.
    pub converged: bool,
    /// L1 delta of the last iteration executed (0.0 when no iteration
    /// ran, i.e. an empty graph).
    pub final_residual: f64,
}

/// Normalize `p` to a probability distribution, record run-level
/// telemetry, and assemble the result. Residuals are recorded in
/// picounits (`residual × 1e12`) so the integer histogram resolves well
/// below the default 1e-9 tolerance.
fn finish(
    mut p: Vec<f64>,
    iterations: usize,
    converged: bool,
    final_residual: f64,
) -> PageRankResult {
    let total: f64 = p.iter().sum();
    if total > 0.0 {
        for x in &mut p {
            *x /= total;
        }
    }
    obs::counter("citegraph.pagerank.runs", 1);
    obs::counter("citegraph.pagerank.iterations", iterations as u64);
    obs::counter("citegraph.pagerank.converged_runs", converged as u64);
    obs::observe_ns("citegraph.pagerank.iterations_per_run", iterations as u64);
    obs::observe_ns(
        "citegraph.pagerank.final_residual_e12",
        (final_residual * 1e12) as u64,
    );
    PageRankResult {
        scores: p,
        iterations,
        converged,
        final_residual,
    }
}

/// PageRank with a personalization (biased-teleport) vector: teleport
/// and dangling mass are distributed proportionally to `bias` instead
/// of uniformly (Topic-Sensitive-PageRank style, the paper's ref \[17\]).
/// `bias` entries must be non-negative; an all-zero bias falls back to
/// uniform. Always mass-conserving (the E2 semantics).
pub fn pagerank_personalized(
    graph: &CitationGraph,
    config: &PageRankConfig,
    bias: &[f64],
) -> PageRankResult {
    let n = graph.n_nodes() as usize;
    assert_eq!(bias.len(), n, "bias length must match node count");
    if n == 0 {
        return finish(Vec::new(), 0, true, 0.0);
    }
    let bias_total: f64 = bias.iter().sum();
    let b: Vec<f64> = if bias_total > 0.0 {
        bias.iter().map(|&x| x.max(0.0) / bias_total).collect()
    } else {
        vec![1.0 / n as f64; n]
    };
    power_iterate(graph, config, Some(&b))
}

/// Run PageRank over `graph` with `config`.
pub fn pagerank(graph: &CitationGraph, config: &PageRankConfig) -> PageRankResult {
    if graph.n_nodes() == 0 {
        return finish(Vec::new(), 0, true, 0.0);
    }
    assert!(
        (0.0..=1.0).contains(&config.damping),
        "damping must be in [0,1]"
    );
    power_iterate(graph, config, None)
}

/// The one power-iteration loop behind [`pagerank`] and
/// [`pagerank_personalized`], over a non-empty graph.
///
/// `bias` is the normalized teleport distribution. `None` is the plain
/// variant: it starts from `1/N`, adds the uniform dangling share plus
/// the [`TeleportMode`] term to every node, and allocates nothing but
/// the two score vectors. `Some(b)` starts from `b` and hands both the
/// dangling mass and the `(1-d)` teleport mass out in proportion to `b`
/// (always mass-conserving, so `TeleportMode` does not apply).
fn power_iterate(
    graph: &CitationGraph,
    config: &PageRankConfig,
    bias: Option<&[f64]>,
) -> PageRankResult {
    let n = graph.n_nodes() as usize;
    let d = config.damping;
    let inv_n = 1.0 / n as f64;
    let mut p = match bias {
        Some(b) => b.to_vec(),
        None => vec![inv_n; n],
    };
    let mut next = vec![0.0f64; n];
    let mut iterations = 0;
    let mut converged = false;
    let mut final_residual = 0.0f64;

    for _ in 0..config.max_iterations {
        iterations += 1;
        next.iter_mut().for_each(|x| *x = 0.0);

        // d · Mᵀ P: each citing paper u spreads d·p[u]/outdeg(u) to the
        // papers it cites; dangling mass is collected for redistribution.
        let mut dangling_mass = 0.0f64;
        for u in 0..n as u32 {
            let refs = graph.references(u);
            if refs.is_empty() {
                dangling_mass += p[u as usize];
            } else {
                let share = d * p[u as usize] / refs.len() as f64;
                for &v in refs {
                    next[v as usize] += share;
                }
            }
        }

        let total: f64 = p.iter().sum();
        match bias {
            Some(b) => {
                let redistribute = d * dangling_mass + (1.0 - d) * total;
                for (x, &bi) in next.iter_mut().zip(b) {
                    *x += redistribute * bi;
                }
            }
            None => {
                let dangling_share = d * dangling_mass * inv_n;
                let teleport = match config.teleport {
                    TeleportMode::Constant => 1.0 - d,
                    TeleportMode::MassProportional => (1.0 - d) * total * inv_n,
                };
                for x in next.iter_mut() {
                    *x += dangling_share + teleport;
                }
            }
        }

        let delta: f64 = p.iter().zip(next.iter()).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut p, &mut next);
        final_residual = delta;
        obs::observe_ns("citegraph.pagerank.residual_e12", (delta * 1e12) as u64);
        if delta < config.tolerance {
            converged = true;
            break;
        }
    }

    finish(p, iterations, converged, final_residual)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: u32, edges: &[(u32, u32)]) -> Vec<f64> {
        let g = CitationGraph::from_edges(n, edges);
        pagerank(&g, &PageRankConfig::default()).scores
    }

    #[test]
    fn heavily_cited_paper_wins() {
        // Papers 1,2,3 all cite 0.
        let s = run(4, &[(1, 0), (2, 0), (3, 0)]);
        assert!(s[0] > s[1] && s[0] > s[2] && s[0] > s[3]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn symmetric_nodes_get_equal_scores() {
        // 0↔1 mutually cite; by symmetry equal score.
        let s = run(2, &[(0, 1), (1, 0)]);
        assert!((s[0] - s[1]).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_gives_uniform() {
        let s = run(3, &[]);
        // All dangling: uniform probability 1/3 each.
        assert!(s.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-9));
    }

    #[test]
    fn indirect_prestige_propagates() {
        // 2 and 3 cite 1; 1 cites 0. Paper 0's only citation comes from
        // the prestigious 1, so 0 should outrank the leaf citers.
        let s = run(4, &[(2, 1), (3, 1), (1, 0)]);
        assert!(s[1] > s[2], "directly cited paper beats citers");
        assert!(s[0] > s[2], "inherited prestige beats leaves");
    }

    #[test]
    fn converges_and_reports_it() {
        let g = CitationGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let r = pagerank(&g, &PageRankConfig::default());
        assert!(r.converged, "cycle graph should converge");
        assert!(r.iterations < 100);
        assert!(
            r.final_residual < PageRankConfig::default().tolerance,
            "converged run reports its sub-tolerance residual, got {}",
            r.final_residual
        );
        // Perfect cycle: all equal.
        for w in r.scores.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-6);
        }
    }

    #[test]
    fn capped_run_reports_residual_above_tolerance() {
        let g = CitationGraph::from_edges(4, &[(1, 0), (2, 0), (3, 1)]);
        let r = pagerank(
            &g,
            &PageRankConfig {
                max_iterations: 2,
                ..Default::default()
            },
        );
        assert!(!r.converged);
        assert_eq!(r.iterations, 2);
        assert!(r.final_residual >= PageRankConfig::default().tolerance);
    }

    #[test]
    fn teleport_modes_agree_on_ranking() {
        let edges = [(1, 0), (2, 0), (3, 1), (4, 1), (4, 0), (2, 3)];
        let g = CitationGraph::from_edges(5, &edges);
        let a = pagerank(
            &g,
            &PageRankConfig {
                teleport: TeleportMode::Constant,
                ..Default::default()
            },
        )
        .scores;
        let b = pagerank(
            &g,
            &PageRankConfig {
                teleport: TeleportMode::MassProportional,
                ..Default::default()
            },
        )
        .scores;
        let rank = |s: &[f64]| {
            let mut idx: Vec<usize> = (0..s.len()).collect();
            idx.sort_by(|&i, &j| s[j].partial_cmp(&s[i]).unwrap());
            idx
        };
        assert_eq!(rank(&a), rank(&b), "E1 and E2 should rank alike here");
    }

    #[test]
    fn zero_damping_is_pure_teleport() {
        let g = CitationGraph::from_edges(3, &[(0, 1), (2, 1)]);
        let r = pagerank(
            &g,
            &PageRankConfig {
                damping: 0.0,
                ..Default::default()
            },
        );
        // Without citation-following, everyone is equal.
        let n = r.scores.len() as f64;
        assert!(r.scores.iter().all(|&x| (x - 1.0 / n).abs() < 1e-9));
    }

    #[test]
    fn scores_sum_to_one() {
        let s = run(6, &[(1, 0), (2, 0), (3, 0), (4, 2), (5, 2)]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn sparse_graph_has_many_ties() {
        // The mechanism behind the paper's separability finding: an
        // edgeless (maximally sparse) context graph scores every paper
        // identically.
        let s = run(10, &[]);
        let first = s[0];
        assert!(s.iter().all(|&x| (x - first).abs() < 1e-12));
    }

    #[test]
    fn personalized_with_uniform_bias_matches_plain() {
        let g = CitationGraph::from_edges(5, &[(1, 0), (2, 0), (3, 1), (4, 2)]);
        let cfg = PageRankConfig::default();
        let plain = pagerank(&g, &cfg).scores;
        let pers = pagerank_personalized(&g, &cfg, &[1.0; 5]).scores;
        for (a, b) in plain.iter().zip(&pers) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn personalization_bias_lifts_favored_nodes() {
        // Edgeless graph: scores follow the bias exactly.
        let g = CitationGraph::from_edges(3, &[]);
        let s = pagerank_personalized(&g, &PageRankConfig::default(), &[2.0, 1.0, 1.0]).scores;
        assert!(s[0] > s[1]);
        assert!((s[1] - s[2]).abs() < 1e-9);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bias_falls_back_to_uniform() {
        let g = CitationGraph::from_edges(3, &[(0, 1)]);
        let z = pagerank_personalized(&g, &PageRankConfig::default(), &[0.0; 3]).scores;
        let u = pagerank(&g, &PageRankConfig::default()).scores;
        for (a, b) in z.iter().zip(&u) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    proptest::proptest! {
        #[test]
        fn scores_always_valid(
            n in 1u32..30,
            edges in proptest::collection::vec((0u32..30, 0u32..30), 0..80),
        ) {
            let g = CitationGraph::from_edges(n, &edges);
            for mode in [TeleportMode::Constant, TeleportMode::MassProportional] {
                let r = pagerank(&g, &PageRankConfig { teleport: mode, ..Default::default() });
                proptest::prop_assert_eq!(r.scores.len(), n as usize);
                let total: f64 = r.scores.iter().sum();
                proptest::prop_assert!((total - 1.0).abs() < 1e-9);
                for &s in &r.scores {
                    proptest::prop_assert!(s.is_finite() && (0.0..=1.0 + 1e-9).contains(&s));
                }
            }
        }
    }
}
