//! Seeded query mixes.
//!
//! Everything here is a pure function of the benchmark seed and the
//! generated corpus; the program under test only ever sees the
//! resulting query strings. Two samplers draw from one pool of concept
//! texts (`generate_queries` paraphrases):
//!
//! - [`NoRepeat`], for the in-process closed loop: seeded permutations
//!   of the (query, pair, limit) inputs, strictly alternating
//!   one-concept and two-concept queries, so no input repeats within a
//!   run and a result cache would gain nothing;
//! - [`Zipf`], for the wire's open and closed loops: (query, pair)
//!   inputs drawn with Zipf skew, so popular inputs repeat.

use context_search::{ContextSetKind, ScoreFunction};
use corpus::queries::{generate_queries, QueryConfig};
use corpus::Corpus;
use ontology::Ontology;
use std::collections::HashSet;

/// The five (paper set, score function) pairs `EngineSnapshot::prepare`
/// builds by default.
pub const PAIRS: [(ContextSetKind, ScoreFunction); 5] = [
    (ContextSetKind::TextBased, ScoreFunction::Text),
    (ContextSetKind::TextBased, ScoreFunction::Citation),
    (ContextSetKind::PatternBased, ScoreFunction::Pattern),
    (ContextSetKind::PatternBased, ScoreFunction::Citation),
    (ContextSetKind::PatternBased, ScoreFunction::Text),
];

/// Result limits of the closed-loop mix.
pub const LIMITS: [usize; 2] = [10, 100];

/// Result limit of every wire request (the server's default depth).
pub const WIRE_LIMIT: usize = 10;

/// SplitMix64: a small, seedable, portable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One query as a client would send it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Input {
    /// Query text.
    pub query: String,
    /// Index into [`PAIRS`].
    pub pair: usize,
    /// Result limit.
    pub limit: usize,
    /// Whether the text joins two concept paraphrases.
    pub two_concept: bool,
}

impl Input {
    /// The (paper set, score function) pair.
    pub fn kind_function(&self) -> (ContextSetKind, ScoreFunction) {
        PAIRS[self.pair]
    }

    /// The `POST /v1/search` JSON body for this input.
    pub fn body_json(&self) -> String {
        let (kind, function) = self.kind_function();
        let query = serde_json::to_string(&serde::Value::Str(self.query.clone()))
            .expect("a string always encodes");
        format!(
            "{{\"query\":{query},\"kind\":\"{}\",\"function\":\"{}\",\"limit\":{}}}",
            kind.name(),
            function.name(),
            self.limit
        )
    }
}

/// Distinct one-concept query texts: `generate_queries` paraphrases
/// over `rounds` seeds derived from `seed`, deduplicated, in first-seen
/// order.
pub fn concept_texts(ontology: &Ontology, corpus: &Corpus, seed: u64, rounds: u64) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut texts = Vec::new();
    let mut rng = Rng::new(seed ^ 0x5EED_7E47);
    for _ in 0..rounds {
        let config = QueryConfig {
            n_queries: usize::MAX,
            seed: rng.next_u64(),
            ..QueryConfig::default()
        };
        for q in generate_queries(ontology, corpus, &config) {
            let text = q.text.trim().to_string();
            if !text.is_empty() && seen.insert(text.clone()) {
                texts.push(text);
            }
        }
    }
    texts
}

/// A seeded bijection of `0..n`: `i ↦ (a·i + b) mod n` with `a` coprime
/// to `n`.
#[derive(Debug, Clone, Copy)]
struct Affine {
    n: u64,
    a: u64,
    b: u64,
}

impl Affine {
    fn new(n: u64, rng: &mut Rng) -> Self {
        fn gcd(mut x: u64, mut y: u64) -> u64 {
            while y != 0 {
                (x, y) = (y, x % y);
            }
            x
        }
        let n = n.max(1);
        let mut a = 1;
        if n > 2 {
            loop {
                a = 1 + rng.below(n - 1);
                if gcd(a, n) == 1 {
                    break;
                }
            }
        }
        Self {
            n,
            a,
            b: rng.below(n),
        }
    }

    fn apply(&self, i: u64) -> u64 {
        ((u128::from(self.a) * u128::from(i) + u128::from(self.b)) % u128::from(self.n)) as u64
    }
}

const COMBOS: u64 = (PAIRS.len() * LIMITS.len()) as u64;

/// The closed-loop stream: operation `k` maps to a distinct input.
///
/// Even operations draw one-concept inputs and odd ones two-concept
/// inputs, so the mix is half and half at every length. Each side walks
/// its own seeded permutation, so no input is ever produced twice. The
/// stream ends when the one-concept inputs run out ([`NoRepeat::len`]);
/// a caller that needs more operations has a pool too small for its
/// run, which is a set-up error, not a reason to change the mix.
#[derive(Debug, Clone)]
pub struct NoRepeat {
    texts: Vec<String>,
    singles: Affine,
    doubles: Affine,
}

impl NoRepeat {
    /// A stream over `texts` (at least two) fixed by `seed`.
    pub fn new(texts: Vec<String>, seed: u64) -> Self {
        assert!(texts.len() >= 2, "the mix needs at least two concept texts");
        let s = texts.len() as u64;
        let mut rng = Rng::new(seed ^ 0x0C10_5ED0);
        let singles = Affine::new(s * COMBOS, &mut rng);
        let doubles = Affine::new(s * (s - 1) * COMBOS, &mut rng);
        Self {
            texts,
            singles,
            doubles,
        }
    }

    /// Operations in the stream: two per one-concept input (there are
    /// always more two-concept inputs than one-concept ones).
    pub fn len(&self) -> u64 {
        2 * self.singles.n
    }

    /// The input of operation `k`, or `None` past the end of the stream.
    pub fn input(&self, k: u64) -> Option<Input> {
        if k >= self.len() {
            return None;
        }
        Some(if k.is_multiple_of(2) {
            self.decode_single(self.singles.apply(k / 2))
        } else {
            self.decode_double(self.doubles.apply(k / 2))
        })
    }

    fn decode_single(&self, idx: u64) -> Input {
        let (text, rem) = (idx / COMBOS, idx % COMBOS);
        Input {
            query: self.texts[text as usize].clone(),
            pair: (rem / 2) as usize,
            limit: LIMITS[(rem % 2) as usize],
            two_concept: false,
        }
    }

    fn decode_double(&self, idx: u64) -> Input {
        let s = self.texts.len() as u64;
        let (p, rem) = (idx / COMBOS, idx % COMBOS);
        let first = p / (s - 1);
        let mut second = p % (s - 1);
        if second >= first {
            second += 1;
        }
        Input {
            query: format!(
                "{} {}",
                self.texts[first as usize], self.texts[second as usize]
            ),
            pair: (rem / 2) as usize,
            limit: LIMITS[(rem % 2) as usize],
            two_concept: true,
        }
    }
}

/// Zipf(`exponent`) over ranks `0..n`: rank `r` has probability
/// proportional to `1 / (r + 1)^exponent`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf over no ranks");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(exponent);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Probability of rank `r`.
    #[cfg(test)]
    fn probability(&self, r: usize) -> f64 {
        self.cdf[r] - if r == 0 { 0.0 } else { self.cdf[r - 1] }
    }

    /// Expected share of `draws` draws that repeat an earlier draw:
    /// `1 − E[distinct] / draws`.
    #[cfg(test)]
    fn expected_repeat_share(&self, draws: usize) -> f64 {
        let distinct: f64 = (0..self.cdf.len())
            .map(|r| 1.0 - (1.0 - self.probability(r)).powi(draws as i32))
            .sum();
        1.0 - distinct / draws as f64
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Zipf exponent of the wire mix.
pub const WIRE_ZIPF_EXPONENT: f64 = 1.0;

/// The wire mix: (one-concept text, pair) inputs ranked by a seeded
/// shuffle and drawn with Zipf skew.
#[derive(Debug, Clone)]
pub struct WireMix {
    items: Vec<Input>,
    zipf: Zipf,
}

impl WireMix {
    /// The mix over `texts`, fixed by `seed`.
    pub fn new(texts: &[String], seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x3172_E000);
        let mut items: Vec<Input> = texts
            .iter()
            .flat_map(|t| {
                (0..PAIRS.len()).map(move |pair| Input {
                    query: t.clone(),
                    pair,
                    limit: WIRE_LIMIT,
                    two_concept: false,
                })
            })
            .collect();
        for i in (1..items.len()).rev() {
            items.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let zipf = Zipf::new(items.len(), WIRE_ZIPF_EXPONENT);
        Self { items, zipf }
    }

    /// `n` draws: the item index of each.
    pub fn draw(&self, n: usize, rng: &mut Rng) -> Vec<usize> {
        (0..n).map(|_| self.zipf.sample(rng)).collect()
    }

    /// The input behind an item index.
    pub fn item(&self, i: usize) -> &Input {
        &self.items[i]
    }
}

/// Share of `keys` that repeat an earlier key.
pub fn repeat_share<T: std::hash::Hash + Eq>(keys: impl IntoIterator<Item = T>) -> f64 {
    let mut seen = HashSet::new();
    let mut total = 0usize;
    let mut repeats = 0usize;
    for k in keys {
        total += 1;
        if !seen.insert(k) {
            repeats += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        repeats as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("concept{i} word{}", i % 7))
            .collect()
    }

    #[test]
    fn same_seed_same_mix_other_seed_other_mix() {
        let a = NoRepeat::new(texts(30), 1);
        let b = NoRepeat::new(texts(30), 1);
        let c = NoRepeat::new(texts(30), 2);
        let run = |s: &NoRepeat| (0..500).map(|k| s.input(k)).collect::<Vec<_>>();
        assert_eq!(run(&a), run(&b));
        assert_ne!(run(&a), run(&c));

        let mut r1 = Rng::new(9);
        let mut r2 = Rng::new(9);
        let mut r3 = Rng::new(10);
        let w1 = WireMix::new(&texts(30), 9);
        let w3 = WireMix::new(&texts(30), 10);
        let d1 = w1.draw(300, &mut r1);
        assert_eq!(d1, w1.draw(300, &mut r2));
        let d3 = w3.draw(300, &mut r3);
        let q1: Vec<&Input> = d1.iter().map(|&i| w1.item(i)).collect();
        let q3: Vec<&Input> = d3.iter().map(|&i| w3.item(i)).collect();
        assert_ne!(q1, q3);
    }

    #[test]
    fn no_repeat_stream_never_repeats_and_alternates_concepts() {
        let stream = NoRepeat::new(texts(12), 7);
        let total = stream.len();
        assert_eq!(total, 2 * 12 * COMBOS);
        let inputs: Vec<Input> = (0..total).map(|k| stream.input(k).unwrap()).collect();
        assert_eq!(repeat_share(inputs.iter()), 0.0);
        // The stream ends with the one-concept inputs rather than
        // switching to two-concept ones.
        assert!(stream.input(total).is_none());
        // Strict alternation, so every prefix is half two-concept.
        for (k, input) in inputs.iter().enumerate() {
            assert_eq!(input.two_concept, k % 2 == 1);
        }
        // Every pair and both limits occur.
        for pair in 0..PAIRS.len() {
            for limit in LIMITS {
                assert!(inputs.iter().any(|i| i.pair == pair && i.limit == limit));
            }
        }
    }

    #[test]
    fn zipf_sampler_produces_the_shares_it_claims() {
        let zipf = Zipf::new(500, WIRE_ZIPF_EXPONENT);
        let harmonic: f64 = (1..=500).map(|r| 1.0 / r as f64).sum();
        assert!((zipf.probability(0) - 1.0 / harmonic).abs() < 1e-12);
        let mut rng = Rng::new(3);
        let draws = 200_000;
        let samples: Vec<usize> = (0..draws).map(|_| zipf.sample(&mut rng)).collect();
        let top = samples.iter().filter(|&&r| r == 0).count() as f64 / draws as f64;
        assert!(
            (top - zipf.probability(0)).abs() < 0.005,
            "rank-0 share {top}"
        );
        let tenth = samples.iter().filter(|&&r| r == 9).count() as f64 / draws as f64;
        assert!(
            (tenth - zipf.probability(9)).abs() < 0.003,
            "rank-9 share {tenth}"
        );
        // The repeat share of a run matches its expectation.
        let n = 5_000;
        let measured = repeat_share(samples[..n].iter());
        let expected = zipf.expected_repeat_share(n);
        assert!(
            (measured - expected).abs() < 0.02,
            "{measured} vs {expected}"
        );
        assert!(expected > 0.5);
    }

    #[test]
    fn wire_bodies_are_json_with_escaped_queries() {
        let input = Input {
            query: "a \"b\"".to_string(),
            pair: 3,
            limit: 10,
            two_concept: false,
        };
        assert_eq!(
            input.body_json(),
            r#"{"query":"a \"b\"","kind":"pattern","function":"citation","limit":10}"#
        );
    }
}
