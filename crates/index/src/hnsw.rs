//! A deterministic HNSW-style navigable small-world graph (std-only).
//!
//! Two departures from the textbook construction keep it reproducible:
//! the level draw for every inserted node comes from a caller-supplied
//! [`VrRng`] (forked from the dataset seed at load time), and every
//! ordering — candidate heaps, neighbor selection, result lists —
//! tie-breaks on node id, so equal distances never fall back to
//! hash-map or allocation order. Insert the same vectors in the same
//! order with the same seed and the graph, and every search over it,
//! is identical.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use vr_base::rng::VrRng;

/// Graph shape parameters.
#[derive(Debug, Clone, Copy)]
pub struct HnswConfig {
    /// Max links per node on layers above 0.
    pub m: usize,
    /// Max links per node on layer 0 (conventionally `2 * m`).
    pub m0: usize,
    /// Beam width while building.
    pub ef_construction: usize,
    /// Default beam width while searching.
    pub ef_search: usize,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig { m: 8, m0: 16, ef_construction: 64, ef_search: 48 }
    }
}

/// (distance, id) with a total order: distance first, id breaks ties.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Neighbor {
    dist: f32,
    id: u32,
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        // Distances are finite by construction (quantized inputs), so
        // partial_cmp only returns None for NaN, which total_cmp avoids.
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Squared Euclidean distance.
fn l2sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for i in 0..a.len() {
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc
}

pub struct Hnsw {
    cfg: HnswConfig,
    dim: usize,
    vectors: Vec<Vec<f32>>,
    /// `links[id][layer]` = neighbor ids on that layer.
    links: Vec<Vec<Vec<u32>>>,
    entry: Option<u32>,
}

impl Hnsw {
    pub fn new(dim: usize, cfg: HnswConfig) -> Self {
        Hnsw { cfg, dim, vectors: Vec::new(), links: Vec::new(), entry: None }
    }

    pub(crate) fn vector(&self, id: u32) -> &[f32] {
        &self.vectors[id as usize]
    }

    /// Insert a vector; its id is the insertion index. The level draw
    /// consumes exactly one `u64` from `rng` per insert.
    pub fn insert(&mut self, vector: Vec<f32>, rng: &mut VrRng) -> u32 {
        assert_eq!(vector.len(), self.dim, "vector dimension mismatch");
        let id = self.vectors.len() as u32;
        // Geometric level distribution with p = 1/m: count trailing
        // one-bits drawn in base m. Integer arithmetic keeps the draw
        // bit-stable across platforms (no ln()).
        let mut level = 0usize;
        let mut draw = rng.next_u64();
        while level < 16 && (draw % self.cfg.m as u64) == 0 && self.cfg.m > 1 {
            level += 1;
            draw /= self.cfg.m as u64;
        }
        self.vectors.push(vector);
        self.links.push(vec![Vec::new(); level + 1]);

        let Some(mut ep) = self.entry else {
            self.entry = Some(id);
            return id;
        };
        let top = self.layer_count(ep) - 1;

        // Greedy descent through layers above the new node's level.
        let q = self.vectors[id as usize].clone();
        let mut layer = top;
        while layer > level {
            ep = self.greedy_closest(&q, ep, layer);
            if layer == 0 {
                break;
            }
            layer -= 1;
        }

        // Connect on every layer from min(level, top) down to 0.
        let mut layer = level.min(top);
        loop {
            let found = self.search_layer(&q, ep, layer, self.cfg.ef_construction);
            let cap = if layer == 0 { self.cfg.m0 } else { self.cfg.m };
            let chosen: Vec<u32> = found.iter().take(cap).map(|n| n.id).collect();
            for &nb in &chosen {
                self.links[id as usize][layer].push(nb);
                self.links[nb as usize][layer].push(id);
                self.prune(nb, layer);
            }
            if let Some(best) = found.first() {
                ep = best.id;
            }
            if layer == 0 {
                break;
            }
            layer -= 1;
        }

        if level > top {
            self.entry = Some(id);
        }
        id
    }

    /// k nearest neighbors of `query`, ordered by (distance, id).
    pub fn search(&self, query: &[f32], k: usize) -> Vec<(u32, f32)> {
        self.search_ef(query, k, self.cfg.ef_search)
    }

    pub(crate) fn search_ef(&self, query: &[f32], k: usize, ef: usize) -> Vec<(u32, f32)> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let Some(mut ep) = self.entry else {
            return Vec::new();
        };
        let top = self.layer_count(ep) - 1;
        for layer in (1..=top).rev() {
            ep = self.greedy_closest(query, ep, layer);
        }
        let found = self.search_layer(query, ep, 0, ef.max(k));
        found.into_iter().take(k).map(|n| (n.id, n.dist)).collect()
    }

    fn layer_count(&self, id: u32) -> usize {
        self.links[id as usize].len()
    }

    /// Greedy walk on one layer toward the query's local minimum.
    fn greedy_closest(&self, q: &[f32], mut ep: u32, layer: usize) -> u32 {
        let mut best = Neighbor { dist: l2sq(q, self.vector(ep)), id: ep };
        loop {
            let mut improved = false;
            // Neighbor lists are in deterministic insertion/prune order.
            for &nb in self.neighbors(ep, layer) {
                let cand = Neighbor { dist: l2sq(q, self.vector(nb)), id: nb };
                if cand < best {
                    best = cand;
                    improved = true;
                }
            }
            if !improved {
                return best.id;
            }
            ep = best.id;
        }
    }

    fn neighbors(&self, id: u32, layer: usize) -> &[u32] {
        let layers = &self.links[id as usize];
        if layer < layers.len() {
            &layers[layer]
        } else {
            &[]
        }
    }

    /// Beam search on one layer; returns up to `ef` nearest, sorted by
    /// (distance, id).
    fn search_layer(&self, q: &[f32], ep: u32, layer: usize, ef: usize) -> Vec<Neighbor> {
        let mut visited = vec![false; self.vectors.len()];
        visited[ep as usize] = true;
        let start = Neighbor { dist: l2sq(q, self.vector(ep)), id: ep };
        // Min-heap of frontier candidates, max-heap of current results.
        let mut frontier = BinaryHeap::new();
        frontier.push(std::cmp::Reverse(start));
        let mut results: BinaryHeap<Neighbor> = BinaryHeap::new();
        results.push(start);
        while let Some(std::cmp::Reverse(cand)) = frontier.pop() {
            let worst = results.peek().copied().unwrap();
            if results.len() >= ef && cand > worst {
                break;
            }
            for &nb in self.neighbors(cand.id, layer) {
                if visited[nb as usize] {
                    continue;
                }
                visited[nb as usize] = true;
                let n = Neighbor { dist: l2sq(q, self.vector(nb)), id: nb };
                let worst = results.peek().copied().unwrap();
                if results.len() < ef || n < worst {
                    frontier.push(std::cmp::Reverse(n));
                    results.push(n);
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        let mut out = results.into_vec();
        out.sort();
        out
    }

    /// Keep a node's neighbor list within the layer cap, retaining the
    /// closest (ties to the lower id).
    fn prune(&mut self, id: u32, layer: usize) {
        let cap = if layer == 0 { self.cfg.m0 } else { self.cfg.m };
        if self.links[id as usize][layer].len() <= cap {
            return;
        }
        let base = self.vectors[id as usize].clone();
        let mut scored: Vec<Neighbor> = self.links[id as usize][layer]
            .iter()
            .map(|&nb| Neighbor { dist: l2sq(&base, self.vector(nb)), id: nb })
            .collect();
        scored.sort();
        scored.dedup_by_key(|n| n.id);
        self.links[id as usize][layer] = scored.into_iter().take(cap).map(|n| n.id).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(seed: u64, n: usize, dim: usize) -> (Hnsw, Vec<Vec<f32>>) {
        let mut rng = VrRng::seed_from(seed);
        let vectors: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.range_f32(-1.0, 1.0)).collect())
            .collect();
        let mut graph = Hnsw::new(dim, HnswConfig::default());
        let mut level_rng = VrRng::seed_from(seed).fork(0x11);
        for v in &vectors {
            graph.insert(v.clone(), &mut level_rng);
        }
        (graph, vectors)
    }

    fn brute_force(vectors: &[Vec<f32>], q: &[f32], k: usize) -> Vec<u32> {
        let mut scored: Vec<Neighbor> = vectors
            .iter()
            .enumerate()
            .map(|(i, v)| Neighbor { dist: l2sq(q, v), id: i as u32 })
            .collect();
        scored.sort();
        scored.into_iter().take(k).map(|n| n.id).collect()
    }

    #[test]
    fn insert_and_search_are_deterministic_under_seeded_rng() {
        let (a, _) = build(42, 300, 8);
        let (b, _) = build(42, 300, 8);
        let q = vec![0.1; 8];
        assert_eq!(a.search(&q, 10), b.search(&q, 10));
        // Structural determinism, not just result determinism.
        assert_eq!(a.entry, b.entry);
        assert_eq!(a.links, b.links);
    }

    #[test]
    fn different_seed_different_graph_same_quality() {
        let (a, _) = build(1, 200, 8);
        let (b, _) = build(2, 200, 8);
        // Levels are drawn differently, so the graphs differ...
        assert_ne!(a.links, b.links);
        // ...but both still answer (exactness checked below).
        let q = vec![0.0; 8];
        assert_eq!(a.search(&q, 5).len(), 5);
        assert_eq!(b.search(&q, 5).len(), 5);
    }

    #[test]
    fn recall_against_brute_force() {
        let (graph, vectors) = build(7, 400, 12);
        let mut rng = VrRng::seed_from(99);
        let mut hits = 0usize;
        let mut total = 0usize;
        for _ in 0..20 {
            let q: Vec<f32> = (0..12).map(|_| rng.range_f32(-1.0, 1.0)).collect();
            let truth = brute_force(&vectors, &q, 10);
            let got: Vec<u32> = graph.search(&q, 10).into_iter().map(|(id, _)| id).collect();
            hits += got.iter().filter(|id| truth.contains(id)).count();
            total += truth.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.9, "HNSW recall {recall} < 0.9 vs brute force");
    }

    #[test]
    fn exact_on_small_sets() {
        // Below ef_construction the beam covers everything: exact.
        let (graph, vectors) = build(3, 40, 6);
        let q = vec![0.25; 6];
        let truth = brute_force(&vectors, &q, 5);
        let got: Vec<u32> = graph.search(&q, 5).into_iter().map(|(id, _)| id).collect();
        assert_eq!(got, truth);
    }

    #[test]
    fn empty_graph_returns_nothing() {
        let graph = Hnsw::new(4, HnswConfig::default());
        assert!(graph.search(&[0.0; 4], 3).is_empty());
    }
}
