//! Seeded inputs: R-MAT and planted-partition graphs, label samples and
//! the FNV fingerprint printed with every run. The benchmark owns these
//! generators so that no change to `gee-gen` can change what is measured.

use gee_core::Labels;
use gee_graph::{Edge, EdgeList};

use crate::rng::Rng;

/// Shape of one workload's graph. Edge counts are exact, not expected
/// values, so every seed gives the kernel the same amount of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphSpec {
    /// R-MAT (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) over `2^scale`
    /// vertices with `edges` directed, weighted edges; labels are drawn
    /// uniformly from the `K` classes.
    Rmat { scale: u32, edges: usize },
    /// Planted partition: `blocks × per_block` vertices, `intra_pairs`
    /// undirected pairs inside blocks and `inter_pairs` anywhere, each
    /// stored in both directions with unit weight; a labelled vertex
    /// carries its block as class.
    Sbm {
        blocks: usize,
        per_block: usize,
        intra_pairs: usize,
        inter_pairs: usize,
    },
}

impl GraphSpec {
    pub fn num_vertices(&self) -> usize {
        match *self {
            GraphSpec::Rmat { scale, .. } => 1usize << scale,
            GraphSpec::Sbm {
                blocks, per_block, ..
            } => blocks * per_block,
        }
    }
}

/// Share of vertices that carry a label, as in the paper's evaluation.
pub const LABELLED_SHARE: f64 = 0.10;

/// A generated graph with its labels.
pub struct Input {
    pub edges: EdgeList,
    pub labels: Labels,
}

/// Generate the graph and labels for `(spec, classes, seed)`.
pub fn generate(spec: &GraphSpec, classes: usize, seed: u64) -> Input {
    let n = spec.num_vertices();
    let mut rng = Rng::new(seed, 1);
    let edges = match *spec {
        GraphSpec::Rmat { scale, edges } => rmat(scale, edges, &mut rng),
        GraphSpec::Sbm {
            blocks,
            per_block,
            intra_pairs,
            inter_pairs,
        } => sbm(blocks, per_block, intra_pairs, inter_pairs, &mut rng),
    };
    let mut label_rng = Rng::new(seed, 2);
    let labelled =
        sample_without_replacement(n, (n as f64 * LABELLED_SHARE) as usize, &mut label_rng);
    let mut y = vec![None; n];
    for v in labelled {
        y[v] = Some(match *spec {
            GraphSpec::Rmat { .. } => label_rng.below(classes as u64) as u32,
            GraphSpec::Sbm { per_block, .. } => (v / per_block) as u32,
        });
    }
    Input {
        edges: EdgeList::new_unchecked(n, edges),
        labels: Labels::from_options_with_k(&y, classes),
    }
}

fn rmat(scale: u32, edges: usize, rng: &mut Rng) -> Vec<Edge> {
    let mut out = Vec::with_capacity(edges);
    for _ in 0..edges {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            let r = rng.unit();
            let (bit_u, bit_v) = if r < 0.57 {
                (0, 0)
            } else if r < 0.76 {
                (0, 1)
            } else if r < 0.95 {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | bit_u;
            v = (v << 1) | bit_v;
        }
        out.push(Edge::new(u, v, 0.5 + rng.unit()));
    }
    out
}

fn sbm(
    blocks: usize,
    per_block: usize,
    intra_pairs: usize,
    inter_pairs: usize,
    rng: &mut Rng,
) -> Vec<Edge> {
    let n = (blocks * per_block) as u64;
    let mut out = Vec::with_capacity(2 * (intra_pairs + inter_pairs));
    let mut push_pair = |u: u32, v: u32| {
        out.push(Edge::unit(u, v));
        out.push(Edge::unit(v, u));
    };
    for _ in 0..intra_pairs {
        let base = rng.below(blocks as u64) * per_block as u64;
        let u = base + rng.below(per_block as u64);
        let v = base + rng.below(per_block as u64);
        push_pair(u as u32, v as u32);
    }
    for _ in 0..inter_pairs {
        push_pair(rng.below(n) as u32, rng.below(n) as u32);
    }
    out
}

/// `count` distinct values from `0..n` (partial Fisher–Yates), in draw
/// order.
pub fn sample_without_replacement(n: usize, count: usize, rng: &mut Rng) -> Vec<usize> {
    let count = count.min(n);
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..count {
        let j = i + rng.below((n - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }
}

/// FNV of the edge list in generation order (endpoints and weight bits).
pub fn edge_fingerprint(edges: &EdgeList) -> u64 {
    let mut h = Fnv::default();
    for e in edges.edges() {
        h.write(&e.u.to_le_bytes());
        h.write(&e.v.to_le_bytes());
        h.write(&e.w.to_bits().to_le_bytes());
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: GraphSpec = GraphSpec::Rmat {
        scale: 8,
        edges: 2_000,
    };

    #[test]
    fn same_seed_same_graph_other_seed_other_graph() {
        let a = generate(&SMALL, 5, 3);
        let b = generate(&SMALL, 5, 3);
        let c = generate(&SMALL, 5, 4);
        assert_eq!(edge_fingerprint(&a.edges), edge_fingerprint(&b.edges));
        assert_eq!(a.labels.raw_slice(), b.labels.raw_slice());
        assert_ne!(edge_fingerprint(&a.edges), edge_fingerprint(&c.edges));
    }

    #[test]
    fn counts_are_exact() {
        let spec = GraphSpec::Sbm {
            blocks: 4,
            per_block: 50,
            intra_pairs: 300,
            inter_pairs: 40,
        };
        let input = generate(&spec, 4, 9);
        assert_eq!(input.edges.num_vertices(), 200);
        assert_eq!(input.edges.num_edges(), 2 * (300 + 40));
        assert_eq!(input.labels.num_labeled(), 20);
        // A labelled SBM vertex carries its block.
        for (v, c) in input.labels.iter_labeled() {
            assert_eq!(c as usize, v as usize / 50);
        }
    }

    #[test]
    fn sampling_is_distinct() {
        let mut rng = Rng::new(5, 5);
        let mut s = sample_without_replacement(100, 30, &mut rng);
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 30);
    }
}
