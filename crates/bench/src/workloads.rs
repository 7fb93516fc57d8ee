//! The paper's Table I workloads, regenerated as R-MAT stand-ins.
//!
//! The SNAP graphs themselves are not redistributable inside this repo and
//! Friendster (1.8B edges) exceeds laptop memory, so the harness
//! generates R-MAT graphs whose `(n, s)` *shape* matches each paper graph
//! at `1/scale` size. R-MAT with the canonical social-network parameters
//! reproduces the skewed degree distributions that drive the paper's cache
//! and atomics behaviour.

use gee_core::Labels;
use gee_gen::{rmat, LabelSpec, RmatParams};
use gee_graph::{CsrGraph, EdgeList};

use crate::Args;

/// One Table I row: the paper's graph and its scaled stand-in.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Paper's graph name.
    pub name: &'static str,
    /// Paper's vertex count.
    pub paper_n: usize,
    /// Paper's edge count.
    pub paper_s: usize,
    /// Paper's reported runtimes (seconds): [python, numba, ligra-serial,
    /// ligra-parallel] — printed beside our measurements.
    pub paper_runtimes: [f64; 4],
}

/// The six Table I graphs with the paper's reported numbers.
pub fn table1_workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "Twitch",
            paper_n: 168_000,
            paper_s: 6_800_000,
            paper_runtimes: [12.18, 0.20, 0.11, 0.013],
        },
        Workload {
            name: "soc-Pokec",
            paper_n: 1_600_000,
            paper_s: 30_000_000,
            paper_runtimes: [133.21, 1.68, 0.99, 0.12],
        },
        Workload {
            name: "soc-LiveJournal",
            paper_n: 6_400_000,
            paper_s: 69_000_000,
            paper_runtimes: [301.64, 4.29, 2.39, 0.39],
        },
        Workload {
            name: "soc-orkut",
            paper_n: 3_000_000,
            paper_s: 117_000_000,
            paper_runtimes: [499.83, 4.48, 2.97, 0.26],
        },
        Workload {
            name: "orkut-groups",
            paper_n: 3_000_000,
            paper_s: 327_000_000,
            paper_runtimes: [595.29, 11.43, 6.06, 2.36],
        },
        Workload {
            name: "Friendster",
            paper_n: 65_000_000,
            paper_s: 1_800_000_000,
            paper_runtimes: [3374.72, 112.33, 77.23, 6.42],
        },
    ]
}

/// The largest Table I graph (Friendster) — the subject of Figs. 2–3
/// and of every single-graph ablation.
pub fn largest() -> Workload {
    table1_workloads().pop().expect("have workloads")
}

/// Random labels over `n` vertices: `k` classes at `--labeled` coverage.
pub fn labels(args: &Args, n: usize, k: usize, seed: u64) -> Labels {
    let spec = LabelSpec {
        num_classes: k,
        labeled_fraction: args.labeled_fraction,
    };
    Labels::from_options_with_k(&gee_gen::random_labels(n, spec, seed), k)
}

/// What an experiment times: a graph as edge list and as CSR (Ligra's
/// graph load is not part of the paper's timed region) with `--k`-class
/// labels.
pub struct Input {
    pub el: EdgeList,
    pub g: CsrGraph,
    pub labels: Labels,
}

impl Input {
    pub fn new(el: EdgeList, args: &Args, label_seed: u64) -> Input {
        let g = CsrGraph::from_edge_list(&el);
        let labels = labels(args, el.num_vertices(), args.k, label_seed);
        Input { el, g, labels }
    }
}

impl Workload {
    /// The stand-in at `--scale` with labels seeded `--seed ^ label_salt`.
    pub fn input(&self, args: &Args, label_salt: u64) -> Input {
        let el = self.generate(args.scale, args.seed);
        Input::new(el, args, args.seed ^ label_salt)
    }

    /// Scaled stand-in sizes.
    pub fn scaled(&self, scale: usize) -> (usize, usize) {
        (
            (self.paper_n / scale).max(64),
            (self.paper_s / scale).max(1024),
        )
    }

    /// Generate the R-MAT stand-in at `1/scale`.
    pub fn generate(&self, scale: usize, seed: u64) -> EdgeList {
        let (n, s) = self.scaled(scale);
        let bits = (usize::BITS - (n - 1).leading_zeros()).max(6);
        rmat(bits, s, RmatParams::default(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_workloads_match_paper_shapes() {
        let w = table1_workloads();
        assert_eq!(w.len(), 6);
        assert_eq!(w[5].paper_s, 1_800_000_000);
    }

    #[test]
    fn scaled_sizes_divide() {
        let w = &table1_workloads()[0];
        let (n, s) = w.scaled(64);
        assert_eq!(n, 168_000 / 64);
        assert_eq!(s, 6_800_000 / 64);
    }

    #[test]
    fn generation_covers_scaled_shape() {
        let w = &table1_workloads()[0];
        let el = w.generate(512, 1);
        let (n, s) = w.scaled(512);
        assert_eq!(el.num_edges(), s);
        assert!(
            el.num_vertices() >= n,
            "vertex space must cover the target n"
        );
    }

    #[test]
    fn floor_sizes_apply_at_huge_scale() {
        let w = &table1_workloads()[0];
        let (n, s) = w.scaled(usize::MAX / 2);
        assert_eq!((n, s), (64, 1024));
    }
}
