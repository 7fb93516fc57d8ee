//! Epoch-versioned, immutable read views, published copy-on-write per
//! shard.
//!
//! A [`Snapshot`] is what queries see: one consistent epoch of a served
//! graph. It is not a monolithic matrix but an `Arc`'d vector of
//! per-shard [`ShardBlock`]s, each owning its shard's slice of the
//! embedding, its raw labels, and its labeled train set. The registry's
//! write path publishes a new epoch by rebuilding **only the blocks a
//! batch dirtied** and structurally sharing the rest with the parent
//! epoch (`Arc::ptr_eq`-provable sharing — see
//! `tests/cow_property.rs`). Readers holding a snapshot are never
//! disturbed, and a bounded history of recent epochs can be retained for
//! time-travel reads ([`crate::HistoryPolicy`]).
//!
//! Which updates dirty which blocks follows from GEE's normalization
//! `Z(u, c) = Ẑ(u, c) / count(c)`:
//!
//! * an edge op touches `Ẑ` rows of its two endpoints only → the two
//!   owning shards' **rows** are dirty;
//! * a label move changes `count(old)`/`count(new)`, rescaling those
//!   columns in **every** row → all shards' rows are dirty, but only the
//!   relabeled vertex's shard has dirty **labels** (and train set).
//!
//! The second case is why labels and train sets are separately `Arc`'d
//! inside a block: a block rebuilt for rows alone shares its parent's
//! labels slice and skips regrouping the train set.

use std::sync::{Arc, OnceLock};

use gee_core::{Embedding, Labels};

use crate::index::IvfIndex;
use crate::shard::ShardLayout;

/// One shard's slice of an epoch: embedding rows, raw labels, and the
/// labeled train set for vertices `lo..hi`.
#[derive(Debug)]
pub struct ShardBlock {
    lo: u32,
    hi: u32,
    dim: usize,
    /// Row-major rows of vertices `lo..hi` (`(hi - lo) × dim`).
    rows: Vec<f64>,
    /// Raw labels of `lo..hi` (`-1` = unknown). `Arc`'d separately so a
    /// rows-only rebuild shares it with the parent block.
    labels: Arc<Vec<i32>>,
    /// Labeled `(vertex, class)` pairs of this shard, vertex ascending.
    /// Shared whenever `labels` is shared (regrouping skipped).
    train: Arc<Vec<(u32, u32)>>,
    /// Lazily built IVF index over this block's rows (`None` cached for
    /// blocks below [`crate::index::ANN_MIN_SHARD_ROWS`]). Lives inside
    /// the block so CoW publication re-indexes only dirty shards: a
    /// clean shard is the parent's block `Arc`, cache included, while a
    /// rebuilt block starts empty and re-indexes on first ANN use.
    ann: OnceLock<Option<Arc<IvfIndex>>>,
}

impl ShardBlock {
    /// Build a block from fresh rows and labels, grouping the train set.
    pub(crate) fn build(lo: u32, hi: u32, dim: usize, rows: Vec<f64>, labels: Vec<i32>) -> Self {
        debug_assert_eq!(rows.len(), (hi - lo) as usize * dim);
        debug_assert_eq!(labels.len(), (hi - lo) as usize);
        let train: Vec<(u32, u32)> = labels
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= 0)
            .map(|(i, &c)| (lo + i as u32, c as u32))
            .collect();
        ShardBlock {
            lo,
            hi,
            dim,
            rows,
            labels: Arc::new(labels),
            train: Arc::new(train),
            ann: OnceLock::new(),
        }
    }

    /// A block with fresh rows but this block's labels and train set
    /// structurally shared — the rows-only CoW rebuild. Skips the
    /// `group_by_shard` regrouping entirely.
    pub(crate) fn with_rows(&self, rows: Vec<f64>) -> Self {
        debug_assert_eq!(rows.len(), self.rows.len());
        ShardBlock {
            lo: self.lo,
            hi: self.hi,
            dim: self.dim,
            rows,
            labels: self.labels.clone(),
            train: self.train.clone(),
            // Fresh rows invalidate any index; the rebuilt block
            // re-indexes lazily on its first ANN query.
            ann: OnceLock::new(),
        }
    }

    /// The half-open vertex range `[lo, hi)` this block covers.
    pub fn range(&self) -> (u32, u32) {
        (self.lo, self.hi)
    }

    /// Row-major embedding rows of the covered range.
    pub fn rows(&self) -> &[f64] {
        &self.rows
    }

    /// Embedding row of global vertex `v` (must lie in this block).
    #[inline]
    pub fn row(&self, v: u32) -> &[f64] {
        debug_assert!(self.lo <= v && v < self.hi);
        let i = (v - self.lo) as usize;
        &self.rows[i * self.dim..(i + 1) * self.dim]
    }

    /// Raw labels (`-1` = unknown) of the covered range.
    pub fn labels(&self) -> &[i32] {
        &self.labels
    }

    /// Labeled `(vertex, class)` pairs of this shard, vertex ascending.
    pub fn train(&self) -> &[(u32, u32)] {
        &self.train
    }

    /// Whether this block's labels slice is structurally shared with
    /// `other`'s (and therefore its train set too).
    pub fn shares_labels_with(&self, other: &ShardBlock) -> bool {
        Arc::ptr_eq(&self.labels, &other.labels)
    }

    /// Embedding dimension `K` of this block's rows.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The block's IVF index, building and caching it on first use.
    /// `None` for blocks below [`crate::index::ANN_MIN_SHARD_ROWS`]
    /// (the exact sweep is used there). Deterministic in the block's
    /// content, so recovered blocks re-index identically.
    pub fn ann_index(&self) -> Option<&Arc<IvfIndex>> {
        self.ann_index_and_built().0
    }

    /// [`ShardBlock::ann_index`], and whether this call ran the build.
    /// `OnceLock` runs one initializer, so of racing first-touch calls
    /// exactly one sees `true`. Drives the registry's IVF build/hit
    /// metrics.
    pub(crate) fn ann_index_and_built(&self) -> (Option<&Arc<IvfIndex>>, bool) {
        let mut built = false;
        let index = self.ann.get_or_init(|| {
            built = true;
            IvfIndex::build(self).map(Arc::new)
        });
        (index.as_ref(), built)
    }

    /// The cached IVF index without building one: `None` when no ANN
    /// query (or [`Snapshot::warm_ann_indexes`]) has touched this block
    /// yet. Lets tests prove which epochs share an index by pointer.
    pub fn ann_index_cached(&self) -> Option<Arc<IvfIndex>> {
        self.ann.get().and_then(Clone::clone)
    }
}

/// One immutable epoch of a served graph: an `Arc`'d set of per-shard
/// [`ShardBlock`]s.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Monotone version: 0 at registration, +1 per applied update batch.
    pub epoch: u64,
    num_vertices: usize,
    dim: usize,
    blocks: Arc<Vec<Arc<ShardBlock>>>,
}

impl Snapshot {
    /// Freeze an epoch from a fully-materialized embedding and labels,
    /// slicing both per shard (the from-scratch build used at
    /// registration; the write path publishes copy-on-write instead).
    pub fn new(epoch: u64, embedding: Embedding, labels: Labels, layout: &ShardLayout) -> Self {
        let k = embedding.dim();
        let n = embedding.num_vertices();
        assert_eq!(labels.len(), n, "labels must cover every vertex");
        let data = embedding.as_slice();
        let raw = labels.raw_slice();
        let blocks: Vec<Arc<ShardBlock>> = layout
            .ranges()
            .iter()
            .map(|&(lo, hi)| {
                Arc::new(ShardBlock::build(
                    lo,
                    hi,
                    k,
                    data[lo as usize * k..hi as usize * k].to_vec(),
                    raw[lo as usize..hi as usize].to_vec(),
                ))
            })
            .collect();
        Snapshot::from_blocks(epoch, n, k, blocks)
    }

    /// Assemble an epoch from per-shard blocks (the CoW publication
    /// path). Blocks must tile `0..num_vertices` in order.
    pub(crate) fn from_blocks(
        epoch: u64,
        num_vertices: usize,
        dim: usize,
        blocks: Vec<Arc<ShardBlock>>,
    ) -> Self {
        debug_assert!(!blocks.is_empty());
        debug_assert_eq!(blocks.last().map(|b| b.hi as usize), Some(num_vertices));
        Snapshot {
            epoch,
            num_vertices,
            dim,
            blocks: Arc::new(blocks),
        }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Embedding dimension `K`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The per-shard blocks, in shard order.
    pub fn blocks(&self) -> &[Arc<ShardBlock>] {
        &self.blocks
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.blocks.len()
    }

    /// Which block owns vertex `v`.
    #[inline]
    fn block_of(&self, v: u32) -> &ShardBlock {
        debug_assert!((v as usize) < self.num_vertices);
        let i = self.blocks.partition_point(|b| b.hi <= v);
        &self.blocks[i]
    }

    /// Embedding row of vertex `v`.
    #[inline]
    pub fn row(&self, v: u32) -> &[f64] {
        self.block_of(v).row(v)
    }

    /// Label of `v` (`None` = unknown).
    pub fn label(&self, v: u32) -> Option<u32> {
        let b = self.block_of(v);
        let raw = b.labels[(v - b.lo) as usize];
        (raw >= 0).then_some(raw as u32)
    }

    /// Iterate `(vertex, class)` over labeled vertices, shard by shard
    /// (vertex ascending overall, since shards are contiguous).
    pub fn iter_labeled(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.blocks.iter().flat_map(|b| b.train.iter().copied())
    }

    /// Total labeled vertices across shards.
    pub fn num_labeled(&self) -> usize {
        self.blocks.iter().map(|b| b.train.len()).sum()
    }

    /// Build (and cache) every block's IVF index now, shard-parallel,
    /// instead of lazily on first ANN query — for serving start-up and
    /// benches that want the first query warm. Returns how many blocks
    /// carry an index (small blocks stay exact).
    pub fn warm_ann_indexes(&self) -> usize {
        use rayon::prelude::*;
        self.blocks
            .par_iter()
            .map(|b| usize::from(b.ann_index().is_some()))
            .sum()
    }

    /// Materialize the full `n × K` embedding (concatenating block rows).
    /// O(nK); for tests, tools, and oracles — queries read blocks
    /// directly.
    pub fn to_embedding(&self) -> Embedding {
        let mut data = Vec::with_capacity(self.num_vertices * self.dim);
        for b in self.blocks.iter() {
            data.extend_from_slice(&b.rows);
        }
        Embedding::from_vec(self.num_vertices, self.dim, data)
    }

    /// The full raw label vector (`-1` = unknown), concatenated.
    pub fn labels_vec(&self) -> Vec<i32> {
        let mut out = Vec::with_capacity(self.num_vertices);
        for b in self.blocks.iter() {
            out.extend_from_slice(&b.labels);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_train_set_by_shard() {
        let layout = ShardLayout::new(6, 2);
        let labels =
            Labels::from_options_with_k(&[Some(1), None, Some(0), Some(2), None, Some(1)], 3);
        let z = Embedding::zeros(6, 3);
        let s = Snapshot::new(0, z, labels, &layout);
        assert_eq!(s.epoch, 0);
        assert_eq!(s.num_shards(), 2);
        assert_eq!(s.blocks()[0].train(), &[(0, 1), (2, 0)]);
        assert_eq!(s.blocks()[1].train(), &[(3, 2), (5, 1)]);
        assert_eq!(s.num_labeled(), 4);
        assert_eq!(
            s.iter_labeled().collect::<Vec<_>>(),
            vec![(0, 1), (2, 0), (3, 2), (5, 1)]
        );
    }

    #[test]
    fn rows_and_labels_match_the_flat_inputs() {
        let n = 11;
        let k = 3;
        let data: Vec<f64> = (0..n * k).map(|i| i as f64 * 0.5).collect();
        let z = Embedding::from_vec(n, k, data.clone());
        let opts: Vec<Option<u32>> = (0..n).map(|v| (v % 3 == 0).then_some(1)).collect();
        let labels = Labels::from_options_with_k(&opts, 2);
        let layout = ShardLayout::new(n, 4);
        let s = Snapshot::new(7, z, labels, &layout);
        for v in 0..n as u32 {
            assert_eq!(
                s.row(v),
                &data[v as usize * k..(v as usize + 1) * k],
                "row {v}"
            );
            assert_eq!(s.label(v), (v % 3 == 0).then_some(1), "label {v}");
        }
        assert_eq!(s.to_embedding().as_slice(), &data[..]);
        assert_eq!(s.labels_vec().len(), n);
    }

    #[test]
    fn with_rows_shares_labels_and_train() {
        let b = ShardBlock::build(3, 6, 2, vec![0.0; 6], vec![1, -1, 0]);
        let rebuilt = b.with_rows(vec![9.0; 6]);
        assert!(rebuilt.shares_labels_with(&b));
        assert!(Arc::ptr_eq(&rebuilt.train, &b.train));
        assert_eq!(rebuilt.train(), &[(3, 1), (5, 0)]);
        assert_eq!(rebuilt.row(4), &[9.0, 9.0]);
    }
}
