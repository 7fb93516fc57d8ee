//! Per-shard approximate-nearest-neighbor indexing (IVF) for `Similar`
//! and `Classify`.
//!
//! An [`IvfIndex`] is an inverted-file index over one
//! [`ShardBlock`](crate::ShardBlock)'s embedding rows: a k-means **coarse
//! quantizer** (`nlist` centroids trained on the shard's own rows)
//! partitions the shard into inverted lists, and a query scans only the
//! `nprobe` lists whose centroids are nearest — turning the O(rows)
//! exact sweep into O(nlist + probed rows). Every list is kept twice:
//! once over **all** rows (for `Similar`) and once over the **labeled
//! train subset** (for `Classify`), so both read paths probe the same
//! quantizer without rescanning unlabeled rows.
//!
//! # Lifecycle: lazy, cached, copy-on-write
//!
//! Indexes are built lazily on the first ANN query against a block and
//! cached inside the block (`OnceLock`). Because copy-on-write
//! publication shares clean blocks between epochs by `Arc`
//! ([`crate::Snapshot`]), a published epoch **re-indexes only the shards
//! its batch dirtied**: clean shards carry their parent epoch's cached
//! index untouched (`Arc::ptr_eq`-provable — see `tests/concurrency.rs`),
//! and a rebuilt block starts with an empty cache and re-indexes on first
//! use. The build is **deterministic in the block's content**: identical
//! rows and train set always produce an identical index (same centroids
//! bit-for-bit, same lists), which is what makes WAL crash-recovery
//! reproduce the same index structure and the same ANN answers as the
//! uninterrupted process (`tests/durability.rs`).
//!
//! # Exactness guard rails
//!
//! Approximate answers are only trustworthy when the fallback rules are
//! crisp:
//!
//! * shards with fewer than [`ANN_MIN_SHARD_ROWS`] rows never build an
//!   index — the exact sweep is already cheap and k-means over a handful
//!   of rows is noise;
//! * a query whose `top`/`k` reaches the whole candidate pool (all rows,
//!   or the whole train set) scans exactly, because probing everything
//!   *is* the exact scan minus determinism guarantees;
//! * [`SearchPolicy::Ann`]'s `refine` sets a minimum candidate pool
//!   (`refine × top` candidates): probing continues past `nprobe` lists
//!   until the pool is large enough or every list was visited — at which
//!   point the result **equals** the exact scan, ties included, because
//!   candidates are ranked by the same `(distance, id)` total order.
//!
//! `tests/ann_recall.rs` pins all of this against the exact scan as an
//! oracle: measured recall@top across graphs, shard counts, and `nprobe`
//! settings, and bit-identity whenever the pool covers everything.

use crate::snapshot::ShardBlock;

/// How `Similar` and `Classify` search the embedding: exact
/// shard-parallel scans (the default — bit-identical to pre-index
/// behavior) or approximate IVF probes. Part of the wire contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchPolicy {
    /// Exact scan of every row (every train row for `Classify`).
    Exact,
    /// IVF probe: rank every shard's centroids **globally** by distance
    /// to the query and visit the `nprobe` nearest inverted lists
    /// across the whole snapshot — exactly classic IVF semantics, so
    /// recall and cost for a given `nprobe` are shard-count-invariant
    /// (sharding only partitions the lists, it never dilutes the probe
    /// budget). Probing extends past the budget until the candidate
    /// pool holds `refine × top` entries or every list was visited — at
    /// which point the answer *equals* the exact scan. Shards below
    /// [`ANN_MIN_SHARD_ROWS`] and queries whose `top`/`k` covers a
    /// shard's whole pool scan that shard exactly.
    Ann { nprobe: usize, refine: usize },
}

impl SearchPolicy {
    /// ANN with the default refinement factor
    /// ([`SearchPolicy::DEFAULT_REFINE`]).
    pub fn ann(nprobe: usize) -> SearchPolicy {
        SearchPolicy::Ann {
            nprobe,
            refine: Self::DEFAULT_REFINE,
        }
    }

    /// Default minimum-candidate-pool multiplier for [`SearchPolicy::ann`].
    pub const DEFAULT_REFINE: usize = 8;

    /// Whether this policy is approximate.
    pub fn is_ann(&self) -> bool {
        matches!(self, SearchPolicy::Ann { .. })
    }

    /// Reject nonsensical ANN parameters with a typed
    /// [`ServeError::ZeroLimit`](crate::ServeError::ZeroLimit) — the
    /// single validation shared by registry configuration
    /// ([`Registry::with_config`](crate::Registry::with_config)) and
    /// per-request overrides, so the two can never drift.
    pub fn validate(&self) -> Result<(), crate::ServeError> {
        if let SearchPolicy::Ann { nprobe, refine } = *self {
            if nprobe == 0 {
                return Err(crate::ServeError::ZeroLimit {
                    param: "nprobe".into(),
                });
            }
            if refine == 0 {
                return Err(crate::ServeError::ZeroLimit {
                    param: "refine".into(),
                });
            }
        }
        Ok(())
    }
}

impl Default for SearchPolicy {
    fn default() -> Self {
        SearchPolicy::Exact
    }
}

/// Shards with fewer rows never build an IVF index: the exact sweep is
/// already cheap there, and the quantizer would be trained on noise.
pub const ANN_MIN_SHARD_ROWS: usize = 128;

/// Lloyd iterations for the coarse quantizer.
const KMEANS_ITERS: usize = 8;

/// Training-sample cap: k-means iterates over at most this many rows
/// (deterministically strided); the final assignment always covers every
/// row.
const KMEANS_SAMPLE: usize = 4096;

/// Inverted-file index over one shard block's rows. Immutable once
/// built; deterministic in the block's content.
#[derive(Debug)]
pub struct IvfIndex {
    dim: usize,
    /// `nlist × dim` row-major coarse centroids.
    centroids: Vec<f64>,
    /// Per centroid: local row indices (`0..rows`) assigned to it,
    /// ascending.
    lists: Vec<Vec<u32>>,
    /// Per centroid: indices into the block's train slice whose vertex
    /// row is assigned to it, ascending.
    train_lists: Vec<Vec<u32>>,
}

#[inline]
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

impl IvfIndex {
    /// Build the index for a block, or `None` when the block is too
    /// small to benefit ([`ANN_MIN_SHARD_ROWS`]). Deterministic: equal
    /// rows and train set ⇒ equal index, bit for bit.
    pub(crate) fn build(block: &ShardBlock) -> Option<IvfIndex> {
        let dim = block.dim();
        let rows = block.rows();
        if dim == 0 {
            return None;
        }
        let n = rows.len() / dim;
        if n < ANN_MIN_SHARD_ROWS {
            return None;
        }
        let nlist = (n as f64).sqrt().round() as usize;
        let nlist = nlist.clamp(1, n);
        let row = |i: usize| &rows[i * dim..(i + 1) * dim];

        // Deterministic init: centroids seeded from evenly spaced rows.
        let mut centroids: Vec<f64> = Vec::with_capacity(nlist * dim);
        for c in 0..nlist {
            centroids.extend_from_slice(row(c * n / nlist));
        }

        // Lloyd iterations over a deterministically strided sample.
        let stride = n.div_ceil(KMEANS_SAMPLE).max(1);
        let sample: Vec<usize> = (0..n).step_by(stride).collect();
        let nearest = |centroids: &[f64], r: &[f64]| -> usize {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for c in 0..nlist {
                let d = dist2(r, &centroids[c * dim..(c + 1) * dim]);
                // Strict `<`: ties resolve to the lowest centroid id, so
                // assignment is a pure function of the data.
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            best
        };
        for _ in 0..KMEANS_ITERS {
            let mut sums = vec![0.0f64; nlist * dim];
            let mut counts = vec![0usize; nlist];
            for &i in &sample {
                let c = nearest(&centroids, row(i));
                counts[c] += 1;
                let acc = &mut sums[c * dim..(c + 1) * dim];
                for (a, x) in acc.iter_mut().zip(row(i)) {
                    *a += x;
                }
            }
            for c in 0..nlist {
                // An empty cluster keeps its previous centroid — still
                // deterministic, and it can re-acquire points later.
                if counts[c] > 0 {
                    let inv = 1.0 / counts[c] as f64;
                    for d_i in 0..dim {
                        centroids[c * dim + d_i] = sums[c * dim + d_i] * inv;
                    }
                }
            }
        }

        // Final assignment covers every row (ascending, so lists ascend).
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        let mut assignment: Vec<u32> = Vec::with_capacity(n);
        for i in 0..n {
            let c = nearest(&centroids, row(i));
            assignment.push(c as u32);
            lists[c].push(i as u32);
        }
        let (lo, _) = block.range();
        let mut train_lists: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        for (ti, &(v, _)) in block.train().iter().enumerate() {
            let local = (v - lo) as usize;
            train_lists[assignment[local] as usize].push(ti as u32);
        }
        Some(IvfIndex {
            dim,
            centroids,
            lists,
            train_lists,
        })
    }

    /// Number of inverted lists (coarse centroids).
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// The `nlist × dim` row-major centroid matrix.
    pub fn centroids(&self) -> &[f64] {
        &self.centroids
    }

    /// Per-centroid local row indices, ascending within each list.
    pub fn lists(&self) -> &[Vec<u32>] {
        &self.lists
    }

    /// Per-centroid indices into the block's train slice.
    pub fn train_lists(&self) -> &[Vec<u32>] {
        &self.train_lists
    }

    /// Content fingerprint of the index structure (FNV-1a over centroid
    /// bit patterns and list contents). Equal digests ⇔ identical index
    /// structure; used to prove crash recovery re-indexes identically.
    pub fn structure_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |b: u64| {
            h ^= b;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        eat(self.dim as u64);
        eat(self.lists.len() as u64);
        for &c in &self.centroids {
            eat(c.to_bits());
        }
        for list in self.lists.iter().chain(self.train_lists.iter()) {
            eat(list.len() as u64);
            for &i in list {
                eat(u64::from(i));
            }
        }
        h
    }

    /// Squared distance from `q` to every centroid, in centroid order.
    /// The engine merges these across shards to rank all of the
    /// snapshot's inverted lists globally — classic IVF probing, with
    /// the lists merely partitioned by shard.
    pub(crate) fn centroid_dist2(&self, q: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            (0..self.nlist()).map(|c| dist2(q, &self.centroids[c * self.dim..(c + 1) * self.dim])),
        );
    }
}

/// Euclidean squared distance, shared by build and probe paths.
pub(crate) fn row_dist2(a: &[f64], b: &[f64]) -> f64 {
    dist2(a, b)
}

/// Bounded k-best selection under a caller-supplied total "is-less"
/// order. Keys must be unique (ties broken by id), so the kept set —
/// and its order — is a pure function of the pushed candidate *set*,
/// independent of push order: the property that makes ANN answers
/// deterministic and full probes equal the exact scan.
pub(crate) struct Selection<T> {
    items: Vec<T>,
    limit: usize,
}

impl<T: Copy> Selection<T> {
    /// Keep the best `limit` items; `universe` caps the preallocation
    /// (limits are client-controlled and may be `usize::MAX`).
    pub(crate) fn new(limit: usize, universe: usize) -> Selection<T> {
        Selection {
            items: Vec::with_capacity(limit.saturating_add(1).min(universe + 1)),
            limit,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, item: T, lt: impl Fn(&T, &T) -> bool) {
        let pos = self.items.partition_point(|b| lt(b, &item));
        if pos < self.limit {
            self.items.insert(pos, item);
            if self.items.len() > self.limit {
                self.items.pop();
            }
        }
    }

    pub(crate) fn into_vec(self) -> Vec<T> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: usize, dim: usize, labeled_every: usize) -> ShardBlock {
        let rows: Vec<f64> = (0..n * dim)
            .map(|i| ((i as f64) * 0.37).sin() * 3.0)
            .collect();
        let labels: Vec<i32> = (0..n)
            .map(|i| {
                if i % labeled_every == 0 {
                    (i % 3) as i32
                } else {
                    -1
                }
            })
            .collect();
        ShardBlock::build(0, n as u32, dim, rows, labels)
    }

    #[test]
    fn small_blocks_build_no_index() {
        let b = block(ANN_MIN_SHARD_ROWS - 1, 4, 3);
        assert!(IvfIndex::build(&b).is_none());
        let b = block(ANN_MIN_SHARD_ROWS, 4, 3);
        assert!(IvfIndex::build(&b).is_some());
    }

    #[test]
    fn lists_partition_all_rows_and_train_entries() {
        let b = block(500, 4, 3);
        let idx = IvfIndex::build(&b).unwrap();
        let mut seen: Vec<u32> = idx.lists().iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..500u32).collect::<Vec<_>>());
        let mut train_seen: Vec<u32> = idx.train_lists().iter().flatten().copied().collect();
        train_seen.sort_unstable();
        assert_eq!(
            train_seen,
            (0..b.train().len() as u32).collect::<Vec<_>>(),
            "every train entry lands in exactly one list"
        );
        for list in idx.lists() {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "lists ascend");
        }
    }

    #[test]
    fn build_is_deterministic_in_content() {
        let a = IvfIndex::build(&block(400, 5, 4)).unwrap();
        let b = IvfIndex::build(&block(400, 5, 4)).unwrap();
        assert_eq!(a.centroids(), b.centroids());
        assert_eq!(a.lists(), b.lists());
        assert_eq!(a.train_lists(), b.train_lists());
        assert_eq!(a.structure_digest(), b.structure_digest());
        let c = IvfIndex::build(&block(401, 5, 4)).unwrap();
        assert_ne!(
            a.structure_digest(),
            c.structure_digest(),
            "different content, different digest"
        );
    }

    #[test]
    fn centroid_distances_cover_every_list_and_rank_sanely() {
        let b = block(600, 3, 2);
        let idx = IvfIndex::build(&b).unwrap();
        let qr = b.row(17).to_vec();
        let mut dists = Vec::new();
        idx.centroid_dist2(&qr, &mut dists);
        assert_eq!(dists.len(), idx.nlist());
        assert!(dists.iter().all(|d| d.is_finite()));
        // The row's own list holds one of the nearest centroids: its
        // assigned centroid distance is the minimum by construction of
        // the final assignment pass.
        let own_list = idx
            .lists()
            .iter()
            .position(|l| l.contains(&17))
            .expect("row 17 is in exactly one list");
        let min = dists.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        assert_eq!(
            dists[own_list], min,
            "assignment picks the nearest centroid"
        );
    }
}
