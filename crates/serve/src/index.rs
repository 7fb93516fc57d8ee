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
//! # The build: Lloyd's k-means without wasted distances
//!
//! The quantizer is `√rows` centroids seeded from evenly spaced rows,
//! eight Lloyd passes over at most 4,096 strided rows, then one pass
//! assigning every row. Each pass gives a row the **lowest-id
//! centroid at the least `dist2`** — a pure function of the row's bits
//! and the pass's centroids — and centroid sums accumulate in sample
//! order. Most of those distances cannot change the answer, and the
//! search skips them exactly (after Elkan, "Using the triangle
//! inequality to accelerate k-means", ICML 2003):
//!
//! * **Row memo.** GEE rows are sums over *labelled* neighbours, so many
//!   are identical: with 10 % of an R-MAT graph's vertices labelled,
//!   half the rows are all zero. Rows with the same bits have the same
//!   answer, so a pass searches once per distinct row. The groups of
//!   copies are the block's distinct rows, grouped by the same pass as
//!   the exact `Similar` scan's (`crate::snapshot`, "The exact scan"):
//!   the build reads the block's cached groups if a scan has built
//!   them, and otherwise groups the rows without keeping the result.
//! * **Triangle stop.** A search starts from a hint — the row's previous
//!   assignment in the sample, the previous row's list in the final
//!   pass — and visits the other centroids in ascending distance `cc`
//!   from the hint (a per-centroid table, built lazily per pass). Once
//!   `cc > (√d_hint + √d_best)·(1 + 1e-9) + 1e-150`, the triangle
//!   inequality puts this and every later centroid farther from the row
//!   than the best by a margin: computed distances are within a relative
//!   `(dim + 3)·2⁻⁵³` and an absolute `√(dim·2⁻¹⁰⁷⁴)` (underflow) of the
//!   real ones, and the margin exceeds both many times over, so no
//!   later centroid can compute smaller or equal. An overflowed `cc`
//!   stops nothing. Equal distances go to the lower id, as in a scan.
//! * **Early exit.** A distance is abandoned once its running sum,
//!   checked every 8 terms, exceeds the best so far. The terms are added
//!   in the full sum's order and none is negative, so the sum only grows
//!   and the abandoned centroid is strictly farther. Four candidates are
//!   summed side by side, as independent chains of additions.
//!
//! Rows with a non-finite entry, and passes with a non-finite centroid,
//! scan every centroid. The index is therefore bit-identical to plain
//! Lloyd with a full scan per row, which the tests keep as an oracle.
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

/// How `Similar` and `Classify` search the embedding: exact scans (the
/// default — bit-identical to pre-index behavior) or approximate IVF
/// probes. Part of the wire contract.
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

/// Relative slack of the triangle-inequality stop in [`NearestCentroid`]. A
/// computed distance is within `(dim + 3)·2⁻⁵³` of the real one, relative;
/// the slack stays at least eight times that for any `dim`.
const PRUNE_MARGIN: f64 = 1e-9;

/// Absolute slack of the same stop: more than `√(dim·2⁻¹⁰⁷⁴)`, the most
/// that underflowing squares can take off a computed distance.
const PRUNE_SLACK: f64 = 1e-150;

/// Candidate distances computed side by side in [`NearestCentroid`]'s search.
const LANES: usize = 4;

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

/// [`dist2`] from `r` to each of `L` centroids, each abandoned once
/// every running sum exceeds `bound`: per centroid, the same bits as
/// `dist2` when that is `≤ bound`, else some value `> bound`. Exact
/// because each sum adds its terms in `dist2`'s order and none is
/// negative, so no partial sum exceeds its total. The `L` sums are
/// independent chains of additions, which the processor overlaps.
#[inline]
fn dist2_within<const L: usize>(r: &[f64], cs: [&[f64]; L], bound: f64) -> [f64; L] {
    let mut sums = [0.0f64; L];
    let mut k = 0;
    while k + 8 <= r.len() {
        let x: &[f64; 8] = r[k..k + 8].try_into().expect("8 terms");
        let ys: [&[f64; 8]; L] = cs.map(|c| c[k..k + 8].try_into().expect("8 terms"));
        for j in 0..8 {
            for (sum, y) in sums.iter_mut().zip(&ys) {
                *sum += (x[j] - y[j]) * (x[j] - y[j]);
            }
        }
        if sums.iter().all(|&s| s > bound) {
            return sums;
        }
        k += 8;
    }
    for j in k..r.len() {
        for (sum, c) in sums.iter_mut().zip(&cs) {
            *sum += (r[j] - c[j]) * (r[j] - c[j]);
        }
    }
    sums
}

/// The nearest centroid by a scan of all of them. Strict `<`: ties
/// resolve to the lowest centroid id, so assignment is a pure function
/// of the data.
fn scan_nearest(centroids: &[f64], r: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.chunks_exact(r.len()).enumerate() {
        let d = dist2(r, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// Exact nearest-centroid search for the passes of one build: the
/// answer of [`scan_nearest`], found with far fewer distances (the
/// module doc gives the argument).
struct NearestCentroid<'a> {
    rows: &'a [f64],
    dim: usize,
    /// `1 +` the relative slack of the triangle stop.
    margin: f64,
    /// Per row: its group of rows with the same bits.
    group_of: Vec<u32>,
    /// Per group: its answer in the current pass, `u32::MAX` until it
    /// is searched.
    memo: Vec<u32>,
    /// Per centroid: the other centroids as `(distance, id)`, ascending.
    /// Empty until a search in the current pass starts from it.
    tables: Vec<Vec<(f64, u32)>>,
    /// Whether every centroid of the current pass is finite.
    finite: bool,
}

impl<'a> NearestCentroid<'a> {
    /// A search over `rows`, whose row `i` is in group `group_of[i]`
    /// of `groups` groups of rows with the same bits.
    fn new(
        rows: &'a [f64],
        dim: usize,
        nlist: usize,
        group_of: Vec<u32>,
        groups: usize,
    ) -> NearestCentroid<'a> {
        NearestCentroid {
            rows,
            dim,
            margin: 1.0 + PRUNE_MARGIN.max(8.0 * (dim as f64 + 4.0) * f64::EPSILON),
            group_of,
            memo: vec![u32::MAX; groups],
            tables: vec![Vec::new(); nlist],
            finite: false,
        }
    }

    /// Forget the previous pass's answers and tables.
    fn begin_pass(&mut self, centroids: &[f64]) {
        self.memo.fill(u32::MAX);
        self.tables.iter_mut().for_each(Vec::clear);
        self.finite = centroids.iter().all(|x| x.is_finite());
    }

    /// The centroid nearest to row `i`, searched from centroid `hint`
    /// unless a copy of the row was answered earlier in this pass.
    fn nearest(&mut self, centroids: &[f64], i: usize, hint: usize) -> usize {
        let g = self.group_of[i] as usize;
        if self.memo[g] == u32::MAX {
            self.memo[g] = self.search_from(centroids, i, hint) as u32;
        }
        self.memo[g] as usize
    }

    fn search_from(&mut self, centroids: &[f64], i: usize, hint: usize) -> usize {
        let dim = self.dim;
        let r = &self.rows[i * dim..(i + 1) * dim];
        if !self.finite || !r.iter().all(|x| x.is_finite()) {
            return scan_nearest(centroids, r);
        }
        let centroid = |c: usize| &centroids[c * dim..(c + 1) * dim];
        let table = &mut self.tables[hint];
        if table.is_empty() {
            let from = centroid(hint);
            table.extend(
                (0..centroids.len() / dim)
                    .filter(|&c| c != hint)
                    .map(|c| (dist2(from, centroid(c)).sqrt(), c as u32)),
            );
            table.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
        let (mut best, mut best_d) = (hint, dist2(r, centroid(hint)));
        let to_hint = best_d.sqrt();
        let mut rest = &table[..];
        loop {
            // Every centroid at least `stop` from the hint is farther
            // from the row than the best, by the triangle inequality;
            // the table ascends, so the rest are too. An overflowed `cc`
            // proves nothing.
            let stop = (to_hint + best_d.sqrt()) * self.margin + PRUNE_SLACK;
            let admitted = rest
                .iter()
                .take(LANES)
                .take_while(|&&(cc, _)| !(cc > stop && cc.is_finite()))
                .count();
            let mut ds = [f64::INFINITY; LANES];
            if admitted == LANES {
                ds = dist2_within(
                    r,
                    std::array::from_fn(|l| centroid(rest[l].1 as usize)),
                    best_d,
                );
            } else {
                for (d, &(_, c)) in ds.iter_mut().zip(&rest[..admitted]) {
                    [*d] = dist2_within(r, [centroid(c as usize)], best_d);
                }
            }
            for (&(_, c), d) in rest[..admitted].iter().zip(ds) {
                let c = c as usize;
                if d < best_d || (d == best_d && c < best) {
                    best = c;
                    best_d = d;
                }
            }
            if admitted < LANES {
                return best;
            }
            rest = &rest[LANES..];
        }
    }
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

        // Lloyd iterations over a deterministically strided sample. A
        // sample row's search starts from its previous assignment (in
        // the first pass, from the previous row's).
        let stride = n.div_ceil(KMEANS_SAMPLE).max(1);
        let sample: Vec<usize> = (0..n).step_by(stride).collect();
        let distinct = block.row_groups();
        let mut search =
            NearestCentroid::new(rows, dim, nlist, distinct.group_of(), distinct.len());
        let mut previous = vec![0u32; sample.len()];
        for pass in 0..KMEANS_ITERS {
            search.begin_pass(&centroids);
            let mut sums = vec![0.0f64; nlist * dim];
            let mut counts = vec![0usize; nlist];
            let mut hint = 0;
            for (&i, prev) in sample.iter().zip(&mut previous) {
                if pass > 0 {
                    hint = *prev as usize;
                }
                let c = search.nearest(&centroids, i, hint);
                (hint, *prev) = (c, c as u32);
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

        // Final assignment covers every row (ascending, so lists ascend),
        // each search starting from the previous row's list.
        search.begin_pass(&centroids);
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        let mut assignment: Vec<u32> = Vec::with_capacity(n);
        let mut hint = 0;
        for i in 0..n {
            hint = search.nearest(&centroids, i, hint);
            assignment.push(hint as u32);
            lists[hint].push(i as u32);
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
#[inline]
pub(crate) fn row_dist2(a: &[f64], b: &[f64]) -> f64 {
    dist2(a, b)
}

/// The `(distance, id)` order of `Similar` answers: distances by
/// `total_cmp`, ties to the lower id. A total order, NaN included.
pub(crate) fn by_distance_then_id(a: &(f64, u32), b: &(f64, u32)) -> bool {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_lt()
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

    /// The kept item a newcomer must precede to be kept, once `limit`
    /// items are kept.
    pub(crate) fn bar(&self) -> Option<&T> {
        if self.items.len() == self.limit {
            self.items.last()
        } else {
            None
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

    /// Plain Lloyd passes with a full scan of every centroid per row:
    /// the oracle that [`IvfIndex::build`] must equal bit for bit.
    fn reference_build(block: &ShardBlock) -> Option<IvfIndex> {
        let dim = block.dim();
        let rows = block.rows();
        if dim == 0 {
            return None;
        }
        let n = rows.len() / dim;
        if n < ANN_MIN_SHARD_ROWS {
            return None;
        }
        let nlist = ((n as f64).sqrt().round() as usize).clamp(1, n);
        let row = |i: usize| &rows[i * dim..(i + 1) * dim];
        let mut centroids: Vec<f64> = Vec::with_capacity(nlist * dim);
        for c in 0..nlist {
            centroids.extend_from_slice(row(c * n / nlist));
        }
        let stride = n.div_ceil(KMEANS_SAMPLE).max(1);
        let sample: Vec<usize> = (0..n).step_by(stride).collect();
        let nearest = |centroids: &[f64], r: &[f64]| -> usize {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for c in 0..nlist {
                let d = dist2(r, &centroids[c * dim..(c + 1) * dim]);
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
                if counts[c] > 0 {
                    let inv = 1.0 / counts[c] as f64;
                    for d_i in 0..dim {
                        centroids[c * dim + d_i] = sums[c * dim + d_i] * inv;
                    }
                }
            }
        }
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
            train_lists[assignment[(v - lo) as usize] as usize].push(ti as u32);
        }
        Some(IvfIndex {
            dim,
            centroids,
            lists,
            train_lists,
        })
    }

    /// A block over `rows` with every third vertex labelled.
    fn block_of(rows: Vec<f64>, dim: usize) -> ShardBlock {
        let n = rows.len() / dim;
        let labels = (0..n)
            .map(|i| if i % 3 == 0 { (i % 4) as i32 } else { -1 })
            .collect();
        ShardBlock::build(0, n as u32, dim, rows, labels)
    }

    /// `build` equals `reference_build`: centroid bits, both list sets
    /// and the digest.
    fn assert_matches_reference(b: &ShardBlock, case: &str) {
        let got = IvfIndex::build(b).expect("block is large enough to index");
        let want = reference_build(b).expect("block is large enough to index");
        let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(got.centroids()),
            bits(want.centroids()),
            "{case}: centroids"
        );
        assert_eq!(got.lists(), want.lists(), "{case}: lists");
        assert_eq!(got.train_lists(), want.train_lists(), "{case}: train lists");
        assert_eq!(got.structure_digest(), want.structure_digest(), "{case}");
    }

    /// A small deterministic generator for test rows.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 33
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            self.next() as f64 / (1u64 << 31) as f64
        }
    }

    /// `n × dim` rows: a `zero_share` of all-zero rows, then copies of a
    /// pool of `distinct` sparse rows whose nonzero entries are drawn
    /// around `scale` (either sign).
    fn sparse_rows(
        n: usize,
        dim: usize,
        zero_share: f64,
        distinct: usize,
        scale: f64,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = Lcg(seed);
        let pool: Vec<Vec<f64>> = (0..distinct)
            .map(|_| {
                (0..dim)
                    .map(|_| match rng.below(4) {
                        0 => 0.0,
                        1 => -scale * (0.5 + rng.unit()),
                        _ => scale * (0.5 + rng.unit()),
                    })
                    .collect()
            })
            .collect();
        let mut rows = Vec::with_capacity(n * dim);
        for _ in 0..n {
            if rng.unit() < zero_share {
                rows.extend(std::iter::repeat_n(0.0, dim));
            } else {
                rows.extend_from_slice(&pool[rng.below(distinct)]);
            }
        }
        rows
    }

    #[test]
    fn abandoned_distances_are_exact_or_beyond_the_bound() {
        for dim in [1, 7, 8, 9, 16, 50] {
            let a: Vec<f64> = (0..dim).map(|j| (j as f64 * 0.7).sin()).collect();
            let bs: Vec<Vec<f64>> = (0..4)
                .map(|l| (0..dim).map(|j| ((j + l) as f64 * 1.3).cos()).collect())
                .collect();
            // Bounds at, between and beyond every partial sum.
            let mut bounds = vec![0.0, f64::INFINITY];
            let mut partial = 0.0;
            for (x, y) in a.iter().zip(&bs[0]) {
                partial += (x - y) * (x - y);
                bounds.extend([partial, partial * (1.0 - 1e-12), partial * (1.0 + 1e-12)]);
            }
            for bound in bounds {
                let four: [f64; 4] = dist2_within(&a, std::array::from_fn(|l| &bs[l][..]), bound);
                for (b, got) in bs.iter().zip(four) {
                    let [one] = dist2_within(&a, [&b[..]], bound);
                    let exact = dist2(&a, b);
                    for got in [got, one] {
                        if exact <= bound {
                            assert_eq!(got.to_bits(), exact.to_bits(), "dim {dim}, bound {bound}");
                        } else {
                            assert!(got > bound, "dim {dim}: {got} abandoned at bound {bound}");
                        }
                    }
                }
            }
        }
    }

    /// [`NearestCentroid::nearest`] from `hint` equals the full scan on one row.
    fn assert_search_matches_scan(row: f64, centroids: &[f64], hint: usize) {
        let rows = [row];
        let mut search = NearestCentroid::new(&rows, 1, centroids.len(), vec![0], 1);
        search.begin_pass(centroids);
        assert_eq!(
            search.nearest(centroids, 0, hint),
            scan_nearest(centroids, &rows),
            "row {row:e}, centroids {centroids:?}, hint {hint}"
        );
    }

    #[test]
    fn the_triangle_stop_survives_underflow_and_overflow() {
        // Every square underflows to zero but the centroids' own
        // (2.2e-162): the row ties both centroids at distance 0, and the
        // lower id wins only if the stop's absolute slack keeps it in.
        assert_search_matches_scan(0.3e-162, &[1.73e-162, 0.0], 1);
        // The centroids are too far apart to square (`cc` overflows to
        // infinity), yet the row is nearer the second: an infinite
        // `cc` must not stop the search.
        assert_search_matches_scan(0.1e154, &[-0.7e154, 0.7e154], 0);
    }

    #[test]
    fn pruned_build_equals_the_full_scan_on_zero_and_duplicate_rows() {
        assert_matches_reference(&block_of(vec![0.0; 300 * 8], 8), "all zero");
        for (zero_share, distinct) in [(0.55, 3), (0.9, 1), (0.2, 40), (0.0, 7)] {
            let rows = sparse_rows(700, 6, zero_share, distinct, 1.0, 5);
            assert_matches_reference(
                &block_of(rows, 6),
                &format!("{zero_share} zero, {distinct} distinct"),
            );
        }
    }

    #[test]
    fn pruned_build_equals_the_full_scan_when_seeds_collide() {
        // 400 rows give 20 centroids seeded from rows 0, 20, 40, …: a
        // period of 20 seeds them all alike, a period of 40 in two
        // alike groups, and every distance ties with another.
        for period in [20, 40, 10] {
            let rows: Vec<f64> = (0..400 * 3)
                .map(|j| ((j / 3) % period) as f64 * 0.25 - (j % 3) as f64)
                .collect();
            assert_matches_reference(&block_of(rows, 3), &format!("period {period}"));
        }
    }

    #[test]
    fn pruned_build_equals_the_full_scan_across_chunk_edges_and_strides() {
        for dim in [1, 7, 8, 9, 50] {
            assert_matches_reference(&block(600, dim, 3), &format!("dim {dim}"));
            let rows = sparse_rows(600, dim, 0.5, 90, 0.3, dim as u64);
            assert_matches_reference(&block_of(rows, dim), &format!("sparse dim {dim}"));
        }
        assert_matches_reference(&block(ANN_MIN_SHARD_ROWS, 5, 2), "smallest indexed shard");
        let n = 2 * KMEANS_SAMPLE + 300; // stride 3
        let rows = sparse_rows(n, 4, 0.4, 300, 1.0, 9);
        assert_matches_reference(&block_of(rows, 4), "strided sample");
    }

    #[test]
    fn pruned_build_equals_the_full_scan_on_extreme_values() {
        for (scale, case) in [
            (1e-310, "subnormal"),
            (1e-160, "squares underflow"),
            (1e300, "squares overflow"),
            (1.0, "negative"),
        ] {
            let rows = sparse_rows(500, 9, 0.3, 60, scale, 3);
            assert_matches_reference(&block_of(rows, 9), case);
        }
        // Mixed magnitudes in one block, then NaN, infinite and ±1e300
        // entries that force the full-scan fallback.
        let mut rows = sparse_rows(500, 9, 0.3, 60, 1.0, 4);
        rows[9 * 17 + 2] = 1e300;
        rows[9 * 40 + 5] = -1e300;
        rows[9 * 41] = 4e-320;
        assert_matches_reference(&block_of(rows.clone(), 9), "mixed magnitudes");
        rows[9 * 101 + 3] = f64::NAN;
        assert_matches_reference(&block_of(rows.clone(), 9), "a NaN row");
        rows[9 * 300 + 8] = f64::INFINITY;
        assert_matches_reference(&block_of(rows, 9), "an infinite row");
    }

    #[test]
    fn pruned_build_equals_the_full_scan_on_an_embed_large_shard() {
        // The shape of one of 8 shards of an R-MAT 2^17 × 2^22 graph
        // embedded with K = 50 and 10 % labelled: one shard's 16,384
        // rows, about half of them all zero, the rest sparse.
        use gee_core::Labels;
        let n = 1 << 14;
        let el = gee_gen::rmat(14, 3 << 17, gee_gen::RmatParams::default(), 7);
        let uniform = gee_gen::WeightDistribution::Uniform { lo: 0.5, hi: 1.5 };
        let el = gee_gen::assign_weights(&el, uniform, 7);
        let spec = gee_gen::LabelSpec {
            num_classes: 50,
            labeled_fraction: 0.1,
        };
        let labels = Labels::from_options_with_k(&gee_gen::random_labels(n, spec, 8), 50);
        let reg = crate::Registry::new(1);
        reg.register("g", &el, &labels).unwrap();
        let snap = reg.snapshot("g").unwrap();
        let b = &snap.blocks()[0];
        let zero_rows = b
            .rows()
            .chunks_exact(50)
            .filter(|r| r.iter().all(|&x| x == 0.0))
            .count();
        let share = zero_rows as f64 / n as f64;
        assert!((0.4..0.7).contains(&share), "{share} of the rows are zero");
        assert_matches_reference(b, "embed_large shard");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn pruned_build_equals_the_full_scan(
            n in ANN_MIN_SHARD_ROWS..700,
            dim in 1usize..20,
            zero_pct in 0usize..90,
            distinct in 1usize..200,
            scale_exp in -320i32..300,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let scale = 10f64.powi(scale_exp);
            let rows = sparse_rows(n, dim, zero_pct as f64 / 100.0, distinct, scale, seed);
            assert_matches_reference(&block_of(rows, dim), "proptest");
        }
    }
}
