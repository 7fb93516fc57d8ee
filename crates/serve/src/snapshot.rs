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
//!
//! # The exact scan
//!
//! Exact `Similar` asks each block for its `top` rows nearest to a query
//! row `q` under the `(row_dist2, id)` order ([`ShardBlock::nearest`]),
//! and the answer must be the dense sweep's, distance bits included.
//! GEE's rows make most of that sweep redundant: a row is nonzero only
//! in the classes of its labelled neighbours, so with few vertices
//! labelled most rows are sparse, many are all zero, and many repeat.
//! The scan therefore works on a block's **distinct rows**:
//!
//! * **Groups.** Rows are grouped by bits in one linear pass (a keyed
//!   hash of each row's nonzero-bit `(column, bits)` pairs, confirmed
//!   against the group's stored pairs; `-0.0` is not `0.0`). Equal bits
//!   give equal `row_dist2` bits, so one distance, computed on the
//!   group's lowest row in `row_dist2`'s own term order, is every
//!   member's distance; and since members ascend, a group can only
//!   contribute its first `top` members other than the query. The IVF
//!   build reads the same groups as its row memo ([`crate::index`]).
//! * **Bound, then refine.** Each distinct row is kept as its entries
//!   with nonzero bits (`u32` column, `f64`), which the grouping pass
//!   hashes and compares anyway, and `nr = Σ r_c²`. With `nq = Σ q_c²`
//!   (both summed in column order) and `dot = Σ q_c·r_c` over those
//!   entries, the scan computes `B = (nq + nr − 2·dot) − (s·(nq + nr) +
//!   2⁻¹⁰²²)`, where `s = max(2⁻⁴⁰, 8·(4K + 11)·2⁻⁵³)` for rows `K`
//!   wide, and skips the group when `B` is finite and exceeds the
//!   distance of the `top`-th row kept so far: then every member is
//!   strictly farther than the kept rows. Only survivors pay for a
//!   dense `row_dist2`.
//!
//! **Why `B ≤ row_dist2(q, r)`.** Let `u = 2⁻⁵³`, `η = 2⁻¹⁰⁷⁴`, `D =
//! Σ(q_i − r_i)²` and `A = ‖q‖² + ‖r‖²` in exact arithmetic, so `D ≤
//! 2A` and `2Σ|q_c r_c| ≤ A`. A finite `B` means no step of it
//! overflowed: an overflow makes a step ±∞, and every later step stays
//! ±∞ or NaN (`nq + nr = ∞` makes the slack ∞). Each addition and
//! subtraction is then within a factor `1 ± u` of its exact result
//! (exact when that is subnormal), and each product also within `η/2`
//! absolutely. The computed distance `d` sums `K` non-negative terms,
//! so `d ≥ (1 − u)^(K+2)·D − Kη/2 ≥ D − (2K + 4)u·A − Kη/2`. The
//! unslacked bound `e = fl(nq + nr − 2·dot)` is at most `D + γ(2K +
//! 5)·A + 2.1Kη`, with `γ(m) = mu / (1 − mu)`. So `e − d ≤ γ(4K +
//! 9)·A + 2.6Kη`, and rounding `e − slack` costs at most `u·d ≤ 2u·A`
//! more: `(4K + 11)u·A` in all, to first order. The relative slack is
//! at least eight times that (at `K = 50`, `2⁻⁴⁰ ≈ 9.1·10⁻¹³` against
//! `2.4·10⁻¹⁴`), and `2⁻¹⁰²² = 2⁵²η` is far above what products that
//! underflow can lose. So `B < d`. An infinite `d` is above every `B`.
//! The tests pin both slacks with witnesses whose unslacked bound does
//! exceed `d`.
//!
//! **Non-finite values** need no other path. A row or query with an
//! infinite or NaN entry has an infinite or NaN `nq + nr`, so its `B`
//! is not finite and prunes nothing; the scan's other skip, `d > bar`,
//! is false when either side is NaN; and the kept rows are ordered by
//! `(total_cmp distance, id)`, the engine's merge order, so NaN
//! distances (`∞ − ∞` from overflowed sums) land where the merge puts
//! them, as in the dense sweep.
//!
//! The distinct rows are built lazily, on a block's first exact
//! `Similar`, and cached in the block like its IVF index: a clean block
//! is shared by `Arc` with everything it has built, a rebuilt block
//! starts without, and nothing on the write, publish or recovery path
//! builds them. A rebuilt block does hold on to the groups of the block
//! it replaces (or of the nearest ancestor that built them) until it
//! groups its own rows, and its grouping pass starts from them: a row
//! whose bits did not change, checked by its count of nonzero-bit
//! entries and its bits at the old row's columns, joins the successor
//! of its old group, looked up once per old group with the old group's
//! stored hash; only changed rows are compacted and hashed. Edge
//! updates change a few rows of a block and a label move the rows with
//! entries in the moved classes' columns, so most rows take the cheap
//! path, though checking them still reads every row once. The result
//! depends on the rows alone. The IVF build reads the cached groups
//! when there are some, and otherwise groups the rows for itself
//! without keeping them.

use std::borrow::Cow;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::{Arc, Mutex, OnceLock};

use gee_core::{Embedding, Labels};

use crate::index::{by_distance_then_id, row_dist2, IvfIndex, Selection};
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
    /// Lazily built distinct rows for the exact scan (module doc, "The
    /// exact scan"). Shared and rebuilt exactly as `ann` is.
    distinct: OnceLock<Arc<DistinctRows>>,
    /// The distinct rows of the block this one was rebuilt from, or of
    /// the nearest ancestor that had built them: most rows survive a
    /// rebuild, so grouping starts from their groups. Released when
    /// this block groups its rows.
    inherited: Mutex<Option<Arc<DistinctRows>>>,
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
            distinct: OnceLock::new(),
            inherited: Mutex::new(None),
        }
    }

    /// This block, grouping its rows from the groups `parent` would
    /// pass on to a rows-only rebuild (same range, other rows).
    pub(crate) fn inheriting(self, parent: &ShardBlock) -> Self {
        debug_assert_eq!(
            (self.lo, self.hi, self.dim),
            (parent.lo, parent.hi, parent.dim)
        );
        ShardBlock {
            inherited: Mutex::new(parent.groups_to_pass_on()),
            ..self
        }
    }

    /// The groups a block rebuilt from this one starts from: this
    /// block's, or if it has not grouped its rows, the ones it would
    /// have started from.
    fn groups_to_pass_on(&self) -> Option<Arc<DistinctRows>> {
        self.distinct.get().cloned().or_else(|| {
            self.inherited
                .lock()
                .expect("no grouping pass panics while it holds the inherited groups")
                .clone()
        })
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
            // Fresh rows invalidate any index and the distinct rows;
            // the rebuilt block rebuilds them on first use, from this
            // block's groups.
            ann: OnceLock::new(),
            distinct: OnceLock::new(),
            inherited: Mutex::new(self.groups_to_pass_on()),
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

    /// The block's distinct rows, building them on first use.
    pub(crate) fn distinct_rows(&self) -> &DistinctRows {
        self.distinct.get_or_init(|| {
            let inherited = self
                .inherited
                .lock()
                .expect("no grouping pass panics while it holds the inherited groups")
                .take();
            Arc::new(self.group_rows(inherited.as_deref()))
        })
    }

    /// The block's distinct rows for a one-off reader: the cached ones
    /// if an exact scan has built them, else a grouping that is not
    /// kept, so an IVF build alone leaves no scan structure behind.
    pub(crate) fn row_groups(&self) -> Cow<'_, DistinctRows> {
        match self.distinct.get() {
            Some(distinct) => Cow::Borrowed(distinct),
            None => {
                let inherited = self
                    .inherited
                    .lock()
                    .expect("no grouping pass panics while it holds the inherited groups")
                    .clone();
                Cow::Owned(self.group_rows(inherited.as_deref()))
            }
        }
    }

    fn group_rows(&self, parent: Option<&DistinctRows>) -> DistinctRows {
        DistinctRows::build(&self.rows, (self.hi - self.lo) as usize, self.dim, parent)
    }

    /// The `top` rows nearest to `q` under the `(distance, id)` order,
    /// as ascending `(row_dist2, vertex)` pairs, leaving out vertex
    /// `skip`. Distances are `row_dist2`'s bits. Scans the block's
    /// distinct rows (module doc, "The exact scan"): one lower bound per
    /// group, one `row_dist2` per group that survives it.
    pub(crate) fn nearest(&self, q: &[f64], top: usize, skip: Option<u32>) -> Vec<(f64, u32)> {
        let distinct = self.distinct_rows();
        let sparse = &distinct.sparse;
        let nq: f64 = q.iter().map(|x| x * x).sum();
        let slack_rel = bound_slack_rel(self.dim);
        let mut best = Selection::new(top, (self.hi - self.lo) as usize);
        for g in 0..distinct.len() {
            let members = distinct.members(g);
            let bar = best.bar().map_or(f64::INFINITY, |&(d, _)| d);
            let (cols, vals) = sparse.row(g);
            let a = nq + sparse.norms[g];
            let dot: f64 = cols
                .iter()
                .zip(vals)
                .map(|(&c, &x)| q[c as usize] * x)
                .sum();
            let bound = (a - 2.0 * dot) - (slack_rel * a + BOUND_SLACK_ABS);
            if bound > bar && bound < f64::INFINITY {
                continue;
            }
            let d = row_dist2(q, self.row(self.lo + members[0]));
            if d > bar {
                continue;
            }
            for &m in members {
                let item = (d, self.lo + m);
                if Some(item.1) == skip {
                    continue;
                }
                if best.bar().is_some_and(|b| !by_distance_then_id(&item, b)) {
                    break;
                }
                best.push(item, by_distance_then_id);
            }
        }
        best.into_vec()
    }
}

/// Relative slack of the exact scan's lower bound on rows `dim` wide:
/// at least eight times the rounding error it must cover (module doc).
fn bound_slack_rel(dim: usize) -> f64 {
    let u = f64::EPSILON / 2.0;
    (4096.0 * f64::EPSILON).max(8.0 * (4.0 * dim as f64 + 11.0) * u)
}

/// Absolute slack of the same bound: `2⁻¹⁰²² = 2⁵²·2⁻¹⁰⁷⁴`, far above
/// what underflowing products can take off.
const BOUND_SLACK_ABS: f64 = f64::MIN_POSITIVE;

/// A block's rows grouped by bits, and each distinct row in sparse
/// form: the structure behind [`ShardBlock::nearest`] and the IVF
/// build's row memo.
#[derive(Debug, Clone)]
pub(crate) struct DistinctRows {
    /// Group `g`'s members are `members[starts[g]..starts[g + 1]]`,
    /// local rows ascending. Groups are numbered in the order of their
    /// lowest member.
    starts: Vec<u32>,
    members: Vec<u32>,
    /// Each group's row.
    sparse: SparseRows,
}

/// Each group's row as its entries with nonzero bits (`-0.0`
/// included), in column order.
#[derive(Debug, Clone, Default)]
struct SparseRows {
    /// Group `g`'s entries are `cols`/`vals[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    /// Per group: the sum of its entries' squares, in column order.
    norms: Vec<f64>,
    /// Per group: [`hash_pairs`] of its entries (0 for the all-zero
    /// row, which is never hashed), kept for the block that replaces
    /// this one.
    hashes: Vec<u64>,
}

impl SparseRows {
    fn len(&self) -> usize {
        self.norms.len()
    }

    fn row(&self, g: usize) -> (&[u32], &[f64]) {
        let span = self.starts[g] as usize..self.starts[g + 1] as usize;
        (&self.cols[span.clone()], &self.vals[span])
    }

    fn push(&mut self, hash: u64, cols: &[u32], vals: &[f64], norm: f64) {
        self.cols.extend_from_slice(cols);
        self.vals.extend_from_slice(vals);
        self.norms.push(norm);
        self.hashes.push(hash);
        self.starts.push(self.vals.len() as u32);
    }
}

/// Write `r`'s `(column, value)` pairs whose bits are not zero to the
/// front of `cols` and `vals` (each at least `r.len()` long), and
/// return how many there are. Stores every entry and advances past the
/// nonzero ones, without a branch.
#[inline]
fn nonzeros(r: &[f64], cols: &mut [u32], vals: &mut [f64]) -> usize {
    let mut k = 0;
    for (c, &x) in r.iter().enumerate() {
        cols[k] = c as u32;
        vals[k] = x;
        k += usize::from(x.to_bits() != 0);
    }
    k
}

/// Per-column keys of the row hash for rows `dim` wide, drawn from a
/// seed chosen once per process, so that rows crafted to collide cannot
/// make the grouping pass quadratic.
fn row_hash_keys(dim: usize) -> Vec<u64> {
    static SEED: OnceLock<u64> = OnceLock::new();
    let mut state = *SEED.get_or_init(|| RandomState::new().build_hasher().finish());
    (0..dim)
        .map(|_| {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

/// A keyed hash of a row's nonzero-bit `(column, bits)` pairs: NH (the
/// UMAC hash), which adds the key of an entry's column to each 32-bit
/// half of its bits and sums the halves' products, so two different
/// rows collide with probability about `2⁻³²` over the keys; then
/// Murmur3's finalizer, so every bit reaches the slot bits. The
/// products are independent of each other, so they overlap.
#[inline]
fn hash_pairs(keys: &[u64], cols: &[u32], vals: &[f64]) -> u64 {
    let mut h = 0u64;
    for (&c, x) in cols.iter().zip(vals) {
        let (x, k) = (x.to_bits(), keys[c as usize]);
        let lo = (x as u32).wrapping_add(k as u32);
        let hi = ((x >> 32) as u32).wrapping_add((k >> 32) as u32);
        h = h.wrapping_add(u64::from(lo) * u64::from(hi));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The groups of the block a rebuilt block replaces, as its grouping
/// pass reads them: which parent group each row was in, and which group
/// here each parent group has become.
struct Inherited<'a> {
    parent: &'a SparseRows,
    parent_of: Vec<u32>,
    here: Vec<u32>,
}

impl<'a> Inherited<'a> {
    fn new(parent: &'a DistinctRows) -> Inherited<'a> {
        Inherited {
            parent: &parent.sparse,
            parent_of: parent.group_of(),
            here: vec![u32::MAX; parent.len()],
        }
    }

    /// Row `i`'s group, if its bits `r` are still those of its parent
    /// group's row: the same count of nonzero-bit entries (counted
    /// without a branch, so the count vectorizes), and the same bits
    /// at the parent row's columns.
    fn group(&mut self, i: usize, r: &[f64], table: &mut GroupTable) -> Option<u32> {
        let pg = self.parent_of[i] as usize;
        let (cols, vals) = self.parent.row(pg);
        let nonzero: u64 = r
            .iter()
            .map(|x| {
                let b = x.to_bits();
                (b | b.wrapping_neg()) >> 63
            })
            .sum();
        let same = |(&c, x): (&u32, &f64)| r[c as usize].to_bits() == x.to_bits();
        if nonzero != cols.len() as u64 || !cols.iter().zip(vals).all(same) {
            return None;
        }
        if self.here[pg] == u32::MAX {
            self.here[pg] = table.inherit(self.parent, pg);
        }
        Some(self.here[pg])
    }
}

/// The groups a grouping pass has found so far: a linear-probing table
/// of group ids keyed by [`hash_pairs`], and each group's row.
struct GroupTable {
    keys: Vec<u64>,
    mask: usize,
    slots: Vec<u32>,
    zero_group: u32,
    sparse: SparseRows,
}

impl GroupTable {
    fn new(n: usize, dim: usize) -> GroupTable {
        let mask = (2 * n).next_power_of_two() - 1;
        GroupTable {
            keys: row_hash_keys(dim),
            mask,
            slots: vec![u32::MAX; mask + 1],
            zero_group: u32::MAX,
            sparse: SparseRows {
                starts: vec![0],
                ..SparseRows::default()
            },
        }
    }

    /// The group of the row whose nonzero-bit entries are `cols`/`vals`,
    /// started if no row before had them.
    fn group(&mut self, cols: &[u32], vals: &[f64]) -> u32 {
        let hash = if cols.is_empty() {
            0
        } else {
            hash_pairs(&self.keys, cols, vals)
        };
        let norm = || vals.iter().map(|x| x * x).sum();
        self.find_or_start(hash, cols, vals, norm)
    }

    /// [`GroupTable::group`] of group `g` of `parent`, whose hash and
    /// norm are known: the keys are the same for every block as wide.
    fn inherit(&mut self, parent: &SparseRows, g: usize) -> u32 {
        let (cols, vals) = parent.row(g);
        self.find_or_start(parent.hashes[g], cols, vals, || parent.norms[g])
    }

    /// The group of the row with entries `cols`/`vals` and hash
    /// `hash`, started with norm `norm()` if new. The all-zero row
    /// skips the table.
    fn find_or_start(
        &mut self,
        hash: u64,
        cols: &[u32],
        vals: &[f64],
        norm: impl FnOnce() -> f64,
    ) -> u32 {
        let start = |sparse: &mut SparseRows| {
            sparse.push(hash, cols, vals, norm());
            sparse.len() as u32 - 1
        };
        if cols.is_empty() {
            if self.zero_group == u32::MAX {
                self.zero_group = start(&mut self.sparse);
            }
            return self.zero_group;
        }
        let mut s = hash as usize & self.mask;
        loop {
            let g = self.slots[s];
            if g == u32::MAX {
                let g = start(&mut self.sparse);
                self.slots[s] = g;
                return g;
            }
            if self.sparse.hashes[g as usize] == hash {
                let (c, v) = self.sparse.row(g as usize);
                let same = |(x, y): (&f64, &f64)| x.to_bits() == y.to_bits();
                if c == cols && v.iter().zip(vals).all(same) {
                    return g;
                }
            }
            s = (s + 1) & self.mask;
        }
    }
}

impl DistinctRows {
    /// Group the `n` rows of `rows` (row-major, `dim` wide) by bits in
    /// one pass. With `parent`, the groups of the block these rows
    /// replace, a row whose bits are still its parent group's row joins
    /// that row's group here, looked up once per parent group. Any other
    /// row's nonzero-bit entries are found (an all-zero row has none)
    /// and looked up in the table. Counting the groups' sizes then lists
    /// their members. The result depends on the rows alone.
    fn build(rows: &[f64], n: usize, dim: usize, parent: Option<&DistinctRows>) -> DistinctRows {
        let mut table = GroupTable::new(n, dim);
        let mut inherited = parent.map(Inherited::new);
        let mut group_of = Vec::with_capacity(n);
        let (mut col_buf, mut val_buf) = (vec![0u32; dim], vec![0.0f64; dim]);
        for i in 0..n {
            let r = &rows[i * dim..(i + 1) * dim];
            if let Some(g) = inherited.as_mut().and_then(|p| p.group(i, r, &mut table)) {
                group_of.push(g);
                continue;
            }
            // An `or` of the bits finds all-zero rows faster than
            // `nonzeros` does.
            let g = if r.iter().fold(0, |acc, x| acc | x.to_bits()) == 0 {
                table.group(&[], &[])
            } else {
                let k = nonzeros(r, &mut col_buf, &mut val_buf);
                table.group(&col_buf[..k], &val_buf[..k])
            };
            group_of.push(g);
        }
        let sparse = table.sparse;
        let groups = sparse.len();
        let mut starts = vec![0u32; groups + 1];
        for &g in &group_of {
            starts[g as usize + 1] += 1;
        }
        for g in 0..groups {
            starts[g + 1] += starts[g];
        }
        let mut next = starts.clone();
        let mut members = vec![0u32; n];
        for (i, &g) in group_of.iter().enumerate() {
            members[next[g as usize] as usize] = i as u32;
            next[g as usize] += 1;
        }
        DistinctRows {
            starts,
            members,
            sparse,
        }
    }

    /// Number of groups (distinct rows).
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Per local row: its group.
    pub(crate) fn group_of(&self) -> Vec<u32> {
        let mut group_of = vec![0u32; self.members.len()];
        for g in 0..self.len() {
            for &i in self.members(g) {
                group_of[i as usize] = g as u32;
            }
        }
        group_of
    }

    /// Group `g`'s members, local rows ascending.
    fn members(&self, g: usize) -> &[u32] {
        &self.members[self.starts[g] as usize..self.starts[g + 1] as usize]
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

    /// `Similar`'s exact sweep before the exact scan: per block, every
    /// row's distance, each inserted after equal distances into a
    /// `top`-long list; then the lists merged under `(distance, id)`.
    fn dense_oracle(
        blocks: &[Arc<ShardBlock>],
        q: &[f64],
        top: usize,
        skip: Option<u32>,
    ) -> Vec<(f64, u32)> {
        let mut merged = Vec::new();
        for block in blocks {
            let (lo, hi) = block.range();
            let mut best: Vec<(f64, u32)> =
                Vec::with_capacity(top.saturating_add(1).min((hi - lo) as usize + 1));
            for v in lo..hi {
                if Some(v) == skip {
                    continue;
                }
                let d = row_dist2(q, block.row(v));
                let pos = best.partition_point(|&(bd, _)| bd <= d);
                if pos < top {
                    best.insert(pos, (d, v));
                    if best.len() > top {
                        best.pop();
                    }
                }
            }
            merged.extend(best);
        }
        merged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        merged.truncate(top);
        merged
    }

    /// Exact `Similar` as the engine answers it: [`ShardBlock::nearest`]
    /// per block, merged under `(distance, id)`.
    fn scan(
        blocks: &[Arc<ShardBlock>],
        q: &[f64],
        top: usize,
        skip: Option<u32>,
    ) -> Vec<(f64, u32)> {
        let mut merged: Vec<(f64, u32)> = blocks
            .iter()
            .flat_map(|b| b.nearest(q, top, skip))
            .collect();
        merged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        merged.truncate(top);
        merged
    }

    fn bits(list: &[(f64, u32)]) -> Vec<(u32, u64)> {
        list.iter().map(|&(d, v)| (v, d.to_bits())).collect()
    }

    fn assert_scan_matches(
        blocks: &[Arc<ShardBlock>],
        q: &[f64],
        top: usize,
        skip: Option<u32>,
        case: &str,
    ) {
        assert_eq!(
            bits(&scan(blocks, q, top, skip)),
            bits(&dense_oracle(blocks, q, top, skip)),
            "{case}: top {top}, skip {skip:?}, query {q:?}"
        );
    }

    /// The exact scan equals the dense sweep for a spread of queries —
    /// the snapshot's own rows (themselves skipped) and a few vectors
    /// that are no row — and for every `top` from 1 past the row count.
    fn assert_snapshot_matches(snap: &Snapshot, queries: usize, case: &str) {
        let n = snap.num_vertices();
        let tops = [1, 3, 10, 64, n - 1, n, n + 1, usize::MAX];
        let step = (n / queries).max(1);
        for (i, v) in (0..n as u32).step_by(step).enumerate() {
            let top = tops[i % tops.len()];
            assert_scan_matches(snap.blocks(), snap.row(v), top, Some(v), case);
        }
        let k = snap.dim();
        let off_grid: Vec<f64> = (0..k).map(|j| ((j * 7 % 5) as f64 - 2.0) * 0.01).collect();
        for q in [vec![0.0; k], vec![-0.0; k], off_grid] {
            for top in [1, 10, n] {
                assert_scan_matches(snap.blocks(), &q, top, None, case);
            }
        }
    }

    /// One snapshot of `el` embedded with `labels`, over `shards` blocks.
    fn snapshot_of(el: &gee_graph::EdgeList, labels: &Labels, shards: usize) -> Snapshot {
        let z = gee_core::serial_optimized::embed(el, labels);
        let n = z.num_vertices();
        Snapshot::new(0, z, labels.clone(), &ShardLayout::new(n, shards))
    }

    fn random_labels(n: usize, classes: usize, share: f64, seed: u64) -> Labels {
        let spec = gee_gen::LabelSpec {
            num_classes: classes,
            labeled_fraction: share,
        };
        Labels::from_options_with_k(&gee_gen::random_labels(n, spec, seed), classes)
    }

    #[test]
    fn exact_scan_matches_the_dense_sweep_on_the_implementation_fixtures() {
        use gee_gen::{erdos_renyi_gnm, RmatParams};
        let er = |n, m, seed| erdos_renyi_gnm(n, m, seed);
        let mut fixtures = vec![
            ("er 12", er(12, 40, 29), random_labels(12, 3, 0.5, 31)),
            ("er 2000", er(2_000, 30_000, 17), {
                let spec = gee_gen::LabelSpec::default();
                Labels::from_options_with_k(&gee_gen::random_labels(2_000, spec, 3), 50)
            }),
            (
                "rmat 12",
                gee_gen::rmat(12, 50_000, RmatParams::default(), 23),
                random_labels(4_096, 50, 0.1, 5),
            ),
            (
                "preferential attachment",
                gee_gen::preferential_attachment(3_000, 4, 31).symmetrized(),
                random_labels(3_000, 10, 0.2, 13),
            ),
            (
                "laplacian",
                gee_core::laplacian::normalize(&er(800, 10_000, 5)),
                random_labels(800, 6, 0.3, 2),
            ),
            (
                "dispatcher",
                er(200, 2_000, 3),
                random_labels(200, 5, 0.4, 3),
            ),
        ];
        let sbm = gee_gen::sbm(&gee_gen::SbmParams::balanced(5, 100, 0.2, 0.01), 7);
        let truth = Labels::from_options(&gee_gen::subsample_labels(&sbm.truth, 0.3, 9));
        fixtures.push(("sbm truth", sbm.edges, truth));
        let base = er(500, 8_000, 3);
        let weighted = gee_graph::EdgeList::new_unchecked(
            500,
            base.edges()
                .iter()
                .enumerate()
                .map(|(i, e)| gee_graph::Edge::new(e.u, e.v, 0.1 + (i % 31) as f64 * 0.13))
                .collect(),
        );
        fixtures.push(("weighted", weighted, random_labels(500, 8, 0.5, 21)));
        for seed in 0..10 {
            fixtures.push((
                "seeds",
                er(300, 3_000, seed),
                random_labels(300, 4, 0.25, seed),
            ));
        }
        for (case, el, labels) in &fixtures {
            for shards in [1, 3] {
                assert_snapshot_matches(&snapshot_of(el, labels, shards), 24, case);
            }
        }
    }

    #[test]
    fn exact_scan_matches_the_dense_sweep_on_an_embed_large_shard() {
        // The R-MAT shard of the IVF build tests: 2^14 vertices, 3·2^17
        // weighted edges, K = 50, 10 % labelled; about half the rows
        // are all zero and most of the rest are sparse.
        let el = gee_gen::rmat(14, 3 << 17, gee_gen::RmatParams::default(), 7);
        let uniform = gee_gen::WeightDistribution::Uniform { lo: 0.5, hi: 1.5 };
        let el = gee_gen::assign_weights(&el, uniform, 7);
        let snap = snapshot_of(&el, &random_labels(1 << 14, 50, 0.1, 8), 1);
        let distinct = snap.blocks()[0].distinct_rows();
        assert!(
            distinct.len() < (1 << 14) * 3 / 4,
            "{} distinct rows",
            distinct.len()
        );
        assert_snapshot_matches(&snap, 40, "embed_large shard");
    }

    #[test]
    fn exact_scan_matches_the_dense_sweep_on_the_sbm_shape() {
        // `serve_sbm`'s shape: 8 planted blocks of 6,250 vertices, 475k
        // pairs inside blocks and 50k anywhere, unit weights, 10 %
        // labelled with their block: K = 8 and few distinct rows.
        let (blocks, per) = (8u64, 6_250u64);
        let n = blocks * per;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = |m: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % m
        };
        let mut edges = Vec::with_capacity(2 * 525_000);
        for i in 0..525_000 {
            let (u, v) = if i < 475_000 {
                let base = below(blocks) * per;
                (base + below(per), base + below(per))
            } else {
                (below(n), below(n))
            };
            edges.push(gee_graph::Edge::unit(u as u32, v as u32));
            edges.push(gee_graph::Edge::unit(v as u32, u as u32));
        }
        let el = gee_graph::EdgeList::new_unchecked(n as usize, edges);
        let y: Vec<Option<u32>> = (0..n)
            .map(|v| (below(10) == 0).then_some((v / per) as u32))
            .collect();
        let snap = snapshot_of(&el, &Labels::from_options_with_k(&y, 8), 8);
        let distinct: usize = snap.blocks().iter().map(|b| b.distinct_rows().len()).sum();
        assert!(distinct < 5_000, "{distinct} distinct rows");
        assert_snapshot_matches(&snap, 40, "sbm");
    }

    /// A one-block snapshot over hand-made rows.
    fn block_of(rows: Vec<f64>, dim: usize) -> Vec<Arc<ShardBlock>> {
        let n = rows.len() / dim;
        vec![Arc::new(ShardBlock::build(
            0,
            n as u32,
            dim,
            rows,
            vec![-1; n],
        ))]
    }

    /// Rows `[w, r, w]` for `q = (x, x)`, `r = (a, b)`, `w = (b, a)`:
    /// `r` is at `w`'s distance from `q`, bit for bit, so with `top = 2`
    /// the answer is rows 0 and 1 — and row 1 is seen only after rows 0
    /// and 2 have set the bar.
    fn assert_tie_is_kept(x: f64, a: f64, b: f64, case: &str) {
        let blocks = block_of(vec![b, a, a, b, b, a], 2);
        let q = [x, x];
        assert_eq!(
            row_dist2(&q, &[a, b]).to_bits(),
            row_dist2(&q, &[b, a]).to_bits()
        );
        let got = scan(&blocks, &q, 2, None);
        assert_eq!(
            got.iter().map(|p| p.1).collect::<Vec<_>>(),
            [0, 1],
            "{case}"
        );
        assert_scan_matches(&blocks, &q, 2, None, case);
    }

    #[test]
    fn ties_across_different_rows_keep_the_lower_id() {
        // Integer distances, exact in every step.
        assert_tie_is_kept(1.0, 2.0, 0.0, "dyadic");
        // The bound without its slack exceeds this distance: the slack
        // keeps the tie.
        assert_tie_is_kept(
            4.707611624466637,
            4.707611909055939,
            4.707611213121956,
            "rounding",
        );
        // Here every product is subnormal and the relative slack
        // underflows: only the absolute slack keeps the tie.
        assert_tie_is_kept(
            8.211419660891868e-160,
            1.2447198642684283e-160,
            1.2035668879476864e-160,
            "underflow",
        );
        // The all-zero row at the same distance as a nonzero one.
        let blocks = block_of(vec![2.0, 0.0, 0.0, 0.0, 2.0, 0.0], 2);
        assert_eq!(
            scan(&blocks, &[1.0, 0.0], 2, None)
                .iter()
                .map(|p| p.1)
                .collect::<Vec<_>>(),
            [0, 1]
        );
        assert_scan_matches(&blocks, &[1.0, 0.0], 2, None, "zero row tie");
    }

    #[test]
    fn exact_scan_matches_the_dense_sweep_on_extreme_values() {
        let dim = 3;
        let mut rows = Vec::new();
        for r in [
            [0.0, 0.0, 0.0],
            [-0.0, 0.0, 0.0],
            [0.0, -0.0, -0.0],
            [1.0, 0.0, 2.0],
            [1.0, 0.0, 2.0],
            [1.0, -0.0, 2.0],
            [4e-320, 0.0, 0.0],
            [5e-324, 5e-324, 0.0],
            [1e-160, 0.0, 2e-160],
            [1e300, 0.0, -1e300],
            [-1e300, 1e300, 0.0],
            [1e154, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 2.0],
            [-0.0, 0.0, 0.0],
        ] {
            rows.extend(r);
        }
        let n = rows.len() / dim;
        let blocks = block_of(rows.clone(), dim);
        let distinct = blocks[0].distinct_rows();
        assert_eq!(distinct.len(), 11, "-0.0 rows are rows of their own");
        assert_eq!(distinct.members(0), [0, 12]);
        assert_eq!(distinct.members(3), [3, 4, 13]);
        assert_eq!(distinct.members(1), [1, 14]);
        for v in 0..n as u32 {
            let q = blocks[0].row(v).to_vec();
            for top in [1, 2, 3, n - 1, n, usize::MAX] {
                assert_scan_matches(&blocks, &q, top, Some(v), "extreme");
            }
        }
        for q in [
            [1e-160, 1e-160, 0.0],
            [1e154, 1e154, 0.0],
            [0.7e154, 0.0, 0.0],
        ] {
            assert_scan_matches(&blocks, &q, 4, None, "extreme query");
        }
    }

    #[test]
    fn overflowing_squares_prune_nothing() {
        // `‖q‖²` overflows, `2·q·r` does not: the bound's sum is +∞,
        // though `r` is at a finite distance below the bar the two
        // copies of `z` set.
        let q = [1e154, 1e154];
        let (z, r) = ([0.0, 0.85e154], [0.89e154, 0.0]);
        let blocks = block_of([z, z, r].concat(), 2);
        assert!(row_dist2(&q, &r) < row_dist2(&q, &z));
        assert_eq!(
            scan(&blocks, &q, 2, None)
                .iter()
                .map(|p| p.1)
                .collect::<Vec<_>>(),
            [2, 0]
        );
        assert_scan_matches(&blocks, &q, 2, None, "overflow");
    }

    #[test]
    fn a_query_in_its_own_group_finds_its_copies() {
        let blocks = block_of(vec![1.0, 2.0, 0.0, 0.0, 1.0, 2.0, 1.0, 2.0, 3.0, 0.0], 2);
        let got = scan(&blocks, &[1.0, 2.0], 2, Some(2));
        assert_eq!(got, [(0.0, 0), (0.0, 3)]);
        for top in [1, 2, 3, 4, 5, usize::MAX] {
            for v in 0..5 {
                let q = blocks[0].row(v).to_vec();
                assert_scan_matches(&blocks, &q, top, Some(v), "own group");
            }
        }
    }

    #[test]
    fn non_finite_blocks_and_queries_follow_the_total_order() {
        let mut rows = vec![0.0; 6 * 2];
        rows[2..4].copy_from_slice(&[1.0, 1.0]);
        rows[6..8].copy_from_slice(&[f64::INFINITY, 0.0]);
        rows[8..10].copy_from_slice(&[1.0, 1.0]);
        let blocks = block_of(rows.clone(), 2);
        for v in 0..6 {
            let q = blocks[0].row(v).to_vec();
            assert_scan_matches(&blocks, &q, 3, Some(v), "infinite row");
        }
        // NaN distances: the answer is the total order's, NaN included.
        rows[4..6].copy_from_slice(&[f64::NAN, 1.0]);
        let blocks = block_of(rows, 2);
        for q in [[0.5, 1.0], [f64::INFINITY, 0.0], [f64::NAN, 0.0]] {
            let mut all: Vec<(f64, u32)> = (0..6)
                .map(|v| (row_dist2(&q, blocks[0].row(v)), v))
                .collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for top in 1..=7 {
                let want = &all[..top.min(6)];
                assert_eq!(
                    bits(&scan(&blocks, &q, top, None)),
                    bits(want),
                    "{q:?}, top {top}"
                );
            }
        }
        // A finite block queried with a non-finite row.
        let finite = block_of(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0], 2);
        for q in [[f64::INFINITY, 1.0], [f64::NEG_INFINITY, 0.0]] {
            assert_scan_matches(&finite, &q, 2, None, "infinite query");
        }
    }

    #[test]
    fn rows_of_any_width_are_grouped() {
        // 300 columns: a value in column 0 and the same value in column
        // 256 are different rows, which a byte-wide column would merge.
        let dim = 300;
        let mut rows = vec![0.0; 8 * dim];
        for (r, c, x) in [
            (1, 0, 1.5),
            (2, 256, 1.5),
            (3, 0, 1.5),
            (5, 299, -2.0),
            (6, 256, 1.5),
        ] {
            rows[r * dim + c] = x;
        }
        let blocks = block_of(rows, dim);
        let distinct = blocks[0].distinct_rows();
        assert_eq!(distinct.len(), 4);
        assert_eq!(distinct.members(0), [0, 4, 7]);
        assert_eq!(distinct.members(1), [1, 3]);
        assert_eq!(distinct.members(2), [2, 6]);
        for v in 0..8 {
            let q = blocks[0].row(v).to_vec();
            for top in [1, 2, 4, 8] {
                assert_scan_matches(&blocks, &q, top, Some(v), "wide rows");
            }
        }
    }

    #[test]
    fn an_ivf_build_keeps_no_distinct_rows() {
        // Reads them if an exact scan built them, else groups the rows
        // for itself: the same index either way.
        let n = crate::index::ANN_MIN_SHARD_ROWS * 2;
        let rows = sparse_rows(n, 6, 40, 30, 1.0, 5);
        let cold = ShardBlock::build(0, n as u32, 6, rows.clone(), vec![-1; n]);
        let digest = cold.ann_index().unwrap().structure_digest();
        assert!(cold.distinct.get().is_none());
        let warm = ShardBlock::build(0, n as u32, 6, rows, vec![-1; n]);
        warm.nearest(warm.row(0), 1, None);
        assert_eq!(warm.ann_index().unwrap().structure_digest(), digest);
        assert!(warm.distinct.get().is_some());
    }

    /// A small deterministic generator for test rows.
    fn sparse_rows(
        n: usize,
        dim: usize,
        zero_pct: u64,
        distinct: usize,
        scale: f64,
        seed: u64,
    ) -> Vec<f64> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let pool: Vec<Vec<f64>> = (0..distinct)
            .map(|_| {
                (0..dim)
                    .map(|_| match next() % 4 {
                        0 => 0.0,
                        1 => -scale * (1.0 + (next() % 8) as f64 / 8.0),
                        _ => scale * (1.0 + (next() % 1024) as f64 / 1024.0),
                    })
                    .collect()
            })
            .collect();
        let mut rows = Vec::with_capacity(n * dim);
        for _ in 0..n {
            if next() % 100 < zero_pct {
                rows.extend(std::iter::repeat_n(0.0, dim));
            } else {
                rows.extend_from_slice(&pool[next() as usize % distinct]);
            }
        }
        rows
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn exact_scan_equals_the_dense_sweep(
            n in 1usize..400,
            dim in 1usize..20,
            shards in 1usize..5,
            zero_pct in 0u64..90,
            distinct in 1usize..60,
            scale_exp in -320i32..300,
            top in 1usize..40,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let scale = 10f64.powi(scale_exp);
            let rows = sparse_rows(n, dim, zero_pct, distinct, scale, seed);
            let parent = DistinctRows::build(&rows, n, dim, None);
            for child in edited(&rows, dim, seed) {
                assert_same_groups(
                    &DistinctRows::build(&child, n, dim, Some(&parent)),
                    &DistinctRows::build(&child, n, dim, None),
                    "proptest",
                );
            }
            let z = Embedding::from_vec(n, dim, rows);
            let labels = Labels::from_options_with_k(&vec![None; n], dim);
            let snap = Snapshot::new(0, z, labels, &ShardLayout::new(n, shards));
            for v in (0..n as u32).step_by((n / 8).max(1)) {
                let q = snap.row(v).to_vec();
                assert_scan_matches(snap.blocks(), &q, top, Some(v), "proptest");
            }
        }
    }

    #[test]
    fn a_rows_only_rebuild_starts_without_distinct_rows() {
        let b = ShardBlock::build(0, 3, 2, vec![1.0, 0.0, 1.0, 0.0, 0.0, 0.0], vec![-1; 3]);
        assert_eq!(b.nearest(&[1.0, 0.0], 1, None), [(0.0, 0)]);
        assert!(b.distinct.get().is_some());
        let rebuilt = b.with_rows(vec![0.0; 6]);
        assert!(rebuilt.distinct.get().is_none());
        assert_eq!(rebuilt.nearest(&[1.0, 0.0], 1, None), [(1.0, 0)]);
    }

    #[test]
    fn a_block_shared_across_a_publish_keeps_its_distinct_rows() {
        let el = gee_gen::erdos_renyi_gnm(80, 400, 3);
        let labels = random_labels(80, 3, 0.3, 4);
        let reg = crate::Registry::new(4);
        let parent = reg.register("g", &el, &labels).unwrap();
        for b in parent.blocks() {
            b.nearest(b.row(b.range().0), 1, None);
        }
        // Both endpoints in shard 0 of 4 × 20: only block 0 is rebuilt.
        let (_, child) = reg
            .apply_updates("g", &[crate::Update::InsertEdge { u: 1, v: 2, w: 3.0 }])
            .unwrap();
        assert!(child.blocks()[0].distinct.get().is_none());
        let held = child.blocks()[0].inherited.lock().unwrap().clone().unwrap();
        assert!(Arc::ptr_eq(
            &held,
            parent.blocks()[0].distinct.get().unwrap()
        ));
        for (a, b) in child.blocks().iter().zip(parent.blocks()).skip(1) {
            assert!(Arc::ptr_eq(a, b));
            let (a, b) = (a.distinct.get().unwrap(), b.distinct.get().unwrap());
            assert!(Arc::ptr_eq(a, b));
        }
    }

    fn assert_same_groups(a: &DistinctRows, b: &DistinctRows, case: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (x, y) = (&a.sparse, &b.sparse);
        assert_eq!(a.starts, b.starts, "{case}");
        assert_eq!(a.members, b.members, "{case}");
        assert_eq!(x.starts, y.starts, "{case}");
        assert_eq!(x.cols, y.cols, "{case}");
        assert_eq!(bits(&x.vals), bits(&y.vals), "{case}");
        assert_eq!(bits(&x.norms), bits(&y.norms), "{case}");
        assert_eq!(x.hashes, y.hashes, "{case}");
    }

    /// Rows `parent` after the edits a rebuild makes: every row's
    /// columns 1 and 3 rescaled (a label move), and some rows zeroed,
    /// copied from another row, given new values or a `-0.0`.
    fn edited(parent: &[f64], dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let n = parent.len() / dim;
        let mut rescaled = parent.to_vec();
        for r in rescaled.chunks_exact_mut(dim) {
            for c in [1, 3].into_iter().filter(|&c| c < dim) {
                r[c] *= 0.75;
            }
        }
        let mut spot = parent.to_vec();
        let mut state = seed;
        for _ in 0..n / 5 + 1 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (i, j) = ((state >> 33) as usize % n, (state >> 45) as usize % n);
            let row = i * dim..(i + 1) * dim;
            match state % 5 {
                0 => spot[row].fill(0.0),
                1 => spot.copy_within(j * dim..(j + 1) * dim, i * dim),
                2 => spot[row].fill(j as f64 + 0.5),
                3 => spot[i * dim] = -0.0,
                _ => spot[i * dim + dim - 1] = f64::NAN,
            }
        }
        vec![rescaled, spot, parent.to_vec(), vec![0.0; parent.len()]]
    }

    #[test]
    fn grouping_from_the_parent_equals_grouping_from_scratch() {
        let el = gee_gen::rmat(12, 50_000, gee_gen::RmatParams::default(), 23);
        let snap = snapshot_of(&el, &random_labels(4_096, 50, 0.1, 5), 1);
        let (rows, n, dim) = (snap.blocks()[0].rows().to_vec(), 4_096, 50);
        let mut cases = vec![(rows, n, dim)];
        for (n, dim, zero_pct, distinct) in [(300, 5, 30, 20), (64, 2, 80, 3), (40, 300, 50, 9)] {
            cases.push((sparse_rows(n, dim, zero_pct, distinct, 1.0, 4), n, dim));
        }
        for (case, (rows, n, dim)) in cases.iter().enumerate() {
            let parent = DistinctRows::build(rows, *n, *dim, None);
            for (edit, child) in edited(rows, *dim, case as u64).iter().enumerate() {
                let scratch = DistinctRows::build(child, *n, *dim, None);
                let inherited = DistinctRows::build(child, *n, *dim, Some(&parent));
                assert_same_groups(&inherited, &scratch, &format!("case {case}, edit {edit}"));
            }
        }
    }

    #[test]
    fn a_rebuilt_block_groups_from_its_parent_and_then_lets_go() {
        let rows = sparse_rows(300, 5, 30, 20, 1.0, 9);
        let b = ShardBlock::build(0, 300, 5, rows.clone(), vec![-1; 300]);
        // A block without groups or ancestors' groups passes none on.
        assert!(b
            .with_rows(rows.clone())
            .inherited
            .lock()
            .unwrap()
            .is_none());
        b.distinct_rows();
        let parent = b.distinct.get().unwrap();
        for child in edited(&rows, 5, 1) {
            let rebuilt = b.with_rows(child.clone());
            let relabelled =
                ShardBlock::build(0, 300, 5, child.clone(), vec![0; 300]).inheriting(&b);
            // Rebuilt again before it grouped its rows: the grandparent's
            // groups pass on.
            let again = rebuilt.with_rows(child.clone());
            for block in [rebuilt, relabelled, again] {
                let held = block.inherited.lock().unwrap().clone().unwrap();
                assert!(Arc::ptr_eq(&held, parent));
                drop(held);
                let scratch = DistinctRows::build(&child, 300, 5, None);
                assert_same_groups(&block.row_groups(), &scratch, "uncached");
                assert!(block.inherited.lock().unwrap().is_some());
                assert_same_groups(block.distinct_rows(), &scratch, "cached");
                assert!(block.inherited.lock().unwrap().is_none());
            }
        }
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
