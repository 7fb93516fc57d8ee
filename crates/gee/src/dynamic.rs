//! Incremental (dynamic) GEE — maintain an embedding under edge
//! insertions, edge deletions, and label changes without re-running the
//! O(s) edge pass.
//!
//! GEE is a *linear* sketch of the edge list, which makes it naturally
//! incremental: `Z(u, c) = Σ_{(u,v,w) ∈ E, Y(v)=c} w / |class c|` (plus
//! the symmetric term). We maintain the **unnormalized** accumulator
//! `Ẑ(u, c) = Σ w` (coefficient 1 instead of `1/|class c|`); because the
//! projection coefficient of a contribution depends only on the *column*
//! class `c`, the normalized embedding is recovered by dividing each
//! column by its current class count:
//!
//! `Z(u, c) = Ẑ(u, c) / count(c)`.
//!
//! Under this split the update costs are:
//!
//! * edge insert / delete — O(1): two `Ẑ` updates.
//! * label change of vertex `x` — O(deg(x)): move the `Ẑ` mass of `x`'s
//!   incident edges between the old and new columns (plus an O(1) count
//!   update that implicitly rescales both columns everywhere).
//!
//! A full recompute after `q` updates costs O(s + nK); the delta path
//! costs O(q) for edge updates — the crossover is measured by the
//! `ablation-dynamic` bench. Every mutator is validated against a fresh
//! static recompute in the tests.
//!
//! # The incident-edge mirror
//!
//! A label move needs every edge incident to the moved vertex, so the
//! writer mirrors the graph: vertex `x`'s *list* holds `(opposite
//! endpoint, w)` for every edge with `x` as either endpoint (a self-loop
//! twice). The mirror is one flat CSR (`offsets`, `targets`, `weights`)
//! built in edge-list order. Each list is the live prefix of its CSR
//! *slot*, followed by a per-vertex *spill* `Vec` that stays empty and
//! unallocated until an insert finds the slot full (a bulk load leaves two
//! free entries in every slot; a restored writer's slots are full). The
//! three mutators see exactly the entry sequence a per-vertex `Vec` would:
//!
//! * an insert appends: into the slot while it has room, into the spill
//!   after that;
//! * a removal is `Vec::swap_remove`: the list's last entry moves into
//!   the hole;
//! * a label move walks the slot, then the spill.
//!
//! **Why edge order.** The bulk load fills `Ẑ` by pulling each row `d`
//! over `d`'s list in order, one task per edge-balanced range of rows.
//! Cell `Ẑ(d, c)` then receives its terms in edge-list order, which is
//! the order of the serial loop that applies Algorithm 1's two
//! contributions edge by edge. So the result is bit-identical to that
//! loop at any thread count, and a replayed WAL `Register` or a
//! checkpoint written by an earlier build yields the same bits: no
//! durable format had to change.

use std::cmp::Ordering;

use gee_graph::{edge_balanced_ranges, rows_in_edge_order, EdgeList, VertexId, Weight};
use rayon::prelude::*;

use crate::embedding::Embedding;
use crate::labels::Labels;

/// The complete internal state of a [`DynamicGee`] — every field that
/// determines its future behavior, exposed so a checkpoint can persist
/// the writer *bit-exactly* and restore it with
/// [`DynamicGee::from_state`].
///
/// Bit-exactness matters: the accumulator `Ẑ` is a floating-point sum
/// whose value depends on the order contributions arrived, and the
/// adjacency mirror's entry order determines which duplicate edge a
/// future `remove_edge` takes and the order `set_label` walks incident
/// edges. Persisting the raw fields (f64 bit patterns, adjacency order
/// intact) is therefore the only representation from which a restarted
/// writer behaves identically to one that never stopped — re-deriving
/// the state from an edge list would change summation order.
///
/// The mirror travels as a flat CSR holding every vertex's list end to
/// end: the writer's slot prefix, then its spill. A restored writer takes
/// these arrays over as its slots, full and with empty spills.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicGeeState {
    /// Number of vertices `n`.
    pub num_vertices: usize,
    /// Class universe size `K`.
    pub num_classes: usize,
    /// Unnormalized accumulator `Ẑ`, row-major `n × K`.
    pub zhat: Vec<f64>,
    /// Label per vertex (`-1` = unlabeled), length `n`.
    pub labels: Vec<i32>,
    /// Labeled-vertex count per class, length `K`.
    pub class_counts: Vec<u64>,
    /// Incident-edge mirror offsets, `n + 1` entries from 0: vertex `x`'s
    /// list, in order, is entries `offsets[x]..offsets[x + 1]` of
    /// `targets` and `weights`.
    pub offsets: Vec<usize>,
    /// Opposite endpoint of every mirror entry.
    pub targets: Vec<VertexId>,
    /// Weight of every mirror entry.
    pub weights: Vec<Weight>,
}

/// A GEE embedding maintained under streaming graph/label updates.
///
/// The class universe `K` is fixed at construction; labels move within
/// `0..K` (or to/from unlabeled).
#[derive(Debug, Clone)]
pub struct DynamicGee {
    n: usize,
    k: usize,
    /// Unnormalized accumulator `Ẑ`, row-major `n × k`.
    zhat: Vec<f64>,
    /// Current label per vertex (`-1` = unknown).
    y: Vec<i32>,
    /// Labeled-vertex count per class.
    counts: Vec<u64>,
    /// Incident-edge mirror, needed to relocate contributions when a
    /// vertex's label changes.
    mirror: Mirror,
}

/// Unused entries a bulk load leaves after every list, so that a vertex's
/// first inserts land in its slot rather than allocating a spill (a grown
/// `Vec` usually has that slack too). A restored writer's slots are full.
const HEADROOM: usize = 2;

/// The incident-edge mirror: a CSR of slots plus a per-vertex spill (see
/// the module docs).
#[derive(Debug, Clone)]
struct Mirror {
    /// Per vertex, in one record so that finding a list costs one miss.
    slots: Vec<Slot>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
}

/// One vertex's place in the mirror.
#[derive(Debug, Clone)]
struct Slot {
    /// The slot is entries `start..cap` of `targets` and `weights`, of
    /// which `start..end` are live.
    start: usize,
    end: usize,
    cap: usize,
    /// Entries past the full slot. Non-empty only while the slot is full
    /// (inserts spill only then; removals pop the spill first), so the
    /// list is always the slot's live prefix followed by the spill.
    spill: Vec<(VertexId, Weight)>,
}

impl Mirror {
    /// Take over a CSR whose rows are each followed by `gap` free entries
    /// as slots with empty spills.
    fn new(offsets: &[usize], gap: usize, targets: Vec<VertexId>, weights: Vec<Weight>) -> Mirror {
        let slots = offsets
            .windows(2)
            .map(|o| Slot {
                start: o[0],
                end: o[1] - gap,
                cap: o[1],
                spill: Vec::new(),
            })
            .collect();
        Mirror {
            slots,
            targets,
            weights,
        }
    }

    /// Vertex `x`'s list, in order.
    fn list(&self, x: usize) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let slot = &self.slots[x];
        let live = slot.start..slot.end;
        self.targets[live.clone()]
            .iter()
            .copied()
            .zip(self.weights[live].iter().copied())
            .chain(slot.spill.iter().copied())
    }

    /// `Vec::push` on `x`'s list.
    fn push(&mut self, x: usize, entry: (VertexId, Weight)) {
        let slot = &mut self.slots[x];
        if slot.end < slot.cap {
            debug_assert!(slot.spill.is_empty(), "spill beside a slot with room");
            (self.targets[slot.end], self.weights[slot.end]) = entry;
            slot.end += 1;
        } else {
            slot.spill.push(entry);
        }
    }

    /// Remove the first entry `(t, w)` of `x`'s list as `Vec::swap_remove`
    /// would. Returns `false` (and changes nothing) if there is none.
    fn remove(&mut self, x: usize, t: VertexId, w: Weight) -> bool {
        let Some(i) = self.list(x).position(|(lt, lw)| lt == t && lw == w) else {
            return false;
        };
        let slot = &mut self.slots[x];
        let last = slot.spill.pop().unwrap_or_else(|| {
            slot.end -= 1;
            (self.targets[slot.end], self.weights[slot.end])
        });
        let live = slot.end - slot.start;
        if i < live {
            (self.targets[slot.start + i], self.weights[slot.start + i]) = last;
        } else if let Some(hole) = slot.spill.get_mut(i - live) {
            *hole = last;
        }
        // Otherwise entry `i` was the last one, and popping removed it.
        true
    }

    /// Every list end to end, as a compact CSR.
    fn to_csr(&self) -> (Vec<usize>, Vec<VertexId>, Vec<Weight>) {
        let len = self
            .slots
            .iter()
            .map(|slot| slot.end - slot.start + slot.spill.len())
            .sum();
        let mut offsets = Vec::with_capacity(self.slots.len() + 1);
        let (mut targets, mut weights) = (Vec::with_capacity(len), Vec::with_capacity(len));
        offsets.push(0);
        for slot in &self.slots {
            targets.extend_from_slice(&self.targets[slot.start..slot.end]);
            weights.extend_from_slice(&self.weights[slot.start..slot.end]);
            for &(t, w) in &slot.spill {
                targets.push(t);
                weights.push(w);
            }
            offsets.push(targets.len());
        }
        (offsets, targets, weights)
    }
}

impl DynamicGee {
    /// Initialize from a static edge list and labeling (bulk pass, O(s),
    /// parallel; bit-identical to applying the edges one by one).
    pub fn new(el: &EdgeList, labels: &Labels) -> Self {
        assert_eq!(
            el.num_vertices(),
            labels.len(),
            "labels must cover every vertex"
        );
        let n = el.num_vertices();
        let k = labels.num_classes();
        let y = labels.raw_slice().to_vec();
        let (offsets, targets, weights) = rows_in_edge_order(n, el.edges(), true, true, HEADROOM);
        let mirror = Mirror::new(&offsets, HEADROOM, targets, weights);
        DynamicGee {
            n,
            k,
            zhat: pull_zhat(k, &y, &offsets, &mirror),
            y,
            counts: labels.class_counts().to_vec(),
            mirror,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Embedding dimension `K`.
    pub fn dim(&self) -> usize {
        self.k
    }

    /// Current label of `v`.
    pub fn label(&self, v: VertexId) -> Option<u32> {
        let raw = self.y[v as usize];
        (raw >= 0).then_some(raw as u32)
    }

    /// Current labeled count of class `c`.
    pub fn class_count(&self, c: u32) -> u64 {
        self.counts[c as usize]
    }

    /// Add the two Algorithm-1 contributions of edge `(u, v, w)` into `Ẑ`
    /// with sign `sgn` (+1 insert, −1 delete).
    fn apply_edge(&mut self, u: VertexId, v: VertexId, w: Weight, sgn: f64) {
        let (u, v) = (u as usize, v as usize);
        let yv = self.y[v];
        if yv >= 0 {
            self.zhat[u * self.k + yv as usize] += sgn * w;
        }
        let yu = self.y[u];
        if yu >= 0 {
            self.zhat[v * self.k + yu as usize] += sgn * w;
        }
    }

    /// Insert a directed edge `(u, v, w)` (undirected graphs insert both
    /// directions, matching §II's encoding).
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "endpoint out of range"
        );
        self.apply_edge(u, v, w, 1.0);
        self.mirror.push(u as usize, (v, w));
        self.mirror.push(v as usize, (u, w));
    }

    /// Remove one occurrence of edge `(u, v, w)`. Returns `false` (and
    /// changes nothing) if no matching edge exists.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> bool {
        if !self.mirror.remove(u as usize, v, w) {
            return false;
        }
        // Remove the mirror entry (for a self-loop both entries live in
        // the same list; the first removal above took one of them).
        let mirrored = self.mirror.remove(v as usize, u, w);
        assert!(mirrored, "adjacency mirror out of sync");
        self.apply_edge(u, v, w, -1.0);
        true
    }

    /// Change the label of `x` (to `None` for unlabeled). O(deg(x)): the
    /// `Ẑ` mass of `x`'s incident edges moves from the old class column to
    /// the new one; class counts (and therefore the per-column scaling)
    /// update implicitly.
    pub fn set_label(&mut self, x: VertexId, label: Option<u32>) {
        let new = match label {
            Some(c) => {
                assert!(
                    (c as usize) < self.k,
                    "label {c} out of range for K={}",
                    self.k
                );
                c as i32
            }
            None => -1,
        };
        let old = self.y[x as usize];
        if old == new {
            return;
        }
        // Move the incident contribution mass between columns. Entry
        // `(t, w)` in x's list covers one Algorithm-1 contribution
        // `Z(t, Y(x)) += w`, whichever direction the edge had.
        let xi = x as usize;
        let (zhat, k) = (&mut self.zhat, self.k);
        // `for_each` walks the slot and the spill as two plain loops.
        self.mirror.list(xi).for_each(|(t, w)| {
            let t = t as usize;
            if old >= 0 {
                zhat[t * k + old as usize] -= w;
            }
            if new >= 0 {
                zhat[t * k + new as usize] += w;
            }
        });
        if old >= 0 {
            self.counts[old as usize] -= 1;
        }
        if new >= 0 {
            self.counts[new as usize] += 1;
        }
        self.y[xi] = new;
    }

    /// Current labels as a [`Labels`] value (rebuilt, O(n)).
    pub fn labels(&self) -> Labels {
        let opts: Vec<Option<u32>> = self
            .y
            .iter()
            .map(|&c| (c >= 0).then_some(c as u32))
            .collect();
        Labels::from_options_with_k(&opts, self.k)
    }

    /// Current edges as an [`EdgeList`]. The adjacency mirror does not
    /// record direction, so each edge is emitted from its lower endpoint —
    /// GEE's two per-edge contributions are symmetric in `(u, v)`, so the
    /// embedding of the reconstruction matches the original. O(s).
    pub fn edge_list(&self) -> EdgeList {
        use gee_graph::Edge;
        let mut edges = Vec::new();
        let mut selfs = Vec::new();
        for u in 0..self.n {
            // Each non-loop edge appears in both endpoint lists; emit it
            // from the lower endpoint only. Self-loops appear twice in
            // their own list; emit one edge per pair of entries.
            selfs.clear();
            for (v, w) in self.mirror.list(u) {
                match (u as VertexId).cmp(&v) {
                    Ordering::Less => edges.push(Edge::new(u as VertexId, v, w)),
                    Ordering::Equal => selfs.push(w),
                    Ordering::Greater => {}
                }
            }
            for pair in selfs.chunks(2) {
                edges.push(Edge::new(u as VertexId, u as VertexId, pair[0]));
            }
        }
        EdgeList::new_unchecked(self.n, edges)
    }

    /// Export the complete writer state for checkpointing. The returned
    /// [`DynamicGeeState`] round-trips through [`DynamicGee::from_state`]
    /// bit-exactly.
    pub fn export_state(&self) -> DynamicGeeState {
        let (offsets, targets, weights) = self.mirror.to_csr();
        DynamicGeeState {
            num_vertices: self.n,
            num_classes: self.k,
            zhat: self.zhat.clone(),
            labels: self.y.clone(),
            class_counts: self.counts.clone(),
            offsets,
            targets,
            weights,
        }
    }

    /// Rebuild a writer from an exported state, validating every
    /// structural invariant (shapes, label ranges, class-count histogram,
    /// adjacency-mirror symmetry, checked in linear time) so a corrupted
    /// checkpoint yields a typed error instead of a writer that panics
    /// later. The state's arrays become the writer's own, uncopied.
    pub fn from_state(state: DynamicGeeState) -> Result<Self, String> {
        let DynamicGeeState {
            num_vertices: n,
            num_classes: k,
            zhat,
            labels: y,
            class_counts: counts,
            offsets,
            targets,
            weights,
        } = state;
        if zhat.len() != n.checked_mul(k).ok_or("n × K overflows")? {
            return Err(format!("zhat has {} entries, want {}", zhat.len(), n * k));
        }
        if y.len() != n {
            return Err(format!("labels cover {} of {n} vertices", y.len()));
        }
        if counts.len() != k {
            return Err(format!("{} class counts for K={k}", counts.len()));
        }
        let mut histogram = vec![0u64; k];
        for (v, &label) in y.iter().enumerate() {
            if label >= 0 {
                *histogram
                    .get_mut(label as usize)
                    .ok_or_else(|| format!("vertex {v} labeled {label}, K={k}"))? += 1;
            } else if label != -1 {
                return Err(format!("vertex {v} has invalid raw label {label}"));
            }
        }
        if histogram != counts {
            return Err("class counts disagree with the label histogram".into());
        }
        check_mirror(n, &offsets, &targets, &weights)?;
        Ok(DynamicGee {
            n,
            k,
            zhat,
            y,
            counts,
            mirror: Mirror::new(&offsets, 0, targets, weights),
        })
    }

    /// Materialize the normalized embedding `Z(u,c) = Ẑ(u,c)/count(c)`
    /// (columns of empty classes are zero). O(nK).
    pub fn embedding(&self) -> Embedding {
        let data = self.embedding_rows(0, self.n);
        Embedding::from_vec(self.n, self.k, data)
    }

    /// Materialize only rows `lo..hi` of the normalized embedding as a
    /// row-major buffer of `(hi - lo) × K`. This is the shard-parallel
    /// building block: `gee-serve` publishes a snapshot by materializing
    /// each shard's vertex range on its own thread and concatenating.
    pub fn embedding_rows(&self, lo: usize, hi: usize) -> Vec<f64> {
        assert!(
            lo <= hi && hi <= self.n,
            "row range {lo}..{hi} out of bounds for n={}",
            self.n
        );
        let k = self.k;
        let inv: Vec<f64> = self
            .counts
            .iter()
            .map(|&c| if c > 0 { 1.0 / c as f64 } else { 0.0 })
            .collect();
        let mut out = Vec::with_capacity((hi - lo) * k);
        for v in lo..hi {
            let row = &self.zhat[v * k..(v + 1) * k];
            out.extend(row.iter().zip(&inv).map(|(&z, &s)| z * s));
        }
        out
    }
}

/// `Ẑ` of a freshly built mirror: row `d` sums `w` into column `Y(t)` over
/// `d`'s list `(t, w)` in order, one task per edge-balanced range of rows
/// (`offsets` are the slot bounds). Each cell gets its terms in edge-list
/// order, as from the serial loop.
fn pull_zhat(k: usize, y: &[i32], offsets: &[usize], mirror: &Mirror) -> Vec<f64> {
    let n = offsets.len() - 1;
    let mut zhat = vec![0.0; n * k];
    if k == 0 {
        return zhat;
    }
    let mut rest = zhat.as_mut_slice();
    let mut blocks = Vec::new();
    for rows in edge_balanced_ranges(offsets, rayon::current_num_threads()) {
        let (block, tail) = std::mem::take(&mut rest).split_at_mut(rows.len() * k);
        blocks.push((rows, block));
        rest = tail;
    }
    blocks.into_par_iter().for_each(|(rows, block)| {
        for (d, row) in rows.zip(block.chunks_exact_mut(k)) {
            let Slot { start, end, .. } = mirror.slots[d];
            for (&t, &w) in mirror.targets[start..end]
                .iter()
                .zip(&mirror.weights[start..end])
            {
                let c = y[t as usize];
                if c >= 0 {
                    row[c as usize] += w;
                }
            }
        }
    });
    zhat
}

/// Check that a CSR is a mirror [`DynamicGee::remove_edge`] can trust, in
/// time linear in its entries plus a sort of each list's share:
///
/// * shape: `n + 1` offsets from 0, non-decreasing, ending at the entry
///   count both arrays hold;
/// * range: every target is `< n`;
/// * pairing: for every `a`, the multiset `{(b, w bits) : (b, w) in
///   list(a), b > a}` equals `{(b, w bits) : (a, w) in list(b), b > a}`,
///   and the self-loop entries `(a, w)` of `list(a)` pair up per weight.
///
/// Pairing is exactly what a per-edge balance count proves: every entry
/// has a partner at the opposite endpoint with the same weight bits, so
/// the two-sided removal always finds its second entry. The `(a, w)`
/// entries of higher lists are filed under `a` by a counting sort; then
/// each vertex's two small lists are sorted and compared.
fn check_mirror(
    n: usize,
    offsets: &[usize],
    targets: &[VertexId],
    weights: &[Weight],
) -> Result<(), String> {
    if offsets.len() != n + 1 || offsets[0] != 0 {
        return Err(format!(
            "adjacency offsets: {} entries from {:?} for {n} vertices",
            offsets.len(),
            offsets.first()
        ));
    }
    if let Some(x) = offsets.windows(2).position(|o| o[0] > o[1]) {
        return Err(format!("adjacency list of {x} ends before it starts"));
    }
    if offsets[n] != targets.len() || offsets[n] != weights.len() {
        return Err(format!(
            "adjacency offsets end at {}, lists hold {} targets and {} weights",
            offsets[n],
            targets.len(),
            weights.len()
        ));
    }
    if let Some(t) = targets.iter().find(|&&t| t as usize >= n) {
        return Err(format!("adjacency references vertex {t}, n={n}"));
    }
    let list = |x: usize| offsets[x]..offsets[x + 1];
    // starts[a]..starts[a + 1] will hold the (b, w bits) of every entry
    // (a, w) in list(b), b > a.
    let mut starts = vec![0usize; n + 1];
    for b in 0..n {
        for &a in &targets[list(b)] {
            if (a as usize) < b {
                starts[a as usize + 1] += 1;
            }
        }
    }
    for a in 0..n {
        starts[a + 1] += starts[a];
    }
    let mut cursor = starts.clone();
    let mut partners = vec![(0 as VertexId, 0u64); starts[n]];
    for b in 0..n {
        for i in list(b) {
            let a = targets[i] as usize;
            if a < b {
                partners[cursor[a]] = (b as VertexId, weights[i].to_bits());
                cursor[a] += 1;
            }
        }
    }
    let (mut up, mut loops) = (Vec::new(), Vec::new());
    for a in 0..n {
        up.clear();
        loops.clear();
        for i in list(a) {
            let bits = weights[i].to_bits();
            match targets[i].cmp(&(a as VertexId)) {
                Ordering::Greater => up.push((targets[i], bits)),
                Ordering::Equal => loops.push(bits),
                Ordering::Less => {}
            }
        }
        let down = &mut partners[starts[a]..starts[a + 1]];
        up.sort_unstable();
        down.sort_unstable();
        if up != down {
            return Err(format!("adjacency mirror out of sync at vertex {a}"));
        }
        loops.sort_unstable();
        if loops
            .chunks(2)
            .any(|pair| pair.len() == 1 || pair[0] != pair[1])
        {
            return Err(format!("vertex {a} has an unpaired self-loop entry"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial_optimized;
    use gee_gen::{LabelSpec, RmatParams, SbmParams};
    use gee_graph::Edge;
    use proptest::prelude::*;

    /// Static recompute oracle for the dynamic state.
    fn oracle(dg: &DynamicGee) -> Embedding {
        serial_optimized::embed(&dg.edge_list(), &dg.labels())
    }

    fn assert_matches_oracle(dg: &DynamicGee, tol: f64) {
        let dynamic = dg.embedding();
        let fresh = oracle(dg);
        fresh.assert_close(&dynamic, tol);
    }

    fn setup(n: usize, m: usize, seed: u64) -> DynamicGee {
        let el = gee_gen::erdos_renyi_gnm(n, m, seed);
        let labels = Labels::from_options(&gee_gen::random_labels(
            n,
            LabelSpec {
                num_classes: 5,
                labeled_fraction: 0.4,
            },
            seed ^ 0xAB,
        ));
        DynamicGee::new(&el, &labels)
    }

    /// Append entry `(t, w)` to vertex `x`'s list of a state.
    fn push_entry(s: &mut DynamicGeeState, x: usize, t: VertexId, w: Weight) {
        insert_entry(s, x, s.offsets[x + 1] - s.offsets[x], t, w);
    }

    /// Insert entry `(t, w)` at position `pos` of vertex `x`'s list.
    fn insert_entry(s: &mut DynamicGeeState, x: usize, pos: usize, t: VertexId, w: Weight) {
        let at = s.offsets[x] + pos;
        s.targets.insert(at, t);
        s.weights.insert(at, w);
        s.offsets[x + 1..].iter_mut().for_each(|o| *o += 1);
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn initial_state_matches_static() {
        let el = gee_gen::erdos_renyi_gnm(100, 900, 3);
        let labels = Labels::from_options(&gee_gen::random_labels(
            100,
            LabelSpec {
                num_classes: 4,
                labeled_fraction: 0.5,
            },
            7,
        ));
        let dg = DynamicGee::new(&el, &labels);
        let statik = serial_optimized::embed(&el, &labels);
        statik.assert_close(&dg.embedding(), 1e-12);
    }

    #[test]
    fn insert_matches_recompute() {
        let mut dg = setup(60, 400, 11);
        dg.insert_edge(3, 17, 2.5);
        dg.insert_edge(17, 3, 1.0);
        dg.insert_edge(5, 5, 4.0); // self-loop
        assert_matches_oracle(&dg, 1e-12);
    }

    #[test]
    fn remove_matches_recompute() {
        let mut dg = setup(60, 400, 13);
        // Remove a known edge: insert one then remove it, and remove one
        // from the initial graph.
        dg.insert_edge(1, 2, 9.0);
        assert!(dg.remove_edge(1, 2, 9.0));
        let el = gee_gen::erdos_renyi_gnm(60, 400, 13);
        let e = el.edges()[0];
        assert!(dg.remove_edge(e.u, e.v, e.w));
        assert_matches_oracle(&dg, 1e-12);
    }

    #[test]
    fn remove_missing_edge_is_noop() {
        let mut dg = setup(20, 60, 17);
        let before = dg.embedding();
        assert!(!dg.remove_edge(0, 1, 123.456));
        assert_eq!(before.as_slice(), dg.embedding().as_slice());
    }

    #[test]
    fn self_loop_insert_remove_roundtrip() {
        let mut dg = setup(20, 60, 19);
        let before = dg.embedding();
        dg.insert_edge(4, 4, 2.0);
        assert!(dg.remove_edge(4, 4, 2.0));
        let after = dg.embedding();
        before.assert_close(&after, 1e-12);
    }

    #[test]
    fn label_change_matches_recompute() {
        let mut dg = setup(80, 600, 23);
        dg.set_label(0, Some(2));
        dg.set_label(1, None);
        dg.set_label(2, Some(4));
        dg.set_label(2, Some(1)); // twice
        assert_matches_oracle(&dg, 1e-12);
    }

    #[test]
    fn label_change_rescales_class_columns() {
        // Two vertices in class 0 linked to vertex 2; relabeling one of
        // them halves→doubles the coefficient of the survivor.
        let el = EdgeList::new(3, vec![Edge::unit(0, 2), Edge::unit(1, 2)]).unwrap();
        let labels = Labels::from_options_with_k(&[Some(0), Some(0), None], 2);
        let mut dg = DynamicGee::new(&el, &labels);
        assert!((dg.embedding().get(2, 0) - 1.0).abs() < 1e-12); // 0.5 + 0.5
        dg.set_label(1, Some(1));
        // Class 0 now has one member with coefficient 1; vertex 2 sees
        // 1.0 from vertex 0 in column 0 and 1.0 from vertex 1 in column 1.
        assert!((dg.embedding().get(2, 0) - 1.0).abs() < 1e-12);
        assert!((dg.embedding().get(2, 1) - 1.0).abs() < 1e-12);
        assert_matches_oracle(&dg, 1e-12);
    }

    #[test]
    fn mixed_update_stream_matches_recompute() {
        let mut dg = setup(100, 800, 29);
        for i in 0..50u32 {
            match i % 4 {
                0 => dg.insert_edge(i % 100, (i * 13 + 1) % 100, 1.0 + f64::from(i % 3)),
                1 => dg.set_label(i % 100, Some(i % 5)),
                2 => {
                    dg.insert_edge(i, i + 1, 2.0);
                    assert!(dg.remove_edge(i, i + 1, 2.0));
                }
                _ => dg.set_label((i * 7) % 100, None),
            }
        }
        assert_matches_oracle(&dg, 1e-11);
    }

    #[test]
    fn embedding_rows_match_full_materialization() {
        let dg = setup(50, 300, 43);
        let full = dg.embedding();
        let k = dg.dim();
        for (lo, hi) in [(0usize, 17), (17, 50), (0, 50), (25, 25)] {
            let rows = dg.embedding_rows(lo, hi);
            assert_eq!(
                rows,
                full.as_slice()[lo * k..hi * k].to_vec(),
                "range {lo}..{hi}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn embedding_rows_validates_range() {
        let dg = setup(10, 30, 47);
        dg.embedding_rows(5, 11);
    }

    #[test]
    fn class_counts_track_label_moves() {
        let mut dg = setup(30, 100, 31);
        let c0 = dg.class_count(0);
        // Find a vertex not in class 0 and move it there.
        let v = (0..30u32).find(|&v| dg.label(v) != Some(0)).unwrap();
        dg.set_label(v, Some(0));
        assert_eq!(dg.class_count(0), c0 + 1);
    }

    #[test]
    fn edge_list_roundtrip_preserves_multiset() {
        let el = EdgeList::new(
            4,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 0, 2.0),
                Edge::new(2, 2, 3.0),
                Edge::new(3, 1, 1.0),
            ],
        )
        .unwrap();
        let labels = Labels::from_options_with_k(&[Some(0), Some(0), Some(0), Some(0)], 1);
        let dg = DynamicGee::new(&el, &labels);
        let mut a: Vec<_> = el
            .edges()
            .iter()
            .map(|e| (e.u.min(e.v), e.u.max(e.v), e.w.to_bits()))
            .collect();
        let mut b: Vec<_> = dg
            .edge_list()
            .edges()
            .iter()
            .map(|e| (e.u.min(e.v), e.u.max(e.v), e.w.to_bits()))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn state_export_round_trips_bit_exactly() {
        let mut dg = setup(60, 400, 53);
        dg.insert_edge(1, 2, 3.25);
        dg.set_label(4, Some(2));
        let state = dg.export_state();
        let mut restored = DynamicGee::from_state(state.clone()).unwrap();
        assert_eq!(restored.export_state(), state);
        let a: Vec<u64> = dg
            .embedding()
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let b: Vec<u64> = restored
            .embedding()
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(a, b, "restored embedding must match bit-for-bit");
        // The restored writer behaves identically under further updates.
        dg.set_label(1, Some(0));
        restored.set_label(1, Some(0));
        assert!(dg.remove_edge(1, 2, 3.25));
        assert!(restored.remove_edge(1, 2, 3.25));
        assert_eq!(restored.export_state(), dg.export_state());
    }

    #[test]
    fn from_state_rejects_structural_corruption() {
        let dg = setup(20, 60, 59);
        let good = dg.export_state();
        // Shape violations.
        let mut s = good.clone();
        s.zhat.pop();
        assert!(DynamicGee::from_state(s).is_err());
        let mut s = good.clone();
        s.labels.push(0);
        assert!(DynamicGee::from_state(s).is_err());
        let mut s = good.clone();
        s.class_counts.push(0);
        assert!(DynamicGee::from_state(s).is_err());
        // Label out of the class universe.
        let mut s = good.clone();
        s.labels[0] = 99;
        assert!(DynamicGee::from_state(s).is_err());
        // Counts disagreeing with the histogram.
        let mut s = good.clone();
        s.class_counts[0] = s.class_counts[0].wrapping_add(1);
        assert!(DynamicGee::from_state(s).is_err());
        // One-sided adjacency entry (mirror broken).
        let mut s = good.clone();
        push_entry(&mut s, 0, 1, 777.0);
        assert!(DynamicGee::from_state(s).is_err());
        // Adjacency referencing a vertex beyond n.
        let mut s = good.clone();
        push_entry(&mut s, 0, 19_999, 1.0);
        assert!(DynamicGee::from_state(s).is_err());
        assert!(DynamicGee::from_state(good).is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_label_validates_class() {
        let mut dg = setup(10, 30, 37);
        dg.set_label(0, Some(99));
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn insert_validates_endpoints() {
        let mut dg = setup(10, 30, 41);
        dg.insert_edge(0, 100, 1.0);
    }

    // ---- the writer this module replaced, kept as the reference ---------

    /// The per-vertex-`Vec` writer: `Ẑ` filled by the serial edge loop,
    /// the mirror one `Vec` per vertex, `push` / `swap_remove`. The new
    /// writer must reproduce its `Ẑ` bits and its lists exactly.
    struct VecMirrorGee {
        k: usize,
        zhat: Vec<f64>,
        y: Vec<i32>,
        adj: Vec<Vec<(VertexId, Weight)>>,
    }

    impl VecMirrorGee {
        fn new(el: &EdgeList, labels: &Labels) -> Self {
            let (n, k) = (el.num_vertices(), labels.num_classes());
            let mut g = VecMirrorGee {
                k,
                zhat: vec![0.0; n * k],
                y: labels.raw_slice().to_vec(),
                adj: vec![Vec::new(); n],
            };
            for e in el.edges() {
                g.apply_edge(e.u, e.v, e.w, 1.0);
                g.adj[e.u as usize].push((e.v, e.w));
                g.adj[e.v as usize].push((e.u, e.w));
            }
            g
        }

        fn apply_edge(&mut self, u: VertexId, v: VertexId, w: Weight, sgn: f64) {
            let (u, v) = (u as usize, v as usize);
            if self.y[v] >= 0 {
                self.zhat[u * self.k + self.y[v] as usize] += sgn * w;
            }
            if self.y[u] >= 0 {
                self.zhat[v * self.k + self.y[u] as usize] += sgn * w;
            }
        }

        fn insert_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
            self.apply_edge(u, v, w, 1.0);
            self.adj[u as usize].push((v, w));
            self.adj[v as usize].push((u, w));
        }

        fn remove_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> bool {
            let find = |list: &Vec<(VertexId, Weight)>, t: VertexId| {
                list.iter().position(|&(lt, lw)| lt == t && lw == w)
            };
            let Some(i) = find(&self.adj[u as usize], v) else {
                return false;
            };
            self.adj[u as usize].swap_remove(i);
            let j = find(&self.adj[v as usize], u).expect("mirror out of sync");
            self.adj[v as usize].swap_remove(j);
            self.apply_edge(u, v, w, -1.0);
            true
        }

        fn set_label(&mut self, x: VertexId, label: Option<u32>) {
            let new = label.map_or(-1, |c| c as i32);
            let old = self.y[x as usize];
            if old == new {
                return;
            }
            for i in 0..self.adj[x as usize].len() {
                let (t, w) = self.adj[x as usize][i];
                let t = t as usize;
                if old >= 0 {
                    self.zhat[t * self.k + old as usize] -= w;
                }
                if new >= 0 {
                    self.zhat[t * self.k + new as usize] += w;
                }
            }
            self.y[x as usize] = new;
        }
    }

    fn assert_same_writer(dg: &DynamicGee, reference: &VecMirrorGee, what: &str) {
        let s = dg.export_state();
        let mut offsets = vec![0];
        let (mut targets, mut weights) = (Vec::new(), Vec::new());
        for list in &reference.adj {
            targets.extend(list.iter().map(|&(t, _)| t));
            weights.extend(list.iter().map(|&(_, w)| w));
            offsets.push(targets.len());
        }
        assert_eq!(s.offsets, offsets, "{what}: list lengths");
        assert_eq!(s.targets, targets, "{what}: list targets");
        assert_eq!(bits(&s.weights), bits(&weights), "{what}: list weights");
        assert_eq!(s.labels, reference.y, "{what}: labels");
        assert_eq!(bits(&s.zhat), bits(&reference.zhat), "{what}: Ẑ bits");
    }

    fn random_labels(n: usize, k: usize, fraction: f64, seed: u64) -> Labels {
        let spec = LabelSpec {
            num_classes: k,
            labeled_fraction: fraction,
        };
        Labels::from_options_with_k(&gee_gen::random_labels(n, spec, seed), k)
    }

    /// An R-MAT graph (duplicates and self-loops kept) with several
    /// weights.
    fn rmat_with_weights(scale: u32, m: usize, seed: u64) -> EdgeList {
        let base = gee_gen::rmat(scale, m, RmatParams::default(), seed);
        let edges: Vec<Edge> = base
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| Edge::new(e.u, e.v, [0.1, 0.7, 1.3, 2.9][i % 4]))
            .collect();
        assert!(edges.iter().any(|e| e.u == e.v), "fixture needs self-loops");
        EdgeList::new_unchecked(base.num_vertices(), edges)
    }

    /// The graphs and labelings `tests/implementations_agree.rs` checks
    /// the kernels on, plus a weighted R-MAT graph.
    fn agreement_fixtures() -> Vec<(EdgeList, Labels)> {
        let weighted = {
            let base = gee_gen::erdos_renyi_gnm(500, 8_000, 3);
            let edges = base
                .edges()
                .iter()
                .enumerate()
                .map(|(i, e)| Edge::new(e.u, e.v, 0.1 + (i % 31) as f64 * 0.13))
                .collect();
            EdgeList::new_unchecked(500, edges)
        };
        let sbm = gee_gen::sbm(&SbmParams::balanced(5, 100, 0.2, 0.01), 7);
        let rmat = gee_gen::rmat(12, 50_000, RmatParams::default(), 23);
        let rmat_labels = random_labels(rmat.num_vertices(), 50, 0.1, 5);
        let mut fixtures = vec![
            (
                gee_gen::erdos_renyi_gnm(12, 40, 29),
                random_labels(12, 3, 0.5, 31),
            ),
            (
                gee_gen::erdos_renyi_gnm(2_000, 30_000, 17),
                random_labels(2_000, 50, 0.1, 3),
            ),
            (rmat, rmat_labels),
            (
                sbm.edges,
                Labels::from_options(&gee_gen::subsample_labels(&sbm.truth, 0.3, 9)),
            ),
            (
                gee_gen::preferential_attachment(3_000, 4, 31).symmetrized(),
                random_labels(3_000, 10, 0.2, 13),
            ),
            (weighted, random_labels(500, 8, 0.5, 21)),
            (
                crate::laplacian::normalize(&gee_gen::erdos_renyi_gnm(800, 10_000, 5)),
                random_labels(800, 6, 0.3, 2),
            ),
            (
                rmat_with_weights(10, 20_000, 37),
                random_labels(1 << 10, 7, 0.6, 8),
            ),
        ];
        for seed in 0..3u64 {
            fixtures.push((
                gee_gen::erdos_renyi_gnm(300, 3_000, seed),
                random_labels(300, 4, 0.25, seed),
            ));
        }
        fixtures
    }

    /// The parallel pull reproduces the serial edge loop's `Ẑ` bit for bit,
    /// and the edge-order mirror its lists, at any thread count.
    #[test]
    fn bulk_load_is_bit_identical_to_the_serial_loop_at_any_thread_count() {
        for (i, (el, labels)) in agreement_fixtures().iter().enumerate() {
            let reference = VecMirrorGee::new(el, labels);
            for threads in [1, 2, 3, 17] {
                let dg = gee_ligra::with_threads(threads, || DynamicGee::new(el, labels));
                assert_same_writer(&dg, &reference, &format!("fixture {i}, {threads} threads"));
            }
        }
    }

    /// A seeded stream of inserts, removals and label moves leaves the
    /// slot-and-spill writer and the per-vertex-`Vec` writer with the same
    /// lists and the same `Ẑ` bits after every step.
    #[test]
    fn update_stream_matches_the_vec_writer_step_by_step() {
        let (n, k) = (24usize, 3usize);
        let el = rmat_with_weights(5, 90, 3);
        let el = EdgeList::new_unchecked(
            n,
            el.edges()
                .iter()
                .map(|e| Edge::new(e.u % n as u32, e.v % n as u32, e.w))
                .collect(),
        );
        let labels = random_labels(n, k, 0.6, 4);
        let mut dg = DynamicGee::new(&el, &labels);
        let mut reference = VecMirrorGee::new(&el, &labels);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let (mut slot_holes_filled_from_spill, mut self_loop_removals) = (0, 0);
        for step in 0..2_000 {
            let x = next(n);
            match next(10) {
                0..=3 => {
                    let v = if next(5) == 0 { x } else { next(n) };
                    let w = [0.1, 0.7, 2.3][next(3)];
                    dg.insert_edge(x as u32, v as u32, w);
                    reference.insert_edge(x as u32, v as u32, w);
                }
                4..=6 => {
                    let list = &reference.adj[x];
                    if let Some(&(t, w)) = list.get(next(list.len().max(1))) {
                        let i = list.iter().position(|&e| e == (t, w)).unwrap();
                        let slot = &dg.mirror.slots[x];
                        if !slot.spill.is_empty() && i < slot.end - slot.start {
                            slot_holes_filled_from_spill += 1;
                        }
                        self_loop_removals += usize::from(t as usize == x);
                        assert!(dg.remove_edge(x as u32, t, w));
                        assert!(reference.remove_edge(x as u32, t, w));
                    }
                }
                7 => {
                    assert!(!dg.remove_edge(x as u32, next(n) as u32, 7.5));
                }
                _ => {
                    let label = (next(k + 1) < k).then(|| next(k) as u32);
                    dg.set_label(x as u32, label);
                    reference.set_label(x as u32, label);
                }
            }
            assert_same_writer(&dg, &reference, &format!("step {step}"));
        }
        assert!(
            slot_holes_filled_from_spill > 10,
            "{slot_holes_filled_from_spill}"
        );
        assert!(self_loop_removals > 10, "{self_loop_removals}");
    }

    /// The per-edge balance count `from_state` used before the linear
    /// check: `+1` for an entry in the lower endpoint's list, `-1` in the
    /// higher one's; self-loop entries counted and required even.
    fn pair_balance_ok(s: &DynamicGeeState) -> bool {
        let mut balance: std::collections::HashMap<(u32, u32, u64), i64> =
            std::collections::HashMap::new();
        for u in 0..s.num_vertices {
            for i in s.offsets[u]..s.offsets[u + 1] {
                let (u, v, w) = (u as u32, s.targets[i], s.weights[i].to_bits());
                let key = (u.min(v), u.max(v), w);
                *balance.entry(key).or_default() += if u <= v { 1 } else { -1 };
            }
        }
        balance
            .iter()
            .all(|(&(u, v, _), &b)| if u == v { b % 2 == 0 } else { b == 0 })
    }

    /// The shape half of the check: offsets, lengths, target range.
    fn shape_ok(s: &DynamicGeeState) -> bool {
        let n = s.num_vertices;
        s.offsets.len() == n + 1
            && s.offsets[0] == 0
            && s.offsets.windows(2).all(|o| o[0] <= o[1])
            && s.offsets[n] == s.targets.len()
            && s.targets.len() == s.weights.len()
            && s.targets.iter().all(|&t| (t as usize) < n)
    }

    /// One seeded edit of a valid state; kinds 0 and 6..=8 keep it valid.
    fn mutate(s: &mut DynamicGeeState, kind: usize, pick: u64) {
        let n = s.num_vertices;
        let len = s.targets.len();
        let at = |m: usize| (pick % m.max(1) as u64) as usize;
        let owner = |s: &DynamicGeeState, i: usize| s.offsets.partition_point(|&o| o <= i) - 1;
        match kind {
            1 if len > 0 => {
                let i = at(len);
                let x = owner(s, i);
                s.targets.remove(i);
                s.weights.remove(i);
                s.offsets[x + 1..].iter_mut().for_each(|o| *o -= 1);
            }
            2 if len > 0 => {
                let i = at(len);
                s.weights[i] = f64::from_bits(s.weights[i].to_bits() ^ (1 << (pick % 64)));
            }
            3 => {
                let (a, b) = (at(n), (pick as usize >> 8) % n);
                push_entry(s, a, b as u32, 0.5);
            }
            4 => {
                if let Some(i) = (0..len).find(|&i| s.targets[i] as usize == owner(s, i)) {
                    let (x, w) = (owner(s, i), s.weights[i]);
                    push_entry(s, x, x as u32, w);
                }
            }
            5 if len > 0 => s.targets[at(len)] = n as u32,
            6 => {
                // Reorder a list.
                let x = at(n);
                s.targets[s.offsets[x]..s.offsets[x + 1]].reverse();
                s.weights[s.offsets[x]..s.offsets[x + 1]].reverse();
            }
            7 => {
                // A matched pair, at a seeded place in each list.
                let (a, b) = (at(n), (pick as usize >> 8) % n);
                let pos = |s: &DynamicGeeState, x: usize| {
                    (pick as usize >> 16) % (s.offsets[x + 1] - s.offsets[x] + 1)
                };
                let pa = pos(s, a);
                insert_entry(s, a, pa, b as u32, 2.25);
                let pb = pos(s, b);
                insert_entry(s, b, pb, a as u32, 2.25);
            }
            8 => {
                let x = at(n);
                push_entry(s, x, x as u32, 3.0);
                push_entry(s, x, x as u32, 3.0);
            }
            9 => match pick % 4 {
                0 => s.offsets[n] += 1,
                1 => {
                    s.targets.push(0);
                }
                2 => {
                    s.weights.pop();
                }
                _ if n >= 2 => {
                    let x = at(n - 1) + 1;
                    s.offsets[x] = s.offsets[x + 1] + 1;
                }
                _ => s.offsets[0] = 1,
            },
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The linear check accepts exactly the states the per-edge
        /// balance count (plus the shape checks) accepts.
        #[test]
        fn linear_check_agrees_with_the_pair_balance(
            n in 1usize..10,
            edges in proptest::collection::vec((0u32..10, 0u32..10, 0usize..3), 0..30),
            kind in 0usize..10,
            pick in any::<u64>(),
        ) {
            let edges: Vec<Edge> = edges
                .into_iter()
                .map(|(u, v, w)| Edge::new(u % n as u32, v % n as u32, [0.5, 1.0, 2.25][w]))
                .collect();
            let el = EdgeList::new_unchecked(n, edges);
            let mut s = DynamicGee::new(&el, &Labels::from_options_with_k(&vec![None; n], 2))
                .export_state();
            mutate(&mut s, kind, pick);
            let expected = shape_ok(&s) && pair_balance_ok(&s);
            prop_assert_eq!(
                DynamicGee::from_state(s.clone()).is_ok(),
                expected,
                "mutation {} of {:?}",
                kind,
                s
            );
        }
    }
}
