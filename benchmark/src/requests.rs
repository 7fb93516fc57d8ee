//! The request streams the serve windows send. One generator per client
//! connection, determined by `(seed, client, mix)`; requests are drawn
//! on the fly so a stream never repeats inside a window.

use gee_serve::{Request, SearchPolicy, Update};

use crate::gen::{Fnv, GraphSpec};
use crate::rng::Rng;

/// Request types the latency metrics are split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    EmbedRow,
    Classify,
    SimilarExact,
    SimilarAnn,
    Stats,
    Write,
    PinnedRow,
}

impl Kind {
    /// Name of the span a traced window records for a request of this
    /// kind.
    pub fn span_name(self) -> &'static str {
        match self {
            Kind::EmbedRow => "request.embed_row",
            Kind::Classify => "request.classify",
            Kind::SimilarExact => "request.similar_exact",
            Kind::SimilarAnn => "request.similar_ann",
            Kind::Stats => "request.stats",
            Kind::Write => "request.apply_updates",
            Kind::PinnedRow => "request.pinned_row",
        }
    }

    /// Unpinned reads answered by an exact path: the population of
    /// `read_qps` and `read_p50_us`.
    pub fn is_plain_read(self) -> bool {
        matches!(
            self,
            Kind::EmbedRow | Kind::Classify | Kind::SimilarExact | Kind::Stats
        )
    }
}

/// Which window the stream is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Reads only: 40 % `EmbedRow`, 20 % `Classify`, 20 % exact
    /// `Similar`, 15 % ANN `Similar`, 5 % `Stats`.
    Static,
    /// 25 % `ApplyUpdates`, 5 % epoch-pinned `EmbedRow` and 70 % plain
    /// reads in the static proportions. No ANN `Similar`: one that
    /// follows writes retrains the index of every shard they dirtied,
    /// which takes from tens of milliseconds to over a second, and at
    /// any share a closed loop can sample it would take the window over
    /// and turn every churn metric into index build time. Its cost is
    /// measured alone, as `ann_after_write_p50_us`.
    Churn,
}

impl Mix {
    /// Cumulative per-mille thresholds of the request kinds.
    fn split(self) -> &'static [(u64, Kind)] {
        match self {
            Mix::Static => &[
                (400, Kind::EmbedRow),
                (600, Kind::Classify),
                (800, Kind::SimilarExact),
                (950, Kind::SimilarAnn),
                (1_000, Kind::Stats),
            ],
            Mix::Churn => &[
                (250, Kind::Write),
                (300, Kind::PinnedRow),
                (630, Kind::EmbedRow),
                (795, Kind::Classify),
                (960, Kind::SimilarExact),
                (1_000, Kind::Stats),
            ],
        }
    }
}

/// Updates per `ApplyUpdates` batch; every `LABEL_EVERY`-th batch of a
/// client ends in a `SetLabel` in place of its last `InsertEdge`.
pub const BATCH_UPDATES: usize = 8;
const LABEL_EVERY: u64 = 8;
/// A batch's updates fall within `n / LOCALITY` consecutive vertex ids,
/// so one batch dirties one or two shards and copy-on-write sharing and
/// per-shard index reuse have something to share. Scattered uniformly,
/// eight updates would dirty every one of eight shards on every batch.
const LOCALITY: u64 = 64;
pub const SIMILAR_TOP: usize = 10;
const CLASSIFY_VERTICES: usize = 2;
const CLASSIFY_K: usize = 3;

pub struct RequestGen {
    kinds: Rng,
    params: Rng,
    mix: Mix,
    graph: GraphSpec,
    classes: u32,
    nprobe: usize,
    batches: u64,
}

impl RequestGen {
    pub fn new(
        seed: u64,
        client: u64,
        mix: Mix,
        graph: GraphSpec,
        classes: usize,
        nprobe: usize,
    ) -> Self {
        let lane = match mix {
            Mix::Static => 100,
            Mix::Churn => 200,
        } + 2 * client;
        RequestGen {
            kinds: Rng::new(seed, lane),
            params: Rng::new(seed, lane + 1),
            mix,
            graph,
            classes: classes as u32,
            nprobe,
            batches: 0,
        }
    }

    fn vertex(&mut self) -> u32 {
        self.params.below(self.graph.num_vertices() as u64) as u32
    }

    /// The next request. A `PinnedRow` comes back unpinned: the caller
    /// pins it to an epoch it has seen acknowledged.
    pub fn next_request(&mut self) -> (Kind, Request) {
        let x = self.kinds.below(1_000);
        let kind = self
            .mix
            .split()
            .iter()
            .find(|(upto, _)| x < *upto)
            .map(|(_, kind)| *kind)
            .expect("the split covers 0..1000");
        let request = match kind {
            Kind::EmbedRow | Kind::PinnedRow => Request::embed_row(self.vertex()),
            Kind::Classify => Request::classify(
                (0..CLASSIFY_VERTICES).map(|_| self.vertex()).collect(),
                CLASSIFY_K,
            ),
            Kind::SimilarExact => Request::similar(self.vertex(), SIMILAR_TOP),
            Kind::SimilarAnn => Request::similar(self.vertex(), SIMILAR_TOP)
                .with_search(SearchPolicy::ann(self.nprobe)),
            Kind::Stats => Request::stats(),
            Kind::Write => Request::ApplyUpdates {
                updates: self.update_batch(),
            },
        };
        (kind, request)
    }

    /// A vertex within `n / LOCALITY` ids after `base`, wrapping.
    fn near(&mut self, base: u32) -> u32 {
        let n = self.graph.num_vertices() as u64;
        ((u64::from(base) + self.params.below((n / LOCALITY).max(1))) % n) as u32
    }

    /// The next update batch of this stream, without drawing a kind.
    pub fn update_batch(&mut self) -> Vec<Update> {
        self.batches += 1;
        let base = self.vertex();
        let mut updates: Vec<Update> = (0..BATCH_UPDATES)
            .map(|_| Update::InsertEdge {
                u: self.near(base),
                v: self.near(base),
                w: 1.0,
            })
            .collect();
        if self.batches.is_multiple_of(LABEL_EVERY) {
            let v = self.near(base);
            let class = match self.graph {
                GraphSpec::Rmat { .. } => self.params.below(u64::from(self.classes)) as u32,
                GraphSpec::Sbm { per_block, .. } => v / per_block as u32,
            };
            updates[BATCH_UPDATES - 1] = Update::SetLabel {
                v,
                label: Some(class),
            };
        }
        updates
    }
}

/// FNV over a canonical rendering of the first `count` requests of
/// client 0's stream — printed with every run so two runs can be seen
/// to have sent the same traffic.
pub fn stream_fingerprint(gen: &mut RequestGen, count: usize) -> u64 {
    let mut h = Fnv::default();
    for _ in 0..count {
        let (kind, request) = gen.next_request();
        h.write(&[kind as u8]);
        match request {
            Request::EmbedRow { vertex, .. } => h.write_u64(u64::from(vertex)),
            Request::Similar { vertex, top, .. } => {
                h.write_u64(u64::from(vertex));
                h.write_u64(top as u64);
            }
            Request::Classify { vertices, k, .. } => {
                vertices.iter().for_each(|&v| h.write_u64(u64::from(v)));
                h.write_u64(k as u64);
            }
            Request::ApplyUpdates { updates } => {
                for u in updates {
                    match u {
                        Update::InsertEdge { u, v, w } | Update::RemoveEdge { u, v, w } => {
                            h.write_u64(u64::from(u));
                            h.write_u64(u64::from(v));
                            h.write_u64(w.to_bits());
                        }
                        Update::SetLabel { v, label } => {
                            h.write_u64(u64::from(v));
                            h.write_u64(label.map_or(u64::MAX, u64::from));
                        }
                    }
                }
            }
            Request::Stats { .. } | Request::Metrics => {}
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    const GRAPH: GraphSpec = GraphSpec::Sbm {
        blocks: 4,
        per_block: 100,
        intra_pairs: 10,
        inter_pairs: 10,
    };

    fn shares(mix: Mix, draws: usize) -> BTreeMap<Kind, f64> {
        let mut gen = RequestGen::new(11, 0, mix, GRAPH, 4, 8);
        let mut counts: BTreeMap<Kind, usize> = BTreeMap::new();
        for _ in 0..draws {
            *counts.entry(gen.next_request().0).or_default() += 1;
        }
        counts
            .into_iter()
            .map(|(k, c)| (k, c as f64 / draws as f64))
            .collect()
    }

    #[test]
    fn static_mix_has_the_stated_proportions_and_no_writes() {
        let s = shares(Mix::Static, 100_000);
        let want = [
            (Kind::EmbedRow, 0.40),
            (Kind::Classify, 0.20),
            (Kind::SimilarExact, 0.20),
            (Kind::SimilarAnn, 0.15),
            (Kind::Stats, 0.05),
        ];
        for (kind, share) in want {
            assert!((s[&kind] - share).abs() < 0.01, "{kind:?}: {}", s[&kind]);
        }
        assert!(!s.contains_key(&Kind::Write));
        assert!(!s.contains_key(&Kind::PinnedRow));
    }

    #[test]
    fn churn_mix_has_the_stated_proportions() {
        let s = shares(Mix::Churn, 100_000);
        assert!((s[&Kind::Write] - 0.25).abs() < 0.01);
        assert!((s[&Kind::PinnedRow] - 0.05).abs() < 0.01);
        assert!(!s.contains_key(&Kind::SimilarAnn));
        assert!((s[&Kind::EmbedRow] - 0.33).abs() < 0.01);
        assert!((s[&Kind::Classify] - 0.165).abs() < 0.01);
        assert!((s[&Kind::SimilarExact] - 0.165).abs() < 0.01);
        assert!((s[&Kind::Stats] - 0.04).abs() < 0.01);
    }

    #[test]
    fn batches_hold_eight_updates_and_every_eighth_ends_in_a_label() {
        let mut gen = RequestGen::new(3, 1, Mix::Churn, GRAPH, 4, 8);
        let mut batches = 0u64;
        while batches < 32 {
            if let (Kind::Write, Request::ApplyUpdates { updates }) = gen.next_request() {
                batches += 1;
                assert_eq!(updates.len(), BATCH_UPDATES);
                let labelled = matches!(updates[BATCH_UPDATES - 1], Update::SetLabel { .. });
                assert_eq!(labelled, batches.is_multiple_of(8));
                if let Update::SetLabel { v, label } = updates[BATCH_UPDATES - 1] {
                    assert_eq!(label, Some(v / 100), "SBM labels follow the block");
                }
            }
        }
    }

    #[test]
    fn streams_differ_by_client_and_repeat_by_seed() {
        let fp = |seed, client| {
            stream_fingerprint(
                &mut RequestGen::new(seed, client, Mix::Churn, GRAPH, 4, 8),
                1_000,
            )
        };
        assert_eq!(fp(1, 0), fp(1, 0));
        assert_ne!(fp(1, 0), fp(1, 1));
        assert_ne!(fp(1, 0), fp(2, 0));
    }
}
