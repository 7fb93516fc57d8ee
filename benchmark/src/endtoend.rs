//! The untraced run: what a user of the system sees. Set up three
//! times (the median is `setup_s`; every set-up but the last is torn
//! down unused), then on the last set-up run the kernel window, the
//! static serve window, the churn serve window and, three times, the
//! recovery, checking outputs along the way.

use std::time::Duration;

use crate::metrics::Metrics;
use crate::requests::{Kind, Mix};
use crate::session::{self, Ctx, Tally};
use crate::stats;
use crate::sysinfo;

/// Shares of `--seconds` given to the kernel at all threads, the kernel
/// at one thread, the static serve window and the churn serve window.
pub const SHARE_KERNEL_ALL: f64 = 0.20;
pub const SHARE_KERNEL_ONE: f64 = 0.10;
pub const SHARE_STATIC: f64 = 0.30;
pub const SHARE_CHURN: f64 = 0.40;
pub const RECALL_FLOOR: f64 = 0.90;
/// On top of the windows: the share of `--seconds` the write-then-ANN
/// pairs may take beyond their first fifteen, and the share recoveries
/// may take beyond their first three (nine at most).
const SHARE_ANN_AFTER_WRITE: f64 = 0.06;
const SHARE_RECOVERIES: f64 = 0.04;
/// Update batches between the last checkpoint and the restart.
const RECOVERY_TAIL_BATCHES: usize = 256;

pub fn run(ctx: &Ctx, tally: &mut Tally) -> Metrics {
    let mut metrics = Metrics::default();
    let window = |share: f64| Duration::from_secs_f64(ctx.seconds * share);

    let mut setup_secs = Vec::new();
    let mut current: Option<(session::Kernel, session::Served)> = None;
    for i in 0..ctx.repeats {
        if let Some((_, unused)) = current.take() {
            std::fs::remove_dir_all(unused.shut_down()).expect("remove unused data directory");
        }
        let dir = ctx.scratch.join(format!("data-{i}"));
        let (kernel, served, times) = session::set_up(ctx, &dir);
        eprintln!("set-up {}: {times}", i + 1);
        if i == 0 {
            // What the process holds with the graph registered, the
            // indexes built and the server up, before the allocator has
            // a history: the peak at exit depends on what happened to
            // overlap and moves by a fifth between runs.
            metrics.set("serving_rss_mb", sysinfo::rss_mib());
        }
        setup_secs.push(times.total);
        current = Some((kernel, served));
    }
    let (kernel, mut served) = current.expect("at least one set-up");
    session::describe_input(ctx, &kernel.input);
    metrics.set("setup_s", stats::median_of(setup_secs));

    // Kernel window.
    let edges = kernel.csr.num_edges() as f64;
    let (all_secs, z) = session::kernel_window(&kernel, ctx.sys.nproc, window(SHARE_KERNEL_ALL));
    let (one_secs, _) = session::kernel_window(&kernel, 1, window(SHARE_KERNEL_ONE));
    tally.ops((all_secs.len() + one_secs.len()) as u64, 0);
    session::check_kernel(tally, &z, &kernel.input);
    drop(z);
    // Edges over the median call: a call that lost its core to the host
    // for a few milliseconds says nothing about the kernel.
    let all_median = stats::median_of(all_secs);
    metrics.set("embed_edges_per_s", edges / all_median);
    metrics.set(
        "embed_parallel_speedup",
        stats::median_of(one_secs) / all_median,
    );

    // Static window: the snapshot does not change, so nothing may be
    // logged and no index may be rebuilt.
    let before = served.metrics();
    let reads = session::serve_window(ctx, &mut served, Mix::Static, window(SHARE_STATIC), None);
    let after = served.metrics();
    session::tally_window(tally, &reads, "static window");
    tally.check(
        after.ivf_builds == before.ivf_builds && after.wal_fsyncs == before.wal_fsyncs,
        || {
            format!(
                "the static window built {} indexes and issued {} fsyncs",
                after.ivf_builds - before.ivf_builds,
                after.wal_fsyncs - before.wal_fsyncs
            )
        },
    );
    session::check_replies(tally, &served.engine, &reads.kept);
    let recall = session::ann_recall(ctx, &served.engine);
    tally.check(recall >= RECALL_FLOOR, || {
        format!("ANN recall@10 is {recall}, below {RECALL_FLOOR}")
    });
    metrics.set("read_qps", reads.per_second(Kind::is_plain_read));
    // One median per kind: the median of the mixed reads would sit on
    // the boundary between the cheap point reads (45 %) and the scans,
    // and move with the draw. (The point reads' own median, 35 us, moves
    // by a sixth with the host's mood and is a per-layer metric.)
    metrics.set("similar_p50_us", reads.p50(|k| k == Kind::SimilarExact));
    metrics.set("ann_p50_us", reads.p50(|k| k == Kind::SimilarAnn));
    metrics.set("ann_recall_at_10", recall);

    // Churn window.
    let churn = session::serve_window(ctx, &mut served, Mix::Churn, window(SHARE_CHURN), None);
    session::tally_window(tally, &churn, "churn window");
    let final_epoch = served.epoch();
    let newest_ack = churn.samples.iter().filter_map(|s| s.acked_epoch).max();
    tally.check(newest_ack.is_some_and(|e| e <= final_epoch), || {
        format!("acknowledged epoch {newest_ack:?} against published epoch {final_epoch}")
    });
    metrics.set(
        "write_batches_per_s",
        churn.per_second(|k| k == Kind::Write),
    );
    metrics.set("write_p50_us", churn.p50(|k| k == Kind::Write));
    metrics.set("churn_row_p50_us", churn.p50(|k| k == Kind::EmbedRow));
    session::retrain_dirty_indexes(ctx, &mut served, tally);
    let after_write =
        session::ann_after_write(ctx, &mut served, tally, window(SHARE_ANN_AFTER_WRITE));
    metrics.set("ann_after_write_p50_us", stats::median_of(after_write));

    // Recovery: the recovered rows must equal the live ones bit for bit.
    session::fix_recovery_work(ctx, &served, tally, RECOVERY_TAIL_BATCHES);
    let vertices = session::recovery_vertices(ctx);
    let live_rows = session::rows_of(&served.registry, &vertices);
    let dir = served.shut_down();
    let recover_secs = session::repeat_for(
        ctx.repeats,
        3 * ctx.repeats,
        window(SHARE_RECOVERIES),
        || {
            session::recover(ctx, &dir, |registry| {
                session::check_rows(tally, &live_rows, registry, &vertices, "recovered");
            })
        },
    );
    metrics.set("recover_s", stats::median_of(recover_secs));
    eprintln!("peak resident set {:.1} MiB", sysinfo::peak_rss_mib());
    metrics
}
