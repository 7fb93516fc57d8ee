//! Regenerates the **§III initialization claim**: the O(nK) setup
//! "becomes the dominant component of the runtime when graphs have a high
//! n and a very low average degree" (s < nK). This sweep holds n fixed and
//! shrinks the average degree, timing the three phases of Algorithm 2
//! separately:
//!
//! * projection build (O(n) in our sparse form; the paper's dense form is
//!   O(nK) — both are reported),
//! * the `Z ∈ R^{n×K}` zero-initialization (O(nK) — where the asymptotic
//!   term actually lives once `W` is sparse). The "Z init" column is
//!   `AtomicF64Vec::zeros`: zero pages from the allocator, first-touched
//!   in parallel by the pool's workers (on huge pages from 32 MiB up), so
//!   it is the paper's *parallelized* initialization that is timed,
//! * the edge pass (O(s)).
//!
//! ```text
//! cargo run --release -p gee-bench --bin paper -- ablation-init --scale 16
//! ```

use std::time::Instant;

use gee_core::Projection;
use gee_graph::{VertexId, Weight};
use gee_ligra::{edge_map, AtomicF64Vec, EdgeMapFn, EdgeMapOptions, TraversalKind, VertexSubset};

use crate::report::{col, Cell, Report};
use crate::{Args, Input};

/// Algorithm 2's updateEmb, replicated here so each phase can be timed.
struct UpdateEmb<'a> {
    z: &'a AtomicF64Vec,
    coeff: &'a [f64],
    y: &'a [i32],
    k: usize,
}

impl EdgeMapFn for UpdateEmb<'_> {
    fn update(&self, s: VertexId, d: VertexId, w: Weight) -> bool {
        self.update_atomic(s, d, w)
    }
    fn update_atomic(&self, s: VertexId, d: VertexId, w: Weight) -> bool {
        let yv = self.y[d as usize];
        if yv >= 0 {
            self.z.fetch_add(
                s as usize * self.k + yv as usize,
                self.coeff[d as usize] * w,
            );
        }
        let yu = self.y[s as usize];
        if yu >= 0 {
            self.z.fetch_add(
                d as usize * self.k + yu as usize,
                self.coeff[s as usize] * w,
            );
        }
        false
    }
}

pub fn run(args: &Args) -> Report {
    let n = (4_000_000 / args.scale).max(10_000);
    let k = args.k;
    let mut report = Report::new(
        "ablation_init",
        format!("§III initialization ablation — n = {n}, K = {k}, average degree sweep"),
        vec![
            col("avg deg", "avg_degree"),
            col("s / nK", "s_over_nk"),
            col("W sparse", "proj_sparse"),
            col("W dense(O(nK))", "proj_dense_paper_form"),
            col("Z init(O(nK))", "z_init"),
            col("edge pass", "edge_pass"),
            col("init share", "init_share"),
        ],
    );
    for avg_degree in [1usize, 2, 4, 8, 16, 32, 64] {
        let m = n * avg_degree;
        let el = gee_gen::erdos_renyi_gnm(n, m, args.seed + avg_degree as u64);
        let Input { g, labels, .. } = Input::new(el, args, args.seed ^ avg_degree as u64);
        // Warm-up pass so allocator pools are faulted in.
        let _ = gee_core::ligra::embed(&g, &labels, gee_core::AtomicsMode::Atomic);
        // Median-of-runs per phase: projection, dense projection, Z, edges.
        let mut phases: [Vec<f64>; 4] = Default::default();
        for _ in 0..args.runs {
            let t0 = Instant::now();
            let proj = Projection::build_parallel(&labels);
            phases[0].push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let dense = proj.to_dense(&labels); // the paper's O(nK) W
            phases[1].push(t0.elapsed().as_secs_f64());
            drop(dense);
            let t0 = Instant::now();
            let z = AtomicF64Vec::zeros(n * k);
            phases[2].push(t0.elapsed().as_secs_f64());
            let functor = UpdateEmb {
                z: &z,
                coeff: proj.as_slice(),
                y: labels.raw_slice(),
                k,
            };
            let t0 = Instant::now();
            edge_map(
                &g,
                &VertexSubset::full(n),
                &functor,
                EdgeMapOptions {
                    kind: TraversalKind::DenseForward,
                    no_output: true,
                },
            );
            phases[3].push(t0.elapsed().as_secs_f64());
        }
        let [tp, td, tz, te] = phases.map(|mut v| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        });
        let init_share = (tp + tz) / (tp + tz + te);
        report.push(vec![
            Cell::int(avg_degree),
            Cell::ratio(m as f64 / (n * k) as f64),
            Cell::secs(tp),
            Cell::secs(td),
            Cell::secs(tz),
            Cell::secs(te),
            Cell::new(init_share, format!("{:.0}%", init_share * 100.0)),
        ]);
        eprintln!("done: degree {avg_degree}");
    }
    report.note(
        "expected shape: the O(nK) columns are flat while the edge pass grows with degree, so the\n\
         init share is largest at the lowest degree (s << nK) — the paper's motivation for parallelizing it."
            .into(),
    );
    report
}
