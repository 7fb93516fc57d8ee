//! Extension ablation: vertex ordering vs GEE runtime. §IV counts "two
//! memory writes [per edge], one of which is likely to miss" — the miss
//! probability depends on how vertex ids map to `Z` rows. This bench runs
//! the same kernel under a random shuffle (worst case), the generator's
//! natural order, degree-descending order, and BFS order.
//!
//! ```text
//! cargo run --release -p gee-bench --bin paper -- ablation-reorder --scale 128
//! ```

use gee_core::{AtomicsMode, Labels};
use gee_gen::LabelSpec;
use gee_graph::{ordering, CsrGraph};

use crate::report::{col, Cell, Report};
use crate::{largest, time_ligra, verify_embedding, Args};

pub fn run(args: &Args) -> Report {
    let w = largest();
    let mut report = Report::new(
        "ablation_reorder",
        format!(
            "Reordering ablation — GEE on the {} stand-in (1/{} scale) under four vertex orders",
            w.name, args.scale
        ),
        vec![
            col("Vertex order", "order"),
            col("GEE runtime", "seconds"),
            col("vs shuffle", "vs_shuffle"),
        ],
    );
    let el = w.generate(args.scale, args.seed);
    let base = CsrGraph::from_edge_list(&el);
    // Labels belong to *structural* vertices and are permuted together with
    // the graph — otherwise each ordering changes which hubs are labeled
    // and therefore the number of updates performed, and the comparison
    // measures labeling luck instead of locality.
    let spec = LabelSpec {
        num_classes: args.k,
        labeled_fraction: args.labeled_fraction,
    };
    let structural_labels = gee_gen::random_labels(el.num_vertices(), spec, args.seed ^ 0xBEEF);
    let orders: Vec<(&str, Option<Vec<u32>>)> = vec![
        (
            "random shuffle",
            Some(ordering::random_order(el.num_vertices(), args.seed ^ 1)),
        ),
        ("natural (R-MAT)", None),
        ("degree descending", Some(ordering::degree_order(&base))),
        ("BFS order", Some(ordering::bfs_order(&base))),
    ];
    let mut baseline = None;
    for (name, perm) in orders {
        let ordered_el;
        let mut relabeled = structural_labels.clone();
        let el_ref = match &perm {
            Some(p) => {
                ordered_el = ordering::apply(&el, p);
                for (old, &new) in p.iter().enumerate() {
                    relabeled[new as usize] = structural_labels[old];
                }
                &ordered_el
            }
            None => &el,
        };
        let g = CsrGraph::from_edge_list(el_ref);
        let labels = Labels::from_options_with_k(&relabeled, args.k);
        let _ = gee_core::ligra::embed(&g, &labels, AtomicsMode::Atomic); // warm-up
        let (secs, z) = time_ligra(&g, &labels, args, args.threads, AtomicsMode::Atomic);
        verify_embedding(&z, el_ref, &labels, name);
        let base_secs = *baseline.get_or_insert(secs);
        report.push(vec![
            Cell::text(name),
            Cell::secs(secs),
            Cell::ratio(secs / base_secs),
        ]);
        eprintln!("done: {name}");
    }
    report.note(
        "expected shape: shuffle slowest; degree/BFS orders cut the random-write miss rate."
            .into(),
    );
    report
}
