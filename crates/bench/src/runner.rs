//! Timed execution of the four GEE implementations with result
//! verification (every timed run's output is checked against the mass
//! invariant so the harness can't silently time a wrong computation).

use std::time::Instant;

use gee_core::{diagnostics, AtomicsMode, Embedding, Labels};
use gee_graph::{CsrGraph, EdgeList};

use crate::workloads::Input;
use crate::Args;

/// Which implementation a measurement timed. Mirrors the paper's Table I
/// columns, with the interpreted executor standing in for GEE-Python.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Impl {
    /// `gee-interp` bytecode executor (GEE-Python cost model).
    Interp,
    /// `gee_core::serial_optimized` ("Numba serial").
    Optimized,
    /// GEE-Ligra on one thread.
    LigraSerial,
    /// GEE-Ligra on `threads` threads.
    LigraParallel,
}

impl Impl {
    /// Table I's column order.
    pub const ALL: [Impl; 4] = [
        Impl::Interp,
        Impl::Optimized,
        Impl::LigraSerial,
        Impl::LigraParallel,
    ];

    /// Table column label.
    pub fn label(&self) -> &'static str {
        match self {
            Impl::Interp => "GEE-Py(model)",
            Impl::Optimized => "Numba-analog",
            Impl::LigraSerial => "Ligra serial",
            Impl::LigraParallel => "Ligra parallel",
        }
    }
}

/// Time `f`: the median seconds of `runs` calls and the last call's
/// result, for verification.
pub fn timed<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(runs >= 1);
    let mut times = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let out = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], last.unwrap())
}

/// Check the embedding against the conservation invariant; panics with a
/// clear message on failure so benchmark output is trustworthy.
pub fn verify_embedding(z: &Embedding, el: &EdgeList, labels: &Labels, what: &str) {
    let r = diagnostics::check(z, el, labels);
    assert!(r.all_finite, "{what}: embedding has non-finite entries");
    assert!(
        r.mass_relative_error < 1e-6,
        "{what}: mass error {:e} (total {}, expected {})",
        r.mass_relative_error,
        r.total_mass,
        r.expected_mass
    );
}

/// Time GEE-Ligra on `threads` threads (0 = all cores): median seconds
/// of `--runs` and the last run's embedding.
pub fn time_ligra(
    g: &CsrGraph,
    labels: &Labels,
    args: &Args,
    threads: usize,
    mode: AtomicsMode,
) -> (f64, Embedding) {
    timed(args.runs, || {
        gee_ligra::with_threads(threads, || gee_core::ligra::embed(g, labels, mode))
    })
}

/// Median seconds of one implementation at `--runs`/`--threads`, its
/// output checked. The CSR graph is prebuilt (Ligra's graph load is not
/// part of the paper's timed region); the edge-list implementations get
/// the edge list directly.
pub fn time_implementation(which: Impl, input: &Input, args: &Args) -> f64 {
    let Input { el, g, labels } = input;
    let (seconds, z) = match which {
        Impl::Interp => timed(args.runs, || gee_interp::embed(el, labels)),
        Impl::Optimized => timed(args.runs, || gee_core::serial_optimized::embed(el, labels)),
        Impl::LigraSerial => time_ligra(g, labels, args, 1, AtomicsMode::Atomic),
        Impl::LigraParallel => time_ligra(g, labels, args, args.threads, AtomicsMode::Atomic),
    };
    verify_embedding(&z, el, labels, which.label());
    seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_implementations_run_and_verify() {
        let args = Args {
            k: 10,
            runs: 1,
            ..Args::default()
        };
        let input = Input::new(gee_gen::erdos_renyi_gnm(500, 5000, 3), &args, 7);
        for which in Impl::ALL {
            assert!(time_implementation(which, &input, &args) >= 0.0);
        }
    }

    #[test]
    fn timed_reports_median() {
        let mut calls = 0;
        let (med, last) = timed(3, || {
            calls += 1;
            calls
        });
        assert_eq!(
            (calls, last),
            (3, 3),
            "every run made, the last one returned"
        );
        assert!(med >= 0.0);
    }
}
