//! Lock-free atomic utilities — Ligra's `writeAdd` / `writeMin` / `CAS`.
//!
//! x86-64 (and AArch64) have no native f64 fetch-add, so Ligra's `writeAdd`
//! on doubles is a compare-and-swap loop over the 64-bit pattern; we
//! implement exactly that over [`AtomicU64`] bit-casts.
//!
//! The paper's §IV ablation ("we ran the program with atomics off,
//! performing unsafe updates, and saw no appreciable performance
//! difference") is reproduced by [`AtomicF64Vec::add_racy`]: a relaxed
//! load followed by a relaxed store. Concurrent increments may be lost —
//! the *paper's* unsafe experiment — but unlike a raw non-atomic write this
//! is not undefined behaviour in Rust's memory model, so the benchmark
//! remains sound to run.

//!
//! # How the accumulator is allocated
//!
//! For GEE the vector is `Z`, `n·K` doubles — 52 MB on the benchmark's
//! large workload, where filling it element by element costs as much
//! (28 ms) as the edge pass it is allocated for. [`AtomicF64Vec::zeros`]
//! therefore takes zeroed memory from the allocator (`calloc`: fresh
//! mappings arrive as zero pages, nothing is written twice) and
//! [`AtomicF64Vec::into_vec`] hands the same allocation back as
//! `Vec<f64>` without touching it.
//!
//! **First touch happens inside `zeros`, one contiguous range per
//! worker.** Leaving the page faults to the edge pass looks free and is
//! the worst choice measured: `Z(v, Y(u))` is a random row, so two
//! threads take 12.8 k faults on 4 KiB pages in random order and one
//! `embed` of the large workload takes 164 ms (84 ms on one thread)
//! where a serial fill followed by the traversal takes 67 ms. Faulting
//! sequentially, in parallel, one store per page, costs 18 ms on 4 KiB
//! pages and 5 ms on huge ones.
//!
//! **Huge pages from 32 MiB up.** A buffer of at least
//! `HUGE_PAGE_ADVISE_BYTES` is `madvise(MADV_HUGEPAGE)`d before the
//! first touch: 52 MB becomes 26 faults, and the random CAS of the edge
//! pass stops missing the TLB. The threshold is the ceiling of glibc's
//! dynamic mmap threshold: an allocation that large is always a fresh
//! private mapping of its own, never heap that is recycled and shared
//! with small allocations, so the advice cannot inflate the resident
//! set of anything else. Where transparent huge pages are `never` (or
//! the platform is not Linux, or no huge page is free) the call is a
//! no-op or fails, its result is ignored, and the buffer is
//! first-touched on 4 KiB pages as above — slower in the edge pass,
//! same contents.

use std::mem::{align_of, size_of, ManuallyDrop};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use rayon::prelude::*;

/// Buffers of at least this many bytes are advised onto huge pages.
/// glibc never raises its mmap threshold above 32 MiB, so an allocation
/// this large is always a fresh mapping of its own, never recycled heap.
const HUGE_PAGE_ADVISE_BYTES: usize = 32 << 20;

/// The base page: first touch stores once per this many bytes, and the
/// advised range is cut to whole pages.
const PAGE_BYTES: usize = 4096;

// `zeros` and `into_vec` move one allocation between `Vec<u64>`,
// `Vec<AtomicU64>` and `Vec<f64>`: the element layouts must be equal, or
// the allocation would be freed with a layout it was not made with.
const _: () = {
    assert!(size_of::<AtomicU64>() == size_of::<u64>());
    assert!(align_of::<AtomicU64>() == align_of::<u64>());
    assert!(size_of::<AtomicU64>() == size_of::<f64>());
    assert!(align_of::<AtomicU64>() == align_of::<f64>());
};

/// How the embedding updates synchronize — the paper's atomics on/off knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AtomicsMode {
    /// Lock-free CAS `writeAdd` (the paper's default, race-free).
    #[default]
    Atomic,
    /// Relaxed load+store, may lose concurrent updates (the paper's
    /// "atomics off" ablation).
    Racy,
}

/// A fixed-length vector of `f64` supporting concurrent accumulation.
///
/// Bit-stores each element in an [`AtomicU64`]; `fetch_add` is a CAS loop
/// identical to Ligra's `writeAdd`.
pub struct AtomicF64Vec {
    data: Vec<AtomicU64>,
}

impl AtomicF64Vec {
    /// Zero-initialized vector of length `len`, its pages already
    /// faulted in by the calling pool's workers (see the module doc).
    pub fn zeros(len: usize) -> Self {
        Self::zeros_with(len, HUGE_PAGE_ADVISE_BYTES)
    }

    /// [`Self::zeros`] with the huge-page threshold (in bytes) as an
    /// argument, so tests reach both sides of it with small buffers.
    fn zeros_with(len: usize, advise_from: usize) -> Self {
        // `0f64` is the all-zero bit pattern, so zeroed memory is it.
        let mut raw = ManuallyDrop::new(vec![0u64; len]);
        // SAFETY: the pointer, length and capacity are those of a live
        // `Vec<u64>` that is never dropped; `AtomicU64` has `u64`'s size
        // and alignment (asserted above) and every `u64` is a valid one.
        let data = unsafe {
            Vec::from_raw_parts(
                raw.as_mut_ptr().cast::<AtomicU64>(),
                raw.len(),
                raw.capacity(),
            )
        };
        if len * size_of::<u64>() >= advise_from {
            advise_huge_pages(&data);
        }
        let cells_per_page = PAGE_BYTES / size_of::<u64>();
        let per_worker = len
            .div_ceil(rayon::current_num_threads())
            .max(1)
            .next_multiple_of(cells_per_page);
        data.par_chunks(per_worker).for_each(|range| {
            // The buffer need not start on a page boundary: the last
            // cell may sit one page past the last stride.
            for cell in range.iter().step_by(cells_per_page).chain(range.last()) {
                cell.store(0, Ordering::Relaxed);
            }
        });
        AtomicF64Vec { data }
    }

    /// Length of the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Atomic `writeAdd`: CAS loop adding `delta` to element `i`.
    #[inline]
    pub fn fetch_add(&self, i: usize, delta: f64) {
        let cell = &self.data[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + delta).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(observed) => cur = observed,
            }
        }
    }

    /// The paper's "atomics off" update: relaxed read-modify-write that may
    /// lose concurrent increments. Not UB — every access is individually
    /// atomic — but deliberately not linearizable.
    #[inline]
    pub fn add_racy(&self, i: usize, delta: f64) {
        let cell = &self.data[i];
        let cur = f64::from_bits(cell.load(Ordering::Relaxed));
        cell.store((cur + delta).to_bits(), Ordering::Relaxed);
    }

    /// Dispatch on [`AtomicsMode`].
    #[inline]
    pub fn add(&self, mode: AtomicsMode, i: usize, delta: f64) {
        match mode {
            AtomicsMode::Atomic => self.fetch_add(i, delta),
            AtomicsMode::Racy => self.add_racy(i, delta),
        }
    }

    /// Read element `i`.
    #[inline]
    pub fn load(&self, i: usize) -> f64 {
        f64::from_bits(self.data[i].load(Ordering::Relaxed))
    }

    /// Overwrite element `i`.
    #[inline]
    pub fn store(&self, i: usize, v: f64) {
        self.data[i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Convert into a plain `Vec<f64>`: the same allocation, not a copy.
    pub fn into_vec(self) -> Vec<f64> {
        let mut data = ManuallyDrop::new(self.data);
        // SAFETY: the pointer, length and capacity are those of a
        // `Vec<AtomicU64>` owned here and never dropped; `f64` has
        // `AtomicU64`'s size and alignment (asserted above) and every
        // bit pattern is a valid `f64`; `self` is taken by value, so no
        // reference to an atomic cell outlives the cast.
        unsafe { Vec::from_raw_parts(data.as_mut_ptr().cast::<f64>(), data.len(), data.capacity()) }
    }

    /// Copy out as a plain `Vec<f64>`.
    pub fn to_vec(&self) -> Vec<f64> {
        self.data
            .iter()
            .map(|a| f64::from_bits(a.load(Ordering::Relaxed)))
            .collect()
    }
}

/// Ask the kernel to back the whole pages inside `cells` with transparent
/// huge pages. A hint: nothing depends on whether it is honoured.
#[cfg(all(target_os = "linux", not(miri)))]
fn advise_huge_pages(cells: &[AtomicU64]) {
    use std::ffi::{c_int, c_void};
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    const MADV_HUGEPAGE: c_int = 14;
    let start = cells.as_ptr() as usize;
    let first = start.next_multiple_of(PAGE_BYTES);
    let end = (start + std::mem::size_of_val(cells)) & !(PAGE_BYTES - 1);
    if first < end {
        let addr = cells.as_ptr().cast::<u8>().wrapping_add(first - start);
        // SAFETY: `first..end` are whole pages inside the allocation
        // `cells` borrows, so no other allocation shares them;
        // MADV_HUGEPAGE changes how the kernel backs the range, never
        // its contents, and any error leaves the mapping as it was.
        unsafe { madvise(addr as *mut c_void, end - first, MADV_HUGEPAGE) };
    }
}

#[cfg(not(all(target_os = "linux", not(miri))))]
fn advise_huge_pages(_cells: &[AtomicU64]) {}

/// Ligra's `writeMin`: atomically set `*cell = min(*cell, v)`; returns true
/// if this call lowered the value (i.e. it "won").
#[inline]
pub fn write_min_u32(cell: &AtomicU32, v: u32) -> bool {
    let mut cur = cell.load(Ordering::Relaxed);
    while v < cur {
        match cell.compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(observed) => cur = observed,
        }
    }
    false
}

/// Ligra's `CAS` on a u32 cell: set to `new` iff currently `expected`.
#[inline]
pub fn cas_u32(cell: &AtomicU32, expected: u32, new: u32) -> bool {
    cell.compare_exchange(expected, new, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let v = AtomicF64Vec::zeros(5);
        assert_eq!(v.len(), 5);
        assert!(!v.is_empty());
        assert_eq!(v.load(3), 0.0);
    }

    #[test]
    fn fetch_add_accumulates() {
        let v = AtomicF64Vec::zeros(1);
        v.fetch_add(0, 1.5);
        v.fetch_add(0, 2.5);
        assert_eq!(v.load(0), 4.0);
    }

    #[test]
    fn concurrent_fetch_add_loses_nothing() {
        let v = AtomicF64Vec::zeros(4);
        (0..100_000usize).into_par_iter().for_each(|i| {
            v.fetch_add(i % 4, 1.0);
        });
        let total: f64 = (0..4).map(|i| v.load(i)).sum();
        assert_eq!(total, 100_000.0);
    }

    #[test]
    fn racy_add_single_threaded_is_exact() {
        let v = AtomicF64Vec::zeros(1);
        for _ in 0..1000 {
            v.add_racy(0, 1.0);
        }
        assert_eq!(v.load(0), 1000.0);
    }

    #[test]
    fn mode_dispatch() {
        let v = AtomicF64Vec::zeros(1);
        v.add(AtomicsMode::Atomic, 0, 1.0);
        v.add(AtomicsMode::Racy, 0, 1.0);
        assert_eq!(v.load(0), 2.0);
    }

    #[test]
    fn into_vec_roundtrip() {
        let v = AtomicF64Vec::zeros(3);
        v.store(0, 1.0);
        v.store(2, -2.5);
        assert_eq!(v.to_vec(), vec![1.0, 0.0, -2.5]);
        assert_eq!(v.into_vec(), vec![1.0, 0.0, -2.5]);
    }

    /// Both sides of the huge-page threshold and its edges, with the
    /// threshold brought down to three pages so nothing large is
    /// allocated; `usize::MAX` is the path of a platform without the
    /// advice. Either way: all zero, and `into_vec` is the same buffer.
    #[test]
    fn zeros_is_zero_and_into_vec_keeps_the_allocation() {
        let threshold = 3 * PAGE_BYTES;
        let at = threshold / size_of::<u64>();
        for advise_from in [threshold, usize::MAX] {
            for len in [0, 1, at - 1, at, at + 1] {
                for threads in [1, 2, 3] {
                    let v =
                        crate::with_threads(threads, || AtomicF64Vec::zeros_with(len, advise_from));
                    assert_eq!(v.len(), len);
                    assert!((0..len).all(|i| v.load(i).to_bits() == 0));
                    let before = v.data.as_ptr().cast::<f64>();
                    let plain = v.into_vec();
                    assert_eq!(plain.as_ptr(), before, "len {len}");
                    assert_eq!(plain.len(), len);
                }
            }
        }
    }

    #[test]
    fn into_vec_keeps_what_was_accumulated() {
        let len = 2 * PAGE_BYTES / size_of::<u64>() + 7;
        let v = AtomicF64Vec::zeros(len);
        (0..len)
            .into_par_iter()
            .for_each(|i| v.fetch_add(i, i as f64));
        let plain = v.into_vec();
        assert!(plain.iter().enumerate().all(|(i, &x)| x == i as f64));
    }

    #[test]
    fn write_min_lowers_only() {
        let c = AtomicU32::new(10);
        assert!(write_min_u32(&c, 5));
        assert!(!write_min_u32(&c, 7));
        assert_eq!(c.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn concurrent_write_min_converges() {
        let c = AtomicU32::new(u32::MAX);
        (0..10_000u32).into_par_iter().for_each(|i| {
            write_min_u32(&c, i);
        });
        assert_eq!(c.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn cas_semantics() {
        let c = AtomicU32::new(1);
        assert!(cas_u32(&c, 1, 2));
        assert!(!cas_u32(&c, 1, 3));
        assert_eq!(c.load(Ordering::Relaxed), 2);
    }
}
