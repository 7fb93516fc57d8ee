//! An interpreted-style GEE executor — the cost model for the paper's
//! "GEE-Python" baseline.
//!
//! The paper's slowest column is the original GEE implementation in
//! CPython: every edge iteration pays bytecode dispatch, boxed float
//! allocation, dynamic type checks, and indexed container access through
//! virtual calls. Shipping CPython inside a Rust reproduction is neither
//! possible offline nor informative; instead this crate reproduces the
//! *mechanisms* that make interpreted code slow:
//!
//! * [`value::Value`] — tagged, heap-indirected dynamic values with
//!   run-time type dispatch on every operation;
//! * [`vm`] — a stack-based bytecode VM with one dispatch per operation;
//! * [`program`] — GEE Algorithm 1's edge loop hand-assembled as bytecode
//!   (the projection init stays native, mirroring the NumPy-vectorized `W`
//!   setup of the real reference implementation whose edge loop is the
//!   documented bottleneck).
//!
//! The measured gap between this executor and `gee_core::serial_optimized`
//! is Table I's first column (`paper table1`) next to the paper's
//! Python/Numba ratio (30–50×).

pub mod program;
pub mod value;
pub mod vm;

pub use program::{edge_loop_op_histogram, embed, instructions_per_edge};
