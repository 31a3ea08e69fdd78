//! Tasks 2 and 3: collision detection and resolution (the paper's
//! Algorithm 2, the `CheckCollisionPath` kernel).
//!
//! Per track aircraft `i`:
//!
//! 1. reset `time_till` to the safe horizon and scan every other aircraft
//!    that is at the same altitude band *and* within critical reach
//!    (both gates evaluated unconditionally, predication-style) with
//!    Batcher's conflict window ([`crate::batcher`]);
//! 2. if a conflict starts inside the critical window, mark both aircraft
//!    (`col`, `col_with`, `time_till`) and **rotate** the track's trial
//!    velocity by the next angle in the ±5°…±30° sequence, then restart
//!    the scan against the new trial path (the paper's `t = 19; break`
//!    loop-reset idiom);
//! 3. when a scan completes without a critical conflict and course
//!    corrections were attempted (`chk > 0`), commit the trial velocity as
//!    the new path and clear the collision flags; if the angle sequence is
//!    exhausted, keep the original path and leave the aircraft flagged
//!    (the paper accepts that complete avoidance is not always possible
//!    and defers to altitude changes).
//!
//! The paper combines both tasks in a single kernel to avoid host↔device
//! round-trips; [`check_collision_path`] is that fused per-aircraft
//! routine, reused verbatim by every backend. The split-kernel variant the
//! fusion ablation compares against lives in [`detect_only`].
//!
//! The module is organized as a **CandidateSource pipeline** (DESIGN.md
//! §10): [`index`] owns *which* pairs a scan visits (the [`ScanIndex`]
//! enumerators — naive, grid, sharded), [`kernel`] owns *what
//! happens* to every visited pair (the single [`scan_pairs`] kernel: gate
//! checks, cost booking, earliest-conflict selection), and [`stats`] owns
//! the outcome counters. Enumeration is a wall-clock choice only — every
//! source produces bit-identical results, stats and booked cost totals.

mod incremental;
mod index;
mod kernel;
mod soa;
mod stats;
#[cfg(test)]
mod tests;

pub use incremental::{IncrementalEngine, IncrementalGrid, ScanOps, TeeSink};
pub use index::ScanIndex;
pub use kernel::{
    check_collision_path, check_collision_path_scanned, check_collision_path_with, detect_only,
    detect_only_with, detect_resolve_all, rotate_velocity, scan_candidates, scan_pairs,
};
pub use soa::SoaFleet;
pub use stats::{DetectStats, ScanActivity, ScanResult};
