//! # atm — ATM tasks on NVIDIA-like, associative, and multi-core processors
//!
//! A from-scratch Rust reproduction of *"Performance Comparison of NVIDIA
//! accelerators with SIMD, Associative, and Multi-core Processors for Air
//! Traffic Management"* (ICPP '18 Companion).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`atm_core`] — the ATM tasks (tracking & correlation, Batcher
//!   collision detection, path-rotation resolution), the simulated
//!   airfield, and the ten-entry backend roster (modeled simulators plus
//!   measured host substrates);
//! * [`gpu_sim`] — the deterministic SIMT device simulator with the
//!   GeForce 9800 GT / GTX 880M / Titan X (Pascal) catalog;
//! * [`ap_sim`] — the STARAN associative processor emulator and its
//!   ClearSpeed CSX600 profile;
//! * [`multicore`] — the real-thread MIMD pool and the analytic 16-core
//!   Xeon model;
//! * [`rt_sched`] — the hard-real-time cyclic executive (8 s major cycle,
//!   16 half-second periods, deadline accounting);
//! * [`curvefit`] — MATLAB-style polynomial fitting and goodness-of-fit
//!   statistics for the curve-shape analysis;
//! * [`sim_clock`] — exact simulated time and the cross-architecture cost
//!   accounting interface;
//! * [`telemetry`] — simulated-time spans, counters and histograms with
//!   deterministic Chrome-trace and metrics-JSON exporters.
//!
//! ## Quickstart
//!
//! ```rust
//! use atm::prelude::*;
//!
//! // 1000 aircraft on a simulated Titan X (Pascal), one 8-second major cycle.
//! let backend = Box::new(GpuBackend::titan_x_pascal());
//! let mut sim = AtmSimulation::with_field(1000, 42, backend);
//! let outcome = sim.run(1);
//! assert_eq!(outcome.report.total_misses(), 0);
//! println!("mean Task 1: {}", outcome.mean_task1());
//! ```

pub use ap_sim;
pub use atm_core;
pub use curvefit;
pub use gpu_sim;
pub use multicore;
pub use rt_sched;
pub use sim_clock;
pub use telemetry;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use atm_core::backends::{
        ApBackend, AtmBackend, BackendInfo, GpuBackend, MimdBackend, MulticoreBackend, PlatformId,
        Roster, RosterEntry, SequentialBackend, SimdSoaBackend, TimingKind, XeonModelBackend,
    };
    pub use atm_core::{
        detect_resolve_parallel, fleet_hash, Aircraft, Airfield, AtmConfig, AtmSimulation,
        RadarReport, ScanMode, Scenario, ScenarioKind, ScenarioParams, ShardMap, ShardedAirfield,
        ShardedCycleStats, ShardedIndex, SimOutcome, TerrainGrid, TerrainSchedule,
        TerrainTaskConfig,
    };
    pub use curvefit::{classify_curve, fit_poly, CurveClass};
    pub use gpu_sim::{CudaDevice, DeviceSpec, LaunchConfig};
    pub use rt_sched::{CyclicExecutive, MajorCycleSpec};
    pub use sim_clock::{SimDuration, Stopwatch};
    pub use telemetry::Recorder;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_wires_the_workspace_together() {
        let mut sim = AtmSimulation::with_field(200, 1, Box::new(SequentialBackend::new()));
        let out = sim.run(1);
        assert_eq!(out.report.periods().len(), 16);
    }
}
