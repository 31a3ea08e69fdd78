//! Air Traffic Management tasks over simulated parallel architectures.
//!
//! This crate is the reproduction of the paper's primary contribution: the
//! three most compute-intensive ATM tasks —
//!
//! * **Task 1** tracking & radar correlation ([`track`]), every half second,
//! * **Task 2** collision detection via Batcher's time-window algorithm
//!   ([`batcher`], [`detect`]), every 8 seconds,
//! * **Task 3** collision resolution by incremental path rotation
//!   ([`detect`]), with Task 2,
//!
//! running inside a simulated airfield ([`airfield`]) under a hard-real-time
//! cyclic executive, on the backend roster ([`backends`]):
//!
//! | Backend | Substrate | Timing |
//! |---|---|---|
//! | [`backends::SequentialBackend`] | host CPU, single thread | measured |
//! | [`backends::GpuBackend`] | [`gpu_sim`] SIMT simulator (9800 GT / 880M / Titan X) | modeled |
//! | [`backends::ApBackend`] | [`ap_sim`] associative processor (STARAN / ClearSpeed) | modeled |
//! | [`backends::MimdBackend`] | real threads ([`multicore::MimdPool`]), racing radar claims | measured |
//! | [`backends::MulticoreBackend`] | thread-pool chunked scan, deterministic outputs | measured |
//! | [`backends::SimdSoaBackend`] | structure-of-arrays branch-free gate kernel | measured |
//! | [`backends::XeonModelBackend`] | analytic 16-core Xeon ([`multicore::XeonModel`]) | modeled |
//!
//! The task algorithms are written once as per-item routines reporting their
//! abstract operation mix through [`sim_clock::CostSink`]; each backend
//! executes them under its own architecture model, so the *same* code paths
//! produce both the functional results and the per-architecture timing that
//! the paper's figures compare.

pub mod airfield;
pub mod backends;
pub mod batcher;
pub mod config;
pub mod detect;
pub mod engine;
pub mod scenario;
pub mod shard;
pub mod sim;
pub mod terrain;
pub mod track;
pub mod types;
pub mod wire;

pub use airfield::{AircraftUpdate, Airfield, IngestReceipt};
pub use backends::AtmBackend;
pub use config::{AtmConfig, ScanMode};
pub use detect::ScanIndex;
pub use engine::{AtmEngine, CycleReport};
pub use scenario::{fleet_hash, Scenario, ScenarioKind, ScenarioParams};
pub use shard::{
    detect_resolve_parallel, detect_resolve_via_transport, InProcessTransport, ShardMap,
    ShardTransport, ShardedAirfield, ShardedCycleStats, ShardedIndex, TransportError, TurnOutcome,
    TurnRecord, WaveGroup,
};
pub use sim::{AtmSimulation, SimOutcome, TerrainSchedule};
pub use terrain::{TerrainGrid, TerrainTaskConfig};
pub use types::{Aircraft, RadarReport};
pub use wire::{
    run_shard_worker, Frame, FrameStream, SocketTransport, WorkerOptions, WIRE_VERSION,
};
