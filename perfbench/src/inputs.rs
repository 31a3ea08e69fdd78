//! Inputs generated from the seed, and the protocol lines built from them.

use atm_core::engine::CycleReport;
use atm_core::AircraftUpdate;
use atm_server::proto::updates_to_json;
use sim_clock::SimRng;
use telemetry::JsonValue;

/// Updates in one ingest batch.
pub const BATCH_UPDATES: usize = 16;

/// A seeded stream of ingest batches over a fleet of `n` aircraft: each
/// update moves a random aircraft to a random in-field position, altitude
/// and velocity, the envelope of the paper's `SetupFlight`.
pub struct BatchGen {
    rng: SimRng,
    n: u32,
}

impl BatchGen {
    pub fn new(seed: u64, n: usize) -> BatchGen {
        BatchGen {
            // Keep the stream apart from the fleet's own seeded stream.
            rng: SimRng::seed_from_u64(seed ^ 0x0BA7_C4E5),
            n: u32::try_from(n).expect("fleet size fits in u32"),
        }
    }

    pub fn next_batch(&mut self) -> Vec<AircraftUpdate> {
        (0..BATCH_UPDATES)
            .map(|_| AircraftUpdate {
                id: self.rng.range_u32_inclusive(0, self.n - 1),
                x: self.rng.range_f32(-127.0, 127.0),
                y: self.rng.range_f32(-127.0, 127.0),
                alt: self.rng.range_f32(1_000.0, 40_000.0),
                dx: self.rng.range_f32(-0.08, 0.08),
                dy: self.rng.range_f32(-0.08, 0.08),
            })
            .collect()
    }
}

/// One request line (no terminator) carrying `updates` under `verb`.
pub fn request_line(verb: &str, updates: &[AircraftUpdate]) -> String {
    JsonValue::obj()
        .set("verb", verb)
        .set("updates", updates_to_json(updates))
        .to_compact()
}

/// The `cycle` event line the server fans out for `report`.
pub fn cycle_event_line(report: &CycleReport) -> String {
    JsonValue::obj()
        .set("event", "cycle")
        .set("report", report.to_json())
        .to_compact()
}
