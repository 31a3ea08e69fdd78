//! Reproducible server construction: a [`ServerSpec`] pins everything the
//! engine's determinism depends on — fleet source, seed, scan mode, shard
//! grid and platform — so a replay harness can rebuild the exact batch
//! engine a live server ran.

use atm_core::backends::{Roster, TimingKind};
use atm_core::config::{AtmConfig, ScanMode};
use atm_core::{Airfield, AtmBackend, AtmEngine, Scenario};
use telemetry::JsonValue;

/// The slug of a scan mode (the form flags and JSON use).
pub fn scan_to_slug(scan: ScanMode) -> &'static str {
    match scan {
        ScanMode::Naive => "naive",
        ScanMode::Grid => "grid",
    }
}

/// Parse a scan-mode slug.
pub fn scan_from_slug(s: &str) -> Option<ScanMode> {
    match s {
        "naive" => Some(ScanMode::Naive),
        "grid" => Some(ScanMode::Grid),
        _ => None,
    }
}

/// Everything needed to (re)build a server's engine deterministically.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerSpec {
    /// Fleet size.
    pub n: usize,
    /// Config and fleet seed.
    pub seed: u64,
    /// Scenario slug from the [`Scenario`] catalog, or `None` for the
    /// paper's `SetupFlight` fleet.
    pub scenario: Option<String>,
    /// Candidate-pruning mode.
    pub scan: ScanMode,
    /// Shard-grid factor (1 = unsharded).
    pub shards: usize,
    /// Roster platform slug. Modeled platforms (the paper's six) give
    /// deterministic `CycleReport` bytes; measured platforms serve live
    /// traffic with wall-clock timing and forfeit byte-stable replay of
    /// the duration fields.
    pub platform: String,
    /// Step a major cycle automatically every this many wall-clock
    /// milliseconds (`None` = step only on the `step` verb).
    pub autostep_ms: Option<u64>,
    /// Per-subscriber event-queue capacity (drop-oldest beyond it).
    pub queue_cap: usize,
    /// Where the graceful-shutdown path flushes the final telemetry
    /// metrics snapshot.
    pub metrics_path: Option<String>,
    /// Where the graceful-shutdown path flushes the append-only ingest
    /// log.
    pub log_path: Option<String>,
}

impl Default for ServerSpec {
    fn default() -> ServerSpec {
        ServerSpec {
            n: 400,
            seed: 42,
            scenario: None,
            scan: ScanMode::Grid,
            shards: 1,
            platform: "titan-x-pascal".to_owned(),
            autostep_ms: None,
            queue_cap: 1024,
            metrics_path: None,
            log_path: None,
        }
    }
}

impl ServerSpec {
    /// Build the platform backend named by `self.platform`.
    pub fn build_backend(&self) -> Result<Box<dyn AtmBackend>, String> {
        for roster in [Roster::filter(TimingKind::Modeled), Roster::measured()] {
            if let Some(entry) = roster.iter().find(|e| e.slug == self.platform) {
                return Ok(entry.instantiate());
            }
        }
        Err(format!("unknown platform slug `{}`", self.platform))
    }

    /// Build the airfield: scenario fleet when a slug is set, the paper's
    /// `SetupFlight` fleet otherwise, under this spec's scan/shard config.
    pub fn build_airfield(&self) -> Result<Airfield, String> {
        let mut cfg = AtmConfig::with_seed(self.seed);
        cfg.scan = self.scan;
        cfg.shards = self.shards;
        match &self.scenario {
            Some(slug) => {
                let scn = Scenario::by_slug(slug)
                    .ok_or_else(|| format!("unknown scenario slug `{slug}`"))?;
                Ok(scn.airfield_with(self.n, &cfg))
            }
            None => Ok(Airfield::new(self.n, cfg)),
        }
    }

    /// Build the full engine this spec describes. A live server and a
    /// batch replay calling this with an equal spec get byte-identical
    /// starting states.
    pub fn build_engine(&self) -> Result<AtmEngine, String> {
        Ok(AtmEngine::new(
            self.build_airfield()?,
            self.build_backend()?,
        ))
    }

    /// Serialize (fixed key order).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .set("n", self.n)
            .set("seed", self.seed)
            .set(
                "scenario",
                match &self.scenario {
                    Some(s) => JsonValue::Str(s.clone()),
                    None => JsonValue::Null,
                },
            )
            .set("scan", scan_to_slug(self.scan))
            .set("shards", self.shards)
            .set("platform", self.platform.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_core::fleet_hash;

    #[test]
    fn default_spec_builds_a_modeled_engine() {
        let spec = ServerSpec::default();
        let mut engine = spec.build_engine().unwrap();
        let rep = engine.step_major_cycle();
        assert_eq!(rep.cycle, 0);
        assert_eq!(engine.backend_name(), "Titan X (Pascal)");
    }

    #[test]
    fn equal_specs_build_byte_identical_fleets() {
        let spec = ServerSpec {
            scenario: Some("hotspot".to_owned()),
            n: 300,
            seed: 9,
            shards: 4,
            scan: ScanMode::Naive,
            ..ServerSpec::default()
        };
        let a = spec.build_airfield().unwrap();
        let b = spec.build_airfield().unwrap();
        assert_eq!(fleet_hash(&a.aircraft), fleet_hash(&b.aircraft));
        assert_eq!(a.config().shards, 4);
    }

    #[test]
    fn bad_slugs_are_reported() {
        let mut spec = ServerSpec {
            platform: "cray-1".to_owned(),
            ..ServerSpec::default()
        };
        assert!(spec.build_backend().is_err());
        spec.platform = "titan-x-pascal".to_owned();
        spec.scenario = Some("nope".to_owned());
        assert!(spec.build_airfield().is_err());
        // The retired scan modes are unknown slugs, not aliases.
        for slug in ["banded", "incremental", "quantum"] {
            assert_eq!(scan_from_slug(slug), None, "{slug}");
        }
    }

    #[test]
    fn scan_slugs_round_trip() {
        for m in [ScanMode::Naive, ScanMode::Grid] {
            assert_eq!(scan_from_slug(scan_to_slug(m)), Some(m));
        }
    }
}
