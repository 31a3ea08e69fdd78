//! The cycle workloads: `AtmEngine::step_major_cycle` in a closed loop on
//! one thread, checked cycle by cycle against a `sequential-host` engine
//! run of the same seed.
//!
//! The oracle and the extra set-up samples run in a child process that
//! steps in lock-step with the timed loop: the timed cycles span twice
//! their own wall time, which averages over the host's slow spells, and
//! this process holds only the engine under test, so `peak_rss_mb` is its
//! peak.

use crate::layers::{check_cycles, CycleOutput, Metric};
use crate::spans::ms;
use crate::stats::{median, Summary, Tally};
use atm_core::AtmEngine;
use atm_server::ServerSpec;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Engines the oracle process builds for `setup_s` beside each of its
/// cycles, so the set-up samples span the run as the cycles do.
const SETUPS_PER_CYCLE: usize = 10;
/// Untimed warm-up cycles (caches, lazily built indexes).
const WARM: usize = 1;
/// Timed cycles a run takes however short `--seconds` is.
const MIN_CYCLES: usize = 5;

/// The measured loop of a cycle workload.
pub struct CycleOutcome {
    pub e2e: Vec<Metric>,
    pub record: Vec<String>,
    pub tally: Tally,
}

/// Fleet build, `AtmEngine::new` and `begin_run`, timed.
fn set_up(spec: &ServerSpec) -> Result<(AtmEngine, f64), String> {
    let t = Instant::now();
    let mut engine = AtmEngine::new(spec.build_airfield()?, spec.build_backend()?);
    engine.begin_run();
    Ok((engine, t.elapsed().as_secs_f64()))
}

/// Timed cycles for a run of `seconds` at `nominal_cycle_s` a cycle. The
/// count depends on the arguments only, never on how fast this host runs
/// now: a fleet's cycles differ in cost as it evolves, so every run must
/// time the same cycles.
pub fn cycles_for(seconds: f64, nominal_cycle_s: f64) -> usize {
    ((seconds / nominal_cycle_s).round() as usize).max(MIN_CYCLES)
}

/// The oracle process of a cycle run: a `sequential-host` engine of the
/// seed of `spec`. For each `step` line on standard input it steps one
/// cycle, times [`SETUPS_PER_CYCLE`] set-ups of `spec`, and answers with
/// one line: fleet hash, conflicts, resolutions, then the set-up seconds.
/// It ends at the end of its input.
pub fn oracle_main(spec: &ServerSpec) -> Result<(), String> {
    let reference = ServerSpec {
        platform: "sequential-host".into(),
        ..spec.clone()
    };
    let mut oracle = reference.build_engine()?;
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("oracle: read: {e}"))?;
        if line != "step" {
            return Err(format!("oracle: unknown request `{line}`"));
        }
        let o = CycleOutput::from(&oracle.step_major_cycle());
        let mut reply = format!("{} {} {}", o.fleet_hash, o.conflicts, o.resolutions);
        for _ in 0..SETUPS_PER_CYCLE {
            write!(reply, " {}", set_up(spec)?.1).expect("write to a String");
        }
        writeln!(out, "{reply}")
            .and_then(|()| out.flush())
            .map_err(|e| format!("oracle: write: {e}"))?;
    }
    Ok(())
}

/// The parent's end of an oracle process. Dropping it closes the
/// process's input and waits for it to end.
struct Oracle {
    child: Child,
    input: Option<ChildStdin>,
    output: BufReader<ChildStdout>,
}

impl Oracle {
    /// Start this program with `args`, which select [`oracle_main`].
    fn spawn(args: &[String]) -> Result<Oracle, String> {
        let exe = std::env::current_exe().map_err(|e| format!("oracle: {e}"))?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("oracle: spawn: {e}"))?;
        let input = child.stdin.take();
        let output = BufReader::new(child.stdout.take().ok_or("oracle: no stdout")?);
        Ok(Oracle {
            child,
            input,
            output,
        })
    }

    /// One oracle cycle and its set-up samples.
    fn step(&mut self) -> Result<(CycleOutput, Vec<f64>), String> {
        let input = self.input.as_mut().ok_or("oracle: input closed")?;
        writeln!(input, "step")
            .and_then(|()| input.flush())
            .map_err(|e| format!("oracle: send: {e}"))?;
        let mut line = String::new();
        self.output
            .read_line(&mut line)
            .map_err(|e| format!("oracle: read: {e}"))?;
        parse_reply(&line).ok_or_else(|| format!("oracle: bad reply `{}`", line.trim_end()))
    }

    /// Close the input and wait for a clean exit.
    fn finish(mut self) -> Result<(), String> {
        drop(self.input.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("oracle: wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("oracle: exited with {status}"))
        }
    }
}

impl Drop for Oracle {
    fn drop(&mut self) {
        drop(self.input.take());
        let _ = self.child.wait();
    }
}

/// An [`oracle_main`] reply line.
fn parse_reply(line: &str) -> Option<(CycleOutput, Vec<f64>)> {
    let mut words = line.split_whitespace();
    let mut next = || words.next()?.parse::<u64>().ok();
    let output = CycleOutput {
        fleet_hash: next()?,
        conflicts: next()?,
        resolutions: next()?,
    };
    let setups = words
        .map(str::parse)
        .collect::<Result<Vec<f64>, _>>()
        .ok()?;
    (setups.len() == SETUPS_PER_CYCLE).then_some((output, setups))
}

/// Step `cycles` timed cycles after warm-up. After each one the oracle
/// process, started with `oracle_args`, steps the same cycle, untimed, and
/// the two must agree cycle by cycle.
pub fn run(
    spec: &ServerSpec,
    cycles: usize,
    oracle_args: &[String],
) -> Result<CycleOutcome, String> {
    let mut oracle = Oracle::spawn(oracle_args)?;
    let (mut engine, first_setup_s) = set_up(spec)?;
    let mut setup_s = vec![first_setup_s];
    let mut got = Vec::with_capacity(WARM + cycles);
    let mut want = Vec::with_capacity(WARM + cycles);
    let mut cycle_ms = Vec::with_capacity(cycles);
    for c in 0..WARM + cycles {
        let t = Instant::now();
        let report = engine.step_major_cycle();
        if c >= WARM {
            cycle_ms.push(ms(t.elapsed()));
        }
        got.push(CycleOutput::from(&report));
        let (output, setups) = oracle.step()?;
        want.push(output);
        setup_s.extend(setups);
    }
    let peak_mb = peak_rss_mb()?;
    oracle.finish()?;
    let stepping_s = cycle_ms.iter().sum::<f64>() / 1e3;
    let mut tally = Tally::default();
    check_cycles("AtmEngine vs sequential-host", &got, &want, &mut tally);

    let summary = Summary::of(&cycle_ms).ok_or("no timed cycles")?;
    let e2e = vec![
        Metric::new(
            "setup_s",
            median(&setup_s).expect("at least one set-up"),
            "s",
            setup_s.len(),
        ),
        Metric::new("latency_p50_ms", summary.p50, "ms", summary.n),
        Metric::new(
            "throughput_per_s",
            (spec.n * cycle_ms.len()) as f64 / stepping_s,
            "1/s",
            cycle_ms.len(),
        ),
        Metric::new("peak_rss_mb", peak_mb, "MB", 1),
    ];
    let record = vec![
        format!("major cycle: {}", summary.describe("ms")),
        format!("cycle times (ms): {cycle_ms:.1?}"),
        "generator lateness: none, a closed loop has no schedule".to_owned(),
        "peak_rss_mb: VmHWM of this process, which holds only the engine under test".to_owned(),
        format!(
            "setup_s: median of {} set-ups, all but the first in the oracle process",
            setup_s.len()
        ),
        format!(
            "cycles verified against sequential-host: {} ({WARM} warm-up)",
            got.len()
        ),
    ];
    Ok(CycleOutcome { e2e, record, tally })
}

/// Peak resident set (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_replies_round_trip() {
        let setups: Vec<String> = (0..SETUPS_PER_CYCLE)
            .map(|i| format!("{}", 1e-4 / (i + 1) as f64))
            .collect();
        let line = format!("18446744073709551615 3 2 {}\n", setups.join(" "));
        let (o, s) = parse_reply(&line).expect("a valid reply");
        assert_eq!(o.fleet_hash, u64::MAX);
        assert_eq!((o.conflicts, o.resolutions), (3, 2));
        assert_eq!(s[1], 1e-4 / 2.0, "set-up seconds keep every digit");
        assert!(parse_reply("1 2 3 0.5\n").is_none(), "too few set-ups");
        assert!(parse_reply("").is_none());
    }
}
