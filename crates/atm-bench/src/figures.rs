//! Generators for the paper's Figures 4–9.
//!
//! Every generator takes a [`Harness`] and fans its sweep points across the
//! harness's workers; the harness's index-slotted results keep each figure
//! byte-identical to a serial run (pass [`Harness::serial`] to force the
//! seed code path).
//!
//! Each figure is described once by a [`FigSpec`] — id, title, roster,
//! task, annotation style — and produced through one of two drivers over
//! that spec: [`figure`] materializes the whole [`FigureData`] before
//! anything is rendered, [`figure_streamed`] pushes every sweep point into
//! a [`FigureStream`] the moment it is measured, so table rows and JSON
//! series leave while the sweep is still running. Both drivers share the
//! sweep and the annotators, and the stream writer reproduces the
//! materialized renderers byte for byte, so the two paths cannot diverge.

use crate::harness::Harness;
use crate::series::FigureData;
use crate::stream::{FigureSkeleton, FigureStream};
use crate::sweep::{sweep_roster_on, sweep_roster_streamed, SweepConfig, Task};
use atm_core::backends::{PlatformId, Roster};
use curvefit::{classify_curve, fit_exponential, fit_poly, CurveClass};
use std::io::{self, Write};

/// How a figure's notes are derived from its finished series.
enum Style {
    /// Final-point ordering, optionally with the Xeon growth-law contrast.
    Ordering { xeon: bool },
    /// MATLAB-style linear/quadratic fits (Figs. 8 and 9).
    Fit,
}

/// One figure of the paper: everything needed to run and annotate it.
struct FigSpec {
    id: &'static str,
    title: &'static str,
    roster: Roster,
    task: Task,
    style: Style,
}

/// The spec for paper figure `n`, or `None` outside 4..=9.
fn spec(n: u32) -> Option<FigSpec> {
    Some(match n {
        4 => FigSpec {
            id: "fig4",
            title: "Comparing Task 1 timings in all platforms",
            roster: Roster::paper(),
            task: Task::Track,
            style: Style::Ordering { xeon: true },
        },
        5 => FigSpec {
            id: "fig5",
            title: "Comparing Task 1 timings in all NVIDIA cards",
            roster: Roster::nvidia(),
            task: Task::Track,
            style: Style::Ordering { xeon: false },
        },
        6 => FigSpec {
            id: "fig6",
            title: "Comparing Tasks 2 and 3 timings in all platforms",
            roster: Roster::paper(),
            task: Task::DetectResolve,
            style: Style::Ordering { xeon: true },
        },
        7 => FigSpec {
            id: "fig7",
            title: "Comparing Tasks 2 and 3 timings in all NVIDIA cards",
            roster: Roster::nvidia(),
            task: Task::DetectResolve,
            style: Style::Ordering { xeon: false },
        },
        8 => FigSpec {
            id: "fig8",
            title: "Near linear curve for Task 1 timings on the GTX 880M card",
            roster: Roster::select([PlatformId::Gtx880m]),
            task: Task::Track,
            style: Style::Fit,
        },
        9 => FigSpec {
            id: "fig9",
            title: "Quadratic (low coefficient) curve for Tasks 2 and 3 timings on GT9800",
            roster: Roster::select([PlatformId::Geforce9800Gt]),
            task: Task::DetectResolve,
            style: Style::Fit,
        },
        _ => return None,
    })
}

/// Apply a spec's annotation style to a figure whose series are complete.
fn annotate(style: &Style, fig: &mut FigureData) {
    match style {
        Style::Ordering { xeon } => {
            annotate_ordering(fig);
            if *xeon {
                annotate_xeon_growth(fig);
            }
        }
        Style::Fit => annotate_fits(fig),
    }
}

/// Produce paper figure `n` (4..=9), materialized: the sweep runs to
/// completion, then the series are annotated. `None` outside 4..=9.
pub fn figure(n: u32, cfg: &SweepConfig, harness: &Harness) -> Option<FigureData> {
    let spec = spec(n)?;
    let mut fig = FigureData::new(spec.id, spec.title);
    fig.series = sweep_roster_on(&spec.roster, spec.task, cfg, harness);
    annotate(&spec.style, &mut fig);
    Some(fig)
}

/// Produce paper figure `n` (4..=9), streaming: every sweep point is
/// pushed into a [`FigureStream`] over `table`/`json` the moment it is
/// measured, so partial output exists while later points are still being
/// computed; notes flush at the end (they are functions of the finished
/// series). The bytes written are identical to rendering [`figure`]'s
/// result with `Display` / [`FigureData::to_json`], and the returned
/// figure is identical to [`figure`]'s. `Ok(None)` outside 4..=9.
pub fn figure_streamed<T: Write + Send, J: Write + Send>(
    n: u32,
    cfg: &SweepConfig,
    harness: &Harness,
    table: T,
    json: J,
) -> io::Result<Option<FigureData>> {
    let Some(spec) = spec(n) else { return Ok(None) };
    let mut fig = FigureData::new(spec.id, spec.title);
    let labels: Vec<String> = spec
        .roster
        .entries()
        .iter()
        .map(|e| e.label.to_owned())
        .collect();
    let xs: Vec<f64> = cfg.ns.iter().map(|&n| n as f64).collect();
    let mut stream = FigureStream::begin(FigureSkeleton::of(&fig, labels, xs), table, json)?;
    let mut write_error = None;
    fig.series = sweep_roster_streamed(&spec.roster, spec.task, cfg, harness, |entry, point, y| {
        if write_error.is_none() {
            write_error = stream.point(entry, point, y).err();
        }
    });
    if let Some(e) = write_error {
        return Err(e);
    }
    annotate(&spec.style, &mut fig);
    stream.finish(&fig.notes)?;
    Ok(Some(fig))
}

/// Fig. 4 — "Comparing Task 1 timings in all platforms".
pub fn fig4(cfg: &SweepConfig, harness: &Harness) -> FigureData {
    figure(4, cfg, harness).expect("figure 4 is in the paper")
}

/// Fig. 5 — "Comparing Task 1 timings in all NVIDIA cards".
pub fn fig5(cfg: &SweepConfig, harness: &Harness) -> FigureData {
    figure(5, cfg, harness).expect("figure 5 is in the paper")
}

/// Fig. 6 — "Comparing Tasks 2 and 3 timings in all platforms".
pub fn fig6(cfg: &SweepConfig, harness: &Harness) -> FigureData {
    figure(6, cfg, harness).expect("figure 6 is in the paper")
}

/// Fig. 7 — "Comparing Tasks 2 and 3 timings in all NVIDIA cards".
pub fn fig7(cfg: &SweepConfig, harness: &Harness) -> FigureData {
    figure(7, cfg, harness).expect("figure 7 is in the paper")
}

/// Fig. 8 — "Near linear curve for Task 1 timings on the GTX 880M card":
/// the Task 1 series on the 880M plus MATLAB-style linear/quadratic fits
/// and goodness-of-fit numbers.
pub fn fig8(cfg: &SweepConfig, harness: &Harness) -> FigureData {
    figure(8, cfg, harness).expect("figure 8 is in the paper")
}

/// Fig. 9 — "Quadratic (low coefficient) curve for Tasks 2 and 3 timings
/// on the GeForce 9800 GT card".
pub fn fig9(cfg: &SweepConfig, harness: &Harness) -> FigureData {
    figure(9, cfg, harness).expect("figure 9 is in the paper")
}

/// Shared fit machinery for Figs. 8 and 9.
fn annotate_fits(fig: &mut FigureData) {
    for s in &fig.series {
        match classify_curve(&s.x, &s.y_ms) {
            Ok((class, linear, quad)) => {
                fig.notes.push(format!("{}: classified {}", s.label, class));
                fig.notes.push(format!("{}: linear    {}", s.label, linear));
                fig.notes.push(format!("{}: quadratic {}", s.label, quad));
                if class != CurveClass::Quadratic {
                    fig.notes.push(format!(
                        "{}: SIMD-like (near-linear) scaling confirmed",
                        s.label
                    ));
                }
            }
            Err(e) => fig.notes.push(format!("{}: fit failed: {e}", s.label)),
        }
        // The verdict depends on the sweep domain (the quadratic term's
        // share grows with n); also classify the paper-scale prefix so the
        // domain dependence is visible in the artifact.
        if s.x.len() > 3 {
            let k = 3;
            if let Ok((class, ..)) = classify_curve(&s.x[..k], &s.y_ms[..k]) {
                fig.notes.push(format!(
                    "{}: over the restricted domain (n ≤ {:.0}): classified {}",
                    s.label,
                    s.x[k - 1],
                    class
                ));
            }
        }
    }
}

/// The paper calls the multi-core curve "essentially certain to be an
/// exponential curve"; quantify that by comparing polynomial and
/// exponential fits on the Xeon series.
fn annotate_xeon_growth(fig: &mut FigureData) {
    let Some(xeon) = fig.series.iter().find(|s| s.label.contains("Xeon")) else {
        return;
    };
    let quad = fit_poly(&xeon.x, &xeon.y_ms, 2);
    let expo = fit_exponential(&xeon.x, &xeon.y_ms);
    if let (Ok(quad), Ok(expo)) = (quad, expo) {
        let verdict = if expo.gof.sse < quad.gof.sse {
            "exponential fits best (paper: 'essentially certain to be exponential')"
        } else {
            "super-linear polynomial fits best (paper calls it 'possibly exponential')"
        };
        fig.notes.push(format!("Xeon growth: {verdict}"));
        fig.notes.push(format!("Xeon quadratic   {quad}"));
        fig.notes.push(format!("Xeon exponential {expo}"));
    }
}

/// Note who wins at the largest sweep point (the paper's headline: the
/// NVIDIA devices beat the AP, ClearSpeed and Xeon series).
fn annotate_ordering(fig: &mut FigureData) {
    let mut finals: Vec<(String, f64)> = fig
        .series
        .iter()
        .filter_map(|s| s.y_ms.last().map(|&y| (s.label.clone(), y)))
        .collect();
    finals.sort_by(|a, b| a.1.total_cmp(&b.1));
    let order = finals
        .iter()
        .map(|(l, y)| format!("{l} ({y:.3} ms)"))
        .collect::<Vec<_>>()
        .join("  <  ");
    fig.notes
        .push(format!("at the largest sweep point: {order}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    use atm_core::ScanMode;

    fn tiny() -> SweepConfig {
        SweepConfig {
            ns: vec![200, 400, 800],
            seed: 5,
            reps: 1,
            scan: ScanMode::default(),
        }
    }

    #[test]
    fn fig5_has_three_nvidia_series() {
        let f = fig5(&tiny(), &Harness::serial());
        assert_eq!(f.series.len(), 3);
        assert!(f.notes.iter().any(|n| n.contains("largest sweep point")));
    }

    #[test]
    fn fig8_classifies_the_880m_curve() {
        let f = fig8(&tiny(), &Harness::serial());
        assert_eq!(f.series.len(), 1);
        assert_eq!(f.series[0].label, "GTX 880M");
        assert!(f.notes.iter().any(|n| n.contains("classified")));
        assert!(f.notes.iter().any(|n| n.contains("R²")));
    }

    #[test]
    fn fig9_fits_the_9800_gt_detect_curve() {
        let f = fig9(&tiny(), &Harness::serial());
        assert_eq!(f.series[0].label, "GeForce 9800 GT");
        assert!(f.notes.iter().any(|n| n.contains("quadratic")));
    }

    #[test]
    fn parallel_figure_matches_serial_figure_exactly() {
        let serial = fig6(&tiny(), &Harness::serial());
        let parallel = fig6(&tiny(), &Harness::new(4));
        assert_eq!(serial.notes, parallel.notes);
        assert_eq!(serial.series.len(), parallel.series.len());
        for (s, p) in serial.series.iter().zip(&parallel.series) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.y_ms, p.y_ms);
        }
    }

    #[test]
    fn there_is_no_figure_outside_the_papers_range() {
        assert!(figure(3, &tiny(), &Harness::serial()).is_none());
        assert!(figure(10, &tiny(), &Harness::serial()).is_none());
        let streamed = figure_streamed(10, &tiny(), &Harness::serial(), Vec::new(), Vec::new())
            .expect("no I/O performed");
        assert!(streamed.is_none());
    }

    #[test]
    fn streamed_figures_write_the_materialized_bytes() {
        // Every paper figure, both annotation styles, serial and parallel:
        // the streamed table/JSON bytes must equal the materialized
        // renderings and the returned figure must match `figure`'s.
        let cfg = tiny();
        for n in [4, 8] {
            let baseline = figure(n, &cfg, &Harness::serial()).unwrap();
            for jobs in [1, 4] {
                let mut table = Vec::new();
                let mut json = Vec::new();
                let fig = figure_streamed(n, &cfg, &Harness::new(jobs), &mut table, &mut json)
                    .expect("in-memory writers cannot fail")
                    .expect("paper figure");
                assert_eq!(fig.notes, baseline.notes, "fig{n} jobs={jobs}");
                assert_eq!(fig.series, baseline.series, "fig{n} jobs={jobs}");
                assert_eq!(
                    String::from_utf8(table).unwrap(),
                    format!("{baseline}"),
                    "fig{n} jobs={jobs} table bytes"
                );
                assert_eq!(
                    String::from_utf8(json).unwrap(),
                    baseline.to_json(),
                    "fig{n} jobs={jobs} json bytes"
                );
            }
        }
    }

    #[test]
    fn nvidia_beats_the_xeon_in_fig4_ordering() {
        let f = fig4(
            &SweepConfig {
                ns: vec![1_000, 2_000],
                seed: 5,
                reps: 1,
                scan: ScanMode::default(),
            },
            &Harness::serial(),
        );
        let xeon = f.series.iter().find(|s| s.label.contains("Xeon")).unwrap();
        let titan = f.series.iter().find(|s| s.label.contains("Titan")).unwrap();
        assert!(
            titan.y_ms.last().unwrap() < xeon.y_ms.last().unwrap(),
            "the paper's headline ordering must hold"
        );
    }
}
