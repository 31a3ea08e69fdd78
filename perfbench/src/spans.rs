//! Wall-clock spans recorded from outside the program, around calls into
//! its public functions. Spans stay in memory and are written out once,
//! as a Chrome `trace_event` file, when the run ends.

use std::time::Instant;
use telemetry::JsonValue;

/// One span: a named wall-clock interval, the span that caused it and
/// the run it belongs to (a cycle index or an ingest batch).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub run: u64,
    /// Chrome thread lane.
    pub lane: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        ms(self.end - self.start)
    }
}

/// Milliseconds in a duration, with all digits.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The in-memory span log of one run.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, run: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, run, 1)
    }

    /// Close an open span now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Record an already measured interval.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        run: u64,
        lane: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            run,
            lane,
        });
        self.spans.len() - 1
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// The direct children of span `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Total milliseconds of the children of `id` named `name`.
    pub fn child_ms(&self, id: usize, name: &str) -> f64 {
        self.children(id)
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Share of span `id` that the union of its children covers.
    pub fn coverage(&self, id: usize) -> f64 {
        let total = self.spans[id].ms();
        if total <= 0.0 {
            return 0.0;
        }
        (total - self.self_ms(id)) / total
    }

    /// Span `id`'s duration minus the part of it its children cover.
    pub fn self_ms(&self, id: usize) -> f64 {
        let parent = &self.spans[id];
        let mut kids: Vec<(Instant, Instant)> = self
            .children(id)
            .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
            .filter(|(s, e)| s < e)
            .collect();
        kids.sort();
        let mut covered = 0.0;
        let mut cursor = parent.start;
        for (s, e) in kids {
            let s = s.max(cursor);
            if e > s {
                covered += ms(e - s);
                cursor = e;
            }
        }
        parent.ms() - covered
    }

    /// Chrome `trace_event` JSON: one complete (`X`) event per span, with
    /// its parent's name and its run id as args.
    pub fn chrome_trace(&self) -> String {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let events: Vec<JsonValue> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("", |p| self.spans[p].name);
                JsonValue::obj()
                    .set("name", s.name)
                    .set("cat", s.name.split('.').next().unwrap_or(s.name))
                    .set("ph", "X")
                    .set("ts", us(s.start))
                    .set("dur", us(s.end) - us(s.start))
                    .set("pid", 1u64)
                    .set("tid", u64::from(s.lane))
                    .set(
                        "args",
                        JsonValue::obj().set("parent", parent).set("run", s.run),
                    )
            })
            .collect();
        JsonValue::obj()
            .set("traceEvents", JsonValue::Arr(events))
            .set("displayTimeUnit", "ms")
            .to_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut log = SpanLog::new();
        let root = log.record("engine.cycle", at(0), at(100), None, 0, 1);
        log.record("track.correlate", at(10), at(40), Some(root), 0, 1);
        // Overlapping children count once.
        log.record("detect.resolve", at(30), at(60), Some(root), 0, 1);
        log.record("airfield.radar", at(90), at(120), Some(root), 0, 1);
        assert!((log.self_ms(root) - 40.0).abs() < 1e-9);
        assert!((log.coverage(root) - 0.6).abs() < 1e-9);
        assert!((log.child_ms(root, "track.correlate") - 30.0).abs() < 1e-9);
        let trace = telemetry::parse_json(&log.chrome_trace()).expect("valid JSON");
        let events = trace.get("traceEvents").and_then(JsonValue::as_arr);
        assert_eq!(events.map(<[JsonValue]>::len), Some(4));
    }
}
