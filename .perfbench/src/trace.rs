//! In-memory spans for the traced run.
//!
//! A span's name is `<layer>.<what>`: the part before the first `.` names
//! the layer (a workspace crate) whose public function the span wraps.
//! Spans nest on one thread, so a span's children never overlap and its
//! self time is its duration minus theirs.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: String,
    /// What the work was for: a capture, a scenario or a spec.
    pub request: String,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(&mut self, name: &str, request: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            request: request.to_string(),
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span, its duration not covered by its children, in seconds.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Self time per layer, in seconds.
    pub fn self_by_layer(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_secs()) {
            *out.entry(s.layer().to_string()).or_default() += own;
        }
        out
    }

    /// Per span name: (spans, summed duration, summed self time).
    pub fn by_name(&self) -> BTreeMap<&str, (usize, f64, f64)> {
        let mut out: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_secs()) {
            let e = out.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += s.secs();
            e.2 += own;
        }
        out
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.clone())),
                        ("request", Json::Str(s.request.clone())),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_s", Json::Num(s.start.as_secs_f64())),
                        ("end_s", Json::Num(s.end.as_secs_f64())),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("bench.run", "r", |t| {
            spin(5);
            t.span("workload.capture", "c1", |_| spin(20));
            t.span("core.summary", "c1", |t| {
                t.span("core.inner", "c1", |_| spin(10));
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[1].layer(), "workload");
        // Self times of all spans add up to the root's duration.
        let own = t.self_secs();
        assert!((own.iter().sum::<f64>() - spans[0].secs()).abs() < 1e-9);
        assert!(own[0] >= 0.005 && own[0] < spans[0].secs() - 0.03);
        let layers = t.self_by_layer();
        assert!(layers["workload"] >= 0.02);
        assert!(layers["core"] >= 0.01);
        assert_eq!(t.by_name()["core.inner"].0, 1);
        assert!((t.total("workload.capture") - spans[1].secs()).abs() < 1e-12);
    }
}
