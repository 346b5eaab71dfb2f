//! Span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions. Spans stay in memory and are written once, at exit,
//! as Chrome trace-event JSON: the same complete ("X") events that
//! `caraml_accel::trace::Timeline::to_chrome_trace` writes for virtual
//! time, with the parent span and the step, token or point id under
//! `args`, so Perfetto shows wall-clock and simulator traces side by side.
//! A disabled recorder keeps nothing and never reads the clock.

use std::time::Instant;

/// One closed span. Times are microseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Step, token or point id the span belongs to.
    pub id: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            id,
        });
        let at = self.spans.len() - 1;
        self.stack.push(at);
        Open(Some(at))
    }

    pub fn end(&mut self, open: Open) {
        let Some(at) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(at), "spans close in reverse order of opening");
        self.spans[at].end_us = self.now_us();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us() / 1e3)
            .collect()
    }

    /// Total self time and total time of the spans named `name`, in
    /// microseconds. A span's self time is its duration minus the time
    /// its direct children cover; children of one span never overlap,
    /// because spans are only opened on the calling thread.
    pub fn self_and_total_us(&self, name: &str) -> (f64, f64) {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us();
            }
        }
        self.spans
            .iter()
            .zip(&child_us)
            .filter(|(s, _)| s.name == name)
            .fold((0.0, 0.0), |(own, total), (s, c)| {
                (own + s.dur_us() - c, total + s.dur_us())
            })
    }

    /// Chrome trace-event JSON of every recorded span.
    pub fn to_chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                     \"pid\": 0, \"tid\": 0, \"args\": {{\"id\": {}, \"parent\": {}}}}}",
                    s.name,
                    s.name.split('.').next().unwrap_or(s.name),
                    s.start_us,
                    s.dur_us(),
                    s.id,
                    parent
                )
            })
            .collect();
        format!("[\n{}\n]", events.join(",\n"))
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("a.step", 0);
        t.span("b.child", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let (own, total) = t.self_and_total_us("a.step");
        let child = t.durations_ms("b.child")[0] * 1e3;
        assert!((total - own - child).abs() < 1e-6);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin("a.step", 0);
        t.end(open);
        assert!(t.spans().is_empty());
        assert_eq!(t.to_chrome_trace(), "[\n\n]");
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut t = Tracer::new(true);
        t.span("models.gpt_forward", 3, || ());
        let v = serde_json::parse(&t.to_chrome_trace()).expect("valid JSON");
        let e = &v.as_array().expect("array")[0];
        assert_eq!(e["ph"].as_str(), Some("X"));
        assert_eq!(e["cat"].as_str(), Some("models"));
        assert_eq!(e["args"]["id"].as_u64(), Some(3));
    }
}
