//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer: name, start, end and the span that was open when it
//! began. They stay in memory until the run ends and are then written
//! out as one JSON file. With tracing off, [`Tracer::span`] only calls
//! the closure.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Single-threaded span recorder. The traced replays run on one thread,
/// so a `RefCell` stack is enough to know each span's parent.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn off() -> Self {
        Tracer::new(false)
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn seconds(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        let ns: u64 = spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum();
        ns as f64 / 1e9
    }

    /// Number of spans called `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.borrow().iter().filter(|s| s.name == name).count()
    }

    /// The recorded spans as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let spans = self.spans.borrow();
        let lines: Vec<String> = spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                    s.name, s.start_ns, s.end_ns, parent
                )
            })
            .collect();
        format!("[\n{}\n]\n", lines.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || ());
            t.span("inner", || ());
        });
        assert_eq!(t.calls("inner"), 2);
        assert_eq!(t.calls("outer"), 1);
        let spans = t.spans.borrow();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(t.seconds("outer") >= t.seconds("inner"));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x", || 7), 7);
        assert_eq!(t.calls("x"), 0);
        assert_eq!(t.to_json(), "[\n\n]\n");
    }
}
