//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start and an end on the
//! tracer's clock, the span that was open when it began (its parent),
//! and the device it belongs to (spans of one device share that id).
//! Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Device id of spans that belong to no single device.
pub const NO_DEVICE: u64 = u64::MAX;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Device the span belongs to, or [`NO_DEVICE`].
    pub device: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Wall time covered by the span, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it receives become the span's children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        device: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            device,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans named `name`, nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Self time per layer, nanoseconds: each span's duration minus the
    /// part of it that its children cover, summed by layer.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, mut covered) in self.spans.iter().zip(children) {
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = span.start_ns;
            for (start, end) in covered {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            *by_layer.entry(span.layer()).or_insert(0) += span.duration_ns() - union;
        }
        by_layer
    }

    /// The spans as JSON lines: name, device, parent, start and end.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let device = if span.device == NO_DEVICE {
                String::from("null")
            } else {
                span.device.to_string()
            };
            let parent = span.parent.map_or(String::from("null"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"device\":{device},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new();
        tracer.span("fleet.device", 3, |t| {
            t.span("lint.solve", 3, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].device, 3);
        let by_layer = tracer.self_ns_by_layer();
        assert!(by_layer["lint"] >= 5_000_000);
        assert!(by_layer["fleet"] < by_layer["lint"]);
        assert_eq!(
            by_layer["fleet"] + by_layer["lint"],
            spans[0].duration_ns(),
            "self times partition the root span"
        );
        assert_eq!(tracer.to_jsonl().lines().count(), 2);
    }
}
