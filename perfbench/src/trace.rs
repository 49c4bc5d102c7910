//! In-memory span recorder for the traced benchmark run.
//!
//! The benchmark wraps each of its own calls into a workspace layer in a
//! span named after the layer (`markov.build`, `experiments.measure`, …);
//! nothing inside the program is instrumented. A disabled tracer records
//! nothing and only calls the closure, so untraced passes run the same code.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span: a closed interval on the tracer's clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: usize,
    /// The enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `markov.build`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs closures.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, name, start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part of it covered
    /// by its direct children.
    #[must_use]
    pub fn self_ns(&self, id: usize) -> u64 {
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = 0;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        self.spans[id].duration_ns().saturating_sub(covered)
    }

    /// The spans strictly below `root`, at any depth.
    #[must_use]
    pub fn descendants(&self, root: usize) -> Vec<&Span> {
        let mut inside = vec![false; self.spans.len()];
        inside[root] = true;
        let mut out = Vec::new();
        // Parents are recorded before their children, so one forward
        // sweep marks the whole subtree.
        for s in &self.spans[root + 1..] {
            if s.parent.is_some_and(|p| inside[p]) {
                inside[s.id] = true;
                out.push(s);
            }
        }
        out
    }

    /// Writes every span as one JSON object per line, after a header line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(s.id)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", |t| t.span("b", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            t.span("a", |_| std::thread::sleep(std::time::Duration::from_millis(3)));
            t.span("b", |t| {
                t.span("c", |_| std::thread::sleep(std::time::Duration::from_millis(3)))
            });
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        let children: u64 = s[1].duration_ns() + s[2].duration_ns();
        assert_eq!(t.self_ns(0), s[0].duration_ns() - children);
        assert_eq!(t.self_ns(2), s[2].duration_ns() - s[3].duration_ns());
        assert_eq!(t.descendants(0).len(), 3);
        assert_eq!(t.descendants(2).len(), 1);
    }
}
