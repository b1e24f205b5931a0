//! Spans recorded from outside the program: one per call into a public
//! function of a layer, kept in memory and written to
//! `out/trace-<workload>.json` when the workload ends.
//!
//! The same seeded request sequence is replayed once per rung of the call
//! ladder, so the spans of request `req_id` share that id across rungs and
//! a lower rung's span names the span of the rung above as its `parent` —
//! the nesting the calls would have inside one request, reconstructed
//! from replays because the benchmark may not put spans inside the
//! program.

use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

/// Requests per rung that get spans written out; every request is still
/// timed and counted in the rung's medians.
pub const SPAN_REQS_PER_RUNG: u32 = 2000;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub req_id: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index (what children name
    /// as `parent`).
    pub fn record(
        &mut self,
        name: &'static str,
        req_id: u32,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            req_id,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        (self.spans.len() - 1) as u32
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One span per line inside a JSON array, so the file greps as well as
    /// it parses.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"req_id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                s.name, s.req_id, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_link_by_request_and_parent_and_the_file_parses() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let a = t.record("store.session", 7, NO_PARENT, epoch, epoch);
        let b = t.record("core.exec", 7, a, epoch, epoch);
        assert_eq!((a, b, t.len()), (0, 1, 2));
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.json");
        t.write(&path, "unit").expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        let v = crate::json::parse(&text).expect("valid JSON");
        let spans = v
            .get("spans")
            .and_then(crate::json::Json::as_arr)
            .expect("spans");
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[1].get("parent").and_then(crate::json::Json::as_f64),
            Some(0.0)
        );
        assert_eq!(spans[0].get("parent"), Some(&crate::json::Json::Null));
        std::fs::remove_dir_all(&dir).ok();
    }
}
