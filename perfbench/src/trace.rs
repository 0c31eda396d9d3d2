//! The benchmark's own spans, kept in memory around calls into the
//! program and written out when the run ends. Nothing here instruments
//! the program itself: a span either brackets a public call made from
//! this benchmark, or carries a duration the public API returned
//! (`StepStats` component times, journal `slice_end` times).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Job id on serve_mix.
    pub job: Option<u64>,
    /// Start relative to the tracer's epoch; `None` for a span whose
    /// duration came from the program rather than from a bench timer.
    pub start_ms: Option<f64>,
    pub dur_ms: f64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

/// Handle to an open span; `None` while tracing is off.
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Open `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|&(p, _)| p),
            job: None,
            start_ms: Some((now - self.epoch).as_secs_f64() * 1e3),
            dur_ms: 0.0,
        });
        self.open.push((id, now));
        Some(id)
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let (top, t0) = self.open.pop().expect("exit without enter");
        assert_eq!(top, id, "spans must close innermost first");
        self.spans[id].dur_ms = t0.elapsed().as_secs_f64() * 1e3;
    }

    /// Time `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Record a span whose duration is already known, under `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        job: Option<u64>,
        start_ms: Option<f64>,
        dur_ms: f64,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            job,
            start_ms,
            dur_ms,
        });
        Some(self.spans.len() - 1)
    }

    /// Milliseconds since the tracer's epoch for an instant taken by the
    /// caller.
    pub fn offset_ms(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e3
    }

    fn path(&self, mut i: usize) -> String {
        let mut parts = vec![self.spans[i].name];
        while let Some(p) = self.spans[i].parent {
            parts.push(self.spans[p].name);
            i = p;
        }
        parts.reverse();
        parts.join("/")
    }

    /// Self time per span path: each span's duration minus what its
    /// direct children cover, aggregated over every span with that path.
    /// Lines read `path count total_ms self_ms closure share`, where
    /// closure is children / total and share is total / parent total.
    pub fn report(&self) -> Vec<String> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.dur_ms;
            }
        }
        // path -> (count, total, children, parent path)
        let mut agg: BTreeMap<String, (usize, f64, f64, Option<String>)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e =
                agg.entry(self.path(i))
                    .or_insert((0, 0.0, 0.0, s.parent.map(|p| self.path(p))));
            e.0 += 1;
            e.1 += s.dur_ms;
            e.2 += child_ms[i];
        }
        let mut lines = vec![format!(
            "  {:<44} {:>6} {:>12} {:>12} {:>8} {:>8}",
            "span", "count", "total_ms", "self_ms", "closure", "share"
        )];
        let ratio = |num: f64, den: f64| {
            if num > 0.0 && den > 0.0 {
                format!("{:.4}", num / den)
            } else {
                "-".to_string()
            }
        };
        for (path, (count, total, children, parent)) in &agg {
            let parent_total = parent
                .as_ref()
                .and_then(|p| agg.get(p))
                .map_or(0.0, |pe| pe.1);
            lines.push(format!(
                "  {path:<44} {count:>6} {total:>12.3} {:>12.3} {:>8} {:>8}",
                total - children,
                ratio(*children, *total),
                ratio(*total, parent_total)
            ));
        }
        lines
    }

    /// Write every span as JSON.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:?}"));
        let mut text = String::from("{\"schema\": \"perfbench-spans/1\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                text,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {}, \"job\": {}, \"start_ms\": {}, \"dur_ms\": {:?}}}{}",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.job.map_or("null".to_string(), |j| j.to_string()),
                opt(s.start_ms),
                s.dur_ms,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        text.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Where a traced run writes its spans: `out/` beside this package's
/// manifest, inside the checkout the benchmark was built in.
pub fn out_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.json"))
}
