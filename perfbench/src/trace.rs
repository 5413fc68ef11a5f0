//! Bench-side spans around calls into the program's layers. Spans are
//! kept in memory and written out once, at the end of the run.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::sys::cpu_us;

/// One timed call. `name` is `<layer>.<what>`, e.g. `simrt.simulate`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: usize,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
    pub cpu_us: f64,
}

impl Span {
    pub fn wall_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<(usize, f64)>,
    job: usize,
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(usize);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Start the spans of job `job`; its root span is named `job`.
    pub fn begin_job(&mut self, job: usize) -> Open {
        assert!(
            self.open.is_empty(),
            "a job span opened inside another span"
        );
        self.job = job;
        self.enter("job")
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().map(|&(p, _)| p),
            start_us: self.now_us(),
            end_us: 0.0,
            cpu_us: 0.0,
        });
        self.open.push((idx, cpu_us()));
        Open(idx)
    }

    pub fn exit(&mut self, span: Open) {
        let (idx, cpu0) = self.open.pop().expect("exit without an open span");
        assert_eq!(idx, span.0, "spans must close innermost first");
        let now = self.now_us();
        let s = &mut self.spans[idx];
        s.end_us = now;
        s.cpu_us = cpu_us() - cpu0;
    }

    /// Time `f` under a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name);
        let out = f();
        self.exit(s);
        out
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::wall_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.wall_us();
            }
        }
        own
    }

    /// Summed `(wall µs, calls)` per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += s.wall_us();
            e.1 += 1;
        }
        out
    }

    /// Summed `(wall µs, cpu µs)` of the spans of one layer.
    pub fn layer_totals(&self, layer: &str) -> (f64, f64) {
        self.spans
            .iter()
            .filter(|s| s.layer() == layer)
            .fold((0.0, 0.0), |(w, c), s| (w + s.wall_us(), c + s.cpu_us))
    }

    /// Share of the job spans' wall time that no layer span covers.
    pub fn unattributed_share(&self) -> f64 {
        let own = self.self_us();
        let (mut gap, mut total) = (0.0, 0.0);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == "job" {
                gap += own[i];
                total += s.wall_us();
            }
        }
        if total > 0.0 {
            gap / total
        } else {
            0.0
        }
    }

    /// Chrome-trace JSON of every span (one thread lane per job).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"cpu_us\":{:.3}}}}}",
                s.name,
                s.layer(),
                s.job,
                s.start_us,
                s.wall_us(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.cpu_us,
            ));
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let job = t.begin_job(1);
        t.time("simrt.simulate", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.time("core.hotspot", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(job);
        let own = t.self_us();
        assert_eq!(t.spans[1].parent, Some(0));
        let children = t.spans[1].wall_us() + t.spans[2].wall_us();
        assert!((own[0] - (t.spans[0].wall_us() - children)).abs() < 1e-6);
        assert!(t.unattributed_share() < 0.5);
        assert_eq!(t.layer_totals("simrt").0, t.spans[1].wall_us());
        assert!(t.chrome_trace().contains("\"cat\":\"core\""));
    }
}
