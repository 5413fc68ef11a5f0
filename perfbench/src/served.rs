//! The `serve` workload: an in-process `serve::Server` driven over real
//! sockets by closed-loop clients that poll each job at a fixed interval.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use serve::json::Json;
use serve::{Server, ServerConfig};

use crate::gen::{ServeOp, ServeSpec, SERVE_DECK};
use crate::trace::{Open, Tracer};

/// Executor workers of the daemon under test, and client connections
/// driving it: both at most `nproc` on the two-core machine the
/// benchmark is sized for.
pub const EXECUTORS: usize = 2;
pub const CLIENTS: u64 = 2;
/// Fixed pause between two status polls of one job; the first poll is
/// sent right after the 202.
pub const POLL_INTERVAL: Duration = Duration::from_micros(500);
/// The daemon keeps every job record, so its resident set grows with the
/// requests it has answered. `peak_rss_mib` is read once this many have
/// been answered, which makes runs of different throughput comparable.
pub const RSS_AFTER_REQUESTS: usize = 4000;

/// Reads the peak resident set when the clients together have been
/// answered [`RSS_AFTER_REQUESTS`] times.
#[derive(Default)]
pub struct RssProbe {
    answered: AtomicUsize,
    mib: OnceLock<f64>,
}

impl RssProbe {
    fn answered(&self) {
        // Relaxed: a plain count that publishes no other data.
        if self.answered.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_REQUESTS {
            let _ = self.mib.set(crate::sys::peak_rss_mib());
        }
    }

    /// The reading, or the peak so far when too few requests were answered.
    pub fn mib(&self) -> f64 {
        self.mib
            .get()
            .copied()
            .unwrap_or_else(crate::sys::peak_rss_mib)
    }
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: EXECUTORS,
        ..ServerConfig::default()
    }
}

/// Start a daemon and wait until it answers `GET /healthz`.
pub fn start_server() -> Server {
    let server = Server::start(server_config()).expect("start perflow-serve in process");
    let (status, _) = http(server.local_addr(), "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200, "daemon not healthy after start");
    server
}

/// One request on its own connection; the daemon closes it after the reply.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\n");
    match body {
        Some(b) => req.push_str(&format!("Content-Length: {}\r\n\r\n{b}", b.len())),
        None => req.push_str("\r\n"),
    }
    s.write_all(req.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("malformed status line in {raw:?}"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// What one served request measured and received.
#[derive(Debug, Clone, Default)]
pub struct Served {
    pub latency_us: f64,
    pub cold: bool,
    pub cached: bool,
    pub rejected: bool,
    pub polls: usize,
    pub queue_wait_us: f64,
    pub exec_us: f64,
    /// Why the outcome differs from the expected one, if it does.
    pub error: Option<String>,
}

/// Per-client record of the first answer to every spec.
pub type Answers = HashMap<String, (ServeSpec, String)>;

fn spec_key(spec: &ServeSpec) -> String {
    format!("{spec:?}")
}

fn check_rejection(status: u16, body: &str) -> Result<(), String> {
    if status != 400 {
        return Err(format!("invalid query answered {status}, expected 400"));
    }
    let diag = Json::parse(body).map_err(|e| format!("bad 400 body: {e}"))?;
    match diag.get("diagnostics") {
        Some(Json::Arr(items))
            if items.iter().any(|d| {
                d.get("code")
                    .and_then(Json::as_str)
                    .is_some_and(|c| c.starts_with("PF03"))
            }) =>
        {
            Ok(())
        }
        _ => Err(format!("400 without a PF03xx diagnostic: {body}")),
    }
}

fn span(tr: &mut Option<&mut Tracer>, name: &'static str) -> Option<Open> {
    tr.as_mut().map(|t| t.enter(name))
}

fn close(tr: &mut Option<&mut Tracer>, s: Option<Open>) {
    if let (Some(t), Some(s)) = (tr.as_mut(), s) {
        t.exit(s);
    }
}

/// Submit one request and poll it to a terminal state. With a tracer,
/// every round trip gets its own span.
fn run_op(
    addr: SocketAddr,
    op: &ServeOp,
    answers: &mut Answers,
    mut tr: Option<&mut Tracer>,
) -> Served {
    let t0 = Instant::now();
    let mut out = Served {
        cold: op.is_cold(),
        ..Served::default()
    };
    let (path, body) = op.spec().request();
    let result: Result<(), String> = (|| {
        if let ServeOp::Invalid(_) = op {
            let s = span(&mut tr, "serve.reject");
            let (status, reply) = http(addr, "POST", path, Some(&body))?;
            close(&mut tr, s);
            out.rejected = true;
            return check_rejection(status, &reply);
        }
        let s = span(&mut tr, "serve.submit");
        let (status, reply) = http(addr, "POST", path, Some(&body))?;
        close(&mut tr, s);
        if status != 202 {
            return Err(format!("submission answered {status}: {reply}"));
        }
        let id = Json::parse(&reply)
            .ok()
            .and_then(|j| j.get("id").and_then(Json::as_u64))
            .ok_or_else(|| format!("202 without a job id: {reply}"))?;
        let job = loop {
            let s = span(&mut tr, "serve.poll");
            let (status, reply) = http(addr, "GET", &format!("/jobs/{id}"), None)?;
            close(&mut tr, s);
            out.polls += 1;
            let s = span(&mut tr, "bench.parse");
            let job = Json::parse(&reply).map_err(|e| format!("bad status JSON: {e}"))?;
            close(&mut tr, s);
            if status != 200 {
                return Err(format!("status poll answered {status}: {reply}"));
            }
            match job.get("status").and_then(Json::as_str) {
                Some("done") => break job,
                Some("failed") => {
                    return Err(format!(
                        "job failed: {}",
                        job.get("error").and_then(Json::as_str).unwrap_or("?")
                    ))
                }
                _ => {
                    let s = span(&mut tr, "bench.poll_sleep");
                    std::thread::sleep(POLL_INTERVAL);
                    close(&mut tr, s);
                }
            }
        };
        let report = job
            .get("report")
            .and_then(Json::as_str)
            .ok_or("done job without a report")?;
        out.cached = job.get("cached").and_then(Json::as_bool).unwrap_or(false);
        let metric = |k: &str| {
            job.get("metrics")
                .and_then(|m| m.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        out.queue_wait_us = metric("queue_wait_us");
        out.exec_us = metric("exec_us");
        let key = spec_key(op.spec());
        match answers.get(&key) {
            Some((_, first)) => {
                if !out.cached {
                    return Err("a repeated spec was not answered from the report cache".into());
                }
                if first != report {
                    return Err("cached answer differs from the cold answer".into());
                }
            }
            None => {
                if matches!(op, ServeOp::Resubmit(_)) {
                    return Err("resubmission of a spec never answered".into());
                }
                answers.insert(key, (op.spec().clone(), report.to_string()));
            }
        }
        Ok(())
    })();
    out.latency_us = t0.elapsed().as_secs_f64() * 1e6;
    out.error = result.err();
    out
}

/// When a client stops: after the deck in progress once the deadline has
/// passed, or after exactly `n` requests when replaying an earlier run.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    Count(usize),
}

/// One client's closed loop over its own request stream.
pub fn client_loop(
    addr: SocketAddr,
    ops: &[ServeOp],
    until: Until,
    mut tr: Option<&mut Tracer>,
    job_base: usize,
    rss: &RssProbe,
) -> (Vec<Served>, Answers) {
    let deck: usize = SERVE_DECK.iter().map(|&(_, n)| n).sum();
    let mut answers = Answers::new();
    let mut done = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let stop = match until {
            Until::Count(n) => i == n,
            Until::Deadline(t) => i % deck == 0 && Instant::now() >= t,
        };
        if stop {
            break;
        }
        let job = tr.as_mut().map(|t| t.begin_job(job_base + i));
        done.push(run_op(addr, op, &mut answers, tr.as_deref_mut()));
        rss.answered();
        if let (Some(t), Some(j)) = (tr.as_mut(), job) {
            t.exit(j);
        }
    }
    (done, answers)
}

/// Counter and gauge values of a Prometheus scrape, by metric name.
pub fn scrape(addr: SocketAddr) -> HashMap<String, f64> {
    let (_, text) = http(addr, "GET", "/metrics", None).expect("scrape /metrics");
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}
