//! End-to-end benchmark of PerFlow.
//!
//! ```text
//! perfbench --workload profile|diagnose|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the seeded job list untraced for `S` seconds and
//! reports the end-to-end metrics. `--trace 1` runs the list untraced for
//! half the time, replays exactly those jobs with a bench-side span around
//! every call into a layer, and reports the per-layer metrics. Either way
//! every report is checked, the last stdout line is one JSON object, and
//! the exit code is non-zero when any check fails.

mod direct;
mod gen;
mod served;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use perflow::PerFlow;

use direct::{Counts, Programs};
use gen::{DirectJob, ServeOp, ServeSpec};
use served::{Served, Until};
use sys::{mean, quantile, Stopwatch};
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median. They are spaced
/// out so the median does not rest on one short stretch of machine state.
const SETUP_REPS: usize = 51;
const SETUP_SPACING: Duration = Duration::from_millis(10);
/// Share of the job wall time the traced replay may leave unattributed on
/// the driver-path workloads.
const MAX_UNATTRIBUTED: f64 = 0.10;
const PROFILE_HOTSPOT_QUERY: &str = "from vertices | score time | sort score desc nan_last \
     | top 15 | select name, label, debug-info, time";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Profile,
    Diagnose,
    Serve,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "profile" => Workload::Profile,
                    "diagnose" => Workload::Diagnose,
                    "serve" => Workload::Serve,
                    _ => return Err(format!("unknown workload {value}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported number.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value.
    n: usize,
}

#[derive(Default)]
struct Outcome {
    attempted: usize,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    trace: Option<Tracer>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            n,
        });
    }
}

/// Run `setup` [`SETUP_REPS`] times and keep the last result; returns it
/// with the median set-up time in seconds. Each earlier result goes to
/// `teardown` outside the timed section.
fn timed_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            teardown(previous);
            std::thread::sleep(SETUP_SPACING);
        }
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), quantile(&times, 0.5))
}

/// The end-to-end metrics every workload reports.
fn end_to_end(
    out: &mut Outcome,
    latencies_us: &[f64],
    window_s: f64,
    cpu_us: f64,
    setup_s: f64,
    rss_mib: f64,
) {
    let n = latencies_us.len();
    let jobs = n.max(1) as f64;
    out.metric("latency_p50_ms", quantile(latencies_us, 0.5) / 1e3, "ms", n);
    out.metric("latency_p90_ms", quantile(latencies_us, 0.9) / 1e3, "ms", n);
    out.metric("jobs_per_s", n as f64 / window_s, "1/s", n);
    out.metric("cpu_ms_per_job", cpu_us / 1e3 / jobs, "ms", n);
    out.metric("setup_s", setup_s, "s", SETUP_REPS);
    out.metric("peak_rss_mib", rss_mib, "MiB", 1);
}

// ---------------------------------------------------------------------------
// Driver path: profile and diagnose
// ---------------------------------------------------------------------------

struct DirectResult {
    latency_us: f64,
    cpu_us: f64,
    report: Option<String>,
}

/// The report a job must produce, checked outside its timed section.
fn check_direct(
    workload: Workload,
    job: &DirectJob,
    run: &perflow::RunHandle,
    report: &str,
) -> Result<(), String> {
    match workload {
        Workload::Profile if job.paradigm == driver::Paradigm::Hotspot => {
            // The paradigm and the equivalent query must agree exactly.
            let q = driver::run_query(run, PROFILE_HOTSPOT_QUERY).map_err(|e| e.to_string())?;
            match q.report.map(|r| r.render()) {
                Some(text) if text == report => Ok(()),
                _ => Err(format!(
                    "{}: hotspot report differs from its query",
                    job.label()
                )),
            }
        }
        Workload::Profile if report.contains("MPI_") => Ok(()),
        Workload::Profile => Err(format!("{}: mpiP report lists no MPI call", job.label())),
        _ => {
            let bug = gen::planted_bug(job.workload);
            if bug.iter().any(|b| report.contains(b)) {
                Ok(())
            } else {
                Err(format!("{}: report names none of {bug:?}", job.label()))
            }
        }
    }
}

/// Run whole decks of `jobs` until `seconds` have passed; only the
/// profile → analyze → render section of each job is timed.
fn timed_direct(
    workload: Workload,
    pflow: &PerFlow,
    progs: &Programs,
    jobs: &[DirectJob],
    deck: usize,
    seconds: f64,
    out: &mut Outcome,
) -> Vec<DirectResult> {
    let start = Instant::now();
    let mut results = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        if i % deck == 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        out.attempted += 1;
        let prog = &progs[job.workload];
        let w = Stopwatch::start();
        let analyzed = direct::analyze(pflow, prog, job);
        let (latency_us, cpu_us) = w.read();
        let report = match analyzed {
            Ok((run, report)) => match check_direct(workload, job, &run, &report) {
                Ok(()) => Some(report),
                Err(e) => {
                    out.errors.push(e);
                    None
                }
            },
            Err(e) => {
                out.errors.push(e);
                None
            }
        };
        results.push(DirectResult {
            latency_us,
            cpu_us,
            report,
        });
    }
    results
}

fn run_direct(workload: Workload, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (jobs, deck) = match workload {
        Workload::Profile => (gen::profile_jobs(args.seed, 100), 84),
        _ => (gen::diagnose_jobs(args.seed, 1000), 4),
    };
    let mut names: Vec<&'static str> = jobs[..deck].iter().map(|j| j.workload).collect();
    names.sort();
    names.dedup();
    let ((pflow, progs), setup_s) =
        timed_setup(|| (PerFlow::new(), direct::programs(&names)), drop);

    if !args.trace {
        let results = timed_direct(
            workload,
            &pflow,
            &progs,
            &jobs,
            deck,
            args.seconds,
            &mut out,
        );
        let done: Vec<&DirectResult> = results.iter().filter(|r| r.report.is_some()).collect();
        let lat: Vec<f64> = done.iter().map(|r| r.latency_us).collect();
        let window_s = results.iter().map(|r| r.latency_us).sum::<f64>() / 1e6;
        let cpu = results.iter().map(|r| r.cpu_us).sum::<f64>();
        let rss = sys::peak_rss_mib();
        end_to_end(&mut out, &lat, window_s, cpu, setup_s, rss);
        return out;
    }

    // Untraced half, then the same jobs replayed layer by layer.
    let untraced = timed_direct(
        workload,
        &pflow,
        &progs,
        &jobs,
        deck,
        args.seconds / 2.0,
        &mut out,
    );
    let n = untraced.len();
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let mut traced_wall = 0.0;
    for (i, (job, first)) in jobs[..n].iter().zip(&untraced).enumerate() {
        let root = tr.begin_job(i);
        let replay = direct::traced_job(&mut tr, &mut counts, &pflow, &progs[job.workload], job);
        tr.exit(root);
        let replay = replay.map(|(_run, text)| text);
        traced_wall += tr
            .spans
            .iter()
            .rev()
            .find(|s| s.name == "job")
            .map_or(0.0, |s| s.wall_us());
        match (replay, &first.report) {
            (Ok(text), Some(expected)) if driver::fnv_str(&text) != driver::fnv_str(expected) => {
                out.errors.push(format!(
                    "{}: traced report digest differs from driver::analyze",
                    job.label()
                ))
            }
            (Err(e), _) => out
                .errors
                .push(format!("{}: traced replay failed: {e}", job.label())),
            _ => {}
        }
    }
    let untraced_wall: f64 = untraced.iter().map(|r| r.latency_us).sum();
    per_layer(&mut out, &tr, &counts, n);
    let unattributed = tr.unattributed_share();
    if unattributed > MAX_UNATTRIBUTED {
        out.errors.push(format!(
            "layer spans leave {:.1}% of job wall time unattributed (limit {:.0}%)",
            100.0 * unattributed,
            100.0 * MAX_UNATTRIBUTED
        ));
    }
    serve_layer_absent(&mut out);
    out.metric("bench.unattributed_share", unattributed, "ratio", n);
    out.metric(
        "bench.trace_overhead_share",
        traced_wall / untraced_wall - 1.0,
        "ratio",
        n,
    );
    out.trace = Some(tr);
    out
}

/// simrt / collect / core / query / report metrics of a traced replay,
/// as means over the `jobs` replayed jobs.
fn per_layer(out: &mut Outcome, tr: &Tracer, c: &Counts, jobs: usize) {
    let per = jobs.max(1) as f64;
    let totals = tr.totals();
    let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.0) / 1e3 / per;
    let cpu_ratio = |layer: &str| {
        let (wall, cpu) = tr.layer_totals(layer);
        if wall > 0.0 {
            cpu / wall
        } else {
            0.0
        }
    };
    out.metric("simrt.simulate_ms", ms("simrt.simulate"), "ms", jobs);
    out.metric("simrt.comm_records", c.comm_records / per, "count", jobs);
    out.metric("simrt.cpu_ratio", cpu_ratio("simrt"), "ratio", jobs);
    out.metric(
        "collect.static_pag_ms",
        ms("collect.static_pag"),
        "ms",
        jobs,
    );
    out.metric("collect.embed_ms", ms("collect.embed"), "ms", jobs);
    out.metric(
        "collect.topdown_vertices",
        c.topdown_vertices / per,
        "count",
        jobs,
    );
    out.metric(
        "collect.parallel_view_ms",
        ms("collect.parallel_view"),
        "ms",
        jobs,
    );
    out.metric(
        "collect.parallel_vertices",
        c.parallel_vertices / per,
        "count",
        jobs,
    );
    out.metric(
        "collect.parallel_edges",
        c.parallel_edges / per,
        "count",
        jobs,
    );
    out.metric("collect.cpu_ratio", cpu_ratio("collect"), "ratio", jobs);
    out.metric("core.hotspot_ms", ms("core.hotspot"), "ms", jobs);
    out.metric("core.mpip_ms", ms("core.mpip"), "ms", jobs);
    out.metric("core.scalability_ms", ms("core.scalability"), "ms", jobs);
    out.metric(
        "core.backtrack_vertices",
        c.backtrack_vertices / per,
        "count",
        jobs,
    );
    out.metric("core.causal_ms", ms("core.causal"), "ms", jobs);
    out.metric(
        "core.critical_path_ms",
        ms("core.critical_path"),
        "ms",
        jobs,
    );
    out.metric("core.contention_ms", ms("core.contention"), "ms", jobs);
    out.metric("core.query_ms", ms("core.query"), "ms", jobs);
    out.metric("core.comm_ms", ms("core.comm"), "ms", jobs);
    out.metric("core.cpu_ratio", cpu_ratio("core"), "ratio", jobs);
    out.metric("query.lint_ms", ms("query.lint"), "ms", jobs);
    out.metric("report.render_ms", ms("report.render"), "ms", jobs);
    out.metric("report.bytes", c.report_bytes / per, "B", jobs);
}

/// The driver-path workloads never reach the daemon: its metrics read 0.
fn serve_layer_absent(out: &mut Outcome) {
    for (name, unit) in SERVE_METRICS {
        out.metric(name, 0.0, unit, 0);
    }
}

const SERVE_METRICS: [(&str, &str); 15] = [
    ("serve.submit_rtt_ms", "ms"),
    ("serve.poll_rtt_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.reject_rtt_ms", "ms"),
    ("serve.cached_latency_p50_ms", "ms"),
    ("serve.cold_latency_p50_ms", "ms"),
    ("serve.daemon_overhead_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.report_cache_hit_ratio", "ratio"),
    ("serve.report_cache_lookups", "count"),
    ("serve.run_cache_hit_ratio", "ratio"),
    ("serve.run_cache_lookups", "count"),
    ("serve.pass_cache_hit_ratio", "ratio"),
    ("serve.pass_cache_lookups", "count"),
];

// ---------------------------------------------------------------------------
// Serve
// ---------------------------------------------------------------------------

/// Every client's requests, measurements and first answers.
struct ClientRuns {
    served: Vec<Vec<Served>>,
    answers: served::Answers,
    window_s: f64,
    rss_mib: f64,
    tracer: Tracer,
}

fn drive(
    server: &serve::Server,
    ops: &[Vec<ServeOp>],
    until: &[Until],
    traced: bool,
) -> ClientRuns {
    let addr = server.local_addr();
    let rss = &served::RssProbe::default();
    let start = Instant::now();
    let per_client: Vec<(Vec<Served>, served::Answers, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = ops
            .iter()
            .zip(until)
            .enumerate()
            .map(|(c, (ops, &until))| {
                s.spawn(move || {
                    let mut tr = traced.then(Tracer::new);
                    let (served, answers) =
                        served::client_loop(addr, ops, until, tr.as_mut(), c * 1_000_000, rss);
                    (served, answers, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let mut runs = ClientRuns {
        served: Vec::new(),
        answers: served::Answers::new(),
        window_s,
        rss_mib: rss.mib(),
        tracer: Tracer::new(),
    };
    for (served, answers, tr) in per_client {
        runs.served.push(served);
        runs.answers.extend(answers);
        if let Some(tr) = tr {
            let base = runs.tracer.spans.len();
            runs.tracer.spans.extend(tr.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
    }
    runs
}

fn served_failures(out: &mut Outcome, runs: &ClientRuns) {
    for s in runs.served.iter().flatten() {
        out.attempted += 1;
        if let Some(e) = &s.error {
            out.errors.push(e.clone());
        }
    }
}

/// One run's specs, as served: `(spec, report)` pairs.
type RunSpecs<'a> = Vec<(&'a ServeSpec, &'a String)>;

/// Profile one run and compare each of its specs' served reports with the
/// direct driver's; with a tracer, through the traced replay as job `job`.
fn check_run(
    job: usize,
    specs: &RunSpecs,
    mut tr: Option<(&mut Tracer, &mut Counts)>,
) -> Vec<String> {
    let pflow = PerFlow::new();
    let prog = driver::workload(specs[0].0.workload).expect("bundled workload");
    let cfg = specs[0].0.cfg();
    let root = tr.as_mut().map(|(t, _)| t.begin_job(job));
    let run = match tr.as_mut() {
        Some((t, c)) => direct::traced_main_run(t, c, &prog, &cfg),
        None => pflow
            .run(&prog, &direct::main_run_config(&cfg))
            .map_err(|e| format!("run failed: {e}")),
    };
    let mut errors = Vec::new();
    for &(spec, served) in specs {
        let direct = run
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|run| match tr.as_mut() {
                Some((t, c)) => direct::traced_serve_spec(t, c, &pflow, &prog, run, spec),
                None => direct::serve_reference(&pflow, &prog, run, spec),
            });
        match direct {
            Ok(text) if &text == served => {}
            Ok(_) => errors.push(format!(
                "{spec:?}: served report differs from the direct driver"
            )),
            Err(e) => errors.push(format!("{spec:?}: direct driver failed: {e}")),
        }
    }
    if let (Some((t, _)), Some(root)) = (tr.as_mut(), root) {
        t.exit(root);
    }
    errors
}

/// Every distinct spec's served report must equal the direct-driver
/// report. Specs are grouped by run so each run is profiled once. Untraced,
/// the runs are split over at most `nproc` (and two) threads; traced, they
/// are replayed one job per run. Returns the number of runs.
fn check_against_driver(
    out: &mut Outcome,
    answers: &served::Answers,
    tr: Option<(&mut Tracer, &mut Counts)>,
) -> usize {
    let mut sorted: Vec<_> = answers.iter().collect();
    sorted.sort_by_key(|&(key, _)| key);
    let mut by_run: BTreeMap<(&str, u32, u64), RunSpecs> = BTreeMap::new();
    for (_, (spec, served)) in sorted {
        by_run
            .entry((spec.workload, spec.ranks, spec.seed))
            .or_default()
            .push((spec, served));
    }
    let runs: Vec<RunSpecs> = by_run.into_values().collect();
    let errors: Vec<String> = match tr {
        Some((t, c)) => {
            let mut errors = Vec::new();
            for (i, specs) in runs.iter().enumerate() {
                errors.extend(check_run(i, specs, Some((&mut *t, &mut *c))));
            }
            errors
        }
        None => {
            let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
            let runs = &runs;
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|k| {
                        s.spawn(move || {
                            runs.iter()
                                .skip(k)
                                .step_by(threads)
                                .flat_map(|specs| check_run(0, specs, None))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("check thread panicked"))
                    .collect()
            })
        }
    };
    for e in errors {
        out.errors.push(e);
    }
    runs.len()
}

fn run_serve(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let decks = (args.seconds * 60.0) as usize + 10;
    let ops: Vec<Vec<ServeOp>> = (0..served::CLIENTS)
        .map(|c| gen::serve_ops(args.seed, c, decks))
        .collect();
    let (server, setup_s) = timed_setup(served::start_server, |s| {
        s.shutdown();
    });
    println!(
        "serve: {} executor workers, {} closed-loop clients (one connection per request), poll interval {} us",
        served::EXECUTORS,
        served::CLIENTS,
        served::POLL_INTERVAL.as_micros()
    );

    let window = |secs: f64| {
        vec![Until::Deadline(Instant::now() + Duration::from_secs_f64(secs)); ops.len()]
    };
    if !args.trace {
        let cpu = Stopwatch::start();
        let runs = drive(&server, &ops, &window(args.seconds), false);
        let (_, cpu_us) = cpu.read();
        server.shutdown();
        served_failures(&mut out, &runs);
        let lat: Vec<f64> = runs
            .served
            .iter()
            .flatten()
            .filter(|s| s.error.is_none())
            .map(|s| s.latency_us)
            .collect();
        end_to_end(&mut out, &lat, runs.window_s, cpu_us, setup_s, runs.rss_mib);
        let checked = check_against_driver(&mut out, &runs.answers, None);
        println!(
            "serve: {} distinct specs over {checked} runs checked against the direct driver",
            runs.answers.len()
        );
        return out;
    }

    // Untraced half on one daemon; the same requests replayed with client
    // spans on a fresh daemon, so every cache starts equally cold.
    let untraced = drive(&server, &ops, &window(args.seconds / 2.0), false);
    server.shutdown();
    let counts: Vec<Until> = untraced
        .served
        .iter()
        .map(|s| Until::Count(s.len()))
        .collect();
    let server = served::start_server();
    let before = served::scrape(server.local_addr());
    let traced = drive(&server, &ops, &counts, true);
    let after = served::scrape(server.local_addr());
    server.shutdown();
    served_failures(&mut out, &untraced);
    served_failures(&mut out, &traced);

    let mut direct_tr = Tracer::new();
    let mut c = Counts::default();
    let runs = check_against_driver(&mut out, &traced.answers, Some((&mut direct_tr, &mut c)));
    per_layer(&mut out, &direct_tr, &c, runs);

    let all: Vec<&Served> = traced.served.iter().flatten().collect();
    let totals = traced.tracer.totals();
    let mean_ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.0 / t.1.max(1) as f64 / 1e3)
    };
    let submitted: Vec<&&Served> = all.iter().filter(|s| !s.rejected).collect();
    let n_sub = submitted.len();
    out.metric("serve.submit_rtt_ms", mean_ms("serve.submit"), "ms", n_sub);
    out.metric(
        "serve.poll_rtt_ms",
        mean_ms("serve.poll"),
        "ms",
        totals.get("serve.poll").map_or(0, |t| t.1),
    );
    let polls: Vec<f64> = submitted.iter().map(|s| s.polls as f64).collect();
    out.metric("serve.polls_per_job", mean(&polls), "count", n_sub);
    out.metric(
        "serve.reject_rtt_ms",
        mean_ms("serve.reject"),
        "ms",
        all.len() - n_sub,
    );
    let cached: Vec<f64> = all
        .iter()
        .filter(|s| s.cached)
        .map(|s| s.latency_us / 1e3)
        .collect();
    let cold: Vec<&&Served> = all.iter().filter(|s| s.cold).collect();
    let cold_ms: Vec<f64> = cold.iter().map(|s| s.latency_us / 1e3).collect();
    out.metric(
        "serve.cached_latency_p50_ms",
        quantile(&cached, 0.5),
        "ms",
        cached.len(),
    );
    out.metric(
        "serve.cold_latency_p50_ms",
        quantile(&cold_ms, 0.5),
        "ms",
        cold.len(),
    );
    let overhead: Vec<f64> = cold
        .iter()
        .map(|s| (s.latency_us - s.exec_us) / 1e3)
        .collect();
    out.metric(
        "serve.daemon_overhead_ms",
        mean(&overhead),
        "ms",
        cold.len(),
    );
    let qw: Vec<f64> = submitted.iter().map(|s| s.queue_wait_us / 1e3).collect();
    let ex: Vec<f64> = submitted.iter().map(|s| s.exec_us / 1e3).collect();
    out.metric("serve.queue_wait_ms", mean(&qw), "ms", n_sub);
    out.metric("serve.exec_ms", mean(&ex), "ms", n_sub);
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    for (ratio, lookups, hit, miss) in [
        (
            "serve.report_cache_hit_ratio",
            "serve.report_cache_lookups",
            "perflow_serve_report_cache_hit_total",
            "perflow_serve_report_cache_miss_total",
        ),
        (
            "serve.run_cache_hit_ratio",
            "serve.run_cache_lookups",
            "perflow_serve_run_cache_hit_total",
            "perflow_serve_run_cache_miss_total",
        ),
        (
            "serve.pass_cache_hit_ratio",
            "serve.pass_cache_lookups",
            "perflow_serve_pass_cache_hits",
            "perflow_serve_pass_cache_misses",
        ),
    ] {
        let (h, m) = (delta(hit), delta(miss));
        out.metric(
            ratio,
            if h + m > 0.0 { h / (h + m) } else { 0.0 },
            "ratio",
            (h + m) as usize,
        );
        out.metric(lookups, h + m, "count", (h + m) as usize);
    }
    out.metric(
        "bench.unattributed_share",
        traced.tracer.unattributed_share(),
        "ratio",
        all.len(),
    );
    let wall = |runs: &ClientRuns| {
        runs.served
            .iter()
            .flatten()
            .map(|s| s.latency_us)
            .sum::<f64>()
    };
    out.metric(
        "bench.trace_overhead_share",
        wall(&traced) / wall(&untraced) - 1.0,
        "ratio",
        all.len(),
    );
    let mut tr = traced.tracer;
    let base = tr.spans.len();
    tr.spans.extend(direct_tr.spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s.job += 10_000_000;
        s
    }));
    out.trace = Some(tr);
    out
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload profile|diagnose|serve --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {:?}, seed {}, {} s, trace {}, nproc {nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "program worker defaults (untouched): simrt min(ranks, nproc), collect static/embed nproc, \
         core scheduler nproc, serve daemon 4 (this run: {})",
        served::EXECUTORS
    );
    let out = match args.workload {
        Workload::Serve => run_serve(&args),
        w => run_direct(w, &args),
    };

    let failed = out.errors.len();
    for e in out.errors.iter().take(20) {
        println!("FAILED: {e}");
    }
    if !args.trace {
        println!(
            "metric failed_ratio = {:.6} ratio (n={})",
            failed as f64 / out.attempted.max(1) as f64,
            out.attempted
        );
    }
    for m in &out.metrics {
        println!("metric {} = {:.6} {} (n={})", m.name, m.value, m.unit, m.n);
    }
    if let Some(tr) = &out.trace {
        let dir = std::path::Path::new(".bench_build").join("perfbench");
        let path = dir.join(format!("trace-{:?}-{}.json", args.workload, args.seed).to_lowercase());
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.chrome_trace()))
        {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                tr.spans.len(),
                path.display()
            ),
            Err(e) => println!("trace: could not write {}: {e}", path.display()),
        }
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        out.attempted.max(1),
        failed,
        metrics.join(", ")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
