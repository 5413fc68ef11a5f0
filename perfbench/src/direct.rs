//! The driver path, run two ways: untraced through `driver::analyze`
//! exactly as the CLI runs it, and traced, replaying the same job layer
//! by layer through each layer's public functions with `driver::analyze`'s
//! parameters, reference runs and the parallel view under their own spans.

use std::collections::BTreeMap;

use collect::{embed, static_analysis};
use driver::Paradigm;
use perflow::paradigms::{
    contention_diagnosis, critical_path_paradigm, iterative_causal, mpi_profiler,
    scalability_analysis,
};
use perflow::{PerFlow, Report, RunBundle, RunHandle, RunHandleExt};
use progmodel::Program;
use simrt::RunConfig;

use crate::gen::{DirectJob, ServeKind, ServeSpec};
use crate::trace::Tracer;

/// The bundled program models a workload draws from, built in set-up.
pub type Programs = BTreeMap<&'static str, Program>;

pub fn programs(names: &[&'static str]) -> Programs {
    names
        .iter()
        .map(|&n| (n, driver::workload(n).expect("bundled workload")))
        .collect()
}

/// The main run's configuration, as the CLI and the daemon build it.
pub fn main_run_config(cfg: &driver::AnalysisConfig) -> RunConfig {
    RunConfig::new(cfg.ranks)
        .with_threads(cfg.threads)
        .with_seed(cfg.seed)
}

/// One job as the CLI runs it: profile, analyze, render.
pub fn analyze(
    pflow: &PerFlow,
    prog: &Program,
    job: &DirectJob,
) -> Result<(RunHandle, String), String> {
    let run = pflow
        .run(prog, &main_run_config(&job.cfg()))
        .map_err(|e| format!("{}: run failed: {e}", job.label()))?;
    let report = driver::analyze(pflow, prog, &run, job.paradigm, &job.cfg())
        .map_err(|e| format!("{}: {e}", job.label()))?
        .render();
    Ok((run, report))
}

/// What a served spec's report must be, computed through the driver on
/// the spec's run.
pub fn serve_reference(
    pflow: &PerFlow,
    prog: &Program,
    run: &RunHandle,
    spec: &ServeSpec,
) -> Result<String, String> {
    match &spec.kind {
        ServeKind::Paradigm(p) => driver::analyze(pflow, prog, run, *p, &spec.cfg())
            .map(|r| r.render())
            .map_err(|e| e.to_string()),
        ServeKind::Query(text) => driver::run_query(run, text)
            .map(|out| out.render_text())
            .map_err(|e| e.to_string()),
        ServeKind::Comm { retries } => comm_session(run, spec, *retries)
            .map(|out| out.report)
            .map_err(|e| e.to_string()),
    }
}

/// Work counts the traced replay reads off each layer's results, summed
/// over the replayed jobs.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub comm_records: f64,
    pub topdown_vertices: f64,
    pub parallel_vertices: f64,
    pub parallel_edges: f64,
    pub backtrack_vertices: f64,
    pub report_bytes: f64,
}

/// `PerFlow::run` split into its three calls.
fn traced_run(
    tr: &mut Tracer,
    counts: &mut Counts,
    prog: &Program,
    cfg: &RunConfig,
) -> Result<RunHandle, String> {
    let sp = tr.time("collect.static_pag", || static_analysis(prog));
    let data = tr
        .time("simrt.simulate", || simrt::simulate(prog, cfg))
        .map_err(|e| format!("run failed: {e}"))?;
    counts.comm_records += data.comm_records.len() as f64;
    Ok(RunBundle::new(
        tr.time("collect.embed", || embed(prog, sp, data)),
    ))
}

fn traced_parallel_view(tr: &mut Tracer, counts: &mut Counts, run: &RunHandle) {
    let (v, e) = tr.time("collect.parallel_view", || {
        let pv = run.parallel();
        (pv.num_vertices(), pv.num_edges())
    });
    counts.parallel_vertices += v as f64;
    counts.parallel_edges += e as f64;
}

fn traced_render(tr: &mut Tracer, counts: &mut Counts, report: &Report) -> String {
    let text = tr.time("report.render", || report.render());
    counts.report_bytes += text.len() as f64;
    text
}

/// A reference run's parallel view built inside a `core` span would be
/// charged to `core`: refuse the attribution instead. `driver::analyze`
/// frees the reference run before the report is rendered, so that is
/// timed too.
fn release_reference(tr: &mut Tracer, reference: RunHandle) -> Result<(), String> {
    if reference.parallel_built() {
        return Err("a reference run's parallel view was built inside a core span".into());
    }
    tr.time("collect.free", || drop(reference));
    Ok(())
}

/// `driver::analyze` for `paradigm` on an already-profiled `run`, layer by
/// layer. The parameters must stay those of `driver::analyze`; the digest
/// check against the untraced report catches any drift.
fn traced_paradigm(
    tr: &mut Tracer,
    counts: &mut Counts,
    pflow: &PerFlow,
    prog: &Program,
    run: &RunHandle,
    paradigm: Paradigm,
    cfg: &driver::AnalysisConfig,
) -> Result<Report, String> {
    let fail = |e: perflow::PerFlowError| e.to_string();
    Ok(match paradigm {
        Paradigm::MpiProfiler => tr.time("core.mpip", || mpi_profiler(run)),
        Paradigm::Hotspot => tr.time("core.hotspot", || {
            let hot = pflow.hotspot_detection(&run.vertices(), 15);
            pflow.report(&[&hot], &["name", "label", "debug-info", "time"])
        }),
        Paradigm::Scalability => {
            let small = traced_run(
                tr,
                counts,
                prog,
                &RunConfig::new(cfg.small_ranks).with_seed(cfg.seed),
            )?;
            traced_parallel_view(tr, counts, run);
            let (backtracked, report) = tr
                .time("core.scalability", || {
                    scalability_analysis(&small, run, 10, 0.2)
                        .map(|r| (r.backtrack_vertices.ids.len(), r.report))
                })
                .map_err(fail)?;
            release_reference(tr, small)?;
            counts.backtrack_vertices += backtracked as f64;
            report
        }
        Paradigm::CriticalPath => {
            traced_parallel_view(tr, counts, run);
            tr.time("core.critical_path", || {
                critical_path_paradigm(run, 10).map(|r| r.report)
            })
            .map_err(fail)?
        }
        Paradigm::Causal => {
            traced_parallel_view(tr, counts, run);
            tr.time("core.causal", || {
                iterative_causal(run, "MPI_*", 8, 5).map(|r| r.1)
            })
            .map_err(fail)?
        }
        Paradigm::Contention => {
            let fast = traced_run(
                tr,
                counts,
                prog,
                &RunConfig::new(cfg.ranks)
                    .with_threads(2)
                    .with_seed(cfg.seed),
            )?;
            traced_parallel_view(tr, counts, run);
            let report = tr
                .time("core.contention", || {
                    contention_diagnosis(&fast, run, 10).map(|r| r.report)
                })
                .map_err(fail)?;
            release_reference(tr, fast)?;
            report
        }
    })
}

/// `PerFlow::run` for a job's main run, traced.
pub fn traced_main_run(
    tr: &mut Tracer,
    counts: &mut Counts,
    prog: &Program,
    cfg: &driver::AnalysisConfig,
) -> Result<RunHandle, String> {
    let run = traced_run(tr, counts, prog, &main_run_config(cfg))?;
    counts.topdown_vertices += run.topdown().num_vertices() as f64;
    Ok(run)
}

/// The traced replay of one driver-path job. Returns the main run with
/// the rendered report so the caller frees it after the job span, as the
/// untraced path does after its report is in hand.
pub fn traced_job(
    tr: &mut Tracer,
    counts: &mut Counts,
    pflow: &PerFlow,
    prog: &Program,
    job: &DirectJob,
) -> Result<(RunHandle, String), String> {
    let run = traced_main_run(tr, counts, prog, &job.cfg())?;
    let report = traced_paradigm(tr, counts, pflow, prog, &run, job.paradigm, &job.cfg())?;
    let text = traced_render(tr, counts, &report);
    Ok((run, text))
}

/// The traced replay of a served spec on its (already profiled) run: what
/// the daemon's executor does on a cold path, without the daemon.
pub fn traced_serve_spec(
    tr: &mut Tracer,
    counts: &mut Counts,
    pflow: &PerFlow,
    prog: &Program,
    run: &RunHandle,
    spec: &ServeSpec,
) -> Result<String, String> {
    let cfg = spec.cfg();
    match &spec.kind {
        ServeKind::Paradigm(p) => {
            let report = traced_paradigm(tr, counts, pflow, prog, run, *p, &cfg)?;
            Ok(traced_render(tr, counts, &report))
        }
        ServeKind::Query(text) => {
            let (parsed, diagnostics) =
                tr.time("query.lint", || perflow::verify::lint_query_text(text));
            let query = parsed
                .filter(|_| !diagnostics.has_errors())
                .ok_or_else(|| {
                    format!(
                        "query rejected by static analysis ({})",
                        diagnostics.summary()
                    )
                })?;
            let report = tr
                .time("core.query", || perflow::execute_query(&query, run))
                .map_err(|e| format!("query execution failed: {e}"))?
                .into_report();
            let outcome = driver::QueryOutcome {
                query: text.to_string(),
                diagnostics,
                report: Some(report),
            };
            let text = tr.time("report.render", || outcome.render_text());
            counts.report_bytes += text.len() as f64;
            Ok(text)
        }
        ServeKind::Comm { retries } => {
            let out = tr
                .time("core.comm", || comm_session(run, spec, *retries))
                .map_err(|e| e.to_string())?;
            counts.report_bytes += out.report.len() as f64;
            Ok(out.report)
        }
    }
}

fn comm_session(
    run: &RunHandle,
    spec: &ServeSpec,
    retries: u32,
) -> Result<driver::CommAnalysisOutcome, driver::DriverError> {
    let res = driver::ResilienceConfig {
        retries: Some(retries),
        ..Default::default()
    };
    let ctx = driver::checkpoint_context(spec.workload, &spec.cfg(), run);
    driver::comm_analysis_session(run, &perflow::Obs::disabled(), &res, ctx)
}
