//! The discrete-event engine: per-rank interpreters plus a central
//! communication matcher, organised as a *phase-based* scheduler so the
//! ranks can be simulated on a worker pool.
//!
//! Each rank interprets the program with an explicit frame stack and a
//! virtual clock. A *segment* runs one rank until it blocks — on a
//! blocking receive, a rendezvous send, an `MPI_Wait(all)` whose request
//! is unmatched, or a collective. Segments touch only rank-local state:
//! the rank's [`RankState`], its own [`Collector`] shard (with its own
//! CCT), and a buffer of *effects* (channel posts, collective arrivals)
//! to be published later. Between phases the scheduler — always a single
//! thread — applies the buffered effects in rank order, pairs
//! point-to-point operations per `(src, dst, tag)` channel (eager below
//! the threshold, rendezvous above), completes collectives when every
//! live rank arrived, and resolves blocked ranks. Because segments are
//! independent and every cross-rank step is serial and rank-ordered, the
//! result is bit-identical whether the segments of a phase run one at a
//! time or concurrently on the pool ([`RunConfig::sim_workers`]).
//!
//! If neither the segment phase nor resolution makes progress the program
//! has deadlocked and the engine reports which ranks block where (after
//! the quiescence watchdog gives pending injected faults a last chance to
//! fire).
//!
//! Everything observable — samples, comm/lock records, message edges,
//! traces — flows through the per-rank [`Collector`] shards, which
//! [`merge_shards`] folds back into one [`RunData`] in rank order.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use progmodel::{CallTarget, CommOp, EvalCtx, FxHashMap, Program, Stmt, StmtId, StmtKind};

use crate::cct::{CtxFrame, CtxId};
use crate::collector::{merge_shards, Collector};
use crate::config::RunConfig;
use crate::faults::{fault_roll, FaultStream};
use crate::net::collective_cost;
use crate::record::{CommKindTag, CommRecord, LockRecord, MsgEdge, RankStatus, RunData};
use crate::threads::run_thread_region;

pub use crate::error::SimError;

const MAX_CALL_DEPTH: usize = 256;

/// Simulate one run of `prog` under `cfg`.
///
/// With an injected crash in `cfg.faults` the run still returns `Ok`:
/// surviving ranks complete (fail-fast notified of dead peers, collectives
/// shrunk to the survivors) and [`RunData::rank_status`] records who died
/// when. An injected hang instead returns [`SimError::Hang`] with the
/// hung ranks, the ranks blocked behind them and the virtual time — the
/// quiescence watchdog's triage of an otherwise silent stall.
pub fn simulate(prog: &Program, cfg: &RunConfig) -> Result<RunData, SimError> {
    // Span measures host wall-clock only; the simulation's virtual clocks
    // and all collected data are unaffected by observation.
    let _span = cfg.obs.span(obs::Layer::Simrt, "simulate", 0);
    let params: FxHashMap<String, f64> = prog
        .default_params
        .iter()
        .chain(&cfg.params)
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    let mut engine = Engine::new(prog, cfg, params);
    engine.run()?;
    Ok(engine.finish())
}

// ------------------------------------------------------------------ state

/// A posted, not-yet-consumed request (Isend/Irecv).
#[derive(Debug, Clone)]
struct Req {
    kind: CommKindTag,
    peer: u32,
    bytes: u64,
    post: f64,
    completion: Option<f64>,
    /// Matched remote side (rank, stmt, ctx) once known.
    matched: Option<(u32, StmtId, CtxId)>,
    /// Still listed in `outstanding`.
    live: bool,
}

#[derive(Debug)]
enum FrameKind {
    /// The entry function's body or a taken branch body.
    Body,
    /// A called function's body; only these count toward `call_depth`.
    Call,
    Loop {
        trips: u64,
        cur: u64,
    },
}

#[derive(Debug)]
struct Frame<'p> {
    stmts: &'p [Stmt],
    idx: usize,
    ctx: CtxId,
    /// Start of this frame's `stmts.len()` child-context slots in
    /// [`RankState::slots`].
    slots: usize,
    kind: FrameKind,
}

#[derive(Debug, Clone)]
enum BlockInfo {
    /// Blocking send or recv; the matcher fills `resume`.
    P2p {
        kind: CommKindTag,
        ctx: CtxId,
        stmt: StmtId,
        peer: u32,
        bytes: u64,
        post: f64,
        /// Remote (rank, stmt, ctx) filled by the matcher.
        matched: Option<(u32, StmtId, CtxId)>,
    },
    /// Waiting for one request slot.
    Wait {
        slot: usize,
        ctx: CtxId,
        stmt: StmtId,
        post: f64,
    },
    /// Waiting for all outstanding requests.
    Waitall { ctx: CtxId, stmt: StmtId, post: f64 },
    /// Waiting for a collective instance.
    Coll {
        inst: u64,
        ctx: CtxId,
        stmt: StmtId,
        post: f64,
        kind: CommKindTag,
        bytes: u64,
    },
}

impl BlockInfo {
    fn stmt(&self) -> StmtId {
        match self {
            BlockInfo::P2p { stmt, .. }
            | BlockInfo::Wait { stmt, .. }
            | BlockInfo::Waitall { stmt, .. }
            | BlockInfo::Coll { stmt, .. } => *stmt,
        }
    }
}

#[derive(Debug)]
struct Blocked {
    resume: Option<f64>,
    info: BlockInfo,
}

/// Fault-injection health of one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Health {
    /// Running normally.
    Ok,
    /// Crashed (injected) at the given virtual time.
    Crashed(f64),
    /// Stopped progressing at the given virtual time: an injected hang,
    /// or (`injected: false`) a survivor stuck forever behind a crash.
    Hung {
        at: f64,
        stmt: Option<StmtId>,
        injected: bool,
    },
}

impl Health {
    fn is_ok(self) -> bool {
        matches!(self, Health::Ok)
    }
}

struct RankState<'p> {
    rank: u32,
    clock: f64,
    frames: Vec<Frame<'p>>,
    /// Per-statement child contexts of every live frame, stacked like
    /// `frames` and filled on a statement's first visit, so a loop body
    /// interns its contexts once rather than once per trip. Interning
    /// still happens at first visit, so CCT ids keep first-visit order.
    slots: Vec<Option<CtxId>>,
    iters: Vec<u64>,
    reqs: Vec<Req>,
    outstanding: Vec<usize>,
    coll_seq: u64,
    blocked: Option<Blocked>,
    done: bool,
    call_depth: usize,
    health: Health,
}

impl<'p> RankState<'p> {
    /// Enter `stmts` under context `ctx`, with empty child-context slots.
    fn push_frame(&mut self, stmts: &'p [Stmt], ctx: CtxId, kind: FrameKind) {
        let slots = self.slots.len();
        self.slots.resize(slots + stmts.len(), None);
        self.frames.push(Frame {
            stmts,
            idx: 0,
            ctx,
            slots,
            kind,
        });
    }

    /// Leave the innermost frame, releasing its slots.
    fn pop_frame(&mut self) {
        if let Some(frame) = self.frames.pop() {
            self.slots.truncate(frame.slots);
        }
    }
}

#[derive(Debug, Clone)]
struct SendInst {
    rank: u32,
    stmt: StmtId,
    ctx: CtxId,
    post: f64,
    bytes: u64,
    eager: bool,
    /// Sender request slot (`None` for a blocking send).
    req_slot: Option<usize>,
}

#[derive(Debug, Clone)]
struct RecvInst {
    rank: u32,
    stmt: StmtId,
    ctx: CtxId,
    post: f64,
    /// Receiver request slot (`None` for a blocking recv).
    req_slot: Option<usize>,
}

#[derive(Default)]
struct Channel {
    sends: VecDeque<SendInst>,
    recvs: VecDeque<RecvInst>,
    /// Last scheduler round that published a post here.
    round: u64,
}

struct CollInst {
    kind: CommKindTag,
    bytes: u64,
    posts: Vec<(u32, f64, CtxId, StmtId)>,
    completion: Option<f64>,
    /// The last arriver's post, fixed when the instance completes.
    late: Option<(u32, f64, CtxId, StmtId)>,
    /// Last scheduler round that published a post here.
    round: u64,
}

/// A cross-rank action buffered during a segment and published by the
/// scheduler between phases, in rank order — so the channel/collective
/// state evolves identically no matter how segments were scheduled.
enum Effect {
    Send {
        key: (u32, u32, u32),
        inst: SendInst,
    },
    Recv {
        key: (u32, u32, u32),
        inst: RecvInst,
    },
    Coll {
        inst: u64,
        kind: CommKindTag,
        bytes: u64,
        rank: u32,
        post: f64,
        ctx: CtxId,
        stmt: StmtId,
    },
}

/// Everything one rank's segment may touch: its interpreter state, its
/// collector shard, its buffered effects and a deferred error slot.
struct RankCtx<'p> {
    state: RankState<'p>,
    shard: Collector,
    effects: Vec<Effect>,
    error: Option<SimError>,
}

/// Matcher state owned by the (single-threaded) inter-phase scheduler.
#[derive(Default)]
struct Shared {
    channels: FxHashMap<(u32, u32, u32), Channel>,
    /// Per-channel match counters keying the message-drop fault stream
    /// (the match sequence *within* a channel is deterministic; the
    /// global interleaving across channels is not).
    chan_matches: FxHashMap<(u32, u32, u32), u64>,
    collectives: FxHashMap<u64, CollInst>,
    /// Cross-rank dependence edges; each endpoint's context lives in
    /// that endpoint rank's shard until the final merge remaps them.
    msg_edges: Vec<MsgEdge>,
    retransmits: u64,
}

struct Engine<'p> {
    prog: &'p Program,
    cfg: &'p RunConfig,
    params: FxHashMap<String, f64>,
    rankctxs: Vec<Mutex<RankCtx<'p>>>,
    shared: Shared,
}

enum StepOutcome {
    Progress,
    Blocked,
    Done,
}

// ------------------------------------------------------- rank-local ops

/// Kill a rank at virtual time `at` (rank-local part; the scheduler's
/// crash sweep handles peer notification).
fn crash_state(state: &mut RankState<'_>, at: f64) {
    state.health = Health::Crashed(at);
    state.clock = at;
    state.blocked = None;
    state.frames.clear();
    state.slots.clear();
}

/// Stop a rank from progressing at virtual time `at` without killing it
/// ([`Health::Hung`]). `injected` distinguishes a planned hang from a
/// survivor derived-stalled behind a crash.
fn stall_state(state: &mut RankState<'_>, at: f64, injected: bool) {
    let stmt = state.blocked.as_ref().map(|b| b.info.stmt()).or_else(|| {
        state
            .frames
            .last()
            .and_then(|f| f.stmts.get(f.idx))
            .map(|s| s.id)
    });
    state.health = Health::Hung { at, stmt, injected };
    state.clock = state.clock.max(at);
    state.blocked = None;
}

fn push_req(
    state: &mut RankState<'_>,
    kind: CommKindTag,
    peer: u32,
    bytes: u64,
    post: f64,
) -> usize {
    let slot = state.reqs.len();
    state.reqs.push(Req {
        kind,
        peer,
        bytes,
        post,
        completion: None,
        matched: None,
        live: true,
    });
    state.outstanding.push(slot);
    slot
}

// ------------------------------------------------------------- segments

/// Read-only context for running one rank's segment. Holds the phase's
/// crash *snapshot*: a rank crashing mid-phase becomes visible to its
/// peers only at the next phase boundary, which keeps segments
/// order-independent.
struct SegCtx<'a, 'p> {
    prog: &'p Program,
    cfg: &'a RunConfig,
    params: &'a FxHashMap<String, f64>,
    crashed: &'a [AtomicBool],
}

impl<'a, 'p> SegCtx<'a, 'p> {
    /// Run one rank until it blocks, finishes, faults or errors.
    fn run_segment(&self, rc: &mut RankCtx<'p>) {
        let t0 = self.cfg.obs.now_us();
        loop {
            // A scheduled crash/hang fires at the first event boundary at
            // or after its virtual time.
            if self.apply_rank_fault(rc) {
                break;
            }
            match self.step(rc) {
                Ok(StepOutcome::Progress) => continue,
                Ok(StepOutcome::Blocked | StepOutcome::Done) => break,
                Err(e) => {
                    rc.error = Some(e);
                    break;
                }
            }
        }
        if self.cfg.obs.is_enabled() {
            self.cfg.obs.record_span(
                obs::Layer::Simrt,
                "segment",
                rc.state.rank,
                t0,
                self.cfg.obs.now_us(),
                &[("vclock_us", rc.state.clock)],
            );
            self.cfg.obs.count("simrt.segments", 1);
        }
    }

    /// Apply a scheduled crash/hang if the rank's clock reached the fault
    /// time. Returns whether a fault was applied.
    fn apply_rank_fault(&self, rc: &mut RankCtx<'p>) -> bool {
        if rc.state.done || !rc.state.health.is_ok() {
            return false;
        }
        let rank = rc.state.rank;
        if let Some(&t) = self.cfg.faults.crash.get(&rank) {
            if rc.state.clock >= t {
                let at = rc.state.clock.max(t);
                crash_state(&mut rc.state, at);
                return true;
            }
        }
        if let Some(&t) = self.cfg.faults.hang.get(&rank) {
            if rc.state.clock >= t {
                let at = rc.state.clock.max(t);
                stall_state(&mut rc.state, at, true);
                return true;
            }
        }
        false
    }

    /// True when `rank` was crashed as of the start of this phase.
    fn is_crashed(&self, rank: u32) -> bool {
        self.crashed[rank as usize].load(Ordering::Relaxed)
    }

    fn ectx<'s>(&'s self, state: &'s RankState<'p>) -> EvalCtx<'s> {
        EvalCtx {
            rank: state.rank,
            nranks: self.cfg.nranks,
            thread: 0,
            nthreads: self.cfg.nthreads,
            iters: &state.iters,
            params: self.params,
            seed: self.cfg.seed,
        }
    }

    /// Advance the rank's clock by `dt`, attributing the interval to
    /// `ctx`. Fired samples charge their handler cost to the clock — the
    /// observer effect the Table-1 overhead experiment measures.
    fn advance(&self, rc: &mut RankCtx<'p>, dt: f64, ctx: CtxId) {
        debug_assert!(dt >= 0.0);
        let t0 = rc.state.clock;
        let t1 = t0 + dt;
        let fired = rc.shard.account(rc.state.rank, 0, ctx, t0, t1);
        rc.state.clock = t1 + fired as f64 * rc.shard.sample_cost_us();
    }

    /// Execute one step of the rank. Must only be called when unblocked.
    fn step(&self, rc: &mut RankCtx<'p>) -> Result<StepOutcome, SimError> {
        // Handle frame exhaustion / loop iteration.
        loop {
            let frame = match rc.state.frames.last() {
                Some(f) => f,
                None => {
                    rc.state.done = true;
                    return Ok(StepOutcome::Done);
                }
            };
            if frame.idx < frame.stmts.len() {
                break;
            }
            let frame = rc.state.frames.last_mut().unwrap();
            match &mut frame.kind {
                FrameKind::Loop { trips, cur } if *cur + 1 < *trips => {
                    *cur += 1;
                    frame.idx = 0;
                    let cur = *cur;
                    *rc.state.iters.last_mut().unwrap() = cur;
                }
                FrameKind::Loop { .. } => {
                    rc.state.iters.pop();
                    rc.state.pop_frame();
                }
                FrameKind::Body => {
                    rc.state.pop_frame();
                }
                FrameKind::Call => {
                    rc.state.pop_frame();
                    rc.state.call_depth -= 1;
                }
            }
            if rc.state.frames.is_empty() {
                rc.state.done = true;
                return Ok(StepOutcome::Done);
            }
        }

        let frame = rc.state.frames.last().unwrap();
        let stmt: &'p Stmt = &frame.stmts[frame.idx];
        let slot = &mut rc.state.slots[frame.slots + frame.idx];
        let ctx = *slot
            .get_or_insert_with(|| rc.shard.data.cct.child(frame.ctx, CtxFrame::Stmt(stmt.id)));

        match &stmt.kind {
            StmtKind::Compute { cost_us, pmu, .. } => {
                let slow = self
                    .cfg
                    .rank_slowdown
                    .get(&rc.state.rank)
                    .copied()
                    .unwrap_or(1.0);
                let dt = cost_us.eval(&self.ectx(&rc.state)).max(0.0) * slow;
                let t0 = rc.state.clock;
                self.advance(rc, dt, ctx);
                rc.shard.pmu(ctx, dt, pmu);
                let rank = rc.state.rank;
                rc.shard.trace(rank, stmt.id, t0, t0 + dt);
                rc.state.clock += rc.shard.trace_probe_cost_us();
                rc.state.frames.last_mut().unwrap().idx += 1;
                Ok(StepOutcome::Progress)
            }
            StmtKind::Loop { trips, body, .. } => {
                let n = trips.eval_u64(&self.ectx(&rc.state));
                rc.state.frames.last_mut().unwrap().idx += 1;
                if n > 0 {
                    rc.state.iters.push(0);
                    rc.state
                        .push_frame(body, ctx, FrameKind::Loop { trips: n, cur: 0 });
                }
                Ok(StepOutcome::Progress)
            }
            StmtKind::Branch {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let taken = cond.eval(&self.ectx(&rc.state)) != 0.0;
                rc.state.frames.last_mut().unwrap().idx += 1;
                let body = if taken { then_body } else { else_body };
                if !body.is_empty() {
                    rc.state.push_frame(body, ctx, FrameKind::Body);
                }
                Ok(StepOutcome::Progress)
            }
            StmtKind::Call { target } => {
                if rc.state.call_depth >= MAX_CALL_DEPTH {
                    return Err(SimError::StackOverflow { stmt: stmt.id });
                }
                let fid = match target {
                    CallTarget::Static(f) => *f,
                    CallTarget::Indirect {
                        candidates,
                        selector,
                    } => {
                        let idx =
                            selector.eval_u64(&self.ectx(&rc.state)) as usize % candidates.len();
                        let fid = candidates[idx];
                        rc.shard.indirect(stmt.id, fid);
                        fid
                    }
                };
                let fctx = rc.shard.data.cct.child(ctx, CtxFrame::Func(fid));
                rc.state.frames.last_mut().unwrap().idx += 1;
                rc.state.call_depth += 1;
                rc.state
                    .push_frame(&self.prog.function(fid).body, fctx, FrameKind::Call);
                Ok(StepOutcome::Progress)
            }
            StmtKind::ThreadRegion { threads, body } => {
                let t = threads.eval_u64(&self.ectx(&rc.state)).max(1) as u32;
                let start = rc.state.clock;
                let iters = rc.state.iters.clone();
                let slow = self
                    .cfg
                    .rank_slowdown
                    .get(&rc.state.rank)
                    .copied()
                    .unwrap_or(1.0);
                let end = run_thread_region(
                    self.prog,
                    body,
                    ctx,
                    start,
                    rc.state.rank,
                    self.cfg.nranks,
                    t,
                    self.params,
                    self.cfg.seed,
                    &iters,
                    slow,
                    &mut rc.shard,
                )?;
                rc.state.clock = end;
                rc.state.frames.last_mut().unwrap().idx += 1;
                Ok(StepOutcome::Progress)
            }
            StmtKind::Lock { lock, hold_us, .. } => {
                // Rank-level lock: no intra-process contention (single
                // thread), but still recorded for completeness.
                let hold = hold_us.eval(&self.ectx(&rc.state)).max(0.0);
                let t0 = rc.state.clock;
                self.advance(rc, hold, ctx);
                let rank = rc.state.rank;
                rc.shard.lock(LockRecord {
                    rank,
                    thread: 0,
                    ctx,
                    stmt: stmt.id,
                    lock: lock.0,
                    request: t0,
                    acquire: t0,
                    release: t0 + hold,
                    blocked_by: None,
                });
                rc.shard.trace(rank, stmt.id, t0, t0 + hold);
                rc.state.frames.last_mut().unwrap().idx += 1;
                Ok(StepOutcome::Progress)
            }
            StmtKind::Comm(op) => self.step_comm(rc, stmt, ctx, op),
        }
    }

    // ---------------------------------------------------- communication

    fn eval_peer(
        &self,
        rc: &RankCtx<'p>,
        e: &progmodel::Expr,
        stmt: StmtId,
    ) -> Result<u32, SimError> {
        let v = e.eval(&self.ectx(&rc.state)).round() as i64;
        if v < 0 || v >= self.cfg.nranks as i64 {
            return Err(SimError::BadPeer {
                stmt,
                peer: v,
                nranks: self.cfg.nranks,
            });
        }
        Ok(v as u32)
    }

    /// Complete a point-to-point operation addressed to a crashed peer
    /// immediately as failed (fail-fast notification): the survivor must
    /// not block on a rank that can never answer.
    #[allow(clippy::too_many_arguments)]
    fn fail_fast_p2p(
        &self,
        rc: &mut RankCtx<'p>,
        kind: CommKindTag,
        ctx: CtxId,
        stmt: StmtId,
        peer: u32,
        bytes: u64,
        nonblocking: bool,
    ) {
        let overhead = self.cfg.network.op_overhead_us;
        let post = rc.state.clock;
        if nonblocking {
            let slot = push_req(&mut rc.state, kind, peer, bytes, post);
            rc.state.reqs[slot].completion = Some(post + overhead);
        }
        let rank = rc.state.rank;
        self.advance(rc, overhead, ctx);
        rc.shard.comm(CommRecord {
            rank,
            ctx,
            stmt,
            kind,
            peer,
            bytes,
            post,
            complete: post + overhead,
            wait: 0.0,
        });
        rc.shard.trace(rank, stmt, post, post + overhead);
        rc.state.frames.last_mut().unwrap().idx += 1;
    }

    fn step_comm(
        &self,
        rc: &mut RankCtx<'p>,
        stmt: &'p Stmt,
        ctx: CtxId,
        op: &'p CommOp,
    ) -> Result<StepOutcome, SimError> {
        let rank = rc.state.rank;
        // PMPI wrapper / trace-event cost of intercepting this call.
        rc.state.clock += rc.shard.comm_call_cost_us();
        let net = &self.cfg.network;
        let overhead = net.op_overhead_us;
        match op {
            CommOp::Isend { peer, bytes, tag } => {
                let peer = self.eval_peer(rc, peer, stmt.id)?;
                let bytes = bytes.eval_u64(&self.ectx(&rc.state));
                if self.is_crashed(peer) {
                    self.fail_fast_p2p(rc, CommKindTag::Isend, ctx, stmt.id, peer, bytes, true);
                    return Ok(StepOutcome::Progress);
                }
                let post = rc.state.clock;
                let eager = bytes <= net.eager_threshold;
                let slot = push_req(&mut rc.state, CommKindTag::Isend, peer, bytes, post);
                if eager {
                    rc.state.reqs[slot].completion = Some(post + overhead);
                }
                rc.effects.push(Effect::Send {
                    key: (rank, peer, *tag),
                    inst: SendInst {
                        rank,
                        stmt: stmt.id,
                        ctx,
                        post,
                        bytes,
                        eager,
                        req_slot: Some(slot),
                    },
                });
                self.advance(rc, overhead, ctx);
                rc.shard.comm(CommRecord {
                    rank,
                    ctx,
                    stmt: stmt.id,
                    kind: CommKindTag::Isend,
                    peer,
                    bytes,
                    post,
                    complete: post + overhead,
                    wait: 0.0,
                });
                rc.shard.trace(rank, stmt.id, post, post + overhead);
                rc.state.frames.last_mut().unwrap().idx += 1;
                Ok(StepOutcome::Progress)
            }
            CommOp::Irecv { peer, bytes, tag } => {
                let peer = self.eval_peer(rc, peer, stmt.id)?;
                let bytes = bytes.eval_u64(&self.ectx(&rc.state));
                if self.is_crashed(peer) {
                    self.fail_fast_p2p(rc, CommKindTag::Irecv, ctx, stmt.id, peer, bytes, true);
                    return Ok(StepOutcome::Progress);
                }
                let post = rc.state.clock;
                let slot = push_req(&mut rc.state, CommKindTag::Irecv, peer, bytes, post);
                rc.effects.push(Effect::Recv {
                    key: (peer, rank, *tag),
                    inst: RecvInst {
                        rank,
                        stmt: stmt.id,
                        ctx,
                        post,
                        req_slot: Some(slot),
                    },
                });
                self.advance(rc, overhead, ctx);
                rc.shard.comm(CommRecord {
                    rank,
                    ctx,
                    stmt: stmt.id,
                    kind: CommKindTag::Irecv,
                    peer,
                    bytes,
                    post,
                    complete: post + overhead,
                    wait: 0.0,
                });
                rc.shard.trace(rank, stmt.id, post, post + overhead);
                rc.state.frames.last_mut().unwrap().idx += 1;
                Ok(StepOutcome::Progress)
            }
            CommOp::Send { peer, bytes, tag } => {
                let peer = self.eval_peer(rc, peer, stmt.id)?;
                let bytes = bytes.eval_u64(&self.ectx(&rc.state));
                if self.is_crashed(peer) {
                    self.fail_fast_p2p(rc, CommKindTag::Send, ctx, stmt.id, peer, bytes, false);
                    return Ok(StepOutcome::Progress);
                }
                let post = rc.state.clock;
                let eager = bytes <= net.eager_threshold;
                rc.effects.push(Effect::Send {
                    key: (rank, peer, *tag),
                    inst: SendInst {
                        rank,
                        stmt: stmt.id,
                        ctx,
                        post,
                        bytes,
                        eager,
                        req_slot: None,
                    },
                });
                if eager {
                    // Eager send completes locally; receiver matches later.
                    self.advance(rc, overhead, ctx);
                    rc.shard.comm(CommRecord {
                        rank,
                        ctx,
                        stmt: stmt.id,
                        kind: CommKindTag::Send,
                        peer,
                        bytes,
                        post,
                        complete: post + overhead,
                        wait: 0.0,
                    });
                    rc.shard.trace(rank, stmt.id, post, post + overhead);
                    rc.state.frames.last_mut().unwrap().idx += 1;
                    Ok(StepOutcome::Progress)
                } else {
                    rc.state.blocked = Some(Blocked {
                        resume: None,
                        info: BlockInfo::P2p {
                            kind: CommKindTag::Send,
                            ctx,
                            stmt: stmt.id,
                            peer,
                            bytes,
                            post,
                            matched: None,
                        },
                    });
                    Ok(StepOutcome::Blocked)
                }
            }
            CommOp::Recv { peer, bytes, tag } => {
                let peer = self.eval_peer(rc, peer, stmt.id)?;
                let bytes = bytes.eval_u64(&self.ectx(&rc.state));
                if self.is_crashed(peer) {
                    self.fail_fast_p2p(rc, CommKindTag::Recv, ctx, stmt.id, peer, bytes, false);
                    return Ok(StepOutcome::Progress);
                }
                let post = rc.state.clock;
                rc.effects.push(Effect::Recv {
                    key: (peer, rank, *tag),
                    inst: RecvInst {
                        rank,
                        stmt: stmt.id,
                        ctx,
                        post,
                        req_slot: None,
                    },
                });
                rc.state.blocked = Some(Blocked {
                    resume: None,
                    info: BlockInfo::P2p {
                        kind: CommKindTag::Recv,
                        ctx,
                        stmt: stmt.id,
                        peer,
                        bytes,
                        post,
                        matched: None,
                    },
                });
                Ok(StepOutcome::Blocked)
            }
            CommOp::Wait { back } => {
                let outstanding = rc.state.outstanding.len();
                let Some(i) = outstanding.checked_sub(1 + *back as usize) else {
                    return Err(SimError::BadWait {
                        stmt: stmt.id,
                        back: *back,
                        outstanding,
                    });
                };
                let slot = rc.state.outstanding[i];
                let post = rc.state.clock;
                rc.state.blocked = Some(Blocked {
                    resume: None,
                    info: BlockInfo::Wait {
                        slot,
                        ctx,
                        stmt: stmt.id,
                        post,
                    },
                });
                Ok(StepOutcome::Blocked)
            }
            CommOp::Waitall => {
                let post = rc.state.clock;
                rc.state.blocked = Some(Blocked {
                    resume: None,
                    info: BlockInfo::Waitall {
                        ctx,
                        stmt: stmt.id,
                        post,
                    },
                });
                Ok(StepOutcome::Blocked)
            }
            CommOp::Barrier
            | CommOp::Bcast { .. }
            | CommOp::Reduce { .. }
            | CommOp::Allreduce { .. }
            | CommOp::Alltoall { .. } => {
                let (kind, bytes) = match op {
                    CommOp::Barrier => (CommKindTag::Barrier, 0),
                    CommOp::Bcast { bytes, .. } => {
                        (CommKindTag::Bcast, bytes.eval_u64(&self.ectx(&rc.state)))
                    }
                    CommOp::Reduce { bytes, .. } => {
                        (CommKindTag::Reduce, bytes.eval_u64(&self.ectx(&rc.state)))
                    }
                    CommOp::Allreduce { bytes } => (
                        CommKindTag::Allreduce,
                        bytes.eval_u64(&self.ectx(&rc.state)),
                    ),
                    CommOp::Alltoall { bytes } => {
                        (CommKindTag::Alltoall, bytes.eval_u64(&self.ectx(&rc.state)))
                    }
                    _ => unreachable!(),
                };
                let inst = rc.state.coll_seq;
                rc.state.coll_seq += 1;
                let post = rc.state.clock;
                rc.effects.push(Effect::Coll {
                    inst,
                    kind,
                    bytes,
                    rank,
                    post,
                    ctx,
                    stmt: stmt.id,
                });
                rc.state.blocked = Some(Blocked {
                    resume: None,
                    info: BlockInfo::Coll {
                        inst,
                        ctx,
                        stmt: stmt.id,
                        post,
                        kind,
                        bytes,
                    },
                });
                Ok(StepOutcome::Blocked)
            }
        }
    }
}

// ------------------------------------------------------------ scheduler

/// The inter-phase scheduler: runs on one thread, owns the matcher state,
/// and performs every cross-rank step in rank order.
struct Sched<'a, 'p> {
    cfg: &'a RunConfig,
    seg: &'a SegCtx<'a, 'p>,
    phase: &'a Phase,
    rankctxs: &'a [Mutex<RankCtx<'p>>],
    shared: &'a mut Shared,
    /// Ranks not (yet) crashed: the membership collectives wait for.
    live: usize,
    /// Inter-phase rounds so far; stamps the channels and collectives
    /// touched in the current round.
    round: u64,
}

impl<'a, 'p> Sched<'a, 'p> {
    /// Record that rank `r` crashed. Only called between phases, while no
    /// helper runs (see [`Phase`]).
    fn mark_crashed(&mut self, r: usize) {
        self.phase.crashed[r].store(true, Ordering::Relaxed);
        self.live -= 1;
    }

    fn drive(&mut self) -> Result<(), SimError> {
        let n = self.rankctxs.len();
        let mut phase_idx: u64 = 0;
        loop {
            self.round += 1;
            // Phase start: list who can run, in rank order.
            let mut nrun = 0;
            for (r, m) in self.rankctxs.iter().enumerate() {
                let rc = m.lock().unwrap();
                if !rc.state.done && rc.state.blocked.is_none() && rc.state.health.is_ok() {
                    self.phase.ranks[nrun].store(r as u32, Ordering::Relaxed);
                    nrun += 1;
                }
            }
            let progressed = nrun > 0;
            // Segments: the identical per-rank code runs on whichever
            // thread claims the rank — bit-identical by construction since
            // segments touch only rank-local state.
            if progressed {
                let t0 = self.cfg.obs.now_us();
                self.phase.run(self.seg, self.rankctxs, nrun);
                if self.cfg.obs.is_enabled() {
                    self.cfg.obs.record_span(
                        obs::Layer::Simrt,
                        "phase",
                        0,
                        t0,
                        self.cfg.obs.now_us(),
                        &[("phase", phase_idx as f64), ("runnable", nrun as f64)],
                    );
                    self.cfg.obs.count("simrt.phases", 1);
                }
                phase_idx += 1;
            }
            // Errors surface in rank order, independent of scheduling.
            for m in self.rankctxs {
                if let Some(e) = m.lock().unwrap().error.take() {
                    return Err(e);
                }
            }
            // Publish buffered effects in rank order, listing each channel
            // and collective touched this round once, in first-touch order
            // (that order fixes the order of `msg_edges`).
            let mut touched_chans: Vec<(u32, u32, u32)> = Vec::new();
            let mut touched_colls: Vec<u64> = Vec::new();
            let round = self.round;
            for m in self.rankctxs {
                let mut rc = m.lock().unwrap();
                for eff in rc.effects.drain(..) {
                    match eff {
                        Effect::Send { key, inst } => {
                            let chan = self.shared.channels.entry(key).or_default();
                            if chan.round != round {
                                chan.round = round;
                                touched_chans.push(key);
                            }
                            chan.sends.push_back(inst);
                        }
                        Effect::Recv { key, inst } => {
                            let chan = self.shared.channels.entry(key).or_default();
                            if chan.round != round {
                                chan.round = round;
                                touched_chans.push(key);
                            }
                            chan.recvs.push_back(inst);
                        }
                        Effect::Coll {
                            inst,
                            kind,
                            bytes,
                            rank,
                            post,
                            ctx,
                            stmt,
                        } => {
                            let entry =
                                self.shared
                                    .collectives
                                    .entry(inst)
                                    .or_insert_with(|| CollInst {
                                        kind,
                                        bytes: 0,
                                        posts: Vec::new(),
                                        completion: None,
                                        late: None,
                                        round: 0,
                                    });
                            if entry.round != round {
                                entry.round = round;
                                touched_colls.push(inst);
                            }
                            debug_assert_eq!(
                                entry.kind, kind,
                                "ranks disagree on collective {inst}: {:?} vs {kind:?}",
                                entry.kind
                            );
                            debug_assert!(
                                entry.posts.iter().all(|p| p.0 != rank),
                                "rank {rank} posted collective {inst} twice"
                            );
                            entry.bytes = entry.bytes.max(bytes);
                            entry.posts.push((rank, post, ctx, stmt));
                        }
                    }
                }
            }
            for key in &touched_chans {
                self.try_match(*key);
            }
            // Crash sweep: notify peers of ranks that died this phase.
            let mut any_crash = false;
            for r in 0..n {
                let newly = {
                    let rc = self.rankctxs[r].lock().unwrap();
                    match rc.state.health {
                        Health::Crashed(at) if !self.seg.is_crashed(r as u32) => Some(at),
                        _ => None,
                    }
                };
                if let Some(at) = newly {
                    self.mark_crashed(r);
                    self.notify_crash(r as u32, at);
                    any_crash = true;
                }
            }
            for inst in &touched_colls {
                self.complete_collective_if_ready(*inst);
            }
            if any_crash {
                self.recheck_collectives();
            }
            let resolved = self.resolve_blocked();
            let all_done = self.rankctxs.iter().all(|m| {
                let rc = m.lock().unwrap();
                rc.state.done || !rc.state.health.is_ok()
            });
            if all_done {
                return self.check_injected_hangs();
            }
            if !progressed && !resolved {
                // Quiescence watchdog. First, force any still-pending
                // scheduled fault onto its (blocked) rank: a rank whose
                // clock stopped short of its fault time would otherwise
                // never reach it.
                if self.apply_scheduled_faults_to_blocked() {
                    continue;
                }
                let blocked = self.blocked_ranks();
                if self.any_injected_hang() {
                    return Err(self.hang_error(blocked));
                }
                if self.live < n {
                    // Survivors stuck forever behind the crash (e.g. a
                    // dependence the fail-fast notification cannot break):
                    // mark them hung and degrade gracefully to a partial
                    // run instead of failing the whole simulation.
                    for m in self.rankctxs {
                        let mut rc = m.lock().unwrap();
                        if rc.state.health.is_ok() && rc.state.blocked.is_some() {
                            let at = rc.state.clock;
                            stall_state(&mut rc.state, at, false);
                        }
                    }
                    continue;
                }
                return Err(SimError::Deadlock { blocked });
            }
        }
    }

    // -------------------------------------------------- fault machinery

    /// Force pending scheduled faults onto blocked ranks (quiescence
    /// watchdog path). Returns whether anything fired.
    fn apply_scheduled_faults_to_blocked(&mut self) -> bool {
        let mut any = false;
        for r in 0..self.rankctxs.len() {
            let rank = r as u32;
            let crash_t = self.cfg.faults.crash.get(&rank).copied();
            let hang_t = self.cfg.faults.hang.get(&rank).copied();
            if crash_t.is_none() && hang_t.is_none() {
                continue;
            }
            let mut fired_crash: Option<f64> = None;
            {
                let mut rc = self.rankctxs[r].lock().unwrap();
                if rc.state.done || !rc.state.health.is_ok() || rc.state.blocked.is_none() {
                    continue;
                }
                if let Some(t) = crash_t {
                    let at = rc.state.clock.max(t);
                    crash_state(&mut rc.state, at);
                    fired_crash = Some(at);
                    any = true;
                } else if let Some(t) = hang_t {
                    let at = rc.state.clock.max(t);
                    stall_state(&mut rc.state, at, true);
                    any = true;
                }
            }
            if let Some(at) = fired_crash {
                self.mark_crashed(r);
                self.notify_crash(rank, at);
                self.recheck_collectives();
            }
        }
        any
    }

    /// Peer notification after rank `dead` crashed at `at`: operations
    /// already targeting the dead rank complete as failed no earlier than
    /// the crash (an ULFM-style revoke).
    fn notify_crash(&mut self, dead: u32, at: f64) {
        for (p, m) in self.rankctxs.iter().enumerate() {
            if p == dead as usize {
                continue;
            }
            let mut rc = m.lock().unwrap();
            for req in &mut rc.state.reqs {
                if req.live && req.peer == dead && req.completion.is_none() {
                    req.completion = Some(req.post.max(at));
                }
            }
            if let Some(b) = rc.state.blocked.as_mut() {
                if let BlockInfo::P2p {
                    peer,
                    post,
                    matched: None,
                    ..
                } = &b.info
                {
                    if *peer == dead && b.resume.is_none() {
                        b.resume = Some(post.max(at));
                    }
                }
            }
        }
    }

    /// `Err(SimError::Hang)` describing every injected-hung rank plus the
    /// healthy ranks blocked behind them.
    fn hang_error(&self, blocked: Vec<(u32, StmtId)>) -> SimError {
        let mut hung = Vec::new();
        let mut virtual_time_us = 0.0f64;
        for m in self.rankctxs {
            let rc = m.lock().unwrap();
            virtual_time_us = virtual_time_us.max(rc.state.clock);
            if let Health::Hung {
                at,
                stmt,
                injected: true,
            } = rc.state.health
            {
                hung.push((rc.state.rank, stmt, at));
            }
        }
        SimError::Hang {
            hung,
            blocked,
            virtual_time_us,
        }
    }

    /// At termination: an injected hang is an error even when no other
    /// rank was blocked behind it — a silently missing rank must never
    /// look like a clean run.
    fn check_injected_hangs(&self) -> Result<(), SimError> {
        if self.any_injected_hang() {
            return Err(self.hang_error(Vec::new()));
        }
        Ok(())
    }

    fn any_injected_hang(&self) -> bool {
        self.rankctxs.iter().any(|m| {
            matches!(
                m.lock().unwrap().state.health,
                Health::Hung { injected: true, .. }
            )
        })
    }

    fn blocked_ranks(&self) -> Vec<(u32, StmtId)> {
        self.rankctxs
            .iter()
            .filter_map(|m| {
                let rc = m.lock().unwrap();
                if rc.state.health.is_ok() {
                    rc.state
                        .blocked
                        .as_ref()
                        .map(|b| (rc.state.rank, b.info.stmt()))
                } else {
                    None
                }
            })
            .collect()
    }

    // ----------------------------------------------------------- matcher

    fn msg_edge(&mut self, edge: MsgEdge) {
        if self.cfg.collection.collect_comm {
            self.shared.msg_edges.push(edge);
        }
    }

    /// Match pending sends/recvs on one channel, computing completions.
    fn try_match(&mut self, key: (u32, u32, u32)) {
        let rankctxs = self.rankctxs;
        loop {
            let (send, recv) = {
                let Some(chan) = self.shared.channels.get_mut(&key) else {
                    return;
                };
                if chan.sends.is_empty() || chan.recvs.is_empty() {
                    return;
                }
                (
                    chan.sends.pop_front().unwrap(),
                    chan.recvs.pop_front().unwrap(),
                )
            };
            let overhead = self.cfg.network.op_overhead_us;
            let mut transfer = self.cfg.network.transfer_us(send.bytes);
            // Injected network fault: this message is dropped and
            // retransmitted after a timeout, stretching its transfer.
            // Each match is keyed by its channel and its index in that
            // channel's (deterministic, FIFO) match sequence, so the drop
            // pattern replays under a seed no matter how matching work
            // interleaves across channels.
            if self.cfg.faults.msg_drop_rate > 0.0 {
                let ctr = self.shared.chan_matches.entry(key).or_insert(0);
                let id = *ctr;
                *ctr += 1;
                let chan_id = ((key.0 as u64) << 42) ^ ((key.1 as u64) << 21) ^ key.2 as u64;
                if fault_roll(self.cfg.seed, FaultStream::MsgDrop, chan_id, id)
                    < self.cfg.faults.msg_drop_rate
                {
                    transfer += self.cfg.faults.msg_delay_us;
                    self.shared.retransmits += 1;
                }
            }
            let (send_complete, xfer_end) = if send.eager {
                (send.post + overhead, send.post + overhead + transfer)
            } else {
                let end = send.post.max(recv.post) + transfer;
                (end, end)
            };
            let recv_complete = recv.post.max(xfer_end);

            // Sender side.
            match send.req_slot {
                Some(slot) => {
                    let mut rc = rankctxs[send.rank as usize].lock().unwrap();
                    let req = &mut rc.state.reqs[slot];
                    req.completion = Some(send_complete);
                    req.matched = Some((recv.rank, recv.stmt, recv.ctx));
                }
                None if send.eager => {
                    // Eager blocking send: completed locally at post time;
                    // nothing to resolve on the sender side.
                }
                None => {
                    // Blocking rendezvous send: unblock.
                    {
                        let mut rc = rankctxs[send.rank as usize].lock().unwrap();
                        if let Some(b) = rc.state.blocked.as_mut() {
                            debug_assert!(
                                matches!(
                                    b.info,
                                    BlockInfo::P2p {
                                        kind: CommKindTag::Send,
                                        ..
                                    }
                                ),
                                "rendezvous sender must be blocked on its send"
                            );
                            b.resume = Some(send_complete);
                            if let BlockInfo::P2p { matched, .. } = &mut b.info {
                                *matched = Some((recv.rank, recv.stmt, recv.ctx));
                            }
                        }
                    }
                    // Late receiver delayed the sender: dependence edge
                    // receiver → sender.
                    if recv.post > send.post {
                        self.msg_edge(MsgEdge {
                            src_rank: recv.rank,
                            src_stmt: recv.stmt,
                            src_ctx: recv.ctx,
                            dst_rank: send.rank,
                            dst_stmt: send.stmt,
                            dst_ctx: send.ctx,
                            bytes: send.bytes,
                            kind: CommKindTag::Send,
                            wait: recv.post - send.post,
                        });
                    }
                }
            }
            // Receiver side.
            match recv.req_slot {
                Some(slot) => {
                    let mut rc = rankctxs[recv.rank as usize].lock().unwrap();
                    let req = &mut rc.state.reqs[slot];
                    req.completion = Some(recv_complete);
                    req.matched = Some((send.rank, send.stmt, send.ctx));
                }
                None => {
                    let mut rc = rankctxs[recv.rank as usize].lock().unwrap();
                    if let Some(b) = rc.state.blocked.as_mut() {
                        b.resume = Some(recv_complete);
                        if let BlockInfo::P2p { matched, .. } = &mut b.info {
                            *matched = Some((send.rank, send.stmt, send.ctx));
                        }
                    }
                }
            }
        }
    }

    /// A collective completes when every *live* (non-crashed) rank has
    /// posted; crashed ranks are dropped from the membership (the
    /// shrunken communicator), while hung ranks still count — a hang
    /// blocks collectives, which is how it propagates. Each rank posts an
    /// instance at most once, so counting the live posters is enough.
    fn collective_ready(&self, inst: &CollInst) -> bool {
        let live_posters = inst
            .posts
            .iter()
            .filter(|p| !self.seg.is_crashed(p.0))
            .count();
        live_posters == self.live
    }

    /// Complete collective `inst` if every live rank has posted.
    fn complete_collective_if_ready(&mut self, inst: u64) {
        let Some(c) = self.shared.collectives.get(&inst) else {
            return;
        };
        if c.completion.is_some() || !self.collective_ready(c) {
            return;
        }
        let cost = collective_cost(&self.cfg.network, c.kind, c.bytes, self.cfg.nranks);
        let entry = self
            .shared
            .collectives
            .get_mut(&inst)
            .expect("instance exists: fetched above");
        let max_post = entry
            .posts
            .iter()
            .map(|&(_, p, _, _)| p)
            .fold(f64::NEG_INFINITY, f64::max);
        entry.completion = Some(max_post + cost);
        // `max_by` keeps the last of equal maxima.
        entry.late = entry
            .posts
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .copied();
    }

    /// Re-evaluate pending collectives after a crash shrank the
    /// membership: instances now complete over the survivors.
    fn recheck_collectives(&mut self) {
        let insts: Vec<u64> = self
            .shared
            .collectives
            .iter()
            .filter(|(_, c)| c.completion.is_none())
            .map(|(&i, _)| i)
            .collect();
        for i in insts {
            self.complete_collective_if_ready(i);
        }
    }

    // -------------------------------------------------------- resolution

    /// Resolve blocked ranks whose completion is now computable, in rank
    /// order. Returns whether any rank was unblocked.
    fn resolve_blocked(&mut self) -> bool {
        let mut any = false;
        let rankctxs = self.rankctxs;
        for (r, cell) in rankctxs.iter().enumerate() {
            let blocked = cell.lock().unwrap().state.blocked.take();
            let Some(blocked) = blocked else {
                continue;
            };
            if self.try_finish(r, &blocked) {
                any = true;
            } else {
                cell.lock().unwrap().state.blocked = Some(blocked);
            }
        }
        any
    }

    /// Attempt to complete a blocked operation; true if the rank resumed.
    fn try_finish(&mut self, r: usize, blocked: &Blocked) -> bool {
        let rankctxs = self.rankctxs;
        match &blocked.info {
            BlockInfo::P2p {
                kind,
                ctx,
                stmt,
                peer,
                bytes,
                post,
                matched,
            } => {
                let Some(resume) = blocked.resume else {
                    return false;
                };
                let mut rc = rankctxs[r].lock().unwrap();
                let rank = rc.state.rank;
                let wait = (resume - post).max(0.0);
                let fired = rc.shard.account(rank, 0, *ctx, *post, resume);
                let resume = resume + fired as f64 * rc.shard.sample_cost_us();
                rc.shard.comm(CommRecord {
                    rank,
                    ctx: *ctx,
                    stmt: *stmt,
                    kind: *kind,
                    peer: *peer,
                    bytes: *bytes,
                    post: *post,
                    complete: resume,
                    wait,
                });
                rc.shard.trace(rank, *stmt, *post, resume);
                if *kind == CommKindTag::Recv && wait > 0.0 {
                    if let Some((src_rank, src_stmt, src_ctx)) = matched {
                        self.msg_edge(MsgEdge {
                            src_rank: *src_rank,
                            src_stmt: *src_stmt,
                            src_ctx: *src_ctx,
                            dst_rank: rank,
                            dst_stmt: *stmt,
                            dst_ctx: *ctx,
                            bytes: *bytes,
                            kind: CommKindTag::Recv,
                            wait,
                        });
                    }
                }
                rc.state.clock = resume.max(rc.state.clock);
                rc.state.frames.last_mut().unwrap().idx += 1;
                rc.state.blocked = None;
                true
            }
            BlockInfo::Wait {
                slot,
                ctx,
                stmt,
                post,
            } => {
                let completion = rankctxs[r].lock().unwrap().state.reqs[*slot].completion;
                let Some(completion) = completion else {
                    return false;
                };
                let resume = completion.max(*post);
                self.finish_requests(r, &[*slot], *ctx, *stmt, *post, resume, CommKindTag::Wait);
                true
            }
            BlockInfo::Waitall { ctx, stmt, post } => {
                let (slots, resume) = {
                    let rc = rankctxs[r].lock().unwrap();
                    let slots: Vec<usize> = rc.state.outstanding.clone();
                    let mut resume = *post;
                    for &s in &slots {
                        match rc.state.reqs[s].completion {
                            Some(c) => resume = resume.max(c),
                            None => return false,
                        }
                    }
                    (slots, resume)
                };
                self.finish_requests(r, &slots, *ctx, *stmt, *post, resume, CommKindTag::Waitall);
                true
            }
            BlockInfo::Coll {
                inst,
                ctx,
                stmt,
                post,
                kind,
                bytes,
            } => {
                let Some((completion, late)) = self
                    .shared
                    .collectives
                    .get(inst)
                    .and_then(|c| Some((c.completion?, c.late)))
                else {
                    return false;
                };
                let mut rc = rankctxs[r].lock().unwrap();
                let rank = rc.state.rank;
                let resume = completion.max(*post);
                let wait = resume - post;
                let fired = rc.shard.account(rank, 0, *ctx, *post, resume);
                let resume = resume + fired as f64 * rc.shard.sample_cost_us();
                rc.shard.comm(CommRecord {
                    rank,
                    ctx: *ctx,
                    stmt: *stmt,
                    kind: *kind,
                    peer: u32::MAX,
                    bytes: *bytes,
                    post: *post,
                    complete: resume,
                    wait,
                });
                rc.shard.trace(rank, *stmt, *post, resume);
                // Dependence edge from the last arriver to this rank.
                if let Some((late_rank, late_post, late_ctx, late_stmt)) = late {
                    if late_rank != rank && wait > 0.0 && late_post > *post {
                        self.msg_edge(MsgEdge {
                            src_rank: late_rank,
                            src_stmt: late_stmt,
                            src_ctx: late_ctx,
                            dst_rank: rank,
                            dst_stmt: *stmt,
                            dst_ctx: *ctx,
                            bytes: *bytes,
                            kind: *kind,
                            wait,
                        });
                    }
                }
                rc.state.clock = resume;
                rc.state.frames.last_mut().unwrap().idx += 1;
                rc.state.blocked = None;
                true
            }
        }
    }

    /// Complete a Wait/Waitall: retire request slots, record, resume.
    #[allow(clippy::too_many_arguments)]
    fn finish_requests(
        &mut self,
        r: usize,
        slots: &[usize],
        ctx: CtxId,
        stmt: StmtId,
        post: f64,
        resume: f64,
        kind: CommKindTag,
    ) {
        let rankctxs = self.rankctxs;
        let mut rc = rankctxs[r].lock().unwrap();
        let rank = rc.state.rank;
        let wait = (resume - post).max(0.0);
        let fired = rc.shard.account(rank, 0, ctx, post, resume);
        let resume = resume + fired as f64 * rc.shard.sample_cost_us();
        // A single-request wait reports its request's peer; Waitall has no
        // single peer.
        let peer = if slots.len() == 1 {
            rc.state.reqs[slots[0]].peer
        } else {
            u32::MAX
        };
        let mut bytes_total = 0;
        for &s in slots {
            let req = rc.state.reqs[s].clone();
            bytes_total += req.bytes;
            rc.state.reqs[s].live = false;
            // A matched remote operation that delayed this wait produces a
            // dependence edge onto the wait statement.
            if let (Some((src_rank, src_stmt, src_ctx)), Some(c)) = (req.matched, req.completion) {
                if req.kind == CommKindTag::Irecv && c > post {
                    self.msg_edge(MsgEdge {
                        src_rank,
                        src_stmt,
                        src_ctx,
                        dst_rank: rank,
                        dst_stmt: stmt,
                        dst_ctx: ctx,
                        bytes: req.bytes,
                        kind,
                        wait: c - post,
                    });
                }
            }
        }
        rc.state.outstanding.retain(|s| !slots.contains(s));
        rc.shard.comm(CommRecord {
            rank,
            ctx,
            stmt,
            kind,
            peer,
            bytes: bytes_total,
            post,
            complete: resume,
            wait,
        });
        rc.shard.trace(rank, stmt, post, resume);
        rc.state.clock = resume;
        rc.state.frames.last_mut().unwrap().idx += 1;
        rc.state.blocked = None;
    }
}

// ----------------------------------------------------------- phase pool

/// One segment phase, shared by the scheduler thread and its helper
/// threads.
///
/// The scheduler lists the runnable ranks in `ranks`, opens the phase and
/// then claims ranks itself; every thread takes the next unclaimed rank
/// through the `next` cursor until none is left, so one long segment
/// never leaves another thread idle behind a fixed share. The scheduler
/// then closes the phase and sleeps until the last helper has left it.
/// Helpers sleep on `wake` between phases; nothing spins. A phase with
/// one runnable rank, or a pool without helpers, runs on the scheduler
/// thread alone without waking anyone.
///
/// `ranks`, `crashed` and the cursor are written by the scheduler only
/// while the phase is closed and no helper is in it. Relaxed atomics
/// suffice: a helper enters a phase under `gate` after the scheduler
/// opened it under `gate` (that lock orders the writes before the
/// helper's reads), each helper leaves under `gate`, and the segments'
/// own data moves under the rank mutexes.
struct Phase {
    /// This phase's runnable ranks, in rank order.
    ranks: Vec<AtomicU32>,
    /// Number of valid entries of `ranks`.
    len: AtomicUsize,
    /// Index of the next unclaimed entry of `ranks`.
    next: AtomicUsize,
    /// Ranks known crashed as of this phase's start: a rank crashing
    /// mid-phase becomes visible to its peers only at the next phase.
    crashed: Vec<AtomicBool>,
    helpers: usize,
    gate: Mutex<Gate>,
    /// Helpers wait here for a phase to open (or for shutdown).
    wake: Condvar,
    /// The scheduler waits here for the last helper to leave a phase.
    idle: Condvar,
}

struct Gate {
    /// Bumped each time a phase opens, so a helper joins a phase once.
    generation: u64,
    open: bool,
    /// Helpers inside the current phase.
    active: usize,
    shutdown: bool,
    /// The first panic a helper caught, re-raised on the scheduler.
    panic: Option<Box<dyn Any + Send>>,
}

impl Phase {
    fn new(nranks: usize, helpers: usize) -> Self {
        Phase {
            ranks: (0..nranks).map(|_| AtomicU32::new(0)).collect(),
            len: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            crashed: (0..nranks).map(|_| AtomicBool::new(false)).collect(),
            helpers,
            gate: Mutex::new(Gate {
                generation: 0,
                open: false,
                active: 0,
                shutdown: false,
                panic: None,
            }),
            wake: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    fn gate(&self) -> std::sync::MutexGuard<'_, Gate> {
        // Nothing panics while holding the gate.
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run the segments of the first `len` entries of `ranks`; returns
    /// once every one has run. A helper's panic is re-raised here.
    fn run<'p>(&self, seg: &SegCtx<'_, 'p>, rankctxs: &[Mutex<RankCtx<'p>>], len: usize) {
        self.len.store(len, Ordering::Relaxed);
        self.next.store(0, Ordering::Relaxed);
        let shared = self.helpers > 0 && len > 1;
        if shared {
            let mut g = self.gate();
            g.generation += 1;
            g.open = true;
            drop(g);
            self.wake.notify_all();
        }
        self.claim(seg, rankctxs);
        if shared {
            let mut g = self.gate();
            g.open = false;
            while g.active > 0 {
                g = self.idle.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
            if let Some(payload) = g.panic.take() {
                drop(g);
                resume_unwind(payload);
            }
        }
    }

    /// Claim and run unclaimed ranks until none is left.
    fn claim<'p>(&self, seg: &SegCtx<'_, 'p>, rankctxs: &[Mutex<RankCtx<'p>>]) {
        let len = self.len.load(Ordering::Relaxed);
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                return;
            }
            let r = self.ranks[i].load(Ordering::Relaxed) as usize;
            seg.run_segment(&mut rankctxs[r].lock().unwrap());
        }
    }

    /// A helper thread's life: join each phase once, claim ranks, leave.
    /// A panicking segment is caught and handed to the scheduler, so the
    /// helper still leaves the phase and the scheduler never waits on a
    /// dead thread.
    fn help<'p>(&self, seg: &SegCtx<'_, 'p>, rankctxs: &[Mutex<RankCtx<'p>>]) {
        let mut seen = 0;
        loop {
            let mut g = self.gate();
            loop {
                if g.shutdown {
                    return;
                }
                if g.open && g.generation != seen {
                    break;
                }
                g = self.wake.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
            seen = g.generation;
            g.active += 1;
            drop(g);
            let caught = catch_unwind(AssertUnwindSafe(|| self.claim(seg, rankctxs)));
            let mut g = self.gate();
            if let Err(payload) = caught {
                g.panic.get_or_insert(payload);
            }
            g.active -= 1;
            if g.active == 0 {
                self.idle.notify_one();
            }
        }
    }
}

/// Releases the helpers when the scheduler returns or unwinds, so the
/// thread scope can join them.
struct Shutdown<'a>(&'a Phase);

impl Drop for Shutdown<'_> {
    fn drop(&mut self) {
        self.0.gate().shutdown = true;
        self.0.wake.notify_all();
    }
}

// --------------------------------------------------------------- engine

impl<'p> Engine<'p> {
    fn new(prog: &'p Program, cfg: &'p RunConfig, params: FxHashMap<String, f64>) -> Self {
        let rankctxs = (0..cfg.nranks)
            .map(|rank| {
                let shard = Collector::new(
                    cfg.collection.clone(),
                    cfg.faults.clone(),
                    cfg.seed,
                    cfg.nranks,
                    cfg.nthreads,
                    prog.entry,
                )
                .for_rank(rank);
                let mut state = RankState {
                    rank,
                    clock: 0.0,
                    frames: Vec::new(),
                    slots: Vec::new(),
                    iters: Vec::new(),
                    reqs: Vec::new(),
                    outstanding: Vec::new(),
                    coll_seq: 0,
                    blocked: None,
                    done: false,
                    call_depth: 0,
                    health: Health::Ok,
                };
                let entry = &prog.function(prog.entry).body;
                state.push_frame(entry, shard.data.cct.root(), FrameKind::Body);
                Mutex::new(RankCtx {
                    state,
                    shard,
                    effects: Vec::new(),
                    error: None,
                })
            })
            .collect();
        Engine {
            prog,
            cfg,
            params,
            rankctxs,
            shared: Shared::default(),
        }
    }

    fn run(&mut self) -> Result<(), SimError> {
        let nranks = self.cfg.nranks as usize;
        let workers = match self.cfg.sim_workers {
            Some(n) => n.max(1),
            None => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
        .min(nranks.max(1));
        let phase = &Phase::new(nranks, workers - 1);
        let seg = &SegCtx {
            prog: self.prog,
            cfg: self.cfg,
            params: &self.params,
            crashed: &phase.crashed,
        };
        let rankctxs: &[Mutex<RankCtx<'p>>] = &self.rankctxs;
        let mut sched = Sched {
            cfg: self.cfg,
            seg,
            phase,
            rankctxs,
            shared: &mut self.shared,
            live: nranks,
            round: 0,
        };
        // The scheduler thread is one of the workers. It is spawned, not
        // borrowed from the caller, so the run's allocation churn stays
        // off the caller's thread, whose later stages it slowed
        // (DESIGN.md §8.1); the caller wakes once, at the end of the run.
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(move || phase.help(seg, rankctxs));
            }
            let scheduler = s.spawn(move || {
                let _shutdown = Shutdown(phase);
                sched.drive()
            });
            scheduler
                .join()
                .unwrap_or_else(|payload| resume_unwind(payload))
        })
    }

    /// Fold the per-rank shards into one [`RunData`], in rank order.
    fn finish(self) -> RunData {
        let cfg = self.cfg;
        let _span = cfg.obs.span(obs::Layer::Simrt, "merge_shards", 0);
        if self.rankctxs.is_empty() {
            return Collector::new(
                self.cfg.collection.clone(),
                self.cfg.faults.clone(),
                self.cfg.seed,
                0,
                self.cfg.nthreads,
                self.prog.entry,
            )
            .finish(Vec::new(), Vec::new());
        }
        let mut shards = Vec::with_capacity(self.rankctxs.len());
        let mut elapsed = Vec::with_capacity(self.rankctxs.len());
        let mut statuses = Vec::with_capacity(self.rankctxs.len());
        for m in self.rankctxs {
            let rc = m.into_inner().unwrap();
            elapsed.push(rc.state.clock);
            statuses.push(match rc.state.health {
                Health::Ok => RankStatus::Completed,
                Health::Crashed(at) => RankStatus::Crashed { at_us: at },
                Health::Hung { at, .. } => RankStatus::Hung { at_us: at },
            });
            shards.push(rc.shard);
        }
        merge_shards(
            shards,
            self.shared.msg_edges,
            self.shared.retransmits,
            elapsed,
            statuses,
        )
    }
}
