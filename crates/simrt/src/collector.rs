//! The runtime collection module (the PMPI/PAPI/sampler stand-in).
//!
//! All instrumentation funnels through [`Collector`]: virtual-time
//! sampling (a sample fires every `period` µs of a rank's virtual clock,
//! attributed to the active calling context, exactly like a SIGPROF
//! handler walking the stack), PMU accumulation, comm/lock records and the
//! optional full trace. When collection is disabled the methods return
//! immediately — the overhead experiments (Table 1) measure precisely the
//! cost difference these paths introduce.

use progmodel::{FuncId, FxHashMap, PmuSpec, StmtId};

use crate::cct::{Cct, CtxId};
use crate::config::CollectionConfig;
use crate::faults::{fault_roll, FaultPlan, FaultStream};
use crate::record::{CommRecord, LockRecord, MsgEdge, RankStatus, RunData, TraceData, TraceEvent};

/// Mutable collection state for one run — or for one *rank's shard* of a
/// run. The engine gives every rank its own `Collector` (with its own
/// CCT) so ranks can be simulated concurrently without sharing mutable
/// state; [`merge_shards`] folds the shards back into one [`RunData`] in
/// rank order, which keeps the merged result deterministic and
/// independent of how the ranks were scheduled.
pub struct Collector {
    /// Accumulated run data (taken by [`Collector::finish`]).
    pub data: RunData,
    cfg: CollectionConfig,
    faults: FaultPlan,
    seed: u64,
    /// Rank owning this shard (0 for a whole-run collector); keys the
    /// PMU-corruption fault stream so per-rank shards roll independently.
    shard_rank: u32,
    /// Monotone PMU-read counter identifying corruption rolls.
    pmu_reads: u64,
}

impl Collector {
    /// New collector for a run of `nranks` × `nthreads` under `faults`.
    pub fn new(
        cfg: CollectionConfig,
        faults: FaultPlan,
        seed: u64,
        nranks: u32,
        nthreads: u32,
        entry: FuncId,
    ) -> Self {
        Collector {
            data: RunData {
                nranks,
                nthreads,
                elapsed: vec![0.0; nranks as usize],
                total_time: 0.0,
                sample_period_us: cfg.sampling_period_us,
                samples: FxHashMap::default(),
                pmu: FxHashMap::default(),
                comm_records: Vec::new(),
                msg_edges: Vec::new(),
                lock_records: Vec::new(),
                indirect_targets: std::collections::HashMap::new(),
                cct: Cct::new(entry),
                trace: TraceData::default(),
                rank_status: vec![RankStatus::Completed; nranks as usize],
                dropped_samples: FxHashMap::default(),
                pmu_corrupted: 0,
                retransmits: 0,
            },
            cfg,
            faults,
            seed,
            shard_rank: 0,
            pmu_reads: 0,
        }
    }

    /// Mark this collector as rank `rank`'s shard (re-keys the PMU
    /// corruption stream so shards roll independently of one another and
    /// of how work interleaves across ranks).
    pub fn for_rank(mut self, rank: u32) -> Self {
        self.shard_rank = rank;
        self
    }

    /// The context a sample is attributed to after the injected
    /// stack-truncation fault: the ancestor at the depth cap when the
    /// sample's context is deeper than the unwinder can resolve.
    fn attribution_ctx(&self, ctx: CtxId) -> CtxId {
        let Some(max_depth) = self.faults.stack_truncate_depth else {
            return ctx;
        };
        let mut cur = ctx;
        while self.data.cct.depth(cur) as usize > max_depth {
            cur = self.data.cct.parent(cur);
        }
        cur
    }

    /// Attribute the virtual interval `[t0, t1)` of `(rank, thread)` to
    /// context `ctx`: emits `floor(t1/p) - floor(t0/p)` samples. Returns
    /// the number of samples *fired* so the caller can charge the
    /// per-sample instrumentation cost to the application's virtual
    /// clock (the observer effect Table 1 measures) — lost samples still
    /// fired their handler, so injected sample loss never perturbs the
    /// application's timing, only the recorded profile.
    pub fn account(&mut self, rank: u32, thread: u32, ctx: CtxId, t0: f64, t1: f64) -> u64 {
        let Some(period) = self.cfg.sampling_period_us else {
            return 0;
        };
        debug_assert!(t1 >= t0);
        let i0 = (t0 / period).floor();
        let n = ((t1 / period).floor() - i0) as u64;
        if n == 0 {
            return 0;
        }
        let ctx = self.attribution_ctx(ctx);
        let loss = self.faults.sample_loss_rate;
        if loss <= 0.0 {
            *self.data.samples.entry((ctx, rank, thread)).or_insert(0) += n;
            return n;
        }
        // Each sample's loss roll is keyed by its global index in this
        // (rank, thread)'s sample sequence, so the outcome is independent
        // of how the interval happens to be split across calls.
        let mut kept = 0u64;
        let mut lost = 0u64;
        let who = ((rank as u64) << 32) | thread as u64;
        for k in 1..=n {
            let idx = (i0 as u64).wrapping_add(k);
            if fault_roll(self.seed, FaultStream::SampleLoss, who, idx) < loss {
                lost += 1;
            } else {
                kept += 1;
            }
        }
        if kept > 0 {
            *self.data.samples.entry((ctx, rank, thread)).or_insert(0) += kept;
        }
        if lost > 0 {
            *self
                .data
                .dropped_samples
                .entry((ctx, rank, thread))
                .or_insert(0) += lost;
        }
        n
    }

    /// Virtual µs charged per fired sample.
    pub fn sample_cost_us(&self) -> f64 {
        self.cfg.sample_cost_us
    }

    /// Virtual µs charged per communication call: the PMPI wrapper plus
    /// (in tracing mode) the trace-event write.
    pub fn comm_call_cost_us(&self) -> f64 {
        let mut cost = 0.0;
        if self.cfg.collect_comm {
            cost += self.cfg.comm_wrapper_cost_us;
        }
        if self.cfg.trace_events {
            cost += self.cfg.trace_event_cost_us;
        }
        cost
    }

    /// Virtual µs charged per traced compute/lock statement instance
    /// (zero unless full tracing is enabled).
    pub fn trace_probe_cost_us(&self) -> f64 {
        if self.cfg.trace_events {
            self.cfg.trace_event_cost_us
        } else {
            0.0
        }
    }

    /// Accumulate PMU estimates for `dur_us` of kernel time in `ctx`.
    /// Under injected PMU corruption, a corrupted reading is counted and
    /// discarded (as a validating consumer of real counters would).
    pub fn pmu(&mut self, ctx: CtxId, dur_us: f64, spec: &PmuSpec) {
        if !self.cfg.collect_pmu {
            return;
        }
        if self.faults.pmu_corrupt_rate > 0.0 {
            let read = self.pmu_reads;
            self.pmu_reads += 1;
            if fault_roll(
                self.seed,
                FaultStream::PmuCorrupt,
                read,
                self.shard_rank as u64,
            ) < self.faults.pmu_corrupt_rate
            {
                self.data.pmu_corrupted += 1;
                return;
            }
        }
        let instr = dur_us * spec.instr_per_us;
        let agg = self.data.pmu.entry(ctx).or_default();
        agg.instructions += instr;
        // Cycle model: fixed 2.5 GHz virtual clock.
        agg.cycles += dur_us * 2500.0;
        agg.cache_misses += instr / 1000.0 * spec.miss_per_kinstr;
    }

    /// Record a completed communication operation.
    pub fn comm(&mut self, rec: CommRecord) {
        if self.cfg.collect_comm {
            self.data.comm_records.push(rec);
        }
    }

    /// Record a matched message / dependence edge.
    pub fn msg_edge(&mut self, edge: MsgEdge) {
        if self.cfg.collect_comm {
            self.data.msg_edges.push(edge);
        }
    }

    /// Record a lock acquisition.
    pub fn lock(&mut self, rec: LockRecord) {
        if self.cfg.collect_locks {
            self.data.lock_records.push(rec);
        }
    }

    /// Record a trace event (full-tracing mode only).
    pub fn trace(&mut self, rank: u32, stmt: StmtId, enter: f64, exit: f64) {
        if self.cfg.trace_events {
            self.data.trace.push(
                TraceEvent {
                    rank,
                    stmt,
                    enter,
                    exit,
                },
                self.cfg.trace_store_cap,
            );
        }
    }

    /// Record a runtime-resolved indirect-call target.
    pub fn indirect(&mut self, stmt: StmtId, target: FuncId) {
        let targets = self.data.indirect_targets.entry(stmt).or_default();
        if !targets.contains(&target) {
            targets.push(target);
        }
    }

    /// Whether full tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.cfg.trace_events
    }

    /// Count one injected message drop/retransmission.
    pub fn retransmit(&mut self) {
        self.data.retransmits += 1;
    }

    /// Finish the run: set per-rank elapsed times, terminal rank
    /// statuses and the makespan.
    pub fn finish(mut self, elapsed: Vec<f64>, rank_status: Vec<RankStatus>) -> RunData {
        self.data.total_time = elapsed.iter().copied().fold(0.0, f64::max);
        self.data.elapsed = elapsed;
        self.data.rank_status = rank_status;
        self.data
    }
}

/// Fold per-rank collector shards into one [`RunData`].
///
/// Shards are merged strictly in rank order: CCT nodes re-intern through
/// [`Cct::merge_from`] (parents always precede children, so one forward
/// walk per shard suffices), floating-point aggregates (PMU) accumulate
/// in rank order, and record streams concatenate per rank. The result is
/// therefore a pure function of the shard contents — identical whether
/// the ranks were simulated serially or on a worker pool.
///
/// `msg_edges` are the engine-level cross-rank dependence edges; each
/// edge's contexts are remapped through its *own* endpoint ranks' tables
/// (`src_ctx` lives in `src_rank`'s shard, `dst_ctx` in `dst_rank`'s).
pub fn merge_shards(
    shards: Vec<Collector>,
    msg_edges: Vec<MsgEdge>,
    retransmits: u64,
    elapsed: Vec<f64>,
    rank_status: Vec<RankStatus>,
) -> RunData {
    let mut shards = shards.into_iter();
    let base = shards.next().expect("at least one shard");
    let cap = base.cfg.trace_store_cap;
    let mut data = base.data;
    // Remap tables per rank; rank 0's shard *is* the base, so its table
    // is the identity.
    let mut remaps: Vec<Vec<CtxId>> = Vec::with_capacity(data.nranks as usize);
    remaps.push((0..data.cct.len() as u32).map(CtxId).collect());
    for shard in shards {
        let sd = shard.data;
        let remap = data.cct.merge_from(&sd.cct);
        for ((ctx, rank, thread), n) in sd.samples {
            *data
                .samples
                .entry((remap[ctx.0 as usize], rank, thread))
                .or_insert(0) += n;
        }
        for ((ctx, rank, thread), n) in sd.dropped_samples {
            *data
                .dropped_samples
                .entry((remap[ctx.0 as usize], rank, thread))
                .or_insert(0) += n;
        }
        for (ctx, agg) in &sd.pmu {
            let e = data.pmu.entry(remap[ctx.0 as usize]).or_default();
            e.instructions += agg.instructions;
            e.cycles += agg.cycles;
            e.cache_misses += agg.cache_misses;
        }
        data.comm_records
            .extend(sd.comm_records.into_iter().map(|mut rec| {
                rec.ctx = remap[rec.ctx.0 as usize];
                rec
            }));
        data.lock_records
            .extend(sd.lock_records.into_iter().map(|mut rec| {
                rec.ctx = remap[rec.ctx.0 as usize];
                if let Some((t, s, hctx)) = rec.blocked_by {
                    rec.blocked_by = Some((t, s, remap[hctx.0 as usize]));
                }
                rec
            }));
        for (stmt, targets) in sd.indirect_targets {
            let merged = data.indirect_targets.entry(stmt).or_default();
            for t in targets {
                if !merged.contains(&t) {
                    merged.push(t);
                }
            }
        }
        for ev in sd.trace.events {
            if data.trace.events.len() < cap {
                data.trace.events.push(ev);
            }
        }
        data.trace.total_events += sd.trace.total_events;
        data.trace.est_bytes += sd.trace.est_bytes;
        data.pmu_corrupted += sd.pmu_corrupted;
        remaps.push(remap);
    }
    data.msg_edges.extend(msg_edges.into_iter().map(|mut e| {
        e.src_ctx = remaps[e.src_rank as usize][e.src_ctx.0 as usize];
        e.dst_ctx = remaps[e.dst_rank as usize][e.dst_ctx.0 as usize];
        e
    }));
    data.retransmits += retransmits;
    data.total_time = elapsed.iter().copied().fold(0.0, f64::max);
    data.elapsed = elapsed;
    data.rank_status = rank_status;
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CommKindTag;

    fn collector(cfg: CollectionConfig) -> Collector {
        Collector::new(cfg, FaultPlan::default(), 0, 2, 1, FuncId(0))
    }

    fn faulty(cfg: CollectionConfig, faults: FaultPlan, seed: u64) -> Collector {
        Collector::new(cfg, faults, seed, 2, 1, FuncId(0))
    }

    #[test]
    fn sampling_counts_period_crossings() {
        let mut c = collector(CollectionConfig {
            sampling_period_us: Some(10.0),
            ..CollectionConfig::default()
        });
        let ctx = c.data.cct.root();
        c.account(0, 0, ctx, 0.0, 35.0); // crossings at 10,20,30 → 3
        c.account(0, 0, ctx, 35.0, 39.0); // none
        c.account(0, 0, ctx, 39.0, 41.0); // crossing at 40 → 1
        assert_eq!(c.data.samples[&(ctx, 0, 0)], 4);
    }

    #[test]
    fn sampling_off_records_nothing() {
        let mut c = collector(CollectionConfig::off());
        let ctx = c.data.cct.root();
        c.account(0, 0, ctx, 0.0, 1e6);
        assert!(c.data.samples.is_empty());
    }

    #[test]
    fn pmu_accumulates() {
        let mut c = collector(CollectionConfig::default());
        let ctx = c.data.cct.root();
        let spec = PmuSpec {
            instr_per_us: 1000.0,
            miss_per_kinstr: 2.0,
        };
        c.pmu(ctx, 10.0, &spec);
        c.pmu(ctx, 10.0, &spec);
        let agg = c.data.pmu[&ctx];
        assert_eq!(agg.instructions, 20_000.0);
        assert_eq!(agg.cache_misses, 40.0);
        assert!(agg.cycles > 0.0);
    }

    #[test]
    fn comm_gated_by_config() {
        let mut on = collector(CollectionConfig::default());
        let mut off = collector(CollectionConfig::off());
        let rec = CommRecord {
            rank: 0,
            ctx: CtxId(0),
            stmt: StmtId(0),
            kind: CommKindTag::Send,
            peer: 1,
            bytes: 64,
            post: 0.0,
            complete: 1.0,
            wait: 0.0,
        };
        on.comm(rec.clone());
        off.comm(rec);
        assert_eq!(on.data.comm_records.len(), 1);
        assert!(off.data.comm_records.is_empty());
    }

    #[test]
    fn indirect_targets_dedup() {
        let mut c = collector(CollectionConfig::default());
        c.indirect(StmtId(3), FuncId(1));
        c.indirect(StmtId(3), FuncId(1));
        c.indirect(StmtId(3), FuncId(2));
        assert_eq!(c.data.indirect_targets[&StmtId(3)].len(), 2);
    }

    #[test]
    fn finish_sets_makespan() {
        let c = collector(CollectionConfig::default());
        let data = c.finish(vec![5.0, 9.0], vec![RankStatus::Completed; 2]);
        assert_eq!(data.total_time, 9.0);
        assert_eq!(data.elapsed, vec![5.0, 9.0]);
        assert!(data.is_complete());
    }

    #[test]
    fn sample_loss_conserves_fired_count_and_is_deterministic() {
        let cfg = CollectionConfig {
            sampling_period_us: Some(10.0),
            ..CollectionConfig::default()
        };
        let run = |seed| {
            let mut c = faulty(cfg.clone(), FaultPlan::new().with_sample_loss(0.5), seed);
            let ctx = c.data.cct.root();
            let fired = c.account(0, 0, ctx, 0.0, 1000.0);
            let kept = c.data.samples.get(&(ctx, 0, 0)).copied().unwrap_or(0);
            let lost = c
                .data
                .dropped_samples
                .get(&(ctx, 0, 0))
                .copied()
                .unwrap_or(0);
            (fired, kept, lost)
        };
        let (fired, kept, lost) = run(7);
        assert_eq!(fired, 100);
        assert_eq!(kept + lost, 100, "loss must conserve fired samples");
        assert!(kept > 0 && lost > 0, "kept {kept}, lost {lost}");
        assert_eq!(run(7), (fired, kept, lost), "same seed, same losses");
        assert_ne!(run(8).1, kept, "different seed, different losses");
    }

    #[test]
    fn sample_loss_independent_of_interval_splitting() {
        let cfg = CollectionConfig {
            sampling_period_us: Some(10.0),
            ..CollectionConfig::default()
        };
        let plan = FaultPlan::new().with_sample_loss(0.3);
        let mut whole = faulty(cfg.clone(), plan.clone(), 3);
        let ctx = whole.data.cct.root();
        whole.account(0, 0, ctx, 0.0, 500.0);
        let mut split = faulty(cfg, plan, 3);
        split.account(0, 0, ctx, 0.0, 123.0);
        split.account(0, 0, ctx, 123.0, 345.0);
        split.account(0, 0, ctx, 345.0, 500.0);
        assert_eq!(whole.data.samples, split.data.samples);
        assert_eq!(whole.data.dropped_samples, split.data.dropped_samples);
    }

    #[test]
    fn stack_truncation_attributes_to_ancestor() {
        let cfg = CollectionConfig {
            sampling_period_us: Some(10.0),
            ..CollectionConfig::default()
        };
        let mut c = faulty(cfg, FaultPlan::new().with_stack_truncation(1), 0);
        let root = c.data.cct.root();
        let mid = c
            .data
            .cct
            .child(root, crate::cct::CtxFrame::Stmt(StmtId(1)));
        let deep = c.data.cct.child(mid, crate::cct::CtxFrame::Stmt(StmtId(2)));
        c.account(0, 0, deep, 0.0, 100.0);
        assert!(!c.data.samples.contains_key(&(deep, 0, 0)));
        assert_eq!(c.data.samples[&(mid, 0, 0)], 10);
    }

    #[test]
    fn pmu_corruption_counts_discarded_reads() {
        let spec = PmuSpec {
            instr_per_us: 1000.0,
            miss_per_kinstr: 2.0,
        };
        let mut c = faulty(
            CollectionConfig::default(),
            FaultPlan::new().with_pmu_corruption(1.0),
            0,
        );
        let ctx = c.data.cct.root();
        c.pmu(ctx, 10.0, &spec);
        c.pmu(ctx, 10.0, &spec);
        assert_eq!(c.data.pmu_corrupted, 2);
        assert!(c.data.pmu.is_empty());
    }
}
