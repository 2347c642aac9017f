use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use dimboost_simnet::fault::{Fate, FaultSession, MAX_ATTEMPTS};
use dimboost_simnet::wire::SparseWireStats;
use dimboost_simnet::{
    CommLedger, CommStats, CostModel, Lane, Phase, SimTime, StatsRecorder, TraceBus,
};
use dimboost_sketch::GkSketch;

use crate::quantize::QuantizedRow;
use crate::sparse::FrameBuffer;
use crate::split::{best_split_in_range, NodeSplit, PullSplitResult, SplitDecision, SplitParams};
use crate::{HistogramLayout, RangeHashPartitioner};

/// Parameter-server deployment configuration.
#[derive(Debug, Clone, Copy)]
pub struct PsConfig {
    /// Number of parameter servers (the paper co-locates one per machine).
    pub num_servers: usize,
    /// Number of vector partitions; `0` means one per server (the paper's
    /// default).
    pub num_partitions: usize,
    /// Cost model used to charge communication time.
    pub cost_model: CostModel,
}

impl Default for PsConfig {
    fn default() -> Self {
        Self {
            num_servers: 1,
            num_partitions: 0,
            cost_model: CostModel::GIGABIT_LAN,
        }
    }
}

impl PsConfig {
    /// Effective partition count (resolves the `0 == per server` default).
    pub fn partitions(&self) -> usize {
        if self.num_partitions == 0 {
            self.num_servers
        } else {
            self.num_partitions
        }
    }
}

/// One feature-block partition's histogram storage: each node's merged
/// accumulator, the buffers retired for reuse, and the buffer sparse frames
/// for this partition are written into and read back from. Every push adds
/// into `merged` as it arrives (see [`ParameterServer::apply_push`]), so a
/// read finds the node's row complete.
///
/// Accumulators are not allocated per node: [`lend`] hands out a zeroed
/// buffer from `free`, and a finished node's buffer goes back there (at
/// `clear_node`, when `derive_sibling` replaces a row, and wholesale at the
/// next `init_tree`). Every buffer is in `merged` or in `free`, and `lend`
/// allocates only when `free` is empty, so a partition allocates as many
/// buffers as it ever holds at once — a few tree layers' worth — however
/// many trees and layers the run has. `frames` likewise grows to the
/// partition's largest frame once and is reused by every sparse push.
#[derive(Default)]
struct PartitionState {
    /// `node → merged accumulator` (the node's global shard).
    merged: HashMap<u32, Vec<f32>>,
    /// Retired buffers awaiting reuse.
    free: Vec<Vec<f32>>,
    /// The buffers every sparse push to this partition is written into and
    /// read back from.
    frames: FrameBuffer,
}

/// A `+0.0`-filled buffer of `len` elements, reused from `free` when one is
/// there.
fn lend(free: &mut Vec<Vec<f32>>, len: usize) -> Vec<f32> {
    match free.pop() {
        Some(mut buf) => {
            buf.clear();
            buf.resize(len, 0.0);
            buf
        }
        None => vec![0.0f32; len],
    }
}

impl PartitionState {
    /// The merged accumulator of `node` over `len` elements, lent on first
    /// touch, and the partition's frame buffer.
    fn accumulator(&mut self, node: u32, len: usize) -> (&mut [f32], &mut FrameBuffer) {
        let free = &mut self.free;
        let acc = self.merged.entry(node).or_insert_with(|| lend(free, len));
        debug_assert_eq!(acc.len(), len, "accumulator/partition length mismatch");
        (acc, &mut self.frames)
    }
}

/// One worker's histogram row for a node, in one of the four forms the
/// exchange ships it in.
#[derive(Clone, Copy)]
enum Push<'a> {
    /// Full-precision row, a dense `f32` slice per partition.
    Dense(&'a [f32]),
    /// §6.1 quantized row; each server decodes only its feature shard.
    Quantized(&'a QuantizedRow),
    /// Full-precision row, one density-adaptive §14 frame per feature block.
    Sparse(&'a [f32]),
    /// Quantized row, one §14.3 quantized block frame per feature block.
    QuantizedSparse(&'a QuantizedRow),
}

impl Push<'_> {
    /// The operation name the ledger's trace event carries.
    fn name(self) -> &'static str {
        match self {
            Push::Dense(_) => "push_histogram",
            Push::Quantized(_) => "push_histogram_quantized",
            Push::Sparse(_) => "push_histogram_sparse",
            Push::QuantizedSparse(_) => "push_histogram_quantized_sparse",
        }
    }

    /// Elements in the row the payload carries.
    fn len(self) -> usize {
        match self {
            Push::Dense(row) | Push::Sparse(row) => row.len(),
            Push::Quantized(q) | Push::QuantizedSparse(q) => q.len(),
        }
    }
}

/// `acc += values`, element by element.
fn add_into(acc: &mut [f32], values: &[f32]) {
    for (a, &v) in acc.iter_mut().zip(values) {
        *a += v;
    }
}

/// Per-tree histogram storage: the layout of a `GradHist` row, its
/// feature-range partitioning, and each partition's per-node state.
struct HistState {
    layout: HistogramLayout,
    partitioner: RangeHashPartitioner,
    partitions: Vec<Mutex<PartitionState>>,
}

/// The sharded parameter store (Sections 4.2–4.3).
///
/// One `ParameterServer` value represents the whole server group; partitions
/// are individually locked so concurrent worker threads pushing different
/// shards (or the same shard — pushes merge) never block each other for
/// long. All push/pull methods record the bytes and packages they would put
/// on the wire, tagged with the execution-plan [`Phase`] that caused them
/// (histogram pushes count toward BUILD_HISTOGRAM, split pulls toward
/// FIND_SPLIT, and so on); phase-level simulated time is charged by the
/// caller via [`ParameterServer::charge`], using the Table 1 closed forms.
pub struct ParameterServer {
    config: PsConfig,
    num_global_features: usize,
    /// `QtSk`: merged per-feature quantile sketches.
    sketches: Mutex<Vec<GkSketch>>,
    /// `SmpFeat`: the leader-sampled feature ids for the current tree.
    sampled: Mutex<Vec<u32>>,
    /// `GradHist` rows for the current tree.
    hist: RwLock<Option<HistState>>,
    /// `SpFeat` + `SpVal` + `SpGain`: published split decisions.
    decisions: Mutex<HashMap<u32, SplitDecision>>,
    recorder: StatsRecorder,
    /// Fault-injection session; `None` runs the happy path untouched.
    faults: Mutex<Option<Arc<FaultSession>>>,
    /// Per-worker message sequence ids already applied, tagged with the
    /// membership epoch they were issued under — the server-side
    /// deduplication set that makes retried pushes idempotent. Keying on
    /// the epoch means a departed machine's late retries can never collide
    /// with (or merge into) sequence numbers of the new epoch.
    applied: Mutex<HashSet<(u64, u32, u64)>>,
    /// Current elastic-membership epoch. Stays 0 for fixed-membership runs;
    /// the trainer bumps it via [`ParameterServer::set_epoch`] after every
    /// scripted join/leave. Operations stamped with an older epoch are
    /// rejected instead of merged (see [`ParameterServer::admit`]).
    epoch: Mutex<u64>,
}

impl ParameterServer {
    /// Creates a server group for a dataset with `num_global_features`
    /// features.
    pub fn new(num_global_features: usize, config: PsConfig) -> Self {
        assert!(config.num_servers > 0, "need at least one server");
        Self {
            config,
            num_global_features,
            sketches: Mutex::new(Vec::new()),
            sampled: Mutex::new(Vec::new()),
            hist: RwLock::new(None),
            decisions: Mutex::new(HashMap::new()),
            recorder: StatsRecorder::new(),
            faults: Mutex::new(None),
            applied: Mutex::new(HashSet::new()),
            epoch: Mutex::new(0),
        }
    }

    /// The deployment configuration.
    pub fn config(&self) -> &PsConfig {
        &self.config
    }

    /// The global feature count the server group was created for.
    pub fn num_global_features(&self) -> usize {
        self.num_global_features
    }

    /// The communication ledger.
    pub fn recorder(&self) -> &StatsRecorder {
        &self.recorder
    }

    /// Snapshot of accumulated communication statistics (all phases).
    pub fn comm_stats(&self) -> CommStats {
        self.recorder.snapshot()
    }

    /// Snapshot of the per-phase communication ledger.
    pub fn comm_ledger(&self) -> CommLedger {
        self.recorder.ledger()
    }

    /// Charges simulated communication time to `phase` (the caller computes
    /// it from the cost model, typically `t_ps_exchange`).
    pub fn charge(&self, phase: Phase, time: SimTime) {
        self.recorder.charge(phase, time);
    }

    /// Mirrors every subsequent record onto `bus` as a trace event (the
    /// per-operation view of the ledger).
    pub fn attach_trace(&self, bus: TraceBus) {
        self.recorder.attach_trace(bus);
    }

    // ---- fault-injection resilience ----------------------------------------

    /// Subjects every subsequent worker-originated push/pull to the
    /// session's fault plan (drops, duplications, outages), recovered by
    /// the retry loop in [`ParameterServer::resilient`].
    pub fn attach_faults(&self, session: Arc<FaultSession>) {
        *self.faults.lock() = Some(session);
    }

    /// The admission gate: whether a delivered copy of operation
    /// `(epoch, worker, seq)` applies. `true` exactly once per identity —
    /// sequence ids are monotone per worker and never reused within an
    /// epoch, so a retried or duplicated message never merges twice; a
    /// repeat is a `dedup_hit`. An op stamped with an epoch older than the
    /// server's is a late retry from before a join/leave: it is rejected
    /// outright as a `stale_reject` membership event, so a departed
    /// machine's straggling traffic cannot corrupt the new epoch's
    /// histograms.
    fn admit(&self, phase: Phase, epoch: u64, worker: u32, seq: u64) -> bool {
        let stale = epoch < self.current_epoch();
        if !stale && self.applied.lock().insert((epoch, worker, seq)) {
            return true;
        }
        let session = self.faults.lock().clone();
        if stale {
            if let Some(session) = session {
                session.on_stale_reject();
            }
            self.recorder
                .lane_event(Lane::Membership, phase, "stale_reject", SimTime::ZERO, 0, 1);
        } else {
            if let Some(session) = session {
                session.on_dedup_hit();
            }
            self.recorder
                .lane_event(Lane::Fault, phase, "dedup_hit", SimTime::ZERO, 0, 1);
        }
        false
    }

    /// Advances the membership epoch the server stamps deduplication state
    /// with. Called by the trainer after every scripted join/leave; `epoch`
    /// must be monotone (a smaller value is ignored).
    pub fn set_epoch(&self, epoch: u64) {
        let mut current = self.epoch.lock();
        if epoch > *current {
            *current = epoch;
        }
    }

    /// The membership epoch the server currently stamps operations with.
    pub fn current_epoch(&self) -> u64 {
        *self.epoch.lock()
    }

    /// Runs one logical worker→server operation under the fault plan:
    /// timeout + exponential backoff with deterministic jitter on loss, and
    /// exactly-once application through [`ParameterServer::admit`].
    ///
    /// The exactness invariant lives here: `apply` runs exactly once no
    /// matter how the message is dropped, duplicated, or reordered by
    /// retries, so the ledger records each logical op once and the merged
    /// state is bit-identical to a clean run. All recovery overhead
    /// (outage waits, timeouts, backoff delays) is charged to `phase` as
    /// pure simulated time. Lost *replies* are modelled as the server
    /// caching the reply per sequence id and resending it on retry, so a
    /// pull is never recomputed or recharged either.
    fn resilient<R>(&self, phase: Phase, apply: impl FnOnce() -> R) -> R {
        let session = self.faults.lock().clone();
        let (session, worker) = match session {
            Some(s) => match s.current_worker() {
                Some(w) if s.plan().perturbs_messages() => (s, w),
                _ => return apply(),
            },
            None => return apply(),
        };
        let plan = session.plan();
        let seq = session.next_seq(worker);
        let fault = |name, secs| {
            self.recorder
                .lane_event(Lane::Fault, phase, name, secs, 0, 1)
        };

        // Transient partition unavailability: the op blocks until every
        // outage window covering the current simulated instant has passed.
        let now = self.recorder.ledger().total().sim_time.seconds();
        let wait = plan.outage_wait(now);
        if wait > 0.0 {
            session.add_outage_wait_secs(wait);
            fault("outage_wait", SimTime(wait));
            self.recorder.charge(phase, SimTime(wait));
        }

        let mut apply = Some(apply);
        let mut result: Option<R> = None;
        // Delivers one copy to the server: applies the op on the first
        // delivery of this seq, absorbs every later copy at the gate. The op
        // is stamped with the epoch current at issue time.
        let epoch = self.current_epoch();
        let mut deliver = || {
            if self.admit(phase, epoch, worker, seq) {
                let f = apply.take().expect("op applies exactly once");
                result = Some(f());
            }
        };
        let mut attempt: u32 = 0;
        loop {
            let fate = if attempt >= MAX_ATTEMPTS {
                // The network "heals": force delivery so runs terminate.
                session.on_forced_delivery();
                fault("forced_delivery", SimTime::ZERO);
                Fate::Deliver
            } else {
                plan.fate(worker, seq, attempt)
            };
            match fate {
                Fate::Deliver => {
                    deliver();
                    break;
                }
                Fate::Duplicate => {
                    session.on_duplicate();
                    fault("duplicate", SimTime::ZERO);
                    deliver();
                    deliver();
                    break;
                }
                Fate::DropAck => {
                    // Applied server-side, acknowledgement lost: the client
                    // times out and retries; the retry hits the dedup set.
                    deliver();
                    session.on_ack_drop();
                    fault("ack_drop", SimTime::ZERO);
                }
                Fate::DropRequest => {
                    session.on_request_drop();
                    fault("request_drop", SimTime::ZERO);
                }
            }
            // Lost request or lost ack: timeout, back off, retry.
            let wait = plan.timeout_secs + plan.backoff_secs(worker, seq, attempt);
            session.on_retry(wait);
            fault("retry_backoff", SimTime(wait));
            self.recorder.charge(phase, SimTime(wait));
            attempt += 1;
        }
        result.expect("first delivery must have applied the op")
    }

    // ---- QtSk ------------------------------------------------------------

    /// CREATE_SKETCH push: merges one worker's per-feature sketches into the
    /// global ones. `locals` is indexed by global feature id.
    ///
    /// # Panics
    /// Panics if `locals` does not cover every global feature.
    pub fn push_sketches(&self, locals: Vec<GkSketch>) {
        assert_eq!(
            locals.len(),
            self.num_global_features,
            "sketch push must cover all features"
        );
        self.resilient(Phase::CreateSketch, move || {
            self.apply_push_sketches(locals)
        })
    }

    fn apply_push_sketches(&self, mut locals: Vec<GkSketch>) {
        let bytes: usize = locals.iter_mut().map(|s| s.wire_bytes()).sum();
        let mut merged = self.sketches.lock();
        if merged.is_empty() {
            *merged = locals;
        } else {
            for (m, l) in merged.iter_mut().zip(&locals) {
                m.merge(l);
            }
        }
        self.recorder.record_named(
            Phase::CreateSketch,
            "push_sketches",
            bytes as u64,
            self.config.partitions() as u64,
            SimTime::ZERO,
        );
    }

    /// PULL_SKETCH: returns the merged per-feature sketches.
    pub fn pull_sketches(&self) -> Vec<GkSketch> {
        let mut merged = self.sketches.lock();
        let bytes: usize = merged.iter_mut().map(|s| s.wire_bytes()).sum();
        self.recorder.record_named(
            Phase::PullSketch,
            "pull_sketches",
            bytes as u64,
            self.config.partitions() as u64,
            SimTime::ZERO,
        );
        merged.clone()
    }

    // ---- SmpFeat ----------------------------------------------------------

    /// NEW_TREE: the leader worker publishes the sampled feature ids.
    pub fn publish_sampled(&self, features: Vec<u32>) {
        self.recorder.record_named(
            Phase::NewTree,
            "publish_sampled",
            4 * features.len() as u64,
            1,
            SimTime::ZERO,
        );
        *self.sampled.lock() = features;
    }

    /// BUILD_HISTOGRAM: workers pull the sampled feature ids.
    pub fn pull_sampled(&self) -> Vec<u32> {
        let sampled = self.sampled.lock();
        self.recorder.record_named(
            Phase::NewTree,
            "pull_sampled",
            4 * sampled.len() as u64,
            1,
            SimTime::ZERO,
        );
        sampled.clone()
    }

    // ---- GradHist ----------------------------------------------------------

    /// NEW_TREE: installs the histogram layout for the coming tree and
    /// clears all per-node state.
    pub fn init_tree(&self, layout: HistogramLayout) {
        let partitioner = RangeHashPartitioner::new(
            layout.num_features(),
            self.config.partitions(),
            self.config.num_servers,
        );
        let mut hist = self.hist.write();
        // The finished tree's buffers seed the new tree's free lists,
        // partition by partition (`lend` resizes them to the new layout).
        let mut retired = hist.take().map_or_else(Vec::new, |old| old.partitions);
        retired.resize_with(partitioner.num_partitions(), Default::default);
        for partition in &mut retired {
            let part = partition.get_mut();
            part.free.extend(part.merged.drain().map(|(_, buf)| buf));
        }
        *hist = Some(HistState {
            layout,
            partitioner,
            partitions: retired,
        });
        drop(hist);
        self.decisions.lock().clear();
        // Sequence ids are monotone per worker and never reused, so entries
        // from finished trees can never be hit again — drop them to keep the
        // dedup set O(messages per tree) instead of O(messages per run).
        self.applied.lock().clear();
    }

    fn with_hist<R>(&self, f: impl FnOnce(&HistState) -> R) -> R {
        let guard = self.hist.read();
        let state = guard
            .as_ref()
            .expect("init_tree must be called before histogram ops");
        f(state)
    }

    /// FIND_SPLIT push, full precision: adds one worker's local histogram
    /// row for `node` into the global row, shard by shard (the default
    /// *push* UDF — addition).
    pub fn push_histogram(&self, node: u32, row: &[f32]) {
        self.push(node, Push::Dense(row));
    }

    /// FIND_SPLIT push, low precision (Section 6.1): the worker ships a
    /// quantized row; each server decodes only its feature shard and merges
    /// it. Byte accounting distributes the row's wire size across
    /// partitions proportionally to their element counts.
    pub fn push_histogram_quantized(&self, node: u32, q: &QuantizedRow) {
        self.push(node, Push::Quantized(q));
    }

    /// FIND_SPLIT push, sparse full precision: each feature-block slice of
    /// the row travels under the smallest of the three density-adaptive
    /// layouts (`wire::encode_f32_sparse`); byte accounting charges the
    /// *actual* frame sizes. Returns the per-encoding frame/byte tally for
    /// the trainer's telemetry.
    ///
    /// `stripe` (the pushing worker's logical stripe) is not read: the
    /// server merges on arrival like every other push. It stays in the
    /// signature for the callers that name it.
    pub fn push_histogram_sparse(&self, _stripe: u32, node: u32, row: &[f32]) -> SparseWireStats {
        self.push(node, Push::Sparse(row))
    }

    /// FIND_SPLIT push, sparse low precision: like
    /// [`ParameterServer::push_histogram_sparse`] but the per-block frames
    /// carry the quantized representation — codes bit-packed at `d` bits
    /// under a dense-or-bitmap layout, scales and exact zero-bucket values
    /// as adaptive f32 sub-frames (`sparse::encode_quantized_block`). The
    /// server decodes each frame straight into the accumulator with the
    /// dense quantized push's f32 expression, skipping only adds of `+0.0`,
    /// so the two are bit-identical on the model while the wire bytes
    /// shrink with node sparsity. `stripe` is unread, as in
    /// [`ParameterServer::push_histogram_sparse`].
    pub fn push_histogram_quantized_sparse(
        &self,
        _stripe: u32,
        node: u32,
        q: &QuantizedRow,
    ) -> SparseWireStats {
        self.push(node, Push::QuantizedSparse(q))
    }

    /// The one histogram push: `payload` goes through the retry loop and
    /// merges once, on its first admitted delivery.
    fn push(&self, node: u32, payload: Push) -> SparseWireStats {
        self.resilient(Phase::BuildHistogram, || self.apply_push(node, payload))
    }

    /// Adds one worker's row for `node` into each partition's accumulator
    /// as it arrives — the addition push UDF of Sections 4.2–4.3 — and
    /// records the bytes it put on the wire. A sparse frame is written into
    /// the partition's kept buffer and read straight into the accumulator:
    /// it performs the adds its dense twin performs but the `+0.0` ones, so
    /// every exchange folds a node's rows in arrival order, the trainer's
    /// ascending stripe order (DESIGN §14.2).
    fn apply_push(&self, node: u32, payload: Push) -> SparseWireStats {
        self.with_hist(|state| {
            let layout = &state.layout;
            assert_eq!(payload.len(), layout.row_len(), "row length mismatch");
            let row_len = layout.row_len().max(1) as u64;
            let mut frames = SparseWireStats::default();
            let mut bytes = 0u64;
            for p in 0..state.partitioner.num_partitions() {
                let features = state.partitioner.range(p);
                let elems = layout.elem_range(features.clone());
                if elems.is_empty() {
                    continue;
                }
                let n = elems.len();
                let mut partition = state.partitions[p].lock();
                let (acc, buffer) = partition.accumulator(node, n);
                match payload {
                    Push::Dense(row) => {
                        add_into(acc, &row[elems]);
                        bytes += 4 * n as u64;
                    }
                    Push::Quantized(q) => {
                        q.add_features_into(layout, features, acc);
                        bytes += q.wire_bytes() as u64 * n as u64 / row_len;
                    }
                    Push::Sparse(row) => {
                        let (encoding, len) = buffer.ship_f32(&row[elems], acc);
                        frames.record(encoding, len);
                    }
                    Push::QuantizedSparse(q) => {
                        frames.merge(&buffer.ship_quantized(q, layout, features, acc));
                    }
                }
            }
            self.recorder.record_named(
                Phase::BuildHistogram,
                payload.name(),
                bytes + frames.total_bytes(),
                state.partitioner.num_partitions() as u64,
                SimTime::ZERO,
            );
            frames
        })
    }

    /// FIND_SPLIT pull, two-phase (Section 6.3): every partition runs the
    /// split scan over its shard (server-side phase) and the best of the
    /// per-partition winners is returned (worker-side phase). The reply per
    /// partition is O(1) — "one integer and two floating-point numbers".
    pub fn pull_split(&self, node: u32, params: &SplitParams) -> PullSplitResult {
        self.resilient(Phase::FindSplit, || self.apply_pull_split(node, params))
    }

    fn apply_pull_split(&self, node: u32, params: &SplitParams) -> PullSplitResult {
        self.with_hist(|state| {
            let mut totals: Option<(f64, f64)> = None;
            let mut best: Option<NodeSplit> = None;
            let mut packages = 0u64;
            for p in 0..state.partitioner.num_partitions() {
                let features = state.partitioner.range(p);
                if features.is_empty() {
                    continue;
                }
                let part = state.partitions[p].lock();
                let Some(shard) = part.merged.get(&node) else {
                    continue;
                };
                let res = best_split_in_range(shard, &state.layout, features, totals, params);
                totals = Some((res.total_g, res.total_h));
                best = NodeSplit::better(best, res.best);
                packages += 1;
            }
            // ~48 bytes per partition reply (feature, bucket, gain, G_L, H_L, totals).
            self.recorder.record_named(
                Phase::FindSplit,
                "pull_split",
                48 * packages,
                packages,
                SimTime::ZERO,
            );
            let (total_g, total_h) = totals.unwrap_or((0.0, 0.0));
            PullSplitResult {
                best,
                total_g,
                total_h,
            }
        })
    }

    /// FIND_SPLIT pull, naive single-phase: ships the whole merged row to
    /// the worker. Kept for the Table 3 ablation (two-phase split off).
    pub fn pull_histogram(&self, node: u32) -> Vec<f32> {
        self.resilient(Phase::FindSplit, || self.apply_pull_histogram(node))
    }

    fn apply_pull_histogram(&self, node: u32) -> Vec<f32> {
        self.with_hist(|state| {
            let mut row = vec![0.0f32; state.layout.row_len()];
            let mut packages = 0u64;
            for p in 0..state.partitioner.num_partitions() {
                let elems = state.layout.elem_range(state.partitioner.range(p));
                if elems.is_empty() {
                    continue;
                }
                if let Some(shard) = state.partitions[p].lock().merged.get(&node) {
                    row[elems].copy_from_slice(shard);
                }
                packages += 1;
            }
            self.recorder.record_named(
                Phase::FindSplit,
                "pull_histogram",
                4 * row.len() as u64,
                packages,
                SimTime::ZERO,
            );
            row
        })
    }

    /// Derives `sibling`'s merged histogram as `parent − built_child`, shard
    /// by shard, entirely server-side (the classic histogram-subtraction
    /// trick: only the smaller child is built and pushed; the other falls
    /// out by subtraction). No bytes cross the network.
    ///
    /// Missing parent or child shards are treated as zero rows, so empty
    /// nodes subtract cleanly.
    pub fn derive_sibling(&self, parent: u32, built_child: u32, sibling: u32) {
        self.with_hist(|state| {
            for p in 0..state.partitioner.num_partitions() {
                let elems = state.layout.elem_range(state.partitioner.range(p));
                if elems.is_empty() {
                    continue;
                }
                let mut part = state.partitions[p].lock();
                let mut out = lend(&mut part.free, elems.len());
                if let Some(parent) = part.merged.get(&parent) {
                    out.copy_from_slice(parent);
                }
                if let Some(child) = part.merged.get(&built_child) {
                    for (o, c) in out.iter_mut().zip(child) {
                        *o -= c;
                    }
                }
                if let Some(replaced) = part.merged.insert(sibling, out) {
                    part.free.push(replaced);
                }
            }
        });
    }

    /// Frees the histogram row of a finished node.
    pub fn clear_node(&self, node: u32) {
        self.with_hist(|state| {
            for p in &state.partitions {
                let mut part = p.lock();
                if let Some(buf) = part.merged.remove(&node) {
                    part.free.push(buf);
                }
            }
        });
    }

    // ---- SpFeat / SpVal / SpGain -------------------------------------------

    /// The assigned worker publishes the final decision for a node.
    pub fn publish_decision(&self, decision: SplitDecision) {
        self.resilient(Phase::FindSplit, || self.apply_publish_decision(decision))
    }

    fn apply_publish_decision(&self, decision: SplitDecision) {
        self.recorder
            .record_named(Phase::FindSplit, "publish_decision", 64, 1, SimTime::ZERO);
        self.decisions.lock().insert(decision.node, decision);
    }

    /// SPLIT_TREE: workers pull the decisions for the given nodes.
    ///
    /// # Panics
    /// Panics if a requested node has no published decision — a
    /// synchronization bug in the caller.
    pub fn pull_decisions(&self, nodes: &[u32]) -> Vec<SplitDecision> {
        let map = self.decisions.lock();
        self.recorder.record_named(
            Phase::SplitTree,
            "pull_decisions",
            64 * nodes.len() as u64,
            nodes.len() as u64,
            SimTime::ZERO,
        );
        nodes
            .iter()
            .map(|n| {
                *map.get(n)
                    .unwrap_or_else(|| panic!("no decision published for node {n}"))
            })
            .collect()
    }

    /// Clears published decisions (layer boundary).
    pub fn clear_decisions(&self) {
        self.decisions.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::FinalSplit;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};

    impl ParameterServer {
        /// Test hook for retry schedules: delivers one copy of push `seq` from
        /// `worker`, stamped with the current epoch, and returns whether it
        /// applied (`false`: the gate absorbed it).
        fn push_histogram_from(&self, worker: u32, seq: u64, node: u32, row: &[f32]) -> bool {
            self.push_histogram_from_epoch(self.current_epoch(), worker, seq, node, row)
        }

        /// [`ParameterServer::push_histogram_from`] with an explicit issue epoch.
        fn push_histogram_from_epoch(
            &self,
            epoch: u64,
            worker: u32,
            seq: u64,
            node: u32,
            row: &[f32],
        ) -> bool {
            let admitted = self.admit(Phase::BuildHistogram, epoch, worker, seq);
            if admitted {
                self.apply_push(node, Push::Dense(row));
            }
            admitted
        }
    }

    fn ps_with_layout(buckets: Vec<u32>, servers: usize) -> ParameterServer {
        let ps = ParameterServer::new(
            buckets.len(),
            PsConfig {
                num_servers: servers,
                num_partitions: 0,
                cost_model: CostModel::FREE,
            },
        );
        ps.init_tree(HistogramLayout::new(buckets));
        ps
    }

    /// Sparse-looking worker rows over a wide layout: most features zero.
    fn sparse_rows(row_len: usize, workers: usize) -> Vec<Vec<f32>> {
        (0..workers)
            .map(|w| {
                let mut row = vec![0.0f32; row_len];
                for i in (w..row_len).step_by(17 + w) {
                    row[i] = (i as f32 + 1.0) * if w % 2 == 0 { 0.5 } else { -0.25 };
                }
                row
            })
            .collect()
    }

    #[test]
    fn sparse_push_is_bit_identical_to_dense() {
        let buckets = vec![8u32; 40];
        let rows = sparse_rows(8 * 2 * 40, 4);
        let dense = ps_with_layout(buckets.clone(), 3);
        let sparse = ps_with_layout(buckets, 3);
        for (w, row) in rows.iter().enumerate() {
            dense.push_histogram(5, row);
            sparse.push_histogram_sparse(w as u32, 5, row);
        }
        let a = dense.pull_histogram(5);
        let b = sparse.pull_histogram(5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Worker rows whose `f32` sum depends on the order they are added in:
    /// every third feature is touched, by every worker, with values spanning
    /// six decimal orders of magnitude; the other features are all zero.
    fn order_sensitive_rows(layout: &HistogramLayout, workers: usize) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(23);
        (0..workers)
            .map(|_| {
                let mut row = vec![0.0f32; layout.row_len()];
                for f in (0..layout.num_features()).step_by(3) {
                    for i in layout.elem_range(f..f + 1) {
                        let magnitude = 10f32.powi(rng.random_range(-3..=3));
                        row[i] = rng.random_range(-1.0f32..1.0) * magnitude;
                    }
                }
                row
            })
            .collect()
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn sparse_push_merges_on_arrival_like_dense() {
        // Both exchanges merge on arrival, so pushed in the same ascending
        // stripe order they fold every element in the same order.
        let buckets = vec![4u32; 30];
        let rows = order_sensitive_rows(&HistogramLayout::new(buckets.clone()), 4);
        let merged = |order: &[usize], sparse: bool| {
            let ps = ps_with_layout(buckets.clone(), 3);
            for &w in order {
                if sparse {
                    ps.push_histogram_sparse(w as u32, 2, &rows[w]);
                } else {
                    ps.push_histogram(2, &rows[w]);
                }
            }
            bits(&ps.pull_histogram(2))
        };
        let ascending: Vec<usize> = (0..rows.len()).collect();
        let reversed: Vec<usize> = ascending.iter().rev().copied().collect();
        assert_eq!(merged(&ascending, true), merged(&ascending, false));
        // The rows' sums depend on the order, so the equality above is not
        // vacuous: either side fed in reverse disagrees with the other.
        assert_ne!(merged(&reversed, true), merged(&ascending, false));
        assert_ne!(merged(&ascending, true), merged(&reversed, false));
    }

    #[test]
    fn sparse_push_charges_fewer_bytes_on_sparse_rows() {
        let buckets = vec![8u32; 40];
        let rows = sparse_rows(8 * 2 * 40, 2);
        let dense = ps_with_layout(buckets.clone(), 2);
        let sparse = ps_with_layout(buckets, 2);
        let mut wire = 0u64;
        for (w, row) in rows.iter().enumerate() {
            dense.push_histogram(0, row);
            wire += sparse.push_histogram_sparse(w as u32, 0, row).total_bytes();
        }
        let dense_bytes = dense.comm_stats().bytes;
        assert!(
            wire * 2 < dense_bytes,
            "sparse {wire} vs dense {dense_bytes}"
        );
        // The recorder saw the same true frame bytes the summary reports.
        let ledger = sparse.comm_ledger();
        let recorded: u64 = Phase::ALL.iter().map(|p| ledger.phase(*p).bytes).sum();
        assert_eq!(recorded, wire);
    }

    #[test]
    fn sparse_quantized_push_is_bit_identical_to_dense_quantized() {
        let buckets = vec![6u32; 30];
        let layout = HistogramLayout::new(buckets.clone());
        let rows = order_sensitive_rows(&layout, 3);
        let dense = ps_with_layout(buckets.clone(), 2);
        let sparse = ps_with_layout(buckets, 2);
        for (w, row) in rows.iter().enumerate() {
            // Same seed per worker on both sides: the stochastic rounding
            // must agree for the bit-identity comparison to be meaningful.
            let mut rng = StdRng::seed_from_u64(w as u64);
            let q = crate::quantize::quantize_row(row, &layout, 8, &mut rng);
            dense.push_histogram_quantized(7, &q);
            sparse.push_histogram_quantized_sparse(w as u32, 7, &q);
        }
        let a = dense.pull_histogram(7);
        let b = sparse.pull_histogram(7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn sparse_push_then_derive_sibling_matches_dense() {
        // derive_sibling subtracts what the sparse pushes merged.
        let buckets = vec![4u32; 10];
        let rows = sparse_rows(4 * 2 * 10, 2);
        let ps = ps_with_layout(buckets, 2);
        ps.push_histogram_sparse(0, 1, &rows[0]);
        ps.push_histogram_sparse(1, 1, &rows[1]);
        ps.push_histogram_sparse(0, 2, &rows[1]);
        ps.derive_sibling(1, 2, 3);
        let parent = ps.pull_histogram(1);
        let child = ps.pull_histogram(2);
        let sibling = ps.pull_histogram(3);
        for ((p, c), s) in parent.iter().zip(&child).zip(&sibling) {
            assert_eq!(*s, p - c);
        }
    }

    #[test]
    fn sparse_push_on_degenerate_grid_skips_empty_partitions() {
        // 8 partitions over 2 features: 6 partitions own no feature range.
        // Sparse pushes must route around them and charge zero bytes for
        // them — the per-push frame tally covers only the 2 real blocks.
        let ps = ParameterServer::new(
            2,
            PsConfig {
                num_servers: 8,
                num_partitions: 0,
                cost_model: CostModel::FREE,
            },
        );
        ps.init_tree(HistogramLayout::new(vec![2, 2]));
        let row = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let stats = ps.push_histogram_sparse(0, 0, &row);
        assert_eq!(stats.frames.iter().sum::<u64>(), 2);
        // Each 4-element block is fully dense → dense layout, 5 + 16 bytes.
        assert_eq!(stats.total_bytes(), 2 * (5 + 16));
        assert_eq!(ps.pull_histogram(0).as_slice(), &row);
    }

    /// Buffers the partitions have allocated so far (`lend` misses).
    fn buffers_allocated(ps: &ParameterServer) -> usize {
        ps.with_hist(|state| {
            let held = |p: &Mutex<PartitionState>| {
                let part = p.lock();
                part.free.len() + part.merged.len()
            };
            state.partitions.iter().map(held).sum()
        })
    }

    #[test]
    fn accumulators_are_recycled_across_layers_and_trees() {
        // A depth-3 tree under sibling subtraction keeps at most a layer's
        // parents, built children and derived siblings alive at once. The
        // push-path mix repeats every four trees; once each mix has been
        // seen, further trees must not allocate at all.
        let buckets = vec![6u32; 24];
        let layout = HistogramLayout::new(buckets.clone());
        let rows = sparse_rows(layout.row_len(), 3);
        let ps = ps_with_layout(buckets.clone(), 3);
        let mut after_warm_up = 0;
        for tree in 0..12u64 {
            if tree > 0 {
                // Alternate layouts: recycled buffers are resized, not leaked.
                let nb = if tree % 2 == 0 { 6 } else { 4 };
                ps.init_tree(HistogramLayout::new(vec![nb; 24]));
            }
            let width = if tree % 2 == 0 { 6 } else { 4 } * 2 * 24;
            let mut parents: Vec<u32> = Vec::new();
            for depth in 0..3u32 {
                let first = (1u32 << depth) - 1;
                let nodes: Vec<u32> = (first..2 * first + 1).collect();
                let built: Vec<u32> = match depth {
                    0 => nodes.clone(),
                    _ => nodes.iter().copied().filter(|n| n % 2 == 1).collect(),
                };
                for &node in &built {
                    for (w, row) in rows.iter().enumerate() {
                        let row = &row[..width];
                        let layout = HistogramLayout::new(vec![width as u32 / 48; 24]);
                        let mut rng = StdRng::seed_from_u64(tree * 100 + w as u64);
                        let q = crate::quantize::quantize_row(row, &layout, 8, &mut rng);
                        match (tree + w as u64) % 4 {
                            0 => ps.push_histogram(node, row),
                            1 => ps.push_histogram_quantized(node, &q),
                            2 => {
                                ps.push_histogram_sparse(w as u32, node, row);
                            }
                            _ => {
                                ps.push_histogram_quantized_sparse(w as u32, node, &q);
                            }
                        }
                    }
                }
                for &parent in &parents {
                    ps.derive_sibling(parent, 2 * parent + 1, 2 * parent + 2);
                    ps.clear_node(parent);
                }
                let params = SplitParams::default();
                for &node in &nodes {
                    ps.pull_split(node, &params);
                }
                parents = nodes;
            }
            for &leaf_parent in &parents {
                ps.clear_node(leaf_parent);
            }
            if tree == 3 {
                after_warm_up = buffers_allocated(&ps);
                // Per partition at most 5 nodes hold a merged row at once
                // (2 parents + 2 built children + the sibling being
                // derived), and a partition holds nothing but merged rows:
                // every push adds into its node's row on arrival.
                assert!(after_warm_up <= 3 * 5, "{after_warm_up}");
            }
        }
        assert_eq!(buffers_allocated(&ps), after_warm_up);
    }

    #[test]
    fn recycled_accumulators_start_from_positive_zero() {
        let ps = ps_with_layout(vec![2, 2], 2);
        ps.push_histogram(0, &[1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0]);
        ps.clear_node(0);
        // Node 1 reuses node 0's buffers: it must see zeros, not leftovers.
        ps.push_histogram(1, &[-0.0; 8]);
        for v in ps.pull_histogram(1) {
            assert_eq!(v.to_bits(), 0.0f32.to_bits());
        }
        assert_eq!(buffers_allocated(&ps), 2);
    }

    #[test]
    fn push_merges_rows_additively() {
        let ps = ps_with_layout(vec![2, 2], 2);
        ps.push_histogram(0, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        ps.push_histogram(0, &[10.0; 8]);
        let row = ps.pull_histogram(0);
        assert_eq!(row, vec![11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0]);
    }

    #[test]
    fn nodes_are_independent() {
        let ps = ps_with_layout(vec![2], 1);
        ps.push_histogram(1, &[1.0, 1.0, 1.0, 1.0]);
        ps.push_histogram(2, &[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(ps.pull_histogram(1), vec![1.0; 4]);
        assert_eq!(ps.pull_histogram(2), vec![2.0; 4]);
        ps.clear_node(1);
        assert_eq!(ps.pull_histogram(1), vec![0.0; 4]);
        assert_eq!(ps.pull_histogram(2), vec![2.0; 4]);
    }

    #[test]
    fn concurrent_pushes_from_worker_threads() {
        let ps = ps_with_layout(vec![4, 4, 4], 3);
        let row_len = 24;
        // Test-only thread spawn (this module is #[cfg(test)]): it proves
        // push_histogram tolerates genuinely concurrent callers. Production
        // hot paths never spawn per call — they run on the persistent pool
        // in `dimboost-core::pool`.
        std::thread::scope(|scope| {
            for w in 0..8 {
                let ps = &ps;
                scope.spawn(move || {
                    let row: Vec<f32> = (0..row_len).map(|i| (w * i) as f32).collect();
                    for _ in 0..10 {
                        ps.push_histogram(5, &row);
                    }
                });
            }
        });
        let row = ps.pull_histogram(5);
        for (i, v) in row.iter().enumerate() {
            let expected: f32 = (0..8).map(|w| (w * i) as f32 * 10.0).sum();
            assert!((v - expected).abs() < 1e-3, "elem {i}: {v} vs {expected}");
        }
    }

    #[test]
    fn pull_split_matches_manual_scan() {
        let ps = ps_with_layout(vec![3, 3], 2);
        let row = vec![
            -10.0, 10.0, 0.0, 5.0, 5.0, 1.0, // feature 0
            0.0, 0.0, 0.0, 11.0, 0.0, 0.0, // feature 1
        ];
        ps.push_histogram(0, &row);
        let params = SplitParams {
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 0.0,
            ..SplitParams::default()
        };
        let res = ps.pull_split(0, &params);
        let full =
            best_split_in_range(&row, &HistogramLayout::new(vec![3, 3]), 0..2, None, &params);
        assert_eq!(res.best, full.best);
        assert_eq!(res.total_g, full.total_g);
        assert_eq!(res.total_h, full.total_h);
    }

    #[test]
    fn quantized_push_approximates_full_push() {
        let buckets = vec![8u32; 10];
        let layout = HistogramLayout::new(buckets.clone());
        let row: Vec<f32> = (0..layout.row_len())
            .map(|i| ((i % 17) as f32 - 8.0) / 4.0)
            .collect();

        let full = ps_with_layout(buckets.clone(), 4);
        full.push_histogram(0, &row);
        let full_bytes = full.comm_stats().bytes;

        let quant = ps_with_layout(buckets, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let q = crate::quantize::quantize_row(&row, &layout, 8, &mut rng);
        quant.push_histogram_quantized(0, &q);
        let quant_bytes = quant.comm_stats().bytes;

        let a = full.pull_histogram(0);
        let b = quant.pull_histogram(0);
        let max_abs = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let step = max_abs / 127.0;
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() <= step + 1e-5, "{x} vs {y}");
        }
        // And the wire accounting shows ~4x compression on the push path.
        // Per-feature scale/zero metadata eats part of the ideal 32/d ratio;
        // at 8 buckets/feature the honest win is ~2x (larger K approaches 4x).
        assert!(
            quant_bytes * 2 < full_bytes,
            "{quant_bytes} vs {full_bytes}"
        );
    }

    #[test]
    fn derive_sibling_is_exact_subtraction() {
        let ps = ps_with_layout(vec![3, 3], 2);
        let parent = vec![
            10.0, 20.0, 30.0, 1.0, 2.0, 3.0, 5.0, 5.0, 5.0, 4.0, 4.0, 4.0,
        ];
        let child = vec![4.0, 8.0, 12.0, 0.5, 1.0, 1.5, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0];
        ps.push_histogram(0, &parent);
        ps.push_histogram(1, &child);
        ps.derive_sibling(0, 1, 2);
        let sib = ps.pull_histogram(2);
        for ((s, p), c) in sib.iter().zip(&parent).zip(&child) {
            assert!((s - (p - c)).abs() < 1e-5, "{s} vs {}", p - c);
        }
        // And split finding on the derived node works.
        let params = SplitParams {
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 0.0,
            ..SplitParams::default()
        };
        let res = ps.pull_split(2, &params);
        assert!((res.total_g - (60.0 - 24.0)).abs() < 1e-4);
    }

    #[test]
    fn derive_sibling_with_missing_nodes_is_zero_safe() {
        let ps = ps_with_layout(vec![2], 1);
        // No parent, no child: sibling is a zero row.
        ps.derive_sibling(0, 1, 2);
        assert_eq!(ps.pull_histogram(2), vec![0.0; 4]);
        // Parent only: sibling equals parent.
        ps.push_histogram(3, &[1.0, 2.0, 3.0, 4.0]);
        ps.derive_sibling(3, 4, 5);
        assert_eq!(ps.pull_histogram(5), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn sketch_push_pull_roundtrip() {
        let ps = ParameterServer::new(3, PsConfig::default());
        let make = |offset: f32| -> Vec<GkSketch> {
            (0..3)
                .map(|f| {
                    let mut s = GkSketch::new(0.01);
                    s.extend((0..100).map(|i| offset + (f * 100 + i) as f32));
                    s
                })
                .collect()
        };
        ps.push_sketches(make(0.0));
        ps.push_sketches(make(1000.0));
        let mut merged = ps.pull_sketches();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].count(), 200);
        assert_eq!(merged[0].min(), Some(0.0));
        assert_eq!(merged[0].max(), Some(1099.0));
    }

    #[test]
    #[should_panic(expected = "cover all features")]
    fn sketch_push_must_cover_all_features() {
        let ps = ParameterServer::new(3, PsConfig::default());
        ps.push_sketches(vec![GkSketch::new(0.1)]);
    }

    #[test]
    fn sampled_features_roundtrip() {
        let ps = ParameterServer::new(10, PsConfig::default());
        ps.publish_sampled(vec![1, 3, 5]);
        assert_eq!(ps.pull_sampled(), vec![1, 3, 5]);
    }

    #[test]
    fn decisions_roundtrip_and_clear() {
        let ps = ParameterServer::new(4, PsConfig::default());
        ps.init_tree(HistogramLayout::new(vec![2; 4]));
        let d = SplitDecision {
            node: 3,
            split: Some(FinalSplit {
                feature: 2,
                threshold: 0.5,
                gain: 1.25,
                left_g: -1.0,
                left_h: 2.0,
                default_left: true,
            }),
            total_g: 0.0,
            total_h: 4.0,
        };
        ps.publish_decision(d);
        assert_eq!(ps.pull_decisions(&[3]), vec![d]);
        ps.clear_decisions();
    }

    #[test]
    #[should_panic(expected = "no decision published")]
    fn pulling_missing_decision_panics() {
        let ps = ParameterServer::new(4, PsConfig::default());
        ps.pull_decisions(&[9]);
    }

    #[test]
    fn init_tree_resets_state() {
        let ps = ps_with_layout(vec![2], 1);
        ps.push_histogram(0, &[1.0; 4]);
        ps.init_tree(HistogramLayout::new(vec![2]));
        assert_eq!(ps.pull_histogram(0), vec![0.0; 4]);
    }

    #[test]
    fn push_histogram_from_is_idempotent() {
        let ps = ps_with_layout(vec![2], 1);
        let row = [1.0, 2.0, 3.0, 4.0];
        assert!(ps.push_histogram_from(0, 0, 7, &row));
        assert!(
            !ps.push_histogram_from(0, 0, 7, &row),
            "retried copy must dedup"
        );
        assert!(
            ps.push_histogram_from(1, 0, 7, &row),
            "other worker, same seq"
        );
        assert_eq!(ps.pull_histogram(7), vec![2.0, 4.0, 6.0, 8.0]);
    }

    proptest! {
        /// Push idempotency: any delivery schedule in which each message's
        /// first copy arrives in issue order and retransmitted/duplicated
        /// copies arrive at arbitrary later points merges to a histogram
        /// bit-identical to the clean exactly-once schedule, and the comm
        /// ledger records each logical push exactly once.
        #[test]
        fn retried_push_schedules_merge_exactly_once(
            n_msgs in 1usize..12,
            servers in 1usize..4,
            rows in vec(vec(-8.0f32..8.0, 8..=8), 12..=12),
            extra_copies in vec(0usize..3, 12..=12),
            shuffle_seed in any::<u64>(),
        ) {
            let features = 2usize;
            let msgs: Vec<(u32, u64, u32, &Vec<f32>)> = (0..n_msgs)
                .map(|i| ((i % 3) as u32, (i / 3) as u64, (i % 2) as u32, &rows[i]))
                .collect();

            let clean = ps_with_layout(vec![2; features], servers);
            for &(w, s, node, row) in &msgs {
                prop_assert!(clean.push_histogram_from(w, s, node, row));
            }

            // Build the chaotic schedule: first copies stay in issue order
            // (the retry loop is synchronous per logical op, so a later op
            // never overtakes an earlier one's first delivery), while
            // retransmitted copies of message i land anywhere after its
            // first copy.
            let mut schedule: Vec<usize> = (0..n_msgs).collect();
            let mut rng = StdRng::seed_from_u64(shuffle_seed);
            for (i, &copies) in extra_copies.iter().take(n_msgs).enumerate() {
                for _ in 0..copies {
                    let first = schedule
                        .iter()
                        .position(|&m| m == i)
                        .expect("first copy present");
                    let at = rng.random_range(first + 1..=schedule.len());
                    schedule.insert(at, i);
                }
            }
            let chaotic = ps_with_layout(vec![2; features], servers);
            let mut applied = 0usize;
            for &i in &schedule {
                let (w, s, node, row) = msgs[i];
                if chaotic.push_histogram_from(w, s, node, row) {
                    applied += 1;
                }
            }
            prop_assert_eq!(applied, n_msgs, "each message applies exactly once");
            for node in 0..2u32 {
                prop_assert_eq!(chaotic.pull_histogram(node), clean.pull_histogram(node));
            }
            let (cl, fl) = (clean.comm_ledger(), chaotic.comm_ledger());
            let p = Phase::BuildHistogram;
            prop_assert_eq!(cl.phase(p).bytes, fl.phase(p).bytes);
            prop_assert_eq!(cl.phase(p).packages, fl.phase(p).packages);
        }
    }

    #[test]
    fn stale_epoch_pushes_are_rejected_not_merged() {
        let ps = ps_with_layout(vec![2], 1);
        let row = [1.0, 2.0, 3.0, 4.0];
        // Epoch 0: a worker pushes, then departs; epoch advances.
        assert!(ps.push_histogram_from_epoch(0, 0, 0, 7, &row));
        ps.set_epoch(1);
        assert_eq!(ps.current_epoch(), 1);
        // The departed worker's late retry (same op, old epoch) and even a
        // *new* old-epoch sequence id are both rejected outright.
        assert!(!ps.push_histogram_from_epoch(0, 0, 0, 7, &row));
        assert!(!ps.push_histogram_from_epoch(0, 0, 1, 7, &row));
        // Current-epoch traffic flows normally, including a seq id that
        // collides numerically with an epoch-0 one.
        assert!(ps.push_histogram_from_epoch(1, 1, 0, 7, &row));
        assert!(!ps.push_histogram_from_epoch(1, 1, 0, 7, &row), "dedup");
        assert_eq!(ps.pull_histogram(7), vec![2.0, 4.0, 6.0, 8.0]);
        // Epochs only move forward.
        ps.set_epoch(0);
        assert_eq!(ps.current_epoch(), 1);
    }

    #[test]
    fn stale_rejects_reach_the_fault_session() {
        let ps = ps_with_layout(vec![2], 1);
        let plan = dimboost_simnet::FaultPlan::parse("join worker=9 round=0\n").unwrap();
        let session = dimboost_simnet::FaultSession::new(plan, 2);
        ps.attach_faults(session.clone());
        ps.set_epoch(3);
        assert!(!ps.push_histogram_from_epoch(2, 0, 0, 0, &[1.0; 4]));
        let summary = session.membership_summary();
        assert_eq!(summary.stale_rejects, 1);
    }

    fn chaos_plan() -> dimboost_simnet::FaultPlan {
        dimboost_simnet::FaultPlan {
            seed: 11,
            drop_p: 0.25,
            ack_drop_p: 0.15,
            dup_p: 0.1,
            ..dimboost_simnet::FaultPlan::default()
        }
    }

    #[test]
    fn faulted_pushes_match_clean_run_exactly() {
        let rows: Vec<Vec<f32>> = (0..6)
            .map(|w| (0..8).map(|i| (w * 8 + i) as f32 * 0.5).collect())
            .collect();

        let clean = ps_with_layout(vec![2, 2], 2);
        for row in &rows {
            clean.push_histogram(3, row);
        }

        let faulted = ps_with_layout(vec![2, 2], 2);
        let session = dimboost_simnet::FaultSession::new(chaos_plan(), 6);
        faulted.attach_faults(session.clone());
        for (w, row) in rows.iter().enumerate() {
            session.set_worker(Some(w as u32));
            faulted.push_histogram(3, row);
        }
        session.set_worker(None);

        // Exactness invariant: the merged state and the logical ledger are
        // bit-identical; only simulated time differs.
        assert_eq!(faulted.pull_histogram(3), clean.pull_histogram(3));
        let (cl, fl) = (clean.comm_ledger(), faulted.comm_ledger());
        for phase in Phase::ALL {
            assert_eq!(cl.phase(phase).bytes, fl.phase(phase).bytes, "{phase:?}");
            assert_eq!(
                cl.phase(phase).packages,
                fl.phase(phase).packages,
                "{phase:?}"
            );
        }
        // The plan above is aggressive enough that faults actually fired.
        let sum = session.summary();
        assert!(sum.request_drops + sum.ack_drops + sum.duplicates > 0);
        assert_eq!(sum.dedup_hits, sum.ack_drops + sum.duplicates);
        assert!(sum.backoff_secs > 0.0);
        assert!(
            fl.phase(Phase::BuildHistogram).sim_time.seconds()
                > cl.phase(Phase::BuildHistogram).sim_time.seconds()
        );
    }

    #[test]
    fn faulted_pulls_are_not_recharged() {
        let ps = ps_with_layout(vec![2], 1);
        ps.push_histogram(0, &[1.0, 2.0, 3.0, 4.0]);
        let clean_bytes = ps.comm_ledger().phase(Phase::FindSplit).bytes;
        assert_eq!(clean_bytes, 0);

        let session = dimboost_simnet::FaultSession::new(chaos_plan(), 1);
        ps.attach_faults(session.clone());
        session.set_worker(Some(0));
        for _ in 0..20 {
            assert_eq!(ps.pull_histogram(0), vec![1.0, 2.0, 3.0, 4.0]);
        }
        session.set_worker(None);
        // Each logical pull recorded exactly once despite retries.
        assert_eq!(ps.comm_ledger().phase(Phase::FindSplit).bytes, 20 * 16);
    }

    #[test]
    fn outage_blocks_until_window_passes() {
        let plan = dimboost_simnet::FaultPlan {
            drop_p: 0.0001, // perturbs_messages() without changing fates
            outages: vec![dimboost_simnet::fault::OutageSpec {
                server: 0,
                start: 0.0,
                duration: 0.75,
            }],
            ..dimboost_simnet::FaultPlan::default()
        };
        let ps = ps_with_layout(vec![2], 1);
        let session = dimboost_simnet::FaultSession::new(plan, 1);
        ps.attach_faults(session.clone());
        session.set_worker(Some(0));
        ps.push_histogram(0, &[1.0; 4]);
        session.set_worker(None);
        let sum = session.summary();
        assert!((sum.outage_wait_secs - 0.75).abs() < 1e-9);
        assert!(
            ps.comm_ledger()
                .phase(Phase::BuildHistogram)
                .sim_time
                .seconds()
                >= 0.75
        );
        // Clock has moved past the window: the next op sails through.
        session.set_worker(Some(0));
        ps.push_histogram(0, &[1.0; 4]);
        session.set_worker(None);
        assert!((session.summary().outage_wait_secs - 0.75).abs() < 1e-9);
    }

    #[test]
    fn more_partitions_than_features_is_fine() {
        let ps = ParameterServer::new(
            2,
            PsConfig {
                num_servers: 8,
                num_partitions: 0,
                cost_model: CostModel::FREE,
            },
        );
        ps.init_tree(HistogramLayout::new(vec![2, 2]));
        ps.push_histogram(0, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(
            ps.pull_histogram(0),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        );
        let params = SplitParams {
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 0.0,
            ..SplitParams::default()
        };
        let res = ps.pull_split(0, &params);
        assert!((res.total_g - 3.0).abs() < 1e-6);
    }
}
