//! Trainer checkpoints: everything needed to resume a crashed distributed
//! run and continue it **bit-exactly**.
//!
//! A checkpoint captures, after boosting round `next_round − 1`:
//!
//! * a fingerprint of the run (seed, tree budget, loss, learning rate,
//!   feature count, worker count, per-shard row counts, and the digest of
//!   any elastic-membership schedule) so a resume against the wrong config
//!   or data fails loudly instead of silently diverging;
//! * the partial model (embedded in the [`crate::model_io`] format);
//! * every worker's RNG state (the xoshiro256++ words), so feature
//!   subsampling and stochastic rounding continue the exact same streams;
//! * the per-phase communication ledger, so resumed reports account for the
//!   whole logical run;
//! * the per-feature split candidates (skipping the sketch phases on
//!   resume keeps candidate proposal — and therefore every split — exactly
//!   reproducible);
//! * the loss/eval curves, early-stopping cursor, and per-round telemetry.
//!
//! Worker predictions are *not* stored: they are recomputed from the
//! partial model, which reproduces the incremental updates bit-exactly
//! because both sum the same trees in the same order per class column.
//!
//! The on-disk format is little-endian with a magic + version header, in
//! the same defensive style as [`crate::model_io`]: every length is bounds-
//! checked, so a truncated or corrupt checkpoint degrades to a typed error.
//! [`TrainCheckpoint::save_to_dir`] writes to a temporary file and renames
//! it into place, so a crash mid-write can never clobber the previous good
//! checkpoint.

use std::path::{Path, PathBuf};

use bytes::{BufMut, Bytes, BytesMut};

use dimboost_data::Dataset;
use dimboost_simnet::{CommLedger, Phase, SimTime};
use dimboost_sketch::SplitCandidates;

use crate::config::GbdtConfig;
use crate::cursor::{Cursor, ReadError};
use crate::model::GbdtModel;
use crate::model_io::{self, ModelIoError};
use crate::report::{NodeInstances, RoundRecord};
use crate::trainer::LossPoint;

const MAGIC: &[u8; 8] = b"DIMBCKPT";
/// Version 2 adds the elastic-membership digest to the fingerprint and an
/// optional stripe-assignment snapshot to the payload. Version-1 files are
/// still readable: they decode with a zero digest and no snapshot, so they
/// resume only runs without a fault plan.
const VERSION: u32 = 2;
const MIN_VERSION: u32 = 1;

/// File name of the rolling checkpoint inside a checkpoint directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// Errors from checkpoint (de)serialization and resume validation.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input does not start with the checkpoint magic.
    BadMagic,
    /// The format version is newer than this library understands.
    UnsupportedVersion(u32),
    /// Structurally invalid content.
    Corrupt(String),
    /// The checkpoint was taken under a different config or data layout
    /// than the resuming run.
    ConfigMismatch(String),
    /// The embedded model failed to decode.
    Model(ModelIoError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a DimBoost checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::ConfigMismatch(msg) => {
                write!(f, "checkpoint does not match this run: {msg}")
            }
            CheckpointError::Model(e) => write!(f, "embedded model: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<ModelIoError> for CheckpointError {
    fn from(e: ModelIoError) -> Self {
        CheckpointError::Model(e)
    }
}

impl From<ReadError> for CheckpointError {
    fn from(e: ReadError) -> Self {
        CheckpointError::Corrupt(e.to_string())
    }
}

/// Identity of a training run for resume validation: a checkpoint may only
/// be resumed by a run with the identical fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFingerprint {
    /// Master training seed.
    pub seed: u64,
    /// Total boosting rounds the run was configured for.
    pub num_trees: u64,
    /// Loss tag byte (the [`crate::model_io`] encoding).
    pub loss_tag: u8,
    /// Class count (1 for scalar losses).
    pub loss_classes: u32,
    /// Learning-rate bits (compared bit-exactly).
    pub learning_rate_bits: u32,
    /// Global feature count.
    pub num_features: u64,
    /// Worker (shard) count.
    pub workers: u32,
    /// Instance rows per shard, in shard order.
    pub shard_rows: Vec<u64>,
    /// Digest of the fault plan's elastic-membership schedule (joins,
    /// leaves, speed factors, speculation threshold) — see
    /// [`dimboost_simnet::FaultPlan::membership_digest`]. Zero only for
    /// runs without a fault plan; a plan without membership lines still
    /// has its (non-zero) digest. Resuming under a different schedule
    /// would silently change epoch numbering and stripe placement, so it
    /// must fail loudly here instead.
    pub membership_digest: u64,
}

impl CheckpointFingerprint {
    /// The fingerprint of a run over `shards` under `config`.
    /// `membership_digest` covers the fault plan's elastic schedule (0
    /// without a plan).
    pub(crate) fn for_run(config: &GbdtConfig, shards: &[Dataset], membership_digest: u64) -> Self {
        let (loss_tag, loss_classes) = model_io::loss_tag(config.loss);
        Self {
            seed: config.seed,
            num_trees: config.num_trees as u64,
            loss_tag,
            loss_classes,
            learning_rate_bits: config.learning_rate.to_bits(),
            num_features: shards.first().map_or(0, |s| s.num_features()) as u64,
            workers: shards.len() as u32,
            shard_rows: shards.iter().map(|s| s.num_rows() as u64).collect(),
            membership_digest,
        }
    }

    /// Checks that `other` (the resuming run) matches this checkpoint,
    /// naming the first mismatching field.
    pub fn ensure_matches(&self, other: &CheckpointFingerprint) -> Result<(), CheckpointError> {
        macro_rules! check {
            ($field:ident) => {
                if self.$field != other.$field {
                    return Err(CheckpointError::ConfigMismatch(format!(
                        "{} differs: checkpoint {:?} vs run {:?}",
                        stringify!($field),
                        self.$field,
                        other.$field
                    )));
                }
            };
        }
        check!(seed);
        check!(num_trees);
        check!(loss_tag);
        check!(loss_classes);
        check!(learning_rate_bits);
        check!(num_features);
        check!(workers);
        check!(shard_rows);
        check!(membership_digest);
        Ok(())
    }
}

/// When and where the trainer writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Directory the rolling [`CHECKPOINT_FILE`] is written into (created
    /// if absent).
    pub dir: PathBuf,
    /// Write a checkpoint after every `every` completed rounds (≥ 1).
    pub every: usize,
}

impl CheckpointOptions {
    /// Checkpoint into `dir` after every round.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every: 1,
        }
    }
}

/// A complete resumable snapshot of a distributed training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Run identity for resume validation.
    pub fingerprint: CheckpointFingerprint,
    /// The next boosting round to execute (rounds `0..next_round` are in
    /// the model).
    pub next_round: usize,
    /// The partial model after round `next_round − 1`.
    pub model: GbdtModel,
    /// Per-worker RNG states, in shard order.
    pub rng_states: Vec<[u64; 4]>,
    /// Communication ledger accumulated so far.
    pub ledger: CommLedger,
    /// Per-feature split candidates proposed by the sketch phases.
    pub candidates: Vec<SplitCandidates>,
    /// Training-loss curve so far.
    pub loss_curve: Vec<LossPoint>,
    /// Per-round telemetry so far.
    pub rounds: Vec<RoundRecord>,
    /// Eval-loss curve so far (empty when the run has no eval set).
    pub eval_curve: Vec<LossPoint>,
    /// Best eval loss seen (`f64::INFINITY` when none).
    pub best_eval_loss: f64,
    /// Round of the best eval loss.
    pub best_iteration: Option<usize>,
    /// Overlay snapshot `(stripe→machine assignment, live machine set,
    /// epoch)` at checkpoint time; `None` for runs without a fault plan.
    /// Restoring it on resume reproduces the exact placement and epoch
    /// numbering the interrupted run had reached, lost machines included.
    pub membership: Option<(Vec<u32>, Vec<u32>, u64)>,
}

impl TrainCheckpoint {
    /// Serializes the checkpoint to bytes.
    pub fn to_bytes(&self) -> Bytes {
        let model_blob = model_io::model_to_bytes(&self.model);
        let mut buf = BytesMut::with_capacity(512 + model_blob.len());
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);

        let fp = &self.fingerprint;
        buf.put_u64_le(fp.seed);
        buf.put_u64_le(fp.num_trees);
        buf.put_u8(fp.loss_tag);
        buf.put_u32_le(fp.loss_classes);
        buf.put_u32_le(fp.learning_rate_bits);
        buf.put_u64_le(fp.num_features);
        buf.put_u32_le(fp.workers);
        buf.put_u64_le(fp.shard_rows.len() as u64);
        for &rows in &fp.shard_rows {
            buf.put_u64_le(rows);
        }
        buf.put_u64_le(fp.membership_digest);

        buf.put_u64_le(self.next_round as u64);
        buf.put_u64_le(model_blob.len() as u64);
        buf.put_slice(&model_blob);

        buf.put_u64_le(self.rng_states.len() as u64);
        for state in &self.rng_states {
            for &w in state {
                buf.put_u64_le(w);
            }
        }

        for phase in Phase::ALL {
            let c = self.ledger.phase(phase);
            buf.put_u64_le(c.bytes);
            buf.put_u64_le(c.packages);
            buf.put_f64_le(c.sim_time.seconds());
        }

        buf.put_u64_le(self.candidates.len() as u64);
        for cand in &self.candidates {
            buf.put_u32_le(cand.splits().len() as u32);
            for &s in cand.splits() {
                buf.put_f32_le(s);
            }
        }

        buf.put_u64_le(self.loss_curve.len() as u64);
        for p in &self.loss_curve {
            put_loss_point(&mut buf, p);
        }

        buf.put_u64_le(self.rounds.len() as u64);
        for r in &self.rounds {
            buf.put_u64_le(r.round as u64);
            buf.put_u64_le(r.trees as u64);
            buf.put_f64_le(r.train_loss);
            buf.put_f64_le(r.compute_secs);
            buf.put_u64_le(r.hist_bytes_raw);
            buf.put_u64_le(r.hist_bytes_wire);
            buf.put_f32_le(r.max_quant_scale);
            buf.put_u32_le(r.split_gains.len() as u32);
            for &g in &r.split_gains {
                buf.put_f32_le(g);
            }
            buf.put_u32_le(r.node_instances.len() as u32);
            for n in &r.node_instances {
                buf.put_u32_le(n.node);
                buf.put_u64_le(n.instances);
            }
        }

        buf.put_u64_le(self.eval_curve.len() as u64);
        for p in &self.eval_curve {
            put_loss_point(&mut buf, p);
        }
        buf.put_f64_le(self.best_eval_loss);
        match self.best_iteration {
            Some(round) => {
                buf.put_u8(1);
                buf.put_u64_le(round as u64);
            }
            None => {
                buf.put_u8(0);
                buf.put_u64_le(0);
            }
        }

        match &self.membership {
            Some((assignment, live, epoch)) => {
                buf.put_u8(1);
                buf.put_u64_le(assignment.len() as u64);
                for &m in assignment {
                    buf.put_u32_le(m);
                }
                buf.put_u64_le(live.len() as u64);
                for &m in live {
                    buf.put_u32_le(m);
                }
                buf.put_u64_le(*epoch);
            }
            None => buf.put_u8(0),
        }

        buf.freeze()
    }

    /// Deserializes a checkpoint, validating structure (including the
    /// embedded model). Every count passes the cursor's count rule before
    /// anything is allocated for it, so a hostile length word costs an
    /// error, not memory.
    pub fn from_bytes(bytes: Bytes) -> Result<Self, CheckpointError> {
        let c = &mut Cursor::new(&bytes);
        if c.take(8)? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = c.u32()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(CheckpointError::UnsupportedVersion(version));
        }

        let fingerprint = CheckpointFingerprint {
            seed: c.u64()?,
            num_trees: c.u64()?,
            loss_tag: c.u8()?,
            loss_classes: c.u32()?,
            learning_rate_bits: c.u32()?,
            num_features: c.u64()?,
            workers: c.u32()?,
            shard_rows: {
                let n = c.count(Cursor::u64, "shard", 8)?;
                (0..n).map(|_| c.u64()).collect::<Result<_, _>>()?
            },
            membership_digest: if version >= 2 { c.u64()? } else { 0 },
        };

        let next_round = c.u64()? as usize;
        let model_len = c.u64()?;
        let model = model_io::read_model(&mut Cursor::new(c.take(model_len)?))?;

        let n_rng = c.count(Cursor::u64, "rng state", 32)?;
        let mut rng_states = Vec::with_capacity(n_rng);
        for _ in 0..n_rng {
            rng_states.push([c.u64()?, c.u64()?, c.u64()?, c.u64()?]);
        }

        let mut ledger = CommLedger::new();
        for phase in Phase::ALL {
            let b = c.u64()?;
            let p = c.u64()?;
            let t = c.f64()?;
            if !t.is_finite() || t < 0.0 {
                return Err(CheckpointError::Corrupt(format!(
                    "bad sim time {t} for phase {}",
                    phase.name()
                )));
            }
            ledger.record(phase, b, p, SimTime(t));
        }

        // A candidate set is at least its length word.
        let n_cand = c.count(Cursor::u64, "candidate", 4)?;
        let mut candidates = Vec::with_capacity(n_cand);
        for _ in 0..n_cand {
            let n = c.count(Cursor::u32, "split", 4)?;
            let splits = (0..n).map(|_| c.f32()).collect::<Result<_, _>>()?;
            // `from_boundaries` re-derives the zero bucket from the splits,
            // so the rebuilt candidates are identical to the originals.
            candidates.push(SplitCandidates::from_boundaries(splits));
        }

        let loss_curve = get_loss_curve(c, "loss point")?;

        // A round is at least its fixed words and two length words.
        let n_rounds = c.count(Cursor::u64, "round", 60)?;
        let mut rounds = Vec::with_capacity(n_rounds);
        for _ in 0..n_rounds {
            let mut r = RoundRecord::new(c.u64()? as usize);
            r.trees = c.u64()? as usize;
            r.train_loss = c.f64()?;
            r.compute_secs = c.f64()?;
            r.hist_bytes_raw = c.u64()?;
            r.hist_bytes_wire = c.u64()?;
            r.max_quant_scale = c.f32()?;
            let n_gains = c.count(Cursor::u32, "split gain", 4)?;
            r.split_gains = (0..n_gains).map(|_| c.f32()).collect::<Result<_, _>>()?;
            let n_nodes = c.count(Cursor::u32, "node instance", 12)?;
            r.node_instances = (0..n_nodes)
                .map(|_| {
                    Ok(NodeInstances {
                        node: c.u32()?,
                        instances: c.u64()?,
                    })
                })
                .collect::<Result<_, ReadError>>()?;
            rounds.push(r);
        }

        let eval_curve = get_loss_curve(c, "eval point")?;
        let best_eval_loss = c.f64()?;
        let has_best = c.u8()?;
        let best_round = c.u64()? as usize;
        let best_iteration = match has_best {
            0 => None,
            1 => Some(best_round),
            t => {
                return Err(CheckpointError::Corrupt(format!(
                    "unknown best-iteration flag {t}"
                )))
            }
        };

        let membership = if version >= 2 {
            match c.u8()? {
                0 => None,
                1 => {
                    let n_assign = c.count(Cursor::u64, "stripe assignment", 4)?;
                    let assignment = (0..n_assign).map(|_| c.u32()).collect::<Result<_, _>>()?;
                    let n_live = c.count(Cursor::u64, "live machine", 4)?;
                    let live = (0..n_live).map(|_| c.u32()).collect::<Result<_, _>>()?;
                    Some((assignment, live, c.u64()?))
                }
                t => {
                    return Err(CheckpointError::Corrupt(format!(
                        "unknown membership flag {t}"
                    )))
                }
            }
        } else {
            None
        };

        Ok(TrainCheckpoint {
            fingerprint,
            next_round,
            model,
            rng_states,
            ledger,
            candidates,
            loss_curve,
            rounds,
            eval_curve,
            best_eval_loss,
            best_iteration,
            membership,
        })
    }

    /// Atomically writes the rolling checkpoint into `dir` (created if
    /// absent): the bytes land in a temporary file first and are renamed
    /// over [`CHECKPOINT_FILE`], so an interrupted write never destroys
    /// the previous checkpoint. Returns the final path.
    pub fn save_to_dir(&self, dir: &Path) -> Result<PathBuf, CheckpointError> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
        let path = dir.join(CHECKPOINT_FILE);
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Loads the rolling checkpoint from `dir`.
    pub fn load_from_dir(dir: &Path) -> Result<Self, CheckpointError> {
        let path = dir.join(CHECKPOINT_FILE);
        let raw = std::fs::read(&path)?;
        Self::from_bytes(Bytes::from(raw))
    }

    /// Loads the rolling checkpoint from `dir` for the run identified by
    /// `run`: the fingerprints must match and every worker needs its RNG
    /// state.
    pub(crate) fn load_for_resume(
        dir: &Path,
        run: &CheckpointFingerprint,
    ) -> Result<Self, CheckpointError> {
        let ck = Self::load_from_dir(dir)?;
        ck.fingerprint.ensure_matches(run)?;
        if ck.rng_states.len() != run.workers as usize {
            return Err(CheckpointError::Corrupt(format!(
                "checkpoint has {} RNG states for {} workers",
                ck.rng_states.len(),
                run.workers
            )));
        }
        Ok(ck)
    }
}

fn put_loss_point(buf: &mut BytesMut, p: &LossPoint) {
    buf.put_u64_le(p.tree as u64);
    buf.put_f64_le(p.train_loss);
    buf.put_f64_le(p.elapsed_secs);
}

fn get_loss_curve(c: &mut Cursor<'_>, what: &'static str) -> Result<Vec<LossPoint>, ReadError> {
    let n = c.count(Cursor::u64, what, 24)?;
    let mut curve = Vec::with_capacity(n);
    for _ in 0..n {
        curve.push(LossPoint {
            tree: c.u64()? as usize,
            train_loss: c.f64()?,
            elapsed_secs: c.f64()?,
        });
    }
    Ok(curve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::train_single_machine;
    use crate::GbdtConfig;
    use dimboost_data::synthetic::{generate, SparseGenConfig};

    fn sample_checkpoint() -> TrainCheckpoint {
        let ds = generate(&SparseGenConfig::new(400, 40, 8, 7));
        let cfg = GbdtConfig {
            num_trees: 2,
            max_depth: 3,
            ..GbdtConfig::default()
        };
        let model = train_single_machine(&ds, &cfg).unwrap();
        let mut ledger = CommLedger::new();
        ledger.record(Phase::BuildHistogram, 1234, 8, SimTime(0.5));
        ledger.record(Phase::FindSplit, 96, 2, SimTime(0.0625));
        let mut round = RoundRecord::new(0);
        round.trees = 1;
        round.train_loss = 0.5;
        round.split_gains = vec![1.5, 0.25];
        round.node_instances = vec![NodeInstances {
            node: 0,
            instances: 400,
        }];
        TrainCheckpoint {
            fingerprint: CheckpointFingerprint {
                seed: 42,
                num_trees: 5,
                loss_tag: 0,
                loss_classes: 1,
                learning_rate_bits: 0.1f32.to_bits(),
                num_features: 40,
                workers: 3,
                shard_rows: vec![134, 133, 133],
                membership_digest: 0x1234_5678_9ABC_DEF0,
            },
            next_round: 2,
            model,
            rng_states: vec![[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]],
            ledger,
            candidates: vec![
                SplitCandidates::from_boundaries(vec![-1.0, 0.5, 2.0]),
                SplitCandidates::from_boundaries(vec![0.25]),
            ],
            loss_curve: vec![LossPoint {
                tree: 1,
                train_loss: 0.5,
                elapsed_secs: 0.1,
            }],
            rounds: vec![round],
            eval_curve: vec![LossPoint {
                tree: 1,
                train_loss: 0.625,
                elapsed_secs: 0.1,
            }],
            best_eval_loss: 0.625,
            best_iteration: Some(0),
            membership: Some((vec![0, 1, 1], vec![0, 1, 5], 4)),
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ck = sample_checkpoint();
        let back = TrainCheckpoint::from_bytes(ck.to_bytes()).unwrap();
        assert_eq!(ck, back);
        // Ledger sim times survive bit-exactly.
        assert_eq!(
            ck.ledger.phase(Phase::BuildHistogram).sim_time.seconds(),
            back.ledger.phase(Phase::BuildHistogram).sim_time.seconds()
        );
    }

    #[test]
    fn dir_roundtrip_is_atomic() {
        let dir = std::env::temp_dir().join("dimboost_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        let ck = sample_checkpoint();
        let path = ck.save_to_dir(&dir).unwrap();
        assert!(path.ends_with(CHECKPOINT_FILE));
        assert!(!dir.join(format!("{CHECKPOINT_FILE}.tmp")).exists());
        // A second save overwrites the first in place.
        let mut ck2 = ck.clone();
        ck2.next_round = 3;
        ck2.save_to_dir(&dir).unwrap();
        let back = TrainCheckpoint::load_from_dir(&dir).unwrap();
        assert_eq!(back, ck2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let err = TrainCheckpoint::from_bytes(Bytes::from_static(b"NOTACKPTmore")).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic));
        let bytes = sample_checkpoint().to_bytes();
        for frac in 1..8 {
            let cut = bytes.len() * frac / 8;
            let err = TrainCheckpoint::from_bytes(bytes.slice(0..cut)).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Corrupt(_)
                        | CheckpointError::BadMagic
                        | CheckpointError::Model(_)
                ),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn rejects_future_version() {
        let mut raw = sample_checkpoint().to_bytes().to_vec();
        raw[8] = 77;
        let err = TrainCheckpoint::from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(matches!(err, CheckpointError::UnsupportedVersion(77)));
    }

    #[test]
    fn fingerprint_mismatch_names_field() {
        let fp = sample_checkpoint().fingerprint;
        let mut other = fp.clone();
        other.seed = 99;
        let err = fp.ensure_matches(&other).unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
        let mut other = fp.clone();
        other.shard_rows = vec![1];
        let err = fp.ensure_matches(&other).unwrap_err();
        assert!(err.to_string().contains("shard_rows"), "{err}");
        // Resuming under a different membership schedule must fail loudly.
        let mut other = fp.clone();
        other.membership_digest ^= 1;
        let err = fp.ensure_matches(&other).unwrap_err();
        assert!(err.to_string().contains("membership_digest"), "{err}");
        assert!(fp.ensure_matches(&fp.clone()).is_ok());
    }

    #[test]
    fn membership_snapshot_roundtrips_in_both_forms() {
        // `Some` snapshot survives bit-exactly (sample_checkpoint carries one).
        let ck = sample_checkpoint();
        let back = TrainCheckpoint::from_bytes(ck.to_bytes()).unwrap();
        assert_eq!(back.membership, Some((vec![0, 1, 1], vec![0, 1, 5], 4)));
        // And the checkpoint of a run without a fault plan stays `None`.
        let mut fixed = ck.clone();
        fixed.membership = None;
        fixed.fingerprint.membership_digest = 0;
        let back = TrainCheckpoint::from_bytes(fixed.to_bytes()).unwrap();
        assert_eq!(back, fixed);
        assert_eq!(back.membership, None);
    }

    #[test]
    fn error_display_and_source() {
        let e = CheckpointError::ConfigMismatch("workers differ".into());
        assert!(e.to_string().contains("workers differ"));
        let io = CheckpointError::from(std::io::Error::other("x"));
        assert!(std::error::Error::source(&io).is_some());
        let m = CheckpointError::from(ModelIoError::BadMagic);
        assert!(std::error::Error::source(&m).is_some());
    }
}
