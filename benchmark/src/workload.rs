//! The fixed workload presets and the program configs derived from them.
//!
//! A workload fixes a data shape, a simulated cluster, the training
//! hyper-parameters and how the measuring time is split. The `--seed`
//! argument reaches only the data and arrival generators in
//! [`crate::setup`] and [`crate::serve`]; the program itself always runs
//! with [`PROGRAM_SEED`] and never sees the seed or the workload's name.

use dimboost_core::{GbdtConfig, Optimizations};
use dimboost_ps::PsConfig;

use crate::json::{num, obj, text, Json};

/// `GbdtConfig::seed` for every run (feature sampling, stochastic
/// rounding). Fixed so that `--seed` changes the inputs only.
pub const PROGRAM_SEED: u64 = 42;

/// Rows per batch for the batched histogram builders and the scoring
/// engine.
pub const BATCH_SIZE: usize = 2048;

/// Split candidates per feature (the paper's `K`).
pub const NUM_CANDIDATES: usize = 20;

/// Fraction of the generated rows held out as the test set.
pub const TEST_FRACTION: f64 = 0.1;

/// One workload preset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Generated rows (before the 10 % hold-out).
    pub rows: usize,
    /// Feature dimension `M`.
    pub features: usize,
    /// Average nonzeros per row `z`.
    pub nnz: usize,
    /// Simulated workers (= data shards).
    pub workers: usize,
    /// Simulated parameter servers.
    pub servers: usize,
    /// Boosting rounds.
    pub trees: usize,
    /// Maximum tree depth.
    pub depth: usize,
    /// `Optimizations::ALL` plus every extension flag (`true`), or the
    /// paper's configuration exactly (`false`).
    pub extensions: bool,
    /// `true`: the model is trained during set-up and the measuring time
    /// goes to serving. `false`: most of it goes to repeated training.
    pub train_in_setup: bool,
    /// Requests in the serve-sim arrival trace.
    pub sim_requests: usize,
}

/// The four presets. Shapes are sized so that one `train_distributed` call
/// takes about a second on a 2-core sandbox, which lets a 20 s run fit ten
/// or so timed repeats after a warm-up.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "highdim-paper",
        rows: 6_000,
        features: 10_000,
        nnz: 100,
        workers: 4,
        servers: 4,
        trees: 2,
        depth: 4,
        extensions: false,
        train_in_setup: false,
        sim_requests: 40_000,
    },
    Workload {
        name: "highdim-ext",
        rows: 6_000,
        features: 10_000,
        nnz: 100,
        workers: 4,
        servers: 4,
        trees: 2,
        depth: 4,
        extensions: true,
        train_in_setup: false,
        sim_requests: 40_000,
    },
    Workload {
        name: "tall-ext",
        rows: 100_000,
        features: 400,
        nnz: 48,
        workers: 2,
        servers: 2,
        trees: 6,
        depth: 6,
        extensions: true,
        train_in_setup: false,
        sim_requests: 40_000,
    },
    Workload {
        name: "serve",
        rows: 20_000,
        features: 600,
        nnz: 40,
        workers: 2,
        servers: 2,
        trees: 16,
        depth: 6,
        extensions: true,
        train_in_setup: true,
        sim_requests: 300_000,
    },
];

impl Workload {
    /// Looks a preset up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The `--smoke` variant: same cluster, flags and code paths on a shape
    /// small enough for the whole suite to finish in seconds.
    pub fn smoke(self) -> Workload {
        Workload {
            rows: (self.rows / 20).max(1_000),
            features: (self.features / 20).max(100),
            nnz: self.nnz.min(24),
            trees: self.trees.min(3),
            depth: self.depth.min(4),
            sim_requests: self.sim_requests / 20,
            ..self
        }
    }

    /// The optimisation flags this workload trains with.
    pub fn optimizations(&self) -> Optimizations {
        if self.extensions {
            Optimizations {
                pre_binning: true,
                hist_subtraction: true,
                fused_layer: true,
                sparse_wire: true,
                quantized_hist: true,
                ..Optimizations::ALL
            }
        } else {
            Optimizations::ALL
        }
    }

    /// The training config: the paper's defaults (η = 0.1, 8-bit pushes,
    /// σ = 1) with this workload's tree budget and `threads` threads.
    pub fn gbdt_config(&self, threads: usize) -> GbdtConfig {
        GbdtConfig {
            num_trees: self.trees,
            max_depth: self.depth,
            num_candidates: NUM_CANDIDATES,
            batch_size: BATCH_SIZE,
            num_threads: threads,
            seed: PROGRAM_SEED,
            opts: self.optimizations(),
            ..GbdtConfig::default()
        }
    }

    /// The parameter-server deployment (one partition per server, gigabit
    /// LAN cost model — the repo's defaults).
    pub fn ps_config(&self) -> PsConfig {
        PsConfig {
            num_servers: self.servers,
            ..PsConfig::default()
        }
    }

    /// Share of the measuring time spent on repeated training.
    pub fn train_share(&self) -> f64 {
        if self.train_in_setup {
            0.0
        } else {
            0.6
        }
    }

    /// The shape record written into every output file.
    pub fn shape_json(&self) -> Json {
        let o = self.optimizations();
        let flags: Vec<Json> = [
            ("sparse_hist", o.sparse_hist),
            ("parallel_batch", o.parallel_batch),
            ("node_index", o.node_index),
            ("task_scheduler", o.task_scheduler),
            ("two_phase_split", o.two_phase_split),
            ("low_precision", o.low_precision),
            ("pre_binning", o.pre_binning),
            ("hist_subtraction", o.hist_subtraction),
            ("fused_layer", o.fused_layer),
            ("sparse_wire", o.sparse_wire),
            ("quantized_hist", o.quantized_hist),
        ]
        .into_iter()
        .filter(|&(_, on)| on)
        .map(|(name, _)| text(name))
        .collect();
        obj([
            ("rows", num(self.rows as f64)),
            ("features", num(self.features as f64)),
            ("nnz_per_row", num(self.nnz as f64)),
            ("workers", num(self.workers as f64)),
            ("servers", num(self.servers as f64)),
            ("trees", num(self.trees as f64)),
            ("depth", num(self.depth as f64)),
            ("candidates", num(NUM_CANDIDATES as f64)),
            ("batch_size", num(BATCH_SIZE as f64)),
            ("flags", Json::Arr(flags)),
            ("train_in_setup", Json::Bool(self.train_in_setup)),
            ("sim_requests", num(self.sim_requests as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid_configs() {
        for w in WORKLOADS {
            assert_eq!(w.gbdt_config(2).validate(), Ok(()), "{}", w.name);
            assert_eq!(w.smoke().gbdt_config(1).validate(), Ok(()), "{}", w.name);
            assert_eq!(Workload::by_name(w.name), Some(w));
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn only_extension_workloads_leave_the_paper_config() {
        for w in WORKLOADS {
            let o = w.optimizations();
            assert_eq!(o.sparse_wire, w.extensions);
            assert_eq!(o == Optimizations::ALL, !w.extensions);
        }
    }
}
