//! Histogram-kernel throughput bench: dense vs sparse vs binned vs fused
//! vs quantized.
//!
//! Simulates one tree layer — shard rows dealt round-robin across `nodes`
//! build nodes — and times how fast each builder variant constructs the
//! layer's histograms at several thread counts:
//!
//! * `dense`     — per-node batched builds, dense enumeration
//!   (`parallel::build_row_batched`, `sparse: false`);
//! * `sparse`    — per-node batched builds, Algorithm 2
//!   (`parallel::build_row_batched`, `sparse: true`);
//! * `binned`    — per-node batched builds over the pre-binned CSR
//!   (`BinnedShard::build_row_batched`);
//! * `fused`     — one layer-fused pass over the binned CSR
//!   (`fused::build_layer`);
//! * `quantized` — the layer-fused pass over packed fixed-point integer
//!   cells (`fused::build_layer_quantized`, DESIGN.md §15). Gradient
//!   quantization and the pair-cell view of the binned CSR happen once
//!   per tree in the trainer, so they are built outside the timed region
//!   here too.
//!
//! Two problem presets run by default: `default` exercises every variant
//! at a size where per-node overheads matter, and `wide` (more rows,
//! features, and nodes) isolates the memory-bound kernels — `binned`,
//! `fused`, `quantized` — at a layer width where the fused pass's
//! parallel scaling is actually visible. The dense/sparse enumeration
//! variants are skipped on `wide` (dense alone would dwarf the rest of
//! the run without informing either gate).
//!
//! The JSON report follows the repo's canonical-vs-timed split:
//! structural fields (sizes, per-variant entry counts, FNV-1a checksums
//! over the produced histogram bits, the per-problem
//! `quantized_checksums_equal` flag) are deterministic, while
//! `wall_secs`, `entries_per_sec`, `rounds_per_sec`, and the
//! `quantized_speedup` ratios are wall numbers that `report_diff`'s
//! built-in rules ignore — two runs of this bench must be
//! canonical-report identical.
//!
//! The quantized kernel's integer accumulation is associative, so its
//! histogram bits are independent of the thread count: the bench asserts
//! that the `quantized/t*` checksums agree within each problem and hard
//! fails if they do not, and records the verdict as
//! `quantized_checksums_equal` for CI to grep.
//!
//! Two perf gates, both evaluated on the `wide` problem (ratios of wall
//! times on the same machine and run, so neither flakes on absolute
//! machine speed):
//!
//! * `--assert-fused-ratio R` — summed over all measured thread counts,
//!   the fused kernel must not be slower than the per-node binned path
//!   by more than a factor of `R`;
//! * `--assert-quantized-ratio R` — at **every** measured thread count,
//!   the quantized kernel must be at least `R`× faster than the f32
//!   fused kernel.

use std::process::ExitCode;

use dimboost_core::binned::BinnedShard;
use dimboost_core::fused::{self, LayerPositions};
use dimboost_core::hist_build::{QuantBinned, QuantizedGrads};
use dimboost_core::parallel::{build_row_batched, BatchConfig};
use dimboost_core::{FeatureMeta, GradPair};
use dimboost_data::synthetic::{generate, SparseGenConfig};
use dimboost_simnet::emit::fnv1a64;
use dimboost_sketch::SplitCandidates;

/// Quantization codes used by the `quantized` variant — the trainer's
/// default `quant_hist_bits`.
const QUANT_BITS: u8 = 12;

/// One benchmark problem: a synthetic layer of a given shape plus the
/// variant set to measure on it.
struct Problem {
    name: &'static str,
    rows: usize,
    features: usize,
    nnz: usize,
    nodes: usize,
    variants: &'static [&'static str],
}

const ALL_VARIANTS: &[&str] = &["dense", "sparse", "binned", "fused", "quantized"];
const WIDE_VARIANTS: &[&str] = &["binned", "fused", "quantized"];

struct Options {
    /// `default` problem shape.
    rows: usize,
    features: usize,
    nnz: usize,
    nodes: usize,
    /// `wide` problem shape.
    wide_rows: usize,
    wide_features: usize,
    wide_nnz: usize,
    wide_nodes: usize,
    rounds: usize,
    batch_size: usize,
    seed: u64,
    threads_list: Vec<usize>,
    out: Option<String>,
    assert_fused_ratio: Option<f64>,
    assert_quantized_ratio: Option<f64>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            rows: 20_000,
            features: 200,
            nnz: 16,
            nodes: 8,
            wide_rows: 80_000,
            wide_features: 400,
            wide_nnz: 24,
            wide_nodes: 16,
            rounds: 3,
            batch_size: 1024,
            seed: 7,
            threads_list: vec![1, 2, 4, 8],
            out: Some("BENCH_hist.json".into()),
            assert_fused_ratio: None,
            assert_quantized_ratio: None,
        }
    }
}

impl Options {
    fn problems(&self) -> Vec<Problem> {
        vec![
            Problem {
                name: "default",
                rows: self.rows,
                features: self.features,
                nnz: self.nnz,
                nodes: self.nodes,
                variants: ALL_VARIANTS,
            },
            Problem {
                name: "wide",
                rows: self.wide_rows,
                features: self.wide_features,
                nnz: self.wide_nnz,
                nodes: self.wide_nodes,
                variants: WIDE_VARIANTS,
            },
        ]
    }
}

/// One timed `(variant, threads)` measurement.
struct Entry {
    variant: &'static str,
    threads: usize,
    /// Work items per round: nonzero CSR entries for
    /// sparse/binned/fused/quantized, `rows × features` cells for the
    /// dense enumeration. Deterministic.
    entries: u64,
    /// FNV-1a 64 over the layer's histogram bits (node order). Pins the
    /// exact output of every variant into the canonical report.
    checksum: u64,
    secs: f64,
}

/// All measurements and structural facts for one problem.
struct ProblemRun {
    name: &'static str,
    rows: usize,
    features: usize,
    nnz: usize,
    nodes: usize,
    row_len: usize,
    /// Whether every `quantized/t*` checksum in this problem agreed —
    /// the cross-thread-count bit-equality claim of DESIGN.md §15.
    quantized_checksums_equal: bool,
    entries: Vec<Entry>,
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut runs: Vec<ProblemRun> = Vec::new();
    for problem in opts.problems() {
        runs.push(run_problem(&problem, &opts));
    }

    if runs
        .iter()
        .any(|r| r.entries.iter().any(|e| e.variant == "quantized") && !r.quantized_checksums_equal)
    {
        eprintln!("FAIL: quantized checksums differ across thread counts (see above)");
        return ExitCode::FAILURE;
    }

    if let Some(out) = &opts.out {
        let doc = render_json(&opts, &runs);
        if let Err(e) = std::fs::write(out, doc) {
            eprintln!("failed to write {out}: {e}");
            return ExitCode::from(2);
        }
        println!("report written to {out}");
    }

    // Both perf gates read the `wide` problem: the default preset is small
    // enough that per-call overheads, not kernel throughput, dominate.
    let wide = runs
        .iter()
        .find(|r| r.name == "wide")
        .expect("wide problem always runs");

    if let Some(ratio) = opts.assert_fused_ratio {
        let total = |variant: &str| -> f64 {
            wide.entries
                .iter()
                .filter(|e| e.variant == variant)
                .map(|e| e.secs)
                .sum()
        };
        let (fused_secs, binned_secs) = (total("fused"), total("binned"));
        if fused_secs > binned_secs * ratio {
            eprintln!(
                "FAIL: wide fused kernel {fused_secs:.4}s vs per-node binned {binned_secs:.4}s \
                 exceeds the {ratio}x budget"
            );
            return ExitCode::FAILURE;
        }
        println!(
            "wide fused/binned wall ratio {:.2} within the {ratio}x budget",
            fused_secs / binned_secs.max(1e-12)
        );
    }

    if let Some(ratio) = opts.assert_quantized_ratio {
        let secs_of = |variant: &str, threads: usize| -> f64 {
            wide.entries
                .iter()
                .find(|e| e.variant == variant && e.threads == threads)
                .map(|e| e.secs)
                .unwrap_or(0.0)
        };
        for &threads in &opts.threads_list {
            let (fused_secs, quant_secs) =
                (secs_of("fused", threads), secs_of("quantized", threads));
            let speedup = fused_secs / quant_secs.max(1e-12);
            if speedup < ratio {
                eprintln!(
                    "FAIL: wide quantized/t{threads} speedup {speedup:.2}x over f32 fused \
                     ({quant_secs:.4}s vs {fused_secs:.4}s) is below the required {ratio}x"
                );
                return ExitCode::FAILURE;
            }
            println!("wide quantized/t{threads} speedup {speedup:.2}x >= {ratio}x");
        }
    }
    ExitCode::SUCCESS
}

fn run_problem(problem: &Problem, opts: &Options) -> ProblemRun {
    let ds = generate(&SparseGenConfig::new(
        problem.rows,
        problem.features,
        problem.nnz,
        opts.seed,
    ));
    let cands: Vec<SplitCandidates> = (0..problem.features)
        .map(|f| {
            SplitCandidates::from_boundaries(vec![-0.5, 0.2 + (f % 4) as f32 * 0.25, 1.1, 1.7])
        })
        .collect();
    let meta = FeatureMeta::all_features(&cands);
    let grads: Vec<GradPair> = (0..problem.rows)
        .map(|i| GradPair {
            g: ((i % 17) as f32 - 8.0) / 5.0,
            h: 0.2 + (i % 6) as f32 * 0.3,
        })
        .collect();
    let binned = BinnedShard::build(&ds, &meta);
    let row_len = meta.layout().row_len();
    // Built once per tree in the trainer (amortized across every layer of
    // the tree), so kept outside the timed region here as well.
    let qbinned = QuantBinned::build(&binned, &meta);
    let qgrads = QuantizedGrads::quantize(&grads, QUANT_BITS);

    // The simulated layer: row i belongs to build node i % nodes.
    let mut slots = vec![0u32; problem.rows];
    let mut counts = vec![0u64; problem.nodes];
    for (i, slot) in slots.iter_mut().enumerate() {
        *slot = (i % problem.nodes) as u32;
        counts[i % problem.nodes] += 1;
    }
    let positions = LayerPositions { slots, counts };
    let node_instances: Vec<Vec<u32>> = (0..problem.nodes)
        .map(|n| {
            ((n as u32)..problem.rows as u32)
                .step_by(problem.nodes)
                .collect()
        })
        .collect();

    println!(
        "hist_kernel_bench[{}]: {} rows × {} features (nnz {}), {} nodes, row_len {}, \
         {} round(s), batch {}",
        problem.name,
        problem.rows,
        problem.features,
        ds.nnz(),
        problem.nodes,
        row_len,
        opts.rounds,
        opts.batch_size
    );

    let mut entries: Vec<Entry> = Vec::new();
    for &threads in &opts.threads_list {
        for &variant in problem.variants {
            // Builds the full layer once, returning its concatenated rows.
            let build = || -> Vec<f32> {
                match variant {
                    "quantized" => {
                        let (block, _stats) = fused::build_layer_quantized(
                            &binned,
                            &qbinned,
                            &positions,
                            &qgrads,
                            &meta,
                            opts.batch_size,
                            threads,
                        );
                        block
                    }
                    "fused" => fused::build_layer(
                        &binned,
                        &positions,
                        &grads,
                        &meta,
                        opts.batch_size,
                        threads,
                    ),
                    "binned" => node_instances
                        .iter()
                        .flat_map(|inst| {
                            binned.build_row_batched(inst, &grads, &meta, opts.batch_size, threads)
                        })
                        .collect(),
                    dense_or_sparse => {
                        let bc = BatchConfig {
                            batch_size: opts.batch_size,
                            threads,
                            sparse: dense_or_sparse == "sparse",
                        };
                        node_instances
                            .iter()
                            .flat_map(|inst| build_row_batched(&ds, inst, &grads, &meta, &bc))
                            .collect()
                    }
                }
            };
            let _warmup = build();
            let start = std::time::Instant::now();
            let mut layer = Vec::new();
            for _ in 0..opts.rounds {
                layer = build();
            }
            let secs = start.elapsed().as_secs_f64();
            let per_round = if variant == "dense" {
                (problem.rows * problem.features) as u64
            } else {
                ds.nnz() as u64
            };
            let entry = Entry {
                variant,
                threads,
                entries: per_round,
                checksum: fnv1a64(&layer),
                secs,
            };
            println!(
                "  {:>9}/t{threads}: {:>12.0} entries/s, {:>7.2} rounds/s ({:.4}s)",
                variant,
                entry.entries as f64 * opts.rounds as f64 / secs.max(1e-12),
                opts.rounds as f64 / secs.max(1e-12),
                secs
            );
            entries.push(entry);
        }
    }

    // DESIGN.md §15: integer accumulation is associative, so the quantized
    // layer must be bit-identical — same checksum — at every thread count.
    let quant_checksums: Vec<u64> = entries
        .iter()
        .filter(|e| e.variant == "quantized")
        .map(|e| e.checksum)
        .collect();
    let quantized_checksums_equal = quant_checksums.windows(2).all(|w| w[0] == w[1]);
    if !quantized_checksums_equal {
        eprintln!(
            "FAIL[{}]: quantized checksums differ across thread counts: {quant_checksums:?}",
            problem.name
        );
    }

    ProblemRun {
        name: problem.name,
        rows: problem.rows,
        features: problem.features,
        nnz: ds.nnz(),
        nodes: problem.nodes,
        row_len,
        quantized_checksums_equal,
        entries,
    }
}

fn render_json(opts: &Options, runs: &[ProblemRun]) -> String {
    let mut out = String::from("{");
    out.push_str("\"kind\":\"hist_kernel\"");
    out.push_str(&format!(",\"rounds\":{}", opts.rounds));
    out.push_str(&format!(",\"batch_size\":{}", opts.batch_size));
    out.push_str(&format!(",\"seed\":{}", opts.seed));
    out.push_str(&format!(",\"quant_bits\":{QUANT_BITS}"));
    out.push_str(",\"problems\":[");
    for (p, run) in runs.iter().enumerate() {
        if p > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"rows\":{},\"features\":{},\"nnz\":{},\"nodes\":{},\
             \"row_len\":{},\"quantized_checksums_equal\":{}",
            run.name,
            run.rows,
            run.features,
            run.nnz,
            run.nodes,
            run.row_len,
            run.quantized_checksums_equal,
        ));
        out.push_str(",\"results\":[");
        for (i, e) in run.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let secs = e.secs.max(1e-12);
            out.push_str(&format!(
                "{{\"name\":\"{}/t{}\",\"variant\":\"{}\",\"threads\":{},\"entries\":{},\
                 \"checksum\":{},\"wall_secs\":{},\"entries_per_sec\":{},\"rounds_per_sec\":{}}}",
                e.variant,
                e.threads,
                e.variant,
                e.threads,
                e.entries,
                e.checksum,
                e.secs,
                e.entries as f64 * opts.rounds as f64 / secs,
                opts.rounds as f64 / secs,
            ));
        }
        out.push_str("]}");
    }
    out.push(']');
    // Wall-derived summary (ignored by report_diff's default rules): the
    // quantized kernel's speedup over f32 fused, per thread count, on each
    // problem that ran both.
    let mut speedups: Vec<(String, f64)> = Vec::new();
    for run in runs {
        for &threads in &opts.threads_list {
            let secs_of = |variant: &str| -> Option<f64> {
                run.entries
                    .iter()
                    .find(|e| e.variant == variant && e.threads == threads)
                    .map(|e| e.secs)
            };
            if let (Some(fused_secs), Some(quant_secs)) = (secs_of("fused"), secs_of("quantized")) {
                speedups.push((
                    format!("{}/t{}", run.name, threads),
                    fused_secs / quant_secs.max(1e-12),
                ));
            }
        }
    }
    if !speedups.is_empty() {
        out.push_str(",\"quantized_speedup\":{");
        for (i, (name, ratio)) in speedups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{ratio:.4}"));
        }
        out.push('}');
    }
    out.push('}');
    out
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--rows" => opts.rows = parse(&flag, &value("--rows")?)?,
            "--features" => opts.features = parse(&flag, &value("--features")?)?,
            "--nnz" => opts.nnz = parse(&flag, &value("--nnz")?)?,
            "--nodes" => opts.nodes = parse(&flag, &value("--nodes")?)?,
            "--wide-rows" => opts.wide_rows = parse(&flag, &value("--wide-rows")?)?,
            "--wide-features" => opts.wide_features = parse(&flag, &value("--wide-features")?)?,
            "--wide-nnz" => opts.wide_nnz = parse(&flag, &value("--wide-nnz")?)?,
            "--wide-nodes" => opts.wide_nodes = parse(&flag, &value("--wide-nodes")?)?,
            "--rounds" => opts.rounds = parse(&flag, &value("--rounds")?)?,
            "--batch-size" => opts.batch_size = parse(&flag, &value("--batch-size")?)?,
            "--seed" => opts.seed = parse(&flag, &value("--seed")?)?,
            "--threads-list" => {
                opts.threads_list = value("--threads-list")?
                    .split(',')
                    .map(|t| parse(&flag, t))
                    .collect::<Result<_, _>>()?;
            }
            "--out" => opts.out = Some(value("--out")?),
            "--no-out" => opts.out = None,
            "--assert-fused-ratio" => {
                let v = value("--assert-fused-ratio")?;
                opts.assert_fused_ratio = Some(v.parse().map_err(|_| format!("bad ratio {v:?}"))?);
            }
            "--assert-quantized-ratio" => {
                let v = value("--assert-quantized-ratio")?;
                opts.assert_quantized_ratio =
                    Some(v.parse().map_err(|_| format!("bad ratio {v:?}"))?);
            }
            other => {
                return Err(format!(
                    "unknown flag {other}\nusage: hist_kernel_bench [--rows N] [--features M] \
                     [--nnz K] [--nodes D] [--wide-rows N] [--wide-features M] [--wide-nnz K] \
                     [--wide-nodes D] [--rounds R] [--batch-size B] [--seed S] \
                     [--threads-list 1,2,4,8] [--out FILE | --no-out] [--assert-fused-ratio X] \
                     [--assert-quantized-ratio X]"
                ))
            }
        }
    }
    if opts.rows == 0
        || opts.features == 0
        || opts.nodes == 0
        || opts.rounds == 0
        || opts.wide_rows == 0
        || opts.wide_features == 0
        || opts.wide_nodes == 0
    {
        return Err("rows, features, nodes, and rounds must be positive".into());
    }
    if opts.batch_size == 0 || opts.threads_list.is_empty() {
        return Err("batch_size and threads-list must be non-empty".into());
    }
    if opts.threads_list.contains(&0) {
        return Err("thread counts must be positive".into());
    }
    Ok(opts)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value {value:?} for {flag}"))
}
