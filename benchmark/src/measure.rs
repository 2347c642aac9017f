//! Small measuring tools shared by every stage: sample statistics, the
//! metric record, the failure counter, process CPU/RSS readers, and the
//! host facts every output file carries.

use std::time::Instant;

use dimboost_serving::report::{fnv1a64_extend, FNV_OFFSET};

use crate::json::{num, nums, obj, text, Json};

/// Median of `values` (mean of the middle two for an even count); NaN for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// One reported number: the value (a median when `samples` is non-empty)
/// plus the raw samples it came from.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Raw samples behind the value (empty for counts and exact values).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A value with no sample list (a count, or something exact).
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self {
            name,
            unit,
            value,
            samples: Vec::new(),
        }
    }

    /// The median of `samples`.
    pub fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Self {
            name,
            unit,
            value: median(&samples),
            samples,
        }
    }

    /// A value derived from `samples` by `f` applied to each (e.g. seconds
    /// → rows per second); the value is the median of the derived samples.
    pub fn derived(
        name: &'static str,
        unit: &'static str,
        samples: &[f64],
        f: impl Fn(f64) -> f64,
    ) -> Self {
        Self::median_of(name, unit, samples.iter().map(|&s| f(s)).collect())
    }

    /// The detailed record for the output file: median, min, max, sample
    /// count and the raw samples.
    pub fn detail_json(&self) -> Json {
        let mut members = vec![
            ("value".to_string(), num(self.value)),
            ("unit".to_string(), text(self.unit)),
        ];
        if !self.samples.is_empty() {
            let min = self.samples.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = self
                .samples
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            members.push(("n".to_string(), num(self.samples.len() as f64)));
            members.push(("min".to_string(), num(min)));
            members.push(("max".to_string(), num(max)));
            members.push(("samples".to_string(), nums(&self.samples)));
        }
        Json::Obj(members)
    }
}

/// Counts operations attempted and failed, keeping a message per failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts `n` operations that completed.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one output check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records one failure (the operation was already counted).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("CHECK FAILED: {what}");
        self.failures.push(what);
    }
}

/// Calls `f` until `budget_secs` of wall time is used *and* at least
/// `min_calls` calls were made, returning each call's wall seconds. The
/// budget is checked before each call, so the last call may overrun it.
pub fn repeat_for(budget_secs: f64, min_calls: usize, mut f: impl FnMut()) -> Vec<f64> {
    let begin = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_calls || begin.elapsed().as_secs_f64() < budget_secs {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64());
    }
    samples
}

/// Process CPU seconds so far (user + system, all threads), from
/// `/proc/self/stat`. Kernel ticks are 1/100 s on every Linux this runs
/// on; returns NaN where `/proc` is absent.
pub fn process_cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th overall, i.e. 12th and 13th after the ") ".
    let Some(rest) = stat.rsplit_once(") ").map(|(_, r)| r) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    match (
        fields.get(11).and_then(|s| s.parse::<u64>().ok()),
        fields.get(12).and_then(|s| s.parse::<u64>().ok()),
    ) {
        (Some(utime), Some(stime)) => (utime + stime) as f64 / 100.0,
        _ => f64::NAN,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`); NaN where
/// `/proc` is absent.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a 64 over `bytes` — the output checksum the repo's own benches use.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64 over the little-endian bytes of `values` (the serving
/// reports' score checksum).
pub fn fnv1a64_f32(values: &[f32]) -> u64 {
    values
        .iter()
        .fold(FNV_OFFSET, |hash, &v| fnv1a64_extend(hash, v))
}

/// First line of a command's standard output, or `"unknown"` when it
/// cannot run (the driver's checkout is not a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Hardware parallelism the process may use.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads every gated measurement runs with. One, because the sandbox
/// this benchmark is recorded on is a 2-vCPU guest on a shared host whose
/// second vCPU comes and goes: the same scoring call measured a 1.98x
/// two-thread speed-up and, forty minutes later, 0.95x. A bounded metric
/// that doubles with the host's mood cannot gate anything, so thread
/// scaling is reported by the unbounded `*.thread_speedup` probes instead.
pub const BENCH_THREADS: usize = 1;

/// Threads the thread-scaling probes compare against one:
/// `min(available_parallelism, 2)`.
pub fn probe_threads() -> usize {
    available_parallelism().min(2)
}

/// The host facts written into every output file.
pub fn host_json() -> Json {
    obj([
        ("available_parallelism", num(available_parallelism() as f64)),
        ("threads", num(BENCH_THREADS as f64)),
        ("probe_threads", num(probe_threads() as f64)),
        ("rustc", text(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("os", text(std::env::consts::OS)),
        ("arch", text(std::env::consts::ARCH)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn repeat_for_honours_the_minimum() {
        let mut calls = 0;
        let samples = repeat_for(0.0, 3, || calls += 1);
        assert_eq!((samples.len(), calls), (3, 3));
    }

    #[test]
    fn proc_readers_return_something_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(process_cpu_secs() >= 0.0);
            assert!(peak_rss_mib() > 0.0);
        }
    }

    #[test]
    fn checks_count_failures() {
        let mut c = Checks::default();
        c.ops(5);
        c.check(true, || unreachable!());
        c.check(false, || "boom".into());
        assert_eq!((c.attempted, c.failed), (7, 1));
        assert_eq!(c.failures, vec!["boom".to_string()]);
    }
}
