//! Field-by-field comparison of two run reports with declared tolerances —
//! the regression gate behind the `report_diff` binary.
//!
//! Reports are flattened to `path → leaf` maps. Array elements are keyed by
//! their identity field when they have one (`phase`, `name`, `round`,
//! `node`) and by index otherwise, so "the build_histogram phase" in run A
//! lines up with the same phase in run B even if another phase appears or
//! disappears.
//!
//! Tolerances come from rule lines (`<pattern> <tolerance|ignore>`); the
//! *last* matching rule wins, the default is exact equality. Patterns are
//! globs where `*` matches any run of characters. Wall-clock fields
//! (`compute*_secs`, `*wall_secs`, `percentiles.wall/*`) are ignored by
//! built-in rules — they differ on every run by construction; pass
//! `--strict-wall` to `report_diff` to drop those defaults.
//!
//! Numeric comparison under a tolerance is relative
//! (`|x−y| / max(|x|,|y|)`), except against a zero baseline, where the
//! nonzero side's absolute magnitude is compared against the tolerance
//! (both-zero always matches) — see `nums_match`.

use std::collections::BTreeMap;

use crate::json::Json;

/// A flattened leaf value.
#[derive(Debug, Clone, PartialEq)]
pub enum Leaf {
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Leaf {
    fn render(&self) -> String {
        match self {
            Leaf::Num(v) => format!("{v}"),
            Leaf::Str(s) => format!("{s:?}"),
            Leaf::Bool(b) => b.to_string(),
            Leaf::Null => "null".into(),
        }
    }
}

/// Array-element identity fields, in lookup order. An element carrying
/// several of them (a `trace_profile` attribution row has both `phase` and
/// `track`) is keyed by all of them joined with `/`, so rows that share a
/// phase across tracks — or a track across phases — never collide.
const KEY_FIELDS: [&str; 7] = [
    "phase", "name", "round", "node", "window", "track", "tenant",
];

/// Flattens a JSON document into `path → leaf` (paths `.`-joined, array
/// elements keyed per the module docs).
pub fn flatten(doc: &Json) -> BTreeMap<String, Leaf> {
    let mut out = BTreeMap::new();
    flatten_into(doc, String::new(), &mut out);
    out
}

fn element_key(item: &Json, index: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    for field in KEY_FIELDS {
        match item.get(field) {
            Some(Json::Str(s)) => parts.push(s.clone()),
            Some(Json::Num(v)) => parts.push(format!("{v}")),
            _ => {}
        }
    }
    if parts.is_empty() {
        index.to_string()
    } else {
        parts.join("/")
    }
}

fn flatten_into(value: &Json, path: String, out: &mut BTreeMap<String, Leaf>) {
    let join = |segment: &str| {
        if path.is_empty() {
            segment.to_string()
        } else {
            format!("{path}.{segment}")
        }
    };
    match value {
        Json::Obj(members) => {
            for (k, v) in members {
                flatten_into(v, join(k), out);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten_into(item, join(&element_key(item, i)), out);
            }
        }
        Json::Num(v) => {
            out.insert(path, Leaf::Num(*v));
        }
        Json::Str(s) => {
            out.insert(path, Leaf::Str(s.clone()));
        }
        Json::Bool(b) => {
            out.insert(path, Leaf::Bool(*b));
        }
        Json::Null => {
            out.insert(path, Leaf::Null);
        }
    }
}

/// One tolerance rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Glob pattern over flattened paths (`*` matches any run of chars).
    pub pattern: String,
    /// Allowed relative difference; `None` skips the field entirely.
    pub tolerance: Option<f64>,
}

/// Built-in rules: skip wall-clock fields, which differ on every run
/// (elapsed seconds, the throughput rates derived from them, and the
/// `serving_sim` report's `wall_secs` measurement).
pub fn default_rules() -> Vec<Rule> {
    [
        "*compute_secs",
        "*compute_max_secs",
        "*compute_p50_secs",
        "*compute_p99_secs",
        "*compute_skew_secs",
        "*_per_sec",
        "*wall_secs",
        "percentiles.wall/*",
    ]
    .into_iter()
    .map(|p| Rule {
        pattern: p.to_string(),
        tolerance: None,
    })
    .collect()
}

/// Rules for comparing a faulted run against a clean baseline: faults must
/// change *timing only*, never the learned model or the communicated data.
///
/// Everything on the simulated clock is ignored (retries, stragglers, and
/// elastic membership churn legitimately stretch it), as are the fault and
/// membership counters themselves and the resume marker — the clean
/// baseline has no `faults` or `membership` section at all; bytes,
/// packages, losses, and per-round telemetry stay under the strict default
/// and must match the clean run exactly.
pub fn fault_rules() -> Vec<Rule> {
    [
        "*sim_time_secs",
        "percentiles.*",
        "faults.*",
        "membership.*",
        "resumed_from_round",
    ]
    .into_iter()
    .map(|p| Rule {
        pattern: p.to_string(),
        tolerance: None,
    })
    .collect()
}

/// Rules for comparing a `--sparse-wire` run against its dense baseline:
/// the sparse exchange must change *wire accounting only*, never the
/// learned model or the training telemetry.
///
/// Everything that legitimately tracks the frame bytes is ignored — comm
/// bytes/packages and their simulated time, `hist_bytes_wire`, the
/// per-round `sparse_frames` tallies, the `sparsity` section, and the
/// metric percentiles (PS request sizes shift with the frames) — while the
/// structural counters stay under the strict default: losses, split gains,
/// node instance counts, tree/round counts, and `hist_bytes_raw` must
/// match the dense run exactly.
pub fn wire_rules() -> Vec<Rule> {
    [
        "comm.*",
        "phases.*.comm.*",
        "*sim_time_secs",
        "*hist_bytes_wire",
        "*sparse_frames.*",
        "sparsity.*",
        "percentiles.*",
    ]
    .into_iter()
    .map(|p| Rule {
        pattern: p.to_string(),
        tolerance: None,
    })
    .collect()
}

/// Parses a tolerance file: one `<pattern> <tolerance|ignore>` rule per
/// line, `#` comments, blank lines skipped.
pub fn parse_rules(text: &str) -> Result<Vec<Rule>, String> {
    let mut rules = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(pattern), Some(spec), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!(
                "line {}: expected `<pattern> <tolerance|ignore>`, got {line:?}",
                lineno + 1
            ));
        };
        let tolerance = if spec.eq_ignore_ascii_case("ignore") {
            None
        } else {
            let tol: f64 = spec
                .parse()
                .map_err(|_| format!("line {}: invalid tolerance {spec:?}", lineno + 1))?;
            if tol.is_nan() || tol < 0.0 {
                return Err(format!("line {}: tolerance must be >= 0", lineno + 1));
            }
            Some(tol)
        };
        rules.push(Rule {
            pattern: pattern.to_string(),
            tolerance,
        });
    }
    Ok(rules)
}

/// Glob match: `*` matches any (possibly empty) run of characters.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    fn rec(p: &[u8], t: &[u8]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some((b'*', rest)) => (0..=t.len()).any(|skip| rec(rest, &t[skip..])),
            Some((c, rest)) => t
                .split_first()
                .is_some_and(|(tc, tr)| tc == c && rec(rest, tr)),
        }
    }
    rec(pattern.as_bytes(), text.as_bytes())
}

/// How the rules treat one path: `None` → ignore, `Some(tol)` → compare
/// with relative tolerance `tol` (0 = exact). Last matching rule wins;
/// unmatched paths are exact.
fn tolerance_for(path: &str, rules: &[Rule]) -> Option<f64> {
    let mut result = Some(0.0);
    for rule in rules {
        if glob_match(&rule.pattern, path) {
            result = rule.tolerance;
        }
    }
    result
}

/// One field-level disagreement.
#[derive(Debug, Clone)]
pub struct Difference {
    /// Flattened path of the field.
    pub path: String,
    /// What went wrong, human-readable.
    pub detail: String,
}

/// Outcome of a report comparison.
#[derive(Debug, Clone, Default)]
pub struct DiffResult {
    /// Fields that disagree beyond tolerance (empty → reports match).
    pub differences: Vec<Difference>,
    /// Fields compared (present on both sides, not ignored).
    pub compared: usize,
    /// Fields skipped by `ignore` rules.
    pub ignored: usize,
}

impl DiffResult {
    /// True when no field disagreed.
    pub fn is_match(&self) -> bool {
        self.differences.is_empty()
    }
}

/// Compares two parsed reports field by field under `rules`.
pub fn diff_reports(a: &Json, b: &Json, rules: &[Rule]) -> DiffResult {
    let fa = flatten(a);
    let fb = flatten(b);
    let mut result = DiffResult::default();
    let mut paths: Vec<&String> = fa.keys().collect();
    for k in fb.keys() {
        if !fa.contains_key(k) {
            paths.push(k);
        }
    }
    paths.sort();
    for path in paths {
        let Some(tol) = tolerance_for(path, rules) else {
            result.ignored += 1;
            continue;
        };
        match (fa.get(path), fb.get(path)) {
            (Some(va), None) => result.differences.push(Difference {
                path: path.clone(),
                detail: format!("only in first report (= {})", va.render()),
            }),
            (None, Some(vb)) => result.differences.push(Difference {
                path: path.clone(),
                detail: format!("only in second report (= {})", vb.render()),
            }),
            (Some(va), Some(vb)) => {
                result.compared += 1;
                match (va, vb) {
                    (Leaf::Num(x), Leaf::Num(y)) => {
                        if !nums_match(*x, *y, tol) {
                            let rel = rel_diff(*x, *y);
                            result.differences.push(Difference {
                                path: path.clone(),
                                detail: format!(
                                    "{x} vs {y} (relative diff {rel:.3e}, tolerance {tol:.3e})"
                                ),
                            });
                        }
                    }
                    _ => {
                        if va != vb {
                            result.differences.push(Difference {
                                path: path.clone(),
                                detail: format!("{} vs {}", va.render(), vb.render()),
                            });
                        }
                    }
                }
            }
            (None, None) => unreachable!("path came from one of the maps"),
        }
    }
    result
}

fn rel_diff(x: f64, y: f64) -> f64 {
    let denom = x.abs().max(y.abs());
    if denom == 0.0 {
        0.0
    } else {
        (x - y).abs() / denom
    }
}

/// Tolerance comparison with a defined zero-baseline behavior:
///
/// * both zero (including `0.0` vs `-0.0`) → match exactly;
/// * one side zero → the *absolute* magnitude of the other side is compared
///   against `tol` (the relative difference against a zero baseline is
///   always 1, which would reject arbitrarily small values under any
///   tolerance below 1);
/// * both nonzero → relative difference `|x−y| / max(|x|,|y|) <= tol`.
fn nums_match(x: f64, y: f64, tol: f64) -> bool {
    if x == y {
        return true;
    }
    if !x.is_finite() || !y.is_finite() {
        // Both emitters write null for non-finite; a NaN here means the
        // documents already differ structurally.
        return false;
    }
    if x == 0.0 || y == 0.0 {
        // Zero baseline: both-zero already matched above, so exactly one
        // side is nonzero here and |x - y| is its magnitude.
        return (x - y).abs() <= tol;
    }
    tol > 0.0 && rel_diff(x, y) <= tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn glob_patterns() {
        assert!(glob_match("*compute_secs", "compute_secs"));
        assert!(glob_match("*compute_secs", "rounds.0.compute_secs"));
        assert!(!glob_match("*compute_secs", "compute_max_secs"));
        assert!(glob_match(
            "percentiles.wall/*",
            "percentiles.wall/phase_secs/finish.p50"
        ));
        assert!(!glob_match(
            "percentiles.wall/*",
            "percentiles.sim/ps_requests.value"
        ));
        assert!(glob_match("comm.bytes", "comm.bytes"));
        assert!(!glob_match("comm.bytes", "comm.bytes2"));
    }

    #[test]
    fn flatten_keys_arrays_by_identity() {
        let doc = parse(
            r#"{"phases":[{"phase":"new_tree","comm":{"bytes":5}}],
                "rounds":[{"round":0,"split_gains":[1.5,2.5]}],
                "percentiles":[{"name":"sim/x","p50":3}]}"#,
        )
        .unwrap();
        let flat = flatten(&doc);
        assert_eq!(
            flat.get("phases.new_tree.comm.bytes"),
            Some(&Leaf::Num(5.0))
        );
        assert_eq!(flat.get("rounds.0.split_gains.1"), Some(&Leaf::Num(2.5)));
        assert_eq!(flat.get("percentiles.sim/x.p50"), Some(&Leaf::Num(3.0)));
        // Multi-key elements compose their identity: attribution rows share
        // phases across tracks and tracks across phases without colliding.
        let doc = parse(
            r#"{"attribution":[{"track":"net","phase":"find_split","secs":1},
                               {"track":"w0","phase":"find_split","secs":2},
                               {"track":"w0","phase":"new_tree","secs":3}],
                "timeline":[{"window":0,"served":4}]}"#,
        )
        .unwrap();
        let flat = flatten(&doc);
        assert_eq!(
            flat.get("attribution.find_split/net.secs"),
            Some(&Leaf::Num(1.0))
        );
        assert_eq!(
            flat.get("attribution.find_split/w0.secs"),
            Some(&Leaf::Num(2.0))
        );
        assert_eq!(
            flat.get("attribution.new_tree/w0.secs"),
            Some(&Leaf::Num(3.0))
        );
        assert_eq!(flat.get("timeline.0.served"), Some(&Leaf::Num(4.0)));
    }

    #[test]
    fn rule_parsing_and_precedence() {
        let rules = parse_rules(
            "# comment\n\
             *               0.05  # everything loose\n\
             comm.bytes      0     # but bytes exact\n\
             rounds.*        ignore\n",
        )
        .unwrap();
        assert_eq!(rules.len(), 3);
        assert_eq!(
            tolerance_for("phases.new_tree.comm.sim_time_secs", &rules),
            Some(0.05)
        );
        assert_eq!(tolerance_for("comm.bytes", &rules), Some(0.0));
        assert_eq!(tolerance_for("rounds.0.train_loss", &rules), None);

        assert!(parse_rules("pattern").is_err());
        assert!(parse_rules("pattern x").is_err());
        assert!(parse_rules("pattern -0.5").is_err());
    }

    #[test]
    fn identical_reports_match() {
        let a = parse(r#"{"workers":2,"comm":{"bytes":10,"sim_time_secs":0.5}}"#).unwrap();
        let r = diff_reports(&a, &a.clone(), &default_rules());
        assert!(r.is_match());
        assert_eq!(r.compared, 3);
    }

    #[test]
    fn differences_and_tolerances() {
        let a = parse(r#"{"comm":{"bytes":1000,"sim_time_secs":0.50}}"#).unwrap();
        let b = parse(r#"{"comm":{"bytes":1000,"sim_time_secs":0.51}}"#).unwrap();
        // Exact: sim_time differs.
        let r = diff_reports(&a, &b, &default_rules());
        assert_eq!(r.differences.len(), 1);
        assert!(r.differences[0].path.ends_with("sim_time_secs"));
        // 5% relative tolerance passes.
        let mut rules = default_rules();
        rules.extend(parse_rules("comm.sim_time_secs 0.05").unwrap());
        assert!(diff_reports(&a, &b, &rules).is_match());
        // ...but 1% does not.
        let mut rules = default_rules();
        rules.extend(parse_rules("comm.sim_time_secs 0.01").unwrap());
        assert!(!diff_reports(&a, &b, &rules).is_match());
    }

    #[test]
    fn zero_baseline_branches() {
        // Both zero: passes even at exact tolerance (and across signs).
        assert!(nums_match(0.0, 0.0, 0.0));
        assert!(nums_match(0.0, -0.0, 0.0));
        // Zero vs small nonzero: the relative difference is 1.0, so the
        // pre-fix comparison rejected any tolerance below 1; the defined
        // behavior compares the absolute magnitude against the tolerance.
        assert!(rel_diff(0.0, 0.005) == 1.0);
        assert!(nums_match(0.0, 0.005, 0.01));
        assert!(nums_match(0.005, 0.0, 0.01)); // symmetric
        assert!(nums_match(0.0, -0.005, 0.01)); // sign-independent
                                                // Zero vs nonzero beyond the tolerance still fails...
        assert!(!nums_match(0.0, 0.05, 0.01));
        // ...and exact tolerance keeps zero-vs-nonzero a mismatch.
        assert!(!nums_match(0.0, 1e-300, 0.0));
        // Nonzero pairs keep the relative comparison.
        assert!(nums_match(100.0, 100.5, 0.01));
        assert!(!nums_match(100.0, 102.0, 0.01));
    }

    #[test]
    fn zero_baseline_through_diff_reports() {
        let a = parse(r#"{"rounds":[{"round":0,"gain":0.0}]}"#).unwrap();
        let b = parse(r#"{"rounds":[{"round":0,"gain":0.004}]}"#).unwrap();
        let rules = parse_rules("rounds.*.gain 0.01").unwrap();
        assert!(diff_reports(&a, &b, &rules).is_match());
        let tight = parse_rules("rounds.*.gain 0.001").unwrap();
        assert!(!diff_reports(&a, &b, &tight).is_match());
    }

    #[test]
    fn serving_sim_wall_fields_are_skipped_by_default() {
        let a = parse(
            r#"{"kind":"serving_sim","served":80,"wall_secs":0.031,"wall_served_per_sec":2580.6}"#,
        )
        .unwrap();
        let b = parse(
            r#"{"kind":"serving_sim","served":80,"wall_secs":0.058,"wall_served_per_sec":1379.3}"#,
        )
        .unwrap();
        let r = diff_reports(&a, &b, &default_rules());
        assert!(r.is_match(), "{:?}", r.differences);
        assert_eq!(r.ignored, 2);
        // A structural field still fails under the defaults.
        let c = parse(
            r#"{"kind":"serving_sim","served":81,"wall_secs":0.031,"wall_served_per_sec":2612.9}"#,
        )
        .unwrap();
        let r = diff_reports(&a, &c, &default_rules());
        assert_eq!(r.differences.len(), 1);
        assert_eq!(r.differences[0].path, "served");
    }

    #[test]
    fn missing_fields_are_reported() {
        let a = parse(r#"{"comm":{"bytes":1}}"#).unwrap();
        let b = parse(r#"{"comm":{"bytes":1,"packages":2}}"#).unwrap();
        let r = diff_reports(&a, &b, &[]);
        assert_eq!(r.differences.len(), 1);
        assert!(r.differences[0].detail.contains("only in second"));
    }

    #[test]
    fn fault_rules_compare_data_but_not_timing() {
        let clean = parse(
            r#"{"comm":{"bytes":1000,"packages":8,"sim_time_secs":0.50},
                "rounds":[{"round":0,"train_loss":0.5}]}"#,
        )
        .unwrap();
        let faulted = parse(
            r#"{"comm":{"bytes":1000,"packages":8,"sim_time_secs":0.93},
                "rounds":[{"round":0,"train_loss":0.5}],
                "faults":{"plan_seed":42,"retries":7},
                "membership":{"joins":1,"leaves":1,"handoff_secs":0.25},
                "resumed_from_round":3}"#,
        )
        .unwrap();
        let mut rules = default_rules();
        rules.extend(fault_rules());
        let r = diff_reports(&clean, &faulted, &rules);
        assert!(r.is_match(), "{:?}", r.differences);
        // A byte difference is still a failure under fault rules.
        let corrupt = parse(
            r#"{"comm":{"bytes":1001,"packages":8,"sim_time_secs":0.93},
                "rounds":[{"round":0,"train_loss":0.5}]}"#,
        )
        .unwrap();
        let r = diff_reports(&clean, &corrupt, &rules);
        assert_eq!(r.differences.len(), 1);
        assert_eq!(r.differences[0].path, "comm.bytes");
    }

    #[test]
    fn wall_clock_defaults_are_skipped() {
        let a = parse(r#"{"compute_secs":1.0,"comm":{"bytes":5}}"#).unwrap();
        let b = parse(r#"{"compute_secs":9.0,"comm":{"bytes":5}}"#).unwrap();
        let r = diff_reports(&a, &b, &default_rules());
        assert!(r.is_match());
        assert_eq!(r.ignored, 1);
    }
}
