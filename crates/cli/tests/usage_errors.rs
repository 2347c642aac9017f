//! Drives the actual `dimboost` binary with malformed arguments and pins
//! the contract scripts rely on: a usage error is caught at *parse* time,
//! exits with status 2 (distinct from runtime errors' 1 and simulated
//! crashes' 3), and prints a friendly message — never a panic, a silent
//! hang, or a downstream engine assertion.

use std::process::{Command, Output};

fn dimboost(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dimboost"))
        .args(args)
        .output()
        .expect("failed to spawn the dimboost binary")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = dimboost(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} should exit 2, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "{args:?} stderr missing {needle:?}: {stderr}"
    );
    assert!(
        stderr.contains("USAGE"),
        "{args:?} stderr should include the usage text: {stderr}"
    );
    assert!(
        !stderr.contains("panicked at"),
        "{args:?} must not reach a panic: {stderr}"
    );
}

#[test]
fn zero_threads_and_batch_size_are_parse_time_errors() {
    for sub in ["predict", "train"] {
        assert_usage_error(
            &[
                sub,
                "--data",
                "d.libsvm",
                "--model",
                "m.json",
                "--threads",
                "0",
            ],
            "must be positive",
        );
        assert_usage_error(
            &[
                sub,
                "--data",
                "d.libsvm",
                "--model",
                "m.json",
                "--batch-size",
                "0",
            ],
            "must be positive",
        );
    }
}

#[test]
fn serve_sim_validates_its_knobs_at_parse_time() {
    let base = ["serve-sim", "--data", "d.libsvm", "--model", "m.json"];
    for (flag, bad, needle) in [
        ("--requests", "0", "must be positive"),
        ("--rate", "0", "--rate must be positive"),
        ("--queue-cap", "0", "must be positive"),
        ("--max-batch", "0", "must be positive"),
        ("--slo", "0", "--slo must be positive"),
        ("--service-per-row", "-1", "must not be negative"),
    ] {
        let mut args: Vec<&str> = base.to_vec();
        args.extend([flag, bad]);
        assert_usage_error(&args, needle);
    }
    // A swap needs both a time and exactly one model source.
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--swap-at", "0.5"]);
    assert_usage_error(&args, "--swap-at requires");
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--swap-model", "b.json"]);
    assert_usage_error(&args, "requires --swap-at");
}

#[test]
fn analyze_validates_its_trace_path_and_top_at_parse_time() {
    // Missing trace path entirely.
    assert_usage_error(&["analyze"], "analyze requires --trace");
    // Malformed trace path: the flag with no value.
    assert_usage_error(&["analyze", "--trace"], "missing value");
    // Degenerate summary size.
    assert_usage_error(
        &["analyze", "--trace", "t.events", "--top", "0"],
        "--top must be positive",
    );
    assert_usage_error(
        &["analyze", "--trace", "t.events", "--top", "x"],
        "invalid value",
    );
    assert_usage_error(&["analyze", "--trace", "t.events", "--wat"], "unknown flag");
    // A well-formed invocation naming a nonexistent trace file fails at
    // run time with status 1, like every other subcommand.
    let out = dimboost(&["analyze", "--trace", "definitely_missing.events"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("read trace"), "{stderr}");
}

#[test]
fn unknown_flags_and_missing_values_exit_two() {
    assert_usage_error(
        &["predict", "--data", "d", "--model", "m", "--wat"],
        "unknown flag",
    );
    assert_usage_error(&["predict", "--data"], "missing value");
    assert_usage_error(&["explode"], "unknown subcommand");
    assert_usage_error(
        &["bench", "--data", "d", "--model", "m"],
        "unknown subcommand",
    );
}

#[test]
fn runtime_errors_still_exit_one() {
    // A well-formed invocation that fails at run time (missing model file)
    // must keep exit status 1 — scripts tell usage errors and runtime
    // failures apart by status.
    let out = dimboost(&[
        "predict",
        "--data",
        "definitely_missing.libsvm",
        "--model",
        "definitely_missing.json",
    ]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn non_finite_training_data_is_a_read_error_naming_line_and_token() {
    // `nan` and `inf` parse as f32; a NaN value bins left of every split
    // candidate while the split rule routes it right, so it must never get
    // past the reader. Exit 1 (the file is the problem, not the flags).
    let dir = std::env::temp_dir();
    for (tag, text, needle) in [
        (
            "nan_value",
            "1 1:0.5\n1 1:nan 2:3\n",
            "line 2: non-finite value \"nan\"",
        ),
        ("inf_value", "1 1:inf\n", "line 1: non-finite value \"inf\""),
        (
            "nan_label",
            "0 1:1\n1 1:2\nnan 1:3\n",
            "line 3: non-finite label \"nan\"",
        ),
    ] {
        let data = dir.join(format!("dimboost_cli_non_finite_{tag}.txt"));
        let model = dir.join(format!("dimboost_cli_non_finite_{tag}.model"));
        std::fs::write(&data, text).unwrap();
        let (data_arg, model_arg) = (data.to_str().unwrap(), model.to_str().unwrap());
        let out = dimboost(&["train", "--data", data_arg, "--model", model_arg]);
        std::fs::remove_file(&data).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert!(stderr.contains(needle), "{tag}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{tag}: {stderr}");
        assert!(!model.exists(), "{tag}: no model may be written");
    }
}

#[test]
fn analyze_reports_overflowing_trace_counters_instead_of_panicking() {
    // A trace that parses but whose byte counters sum past u64 used to
    // panic the analyzer in debug builds and wrap silently in release.
    let path = std::env::temp_dir().join("dimboost_cli_hostile_counters.events");
    let event = |seq: u32, begin: &str| {
        format!(
            "event seq={seq} track=net kind=collective phase=finish name=finish \
             begin={begin} dur=0.5 bytes=18446744073709551615 pkgs=18446744073709551615\n"
        )
    };
    let text = format!(
        "# dimboost-trace-events v1 workers=1 servers=1 events=2\n{}{}",
        event(0, "0"),
        event(1, "0.5")
    );
    std::fs::write(&path, text).unwrap();
    let out = dimboost(&["analyze", "--trace", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("byte total overflows u64"), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
}

#[test]
fn degenerate_numbers_are_usage_errors_naming_the_flag() {
    // Each of these used to slip past parsing: into an engine assert
    // (`--service-fixed nan`, `gen --features 0`), a simulation that never
    // serves or never swaps, a silently ignored hold-out, or a silent clamp.
    let serve = ["serve-sim", "--data", "d.libsvm", "--model", "m.json"];
    let train = ["train", "--data", "d.libsvm", "--model", "m.json"];
    for (base, extra, needle) in [
        (
            &serve[..],
            &["--service-fixed", "nan"][..],
            "--service-fixed must be finite",
        ),
        (
            &serve[..],
            &["--service-per-row", "inf"][..],
            "--service-per-row must be finite",
        ),
        (
            &serve[..],
            &["--swap-at", "nan", "--swap-model", "b.json"][..],
            "--swap-at must be finite",
        ),
        (
            &train[..],
            &["--test-fraction", "nan"][..],
            "--test-fraction must be in [0, 1)",
        ),
        (
            &train[..],
            &["--test-fraction", "1"][..],
            "--test-fraction must be in [0, 1)",
        ),
        (
            &train[..],
            &["--workers", "0"][..],
            "--workers must be positive",
        ),
        (
            &["gen", "--out", "x.libsvm"][..],
            &["--features", "0"][..],
            "--features must be positive",
        ),
    ] {
        let mut args: Vec<&str> = base.to_vec();
        args.extend_from_slice(extra);
        assert_usage_error(&args, needle);
    }
}

#[test]
fn loss_and_classes_do_not_depend_on_their_order() {
    let train = [
        "train",
        "--data",
        "definitely_missing.libsvm",
        "--model",
        "m",
    ];
    // `--classes K --loss softmax` used to exit 2 asking for `--classes`;
    // now both orders parse and get as far as the missing input (exit 1).
    for extra in [
        ["--classes", "3", "--loss", "softmax"],
        ["--loss", "softmax", "--classes", "3"],
    ] {
        let mut args: Vec<&str> = train.to_vec();
        args.extend(extra);
        assert_eq!(dimboost(&args).status.code(), Some(1), "{args:?}");
    }
    // `--loss square --classes 2` used to train softmax silently.
    for (extra, needle) in [
        (
            ["--loss", "square", "--classes", "2"],
            "--loss square conflicts with --classes",
        ),
        (
            ["--classes", "2", "--loss", "logistic"],
            "--loss logistic conflicts with --classes",
        ),
    ] {
        let mut args: Vec<&str> = train.to_vec();
        args.extend(extra);
        assert_usage_error(&args, needle);
    }
}
