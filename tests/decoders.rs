//! Every file the tools read back — `DIMBGBDT` model, `DIMBCKPT`
//! checkpoint, fault plan, events-text trace, serve-sim trace — and every
//! dataset they read in (LibSVM, CSV) must turn
//! *any* input into `Ok` or its decoder's typed error: never a panic, never
//! an allocation sized by a number the file merely claims. One valid
//! artefact of each kind is built from a tiny run, then fed back as every
//! prefix and as a few hundred seeded mutations (`simnet::fault::mix64` is
//! the counter-based generator), next to the named hostile inputs that used
//! to crash the binaries.

use dimboost::core::model_io::{model_from_bytes, model_to_bytes};
use dimboost::core::{
    train_with_options, CheckpointError, CheckpointOptions, FaultPlan, GbdtConfig, RobustOptions,
    TrainCheckpoint, TrainError, TrainOptions, TrainOutput,
};
use dimboost::data::csv::{read_csv, CsvOptions};
use dimboost::data::libsvm::{read_libsvm, write_libsvm, LibsvmOptions};
use dimboost::data::partition::partition_rows;
use dimboost::data::synthetic::{generate, SparseGenConfig};
use dimboost::data::{DataError, Dataset};
use dimboost::predict::CompiledModel;
use dimboost::ps::PsConfig;
use dimboost::serving::{
    analyze_serve_trace, poisson_arrivals, run_serve_sim, ServeAnalyzeError, ServeSimConfig,
    TenantSpec,
};
use dimboost::simnet::fault::mix64;
use dimboost::simnet::trace::TraceParseError;
use dimboost::simnet::{analyze_trace, AnalyzeError, CostModel, Phase, Trace};

const MUTATIONS: usize = 300;

fn dataset() -> Dataset {
    generate(&SparseGenConfig::new(160, 12, 4, 5))
}

/// A 2-tree, 2-worker, 1-server traced run under `robust`.
fn tiny_run(robust: RobustOptions) -> Result<TrainOutput, TrainError> {
    let config = GbdtConfig {
        num_trees: 2,
        max_depth: 2,
        num_candidates: 4,
        seed: 3,
        collect_trace: true,
        ..GbdtConfig::default()
    };
    let ps = PsConfig {
        num_servers: 1,
        num_partitions: 0,
        cost_model: CostModel::GIGABIT_LAN,
    };
    let options = TrainOptions {
        robust,
        ..TrainOptions::default()
    };
    train_with_options(
        &partition_rows(&dataset(), 2).unwrap(),
        &config,
        ps,
        &options,
    )
}

/// The checkpoint a run under `plan` leaves behind when it crashes at
/// round 1.
fn checkpoint_under(plan: &str, tag: &str) -> TrainCheckpoint {
    let dir = std::env::temp_dir().join(format!("dimboost_decoders_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let err = tiny_run(RobustOptions {
        fault_plan: Some(FaultPlan::parse(&format!("{plan}crash round=1\n")).unwrap()),
        checkpoint: Some(CheckpointOptions::new(&dir)),
        resume: false,
    })
    .unwrap_err();
    assert!(matches!(err, TrainError::Crashed { round: 1, .. }), "{err}");
    let ck = TrainCheckpoint::load_from_dir(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    ck
}

/// The last rolling checkpoint of a run with no fault plan: the form
/// without an overlay snapshot.
fn checkpoint_without_plan() -> TrainCheckpoint {
    let dir = std::env::temp_dir().join("dimboost_decoders_fixed");
    let _ = std::fs::remove_dir_all(&dir);
    tiny_run(RobustOptions {
        fault_plan: None,
        checkpoint: Some(CheckpointOptions::new(&dir)),
        resume: false,
    })
    .unwrap();
    let ck = TrainCheckpoint::load_from_dir(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    ck
}

/// A plan that uses every directive, with both comment forms.
const EVERY_DIRECTIVE: &str = "\
# every directive once
seed 42
drop 0.05                  # request loss
ack_drop 0.02
dup 0.01
timeout_secs 0.05
backoff_base_secs 0.01
backoff_max_secs 1.0

straggler worker=1 factor=3.0 phase=build_histogram
outage server=0 start=0.5 dur=0.25
crash round=2
lose worker=2 round=3 policy=redistribute
join worker=3 round=1      # a fourth machine
leave worker=0 round=2 policy=handoff
speed worker=1 factor=2.5
speculate threshold=1.5
";

fn serve_trace() -> String {
    let ds = dataset();
    let model = CompiledModel::compile(&tiny_run(RobustOptions::default()).unwrap().model);
    let tenants: Vec<TenantSpec> = (0..2)
        .map(|i| TenantSpec {
            name: format!("tenant{i}"),
            model: model.clone(),
        })
        .collect();
    let config = ServeSimConfig {
        seed: 9,
        queue_capacity: 3,
        ..ServeSimConfig::default()
    };
    let arrivals = poisson_arrivals(config.seed, 40, 20_000.0, 2, ds.num_rows());
    run_serve_sim(&tenants, &[], &ds, &arrivals, &config).trace
}

/// Counter-based generator: draw `i` of stream `seed` is a pure hash.
struct Gen {
    seed: u64,
    draws: u64,
}

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.draws += 1;
        (mix64(self.seed ^ mix64(self.draws)) % n.max(1) as u64) as usize
    }
}

/// One seeded mutation of `bytes`: a byte flip, a splice (a slice copied
/// over, inserted at, or cut from a random place), or a 4/8-byte word
/// overwritten with a value a length field would choke on.
fn mutate_bytes(bytes: &[u8], g: &mut Gen) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = g.below(out.len());
    match g.below(5) {
        0 => out[at] ^= 1 << g.below(8),
        1 => {
            let from = g.below(out.len());
            let len = g.below(24).min(out.len() - from.max(at));
            out.copy_within(from..from + len, at);
        }
        2 => {
            let len = g.below(24).min(out.len() - at);
            let slice = out[at..at + len].to_vec();
            let to = g.below(out.len());
            out.splice(to..to, slice);
        }
        3 => {
            let len = g.below(24).min(out.len() - at);
            out.drain(at..at + len);
        }
        _ => {
            let word = [0u64, 1 << 28, u64::MAX][g.below(3)].to_le_bytes();
            let width = [4, 8][g.below(2)].min(out.len() - at);
            out[at..at + width].copy_from_slice(&word[..width]);
        }
    }
    out
}

/// One seeded mutation of an ASCII `text`: a character flip, a splice, a
/// token repeated on its line, or a value replaced by a hostile number.
fn mutate_text(text: &str, g: &mut Gen) -> String {
    assert!(text.is_ascii());
    match g.below(4) {
        0 => {
            const ALPHABET: &[u8] = b" =#\n-.0123456789aeinfst";
            let mut out = text.as_bytes().to_vec();
            let at = g.below(out.len());
            out[at] = ALPHABET[g.below(ALPHABET.len())];
            String::from_utf8(out).unwrap()
        }
        1 => {
            let mut out = text.as_bytes().to_vec();
            let at = g.below(out.len());
            let len = g.below(24).min(out.len() - at);
            if g.below(2) == 0 {
                out.drain(at..at + len);
            } else {
                let slice = out[at..at + len].to_vec();
                let to = g.below(out.len());
                out.splice(to..to, slice);
            }
            String::from_utf8(out).unwrap()
        }
        kind => {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            let line = g.below(lines.len());
            let mut tokens: Vec<String> = lines[line].split(' ').map(str::to_string).collect();
            let token = g.below(tokens.len());
            if kind == 2 {
                tokens.insert(token, tokens[token].clone());
            } else {
                let hostile =
                    ["0", "268435456", "18446744073709551615", "nan", "inf", "-1"][g.below(6)];
                tokens[token] = match tokens[token].split_once('=') {
                    Some((key, _)) => format!("{key}={hostile}"),
                    None => hostile.to_string(),
                };
            }
            lines[line] = tokens.join(" ");
            lines.join("\n") + "\n"
        }
    }
}

/// `text` with one counter key (`bytes=` or `pkgs=`) set to `u64::MAX` on two
/// of its event lines — each value is legal alone, their sum is not.
fn hostile_counters(text: &str, g: &mut Gen) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let key = ["bytes=", "pkgs="][g.below(2)];
    for _ in 0..2 {
        // Line 0 is the header.
        let line = 1 + g.below(lines.len() - 1);
        let tokens = lines[line].split(' ').map(|token| match token {
            t if t.starts_with(key) => format!("{key}{}", u64::MAX),
            t => t.to_string(),
        });
        lines[line] = tokens.collect::<Vec<_>>().join(" ");
    }
    lines.join("\n") + "\n"
}

/// Says which input was being decoded if the decoder panics.
struct Decoding<'a>(&'a str, usize);

impl Drop for Decoding<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("decoder panicked on {} input #{}", self.0, self.1);
        }
    }
}

/// Feeds `decode` every prefix of `artefact` and `MUTATIONS` mutations of
/// it. Returning at all is the assertion: `decode` maps its input to
/// `Ok`/typed `Err` and must not panic.
fn fuzz_bytes(what: &str, artefact: &[u8], decode: impl Fn(&[u8])) {
    for cut in 0..artefact.len() {
        let _ctx = Decoding(what, cut);
        decode(&artefact[..cut]);
    }
    let mut g = Gen {
        seed: mix64(artefact.len() as u64),
        draws: 0,
    };
    for i in 0..MUTATIONS {
        let _ctx = Decoding(what, artefact.len() + i);
        decode(&mutate_bytes(artefact, &mut g));
    }
}

fn truncated_text(what: &str, artefact: &str, decode: impl Fn(&str)) {
    for cut in 0..artefact.len() {
        let _ctx = Decoding(what, cut);
        decode(&artefact[..cut]);
    }
}

fn mutated_text(what: &str, artefact: &str, decode: impl Fn(&str)) {
    let mut g = Gen {
        seed: mix64(artefact.len() as u64),
        draws: 0,
    };
    for i in 0..MUTATIONS {
        let _ctx = Decoding(what, artefact.len() + i);
        decode(&mutate_text(artefact, &mut g));
    }
}

#[test]
fn binary_decoders_survive_truncation_and_mutation() {
    let model = tiny_run(RobustOptions::default()).unwrap().model;
    let bytes = model_to_bytes(&model);
    assert_eq!(model_from_bytes(bytes.clone()).unwrap(), model);
    fuzz_bytes("model", &bytes, |b| {
        let _ = model_from_bytes(b.to_vec().into());
    });

    let fixed = checkpoint_without_plan();
    let elastic = checkpoint_under(
        "join worker=2 round=0\nspeed worker=1 factor=2\n",
        "elastic",
    );
    assert_eq!(fixed.membership, None);
    assert!(elastic.membership.is_some());
    for (what, ck) in [("checkpoint", &fixed), ("elastic checkpoint", &elastic)] {
        let bytes = ck.to_bytes();
        assert_eq!(&TrainCheckpoint::from_bytes(bytes.clone()).unwrap(), ck);
        fuzz_bytes(what, &bytes, |b| {
            let _ = TrainCheckpoint::from_bytes(b.to_vec().into());
        });
    }
}

#[test]
fn text_decoders_survive_truncation_and_mutation() {
    let plan = FaultPlan::parse(EVERY_DIRECTIVE).unwrap();
    assert_eq!(
        (plan.stragglers.len(), plan.outages.len(), plan.losses.len()),
        (1, 1, 1)
    );
    assert_eq!(
        (plan.joins.len(), plan.leaves.len(), plan.speeds.len()),
        (1, 1, 1)
    );
    assert_eq!(
        (plan.crash_round, plan.speculate_threshold),
        (Some(2), Some(1.5))
    );
    assert_eq!(
        (plan.seed, plan.drop_p, plan.ack_drop_p, plan.dup_p),
        (42, 0.05, 0.02, 0.01)
    );
    let decode = |t: &str| drop(FaultPlan::parse(t));
    truncated_text("fault plan", EVERY_DIRECTIVE, decode);
    mutated_text("fault plan", EVERY_DIRECTIVE, decode);

    let mut trace = tiny_run(RobustOptions::default()).unwrap().trace.unwrap();
    let text = trace.events_text();
    // The export drops the wall-clock annotation; everything else returns.
    trace.events.iter_mut().for_each(|e| e.wall_secs = 0.0);
    assert_eq!(Trace::parse_events_text(&text).unwrap(), trace);
    // Re-reading every prefix is quadratic in the document, so that pass
    // runs over the trace's first events; mutations run over all of it.
    let head = Trace {
        events: trace.events[..30].to_vec(),
        ..trace
    };
    // What parses goes on to the analyzer, which must answer every trace
    // the parser lets through with a profile or a typed error.
    let decode = |t: &str| drop(Trace::parse_events_text(t).map(|t| analyze_trace(&t)));
    truncated_text("events text", &head.events_text(), decode);
    mutated_text("events text", &text, decode);
    // Counters that parse but cannot be summed: `u64::MAX` on the byte or
    // package field of two events at once.
    let mut g = Gen {
        seed: mix64(text.len() as u64 ^ 0xC0),
        draws: 0,
    };
    for i in 0..MUTATIONS / 3 {
        let _ctx = Decoding("events text counters", i);
        decode(&hostile_counters(&text, &mut g));
    }

    let serve = serve_trace();
    let profile = analyze_serve_trace(&serve).unwrap();
    assert_eq!(profile.arrived, 40);
    assert!(profile.shed > 0 && profile.served > 0, "{profile:?}");
    let decode = |t: &str| drop(analyze_serve_trace(t));
    truncated_text("serve trace", &serve, decode);
    mutated_text("serve trace", &serve, decode);
}

/// What the trainer assumes of a dataset it did not generate itself: every
/// stored value and label is finite. (`nan` parses as an `f32`; a NaN value
/// would bin left of every candidate and be routed right of every split.)
fn assert_all_finite(ds: &Dataset) {
    let finite = |(row, label): (dimboost::data::RowView<'_>, f32)| {
        label.is_finite() && row.values().iter().all(|v| v.is_finite())
    };
    assert!(
        ds.iter_rows().all(finite),
        "reader let a non-finite through"
    );
}

#[test]
fn dataset_readers_refuse_non_finite_tokens_and_survive_mutation() {
    let libsvm = |t: &str| read_libsvm(t.as_bytes(), LibsvmOptions::default());
    let csv = |t: &str| read_csv(t.as_bytes(), CsvOptions::default());
    for (text, line, token) in [
        ("1 1:nan 2:3\n", 1, "\"nan\""),
        ("0 3:1\n1 1:inf\n", 2, "\"inf\""),
        ("0 3:1\n\n1 1:2 4:-Infinity\n", 3, "\"-Infinity\""),
        ("NaN 1:1\n", 1, "\"NaN\""),
    ] {
        match libsvm(text) {
            Err(DataError::Parse { line: at, message }) => {
                assert!(at == line && message.contains(token), "{at}: {message}")
            }
            other => panic!("{text:?} read as {other:?}"),
        }
    }
    match csv("y,a,b\n1,0.5,2\n0,nan,1\n") {
        Err(DataError::Parse { line: 3, message }) => assert!(message.contains("\"nan\"")),
        other => panic!("CSV with a nan field read as {other:?}"),
    }

    let mut text = Vec::new();
    write_libsvm(&mut text, &generate(&SparseGenConfig::new(12, 9, 4, 3))).unwrap();
    let text = String::from_utf8(text).unwrap();
    assert_eq!(libsvm(&text).unwrap().num_rows(), 12);
    let decode = |t: &str| drop(libsvm(t).map(|ds| assert_all_finite(&ds)));
    truncated_text("libsvm", &text, decode);
    mutated_text("libsvm", &text, decode);
    // A dense table of the same shape; the mutator's token replacement
    // works on spaces, so the CSV is space-delimited.
    let table = "y a b c\n1 0.5 0 -2\n0 1.5 3 0\n1 0 0 0.25\n0 -1 2 2\n";
    let spaced = CsvOptions {
        delimiter: ' ',
        ..CsvOptions::default()
    };
    let csv = |t: &str| read_csv(t.as_bytes(), spaced);
    assert_eq!(csv(table).unwrap().num_rows(), 4);
    let decode = |t: &str| drop(csv(t).map(|ds| assert_all_finite(&ds)));
    truncated_text("csv", table, decode);
    mutated_text("csv", table, decode);
}

#[test]
fn header_counts_are_checked_not_allocated() {
    // The two one-line files that used to end `dimboost analyze` in
    // `capacity overflow` and `memory allocation of … bytes failed`.
    let events = "# dimboost-trace-events v1 workers=1 servers=1 events=18446744073709551615\n";
    assert_eq!(
        Trace::parse_events_text(events),
        Err(TraceParseError::Truncated {
            expected: usize::MAX,
            got: 0
        })
    );
    let serve =
        "# serve-sim-trace v1 tenants=99999999999999 seed=1 queue_cap=4 max_batch=4 slo=0.1\n";
    assert!(matches!(
        analyze_serve_trace(serve),
        Err(ServeAnalyzeError::Header(_))
    ));
    // A server count is a bound on track indices, not replay state to
    // build up front.
    let idle = "# dimboost-trace-events v1 workers=1 servers=99999999999999 events=0\n";
    let profile = analyze_trace(&Trace::parse_events_text(idle).unwrap()).unwrap();
    assert_eq!(profile.servers, 99_999_999_999_999);

    // Unknown and repeated keys are errors on the line that has them.
    let line = "event seq=0 track=net kind=collective phase=finish name=finish begin=0 dur=0.5 bytes=0 pkgs=0";
    let doc =
        |line: &str| format!("# dimboost-trace-events v1 workers=1 servers=1 events=1\n{line}\n");
    assert_eq!(
        Trace::parse_events_text(&doc(line)).unwrap().events.len(),
        1
    );
    for bad in [
        format!("{line} extra=1"),
        format!("{line} seq=0"),
        line.replace("dur=0.5", "dur=inf"),
        line.replace("begin=0", "begin=nan"),
    ] {
        assert!(
            matches!(
                Trace::parse_events_text(&doc(&bad)),
                Err(TraceParseError::Line { line: 2, .. })
            ),
            "{bad}"
        );
    }
}

#[test]
fn overflowing_trace_counters_are_an_analyzer_error() {
    // ROADMAP 5(c): two events that each parse, on one (round, phase), whose
    // bytes sum past u64 — a debug-build panic and a silent release-build
    // wrap before the analyzer's sums were checked.
    let event = |seq: u32, begin: &str| {
        format!(
            "event seq={seq} track=net kind=collective phase=finish name=finish \
             begin={begin} dur=0.5 bytes={max} pkgs={max}\n",
            max = u64::MAX
        )
    };
    let text = format!(
        "# dimboost-trace-events v1 workers=1 servers=1 events=2\n{}{}",
        event(0, "0"),
        event(1, "0.5")
    );
    let trace = Trace::parse_events_text(&text).unwrap();
    assert_eq!(trace.events[1].bytes, u64::MAX);
    match analyze_trace(&trace) {
        Err(AnalyzeError::Invalid(m)) => assert!(m.contains("byte total overflows u64"), "{m}"),
        other => panic!("expected an Invalid error, got {other:?}"),
    }
}

#[test]
fn hostile_checkpoint_counts_are_corrupt_not_allocations() {
    let ck = checkpoint_under("join worker=2 round=0\n", "hostile");
    let bytes = ck.to_bytes();
    let (assignment, live, _) = ck.membership.as_ref().unwrap();
    // Offsets of the model length and the eight `u64` counts, in file
    // order, each paired with the value a valid file holds there.
    let shard = 12 + 37;
    let model = shard + 8 + 8 * ck.fingerprint.shard_rows.len() + 8 + 8;
    let model_len = model_to_bytes(&ck.model).len();
    let rng = model + 8 + model_len;
    let cand = rng + 8 + 32 * ck.rng_states.len() + 24 * Phase::COUNT;
    let cand_bytes: usize = ck.candidates.iter().map(|c| 4 + 4 * c.splits().len()).sum();
    let loss = cand + 8 + cand_bytes;
    let rounds = loss + 8 + 24 * ck.loss_curve.len();
    let round_bytes: usize = ck
        .rounds
        .iter()
        .map(|r| 60 + 4 * r.split_gains.len() + 12 * r.node_instances.len())
        .sum();
    let eval = rounds + 8 + round_bytes;
    let assign = eval + 8 + 24 * ck.eval_curve.len() + 17 + 1;
    let live_at = assign + 8 + 4 * assignment.len();
    assert_eq!(live_at + 8 + 4 * live.len() + 8, bytes.len());
    for (what, at, valid) in [
        ("shard", shard, ck.fingerprint.shard_rows.len()),
        ("model length", model, model_len),
        ("rng state", rng, ck.rng_states.len()),
        ("candidate", cand, ck.candidates.len()),
        ("loss point", loss, ck.loss_curve.len()),
        ("round", rounds, ck.rounds.len()),
        ("eval point", eval, ck.eval_curve.len()),
        ("stripe assignment", assign, assignment.len()),
        ("live machine", live_at, live.len()),
    ] {
        let word = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        assert_eq!(word, valid as u64, "{what} count is not at offset {at}");
        for hostile in [1u64 << 28, u64::MAX] {
            // Truncated right after the patched word: nothing the count
            // promises can follow, so nothing may be allocated for it.
            let mut raw = bytes[..at + 8].to_vec();
            raw[at..].copy_from_slice(&hostile.to_le_bytes());
            match TrainCheckpoint::from_bytes(raw.into()) {
                Err(CheckpointError::Corrupt(message)) => assert!(
                    message == "unexpected end of input"
                        || message == format!("implausible {what} count {hostile}"),
                    "{what}: {message}"
                ),
                other => panic!("{what}={hostile}: expected Corrupt, got {other:?}"),
            }
        }
    }
    // A cut inside the embedded model is the checkpoint's truncation, in
    // the checkpoint's words.
    let err = TrainCheckpoint::from_bytes(bytes.slice(0..model + 8 + model_len / 2)).unwrap_err();
    assert_eq!(
        err.to_string(),
        "corrupt checkpoint: unexpected end of input"
    );
}

/// The lines of `doc` from the one starting with `first` up to the next
/// line that is exactly `end`.
fn block(doc: &str, first: &str, end: &str) -> String {
    let lines: Vec<&str> = doc
        .lines()
        .skip_while(|l| !l.starts_with(first))
        .take_while(|l| *l != end)
        .collect();
    assert!(!lines.is_empty(), "no block starting with {first:?}");
    lines.join("\n")
}

#[test]
fn fault_plan_grammar_matches_its_documentation() {
    // The plans README.md and DESIGN.md show, verbatim: trailing comments
    // and all.
    let readme = include_str!("../README.md");
    let design = include_str!("../DESIGN.md");
    for chaos in [
        block(readme, "seed 77", "EOF"),
        block(design, "seed 77", "```"),
    ] {
        let plan = FaultPlan::parse(&chaos).unwrap_or_else(|e| panic!("{e}\n{chaos}"));
        assert_eq!((plan.seed, plan.drop_p, plan.dup_p), (77, 0.15, 0.1));
        assert_eq!(plan.crash_round, Some(2));
        assert_eq!(plan.stragglers.len(), 1);
    }
    for elastic in [
        block(readme, "join worker=3 round=1 ", "EOF"),
        block(design, "join worker=3 round=1 ", "```"),
    ] {
        let plan = FaultPlan::parse(&elastic).unwrap_or_else(|e| panic!("{e}\n{elastic}"));
        assert_eq!((plan.joins.len(), plan.leaves.len()), (1, 2));
        assert_eq!(plan.speeds[0].factor, 2.5);
        assert_eq!(plan.speculate_threshold, Some(1.5));
    }

    // Degenerate numbers and repeated keys are errors that name the line.
    for bad in [
        "timeout_secs nan",
        "timeout_secs inf",
        "backoff_base_secs nan",
        "backoff_max_secs inf",
        "outage server=0 start=nan dur=1",
        "outage server=0 start=0 dur=inf",
        "straggler worker=0 factor=nan",
        "straggler worker=0 factor=inf",
        "speed worker=1 factor=nan",
        "speculate threshold=nan",
        "speculate threshold=inf",
        "drop nan",
        "crash round=1 round=5",
        "join worker=3 worker=4 round=1",
        "seed",
        "seed 1 2",
    ] {
        let err = FaultPlan::parse(&format!("seed 1\n{bad}")).unwrap_err();
        assert!(err.starts_with("fault plan line 2: "), "{bad}: {err}");
    }
    // A comment may follow any directive, or stand alone after blanks.
    let plan = FaultPlan::parse("  # lead\n\ncrash round=4 # why\nseed 9#tight\n").unwrap();
    assert_eq!((plan.crash_round, plan.seed), (Some(4), 9));
}
