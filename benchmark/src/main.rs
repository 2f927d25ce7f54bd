//! `ffdl-benchmark` — the repository's benchmark (see `README.md` and
//! `../BENCHMARK.json`).
//!
//! ```text
//! ffdl-benchmark --workload <name>|all [--seed N] [--seconds S]
//!                [--trace 0|1] [--smoke] [--out DIR]
//! ffdl-benchmark compare <DIR_A> <DIR_B>
//! ```
//!
//! One workload per process: `all` re-executes this program once per
//! workload, so set-up time and peak memory are each workload's own.
//! A run is a sequence of rounds of a fixed number of operations each,
//! with a sample of the host-speed reference kernel (`calib.rs`) before
//! and after every round; `--seconds` is how long the timed parts of
//! the rounds add up to. The last line of a workload's standard output
//! is its result as one JSON object.

mod calib;
mod compare;
mod host;
mod json;
mod layers;
mod spec;
mod stats;
mod trace;
mod workloads;

use calib::Calibrator;
use json::Value;
use layers::LayerMetrics;
use stats::{median, PhaseSummary, Spread, Timing};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Recorder;
use workloads::{Counts, Ctx, Phase, Quality, Workload};

/// Set-ups per untraced run, `setup_s` being their median: as many as
/// fit in [`SETUP_BUDGET_S`], within these limits. A set-up that takes
/// 50 ms is repeated more often than one that takes 0.5 s, because one
/// interruption by the host moves it further.
const SETUP_REPEATS: std::ops::RangeInclusive<usize> = 3..=15;
const SETUP_BUDGET_S: f64 = 1.5;
/// Share of `--seconds` each of the two phases of a traced run gets.
const TRACED_PHASE_SHARE: f64 = 0.3;
/// `core.decomp_residual` above this makes the traced run incorrect.
/// The four stages are expected to explain a spectral layer's time to
/// within 0.10 (they do to within 0.07 on the reference host); the
/// margin above that is for the host's bursts, which would otherwise
/// fail a run whose outputs are right.
const MAX_DECOMP_RESIDUAL: f64 = 0.25;

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: ffdl-benchmark --workload <name>|all [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n\
         \x20      ffdl-benchmark compare <DIR_A> <DIR_B>\n\
         workloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(" ")
    );
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("ffdl-benchmark: {flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name"),
            "--seed" => args.seed = value("a number").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                let s: f64 = value("a duration").parse().unwrap_or_else(|_| usage());
                if !(s > 0.0 && s.is_finite()) {
                    usage();
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value("a directory")),
            _ => {
                eprintln!("ffdl-benchmark: unknown argument {flag}");
                usage()
            }
        }
    }
    if args.workload.is_empty() {
        usage();
    }
    args
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else { usage() };
        return compare::run(a.as_ref(), b.as_ref());
    }
    let args = parse_args(&argv);
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = spec::workload(&args.workload) else {
        eprintln!("ffdl-benchmark: unknown workload {}", args.workload);
        usage()
    };
    run_one(workload, &args)
}

/// Runs every workload in a process of its own, in table order.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut failed = Vec::new();
    for w in &spec::WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        cmd.arg("--out").arg(&args.out);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        // `status` waits for the child to end.
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{} ({status})", w.name)),
            Err(e) => failed.push(format!("{} ({e})", w.name)),
        }
    }
    if failed.is_empty() {
        println!(
            "ffdl-benchmark: all {} workloads passed",
            spec::WORKLOADS.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("ffdl-benchmark: FAILED: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn run_one(workload: &'static spec::WorkloadSpec, args: &Args) -> ExitCode {
    let nproc = host::nproc();
    let ctx = Ctx {
        seed: args.seed,
        scale: if args.smoke { 0.02 } else { 1.0 },
        out: args.out.clone(),
        nproc,
        workers: host::serving_workers(nproc),
    };
    std::fs::create_dir_all(&ctx.out).expect("create the output directory");
    let seconds = args.seconds.unwrap_or(if args.smoke {
        0.1
    } else {
        spec::RUN_SECONDS as f64
    });
    println!(
        "ffdl-benchmark: workload {} seed {} seconds {seconds} trace {} smoke {}",
        workload.name, args.seed, args.trace as u8, args.smoke
    );
    println!("why: {}", workload.why);
    println!(
        "threads: nproc {nproc}; offline workloads 1 caller; serving workloads 1 generator + {} workers",
        ctx.workers
    );
    let result = if args.trace {
        run_traced(workload, &ctx, seconds)
    } else {
        run_untraced(workload, &ctx, seconds, !args.smoke)
    };
    let line = result.document.render();
    let file = format!(
        "result-{}{}.json",
        workload.name,
        if args.trace { "-trace" } else { "" }
    );
    std::fs::write(ctx.out.join(file), format!("{line}\n")).expect("write the result file");
    println!("{line}");
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct RunResult {
    correct: bool,
    document: Value,
}

fn prepare(workload: &spec::WorkloadSpec, ctx: &Ctx) -> (Box<dyn Workload>, f64) {
    let start = Instant::now();
    let w = workloads::prepare(workload.name, ctx).expect("every declared workload is implemented");
    (w, start.elapsed().as_secs_f64())
}

fn print_counts(label: &str, c: Counts) {
    println!(
        "phase {label}: attempted {} succeeded {} failed {} (wrong or lost {})",
        c.attempted, c.succeeded, c.failed, c.wrong
    );
}

fn print_metric(name: &str, unit: &str, s: Spread) {
    println!(
        "  {name} = {} {unit}  (segments {}, segment median {}, segment IQR {})",
        s.value, s.segments, s.median, s.iqr
    );
}

/// What the rounds of one phase of a run add up to.
struct Rounds {
    timing: Timing,
    counts: Counts,
    warmup: Counts,
    slo_met: u64,
    top1: (u64, u64),
    rounds: usize,
    /// How much slower than the reference host the calibration kernel
    /// ran, over the samples taken around the rounds.
    slowdown: f64,
    /// Wall-clock seconds the timed parts of the rounds took.
    wall_s: f64,
    /// `ffdl.fft.plan_cache.miss` counted inside traced rounds.
    plan_cache_miss: u64,
    /// Report rows of the first round's requests: the spans the trace
    /// file keeps in full are that round's.
    served: std::collections::BTreeMap<u64, trace::Served>,
    /// The last round, for the facts the layer metrics are derived from.
    last: Phase,
}

impl Rounds {
    fn top1_share(&self) -> f64 {
        self.top1.1 as f64 / self.top1.0.max(1) as f64
    }
}

/// Runs rounds of `w` until their timed parts add up to `seconds`. A
/// calibration sample is taken right before and after each round; the
/// phase's timings are scaled by what they add up to. With a recorder the
/// rounds run traced: in-program telemetry on, the benchmark's spans
/// around every public call.
fn run_rounds(
    w: &mut dyn Workload,
    seconds: f64,
    cal: &mut Calibrator,
    mut rec: Option<&mut Recorder>,
) -> Rounds {
    let mut r = Rounds {
        timing: Timing::new(w.segment_ops()),
        counts: Counts::default(),
        warmup: Counts::default(),
        slo_met: 0,
        top1: (0, 0),
        rounds: 0,
        slowdown: 1.0,
        wall_s: 0.0,
        plan_cache_miss: 0,
        served: Default::default(),
        last: Phase::default(),
    };
    cal.reset();
    while r.wall_s < seconds {
        // A pool is started and warmed up before the round, untraced.
        w.ready();
        cal.sample();
        let misses_before = plan_cache_misses();
        ffdl::telemetry::set_enabled(rec.is_some());
        let mut phase = w.measure(rec.as_deref_mut());
        ffdl::telemetry::set_enabled(false);
        r.plan_cache_miss += plan_cache_misses() - misses_before;
        cal.sample();
        r.timing.add_round(&phase.ops);
        r.rounds += 1;
        r.counts.add(phase.counts);
        r.warmup.add(phase.warmup);
        r.slo_met += phase.slo_met;
        r.top1 = (r.top1.0 + phase.top1.0, r.top1.1 + phase.top1.1);
        r.wall_s += phase.wall_s;
        if r.rounds == 1 {
            r.served = std::mem::take(&mut phase.served);
        }
        r.last = phase;
    }
    r.slowdown = cal.slowdown();
    r
}

fn print_timing(workload: &spec::WorkloadSpec, rounds: &Rounds, summary: &PhaseSummary) {
    print_counts("warm-up", rounds.warmup);
    print_counts("timed", rounds.counts);
    println!(
        "  {} rounds in {} s, {} latency samples; scaled to the reference host's speed (this host ran {} times slower):",
        rounds.rounds, rounds.wall_s, summary.samples, rounds.slowdown
    );
    print_metric(
        "throughput_per_s",
        &format!("{}/s", workload.unit_of_work),
        summary.throughput,
    );
    print_metric("latency_us_p50", "us", summary.p50);
    print_metric("latency_us_p99", "us", summary.p99);
    let all = stats::sorted(
        &rounds
            .last
            .ops
            .iter()
            .filter_map(|o| o.latency_us)
            .collect::<Vec<_>>(),
    );
    if !all.is_empty() {
        let p = |q| stats::percentile(&all, q);
        println!(
            "  last round as measured, latency us: p50 {} p90 {} p95 {} p99 {} p99.9 {} max {}",
            p(50.0),
            p(90.0),
            p(95.0),
            p(99.0),
            p(99.9),
            p(100.0)
        );
    }
    for (fact, value) in &rounds.last.facts {
        println!("  {fact} = {value}");
    }
}

fn result_document(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
) -> Value {
    Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        (
            "metrics",
            Value::obj(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Value::obj([("value", Value::from(value)), ("unit", Value::from(unit))]),
                )
            })),
        ),
    ])
}

/// Operations the reference check rejects: the share of the succeeded
/// operations whose inputs it found outside tolerance.
fn rejected_by_reference(counts: Counts, bad_share: f64) -> u64 {
    (bad_share * counts.succeeded as f64).round() as u64
}

/// The workload's own reference check, or for a pool (whose every
/// response was compared with the offline prediction as it was
/// verified) the label agreement the rounds counted.
fn quality_of(w: &mut dyn Workload, rounds: &Rounds) -> Quality {
    w.reference_check().unwrap_or(Quality {
        top1: rounds.top1_share(),
        bad_share: 0.0,
    })
}

fn run_untraced(
    workload: &'static spec::WorkloadSpec,
    ctx: &Ctx,
    seconds: f64,
    repeat_setup: bool,
) -> RunResult {
    let (mut w, first_setup_s) = prepare(workload, ctx);
    println!("input digest {:#018x}", w.input_digest());

    let mut cal = Calibrator::new();
    let rounds = run_rounds(w.as_mut(), seconds, &mut cal, None);
    let quality = quality_of(w.as_mut(), &rounds);
    let model_bytes = w.model_bytes();
    w.discard();

    // The set-ups `setup_s` is the median of are made after the rounds,
    // when both cores have been busy for a while: on the reference host
    // a pool's first second after ten idle ones runs five times slower
    // (its batches close on `max_wait`), and that is the host's doing.
    // They are scaled to the reference host's speed like the timings,
    // by calibration samples of their own.
    let repeats = if repeat_setup {
        ((SETUP_BUDGET_S / first_setup_s).ceil() as usize)
            .clamp(*SETUP_REPEATS.start(), *SETUP_REPEATS.end())
    } else {
        0
    };
    cal.reset();
    cal.sample();
    let setups: Vec<f64> = (0..repeats)
        .map(|_| {
            let (again, setup_s) = prepare(workload, ctx);
            again.discard();
            cal.sample();
            setup_s
        })
        .collect();
    let setup_slowdown = cal.slowdown();
    println!(
        "set-up: first {first_setup_s} s, then {setups:?} s while this host ran {setup_slowdown} times slower than the reference"
    );
    let setup_s = if setups.is_empty() {
        first_setup_s
    } else {
        median(&setups)
    } / setup_slowdown;

    let summary = rounds.timing.summary(rounds.slowdown);
    print_timing(workload, &rounds, &summary);
    let attempted = rounds.counts.attempted;
    let rejected = rejected_by_reference(rounds.counts, quality.bad_share);
    let failed = rounds.counts.failed + rejected;
    let slo_met = (rounds.slo_met as f64 * (1.0 - quality.bad_share)).round();
    let values = [
        setup_s,
        summary.throughput.value,
        summary.p50.value,
        summary.p99.value,
        slo_met / attempted as f64,
        (attempted - failed) as f64 / attempted as f64,
        model_bytes as f64,
        host::peak_rss_mib().unwrap_or(0.0),
        quality.top1,
    ];
    let metrics: Vec<_> = spec::END_TO_END
        .iter()
        .zip(values)
        .map(|((m, _), v)| (m.name, v, m.unit))
        .collect();
    for (name, value, unit) in &metrics {
        println!("metric {} {name} {value} {unit}", workload.name);
    }
    // Typed refusals are failures; only a wrong or lost output makes
    // the run incorrect.
    let correct = rounds.counts.wrong + rejected == 0;
    RunResult {
        correct,
        document: result_document(correct, attempted, failed, metrics),
    }
}

fn plan_cache_misses() -> u64 {
    ffdl::telemetry::global()
        .snapshot()
        .counter("ffdl.fft.plan_cache.miss")
        .unwrap_or(0)
}

/// Mean cost of one span of the benchmark's recorder, ns.
fn span_cost_ns() -> f64 {
    const SPANS: u64 = 200_000;
    let mut rec = Recorder::new();
    let start = Instant::now();
    for op in 0..SPANS {
        let open = rec.begin("calibration", op);
        rec.end(open);
    }
    let ns = start.elapsed().as_nanos() as f64 / SPANS as f64;
    std::hint::black_box(rec.spans().len());
    ns
}

fn run_traced(workload: &'static spec::WorkloadSpec, ctx: &Ctx, seconds: f64) -> RunResult {
    let (mut w, setup_s) = prepare(workload, ctx);
    println!("input digest {:#018x}", w.input_digest());
    println!("set-up: {setup_s} s");
    let phase_s = seconds * TRACED_PHASE_SHARE;
    let mut cal = Calibrator::new();

    let untraced = run_rounds(w.as_mut(), phase_s, &mut cal, None);
    let untraced_summary = untraced.timing.summary(untraced.slowdown);
    println!("untraced phase:");
    print_timing(workload, &untraced, &untraced_summary);

    let mut rec = Recorder::new();
    let traced = run_rounds(w.as_mut(), phase_s, &mut cal, Some(&mut rec));
    let traced_summary = traced.timing.summary(traced.slowdown);
    println!("traced phase:");
    print_timing(workload, &traced, &traced_summary);

    let mut layer = LayerMetrics::new();
    let walk_failures = w.layer_metrics(&untraced.last, &traced.last, &mut rec, &mut layer);
    let quality = quality_of(w.as_mut(), &traced);
    let setup = w.setup_times();
    w.discard();

    layer.insert(
        "telemetry.traced_cost_share",
        1.0 - traced_summary.throughput.value / untraced_summary.throughput.value,
    );
    layer.insert("telemetry.span_ns", span_cost_ns());
    layer.insert("fft.plan_cache_miss", traced.plan_cache_miss as f64);
    layer.insert("data.gen_ms", setup.data_gen_ms);
    layer.insert("quant.quantize_ms", setup.quantize_ms);
    layer.insert("registry.publish_us", setup.publish_us);
    layer.insert("registry.load_us", setup.load_us);

    let trace_path = ctx.out.join(format!("trace-{}.json", workload.name));
    std::fs::write(
        &trace_path,
        rec.document(workload.name, &traced.served).render(),
    )
    .expect("write the trace file");
    println!(
        "trace: {} spans, written to {}",
        rec.spans().len(),
        trace_path.display()
    );

    let attempted = untraced.counts.attempted + traced.counts.attempted;
    let rejected = rejected_by_reference(untraced.counts, quality.bad_share)
        + rejected_by_reference(traced.counts, quality.bad_share);
    let mut check_failures = walk_failures;
    if walk_failures > 0 {
        println!("trace check FAILED: {walk_failures} rows differ between Algorithm 1 re-executed and the layer");
    }
    let residual = layer.get("core.decomp_residual").copied().unwrap_or(0.0);
    if residual > MAX_DECOMP_RESIDUAL {
        println!("trace check FAILED: core.decomp_residual {residual} > {MAX_DECOMP_RESIDUAL}");
        check_failures += 1;
    }
    let failed = untraced.counts.failed + traced.counts.failed + rejected;

    let metrics: Vec<_> = spec::PER_LAYER
        .iter()
        .map(|m| (m.name, layer.remove(m.name).unwrap_or(0.0), m.unit))
        .collect();
    assert!(
        layer.is_empty(),
        "undeclared per-layer metrics: {:?}",
        layer.keys()
    );
    for (name, value, unit) in &metrics {
        println!("metric {} {name} {value} {unit}", workload.name);
    }
    let correct = untraced.counts.wrong + traced.counts.wrong + rejected + check_failures == 0;
    RunResult {
        correct,
        document: result_document(correct, attempted, failed, metrics),
    }
}
