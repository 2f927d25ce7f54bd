//! # ffdl-cli — command-line front end
//!
//! A small tool over the Fig. 4 pipeline:
//!
//! ```text
//! ffdl train      --arch net.arch --dataset mnist16 --out weights.ffdp
//! ffdl infer      --arch net.arch --params weights.ffdp --inputs test.csv
//! ffdl inspect    --arch net.arch [--params weights.ffdp]
//! ffdl gen-inputs --dataset mnist16 --samples 100 --out test.csv
//! ```
//!
//! The argument parser is hand-rolled (`--key value` flags only) to keep
//! the dependency set to the project's approved crates.

use ffdl::data::{mnist_preprocess, resize_images, standardize, synthetic_cifar, synthetic_mnist, CifarConfig, Dataset, MnistConfig};
use ffdl::deploy::{
    format_inputs, parse_architecture, parse_inputs, read_parameters_into, write_parameters,
    InferenceEngine,
};
use ffdl::paper;
use ffdl::platform::{
    all_platforms, Implementation, PlatformSpec, PowerState, RuntimeModel, HONOR_6X, NEXUS_5,
    ODROID_XU3,
};
use ffdl_registry::ModelStore;
use ffdl_rng::rngs::SmallRng;
use ffdl_rng::SeedableRng;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

macro_rules! from_error {
    ($($ty:ty),+ $(,)?) => {$(
        impl From<$ty> for CliError {
            fn from(e: $ty) -> Self {
                CliError(e.to_string())
            }
        }
    )+};
}

from_error!(
    std::io::Error,
    ffdl::deploy::DeployError,
    ffdl::nn::NnError,
    ffdl::data::DataError,
    ffdl::tensor::TensorError,
    ffdl_registry::RegistryError,
    ffdl_serve::ServeError,
    ffdl_stream::StreamError,
    ffdl_quant::QuantError,
);

/// Parsed `--key value` flags.
#[derive(Debug, Default, Clone)]
pub struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    /// Parses `--key value` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] on a dangling flag or a token that is not a
    /// flag.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut values = HashMap::new();
        let mut it = args.iter();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| CliError(format!("expected --flag, got {tok:?}")))?;
            let value = it
                .next()
                .ok_or_else(|| CliError(format!("flag --{key} needs a value")))?;
            if values.insert(key.to_string(), value.clone()).is_some() {
                return Err(CliError(format!("duplicate flag --{key}")));
            }
        }
        Ok(Self { values })
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| CliError(format!("missing required flag --{key}")))
    }

    /// Optional string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Optional numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] when the value does not parse.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("flag --{key}: cannot parse {v:?}"))),
        }
    }

    /// Optional boolean flag (`--metrics on`); an absent flag is `false`.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] unless the value is one of
    /// `on | off | true | false | 1 | 0 | yes | no`.
    pub fn get_bool(&self, key: &str) -> Result<bool, CliError> {
        match self.values.get(key).map(String::as_str) {
            None => Ok(false),
            Some("on" | "true" | "1" | "yes") => Ok(true),
            Some("off" | "false" | "0" | "no") => Ok(false),
            Some(v) => Err(CliError(format!(
                "flag --{key}: expected on|off, got {v:?}"
            ))),
        }
    }

    /// Rejects any flag outside `allowed`, naming the offending flag and
    /// listing what the command accepts (so a typo like `--epoch` is
    /// reported as such instead of being silently ignored).
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] naming the first unknown flag.
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), CliError> {
        let mut unknown: Vec<&str> = self
            .values
            .keys()
            .map(String::as_str)
            .filter(|k| !allowed.contains(k))
            .collect();
        unknown.sort_unstable();
        if let Some(first) = unknown.first() {
            let expected = allowed
                .iter()
                .map(|a| format!("--{a}"))
                .collect::<Vec<_>>()
                .join(", ");
            return Err(CliError(format!(
                "unknown flag --{first} (expected one of: {expected})"
            )));
        }
        Ok(())
    }
}

/// Builds the requested dataset. `mnist16` / `mnist11` are the §V-B
/// pipelines; `cifar` / `cifar16` are the CIFAR-10 stand-ins.
///
/// # Errors
///
/// Returns [`CliError`] for unknown names or generator failures.
pub fn load_dataset(name: &str, samples: usize, seed: u64) -> Result<Dataset, CliError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    match name {
        "mnist16" => {
            let raw = synthetic_mnist(samples, &MnistConfig::default(), &mut rng)?;
            Ok(mnist_preprocess(&raw, 16)?)
        }
        "mnist11" => {
            let raw = synthetic_mnist(samples, &MnistConfig::default(), &mut rng)?;
            Ok(mnist_preprocess(&raw, 11)?)
        }
        "cifar" => {
            let raw = synthetic_cifar(samples, &CifarConfig::default(), &mut rng)?;
            Ok(standardize(&raw)?)
        }
        "cifar16" => {
            let raw = synthetic_cifar(samples, &CifarConfig::default(), &mut rng)?;
            Ok(standardize(&resize_images(&raw, 16)?)?)
        }
        other => Err(CliError(format!(
            "unknown dataset {other:?} (expected mnist16 | mnist11 | cifar | cifar16)"
        ))),
    }
}

/// Resolves a platform name.
///
/// # Errors
///
/// Returns [`CliError`] for unknown names.
pub fn platform_by_name(name: &str) -> Result<PlatformSpec, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "nexus5" | "nexus" => Ok(NEXUS_5),
        "xu3" | "odroid" => Ok(ODROID_XU3),
        "honor6x" | "honor" => Ok(HONOR_6X),
        other => Err(CliError(format!(
            "unknown platform {other:?} (expected nexus5 | xu3 | honor6x)"
        ))),
    }
}

/// Resolves an implementation name.
///
/// # Errors
///
/// Returns [`CliError`] for unknown names.
pub fn implementation_by_name(name: &str) -> Result<Implementation, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "java" => Ok(Implementation::Java),
        "cpp" | "c++" => Ok(Implementation::Cpp),
        other => Err(CliError(format!(
            "unknown implementation {other:?} (expected java | cpp)"
        ))),
    }
}

/// `ffdl train`: parse architecture, train on a synthetic dataset, write
/// a parameters file.
///
/// # Errors
///
/// Returns [`CliError`] on any flag, parse, I/O or training failure.
pub fn cmd_train(flags: &Flags) -> Result<String, CliError> {
    flags.expect_only(&[
        "arch", "out", "dataset", "samples", "epochs", "batch", "lr", "seed",
    ])?;
    let arch_path = flags.require("arch")?;
    let out_path = flags.require("out")?;
    let dataset = flags.get("dataset").unwrap_or("mnist16");
    let samples = flags.get_num("samples", 1200usize)?;
    let epochs = flags.get_num("epochs", 40usize)?;
    let batch = flags.get_num("batch", 32usize)?;
    let lr = flags.get_num("lr", 0.005f32)?;
    let seed = flags.get_num("seed", 42u64)?;

    let arch_text = fs::read_to_string(arch_path)?;
    let mut net = parse_architecture(&arch_text, seed)?.network;
    let ds = load_dataset(dataset, samples, seed)?;
    let (train, test) = ds.split_at(samples * 5 / 6);

    let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(1));
    let report = paper::train_classifier(&mut net, &train, &test, epochs, batch, Some(lr), &mut rng)?;

    let mut file = Vec::new();
    write_parameters(&net, &mut file)?;
    fs::write(out_path, &file)?;

    Ok(format!(
        "trained {} layers on {dataset} ({} train / {} test): accuracy {:.2}%, final loss {:.4}\n\
         wrote {} bytes of parameters to {out_path}",
        net.len(),
        train.len(),
        test.len(),
        report.test_accuracy * 100.0,
        report.final_loss,
        file.len(),
    ))
}

/// `ffdl infer`: rebuild the network from architecture + parameters,
/// run the inputs file, report predictions/accuracy/runtime.
///
/// # Errors
///
/// Returns [`CliError`] on any flag, parse, I/O or shape failure.
pub fn cmd_infer(flags: &Flags) -> Result<String, CliError> {
    flags.expect_only(&["arch", "params", "inputs", "platform", "impl", "metrics"])?;
    let metrics = flags.get_bool("metrics")?;
    if metrics {
        ffdl::telemetry::set_enabled(true);
    }
    let arch_text = fs::read_to_string(flags.require("arch")?)?;
    let params = fs::read(flags.require("params")?)?;
    let inputs_text = fs::read_to_string(flags.require("inputs")?)?;

    let mut net = parse_architecture(&arch_text, 0)?.network;
    read_parameters_into(&mut net, &params[..])?;
    let inputs = parse_inputs(inputs_text.as_bytes())?;
    if inputs.is_empty() {
        return Err(CliError("inputs file contains no samples".into()));
    }

    let models: Vec<RuntimeModel> = match flags.get("platform") {
        Some(p) => {
            let platform = platform_by_name(p)?;
            let implementation =
                implementation_by_name(flags.get("impl").unwrap_or("cpp"))?;
            vec![RuntimeModel::new(platform, implementation, PowerState::PluggedIn)]
        }
        None => Vec::new(),
    };

    let mut engine = InferenceEngine::new(net);
    let report = engine.evaluate(&inputs.features, inputs.labels.as_deref(), &models, 1, 3)?;

    let mut out = String::new();
    writeln!(out, "{} samples", report.samples).expect("string write");
    if let Some(acc) = report.accuracy {
        writeln!(out, "accuracy: {:.2}%", acc * 100.0).expect("string write");
    }
    writeln!(out, "host core runtime: {:.1} µs/image", report.host_timing.mean_us)
        .expect("string write");
    for us in &report.projected_us {
        writeln!(out, "projected embedded runtime: {us:.1} µs/image").expect("string write");
    }
    // Show the first few predictions.
    let preds = engine.predict(&inputs.features)?;
    for (i, p) in preds.iter().take(5).enumerate() {
        writeln!(
            out,
            "sample {i}: class {} (p = {:.3})",
            p.label, p.probabilities[p.label]
        )
        .expect("string write");
    }
    if metrics {
        ffdl::telemetry::set_enabled(false);
        writeln!(out).expect("string write");
        out.push_str(&ffdl::telemetry::global().snapshot().to_text());
    }
    Ok(out)
}

/// `ffdl inspect`: print the layer table with parameter and compression
/// accounting and per-platform projections.
///
/// # Errors
///
/// Returns [`CliError`] on any flag, parse or I/O failure.
pub fn cmd_inspect(flags: &Flags) -> Result<String, CliError> {
    flags.expect_only(&["arch", "params"])?;
    let arch_text = fs::read_to_string(flags.require("arch")?)?;
    let parsed = parse_architecture(&arch_text, 0)?;
    let mut net = parsed.network;
    if let Some(p) = flags.get("params") {
        let params = fs::read(p)?;
        read_parameters_into(&mut net, &params[..])?;
    }

    // One forward pass so activation-dependent op costs are populated.
    let shape = parsed.input_shape;
    let x = match shape {
        ffdl::deploy::Shape::Flat(n) => ffdl::tensor::Tensor::zeros(&[1, n]),
        ffdl::deploy::Shape::Image(c, h, w) => ffdl::tensor::Tensor::zeros(&[1, c, h, w]),
    };
    let _ = net.forward(&x)?;

    let mut out = String::new();
    writeln!(
        out,
        "{:<20} {:>10} {:>12} {:>12}",
        "layer", "params", "logical", "flops"
    )
    .expect("string write");
    for layer in net.layers() {
        writeln!(
            out,
            "{:<20} {:>10} {:>12} {:>12}",
            layer.type_tag(),
            layer.param_count(),
            layer.logical_param_count(),
            layer.op_cost().flops(),
        )
        .expect("string write");
    }
    writeln!(
        out,
        "total: {} stored / {} logical parameters ({:.1}x compression)",
        net.param_count(),
        net.logical_param_count(),
        net.compression_ratio()
    )
    .expect("string write");
    for platform in all_platforms() {
        let cpp = RuntimeModel::new(platform, Implementation::Cpp, PowerState::PluggedIn)
            .estimate_network_us(&net);
        let java = RuntimeModel::new(platform, Implementation::Java, PowerState::PluggedIn)
            .estimate_network_us(&net);
        writeln!(
            out,
            "{:<18} projected: C++ {cpp:>9.1} µs/image | Java {java:>9.1} µs/image",
            platform.name
        )
        .expect("string write");
    }
    Ok(out)
}

/// `ffdl gen-inputs`: write a labelled CSV inputs file from a synthetic
/// dataset (flattening image datasets for the text format).
///
/// # Errors
///
/// Returns [`CliError`] on any flag or I/O failure.
pub fn cmd_gen_inputs(flags: &Flags) -> Result<String, CliError> {
    flags.expect_only(&["out", "dataset", "samples", "seed"])?;
    let out_path = flags.require("out")?;
    let dataset = flags.get("dataset").unwrap_or("mnist16");
    let samples = flags.get_num("samples", 100usize)?;
    let seed = flags.get_num("seed", 7u64)?;

    let ds = load_dataset(dataset, samples, seed)?;
    let ds = ffdl::data::flatten_samples(&ds)?;
    let (x, y) = ds.batch(&(0..ds.len()).collect::<Vec<_>>());
    let text = format_inputs(&x, Some(&y));
    fs::write(out_path, &text)?;
    Ok(format!(
        "wrote {samples} {dataset} samples ({} features each) to {out_path}",
        ds.sample_shape()[0]
    ))
}

/// `ffdl serve-bench`: closed-loop load generator against the
/// `ffdl-serve` runtime — the paper's architecture for the dataset, a
/// bounded queue, `--workers` threads with dynamic batching up to
/// `--batch`, and a throughput/latency stats table.
///
/// The "prediction digest" line is a checksum over all predicted labels
/// in request order; it is identical for any `--workers` count under the
/// same seed (served predictions are bit-identical to single-sample
/// inference), while the timing rows below it naturally vary run to run.
/// `--swap-every N` publishes a fresh network into a throwaway
/// [`ModelStore`] every N requests and hot-swaps the running pool onto
/// it, so which model serves a given request — and therefore the digest
/// — depends on timing in that mode.
///
/// `--deadline-ms N` gives every request a queue deadline (expired
/// requests are shed as typed failures and counted in the summary), and
/// `--chaos SEED` arms the deterministic `ffdl-fault` campaign for the
/// run — requests lost to an injected panic or NaN activation become
/// typed failures, so the digest only covers the requests that were
/// actually answered.
///
/// # Errors
///
/// Returns [`CliError`] on bad flags or any serve failure.
pub fn cmd_serve_bench(flags: &Flags) -> Result<String, CliError> {
    flags.expect_only(&[
        "workers",
        "batch",
        "requests",
        "dataset",
        "wait-us",
        "queue-depth",
        "seed",
        "metrics",
        "swap-every",
        "chaos",
        "deadline-ms",
        "quantized",
        "tenants",
        "tenant-weights",
        "tenant-classes",
        "rate-rps",
        "rate-limit",
        "slo-ms",
        "duration-ms",
        "max-workers",
        "stream",
        "sessions",
        "steps-per-session",
        "brownout",
        "ladder",
        "target-delay-ms",
    ])?;
    let metrics = flags.get_bool("metrics")?;
    let workers = flags.get_num("workers", 1usize)?;
    let max_batch = flags.get_num("batch", 16usize)?;
    let requests = flags.get_num("requests", 256usize)?;
    let dataset = flags.get("dataset").unwrap_or("mnist16");
    let wait_us = flags.get_num("wait-us", 2000u64)?;
    let queue_depth = flags.get_num("queue-depth", 256usize)?;
    let seed = flags.get_num("seed", 42u64)?;
    let swap_every = flags.get_num("swap-every", 0usize)?;
    let chaos = flags.get("chaos").is_some();
    let chaos_seed = flags.get_num("chaos", 0u64)?;
    let deadline_ms = flags.get_num("deadline-ms", 0u64)?;
    if requests == 0 {
        return Err(CliError("flag --requests must be >= 1".into()));
    }

    // Enable before the network is built so FFT plan-cache misses from
    // kernel construction are counted too.
    if metrics {
        ffdl::telemetry::set_enabled(true);
    }

    // The paper's block-circulant architecture for the dataset.
    let (arch_label, build): (&str, fn(u64) -> ffdl::nn::Network) = match dataset {
        "mnist16" => ("arch1", paper::arch1),
        "mnist11" => ("arch2", paper::arch2),
        other => {
            return Err(CliError(format!(
                "unknown serve dataset {other:?} (expected mnist16 | mnist11)"
            )))
        }
    };
    let mut network = build(seed);

    // A small pool of distinct samples, cycled to form the request stream.
    let unique = requests.min(64);
    let ds = ffdl::data::flatten_samples(&load_dataset(dataset, unique, seed)?)?;
    let (x, _) = ds.batch(&(0..ds.len()).collect::<Vec<_>>());
    let width = x.shape()[1];
    let samples: Vec<ffdl::tensor::Tensor> = (0..requests)
        .map(|i| {
            let row = x.row(i % unique);
            ffdl::tensor::Tensor::from_vec(row.to_vec(), &[width])
        })
        .collect::<Result<_, _>>()?;

    // --quantized BITS serves the fixed-point deployment form instead of
    // the f32 network, reporting the byte and top-1-agreement cost of
    // the precision drop up front (measured on the sample pool).
    let quant_bits = flags.get_num("quantized", 0u32)?;
    let mut quant_note = None;
    if quant_bits > 0 {
        let bits = ffdl::core::QuantBits::from_bits(quant_bits).ok_or_else(|| {
            CliError(format!("flag --quantized: expected 8 | 16, got {quant_bits}"))
        })?;
        let mut q = ffdl_quant::quantize_network(&network, bits)?;
        let agreement = ffdl_quant::top1_agreement(&mut network, &mut q, &x)?;
        let f32_bytes = ffdl_quant::model_bytes(&network)?;
        let q_bytes = ffdl_quant::model_bytes(&q)?;
        quant_note = Some(format!(
            "quantized: {bits}, model bytes {q_bytes} ({:.1}% of f32 {f32_bytes}), top-1 agreement {:.2}% on {unique} eval samples",
            q_bytes as f64 * 100.0 / f32_bytes as f64,
            agreement as f64 * 100.0,
        ));
        network = q;
    }

    // --stream switches to stateful streaming serving (ffdl-stream): a
    // block-circulant GRU sized to the dataset, served one token per
    // step across sticky sessions. Session state makes the other serve
    // modes meaningless in combination.
    let tenants = flags.get_num("tenants", 0usize)?;
    if flags.get_bool("stream")? {
        if tenants > 0 || swap_every != 0 || chaos || quant_bits > 0 {
            return Err(CliError(
                "--stream cannot be combined with --tenants, --swap-every, \
                 --chaos or --quantized (the ffdl-stream test suite covers \
                 streaming faults and swaps)"
                    .into(),
            ));
        }
        let out = serve_bench_stream(flags, dataset, &samples, width, workers, seed);
        if metrics {
            ffdl::telemetry::set_enabled(false);
        }
        return out;
    }

    // --tenants N switches to the multi-tenant scheduler with an
    // open-loop Poisson driver (ffdl-sched) instead of the closed-loop
    // single-model pool.
    let brownout_on = flags.get_bool("brownout")?;
    if brownout_on && tenants == 0 {
        return Err(CliError(
            "--brownout requires --tenants N (brownout is a property of \
             the multi-tenant scheduler)"
                .into(),
        ));
    }
    if tenants > 0 {
        if swap_every != 0 || (chaos && !brownout_on) {
            return Err(CliError(
                "--tenants cannot be combined with --swap-every, or with \
                 --chaos unless --brownout on (the sched chaos suite covers \
                 multi-tenant faults; --chaos with --brownout arms an \
                 overload spike into tenant t0)"
                    .into(),
            ));
        }
        let out = serve_bench_tenants(
            flags, tenants, &network, arch_label, dataset, &samples, workers, max_batch, seed,
        );
        if metrics {
            ffdl::telemetry::set_enabled(false);
        }
        return out;
    }

    let config = ffdl_serve::ServeConfig {
        workers,
        max_batch,
        max_wait: std::time::Duration::from_micros(wait_us),
        queue_depth,
        deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        // Under chaos the injected NaN activations must surface as typed
        // failures (threshold 0: screen, but never quarantine — the
        // bench serves one trusted model, so rollback has no target).
        health: ffdl_serve::HealthConfig {
            check_finite: chaos,
            unhealthy_threshold: 0,
        },
    };
    // --chaos SEED arms a deterministic fault campaign for the whole
    // run: one worker panic, one latency spike, one NaN activation and
    // one bit flip (the flip only fires if a registry load happens, i.e.
    // with --swap-every). Same seed, same faults.
    if chaos {
        ffdl::fault::arm(ffdl::fault::FaultPlan::chaos(chaos_seed, 1));
    }
    // With --swap-every N the bench exercises the full model lifecycle:
    // every N requests a fresh network (alternating seed) is published
    // into a throwaway registry, loaded back (checksum-verified), and
    // hot-swapped into the running pool — admission never pauses.
    let mut swap_note = None;
    let mut corrupt_swaps = 0u64;
    let report = if swap_every == 0 {
        ffdl_serve::run_closed_loop(&network, &config, &samples)?
    } else {
        let store_dir = std::env::temp_dir().join(format!(
            "ffdl-serve-bench-store-{}-{}",
            std::process::id(),
            seed,
        ));
        let _ = fs::remove_dir_all(&store_dir);
        let store = ModelStore::open(&store_dir)?;
        store.publish("bench", &network, arch_label)?;
        let server = ffdl_serve::Server::start(&network, &config)?;
        let mut swaps = 0u64;
        for (i, sample) in samples.iter().enumerate() {
            if i > 0 && i.is_multiple_of(swap_every) {
                store.publish("bench", &build(seed ^ (swaps + 1)), arch_label)?;
                match server.swap_from_store(&store, "bench", None) {
                    Ok(_) => swaps += 1,
                    // An injected bit flip lands here as a typed Corrupt
                    // error: the swap is skipped (the pool keeps serving
                    // the current generation), never crashed on.
                    Err(ffdl_serve::ServeError::Registry(_)) if chaos => {
                        corrupt_swaps += 1;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            loop {
                match server.try_submit(i as u64, sample.clone()) {
                    Ok(()) => break,
                    Err(ffdl_serve::ServeError::QueueFull { .. }) => std::thread::yield_now(),
                    Err(e) => return Err(e.into()),
                }
            }
        }
        let report = server.finish()?;
        fs::remove_dir_all(&store_dir).ok();
        swap_note = Some(format!(
            "hot-swap: {swaps} registry-mediated swaps, final generation {}",
            report.model_generation,
        ));
        report
    };
    let fault_summary = chaos.then(ffdl::fault::disarm);
    if metrics {
        ffdl::telemetry::set_enabled(false);
    }

    // Order-sensitive checksum over predicted labels: equal across
    // worker counts iff the served results are deterministic.
    let digest = report
        .responses
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, r| {
            (h ^ r.prediction.label as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });

    let mut out = String::new();
    writeln!(
        out,
        "serve-bench: {dataset} / {} / {requests} requests, {workers} workers, batch<={max_batch}, window {wait_us} µs, depth {queue_depth}, {} rejections",
        if dataset == "mnist11" { "arch2" } else { "arch1" },
        report.queue_full_rejections,
    )
    .expect("string write");
    writeln!(out, "prediction digest: {digest:016x}").expect("string write");
    if let Some(note) = &quant_note {
        writeln!(out, "{note}").expect("string write");
    }
    writeln!(
        out,
        "robustness: {} shed, {} expired, {} worker restarts, {} quarantines, {} auto-rollbacks",
        report.shed, report.expired, report.worker_restarts, report.quarantines, report.auto_rollbacks,
    )
    .expect("string write");
    if let Some(summary) = fault_summary {
        writeln!(
            out,
            "chaos: seed {chaos_seed}, injected {} panics, {} latency spikes, {} NaN activations, {} bit flips ({corrupt_swaps} corrupt swap loads tolerated)",
            summary.panics, summary.latency_spikes, summary.nan_activations, summary.bit_flips,
        )
        .expect("string write");
    }
    if let Some(note) = swap_note {
        writeln!(out, "{note}").expect("string write");
    }
    out.push_str(&report.table());
    if metrics {
        // Library-wide metrics (FFT plan cache, per-layer spans, engine
        // counters) live on the global registry; the serve runtime's
        // per-worker metrics arrive merged in the report. Show them as
        // one table.
        let mut snapshot = ffdl::telemetry::global().snapshot();
        snapshot.merge(&report.telemetry);
        writeln!(out).expect("string write");
        out.push_str(&snapshot.to_text());
    }
    Ok(out)
}

/// Parses a comma-separated per-tenant list (`"8,1"`), requiring exactly
/// `n` entries when present; `None` yields `n` copies of the default.
fn per_tenant_list<T: Clone>(
    raw: Option<&str>,
    n: usize,
    default: T,
    parse: impl Fn(&str) -> Result<T, CliError>,
    what: &str,
) -> Result<Vec<T>, CliError> {
    match raw {
        None => Ok(vec![default; n]),
        Some(s) => {
            let items: Vec<T> = s
                .split(',')
                .map(|tok| parse(tok.trim()))
                .collect::<Result<_, _>>()?;
            if items.len() != n {
                return Err(CliError(format!(
                    "--{what}: expected {n} comma-separated entries, got {}",
                    items.len()
                )));
            }
            Ok(items)
        }
    }
}

/// The `--tenants N` arm of `serve-bench`: N tenants (named `t0…`), each
/// bound to the bench model in a throwaway registry, scheduled by
/// `ffdl-sched` (WDRR + priority classes + optional per-tenant rate
/// budgets + autoscaling `--workers` → `--max-workers`), and loaded
/// open-loop with independent seeded Poisson arrivals at `--rate-rps`
/// per tenant. Reports per-tenant SLO attainment against `--slo-ms`.
#[allow(clippy::too_many_arguments)]
fn serve_bench_tenants(
    flags: &Flags,
    tenants: usize,
    network: &ffdl::nn::Network,
    arch_label: &str,
    dataset: &str,
    samples: &[ffdl::tensor::Tensor],
    workers: usize,
    max_batch: usize,
    seed: u64,
) -> Result<String, CliError> {
    let metrics = flags.get_bool("metrics")?;
    let max_workers = flags.get_num("max-workers", workers)?;
    let slo_ms = flags.get_num("slo-ms", 25u64)?;
    let duration_ms = flags.get_num("duration-ms", 500u64)?;
    let rate_rps = flags.get_num("rate-rps", 400.0f64)?;
    let rate_limit = flags.get_num("rate-limit", 0.0f64)?;
    let queue_depth = flags.get_num("queue-depth", 256usize)?;
    let weights = per_tenant_list(
        flags.get("tenant-weights"),
        tenants,
        1u64,
        |tok| {
            tok.parse()
                .map_err(|_| CliError(format!("--tenant-weights: cannot parse {tok:?}")))
        },
        "tenant-weights",
    )?;
    let classes = per_tenant_list(
        flags.get("tenant-classes"),
        tenants,
        ffdl_sched::PriorityClass::Normal,
        |tok| Ok(ffdl_sched::PriorityClass::parse(tok)?),
        "tenant-classes",
    )?;

    let brownout_on = flags.get_bool("brownout")?;
    let target_delay_ms = flags.get_num("target-delay-ms", 20u64)?;
    let chaos = flags.get("chaos").is_some();
    let chaos_seed = flags.get_num("chaos", 0u64)?;

    let store_dir = std::env::temp_dir().join(format!(
        "ffdl-sched-bench-store-{}-{}",
        std::process::id(),
        seed,
    ));
    let _ = fs::remove_dir_all(&store_dir);
    let store = ModelStore::open(&store_dir)?;
    store.publish("bench", network, arch_label)?;

    // --brownout on pre-publishes the precision ladder (--ladder, a
    // comma list of f32/int16/int8 rungs) so degradation swaps at
    // runtime are pure registry loads.
    let mut ladder = None;
    let mut ladder_note = None;
    if brownout_on {
        let rung_bits: Vec<Option<ffdl::core::QuantBits>> = flags
            .get("ladder")
            .unwrap_or("f32,int16,int8")
            .split(',')
            .map(|tok| match tok.trim() {
                "f32" => Ok(None),
                "int16" => Ok(Some(ffdl::core::QuantBits::Sixteen)),
                "int8" => Ok(Some(ffdl::core::QuantBits::Eight)),
                other => Err(CliError(format!(
                    "--ladder: expected f32|int16|int8, got {other:?}"
                ))),
            })
            .collect::<Result<_, _>>()?;
        let published =
            ffdl_quant::publish_ladder(&store, "bench", network, arch_label, &rung_bits)?;
        ladder_note = Some(
            published
                .iter()
                .map(|(label, generation)| format!("{label}@gen{generation}"))
                .collect::<Vec<_>>()
                .join(" -> "),
        );
        let rungs = published
            .into_iter()
            .map(|(label, registry_generation)| ffdl_sched::LadderRung {
                label,
                registry_generation,
            })
            .collect();
        ladder = Some(
            ffdl_sched::Ladder::new(rungs).map_err(|e| CliError(format!("--ladder: {e}")))?,
        );
    }

    let specs: Vec<ffdl_sched::TenantSpec> = (0..tenants)
        .map(|i| {
            let mut spec = ffdl_sched::TenantSpec::new(format!("t{i}"), "bench");
            spec.weight = weights[i];
            spec.class = classes[i];
            spec.queue_depth = queue_depth;
            spec.rate_limit = (rate_limit > 0.0).then_some(rate_limit);
            spec.ladder = ladder.clone();
            spec
        })
        .collect();
    let config = ffdl_sched::SchedConfig {
        min_workers: workers,
        max_workers,
        max_batch,
        deadline: Some(std::time::Duration::from_millis(slo_ms)),
        check_finite: false,
        unhealthy_threshold: 0,
        brownout: brownout_on.then(|| ffdl_sched::BrownoutConfig {
            target_delay: std::time::Duration::from_millis(target_delay_ms),
            seed,
            ..Default::default()
        }),
        breaker: ffdl_sched::BreakerConfig::default(),
    };
    let sched = ffdl_sched::Scheduler::start(&store, &specs, &config)?;
    let plans: Vec<ffdl_sched::OpenLoopPlan> = (0..tenants)
        .map(|_| ffdl_sched::OpenLoopPlan {
            rate_rps,
            samples: samples.to_vec(),
        })
        .collect();
    // --chaos SEED (with --brownout on) arms a single deterministic
    // overload spike: the open-loop driver superposes 4x arrivals onto
    // tenant t0 for the middle third of the run, which is what pushes
    // the brownout controller down the ladder.
    let spike_ms = duration_ms / 3;
    if chaos {
        ffdl::fault::arm(ffdl::fault::FaultPlan {
            seed: chaos_seed,
            overload_budget: 1,
            overload_factor: 4.0,
            overload_spike: std::time::Duration::from_millis(spike_ms),
            rate: 1.0,
            ..Default::default()
        });
    }
    let summary = ffdl_sched::run_open_loop(
        &sched,
        &plans,
        std::time::Duration::from_millis(duration_ms),
        seed,
    )?;
    let fault_summary = chaos.then(ffdl::fault::disarm);
    let report = sched.finish()?;
    fs::remove_dir_all(&store_dir).ok();

    let mut out = String::new();
    writeln!(
        out,
        "serve-bench[sched]: {dataset} / {arch_label} / {tenants} tenants, \
         open-loop {rate_rps} rps/tenant x {duration_ms} ms, slo {slo_ms} ms, \
         workers {workers}->{max_workers}",
    )
    .expect("string write");
    for (i, spec) in specs.iter().enumerate() {
        let stat = report.serve.tenants.iter().find(|t| t.tenant == spec.name);
        let (p99, slo) = stat.map_or((0.0, 1.0), |s| (s.p99_us, s.slo_attainment));
        writeln!(
            out,
            "tenant {}: weight {} class {}, generated {}, rejected {}, p99 {:.0} µs, slo-attainment {:.4}",
            spec.name, spec.weight, spec.class, summary.generated[i], summary.rejected[i], p99, slo,
        )
        .expect("string write");
    }
    writeln!(
        out,
        "autoscale: {} scale-ups, {} scale-downs, peak {} workers",
        report.scale_ups, report.scale_downs, report.peak_workers,
    )
    .expect("string write");
    if let Some(note) = &ladder_note {
        writeln!(out, "ladder: {note}, target delay {target_delay_ms} ms").expect("string write");
    }
    for stat in &report.brownout {
        writeln!(
            out,
            "brownout: {} peak level {}, {} transitions, final level {}",
            stat.tenant,
            stat.peak_level,
            stat.events.len(),
            stat.final_level,
        )
        .expect("string write");
    }
    if let Some(fs) = &fault_summary {
        writeln!(
            out,
            "chaos: seed {chaos_seed}, {} overload spike(s) (4x arrivals into t0 for {spike_ms} ms)",
            fs.overload_spikes,
        )
        .expect("string write");
    }
    out.push_str(&report.serve.table());
    if metrics {
        let mut snapshot = ffdl::telemetry::global().snapshot();
        snapshot.merge(&report.serve.telemetry);
        writeln!(out).expect("string write");
        out.push_str(&snapshot.to_text());
    }
    Ok(out)
}

/// The `--stream` arm of `serve-bench`: a block-circulant GRU sized to
/// the dataset is published into a throwaway registry and served
/// statefully by `ffdl-stream` — `--sessions` sticky sessions, each
/// stepped `--steps-per-session` times, submissions interleaved across
/// sessions so worker queues mix several streams at once.
///
/// The digest folds every answered step's predicted label in
/// (session, step) order; per-session hidden state means each step
/// depends only on its own session's token prefix, so the digest is
/// identical for any `--workers` count under the same seed.
fn serve_bench_stream(
    flags: &Flags,
    dataset: &str,
    samples: &[ffdl::tensor::Tensor],
    width: usize,
    workers: usize,
    seed: u64,
) -> Result<String, CliError> {
    let metrics = flags.get_bool("metrics")?;
    let sessions = flags.get_num("sessions", 8u64)?;
    let steps = flags.get_num("steps-per-session", 32usize)?;
    let queue_depth = flags.get_num("queue-depth", 256usize)?;
    let deadline_ms = flags.get_num("deadline-ms", 0u64)?;
    if sessions == 0 || steps == 0 {
        return Err(CliError(
            "flags --sessions and --steps-per-session must be >= 1".into(),
        ));
    }

    // The recurrent counterpart of the paper architectures: one
    // block-circulant GRU over the flattened pixels, stepped per token.
    let arch = format!("input {width}\ncirculant_gru 32 block=8\nfc 10\nsoftmax\n");
    let network = parse_architecture(&arch, seed)?.network;

    let store_dir = std::env::temp_dir().join(format!(
        "ffdl-stream-bench-store-{}-{}",
        std::process::id(),
        seed,
    ));
    let _ = fs::remove_dir_all(&store_dir);
    let store = ModelStore::open(&store_dir)?;
    store.publish("bench", &network, "gru32")?;

    let config = ffdl_stream::StreamConfig {
        workers,
        queue_depth,
        deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        ..Default::default()
    };
    let server = ffdl_stream::StreamServer::start_from_store(&store, "bench", &config)?;
    for session in 0..sessions {
        server.open_session(session)?;
    }
    // id encodes (session, step) so the digest can walk submission
    // order after the fact. The sample pool is cycled with a per-session
    // stride so different sessions see different token sequences.
    for step in 0..steps {
        for session in 0..sessions {
            let id = session * steps as u64 + step as u64;
            let sample = &samples[(session as usize * 7 + step) % samples.len()];
            loop {
                match server.step(session, id, sample.clone()) {
                    Ok(()) => break,
                    Err(ffdl_stream::StreamError::QueueFull(_)) => std::thread::yield_now(),
                    Err(e) => return Err(e.into()),
                }
            }
        }
    }
    for session in 0..sessions {
        server.close_session(session)?;
    }
    let report = server.finish()?;
    fs::remove_dir_all(&store_dir).ok();

    let by_id: HashMap<u64, usize> = report
        .serve
        .responses
        .iter()
        .map(|r| (r.id, r.prediction.label))
        .collect();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for session in 0..sessions {
        for step in 0..steps {
            if let Some(label) = by_id.get(&(session * steps as u64 + step as u64)) {
                digest = (digest ^ *label as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    let mut out = String::new();
    writeln!(
        out,
        "serve-bench[stream]: {dataset} / gru32 / {sessions} sessions x {steps} steps, \
         {workers} workers, depth {queue_depth}, {} rejections",
        report.serve.queue_full_rejections,
    )
    .expect("string write");
    writeln!(out, "prediction digest: {digest:016x}").expect("string write");
    writeln!(
        out,
        "stream: {} opened, {} evicted, {} quarantined, {} steps answered, {} expired",
        report.sessions_opened,
        report.sessions_evicted,
        report.sessions_quarantined,
        report.steps,
        report.serve.expired,
    )
    .expect("string write");
    out.push_str(&report.table());
    if metrics {
        let mut snapshot = ffdl::telemetry::global().snapshot();
        snapshot.merge(&report.serve.telemetry);
        writeln!(out).expect("string write");
        out.push_str(&snapshot.to_text());
    }
    Ok(out)
}

/// Renders one model's manifest as the table printed by `model list`.
fn model_table(name: &str, versions: &[ffdl_registry::ModelVersion]) -> String {
    let active = versions.last().map_or(0, |v| v.generation);
    let mut out = String::new();
    writeln!(
        out,
        "model {name} ({} generations, active {active})",
        versions.len()
    )
    .expect("string write");
    writeln!(
        out,
        "  {:>4} {:<12} {:>10} {:<16} provenance",
        "gen", "arch", "bytes", "fnv1a"
    )
    .expect("string write");
    for v in versions {
        let provenance = match v.rollback_of {
            Some(g) => format!("rollback of {g}"),
            None => "-".to_string(),
        };
        writeln!(
            out,
            "  {:>4} {:<12} {:>10} {:016x} {}",
            v.generation, v.arch, v.bytes, v.checksum, provenance
        )
        .expect("string write");
    }
    out
}

/// `ffdl model publish`: build a network from an architecture file (and
/// optionally a trained parameters file), then publish it as the next
/// generation in a [`ModelStore`].
fn cmd_model_publish(flags: &Flags) -> Result<String, CliError> {
    flags.expect_only(&["store", "name", "arch", "params", "seed", "label"])?;
    let store = ModelStore::open(flags.require("store")?)?;
    let name = flags.require("name")?;
    let arch_path = flags.require("arch")?;
    let seed = flags.get_num("seed", 42u64)?;

    let arch_text = fs::read_to_string(arch_path)?;
    let mut net = parse_architecture(&arch_text, seed)?.network;
    if let Some(p) = flags.get("params") {
        let params = fs::read(p)?;
        read_parameters_into(&mut net, &params[..])?;
    }
    // The manifest's arch label shares the model-name character set;
    // default to the architecture file's stem, sanitized.
    let label = match flags.get("label") {
        Some(l) => l.to_string(),
        None => {
            let stem = std::path::Path::new(arch_path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("custom");
            let clean: String = stem
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                        c
                    } else {
                        '-'
                    }
                })
                .collect();
            if clean.is_empty() { "custom".into() } else { clean }
        }
    };
    let v = store.publish(name, &net, &label)?;
    Ok(format!(
        "published {name} generation {}: arch {}, {} bytes, fnv1a {:016x}\nstore: {}",
        v.generation,
        v.arch,
        v.bytes,
        v.checksum,
        store.root().display(),
    ))
}

/// `ffdl model list`: one model's generation table, or a summary of
/// every model in the store.
fn cmd_model_list(flags: &Flags) -> Result<String, CliError> {
    flags.expect_only(&["store", "name"])?;
    let store = ModelStore::open(flags.require("store")?)?;
    if let Some(name) = flags.get("name") {
        return Ok(model_table(name, &store.list(name)?));
    }
    let names = store.models()?;
    if names.is_empty() {
        return Ok(format!("no models in {}", store.root().display()));
    }
    let mut out = String::new();
    for name in names {
        let versions = store.list(&name)?;
        let active = versions.last().map_or(0, |v| v.generation);
        let arch = versions.last().map_or("-", |v| v.arch.as_str());
        writeln!(
            out,
            "{name}: {} generations, active {active} (arch {arch})",
            versions.len()
        )
        .expect("string write");
    }
    Ok(out)
}

/// `ffdl model rollback`: republish an earlier generation's bytes as the
/// new active generation (`--to N` picks the target; the default is the
/// generation before the active one).
fn cmd_model_rollback(flags: &Flags) -> Result<String, CliError> {
    flags.expect_only(&["store", "name", "to"])?;
    let store = ModelStore::open(flags.require("store")?)?;
    let name = flags.require("name")?;
    let to = match flags.get("to") {
        None => None,
        Some(v) => Some(v.parse::<u64>().map_err(|_| {
            CliError(format!("flag --to: cannot parse {v:?}"))
        })?),
    };
    let v = store.rollback(name, to)?;
    let target = v.rollback_of.expect("rollback always records its target");
    Ok(format!(
        "rolled {name} back to generation {target}'s bytes: new active generation {} (fnv1a {:016x})",
        v.generation, v.checksum,
    ))
}

/// `ffdl model quantize`: load a generation (active by default, `--from
/// GEN` otherwise), quantize every spectral layer to `--bits` fixed
/// point with `ffdl-quant`, and publish the result as the next
/// generation — the mixed-precision registry state the serve pool
/// A/B-swaps across. `--out <file>` additionally writes the quantized
/// wire bytes (a version-3 model file) to disk.
fn cmd_model_quantize(flags: &Flags) -> Result<String, CliError> {
    flags.expect_only(&["store", "name", "bits", "from", "out"])?;
    let store = ModelStore::open(flags.require("store")?)?;
    let name = flags.require("name")?;
    let bits_raw = flags.get_num("bits", 16u32)?;
    let bits = ffdl::core::QuantBits::from_bits(bits_raw).ok_or_else(|| {
        CliError(format!("flag --bits: expected 8 | 16, got {bits_raw}"))
    })?;
    let from = match flags.get("from") {
        None => None,
        Some(v) => Some(v.parse::<u64>().map_err(|_| {
            CliError(format!("flag --from: cannot parse {v:?}"))
        })?),
    };

    let registry = ffdl::core::full_registry();
    let (parent_net, parent) = store.load(name, from, &registry)?;
    let quantized = ffdl_quant::quantize_network(&parent_net, bits)?;
    let f32_bytes = ffdl_quant::model_bytes(&parent_net)?;
    let label = format!("{}-{bits}", parent.arch);
    let v = store.publish(name, &quantized, &label)?;
    if let Some(path) = flags.get("out") {
        let mut buf = Vec::new();
        ffdl::nn::save_network(&quantized, &mut buf)?;
        fs::write(path, &buf)?;
    }
    Ok(format!(
        "quantized {name} generation {} ({}) to {bits}:          published generation {} ({} bytes, {:.1}% of the {f32_bytes}-byte f32 parent)
         store: {}",
        parent.generation,
        parent.arch,
        v.generation,
        v.bytes,
        v.bytes as f64 * 100.0 / f32_bytes as f64,
        store.root().display(),
    ))
}

/// `ffdl model <publish|list|rollback|quantize>`: the versioned model
/// store.
///
/// Unlike the flat commands this one takes an action word before its
/// flags, so it receives the raw argument tail.
///
/// # Errors
///
/// Returns [`CliError`] for a missing/unknown action or any store
/// failure.
pub fn cmd_model(args: &[String]) -> Result<String, CliError> {
    const ACTIONS: &str = "publish, list, rollback, quantize";
    let (action, rest) = args.split_first().ok_or_else(|| {
        CliError(format!("model: missing action (expected one of: {ACTIONS})"))
    })?;
    let flags = Flags::parse(rest)?;
    match action.as_str() {
        "publish" => cmd_model_publish(&flags),
        "list" => cmd_model_list(&flags),
        "rollback" => cmd_model_rollback(&flags),
        "quantize" => cmd_model_quantize(&flags),
        other => Err(CliError(format!(
            "unknown model action {other:?} (expected one of: {ACTIONS})"
        ))),
    }
}

/// Usage text.
pub fn usage() -> &'static str {
    "ffdl — FFT-based block-circulant deep learning (Lin et al., DATE 2018)\n\
     \n\
     usage:\n\
       ffdl train      --arch <file> --out <params.ffdp> [--dataset mnist16|mnist11|cifar|cifar16]\n\
                       [--samples N] [--epochs N] [--batch N] [--lr F] [--seed N]\n\
       ffdl infer      --arch <file> --params <file> --inputs <csv>\n\
                       [--platform nexus5|xu3|honor6x] [--impl java|cpp] [--metrics on]\n\
       ffdl inspect    --arch <file> [--params <file>]\n\
       ffdl gen-inputs --out <csv> [--dataset mnist16|...] [--samples N] [--seed N]\n\
       ffdl serve-bench [--workers N] [--batch N] [--requests N] [--dataset mnist16|mnist11]\n\
                       [--wait-us N] [--queue-depth N] [--seed N] [--metrics on]\n\
                       [--swap-every N] [--chaos SEED] [--deadline-ms N]\n\
                       [--quantized 8|16]\n\
                       [--tenants N] [--tenant-weights 8,1] [--tenant-classes high,normal]\n\
                       [--rate-rps F] [--rate-limit F] [--slo-ms N] [--duration-ms N]\n\
                       [--max-workers N]\n\
                       [--brownout on] [--ladder f32,int16,int8] [--target-delay-ms N]\n\
                       [--stream on] [--sessions N] [--steps-per-session M]\n\
       ffdl model publish  --store <dir> --name <model> --arch <file>\n\
                       [--params <file>] [--seed N] [--label <arch-label>]\n\
       ffdl model list     --store <dir> [--name <model>]\n\
       ffdl model rollback --store <dir> --name <model> [--to GEN]\n\
       ffdl model quantize --store <dir> --name <model> [--bits 8|16]\n\
                       [--from GEN] [--out <file>]\n\
     \n\
     --metrics on enables the ffdl-telemetry registry for the run and\n\
     appends a metrics table (counters, gauges, latency histograms) to\n\
     the command's output.\n\
     \n\
     model publish/list/rollback manage a versioned, checksummed model\n\
     store (ffdl-registry); serve-bench --swap-every N hot-swaps the\n\
     running pool onto a freshly published generation every N requests.\n\
     \n\
     model quantize republishes a generation with every spectral layer\n\
     quantized to --bits fixed point (ffdl-quant, wire format v3); the\n\
     serve pool hot-swaps between f32 and quantized generations like any\n\
     others. serve-bench --quantized BITS serves the quantized form and\n\
     prints its byte and top-1-agreement cost next to the digest.\n\
     \n\
     serve-bench --deadline-ms N sheds requests that wait in the queue\n\
     past their deadline (typed failures, counted in the summary).\n\
     --chaos SEED arms the deterministic fault injector (ffdl-fault)\n\
     for the run: one worker panic, one latency spike, one NaN\n\
     activation and one bit flip on registry reads — same seed, same\n\
     faults, and the summary reports what fired.\n\
     \n\
     serve-bench --tenants N runs the multi-tenant scheduler\n\
     (ffdl-sched): N tenants with per-tenant weights, priority classes\n\
     and optional --rate-limit admission budgets share an autoscaled\n\
     pool (--workers to --max-workers), loaded open-loop with seeded\n\
     Poisson arrivals at --rate-rps per tenant for --duration-ms; the\n\
     report breaks out p50/p99 and SLO attainment (vs --slo-ms) per\n\
     tenant.\n\
     \n\
     serve-bench --tenants N --brownout on enables closed-loop graceful\n\
     degradation (ffdl-brownout): a pre-published precision ladder\n\
     (--ladder, default f32,int16,int8) is walked down under sustained\n\
     queue delay above --target-delay-ms and back up with hysteresis,\n\
     shedding at enqueue while pressure persists; circuit breakers hold\n\
     repeatedly-quarantined rungs out until a half-open probe passes.\n\
     Adding --chaos SEED arms one deterministic overload spike (4x\n\
     arrivals into tenant t0 for a third of the run).\n\
     \n\
     serve-bench --stream serves a block-circulant GRU statefully\n\
     (ffdl-stream): --sessions sticky sessions, each stepped\n\
     --steps-per-session times with per-session hidden state carried\n\
     across requests. The prediction digest is identical for any\n\
     --workers count — streams never share or lose state.\n"
}

/// Dispatches a full argument vector (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] with a user-facing message on any failure.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| CliError(usage().to_string()))?;
    // `model` takes an action word before its flags; every other command
    // is flags-only.
    if cmd == "model" {
        return cmd_model(rest);
    }
    let flags = Flags::parse(rest)?;
    match cmd.as_str() {
        "train" => cmd_train(&flags),
        "infer" => cmd_infer(&flags),
        "inspect" => cmd_inspect(&flags),
        "gen-inputs" => cmd_gen_inputs(&flags),
        "serve-bench" => cmd_serve_bench(&flags),
        "help" | "--help" | "-h" => Ok(usage().to_string()),
        // Mirror Flags::expect_only: name the offender, list what exists.
        other => Err(CliError(format!(
            "unknown command {other:?} (expected one of: train, infer, inspect, \
             gen-inputs, serve-bench, model, help)\n\n{}",
            usage()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> Flags {
        let args: Vec<String> = pairs
            .iter()
            .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
            .collect();
        Flags::parse(&args).unwrap()
    }

    #[test]
    fn flags_parse_and_lookup() {
        let f = flags(&[("arch", "a.txt"), ("samples", "10")]);
        assert_eq!(f.require("arch").unwrap(), "a.txt");
        assert_eq!(f.get_num("samples", 0usize).unwrap(), 10);
        assert_eq!(f.get_num("epochs", 5usize).unwrap(), 5);
        assert!(f.require("missing").is_err());
        assert!(f.get_num::<usize>("arch", 0).is_err());
    }

    #[test]
    fn flags_reject_malformed() {
        assert!(Flags::parse(&["oops".into()]).is_err());
        assert!(Flags::parse(&["--dangling".into()]).is_err());
        assert!(Flags::parse(&["--a".into(), "1".into(), "--a".into(), "2".into()]).is_err());
    }

    #[test]
    fn dataset_and_platform_resolution() {
        assert_eq!(load_dataset("mnist16", 10, 0).unwrap().sample_shape(), &[256]);
        assert_eq!(load_dataset("mnist11", 10, 0).unwrap().sample_shape(), &[121]);
        assert_eq!(
            load_dataset("cifar", 10, 0).unwrap().sample_shape(),
            &[3, 32, 32]
        );
        assert!(load_dataset("imagenet", 10, 0).is_err());
        assert_eq!(platform_by_name("xu3").unwrap().name, "Odroid XU3");
        assert!(platform_by_name("iphone").is_err());
        assert_eq!(implementation_by_name("java").unwrap(), Implementation::Java);
        assert!(implementation_by_name("rust").is_err());
    }

    #[test]
    fn end_to_end_train_inspect_infer() {
        let dir = std::env::temp_dir().join(format!("ffdl-cli-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let arch = dir.join("net.arch");
        let params = dir.join("weights.ffdp");
        let inputs = dir.join("test.csv");
        fs::write(&arch, "input 121\ncirculant_fc 32 block=16\nrelu\nfc 10\nsoftmax\n").unwrap();

        let out = cmd_train(&flags(&[
            ("arch", arch.to_str().unwrap()),
            ("out", params.to_str().unwrap()),
            ("dataset", "mnist11"),
            ("samples", "120"),
            ("epochs", "6"),
            ("lr", "0.01"),
        ]))
        .unwrap();
        assert!(out.contains("accuracy"), "{out}");
        assert!(params.exists());

        let out = cmd_gen_inputs(&flags(&[
            ("out", inputs.to_str().unwrap()),
            ("dataset", "mnist11"),
            ("samples", "20"),
        ]))
        .unwrap();
        assert!(out.contains("20"), "{out}");

        let out = cmd_inspect(&flags(&[
            ("arch", arch.to_str().unwrap()),
            ("params", params.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(out.contains("circulant_dense"), "{out}");
        assert!(out.contains("compression"), "{out}");

        let out = cmd_infer(&flags(&[
            ("arch", arch.to_str().unwrap()),
            ("params", params.to_str().unwrap()),
            ("inputs", inputs.to_str().unwrap()),
            ("platform", "honor6x"),
            ("impl", "cpp"),
        ]))
        .unwrap();
        assert!(out.contains("accuracy"), "{out}");
        assert!(out.contains("projected embedded runtime"), "{out}");

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_flags_are_named() {
        let f = flags(&[("arch", "a.txt"), ("epoch", "3")]);
        let err = f.expect_only(&["arch", "epochs"]).unwrap_err();
        assert!(err.0.contains("--epoch"), "{err}");
        assert!(err.0.contains("--epochs"), "{err}");
        // Wired into commands: a typo'd flag fails fast with its name.
        let err = cmd_inspect(&flags(&[("arch", "a.txt"), ("prams", "w")])).unwrap_err();
        assert!(err.0.contains("unknown flag --prams"), "{err}");
        assert!(f.expect_only(&["arch", "epoch"]).is_ok());
    }

    #[test]
    fn serve_bench_runs_and_is_deterministic_across_workers() {
        let digest_line = |workers: &str| {
            let out = cmd_serve_bench(&flags(&[
                ("workers", workers),
                ("batch", "8"),
                ("requests", "48"),
                ("dataset", "mnist11"),
                ("seed", "5"),
            ]))
            .unwrap();
            assert!(out.contains("serve stats"), "{out}");
            assert!(out.contains("throughput"), "{out}");
            assert!(out.contains("p99"), "{out}");
            out.lines()
                .find(|l| l.starts_with("prediction digest"))
                .expect("digest line")
                .to_string()
        };
        assert_eq!(digest_line("1"), digest_line("3"));

        let err = cmd_serve_bench(&flags(&[("dataset", "cifar")])).unwrap_err();
        assert!(err.0.contains("unknown serve dataset"), "{err}");
        let err = cmd_serve_bench(&flags(&[("requests", "0")])).unwrap_err();
        assert!(err.0.contains("--requests"), "{err}");
    }

    #[test]
    fn serve_bench_stream_is_deterministic_across_workers() {
        let run = |workers: &str| {
            let out = cmd_serve_bench(&flags(&[
                ("stream", "on"),
                ("sessions", "4"),
                ("steps-per-session", "6"),
                ("workers", workers),
                ("dataset", "mnist11"),
                ("seed", "9"),
            ]))
            .unwrap();
            assert!(out.contains("serve-bench[stream]"), "{out}");
            assert!(out.contains("stream: 4 opened"), "{out}");
            assert!(out.contains("steps answered"), "{out}");
            assert!(out.contains("stream stats"), "{out}");
            out.lines()
                .find(|l| l.starts_with("prediction digest"))
                .expect("digest line")
                .to_string()
        };
        // Sticky per-session state: the digest cannot depend on worker
        // count or cross-session interleaving.
        assert_eq!(run("1"), run("3"));
    }

    #[test]
    fn serve_bench_stream_rejects_incompatible_modes_and_bad_counts() {
        let err = cmd_serve_bench(&flags(&[("stream", "on"), ("tenants", "2")])).unwrap_err();
        assert!(err.0.contains("--stream cannot be combined"), "{err}");
        let err = cmd_serve_bench(&flags(&[("stream", "on"), ("chaos", "7")])).unwrap_err();
        assert!(err.0.contains("--stream cannot be combined"), "{err}");
        let err = cmd_serve_bench(&flags(&[("stream", "on"), ("sessions", "0")])).unwrap_err();
        assert!(err.0.contains("--sessions"), "{err}");
    }

    #[test]
    fn bool_flags_parse_strictly() {
        assert!(!flags(&[]).get_bool("metrics").unwrap());
        assert!(flags(&[("metrics", "on")]).get_bool("metrics").unwrap());
        assert!(flags(&[("metrics", "1")]).get_bool("metrics").unwrap());
        assert!(!flags(&[("metrics", "off")]).get_bool("metrics").unwrap());
        assert!(flags(&[("metrics", "maybe")]).get_bool("metrics").is_err());
    }

    #[test]
    fn metrics_flag_appends_telemetry_tables() {
        // serve-bench --metrics: the merged table carries serving,
        // FFT-plan-cache and per-layer metrics.
        let out = cmd_serve_bench(&flags(&[
            ("workers", "2"),
            ("batch", "8"),
            ("requests", "48"),
            ("dataset", "mnist11"),
            ("seed", "5"),
            ("metrics", "on"),
        ]))
        .unwrap();
        for needle in [
            "telemetry (",
            "ffdl.serve.requests",
            "ffdl.serve.batch_size",
            "ffdl.serve.rejections",
            "ffdl.serve.queue_wait_ns",
            "ffdl.fft.plan_cache.miss",
            "ffdl.nn.forward_ns",
            "ffdl.deploy.predict_ns",
        ] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
        assert!(out.contains("rejections"), "{out}");

        // Without the flag: no metrics table.
        let quiet = cmd_serve_bench(&flags(&[
            ("requests", "8"),
            ("dataset", "mnist11"),
            ("seed", "5"),
        ]))
        .unwrap();
        assert!(!quiet.contains("telemetry ("), "{quiet}");

        // infer --metrics: the global registry table is appended.
        let dir = std::env::temp_dir().join(format!("ffdl-cli-metrics-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let arch = dir.join("net.arch");
        let params = dir.join("weights.ffdp");
        let inputs = dir.join("test.csv");
        fs::write(&arch, "input 121\ncirculant_fc 16 block=8\nrelu\nfc 10\nsoftmax\n").unwrap();
        cmd_train(&flags(&[
            ("arch", arch.to_str().unwrap()),
            ("out", params.to_str().unwrap()),
            ("dataset", "mnist11"),
            ("samples", "60"),
            ("epochs", "1"),
        ]))
        .unwrap();
        cmd_gen_inputs(&flags(&[
            ("out", inputs.to_str().unwrap()),
            ("dataset", "mnist11"),
            ("samples", "8"),
        ]))
        .unwrap();
        let out = cmd_infer(&flags(&[
            ("arch", arch.to_str().unwrap()),
            ("params", params.to_str().unwrap()),
            ("inputs", inputs.to_str().unwrap()),
            ("metrics", "on"),
        ]))
        .unwrap();
        for needle in ["telemetry (", "ffdl.deploy.predict_ns", "ffdl.deploy.predictions"] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_dispatches_and_reports_unknown() {
        assert!(run(&[]).is_err());
        assert!(run(&["help".into()]).unwrap().contains("usage"));
        let err = run(&["frobnicate".into()]).unwrap_err();
        assert!(err.0.contains("unknown command"));
        // The error names every available subcommand, like expect_only
        // does for flags.
        for name in ["train", "infer", "inspect", "gen-inputs", "serve-bench", "model", "help"] {
            assert!(err.0.contains(name), "missing {name} in:\n{err}");
        }
        let err = run(&["train".into()]).unwrap_err();
        assert!(err.0.contains("--arch"));
    }

    #[test]
    fn model_lifecycle_publish_list_rollback() {
        let dir = std::env::temp_dir().join(format!("ffdl-cli-model-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let arch = dir.join("net.arch");
        let store = dir.join("store");
        let store_s = store.to_str().unwrap();
        fs::write(&arch, "input 8\ncirculant_fc 8 block=4\nrelu\nfc 3\nsoftmax\n").unwrap();

        // publish twice (different seeds), through the top-level dispatcher
        let out = run(&[
            "model".into(), "publish".into(),
            "--store".into(), store_s.into(),
            "--name".into(), "demo".into(),
            "--arch".into(), arch.to_str().unwrap().into(),
            "--seed".into(), "1".into(),
        ])
        .unwrap();
        assert!(out.contains("generation 1"), "{out}");
        assert!(out.contains("arch net"), "{out}"); // label defaults to the file stem
        let out = run(&[
            "model".into(), "publish".into(),
            "--store".into(), store_s.into(),
            "--name".into(), "demo".into(),
            "--arch".into(), arch.to_str().unwrap().into(),
            "--seed".into(), "2".into(),
            "--label".into(), "toy".into(),
        ])
        .unwrap();
        assert!(out.contains("generation 2"), "{out}");

        // list: per-model table and store summary
        let out = run(&[
            "model".into(), "list".into(),
            "--store".into(), store_s.into(),
            "--name".into(), "demo".into(),
        ])
        .unwrap();
        assert!(out.contains("2 generations, active 2"), "{out}");
        assert!(out.contains("fnv1a"), "{out}");
        let out = run(&["model".into(), "list".into(), "--store".into(), store_s.into()])
            .unwrap();
        assert!(out.contains("demo: 2 generations"), "{out}");

        // rollback: generation 1's bytes become generation 3
        let out = run(&[
            "model".into(), "rollback".into(),
            "--store".into(), store_s.into(),
            "--name".into(), "demo".into(),
        ])
        .unwrap();
        assert!(out.contains("generation 1's bytes"), "{out}");
        assert!(out.contains("new active generation 3"), "{out}");
        let out = run(&[
            "model".into(), "list".into(),
            "--store".into(), store_s.into(),
            "--name".into(), "demo".into(),
        ])
        .unwrap();
        assert!(out.contains("rollback of 1"), "{out}");

        // failure modes keep their names
        let err = run(&["model".into()]).unwrap_err();
        assert!(err.0.contains("missing action"), "{err}");
        let err = run(&["model".into(), "destroy".into()]).unwrap_err();
        assert!(err.0.contains("unknown model action"), "{err}");
        assert!(err.0.contains("publish, list, rollback"), "{err}");
        let err = run(&[
            "model".into(), "list".into(),
            "--store".into(), store_s.into(),
            "--name".into(), "ghost".into(),
        ])
        .unwrap_err();
        assert!(err.0.contains("ghost"), "{err}");

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn model_quantize_publishes_mixed_precision_generation() {
        let dir = std::env::temp_dir().join(format!("ffdl-cli-quant-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let arch = dir.join("net.arch");
        let store = dir.join("store");
        let store_s = store.to_str().unwrap();
        let out_file = dir.join("quantized.ffdm");
        fs::write(&arch, "input 32\ncirculant_fc 16 block=8\nrelu\nfc 4\nsoftmax\n").unwrap();

        run(&[
            "model".into(), "publish".into(),
            "--store".into(), store_s.into(),
            "--name".into(), "demo".into(),
            "--arch".into(), arch.to_str().unwrap().into(),
            "--seed".into(), "1".into(),
        ])
        .unwrap();
        let out = run(&[
            "model".into(), "quantize".into(),
            "--store".into(), store_s.into(),
            "--name".into(), "demo".into(),
            "--bits".into(), "16".into(),
            "--out".into(), out_file.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(out.contains("to int16"), "{out}");
        assert!(out.contains("published generation 2"), "{out}");
        // The written file is a version-3 model the full registry reads back.
        let bytes = fs::read(&out_file).unwrap();
        assert_eq!(bytes[4], 3, "expected a v3 file");
        let net = ffdl::nn::load_network(&bytes[..], &ffdl::core::full_registry()).unwrap();
        assert_eq!(net.layers()[0].type_tag(), "quantized_spectral_dense");
        // Both precisions coexist as generations of one model.
        let out = run(&[
            "model".into(), "list".into(),
            "--store".into(), store_s.into(),
            "--name".into(), "demo".into(),
        ])
        .unwrap();
        assert!(out.contains("net-int16"), "{out}");
        assert!(out.contains("2 generations, active 2"), "{out}");

        // Re-quantizing the quantized generation is a named error.
        let err = run(&[
            "model".into(), "quantize".into(),
            "--store".into(), store_s.into(),
            "--name".into(), "demo".into(),
        ])
        .unwrap_err();
        assert!(err.0.contains("already quantized"), "{err}");
        let err = run(&[
            "model".into(), "quantize".into(),
            "--store".into(), store_s.into(),
            "--name".into(), "demo".into(),
            "--bits".into(), "7".into(),
        ])
        .unwrap_err();
        assert!(err.0.contains("--bits"), "{err}");

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_bench_quantized_reports_agreement() {
        let out = cmd_serve_bench(&flags(&[
            ("workers", "2"),
            ("batch", "8"),
            ("requests", "48"),
            ("dataset", "mnist11"),
            ("seed", "5"),
            ("quantized", "16"),
        ]))
        .unwrap();
        assert!(out.contains("quantized: int16"), "{out}");
        assert!(out.contains("top-1 agreement"), "{out}");
        assert!(out.contains("serve stats"), "{out}");

        let err = cmd_serve_bench(&flags(&[
            ("dataset", "mnist11"),
            ("quantized", "9"),
        ]))
        .unwrap_err();
        assert!(err.0.contains("--quantized"), "{err}");
    }

    #[test]
    fn serve_bench_swap_every_reports_generations() {
        let out = cmd_serve_bench(&flags(&[
            ("workers", "2"),
            ("batch", "4"),
            ("requests", "48"),
            ("dataset", "mnist11"),
            ("seed", "11"),
            ("swap-every", "16"),
        ]))
        .unwrap();
        // 48 requests / swap every 16 → swaps at i = 16 and 32.
        assert!(out.contains("hot-swap: 2 registry-mediated swaps"), "{out}");
        assert!(out.contains("final generation 3"), "{out}");
        assert!(out.contains("model generation"), "{out}");
        assert!(out.contains("serve stats"), "{out}");
    }
}
