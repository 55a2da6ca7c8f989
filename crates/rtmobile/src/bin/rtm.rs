//! `rtm` — the RTMobile command-line front end.
//!
//! ```text
//! rtm pipeline [--hidden N] [--col X] [--row Y] [--stripes S] [--blocks B]
//!              [--seed K] [--threads T] [--batch B] [--simd POLICY]
//!              [--health POLICY] [--precision CHOICE] [--decoder CHOICE]
//!              [--trace OUT.json] [--save FILE.rtm]
//! rtm compile --out FILE.rtm [--hidden N] [--col X] [--row Y] [--stripes S]
//!             [--blocks B] [--seed K] [--threads T] [--batch B]
//!             [--simd POLICY] [--health POLICY] [--precision CHOICE]
//!             [--decoder CHOICE]
//! rtm serve FILE.rtm [--port P] [--max-conns N] [--tenant-quota Q]
//!           [--max-streams N] [--threads T] [--batch B] [--queue-depth D]
//!           [--shed POLICY] [--simd POLICY] [--health POLICY]
//!           [--decoder CHOICE] [--reload on|off|POLL_MS]
//!           [--rollback-threshold F] [--trace OUT.json] [--smoke N]
//! rtm inspect FILE.rtm
//! rtm help
//! ```
//!
//! The compile-once-serve-many flow (DESIGN.md §15): `compile` runs the
//! full train → BSP-prune → compile flow ahead of time and publishes the
//! result as a checksummed v5 bundle — BSPC weights at their final
//! precision and health metadata (compiled PER) — via an atomic
//! temp-file-and-rename write. `serve` loads a bundle and runs the
//! continuous-batching TCP front end on loopback (DESIGN.md §14); with `--reload` (or `RTM_RELOAD`) it watches the
//! bundle path and hot-swaps validated republishes with zero dropped
//! streams, rolling back if the new generation's quarantine rate trips
//! `--rollback-threshold`. `inspect` summarizes a saved model including
//! its integrity and health metadata. Every runtime knob flows through one
//! [`rtmobile::RuntimeConfig`], seeded from the `RTM_*` environment
//! variables and overridden by the flags. `--trace OUT.json` enables the
//! observability registry and writes a Chrome `trace_event` file to
//! `OUT.json` plus the metrics dump (counters/gauges/histograms) next to
//! it as `OUT.metrics.json`.

use rtmobile::serve::{ReloadConfig, ServeOptions, Server, ShedPolicy, StreamClient};
use rtmobile::{bundle, AdmissionConfig, RtMobile, RuntimeConfig, TraceConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("pipeline") => pipeline(&args[1..]),
        Some("compile") => compile(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("inspect") => inspect(&args[1..]),
        Some("help") | None => {
            print_help();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command: {other}");
            print_help();
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!("rtm — RTMobile reproduction CLI");
    println!();
    println!("USAGE:");
    println!("  rtm pipeline [--hidden N] [--col X] [--row Y] [--stripes S] [--blocks B]");
    println!("               [--seed K] [--threads T] [--batch B] [--simd POLICY]");
    println!("               [--health POLICY] [--precision CHOICE] [--decoder CHOICE]");
    println!("               [--trace OUT.json] [--save FILE.rtm]");
    println!("  rtm compile --out FILE.rtm [pipeline flags except --trace/--save]");
    println!("  rtm serve FILE.rtm [--port P] [--max-conns N] [--tenant-quota Q]");
    println!("            [--max-streams N] [--threads T] [--batch B] [--queue-depth D]");
    println!("            [--shed POLICY] [--simd POLICY] [--health POLICY]");
    println!("            [--decoder CHOICE] [--reload on|off|POLL_MS]");
    println!("            [--rollback-threshold F] [--trace OUT.json] [--smoke N]");
    println!("  rtm inspect FILE.rtm");
    println!("  rtm help");
    println!();
    println!("  compile is the ahead-of-time half of compile-once-serve-many: it runs");
    println!("  the train -> prune -> compile pipeline and atomically publishes the");
    println!("  result to --out as a checksummed bundle (BSPC weights at their final");
    println!("  precision, health metadata, per-section CRCs and a whole-file");
    println!("  checksum). Republishing to the same path bumps the bundle");
    println!("  generation. pipeline --save writes the same bundle format.");
    println!();
    println!("  --reload watches FILE.rtm while serving (on, off, or a poll interval");
    println!("  in milliseconds; RTM_RELOAD sets the same knob). A validated");
    println!("  republish is hot-swapped with zero dropped streams: in-flight streams");
    println!("  finish on their generation's weights, new streams start on the new");
    println!("  ones. A corrupt, mismatched or canary-failing publish is refused; if");
    println!("  the new generation's quarantine rate exceeds --rollback-threshold");
    println!("  (default 0.5), the server rolls back to the previous generation.");
    println!();
    println!("  serve binds a loopback TCP port (--port 0, the default, picks an");
    println!("  ephemeral one and prints it), loads FILE.rtm and feeds concurrent");
    println!("  connections through the continuous-batching runtime: --batch lanes");
    println!("  are shared mid-flight, --max-conns bounds the connection table,");
    println!("  --tenant-quota bounds concurrent streams per tenant, --queue-depth");
    println!("  bounds the parked backlog (shed under --shed reject-new|drop-oldest)");
    println!("  and --max-streams serves N streams then exits (omit to serve until");
    println!("  interrupted). Every stream's logits are bit-identical to a serial");
    println!("  run of the same frames. --smoke N drives the server from an");
    println!("  in-process client (N synthetic streams over loopback), verifies");
    println!("  bit-identity and exits — the CI self-test.");
    println!();
    println!("  --batch scores up to B test utterances per weight pass through the");
    println!("  multi-stream batched runtime (default 1; bit-identical results).");
    println!();
    println!("  --simd picks the kernel dispatch policy: auto (default; the vector body");
    println!("  when the CPU supports it), off/scalar/u1 (the scalar loop), or vector.");
    println!("  The RTM_SIMD environment variable sets the same knob.");
    println!();
    println!("  --health picks the numerical-health policy of the batched scorer");
    println!("  and of model loading: off (default), check, or quarantine.");
    println!("  The RTM_HEALTH environment variable sets the same knob.");
    println!();
    println!("  --precision picks the weight storage precision of the compiled");
    println!("  runtime, one for every layer: f32, f16 (default; the paper's");
    println!("  mobile-GPU datapath), int8, or auto (the f16 default: the same");
    println!("  flags and seed always write the same bytes). The RTM_PRECISION");
    println!("  environment variable sets the same knob.");
    println!();
    println!("  --decoder picks the streaming decoder: argmax (default; per-frame");
    println!("  best class), viterbi (transition-penalty smoothing), ctc-greedy");
    println!("  (CTC best path: collapse repeats, drop blanks) or ctc-beam:N (CTC");
    println!("  prefix beam search with beam width N). pipeline scores the decoded");
    println!("  hypotheses and reports per-stream/per-batch RTF; serve sends");
    println!("  hypotheses to streams that opt in (protocol v2). The RTM_DECODER");
    println!("  environment variable sets the same knob.");
    println!();
    println!("  --trace enables the observability registry (RTM_TRACE sets the same");
    println!("  knob without an output file) and writes a Chrome trace_event file");
    println!("  to OUT.json plus the metrics dump to OUT.metrics.json. Tracing");
    println!("  never changes any computed number.");
}

/// Parses `--flag value` pairs against the allow-list `known`; returns
/// `None` (after printing a user-facing message) on any malformed, unknown
/// or repeated flag — bad input must never reach a panic or a silent
/// default.
fn parse_flags(
    args: &[String],
    known: &[&str],
) -> Option<std::collections::BTreeMap<String, String>> {
    let mut out = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            eprintln!("expected a --flag, got {flag}");
            return None;
        };
        if !known.contains(&name) {
            eprintln!("unknown flag --{name} (try `rtm help`)");
            return None;
        }
        let Some(value) = it.next() else {
            eprintln!("--{name} needs a value");
            return None;
        };
        if out.insert(name.to_string(), value.clone()).is_some() {
            eprintln!("--{name} given twice");
            return None;
        }
    }
    Some(out)
}

/// Parses flag `k` with `parse`, defaulting to `d` when absent; a present
/// but unparseable value is an error, not a silent default.
fn parse_or<T: std::str::FromStr>(
    flags: &std::collections::BTreeMap<String, String>,
    k: &str,
    d: T,
) -> Result<T, String> {
    match flags.get(k) {
        None => Ok(d),
        Some(v) => v.parse().map_err(|_| format!("--{k}: cannot parse {v:?}")),
    }
}

const PIPELINE_FLAGS: &[&str] = &[
    "hidden",
    "col",
    "row",
    "stripes",
    "blocks",
    "seed",
    "threads",
    "batch",
    "simd",
    "health",
    "precision",
    "decoder",
    "trace",
    "save",
];

const COMPILE_FLAGS: &[&str] = &[
    "out",
    "hidden",
    "col",
    "row",
    "stripes",
    "blocks",
    "seed",
    "threads",
    "batch",
    "simd",
    "health",
    "precision",
    "decoder",
];

/// Parses one runtime knob's value and installs it; `None` is a value
/// outside the knob's grammar.
type InstallKnob = fn(RuntimeConfig, &str) -> Option<RuntimeConfig>;

/// The runtime knobs shared by every subcommand, in the order they apply:
/// flag name, the accepted-values string its error quotes (the one the
/// `RTM_*` errors quote), and parse-then-install.
const RUNTIME_FLAGS: [(&str, &str, InstallKnob); 4] = [
    ("simd", rtmobile::env::SIMD_VALUES, |rt, v| {
        rtm_tensor::simd::parse_policy(v).map(|p| rt.with_simd(p))
    }),
    ("health", rtmobile::env::HEALTH_VALUES, |rt, v| {
        rtmobile::health::parse_policy(v).map(|p| rt.with_health(p))
    }),
    ("precision", rtmobile::env::PRECISION_VALUES, |rt, v| {
        rtmobile::PrecisionChoice::parse(v).map(|p| rt.with_precision(p))
    }),
    ("decoder", rtmobile::env::DECODER_VALUES, |rt, v| {
        rtmobile::DecoderChoice::parse(v).map(|d| rt.with_decoder(d))
    }),
];

/// Applies [`RUNTIME_FLAGS`] on top of `runtime`. Flags a subcommand
/// doesn't accept never reach here (the allow-list rejects them first).
fn apply_runtime_flags(
    mut runtime: RuntimeConfig,
    flags: &std::collections::BTreeMap<String, String>,
) -> Result<RuntimeConfig, String> {
    for (name, values, apply) in RUNTIME_FLAGS {
        if let Some(v) = flags.get(name) {
            runtime =
                apply(runtime, v).ok_or_else(|| format!("--{name} must be {values} (got {v})"))?;
        }
    }
    Ok(runtime)
}

/// Atomically publishes `compiled` to `path` as a v5 bundle, carrying the
/// run's health metadata and the next generation stamp for that path.
fn publish_bundle(
    path: &str,
    compiled: &rtmobile::deploy::CompiledNetwork,
    report: &rtmobile::PipelineReport,
) -> Result<(u64, usize), String> {
    let target = std::path::Path::new(path);
    let meta = rtmobile::BundleMeta {
        generation: bundle::next_generation(target),
        compiled_per: report.accuracy.compiled_per as f32,
    };
    let bytes = bundle::to_bytes_with(compiled, &meta);
    bundle::write_bytes_atomic(target, &bytes)
        .map_err(|e| format!("failed to write {path}: {e}"))?;
    Ok((meta.generation, bytes.len()))
}

/// Where the metrics dump lands next to a `--trace` output path:
/// `out.json` → `out.metrics.json` (a non-`.json` path just gets the
/// suffix appended).
fn metrics_path_for(trace_path: &str) -> String {
    match trace_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.metrics.json"),
        None => format!("{trace_path}.metrics.json"),
    }
}

fn pipeline(args: &[String]) -> ExitCode {
    let Some(flags) = parse_flags(args, PIPELINE_FLAGS) else {
        return ExitCode::FAILURE;
    };
    let parsed = (|| -> Result<_, String> {
        Ok((
            parse_or(&flags, "hidden", 48usize)?,
            parse_or(&flags, "col", 10.0f64)?,
            parse_or(&flags, "row", 1.0f64)?,
            parse_or(&flags, "stripes", 4usize)?,
            parse_or(&flags, "blocks", 4usize)?,
            parse_or(&flags, "seed", 2020u64)?,
            parse_or(&flags, "threads", 1usize)?,
            parse_or(&flags, "batch", 1usize)?,
        ))
    })();
    let (hidden, col, row, stripes, blocks, seed, threads, batch) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    if col < 1.0 || row < 1.0 {
        eprintln!("compression rates must be >= 1");
        return ExitCode::FAILURE;
    }
    if threads == 0 {
        eprintln!("--threads must be >= 1");
        return ExitCode::FAILURE;
    }
    if batch == 0 {
        eprintln!("--batch must be >= 1");
        return ExitCode::FAILURE;
    }

    // One RuntimeConfig carries every knob: environment defaults first
    // (a set-but-garbage RTM_* variable is an error, not a silent
    // fallback), then the explicit flags on top.
    let mut runtime = match RuntimeConfig::from_env() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    runtime = runtime.with_threads(threads).with_batch(batch);
    runtime = match apply_runtime_flags(runtime, &flags) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let trace_path = flags.get("trace");
    if trace_path.is_some() {
        runtime = runtime.with_trace(TraceConfig::on());
    }

    println!(
        "Running the RTMobile pipeline: hidden {hidden}, target {col}x cols x {row}x rows, \
         partition {stripes}x{blocks}, seed {seed}, {threads} thread(s), batch {batch}"
    );
    let builder = RtMobile::builder()
        .hidden(hidden)
        .compression(col, row)
        .partition(stripes, blocks)
        .seed(seed)
        .runtime(runtime);
    let (report, _net, compiled) = builder.run_keeping_model();
    println!(
        "Kernel dispatch: {} (vector ISA: {})",
        rtm_tensor::simd::active_variant().name(),
        rtm_tensor::simd::vector_isa()
    );
    println!("{}", report.render());

    if let Some(path) = trace_path {
        let reg = rtm_trace::global();
        let metrics_path = metrics_path_for(path);
        for (p, contents) in [
            (path.as_str(), reg.chrome_trace_json()),
            (metrics_path.as_str(), reg.metrics_json()),
        ] {
            if let Err(e) = std::fs::write(p, &contents) {
                eprintln!("failed to write {p}: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!("wrote {path} (Chrome trace_event) and {metrics_path} (metrics)");
    }

    if let Some(path) = flags.get("save") {
        match publish_bundle(path, &compiled, &report) {
            Ok((generation, len)) => {
                println!("wrote {path} ({len} bytes, bundle generation {generation})")
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `rtm compile`: the ahead-of-time half of compile-once-serve-many. Runs
/// the same train → prune → compile flow as `pipeline` and atomically
/// publishes the result to `--out` as a checksummed v5 bundle.
fn compile(args: &[String]) -> ExitCode {
    let Some(flags) = parse_flags(args, COMPILE_FLAGS) else {
        return ExitCode::FAILURE;
    };
    let Some(out) = flags.get("out").cloned() else {
        eprintln!("rtm compile needs --out FILE.rtm (try `rtm help`)");
        return ExitCode::FAILURE;
    };
    let parsed = (|| -> Result<_, String> {
        Ok((
            parse_or(&flags, "hidden", 48usize)?,
            parse_or(&flags, "col", 10.0f64)?,
            parse_or(&flags, "row", 1.0f64)?,
            parse_or(&flags, "stripes", 4usize)?,
            parse_or(&flags, "blocks", 4usize)?,
            parse_or(&flags, "seed", 2020u64)?,
            parse_or(&flags, "threads", 1usize)?,
            parse_or(&flags, "batch", 1usize)?,
        ))
    })();
    let (hidden, col, row, stripes, blocks, seed, threads, batch) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if col < 1.0 || row < 1.0 {
        eprintln!("compression rates must be >= 1");
        return ExitCode::FAILURE;
    }
    if threads == 0 || batch == 0 {
        eprintln!("--threads and --batch must be >= 1");
        return ExitCode::FAILURE;
    }
    let mut runtime = match RuntimeConfig::from_env() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    runtime = runtime.with_threads(threads).with_batch(batch);
    runtime = match apply_runtime_flags(runtime, &flags) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "Compiling: hidden {hidden}, target {col}x cols x {row}x rows, \
         partition {stripes}x{blocks}, seed {seed}"
    );
    let (report, _net, compiled) = RtMobile::builder()
        .hidden(hidden)
        .compression(col, row)
        .partition(stripes, blocks)
        .seed(seed)
        .runtime(runtime)
        .run_keeping_model();
    let p = &report.performance;
    println!(
        "compiled PER {:.2}%, precision {} ({} f32 / {} f16 / {} int8)",
        report.accuracy.compiled_per, p.precision, p.layers_f32, p.layers_f16, p.layers_int8,
    );
    match publish_bundle(&out, &compiled, &report) {
        Ok((generation, len)) => {
            println!("wrote {out} ({len} bytes, bundle generation {generation})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

const SERVE_FLAGS: &[&str] = &[
    "port",
    "max-conns",
    "tenant-quota",
    "max-streams",
    "threads",
    "batch",
    "queue-depth",
    "shed",
    "simd",
    "health",
    "decoder",
    "reload",
    "rollback-threshold",
    "trace",
    "smoke",
];

fn serve(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: rtm serve FILE.rtm [flags] (try `rtm help`)");
        return ExitCode::FAILURE;
    };
    let Some(flags) = parse_flags(&args[1..], SERVE_FLAGS) else {
        return ExitCode::FAILURE;
    };
    let parsed = (|| -> Result<_, String> {
        Ok((
            parse_or(&flags, "port", 0u16)?,
            parse_or(&flags, "max-conns", 64usize)?,
            parse_or(&flags, "tenant-quota", usize::MAX)?,
            parse_or(&flags, "threads", 1usize)?,
            parse_or(&flags, "batch", 8usize)?,
            parse_or(&flags, "queue-depth", usize::MAX)?,
        ))
    })();
    let (port, max_conns, tenant_quota, threads, batch, queue_depth) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let smoke = match flags.get("smoke") {
        None => None,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            Ok(_) => {
                eprintln!("--smoke must be >= 1");
                return ExitCode::FAILURE;
            }
            Err(_) => {
                eprintln!("--smoke: cannot parse {v:?}");
                return ExitCode::FAILURE;
            }
        },
    };
    if max_conns == 0 {
        eprintln!("--max-conns must be >= 1");
        return ExitCode::FAILURE;
    }
    if threads == 0 {
        eprintln!("--threads must be >= 1");
        return ExitCode::FAILURE;
    }
    if batch == 0 {
        eprintln!("--batch must be >= 1");
        return ExitCode::FAILURE;
    }

    let mut runtime = match RuntimeConfig::from_env() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut admission = AdmissionConfig::unbounded().with_queue_depth(queue_depth);
    match flags.get("shed").map(String::as_str) {
        None => {}
        Some("reject-new") => admission = admission.with_shed(ShedPolicy::RejectNew),
        Some("drop-oldest") => admission = admission.with_shed(ShedPolicy::DropOldest),
        Some(v) => {
            eprintln!("--shed must be reject-new or drop-oldest (got {v})");
            return ExitCode::FAILURE;
        }
    }
    let mut serve_opts = ServeOptions::default()
        .with_port(port)
        .with_max_conns(max_conns)
        .with_tenant_quota(tenant_quota);
    match flags.get("max-streams") {
        None => {}
        Some(v) => match v.parse::<usize>() {
            Ok(n) => serve_opts = serve_opts.with_max_streams(n),
            Err(_) => {
                eprintln!("--max-streams: cannot parse {v:?}");
                return ExitCode::FAILURE;
            }
        },
    }
    // The smoke run is self-driving: it serves exactly its own streams,
    // then drains — whatever --max-streams said.
    if let Some(n) = smoke {
        serve_opts = serve_opts.with_max_streams(n);
    }
    runtime = runtime
        .with_threads(threads)
        .with_batch(batch)
        .with_admission(admission)
        .with_serve(serve_opts);
    runtime = match apply_runtime_flags(runtime, &flags) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // --reload: the flag wins; an unset flag defers to RTM_RELOAD.
    let reload_poll_ms: Option<u64> = match flags.get("reload").map(String::as_str) {
        Some("off") | Some("false") => None,
        Some("on") | Some("true") => Some(ReloadConfig::default().poll_ms),
        Some(v) => match v.parse::<u64>() {
            Ok(ms) => Some(ms),
            Err(_) => {
                eprintln!("--reload must be on, off or a poll interval in milliseconds (got {v})");
                return ExitCode::FAILURE;
            }
        },
        None => match rtmobile::env::reload_poll_ms() {
            Ok(v) => v.flatten(),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let rollback_threshold = match parse_or(&flags, "rollback-threshold", 0.5f64) {
        Ok(f) if (0.0..=1.0).contains(&f) => f,
        Ok(_) => {
            eprintln!("--rollback-threshold must be between 0 and 1");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let trace_path = flags.get("trace");
    if trace_path.is_some() {
        runtime = runtime.with_trace(TraceConfig::on());
    }
    runtime.apply_globals();

    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The container checksums (whole-file and per-section for v5 bundles)
    // are enforced here: a torn or bit-rotted publish refuses to serve.
    let model = match bundle::from_bytes(&bytes) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("not a valid .rtm model: {e}");
            return ExitCode::FAILURE;
        }
    };
    let net = std::sync::Arc::clone(&model.net);

    let generation = model.generation();
    let exec = rtm_exec::Executor::new(runtime.threads);
    let mut server = match Server::bind_bundle(model, &exec, &runtime) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind port {port}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(poll_ms) = reload_poll_ms {
        server.enable_reload(
            std::path::PathBuf::from(path),
            ReloadConfig::default()
                .with_poll_ms(poll_ms)
                .with_rollback_quarantine_rate(rollback_threshold),
        );
        println!(
            "watching {path} for republishes (poll {poll_ms} ms, rollback threshold {rollback_threshold})"
        );
    }
    // The smoke scripts parse this line for the ephemeral port.
    println!("listening on {}", server.local_addr());
    println!(
        "model {path}: {} -> {} dims, generation {}, {} lanes, {} thread(s)",
        net.input_dim(),
        net.num_classes(),
        generation,
        runtime.batch,
        runtime.threads
    );

    // --smoke N: drive the server from an in-process client thread — N
    // synthetic streams over the real loopback socket — then verify every
    // returned logits row against a serial forward once the loop drains.
    type SmokeStream = (Vec<Vec<f32>>, Vec<Vec<f32>>);
    let smoke_client = smoke.map(|n| {
        let addr = server.local_addr();
        let input_dim = net.input_dim();
        std::thread::spawn(move || -> Result<Vec<SmokeStream>, String> {
            let err = |what: &'static str| move |e| format!("smoke client {what}: {e}");
            (0..n)
                .map(|s| {
                    let frames: Vec<Vec<f32>> = (0..16)
                        .map(|t| {
                            (0..input_dim)
                                .map(|i| (((s * 997 + t * input_dim + i) as f32) * 0.31).sin())
                                .collect()
                        })
                        .collect();
                    let mut client = StreamClient::connect(addr).map_err(err("connect"))?;
                    client.start(s as u32).map_err(err("start"))?;
                    let mut logits = Vec::with_capacity(frames.len());
                    for f in &frames {
                        logits.push(client.infer(f).map_err(err("infer"))?);
                    }
                    client.finish().map_err(err("finish"))?;
                    Ok((frames, logits))
                })
                .collect()
        })
    });

    let stats = match server.run() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve loop failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "served: {} admitted, {} completed, {} shed, {} quarantined, {} deadline missed, \
         {} batched steps",
        stats.admitted,
        stats.completed,
        stats.shed,
        stats.quarantined,
        stats.deadline_missed,
        stats.frames
    );
    if reload_poll_ms.is_some() {
        let r = server.reload_stats();
        println!(
            "reload: {} attempt(s), {} swap(s), {} refused, {} rollback(s), generation {}",
            r.attempts, r.successes, r.refusals, r.rollbacks, r.generation
        );
    }

    if let Some(handle) = smoke_client {
        let streams = match handle.join() {
            Ok(Ok(s)) => s,
            Ok(Err(e)) => {
                eprintln!("serve smoke FAILED: {e}");
                return ExitCode::FAILURE;
            }
            Err(_) => {
                eprintln!("serve smoke FAILED: client thread panicked");
                return ExitCode::FAILURE;
            }
        };
        let mut frames_total = 0usize;
        for (s, (frames, logits)) in streams.iter().enumerate() {
            let serial = net.forward(frames);
            let identical = serial.len() == logits.len()
                && serial.iter().zip(logits).all(|(a, b)| {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                });
            if !identical {
                eprintln!("serve smoke FAILED: stream {s} differs from serial forward");
                return ExitCode::FAILURE;
            }
            frames_total += logits.len();
        }
        println!(
            "serve smoke ok: {} stream(s), {} frames, bit-identical to serial",
            streams.len(),
            frames_total
        );
    }

    if let Some(tp) = trace_path {
        let reg = rtm_trace::global();
        let metrics_path = metrics_path_for(tp);
        for (p, contents) in [
            (tp.as_str(), reg.chrome_trace_json()),
            (metrics_path.as_str(), reg.metrics_json()),
        ] {
            if let Err(e) = std::fs::write(p, &contents) {
                eprintln!("failed to write {p}: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!("wrote {tp} (Chrome trace_event) and {metrics_path} (metrics)");
    }
    ExitCode::SUCCESS
}

fn inspect(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: rtm inspect FILE.rtm");
        return ExitCode::FAILURE;
    };
    // Load-time weight validation follows the deployment-side health knob;
    // a set-but-garbage `RTM_HEALTH` is an error, as in every other command.
    let policy = match RuntimeConfig::from_env() {
        Ok(r) => r.resolved_health(),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Container integrity first: a corrupt file still gets its layout and
    // checksum verdicts printed before the decode error below refuses it.
    println!("{path}: {} bytes on disk", bytes.len());
    match bundle::probe(&bytes) {
        Err(e) => {
            eprintln!("not a valid .rtm model: {e}");
            return ExitCode::FAILURE;
        }
        Ok(probe) => {
            println!("  generation    : {}", probe.generation);
            println!(
                "  file checksum : {}",
                if probe.file_crc_ok {
                    "ok"
                } else {
                    "MISMATCH (torn write or bit rot)"
                }
            );
            for s in &probe.sections {
                println!(
                    "  section {} : {} bytes, checksum {}",
                    String::from_utf8_lossy(&s.tag),
                    s.len,
                    if s.crc_ok { "ok" } else { "MISMATCH" }
                );
            }
        }
    }
    let loaded = match bundle::from_bytes_with(&bytes, policy) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("not a valid .rtm model: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "  compiled PER  : {:.2}% (at publish time)",
        loaded.meta.compiled_per
    );
    let net = loaded.into_network();
    println!("  precision     : {:?}", net.precision());
    println!(
        "  sparse storage: {:.1} KiB {}",
        net.storage_bytes() as f64 / 1024.0,
        net.format().tag()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_runtime_flag_rejects_an_unknown_value_with_its_grammar() {
        let reject = |name: &str, values: &str, bad: &str| {
            let flags = [(name.to_string(), bad.to_string())].into();
            let err = apply_runtime_flags(RuntimeConfig::default(), &flags)
                .expect_err("no runtime knob takes this value");
            assert_eq!(err, format!("--{name} must be {values} (got {bad})"));
        };
        for (name, values, _) in RUNTIME_FLAGS {
            reject(name, values, "warp");
        }
        // An unroll factor names no variant: unknown like any other value.
        for stale in ["u4", "u8"] {
            reject("simd", rtmobile::env::SIMD_VALUES, stale);
        }
    }
}
