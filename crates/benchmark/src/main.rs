//! `rtm-benchmark`: the paper-scale benchmark (see `README.md`).
//!
//! ```text
//! rtm-benchmark [--seed N] [--seconds S] [--runs N] [--out FILE] [--smoke]
//! rtm-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! rtm-benchmark compare A.json B.json [--spec BENCHMARK.json]
//! ```
//!
//! Without `--workload`, every workload runs in its own child process
//! (so `peak_rss_mb` is per workload): first the end-to-end pass, then the
//! shortened traced pass for the per-layer ledger. With `--workload`, one
//! run is made in this process and its result is the last line of standard
//! output, as one JSON object.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use rtm_benchmark::compare::compare;
use rtm_benchmark::json::Json;
use rtm_benchmark::model::work_dir;
use rtm_benchmark::spec::{self, Scale, Workload, WORKLOADS};
use rtm_benchmark::workloads::{run_end_to_end, run_per_layer, RunConfig, RunResult};
use rtm_trace::json::{json_array, json_row, JsonValue};

/// Window length when `--seconds` is not given; `BENCHMARK.json` asks the
/// driver for the same.
const DEFAULT_SECONDS: f64 = 16.0;
/// Window length under `--smoke`.
const SMOKE_SECONDS: f64 = 0.3;

#[derive(Debug)]
struct Options {
    seed: u64,
    seconds: Option<f64>,
    runs: usize,
    out: Option<PathBuf>,
    smoke: bool,
    workload: Option<&'static Workload>,
    trace: Option<bool>,
}

impl Options {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

fn usage() -> String {
    "usage: rtm-benchmark [--seed N] [--seconds S] [--runs N] [--out FILE] [--smoke]\n       \
     rtm-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n       \
     rtm-benchmark compare A.json B.json [--spec BENCHMARK.json]"
        .to_string()
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: 2020,
        seconds: None,
        runs: 1,
        out: None,
        smoke: false,
        workload: None,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--seed" => {
                o.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                o.seconds = Some(s);
            }
            "--runs" => {
                o.runs = value()?
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or_else(|| "--runs takes a count from 1 to 100".to_string())?;
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--smoke" => o.smoke = true,
            "--workload" => {
                let name = value()?;
                o.workload = Some(spec::workload(name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; expected one of {names:?}")
                })?);
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(o)
}

/// `RTM_*` knobs would change what the product does (precision, decoder,
/// SIMD policy, tracing): drop them before anything reads them. Children
/// inherit the cleaned environment.
fn scrub_env() {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("RTM_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn number(v: f64) -> JsonValue {
    // Shortest representation that round-trips: all measured digits.
    JsonValue::Raw(format!("{v}"))
}

/// The result object of the driver contract: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
fn result_json(r: &RunResult) -> String {
    let metrics: Vec<(&str, JsonValue)> = r
        .metrics
        .iter()
        .map(|(m, v)| {
            let row = json_row(&[
                ("value", number(*v)),
                ("unit", JsonValue::Str(m.unit.to_string())),
            ]);
            (m.name, JsonValue::Raw(row))
        })
        .collect();
    json_row(&[
        ("correct", JsonValue::Raw(r.correct.to_string())),
        ("attempted", JsonValue::Int(r.attempted as i64)),
        ("failed", JsonValue::Int(r.failed as i64)),
        ("metrics", JsonValue::Raw(json_row(&metrics))),
    ])
}

fn run_one(o: &Options, w: &'static Workload, process_start: Instant) -> ExitCode {
    let Some(trace) = o.trace else {
        eprintln!("--workload needs --trace 0 or 1\n{}", usage());
        return ExitCode::from(2);
    };
    let cfg = RunConfig {
        workload: w,
        seed: o.seed,
        seconds: o.seconds(),
        scale: if o.smoke {
            Scale::smoke()
        } else {
            Scale::full()
        },
        process_start,
    };
    let mut result = if trace {
        run_per_layer(&cfg)
    } else {
        run_end_to_end(&cfg)
    };
    for (m, v) in &result.metrics {
        if !v.is_finite() {
            result
                .problems
                .push(format!("{} is not a finite number", m.name));
            result.correct = false;
        }
    }
    for note in &result.notes {
        eprintln!("{note}");
    }
    for p in &result.problems {
        eprintln!("PROBLEM: {p}");
    }
    println!("{}", result_json(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs this binary again for one workload and parses its result line.
fn child(o: &Options, w: &Workload, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &o.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = o.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if o.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {} child printed no result ({})", w.name, output.status))?;
    Json::parse(line).map_err(|e| format!("the {} child's result does not parse: {e}", w.name))
}

fn git_head() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run_all(o: &Options) -> ExitCode {
    let seconds = o.seconds();
    let meta = [
        ("benchmark", JsonValue::Str("rtm-benchmark".to_string())),
        // This benchmark measures; it claims no gain.
        ("claim", JsonValue::Raw("null".to_string())),
        ("seed", JsonValue::Int(o.seed as i64)),
        ("seconds", number(seconds)),
        ("smoke", JsonValue::Raw(o.smoke.to_string())),
        ("host_cpus", JsonValue::Int(host_cpus() as i64)),
        (
            "vector_isa",
            JsonValue::Str(rtm_tensor::simd::vector_isa().to_string()),
        ),
        (
            "simd_policy",
            JsonValue::Str(format!("{:?}", rtm_tensor::simd::policy())),
        ),
        ("git_head", JsonValue::Str(git_head())),
    ];
    println!("rtm-benchmark: {}", json_row(&meta));

    let mut rows = Vec::new();
    let mut bad = 0usize;
    let passes: Vec<(bool, usize)> = (0..o.runs).map(|r| (false, r)).chain([(true, 0)]).collect();
    for (trace, run) in passes {
        println!(
            "\n== {} ==",
            if trace {
                "per-layer pass (traced replay + layer probes)".to_string()
            } else {
                format!("end-to-end pass {} of {} (tracing off)", run + 1, o.runs)
            }
        );
        for w in &WORKLOADS {
            let doc = match child(o, w, trace) {
                Ok(doc) => doc,
                Err(e) => {
                    eprintln!("{e}");
                    bad += 1;
                    continue;
                }
            };
            let correct = doc.get("correct") == &Json::Bool(true);
            let (attempted, failed) = (doc.get("attempted").num(), doc.get("failed").num());
            if !correct || failed != 0.0 {
                bad += 1;
            }
            println!(
                "{:<20} operations attempted {attempted} succeeded {} failed {failed}  {}",
                w.name,
                attempted - failed,
                if correct {
                    "outputs correct"
                } else {
                    "OUTPUTS WRONG"
                },
            );
            let mut metrics = Vec::new();
            for (name, m) in doc.get("metrics").entries() {
                let (value, unit) = (m.get("value").num(), m.get("unit").str());
                println!("  {:<20} {name:<32} {value:>16.4} {unit}", w.name);
                let row = json_row(&[
                    ("value", number(value)),
                    ("unit", JsonValue::Str(unit.to_string())),
                ]);
                metrics.push((name.as_str(), JsonValue::Raw(row)));
            }
            rows.push(json_row(&[
                ("workload", JsonValue::Str(w.name.to_string())),
                ("trace", JsonValue::Int(i64::from(trace))),
                ("run", JsonValue::Int(run as i64)),
                ("seed", JsonValue::Int(o.seed as i64)),
                ("correct", JsonValue::Raw(correct.to_string())),
                ("attempted", number(attempted)),
                ("failed", number(failed)),
                ("metrics", JsonValue::Raw(json_row(&metrics))),
            ]));
        }
    }

    let body: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {},", v.render()))
        .collect();
    let doc = format!(
        "{{\n{}\n  \"runs\": {}\n}}\n",
        body.join("\n"),
        json_array("    ", &rows)
    );
    let out = o.out.clone().unwrap_or_else(|| {
        work_dir().join(format!(
            "result-{}{}.json",
            o.seed,
            if o.smoke { "-smoke" } else { "" }
        ))
    });
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out, doc) {
        Ok(()) => println!("\nresults -> {}", out.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", out.display());
            bad += 1;
        }
    }
    if bad == 0 {
        println!("all workloads correct, zero failed operations");
        ExitCode::SUCCESS
    } else {
        println!("{bad} workload runs failed or were wrong");
        ExitCode::FAILURE
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_cmd(args: &[String]) -> ExitCode {
    let (mut files, mut spec_path) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match (a.as_str(), it.len()) {
            ("--spec", n) if n > 0 => spec_path = it.next().cloned().unwrap_or_default(),
            (f, _) if !f.starts_with("--") => files.push(f.to_string()),
            _ => {
                eprintln!("{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let [a, b] = files.as_slice() else {
        eprintln!("compare takes exactly two result files\n{}", usage());
        return ExitCode::from(2);
    };
    let outcome = read_json(&spec_path).and_then(|spec| {
        let (a, b) = (read_json(a)?, read_json(b)?);
        compare(&spec, &a, &b)
    });
    match outcome {
        Ok(c) => {
            print!("{}", c.report);
            if c.failures == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return compare_cmd(&args[1..]);
    }
    let options = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // One core for the server, one for the generator: with fewer the two
    // time-share and every latency below is fiction.
    if host_cpus() < 2 {
        eprintln!(
            "rtm-benchmark needs at least 2 CPUs (server + generator), found {}",
            host_cpus()
        );
        return ExitCode::from(2);
    }
    match options.workload {
        Some(w) => run_one(&options, w, process_start),
        None => run_all(&options),
    }
}
