//! Drives the real `rtm-benchmark` binary in `--smoke` mode: all five
//! workloads, both passes, every check — shrunk (hidden 64, half-second
//! windows) so it fits the tier-1 budget in a debug build.

use std::path::Path;
use std::process::Command;

use rtm_benchmark::json::Json;
use rtm_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn smoke_runs_all_five_workloads_with_every_check() {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        eprintln!("skipped: the benchmark refuses to run on fewer than 2 CPUs");
        return;
    }
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("benchmark-smoke");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = dir.join("result.json");
    let run = Command::new(env!("CARGO_BIN_EXE_rtm-benchmark"))
        .args(["--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .current_dir(&dir)
        .env_remove("CARGO_TARGET_DIR")
        // Stray knobs must not change what is measured.
        .env("RTM_SIMD", "off")
        .env("RTM_PRECISION", "int8")
        .env("RTM_TRACE", "on")
        .output()
        .expect("run rtm-benchmark");
    assert!(
        run.status.success(),
        "--smoke must exit 0, got {}\n{}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );

    let text = std::fs::read_to_string(&out).expect("result file");
    let doc = Json::parse(&text).expect("result file is JSON");
    assert_eq!(
        doc.get("claim"),
        &Json::Null,
        "the benchmark claims no gain"
    );
    assert_eq!(doc.get("seed").num(), 7.0);
    assert!(doc.get("host_cpus").num() >= 2.0);
    assert!(!doc.get("vector_isa").str().is_empty());
    assert!(!doc.get("git_head").str().is_empty());
    assert_eq!(
        doc.get("simd_policy").str(),
        format!("{:?}", rtm_tensor::simd::SimdPolicy::Auto),
        "RTM_SIMD=off leaked into the run"
    );

    let runs = doc.get("runs").items();
    assert_eq!(runs.len(), 2 * WORKLOADS.len());
    for (i, run) in runs.iter().enumerate() {
        let (w, traced) = (&WORKLOADS[i % WORKLOADS.len()], i >= WORKLOADS.len());
        assert_eq!(run.get("workload").str(), w.name);
        assert_eq!(run.get("trace").num(), f64::from(u8::from(traced)));
        assert_eq!(run.get("correct"), &Json::Bool(true), "{} is wrong", w.name);
        assert_eq!(run.get("failed").num(), 0.0, "{} failed operations", w.name);
        assert!(run.get("attempted").num() >= 1.0);
        let metrics = run.get("metrics");
        let spec: &[_] = if traced { &PER_LAYER } else { &END_TO_END };
        assert_eq!(metrics.entries().len(), spec.len(), "{}", w.name);
        for m in spec {
            let row = metrics.get(m.name);
            assert!(row.get("value").num().is_finite(), "{} {}", w.name, m.name);
            assert_eq!(row.get("unit").str(), m.unit, "{} {}", w.name, m.name);
            if !traced {
                assert!(
                    row.get("value").num() > 0.0,
                    "{} {} is zero",
                    w.name,
                    m.name
                );
            }
        }
        if traced {
            // The conservation invariant, from the reported counters.
            let count = |name: &str| metrics.get(name).get("value").num();
            assert_eq!(
                count("serve.admitted"),
                count("serve.completed")
                    + count("serve.shed")
                    + count("serve.quarantined")
                    + count("serve.disconnects"),
                "{}",
                w.name
            );
            let trace = dir.join(format!("target/benchmark/trace-{}.json", w.name));
            let spans = std::fs::read_to_string(&trace).expect("span file per workload");
            assert!(
                spans.contains(w.name),
                "the root span carries the workload name"
            );
        }
    }
}

#[test]
fn a_single_workload_run_ends_with_the_contract_result_line() {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return;
    }
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("benchmark-line");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_rtm-benchmark"))
        .args([
            "--workload",
            "ondevice_103x",
            "--seed",
            "3",
            "--seconds",
            "0.2",
        ])
        .args(["--trace", "0", "--smoke"])
        .current_dir(&dir)
        .env_remove("CARGO_TARGET_DIR")
        .output()
        .expect("run rtm-benchmark");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let line = stdout.lines().last().expect("a result line");
    let doc = Json::parse(line).expect("the last line is one JSON object");
    let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let names: Vec<&str> = doc
        .get("metrics")
        .entries()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, want);

    // Bad arguments are refused with a usage error, not run.
    let bad = Command::new(env!("CARGO_BIN_EXE_rtm-benchmark"))
        .args(["--workload", "no_such_workload", "--trace", "0"])
        .output()
        .expect("run rtm-benchmark");
    assert_eq!(bad.status.code(), Some(2));
}
