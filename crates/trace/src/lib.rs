#![warn(missing_docs)]

//! # rtm-trace
//!
//! Zero-dependency observability for the RTMobile serving stack: counters,
//! gauges, latency histograms with p50/p95/p99 and hierarchical spans with
//! monotonic timing, behind one process-global [`Registry`].
//!
//! The paper's compiler half *runs on* measured execution behaviour — the
//! auto-tuner picks unroll factors from observed kernel cost and the matrix
//! reorder exists to fix observable thread imbalance — so the runtime needs
//! a way to observe itself that every layer can reach. This crate sits at
//! the bottom of the workspace (no dependencies, like `rtm-tensor`), so the
//! kernel layer, the execution engine, the batched scheduler and the
//! pipeline all record into the *same* registry the tuner reads.
//!
//! # Switching it on
//!
//! Tracing is **off by default** and the disabled path is near-free: every
//! recording entry point is gated on [`enabled`], a single relaxed atomic
//! load plus a branch. `rtm-benchmark --trace 1` reports what switching it
//! on costs as `trace.overhead_pct` (traced against untraced frames/s). The
//! knob mirrors `RTM_SIMD`: programmatic [`set_config`] wins, otherwise the
//! `RTM_TRACE` environment variable is read once on first use.
//!
//! ```
//! rtm_trace::set_config(rtm_trace::TraceConfig::on());
//! {
//!     let _span = rtm_trace::span("work");
//!     rtm_trace::count(rtm_trace::key::GEMV_DENSE, 1);
//! }
//! let metrics = rtm_trace::global().metrics_json();
//! assert!(metrics.contains("kernel.gemv.dense"));
//! # rtm_trace::set_config(rtm_trace::TraceConfig::off());
//! # rtm_trace::global().reset();
//! ```
//!
//! # Exports
//!
//! [`Registry::metrics_json`] dumps every counter, gauge and histogram
//! (with quantiles) as a JSON document; [`Registry::chrome_trace_json`]
//! renders the recorded spans as a Chrome `trace_event` file loadable in
//! `chrome://tracing` / Perfetto. Both are built on the same hand-rolled
//! [`json`] helpers the benchmark harness uses (no serde in the offline
//! workspace).

pub mod env;
pub mod json;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use json::{json_array, json_row, JsonValue};

// ---------------------------------------------------------------------------
// Configuration: the process-global on/off switch.
// ---------------------------------------------------------------------------

/// Whether the registry records anything. Off by default; the disabled
/// path costs one relaxed atomic load per would-be recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// Record counters, gauges, histograms and spans when `true`.
    pub enabled: bool,
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub fn off() -> TraceConfig {
        TraceConfig { enabled: false }
    }

    /// Tracing enabled.
    pub fn on() -> TraceConfig {
        TraceConfig { enabled: true }
    }

    /// The deployment-side default: `RTM_TRACE` if set and parseable,
    /// otherwise off.
    pub fn from_env() -> TraceConfig {
        env::raw("RTM_TRACE")
            .as_deref()
            .and_then(parse_config)
            .unwrap_or_default()
    }
}

impl std::fmt::Display for TraceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", if self.enabled { "on" } else { "off" })
    }
}

/// Parses an `RTM_TRACE` value (or a `--trace`-style CLI knob). Recognized:
/// `on`/`1`/`true`, `off`/`0`/`false` (case-insensitive). Returns `None`
/// for anything else.
pub fn parse_config(s: &str) -> Option<TraceConfig> {
    match s.trim().to_ascii_lowercase().as_str() {
        "on" | "1" | "true" => Some(TraceConfig::on()),
        "off" | "0" | "false" | "" => Some(TraceConfig::off()),
        _ => None,
    }
}

const T_UNSET: u8 = 0;
const T_OFF: u8 = 1;
const T_ON: u8 = 2;

static ENABLED: AtomicU8 = AtomicU8::new(T_UNSET);

/// Overrides the process-global trace switch (wins over `RTM_TRACE`).
pub fn set_config(c: TraceConfig) {
    ENABLED.store(if c.enabled { T_ON } else { T_OFF }, Ordering::Relaxed);
}

/// The currently resolved configuration (see [`enabled`]).
pub fn config() -> TraceConfig {
    TraceConfig { enabled: enabled() }
}

/// Whether recording is on. On first use (before any [`set_config`]) the
/// `RTM_TRACE` environment variable is consulted once; unset or
/// unparseable values mean off. This is the hot-path gate: one relaxed
/// atomic load once the switch has settled.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        T_ON => true,
        T_OFF => false,
        _ => enabled_slow(),
    }
}

#[cold]
fn enabled_slow() -> bool {
    let c = TraceConfig::from_env();
    let encoded = if c.enabled { T_ON } else { T_OFF };
    let _ = ENABLED.compare_exchange(T_UNSET, encoded, Ordering::Relaxed, Ordering::Relaxed);
    ENABLED.load(Ordering::Relaxed) == T_ON
}

// ---------------------------------------------------------------------------
// Well-known metric names.
// ---------------------------------------------------------------------------

/// Names of the metrics the stack's instrumentation records, in one place
/// so exporters, tests and dashboards agree on spelling.
///
/// Kernel-dispatch counters (`kernel.*`) are exact: each counts one call of
/// the corresponding kernel entry point, whether it ran through a serial
/// matrix method or a parallel `rtm_exec::Executor` front-end (the two
/// never nest — the executor's serial fast path calls the chunk kernels
/// directly).
pub mod key {
    /// Dense GEMV calls (serial `gemv_into` + parallel `gemv_dense_into`).
    pub const GEMV_DENSE: &str = "kernel.gemv.dense";
    /// Dense batched GEMV/GEMM calls (`gemv_batch_into` at two or more
    /// lanes + `gemm_dense_into`).
    pub const GEMM_DENSE: &str = "kernel.gemm.dense";
    /// Output rows touched across all counted kernel calls.
    pub const KERNEL_ROWS: &str = "kernel.rows";
    /// Stored nonzeros (dense: elements) touched across all counted calls.
    pub const KERNEL_NNZ: &str = "kernel.nnz";
    /// Tasks executed by the execution engine's worker pool.
    pub const EXEC_TASKS: &str = "exec.pool.tasks";
    /// Task batches submitted to the worker pool.
    pub const EXEC_BATCHES: &str = "exec.pool.batches";
    /// Gauge: live per-worker busy-time imbalance (max/mean over cumulative
    /// busy nanoseconds) — the measured counterpart of
    /// `rtm_sim::measured_imbalance`'s cost-model prediction.
    pub const EXEC_IMBALANCE: &str = "exec.pool.imbalance";
    /// Gauge: the simulator's predicted thread imbalance for the workload
    /// it last priced (`rtm_sim::measured_imbalance`).
    pub const SIM_IMBALANCE: &str = "sim.measured_imbalance";
    /// Histogram: per-batched-frame forward latency in microseconds.
    pub const SERVE_FRAME_US: &str = "serve.frame_us";
    /// Gauge: parked streams awaiting a lane at the latest scheduling round.
    pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Streams admitted to a lane by the batched scheduler.
    pub const SERVE_ADMITTED: &str = "serve.admitted";
    /// Streams shed by admission control.
    pub const SERVE_SHED: &str = "serve.shed";
    /// Lanes retired by the health policy.
    pub const SERVE_QUARANTINED: &str = "serve.quarantined";
    /// Streams admitted after their deadline budget elapsed.
    pub const SERVE_DEADLINE_MISSED: &str = "serve.deadline_missed";
    /// Gauge: open TCP connections on the serve front end.
    pub const SERVE_CONNS: &str = "serve.conns";
    /// Bytes read from serve connections.
    pub const SERVE_BYTES_IN: &str = "serve.bytes_in";
    /// Bytes written to serve connections.
    pub const SERVE_BYTES_OUT: &str = "serve.bytes_out";
    /// Connections that vanished mid-stream (EOF/reset before `End`).
    pub const SERVE_DISCONNECTS: &str = "serve.disconnects";
    /// Connections dropped for a malformed or oversized wire message.
    pub const SERVE_PROTOCOL_ERRORS: &str = "serve.protocol_errors";
    /// Histogram: client-observed per-frame round-trip latency in
    /// microseconds (recorded by the loopback load generator).
    pub const SERVE_CLIENT_RTT_US: &str = "serve.client_rtt_us";
    /// Histogram: per-stream real-time factor in milli-RTF (RTF × 1000,
    /// so sub-real-time values survive the integer histogram): a stream's
    /// inference+decode wall time over its audio time, recorded when the
    /// stream completes.
    pub const RTF_STREAM: &str = "rtf.stream";
    /// Bundle-change detections that started a background reload.
    pub const SERVE_RELOAD_ATTEMPT: &str = "serve.reload.attempt";
    /// Hot swaps promoted to serving.
    pub const SERVE_RELOAD_SUCCESS: &str = "serve.reload.success";
    /// Candidate bundles refused before promotion (checksum, decode,
    /// dimension or canary failure).
    pub const SERVE_RELOAD_REFUSED: &str = "serve.reload.refused";
    /// Post-swap reversions to the previous generation.
    pub const SERVE_RELOAD_ROLLBACK: &str = "serve.reload.rollback";
    /// Gauge: generation of the bundle admitting new streams.
    pub const SERVE_GENERATION: &str = "serve.generation";
    /// Precision candidates timed by the tuner's per-layer precision hook.
    pub const TUNER_PRECISION_MEASUREMENTS: &str = "tuner.precision_measurements";
    /// (format × precision) candidates timed by the tuner's per-layer
    /// format hook.
    pub const TUNER_FORMAT_MEASUREMENTS: &str = "tuner.format_measurements";

    /// The registered `kernel.*` counter keys of one sparse storage format.
    /// Each row is `[kernel.<op>.<format>, .f32, .f16, .int8]`: the base key
    /// counts every call of the op on a matrix of this format, serial and
    /// pooled alike, and the precision companions split that count by the
    /// value precision that ran. A format hands its table to the kernel
    /// driver (`SparseKernel::trace_keys`), so a counted call is two array
    /// indexes and no metric name is ever built at run time.
    #[derive(Debug)]
    pub struct KernelKeys {
        /// Short lowercase format label (`"bspc"` / `"csr"` / …).
        pub format: &'static str,
        /// Keys of the single-vector product.
        pub spmv: [&'static str; 4],
        /// Keys of the lane-major multi-vector product.
        pub spmm: [&'static str; 4],
    }

    macro_rules! kernel_keys {
        ($format:literal) => {
            KernelKeys {
                format: $format,
                spmv: [
                    concat!("kernel.spmv.", $format),
                    concat!("kernel.spmv.", $format, ".f32"),
                    concat!("kernel.spmv.", $format, ".f16"),
                    concat!("kernel.spmv.", $format, ".int8"),
                ],
                spmm: [
                    concat!("kernel.spmm.", $format),
                    concat!("kernel.spmm.", $format, ".f32"),
                    concat!("kernel.spmm.", $format, ".f16"),
                    concat!("kernel.spmm.", $format, ".int8"),
                ],
            }
        };
    }

    /// BSPC kernel keys.
    pub static KERNEL_BSPC: KernelKeys = kernel_keys!("bspc");
    /// CSR kernel keys.
    pub static KERNEL_CSR: KernelKeys = kernel_keys!("csr");
}

// ---------------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------------

/// Log₂ buckets: bucket `i` holds values `v ≤ 2^(i-10)` (so the range runs
/// from ~1 ms-precision-of-a-nanosecond to ~2⁵³ for microsecond inputs);
/// the last bucket holds everything larger.
const BUCKETS: usize = 64;

fn bucket_upper(i: usize) -> f64 {
    2f64.powi(i as i32 - 10)
}

fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    let i = v.log2().ceil() + 10.0;
    if i <= 0.0 {
        0
    } else {
        (i as usize).min(BUCKETS - 1)
    }
}

#[derive(Debug, Clone)]
struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; BUCKETS],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKETS],
        }
    }

    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// The value at quantile `q` (0..=1): the upper bound of the bucket
    /// containing the rank-`⌈q·count⌉` sample, clamped to the observed
    /// `[min, max]`. Deterministic for a given multiset of recorded values
    /// — quantiles of a fixed-seed run never wobble.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: if self.count == 0 { 0.0 } else { self.sum },
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// A point-in-time view of one histogram, quantiles included.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Median (bucket upper bound, clamped to `[min, max]`).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// One closed span: a named interval on the registry's monotonic clock,
/// with its parent (the span open on the same thread when it started).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Unique id (process-wide, monotonically assigned).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Static name (e.g. `"pipeline.compile"`).
    pub name: &'static str,
    /// Start, microseconds since the registry's epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Small per-thread id (0 for the first thread that recorded a span).
    pub tid: u64,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: std::cell::OnceCell<u64> = const { std::cell::OnceCell::new() };
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

fn thread_id() -> u64 {
    THREAD_ID.with(|c| *c.get_or_init(|| NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed)))
}

/// RAII guard returned by [`span`]: the interval closes (and is appended to
/// the registry) when the guard drops. Inert — no clock read, no
/// allocation — when tracing is disabled at open time.
#[derive(Debug)]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_us: f64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let reg = global();
        let end_us = reg.now_us();
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == open.id) {
                s.remove(pos);
            }
        });
        reg.push_span(SpanEvent {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_us: open.start_us,
            dur_us: end_us - open.start_us,
            tid: thread_id(),
        });
    }
}

/// Opens a span named `name`, parented to the span currently open on this
/// thread. Returns an inert guard (and records nothing) when tracing is
/// disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let reg = global();
    let id = reg.next_span_id.fetch_add(1, Ordering::Relaxed) + 1;
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    SpanGuard {
        open: Some(OpenSpan {
            id,
            parent,
            name,
            start_us: reg.now_us(),
        }),
    }
}

// ---------------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------------

/// The process-global metric store: counters, gauges, histograms and closed
/// spans, plus the monotonic epoch all span timestamps are relative to.
///
/// Recording methods are unconditional — the cheap [`enabled`] gate lives
/// in the free-function wrappers ([`count`], [`gauge`], [`record`],
/// [`span`]) that the instrumentation calls on hot paths.
#[derive(Debug)]
pub struct Registry {
    epoch: Instant,
    next_span_id: AtomicU64,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    hists: Mutex<BTreeMap<&'static str, Histogram>>,
    spans: Mutex<Vec<SpanEvent>>,
}

/// The process-global [`Registry`] (created on first use).
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        epoch: Instant::now(),
        next_span_id: AtomicU64::new(0),
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        hists: Mutex::new(BTreeMap::new()),
        spans: Mutex::new(Vec::new()),
    })
}

/// Locks a registry mutex, shrugging off poison: a panic elsewhere (the
/// exec pool deliberately catches task panics) must not take the metrics
/// down with it — plain numeric state cannot be left inconsistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// Microseconds since the registry's monotonic epoch.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Adds `delta` to counter `name` (created at 0 on first touch).
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        *lock(&self.counters).entry(name).or_insert(0) += delta;
    }

    /// Adds several counter deltas under one lock (the hot kernel entry
    /// points record call/rows/nnz together).
    pub fn counter_add_many(&self, deltas: &[(&'static str, u64)]) {
        let mut c = lock(&self.counters);
        for &(name, delta) in deltas {
            *c.entry(name).or_insert(0) += delta;
        }
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        lock(&self.counters).get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        lock(&self.counters)
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect()
    }

    /// Sets gauge `name` to `v` (last write wins).
    pub fn gauge_set(&self, name: &str, v: f64) {
        let mut g = lock(&self.gauges);
        match g.get_mut(name) {
            Some(slot) => *slot = v,
            None => {
                g.insert(name.to_string(), v);
            }
        }
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        lock(&self.gauges).get(name).copied()
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        lock(&self.gauges)
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    /// Records sample `v` into histogram `name`.
    pub fn hist_record(&self, name: &'static str, v: f64) {
        lock(&self.hists)
            .entry(name)
            .or_insert_with(Histogram::new)
            .record(v);
    }

    /// Snapshot of histogram `name`, if it has ever been recorded into.
    pub fn hist(&self, name: &str) -> Option<HistogramSnapshot> {
        lock(&self.hists).get(name).map(Histogram::snapshot)
    }

    /// Appends a closed span (normally via [`SpanGuard`]'s drop).
    pub fn push_span(&self, ev: SpanEvent) {
        lock(&self.spans).push(ev);
    }

    /// All closed spans, in completion order.
    pub fn spans(&self) -> Vec<SpanEvent> {
        lock(&self.spans).clone()
    }

    /// Clears every counter, gauge, histogram and span (the epoch and the
    /// on/off switch are untouched). Tests and per-run exports use this to
    /// start from a clean slate.
    pub fn reset(&self) {
        lock(&self.counters).clear();
        lock(&self.gauges).clear();
        lock(&self.hists).clear();
        lock(&self.spans).clear();
    }

    /// Renders every counter, gauge and histogram (count/sum/min/max and
    /// p50/p95/p99) plus the closed-span count as one JSON document — the
    /// metrics half of `rtm pipeline --trace`.
    pub fn metrics_json(&self) -> String {
        let counter_rows: Vec<String> = self
            .counters()
            .iter()
            .map(|(k, v)| {
                json_row(&[
                    ("name", JsonValue::Str(k.clone())),
                    ("value", JsonValue::Int(*v as i64)),
                ])
            })
            .collect();
        let gauge_rows: Vec<String> = self
            .gauges()
            .iter()
            .map(|(k, v)| {
                json_row(&[
                    ("name", JsonValue::Str(k.clone())),
                    ("value", JsonValue::F64(*v, 6)),
                ])
            })
            .collect();
        let hist_rows: Vec<String> = {
            let hists = lock(&self.hists);
            hists
                .iter()
                .map(|(&k, h)| {
                    let s = h.snapshot();
                    json_row(&[
                        ("name", JsonValue::Str(k.to_string())),
                        ("count", JsonValue::Int(s.count as i64)),
                        ("sum", JsonValue::F64(s.sum, 3)),
                        ("min", JsonValue::F64(s.min, 3)),
                        ("max", JsonValue::F64(s.max, 3)),
                        ("p50", JsonValue::F64(s.p50, 3)),
                        ("p95", JsonValue::F64(s.p95, 3)),
                        ("p99", JsonValue::F64(s.p99, 3)),
                    ])
                })
                .collect()
        };
        let span_count = lock(&self.spans).len();
        format!(
            "{{\n  \"schema\": \"rtm-metrics-v1\",\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {},\n  \"spans\": {}\n}}\n",
            json_array("    ", &counter_rows),
            json_array("    ", &gauge_rows),
            json_array("    ", &hist_rows),
            span_count
        )
    }

    /// Renders the closed spans as a Chrome `trace_event` JSON file
    /// (complete `"X"` events; open it in `chrome://tracing` or Perfetto).
    pub fn chrome_trace_json(&self) -> String {
        let rows: Vec<String> = self
            .spans()
            .iter()
            .map(|ev| {
                json_row(&[
                    ("name", JsonValue::Str(ev.name.to_string())),
                    ("cat", JsonValue::Str("rtm".to_string())),
                    ("ph", JsonValue::Str("X".to_string())),
                    ("ts", JsonValue::F64(ev.start_us, 3)),
                    ("dur", JsonValue::F64(ev.dur_us, 3)),
                    ("pid", JsonValue::Int(1)),
                    ("tid", JsonValue::Int(ev.tid as i64)),
                    (
                        "args",
                        JsonValue::Raw(json_row(&[
                            ("id", JsonValue::Int(ev.id as i64)),
                            ("parent", JsonValue::Int(ev.parent.map_or(0, |p| p as i64))),
                        ])),
                    ),
                ])
            })
            .collect();
        format!("{{\"traceEvents\": {}}}\n", json_array("  ", &rows))
    }
}

// ---------------------------------------------------------------------------
// Gated hot-path wrappers.
// ---------------------------------------------------------------------------

/// Adds `delta` to counter `name` when tracing is enabled; a relaxed load
/// and a branch otherwise.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if enabled() {
        global().counter_add(name, delta);
    }
}

/// Adds several counter deltas under one lock when tracing is enabled.
#[inline]
pub fn count_many(deltas: &[(&'static str, u64)]) {
    if enabled() {
        global().counter_add_many(deltas);
    }
}

/// Sets gauge `name` when tracing is enabled.
#[inline]
pub fn gauge(name: &str, v: f64) {
    if enabled() {
        global().gauge_set(name, v);
    }
}

/// Records a histogram sample when tracing is enabled.
#[inline]
pub fn record(name: &'static str, v: f64) {
    if enabled() {
        global().hist_record(name, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry and the on/off switch are process-global; the unit tests
    // in this crate serialize on one lock so cargo's parallel test runner
    // cannot interleave their mutations.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn guarded() -> MutexGuard<'static, ()> {
        let g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_config(TraceConfig::on());
        global().reset();
        g
    }

    #[test]
    fn parse_config_recognizes_known_values() {
        assert_eq!(parse_config("on"), Some(TraceConfig::on()));
        assert_eq!(parse_config("1"), Some(TraceConfig::on()));
        assert_eq!(parse_config("TRUE"), Some(TraceConfig::on()));
        assert_eq!(parse_config("off"), Some(TraceConfig::off()));
        assert_eq!(parse_config("0"), Some(TraceConfig::off()));
        assert_eq!(parse_config("nope"), None);
        assert_eq!(TraceConfig::on().to_string(), "on");
        assert_eq!(TraceConfig::off().to_string(), "off");
        assert_eq!(TraceConfig::default(), TraceConfig::off());
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = guarded();
        count("test.counter", 2);
        count("test.counter", 3);
        count_many(&[("test.counter", 1), ("test.other", 7)]);
        assert_eq!(global().counter("test.counter"), 6);
        assert_eq!(global().counter("test.other"), 7);
        assert_eq!(global().counter("test.never"), 0);
        global().reset();
        assert_eq!(global().counter("test.counter"), 0);
    }

    #[test]
    fn disabled_recording_is_dropped() {
        let _g = guarded();
        set_config(TraceConfig::off());
        count("test.off", 5);
        gauge("test.off.gauge", 1.0);
        record("test.off.hist", 1.0);
        let s = span("test.off.span");
        drop(s);
        set_config(TraceConfig::on());
        assert_eq!(global().counter("test.off"), 0);
        assert_eq!(global().gauge("test.off.gauge"), None);
        assert_eq!(global().hist("test.off.hist"), None);
        assert!(global().spans().is_empty());
    }

    #[test]
    fn gauges_keep_last_write() {
        let _g = guarded();
        gauge("test.gauge", 1.5);
        gauge("test.gauge", 2.5);
        assert_eq!(global().gauge("test.gauge"), Some(2.5));
    }

    #[test]
    fn histogram_quantiles_are_deterministic_and_ordered() {
        let _g = guarded();
        for i in 1..=1000u64 {
            record("test.hist", i as f64);
        }
        let s1 = global().hist("test.hist").unwrap();
        assert_eq!(s1.count, 1000);
        assert_eq!(s1.min, 1.0);
        assert_eq!(s1.max, 1000.0);
        assert!(s1.p50 <= s1.p95 && s1.p95 <= s1.p99, "{s1:?}");
        assert!(s1.p99 <= s1.max);
        // Same multiset again → identical snapshot, including quantiles.
        global().reset();
        for i in (1..=1000u64).rev() {
            record("test.hist", i as f64);
        }
        let s2 = global().hist("test.hist").unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!((s.sum, s.min, s.max, s.p50), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn bucket_index_is_monotonic() {
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(0.0), 0);
        let mut last = 0;
        for e in -12..40 {
            let i = bucket_index(2f64.powi(e) * 1.001);
            assert!(i >= last, "index regressed at 2^{e}");
            last = i;
        }
        assert_eq!(bucket_index(f64::MAX), BUCKETS - 1);
    }

    #[test]
    fn spans_nest_by_thread_stack() {
        let _g = guarded();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            let _sibling = span("sibling");
        }
        let spans = global().spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let sibling = spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(sibling.parent, Some(outer.id));
        assert!(inner.start_us >= outer.start_us);
        assert!(outer.dur_us >= inner.dur_us);
    }

    #[test]
    fn exports_render_parseable_shapes() {
        let _g = guarded();
        count(key::KERNEL_BSPC.spmv[0], 3);
        gauge(key::EXEC_IMBALANCE, 1.25);
        record(key::SERVE_FRAME_US, 42.0);
        {
            let _s = span("export.test");
        }
        let metrics = global().metrics_json();
        assert!(metrics.contains("\"rtm-metrics-v1\""));
        assert!(metrics.contains("kernel.spmv.bspc"));
        assert!(metrics.contains("exec.pool.imbalance"));
        assert!(metrics.contains("\"p99\""));
        let trace = global().chrome_trace_json();
        assert!(trace.starts_with("{\"traceEvents\": ["));
        assert!(trace.contains("\"ph\": \"X\""));
        assert!(trace.contains("export.test"));
        assert!(trace.trim_end().ends_with("]}"));
    }

    #[test]
    fn kernel_keys_spell_the_registered_names() {
        for keys in [&key::KERNEL_BSPC, &key::KERNEL_CSR] {
            for (op, row) in [("spmv", &keys.spmv), ("spmm", &keys.spmm)] {
                let base = format!("kernel.{op}.{}", keys.format);
                assert_eq!(row[0], base);
                for (p, prec) in ["f32", "f16", "int8"].iter().enumerate() {
                    assert_eq!(row[1 + p], format!("{base}.{prec}"));
                }
            }
        }
    }
}
