//! The single parse point for `RTM_*` environment variables.
//!
//! Before this module, each variable was read wherever it happened to be
//! consumed — `RTM_SIMD` in the tensor crate, `RTM_HEALTH` in
//! [`crate::health`], `RTM_FUZZ_ITERS` in the fault-injection harness —
//! each with its own ad-hoc "unparseable means default" behaviour. The
//! accessors here parse each variable exactly once per call with a shared
//! convention: unset is `Ok(None)`, a parseable value is `Ok(Some(v))`,
//! and a set-but-invalid value is a typed [`EnvError`] naming the variable,
//! the offending value and the accepted grammar. Callers that want the old
//! lenient behaviour (a deployment default that shrugs off typos) spell it
//! explicitly as `.ok().flatten()`.
//!
//! [`crate::RuntimeConfig::from_env`] pulls all the runtime knobs through
//! these accessors in one shot.

pub use rtm_trace::env::EnvError;

use crate::health::HealthPolicy;
use rtm_tensor::simd::SimdPolicy;
use rtm_trace::TraceConfig;

/// Accepted values of `RTM_SIMD` / `--simd`; the environment error and
/// the CLI flag error both quote this grammar (likewise the three below).
pub const SIMD_VALUES: &str = "auto, off, scalar, u1 or vector";
/// Accepted values of `RTM_HEALTH` / `--health`.
pub const HEALTH_VALUES: &str = "off, check or quarantine";
/// Accepted values of `RTM_PRECISION` / `--precision`.
pub const PRECISION_VALUES: &str = "f32, f16, int8 or auto (= f16)";
/// Accepted values of `RTM_DECODER` / `--decoder`.
pub const DECODER_VALUES: &str = "argmax, viterbi, ctc-greedy or ctc-beam:N";

/// `RTM_SIMD`: the kernel dispatch policy.
///
/// # Errors
///
/// [`EnvError`] if the variable is set to something
/// [`rtm_tensor::simd::parse_policy`] rejects.
pub fn simd_policy() -> Result<Option<SimdPolicy>, EnvError> {
    rtm_trace::env::parsed("RTM_SIMD", SIMD_VALUES, rtm_tensor::simd::parse_policy)
}

/// `RTM_HEALTH`: the numerical-health policy.
///
/// # Errors
///
/// [`EnvError`] if the variable is set to something
/// [`crate::health::parse_policy`] rejects.
pub fn health_policy() -> Result<Option<HealthPolicy>, EnvError> {
    rtm_trace::env::parsed("RTM_HEALTH", HEALTH_VALUES, crate::health::parse_policy)
}

/// `RTM_TRACE`: the observability switch.
///
/// # Errors
///
/// [`EnvError`] if the variable is set to something
/// [`rtm_trace::parse_config`] rejects.
pub fn trace_config() -> Result<Option<TraceConfig>, EnvError> {
    rtm_trace::env::parsed(
        "RTM_TRACE",
        "on, 1, true, off, 0 or false",
        rtm_trace::parse_config,
    )
}

/// `RTM_PRECISION`: the weight storage precision of the compiled pipeline.
///
/// # Errors
///
/// [`EnvError`] if the variable is set to something
/// [`crate::config::PrecisionChoice::parse`] rejects.
pub fn precision_choice() -> Result<Option<crate::config::PrecisionChoice>, EnvError> {
    rtm_trace::env::parsed(
        "RTM_PRECISION",
        PRECISION_VALUES,
        crate::config::PrecisionChoice::parse,
    )
}

/// `RTM_DECODER`: the utterance decoder applied to the classifier's frame
/// logits.
///
/// # Errors
///
/// [`EnvError`] if the variable is set to something
/// [`crate::config::DecoderChoice::parse`] rejects (including
/// `ctc-beam:0` and malformed beam widths).
pub fn decoder_choice() -> Result<Option<crate::config::DecoderChoice>, EnvError> {
    rtm_trace::env::parsed(
        "RTM_DECODER",
        DECODER_VALUES,
        crate::config::DecoderChoice::parse,
    )
}

/// `RTM_RELOAD`: hot-reload switch of `rtm serve`. `off`/`false` disables
/// watching (the outer `Ok(Some(None))`), `on`/`true` enables it at the
/// default poll interval, and a bare integer enables it with that poll
/// interval in milliseconds.
///
/// # Errors
///
/// [`EnvError`] if the variable is set to anything else.
pub fn reload_poll_ms() -> Result<Option<Option<u64>>, EnvError> {
    rtm_trace::env::parsed(
        "RTM_RELOAD",
        "on, off or a poll interval in milliseconds",
        |s| match s {
            "off" | "false" => Some(None),
            "on" | "true" => Some(Some(crate::serve::ReloadConfig::default().poll_ms)),
            other => other.parse::<u64>().ok().map(Some),
        },
    )
}

/// `RTM_FUZZ_ITERS`: iteration budget of the fault-injection harness.
///
/// # Errors
///
/// [`EnvError`] if the variable is set to something that is not a
/// non-negative integer.
pub fn fuzz_iters() -> Result<Option<usize>, EnvError> {
    rtm_trace::env::parsed("RTM_FUZZ_ITERS", "a non-negative integer", |s| {
        s.parse::<usize>().ok()
    })
}

#[cfg(test)]
mod tests {
    // The accessors are thin compositions over `rtm_trace::env::parsed`
    // (tested in rtm-trace) and each parser's own unit tests; exercising
    // them against real process environment variables from the default
    // multi-threaded test harness would race with the suites that set
    // RTM_SIMD / RTM_HEALTH. The env-sensitive behaviour is covered by the
    // dedicated single-binary integration tests (simd_policy,
    // trace_contract).

    #[test]
    fn env_error_reexport_is_the_trace_type() {
        let err: super::EnvError = rtm_trace::env::EnvError {
            var: "RTM_SIMD".to_string(),
            value: "warp".to_string(),
            expected: super::SIMD_VALUES,
        };
        let msg = err.to_string();
        assert!(msg.contains("RTM_SIMD"), "{msg}");
        assert!(msg.contains("warp"), "{msg}");
    }
}
