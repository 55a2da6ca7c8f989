//! The unified runtime configuration.
//!
//! The serving stack grew one knob at a time — threads, batch, SIMD
//! dispatch, health policy, admission control, tracing — each with its own
//! builder method, environment variable or CLI flag. [`RuntimeConfig`]
//! consolidates them into one serde-free struct that the
//! [`RtMobile`](crate::RtMobile) builder, the `rtm` CLI and the
//! environment ([`RuntimeConfig::from_env`], via [`crate::env`]) all flow
//! through, so "how is this process configured?" has a single answer.
//!
//! The `Option` knobs (`simd`, `health`, `trace`, `precision`, `decoder`)
//! distinguish "explicitly chosen" from "let the environment variable
//! decide": a `None` leaves the corresponding variable (`RTM_SIMD`,
//! `RTM_HEALTH`, `RTM_TRACE`, `RTM_PRECISION`, `RTM_DECODER`) in charge, exactly as the pre-consolidation builder
//! methods did.

use crate::deploy::RuntimePrecision;
use crate::health::HealthPolicy;
use crate::serve::{AdmissionConfig, ServeOptions};
use rtm_tensor::simd::SimdPolicy;
use rtm_trace::TraceConfig;

/// How the pipeline picks the storage precision of the compiled weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrecisionChoice {
    /// Compile every layer at this precision.
    Fixed(RuntimePrecision),
    /// The f16 default (the paper's mobile-GPU datapath), still accepted as
    /// `"auto"`: [`RuntimeConfig::resolved_precision`] maps it to
    /// `Fixed(RuntimePrecision::F16)`, so nothing is chosen by timing
    /// kernels and a compile's bytes depend only on its flags and seed.
    Auto,
}

impl PrecisionChoice {
    /// Parses `"f32"`, `"f16"`, `"int8"` or `"auto"` (the `RTM_PRECISION`
    /// / `--precision` grammar).
    pub fn parse(s: &str) -> Option<PrecisionChoice> {
        if s == "auto" {
            Some(PrecisionChoice::Auto)
        } else {
            RuntimePrecision::parse(s).map(PrecisionChoice::Fixed)
        }
    }

    /// The label [`PrecisionChoice::parse`] accepts for this value.
    pub fn tag(self) -> &'static str {
        match self {
            PrecisionChoice::Fixed(p) => p.tag(),
            PrecisionChoice::Auto => "auto",
        }
    }
}

/// How decoded symbol sequences are produced from the classifier's
/// per-frame logits (the `RTM_DECODER` / `--decoder` grammar).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecoderChoice {
    /// Collapse consecutive argmax frames — the legacy PER path, now
    /// behind [`rtm_speech::ArgmaxDecoder`].
    Argmax,
    /// First-order Viterbi smoothing ([`rtm_speech::ViterbiDecoder`]) with
    /// the pipeline's default switch penalty. Offline: partial hypotheses
    /// are only available at `finish`.
    Viterbi,
    /// CTC best-path decoding ([`rtm_speech::CtcGreedyDecoder`]; the blank
    /// is the silence phone for 39-class heads).
    CtcGreedy,
    /// CTC prefix beam search ([`rtm_speech::CtcBeamDecoder`]) with this
    /// beam width (≥ 1).
    CtcBeam(usize),
}

impl DecoderChoice {
    /// The Viterbi switch penalty the pipeline uses (the value the
    /// examples and speech benches settled on).
    pub const VITERBI_PENALTY: f32 = 2.5;

    /// Parses `"argmax"`, `"viterbi"`, `"ctc-greedy"` or `"ctc-beam:N"`
    /// (N ≥ 1) — the `RTM_DECODER` / `--decoder` grammar.
    pub fn parse(s: &str) -> Option<DecoderChoice> {
        match s {
            "argmax" => Some(DecoderChoice::Argmax),
            "viterbi" => Some(DecoderChoice::Viterbi),
            "ctc-greedy" => Some(DecoderChoice::CtcGreedy),
            _ => s
                .strip_prefix("ctc-beam:")
                .and_then(|w| w.parse::<usize>().ok())
                .filter(|&w| w >= 1)
                .map(DecoderChoice::CtcBeam),
        }
    }

    /// The decoder family name (beam width elided — see
    /// [`DecoderChoice::label`] for the round-trippable form).
    pub fn tag(self) -> &'static str {
        match self {
            DecoderChoice::Argmax => "argmax",
            DecoderChoice::Viterbi => "viterbi",
            DecoderChoice::CtcGreedy => "ctc-greedy",
            DecoderChoice::CtcBeam(_) => "ctc-beam",
        }
    }

    /// The beam width (0 for the non-beam decoders).
    pub fn beam_width(self) -> usize {
        match self {
            DecoderChoice::CtcBeam(w) => w,
            _ => 0,
        }
    }

    /// The full label [`DecoderChoice::parse`] accepts for this value
    /// (e.g. `"ctc-beam:4"`).
    pub fn label(self) -> String {
        match self {
            DecoderChoice::CtcBeam(w) => format!("ctc-beam:{w}"),
            other => other.tag().to_string(),
        }
    }

    /// Builds the decoder for a `classes`-way classifier head. CTC
    /// decoders map the blank onto [`rtm_speech::blank_for`]`(classes)`.
    pub fn build(self, classes: usize) -> Box<dyn rtm_speech::Decoder + Send> {
        let blank = rtm_speech::blank_for(classes);
        match self {
            DecoderChoice::Argmax => Box::new(
                rtm_speech::ArgmaxDecoder::new()
                    .with_endpointing(blank, rtm_speech::ctc::DEFAULT_TRAILING_BLANKS),
            ),
            DecoderChoice::Viterbi => {
                Box::new(rtm_speech::ViterbiDecoder::new(Self::VITERBI_PENALTY))
            }
            DecoderChoice::CtcGreedy => Box::new(rtm_speech::CtcGreedyDecoder::new(blank)),
            DecoderChoice::CtcBeam(w) => Box::new(rtm_speech::CtcBeamDecoder::new(blank, w)),
        }
    }
}

/// Every runtime knob of the serving stack in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Worker threads for the compiled runtime's inference pass (≥ 1;
    /// parallel execution is bit-identical to serial).
    pub threads: usize,
    /// Concurrent inference lanes of the batched scoring pass (≥ 1; the
    /// batched path is bit-identical to the serial per-utterance loop).
    pub batch: usize,
    /// Kernel dispatch policy; `None` defers to `RTM_SIMD`.
    pub simd: Option<SimdPolicy>,
    /// Numerical-health policy; `None` defers to `RTM_HEALTH`.
    pub health: Option<HealthPolicy>,
    /// Observability switch; `None` defers to `RTM_TRACE`.
    pub trace: Option<TraceConfig>,
    /// Weight storage precision; `None` defers to `RTM_PRECISION` (and the
    /// pipeline's f16 default when that is unset too).
    pub precision: Option<PrecisionChoice>,
    /// Utterance decoder; `None` defers to `RTM_DECODER` (and the legacy
    /// argmax-collapse default when that is unset too).
    pub decoder: Option<DecoderChoice>,
    /// Admission control of the batched scheduler (unbounded by default).
    pub admission: AdmissionConfig,
    /// Socket-layer bounds of the `rtm serve` front end (ephemeral port,
    /// 64 connections, no tenant quota by default).
    pub serve: ServeOptions,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            threads: 1,
            batch: 1,
            simd: None,
            health: None,
            trace: None,
            precision: None,
            decoder: None,
            admission: AdmissionConfig::unbounded(),
            serve: ServeOptions::default(),
        }
    }
}

impl RuntimeConfig {
    /// The default configuration with every environment-settable knob
    /// resolved from its variable (`RTM_SIMD`, `RTM_HEALTH`, `RTM_TRACE`,
    /// `RTM_PRECISION`, `RTM_DECODER`).
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::env::EnvError`] for a variable that is
    /// set but unparseable — a deployment typo surfaces as a typed error
    /// instead of a silently ignored setting.
    pub fn from_env() -> Result<RuntimeConfig, crate::env::EnvError> {
        Ok(RuntimeConfig {
            simd: crate::env::simd_policy()?,
            health: crate::env::health_policy()?,
            trace: crate::env::trace_config()?,
            precision: crate::env::precision_choice()?,
            decoder: crate::env::decoder_choice()?,
            ..RuntimeConfig::default()
        })
    }

    /// Sets the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> RuntimeConfig {
        assert!(threads > 0, "thread count must be positive");
        self.threads = threads;
        self
    }

    /// Sets the batched-lane capacity.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn with_batch(mut self, batch: usize) -> RuntimeConfig {
        assert!(batch > 0, "batch capacity must be at least 1");
        self.batch = batch;
        self
    }

    /// Pins the kernel dispatch policy (overrides `RTM_SIMD`).
    pub fn with_simd(mut self, policy: SimdPolicy) -> RuntimeConfig {
        self.simd = Some(policy);
        self
    }

    /// Pins the numerical-health policy (overrides `RTM_HEALTH`).
    pub fn with_health(mut self, policy: HealthPolicy) -> RuntimeConfig {
        self.health = Some(policy);
        self
    }

    /// Pins the observability switch (overrides `RTM_TRACE`).
    pub fn with_trace(mut self, trace: TraceConfig) -> RuntimeConfig {
        self.trace = Some(trace);
        self
    }

    /// Pins the weight storage precision (overrides `RTM_PRECISION`).
    pub fn with_precision(mut self, precision: PrecisionChoice) -> RuntimeConfig {
        self.precision = Some(precision);
        self
    }

    /// Pins the utterance decoder (overrides `RTM_DECODER`).
    pub fn with_decoder(mut self, decoder: DecoderChoice) -> RuntimeConfig {
        self.decoder = Some(decoder);
        self
    }

    /// Sets the batched scheduler's admission control.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> RuntimeConfig {
        self.admission = admission;
        self
    }

    /// Sets the `rtm serve` socket-layer bounds.
    pub fn with_serve(mut self, serve: ServeOptions) -> RuntimeConfig {
        self.serve = serve;
        self
    }

    /// The precision choice a run resolves to: the pinned one, otherwise
    /// the `RTM_PRECISION` deployment default, otherwise the pipeline's
    /// f16 default (the paper's mobile-GPU datapath). Always `Fixed`:
    /// [`PrecisionChoice::Auto`] resolves to that f16 default.
    pub fn resolved_precision(&self) -> PrecisionChoice {
        PrecisionChoice::Fixed(self.compile_precision())
    }

    /// The one precision a compile gives every layer
    /// ([`RuntimeConfig::resolved_precision`]'s).
    pub(crate) fn compile_precision(&self) -> RuntimePrecision {
        match self
            .precision
            .or_else(|| crate::env::precision_choice().ok().flatten())
        {
            Some(PrecisionChoice::Fixed(p)) => p,
            Some(PrecisionChoice::Auto) | None => RuntimePrecision::F16,
        }
    }

    /// The decoder a run resolves to: the pinned one, otherwise the
    /// `RTM_DECODER` deployment default, otherwise the legacy
    /// argmax-collapse path (bit-compatible with the pre-decoder PER
    /// scoring).
    pub fn resolved_decoder(&self) -> DecoderChoice {
        self.decoder
            .or_else(|| crate::env::decoder_choice().ok().flatten())
            .unwrap_or(DecoderChoice::Argmax)
    }

    /// The health policy a run resolves to: the pinned one, otherwise the
    /// `RTM_HEALTH` deployment default.
    pub fn resolved_health(&self) -> HealthPolicy {
        self.health.unwrap_or_else(crate::health::policy_from_env)
    }

    /// Installs the process-global knobs this config pins: the SIMD
    /// dispatch policy ([`rtm_tensor::simd::set_policy`]) and the trace
    /// switch ([`rtm_trace::set_config`]). `None` knobs leave the ambient
    /// (environment-derived) globals untouched.
    pub fn apply_globals(&self) {
        if let Some(policy) = self.simd {
            rtm_tensor::simd::set_policy(policy);
        }
        if let Some(trace) = self.trace {
            rtm_trace::set_config(trace);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ShedPolicy;
    use rtm_tensor::simd::Variant;

    #[test]
    fn default_matches_legacy_builder_defaults() {
        let c = RuntimeConfig::default();
        assert_eq!(c.threads, 1);
        assert_eq!(c.batch, 1);
        assert_eq!(c.simd, None);
        assert_eq!(c.health, None);
        assert_eq!(c.trace, None);
        assert_eq!(c.precision, None);
        assert_eq!(c.decoder, None);
        assert_eq!(c.admission, AdmissionConfig::unbounded());
        assert_eq!(c.serve, ServeOptions::default());
        assert_eq!(c.serve.port, 0, "default serve port is ephemeral");
        assert_eq!(c.serve.max_conns, 64);
    }

    #[test]
    fn precision_choice_parses_and_roundtrips() {
        use crate::deploy::RuntimePrecision;
        for choice in [
            PrecisionChoice::Fixed(RuntimePrecision::F32),
            PrecisionChoice::Fixed(RuntimePrecision::F16),
            PrecisionChoice::Fixed(RuntimePrecision::Int8),
            PrecisionChoice::Auto,
        ] {
            assert_eq!(PrecisionChoice::parse(choice.tag()), Some(choice));
        }
        assert_eq!(PrecisionChoice::parse("fp64"), None);
        let c = RuntimeConfig::default().with_precision(PrecisionChoice::Auto);
        assert_eq!(c.precision, Some(PrecisionChoice::Auto));
        assert_eq!(
            c.resolved_precision(),
            PrecisionChoice::Fixed(RuntimePrecision::F16),
            "auto is the f16 default"
        );
    }

    #[test]
    fn decoder_choice_parses_and_roundtrips() {
        for choice in [
            DecoderChoice::Argmax,
            DecoderChoice::Viterbi,
            DecoderChoice::CtcGreedy,
            DecoderChoice::CtcBeam(1),
            DecoderChoice::CtcBeam(4),
            DecoderChoice::CtcBeam(16),
        ] {
            assert_eq!(DecoderChoice::parse(&choice.label()), Some(choice));
        }
        assert_eq!(DecoderChoice::parse("ctc"), None);
        assert_eq!(DecoderChoice::parse("ctc-beam"), None);
        assert_eq!(DecoderChoice::parse("ctc-beam:"), None);
        assert_eq!(DecoderChoice::parse("ctc-beam:0"), None, "zero width");
        assert_eq!(DecoderChoice::parse("ctc-beam:-1"), None);
        assert_eq!(DecoderChoice::parse("ctc-beam:wide"), None);
        assert_eq!(DecoderChoice::parse("beam"), None);
        assert_eq!(DecoderChoice::CtcBeam(4).tag(), "ctc-beam");
        assert_eq!(DecoderChoice::CtcBeam(4).beam_width(), 4);
        assert_eq!(DecoderChoice::Argmax.beam_width(), 0);
        let c = RuntimeConfig::default().with_decoder(DecoderChoice::CtcBeam(4));
        assert_eq!(c.decoder, Some(DecoderChoice::CtcBeam(4)));
        assert_eq!(c.resolved_decoder(), DecoderChoice::CtcBeam(4));
        assert_eq!(
            RuntimeConfig::default().decoder,
            None,
            "default defers to RTM_DECODER"
        );
    }

    #[test]
    fn decoder_choice_builds_working_decoders() {
        // Peaked logits over 4 classes (blank = 0 below the phone
        // inventory): B 1 1 B 2 → CTC decodes [1, 2]; argmax keeps the
        // blank class as a symbol.
        let frames: Vec<Vec<f32>> = [0usize, 1, 1, 0, 2]
            .iter()
            .map(|&l| (0..4).map(|c| if c == l { 6.0 } else { 0.0 }).collect())
            .collect();
        for (choice, want) in [
            (DecoderChoice::Argmax, vec![0usize, 1, 0, 2]),
            (DecoderChoice::Viterbi, vec![0, 1, 0, 2]),
            (DecoderChoice::CtcGreedy, vec![1, 2]),
            (DecoderChoice::CtcBeam(4), vec![1, 2]),
        ] {
            let mut decoder = choice.build(4);
            let hyp = rtm_speech::decode_offline(decoder.as_mut(), &frames);
            assert_eq!(hyp.symbols, want, "{}", choice.label());
        }
    }

    #[test]
    fn builder_sets_every_knob() {
        let c = RuntimeConfig::default()
            .with_threads(4)
            .with_batch(8)
            .with_simd(SimdPolicy::Fixed(Variant::ScalarU1))
            .with_health(HealthPolicy::Quarantine)
            .with_trace(rtm_trace::TraceConfig::on())
            .with_precision(PrecisionChoice::Fixed(RuntimePrecision::Int8))
            .with_admission(
                AdmissionConfig::unbounded()
                    .with_queue_depth(3)
                    .with_shed(ShedPolicy::DropOldest),
            )
            .with_serve(
                ServeOptions::default()
                    .with_port(9099)
                    .with_max_conns(8)
                    .with_tenant_quota(2)
                    .with_max_streams(100),
            );
        assert_eq!(c.threads, 4);
        assert_eq!(c.batch, 8);
        assert_eq!(c.simd, Some(SimdPolicy::Fixed(Variant::ScalarU1)));
        assert_eq!(c.health, Some(HealthPolicy::Quarantine));
        assert_eq!(c.trace, Some(rtm_trace::TraceConfig::on()));
        assert_eq!(
            c.precision,
            Some(PrecisionChoice::Fixed(RuntimePrecision::Int8))
        );
        assert_eq!(c.admission.queue_depth, 3);
        assert_eq!(c.serve.port, 9099);
        assert_eq!(c.serve.max_conns, 8);
        assert_eq!(c.serve.tenant_quota, 2);
        assert_eq!(c.serve.max_streams, Some(100));
        assert_eq!(c.resolved_health(), HealthPolicy::Quarantine);
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn zero_threads_is_rejected() {
        let _ = RuntimeConfig::default().with_threads(0);
    }

    #[test]
    #[should_panic(expected = "batch capacity")]
    fn zero_batch_is_rejected() {
        let _ = RuntimeConfig::default().with_batch(0);
    }
}
