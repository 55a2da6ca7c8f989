//! Zero-downtime model reloading for `rtm serve` (DESIGN.md §15).
//!
//! A [`Reloader`] watches a bundle path with a throttled fingerprint poll
//! over the file's mtime, length and 16-byte bundle trailer (generation +
//! whole-file CRC) — SIGHUP-free and std-only, so it works identically on
//! every platform the server runs on, and content-sensitive, so equal-size
//! republishes inside one mtime granule are still detected. When the published file changes, a
//! detached background thread reads and fully validates the new bundle
//! (container checksums, typed decode, the server's load-time health
//! policy, a dimension check against the wire protocol's advertised
//! `Hello`, and a canary forward pass), and only a bundle that survives
//! all of it is handed to the server for promotion. The serving thread
//! never blocks on I/O or validation: it polls the channel between
//! scheduling passes and keeps stepping streams on the current generation
//! throughout.
//!
//! The swap itself and the post-swap rollback monitor live in
//! [`super::server`]; this module owns *detection and validation*, the
//! part that can be slow and must never stall a frame.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant, SystemTime};

use crate::bundle::CompiledBundle;
use crate::health::HealthPolicy;

/// Knobs of the hot-reload subsystem (separate from
/// [`RuntimeConfig`](crate::config::RuntimeConfig) because paths and rates
/// don't fit its `Copy + Eq` contract).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReloadConfig {
    /// Fingerprint-poll interval in milliseconds.
    pub poll_ms: u64,
    /// Post-swap guard: when the new generation's quarantine rate
    /// (quarantined / admitted) exceeds this fraction, the server rolls
    /// back to the previous generation.
    pub rollback_quarantine_rate: f64,
    /// Minimum streams admitted on the new generation before the rollback
    /// rate is evaluated (too-small samples would make one bad stream roll
    /// back a healthy model).
    pub rollback_min_streams: usize,
    /// Synthetic frames the canary forward pass runs through a candidate
    /// bundle before promotion; `0` disables the canary.
    pub canary_frames: usize,
}

impl Default for ReloadConfig {
    fn default() -> ReloadConfig {
        ReloadConfig {
            poll_ms: 200,
            rollback_quarantine_rate: 0.5,
            rollback_min_streams: 4,
            canary_frames: 3,
        }
    }
}

impl ReloadConfig {
    /// Sets the fingerprint-poll interval.
    pub fn with_poll_ms(mut self, ms: u64) -> ReloadConfig {
        self.poll_ms = ms;
        self
    }

    /// Sets the post-swap rollback threshold (quarantined / admitted).
    pub fn with_rollback_quarantine_rate(mut self, rate: f64) -> ReloadConfig {
        self.rollback_quarantine_rate = rate;
        self
    }

    /// Sets the minimum admitted-stream sample for the rollback check.
    pub fn with_rollback_min_streams(mut self, n: usize) -> ReloadConfig {
        self.rollback_min_streams = n;
        self
    }

    /// Sets the canary length (`0` disables the canary pass).
    pub fn with_canary_frames(mut self, n: usize) -> ReloadConfig {
        self.canary_frames = n;
        self
    }
}

/// Counters of the reload subsystem, readable after a serve run (the
/// trace-counter mirror is the `serve.reload.*` family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReloadStats {
    /// Bundle-change detections that started a background load.
    pub attempts: usize,
    /// Swaps promoted to serving.
    pub successes: usize,
    /// Candidate bundles rejected before promotion (checksum, decode,
    /// dimension, or canary failure).
    pub refusals: usize,
    /// Post-swap reversions to the previous generation.
    pub rollbacks: usize,
    /// Generation of the bundle serving new streams when the run ended.
    pub generation: u64,
}

/// What one [`Reloader::poll`] observed.
#[derive(Debug)]
pub enum ReloadEvent {
    /// The watched file changed; a background load+validate started.
    Started,
    /// A candidate bundle survived validation and is ready to promote.
    Loaded(CompiledBundle),
    /// A candidate bundle was rejected (the reason is human-readable; the
    /// server stays on its current generation).
    Refused(String),
}

/// mtime + length + trailer of the watched file. The 16-byte v5 trailer
/// carries the generation stamp and the whole-file CRC, so two publishes
/// of equal length inside one mtime granule (same architecture, different
/// weights) still fingerprint differently — the stat pair alone cannot
/// promise that.
fn fingerprint(path: &Path) -> Option<(SystemTime, u64, [u8; 16])> {
    let meta = std::fs::metadata(path).ok()?;
    let len = meta.len();
    let mut tail = [0u8; 16];
    if len >= 16 {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let mut file = std::fs::File::open(path).ok()?;
        file.seek(SeekFrom::End(-16)).ok()?;
        file.read_exact(&mut tail).ok()?;
    }
    Some((meta.modified().ok()?, len, tail))
}

/// Watches a bundle path and validates candidate bundles off-thread; the
/// server drives it via [`Reloader::poll`] between scheduling passes.
#[derive(Debug)]
pub struct Reloader {
    path: PathBuf,
    config: ReloadConfig,
    policy: HealthPolicy,
    input_dim: usize,
    classes: usize,
    /// Fingerprint of the last file version acted on (loaded or refused),
    /// so one bad publish is refused once, not every poll.
    seen: Option<(SystemTime, u64, [u8; 16])>,
    last_poll: Option<Instant>,
    /// Receives the verdict of the in-flight background load, if any.
    pending: Option<Receiver<ReloadEvent>>,
}

impl Reloader {
    /// A reloader watching `path`. The current file (if any) is taken as
    /// already-served: only *subsequent* publishes trigger loads.
    /// `input_dim`/`classes` pin the wire contract a candidate must match;
    /// `policy` is applied as the load-time weight scan.
    pub fn new(
        path: PathBuf,
        config: ReloadConfig,
        policy: HealthPolicy,
        input_dim: usize,
        classes: usize,
    ) -> Reloader {
        let seen = fingerprint(&path);
        Reloader {
            path,
            config,
            policy,
            input_dim,
            classes,
            seen,
            last_poll: None,
            pending: None,
        }
    }

    /// The knobs this reloader runs under.
    pub fn config(&self) -> ReloadConfig {
        self.config
    }

    /// Checks for a finished background load, then (throttled to
    /// [`ReloadConfig::poll_ms`]) for a changed file. Non-blocking either
    /// way — the serving loop calls this every pass.
    pub fn poll(&mut self) -> Option<ReloadEvent> {
        if let Some(rx) = &self.pending {
            return match rx.try_recv() {
                Ok(event) => {
                    self.pending = None;
                    Some(event)
                }
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => {
                    self.pending = None;
                    Some(ReloadEvent::Refused("loader thread died".to_string()))
                }
            };
        }
        if self
            .last_poll
            .is_some_and(|t| t.elapsed() < Duration::from_millis(self.config.poll_ms))
        {
            return None;
        }
        self.last_poll = Some(Instant::now());
        let fp = fingerprint(&self.path)?;
        if self.seen == Some(fp) {
            return None;
        }
        self.seen = Some(fp);
        self.pending = Some(spawn_load(
            self.path.clone(),
            self.policy,
            self.input_dim,
            self.classes,
            self.config.canary_frames,
        ));
        Some(ReloadEvent::Started)
    }
}

/// Reads, decodes and validates the bundle at `path` on a detached thread,
/// reporting the verdict over the returned channel.
fn spawn_load(
    path: PathBuf,
    policy: HealthPolicy,
    input_dim: usize,
    classes: usize,
    canary_frames: usize,
) -> Receiver<ReloadEvent> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let verdict = match validate(&path, policy, input_dim, classes, canary_frames) {
            Ok(bundle) => ReloadEvent::Loaded(bundle),
            Err(reason) => ReloadEvent::Refused(reason),
        };
        // The server may have shut down; a dead receiver is fine.
        let _ = tx.send(verdict);
    });
    rx
}

fn validate(
    path: &Path,
    policy: HealthPolicy,
    input_dim: usize,
    classes: usize,
    canary_frames: usize,
) -> Result<CompiledBundle, String> {
    // Checksums, typed decode, and (under a scanning policy) the weight
    // finiteness scan all happen inside load_with.
    let bundle = CompiledBundle::load_with(path, policy).map_err(|e| e.to_string())?;
    // The wire contract is fixed at bind: Hello advertised these
    // dimensions to every client, so a bundle that changes them cannot be
    // served by this process.
    if bundle.net.input_dim() != input_dim || bundle.net.num_classes() != classes {
        return Err(format!(
            "dimension mismatch: bundle is {}->{}, server serves {}->{}",
            bundle.net.input_dim(),
            bundle.net.num_classes(),
            input_dim,
            classes
        ));
    }
    // Canary: a short synthetic utterance through the full serial path.
    // Catches models that decode cleanly but blow up arithmetically
    // (saturated weights, broken scales) before any client sees them.
    if canary_frames > 0 {
        let frames: Vec<Vec<f32>> = (0..canary_frames)
            .map(|t| {
                (0..input_dim)
                    .map(|i| (((t * input_dim + i) as f32) * 0.7 + 0.1).sin() * 0.5)
                    .collect()
            })
            .collect();
        let logits = bundle.net.forward(&frames);
        if logits.iter().flatten().any(|v| !v.is_finite()) {
            return Err("canary forward pass produced non-finite logits".to_string());
        }
    }
    Ok(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{self, BundleMeta};
    use crate::deploy::{CompiledNetwork, RuntimePrecision};
    use rtm_rnn::model::{GruNetwork, NetworkConfig};

    fn compiled(seed: u64) -> CompiledNetwork {
        let net = GruNetwork::new(
            &NetworkConfig {
                input_dim: 6,
                hidden_dims: vec![12],
                num_classes: 4,
            },
            seed,
        );
        CompiledNetwork::compile(&net, 4, 2, RuntimePrecision::F16).expect("partition fits")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtm-reload-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn drain(reloader: &mut Reloader) -> ReloadEvent {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(event) = reloader.poll() {
                if !matches!(event, ReloadEvent::Started) {
                    return event;
                }
            }
            assert!(Instant::now() < deadline, "reload verdict timed out");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn detects_a_publish_and_loads_it() {
        let dir = temp_dir("detect");
        let path = dir.join("model.rtm");
        bundle::write(
            &path,
            &compiled(1),
            &BundleMeta::default().with_generation(1),
        )
        .expect("publish gen 1");
        let mut reloader = Reloader::new(
            path.clone(),
            ReloadConfig::default().with_poll_ms(0),
            HealthPolicy::Check,
            6,
            4,
        );
        // The bundle present at construction is the served one: no event.
        assert!(reloader.poll().is_none(), "initial file must not trigger");

        bundle::write(
            &path,
            &compiled(2),
            &BundleMeta::default().with_generation(2),
        )
        .expect("publish gen 2");
        match drain(&mut reloader) {
            ReloadEvent::Loaded(b) => assert_eq!(b.generation(), 2),
            other => panic!("expected Loaded, got {other:?}"),
        }
        // Stable file: quiet again.
        assert!(reloader.poll().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refuses_corruption_dimension_drift_and_failed_canaries_exactly_once() {
        let dir = temp_dir("refuse");
        let path = dir.join("model.rtm");
        let mut reloader = Reloader::new(
            path.clone(),
            ReloadConfig::default().with_poll_ms(0),
            HealthPolicy::Check,
            6,
            4,
        );

        // Corrupt publish: one flipped byte past the header.
        let mut bytes = bundle::to_bytes_with(&compiled(3), &BundleMeta::default());
        bytes[40] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write corrupt");
        match drain(&mut reloader) {
            ReloadEvent::Refused(reason) => {
                assert!(reason.contains("checksum"), "reason: {reason}")
            }
            other => panic!("expected Refused, got {other:?}"),
        }
        // The same bad file is not re-attempted every poll.
        assert!(reloader.poll().is_none());
        assert!(reloader.poll().is_none());

        // Wrong dimensions decode fine but break the wire contract.
        let skinny = GruNetwork::new(
            &NetworkConfig {
                input_dim: 3,
                hidden_dims: vec![8],
                num_classes: 4,
            },
            7,
        );
        let skinny = CompiledNetwork::compile(&skinny, 4, 2, RuntimePrecision::F32).unwrap();
        bundle::write(&path, &skinny, &BundleMeta::default()).expect("publish skinny");
        match drain(&mut reloader) {
            ReloadEvent::Refused(reason) => {
                assert!(reason.contains("dimension mismatch"), "reason: {reason}")
            }
            other => panic!("expected Refused, got {other:?}"),
        }

        // Saturated head weights decode and pass the finiteness scan (the
        // stored weights are finite) but overflow at runtime — the canary
        // must catch it.
        let good = compiled(3);
        let (rows, cols) = (good.head_w().rows(), good.head_w().cols());
        let bad = CompiledNetwork::from_parts(
            good.layers,
            rtm_tensor::Matrix::from_vec(rows, cols, vec![f32::MAX; rows * cols]).unwrap(),
            vec![f32::MAX; good.head_b.len()],
            good.precision,
        );
        // Poison precondition: the exact canary utterance `validate` runs
        // must overflow (otherwise this test would assert nothing).
        let canary: Vec<Vec<f32>> = (0..3)
            .map(|t| {
                (0..6)
                    .map(|i| (((t * 6 + i) as f32) * 0.7 + 0.1).sin() * 0.5)
                    .collect()
            })
            .collect();
        assert!(
            bad.forward(&canary)
                .iter()
                .flatten()
                .any(|v| !v.is_finite()),
            "saturated head must overflow on the canary"
        );
        bundle::write(&path, &bad, &BundleMeta::default()).expect("publish saturated");
        match drain(&mut reloader) {
            ReloadEvent::Refused(reason) => {
                assert!(reason.contains("canary"), "reason: {reason}")
            }
            other => panic!("expected Refused, got {other:?}"),
        }

        // A good publish after the bad ones sails through.
        bundle::write(
            &path,
            &compiled(4),
            &BundleMeta::default().with_generation(9),
        )
        .expect("publish good");
        match drain(&mut reloader) {
            ReloadEvent::Loaded(b) => assert_eq!(b.generation(), 9),
            other => panic!("expected Loaded, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
