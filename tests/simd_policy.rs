//! Policy semantics of the SIMD dispatch layer.
//!
//! [`set_policy`](rtm_tensor::simd::set_policy) is **process-global**, so
//! this file is its own integration-test binary and keeps every mutation
//! inside ONE `#[test]` function: cargo runs tests of a binary on parallel
//! threads, and two tests racing on the global policy would make the
//! dispatched kernels nondeterministic mid-assertion. The differential
//! suite (`tests/simd_kernels.rs`) deliberately never mutates the policy
//! for the same reason.

use rtm_tensor::rng::StdRng;
use rtm_tensor::simd::{self, SimdPolicy, Variant};

#[test]
fn policy_resolution_override_and_dispatch() {
    // --- 1. First observation reflects the environment. -------------------
    // `RTM_SIMD` is read once, on the first `policy()` call before any
    // `set_policy`; this test's first read *is* that call for this process.
    // CI exercises both arms: default run (unset → Auto) and the
    // `RTM_SIMD=off` run (→ pinned scalar-u1).
    let env_policy = std::env::var("RTM_SIMD")
        .ok()
        .and_then(|s| simd::parse_policy(&s))
        .unwrap_or(SimdPolicy::Auto);
    let initial = simd::policy();
    assert_eq!(
        initial, env_policy,
        "first policy() read must honour RTM_SIMD"
    );

    // --- 2. Resolution against CPU support. -------------------------------
    // Auto and Fixed(Vector) resolve to the scalar definition without the
    // ISA; the pinned scalar variant is always honoured verbatim.
    let widest = if simd::vector_available() {
        Variant::Vector
    } else {
        Variant::ScalarU1
    };
    for (policy, want) in [
        (SimdPolicy::Auto, widest),
        (SimdPolicy::Fixed(Variant::Vector), widest),
        (SimdPolicy::Fixed(Variant::ScalarU1), Variant::ScalarU1),
    ] {
        simd::set_policy(policy);
        assert_eq!(simd::policy(), policy, "set_policy must win over the env");
        assert_eq!(simd::active_variant(), want, "{policy:?}");
    }

    // --- 3. The dispatched kernels follow the pinned variant exactly. -----
    let mut rng = StdRng::seed_from_u64(77);
    let a: Vec<f32> = (0..301).map(|_| rng.gen_f32() * 2.0 - 1.0).collect();
    let b: Vec<f32> = (0..301).map(|_| rng.gen_f32() * 2.0 - 1.0).collect();
    for v in Variant::ALL {
        simd::set_policy(SimdPolicy::Fixed(v));
        let resolved = simd::active_variant();
        assert_eq!(
            simd::dot(&a, &b),
            simd::dot_variant(resolved, &a, &b),
            "dispatched dot under pinned {}",
            v.name()
        );
        let mut y_dispatched = b.clone();
        simd::axpy(0.25, &a, &mut y_dispatched);
        let mut y_explicit = b.clone();
        simd::axpy_variant(resolved, 0.25, &a, &mut y_explicit);
        assert_eq!(
            y_dispatched,
            y_explicit,
            "dispatched axpy under {}",
            v.name()
        );
    }

    // --- 4. Restore, so later-added tests in this binary see the ambient
    // policy they expect. --------------------------------------------------
    simd::set_policy(initial);
    assert_eq!(simd::policy(), initial);
}
