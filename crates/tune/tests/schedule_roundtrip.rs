//! Schedule wire-format round-trip property: serialize → parse →
//! apply must produce *bit-identical* modeled results to applying the
//! in-memory value, across all five algorithms. This is the contract
//! that makes a `ecl-tune/1` manifest trustworthy — a schedule that
//! won the search wins identically after a trip through JSON, a file,
//! and a different process.

#![allow(clippy::unwrap_used)]

use std::sync::OnceLock;

use ecl_algos::{Algorithm, ALL};
use ecl_gpusim::pool::with_policy;
use ecl_gpusim::{DispatchPolicy, Schedule};
use ecl_tune::{evaluate, TuneInput};
use proptest::prelude::*;

const SCALE: f64 = 0.001;
const SEED: u64 = 11;

/// Inputs are generated once: the property varies the schedule, not
/// the graph, and regeneration per case would dominate the runtime.
fn input_for(algo: &dyn Algorithm) -> &'static TuneInput {
    static UNDIRECTED: OnceLock<TuneInput> = OnceLock::new();
    static DIRECTED: OnceLock<TuneInput> = OnceLock::new();
    if algo.directed() {
        DIRECTED.get_or_init(|| TuneInput::from_registry("toroid-wedge", SCALE, SEED).unwrap())
    } else {
        UNDIRECTED.get_or_init(|| TuneInput::from_registry("internet", SCALE, SEED).unwrap())
    }
}

/// Mixed-radix decode of `salt` into one admissible value per
/// registered knob: every point of the (small, discrete) knob
/// cross-product is reachable.
fn schedule_from_salt(algo: &dyn Algorithm, mut salt: u64) -> Schedule {
    let mut s = Schedule::new();
    for spec in algo.knobs() {
        let n = spec.domain.len() as u64;
        s.set(spec.name, spec.domain.value((salt % n) as usize));
        salt /= n;
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn roundtrip_applies_bit_identically(
        algo_ix in 0usize..ALL.len(),
        salt in 0u64..u64::MAX,
    ) {
        let algo = ALL[algo_ix];
        let schedule = schedule_from_salt(algo, salt);
        prop_assert!(schedule.check_against_registry(algo.knobs()).is_ok());

        let wire = schedule.to_json();
        let parsed = Schedule::from_json(&wire).unwrap();
        // The wire form is canonical: re-serializing the parse is a
        // fixed point (manifest diffs stay meaningful).
        prop_assert_eq!(parsed.to_json(), wire);

        // A bit-for-bit modeled-time comparison pins the in-order
        // schedule itself rather than relying on `evaluate`'s own pin.
        let input = input_for(algo);
        let (direct, roundtripped) = with_policy(DispatchPolicy::sequential(), || {
            (evaluate(algo, input, &schedule).unwrap(), evaluate(algo, input, &parsed).unwrap())
        });
        prop_assert!(
            direct.modeled_time.to_bits() == roundtripped.modeled_time.to_bits(),
            "{}: modeled time drifted across serialization: {} vs {} ({})",
            algo.name(),
            direct.modeled_time,
            roundtripped.modeled_time,
            wire
        );
        prop_assert!(
            direct.result_sig == roundtripped.result_sig,
            "{}: result signature drifted across serialization ({})",
            algo.name(),
            wire
        );
    }
}
