//! Schedule wire-format round-trip property: serialize → parse →
//! apply must produce *bit-identical* modeled results to applying the
//! in-memory value, across all five algorithms. This is the contract
//! that makes a `ecl-tune/1` manifest trustworthy — a schedule that
//! won the search wins identically after a trip through JSON, a file,
//! and a different process.

#![allow(clippy::unwrap_used)]

use std::sync::OnceLock;

use ecl_algos::{Algorithm, ALL};
use ecl_gpusim::schedule::DISPATCH_KNOBS;
use ecl_gpusim::Schedule;
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
/// cross-product is reachable, including the dispatch knobs the
/// search itself never varies.
fn schedule_from_salt(algo: &dyn Algorithm, mut salt: u64) -> Schedule {
    let mut s = Schedule::new();
    for spec in DISPATCH_KNOBS.iter().chain(algo.knobs()) {
        let n = spec.domain.len() as u64;
        s.set(spec.name, spec.domain.value((salt % n) as usize));
        salt /= n;
    }
    s
}

/// Pins the dispatch knobs to the sequential reference engine.
/// Dispatch knobs round-trip like any other knob (the canonical
/// fixed-point check covers them), but the *evaluation* comparison
/// must not force multi-worker engines: SCC's per-block iteration
/// counters — and hence its modeled time — legitimately depend on
/// thread interleaving (see `tests/scheduler_determinism.rs`), which
/// would fail the property for reasons unrelated to serialization.
fn pin_sequential(mut s: Schedule) -> Schedule {
    use ecl_gpusim::schedule::{KnobValue, INHERIT};
    s.set("dispatch", KnobValue::Str("seq".into()));
    s.set("workers", KnobValue::Int(1));
    s.set("grain", KnobValue::Int(INHERIT));
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

        let input = input_for(algo);
        let direct = evaluate(algo, input, &pin_sequential(schedule)).unwrap();
        let roundtripped = evaluate(algo, input, &pin_sequential(parsed)).unwrap();
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
