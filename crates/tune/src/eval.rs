//! Candidate evaluation: one (algorithm, input, [`Schedule`]) triple →
//! deterministic modeled time plus a result signature.
//!
//! Every evaluation is an [`Input::run`], i.e. [`ecl_algos::execute`] —
//! a fresh scaled device so cost tallies never leak between candidates,
//! and the algorithm's real implementation: the same code path
//! `ecl-serve` executes, so a schedule that wins here wins in
//! production. The objective is [`ecl_gpusim::Device::modeled_time`]
//! under the in-order schedule: the run pins one worker itself,
//! whatever policy its caller runs under, because a multi-worker
//! interleaving moves
//! schedule-dependent charges (CAS failures, SCC's block-local
//! iterations). So the objective is a pure function of (algorithm,
//! input, schedule): no repeats, no noise envelope, bit-exact
//! reproducibility.

use ecl_algos::cells::Input;
use ecl_algos::Algorithm;
use ecl_gpusim::Schedule;

/// The outcome of one candidate evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalOutcome {
    /// Deterministic modeled GPU time in cost units (the objective).
    pub modeled_time: f64,
    /// [`ecl_algos::Outcome::signature`] of the run — lets tests assert
    /// that two evaluation paths produced the *same result*, not
    /// merely the same cost.
    pub result_sig: u64,
}

/// Evaluates `schedule` for `algo` on `input`, in order (one worker):
/// one [`Input::run`].
pub fn evaluate(
    algo: &dyn Algorithm,
    input: &Input,
    schedule: &Schedule,
) -> Result<EvalOutcome, String> {
    let run = input.run(algo, schedule)?;
    Ok(EvalOutcome { modeled_time: run.modeled_time, result_sig: run.outcome.signature() })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_gpusim::schedule::KnobValue;

    fn internet() -> Input {
        Input::from_registry("internet", 0.002, 7).unwrap()
    }

    fn algo(name: &str) -> &'static dyn Algorithm {
        ecl_algos::find(name).unwrap()
    }

    fn default_schedule(name: &str) -> Schedule {
        algo(name).default_schedule()
    }

    /// By registered name, as the tests below spell it.
    fn evaluate(name: &str, input: &Input, s: &Schedule) -> Result<EvalOutcome, String> {
        super::evaluate(algo(name), input, s)
    }

    #[test]
    fn evaluation_is_bit_deterministic() {
        let input = internet();
        let s = default_schedule("cc");
        let a = evaluate("cc", &input, &s).unwrap();
        let b = evaluate("cc", &input, &s).unwrap();
        assert_eq!(a, b, "same schedule must reproduce bit-identically");
        assert!(a.modeled_time > 0.0);
    }

    #[test]
    fn block_size_changes_modeled_cost() {
        let input = Input::from_registry("toroid-wedge", 0.002, 7).unwrap();
        let d = evaluate("scc", &input, &default_schedule("scc")).unwrap();
        let small = default_schedule("scc").with("block_size", KnobValue::Int(64));
        let s = evaluate("scc", &input, &small).unwrap();
        assert_ne!(d.modeled_time.to_bits(), s.modeled_time.to_bits());
    }

    #[test]
    fn directedness_contract_enforced() {
        let input = internet();
        assert!(evaluate("scc", &input, &default_schedule("scc")).is_err());
        let directed = Input::from_registry("toroid-wedge", 0.002, 7).unwrap();
        assert!(evaluate("cc", &directed, &default_schedule("cc")).is_err());
        assert!(directed.supports(algo("scc")) && !directed.supports(algo("mst")));
    }

    #[test]
    fn all_five_algorithms_evaluate() {
        let und = internet();
        for algo in ["cc", "gc", "mis", "mst"] {
            let r = evaluate(algo, &und, &default_schedule(algo)).unwrap();
            assert!(r.modeled_time > 0.0, "{algo}");
        }
        let dir = Input::from_registry("star", 0.002, 7).unwrap();
        assert!(evaluate("scc", &dir, &default_schedule("scc")).unwrap().modeled_time > 0.0);
    }
}
