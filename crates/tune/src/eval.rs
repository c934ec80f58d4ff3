//! Candidate evaluation: one (algorithm, input, [`Schedule`]) triple →
//! deterministic modeled time plus a result signature.
//!
//! Every evaluation goes through [`ecl_algos::execute`] — a fresh
//! scaled device so cost tallies never leak between candidates, and the
//! algorithm's real implementation: the same code path `ecl-serve`
//! executes, so a schedule that wins here wins in production. The
//! objective is [`ecl_gpusim::Device::modeled_time`] under the in-order
//! schedule: [`evaluate`] pins one worker itself, whatever policy its
//! caller runs under, because a multi-worker interleaving moves
//! schedule-dependent charges (CAS failures, SCC's block-local
//! iterations). So the objective is a pure function of (algorithm,
//! input, schedule): no repeats, no noise envelope, bit-exact
//! reproducibility.

use std::sync::Arc;

use ecl_algos::{Algorithm, Views};
use ecl_gpusim::pool::with_policy;
use ecl_gpusim::{DispatchPolicy, Schedule};
use ecl_graph::{Csr, Fingerprint, WeightedCsr};

/// One concrete input under tuning: the graph views the algorithms
/// consume plus its family fingerprint (the manifest bucket key).
#[derive(Clone)]
pub struct TuneInput {
    /// Registry input name.
    pub name: String,
    /// Generation scale.
    pub scale: f64,
    /// Generation seed.
    pub seed: u64,
    /// The graph (CC, GC, MIS, SCC).
    pub csr: Arc<Csr>,
    /// Weighted view of `csr` (MST), for undirected inputs.
    pub weighted: Option<WeightedCsr>,
    /// Structural fingerprint of the graph.
    pub fingerprint: Fingerprint,
}

impl TuneInput {
    /// Generates the registry input `name` at `scale`/`seed` with both
    /// views and its fingerprint.
    pub fn from_registry(name: &str, scale: f64, seed: u64) -> Result<TuneInput, String> {
        let spec = ecl_graphgen::registry::find(name)
            .ok_or_else(|| format!("unknown registry input {name:?}"))?;
        let csr = Arc::new(spec.generate(scale, seed));
        let weighted = (!spec.directed)
            .then(|| spec.weigh(Arc::clone(&csr), seed, ecl_graphgen::DEFAULT_MAX_WEIGHT));
        let fingerprint = Fingerprint::of(&csr);
        Ok(TuneInput { name: name.to_string(), scale, seed, csr, weighted, fingerprint })
    }

    /// The graph views this input offers an algorithm.
    pub fn views(&self) -> Views<'_> {
        Views { name: &self.name, csr: &self.csr, weighted: self.weighted.as_ref() }
    }

    /// Whether `algo` can run on this input (its directedness and
    /// weighted-view contract).
    pub fn supports(&self, algo: &dyn Algorithm) -> bool {
        ecl_algos::check_input(algo, &self.views()).is_ok()
    }
}

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

/// Evaluates `schedule` for `algo` on `input`, in order (one worker).
pub fn evaluate(
    algo: &dyn Algorithm,
    input: &TuneInput,
    schedule: &Schedule,
) -> Result<EvalOutcome, String> {
    let (outcome, modeled_time) = with_policy(DispatchPolicy::sequential(), || {
        ecl_algos::execute(algo, input.scale, &input.views(), Some(schedule))
    })?;
    Ok(EvalOutcome { modeled_time, result_sig: outcome.signature() })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_gpusim::schedule::KnobValue;

    fn internet() -> TuneInput {
        TuneInput::from_registry("internet", 0.002, 7).unwrap()
    }

    fn algo(name: &str) -> &'static dyn Algorithm {
        ecl_algos::find(name).unwrap()
    }

    fn default_schedule(name: &str) -> Schedule {
        algo(name).default_schedule()
    }

    /// By registered name, as the tests below spell it.
    fn evaluate(name: &str, input: &TuneInput, s: &Schedule) -> Result<EvalOutcome, String> {
        super::evaluate(algo(name), input, s)
    }

    #[test]
    fn the_weighted_view_shares_the_graph() {
        let input = internet();
        assert!(std::ptr::eq(input.weighted.as_ref().unwrap().csr(), &*input.csr));
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
        let input = TuneInput::from_registry("toroid-wedge", 0.002, 7).unwrap();
        let d = evaluate("scc", &input, &default_schedule("scc")).unwrap();
        let small = default_schedule("scc").with("block_size", KnobValue::Int(64));
        let s = evaluate("scc", &input, &small).unwrap();
        assert_ne!(d.modeled_time.to_bits(), s.modeled_time.to_bits());
    }

    #[test]
    fn directedness_contract_enforced() {
        let input = internet();
        assert!(evaluate("scc", &input, &default_schedule("scc")).is_err());
        let directed = TuneInput::from_registry("toroid-wedge", 0.002, 7).unwrap();
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
        let dir = TuneInput::from_registry("star", 0.002, 7).unwrap();
        assert!(evaluate("scc", &dir, &default_schedule("scc")).unwrap().modeled_time > 0.0);
    }
}
