//! The transport knobs every entry point shares, and the one function
//! that turns them into a simulated LLM stack.

use crate::client::LanguageModel;
use crate::fault::FaultSpec;
use crate::profile::ModelProfile;
use crate::resilient::{ResilientClient, RetryPolicy};
use crate::route::{RouteSpec, RoutedLlm};

/// Fault injection and retry settings for the simulated transport
/// (`--fault-rate`, `--max-retries`, `--llm-timeout`). At the defaults
/// no fault is injected, and the built stack answers exactly like a bare
/// [`crate::SimLlm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transport {
    /// Injected transport fault rate (0 disables injection).
    pub fault_rate: f64,
    /// Transport retries per model rung after the first attempt.
    pub max_retries: usize,
    /// Per-call deadline on simulated LLM latency, seconds.
    pub llm_timeout: Option<f64>,
}

impl Default for Transport {
    fn default() -> Self {
        Transport { fault_rate: 0.0, max_retries: 3, llm_timeout: None }
    }
}

impl Transport {
    /// Build the resilient stack for `profile`: seeded fault injection
    /// under retry, backoff, circuit breaking and degradation. With a
    /// route, each role gets its own resilient stack, and roles that
    /// share a model share one.
    pub fn build(
        &self,
        profile: &ModelProfile,
        route: Option<&RouteSpec>,
        seed: u64,
    ) -> Box<dyn LanguageModel> {
        let faults = FaultSpec::from_rate(self.fault_rate);
        let policy = RetryPolicy {
            max_retries: self.max_retries,
            call_timeout_seconds: self.llm_timeout,
            ..Default::default()
        };
        match route {
            Some(spec) => Box::new(RoutedLlm::simulated(profile, spec, faults, policy, seed)),
            None => Box::new(ResilientClient::simulated(profile.clone(), faults, policy, seed)),
        }
    }
}
