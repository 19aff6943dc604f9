//! Cost-benefit rollouts: replay one policy over every node timeline of a range.
//!
//! Fairness requirement: every policy must see exactly the same workload. The job
//! sequence assigned to a node is therefore derived from a seed that depends only on the
//! evaluation seed and the node id, never on the policy.
//!
//! That same contract is what makes the rollouts embarrassingly parallel: each node's
//! job sequence and RNG are fully determined by `(seed, node_id)`, so [`run_policy`]
//! fans the timelines out over rayon and merges the per-node results in timeline order —
//! the outcome is bit-identical at any thread count.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use uerl_core::event_stream::TimelineSet;
use uerl_core::policy::MitigationPolicy;
use uerl_core::session_core::{NodeSession, Observed, RecordRetention};
use uerl_core::MitigationConfig;
use uerl_jobs::schedule::NodeJobSampler;
use uerl_trace::types::{NodeId, SimTime};

/// One recorded mitigation / no-mitigation decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Decision {
    /// Node the decision was made on.
    pub node: NodeId,
    /// Timestamp of the event that triggered the decision.
    pub time: SimTime,
    /// Whether a mitigation was requested.
    pub mitigated: bool,
}

/// One recorded fatal event and its cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UeEvent {
    /// Node the fatal event occurred on.
    pub node: NodeId,
    /// Timestamp of the fatal event.
    pub time: SimTime,
    /// Node-hours lost.
    pub cost: f64,
}

/// The outcome of evaluating one policy over one timeline set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRun {
    /// Policy name.
    pub policy: String,
    /// Number of mitigation actions taken.
    pub mitigations: u64,
    /// Number of "do nothing" decisions taken.
    pub non_mitigations: u64,
    /// Node-hours spent on mitigation actions plus model training/validation.
    pub mitigation_cost: f64,
    /// Number of fatal events in the evaluated range.
    pub ue_count: u64,
    /// Node-hours lost to fatal events.
    pub ue_cost: f64,
    /// Every decision, for the classical ML metrics.
    pub decisions: Vec<Decision>,
    /// Every fatal event, for the classical ML metrics.
    pub ue_events: Vec<UeEvent>,
}

impl PolicyRun {
    /// Total cost: UE cost plus mitigation cost (including training cost).
    pub fn total_cost(&self) -> f64 {
        self.ue_cost + self.mitigation_cost
    }

    /// Merge another run into this one (used to accumulate across splits).
    ///
    /// # Panics
    /// Panics if the runs belong to different policies.
    pub fn merge(&mut self, other: &PolicyRun) {
        assert_eq!(
            self.policy, other.policy,
            "cannot merge runs of different policies"
        );
        self.mitigations += other.mitigations;
        self.non_mitigations += other.non_mitigations;
        self.mitigation_cost += other.mitigation_cost;
        self.ue_count += other.ue_count;
        self.ue_cost += other.ue_cost;
        self.decisions.extend_from_slice(&other.decisions);
        self.ue_events.extend_from_slice(&other.ue_events);
    }

    /// An empty run for a policy (identity element of [`PolicyRun::merge`]).
    pub fn empty(policy: impl Into<String>) -> Self {
        Self {
            policy: policy.into(),
            mitigations: 0,
            non_mitigations: 0,
            mitigation_cost: 0.0,
            ue_count: 0,
            ue_cost: 0.0,
            decisions: Vec::new(),
            ue_events: Vec::new(),
        }
    }
}

/// Evaluate a policy over every timeline in `timelines`: each timeline's events are
/// pushed through a [`NodeSession`] — the same state machine the serving fleet runs —
/// and every decision request is answered by `policy`. The per-node rollouts fan out
/// over rayon and are merged in timeline order, so the run is bit-identical at any
/// thread count.
///
/// The policy's `training_cost_node_hours` is added to the mitigation cost once, as in
/// the paper's accounting ("the total cost of the mitigation actions plus ... the cost of
/// all training and validation used to create the model").
pub fn run_policy<P: MitigationPolicy + Sync + ?Sized>(
    policy: &P,
    timelines: &TimelineSet,
    jobs: &NodeJobSampler,
    config: MitigationConfig,
    seed: u64,
) -> PolicyRun {
    let mut run = PolicyRun::empty(policy.name().to_string());
    run.mitigation_cost += policy.training_cost_node_hours();

    let partials: Vec<PolicyRun> = timelines
        .timelines()
        .par_iter()
        .map(|timeline| {
            let node = timeline.node();
            let mut session = NodeSession::new(
                node,
                timeline.window_start(),
                timeline.window_end(),
                config,
                seed,
                jobs,
                RecordRetention::Full,
                0,
            );
            for event in timeline.events() {
                if let Observed::Request(state) = session.observe(event) {
                    session.apply_decision(state.time, policy.decide(&state));
                }
            }
            let account = session.account();
            PolicyRun {
                policy: run.policy.clone(),
                mitigations: account.mitigation_count(),
                non_mitigations: account.non_mitigation_count(),
                mitigation_cost: account.total_mitigation_cost(),
                ue_count: account.ue_count(),
                ue_cost: account.total_ue_cost(),
                decisions: account
                    .decisions()
                    .iter()
                    .map(|&(time, mitigated)| Decision {
                        node,
                        time,
                        mitigated,
                    })
                    .collect(),
                ue_events: account
                    .ue_records()
                    .iter()
                    .map(|r| UeEvent {
                        node,
                        time: r.time,
                        cost: r.cost,
                    })
                    .collect(),
            }
        })
        .collect();

    for partial in &partials {
        run.merge(partial);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use uerl_core::event_stream::TimelineSet;
    use uerl_core::policies::{AlwaysMitigate, NeverMitigate, OraclePolicy};
    use uerl_jobs::{JobLogConfig, JobTraceGenerator};
    use uerl_trace::generator::{SyntheticLogConfig, TraceGenerator};
    use uerl_trace::reduction::preprocess;

    fn inputs(seed: u64) -> (TimelineSet, NodeJobSampler) {
        let log = TraceGenerator::new(SyntheticLogConfig::small(40, 90, seed)).generate();
        let timelines = TimelineSet::from_log(&preprocess(&log));
        let jobs = JobTraceGenerator::new(JobLogConfig::small(64, 30, seed)).generate();
        (timelines, NodeJobSampler::from_log(&jobs))
    }

    #[test]
    fn never_mitigate_has_zero_mitigation_cost_and_full_ue_cost() {
        let (timelines, jobs) = inputs(21);
        let run = run_policy(
            &NeverMitigate,
            &timelines,
            &jobs,
            MitigationConfig::paper_default(),
            7,
        );
        assert_eq!(run.mitigations, 0);
        assert_eq!(run.mitigation_cost, 0.0);
        assert!(run.ue_count > 0);
        assert!(run.ue_cost > 0.0);
        assert_eq!(run.total_cost(), run.ue_cost);
        assert_eq!(run.ue_events.len() as u64, run.ue_count);
    }

    #[test]
    fn always_mitigate_reduces_ue_cost_but_pays_for_every_event() {
        let (timelines, jobs) = inputs(22);
        let config = MitigationConfig::paper_default();
        let never = run_policy(&NeverMitigate, &timelines, &jobs, config, 7);
        let always = run_policy(&AlwaysMitigate, &timelines, &jobs, config, 7);
        assert!(
            always.ue_cost < never.ue_cost,
            "mitigating must reduce the UE cost"
        );
        assert_eq!(
            always.ue_count, never.ue_count,
            "the UEs themselves still happen"
        );
        assert_eq!(
            always.mitigations,
            always.decisions.len() as u64,
            "every decision is a mitigation"
        );
        let expected_cost = always.mitigations as f64 * config.mitigation_cost_node_hours();
        assert!((always.mitigation_cost - expected_cost).abs() < 1e-6);
    }

    #[test]
    fn same_seed_gives_identical_workloads_across_policies() {
        let (timelines, jobs) = inputs(23);
        let config = MitigationConfig::paper_default();
        let a = run_policy(&NeverMitigate, &timelines, &jobs, config, 99);
        let b = run_policy(&NeverMitigate, &timelines, &jobs, config, 99);
        assert_eq!(a, b);
        // The UE events (and their costs) must be identical for any non-mitigating pair
        // of runs with the same seed, because the workload is policy-independent.
        let c = run_policy(&NeverMitigate, &timelines, &jobs, config, 100);
        assert_ne!(
            a.ue_cost, c.ue_cost,
            "a different seed draws different jobs"
        );
    }

    #[test]
    fn oracle_beats_always_mitigate_on_total_cost() {
        let (timelines, jobs) = inputs(24);
        let config = MitigationConfig::paper_default();
        let oracle = OraclePolicy::from_timelines(&timelines);
        let oracle_run = run_policy(&oracle, &timelines, &jobs, config, 7);
        let always = run_policy(&AlwaysMitigate, &timelines, &jobs, config, 7);
        let never = run_policy(&NeverMitigate, &timelines, &jobs, config, 7);
        assert!(oracle_run.total_cost() <= always.total_cost());
        assert!(oracle_run.total_cost() <= never.total_cost());
        assert!(oracle_run.mitigations <= always.mitigations);
    }

    #[test]
    fn training_cost_is_charged_once() {
        struct Costly;
        impl MitigationPolicy for Costly {
            fn name(&self) -> &str {
                "costly"
            }
            fn decide(&self, _: &uerl_core::StateFeatures) -> bool {
                false
            }
            fn training_cost_node_hours(&self) -> f64 {
                5.0
            }
        }
        let (timelines, jobs) = inputs(25);
        let run = run_policy(
            &Costly,
            &timelines,
            &jobs,
            MitigationConfig::paper_default(),
            7,
        );
        assert!((run.mitigation_cost - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_counts_and_costs() {
        let mut a = PolicyRun::empty("p");
        a.mitigations = 2;
        a.ue_cost = 10.0;
        let mut b = PolicyRun::empty("p");
        b.mitigations = 3;
        b.ue_cost = 5.0;
        b.mitigation_cost = 1.0;
        a.merge(&b);
        assert_eq!(a.mitigations, 5);
        assert!((a.ue_cost - 15.0).abs() < 1e-12);
        assert!((a.total_cost() - 16.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different policies")]
    fn merging_different_policies_rejected() {
        let mut a = PolicyRun::empty("a");
        a.merge(&PolicyRun::empty("b"));
    }
}
