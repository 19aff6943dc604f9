//! The per-node session: the one state machine behind training, evaluation and serving.
//!
//! The paper's MDP (Section 3.2) is one per-node process: the agent is queried at every
//! non-fatal event, the state carries the Equation 3 potential UE cost, and a fatal
//! event loses the cost accrued since the last mitigation. [`NodeSession`] is the only
//! code that runs it — the only caller that feeds events to a node's
//! [`FeatureExtractor`] and charges its served [`CostAccount`]. Every consumer is a thin
//! adapter over it:
//!
//! * the offline [`crate::env::MitigationEnv`] (training and evaluation) is a cursor
//!   over a timeline that pushes events into a session and reads the reward off the
//!   cost delta;
//! * the evaluator's `run_policy` pushes each timeline through a session and resolves
//!   every [`Observed::Request`] with the policy under test;
//! * the serving crate's `FleetServer` keeps one session per live node and resolves
//!   the requests through micro-batched inference.
//!
//! The serving-parity guarantee — served decisions and costs bit-identical to the
//! offline rollout — therefore holds by construction: both paths run the same
//! `observe` / `apply_decision` calls in the same event order.
//!
//! [`CostAccount`] holds every parity-critical accounting rule of a cost lane: the
//! Equation 3 cost reference point (`last_mitigation`, reset by restartable
//! mitigations, cleared when a fatal event pulls the node from production), the
//! mitigation / UE counters and cost totals, and the decision / UE record logs —
//! borrowing the job sequence at each call. A session holds one account for the served
//! policy and one per shadow policy, all against the node's single job sequence.
//!
//! Record retention is a knob: [`RecordRetention::Full`] keeps the per-event
//! `decisions` / `ue_records` logs (the evaluator needs them for the classical ML
//! metrics, and the parity suites compare them entry for entry);
//! [`RecordRetention::TotalsOnly`] keeps counters and cost totals only, so a
//! long-lived serving session's accounting footprint is O(1) regardless of how many
//! events the node ever produces. The retention mode never changes a counter, a cost
//! bit, or a decision — only whether the logs are kept.

use crate::config::MitigationConfig;
use crate::cost;
use crate::features::FeatureExtractor;
use crate::state::StateFeatures;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use uerl_jobs::schedule::{node_workload_seed, JobSequence, NodeJobSampler, ScheduledJob};
use uerl_trace::log::MergedEvent;
use uerl_trace::types::{NodeId, SimTime};

/// A recorded fatal event: when it happened and how many node-hours it cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UeRecord {
    /// Timestamp of the fatal event.
    pub time: SimTime,
    /// Node-hours lost.
    pub cost: f64,
}

/// Whether a session keeps its per-event decision / UE logs or only running totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordRetention {
    /// Keep every `(time, mitigated)` decision and every [`UeRecord`]. Required by
    /// the evaluator (classical ML metrics read the logs) and by the bit-parity test
    /// suites, which compare logs entry for entry.
    #[default]
    Full,
    /// Keep counters and cost totals only; the logs stay empty. A session's
    /// accounting is O(1) in the number of events — the mode for long-lived serving
    /// fleets. Counters and cost bits are identical to [`RecordRetention::Full`].
    TotalsOnly,
}

impl RecordRetention {
    /// Parse a `UERL_RETENTION`-style value: `full` / `totals` (or empty for the
    /// default, totals-only).
    ///
    /// # Panics
    /// Panics on any other value — a silently misread knob would invalidate a
    /// measurement run.
    pub fn parse(value: &str) -> Self {
        crate::knobs::choice(
            "UERL_RETENTION",
            value,
            &[
                ("", RecordRetention::TotalsOnly),
                ("totals", RecordRetention::TotalsOnly),
                ("full", RecordRetention::Full),
            ],
        )
    }

    /// The serving-side retention selected by the `UERL_RETENTION` environment
    /// variable (default: totals-only — a fleet session should not grow with its
    /// node's event count).
    pub fn from_env() -> Self {
        crate::knobs::env_choice(
            "UERL_RETENTION",
            &[
                ("", RecordRetention::TotalsOnly),
                ("totals", RecordRetention::TotalsOnly),
                ("full", RecordRetention::Full),
            ],
            RecordRetention::TotalsOnly,
        )
    }
}

/// The accounting state of one *cost lane*: the Equation 3 reference point, the
/// mitigation / UE counters and cost totals, and the (retention-gated) logs — all the
/// parity-critical bookkeeping, with the job sequence and configuration **borrowed at
/// each call** rather than owned.
///
/// A [`NodeSession`] holds one of these for the policy actually being served and one
/// per shadow policy, all sharing the node's single job sequence — which is what keeps
/// counterfactual scoring O(1) per lane and, because every lane runs these same
/// methods, bit-identical to an offline rollout of the same policy.
#[derive(Debug, Clone, Default)]
pub struct CostAccount {
    last_mitigation: Option<SimTime>,
    decision_count: u64,
    mitigation_count: u64,
    total_mitigation_cost: f64,
    ue_count: u64,
    total_ue_cost: f64,
    decisions: Vec<(SimTime, bool)>,
    ue_records: Vec<UeRecord>,
}

impl CostAccount {
    /// A fresh, zeroed account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Potential UE cost (Equation 3) and the running job's node count at instant
    /// `t`, measured from the job start or — when mitigations are restartable — this
    /// lane's last mitigation.
    pub fn potential_cost_at(
        &self,
        jobs: &JobSequence,
        restartable: bool,
        t: SimTime,
    ) -> (f64, u32) {
        cost::potential_cost_at(jobs, self.last_mitigation, restartable, t)
    }

    /// Account one fatal event at time `t` and return its cost: the Equation 3
    /// accrual since this lane's last mitigation (or job start), after which the
    /// mitigation reference is cleared (the node leaves production).
    pub fn account_fatal(
        &mut self,
        jobs: &JobSequence,
        restartable: bool,
        retention: RecordRetention,
        t: SimTime,
    ) -> f64 {
        let (ue_cost, _) = self.potential_cost_at(jobs, restartable, t);
        self.ue_count += 1;
        self.total_ue_cost += ue_cost;
        if retention == RecordRetention::Full {
            self.ue_records.push(UeRecord {
                time: t,
                cost: ue_cost,
            });
        }
        self.last_mitigation = None;
        ue_cost
    }

    /// Apply one resolved decision at time `t`: record it and, if it mitigates, pay
    /// `mitigation_cost_node_hours` and reset the Equation 3 reference point. Returns
    /// the node-hours paid (0 for "do nothing").
    pub fn apply_decision(
        &mut self,
        t: SimTime,
        mitigate: bool,
        mitigation_cost_node_hours: f64,
        retention: RecordRetention,
    ) -> f64 {
        self.decision_count += 1;
        if retention == RecordRetention::Full {
            self.decisions.push((t, mitigate));
        }
        if mitigate {
            self.mitigation_count += 1;
            self.total_mitigation_cost += mitigation_cost_node_hours;
            self.last_mitigation = Some(t);
            mitigation_cost_node_hours
        } else {
            0.0
        }
    }

    /// Decisions applied so far (mitigations plus "do nothing"s).
    pub fn decision_count(&self) -> u64 {
        self.decision_count
    }

    /// Number of mitigation actions taken.
    pub fn mitigation_count(&self) -> u64 {
        self.mitigation_count
    }

    /// Number of "do nothing" decisions taken.
    pub fn non_mitigation_count(&self) -> u64 {
        self.decision_count - self.mitigation_count
    }

    /// Node-hours spent on mitigation actions.
    pub fn total_mitigation_cost(&self) -> f64 {
        self.total_mitigation_cost
    }

    /// Number of fatal events accounted.
    pub fn ue_count(&self) -> u64 {
        self.ue_count
    }

    /// Node-hours lost to fatal events.
    pub fn total_ue_cost(&self) -> f64 {
        self.total_ue_cost
    }

    /// Every decision so far, in event order (empty under totals-only retention).
    pub fn decisions(&self) -> &[(SimTime, bool)] {
        &self.decisions
    }

    /// Every fatal event accounted so far, in event order (empty under totals-only
    /// retention).
    pub fn ue_records(&self) -> &[UeRecord] {
        &self.ue_records
    }

    /// Approximate heap footprint of the logs in bytes.
    pub fn approx_log_bytes(&self) -> usize {
        self.decisions.capacity() * std::mem::size_of::<(SimTime, bool)>()
            + self.ue_records.capacity() * std::mem::size_of::<UeRecord>()
    }
}

/// The outcome of absorbing one event into a [`NodeSession`].
#[derive(Debug, Clone)]
pub enum Observed {
    /// A non-fatal event: the decision request to resolve through the policy.
    Request(StateFeatures),
    /// A fatal event, accounted immediately: the served lane's UE cost and each
    /// shadow lane's counterfactual UE cost (lane order), so a server can fold them
    /// into its running totals in a deterministic order.
    Fatal {
        /// Equation 3 accrual paid by the served lane.
        ue_cost: f64,
        /// Equation 3 accrual each shadow lane paid against its own reference point.
        shadow_ue_costs: Vec<f64>,
    },
}

/// The live state of one node: its incremental feature extractor, its job sequence,
/// the served cost account and one counterfactual account per shadow policy.
///
/// Events are pushed in time order through [`NodeSession::observe`]; each decision
/// request it returns is resolved by the caller and applied back through
/// [`NodeSession::apply_decision`]. A session is O(window) + O(1): the extractor's
/// feature history is a ring buffer bounded by the 1-hour lookback, and with
/// [`RecordRetention::TotalsOnly`] the accounts keep totals instead of per-event logs.
#[derive(Debug, Clone)]
pub struct NodeSession {
    node: NodeId,
    extractor: FeatureExtractor,
    jobs: JobSequence,
    config: MitigationConfig,
    retention: RecordRetention,
    account: CostAccount,
    /// One counterfactual cost lane per shadow policy, all sharing the node's job
    /// sequence (shadow scoring is O(1) per lane, never a second session). Lanes run
    /// the same [`CostAccount`] rules as the served lane, always totals-only.
    shadows: Vec<CostAccount>,
}

impl NodeSession {
    /// Create the session for a node: feature extractor anchored at the window's
    /// start, job sequence drawn from the node's workload seed
    /// ([`node_workload_seed`] — the same `(seed, node id)` contract for every policy,
    /// offline or served), plus `shadow_lanes` zeroed counterfactual cost lanes.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        node: NodeId,
        window_start: SimTime,
        window_end: SimTime,
        config: MitigationConfig,
        seed: u64,
        sampler: &NodeJobSampler,
        retention: RecordRetention,
        shadow_lanes: usize,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(node_workload_seed(seed, node));
        let jobs = sampler.sample_sequence(window_start, window_end, &mut rng);
        Self {
            shadows: vec![CostAccount::new(); shadow_lanes],
            ..Self::with_jobs(node, window_start, jobs, config, retention)
        }
    }

    /// Create the session for a node over an explicit job sequence (the trainer draws
    /// each episode's jobs from its own RNG), with no shadow lanes.
    pub fn with_jobs(
        node: NodeId,
        window_start: SimTime,
        jobs: JobSequence,
        config: MitigationConfig,
        retention: RecordRetention,
    ) -> Self {
        Self {
            node,
            extractor: FeatureExtractor::new(node, window_start),
            jobs,
            config,
            retention,
            account: CostAccount::new(),
            shadows: Vec::new(),
        }
    }

    /// The node this session tracks.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The mitigation configuration.
    pub fn config(&self) -> &MitigationConfig {
        &self.config
    }

    /// The served policy's cost account: counters, cost totals and (under full
    /// retention) the decision / UE logs.
    pub fn account(&self) -> &CostAccount {
        &self.account
    }

    /// The counterfactual cost account of shadow lane `lane`.
    pub fn shadow_account(&self, lane: usize) -> &CostAccount {
        &self.shadows[lane]
    }

    /// Shorthand for `account().mitigation_count()`.
    pub fn mitigation_count(&self) -> u64 {
        self.account.mitigation_count()
    }

    /// Shorthand for `account().total_mitigation_cost()`.
    pub fn total_mitigation_cost(&self) -> f64 {
        self.account.total_mitigation_cost()
    }

    /// Shorthand for `account().total_ue_cost()`.
    pub fn total_ue_cost(&self) -> f64 {
        self.account.total_ue_cost()
    }

    /// Entries currently held in the extractor's feature-history ring buffer
    /// (bounded by the 1-hour lookback window, never by the stream length).
    pub fn history_len(&self) -> usize {
        self.extractor.history_len()
    }

    /// Approximate per-session heap footprint in bytes: the struct itself, the
    /// extractor's ring buffer and location sets, the retained logs (zero under
    /// totals-only retention), the sampled job sequence and the shadow lanes. A
    /// bench-grade estimate.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.extractor.approx_heap_bytes()
            + self.account.approx_log_bytes()
            + self.jobs.len() * std::mem::size_of::<ScheduledJob>()
            + self.shadows.capacity() * std::mem::size_of::<CostAccount>()
    }

    /// Absorb the node's next event (events must arrive in time order).
    ///
    /// A fatal event is accounted immediately — on the served lane and on every
    /// shadow lane against its own Equation 3 reference — and produces no decision;
    /// the costs paid are returned. The accounting comes first and then clears the
    /// mitigation reference, because the node leaves production and returns with fresh
    /// jobs. A non-fatal event updates the (decision-independent) feature state and
    /// returns the [`StateFeatures`] of the new decision request, which the caller
    /// resolves and applies via [`NodeSession::apply_decision`].
    pub fn observe(&mut self, event: &MergedEvent) -> Observed {
        let restartable = self.config.restartable;
        if event.fatal {
            let jobs = &self.jobs;
            let shadow_ue_costs = self
                .shadows
                .iter_mut()
                .map(|lane| {
                    lane.account_fatal(jobs, restartable, RecordRetention::TotalsOnly, event.time)
                })
                .collect();
            let ue_cost =
                self.account
                    .account_fatal(&self.jobs, restartable, self.retention, event.time);
            self.extractor.update(event);
            Observed::Fatal {
                ue_cost,
                shadow_ue_costs,
            }
        } else {
            self.extractor.update(event);
            let (potential, job_nodes) =
                self.account
                    .potential_cost_at(&self.jobs, restartable, event.time);
            Observed::Request(self.extractor.snapshot(potential, job_nodes))
        }
    }

    /// Apply a resolved decision for the request produced at `time`: record it and, if
    /// it mitigates, pay the mitigation cost and reset the cost reference point.
    /// Returns the node-hours paid (0 for "do nothing").
    pub fn apply_decision(&mut self, time: SimTime, mitigate: bool) -> f64 {
        self.account.apply_decision(
            time,
            mitigate,
            self.config.mitigation_cost_node_hours(),
            self.retention,
        )
    }

    /// The counterfactual decision state of shadow lane `lane` for a served request:
    /// the served snapshot with `potential_ue_cost` / `job_nodes` re-derived from the
    /// lane's *own* mitigation reference. Every other feature is decision-independent
    /// (the extractor sees only events), so this state is bit-identical to what an
    /// offline rollout of the shadow policy would have seen at the same event.
    pub fn shadow_state(&self, lane: usize, served: &StateFeatures) -> StateFeatures {
        let (potential, job_nodes) =
            self.shadows[lane].potential_cost_at(&self.jobs, self.config.restartable, served.time);
        let mut state = served.clone();
        state.potential_ue_cost = potential;
        state.job_nodes = job_nodes;
        state
    }

    /// Apply shadow lane `lane`'s own decision for the request produced at `time`.
    /// Returns the node-hours the lane paid (0 for "do nothing").
    pub fn apply_shadow_decision(&mut self, lane: usize, time: SimTime, mitigate: bool) -> f64 {
        self.shadows[lane].apply_decision(
            time,
            mitigate,
            self.config.mitigation_cost_node_hours(),
            RecordRetention::TotalsOnly,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MitigationEnv;
    use crate::event_stream::{NodeTimeline, TimelineSet};
    use uerl_jobs::{JobLogConfig, JobTraceGenerator};
    use uerl_trace::generator::{SyntheticLogConfig, TraceGenerator};
    use uerl_trace::reduction::preprocess;

    fn jobs() -> JobSequence {
        JobSequence::from_jobs(vec![ScheduledJob {
            job_id: 1,
            start: SimTime::ZERO,
            end: SimTime::from_hours(100),
            nodes: 16,
        }])
    }

    /// One cost lane under the paper's default configuration, with its retention.
    struct Lane {
        account: CostAccount,
        config: MitigationConfig,
        retention: RecordRetention,
    }

    impl Lane {
        fn new(retention: RecordRetention) -> Self {
            Self {
                account: CostAccount::new(),
                config: MitigationConfig::paper_default(),
                retention,
            }
        }

        fn potential_cost_at(&self, t: SimTime) -> (f64, u32) {
            self.account
                .potential_cost_at(&jobs(), self.config.restartable, t)
        }

        fn apply_decision(&mut self, t: SimTime, mitigate: bool) -> f64 {
            let cost = self.config.mitigation_cost_node_hours();
            self.account
                .apply_decision(t, mitigate, cost, self.retention)
        }

        fn account_fatal(&mut self, t: SimTime) -> f64 {
            self.account
                .account_fatal(&jobs(), self.config.restartable, self.retention, t)
        }
    }

    #[test]
    fn totals_only_matches_full_on_every_counter_and_cost_bit() {
        let mut full = Lane::new(RecordRetention::Full);
        let mut totals = Lane::new(RecordRetention::TotalsOnly);
        let script: [(i64, bool); 4] = [(60, false), (120, true), (180, false), (240, true)];
        for (minute, mitigate) in script {
            let t = SimTime::from_minutes(minute);
            assert_eq!(
                full.potential_cost_at(t),
                totals.potential_cost_at(t),
                "the cost reference must not depend on retention"
            );
            let a = full.apply_decision(t, mitigate);
            let b = totals.apply_decision(t, mitigate);
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let a = full.account_fatal(SimTime::from_minutes(600));
        let b = totals.account_fatal(SimTime::from_minutes(600));
        assert_eq!(a.to_bits(), b.to_bits());

        let (full, totals) = (&full.account, &totals.account);
        assert_eq!(full.decision_count(), totals.decision_count());
        assert_eq!(full.mitigation_count(), totals.mitigation_count());
        assert_eq!(full.non_mitigation_count(), totals.non_mitigation_count());
        assert_eq!(full.ue_count(), totals.ue_count());
        assert_eq!(
            full.total_mitigation_cost().to_bits(),
            totals.total_mitigation_cost().to_bits()
        );
        assert_eq!(
            full.total_ue_cost().to_bits(),
            totals.total_ue_cost().to_bits()
        );
        assert_eq!(full.decisions().len(), 4);
        assert_eq!(full.ue_records().len(), 1);
        assert!(totals.decisions().is_empty(), "totals-only keeps no logs");
        assert!(totals.ue_records().is_empty());
        assert_eq!(totals.approx_log_bytes(), 0);
    }

    #[test]
    fn fatal_accounting_is_accounted_then_cleared() {
        let mut lane = Lane::new(RecordRetention::Full);
        lane.apply_decision(SimTime::from_minutes(60), true);
        // The fatal at t=10h is measured from the t=1h mitigation: 9 h × 16 nodes.
        let cost = lane.account_fatal(SimTime::from_hours(10));
        assert!((cost - 144.0).abs() < 1e-9);
        // The reference was cleared, so a later fatal measures from the job start.
        let cost = lane.account_fatal(SimTime::from_hours(20));
        assert!((cost - 320.0).abs() < 1e-9);
        assert_eq!(lane.account.ue_count(), 2);
    }

    #[test]
    fn retention_parses_like_the_other_knobs() {
        assert_eq!(RecordRetention::parse("full"), RecordRetention::Full);
        assert_eq!(
            RecordRetention::parse("totals"),
            RecordRetention::TotalsOnly
        );
        assert_eq!(RecordRetention::parse(""), RecordRetention::TotalsOnly);
        assert!(std::panic::catch_unwind(|| RecordRetention::parse("nope")).is_err());
    }

    /// Pushing a timeline through a session must reproduce the evaluation-mode
    /// environment bit-for-bit under any fixed decision rule — under full retention
    /// (log-for-log) and totals-only retention (every counter and cost bit).
    #[test]
    fn pushed_session_matches_the_pull_mode_environment_bit_for_bit() {
        let log = TraceGenerator::new(SyntheticLogConfig::small(20, 60, 5)).generate();
        let timelines = TimelineSet::from_log(&preprocess(&log));
        let jobs = JobTraceGenerator::new(JobLogConfig::small(64, 30, 5)).generate();
        let sampler = NodeJobSampler::from_log(&jobs);
        let config = MitigationConfig::paper_default();
        let seed = 77u64;
        // A state-dependent (but policy-free) decision rule exercises both branches.
        let rule = |s: &StateFeatures| s.potential_ue_cost > 10.0;

        for timeline in timelines.timelines() {
            let env = replay_offline(timeline, &sampler, config, seed, rule);
            let offline = env.session().account();
            let replay = |retention: RecordRetention| {
                let mut session = NodeSession::new(
                    timeline.node(),
                    timeline.window_start(),
                    timeline.window_end(),
                    config,
                    seed,
                    &sampler,
                    retention,
                    0,
                );
                for event in timeline.events() {
                    if let Observed::Request(state) = session.observe(event) {
                        let mitigate = rule(&state);
                        session.apply_decision(state.time, mitigate);
                    }
                }
                session
            };

            for retention in [RecordRetention::Full, RecordRetention::TotalsOnly] {
                let session = replay(retention);
                let served = session.account();
                assert_eq!(served.mitigation_count(), offline.mitigation_count());
                assert_eq!(
                    served.non_mitigation_count(),
                    offline.non_mitigation_count()
                );
                assert_eq!(served.ue_count(), offline.ue_count());
                assert_eq!(
                    served.total_mitigation_cost().to_bits(),
                    offline.total_mitigation_cost().to_bits(),
                    "mitigation cost diverged on node {:?}",
                    timeline.node()
                );
                assert_eq!(
                    served.total_ue_cost().to_bits(),
                    offline.total_ue_cost().to_bits(),
                    "UE cost diverged on node {:?}",
                    timeline.node()
                );
                match retention {
                    RecordRetention::Full => {
                        assert_eq!(served.decisions(), offline.decisions());
                        assert_eq!(served.ue_records(), offline.ue_records());
                    }
                    RecordRetention::TotalsOnly => {
                        assert!(served.decisions().is_empty());
                        assert!(served.ue_records().is_empty());
                    }
                }
            }
        }
    }

    fn replay_offline(
        timeline: &NodeTimeline,
        sampler: &NodeJobSampler,
        config: MitigationConfig,
        seed: u64,
        rule: impl Fn(&StateFeatures) -> bool,
    ) -> MitigationEnv {
        let mut rng = StdRng::seed_from_u64(node_workload_seed(seed, timeline.node()));
        let sequence =
            sampler.sample_sequence(timeline.window_start(), timeline.window_end(), &mut rng);
        let mut env = MitigationEnv::new(timeline.clone(), sequence, config, false);
        let mut state = env.reset();
        while let Some(s) = state {
            let outcome = env.step(rule(&s));
            state = outcome.next_state;
        }
        env
    }
}
