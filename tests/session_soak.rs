//! Long-stream soak: a single node served continuously for two years must keep its
//! session O(window) — the feature-history ring buffer bounded by the 1-hour lookback
//! and, under totals-only retention, an accounting footprint that stops growing once
//! warm — while staying **bit-identical** to the offline environment's rollout of the
//! same timeline. The bound is asserted at every event, so a regression that lets the
//! history grow with the stream (the pre-ring-buffer behavior) fails immediately.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uerl::core::event_stream::NodeTimeline;
use uerl::core::state::StateFeatures;
use uerl::core::{MitigationConfig, MitigationEnv};
use uerl::jobs::schedule::{node_workload_seed, NodeJobSampler};
use uerl::jobs::{JobLogConfig, JobTraceGenerator};
use uerl::serve::{NodeSession, Observed, RecordRetention};
use uerl::trace::events::{CeDetail, Detector};
use uerl::trace::log::MergedEvent;
use uerl::trace::types::{CellLocation, DimmId, NodeId, SimTime};

const NODE: NodeId = NodeId(42);
const SEED: u64 = 9090;
/// One event every 7 minutes for ~2 years.
const EVENT_GAP_SECS: i64 = 7 * 60;
const SOAK_DAYS: i64 = 730;
/// At one event per 7 minutes, a 1-hour window holds at most ⌈3600/420⌉ = 9 events;
/// plus the sentinel the ring buffer may keep 10.
const HISTORY_BOUND: usize = 3600 / EVENT_GAP_SECS as usize + 2;

/// Deterministic two-year event stream: steady CE traffic cycling over a fixed
/// 64-cell location pool (so the distinct-location sets saturate instead of growing),
/// a boot roughly every 997 events and a fatal roughly every 5000.
fn soak_stream() -> Vec<MergedEvent> {
    let end = SimTime::from_days(SOAK_DAYS);
    let mut events = Vec::new();
    let mut t = EVENT_GAP_SECS;
    let mut k = 0usize;
    while t < end.0 {
        let cell = k % 64;
        let fatal = k % 5000 == 4999;
        events.push(MergedEvent {
            time: SimTime(t),
            node: NODE,
            ce_count: (k % 3 + 1) as u32,
            ce_details: vec![CeDetail {
                dimm: DimmId::new(NODE, (cell % 4) as u8),
                location: CellLocation::new(
                    (cell % 2) as u8,
                    (cell % 8) as u8,
                    (cell / 8) as u32,
                    (cell % 16) as u32,
                ),
                detector: Detector::DemandRead,
            }],
            ue_warnings: u32::from(k.is_multiple_of(1471)),
            boots: u32::from(k % 997 == 996),
            retired_slots: Vec::new(),
            fatal,
            ue_detector: None,
        });
        t += EVENT_GAP_SECS;
        k += 1;
    }
    events
}

fn sampler() -> NodeJobSampler {
    let jobs = JobTraceGenerator::new(JobLogConfig::small(64, 30, 11)).generate();
    NodeJobSampler::from_log(&jobs)
}

/// The same policy-free, state-dependent rule the session parity tests use: it
/// exercises both decision branches without dragging a trained model into the soak.
fn rule(s: &StateFeatures) -> bool {
    s.potential_ue_cost > 10.0
}

fn replay_session(events: &[MergedEvent], retention: RecordRetention) -> (NodeSession, usize) {
    let sampler = sampler();
    let mut session = NodeSession::new(
        NODE,
        SimTime::ZERO,
        SimTime::from_days(SOAK_DAYS),
        MitigationConfig::paper_default(),
        SEED,
        &sampler,
        retention,
        0,
    );
    let mut max_history = 0usize;
    for event in events {
        if let Observed::Request(state) = session.observe(event) {
            let mitigate = rule(&state);
            session.apply_decision(state.time, mitigate);
        }
        max_history = max_history.max(session.history_len());
        assert!(
            session.history_len() <= HISTORY_BOUND,
            "history grew to {} entries at t={}s — the ring buffer is not O(window)",
            session.history_len(),
            event.time.0
        );
    }
    (session, max_history)
}

#[test]
fn two_year_session_stays_bounded_and_bit_identical_to_offline() {
    let events = soak_stream();
    assert!(events.len() > 140_000, "the soak must be a long stream");

    // Offline reference: the environment's timeline cursor (which pulls the same
    // session through reset/step) over the identical timeline, workload and decision
    // rule (full retention, no termination on fatals).
    let sampler = sampler();
    let mut rng = StdRng::seed_from_u64(node_workload_seed(SEED, NODE));
    let sequence = sampler.sample_sequence(SimTime::ZERO, SimTime::from_days(SOAK_DAYS), &mut rng);
    let timeline = NodeTimeline::new(
        NODE,
        SimTime::ZERO,
        SimTime::from_days(SOAK_DAYS),
        events.clone(),
    );
    let mut env = MitigationEnv::new(timeline, sequence, MitigationConfig::paper_default(), false);
    let mut state = env.reset();
    while let Some(s) = state {
        let outcome = env.step(rule(&s));
        state = outcome.next_state;
    }
    let offline = env.session().account();
    assert!(
        offline.ue_count() > 10,
        "the soak must contain fatal events"
    );
    assert!(
        offline.mitigation_count() > 0 && offline.non_mitigation_count() > 0,
        "the soak must exercise both decision branches"
    );

    let (session, max_history) = replay_session(&events, RecordRetention::Full);
    assert!(
        max_history <= HISTORY_BOUND,
        "peak history {max_history} exceeds the window bound {HISTORY_BOUND}"
    );
    let served = session.account();
    assert_eq!(served.decision_count(), offline.decision_count());
    assert_eq!(served.mitigation_count(), offline.mitigation_count());
    assert_eq!(
        served.non_mitigation_count(),
        offline.non_mitigation_count()
    );
    assert_eq!(served.ue_count(), offline.ue_count());
    assert_eq!(
        served.total_mitigation_cost().to_bits(),
        offline.total_mitigation_cost().to_bits(),
        "two-year mitigation cost diverged from the offline rollout"
    );
    assert_eq!(
        served.total_ue_cost().to_bits(),
        offline.total_ue_cost().to_bits(),
        "two-year UE cost diverged from the offline rollout"
    );
    assert_eq!(served.decisions(), offline.decisions());
    assert_eq!(served.ue_records(), offline.ue_records());
}

#[test]
fn totals_only_soak_footprint_stops_growing_after_warmup() {
    let events = soak_stream();
    let mid = events.len() / 2;

    // Replay the first half, note the footprint, replay the rest: by mid-stream the
    // ring buffer, the 64-cell location sets and the job sequence are all saturated,
    // so another year of events must not add a single byte.
    let sampler = sampler();
    let mut session = NodeSession::new(
        NODE,
        SimTime::ZERO,
        SimTime::from_days(SOAK_DAYS),
        MitigationConfig::paper_default(),
        SEED,
        &sampler,
        RecordRetention::TotalsOnly,
        0,
    );
    let drive = |chunk: &[MergedEvent], session: &mut NodeSession| {
        for event in chunk {
            if let Observed::Request(state) = session.observe(event) {
                let mitigate = rule(&state);
                session.apply_decision(state.time, mitigate);
            }
        }
    };
    drive(&events[..mid], &mut session);
    let warm_bytes = session.approx_bytes();
    let warm_history = session.history_len();
    drive(&events[mid..], &mut session);

    assert!(
        session.approx_bytes() <= warm_bytes,
        "footprint grew from {} to {} bytes over the second year",
        warm_bytes,
        session.approx_bytes()
    );
    assert!(session.history_len() <= HISTORY_BOUND);
    assert!(
        warm_history <= HISTORY_BOUND,
        "mid-stream history {warm_history} already exceeded the bound"
    );
    let account = session.account();
    assert!(
        account.decisions().is_empty() && account.ue_records().is_empty(),
        "totals-only must keep no per-event logs"
    );
    assert!(account.decision_count() > 100_000);
    // The footprint is dominated by the two-year job schedule, which is sampled up
    // front and never grows (~85 KB here); the ring buffer and location sets are a
    // few KB. The bound guards against any per-event accumulation creeping back in.
    assert!(
        session.approx_bytes() < 128 * 1024,
        "a two-year totals-only session must stay under 128 KiB, got {}",
        session.approx_bytes()
    );
}
