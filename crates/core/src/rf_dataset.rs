//! Supervised training-set construction for the SC20-RF baseline.
//!
//! The random-forest baseline is a classical supervised predictor: every non-fatal event
//! becomes one sample whose features are the Table 1 error features (without the
//! potential UE cost — SC20-RF is workload-blind) and whose label is "a fatal event
//! follows on this node within the prediction window" (one day, as in the original SC'20
//! study).

use crate::config::MitigationConfig;
use crate::event_stream::TimelineSet;
use crate::session_core::{NodeSession, Observed, RecordRetention};
use uerl_forest::Dataset;
use uerl_jobs::schedule::JobSequence;
use uerl_trace::types::{NodeId, SimTime};

/// Metadata for one sample of the RF dataset: which node/event it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleOrigin {
    /// Node the sample belongs to.
    pub node: NodeId,
    /// Timestamp of the event the sample was extracted at.
    pub time: SimTime,
}

/// Build the supervised dataset for the RF baseline from a set of timelines.
///
/// Returns the dataset together with the per-sample origins (used by the evaluation
/// harness to map predictions back to events). `prediction_window` is the look-ahead in
/// seconds within which a fatal event makes the label positive (the paper uses one day).
pub fn build_rf_dataset(
    timelines: &TimelineSet,
    prediction_window: i64,
) -> (Dataset, Vec<SampleOrigin>) {
    let mut dataset = Dataset::new();
    let mut origins = Vec::new();
    for timeline in timelines.timelines() {
        let fatal_times: Vec<SimTime> = timeline
            .events()
            .iter()
            .filter(|e| e.fatal)
            .map(|e| e.time)
            .collect();
        // Workload-blind: a session with no jobs sees a potential UE cost of zero.
        let mut session = NodeSession::with_jobs(
            timeline.node(),
            timeline.window_start(),
            JobSequence::from_jobs(Vec::new()),
            MitigationConfig::paper_default(),
            RecordRetention::TotalsOnly,
        );
        for event in timeline.events() {
            let Observed::Request(state) = session.observe(event) else {
                continue;
            };
            let label = fatal_times
                .iter()
                .any(|&t| t > event.time && t.delta_secs(event.time) <= prediction_window);
            dataset.push(state.to_error_vector(), label);
            origins.push(SampleOrigin {
                node: timeline.node(),
                time: event.time,
            });
        }
    }
    (dataset, origins)
}

/// [`build_rf_dataset`] with the paper's one-day prediction window.
pub fn build_rf_dataset_1day(timelines: &TimelineSet) -> (Dataset, Vec<SampleOrigin>) {
    build_rf_dataset(timelines, SimTime::DAY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_stream::NodeTimeline;
    use uerl_trace::log::MergedEvent;

    fn merged(node: u32, minute: i64, fatal: bool) -> MergedEvent {
        MergedEvent {
            time: SimTime::from_minutes(minute),
            node: NodeId(node),
            ce_count: 2,
            ce_details: Vec::new(),
            ue_warnings: 0,
            boots: 0,
            retired_slots: Vec::new(),
            fatal,
            ue_detector: None,
        }
    }

    fn set(timelines: Vec<NodeTimeline>) -> TimelineSet {
        TimelineSet::from_timelines(SimTime::ZERO, SimTime::from_days(10), timelines)
    }

    #[test]
    fn labels_follow_the_prediction_window() {
        // Node 1: CE at minute 10 (UE at minute 100 is within 1 day -> positive),
        //         CE at minute 2000 (next UE at minute 5000 is > 1 day away -> negative),
        //         UE at minute 100 and UE at minute 5000 are skipped as samples.
        let tl = NodeTimeline::new(
            NodeId(1),
            SimTime::ZERO,
            SimTime::from_days(10),
            vec![
                merged(1, 10, false),
                merged(1, 100, true),
                merged(1, 2000, false),
                merged(1, 5000, true),
            ],
        );
        let (data, origins) = build_rf_dataset_1day(&set(vec![tl]));
        assert_eq!(data.len(), 2);
        assert_eq!(origins.len(), 2);
        assert!(data.label_of(0), "UE 90 minutes later is inside the window");
        assert!(
            !data.label_of(1),
            "UE 50 hours later is outside the 1-day window"
        );
        assert_eq!(origins[0].time, SimTime::from_minutes(10));
    }

    #[test]
    fn fatal_events_are_not_samples() {
        let tl = NodeTimeline::new(
            NodeId(2),
            SimTime::ZERO,
            SimTime::from_days(10),
            vec![merged(2, 10, true), merged(2, 20, true)],
        );
        let (data, origins) = build_rf_dataset_1day(&set(vec![tl]));
        assert!(data.is_empty());
        assert!(origins.is_empty());
    }

    #[test]
    fn feature_dimension_matches_error_vector() {
        let tl = NodeTimeline::new(
            NodeId(1),
            SimTime::ZERO,
            SimTime::from_days(10),
            vec![merged(1, 10, false)],
        );
        let (data, _) = build_rf_dataset_1day(&set(vec![tl]));
        assert_eq!(data.n_features(), crate::state::STATE_DIM - 1);
    }

    #[test]
    fn window_length_changes_labels() {
        let tl = NodeTimeline::new(
            NodeId(1),
            SimTime::ZERO,
            SimTime::from_days(10),
            vec![merged(1, 10, false), merged(1, 10 + 3 * 60, true)],
        );
        // 3 hours to the UE: positive with a 1-day window, negative with a 1-hour window.
        let (wide, _) = build_rf_dataset(&set(vec![tl.clone()]), SimTime::DAY);
        let (narrow, _) = build_rf_dataset(&set(vec![tl]), SimTime::HOUR);
        assert!(wide.label_of(0));
        assert!(!narrow.label_of(0));
    }

    #[test]
    fn multiple_nodes_contribute_samples() {
        let a = NodeTimeline::new(
            NodeId(1),
            SimTime::ZERO,
            SimTime::from_days(10),
            vec![merged(1, 10, false)],
        );
        let b = NodeTimeline::new(
            NodeId(2),
            SimTime::ZERO,
            SimTime::from_days(10),
            vec![merged(2, 20, false), merged(2, 30, false)],
        );
        let (data, origins) = build_rf_dataset_1day(&set(vec![a, b]));
        assert_eq!(data.len(), 3);
        assert_eq!(origins.iter().filter(|o| o.node == NodeId(2)).count(), 2);
    }
}
