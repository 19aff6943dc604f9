//! Workload inputs, all derived from the run's seed: the synthetic fleets, the job
//! sampler, the replicated burst fleet and the shape of a merged event stream.

use uerl::core::event_stream::{NodeTimeline, TimelineSet};
use uerl::jobs::schedule::NodeJobSampler;
use uerl::jobs::{JobLogConfig, JobTraceGenerator};
use uerl::trace::generator::{SyntheticLogConfig, TraceGenerator};
use uerl::trace::log::MergedEvent;
use uerl::trace::reduction::preprocess;
use uerl::trace::types::{NodeId, SimTime};

/// A tick this large or larger fills a whole serving micro-batch and crosses the
/// server's parallel fan-out threshold.
pub const FULL_TICK: usize = 64;

/// The preprocessed timelines of a `SyntheticLogConfig::small` fleet.
pub fn synthetic_fleet(nodes: u32, days: i64, seed: u64) -> TimelineSet {
    let log = TraceGenerator::new(SyntheticLogConfig::small(nodes, days, seed)).generate();
    TimelineSet::from_log(&preprocess(&log))
}

/// Events of the paper-net fleet: the first of a 600-node, one-year fleet.
const PAPER_NET_EVENTS: usize = 80_000;

/// The fleet `serve_paper_net` serves and `train_paper_net` trains on.
pub fn paper_net_fleet(seed: u64) -> TimelineSet {
    first_events(&synthetic_fleet(600, 365, seed), PAPER_NET_EVENTS)
}

/// The fleet cut short before the timestamp of its `events`-th event (counting from
/// zero, in time order): every timeline is sliced to `[start, t)`, which also becomes
/// the set's window, so the cut fleet stays servable with parity. A fleet with no
/// more than `events` events is returned whole.
///
/// Cutting to a fixed event count keeps a workload's size, and with it the work and
/// the memory of a run, the same for every seed.
pub fn first_events(timelines: &TimelineSet, events: usize) -> TimelineSet {
    let mut times: Vec<SimTime> = timelines
        .timelines()
        .iter()
        .flat_map(|t| t.events().iter().map(|e| e.time))
        .collect();
    if times.len() <= events {
        return timelines.clone();
    }
    let (_, &mut cut, _) = times.select_nth_unstable(events);
    timelines.slice(timelines.window_start(), cut)
}

/// The job sampler every workload draws per-node job sequences from.
pub fn job_sampler(seed: u64) -> NodeJobSampler {
    NodeJobSampler::from_log(
        &JobTraceGenerator::new(JobLogConfig::small(512, 180, seed)).generate(),
    )
}

/// `copies` copies of a fleet under distinct node ids: copy `c` of node `n` becomes
/// node `c * stride + n`, where `stride` exceeds every id of the base fleet. Every
/// timeline keeps the set's window, so the result is servable with parity, and the
/// timelines stay in node-id order.
pub fn replicate(base: &TimelineSet, copies: u32) -> TimelineSet {
    let stride = base
        .timelines()
        .iter()
        .map(|t| t.node().0 + 1)
        .max()
        .unwrap_or(1);
    let timelines = (0..copies)
        .flat_map(|copy| {
            base.timelines().iter().map(move |t| {
                let node = NodeId(copy * stride + t.node().0);
                let events = t
                    .events()
                    .iter()
                    .map(|e| MergedEvent { node, ..e.clone() })
                    .collect();
                NodeTimeline::new(node, base.window_start(), base.window_end(), events)
            })
        })
        .collect();
    TimelineSet::from_timelines(base.window_start(), base.window_end(), timelines)
}

/// The tick structure of a merged stream (a tick = the events sharing one timestamp).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Events in the stream.
    pub events: usize,
    /// Ticks in the stream.
    pub ticks: usize,
    /// Mean events per tick.
    pub tick_events_mean: f64,
    /// Share of ticks holding a single event.
    pub single_event_tick_share: f64,
    /// Share of events that sit in ticks of at least [`FULL_TICK`] events.
    pub events_in_full_ticks_share: f64,
    /// Events in the first tick (every node's first event at the window start).
    pub boot_tick_events: usize,
}

/// Measure the tick structure of a time-ordered stream.
pub fn shape(stream: &[MergedEvent]) -> Shape {
    let mut sizes = Vec::new();
    for (i, event) in stream.iter().enumerate() {
        if i == 0 || event.time != stream[i - 1].time {
            sizes.push(0usize);
        }
        *sizes.last_mut().expect("a tick was opened") += 1;
    }
    let ticks = sizes.len().max(1) as f64;
    let events = stream.len().max(1) as f64;
    Shape {
        events: stream.len(),
        ticks: sizes.len(),
        tick_events_mean: stream.len() as f64 / ticks,
        single_event_tick_share: sizes.iter().filter(|&&s| s == 1).count() as f64 / ticks,
        events_in_full_ticks_share: sizes.iter().filter(|&&s| s >= FULL_TICK).sum::<usize>() as f64
            / events,
        boot_tick_events: sizes.first().copied().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use uerl::core::MitigationConfig;
    use uerl::serve::{merged_fleet_stream, ServeConfig};

    #[test]
    fn replicated_fleet_has_distinct_ids_set_windows_and_full_ticks() {
        let base = synthetic_fleet(12, 30, 5);
        let copies = 64;
        let fleet = replicate(&base, copies);
        assert_eq!(fleet.len(), base.len() * copies as usize);
        let ids: BTreeSet<u32> = fleet.timelines().iter().map(|t| t.node().0).collect();
        assert_eq!(ids.len(), fleet.len(), "node ids must be distinct");
        assert!(
            fleet
                .timelines()
                .windows(2)
                .all(|w| w[0].node() < w[1].node()),
            "timelines stay in node-id order"
        );
        for t in fleet.timelines() {
            assert_eq!(t.window_start(), fleet.window_start());
            assert_eq!(t.window_end(), fleet.window_end());
            assert!(t.events().iter().all(|e| e.node == t.node()));
        }
        // The serving constructor asserts every window equals the set's.
        let _ = ServeConfig::for_timelines(&fleet, MitigationConfig::paper_default(), 5);
        let shape = shape(&merged_fleet_stream(&fleet));
        assert!(shape.tick_events_mean >= FULL_TICK as f64, "{shape:?}");
        assert_eq!(shape.events_in_full_ticks_share, 1.0);
        assert_eq!(shape.boot_tick_events % copies as usize, 0);
    }

    #[test]
    fn first_events_cuts_every_timeline_at_one_time() {
        let fleet = synthetic_fleet(12, 30, 5);
        let total: usize = fleet.timelines().iter().map(|t| t.len()).sum();
        let cut = first_events(&fleet, total / 2);
        let kept: usize = cut.timelines().iter().map(|t| t.len()).sum();
        assert!(kept <= total / 2 && kept > 0, "{kept} of {total}");
        assert!(cut.window_end() < fleet.window_end());
        for t in cut.timelines() {
            assert_eq!(
                (t.window_start(), t.window_end()),
                (cut.window_start(), cut.window_end())
            );
            assert!(t.events().iter().all(|e| e.time < cut.window_end()));
        }
        let _ = ServeConfig::for_timelines(&cut, MitigationConfig::paper_default(), 5);
        assert_eq!(first_events(&fleet, total), fleet);
    }

    #[test]
    fn shape_counts_ticks() {
        let base = synthetic_fleet(12, 30, 5);
        let mut stream = merged_fleet_stream(&base);
        stream.truncate(5);
        let times: Vec<_> = stream.iter().map(|e| e.time).collect();
        let ticks = 1 + times.windows(2).filter(|w| w[0] != w[1]).count();
        let s = shape(&stream);
        assert_eq!(s.events, 5);
        assert_eq!(s.ticks, ticks);
        assert!((s.tick_events_mean - 5.0 / ticks as f64).abs() < 1e-12);
        assert_eq!(shape(&[]).ticks, 0);
    }
}
