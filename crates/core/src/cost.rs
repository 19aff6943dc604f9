//! The cost model: Equation 3 (potential UE cost) and Equation 4 (reward).
//!
//! All costs are expressed in **node-hours**: the sum across all the job's nodes of the
//! wallclock time that would be (or was) lost.

use uerl_jobs::schedule::JobSequence;
use uerl_trace::types::SimTime;

/// Equation 3 evaluated against a node's job sequence: the potential UE cost and the
/// running job's node count at instant `t`.
///
/// The cost reference point is the running job's start or — when mitigations are
/// restartable and a mitigation happened after that start — the last mitigation. With
/// no job running at `t`, nothing can be lost: `(0.0, 1)`.
///
/// This is the **single** implementation of the reference-point rule: every cost lane
/// of a [`crate::session_core::NodeSession`] — which training, evaluation and serving
/// all run — calls it, which is what keeps served costs bit-identical to evaluated
/// ones by construction.
pub fn potential_cost_at(
    jobs: &JobSequence,
    last_mitigation: Option<SimTime>,
    restartable: bool,
    t: SimTime,
) -> (f64, u32) {
    match jobs.job_at(t) {
        None => (0.0, 1),
        Some(job) => {
            let reference = if restartable {
                match last_mitigation {
                    Some(m) if m > job.start => m,
                    _ => job.start,
                }
            } else {
                job.start
            };
            let hours = t.delta_secs(reference).max(0) as f64 / SimTime::HOUR as f64;
            (ue_cost(job.nodes, hours), job.nodes)
        }
    }
}

/// Equation 3: the potential cost of an uncorrected error striking *now*, in node-hours.
///
/// `nodes` is the number of nodes allocated to the running job and
/// `lost_wallclock_hours` is the wallclock time that would be lost — the time since the
/// job started or, if the mitigation allows restart, since the last mitigation point.
pub fn ue_cost(nodes: u32, lost_wallclock_hours: f64) -> f64 {
    nodes as f64 * lost_wallclock_hours.max(0.0)
}

/// Equation 4: the (negative) reward of an action.
///
/// `mitigated` is whether the agent requested a mitigation (action `a`),
/// `mitigation_cost_node_hours` the cost of that action, `ue_occurred` whether an
/// uncorrected error followed before the next decision point, and `ue_cost_node_hours`
/// the Equation-3 cost evaluated at the UE's timestamp.
pub fn reward(
    mitigated: bool,
    mitigation_cost_node_hours: f64,
    ue_occurred: bool,
    ue_cost_node_hours: f64,
) -> f64 {
    let a = if mitigated { 1.0 } else { 0.0 };
    let ue = if ue_occurred { 1.0 } else { 0.0 };
    -a * mitigation_cost_node_hours - ue * ue_cost_node_hours
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ue_cost_is_nodes_times_hours() {
        assert_eq!(ue_cost(16, 2.5), 40.0);
        assert_eq!(ue_cost(1, 0.0), 0.0);
        assert_eq!(
            ue_cost(100, -5.0),
            0.0,
            "negative elapsed time clamps to zero"
        );
    }

    #[test]
    fn reward_components() {
        let mit_cost = 2.0 / 60.0;
        // No mitigation, no UE: zero reward.
        assert_eq!(reward(false, mit_cost, false, 0.0), 0.0);
        // Mitigation only: pay the mitigation cost.
        assert!((reward(true, mit_cost, false, 0.0) + mit_cost).abs() < 1e-12);
        // UE only: pay the UE cost.
        assert_eq!(reward(false, mit_cost, true, 500.0), -500.0);
        // Both: pay both (the mitigation did not prevent this UE's accrued cost).
        assert!((reward(true, mit_cost, true, 500.0) + 500.0 + mit_cost).abs() < 1e-12);
    }

    #[test]
    fn rewards_are_never_positive() {
        for &(m, u, c) in &[(false, false, 0.0), (true, false, 0.0), (true, true, 123.0)] {
            assert!(reward(m, 0.5, u, c) <= 0.0);
        }
    }
}
