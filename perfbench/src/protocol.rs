//! The evaluation-protocol workload: `Evaluator::evaluate` over the nested
//! cross-validation splits of a fixed set of small synthetic fleets, plus a traced pass
//! that composes the same public pieces per split and times each.

use std::sync::Arc;
use std::time::Instant;

use rayon::prelude::*;
use uerl::core::policies::{
    AlwaysMitigate, MyopicRfPolicy, NeverMitigate, OraclePolicy, ThresholdRfPolicy,
};
use uerl::core::policy::MitigationPolicy;
use uerl::core::rf_dataset::build_rf_dataset_1day;
use uerl::core::state::STATE_DIM;
use uerl::core::trainer::TRAIN_COST_SECONDS_PER_STEP;
use uerl::eval::evaluator::{rl_hyper_search, POLICY_ORDER};
use uerl::eval::run::{run_policy, PolicyRun};
use uerl::eval::{
    nested_splits, EvalBudget, EvaluationResult, Evaluator, ExperimentContext, SplitSpec,
};
use uerl::forest::{RandomForest, RandomForestConfig};
use uerl::jobs::schedule::NodeJobSampler;

use crate::report::{median, peak_rss_mb, timed_setup, Outcome};

/// Fleets one run evaluates, each drawn from the seed. A fleet's protocol time
/// depends on which search candidates its data lets survive, so a run sums over
/// several fleets; their number is fixed, so a run's work is set by its seed alone.
const FLEETS: u64 = 8;

/// How many times set-up (building every fleet's context) is repeated in one run
/// (the median is reported).
const SETUP_REPEATS: usize = 5;

/// The protocol's own seed (hyperparameter draws, candidate training, job sequences
/// of the replays). It is fixed so that every run searches the same candidates: the
/// sampled batch size and `train_every` set the cost of a training step, and letting
/// them follow the workload seed changed the protocol's time by up to 1.9x between
/// seeds.
const PROTOCOL_SEED: u64 = 2024;

/// One fleet's context: 200 nodes and 180 days at the laptop budget with 150 RL
/// episodes (a ~3 s protocol), with the protocol seed fixed.
fn context(fleet_seed: u64) -> ExperimentContext {
    let budget = EvalBudget {
        rl_episodes: 150,
        ..EvalBudget::laptop()
    };
    ExperimentContext {
        seed: PROTOCOL_SEED,
        ..ExperimentContext::synthetic_small(200, 180, budget, fleet_seed)
    }
}

/// The contexts of every fleet a run evaluates (the first fleet's seed is the run's).
fn setup(seed: u64) -> Vec<ExperimentContext> {
    (0..FLEETS)
        .map(|i| context(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect()
}

/// The headline quality of a result: RL's total cost below Never-mitigate and above
/// Oracle, in percent.
fn quality(result: &EvaluationResult) -> (f64, f64) {
    let never = result.total_cost_of("Never-mitigate");
    let rl = result.total_cost_of("RL");
    let oracle = result.total_cost_of("Oracle");
    ((never - rl) / never * 100.0, (rl - oracle) / oracle * 100.0)
}

/// Environment steps the RL hyperparameter searches of a result trained. Each split's
/// RL run carries the search's training cost, charged at a fixed cost per step, on
/// top of its mitigation actions, which all cost the same.
fn search_steps(ctx: &ExperimentContext, result: &EvaluationResult) -> f64 {
    let action = ctx.mitigation.mitigation_cost_node_hours();
    let rl = POLICY_ORDER
        .iter()
        .position(|&p| p == "RL")
        .expect("RL is evaluated");
    result
        .per_split
        .iter()
        .map(|split| {
            let run = &split.runs[rl];
            let training = run.mitigation_cost - run.mitigations as f64 * action;
            (training * 3600.0 / TRAIN_COST_SECONDS_PER_STEP).round()
        })
        .sum()
}

/// Run the protocol workload: rounds of one protocol per fleet. Another round starts
/// only while it should end within `seconds`; at least one round runs.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let (contexts, setup_s) = timed_setup(SETUP_REPEATS, || setup(seed));

    let mut rounds = Vec::new();
    let mut first_fleet = Vec::new();
    let mut peak_rss = None;
    let mut results: Vec<EvaluationResult> = Vec::new();
    let start = Instant::now();
    loop {
        let mut round = 0.0;
        for (i, ctx) in contexts.iter().enumerate() {
            let t0 = Instant::now();
            let result = Evaluator::new().evaluate(ctx);
            let wall = t0.elapsed().as_secs_f64();
            round += wall;
            if i == 0 {
                first_fleet.push(wall);
            }
            peak_rss.get_or_insert_with(peak_rss_mb);
            outcome.ops("splits_evaluated", result.per_split.len() as u64);
            let cost = |p: &str| result.total_cost_of(p);
            outcome.check(
                "oracle_le_rl_le_never",
                cost("Oracle") <= cost("RL") && cost("RL") <= cost("Never-mitigate"),
                || {
                    format!(
                        "Oracle {} RL {} Never {}",
                        cost("Oracle"),
                        cost("RL"),
                        cost("Never-mitigate")
                    )
                },
            );
            match results.get(i) {
                Some(earlier) => outcome.check("rounds_agree", *earlier == result, || {
                    format!("fleet {i} changed result between rounds")
                }),
                None => {
                    let (below_never, above_oracle) = quality(&result);
                    outcome.note(format!(
                        "quality fleet={i} rl_below_never_pct={below_never:.2} \
                         rl_above_oracle_pct={above_oracle:.2}"
                    ));
                    results.push(result);
                }
            }
        }
        rounds.push(round);
        if start.elapsed().as_secs_f64() + round > seconds {
            break;
        }
    }
    outcome.note(format!("rounds_s {rounds:?} fleets {FLEETS}"));
    let round = median(&rounds);
    outcome.metric("setup_s", median(&setup_s), "s");
    outcome.note(format!("setup_s {setup_s:?}"));
    outcome.metric("throughput_per_s", FLEETS as f64 / round, "1/s");
    outcome.metric("peak_rss_mb", peak_rss.expect("one fleet ran"), "MB");
    outcome.metric("eval.protocol_s", round / FLEETS as f64, "s");
    if !trace {
        return outcome;
    }

    let (ctx, result) = (&contexts[0], &results[0]);
    let wall = median(&first_fleet);
    let (below_never, above_oracle) = quality(result);
    outcome.metric("eval.cost_reduction_vs_never_pct", below_never, "%");
    outcome.metric("eval.excess_over_oracle_pct", above_oracle, "%");

    // Thread-count independence: the whole protocol again on one thread.
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the scoped thread-count override is infallible");
    let t0 = Instant::now();
    let serial = one.install(|| Evaluator::new().evaluate(ctx));
    outcome.metric("eval.protocol_1thread_s", t0.elapsed().as_secs_f64(), "s");
    outcome.check("quality_identical_at_1_thread", serial == *result, || {
        format!(
            "1 thread: {:?}, {} threads: {:?}",
            quality(&serial),
            rayon::current_num_threads(),
            quality(result)
        )
    });

    // The traced composition, split-parallel like the evaluator.
    let sampler = ctx.job_sampler(1.0);
    let splits = nested_splits(
        ctx.timelines.window_start(),
        ctx.timelines.window_end(),
        ctx.budget.cv_parts,
    );
    let t0 = Instant::now();
    let traced: Vec<SplitTrace> = splits
        .par_iter()
        .map(|spec| traced_split(ctx, &sampler, *spec))
        .collect();
    let traced_wall = t0.elapsed().as_secs_f64();
    for (split, expected) in traced.iter().zip(&result.per_split) {
        for run in &split.compared {
            let index = POLICY_ORDER
                .iter()
                .position(|&p| p == run.policy)
                .expect("compared policies are evaluator policies");
            outcome.check(
                "traced_split_matches_evaluator",
                *run == expected.runs[index],
                || {
                    format!(
                        "split {} policy {} diverged",
                        expected.split.index, run.policy
                    )
                },
            );
        }
    }
    let sum = |f: fn(&SplitTrace) -> f64| traced.iter().map(f).sum::<f64>();
    outcome.metric(
        "eval.split_s_max",
        traced.iter().map(|s| s.wall_s).fold(0.0, f64::max),
        "s",
    );
    outcome.metric("eval.split_s_sum", sum(|s| s.wall_s), "s");
    outcome.metric("rl.hyper_search_s", sum(|s| s.search_s), "s");
    let traced_steps = sum(|s| s.search_steps);
    let accounted_steps = search_steps(ctx, result);
    outcome.check(
        "search_steps_match_cost_accounting",
        traced_steps == accounted_steps,
        || format!("traced {traced_steps} vs accounted {accounted_steps}"),
    );
    outcome.metric("rl.search_steps_trained", traced_steps, "count");
    outcome.metric("rl.rungs", sum(|s| s.rungs), "count");
    outcome.metric("forest.fit_s", sum(|s| s.fit_s), "s");
    outcome.metric("eval.rollout_s", sum(|s| s.rollout_s), "s");
    outcome.metric("eval.rollouts", sum(|s| s.rollouts), "count");
    outcome.metric("trace.overhead_s", traced_wall - wall, "s");
    outcome.metric(
        "trace.overhead_pct",
        (traced_wall - wall) / wall * 100.0,
        "%",
    );
    outcome
}

/// Busy times of one traced split, in seconds (counts as floats for summing).
struct SplitTrace {
    wall_s: f64,
    search_s: f64,
    search_steps: f64,
    rungs: f64,
    fit_s: f64,
    rollout_s: f64,
    rollouts: f64,
    compared: Vec<PolicyRun>,
}

/// One split composed from public pieces, in the evaluator's shape: the forest, then
/// the SC20-RF threshold grid alongside the RL search, then the remaining rollouts.
/// Seeds derive from the context seed and the split index exactly as the evaluator's,
/// so the Never, Always, Myopic-RF, RL and Oracle runs must equal the evaluator's bit
/// for bit. The SC20-RF rows are not compared: the evaluator also scans a data-driven
/// threshold that this composition leaves out.
fn traced_split(ctx: &ExperimentContext, sampler: &NodeJobSampler, spec: SplitSpec) -> SplitTrace {
    let start = Instant::now();
    let config = ctx.mitigation;
    let seed = ctx.seed ^ (spec.index as u64).wrapping_mul(0xA5A5_5A5A);
    let train_tl = ctx.timelines.slice(spec.train.0, spec.train.1);
    let validate_tl = ctx.timelines.slice(spec.validate.0, spec.validate.1);
    let test_tl = ctx.timelines.slice(spec.test.0, spec.test.1);
    let train_val_tl = ctx.timelines.slice(spec.train.0, spec.validate.1);
    let mut trace = SplitTrace {
        wall_s: 0.0,
        search_s: 0.0,
        search_steps: 0.0,
        rungs: 0.0,
        fit_s: 0.0,
        rollout_s: 0.0,
        rollouts: 0.0,
        compared: Vec::new(),
    };
    if test_tl.is_empty() {
        // The evaluator skips a split with nothing to test.
        return trace;
    }
    let timed_run = |policy: &(dyn MitigationPolicy + Sync)| {
        let t0 = Instant::now();
        let run = run_policy(policy, &test_tl, sampler, config, seed);
        (run, t0.elapsed().as_secs_f64())
    };

    let t0 = Instant::now();
    let (mut dataset, _) = build_rf_dataset_1day(&train_val_tl);
    if dataset.is_empty() {
        dataset.push(vec![0.0; STATE_DIM - 1], false);
    }
    let mut rf_config = RandomForestConfig::sc20(STATE_DIM - 1, seed);
    rf_config.n_trees = ctx.budget.rf_trees.max(1);
    if dataset.positives() == 0 {
        rf_config.undersample_ratio = None;
    }
    let forest = Arc::new(RandomForest::fit(&dataset, &rf_config));
    let fit_s = t0.elapsed().as_secs_f64();

    let grid = ctx.budget.threshold_grid.max(2);
    let (grid_runs, (search, search_s, rl_run)) = rayon::join(
        || {
            let times: Vec<f64> = (0..grid)
                .into_par_iter()
                .map(|i| {
                    let threshold = i as f64 / (grid - 1) as f64;
                    timed_run(&ThresholdRfPolicy::shared(
                        Arc::clone(&forest),
                        threshold,
                        "SC20-RF",
                    ))
                    .1
                })
                .collect();
            times
        },
        || {
            let t0 = Instant::now();
            let search = rl_hyper_search(ctx, &train_tl, &validate_tl, sampler, config, seed);
            let search_s = t0.elapsed().as_secs_f64();
            let policy = search
                .outcome
                .best
                .clone()
                .with_training_cost(search.outcome.total_cost);
            (search, search_s, timed_run(&policy))
        },
    );
    let oracle = OraclePolicy::from_timelines(&test_tl);
    let myopic = MyopicRfPolicy::new(
        Arc::unwrap_or_clone(forest),
        config.mitigation_cost_node_hours(),
    );
    let policies: Vec<&(dyn MitigationPolicy + Sync)> =
        vec![&NeverMitigate, &AlwaysMitigate, &myopic, &oracle];
    let rest: Vec<(PolicyRun, f64)> = policies.into_par_iter().map(timed_run).collect();

    trace.rollout_s =
        grid_runs.iter().sum::<f64>() + rl_run.1 + rest.iter().map(|r| r.1).sum::<f64>();
    trace.rollouts = (grid_runs.len() + 1 + rest.len()) as f64;
    trace.compared = rest.into_iter().map(|r| r.0).collect();
    trace.compared.push(rl_run.0);
    trace.search_s = search_s;
    trace.search_steps = (search.outcome.total_cost * 3600.0 / TRAIN_COST_SECONDS_PER_STEP).round();
    trace.rungs = search.rungs.len() as f64;
    trace.fit_s = fit_s;
    trace.wall_s = start.elapsed().as_secs_f64();
    trace
}
