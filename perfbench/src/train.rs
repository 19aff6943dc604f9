//! The training workload: a `TrainingSession` with the paper's agent (dueling double
//! DQN, prioritized replay, batch 64, `train_every` 4, `min_replay` 1,000) trained on
//! the paper-net serving fleet, plus a traced replica of its episode loop and
//! standalone timings of the update's pieces at the same shapes.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uerl::core::env::MitigationEnv;
use uerl::core::event_stream::TimelineSet;
use uerl::core::session_core::RecordRetention;
use uerl::core::state::STATE_DIM;
use uerl::core::trainer::{RlTrainer, TrainerConfig, TrainingSession};
use uerl::jobs::schedule::NodeJobSampler;
use uerl::nn::{Adam, DuelingQNetwork, Matrix};
use uerl::rl::{DqnAgent, PrioritizedReplay, Transition};

use crate::fleet::{job_sampler, paper_net_fleet};
use crate::report::{median, peak_rss_mb, timed_setup, Outcome};
use crate::serve::forward_flops_per_row;

/// How many times set-up is repeated in one run (the median is reported).
const SETUP_REPEATS: usize = 5;

/// Environment steps of one measured chunk. `train_until_steps` stops at episode
/// boundaries, so a chunk trains at least this many steps; rates are per step.
const CHUNK_STEPS: u64 = 400;

/// Repetitions of each standalone layer timing.
const LAYER_REPS: usize = 60;

struct Inputs {
    timelines: TimelineSet,
    sampler: NodeJobSampler,
    trainer: RlTrainer,
}

fn setup(seed: u64) -> (Inputs, TrainingSession) {
    let timelines = paper_net_fleet(seed);
    let sampler = job_sampler(seed);
    let trainer = RlTrainer::new(TrainerConfig::paper().with_seed(seed));
    let session = trainer.session();
    (
        Inputs {
            timelines,
            sampler,
            trainer,
        },
        session,
    )
}

/// Run the training workload for `seconds` of measured chunks.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let ((inputs, mut session), setup_s) = timed_setup(SETUP_REPEATS, || setup(seed));
    let min_replay = inputs.trainer.config().agent.min_replay as u64;

    // Fill the replay memory first: chunks are then measured in the steady state
    // where every fourth step runs one batch-64 update.
    let start = Instant::now();
    session.train_until_steps(&inputs.timelines, &inputs.sampler, min_replay);
    let mut rates = Vec::new();
    let mut peak_rss = None;
    let measure = Instant::now();
    while rates.is_empty() || measure.elapsed().as_secs_f64() < seconds {
        let target = session.total_steps() + CHUNK_STEPS;
        let t0 = Instant::now();
        let steps = session.train_until_steps(&inputs.timelines, &inputs.sampler, target);
        let dt = t0.elapsed().as_secs_f64();
        if steps == 0 {
            break;
        }
        rates.push(steps as f64 / dt);
        peak_rss.get_or_insert_with(peak_rss_mb);
    }
    let untraced_wall = start.elapsed().as_secs_f64();
    outcome.ops("env_steps_trained", session.total_steps());
    outcome.check(
        "training_advanced",
        !rates.is_empty() && session.agent().updates() > 0,
        || "no update ran in the measured chunks".to_string(),
    );
    outcome.note(format!("chunk_rates {rates:?}"));
    let rate = if rates.is_empty() {
        0.0
    } else {
        median(&rates)
    };
    outcome.metric("setup_s", median(&setup_s), "s");
    outcome.note(format!("setup_s {setup_s:?}"));
    outcome.metric("throughput_per_s", rate, "1/s");
    outcome.metric("peak_rss_mb", peak_rss.unwrap_or_else(peak_rss_mb), "MB");
    if !trace {
        return outcome;
    }

    let t0 = Instant::now();
    let replica = traced_replica(&inputs, session.total_steps());
    let traced_wall = t0.elapsed().as_secs_f64();
    let probe = vec![0.25; STATE_DIM];
    let same_q = session
        .agent()
        .q_values(&probe)
        .iter()
        .zip(replica.agent.q_values(&probe))
        .all(|(a, b)| a.to_bits() == b.to_bits());
    outcome.check(
        "traced_replica_matches_train_until_steps",
        replica.steps == session.total_steps()
            && replica.agent.updates() == session.agent().updates()
            && same_q,
        || {
            format!(
                "replica {} steps / {} updates vs session {} / {}, q probe equal: {same_q}",
                replica.steps,
                replica.agent.updates(),
                session.total_steps(),
                session.agent().updates()
            )
        },
    );
    outcome.metric("core.env_step_us", replica.env_step_s * 1e6, "us");
    outcome.metric("core.episode_setup_us", replica.episode_setup_s * 1e6, "us");
    outcome.metric("rl.act_us", replica.act_s * 1e6, "us");
    outcome.metric("rl.replay_push_us", replica.push_s * 1e6, "us");
    outcome.metric("rl.update_us", replica.update_s * 1e6, "us");
    outcome.metric("rl.updates", replica.updates as f64, "count");
    outcome.metric("rl.target_syncs", replica.target_syncs as f64, "count");
    outcome.metric("rl.env_steps", replica.steps as f64, "count");
    outcome.metric("trace.overhead_s", traced_wall - untraced_wall, "s");
    outcome.metric(
        "trace.overhead_pct",
        (traced_wall - untraced_wall) / untraced_wall * 100.0,
        "%",
    );
    standalone_layers(&inputs, seed, &mut outcome);
    outcome
}

/// Per-call busy times of the traced episode loop, in seconds.
struct Replica {
    agent: DqnAgent,
    steps: u64,
    updates: u64,
    target_syncs: u64,
    episode_setup_s: f64,
    env_step_s: f64,
    act_s: f64,
    push_s: f64,
    update_s: f64,
}

/// The episode loop of `TrainingSession::train_until_steps`, driven call by call
/// through the same public functions and timed around each. It must end in the same
/// agent state as the session (checked by the caller).
fn traced_replica(inputs: &Inputs, target_steps: u64) -> Replica {
    let config = inputs.trainer.config();
    let sync_every = config.agent.target_sync_every as u64;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut r = Replica {
        agent: DqnAgent::new(config.agent.clone()),
        steps: 0,
        updates: 0,
        target_syncs: 0,
        episode_setup_s: 0.0,
        env_step_s: 0.0,
        act_s: 0.0,
        push_s: 0.0,
        update_s: 0.0,
    };
    let mut episodes = 0;
    while episodes < config.episodes && r.steps < target_steps {
        let t0 = Instant::now();
        let Some(timeline) = inputs.timelines.random_timeline(&mut rng) else {
            break;
        };
        let sequence = inputs.sampler.sample_sequence(
            timeline.window_start(),
            timeline.window_end(),
            &mut rng,
        );
        let mut env = MitigationEnv::with_retention(
            timeline.clone(),
            sequence,
            config.mitigation,
            true,
            RecordRetention::TotalsOnly,
        );
        episodes += 1;
        let first = env.reset();
        r.episode_setup_s += t0.elapsed().as_secs_f64();
        let Some(first) = first else {
            continue;
        };
        let mut state = first.to_vector();
        loop {
            let t0 = Instant::now();
            let action = r.agent.act(&state);
            let t1 = Instant::now();
            let step = env.step(action == 1);
            let t2 = Instant::now();
            r.act_s += (t1 - t0).as_secs_f64();
            r.env_step_s += (t2 - t1).as_secs_f64();
            r.steps += 1;
            let next = step.next_state.map(|s| s.to_vector());
            let transition = match &next {
                Some(next) => Transition::new(state, action, step.reward, next.clone()),
                None => Transition::terminal(state, action, step.reward),
            };
            let before = r.agent.updates();
            let t0 = Instant::now();
            r.agent.observe(transition);
            let dt = t0.elapsed().as_secs_f64();
            let after = r.agent.updates();
            if after > before {
                r.update_s += dt;
                r.updates += after - before;
                r.target_syncs += after / sync_every - before / sync_every;
            } else {
                r.push_s += dt;
            }
            match next {
                Some(next) => state = next,
                None => break,
            }
        }
    }
    r
}

/// The pieces of one update timed on their own at the update's shapes: PER sampling
/// at batch 64, and the paper network's training forward, backward and Adam step.
fn standalone_layers(inputs: &Inputs, seed: u64, outcome: &mut Outcome) {
    let agent = &inputs.trainer.config().agent;
    let batch = agent.batch_size;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let random_state = |rng: &mut StdRng| {
        (0..STATE_DIM)
            .map(|_| rng.gen::<f64>())
            .collect::<Vec<f64>>()
    };

    let mut per = PrioritizedReplay::new(agent.replay_capacity, agent.per_alpha);
    let filled = 4_000;
    for _ in 0..filled {
        let s = random_state(&mut rng);
        let n = random_state(&mut rng);
        per.push(Transition::new(
            s,
            rng.gen_range(0..2),
            -rng.gen::<f64>(),
            n,
        ));
    }
    let indices: Vec<usize> = (0..filled).collect();
    let td: Vec<f64> = (0..filled).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
    per.update_priorities(&indices, &td);
    let mut per_s = Vec::new();
    for _ in 0..LAYER_REPS {
        let t0 = Instant::now();
        let sampled = per.sample(batch, 0.4, &mut rng);
        per_s.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(sampled);
    }

    let mut net = DuelingQNetwork::paper(STATE_DIM, &mut rng);
    let mut adam = Adam::new(agent.learning_rate);
    let input = Matrix::from_fn(batch, STATE_DIM, |_, _| rng.gen::<f64>());
    let grad = Matrix::from_fn(batch, agent.n_actions, |_, _| {
        (rng.gen::<f64>() - 0.5) * 1e-3
    });
    let (mut fwd, mut bwd, mut opt) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..LAYER_REPS {
        let t0 = Instant::now();
        let q = net.forward_train(std::hint::black_box(&input));
        let t1 = Instant::now();
        let g = net.backward(&grad);
        let t2 = Instant::now();
        net.apply_gradients(&mut adam);
        let t3 = Instant::now();
        std::hint::black_box((q, g));
        fwd.push((t1 - t0).as_secs_f64());
        bwd.push((t2 - t1).as_secs_f64());
        opt.push((t3 - t2).as_secs_f64());
    }
    let (fwd, bwd, opt) = (median(&fwd), median(&bwd), median(&opt));
    // Backward costs two forward passes' worth of multiply-adds (input and weight
    // gradients); the optimiser's element-wise work is not counted.
    let flops = 3.0 * forward_flops_per_row(agent) * batch as f64;
    outcome.metric("rl.per_sample_us", median(&per_s) * 1e6, "us");
    outcome.metric("nn.forward_train_us", fwd * 1e6, "us");
    outcome.metric("nn.backward_us", bwd * 1e6, "us");
    outcome.metric("nn.adam_us", opt * 1e6, "us");
    outcome.metric("nn.train_gflops", flops / (fwd + bwd) * 1e-9, "GFLOP/s");
}
