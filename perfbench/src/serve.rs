//! The serving workloads: a merged fleet stream replayed closed-loop (one caller, as
//! fast as possible) through `FleetServer`, checked against the offline `run_policy`
//! rollout, plus one traced pass that splits the flush time into its layers.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use uerl::core::event_stream::TimelineSet;
use uerl::core::policies::{AlwaysMitigate, NeverMitigate, QuantMode, RlPolicy};
use uerl::core::policy::MitigationPolicy;
use uerl::core::state::{StateFeatures, STATE_DIM};
use uerl::core::trainer::{RlTrainer, TrainerConfig};
use uerl::core::MitigationConfig;
use uerl::eval::run::{run_policy, PolicyRun};
use uerl::jobs::schedule::NodeJobSampler;
use uerl::rl::{AgentConfig, DqnAgent};
use uerl::serve::{
    merged_fleet_stream, FleetServer, NodeSession, Observed, RecordRetention, ServeConfig,
    ServeReport, ServedDecision, ShadowPolicy, ShadowScore,
};
use uerl::trace::log::MergedEvent;
use uerl::trace::types::NodeId;

use crate::fleet::{first_events, job_sampler, paper_net_fleet, replicate, shape, synthetic_fleet};
use crate::report::{
    median, peak_rss_mb, residual, samples_beyond, timed_setup, weighted_percentile, Outcome,
    MIN_BEYOND,
};

/// Which serving workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serve {
    /// 600 nodes, one year, the seeded untrained paper network: batch-1 inference.
    PaperNet,
    /// 100 nodes, one year, replicated 64 times; a briefly trained 32-32 network with
    /// Always- and Never-mitigate as shadow policies: full micro-batches.
    Burst,
}

/// Events of the base fleet `serve_burst` replicates: the first of a 100-node,
/// one-year fleet.
const BURST_BASE_EVENTS: usize = 8_000;

/// How many times set-up is repeated in one run (the median is reported).
const SETUP_REPEATS: usize = 5;

/// Copies of the base fleet in `serve_burst`: every tick then holds at least this many
/// events, a full micro-batch that crosses the server's parallel fan-out threshold.
const BURST_COPIES: u32 = 64;

/// Everything one serving run needs, built from the seed.
struct Inputs {
    timelines: TimelineSet,
    sampler: NodeJobSampler,
    stream: Vec<MergedEvent>,
    policy: RlPolicy,
    shadows: Vec<ShadowPolicy>,
    config: ServeConfig,
}

fn setup(kind: Serve, seed: u64) -> Inputs {
    let sampler = job_sampler(seed);
    let (timelines, mut agent, shadows): (TimelineSet, DqnAgent, Vec<ShadowPolicy>) = match kind {
        Serve::PaperNet => {
            let timelines = paper_net_fleet(seed);
            let agent = DqnAgent::new(AgentConfig::paper(STATE_DIM).with_seed(seed));
            (timelines, agent, Vec::new())
        }
        Serve::Burst => {
            let base = first_events(&synthetic_fleet(100, 365, seed), BURST_BASE_EVENTS);
            let trainer = RlTrainer::new(TrainerConfig::reduced(12).with_seed(seed));
            let agent = trainer.train(&base, &sampler).agent;
            let shadows: Vec<ShadowPolicy> =
                vec![Arc::new(AlwaysMitigate), Arc::new(NeverMitigate)];
            (replicate(&base, BURST_COPIES), agent, shadows)
        }
    };
    agent.compact_for_inference();
    let config = ServeConfig::for_timelines(&timelines, MitigationConfig::paper_default(), seed)
        .with_quant(QuantMode::Off)
        .with_retention(RecordRetention::TotalsOnly);
    let policy = config.apply_quant(RlPolicy::new(agent));
    let stream = merged_fleet_stream(&timelines);
    Inputs {
        timelines,
        sampler,
        stream,
        policy,
        shadows,
        config,
    }
}

/// The stream for the next pass: set-up's merged stream for the first pass, merged
/// again from the timelines for later ones (outside the timed region), so that no
/// more than one copy of the stream sits beside the timelines.
fn pass_stream(inputs: &mut Inputs) -> Vec<MergedEvent> {
    let stream = std::mem::take(&mut inputs.stream);
    if stream.is_empty() {
        merged_fleet_stream(&inputs.timelines)
    } else {
        stream
    }
}

/// One closed-loop pass over the stream.
struct Pass {
    wall_s: f64,
    /// Served decisions, stably regrouped by node (each node's in time order) — the
    /// order the offline rollout reports them in.
    decisions: Vec<ServedDecision>,
    /// One entry per call that closed a tick (and the final flush): its wall time in
    /// seconds and the decisions it emitted.
    ticks: Vec<(f64, u64)>,
    rejected: u64,
}

impl Pass {
    fn flush_s(&self) -> f64 {
        self.ticks.iter().map(|t| t.0).sum()
    }
}

/// Replay `stream` through `server`, timing every call that closes a tick. Calls that
/// only buffer an event into the open tick are not timed individually.
fn serve_pass<P: MitigationPolicy>(server: &mut FleetServer<P>, stream: Vec<MergedEvent>) -> Pass {
    let mut out = Vec::with_capacity(stream.len());
    let mut ticks = Vec::new();
    let mut rejected = 0;
    let mut open_tick = None;
    let start = Instant::now();
    for event in stream {
        let time = event.time;
        let result = if open_tick.is_some_and(|t| time > t) {
            let before = out.len();
            let t0 = Instant::now();
            let result = server.ingest(event, &mut out);
            ticks.push((t0.elapsed().as_secs_f64(), (out.len() - before) as u64));
            result
        } else {
            server.ingest(event, &mut out)
        };
        match result {
            Ok(()) => open_tick = Some(time),
            Err(_) => rejected += 1,
        }
    }
    let before = out.len();
    let t0 = Instant::now();
    server.flush(&mut out);
    ticks.push((t0.elapsed().as_secs_f64(), (out.len() - before) as u64));
    let wall_s = start.elapsed().as_secs_f64();
    out.sort_by_key(|d| d.node.0);
    Pass {
        wall_s,
        decisions: out,
        ticks,
        rejected,
    }
}

/// Positions at which two decision logs differ, plus their length difference.
fn mismatches(a: &[ServedDecision], b: &[ServedDecision]) -> u64 {
    let differing = a.iter().zip(b).filter(|(x, y)| x != y).count();
    (differing + a.len().abs_diff(b.len())) as u64
}

fn offline_decisions(run: &PolicyRun) -> Vec<ServedDecision> {
    run.decisions
        .iter()
        .map(|d| ServedDecision {
            node: d.node,
            time: d.time,
            mitigated: d.mitigated,
        })
        .collect()
}

/// Floating-point operations of one forward row through the dueling network of
/// `config` (multiply-adds of the trunk and both heads, counted as two each).
pub fn forward_flops_per_row(config: &AgentConfig) -> f64 {
    let mut macs = 0usize;
    let mut width = config.state_dim;
    for &hidden in &config.hidden {
        macs += width * hidden;
        width = hidden;
    }
    macs += width * (1 + config.n_actions);
    2.0 * macs as f64
}

/// A transparent timing adapter: every call goes to the wrapped policy unchanged; the
/// wall time, call count and rows of each `decide_batch` are added up.
struct Timed {
    inner: Arc<dyn MitigationPolicy + Send + Sync>,
    nanos: AtomicU64,
    calls: AtomicU64,
    rows: AtomicU64,
}

impl Timed {
    fn new(inner: Arc<dyn MitigationPolicy + Send + Sync>) -> Self {
        Self {
            inner,
            nanos: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            rows: AtomicU64::new(0),
        }
    }

    fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

impl MitigationPolicy for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&self, state: &StateFeatures) -> bool {
        self.inner.decide(state)
    }

    fn decide_batch(&self, states: &[StateFeatures], out: &mut Vec<bool>) {
        let t0 = Instant::now();
        self.inner.decide_batch(states, out);
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(states.len() as u64, Ordering::Relaxed);
    }

    fn training_cost_node_hours(&self) -> f64 {
        self.inner.training_cost_node_hours()
    }
}

/// Per-layer busy times of a standalone session replay, in seconds.
struct Replay {
    session_new_s: f64,
    observe_s: f64,
    apply_s: f64,
    /// `shadow_state` and `apply_shadow_decision` of every shadow lane.
    shadow_lanes_s: f64,
    /// Mitigations each shadow lane ordered.
    shadow_mitigations: Vec<u64>,
    sessions: BTreeMap<NodeId, NodeSession>,
    unmatched: u64,
}

/// Replay the stream through standalone sessions: `NodeSession::new` on a node's
/// first event, `observe` on every event, `apply_decision` with the decision the
/// server emitted for each request, then each shadow lane's `shadow_state` and
/// `apply_shadow_decision` for that request, each call timed on its own. The shadow
/// policies' own decisions are not timed here: the traced pass times them.
fn replay_sessions(
    inputs: &Inputs,
    stream: &[MergedEvent],
    decisions: &[ServedDecision],
) -> Replay {
    let mut pending: HashMap<NodeId, VecDeque<&ServedDecision>> = HashMap::new();
    for d in decisions {
        pending.entry(d.node).or_default().push_back(d);
    }
    let config = &inputs.config;
    let lanes = inputs.shadows.len();
    let mut replay = Replay {
        session_new_s: 0.0,
        observe_s: 0.0,
        apply_s: 0.0,
        shadow_lanes_s: 0.0,
        shadow_mitigations: vec![0; lanes],
        sessions: BTreeMap::new(),
        unmatched: 0,
    };
    for event in stream {
        let session = match replay.sessions.entry(event.node) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(e) => {
                let t0 = Instant::now();
                let session = NodeSession::new(
                    event.node,
                    config.window_start,
                    config.window_end,
                    config.mitigation,
                    config.seed,
                    &inputs.sampler,
                    config.retention,
                    lanes,
                );
                replay.session_new_s += t0.elapsed().as_secs_f64();
                e.insert(session)
            }
        };
        let t0 = Instant::now();
        let observed = session.observe(event);
        replay.observe_s += t0.elapsed().as_secs_f64();
        if let Observed::Request(state) = observed {
            match pending.get_mut(&event.node).and_then(VecDeque::pop_front) {
                Some(d) if d.time == state.time => {
                    let t0 = Instant::now();
                    session.apply_decision(state.time, d.mitigated);
                    replay.apply_s += t0.elapsed().as_secs_f64();
                }
                _ => replay.unmatched += 1,
            }
            for (lane, shadow) in inputs.shadows.iter().enumerate() {
                let t0 = Instant::now();
                let lane_state = session.shadow_state(lane, &state);
                let lane_s = t0.elapsed();
                let mitigate = shadow.decide(&lane_state);
                let t0 = Instant::now();
                session.apply_shadow_decision(lane, state.time, mitigate);
                replay.shadow_lanes_s += (lane_s + t0.elapsed()).as_secs_f64();
                replay.shadow_mitigations[lane] += u64::from(mitigate);
            }
        }
    }
    replay.unmatched += pending.values().map(|q| q.len() as u64).sum::<u64>();
    replay
}

/// Run one serving workload for `seconds` of measured passes.
pub fn run(kind: Serve, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let (mut inputs, setup_s) = timed_setup(SETUP_REPEATS, || setup(kind, seed));
    let s = shape(&inputs.stream);
    let events = s.events as f64;

    // Measured passes until `seconds` are used up.
    let mut walls = Vec::new();
    let mut latency = Vec::new();
    let mut boot = Vec::new();
    let mut peak_rss = None;
    let mut reference: Option<(Vec<ServedDecision>, ServeReport, Vec<ShadowScore>)> = None;
    rayon::reset_pool_stats();
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let stream = pass_stream(&mut inputs);
        let mut server =
            FleetServer::new(inputs.config, inputs.policy.clone(), inputs.sampler.clone())
                .with_shadow_policies(inputs.shadows.clone());
        let pass = serve_pass(&mut server, stream);
        walls.push(pass.wall_s);
        peak_rss.get_or_insert_with(peak_rss_mb);
        outcome.ops("events_ingested", events as u64 - pass.rejected);
        outcome.failures("events_rejected", pass.rejected);
        // The boot tick (every node's first event) is reported on its own.
        boot.push(pass.ticks[0].0);
        latency.extend(pass.ticks[1..].iter().filter(|t| t.1 > 0).copied());
        match &reference {
            Some((first, _, _)) => count_mismatches(&pass.decisions, first, &mut outcome),
            None => reference = Some((pass.decisions, server.report(), server.shadow_report())),
        }
    }
    let pool = rayon::pool_stats();
    let (reference, report, shadow_report) = reference.expect("one pass ran");
    outcome.note(format!("passes_s {walls:?}"));
    outcome.metric("setup_s", median(&setup_s), "s");
    outcome.note(format!("setup_s {setup_s:?}"));
    outcome.metric(
        "throughput_per_s",
        median(&walls.iter().map(|w| events / w).collect::<Vec<_>>()),
        "1/s",
    );
    outcome.metric("peak_rss_mb", peak_rss.expect("one pass ran"), "MB");
    check_against_offline(&inputs, &reference, &report, &shadow_report, &mut outcome);

    outcome.note(format!(
        "shape events={} ticks={} tick_events_mean={:.3} single_event_tick_share={:.4} \
         events_in_ticks_ge64_share={:.4} boot_tick_events={}",
        s.events,
        s.ticks,
        s.tick_events_mean,
        s.single_event_tick_share,
        s.events_in_full_ticks_share,
        s.boot_tick_events
    ));
    if !trace {
        return outcome;
    }

    outcome.metric("serve.events", s.events as f64, "count");
    outcome.metric("serve.tick_events_mean", s.tick_events_mean, "events");
    outcome.metric(
        "serve.single_event_tick_share",
        s.single_event_tick_share,
        "ratio",
    );
    outcome.metric(
        "serve.events_in_ticks_ge64_share",
        s.events_in_full_ticks_share,
        "ratio",
    );
    outcome.metric("serve.boot_tick_events", s.boot_tick_events as f64, "count");

    // Decision latency over the untraced passes: each decision is charged the wall
    // time of the call that emitted it. The boot tick creates every node's session
    // at once and sits above any supported percentile, so it is reported apart.
    let p50 = weighted_percentile(&latency, 50.0);
    let p99 = weighted_percentile(&latency, 99.0);
    let beyond = samples_beyond(&latency, p99);
    outcome.check("p99_is_supported", beyond >= MIN_BEYOND, || {
        format!("{beyond} ticks beyond p99, fewer than {MIN_BEYOND}")
    });
    outcome.metric("serve.decision_latency_p50_us", p50 * 1e6, "us");
    outcome.metric("serve.decision_latency_p99_us", p99 * 1e6, "us");
    outcome.metric(
        "serve.decision_latencies",
        latency.iter().map(|t| t.1).sum::<u64>() as f64,
        "count",
    );
    outcome.metric("serve.boot_tick_ms", median(&boot) * 1e3, "ms");
    let passes = walls.len() as f64;
    outcome.metric(
        "rayon.jobs_executed",
        pool.jobs_executed as f64 / passes,
        "count",
    );
    outcome.metric("rayon.steals", pool.steals as f64 / passes, "count");

    // The traced pass and the session replay run on a one-thread pool, so the flush
    // time and every part of it are busy times of one thread, measured the same way.
    // An untraced pass on the same pool is the base of the tracing overhead.
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the scoped thread-count override is infallible");
    let plain = one.install(|| {
        let mut server =
            FleetServer::new(inputs.config, inputs.policy.clone(), inputs.sampler.clone())
                .with_shadow_policies(inputs.shadows.clone());
        serve_pass(&mut server, pass_stream(&mut inputs))
    });
    let bad = mismatches(&plain.decisions, &reference);
    outcome.check("one_thread_pass_matches", bad == 0, || {
        format!("{bad} decisions differ on one thread")
    });

    // Timing adapters around the served and shadow policies.
    let served = Timed::new(Arc::new(inputs.policy.clone()));
    let shadows: Vec<Arc<Timed>> = inputs
        .shadows
        .iter()
        .map(|p| Arc::new(Timed::new(Arc::clone(p))))
        .collect();
    let mut server = FleetServer::new(inputs.config, served, inputs.sampler.clone())
        .with_shadow_policies(
            shadows
                .iter()
                .map(|t| Arc::clone(t) as ShadowPolicy)
                .collect(),
        );
    let traced = one.install(|| serve_pass(&mut server, pass_stream(&mut inputs)));
    let bad = mismatches(&traced.decisions, &reference);
    outcome.check("timing_adapters_are_transparent", bad == 0, || {
        format!("{bad} decisions differ with the adapters")
    });
    let served = server.policy();
    let forward_s = served.seconds();
    let calls = served.calls.load(Ordering::Relaxed) as f64;
    let rows = served.rows.load(Ordering::Relaxed) as f64;
    let shadow_s = shadows.iter().fold(0.0, |sum, t| sum + t.seconds());
    let sessions = server.live_nodes().max(1) as f64;
    let session_bytes: usize = server.sessions().map(NodeSession::approx_bytes).sum();

    let replay = replay_sessions(
        &inputs,
        &merged_fleet_stream(&inputs.timelines),
        &traced.decisions,
    );
    outcome.check(
        "replay_matches_served_decisions",
        replay.unmatched == 0,
        || {
            format!(
                "{} requests without a matching served decision",
                replay.unmatched
            )
        },
    );
    let report = server.report();
    let same_totals = report.per_node.iter().all(|n| {
        replay.sessions.get(&n.node).is_some_and(|s| {
            s.mitigation_count() == n.mitigations
                && s.total_mitigation_cost().to_bits() == n.mitigation_cost.to_bits()
                && s.total_ue_cost().to_bits() == n.ue_cost.to_bits()
        })
    }) && replay.sessions.len() == report.per_node.len();
    outcome.check("replay_totals_match_server", same_totals, || {
        "standalone sessions disagree with the server's per-node totals".to_string()
    });
    let lane_mitigations: Vec<u64> = server
        .shadow_report()
        .iter()
        .map(|s| s.mitigations)
        .collect();
    outcome.check(
        "replay_shadow_lanes_match_server",
        replay.shadow_mitigations == lane_mitigations,
        || {
            format!(
                "shadow mitigations: replay {:?}, server {lane_mitigations:?}",
                replay.shadow_mitigations
            )
        },
    );

    let flush_s = traced.flush_s();
    outcome.metric("serve.flush_us", flush_s * 1e6, "us");
    outcome.metric("serve.ticks", traced.ticks.len() as f64, "count");
    outcome.metric("nn.forward_us", forward_s * 1e6, "us");
    outcome.metric("nn.forward_calls", calls, "count");
    outcome.metric("nn.forward_rows_per_call", rows / calls.max(1.0), "rows");
    let flops = forward_flops_per_row(inputs.policy.agent().config()) * rows;
    outcome.metric(
        "nn.forward_gflops",
        flops / forward_s.max(1e-12) * 1e-9,
        "GFLOP/s",
    );
    outcome.metric("serve.shadow_decide_us", shadow_s * 1e6, "us");
    outcome.metric("serve.shadow_lanes_us", replay.shadow_lanes_s * 1e6, "us");
    outcome.metric("core.observe_us", replay.observe_s * 1e6, "us");
    outcome.metric("core.apply_us", replay.apply_s * 1e6, "us");
    outcome.metric("jobs.session_new_us", replay.session_new_s * 1e6, "us");
    outcome.metric(
        "serve.residual_us",
        residual(
            flush_s,
            &[
                forward_s,
                shadow_s,
                replay.shadow_lanes_s,
                replay.observe_s,
                replay.apply_s,
                replay.session_new_s,
            ],
        ) * 1e6,
        "us",
    );
    outcome.metric(
        "serve.session_bytes_per_node",
        session_bytes as f64 / sessions,
        "bytes",
    );
    outcome.note(format!(
        "one_thread_passes_s untraced {} traced {}",
        plain.wall_s, traced.wall_s
    ));
    outcome.metric("trace.overhead_s", traced.wall_s - plain.wall_s, "s");
    outcome.metric(
        "trace.overhead_pct",
        (traced.wall_s - plain.wall_s) / plain.wall_s * 100.0,
        "%",
    );
    outcome
}

/// Count the served decisions that differ from `expected` as failed operations.
fn count_mismatches(served: &[ServedDecision], expected: &[ServedDecision], outcome: &mut Outcome) {
    let bad = mismatches(served, expected);
    outcome.ops(
        "decisions_checked",
        (served.len() as u64).saturating_sub(bad),
    );
    outcome.failures("decisions_mismatched", bad);
}

/// Served decisions and cost bits against the offline rollout of the same policy
/// over the same timelines (and each shadow lane against its own offline rollout).
fn check_against_offline(
    inputs: &Inputs,
    decisions: &[ServedDecision],
    report: &ServeReport,
    shadow_report: &[ShadowScore],
    outcome: &mut Outcome,
) {
    let rollout = |policy: &(dyn MitigationPolicy + Sync)| {
        run_policy(
            policy,
            &inputs.timelines,
            &inputs.sampler,
            inputs.config.mitigation,
            inputs.config.seed,
        )
    };
    let offline = rollout(&inputs.policy);
    count_mismatches(decisions, &offline_decisions(&offline), outcome);
    outcome.check(
        "served_cost_bits_equal_offline",
        report.mitigations == offline.mitigations
            && report.ue_count == offline.ue_count
            && report.mitigation_cost.to_bits() == offline.mitigation_cost.to_bits()
            && report.ue_cost.to_bits() == offline.ue_cost.to_bits(),
        || {
            format!(
                "served {}+{} vs offline {}+{}",
                report.mitigation_cost, report.ue_cost, offline.mitigation_cost, offline.ue_cost
            )
        },
    );
    for (score, shadow) in shadow_report.iter().zip(&inputs.shadows) {
        let offline = rollout(shadow.as_ref());
        outcome.check(
            "shadow_cost_bits_equal_offline",
            score.mitigations == offline.mitigations
                && score.mitigation_cost.to_bits() == offline.mitigation_cost.to_bits()
                && score.ue_cost.to_bits() == offline.ue_cost.to_bits(),
            || format!("shadow {} diverged from its offline rollout", score.policy),
        );
    }
}
