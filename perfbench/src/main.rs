//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_paper_net|serve_burst|train_paper_net|eval_protocol> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated in this process from `--seed`; the program under test receives
//! only the generated inputs. Every timing is taken here, around calls into the
//! public functions of the workspace crates. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of one traced pass with
//! `--trace 1`. See `perfbench/README.md` for the metric table.

mod fleet;
mod protocol;
mod report;
mod serve;
mod train;

use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer that a
/// workload does not run reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
    // Serving: workload shape.
    ("serve.events", "count"),
    ("serve.ticks", "count"),
    ("serve.tick_events_mean", "events"),
    ("serve.single_event_tick_share", "ratio"),
    ("serve.events_in_ticks_ge64_share", "ratio"),
    ("serve.boot_tick_events", "count"),
    // Serving: latency over the untraced passes.
    ("serve.decision_latency_p50_us", "us"),
    ("serve.decision_latency_p99_us", "us"),
    ("serve.decision_latencies", "count"),
    ("serve.boot_tick_ms", "ms"),
    // Serving: layers of the traced pass.
    ("serve.flush_us", "us"),
    ("nn.forward_us", "us"),
    ("nn.forward_calls", "count"),
    ("nn.forward_rows_per_call", "rows"),
    ("nn.forward_gflops", "GFLOP/s"),
    ("serve.shadow_decide_us", "us"),
    ("serve.shadow_lanes_us", "us"),
    ("core.observe_us", "us"),
    ("core.apply_us", "us"),
    ("jobs.session_new_us", "us"),
    ("serve.residual_us", "us"),
    ("serve.session_bytes_per_node", "bytes"),
    ("rayon.jobs_executed", "count"),
    ("rayon.steals", "count"),
    // Training: the traced episode loop.
    ("rl.env_steps", "count"),
    ("core.episode_setup_us", "us"),
    ("core.env_step_us", "us"),
    ("rl.act_us", "us"),
    ("rl.replay_push_us", "us"),
    ("rl.update_us", "us"),
    ("rl.updates", "count"),
    ("rl.target_syncs", "count"),
    // Training: update pieces timed on their own.
    ("rl.per_sample_us", "us"),
    ("nn.forward_train_us", "us"),
    ("nn.backward_us", "us"),
    ("nn.adam_us", "us"),
    ("nn.train_gflops", "GFLOP/s"),
    // Protocol.
    ("eval.protocol_s", "s"),
    ("eval.split_s_max", "s"),
    ("eval.split_s_sum", "s"),
    ("rl.hyper_search_s", "s"),
    ("rl.search_steps_trained", "count"),
    ("rl.rungs", "count"),
    ("forest.fit_s", "s"),
    ("eval.rollout_s", "s"),
    ("eval.rollouts", "count"),
    ("eval.protocol_1thread_s", "s"),
    ("eval.cost_reduction_vs_never_pct", "%"),
    ("eval.excess_over_oracle_pct", "%"),
];

const WORKLOADS: [&str; 4] = [
    "serve_paper_net",
    "serve_burst",
    "train_paper_net",
    "eval_protocol",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The benchmark fixes the program's knobs itself: metrics gate closed, f64
    // inference, totals-only retention, the budget's search strategy, and a pool of
    // one thread per core.
    for knob in [
        "UERL_METRICS",
        "UERL_QUANT",
        "UERL_RETENTION",
        "UERL_HYPER_SEARCH",
        "RAYON_NUM_THREADS",
    ] {
        std::env::remove_var(knob);
    }
    println!("host {}", report::host_block());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = match args.workload.as_str() {
        "serve_paper_net" => {
            serve::run(serve::Serve::PaperNet, args.seed, args.seconds, args.trace)
        }
        "serve_burst" => serve::run(serve::Serve::Burst, args.seed, args.seconds, args.trace),
        "train_paper_net" => train::run(args.seed, args.seconds, args.trace),
        _ => protocol::run(args.seed, args.seconds, args.trace),
    };
    outcome.print(if args.trace { PER_LAYER } else { END_TO_END });
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse("--workload serve_burst --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload, "serve_burst");
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload eval_protocol").is_err());
        assert!(parse("--workload eval_protocol --seed 1 --trace 2").is_err());
        assert!(parse("--workload eval_protocol --seed 1 --seconds 0").is_err());
        assert!(parse("--workload eval_protocol --seed").is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
