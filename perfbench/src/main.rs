//! Outside-in benchmark of the EASIS fault-injection campaign engine.
//!
//! Usage: `easis-perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`
//!
//! With `--trace 0` it times `scenario::run_plan` on the workload's plan
//! and reports the end-to-end metrics; with `--trace 1` it replays the
//! engine's call sequence through public calls with spans around each
//! layer and reports the per-layer metrics. Either way every trial outcome
//! is checked against the `scenario::run_trial` oracle, and the last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod calib;
mod e2e;
mod layers;
mod stats;
mod traced;
mod workload;

use std::path::Path;
use std::time::Duration;
use workload::Workload;

/// Where the traced run writes its spans, relative to the working
/// directory (the repository root).
const SPAN_DIR: &str = ".bench_build/perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run one campaign and print this process's peak RSS.
    rss_probe: bool,
}

const USAGE: &str = "usage: easis-perfbench --workload <tcov|armed_unique|quiet_long|tcov_w2> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0xC0FFEE;
    let mut seconds = 10;
    let mut trace = false;
    let mut rss_probe = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = parse_u64(&value).ok_or_else(|| bad("seed"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--rss-probe" => rss_probe = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        rss_probe,
    })
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The result of one benchmark run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Host identity printed with every run: timings only compare on one host.
fn print_host() {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("host: nproc {nproc}; cpu {cpu}; kernel {kernel}");
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let campaigns = workload::campaigns(args.workload, args.seed);
    if args.rss_probe {
        e2e::warm_up(&campaigns);
        println!("{}", e2e::peak_rss_mib());
        return;
    }
    let shapes: Vec<workload::Shape> = campaigns.iter().map(workload::shape).collect();
    print_host();
    println!(
        "workload {} seed {:#x}: {} plan(s) of {} trials, horizon {} ms, workers {}",
        args.workload.name(),
        args.seed,
        campaigns.len(),
        shapes[0].trials,
        campaigns[0].horizon.as_millis(),
        campaigns[0].workers
    );
    for (k, shape) in shapes.iter().enumerate() {
        println!(
            "plan {k} shape: distinct_forks {} distinct_tails {} memo_hit_frac {:.4} armed_share {:.4}",
            shape.distinct_forks, shape.distinct_tails, shape.memo_hit_frac, shape.armed_share
        );
    }
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        // Per-layer figures come from the first plan alone.
        traced::run(
            &campaigns[0],
            &shapes[0],
            budget,
            Path::new(SPAN_DIR),
            args.workload,
            args.seed,
        )
    } else {
        end_to_end(&campaigns, budget, &args)
    };
    println!("{}", outcome.to_json());
}

/// Times `run_plan` with tracing off and checks every pass against the
/// oracle.
fn end_to_end(campaigns: &[workload::Campaign], budget: Duration, args: &Args) -> Outcome {
    // Memory is measured in a process of its own that runs the campaigns
    // and nothing else: this one also holds the calibration buffers and
    // the oracle's nodes.
    let peak_rss_mib = e2e::peak_rss_of_child(args.workload.name(), args.seed);
    let mut calib = calib::Calibrator::new();
    // Set-up first, while the allocator is in the same state on every
    // workload.
    let setup = e2e::measure_setup(&mut calib);
    let references = e2e::warm_up(campaigns);
    let timed = e2e::time_run_plan(campaigns, &references, &mut calib, budget);
    let mut failed = 0;
    for ((campaign, reference), unstable) in campaigns.iter().zip(&references).zip(&timed.unstable)
    {
        let oracle = e2e::oracle(campaign);
        failed += reference
            .trials()
            .iter()
            .zip(oracle.trials())
            .zip(unstable)
            .filter(|((got, want), &unstable)| got != want || unstable)
            .count();
    }
    let trials: usize = campaigns.iter().map(|c| c.plan.len()).sum();
    let mismatch_frac = failed as f64 / trials as f64;
    let plan_trials = campaigns[0].plan.len();
    e2e::describe_passes(&timed, plan_trials, campaigns[0].horizon.as_millis());
    println!(
        "setup: {:.0} ns normalized, {:.0} ns raw (compile {:.0}, build {:.0}, start {:.0})",
        setup.total_ns, setup.raw_total_ns, setup.compile_ns, setup.build_ns, setup.start_ns
    );
    println!("peak_rss_mib: {peak_rss_mib:.3}");
    println!("mismatch_frac: {mismatch_frac} ({failed} of {trials} trials differ from the oracle)");
    let rates: Vec<f64> = timed
        .normalized_s
        .iter()
        .map(|s| plan_trials as f64 / s)
        .collect();
    Outcome {
        correct: failed == 0,
        attempted: trials,
        failed,
        metrics: vec![
            Metric::new("trials_per_s", stats::median(&rates), "1/s"),
            Metric::new("setup_s", setup.total_ns * 1e-9, "s"),
            Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
            Metric::new("oracle_match_frac", 1.0 - mismatch_frac, "fraction"),
        ],
    }
}
