//! End-to-end measurement: what a caller of `scenario::run_plan` sees.

use crate::calib::Calibrator;
use crate::stats::{median, quartiles, tail_percentile};
use crate::workload::Campaign;
use easis_injection::executor::CampaignExecutor;
use easis_injection::stats::CampaignStats;
use easis_validator::node::{CentralNode, NodeBlueprint};
use easis_validator::scenario;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Fewest timed passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 5;

/// The three calls a campaign pays before its first simulated event,
/// timed separately, in nanoseconds (medians). `total_ns` is normalized
/// to the reference host speed (see [`crate::calib`]); the parts are raw.
pub struct Setup {
    pub total_ns: f64,
    pub raw_total_ns: f64,
    pub compile_ns: f64,
    pub build_ns: f64,
    pub start_ns: f64,
}

/// Set-up repetitions between two calibration samples; their medians are
/// taken over [`SETUP_BLOCKS`] blocks.
const SETUP_REPS: usize = 25;
const SETUP_BLOCKS: usize = 20;

pub fn measure_setup(calib: &mut Calibrator) -> Setup {
    let reps = SETUP_REPS * SETUP_BLOCKS;
    let mut total = Vec::with_capacity(reps);
    let mut normalized = Vec::with_capacity(reps);
    let mut compile = Vec::with_capacity(reps);
    let mut build = Vec::with_capacity(reps);
    let mut start = Vec::with_capacity(reps);
    let mut kernel_before = calib.sample();
    for _ in 0..SETUP_BLOCKS {
        let block = total.len();
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let blueprint = NodeBlueprint::compile(scenario::campaign_node_config());
            let t1 = Instant::now();
            let mut node = CentralNode::build_from_blueprint(&blueprint);
            let t2 = Instant::now();
            node.start();
            let t3 = Instant::now();
            black_box((&blueprint, &node));
            drop(node);
            drop(blueprint);
            total.push(ns(t3 - t0));
            compile.push(ns(t1 - t0));
            build.push(ns(t2 - t1));
            start.push(ns(t3 - t2));
        }
        let kernel_after = calib.sample();
        let kernel = (kernel_before + kernel_after) / 2.0;
        normalized.extend(
            total[block..]
                .iter()
                .map(|&t| Calibrator::normalize(t, kernel)),
        );
        kernel_before = kernel_after;
    }
    Setup {
        total_ns: median(&normalized),
        raw_total_ns: median(&total),
        compile_ns: median(&compile),
        build_ns: median(&build),
        start_ns: median(&start),
    }
}

pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Outcome of timing `run_plan` for a fixed wall-clock budget.
pub struct Timed {
    /// Wall seconds of each timed `run_plan` call.
    pub pass_s: Vec<f64>,
    /// The same, normalized to the reference host speed.
    pub normalized_s: Vec<f64>,
    /// Per plan and trial: whether any timed pass disagreed with the
    /// reference.
    pub unstable: Vec<Vec<bool>>,
}

/// Calls `run_plan` back to back for `budget`, cycling through the plans,
/// with a calibration sample between every two calls. Records each call's
/// wall time and checks that every pass returns the same outcomes as the
/// plan's reference.
pub fn time_run_plan(
    campaigns: &[Campaign],
    references: &[CampaignStats],
    calib: &mut Calibrator,
    budget: Duration,
) -> Timed {
    let mut unstable: Vec<Vec<bool>> = campaigns
        .iter()
        .map(|c| vec![false; c.plan.len()])
        .collect();
    let mut pass_s = Vec::new();
    let mut normalized_s = Vec::new();
    let deadline = Instant::now() + budget;
    let mut kernel_before = calib.sample();
    while pass_s.len() < MIN_PASSES || Instant::now() < deadline {
        let k = pass_s.len() % campaigns.len();
        let campaign = &campaigns[k];
        let executor = CampaignExecutor::new(campaign.workers);
        let t = Instant::now();
        let stats = scenario::run_plan(&campaign.plan, campaign.horizon, &executor);
        let wall = t.elapsed().as_secs_f64();
        let kernel_after = calib.sample();
        pass_s.push(wall);
        normalized_s.push(Calibrator::normalize(
            wall,
            (kernel_before + kernel_after) / 2.0,
        ));
        kernel_before = kernel_after;
        mark_differences(&references[k], &stats, &mut unstable[k]);
    }
    Timed {
        pass_s,
        normalized_s,
        unstable,
    }
}

/// One untimed `run_plan` call per plan: warms the process up and
/// provides the outcomes every timed pass must reproduce.
pub fn warm_up(campaigns: &[Campaign]) -> Vec<CampaignStats> {
    campaigns
        .iter()
        .map(|c| scenario::run_plan(&c.plan, c.horizon, &CampaignExecutor::new(c.workers)))
        .collect()
}

/// Sets `diff[i]` for every trial whose outcome differs between `a` and `b`.
pub fn mark_differences(a: &CampaignStats, b: &CampaignStats, diff: &mut [bool]) {
    assert_eq!(
        a.len(),
        b.len(),
        "campaign returned a different trial count"
    );
    for ((x, y), d) in a.trials().iter().zip(b.trials()).zip(diff.iter_mut()) {
        *d |= x != y;
    }
}

/// The reference outcomes: every trial on a freshly built node, driven by
/// the per-millisecond injector loop (`scenario::run_trial`). Runs on two
/// workers because at a 20 s horizon it costs several ms per trial; it is
/// never timed.
pub fn oracle(campaign: &Campaign) -> CampaignStats {
    CampaignExecutor::new(2).run(&campaign.plan, |spec| {
        scenario::run_trial(spec, campaign.horizon)
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported in kB");
    kib / 1024.0
}

/// Peak RSS in MiB of a child process that runs one campaign of each of
/// the workload's plans (this executable with `--rss-probe 1`).
pub fn peak_rss_of_child(workload: &str, seed: u64) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--rss-probe",
            "1",
        ])
        .output()
        .expect("memory probe starts");
    assert!(
        out.status.success(),
        "memory probe failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("memory probe prints one number")
}

/// Human-readable summary of the timed passes.
pub fn describe_passes(timed: &Timed, trials: usize, horizon_ms: u64) {
    let rate = |s: &f64| trials as f64 / s;
    let raw: Vec<f64> = timed.pass_s.iter().map(rate).collect();
    let normalized: Vec<f64> = timed.normalized_s.iter().map(rate).collect();
    println!("timed passes: {}", raw.len());
    for (label, rates) in [("trials_per_s", &normalized), ("raw trials_per_s", &raw)] {
        let [q1, q2, q3] = quartiles(rates);
        println!("{label}: q1 {q1:.1} median {q2:.1} q3 {q3:.1}");
    }
    println!(
        "ns_per_sim_ms: {:.2} (= 1e9 / (trials_per_s x {horizon_ms} ms))",
        1e9 / (median(&normalized) * horizon_ms as f64)
    );
    for (label, secs) in [
        ("pass wall ms", &timed.normalized_s),
        ("raw pass wall ms", &timed.pass_s),
    ] {
        let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
        match tail_percentile(&ms) {
            Some((p, v)) => println!(
                "{label}: median {:.3} p{p} {v:.3} (n={})",
                median(&ms),
                ms.len()
            ),
            None => println!("{label}: median {:.3} (n={})", median(&ms), ms.len()),
        }
    }
}
