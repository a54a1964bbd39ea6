//! **ARMED-FASTFORWARD** — how much of an armed injection window the
//! hyperperiod macro-stepping engine skips, per error class.
//!
//! Permanent faults, five runnable-level classes cycled, each armed at a
//! uniformly drawn millisecond in [50, 750) ms and kept armed to the 1.5 s
//! horizon (the shape of perfbench's `armed_unique` workload). Every trial
//! forks from a golden checkpoint at its arming tick and runs its armed
//! window through `CentralNode::run_span` twice, with macro-stepping off
//! and on, in alternating order; the two end states must carry the same
//! fault log. Per class the table reports the share of armed simulated
//! time skipped, the armed wall clock remaining with macro-stepping on
//! (on ÷ off, summed over the class), and why certification fell back.
//!
//! Usage: `armed_ffwd [trials_per_class] [seed]` — defaults 200 and 777.

use easis_bench::{emit_json, header};
use easis_injection::injector::{ErrorClass, Injection, Injector};
use easis_rte::runnable::RunnableId;
use easis_sim::rng::SimRng;
use easis_sim::time::{Duration, Instant};
use easis_validator::node::{CentralNode, FfwdBreakdown, NodeBlueprint, NodeSnapshot};
use easis_validator::scenario::campaign_node_config;
use serde::Serialize;

const CLASSES: [&str; 5] = [
    "execution_slowdown",
    "heartbeat_loss",
    "skip_runnable",
    "duplicate_dispatch",
    "loop_overrun",
];

#[derive(Serialize, Default)]
struct Row {
    class: &'static str,
    trials: u64,
    armed_sim_s: f64,
    skipped_fraction: f64,
    wall_remaining: f64,
    certifications_per_trial: f64,
    not_quiescent_per_trial: f64,
    state_mismatch_per_trial: f64,
    threshold_cap_per_trial: f64,
    age_out_cap_per_trial: f64,
}

/// Per-class sums, turned into a [`Row`] at the end.
#[derive(Default)]
struct Sums {
    trials: u64,
    armed: Duration,
    skipped: Duration,
    wall_on: f64,
    wall_off: f64,
    certifications: u64,
    reasons: FfwdBreakdown,
}

fn class_of(i: usize, rng: &mut SimRng) -> ErrorClass {
    let runnable = RunnableId(rng.next_below(9) as u32);
    match i % 5 {
        0 => ErrorClass::ExecutionSlowdown {
            runnable,
            scale_ppm: rng.next_in(5, 400) * 1_000_000,
        },
        1 => ErrorClass::HeartbeatLoss { runnable },
        2 => ErrorClass::SkipRunnable { runnable },
        3 => ErrorClass::DuplicateDispatch {
            runnable,
            extra: rng.next_in(2, 6) as u32,
        },
        _ => ErrorClass::LoopOverrun {
            runnable: *rng.pick(&[RunnableId(4), RunnableId(7)]),
            iterations: rng.next_in(2_000, 30_000) as u32,
        },
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let per_class: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(200);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(777);
    header(
        "ARMED-FASTFORWARD",
        "engine — macro-stepping inside armed injection windows",
        "5 permanent-fault classes armed from [50, 750) ms to the 1.5 s horizon",
    );
    let horizon = Instant::from_millis(1_500);
    let mut rng = SimRng::seed_from(seed);
    let mut trials: Vec<(usize, Injection)> = (0..per_class * CLASSES.len())
        .map(|i| {
            let class = class_of(i, &mut rng);
            let from = Instant::from_millis(50 + rng.next_below(700));
            (
                i % 5,
                Injection::new(class, from, Instant::from_millis(2_000)),
            )
        })
        .collect();
    trials.sort_by_key(|(_, injection)| injection.from);

    let blueprint = NodeBlueprint::compile(campaign_node_config());
    let mut node = CentralNode::build_from_blueprint(&blueprint);
    node.start();
    let mut ckpt = NodeSnapshot::default();
    let mut injector = Injector::none();
    let mut sums: Vec<Sums> = CLASSES.iter().map(|_| Sums::default()).collect();
    for (n, (class, injection)) in trials.iter().enumerate() {
        let fork = injection.from;
        if ckpt.taken_at() != fork || n == 0 {
            if n > 0 {
                node.restore_from(&ckpt);
            }
            node.set_fastforward(None);
            node.run_span(fork);
            node.snapshot_into(&mut ckpt);
        }
        let mut fault_logs = Vec::new();
        let order = if n % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for ffwd in order {
            node.restore_from(&ckpt);
            node.set_fastforward(Some(ffwd));
            injector.reload([injection.clone()]);
            injector.tick(fork, &mut node.world.controls, &mut node.os);
            node.set_injection_armed(true);
            let (stats, reasons) = (node.ffwd_stats(), node.ffwd_breakdown());
            let started = std::time::Instant::now();
            node.run_span(horizon);
            let wall = started.elapsed().as_secs_f64();
            node.set_injection_armed(false);
            let s = &mut sums[*class];
            if ffwd {
                let (after, why) = (node.ffwd_stats(), node.ffwd_breakdown());
                s.trials += 1;
                s.armed += horizon.saturating_duration_since(fork);
                s.skipped += why.armed_fastforwarded - reasons.armed_fastforwarded;
                s.certifications += after.certifications - stats.certifications;
                s.reasons.not_quiescent += why.not_quiescent - reasons.not_quiescent;
                s.reasons.state_mismatch += why.state_mismatch - reasons.state_mismatch;
                s.reasons.threshold_cap += why.threshold_cap - reasons.threshold_cap;
                s.reasons.age_out_cap += why.age_out_cap - reasons.age_out_cap;
                s.wall_on += wall;
            } else {
                s.wall_off += wall;
            }
            fault_logs.push(node.world.fault_log.clone());
        }
        assert_eq!(
            fault_logs[0], fault_logs[1],
            "macro-stepping changed the fault log of {injection:?}"
        );
    }

    let rows: Vec<Row> = CLASSES
        .iter()
        .zip(&sums)
        .map(|(&class, s)| {
            let per = |n: u64| n as f64 / s.trials.max(1) as f64;
            Row {
                class,
                trials: s.trials,
                armed_sim_s: s.armed.as_secs_f64(),
                skipped_fraction: s.skipped.as_secs_f64() / s.armed.as_secs_f64().max(1e-9),
                wall_remaining: s.wall_on / s.wall_off.max(1e-12),
                certifications_per_trial: per(s.certifications),
                not_quiescent_per_trial: per(s.reasons.not_quiescent),
                state_mismatch_per_trial: per(s.reasons.state_mismatch),
                threshold_cap_per_trial: per(s.reasons.threshold_cap),
                age_out_cap_per_trial: per(s.reasons.age_out_cap),
            }
        })
        .collect();
    println!(
        "{:<19} {:>6} {:>8} {:>8} {:>8} {:>6} {:>6} {:>6} {:>6}",
        "class", "trials", "skipped", "wall", "certs", "idle", "state", "thresh", "age"
    );
    for r in &rows {
        println!(
            "{:<19} {:>6} {:>8.3} {:>8.3} {:>8.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2}",
            r.class,
            r.trials,
            r.skipped_fraction,
            r.wall_remaining,
            r.certifications_per_trial,
            r.not_quiescent_per_trial,
            r.state_mismatch_per_trial,
            r.threshold_cap_per_trial,
            r.age_out_cap_per_trial,
        );
    }
    let (skipped, armed, on, off) = sums.iter().fold((0.0, 0.0, 0.0, 0.0), |acc, s| {
        (
            acc.0 + s.skipped.as_secs_f64(),
            acc.1 + s.armed.as_secs_f64(),
            acc.2 + s.wall_on,
            acc.3 + s.wall_off,
        )
    });
    println!(
        "\nall classes: skipped {:.3} of armed simulated time, armed wall clock remaining {:.3}",
        skipped / armed,
        on / off
    );
    println!(
        "(skipped = share of armed simulated time macro-stepped; wall = armed wall clock \
         with macro-stepping on / off; the rest are per-trial fallbacks by reason)"
    );
    emit_json("armed_ffwd", &rows);
}
