//! The benchmark's workloads: seeded campaign plans that each put most of
//! a campaign's wall clock into a different layer of the engine.

use easis_injection::campaign::{CampaignBuilder, CampaignPlan, TrialSpec};
use easis_injection::injector::{ErrorClass, Injection};
use easis_rte::runnable::RunnableId;
use easis_sim::rng::SimRng;
use easis_sim::time::{Duration, Instant};
use std::collections::BTreeSet;

/// Full-node runnable layout: steer 0-2, SafeSpeed 3-5, SafeLane 6-8.
const TARGETS: std::ops::Range<u32> = 0..9;
/// Runnables with a loop term in their cost model (SAFE_CC_process and
/// LDW_process): the only meaningful loop-overrun targets.
const LOOP_TARGETS: [u32; 2] = [4, 7];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The T-COV plan every real caller issues: 1000 trials, 300 ms +
    /// 400 ms window jitter, 1.5 s horizon. Only workload whose tails
    /// repeat, so the tail-collapse memo matters.
    Tcov,
    /// 1000 permanent faults armed from [50, 750) ms to past the 1.5 s
    /// horizon: the engine simulates every armed tail event by event.
    ArmedUnique,
    /// 2000 transient 20 ms faults in [100, 2000) ms on a 20 s horizon:
    /// long quiescent tails that macro-stepping skips.
    QuietLong,
    /// `Tcov` on two workers: executor striping and the shared caches.
    TcovW2,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Tcov,
        Workload::ArmedUnique,
        Workload::QuietLong,
        Workload::TcovW2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Tcov => "tcov",
            Workload::ArmedUnique => "armed_unique",
            Workload::QuietLong => "quiet_long",
            Workload::TcovW2 => "tcov_w2",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Plans per run. Plan cost varies by seed (T-COV plans of seeds 1-10
    /// ran from 0.95x to 1.11x the median time), so a run cycles through
    /// several plans to average that out. `quiet_long` keeps one: its
    /// oracle check costs 8-10 s per plan.
    pub fn plans(self) -> u64 {
        match self {
            Workload::QuietLong => 1,
            _ => 4,
        }
    }

    pub fn workers(self) -> usize {
        match self {
            Workload::TcovW2 => 2,
            _ => 1,
        }
    }
}

/// A workload instantiated for one seed: the plan the engine receives
/// and the horizon every trial runs to.
pub struct Campaign {
    pub plan: CampaignPlan,
    pub horizon: Instant,
    pub workers: usize,
}

/// The workload's plans for `seed`. The first uses `seed` itself, so the
/// default seed gives the canonical T-COV plan.
pub fn campaigns(workload: Workload, seed: u64) -> Vec<Campaign> {
    (0..workload.plans())
        .map(|k| campaign(workload, seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect()
}

fn campaign(workload: Workload, seed: u64) -> Campaign {
    let (plan, horizon) = match workload {
        Workload::Tcov | Workload::TcovW2 => {
            let horizon = Instant::from_millis(1_500);
            let plan = CampaignBuilder::new(seed, TARGETS.map(RunnableId).collect())
                .loop_targets(LOOP_TARGETS.map(RunnableId).to_vec())
                .trials_per_class(200)
                .window(Instant::from_millis(300), Duration::from_millis(400))
                .with_horizon(horizon)
                .build();
            (plan, horizon)
        }
        Workload::ArmedUnique => {
            let horizon = Instant::from_millis(1_500);
            // Disarming after the horizon keeps every trial armed to the end.
            let plan = generated(seed, 1_000, 50_000..750_000, |_| {
                Instant::from_millis(2_000)
            });
            (plan, horizon)
        }
        Workload::QuietLong => {
            let horizon = Instant::from_millis(20_000);
            let plan = generated(seed, 2_000, 100_000..2_000_000, |from| {
                from + Duration::from_millis(20)
            });
            (plan, horizon)
        }
    };
    Campaign {
        plan,
        horizon,
        workers: workload.workers(),
    }
}

/// `n` trials cycling the five runnable-level error classes with
/// `CampaignBuilder`'s parameter ranges, each starting uniformly in
/// `start_us` (microsecond resolution) and ending at `end(from)`.
fn generated(
    seed: u64,
    n: usize,
    start_us: std::ops::Range<u64>,
    end: impl Fn(Instant) -> Instant,
) -> CampaignPlan {
    let mut rng = SimRng::seed_from(seed);
    let targets: Vec<RunnableId> = TARGETS.map(RunnableId).collect();
    let loop_targets = LOOP_TARGETS.map(RunnableId);
    let trials: Vec<TrialSpec> = (0..n)
        .map(|i| {
            let runnable = *rng.pick(&targets);
            let class = match i % 5 {
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
                    runnable: *rng.pick(&loop_targets),
                    iterations: rng.next_in(2_000, 30_000) as u32,
                },
            };
            let from = Instant::from_micros(
                start_us.start + rng.next_below(start_us.end - start_us.start),
            );
            TrialSpec {
                seed: rng.next_u64(),
                injection: Injection::new(class, from, end(from)),
            }
        })
        .collect();
    CampaignPlan::from_trials(trials)
}

/// The first whole-millisecond injector tick at or after `at`.
fn ceil_to_tick(at: Instant) -> Instant {
    Instant::from_micros(at.as_micros().div_ceil(1_000) * 1_000)
}

/// Whether the injection arms at all before the horizon.
pub fn arms(spec: &TrialSpec, horizon: Instant) -> bool {
    ceil_to_tick(spec.injection.from) <= horizon
}

/// Where a trial leaves the shared golden prefix: its arming tick,
/// clamped to the horizon.
pub fn fork_of(spec: &TrialSpec, horizon: Instant) -> Instant {
    ceil_to_tick(spec.injection.from).min(horizon)
}

/// The tick at which the injection disarms (one tick after arming at the
/// earliest), or `None` when it stays armed to the horizon.
pub fn disarm_of(spec: &TrialSpec, horizon: Instant) -> Option<Instant> {
    if !arms(spec, horizon) {
        return None;
    }
    let disarm =
        ceil_to_tick(spec.injection.to).max(fork_of(spec, horizon) + Duration::from_millis(1));
    (disarm <= horizon).then_some(disarm)
}

/// Properties of a plan that decide which engine layer does the work,
/// computed from the plan alone, so they are exact and host-independent.
pub struct Shape {
    pub trials: usize,
    /// Distinct arming ticks: golden-prefix checkpoints a worker captures.
    pub distinct_forks: usize,
    /// Distinct (class, fork, disarm) tails: what the engine simulates
    /// after the tail-collapse memo.
    pub distinct_tails: usize,
    /// Share of the trials whose outcome the memo can replay.
    pub memo_hit_frac: f64,
    /// Armed simulated time over all simulated time (trials × horizon).
    pub armed_share: f64,
}

pub fn shape(campaign: &Campaign) -> Shape {
    let horizon = campaign.horizon;
    let trials = campaign.plan.trials();
    let mut forks = BTreeSet::new();
    let mut tails = BTreeSet::new();
    let mut armed_us: u64 = 0;
    for spec in trials {
        let fork = fork_of(spec, horizon);
        let disarm = disarm_of(spec, horizon);
        forks.insert(fork);
        tails.insert((spec.injection.class.clone(), fork, disarm));
        armed_us += disarm
            .unwrap_or(horizon)
            .saturating_duration_since(fork)
            .as_micros();
    }
    Shape {
        trials: trials.len(),
        distinct_forks: forks.len(),
        distinct_tails: tails.len(),
        memo_hit_frac: 1.0 - tails.len() as f64 / trials.len() as f64,
        armed_share: armed_us as f64 / (trials.len() as u64 * horizon.as_micros()) as f64,
    }
}
