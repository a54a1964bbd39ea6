//! Per-layer primitive costs, measured on the campaign node's own state:
//! its kernel, watchdog, FMF and signal database, at a golden instant of
//! the T-COV window.

use crate::e2e::ns;
use crate::stats::median;
use easis_injection::campaign::CampaignPlan;
use easis_injection::executor::CampaignExecutor;
use easis_injection::injector::{ErrorClass, Injection, Injector};
use easis_injection::stats::TrialOutcome;
use easis_rte::runnable::RunnableId;
use easis_rte::signal::SignalId;
use easis_sim::time::{Duration, Instant};
use easis_validator::node::{CentralNode, NodeBlueprint, NodeSnapshot};
use easis_watchdog::CycleReport;
use std::hint::black_box;

/// Timed repetitions per primitive; each figure is their median.
const REPS: usize = 31;
/// Golden instant the node is checkpointed at before each repetition.
const CHECKPOINT: Instant = Instant::from_millis(300);
/// Calls per repetition for the nanosecond-scale primitives.
const BATCH: u32 = 64;

pub struct Primitives {
    pub event_level_ns_per_sim_ms: f64,
    pub macro_step_ns_per_sim_ms: f64,
    pub heartbeat_ns: f64,
    pub run_cycle_ns: f64,
    pub healthy_cycle_ns: f64,
    pub signal_rw_ns: f64,
    pub merge_ns_per_trial: f64,
}

/// Median wall nanoseconds of `op` over [`REPS`] repetitions, each
/// preceded by an untimed `prepare`.
fn timed<S>(state: &mut S, mut prepare: impl FnMut(&mut S), mut op: impl FnMut(&mut S)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            prepare(state);
            let t = std::time::Instant::now();
            op(state);
            ns(t.elapsed())
        })
        .collect();
    median(&samples)
}

pub fn measure(blueprint: &NodeBlueprint, trials: usize, workers: usize) -> Primitives {
    let mut node = CentralNode::build_from_blueprint(blueprint);
    node.start();
    node.run_span(CHECKPOINT);
    let mut ckpt = NodeSnapshot::default();
    node.snapshot_into(&mut ckpt);
    let restore = |node: &mut CentralNode| {
        node.restore_from(&ckpt);
    };

    // Event-level simulation cost against macro-stepping over a clean stretch.
    let mut span_cost = |ffwd: bool, span: Duration| {
        node.set_fastforward(Some(ffwd));
        let ns = timed(&mut node, restore, |node| node.run_span(CHECKPOINT + span));
        node.set_fastforward(None);
        ns / span.as_millis() as f64
    };
    let event_level_ns_per_sim_ms = span_cost(false, Duration::from_millis(1_000));
    let macro_step_ns_per_sim_ms = span_cost(true, Duration::from_millis(10_000));

    // The watchdog's two entry points on the node's own configuration:
    // a heartbeat round over the monitored runnables, then cycle checks.
    let runnables: Vec<RunnableId> = (0..9).map(RunnableId).collect();
    let heartbeat_ns = timed(&mut node, restore, |node| {
        for round in 0..BATCH {
            let now = CHECKPOINT + Duration::from_micros(u64::from(round) * 100);
            for &r in &runnables {
                node.world.watchdog.heartbeat(r, now);
            }
        }
    }) / (f64::from(BATCH) * runnables.len() as f64);
    let mut report = CycleReport::default();
    let wd_period = node.config().wd_period;
    let run_cycle_ns = timed(&mut node, restore, |node| {
        for cycle in 1..=BATCH {
            let now = CHECKPOINT + wd_period * u64::from(cycle);
            node.world.watchdog.run_cycle_into(now, &mut report);
        }
    }) / f64::from(BATCH);

    // Signal database: read and write back every signal.
    let signals = node.world.signals.len();
    let signal_rw_ns = timed(&mut node, restore, |node| {
        for i in 0..signals {
            let id = SignalId(i as u32);
            let v = black_box(node.world.signals.read(id));
            node.world.signals.write(id, v, CHECKPOINT);
        }
    }) / signals as f64;

    // FMF healthy-cycle aging on a DTC memory filled by a detected fault:
    // skipping SAFE_CC for 400 ms trips all three watchdog units.
    let mut faulty = CentralNode::build_from_blueprint(blueprint);
    faulty.start();
    let mut injector = Injector::new([Injection::new(
        ErrorClass::SkipRunnable {
            runnable: RunnableId(4),
        },
        Instant::from_millis(300),
        Instant::from_millis(700),
    )]);
    faulty.run_until(Instant::from_millis(800), &mut injector);
    let fmf = faulty.world.fmf.clone();
    println!("fmf.healthy_cycle on {} DTC record(s)", fmf.dtc().len());
    let mut scratch = fmf.clone();
    let healthy_cycle_ns = timed(
        &mut scratch,
        |s| s.clone_from(&fmf),
        |s| {
            for _ in 0..BATCH {
                s.healthy_cycle();
            }
        },
    ) / f64::from(BATCH);

    // Executor striping and the by-index merge, with a runner that does
    // no simulation.
    let plan = CampaignPlan::from_trials(vec![
        easis_injection::campaign::TrialSpec {
            seed: 0,
            injection: Injection::new(
                ErrorClass::HeartbeatLoss {
                    runnable: RunnableId(0),
                },
                Instant::from_millis(300),
                Instant::from_millis(700),
            ),
        };
        trials
    ]);
    let executor = CampaignExecutor::new(workers);
    let merge_ns_per_trial = timed(
        &mut (),
        |_| {},
        |_| {
            black_box(executor.run_chunked(&plan, |specs, _| {
                specs
                    .iter()
                    .map(|s| TrialOutcome::new(s.injection.class.interned_tag()))
                    .collect()
            }));
        },
    ) / trials as f64;

    Primitives {
        event_level_ns_per_sim_ms,
        macro_step_ns_per_sim_ms,
        heartbeat_ns,
        run_cycle_ns,
        healthy_cycle_ns,
        signal_rw_ns,
        merge_ns_per_trial,
    }
}
