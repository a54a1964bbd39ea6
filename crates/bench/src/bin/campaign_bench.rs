//! **CAMPAIGN-THROUGHPUT** — end-to-end trial throughput of the fault
//! campaign engine.
//!
//! The coverage/latency tables of the paper's outlook need thousands of
//! injection trials, each simulating a full central node to its horizon —
//! so campaign wall-clock is the cost that decides how dense a coverage
//! grid is affordable. This bin measures the T-COV campaign (the same
//! plan shape as the golden campaign report, scaled up) through the
//! campaign engine's two paths:
//!
//! 1. **forked** — [`run_plan`], the production runner: golden-run prefix
//!    checkpointing. Each worker builds one node for its whole stripe,
//!    sorts the stripe by injection time, simulates the clean
//!    (injection-free) prefix once, snapshots the node at each distinct
//!    fork instant and restores every trial from its checkpoint, so only
//!    the post-injection tail is re-simulated, with macro-stepping and
//!    the tail-collapse memo on top;
//! 2. **oracle** — [`run_trial`] on the same executor: the deliberately
//!    naive reference. Every trial builds its own node and runs the whole
//!    horizon under the per-millisecond injector loop.
//!
//! Both paths must produce bit-identical [`CampaignStats`] (asserted). At
//! the full 1000-trial campaign the bin asserts the forked path at
//! **≥[`ORACLE_SPEEDUP_FLOOR`]× the oracle's trials/sec**. The setup split
//! (one-off blueprint compile vs the oracle's per-trial node build) is
//! measured separately so the report shows *where* the oracle's time goes.
//!
//! Since the plan-arena task bodies landed, the bin additionally proves
//! the steady-state claim under a counting global allocator: a clean
//! (no-fault) trial on a warmed node — restored from a checkpoint taken
//! right after `start()`, injector reloaded, run to the horizon — is
//! measured at the reference horizon and at twice the horizon, and the
//! counts must be **equal** —
//! doubling the simulated time (and with it every task activation) adds
//! zero heap allocations, i.e. the plan/effect/step-buffer path is
//! allocation-free (asserted). A *faulty* trial — one whose injection
//! fires inside the horizon and is detected — is probed the same way:
//! with the reused fault records, drained-into treatment actions and the
//! in-place DTC freeze frame it may allocate at most
//! [`FAULTY_TRIAL_ALLOC_FLOOR`] blocks (asserted; the residue is the
//! outcome's detection map plus first-occurrence DTC inserts). A
//! per-worker-count trials/sec sweep over 1/2/4/8 workers records how
//! the forked path scales.
//!
//! The `snapshot` probe measures the checkpoint machinery itself on a
//! standalone node: a warm capacity-retained capture
//! ([`CentralNode::snapshot_into`]), a capacity-retained full-copy
//! restore ([`CentralNode::restore_from`]) after a clean (injection-free)
//! tail run to the horizon, and the heap allocations of each when warm.
//! Two gates are asserted at every size: a warmed capture and a warmed
//! restore each allocate at most [`SNAPSHOT_ALLOC_FLOOR`] blocks, or a
//! snapshot or component buffer has stopped retaining its capacity.
//!
//! Since hyperperiod macro-stepping landed (`easis_validator::ffwd`), the
//! `tail_fastforward` probe brackets the forked headline run with the
//! process-wide fast-forward metrics: the fraction of forked span skipped
//! by certified macro-jumps, the certification/fallback counts, and the
//! speedup against the pre-macro-stepping forked baseline
//! ([`FORKED_BASELINE_TRIALS_PER_SEC`]). At full scale the forked path
//! must reach [`FFWD_SPEEDUP_FLOOR`]× that baseline, and over
//! [`SWEEP_PAIRS`] interleaved workers=1/workers=2 pairs the median
//! workers=2 ÷ workers=1 rate ratio must reach [`SWEEP_SCALING_FLOOR`]×
//! (min and max printed) — the latter only on hosts with more than one
//! core, because an oversubscribed sweep measures contention, not
//! scaling.
//!
//! Results land in `BENCH_campaign.json` (stable schema,
//! `schema_version` 7; `host_cores` records the recording host's
//! available parallelism next to the sweep so readers can tell scaling
//! from oversubscription; each sweep entry carries its
//! `parallel_efficiency` = trials/sec ÷ (workers × workers=1 trials/sec)).
//!
//! Usage: `campaign_bench [trials_per_class]` (default 200 → 1000 trials
//! over the 5 error classes; the speedup assertions are skipped below
//! the default so CI smoke runs stay timing-noise-proof — the
//! allocation gates always apply). Worker count comes from
//! `EASIS_WORKERS` (default: available parallelism).
//!
//! [`run_plan`]: easis_validator::scenario::run_plan
//! [`run_trial`]: easis_validator::scenario::run_trial
//! [`CampaignStats`]: easis_injection::stats::CampaignStats

use easis_injection::campaign::{CampaignBuilder, CampaignPlan, TrialSpec};
use easis_injection::executor::CampaignExecutor;
use easis_injection::injector::{ErrorClass, Injection, Injector};
use easis_rte::runnable::RunnableId;
use easis_sim::time::{Duration, Instant};
use easis_validator::node::{CentralNode, NodeBlueprint, NodeSnapshot};
use easis_validator::scenario::{campaign_node_config, extract_outcome, run_plan, run_trial};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation so the steady-state trial path can be proven
/// allocation-free, not just claimed.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// trials_per_class of the full campaign (5 error classes → 1000 trials).
const DEFAULT_TRIALS_PER_CLASS: usize = 200;
/// Below the full campaign the speedup assertions are timing noise, not
/// signal.
const ASSERT_FLOOR_TRIALS_PER_CLASS: usize = DEFAULT_TRIALS_PER_CLASS;
/// Required forked-path speedup over the [`run_trial`] oracle at the full
/// campaign. Both paths run on the same executor and checkpointing,
/// macro-stepping and the memo save work in every worker alike, so the
/// ratio holds at any worker count. The floor is the product of two
/// earlier gates: forked ≥ 1.5× a pooled per-trial runner, which had to
/// be ≥ 2× a fresh per-trial build.
const ORACLE_SPEEDUP_FLOOR: f64 = 3.0;
/// Campaign passes per path; the fastest pass is reported (interference
/// only ever adds time, so the best pass is the closest observation).
const CAMPAIGN_REPS: u32 = 3;
/// Passes for the cheap per-node setup measurements.
const SETUP_REPS: u32 = 10;

/// Simulated horizon of every trial.
const HORIZON: Instant = Instant::from_millis(1_500);

/// Forked-path trials/sec of the reference T-COV campaign *before*
/// hyperperiod macro-stepping landed (BENCH_campaign.json of the prefix-
/// checkpointing PR, workers=1 on the single-core reference host). The
/// tail-fastforward probe asserts the macro-stepped forked path at
/// ≥[`FFWD_SPEEDUP_FLOOR`]× this figure at the full campaign.
const FORKED_BASELINE_TRIALS_PER_SEC: f64 = 4_865.0;

/// Required forked-path speedup over [`FORKED_BASELINE_TRIALS_PER_SEC`].
const FFWD_SPEEDUP_FLOOR: f64 = 1.5;

/// Required scaling of the forked path from one to two workers when the
/// recording host actually has more than one core (on a single-core host
/// the sweep measures oversubscription and the gate is skipped): the
/// median over [`SWEEP_PAIRS`] interleaved pairs of the workers=2 rate
/// divided by the workers=1 rate.
const SWEEP_SCALING_FLOOR: f64 = 1.3;

/// Interleaved workers=1/workers=2 pairs behind the scaling gate at the
/// full campaign; odd, so the median is one pair's ratio.
const SWEEP_PAIRS: usize = 5;

/// Maximum heap blocks a clean steady-state trial may allocate on a warmed
/// node. With the reloaded injector (`Injector::reload`) and the interned
/// outcome tag (`ErrorClass::interned_tag`) the per-trial constants are
/// gone — a warmed trial measures 0; one block of slack absorbs
/// collection growth-point jitter without letting a real per-trial
/// allocation through.
const STEADY_STATE_ALLOC_FLOOR: u64 = 1;

/// Maximum heap blocks a warmed `CentralNode::snapshot_into` capture, or
/// a warmed `CentralNode::restore_from` after a clean tail, may allocate.
/// Every snapshot and component buffer is capacity-retained, so both
/// measure 0 warm; one block of slack absorbs collection
/// growth-point jitter without letting a real per-capture allocation
/// through.
const SNAPSHOT_ALLOC_FLOOR: u64 = 1;

/// Maximum heap blocks a *fault-detecting* trial may allocate on a
/// warmed node. Fault records, state changes, treatment actions and the
/// DTC freeze frame are reused/rewritten in place; what remains is the
/// outcome's detection `BTreeMap` node plus the DTC store's
/// first-occurrence inserts (each fault class re-enters the map emptied
/// by the restore of the post-start checkpoint).
const FAULTY_TRIAL_ALLOC_FLOOR: u64 = 4;

/// The T-COV campaign plan: same seed, target set and injection window as
/// the golden campaign report (`tests/goldens/campaign_report.json`),
/// scaled to `trials_per_class`.
fn t_cov_plan(trials_per_class: usize) -> CampaignPlan {
    CampaignBuilder::new(0xC0FFEE, (0..9).map(RunnableId).collect())
        .loop_targets(vec![RunnableId(4), RunnableId(7)])
        .trials_per_class(trials_per_class)
        .window(Instant::from_millis(300), Duration::from_millis(400))
        .with_horizon(HORIZON)
        .build()
}

/// Runs `op` `reps` times and returns the fastest elapsed nanoseconds.
fn best_of<F: FnMut()>(reps: u32, mut op: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        op();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

// ---------------------------------------------------------------------
// Report schema (schema_version 7 — keep stable, future PRs diff this).
// ---------------------------------------------------------------------

/// One campaign execution path, full-plan wall clock and derived rates.
#[derive(Serialize)]
struct PathTiming {
    elapsed_ms: f64,
    trials_per_sec: f64,
    /// Host nanoseconds spent per simulated millisecond, aggregated over
    /// all workers (wall clock / total simulated time).
    ns_per_simulated_ms: f64,
}

impl PathTiming {
    fn new(elapsed_ns: f64, trials: u64, simulated_ms_per_trial: u64) -> Self {
        PathTiming {
            elapsed_ms: elapsed_ns / 1e6,
            trials_per_sec: trials as f64 / (elapsed_ns / 1e9),
            ns_per_simulated_ms: elapsed_ns / (trials * simulated_ms_per_trial) as f64,
        }
    }
}

/// Where the per-trial time goes before any simulation happens.
#[derive(Serialize)]
struct SetupSplit {
    /// One-off cost of compiling the watchdog config into a blueprint
    /// (paid once per campaign on the forked path).
    blueprint_compile_ns: f64,
    /// Per-trial fresh node construction on the oracle path (config
    /// compile included).
    fresh_build_ns_per_trial: f64,
    /// Fraction of the oracle's wall clock spent building nodes.
    fresh_setup_fraction: f64,
}

/// Steady-state allocation probe of one clean and one faulty trial on a
/// warmed node. The doubling delta is the gate: zero means no per-activation
/// (plan/effect/step-buffer) allocation survives on the hot path.
#[derive(Serialize)]
struct AllocProbe {
    /// Heap allocations of one clean (no-fault) trial on a warmed node,
    /// reference horizon.
    clean_trial_allocs: u64,
    /// Same probe at twice the simulated horizon (twice the activations).
    clean_trial_allocs_2x_horizon: u64,
    /// `2x − 1x`: allocations attributable to simulated time. Must be 0.
    horizon_scaling_allocs: i64,
    /// Heap allocations of one fault-detecting trial on a warmed node
    /// (reused fault records + in-place DTC freeze frame; floor
    /// [`FAULTY_TRIAL_ALLOC_FLOOR`]).
    faulty_trial_allocs: u64,
}

/// Snapshot probe on a standalone node: what one capture and one
/// clean-tail restore cost, and what each allocates when warm.
#[derive(Serialize)]
struct SnapshotProbe {
    /// Warm `CentralNode::snapshot_into` into a capacity-retained buffer.
    capture_ns: f64,
    /// `restore_from` after a clean (injection-free) tail run from the
    /// fork instant to the horizon.
    restore_ns: f64,
    /// Heap allocations of a warmed capture (floor
    /// [`SNAPSHOT_ALLOC_FLOOR`]).
    snapshot_allocs: u64,
    /// Heap allocations of a warmed `restore_from` after a clean tail run
    /// (floor [`SNAPSHOT_ALLOC_FLOOR`]).
    restore_allocs: u64,
}

/// Hyperperiod macro-stepping (tail fast-forward) on the forked path:
/// how much of the simulated span the engine skipped and what the
/// headline throughput gained over the pre-macro-stepping baseline.
#[derive(Serialize)]
struct TailFastforwardProbe {
    /// Fraction of the simulated time covered by `run_span` during the
    /// forked headline reps that was fast-forwarded by certified
    /// hyperperiod jumps. Asserted > 0 at the full campaign.
    ffwd_span_fraction: f64,
    /// Rejected certifications plus threshold and age-out crossings
    /// simulated event-by-event during the forked headline reps.
    fallbacks: u64,
    /// Successful certifications during the forked headline reps.
    certifications: u64,
    /// The forked headline trials/sec (same figure as `forked`).
    trials_per_sec: f64,
    /// Forked trials/sec over [`FORKED_BASELINE_TRIALS_PER_SEC`].
    /// Asserted ≥ [`FFWD_SPEEDUP_FLOOR`] at the full campaign.
    speedup_vs_baseline: f64,
}

/// Forked-path throughput at one worker count (the multi-core sweep).
#[derive(Serialize)]
struct SweepEntry {
    workers: u64,
    trials_per_sec: f64,
    /// `trials_per_sec / (workers × workers-1 trials_per_sec)`: 1.0 is
    /// perfect linear scaling, values near `1/workers` mean no scaling
    /// (expected when the host has fewer cores than workers).
    parallel_efficiency: f64,
}

#[derive(Serialize)]
struct Report {
    schema_version: u32,
    trials: u64,
    workers: u64,
    simulated_ms_per_trial: u64,
    setup: SetupSplit,
    forked: PathTiming,
    oracle: PathTiming,
    /// Forked trials/sec over oracle trials/sec. Asserted ≥
    /// [`ORACLE_SPEEDUP_FLOOR`] at the full campaign.
    speedup_vs_oracle: f64,
    tail_fastforward: TailFastforwardProbe,
    steady_state: AllocProbe,
    snapshot: SnapshotProbe,
    worker_sweep: Vec<SweepEntry>,
    /// Caveat stamped next to the recorded numbers: on a host with fewer
    /// cores than workers the sweep measures thread scheduling overhead,
    /// not scaling — workers>1 can legitimately trail workers=1 there.
    worker_sweep_note: &'static str,
    /// Available parallelism of the recording host — the sweep entries
    /// beyond this count measure oversubscription, not scaling.
    host_cores: u64,
}

/// Caveat recorded alongside the sweep (see [`Report::worker_sweep_note`]).
const WORKER_SWEEP_NOTE: &str = "trials/sec by worker count on this recording \
     host; with fewer physical cores than workers the entries measure \
     oversubscription (thread scheduling), not scaling — on a single-core \
     host workers=2 trailing workers=1 is expected, not a regression";

/// Measures the one-off and per-trial setup costs outside the campaign.
fn measure_setup() -> (f64, f64) {
    let compile_ns = best_of(SETUP_REPS, || {
        black_box(NodeBlueprint::compile(campaign_node_config()));
    });
    let build_ns = best_of(SETUP_REPS, || {
        black_box(CentralNode::build(campaign_node_config()));
    });
    (compile_ns, build_ns)
}

/// A trial whose injection window lies beyond any probed horizon: the
/// node runs entirely nominal cycles — the steady state of a campaign.
fn clean_spec() -> TrialSpec {
    TrialSpec {
        seed: 0xA11C,
        injection: Injection::new(
            ErrorClass::SkipRunnable {
                runnable: RunnableId(0),
            },
            Instant::from_millis(10_000_000),
            Instant::from_millis(10_000_100),
        ),
    }
}

/// A trial whose injection fires inside the horizon and is detected by
/// the watchdog: skipping SAFE_CC (a monitored, loop-bearing runnable)
/// for 400 ms trips aliveness, arrival-rate and program-flow faults, so
/// the probe exercises fault records, DTC inserts, freeze-frame capture
/// and the (observe-only) treatment pipeline.
fn faulty_spec() -> TrialSpec {
    TrialSpec {
        seed: 0xFA17,
        injection: Injection::new(
            ErrorClass::SkipRunnable {
                runnable: RunnableId(4),
            },
            Instant::from_millis(300),
            Instant::from_millis(700),
        ),
    }
}

/// Measures heap allocations of one trial of `spec` on a warmed node
/// (minimum over several runs, so incidental lazy initialisation cannot
/// inflate the figure). Each trial restores a checkpoint captured right
/// after `start()`, reloads the injector, runs the per-millisecond loop
/// to the horizon and extracts the outcome.
fn measure_trial_allocs(blueprint: &NodeBlueprint, spec: &TrialSpec, horizon: Instant) -> u64 {
    let mut node = CentralNode::build_from_blueprint(blueprint);
    node.start();
    let started = node.snapshot();
    let mut injector = Injector::none();
    let mut trial = || {
        node.restore_from(&started);
        injector.reload([spec.injection.clone()]);
        node.run_until(horizon, &mut injector);
        extract_outcome(&node, spec)
    };
    // Warm the node: the first trials grow every retained buffer (arena
    // slots, timer queue, logs, fault records) to the steady state of
    // this horizon and fault profile.
    for _ in 0..3 {
        black_box(trial());
    }
    let mut best = u64::MAX;
    for _ in 0..5 {
        let before = allocations();
        black_box(trial());
        best = best.min(allocations() - before);
    }
    best
}

/// Measures the snapshot machinery on a standalone node: warm capture
/// cost and allocations, then the restore
/// cost and allocations after a clean tail run from the fork instant to
/// the horizon — the checkpoint pattern of the forked campaign path.
fn measure_snapshot_probe(blueprint: &NodeBlueprint) -> SnapshotProbe {
    let fork = Instant::from_millis(300);
    let mut node = CentralNode::build_from_blueprint(blueprint);
    node.start();
    node.run_span(fork);
    let mut snap = NodeSnapshot::default();
    // First capture grows every retained buffer to its steady size.
    node.snapshot_into(&mut snap);
    let mut snapshot_allocs = u64::MAX;
    for _ in 0..5 {
        let before = allocations();
        node.snapshot_into(&mut snap);
        snapshot_allocs = snapshot_allocs.min(allocations() - before);
    }
    let capture_ns = best_of(SETUP_REPS, || {
        node.snapshot_into(&mut snap);
    });
    // Each pass restores over a freshly run clean tail; the first pass
    // warms the node's buffers, so the minimum is the warm figure.
    let mut restore_ns = f64::INFINITY;
    let mut restore_allocs = u64::MAX;
    for _ in 0..SETUP_REPS {
        node.run_span(HORIZON);
        let before = allocations();
        let start = std::time::Instant::now();
        node.restore_from(&snap);
        restore_ns = restore_ns.min(start.elapsed().as_nanos() as f64);
        restore_allocs = restore_allocs.min(allocations() - before);
    }
    SnapshotProbe {
        capture_ns,
        restore_ns,
        snapshot_allocs,
        restore_allocs,
    }
}

fn validate_emitted_json(path: &str) {
    let text = std::fs::read_to_string(path).expect("BENCH_campaign.json written");
    let value = serde_json::parse_value(&text).expect("BENCH_campaign.json parses");
    let serde::Value::Map(entries) = value else {
        panic!("BENCH_campaign.json must be a JSON object");
    };
    for key in [
        "schema_version",
        "trials",
        "workers",
        "simulated_ms_per_trial",
        "setup",
        "forked",
        "oracle",
        "speedup_vs_oracle",
        "steady_state",
        "snapshot",
        "tail_fastforward",
        "worker_sweep",
        "worker_sweep_note",
        "host_cores",
    ] {
        assert!(
            entries.iter().any(|(k, _)| k == key),
            "BENCH_campaign.json missing key {key:?}"
        );
    }
    let snapshot = entries
        .iter()
        .find(|(k, _)| k == "snapshot")
        .map(|(_, v)| v)
        .expect("snapshot key checked above");
    let serde::Value::Map(snapshot) = snapshot else {
        panic!("BENCH_campaign.json `snapshot` must be a JSON object");
    };
    for key in [
        "capture_ns",
        "restore_ns",
        "snapshot_allocs",
        "restore_allocs",
    ] {
        assert!(
            snapshot.iter().any(|(k, _)| k == key),
            "BENCH_campaign.json snapshot probe missing key {key:?}"
        );
    }
    let tail = entries
        .iter()
        .find(|(k, _)| k == "tail_fastforward")
        .map(|(_, v)| v)
        .expect("tail_fastforward key checked above");
    let serde::Value::Map(tail) = tail else {
        panic!("BENCH_campaign.json `tail_fastforward` must be a JSON object");
    };
    for key in [
        "ffwd_span_fraction",
        "fallbacks",
        "certifications",
        "trials_per_sec",
        "speedup_vs_baseline",
    ] {
        assert!(
            tail.iter().any(|(k, _)| k == key),
            "BENCH_campaign.json tail_fastforward probe missing key {key:?}"
        );
    }
}

fn main() {
    let trials_per_class = std::env::args()
        .nth(1)
        .map(|raw| raw.parse::<usize>().expect("trials_per_class must be a number"))
        .unwrap_or(DEFAULT_TRIALS_PER_CLASS);

    let plan = t_cov_plan(trials_per_class);
    let trials = plan.len() as u64;
    let executor = CampaignExecutor::from_env();
    let workers = executor.workers();
    let simulated_ms_per_trial = HORIZON.as_millis();

    println!("================================================================");
    println!("experiment CAMPAIGN-THROUGHPUT — forked runner vs per-trial oracle");
    println!("{trials} trials (T-COV plan), horizon {simulated_ms_per_trial} ms, {workers} workers");
    println!("================================================================");

    let (compile_ns, build_ns) = measure_setup();

    // Steady-state allocation probe: a clean trial at the reference
    // horizon and at twice the horizon. Equal counts prove the per-
    // activation path (plans, effects, step buffers) allocates nothing —
    // only the per-trial constants (injector, outcome) remain.
    let probe_blueprint = NodeBlueprint::compile(campaign_node_config());
    let allocs_1x = measure_trial_allocs(&probe_blueprint, &clean_spec(), HORIZON);
    let allocs_2x = measure_trial_allocs(
        &probe_blueprint,
        &clean_spec(),
        Instant::from_millis(2 * HORIZON.as_millis()),
    );
    let scaling = allocs_2x as i64 - allocs_1x as i64;
    println!(
        "steady-state allocs/trial: {allocs_1x} at {simulated_ms_per_trial} ms, \
         {allocs_2x} at {} ms (horizon-scaling delta {scaling})",
        2 * simulated_ms_per_trial
    );
    assert!(
        scaling <= 0,
        "doubling the simulated horizon must add zero allocations (got \
         +{scaling}) — the plan/effect/step-buffer path has regressed from \
         allocation-free"
    );
    // Absolute floor: with the reloaded injector and the interned outcome
    // tag a clean steady-state trial allocates nothing. Gate with one
    // block of slack so a new per-trial or per-activation allocation
    // anywhere in the kernel/RTE/watchdog cycle fails loudly.
    assert!(
        allocs_1x <= STEADY_STATE_ALLOC_FLOOR,
        "clean steady-state trial allocated {allocs_1x} heap blocks \
         (floor {STEADY_STATE_ALLOC_FLOOR}) — a per-trial or per-activation \
         allocation crept back in"
    );

    // Faulty-cycle probe: a trial that detects real faults must stay
    // within the retained-buffer floor — fault records, state changes,
    // treatment actions and the freeze frame are reused, so only the
    // outcome map and first-occurrence DTC inserts remain.
    let faulty_allocs = measure_trial_allocs(&probe_blueprint, &faulty_spec(), HORIZON);
    println!("faulty-trial allocs/trial: {faulty_allocs} (floor {FAULTY_TRIAL_ALLOC_FLOOR})");
    assert!(
        faulty_allocs <= FAULTY_TRIAL_ALLOC_FLOOR,
        "fault-detecting trial allocated {faulty_allocs} heap blocks \
         (floor {FAULTY_TRIAL_ALLOC_FLOOR}) — a per-fault allocation \
         (record, freeze frame, action) crept back in"
    );

    // Snapshot probe: the checkpoint machinery the forked path is built
    // on, measured in isolation. Both gates hold at every size — they
    // are structural, not timing.
    let snapshot = measure_snapshot_probe(&probe_blueprint);
    println!(
        "snapshot probe: capture {:.0} ns ({} allocs), clean-tail \
         restore {:.0} ns ({} allocs)",
        snapshot.capture_ns,
        snapshot.snapshot_allocs,
        snapshot.restore_ns,
        snapshot.restore_allocs,
    );
    assert!(
        snapshot.snapshot_allocs <= SNAPSHOT_ALLOC_FLOOR,
        "warmed snapshot capture allocated {} heap blocks (floor \
         {SNAPSHOT_ALLOC_FLOOR}) — a snapshot buffer has stopped retaining \
         its capacity",
        snapshot.snapshot_allocs
    );
    assert!(
        snapshot.restore_allocs <= SNAPSHOT_ALLOC_FLOOR,
        "warmed clean-tail restore allocated {} heap blocks (floor \
         {SNAPSHOT_ALLOC_FLOOR}) — a component has stopped restoring into \
         its retained buffers",
        snapshot.restore_allocs
    );

    // Oracle first, forked last: the production path is measured after
    // its reference. Neither inherits warmed-up state — every worker
    // builds its own node(s) inside each run.
    let mut oracle_stats = None;
    let oracle_ns = best_of(CAMPAIGN_REPS, || {
        oracle_stats = Some(executor.run(&plan, |s| run_trial(s, HORIZON)));
    });
    // Bracket the forked headline reps with the process-wide macro-
    // stepping counters: the span fraction is a ratio, so aggregating
    // over all reps does not skew it.
    easis_validator::ffwd::reset_metrics();
    let mut forked_stats = None;
    let forked_ns = best_of(CAMPAIGN_REPS, || {
        forked_stats = Some(run_plan(&plan, HORIZON, &executor));
    });
    let ffwd_metrics = easis_validator::ffwd::metrics();
    let oracle_stats = oracle_stats.expect("oracle campaign ran");
    let forked_stats = forked_stats.expect("forked campaign ran");
    assert_eq!(
        forked_stats, oracle_stats,
        "forked campaign and per-trial oracle must produce bit-identical stats"
    );

    let forked = PathTiming::new(forked_ns, trials, simulated_ms_per_trial);
    let oracle = PathTiming::new(oracle_ns, trials, simulated_ms_per_trial);
    let speedup_vs_oracle = oracle_ns / forked_ns;
    let setup = SetupSplit {
        blueprint_compile_ns: compile_ns,
        fresh_build_ns_per_trial: build_ns,
        // Builds run on `workers` threads; compare against the aggregate
        // CPU time, not wall clock, so the fraction stays in [0, 1]
        // regardless of parallelism.
        fresh_setup_fraction: (build_ns * trials as f64) / (oracle_ns * workers as f64),
    };

    println!(
        "{:<28} {:>12} {:>14} {:>16}",
        "path", "elapsed ms", "trials/sec", "ns/simulated ms"
    );
    for (name, t) in [
        ("forked (run_plan)", &forked),
        ("oracle (run_trial)", &oracle),
    ] {
        println!(
            "{:<28} {:>12.1} {:>14.0} {:>16.0}",
            name, t.elapsed_ms, t.trials_per_sec, t.ns_per_simulated_ms
        );
    }
    let tail_fastforward = TailFastforwardProbe {
        ffwd_span_fraction: ffwd_metrics.span_fraction(),
        fallbacks: ffwd_metrics.fallbacks,
        certifications: ffwd_metrics.certifications,
        trials_per_sec: forked.trials_per_sec,
        speedup_vs_baseline: forked.trials_per_sec / FORKED_BASELINE_TRIALS_PER_SEC,
    };
    println!("forked vs oracle speedup: {speedup_vs_oracle:.2}x");
    println!(
        "tail fast-forward: {:.1}% of forked span skipped, {} certifications, \
         {} fallbacks, {:.2}x vs pre-macro-stepping baseline \
         ({FORKED_BASELINE_TRIALS_PER_SEC:.0} trials/sec)",
        tail_fastforward.ffwd_span_fraction * 100.0,
        tail_fastforward.certifications,
        tail_fastforward.fallbacks,
        tail_fastforward.speedup_vs_baseline,
    );
    println!(
        "setup: blueprint compile {:.0} ns (once), fresh build {:.0} ns/trial \
         ({:.0}% of oracle cpu)",
        setup.blueprint_compile_ns,
        setup.fresh_build_ns_per_trial,
        setup.fresh_setup_fraction * 100.0,
    );

    if trials_per_class >= ASSERT_FLOOR_TRIALS_PER_CLASS {
        assert!(
            speedup_vs_oracle >= ORACLE_SPEEDUP_FLOOR,
            "forked campaign must be ≥{ORACLE_SPEEDUP_FLOOR}× the per-trial \
             oracle's trials/sec at the full campaign, got {speedup_vs_oracle:.2}×"
        );
        assert!(
            tail_fastforward.ffwd_span_fraction > 0.0,
            "macro-stepping fast-forwarded nothing over the full campaign — \
             the engine is disabled or every certification is rejected"
        );
        assert!(
            tail_fastforward.fallbacks < ffwd_metrics.span_us / 1_000,
            "{} macro-stepping fallbacks over {} simulated ms — the engine \
             is thrashing on rejected certifications instead of standing down",
            tail_fastforward.fallbacks,
            ffwd_metrics.span_us / 1_000,
        );
        assert!(
            tail_fastforward.speedup_vs_baseline >= FFWD_SPEEDUP_FLOOR,
            "macro-stepped forked path must reach ≥{FFWD_SPEEDUP_FLOOR}× the \
             pre-macro-stepping baseline of {FORKED_BASELINE_TRIALS_PER_SEC:.0} \
             trials/sec at the full campaign, got {:.0} trials/sec ({:.2}×)",
            tail_fastforward.trials_per_sec,
            tail_fastforward.speedup_vs_baseline,
        );
    } else {
        println!(
            "(oracle-speedup and tail-fastforward assertions skipped below \
             {ASSERT_FLOOR_TRIALS_PER_CLASS} trials/class)"
        );
    }

    // Multi-core scaling of the forked path: one sweep entry per worker
    // count, regardless of what EASIS_WORKERS says about the headline
    // runs. Read alongside `worker_sweep_note`: entries beyond the host's
    // core count measure oversubscription, not scaling. Workers 1 and 2
    // run as interleaved pairs, alternating which goes first, so host
    // noise hits both sides of a pair alike; the scaling gate reads the
    // median of the per-pair ratios.
    let full_scale = trials_per_class >= ASSERT_FLOOR_TRIALS_PER_CLASS;
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as u64;
    let time_plan = |workers: usize| {
        let ex = CampaignExecutor::new(workers);
        let start = std::time::Instant::now();
        black_box(run_plan(&plan, HORIZON, &ex));
        start.elapsed().as_nanos() as f64
    };
    let sweep = [1usize, 2, 4, 8];
    let mut best_ns = [f64::INFINITY; 4];
    let mut ratios = Vec::new();
    for pair in 0..if full_scale { SWEEP_PAIRS } else { 1 } {
        let mut ns = [0.0; 2];
        for i in if pair % 2 == 0 { [0, 1] } else { [1, 0] } {
            ns[i] = time_plan(sweep[i]);
            best_ns[i] = best_ns[i].min(ns[i]);
        }
        ratios.push(ns[0] / ns[1]);
    }
    for i in 2..sweep.len() {
        for _ in 0..if full_scale { 2 } else { 1 } {
            best_ns[i] = best_ns[i].min(time_plan(sweep[i]));
        }
    }
    ratios.sort_by(f64::total_cmp);
    let w1_tps = trials as f64 / (best_ns[0] / 1e9);
    let mut worker_sweep: Vec<SweepEntry> = Vec::new();
    println!(
        "{:<28} {:>14} {:>12}",
        "worker sweep (forked)", "trials/sec", "efficiency"
    );
    for (&w, ns) in sweep.iter().zip(best_ns) {
        let tps = trials as f64 / (ns / 1e9);
        let efficiency = tps / (w1_tps * w as f64);
        println!(
            "{:<28} {:>14.0} {:>12.2}",
            format!("  {w} worker(s)"),
            tps,
            efficiency
        );
        worker_sweep.push(SweepEntry {
            workers: w as u64,
            trials_per_sec: tps,
            parallel_efficiency: efficiency,
        });
    }
    let median = ratios[ratios.len() / 2];
    println!(
        "workers=2 / workers=1 over {} interleaved pair(s): median {median:.2}x \
         (min {:.2}x, max {:.2}x)",
        ratios.len(),
        ratios[0],
        ratios[ratios.len() - 1],
    );
    if full_scale && host_cores > 1 {
        assert!(
            median >= SWEEP_SCALING_FLOOR,
            "forked path must scale across workers on a multi-core host: \
             workers=2 reached a median {median:.2}× the workers=1 rate, \
             below {SWEEP_SCALING_FLOOR}×"
        );
    } else {
        println!(
            "(worker-scaling assertion skipped: host has {host_cores} core(s) \
             or reduced scale — oversubscribed sweeps measure contention, \
             not scaling)"
        );
    }

    let report = Report {
        schema_version: 7,
        trials,
        workers: workers as u64,
        simulated_ms_per_trial,
        setup,
        forked,
        oracle,
        speedup_vs_oracle,
        steady_state: AllocProbe {
            clean_trial_allocs: allocs_1x,
            clean_trial_allocs_2x_horizon: allocs_2x,
            horizon_scaling_allocs: scaling,
            faulty_trial_allocs: faulty_allocs,
        },
        snapshot,
        tail_fastforward,
        worker_sweep,
        worker_sweep_note: WORKER_SWEEP_NOTE,
        host_cores,
    };
    let path = "BENCH_campaign.json";
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(path, json).expect("BENCH_campaign.json writable");
    validate_emitted_json(path);
    println!("[record written to {path}]");
}
