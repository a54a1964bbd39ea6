//! The traced run: splits a campaign's wall clock by layer.
//!
//! The engine has no spans of its own yet, so this module replays the
//! call sequence the production forked runner makes on one pooled node —
//! golden-prefix `run_span`, `snapshot_into`, `restore_from`, injector
//! reload and ticks, the armed `run_span`, the post-disarm `run_span` —
//! through public calls only, with a span around each call. It leaves out
//! the tail-collapse memo and the shared prefix cache, so the gap between
//! the untraced replica and `run_plan` is what those two buy.

use crate::calib::Calibrator;
use crate::e2e::{self, mark_differences};
use crate::layers;
use crate::stats::median;
use crate::workload::{arms, disarm_of, fork_of, Campaign, Shape, Workload};
use crate::{Metric, Outcome};
use easis_injection::executor::CampaignExecutor;
use easis_injection::injector::Injector;
use easis_injection::stats::{CampaignStats, DetectorId, TrialOutcome};
use easis_validator::node::{CentralNode, FfwdStats, NodeBlueprint, NodeSnapshot};
use easis_validator::scenario;
use easis_watchdog::report::FaultKind;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fewest interleaved rounds (untraced replica, traced replica,
/// `run_plan`) a traced run makes.
const MIN_ROUNDS: usize = 3;

/// The spans of the replica. Every span but `Trial` is a child of the
/// `Trial` span of the trial it serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Trial,
    Prefix,
    Capture,
    Restore,
    Tick,
    Armed,
    Tail,
    Extract,
}

const LAYERS: [Layer; 8] = [
    Layer::Trial,
    Layer::Prefix,
    Layer::Capture,
    Layer::Restore,
    Layer::Tick,
    Layer::Armed,
    Layer::Tail,
    Layer::Extract,
];

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Trial => "scenario.trial",
            Layer::Prefix => "scenario.prefix",
            Layer::Capture => "node.snapshot_into",
            Layer::Restore => "node.restore_from",
            Layer::Tick => "injector.tick",
            Layer::Armed => "scenario.armed",
            Layer::Tail => "scenario.tail",
            Layer::Extract => "scenario.extract",
        }
    }
}

struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    trial: u32,
}

/// In-memory span recorder; a disabled tracer times nothing.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        if self.on {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    fn record(&mut self, layer: Layer, trial: u32, start_ns: u64) {
        if self.on {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                layer,
                start_ns,
                end_ns,
                trial,
            });
        }
    }

    fn span<R>(&mut self, layer: Layer, trial: u32, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let out = f();
        self.record(layer, trial, start);
        out
    }

    /// Self time per layer: a span's duration minus its children's.
    fn self_ns(&self) -> [u64; LAYERS.len()] {
        let mut out = [0u64; LAYERS.len()];
        for span in &self.spans {
            let d = span.end_ns - span.start_ns;
            out[span.layer as usize] += d;
            if span.layer != Layer::Trial {
                out[Layer::Trial as usize] -= d;
            }
        }
        out
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = match s.layer {
                Layer::Trial => "replica".to_string(),
                _ => format!("trial:{}", s.trial),
            };
            let name = match s.layer {
                Layer::Trial => format!("trial:{}", s.trial),
                layer => layer.name().to_string(),
            };
            writeln!(out, "{name}\t{}\t{}\t{parent}", s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// What one replica pass did, in exact, host-independent counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    captures: u64,
    restores: u64,
    ticks: u64,
    prefix_us: u64,
    armed_us: u64,
    tail_us: u64,
    ffwd: FfwdStats,
}

struct Replica {
    outcomes: CampaignStats,
    counts: Counts,
    wall_s: f64,
}

/// The detector outcome of a finished trial, read off the node's fault
/// log, hardware watchdog and baseline monitors the way the engine does.
fn extract(
    node: &CentralNode,
    from: easis_sim::time::Instant,
    class: std::sync::Arc<str>,
) -> TrialOutcome {
    let mut outcome = TrialOutcome::new(class);
    let mut note = |detector, at: easis_sim::time::Instant| {
        if at >= from {
            outcome.record(detector, at.saturating_duration_since(from));
        }
    };
    for fault in &node.world.fault_log {
        let detector = match fault.kind {
            FaultKind::Aliveness => DetectorId::SwAliveness,
            FaultKind::ArrivalRate => DetectorId::SwArrivalRate,
            FaultKind::ProgramFlow => DetectorId::SwProgramFlow,
        };
        note(detector, fault.at);
    }
    if let Some(at) = node.world.hw_watchdog.first_expiry() {
        note(DetectorId::HwWatchdog, at);
    }
    if let Some((_, at)) = node.deadline_monitor.stats().first_detection() {
        note(DetectorId::DeadlineMonitor, at);
    }
    if let Some((_, at)) = node.exec_monitor.stats().first_detection() {
        note(DetectorId::ExecTimeMonitor, at);
    }
    outcome
}

/// One injector tick at `at`, traced.
fn tick(
    tracer: &mut Tracer,
    injector: &mut Injector,
    node: &mut CentralNode,
    trial: u32,
    at: easis_sim::time::Instant,
    counts: &mut Counts,
) {
    tracer.span(Layer::Tick, trial, || {
        injector.tick(at, &mut node.world.controls, &mut node.os)
    });
    counts.ticks += 1;
}

/// One pass of the forked call sequence over the whole plan on a freshly
/// built node: trials in fork order, the golden prefix simulated once and
/// checkpointed at each distinct fork, each trial restored from the
/// checkpoint of its fork.
fn replica(campaign: &Campaign, blueprint: &NodeBlueprint, tracer: &mut Tracer) -> Replica {
    let started = Instant::now();
    let horizon = campaign.horizon;
    let specs = campaign.plan.trials();
    let mut node = CentralNode::build_from_blueprint(blueprint);
    node.start();
    let ffwd_before = node.ffwd_stats();
    let mut injector = Injector::none();
    let mut ckpt = NodeSnapshot::default();
    let mut ckpt_at = None;
    let mut counts = Counts::default();
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| fork_of(&specs[i], horizon));
    let mut outcomes: Vec<Option<TrialOutcome>> = vec![None; specs.len()];
    for &i in &order {
        let spec = &specs[i];
        let trial = i as u32;
        let fork = fork_of(spec, horizon);
        let trial_start = tracer.now_ns();
        if ckpt_at.is_some() {
            // Forks ascend, so the checkpoint never lies past this fork.
            tracer.span(Layer::Restore, trial, || {
                node.restore_from(&ckpt);
            });
            counts.restores += 1;
        }
        if ckpt_at != Some(fork) {
            let from = node.os.now();
            if from < fork {
                tracer.span(Layer::Prefix, trial, || node.run_span(fork));
                counts.prefix_us += fork.saturating_duration_since(from).as_micros();
            }
            tracer.span(Layer::Capture, trial, || node.snapshot_into(&mut ckpt));
            counts.captures += 1;
            ckpt_at = Some(fork);
        }
        let arms = arms(spec, horizon);
        tracer.span(Layer::Tick, trial, || {
            injector.reload([spec.injection.clone()]);
            injector.attach_obs(node.world.obs.clone());
        });
        tick(tracer, &mut injector, &mut node, trial, fork, &mut counts);
        node.set_injection_armed(arms);
        let mut armed_us = 0;
        let mut tail_us = 0;
        if let Some(disarm) = disarm_of(spec, horizon) {
            tracer.span(Layer::Armed, trial, || node.run_span(disarm));
            armed_us += disarm.saturating_duration_since(fork).as_micros();
            tick(tracer, &mut injector, &mut node, trial, disarm, &mut counts);
            node.set_injection_armed(false);
        }
        let now = node.os.now();
        if now < horizon {
            let still_armed = arms && disarm_of(spec, horizon).is_none();
            let (layer, sim) = if still_armed {
                (Layer::Armed, &mut armed_us)
            } else {
                (Layer::Tail, &mut tail_us)
            };
            tracer.span(layer, trial, || node.run_span(horizon));
            *sim += horizon.saturating_duration_since(now).as_micros();
            tick(
                tracer,
                &mut injector,
                &mut node,
                trial,
                horizon,
                &mut counts,
            );
        }
        node.set_injection_armed(false);
        counts.armed_us += armed_us;
        counts.tail_us += tail_us;
        let class = spec.injection.class.interned_tag();
        outcomes[i] = Some(tracer.span(Layer::Extract, trial, || {
            extract(&node, spec.injection.from, class)
        }));
        tracer.record(Layer::Trial, trial, trial_start);
    }
    let after = node.ffwd_stats();
    counts.ffwd = FfwdStats {
        fastforwarded: after.fastforwarded - ffwd_before.fastforwarded,
        span: after.span - ffwd_before.span,
        fallbacks: after.fallbacks - ffwd_before.fallbacks,
        certifications: after.certifications - ffwd_before.certifications,
    };
    let mut stats = CampaignStats::new();
    for outcome in outcomes {
        stats.push(outcome.expect("every trial ran"));
    }
    Replica {
        outcomes: stats,
        counts,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

pub fn run(
    campaign: &Campaign,
    shape: &Shape,
    budget: Duration,
    out_dir: &Path,
    workload: Workload,
    seed: u64,
) -> Outcome {
    let deadline = Instant::now() + budget.mul_f64(0.8);
    let mut calib = Calibrator::new();
    let setup = e2e::measure_setup(&mut calib);
    let blueprint = NodeBlueprint::compile(scenario::campaign_node_config());
    let executor = CampaignExecutor::new(campaign.workers);
    let trials = campaign.plan.len();

    let first = replica(campaign, &blueprint, &mut Tracer::new(false));
    let mut unstable = vec![false; trials];
    let mut counts_repeat = true;
    let mut self_ns = [0u64; LAYERS.len()];
    let mut traced_wall_s = 0.0;
    let mut overhead = Vec::new();
    let mut cache_gain = Vec::new();
    let mut last_trace = Tracer::new(true);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        let plain = replica(campaign, &blueprint, &mut Tracer::new(false));
        let mut tracer = Tracer::new(true);
        let traced = replica(campaign, &blueprint, &mut tracer);
        let t = Instant::now();
        let production = scenario::run_plan(&campaign.plan, campaign.horizon, &executor);
        let production_s = t.elapsed().as_secs_f64();
        for r in [&plain, &traced] {
            mark_differences(&first.outcomes, &r.outcomes, &mut unstable);
            counts_repeat &= r.counts == first.counts;
        }
        mark_differences(&first.outcomes, &production, &mut unstable);
        for (sum, add) in self_ns.iter_mut().zip(tracer.self_ns()) {
            *sum += add;
        }
        traced_wall_s += traced.wall_s;
        overhead.push(traced.wall_s / plain.wall_s - 1.0);
        cache_gain.push(plain.wall_s / production_s);
        last_trace = tracer;
        rounds += 1;
    }
    let primitives = layers::measure(&blueprint, trials, campaign.workers);

    let oracle = e2e::oracle(campaign);
    let failed = first
        .outcomes
        .trials()
        .iter()
        .zip(oracle.trials())
        .zip(&unstable)
        .filter(|((got, want), &unstable)| got != want || unstable)
        .count();

    let trace_path = out_dir.join(format!("spans-{}-{seed}.tsv", workload.name()));
    let written = std::fs::create_dir_all(out_dir).and_then(|()| last_trace.write(&trace_path));
    match written {
        Ok(()) => println!("spans of the last traced pass: {}", trace_path.display()),
        Err(err) => eprintln!("warning: cannot write {}: {err}", trace_path.display()),
    }

    let c = first.counts;
    let passes = rounds as f64;
    let total_ns = traced_wall_s * 1e9;
    let share = |layer: Layer| self_ns[layer as usize] as f64 / total_ns;
    let per_sim_ms = |layer: Layer, sim_us: u64| {
        if sim_us == 0 {
            0.0
        } else {
            self_ns[layer as usize] as f64 / (passes * sim_us as f64 / 1e3)
        }
    };
    let per_call =
        |layer: Layer, calls: u64| self_ns[layer as usize] as f64 / (passes * calls.max(1) as f64);
    let span_frac = c.ffwd.fastforwarded.as_micros() as f64 / c.ffwd.span.as_micros().max(1) as f64;
    println!("traced rounds: {rounds}");
    println!("self time share by span (of traced replica wall clock):");
    for layer in LAYERS {
        println!("  {:<20} {:.4}", layer.name(), share(layer));
    }
    println!(
        "exact counts per replica pass: captures {} restores {} ticks {} simulated_us prefix {} armed {} tail {} ffwd certifications {} fallbacks {} fastforwarded_us {} span_us {} (repeat: {counts_repeat})",
        c.captures,
        c.restores,
        c.ticks,
        c.prefix_us,
        c.armed_us,
        c.tail_us,
        c.ffwd.certifications,
        c.ffwd.fallbacks,
        c.ffwd.fastforwarded.as_micros(),
        c.ffwd.span.as_micros()
    );
    println!(
        "tracing overhead {:.4}; untraced replica / run_plan wall clock {:.3}",
        median(&overhead),
        median(&cache_gain)
    );
    println!(
        "mismatch_frac: {} ({failed} of {trials} trials)",
        failed as f64 / trials as f64
    );

    let per_trial = |n: u64| n as f64 / trials as f64;
    Outcome {
        correct: failed == 0 && counts_repeat,
        attempted: trials,
        failed,
        metrics: vec![
            Metric::new("scenario.armed.share", share(Layer::Armed), "fraction"),
            Metric::new(
                "scenario.armed.ns_per_sim_ms",
                per_sim_ms(Layer::Armed, c.armed_us),
                "ns/sim_ms",
            ),
            Metric::new("scenario.tail.share", share(Layer::Tail), "fraction"),
            Metric::new(
                "scenario.tail.ns_per_sim_ms",
                per_sim_ms(Layer::Tail, c.tail_us),
                "ns/sim_ms",
            ),
            Metric::new("scenario.prefix.share", share(Layer::Prefix), "fraction"),
            Metric::new(
                "node.snapshot_into.ns",
                per_call(Layer::Capture, c.captures),
                "ns",
            ),
            Metric::new("node.snapshot_into.calls", c.captures as f64, "count"),
            Metric::new(
                "node.restore_from.ns",
                per_call(Layer::Restore, c.restores),
                "ns",
            ),
            Metric::new("node.restore_from.calls", c.restores as f64, "count"),
            Metric::new("injector.tick.ns", per_call(Layer::Tick, c.ticks), "ns"),
            Metric::new("ffwd.span_frac", span_frac, "fraction"),
            Metric::new(
                "ffwd.certifications_per_trial",
                per_trial(c.ffwd.certifications),
                "count",
            ),
            Metric::new(
                "ffwd.fallbacks_per_trial",
                per_trial(c.ffwd.fallbacks),
                "count",
            ),
            Metric::new("scenario.memo_hit_frac", shape.memo_hit_frac, "fraction"),
            Metric::new(
                "scenario.distinct_forks",
                shape.distinct_forks as f64,
                "count",
            ),
            Metric::new(
                "node.event_level.ns_per_sim_ms",
                primitives.event_level_ns_per_sim_ms,
                "ns/sim_ms",
            ),
            Metric::new(
                "node.macro_step.ns_per_sim_ms",
                primitives.macro_step_ns_per_sim_ms,
                "ns/sim_ms",
            ),
            Metric::new("watchdog.heartbeat.ns", primitives.heartbeat_ns, "ns"),
            Metric::new("watchdog.run_cycle.ns", primitives.run_cycle_ns, "ns"),
            Metric::new("fmf.healthy_cycle.ns", primitives.healthy_cycle_ns, "ns"),
            Metric::new("rte.signal_rw.ns", primitives.signal_rw_ns, "ns"),
            Metric::new(
                "executor.merge.ns_per_trial",
                primitives.merge_ns_per_trial,
                "ns",
            ),
            Metric::new("setup.compile.ns", setup.compile_ns, "ns"),
            Metric::new("setup.build.ns", setup.build_ns, "ns"),
            Metric::new("setup.start.ns", setup.start_ns, "ns"),
            Metric::new("trace.overhead_frac", median(&overhead), "fraction"),
            Metric::new("scenario.caches_speedup", median(&cache_gain), "x"),
        ],
    }
}
