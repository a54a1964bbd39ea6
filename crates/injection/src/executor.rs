//! Parallel, deterministic campaign execution.
//!
//! The serial [`CampaignPlan::run`] walks trials one by one; a realistic
//! coverage analysis (the paper's outlook asks for "further analysis of
//! fault detection coverage") needs thousands of trials, each simulating a
//! full central node to its horizon. Trials are hermetic — every one
//! builds its own node world from its [`TrialSpec`] — so they
//! parallelise embarrassingly. [`CampaignExecutor`] fans a plan across a
//! pool of worker threads and merges the outcomes **by trial index**, so
//! the resulting [`CampaignStats`] is bit-identical to a serial run
//! regardless of worker count, chunk size or thread scheduling.
//!
//! Work distribution is **statically striped**: the plan is cut into
//! chunks of consecutive trials and the chunks are dealt round-robin to
//! the workers up front, so a worker owns its whole stripe from the moment
//! it spawns — no shared work queue, no channel receive per chunk. Each
//! worker hands its entire stripe to the runner in **one call** and sends
//! the results exactly once, so a runner can keep per-call state (a built
//! node, a checkpoint buffer) alive for the worker's whole share of the
//! plan. Striping is static, so the chunk size only decides how evenly a
//! plan whose trials are grouped by error class splits across workers:
//! small chunks interleave the classes, large chunks hand each worker long
//! single-class runs. Campaign trials are near-uniform in cost, so
//! dynamic rebalancing buys nothing here.
//!
//! [`CampaignExecutor::run_chunked`] exposes the stripe to the runner: the
//! validator's forked campaign runner sorts a worker's stripe by injection
//! time and forks trials from golden-prefix snapshots instead of
//! re-simulating the prefix.
//!
//! ```
//! use easis_injection::campaign::CampaignBuilder;
//! use easis_injection::executor::CampaignExecutor;
//! use easis_injection::stats::TrialOutcome;
//! use easis_rte::runnable::RunnableId;
//!
//! let plan = CampaignBuilder::new(7, vec![RunnableId(0)]).trials_per_class(2).build();
//! let runner = |spec: &easis_injection::campaign::TrialSpec| {
//!     TrialOutcome::new(spec.injection.class.tag())
//! };
//! let serial = CampaignExecutor::serial().run(&plan, runner);
//! let parallel = CampaignExecutor::new(4).with_chunk_size(3).run(&plan, runner);
//! assert_eq!(serial, parallel);
//! ```

use crate::campaign::{CampaignPlan, TrialSpec};
use crate::stats::{CampaignStats, TrialOutcome};
use crossbeam::channel;

/// Executes campaign plans across a fixed pool of worker threads with
/// deterministic (order-independent) result aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignExecutor {
    workers: usize,
    /// Trials per striping chunk; 0 = auto-size from the plan.
    chunk: usize,
}

impl CampaignExecutor {
    /// A single-threaded executor; behaves exactly like
    /// [`CampaignPlan::run`].
    pub fn serial() -> Self {
        CampaignExecutor { workers: 1, chunk: 0 }
    }

    /// An executor with `workers` threads (clamped to at least 1) and
    /// automatic chunk sizing.
    pub fn new(workers: usize) -> Self {
        CampaignExecutor {
            workers: workers.max(1),
            chunk: 0,
        }
    }

    /// Sets the number of consecutive trial specs per striping chunk. `0`
    /// restores automatic sizing (≈ 4 chunks per worker, clamped to
    /// 1..=64). The merged stats are bit-identical for every chunk size;
    /// the knob only decides how evenly a class-ordered plan splits across
    /// the workers' stripes (the runner is still called once per worker).
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// An executor sized by the `EASIS_WORKERS` environment variable
    /// (worker count), falling back to the machine's available
    /// parallelism, and chunked by `EASIS_CHUNK` (trials per striping
    /// chunk, 0/unset = auto). A set-but-invalid value (unparsable, or a
    /// worker count of 0) is rejected with a warning on stderr rather
    /// than silently ignored, then the fallback applies.
    pub fn from_env() -> Self {
        let workers = match std::env::var("EASIS_WORKERS") {
            Ok(raw) => match raw.parse::<usize>() {
                Ok(n) if n > 0 => Some(n),
                Ok(_) => {
                    eprintln!(
                        "warning: EASIS_WORKERS=0 is invalid (need a positive worker count); \
                         falling back to available parallelism"
                    );
                    None
                }
                Err(_) => {
                    eprintln!(
                        "warning: EASIS_WORKERS={raw:?} is not a number; \
                         falling back to available parallelism"
                    );
                    None
                }
            },
            Err(_) => None,
        };
        let workers = workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let chunk = match std::env::var("EASIS_CHUNK") {
            Ok(raw) => match raw.parse::<usize>() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("warning: EASIS_CHUNK={raw:?} is not a number; using auto chunking");
                    0
                }
            },
            Err(_) => 0,
        };
        CampaignExecutor::new(workers).with_chunk_size(chunk)
    }

    /// Number of worker threads this executor uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Configured trials per striping chunk (0 = auto).
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }

    /// The chunk size actually used for a plan of `trials` trials.
    fn effective_chunk(&self, trials: usize) -> usize {
        if self.chunk > 0 {
            return self.chunk;
        }
        // Auto: ~4 chunks per worker, so each stripe samples every part
        // of a class-ordered plan; bounded so tiny plans still spread
        // across workers and huge plans keep chunks of useful length.
        (trials / (self.workers * 4)).clamp(1, 64)
    }

    /// Runs every trial of `plan` through `runner` and aggregates the
    /// outcomes into [`CampaignStats`].
    ///
    /// Determinism guarantee: outcomes are merged in **trial index
    /// order**, never completion order, so for any pure `runner` (one
    /// whose outcome depends only on the [`TrialSpec`]) the returned
    /// stats — and any report or JSON derived from them — are
    /// bit-identical across worker counts, chunk sizes and runs.
    ///
    /// # Panics
    ///
    /// Propagates panics from `runner` (a poisoned trial aborts the
    /// campaign rather than silently skewing coverage numbers).
    pub fn run<F>(&self, plan: &CampaignPlan, runner: F) -> CampaignStats
    where
        F: Fn(&TrialSpec) -> TrialOutcome + Sync,
    {
        self.run_chunked(plan, |specs, _worker| specs.iter().map(&runner).collect())
    }

    /// Like [`CampaignExecutor::run`], but hands the runner a worker's
    /// whole **stripe** of trial specs in one call, together with the
    /// worker's index (`0..workers`; the serial path is worker 0 and gets
    /// the entire plan), and expects one outcome per spec, in spec order.
    /// A runner may reorder the trials *internally* (e.g. by injection
    /// time, to share golden-prefix snapshots) as long as the returned
    /// vector lines up with the input slice.
    ///
    /// The plan is cut into chunks of consecutive trials, dealt
    /// round-robin to the workers before any thread spawns: worker `w`'s
    /// stripe is chunks `w`, `w + W`, `w + 2W`, … concatenated in trial
    /// index order. The runner is called exactly once per worker (a worker
    /// left without a chunk is not spawned), and each worker sends its
    /// results in a single channel message. Outcomes are
    /// merged by trial index, so the stats are bit-identical across worker
    /// counts and chunk sizes for any pure runner.
    ///
    /// # Panics
    ///
    /// Panics if the runner returns the wrong number of outcomes for a
    /// stripe, and propagates runner panics.
    pub fn run_chunked<F>(&self, plan: &CampaignPlan, runner: F) -> CampaignStats
    where
        F: Fn(&[TrialSpec], usize) -> Vec<TrialOutcome> + Sync,
    {
        let trials = plan.trials();
        if self.workers == 1 || trials.len() <= 1 {
            let outcomes = runner(trials, 0);
            assert_eq!(
                outcomes.len(),
                trials.len(),
                "runner must return one outcome per spec"
            );
            let mut stats = CampaignStats::new();
            for outcome in outcomes {
                stats.push(outcome);
            }
            return stats;
        }

        let chunk = self.effective_chunk(trials.len());
        // A worker without a chunk would only pay the runner's setup.
        let workers = self.workers.min(trials.len().div_ceil(chunk));
        let (done_tx, done_rx) = channel::unbounded::<(usize, Vec<TrialOutcome>)>();
        let runner = &runner;
        crossbeam::thread::scope(|scope| {
            for worker in 0..workers {
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    let stripe: Vec<TrialSpec> =
                        stripe_indices(trials.len(), chunk, workers, worker)
                            .map(|index| trials[index].clone())
                            .collect();
                    let outcomes = runner(&stripe, worker);
                    assert_eq!(
                        outcomes.len(),
                        stripe.len(),
                        "runner must return one outcome per spec"
                    );
                    done_tx.send((worker, outcomes)).expect("results open");
                });
            }
        })
        .expect("campaign worker panicked");
        drop(done_tx);

        // Merge by trial index: completion order is scheduling noise.
        let mut slots: Vec<Option<TrialOutcome>> = vec![None; trials.len()];
        for (worker, outcomes) in done_rx.iter() {
            for (index, outcome) in
                stripe_indices(trials.len(), chunk, workers, worker).zip(outcomes)
            {
                debug_assert!(slots[index].is_none(), "trial {index} ran twice");
                slots[index] = Some(outcome);
            }
        }
        let mut stats = CampaignStats::new();
        for (index, slot) in slots.into_iter().enumerate() {
            stats.push(slot.unwrap_or_else(|| panic!("trial {index} produced no outcome")));
        }
        stats
    }
}

/// Trial indices of `worker`'s stripe, ascending: chunks `worker`,
/// `worker + workers`, … of `chunk` consecutive trials each.
fn stripe_indices(
    trials: usize,
    chunk: usize,
    workers: usize,
    worker: usize,
) -> impl Iterator<Item = usize> {
    (worker * chunk..trials)
        .step_by(chunk * workers)
        .flat_map(move |start| start..(start + chunk).min(trials))
}

impl Default for CampaignExecutor {
    fn default() -> Self {
        CampaignExecutor::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignBuilder;
    use crate::stats::DetectorId;
    use easis_rte::runnable::RunnableId;
    use easis_sim::rng::SimRng;
    use easis_sim::time::Duration;

    /// A cheap runner whose outcome is a pure function of the spec.
    fn synthetic(spec: &TrialSpec) -> TrialOutcome {
        let mut rng = SimRng::seed_from(spec.seed);
        let mut outcome = TrialOutcome::new(spec.injection.class.tag());
        for detector in DetectorId::ALL {
            if rng.next_below(100) < 60 {
                outcome.record(detector, Duration::from_micros(rng.next_in(100, 50_000)));
            }
        }
        outcome
    }

    fn plan() -> CampaignPlan {
        CampaignBuilder::new(0xFEED, (0..4).map(RunnableId).collect())
            .trials_per_class(6)
            .build()
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let plan = plan();
        let serial = CampaignExecutor::serial().run(&plan, synthetic);
        for workers in [2, 3, 4, 8] {
            let parallel = CampaignExecutor::new(workers).run(&plan, synthetic);
            assert_eq!(serial, parallel, "{workers} workers diverged");
        }
    }

    #[test]
    fn every_chunk_size_matches_serial_exactly() {
        let plan = plan();
        let serial = CampaignExecutor::serial().run(&plan, synthetic);
        for chunk in [1, 2, 3, 5, 7, 24, 100] {
            let chunked = CampaignExecutor::new(4).with_chunk_size(chunk).run(&plan, synthetic);
            assert_eq!(serial, chunked, "chunk size {chunk} diverged");
        }
    }

    #[test]
    fn outcomes_are_in_trial_index_order() {
        let plan = plan();
        let stats = CampaignExecutor::new(4).run(&plan, synthetic);
        assert_eq!(stats.len(), plan.len());
        for (trial, outcome) in plan.trials().iter().zip(stats.trials()) {
            assert_eq!(trial.injection.class.tag(), &*outcome.class);
        }
    }

    #[test]
    fn run_chunked_matches_run_for_any_worker_count() {
        let plan = plan();
        let serial = CampaignExecutor::serial().run(&plan, synthetic);
        for workers in [1, 2, 4, 8] {
            let chunked = CampaignExecutor::new(workers).run_chunked(&plan, |specs, worker| {
                // Process the stripe back-to-front internally; return in
                // spec order — the contract run_chunked requires.
                let mut out: Vec<Option<TrialOutcome>> = specs.iter().map(|_| None).collect();
                assert!(worker < workers, "worker index out of range");
                for (i, spec) in specs.iter().enumerate().rev() {
                    out[i] = Some(synthetic(spec));
                }
                out.into_iter().map(Option::unwrap).collect()
            });
            assert_eq!(serial, chunked, "{workers} workers diverged");
        }
    }

    /// Each worker's runner call receives its whole stripe — chunks
    /// `w`, `w + W`, … in ascending trial index order — exactly once.
    #[test]
    fn runner_is_called_once_per_worker_with_its_stripe() {
        // Seeds equal trial indices, so a call's specs name its trials.
        let trials: Vec<TrialSpec> = plan()
            .trials()
            .iter()
            .enumerate()
            .map(|(index, spec)| TrialSpec {
                seed: index as u64,
                ..spec.clone()
            })
            .collect();
        let plan = CampaignPlan::from_trials(trials);
        let serial = CampaignExecutor::serial().run(&plan, synthetic);
        for workers in [1, 2, 3, 8] {
            for chunk in [0, 1, 4, 12] {
                let exec = CampaignExecutor::new(workers).with_chunk_size(chunk);
                let calls = std::sync::Mutex::new(Vec::new());
                let stats = exec.run_chunked(&plan, |specs, worker| {
                    let seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
                    calls.lock().unwrap().push((worker, seeds));
                    specs.iter().map(synthetic).collect()
                });
                assert_eq!(stats, serial, "{workers} workers, chunk {chunk}");
                let mut calls = calls.into_inner().unwrap();
                calls.sort();
                let size = if workers == 1 {
                    plan.len()
                } else {
                    exec.effective_chunk(plan.len())
                };
                let expected: Vec<(usize, Vec<u64>)> = (0..workers)
                    .map(|worker| {
                        let seeds = (0..plan.len() as u64)
                            .filter(|&index| (index as usize / size) % workers == worker)
                            .collect();
                        (worker, seeds)
                    })
                    .filter(|(_, seeds): &(usize, Vec<u64>)| !seeds.is_empty())
                    .collect();
                assert_eq!(calls, expected, "{workers} workers, chunk {chunk}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one outcome per spec")]
    fn run_chunked_rejects_short_outcome_vectors() {
        let plan = plan();
        let _ = CampaignExecutor::serial()
            .run_chunked(&plan, |specs, _| specs.iter().skip(1).map(synthetic).collect());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(CampaignExecutor::new(0).workers(), 1);
    }

    #[test]
    fn auto_chunk_is_bounded() {
        let exec = CampaignExecutor::new(4);
        assert_eq!(exec.chunk_size(), 0);
        assert_eq!(exec.effective_chunk(0), 1);
        assert_eq!(exec.effective_chunk(8), 1);
        assert_eq!(exec.effective_chunk(1000), 62);
        assert_eq!(exec.effective_chunk(1_000_000), 64);
        assert_eq!(CampaignExecutor::new(4).with_chunk_size(7).effective_chunk(1000), 7);
    }

    #[test]
    fn empty_plan_yields_empty_stats() {
        let stats = CampaignExecutor::new(4).run(&CampaignPlan::default(), synthetic);
        assert!(stats.is_empty());
    }

    #[test]
    fn more_workers_than_trials_is_fine() {
        let plan = CampaignBuilder::new(9, vec![RunnableId(0)])
            .trials_per_class(1)
            .build();
        let stats = CampaignExecutor::new(64).run(&plan, synthetic);
        assert_eq!(stats.len(), plan.len());
    }
}
