//! Process-wide switches and metrics of the hyperperiod macro-stepping
//! engine (tail fast-forward, see [`crate::node::CentralNode::run_span`]).
//!
//! The engine itself lives on each [`crate::node::CentralNode`]; this
//! module holds the two pieces that are process-global by nature:
//!
//! * the `EASIS_FASTFORWARD` opt-out knob, read once (`=0` disables
//!   macro-stepping for every node that has no explicit
//!   [`crate::node::CentralNode::set_fastforward`] override);
//! * the aggregate metrics the campaign bench reads. Each campaign worker
//!   is a short-lived thread whose node lives only for that worker's
//!   runner call, so per-node counters die with it — every `run_span`
//!   folds its counters into one process-wide [`FfwdMetrics`] instead,
//!   and the bench brackets a measured run with
//!   [`reset_metrics`]/[`metrics`].

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

static ENV_DEFAULT: OnceLock<bool> = OnceLock::new();

/// Whether macro-stepping is enabled by default for this process:
/// `EASIS_FASTFORWARD=0` opts out, anything else — including unset —
/// leaves it on. Read once on first use; a per-node
/// [`crate::node::CentralNode::set_fastforward`] override wins either way.
pub fn env_default() -> bool {
    *ENV_DEFAULT
        .get_or_init(|| std::env::var("EASIS_FASTFORWARD").map_or(true, |value| value != "0"))
}

static METRICS: Mutex<FfwdMetrics> = Mutex::new(FfwdMetrics {
    fastforwarded_us: 0,
    span_us: 0,
    fallbacks: 0,
    certifications: 0,
});

/// Aggregate macro-stepping counters since the last [`reset_metrics`],
/// summed over every node and worker thread of the process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FfwdMetrics {
    /// Simulated microseconds skipped by certified hyperperiod jumps.
    pub fastforwarded_us: u64,
    /// Simulated microseconds `run_span` was asked to cover in total
    /// (fast-forwarded or not — the fraction's denominator).
    pub span_us: u64,
    /// Certification attempts rejected plus jump caps simulated
    /// event-by-event.
    pub fallbacks: u64,
    /// Successful certifications (one simulated hyperperiod yielded a
    /// well-formed delta).
    pub certifications: u64,
}

impl FfwdMetrics {
    /// Fraction of the spanned simulated time that was fast-forwarded,
    /// in `[0, 1]`; zero when nothing was spanned.
    pub fn span_fraction(&self) -> f64 {
        if self.span_us == 0 {
            0.0
        } else {
            self.fastforwarded_us as f64 / self.span_us as f64
        }
    }

    /// Accumulates another set of counters into this one.
    pub fn add(&mut self, other: &FfwdMetrics) {
        self.fastforwarded_us += other.fastforwarded_us;
        self.span_us += other.span_us;
        self.fallbacks += other.fallbacks;
        self.certifications += other.certifications;
    }
}

fn global() -> MutexGuard<'static, FfwdMetrics> {
    // The counters stay consistent even if a holder panicked: every
    // update is a plain field-wise add.
    METRICS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Reads the aggregate counters.
pub fn metrics() -> FfwdMetrics {
    *global()
}

/// Zeroes the aggregate counters (bench bracketing).
pub fn reset_metrics() {
    *global() = FfwdMetrics::default();
}

/// Folds one `run_span`'s counters into the process aggregate.
pub(crate) fn record(span: &FfwdMetrics) {
    global().add(span);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accumulation is tested on a local value: the process aggregate is
    /// shared with every other test of this crate that calls `run_span`.
    #[test]
    fn metrics_accumulate() {
        let mut m = FfwdMetrics::default();
        m.add(&FfwdMetrics {
            fastforwarded_us: 10,
            span_us: 40,
            fallbacks: 1,
            certifications: 2,
        });
        m.add(&FfwdMetrics {
            fastforwarded_us: 30,
            span_us: 60,
            fallbacks: 0,
            certifications: 1,
        });
        assert_eq!(m.fastforwarded_us, 40);
        assert_eq!(m.span_us, 100);
        assert_eq!(m.fallbacks, 1);
        assert_eq!(m.certifications, 3);
        assert!((m.span_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(FfwdMetrics::default().span_fraction(), 0.0);
    }
}
