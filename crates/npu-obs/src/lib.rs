//! # npu-obs — pipeline-wide structured observability
//!
//! A zero-cost-when-disabled event layer for the DVFS pipeline. Every
//! layer of the stack — the simulated device, offline calibration, model
//! fitting, the GA search, the strategy executor and the closed-loop
//! optimizer — emits typed [`Event`]s through an [`ObserverHandle`];
//! sinks turn the stream into JSON lines ([`JsonLinesSink`]),
//! human-readable phase tables ([`SummarySink`]) or aggregated
//! counters/histograms ([`MetricsRegistry`]).
//!
//! The default observer is [`NullObserver`]: emission sites pay one
//! cached-boolean check per event and nothing else, so production runs
//! with observability off should be indistinguishable from the
//! uninstrumented code. That overhead is not measured yet: no bench or
//! check gates it (ROADMAP open item 1 plans the measurement).
//!
//! # Example
//!
//! ```
//! use npu_obs::{Event, JsonLinesSink, ObserverHandle, Phase};
//!
//! let sink = JsonLinesSink::new(Vec::new());
//! let obs = ObserverHandle::new(sink);
//! obs.emit(Event::PhaseStarted { phase: Phase::Profile });
//! obs.emit(Event::SetFreqIssued { at_us: 1000.0, freq_mhz: 1300 });
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod metrics;
mod sink;

pub use event::{Event, Phase};
pub use metrics::{Histogram, MetricsRegistry};
pub use sink::{JsonLinesSink, SummarySink, Tee};

use std::sync::Arc;

/// A consumer of pipeline [`Event`]s.
///
/// Implementations must be `Send + Sync`: the GA scores populations on
/// worker threads and a shared device may be observed from several
/// layers at once. `on_event` should be cheap and must never panic the
/// pipeline (sinks swallow I/O errors).
pub trait Observer: Send + Sync {
    /// Whether this observer wants events at all. Emission sites skip
    /// event construction when the handle reports `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Receives one event.
    fn on_event(&self, event: &Event);
}

/// The default observer: discards everything, reports itself disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn on_event(&self, _event: &Event) {}
}

/// A cheap, shareable handle to an [`Observer`].
///
/// The handle caches `enabled()` at construction, so the per-event cost
/// with a [`NullObserver`] is a single branch on a local bool — no
/// virtual call, no event construction. Cloning shares the underlying
/// observer (sinks use interior mutability).
#[derive(Clone)]
pub struct ObserverHandle {
    inner: Arc<dyn Observer>,
    enabled: bool,
}

impl ObserverHandle {
    /// Wraps an observer.
    pub fn new<O: Observer + 'static>(observer: O) -> Self {
        Self::from_arc(Arc::new(observer))
    }

    /// Wraps an already-shared observer (lets the caller keep reading
    /// the sink, e.g. a [`MetricsRegistry`], after handing it off).
    #[must_use]
    pub fn from_arc(observer: Arc<dyn Observer>) -> Self {
        let enabled = observer.enabled();
        Self {
            inner: observer,
            enabled,
        }
    }

    /// The disabled default handle.
    #[must_use]
    pub fn null() -> Self {
        Self::new(NullObserver)
    }

    /// Whether events reach a live sink (cached at construction).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The wrapped observer.
    #[must_use]
    pub fn observer(&self) -> &dyn Observer {
        &*self.inner
    }

    /// Delivers `event` if the observer is enabled.
    pub fn emit(&self, event: Event) {
        if self.enabled {
            self.inner.on_event(&event);
        }
    }
}

impl Default for ObserverHandle {
    fn default() -> Self {
        Self::null()
    }
}

impl std::fmt::Debug for ObserverHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserverHandle")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Debug, Default)]
    struct Counting(AtomicUsize);

    impl Observer for Counting {
        fn on_event(&self, _event: &Event) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn null_handle_is_disabled_and_silent() {
        let h = ObserverHandle::default();
        assert!(!h.enabled());
        h.emit(Event::PhaseStarted {
            phase: Phase::Profile,
        });
    }

    #[test]
    fn live_handle_delivers_events() {
        let sink = Arc::new(Counting::default());
        let h = ObserverHandle::from_arc(sink.clone());
        assert!(h.enabled());
        h.emit(Event::SetFreqIssued {
            at_us: 0.0,
            freq_mhz: 1000,
        });
        h.emit(Event::SetFreqIssued {
            at_us: 1.0,
            freq_mhz: 1100,
        });
        assert_eq!(sink.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn clone_shares_the_sink() {
        let sink = Arc::new(Counting::default());
        let a = ObserverHandle::from_arc(sink.clone());
        let b = a.clone();
        b.emit(Event::PhaseStarted {
            phase: Phase::Report,
        });
        assert_eq!(sink.0.load(Ordering::Relaxed), 1);
    }
}
