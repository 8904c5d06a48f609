//! An owned, immutable copy of everything a [`crate::Recorder`]
//! accumulated — what a [`crate::StreamSink`] flush writes.

use crate::histogram::HistogramSummary;
use crate::journal::TimedEvent;

/// One completed span, Chrome-trace-shaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name.
    pub name: &'static str,
    /// Start, microseconds since recorder creation.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Small integer id of the recording thread (0-based, in order of
    /// first appearance).
    pub tid: u32,
}

/// One point of a named time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Record time, microseconds since recorder creation.
    pub ts_us: u64,
    /// Domain coordinate chosen by the caller (e.g. iteration number).
    pub x: f64,
    /// The tracked value.
    pub y: f64,
}

/// A point-in-time copy of a recorder's state.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Microseconds elapsed since the recorder was created.
    pub elapsed_us: u64,
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram digests, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Named time series, sorted by name.
    pub series: Vec<(String, Vec<SeriesPoint>)>,
    /// Retained journal events, oldest first.
    pub events: Vec<TimedEvent>,
    /// Journal events evicted by the ring buffer.
    pub dropped_events: u64,
    /// Completed spans in completion order.
    pub spans: Vec<SpanRecord>,
    /// Spans discarded after the span cap was hit.
    pub dropped_spans: u64,
}

impl Snapshot {
    /// Value of a counter, if it was ever incremented.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Digest of a histogram, if it ever recorded a value.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// A named series, if it has any points.
    pub fn series(&self, name: &str) -> Option<&[SeriesPoint]> {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.as_slice())
    }

    /// Count of journal events whose name matches `name` exactly.
    pub fn event_count(&self, name: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.event.name() == name)
            .count()
    }
}
