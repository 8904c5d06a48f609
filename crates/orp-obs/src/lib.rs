//! # orp-obs — observability for the ORP toolkit
//!
//! A lightweight, **zero-cost-when-disabled** instrumentation layer used
//! by the annealer (`orp-core`) and the network simulator (`orp-netsim`):
//!
//! * [`Recorder`] — the cheap-to-clone handle every instrumented
//!   subsystem accepts. The default ([`Recorder::disabled`]) is a no-op:
//!   each call sites costs one branch on a `None` check, nothing is
//!   allocated, and no time is read.
//! * [`Histogram`] — log-linear value histograms (~3% relative error)
//!   for latencies, utilizations, and queue depths.
//! * monotonic **counters**, named **time series**, and scoped
//!   [`Span`]s measured with a monotonic clock.
//! * [`Journal`] — a fixed-capacity ring buffer of typed [`Event`]s (the
//!   flow-lifecycle / anneal-phase / fault taxonomy of DESIGN.md §4d).
//! * [`StreamSink`] — the one telemetry file format: JSONL records
//!   appended on a wall-clock cadence while a run is live, closed by a
//!   final flush (or written in one call after a run). Every journal
//!   event and span lands in it once, up to the journal's capacity.
//! * readers over the stream: [`StreamFollower`] and
//!   [`render_dashboard`] for `orp watch`, [`read_stream`] for the
//!   [`analyze`] engine — critical paths, makespan breakdowns, link
//!   hotspots, span flamegraphs, two-run diffing — whose report,
//!   folded stacks and Chrome `trace_event` rendering (load in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)) are
//!   renderings of the decoded records.
//!
//! Instrumentation must never change results: a [`Recorder`] only
//! *observes* — it holds no RNG, and nothing in the toolkit reads it
//! back. The `obs_equivalence` property suite pins this down by
//! comparing recorded and unrecorded runs bit for bit.
//!
//! ## Example
//!
//! ```
//! use orp_obs::{analyze, read_stream, Event, Recorder, StreamSink};
//!
//! let rec = Recorder::enabled();
//! {
//!     let _span = rec.span("setup");
//!     rec.incr("widgets", 3);
//!     rec.record("latency_ns", 1_250);
//!     rec.emit(Event::Mark { name: "ready", value: 1.0 });
//! }
//! assert_eq!(rec.snapshot().unwrap().counter("widgets"), Some(3));
//!
//! let path = std::env::temp_dir().join("orp-obs-doc-example.jsonl");
//! StreamSink::create(&path)?.finish(&rec, || ());
//! let data = read_stream(&path)?;
//! assert_eq!(data.event_counts["ready"], 1);
//! assert!(analyze::render_report(&data, 10).contains("widgets"));
//! let chrome = analyze::render_chrome(&std::fs::read_to_string(&path)?)?;
//! assert!(chrome.contains("traceEvents"));
//! # std::fs::remove_file(&path)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod analyze;
mod event;
mod histogram;
mod journal;
mod recorder;
mod snapshot;
pub mod stream;

pub use event::{Event, FaultKind, FlowStage};
pub use histogram::{Histogram, HistogramSummary};
pub use journal::{Journal, TimedEvent};
pub use recorder::{ObsConfig, Recorder, Span};
pub use snapshot::{SeriesPoint, Snapshot, SpanRecord};
pub use stream::{
    parse_stream, read_stream, render_dashboard, StreamEvent, StreamFollower, StreamSink,
    StreamState, STREAM_VERSION,
};
