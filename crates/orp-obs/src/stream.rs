//! The metrics stream — the toolkit's one telemetry format.
//!
//! A [`StreamSink`] appends small, self-describing JSONL records to a
//! metrics file on a wall-clock cadence, cheap enough to hook into the
//! annealer iteration loop and the netsim event loop, and closes the
//! file with a final flush. Everything else reads the file back:
//!
//! * one line per record, each tagged with a `"k"` kind —
//!   `open`, `meta`, `counters`, `gauges`, `hists`, `series`,
//!   `spans`, `events`, `done`;
//! * `counters`/`gauges`/`hists` are *absolute* (each flush replaces
//!   the previous view, so a reader needs no history);
//! * `series`, `spans` and `events` are *deltas* (only what was not yet
//!   streamed), `series` with a `reset` escape hatch for the rare case
//!   where in-memory decimation rewrote a series under the writer;
//! * journal events are written at most once each, in order, at most
//!   64 per line, and a stream holds at most the recorder's journal
//!   capacity of them: flushes before [`StreamSink::finish`] write the
//!   oldest, up to half that bound, and `finish` the newest that fit
//!   the rest, so a run within the bound streams every event and a
//!   longer one keeps its start and its closing records; each
//!   `events`/`spans` line carries the running count of what the
//!   stream `dropped` (evicted by the ring before a flush reached it,
//!   or skipped by `finish`);
//! * writes are appends of whole lines; no fsync on the hot path. A
//!   crash can therefore tear at most the final line, and the reader
//!   tolerates exactly that: a partial last line is skipped, everything
//!   before it loads.
//!
//! One line decoder feeds every reader: [`StreamState`] is the bounded
//! summary view [`StreamFollower`] keeps while tailing a growing file
//! and [`render_dashboard`] draws for `orp watch`, and [`parse_stream`]
//! / [`read_stream`] build the full [`TraceData`] that `orp report`,
//! `orp diff` and the Chrome rendering read.

use crate::analyze::{SpanInfo, TraceData};
use crate::histogram::HistogramSummary;
use crate::recorder::{Recorder, StreamCursor};
use crate::snapshot::SeriesPoint;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Format version written in the `open` record. Version 1 streams (the
/// newest 64 events per flush, no spans) still load.
pub const STREAM_VERSION: u64 = 2;

/// Default wall-clock cadence between flushes.
pub const DEFAULT_STREAM_INTERVAL: Duration = Duration::from_millis(500);

/// Most journal events or spans one `events`/`spans` line carries.
const DELTA_CHUNK: usize = 64;

/// Bytes a flush buffers before appending them (at a line boundary).
const SPILL_BYTES: usize = 1 << 20;

pub(crate) fn esc(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes a float so that it reads back as the same float: non-finite
/// values become `null`, and magnitudes from 10^15 up take an exponent
/// (plain digits would read back as an integer, which overflows the
/// reader's integers from 10^39 up).
pub(crate) fn num(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.abs() < 1e15 {
        let _ = write!(out, "{v}");
    } else {
        let _ = write!(out, "{v:e}");
    }
}

#[derive(Debug)]
struct SeriesCursor {
    /// Points already streamed.
    sent: usize,
    /// First streamed point — if it changes, decimation rewrote the
    /// series and the next record must `reset`.
    first: Option<(u64, f64, f64)>,
}

#[derive(Debug)]
struct StreamInner {
    file: std::fs::File,
    seq: u64,
    last_flush: Instant,
    interval: Duration,
    series_sent: BTreeMap<String, SeriesCursor>,
    /// How far the journal and the span list have been streamed.
    cursor: StreamCursor,
    /// Dropped counts as last written, for events and spans.
    dropped_sent: [u64; 2],
    done: bool,
}

/// Appends `o` to `file` once it holds [`SPILL_BYTES`], so one flush of
/// a long journal never buffers the whole batch.
fn spill(file: &mut std::fs::File, o: &mut String, min: usize) {
    if o.len() >= min {
        let _ = file.write_all(o.as_bytes());
        o.clear();
    }
}

/// Writes `items` as delta lines of at most `DELTA_CHUNK` items, each
/// opening with `head` (kind, `seq`, `t_us`) and carrying the running
/// `dropped` count; a changed count with no new items still gets one
/// (empty) line.
fn delta_lines<T>(
    o: &mut String,
    file: &mut std::fs::File,
    head: &str,
    dropped: u64,
    dropped_sent: &mut u64,
    items: &[T],
    item: impl Fn(&T, &mut String),
) {
    if items.is_empty() && dropped == *dropped_sent {
        return;
    }
    *dropped_sent = dropped;
    let empty = items.is_empty().then_some(items);
    for chunk in items.chunks(DELTA_CHUNK).chain(empty) {
        let _ = write!(o, "{head},\"dropped\":{dropped},\"data\":[");
        for (i, x) in chunk.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            item(x, o);
        }
        o.push_str("]}\n");
        spill(file, o, SPILL_BYTES);
    }
}

/// Append-only JSONL metrics stream writer. Cheap to clone; clones
/// share the file and cursor state.
#[derive(Debug, Clone)]
pub struct StreamSink {
    inner: Arc<Mutex<StreamInner>>,
    path: PathBuf,
}

impl StreamSink {
    /// Creates (truncates) `path` and writes the `open` record.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::with_interval(path, DEFAULT_STREAM_INTERVAL)
    }

    /// [`StreamSink::create`] with an explicit flush cadence.
    pub fn with_interval(path: impl AsRef<Path>, interval: Duration) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = std::fs::File::create(&path)?;
        writeln!(file, "{{\"k\":\"open\",\"v\":{STREAM_VERSION}}}")?;
        Ok(Self {
            inner: Arc::new(Mutex::new(StreamInner {
                file,
                seq: 0,
                last_flush: Instant::now(),
                interval,
                series_sent: BTreeMap::new(),
                cursor: StreamCursor::default(),
                dropped_sent: [0; 2],
                done: false,
            })),
            path,
        })
    }

    /// The file this sink appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a `meta` record: string tags (run kind, labels) and
    /// numeric facts (n, r, iteration budget, worker count).
    pub fn meta(&self, tags: &[(&str, &str)], vals: &[(&str, f64)]) {
        let mut g = self.inner.lock().expect("stream poisoned");
        let mut o = String::with_capacity(256);
        let _ = write!(
            o,
            "{{\"k\":\"meta\",\"seq\":{},\"t_us\":0,\"tags\":{{",
            g.seq
        );
        for (i, (k, v)) in tags.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            esc(k, &mut o);
            o.push(':');
            esc(v, &mut o);
        }
        o.push_str("},\"data\":{");
        for (i, (k, v)) in vals.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            esc(k, &mut o);
            o.push(':');
            num(*v, &mut o);
        }
        o.push_str("}}\n");
        let _ = g.file.write_all(o.as_bytes());
    }

    /// Whether the flush interval has elapsed. One mutex lock and one
    /// clock read — safe to call every iteration of a µs-scale loop,
    /// but event-rate loops should gate it by a pass counter.
    pub fn due(&self) -> bool {
        let g = self.inner.lock().expect("stream poisoned");
        !g.done && g.last_flush.elapsed() >= g.interval
    }

    /// If the cadence interval elapsed: runs `publish` (the caller's
    /// chance to push fresh gauges into `rec`) and appends one flush
    /// batch. Returns whether a flush happened. Concurrent callers race
    /// on a claimed timestamp, so at most one flushes.
    pub fn maybe_flush(&self, rec: &Recorder, publish: impl FnOnce()) -> bool {
        if !rec.is_enabled() {
            return false;
        }
        {
            let mut g = self.inner.lock().expect("stream poisoned");
            if g.done || g.last_flush.elapsed() < g.interval {
                return false;
            }
            g.last_flush = Instant::now(); // claim before the snapshot work
        }
        publish();
        self.write_batch(rec, false);
        true
    }

    /// Unconditional flush (ignores the cadence).
    pub fn flush_now(&self, rec: &Recorder, publish: impl FnOnce()) {
        if !rec.is_enabled() {
            return;
        }
        publish();
        self.write_batch(rec, false);
        self.inner.lock().expect("stream poisoned").last_flush = Instant::now();
    }

    /// Final flush plus the `done` record, fsynced. Idempotent: the
    /// stream refuses further writes afterwards. This flush writes the
    /// newest unread journal events the stream's bound has room for
    /// (earlier flushes stop at half of it). On a fresh sink it exports
    /// a finished run in one call, as the ring holds it:
    /// `StreamSink::create(path)?.finish(&rec, || ())`.
    pub fn finish(&self, rec: &Recorder, publish: impl FnOnce()) {
        if !rec.is_enabled() {
            return;
        }
        publish();
        self.write_batch(rec, true);
    }

    fn write_batch(&self, rec: &Recorder, done: bool) {
        let mut guard = self.inner.lock().expect("stream poisoned");
        let g = &mut *guard;
        if g.done {
            return;
        }
        let Some(snap) = rec.snapshot_since(&mut g.cursor, done) else {
            return;
        };
        g.seq += 1;
        let seq = g.seq;
        let t = snap.elapsed_us;
        let mut o = String::with_capacity(2048);

        if !snap.counters.is_empty() {
            let _ = write!(
                o,
                "{{\"k\":\"counters\",\"seq\":{seq},\"t_us\":{t},\"data\":{{"
            );
            for (i, (name, v)) in snap.counters.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                esc(name, &mut o);
                let _ = write!(o, ":{v}");
            }
            o.push_str("}}\n");
        }
        if !snap.gauges.is_empty() {
            let _ = write!(
                o,
                "{{\"k\":\"gauges\",\"seq\":{seq},\"t_us\":{t},\"data\":{{"
            );
            for (i, (name, v)) in snap.gauges.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                esc(name, &mut o);
                o.push(':');
                num(*v, &mut o);
            }
            o.push_str("}}\n");
        }
        if !snap.histograms.is_empty() {
            let _ = write!(
                o,
                "{{\"k\":\"hists\",\"seq\":{seq},\"t_us\":{t},\"data\":{{"
            );
            for (i, (name, h)) in snap.histograms.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                esc(name, &mut o);
                let _ = write!(
                    o,
                    ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":",
                    h.count, h.sum, h.min, h.max
                );
                num(h.mean, &mut o);
                let _ = write!(
                    o,
                    ",\"p50\":{},\"p90\":{},\"p99\":{}}}",
                    h.p50, h.p90, h.p99
                );
            }
            o.push_str("}}\n");
        }
        for (name, pts) in &snap.series {
            let cur_first = pts.first().map(|p| (p.ts_us, p.x, p.y));
            let cursor = g.series_sent.get(name.as_str());
            let (reset, from) = match cursor {
                Some(c) if c.first == cur_first && pts.len() >= c.sent => (false, c.sent),
                Some(_) => (true, 0),
                None => (false, 0),
            };
            if from >= pts.len() && !reset {
                continue; // nothing new
            }
            let _ = write!(o, "{{\"k\":\"series\",\"seq\":{seq},\"t_us\":{t},\"name\":");
            esc(name, &mut o);
            let _ = write!(o, ",\"reset\":{reset},\"pts\":[");
            for (j, p) in pts[from..].iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                let _ = write!(o, "[{},", p.ts_us);
                num(p.x, &mut o);
                o.push(',');
                num(p.y, &mut o);
                o.push(']');
            }
            o.push_str("]}\n");
            g.series_sent.insert(
                name.clone(),
                SeriesCursor {
                    sent: pts.len(),
                    first: cur_first,
                },
            );
        }
        let [events_dropped, spans_dropped] = &mut g.dropped_sent;
        delta_lines(
            &mut o,
            &mut g.file,
            &format!("{{\"k\":\"spans\",\"seq\":{seq},\"t_us\":{t}"),
            snap.dropped_spans,
            spans_dropped,
            &snap.spans,
            |s, o| {
                o.push_str("{\"name\":");
                esc(s.name, o);
                let _ = write!(
                    o,
                    ",\"start_us\":{},\"dur_us\":{},\"tid\":{}}}",
                    s.start_us, s.dur_us, s.tid
                );
            },
        );
        delta_lines(
            &mut o,
            &mut g.file,
            &format!("{{\"k\":\"events\",\"seq\":{seq},\"t_us\":{t}"),
            snap.dropped_events,
            events_dropped,
            &snap.events,
            |e, o| {
                let _ = write!(o, "{{\"ts_us\":{},\"name\":", e.ts_us);
                esc(e.event.name(), o);
                o.push_str(",\"args\":{");
                for (j, (k, v)) in e.event.args().iter().enumerate() {
                    if j > 0 {
                        o.push(',');
                    }
                    esc(k, o);
                    o.push(':');
                    num(*v, o);
                }
                o.push_str("}}");
            },
        );
        if done {
            let _ = writeln!(o, "{{\"k\":\"done\",\"seq\":{seq},\"t_us\":{t}}}");
        }
        spill(&mut g.file, &mut o, 0);
        if done {
            let _ = g.file.sync_all();
            g.done = true;
        }
    }
}

/// One journal event as read back from a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEvent {
    /// Microseconds since the recorder origin.
    pub ts_us: u64,
    /// Event name (e.g. `anneal.best`, `watchdog.stalled`).
    pub name: String,
    /// Numeric event arguments.
    pub args: Vec<(String, f64)>,
}

/// One decoded stream line: the shared header and what the record kind
/// carries.
#[derive(Debug)]
pub(crate) struct Record {
    seq: Option<u64>,
    t_us: Option<u64>,
    pub(crate) kind: Kind,
}

/// The payload of each record kind.
#[derive(Debug)]
pub(crate) enum Kind {
    Open(Option<u64>),
    Meta(Vec<(String, String)>, Vec<(String, f64)>),
    Counters(Vec<(String, u64)>),
    Gauges(Vec<(String, f64)>),
    Hists(Vec<(String, HistogramSummary)>),
    Series(String, bool, Vec<SeriesPoint>),
    /// Events and the stream's dropped count (absent before v2).
    Events(Vec<StreamEvent>, Option<u64>),
    /// Spans and the recorder's dropped-span count.
    Spans(Vec<SpanInfo>, Option<u64>),
    Done,
    /// A kind this build does not know (forward compatibility).
    Unknown,
}

fn vf(v: &serde::Value) -> Option<f64> {
    match v {
        serde::Value::Int(i) => Some(*i as f64),
        serde::Value::Float(f) => Some(*f),
        serde::Value::Null => Some(f64::NAN),
        _ => None,
    }
}

fn vu(v: &serde::Value) -> Option<u64> {
    match v {
        serde::Value::Int(i) => u64::try_from(*i).ok(),
        serde::Value::Float(f) if *f >= 0.0 => Some(*f as u64),
        _ => None,
    }
}

fn vs(v: &serde::Value) -> Option<String> {
    match v {
        serde::Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

/// The `(name, value)` pairs of an object field whose values `conv`
/// accepts (others are skipped).
fn pairs<T>(
    v: &serde::Value,
    field: &str,
    conv: impl Fn(&serde::Value) -> Option<T>,
) -> Vec<(String, T)> {
    match v.get_field(field) {
        Ok(serde::Value::Object(f)) => f
            .iter()
            .filter_map(|(k, x)| Some((k.clone(), conv(x)?)))
            .collect(),
        _ => Vec::new(),
    }
}

/// The elements of an array field (empty when absent).
fn items<'a>(v: &'a serde::Value, field: &str) -> &'a [serde::Value] {
    match v.get_field(field) {
        Ok(serde::Value::Array(a)) => a,
        _ => &[],
    }
}

/// Decodes one JSONL line; `Ok(None)` for a blank line. Unknown record
/// kinds decode to [`Kind::Unknown`] (forward compatibility), unknown
/// or mistyped fields are skipped; malformed JSON is an error the
/// caller decides how to treat (tail tolerance vs corruption).
pub(crate) fn decode_line(line: &str) -> Result<Option<Record>, String> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    let v: serde::Value =
        serde_json::from_str(line).map_err(|e| format!("bad stream line: {e}"))?;
    let Some(k) = v.get_field("k").ok().and_then(vs) else {
        return Err("stream line without \"k\" kind".into());
    };
    let field = |f: &str| v.get_field(f).ok();
    let kind = match k.as_str() {
        "open" => Kind::Open(field("v").and_then(vu)),
        "meta" => Kind::Meta(pairs(&v, "tags", vs), pairs(&v, "data", vf)),
        "counters" => Kind::Counters(pairs(&v, "data", vu)),
        "gauges" => Kind::Gauges(pairs(&v, "data", vf)),
        "hists" => Kind::Hists(pairs(&v, "data", |h| {
            let get = |f: &str| h.get_field(f).ok().and_then(vu).unwrap_or(0);
            Some(HistogramSummary {
                count: get("count"),
                sum: get("sum"),
                min: get("min"),
                max: get("max"),
                mean: h.get_field("mean").ok().and_then(vf).unwrap_or(f64::NAN),
                p50: get("p50"),
                p90: get("p90"),
                p99: get("p99"),
            })
        })),
        "series" => {
            let name = field("name")
                .and_then(vs)
                .ok_or("series record without name")?;
            let reset = matches!(field("reset"), Some(serde::Value::Bool(true)));
            let pts = items(&v, "pts")
                .iter()
                .filter_map(|p| match p {
                    serde::Value::Array(t) if t.len() == 3 => Some(SeriesPoint {
                        ts_us: vu(&t[0])?,
                        x: vf(&t[1])?,
                        y: vf(&t[2])?,
                    }),
                    _ => None,
                })
                .collect();
            Kind::Series(name, reset, pts)
        }
        "events" => Kind::Events(
            items(&v, "data")
                .iter()
                .filter_map(|e| {
                    Some(StreamEvent {
                        ts_us: e.get_field("ts_us").ok().and_then(vu).unwrap_or(0),
                        name: e.get_field("name").ok().and_then(vs)?,
                        args: pairs(e, "args", vf),
                    })
                })
                .collect(),
            field("dropped").and_then(vu),
        ),
        "spans" => Kind::Spans(
            items(&v, "data")
                .iter()
                .filter_map(|s| {
                    let get = |f: &str| s.get_field(f).ok().and_then(vu).unwrap_or(0);
                    Some(SpanInfo {
                        name: s.get_field("name").ok().and_then(vs)?,
                        start_us: get("start_us"),
                        dur_us: get("dur_us"),
                        tid: u32::try_from(get("tid")).unwrap_or(u32::MAX),
                    })
                })
                .collect(),
            field("dropped").and_then(vu),
        ),
        "done" => Kind::Done,
        _ => Kind::Unknown,
    };
    Ok(Some(Record {
        seq: field("seq").and_then(vu),
        t_us: field("t_us").and_then(vu),
        kind,
    }))
}

/// Decodes a whole stream text, handing each record to `each` in order,
/// and returns whether a torn final line was skipped. The first record
/// must be `open`; a malformed final line is tolerated as crash
/// truncation, a malformed earlier line is an error.
pub(crate) fn decode_stream(text: &str, mut each: impl FnMut(Record)) -> Result<bool, String> {
    let not_a_stream = |e: &str| {
        format!(
            "not a metrics stream (JSONL records tagged \"k\", the first \
             {{\"k\":\"open\",\"v\":{STREAM_VERSION}}}): {e}"
        )
    };
    let lines: Vec<&str> = text.split('\n').collect();
    let last = lines.iter().rposition(|l| !l.trim().is_empty());
    let mut opened = false;
    for (i, line) in lines.iter().enumerate() {
        match decode_line(line) {
            Ok(None) => {}
            Ok(Some(r)) if opened || matches!(r.kind, Kind::Open(_)) => {
                opened = true;
                each(r);
            }
            Ok(Some(_)) => return Err(not_a_stream("the first record is not `open`")),
            Err(_) if opened && Some(i) == last => return Ok(true),
            Err(e) if opened => return Err(format!("line {}: {e}", i + 1)),
            Err(e) => return Err(not_a_stream(&e)),
        }
    }
    if opened {
        Ok(false)
    } else {
        Err(not_a_stream("no records"))
    }
}

/// Maximum journal events a [`StreamState`] retains (newest win).
const MAX_STATE_EVENTS: usize = 256;

/// The bounded summary of a metrics stream after applying its records
/// in order: everything but the per-flow analysis records, and only
/// the newest journal events. All collections are sorted by name.
#[derive(Debug, Clone, Default)]
pub struct StreamState {
    /// Stream format version from the `open` record.
    pub version: u64,
    /// String tags from `meta` records.
    pub tags: Vec<(String, String)>,
    /// Numeric facts from `meta` records.
    pub meta: Vec<(String, f64)>,
    /// Latest absolute counter values.
    pub counters: Vec<(String, u64)>,
    /// Latest absolute gauge values.
    pub gauges: Vec<(String, f64)>,
    /// Latest histogram digests.
    pub hists: Vec<(String, HistogramSummary)>,
    /// Accumulated series points per name.
    pub series: Vec<(String, Vec<SeriesPoint>)>,
    /// Most recent journal events (bounded; newest last).
    pub events: Vec<StreamEvent>,
    /// Journal events the stream dropped: evicted by the recorder's
    /// ring before a flush reached them, or past its capacity.
    pub dropped_events: u64,
    /// Spans the recorder discarded past its span cap.
    pub dropped_spans: u64,
    /// Highest record sequence number seen.
    pub seq: u64,
    /// Records applied.
    pub records: u64,
    /// Timestamp of the newest record, µs since recorder origin.
    pub t_us: u64,
    /// Whether a `done` record closed the stream.
    pub done: bool,
    /// Whether a torn (crash-truncated) final line was skipped.
    pub truncated: bool,
}

fn upsert<T>(list: &mut Vec<(String, T)>, name: String, value: T) {
    match list.binary_search_by(|(n, _)| n.as_str().cmp(&name)) {
        Ok(i) => list[i].1 = value,
        Err(i) => list.insert(i, (name, value)),
    }
}

impl StreamState {
    /// Looks up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by exact name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a series by exact name.
    pub fn series(&self, name: &str) -> Option<&[SeriesPoint]> {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.as_slice())
    }

    /// Decodes and applies one complete JSONL line (see
    /// [`StreamFollower`] for how a live tail treats errors).
    pub fn apply_line(&mut self, line: &str) -> Result<(), String> {
        if let Some(r) = decode_line(line)? {
            self.apply(r);
        }
        Ok(())
    }

    pub(crate) fn apply(&mut self, r: Record) {
        if let Some(seq) = r.seq {
            self.seq = self.seq.max(seq);
        }
        if let Some(t) = r.t_us {
            self.t_us = self.t_us.max(t);
        }
        self.records += 1;
        match r.kind {
            Kind::Open(v) => self.version = v.unwrap_or(self.version),
            Kind::Meta(tags, data) => {
                tags.into_iter()
                    .for_each(|(k, v)| upsert(&mut self.tags, k, v));
                data.into_iter()
                    .for_each(|(k, v)| upsert(&mut self.meta, k, v));
            }
            Kind::Counters(d) => d
                .into_iter()
                .for_each(|(k, v)| upsert(&mut self.counters, k, v)),
            Kind::Gauges(d) => d
                .into_iter()
                .for_each(|(k, v)| upsert(&mut self.gauges, k, v)),
            Kind::Hists(d) => d
                .into_iter()
                .for_each(|(k, v)| upsert(&mut self.hists, k, v)),
            Kind::Series(name, reset, pts) => {
                match self.series.binary_search_by(|(n, _)| n.as_str().cmp(&name)) {
                    Ok(i) if reset => self.series[i].1 = pts,
                    Ok(i) => self.series[i].1.extend(pts),
                    Err(i) => self.series.insert(i, (name, pts)),
                }
            }
            Kind::Events(events, dropped) => {
                self.dropped_events = self.dropped_events.max(dropped.unwrap_or(0));
                self.events.extend(events);
                let cut = self.events.len().saturating_sub(MAX_STATE_EVENTS);
                self.events.drain(..cut);
            }
            Kind::Spans(_, dropped) => {
                self.dropped_spans = self.dropped_spans.max(dropped.unwrap_or(0));
            }
            Kind::Done => self.done = true,
            Kind::Unknown => {}
        }
    }
}

/// Parses a whole stream text into the analysis view. A malformed
/// *final* line is tolerated (crash truncation) and flagged via
/// [`StreamState::truncated`]; a malformed earlier line, or a text
/// whose first record is not `open`, is an error.
pub fn parse_stream(text: &str) -> Result<TraceData, String> {
    let mut data = TraceData::default();
    data.state.truncated = decode_stream(text, |r| data.apply(r))?;
    Ok(data)
}

/// Reads and parses a stream file in one shot.
pub fn read_stream(path: impl AsRef<Path>) -> Result<TraceData, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_stream(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Bytes a [`StreamFollower`] reads at a time.
const FOLLOW_CHUNK: u64 = 1 << 20;

/// Incremental tail over a growing stream file: remembers the byte
/// offset and any partial trailing line between polls.
#[derive(Debug)]
pub struct StreamFollower {
    path: PathBuf,
    offset: u64,
    /// Bytes of a partial trailing line.
    carry: Vec<u8>,
    /// The accumulated state; read after each [`StreamFollower::poll`].
    pub state: StreamState,
}

impl StreamFollower {
    /// A follower starting at the beginning of `path` (which need not
    /// exist yet).
    pub fn new(path: impl AsRef<Path>) -> Self {
        Self {
            path: path.as_ref().to_path_buf(),
            offset: 0,
            carry: Vec::new(),
            state: StreamState::default(),
        }
    }

    /// Reads the bytes appended since the last poll, a chunk at a time,
    /// and applies all complete lines. Returns whether any record was
    /// applied. A shrunken file (the run restarted and truncated it)
    /// resets the follower.
    pub fn poll(&mut self) -> std::io::Result<bool> {
        let mut f = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        let len = f.metadata()?.len();
        if len < self.offset {
            self.offset = 0;
            self.carry.clear();
            self.state = StreamState::default();
        }
        f.seek(std::io::SeekFrom::Start(self.offset))?;
        let mut f = f.take(len - self.offset);
        let before = self.state.records;
        loop {
            let mut scan = self.carry.len();
            let n = (&mut f).take(FOLLOW_CHUNK).read_to_end(&mut self.carry)?;
            if n == 0 {
                break;
            }
            self.offset += n as u64;
            let mut start = 0;
            while let Some(pos) = self.carry[scan..].iter().position(|&b| b == b'\n') {
                // A torn or corrupt line mid-stream is skipped rather than
                // fatal: a live tail must survive writer races.
                let line = String::from_utf8_lossy(&self.carry[start..scan + pos]);
                let _ = self.state.apply_line(&line);
                start = scan + pos + 1;
                scan = start;
            }
            self.carry.drain(..start);
        }
        Ok(self.state.records != before)
    }
}

// ---------------------------------------------------------------------
// rendering
// ---------------------------------------------------------------------

pub(crate) fn fmt_secs(s: f64) -> String {
    if !s.is_finite() || s < 0.0 {
        return "—".into();
    }
    if s < 90.0 {
        format!("{s:.1} s")
    } else if s < 5400.0 {
        format!("{:.0}m{:02.0}s", (s / 60.0).floor(), s % 60.0)
    } else {
        format!("{:.0}h{:02.0}m", (s / 3600.0).floor(), (s % 3600.0) / 60.0)
    }
}

fn fmt_bytes(b: f64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.2} {}", UNITS[u])
}

pub(crate) fn sparkline(pts: &[SeriesPoint], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if pts.is_empty() || width == 0 {
        return String::new();
    }
    // resample the series onto `width` buckets by x order
    let take = pts.len().min(width.max(1));
    let step = pts.len() as f64 / take as f64;
    let ys: Vec<f64> = (0..take)
        .map(|i| pts[((i as f64 * step) as usize).min(pts.len() - 1)].y)
        .collect();
    let (lo, hi) = ys
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &y| (lo.min(y), hi.max(y)));
    let span = (hi - lo).max(1e-12);
    ys.iter()
        .map(|&y| BARS[(((y - lo) / span) * 7.0).round() as usize & 7])
        .collect()
}

fn bar(frac: f64, width: usize) -> String {
    let frac = frac.clamp(0.0, 1.0);
    let full = (frac * width as f64).round() as usize;
    let mut s = String::with_capacity(width * 3);
    for i in 0..width {
        s.push(if i < full { '█' } else { '░' });
    }
    s
}

/// Per-worker scheduler stats extracted from `pool.w{i}.*` gauges.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkerRow {
    pub(crate) pushes: f64,
    pub(crate) pops: f64,
    pub(crate) steals: f64,
    pub(crate) steal_fails: f64,
    pub(crate) busy_ns: f64,
    pub(crate) idle_ns: f64,
}

/// Worker rows keyed by the index parsed from the gauge name — only the
/// indexes present, so a crafted `pool.w{huge}.*` name costs one row.
pub(crate) fn worker_rows(state: &StreamState) -> BTreeMap<u64, WorkerRow> {
    let mut rows = BTreeMap::new();
    for (name, v) in &state.gauges {
        let Some(rest) = name.strip_prefix("pool.w") else {
            continue;
        };
        let Some(dot) = rest.find('.') else { continue };
        let Ok(idx) = rest[..dot].parse::<u64>() else {
            continue;
        };
        let row: &mut WorkerRow = rows.entry(idx).or_default();
        match &rest[dot + 1..] {
            "pushes" => row.pushes = *v,
            "pops" => row.pops = *v,
            "steals" => row.steals = *v,
            "steal_fails" => row.steal_fails = *v,
            "busy_ns" => row.busy_ns = *v,
            "idle_ns" => row.idle_ns = *v,
            _ => {}
        }
    }
    rows
}

/// The lowest point of the `anneal.best_haspl` series, with the series.
pub(crate) fn best_haspl(state: &StreamState) -> Option<(f64, &[SeriesPoint])> {
    let pts = state
        .series("anneal.best_haspl")
        .filter(|p| !p.is_empty())?;
    Some((pts.iter().map(|p| p.y).fold(f64::MAX, f64::min), pts))
}

/// Renders the eval-path mix (full vs incremental vs early-reject) if
/// the counters are present. Shared by the report and the dashboard.
pub(crate) fn render_eval_mix(o: &mut String, get: impl Fn(&str) -> Option<u64>) {
    let full = get("eval.full").unwrap_or(0);
    let inc = get("eval.incremental").unwrap_or(0);
    let early = get("eval.early_reject").unwrap_or(0);
    let total = full.saturating_add(inc).saturating_add(early);
    if total == 0 {
        return;
    }
    let pct = |v: u64| 100.0 * v as f64 / total as f64;
    let _ = writeln!(
        o,
        "eval path mix: full {full} ({:.1}%) · incremental {inc} ({:.1}%) · \
         early-reject {early} ({:.1}%)",
        pct(full),
        pct(inc),
        pct(early)
    );
    if let Some(rep) = get("eval.repaired") {
        let _ = writeln!(o, "  cache rows repaired: {rep}");
    }
}

/// Renders watchdog liveness diagnostics if any watchdog telemetry is
/// present.
pub(crate) fn render_watchdog(
    o: &mut String,
    now_us: u64,
    stalls: Option<u64>,
    heartbeat_us: Option<f64>,
    stall_events: u64,
) {
    if stalls.is_none() && heartbeat_us.is_none() && stall_events == 0 {
        return;
    }
    let stalls = stalls.unwrap_or(stall_events);
    let hb = heartbeat_us
        .map(|h| {
            format!(
                "last heartbeat {} ago",
                fmt_secs((now_us as f64 - h).max(0.0) / 1e6)
            )
        })
        .unwrap_or_else(|| "no heartbeat recorded".into());
    let _ = writeln!(
        o,
        "watchdog: {stalls} stall{} · {hb}",
        if stalls == 1 { "" } else { "s" }
    );
}

/// Renders the refreshing `orp watch` dashboard. `prev` is the state
/// at the previous refresh; rates are derived from the delta when it
/// is present (falling back to whole-run averages).
pub fn render_dashboard(cur: &StreamState, prev: Option<&StreamState>) -> String {
    let mut o = String::with_capacity(4096);
    let elapsed = cur.t_us as f64 / 1e6;
    let mut title: Vec<String> = cur.tags.iter().map(|(k, v)| format!("{k}={v}")).collect();
    for key in ["n", "r", "workers", "iters"] {
        if let Some(v) = cur.meta.iter().find(|(k, _)| k == key).map(|&(_, v)| v) {
            title.push(format!("{key}={v}"));
        }
    }
    let _ = writeln!(
        o,
        "orp watch · {} · {} · up {} · seq {}{}",
        if title.is_empty() {
            "metrics stream".to_string()
        } else {
            title.join(" ")
        },
        if cur.done { "DONE" } else { "LIVE" },
        fmt_secs(elapsed),
        cur.seq,
        if cur.truncated { " · torn tail" } else { "" },
    );

    // rate window
    let dt_us = prev.map_or(cur.t_us, |p| cur.t_us.saturating_sub(p.t_us));
    let dt_s = (dt_us as f64 / 1e6).max(1e-9);
    let delta = |name: &str| -> Option<f64> {
        let now = cur.gauge(name)?;
        match prev.and_then(|p| p.gauge(name)) {
            Some(was) => Some((now - was).max(0.0)),
            None => Some(now),
        }
    };

    if let Some((best, pts)) = best_haspl(cur) {
        let _ = writeln!(o, "best h-ASPL {best:.6}  {}", sparkline(pts, 48));
    }
    let proposed = cur.gauge("anneal.proposed");
    if let (Some(total_prop), Some(dp)) = (proposed, delta("anneal.proposed")) {
        let rate = dp / dt_s;
        let mut line = format!("proposals {:.0} · {rate:.1}/s", total_prop);
        if let (Some(acc), Some(da)) = (cur.gauge("anneal.accepted"), delta("anneal.accepted")) {
            let _ = write!(
                line,
                " · accepted {:.1}% (window {:.1}%)",
                100.0 * acc / total_prop.max(1.0),
                100.0 * da / dp.max(1.0)
            );
        }
        let _ = writeln!(o, "{line}");
    }
    // progress + ETA
    let iter = cur.gauge("progress.iter");
    let total = cur.gauge("progress.total");
    if let (Some(i), Some(t)) = (iter, total) {
        if t > 0.0 {
            let frac = (i / t).clamp(0.0, 1.0);
            let di = delta("progress.iter").unwrap_or(0.0);
            let eta = if di > 0.0 {
                fmt_secs((t - i) * dt_s / di)
            } else if i > 0.0 {
                fmt_secs((t - i) * elapsed / i)
            } else {
                "—".into()
            };
            let _ = writeln!(
                o,
                "progress [{}] {:.1}%  iter {:.0}/{:.0}  ETA {eta}",
                bar(frac, 32),
                100.0 * frac,
                i,
                t
            );
        }
    }
    render_eval_mix(&mut o, |n| {
        cur.counter(n).or_else(|| cur.gauge(n).map(|g| g as u64))
    });
    // cache line
    match cur.gauge("cache.resident_bytes") {
        Some(bytes) if bytes > 0.0 => {
            let mut line = format!("cache: {} resident", fmt_bytes(bytes));
            if let Some(rep) = cur.gauge("cache.rows_repaired") {
                let _ = write!(line, " · rows repaired {:.0}", rep);
            }
            if let Some(sw) = cur.gauge("cache.rows_swept") {
                let _ = write!(line, " / swept {:.0}", sw);
            }
            let _ = writeln!(o, "{line}");
        }
        Some(_) => {
            let _ = writeln!(o, "cache: off");
        }
        None => {}
    }
    // workers
    let rows = worker_rows(cur);
    if !rows.is_empty() {
        let prev_rows = prev.map(worker_rows).unwrap_or_default();
        let _ = writeln!(o, "workers ({}):", rows.len());
        for (i, r) in &rows {
            let p = prev_rows.get(i).cloned().unwrap_or_default();
            let (db, di) = (r.busy_ns - p.busy_ns, r.idle_ns - p.idle_ns);
            let (tb, ti) = if db + di > 0.0 {
                (db, di)
            } else {
                (r.busy_ns, r.idle_ns)
            };
            let util = if tb + ti > 0.0 { tb / (tb + ti) } else { 0.0 };
            let _ = writeln!(
                o,
                "  w{i:<2} {} {:>5.1}%  pops {:>9}  steals {:>7} (fail {:>7})",
                bar(util, 20),
                100.0 * util,
                r.pops as u64,
                r.steals as u64,
                r.steal_fails as u64
            );
        }
    }
    render_watchdog(
        &mut o,
        cur.t_us,
        cur.counter("watchdog.stalls"),
        cur.gauge("watchdog.heartbeat_us"),
        cur.events
            .iter()
            .filter(|e| e.name == "watchdog.stalled")
            .count() as u64,
    );
    // netsim line (when watching a simulation stream)
    if let Some(depth) = cur.gauge("sim.event_queue_depth") {
        let mut line = format!("sim: queue depth {depth:.0}");
        if let (Some(ev), Some(de)) = (
            cur.gauge("sim.events_processed"),
            delta("sim.events_processed"),
        ) {
            let _ = write!(line, " · events {ev:.0} ({:.0}/s)", de / dt_s);
        }
        if let Some(fl) = cur.gauge("sim.flows_done") {
            let _ = write!(line, " · flows done {fl:.0}");
        }
        let _ = writeln!(o, "{line}");
        // queue health: live depth vs lazily-cancelled heap entries the
        // slab queue still carries, and what compaction reclaimed
        if let Some(tombs) = cur.gauge("sim.queue_tombstones") {
            let ratio = cur.gauge("sim.queue_tombstone_ratio").unwrap_or(0.0);
            let mut line = format!(
                "sim queue: live {depth:.0} · tombstones {tombs:.0} ({:.1}%)",
                100.0 * ratio
            );
            if let Some(c) = cur.gauge("sim.events_compacted") {
                let _ = write!(line, " · compacted {c:.0}");
            }
            let _ = writeln!(o, "{line}");
        }
    }
    // recent events footer
    if !cur.events.is_empty() {
        let show = cur.events.len().min(4);
        for e in &cur.events[cur.events.len() - show..] {
            let args: Vec<String> = e
                .args
                .iter()
                .take(4)
                .map(|(k, v)| format!("{k}={v:.4}"))
                .collect();
            let _ = writeln!(
                o,
                "  [{:>9}] {} {}",
                fmt_secs(e.ts_us as f64 / 1e6),
                e.name,
                args.join(" ")
            );
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::recorder::{ObsConfig, Recorder};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("orp-obs-stream-{}-{name}", std::process::id()))
    }

    fn populated_recorder() -> Recorder {
        let rec = Recorder::enabled();
        rec.incr("eval.full", 2);
        rec.incr("eval.incremental", 90);
        rec.incr("eval.early_reject", 8);
        rec.gauge("anneal.proposed", 100.0);
        rec.gauge("anneal.accepted", 40.0);
        rec.gauge_dyn("pool.w0.busy_ns", 9e8);
        rec.gauge_dyn("pool.w0.idle_ns", 1e8);
        rec.gauge_dyn("pool.w0.steals", 17.0);
        rec.record("anneal.eval_ns", 52_000);
        rec.series("anneal.best_haspl", 0.0, 4.5);
        rec.series("anneal.best_haspl", 50.0, 4.25);
        rec.emit(Event::Best {
            iter: 50,
            value: 4.25,
        });
        rec
    }

    #[test]
    fn stream_roundtrips_every_record_kind() {
        let path = tmp("roundtrip.jsonl");
        let sink = StreamSink::with_interval(&path, Duration::from_secs(0)).unwrap();
        sink.meta(&[("cmd", "solve")], &[("n", 64.0), ("r", 4.0)]);
        let rec = populated_recorder();
        assert!(sink.maybe_flush(&rec, || {}));
        rec.series("anneal.best_haspl", 80.0, 4.0);
        rec.emit(Event::Mark {
            name: "round",
            value: 1.0,
        });
        sink.finish(&rec, || {
            rec.gauge("progress.iter", 100.0);
            rec.gauge("huge", -1e300); // plain digits would not read back
        });

        let text = std::fs::read_to_string(&path).unwrap();
        for kind in [
            "open", "meta", "counters", "gauges", "hists", "series", "events", "done",
        ] {
            assert!(
                text.contains(&format!("\"k\":\"{kind}\"")),
                "missing record kind {kind} in:\n{text}"
            );
        }
        let data = parse_stream(&text).expect("parses");
        let state = &data.state;
        assert!(state.done);
        assert!(!state.truncated);
        assert_eq!(state.version, STREAM_VERSION);
        assert_eq!(state.tags, vec![("cmd".to_string(), "solve".to_string())]);
        assert_eq!(state.counter("eval.incremental"), Some(90));
        assert_eq!(state.gauge("pool.w0.steals"), Some(17.0));
        assert_eq!(state.gauge("progress.iter"), Some(100.0));
        assert_eq!(state.gauge("huge"), Some(-1e300));
        let h = state
            .hists
            .iter()
            .find(|(n, _)| n == "anneal.eval_ns")
            .map(|(_, h)| h)
            .unwrap();
        assert_eq!(h.count, 1);
        // series delta: 2 points in flush one, 1 more at finish
        assert_eq!(state.series("anneal.best_haspl").unwrap().len(), 3);
        assert!(state.events.iter().any(|e| e.name == "anneal.best"));
        assert!(state.events.iter().any(|e| e.name == "round"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_event_and_span_is_streamed_once_in_chunks() {
        let path = tmp("lossless.jsonl");
        let sink = StreamSink::with_interval(&path, Duration::ZERO).unwrap();
        let rec = Recorder::enabled();
        for i in 0..1000u64 {
            rec.emit(Event::Best {
                iter: i,
                value: 1.0,
            });
            if i % 300 == 0 {
                drop(rec.span("step"));
                sink.maybe_flush(&rec, || {});
            }
        }
        sink.finish(&rec, || {});
        let text = std::fs::read_to_string(&path).unwrap();
        let data = parse_stream(&text).unwrap();
        assert_eq!(data.state.version, STREAM_VERSION);
        assert_eq!(data.event_counts["anneal.best"], 1000);
        assert_eq!(data.spans.len(), 4);
        assert_eq!(data.state.dropped_events, 0);
        // the newest events survive in the bounded summary, in order
        let last = data.state.events.last().unwrap();
        assert_eq!(last.args[0], ("iter".to_string(), 999.0));
        let widest = text
            .lines()
            .filter(|l| l.starts_with("{\"k\":\"events\""))
            .map(|l| l.matches("\"ts_us\"").count())
            .max();
        assert_eq!(widest, Some(DELTA_CHUNK));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn one_sink_streams_each_recorder_it_is_handed() {
        let path = tmp("three-recorders.jsonl");
        let sink = StreamSink::with_interval(&path, Duration::ZERO).unwrap();
        // each recorder streams its journal and spans from their
        // beginning, whether it has emitted more events than the one
        // before it (b) or fewer (c)
        let mut last = 0;
        for (name, events) in [("a", 100), ("b", 150), ("c", 30)] {
            let rec = Recorder::enabled();
            for iter in last..last + events {
                rec.emit(Event::Best { iter, value: 1.0 });
            }
            last += events;
            drop(rec.span(name));
            if name == "c" {
                sink.finish(&rec, || {});
            } else {
                sink.flush_now(&rec, || {});
            }
        }
        let data = read_stream(&path).unwrap();
        assert_eq!(data.event_counts["anneal.best"], 280);
        let iters: Vec<f64> = data.state.events.iter().map(|e| e.args[0].1).collect();
        assert_eq!(iters, (24..280).map(|i| i as f64).collect::<Vec<_>>());
        let spans: Vec<&str> = data.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(spans, ["a", "b", "c"]);
        assert_eq!(data.state.dropped_events, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_final_line_is_tolerated() {
        let path = tmp("torn.jsonl");
        let sink = StreamSink::with_interval(&path, Duration::from_secs(0)).unwrap();
        let rec = populated_recorder();
        assert!(sink.maybe_flush(&rec, || {}));
        let mut text = std::fs::read_to_string(&path).unwrap();
        let full = parse_stream(&text).unwrap();
        assert!(full.state.counter("eval.full").is_some());
        // simulate a crash mid-append: chop the file mid final line
        text.truncate(text.len() - 7);
        let state = parse_stream(&text).expect("torn tail tolerated").state;
        assert!(state.truncated);
        assert!(!state.done);
        // a torn line *before* the end is corruption, not truncation
        let mut lines: Vec<&str> = text.lines().collect();
        let torn = lines.len() - 1;
        lines.insert(torn - 1, "{\"k\":\"gau");
        assert!(parse_stream(&lines.join("\n")).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn follower_tails_incrementally_and_survives_partial_lines() {
        let path = tmp("follow.jsonl");
        let sink = StreamSink::with_interval(&path, Duration::from_secs(0)).unwrap();
        let rec = populated_recorder();
        let mut follower = StreamFollower::new(&path);
        assert!(follower.poll().unwrap()); // open record
        assert_eq!(follower.state.version, STREAM_VERSION);
        sink.maybe_flush(&rec, || {});
        assert!(follower.poll().unwrap());
        assert_eq!(follower.state.counter("eval.full"), Some(2));
        assert!(!follower.poll().unwrap()); // no growth
                                            // partial line: append half a record manually
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"k\":\"gauges\",\"seq\":9,\"t_us\":5,\"da")
            .unwrap();
        drop(f);
        let before = follower.state.records;
        follower.poll().unwrap();
        assert_eq!(follower.state.records, before); // carry held, nothing applied
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"ta\":{\"x\":1.5}}\n").unwrap();
        drop(f);
        assert!(follower.poll().unwrap());
        assert_eq!(follower.state.gauge("x"), Some(1.5));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn series_decimation_mid_stream_resets_cleanly() {
        let path = tmp("reset.jsonl");
        let sink = StreamSink::with_interval(&path, Duration::from_secs(0)).unwrap();
        let rec = Recorder::with_config(ObsConfig {
            max_series_points: 8,
            ..ObsConfig::default()
        });
        for i in 0..6 {
            rec.series("s", i as f64, i as f64);
        }
        sink.maybe_flush(&rec, || {});
        for i in 6..100 {
            rec.series("s", i as f64, i as f64);
        }
        sink.finish(&rec, || {});
        let state = read_stream(&path).unwrap().state;
        let pts = state.series("s").unwrap();
        // decimated but endpoints survive, and no duplicated prefix
        assert!(pts.iter().any(|p| p.x == 0.0));
        assert!(pts.iter().any(|p| p.x == 99.0));
        assert!(pts.len() <= 8 + 3 + 6);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn only_a_stream_decodes() {
        for text in [
            "",
            "\n",
            "{\"displayTimeUnit\": \"ms\", \"traceEvents\": []}",
            "not json",
        ] {
            let e = parse_stream(text).unwrap_err();
            assert!(e.contains("not a metrics stream"), "{text:?}: {e}");
        }
        assert!(
            parse_stream("{\"k\":\"gauges\",\"data\":{}}\n{\"k\":\"open\",\"v\":2}")
                .unwrap_err()
                .contains("first record is not `open`")
        );
        // v1 streams and unknown record kinds still load
        let v1 = parse_stream("{\"k\":\"open\",\"v\":1}\n{\"k\":\"later\",\"x\":1}\n").unwrap();
        assert_eq!((v1.state.version, v1.state.records), (1, 2));
    }

    #[test]
    fn renderers_cover_populated_state() {
        let path = tmp("render.jsonl");
        let sink = StreamSink::with_interval(&path, Duration::from_secs(0)).unwrap();
        sink.meta(&[("cmd", "solve")], &[("n", 64.0)]);
        let rec = populated_recorder();
        rec.gauge("progress.iter", 40.0);
        rec.gauge("progress.total", 100.0);
        rec.gauge("cache.resident_bytes", 1.5e9);
        rec.gauge("watchdog.heartbeat_us", 1.0);
        rec.incr("watchdog.stalls", 1);
        // crafted worker indexes cost one row each, not an allocation
        // sized by the index
        rec.gauge_dyn("pool.w1000000000000.pops", 3.0);
        rec.gauge_dyn("pool.w18446744073709551615.pops", 4.0);
        sink.finish(&rec, || {});
        let data = read_stream(&path).unwrap();
        let state = &data.state;

        let report = crate::analyze::render_report(&data, 10);
        for needle in [
            "telemetry report",
            "eval path mix",
            "workers",
            "w1000000000000 ",
            "w18446744073709551615 ",
            "watchdog: 1 stall",
            "best h-ASPL",
        ] {
            assert!(
                report.contains(needle),
                "report missing {needle:?}:\n{report}"
            );
        }
        let dash = render_dashboard(state, None);
        for needle in [
            "orp watch",
            "DONE",
            "workers (3):",
            "w0",
            "w18446744073709551615",
            "progress",
            "cache: 1.40 GiB resident",
        ] {
            assert!(
                dash.contains(needle),
                "dashboard missing {needle:?}:\n{dash}"
            );
        }
        let _ = std::fs::remove_file(&path);

        // an uncached run publishes zero resident bytes
        let path = tmp("render-uncached.jsonl");
        let sink = StreamSink::with_interval(&path, Duration::from_secs(0)).unwrap();
        let rec = Recorder::enabled();
        rec.gauge("cache.resident_bytes", 0.0);
        sink.finish(&rec, || {});
        let dash = render_dashboard(&read_stream(&path).unwrap().state, None);
        assert!(dash.contains("cache: off\n"), "{dash}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disabled_recorder_streams_nothing() {
        let path = tmp("disabled.jsonl");
        let sink = StreamSink::with_interval(&path, Duration::from_secs(0)).unwrap();
        let rec = Recorder::disabled();
        assert!(!sink.maybe_flush(&rec, || panic!("publish must not run")));
        sink.finish(&rec, || panic!("publish must not run"));
        let state = read_stream(&path).unwrap().state;
        assert_eq!(state.records, 1); // just the open record
        let _ = std::fs::remove_file(&path);
    }
}
