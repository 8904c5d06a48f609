//! Live telemetry streaming — periodic JSONL snapshot deltas.
//!
//! A post-hoc [`Snapshot`] is useless for a solve that runs for hours:
//! nothing exists until the run ends cleanly. A [`StreamSink`] fixes
//! that by appending small, self-describing JSONL records to a metrics
//! file on a wall-clock cadence, cheap enough to hook into the
//! annealer iteration loop and the netsim event loop:
//!
//! * one line per record, each tagged with a `"k"` kind —
//!   `open`, `meta`, `counters`, `gauges`, `hists`, `series`,
//!   `events`, `done`;
//! * `counters`/`gauges`/`hists` are *absolute* (each flush replaces
//!   the previous view, so a reader needs no history);
//! * `series` and `events` are *deltas* (only points/events not yet
//!   streamed), with a `reset` escape hatch for the rare case where
//!   in-memory decimation rewrote a series under the writer;
//! * writes are appends of whole batches; no fsync on the hot path.
//!   A crash can therefore tear at most the final line, and the reader
//!   ([`StreamState::apply_line`] / [`read_stream`]) tolerates exactly
//!   that: a partial last line is skipped, everything before it loads.
//!
//! [`StreamFollower`] tails a growing file incrementally (byte offset
//! plus partial-line carry), [`render_stream_report`] renders a static
//! text report for `orp report`, and [`render_dashboard`] renders the
//! refreshing `orp watch` terminal dashboard.

use crate::histogram::HistogramSummary;
use crate::recorder::Recorder;
use crate::sink::{esc, num};
use crate::snapshot::{SeriesPoint, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Format version written in the `open` record.
pub const STREAM_VERSION: u64 = 1;

/// Default wall-clock cadence between flushes.
pub const DEFAULT_STREAM_INTERVAL: Duration = Duration::from_millis(500);

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
    /// Total journal events already accounted for (including ones the
    /// ring buffer dropped before we saw them).
    events_sent: u64,
    done: bool,
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
        let mut line = String::new();
        let _ = writeln!(line, "{{\"k\":\"open\",\"v\":{STREAM_VERSION}}}");
        file.write_all(line.as_bytes())?;
        Ok(Self {
            inner: Arc::new(Mutex::new(StreamInner {
                file,
                seq: 0,
                last_flush: Instant::now(),
                interval,
                series_sent: BTreeMap::new(),
                events_sent: 0,
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
    /// chance to push fresh gauges into `rec`), snapshots, and appends
    /// one flush batch. Returns whether a flush happened. Concurrent
    /// callers race on a claimed timestamp, so at most one flushes.
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
        if let Some(snap) = rec.snapshot() {
            self.write_batch(&snap, false);
        }
        true
    }

    /// Unconditional flush (ignores the cadence).
    pub fn flush_now(&self, rec: &Recorder, publish: impl FnOnce()) {
        if !rec.is_enabled() {
            return;
        }
        publish();
        if let Some(snap) = rec.snapshot() {
            self.write_batch(&snap, false);
            let mut g = self.inner.lock().expect("stream poisoned");
            g.last_flush = Instant::now();
        }
    }

    /// Final flush plus the `done` record, fsynced. Idempotent: the
    /// stream refuses further writes afterwards.
    pub fn finish(&self, rec: &Recorder, publish: impl FnOnce()) {
        if !rec.is_enabled() {
            return;
        }
        publish();
        if let Some(snap) = rec.snapshot() {
            self.write_batch(&snap, true);
        }
    }

    fn write_batch(&self, snap: &Snapshot, done: bool) {
        let mut g = self.inner.lock().expect("stream poisoned");
        if g.done {
            return;
        }
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
        let total_events = snap.dropped_events + snap.events.len() as u64;
        if total_events > g.events_sent {
            let fresh = (total_events - g.events_sent) as usize;
            // The newest `fresh` events sit at the tail of the retained
            // ring; cap the batch so one flush line stays small.
            let take = fresh.min(snap.events.len()).min(64);
            let tail = &snap.events[snap.events.len() - take..];
            let _ = write!(
                o,
                "{{\"k\":\"events\",\"seq\":{seq},\"t_us\":{t},\"data\":["
            );
            for (i, e) in tail.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                let _ = write!(o, "{{\"ts_us\":{},\"name\":", e.ts_us);
                esc(e.event.name(), &mut o);
                o.push_str(",\"args\":{");
                for (j, (k, v)) in e.event.args().iter().enumerate() {
                    if j > 0 {
                        o.push(',');
                    }
                    esc(k, &mut o);
                    o.push(':');
                    num(*v, &mut o);
                }
                o.push_str("}}");
            }
            o.push_str("]}\n");
            g.events_sent = total_events;
        }
        if done {
            let _ = writeln!(o, "{{\"k\":\"done\",\"seq\":{seq},\"t_us\":{t}}}");
        }
        let _ = g.file.write_all(o.as_bytes());
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

/// Maximum journal events a reader retains (newest win).
const MAX_STATE_EVENTS: usize = 256;

/// Accumulated state of a metrics stream after applying its records in
/// order. All collections are sorted by name.
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
        serde::Value::Int(i) if *i >= 0 => Some(*i as u64),
        serde::Value::Float(f) if *f >= 0.0 => Some(*f as u64),
        _ => None,
    }
}

fn fields(v: &serde::Value) -> Option<&[(String, serde::Value)]> {
    match v {
        serde::Value::Object(f) => Some(f),
        _ => None,
    }
}

fn upsert<T>(list: &mut Vec<(String, T)>, name: &str, value: T) {
    match list.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
        Ok(i) => list[i].1 = value,
        Err(i) => list.insert(i, (name.to_string(), value)),
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

    /// Applies one complete JSONL line. Unknown record kinds are
    /// ignored (forward compatibility); malformed JSON is an error the
    /// caller decides how to treat (tail tolerance vs corruption).
    pub fn apply_line(&mut self, line: &str) -> Result<(), String> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(());
        }
        let v: serde::Value =
            serde_json::from_str(line).map_err(|e| format!("bad stream line: {e}"))?;
        let kind = match v.get_field("k") {
            Ok(serde::Value::Str(s)) => s.clone(),
            _ => return Err("stream line without \"k\" kind".into()),
        };
        if let Some(seq) = v.get_field("seq").ok().and_then(vu) {
            self.seq = self.seq.max(seq);
        }
        if let Some(t) = v.get_field("t_us").ok().and_then(vu) {
            self.t_us = self.t_us.max(t);
        }
        self.records += 1;
        match kind.as_str() {
            "open" => {
                if let Some(ver) = v.get_field("v").ok().and_then(vu) {
                    self.version = ver;
                }
            }
            "meta" => {
                if let Some(tags) = v.get_field("tags").ok().and_then(fields) {
                    for (k, t) in tags {
                        if let serde::Value::Str(s) = t {
                            upsert(&mut self.tags, k, s.clone());
                        }
                    }
                }
                if let Some(data) = v.get_field("data").ok().and_then(fields) {
                    for (k, t) in data {
                        if let Some(f) = vf(t) {
                            upsert(&mut self.meta, k, f);
                        }
                    }
                }
            }
            "counters" => {
                if let Some(data) = v.get_field("data").ok().and_then(fields) {
                    for (k, t) in data {
                        if let Some(c) = vu(t) {
                            upsert(&mut self.counters, k, c);
                        }
                    }
                }
            }
            "gauges" => {
                if let Some(data) = v.get_field("data").ok().and_then(fields) {
                    for (k, t) in data {
                        if let Some(f) = vf(t) {
                            upsert(&mut self.gauges, k, f);
                        }
                    }
                }
            }
            "hists" => {
                if let Some(data) = v.get_field("data").ok().and_then(fields) {
                    for (k, t) in data {
                        let get = |f: &str| t.get_field(f).ok().and_then(vu).unwrap_or(0);
                        let mean = t.get_field("mean").ok().and_then(vf).unwrap_or(f64::NAN);
                        upsert(
                            &mut self.hists,
                            k,
                            HistogramSummary {
                                count: get("count"),
                                sum: get("sum"),
                                min: get("min"),
                                max: get("max"),
                                mean,
                                p50: get("p50"),
                                p90: get("p90"),
                                p99: get("p99"),
                            },
                        );
                    }
                }
            }
            "series" => {
                let name = match v.get_field("name") {
                    Ok(serde::Value::Str(s)) => s.clone(),
                    _ => return Err("series record without name".into()),
                };
                let reset = matches!(v.get_field("reset"), Ok(serde::Value::Bool(true)));
                let mut pts = Vec::new();
                if let Ok(serde::Value::Array(raw)) = v.get_field("pts") {
                    for p in raw {
                        if let serde::Value::Array(t) = p {
                            if t.len() == 3 {
                                if let (Some(ts), Some(x), Some(y)) =
                                    (vu(&t[0]), vf(&t[1]), vf(&t[2]))
                                {
                                    pts.push(SeriesPoint { ts_us: ts, x, y });
                                }
                            }
                        }
                    }
                }
                match self
                    .series
                    .binary_search_by(|(n, _)| n.as_str().cmp(name.as_str()))
                {
                    Ok(i) => {
                        if reset {
                            self.series[i].1 = pts;
                        } else {
                            self.series[i].1.extend(pts);
                        }
                    }
                    Err(i) => self.series.insert(i, (name, pts)),
                }
            }
            "events" => {
                if let Ok(serde::Value::Array(raw)) = v.get_field("data") {
                    for e in raw {
                        let name = match e.get_field("name") {
                            Ok(serde::Value::Str(s)) => s.clone(),
                            _ => continue,
                        };
                        let ts_us = e.get_field("ts_us").ok().and_then(vu).unwrap_or(0);
                        let mut args = Vec::new();
                        if let Some(a) = e.get_field("args").ok().and_then(fields) {
                            for (k, t) in a {
                                if let Some(f) = vf(t) {
                                    args.push((k.clone(), f));
                                }
                            }
                        }
                        self.events.push(StreamEvent { ts_us, name, args });
                    }
                    if self.events.len() > MAX_STATE_EVENTS {
                        let cut = self.events.len() - MAX_STATE_EVENTS;
                        self.events.drain(..cut);
                    }
                }
            }
            "done" => self.done = true,
            _ => {} // unknown kind: skip
        }
        Ok(())
    }
}

/// Parses a whole stream text. A malformed *final* line is tolerated
/// (crash truncation) and flagged via [`StreamState::truncated`]; a
/// malformed earlier line is an error.
pub fn parse_stream(text: &str) -> Result<StreamState, String> {
    let mut state = StreamState::default();
    let lines: Vec<&str> = text.split('\n').collect();
    let last_nonempty = lines.iter().rposition(|l| !l.trim().is_empty());
    for (i, line) in lines.iter().enumerate() {
        if let Err(e) = state.apply_line(line) {
            if Some(i) == last_nonempty {
                state.truncated = true;
                break;
            }
            return Err(format!("line {}: {e}", i + 1));
        }
    }
    Ok(state)
}

/// Reads and parses a stream file in one shot.
pub fn read_stream(path: impl AsRef<Path>) -> Result<StreamState, String> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
    parse_stream(&text)
}

/// Sniffs whether `text` looks like a metrics stream (first line is an
/// `open` record) as opposed to a Chrome trace or JSON summary.
pub fn is_stream(text: &str) -> bool {
    text.lines()
        .next()
        .is_some_and(|l| l.trim_start().starts_with("{\"k\":\"open\""))
}

/// Incremental tail over a growing stream file: remembers the byte
/// offset and any partial trailing line between polls.
#[derive(Debug)]
pub struct StreamFollower {
    path: PathBuf,
    offset: u64,
    carry: String,
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
            carry: String::new(),
            state: StreamState::default(),
        }
    }

    /// Reads newly appended bytes and applies all complete lines.
    /// Returns whether any record was applied. A shrunken file (the
    /// run restarted and truncated it) resets the follower.
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
        if len == self.offset {
            return Ok(false);
        }
        f.seek(std::io::SeekFrom::Start(self.offset))?;
        let mut buf = Vec::with_capacity((len - self.offset) as usize);
        f.read_to_end(&mut buf)?;
        self.offset = len;
        self.carry.push_str(&String::from_utf8_lossy(&buf));
        let before = self.state.records;
        while let Some(pos) = self.carry.find('\n') {
            let line: String = self.carry.drain(..=pos).collect();
            // A torn or corrupt line mid-stream is skipped rather than
            // fatal: a live tail must survive writer races.
            let _ = self.state.apply_line(&line);
        }
        Ok(self.state.records != before)
    }
}

// ---------------------------------------------------------------------
// rendering
// ---------------------------------------------------------------------

fn fmt_secs(s: f64) -> String {
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

fn sparkline(pts: &[SeriesPoint], width: usize) -> String {
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
struct WorkerRow {
    pushes: f64,
    pops: f64,
    steals: f64,
    steal_fails: f64,
    busy_ns: f64,
    idle_ns: f64,
}

/// Worker rows keyed by the index parsed from the gauge name — only the
/// indexes present, so a crafted `pool.w{huge}.*` name costs one row.
fn worker_rows(state: &StreamState) -> BTreeMap<u64, WorkerRow> {
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
fn best_haspl(state: &StreamState) -> Option<(f64, &[SeriesPoint])> {
    let pts = state
        .series("anneal.best_haspl")
        .filter(|p| !p.is_empty())?;
    Some((pts.iter().map(|p| p.y).fold(f64::MAX, f64::min), pts))
}

/// Static text report over a stream — the `orp report` view of a
/// solver metrics file.
pub fn render_stream_report(state: &StreamState) -> String {
    let mut o = String::with_capacity(4096);
    let _ = writeln!(o, "== telemetry stream report ==");
    if !state.tags.is_empty() {
        let tags: Vec<String> = state.tags.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(o, "run: {}", tags.join(" "));
    }
    if !state.meta.is_empty() {
        let meta: Vec<String> = state.meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(o, "params: {}", meta.join(" "));
    }
    let _ = writeln!(
        o,
        "status: {} · last update {} · {} records (seq {}){}",
        if state.done { "done" } else { "live" },
        fmt_secs(state.t_us as f64 / 1e6),
        state.records,
        state.seq,
        if state.truncated {
            " · TRUNCATED tail skipped"
        } else {
            ""
        },
    );
    if let Some((best, pts)) = best_haspl(state) {
        let _ = writeln!(
            o,
            "best h-ASPL: {best:.6} over {} recorded points  {}",
            pts.len(),
            sparkline(pts, 40)
        );
    }
    render_eval_mix(&mut o, |n| {
        state
            .counter(n)
            .or_else(|| state.gauge(n).map(|g| g as u64))
    });
    let rows = worker_rows(state);
    if !rows.is_empty() {
        let _ = writeln!(
            o,
            "workers:   {:>12} {:>12} {:>12} {:>9} {:>10}",
            "pops", "steals", "fail-steals", "busy-s", "idle-s"
        );
        for (i, r) in &rows {
            let _ = writeln!(
                o,
                "  w{i:<7} {:>12} {:>12} {:>12} {:>9.2} {:>10.2}",
                r.pops as u64,
                r.steals as u64,
                r.steal_fails as u64,
                r.busy_ns / 1e9,
                r.idle_ns / 1e9
            );
        }
    }
    render_watchdog(
        &mut o,
        state.t_us,
        state.counter("watchdog.stalls"),
        state.gauge("watchdog.heartbeat_us"),
        state
            .events
            .iter()
            .filter(|e| e.name == "watchdog.stalled")
            .count() as u64,
    );
    if !state.counters.is_empty() {
        let _ = writeln!(o, "counters:");
        for (name, v) in &state.counters {
            let _ = writeln!(o, "  {name:<36} {v}");
        }
    }
    if !state.gauges.is_empty() {
        let _ = writeln!(o, "gauges:");
        for (name, v) in &state.gauges {
            let _ = writeln!(o, "  {name:<36} {v}");
        }
    }
    if !state.hists.is_empty() {
        let _ = writeln!(
            o,
            "histograms:                        {:>10} {:>12} {:>12} {:>12}",
            "count", "mean", "p50", "p99"
        );
        for (name, h) in &state.hists {
            let _ = writeln!(
                o,
                "  {name:<32} {:>10} {:>12.1} {:>12} {:>12}",
                h.count, h.mean, h.p50, h.p99
            );
        }
    }
    if !state.events.is_empty() {
        let show = state.events.len().min(8);
        let _ = writeln!(o, "recent events:");
        for e in &state.events[state.events.len() - show..] {
            let args: Vec<String> = e.args.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(
                o,
                "  [{}] {} {}",
                fmt_secs(e.ts_us as f64 / 1e6),
                e.name,
                args.join(" ")
            );
        }
    }
    o
}

/// Renders the eval-path mix (full vs incremental vs early-reject) if
/// the counters are present. Shared by the stream report and the
/// snapshot report.
pub(crate) fn render_eval_mix(o: &mut String, get: impl Fn(&str) -> Option<u64>) {
    let full = get("eval.full").unwrap_or(0);
    let inc = get("eval.incremental").unwrap_or(0);
    let early = get("eval.early_reject").unwrap_or(0);
    let total = full + inc + early;
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
        sink.finish(&rec, || rec.gauge("progress.iter", 100.0));

        let text = std::fs::read_to_string(&path).unwrap();
        for kind in [
            "open", "meta", "counters", "gauges", "hists", "series", "events", "done",
        ] {
            assert!(
                text.contains(&format!("\"k\":\"{kind}\"")),
                "missing record kind {kind} in:\n{text}"
            );
        }
        let state = parse_stream(&text).expect("parses");
        assert!(state.done);
        assert!(!state.truncated);
        assert_eq!(state.version, STREAM_VERSION);
        assert_eq!(state.tags, vec![("cmd".to_string(), "solve".to_string())]);
        assert_eq!(state.counter("eval.incremental"), Some(90));
        assert_eq!(state.gauge("pool.w0.steals"), Some(17.0));
        assert_eq!(state.gauge("progress.iter"), Some(100.0));
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
    fn truncated_final_line_is_tolerated() {
        let path = tmp("torn.jsonl");
        let sink = StreamSink::with_interval(&path, Duration::from_secs(0)).unwrap();
        let rec = populated_recorder();
        assert!(sink.maybe_flush(&rec, || {}));
        let mut text = std::fs::read_to_string(&path).unwrap();
        let full = parse_stream(&text).unwrap();
        assert!(full.counter("eval.full").is_some());
        // simulate a crash mid-append: chop the file mid final line
        text.truncate(text.len() - 7);
        let state = parse_stream(&text).expect("torn tail tolerated");
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
        let state = read_stream(&path).unwrap();
        let pts = state.series("s").unwrap();
        // decimated but endpoints survive, and no duplicated prefix
        assert!(pts.iter().any(|p| p.x == 0.0));
        assert!(pts.iter().any(|p| p.x == 99.0));
        assert!(pts.len() <= 8 + 3 + 6);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn is_stream_sniffs_first_line() {
        assert!(is_stream("{\"k\":\"open\",\"v\":1}\n"));
        assert!(!is_stream("{\"displayTimeUnit\": \"ms\"}"));
        assert!(!is_stream(""));
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
        let state = read_stream(&path).unwrap();

        let report = render_stream_report(&state);
        for needle in [
            "telemetry stream report",
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
        let dash = render_dashboard(&state, None);
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
        let dash = render_dashboard(&read_stream(&path).unwrap(), None);
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
        let state = read_stream(&path).unwrap();
        assert_eq!(state.records, 1); // just the open record
        let _ = std::fs::remove_file(&path);
    }
}
