//! Chrome `trace_event` rendering of a metrics stream, for
//! `chrome://tracing` and <https://ui.perfetto.dev>.

use crate::stream::{decode_stream, esc, num, Kind, StreamState};
use std::fmt::Write as _;

/// Renders the stream `text` as a Chrome `trace_event` JSON document.
/// Spans become complete (`"X"`) events, journal events instants
/// (`"i"`), and series points and the final counter values counter
/// (`"C"`) samples; a stream that dropped events closes with an
/// `obs.dropped_events` counter so a viewer can tell a clipped run
/// from a complete one. Records are rendered as they are decoded, so
/// memory stays that of the output.
///
/// # Errors
/// The decoder's message when `text` is not a metrics stream or has a
/// malformed line before its last.
pub fn render_chrome(text: &str) -> Result<String, String> {
    let mut o = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    let mut first = true;
    let mut sep = |o: &mut String| {
        o.push_str(if std::mem::take(&mut first) {
            "\n"
        } else {
            ",\n"
        })
    };
    let mut state = StreamState::default();
    decode_stream(text, |r| {
        match &r.kind {
            Kind::Spans(spans, _) => {
                for s in spans {
                    sep(&mut o);
                    o.push_str("{\"ph\": \"X\", \"pid\": 1, \"tid\": ");
                    let _ = write!(o, "{}, \"name\": ", s.tid);
                    esc(&s.name, &mut o);
                    let _ = write!(
                        o,
                        ", \"ts\": {}, \"dur\": {}}}",
                        s.start_us,
                        s.dur_us.max(1)
                    );
                }
            }
            Kind::Events(events, _) => {
                for e in events {
                    sep(&mut o);
                    o.push_str("{\"ph\": \"i\", \"pid\": 1, \"tid\": 0, \"s\": \"p\", \"name\": ");
                    esc(&e.name, &mut o);
                    let _ = write!(o, ", \"ts\": {}, \"args\": {{", e.ts_us);
                    for (j, (k, v)) in e.args.iter().enumerate() {
                        if j > 0 {
                            o.push_str(", ");
                        }
                        esc(k, &mut o);
                        o.push_str(": ");
                        num(*v, &mut o);
                    }
                    o.push_str("}}");
                }
            }
            _ => {}
        }
        state.apply(r);
    })?;
    let mut counter = |o: &mut String, name: &str, ts: u64, v: f64| {
        sep(o);
        o.push_str("{\"ph\": \"C\", \"pid\": 1, \"name\": ");
        esc(name, o);
        let _ = write!(o, ", \"ts\": {ts}, \"args\": {{\"value\": ");
        num(v, o);
        o.push_str("}}");
    };
    for (name, pts) in &state.series {
        for p in pts {
            counter(&mut o, name, p.ts_us, p.y);
        }
    }
    for (name, v) in &state.counters {
        counter(&mut o, name, state.t_us, *v as f64);
    }
    if state.dropped_events > 0 {
        counter(
            &mut o,
            "obs.dropped_events",
            state.t_us,
            state.dropped_events as f64,
        );
    }
    o.push_str("\n]}\n");
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::recorder::Recorder;
    use crate::stream::StreamSink;

    #[test]
    fn chrome_rendering_parses_and_has_all_phases() {
        let rec = Recorder::enabled();
        rec.incr("flows", 3);
        rec.series("best", 0.0, 3.5);
        rec.series("best", 100.0, f64::NAN);
        rec.emit(Event::Best {
            iter: 10,
            value: 3.25,
        });
        drop(rec.span("phase \"zero\"")); // exercises escaping
        let path = std::env::temp_dir().join(format!("orp-chrome-{}.jsonl", std::process::id()));
        StreamSink::create(&path).unwrap().finish(&rec, || ());
        let text = render_chrome(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        let v: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let Ok(serde::Value::Array(events)) = v.get_field("traceEvents") else {
            panic!("traceEvents must be an array");
        };
        for ph in ["X", "i", "C"] {
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e.get_field("ph"), Ok(serde::Value::Str(p)) if p == ph)),
                "missing phase {ph}"
            );
        }
        assert!(
            text.contains("null"),
            "a NaN series value must render as null"
        );
        assert!(render_chrome("{\"displayTimeUnit\": \"ms\"}").is_err());
    }
}
