//! Mutation fuzzing of the metrics-stream decoder and every renderer
//! behind it. Two real streams — `tests/data/tempering_stream.jsonl`
//! (format v1) and the committed `tests/data/TRACE_anneal_n128.jsonl`
//! (v2) — are damaged the ways a crash, a bad disk or a hostile writer
//! damages a file: truncated at a byte, bytes flipped, lines deleted,
//! duplicated or swapped, numbers replaced by huge, negative,
//! fractional, `null` or string values, records of unknown kinds,
//! lines nested too deep to parse recursively and spans whose
//! `start + dur` overflows inserted. The decoder must
//! return a value or an error, never panic, and the dashboard, the
//! report, the folded stacks, the Chrome rendering (which must stay
//! valid JSON) and the diff must render whatever it returns.

use orp::obs::analyze::{
    aggregate_spans, collapsed_stacks, diff, render_chrome, render_diff, render_report,
};
use orp::obs::{parse_stream, render_dashboard, StreamState};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn corpus() -> [String; 2] {
    let root = env!("CARGO_MANIFEST_DIR");
    [
        "tests/data/tempering_stream.jsonl",
        "tests/data/TRACE_anneal_n128.jsonl",
    ]
    .map(|p| std::fs::read_to_string(format!("{root}/{p}")).expect("corpus file"))
}

/// Byte offsets of the numbers in `text` (a digit run with its sign,
/// point and exponent), as `(start, end)`.
fn numbers(text: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < text.len() {
        if text[i].is_ascii_digit() {
            let start = if i > 0 && text[i - 1] == b'-' {
                i - 1
            } else {
                i
            };
            while i < text.len()
                && matches!(text[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                i += 1;
            }
            out.push((start, i));
        } else {
            i += 1;
        }
    }
    out
}

/// Applies one random mutation to `text`.
fn mutate(text: &mut Vec<u8>, rng: &mut ChaCha8Rng) {
    let split =
        |t: &[u8]| -> Vec<Vec<u8>> { t.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect() };
    match rng.gen_range(0u32..9) {
        0 => {
            let at = rng.gen_range(0..=text.len());
            text.truncate(at);
        }
        1 => {
            for _ in 0..rng.gen_range(1usize..8) {
                if !text.is_empty() {
                    let at = rng.gen_range(0..text.len());
                    text[at] ^= rng.gen_range(1u8..=255);
                }
            }
        }
        2..=4 => {
            let mut lines = split(text);
            let n = lines.len();
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            match rng.gen_range(0u32..3) {
                0 => {
                    lines.remove(a);
                }
                1 => {
                    let dup = lines[a].clone();
                    lines.insert(b, dup);
                }
                _ => lines.swap(a, b),
            }
            *text = lines.join(&b'\n');
        }
        5 => {
            let nums = numbers(text);
            if nums.is_empty() {
                return;
            }
            let (s, e) = nums[rng.gen_range(0..nums.len())];
            const VALUES: [&str; 9] = [
                "18446744073709551615",
                "99999999999999999999999",
                "1e308",
                "-1e308",
                "-7",
                "0.5",
                "3.999",
                "null",
                "\"7\"",
            ];
            let v = VALUES[rng.gen_range(0..VALUES.len())];
            text.splice(s..e, v.bytes());
        }
        6 => {
            let mut lines = split(text);
            let at = rng.gen_range(0..=lines.len());
            let line: &str = [
                "{\"k\":\"hologram\",\"seq\":3,\"t_us\":9,\"data\":[1,2]}",
                "{\"k\":7}",
                "{\"k\":\"events\",\"dropped\":-1,\"data\":[{\"name\":5},{\"ts_us\":1}]}",
                "{\"k\":\"series\",\"name\":\"anneal.best_haspl\",\"reset\":true,\"pts\":[[1],[1,2,null]]}",
                // flow records with hostile values reach the attribution,
                // the critical path (a self-dependency), hotspots and diff
                "{\"k\":\"events\",\"seq\":2,\"t_us\":5,\"dropped\":0,\"data\":[\
                 {\"ts_us\":1,\"name\":\"flow.done\",\"args\":{\"id\":1,\"src\":0,\"dst\":1,\"bytes\":1e308,\
                 \"hops\":-3,\"created\":null,\"completed\":1e308,\"propagation\":0.5,\"serialization\":-1,\
                 \"queueing\":1e-300,\"stall\":0}},\
                 {\"ts_us\":2,\"name\":\"flow.dep\",\"args\":{\"flow\":1,\"parent\":1}},\
                 {\"ts_us\":3,\"name\":\"link.load\",\"args\":{\"link\":4294967296,\"a\":-1,\"b\":0.5,\
                 \"kind\":9,\"bytes\":1,\"util_ppm\":1e308,\"avg_flows\":1e308,\"peak_flows\":1}},\
                 {\"ts_us\":4,\"name\":\"sim.completed\",\"args\":{\"value\":null}}]}",
            ][rng.gen_range(0usize..5)];
            lines.insert(at, line.as_bytes().to_vec());
            *text = lines.join(&b'\n');
        }
        7 => {
            // nesting deep enough to overflow a recursive parser's stack
            let mut lines = split(text);
            let at = rng.gen_range(0..=lines.len());
            let deep = format!("{{\"k\":\"meta\",\"tags\":{}", "[".repeat(100_000));
            lines.insert(at, deep.into_bytes());
            *text = lines.join(&b'\n');
        }
        _ => {
            let mut lines = split(text);
            let at = rng.gen_range(0..=lines.len());
            let line = "{\"k\":\"spans\",\"seq\":1,\"t_us\":1,\"dropped\":18446744073709551615,\"data\":[\
                {\"name\":\"outer\",\"start_us\":18446744073709551615,\"dur_us\":18446744073709551615,\"tid\":4294967296},\
                {\"name\":\"inner\",\"start_us\":18446744073709551614,\"dur_us\":18446744073709551615,\"tid\":4294967296},\
                {\"name\":\"x\",\"start_us\":1e300,\"dur_us\":-5}]}";
            lines.insert(at, line.as_bytes().to_vec());
            *text = lines.join(&b'\n');
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn damaged_streams_decode_or_fail_cleanly_and_always_render(
        which in 0usize..2,
        seed in any::<u64>(),
        rounds in 1usize..5,
    ) {
        let original = corpus()[which].clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut bytes = original.clone().into_bytes();
        for _ in 0..rounds {
            mutate(&mut bytes, &mut rng);
        }
        let text = String::from_utf8_lossy(&bytes);

        // the live follower's view: line by line, errors skipped
        let mut live = StreamState::default();
        for line in text.lines() {
            let _ = live.apply_line(line);
        }
        let _ = render_dashboard(&live, None);

        match render_chrome(&text) {
            Ok(chrome) => {
                let parsed: Result<serde_json::Value, _> = serde_json::from_str(&chrome);
                prop_assert!(parsed.is_ok(), "Chrome rendering is not JSON ({:?}):\n{chrome}", parsed.err());
            }
            Err(e) => prop_assert!(!e.is_empty()),
        }
        if let Ok(data) = parse_stream(&text) {
            let _ = render_report(&data, 10);
            let _ = render_dashboard(&data.state, Some(&live));
            let _ = collapsed_stacks(&aggregate_spans(&data.spans));
            let clean = parse_stream(&original).expect("the corpus decodes");
            for (a, b) in [(&clean, &data), (&data, &clean), (&data, &data)] {
                if let Ok(d) = diff(a, b) {
                    let _ = render_diff("a", "b", &d);
                }
            }
        }
    }
}
