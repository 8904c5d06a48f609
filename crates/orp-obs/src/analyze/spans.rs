//! Span-tree self/total aggregation and folded-stack export.
//!
//! Spans are recorded flat (name, start, duration, thread); nesting is
//! reconstructed per thread by interval containment — a span is a
//! child of the innermost span that encloses it. Aggregation keys on
//! the full call path (`parent;child;...`), flamegraph style, and
//! splits each path's time into *total* (including children) and
//! *self* (excluding them).

use super::SpanInfo;
use std::collections::BTreeMap;

/// Aggregated timing for one call path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAgg {
    /// `;`-joined path from the thread root to this span.
    pub path: String,
    /// Leaf span name.
    pub name: String,
    /// Occurrences.
    pub count: u64,
    /// Microseconds including children.
    pub total_us: u64,
    /// Microseconds excluding children.
    pub self_us: u64,
}

/// Rebuilds span nesting and aggregates by call path, sorted by path.
pub fn aggregate_spans(spans: &[SpanInfo]) -> Vec<SpanAgg> {
    struct Instance {
        path: String,
        name: String,
        end_us: u64,
        dur_us: u64,
        child_us: u64,
    }
    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut aggs: BTreeMap<String, SpanAgg> = BTreeMap::new();
    for tid in tids {
        let mut group: Vec<&SpanInfo> = spans.iter().filter(|s| s.tid == tid).collect();
        // parents sort before children: earlier start, longer duration
        group.sort_by(|a, b| {
            a.start_us
                .cmp(&b.start_us)
                .then_with(|| b.dur_us.cmp(&a.dur_us))
        });
        let mut instances: Vec<Instance> = Vec::with_capacity(group.len());
        let mut stack: Vec<usize> = Vec::new();
        for s in group {
            while let Some(&top) = stack.last() {
                if s.start_us >= instances[top].end_us {
                    stack.pop();
                } else {
                    break;
                }
            }
            let path = match stack.last() {
                Some(&top) => format!("{};{}", instances[top].path, s.name),
                None => s.name.clone(),
            };
            if let Some(&top) = stack.last() {
                let top = &mut instances[top];
                top.child_us = top.child_us.saturating_add(s.dur_us);
            }
            instances.push(Instance {
                path,
                name: s.name.clone(),
                end_us: s.start_us.saturating_add(s.dur_us),
                dur_us: s.dur_us,
                child_us: 0,
            });
            stack.push(instances.len() - 1);
        }
        for inst in instances {
            let agg = aggs.entry(inst.path.clone()).or_insert_with(|| SpanAgg {
                path: inst.path,
                name: inst.name,
                count: 0,
                total_us: 0,
                self_us: 0,
            });
            agg.count += 1;
            agg.total_us = agg.total_us.saturating_add(inst.dur_us);
            agg.self_us = agg
                .self_us
                .saturating_add(inst.dur_us.saturating_sub(inst.child_us));
        }
    }
    aggs.into_values().collect()
}

/// Renders aggregated spans in the folded-stack format flamegraph
/// tooling consumes: one `path self_us` line per call path.
pub fn collapsed_stacks(aggs: &[SpanAgg]) -> String {
    let mut out = String::new();
    for a in aggs {
        out.push_str(&a.path);
        out.push(' ');
        out.push_str(&a.self_us.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, dur_us: u64, tid: u32) -> SpanInfo {
        SpanInfo {
            name: name.into(),
            start_us,
            dur_us,
            tid,
        }
    }

    #[test]
    fn nesting_is_rebuilt_from_containment() {
        let spans = [
            span("child_b", 60, 30, 0),
            span("root", 0, 100, 0),
            span("child_a", 10, 40, 0),
            span("grandchild", 15, 10, 0),
        ];
        let aggs = aggregate_spans(&spans);
        let by_path: BTreeMap<&str, &SpanAgg> = aggs.iter().map(|a| (a.path.as_str(), a)).collect();
        assert_eq!(by_path["root"].total_us, 100);
        assert_eq!(by_path["root"].self_us, 30); // 100 − 40 − 30
        assert_eq!(by_path["root;child_a"].self_us, 30); // 40 − 10
        assert_eq!(by_path["root;child_a;grandchild"].total_us, 10);
        assert_eq!(by_path["root;child_b"].self_us, 30);
    }

    #[test]
    fn repeated_paths_accumulate() {
        let spans = [
            span("root", 0, 50, 0),
            span("step", 0, 20, 0),
            span("step", 25, 20, 0),
        ];
        let aggs = aggregate_spans(&spans);
        let step = aggs.iter().find(|a| a.path == "root;step").unwrap();
        assert_eq!(step.count, 2);
        assert_eq!(step.total_us, 40);
        assert_eq!(step.self_us, 40);
    }

    #[test]
    fn threads_do_not_nest_into_each_other() {
        let spans = [span("a", 0, 100, 0), span("b", 10, 10, 1)];
        let aggs = aggregate_spans(&spans);
        assert!(aggs.iter().any(|a| a.path == "a"));
        assert!(aggs.iter().any(|a| a.path == "b"));
    }

    #[test]
    fn folded_output_is_one_line_per_path() {
        let spans = [span("root", 0, 50, 0), span("leaf", 5, 10, 0)];
        let folded = collapsed_stacks(&aggregate_spans(&spans));
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.contains(&"root 40"));
        assert!(lines.contains(&"root;leaf 10"));
    }
}
