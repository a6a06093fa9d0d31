//! Trace export: Chrome trace-event JSON (Perfetto-loadable) and a text
//! flame tree.

use crate::span::{SpanEvent, Trace};

impl Trace {
    /// Export as Chrome trace-event JSON (the "JSON Array Format" with
    /// `"X"` complete events), loadable in Perfetto or `chrome://tracing`.
    ///
    /// One event per span: `ts`/`dur` are microseconds from the session
    /// epoch, `pid` is always 1, `tid` is the worker lane, and span
    /// annotations land in `args`.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":\"");
            escape_json_into(ev.name, &mut out);
            out.push_str("\",\"cat\":\"amc\",\"ph\":\"X\",\"ts\":");
            push_us(ev.start_ns, &mut out);
            out.push_str(",\"dur\":");
            push_us(ev.duration_ns(), &mut out);
            out.push_str(",\"pid\":1,\"tid\":");
            out.push_str(&ev.worker.to_string());
            out.push_str(",\"args\":{");
            for (j, (key, value)) in ev.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_json_into(key, &mut out);
                out.push_str("\":");
                push_json_number(*value, &mut out);
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Render a text flame tree: per worker, spans nested by interval
    /// containment, aggregated by name path with call counts and total
    /// durations.
    pub fn flame_tree(&self) -> String {
        let mut out = String::new();
        let mut worker_ids: Vec<u32> = self.events.iter().map(|e| e.worker).collect();
        worker_ids.dedup();
        for worker in worker_ids {
            let mut root = FlameNode::default();
            let mut stack: Vec<(&SpanEvent, Vec<usize>)> = Vec::new();
            for ev in self.events.iter().filter(|e| e.worker == worker) {
                while let Some((top, _)) = stack.last() {
                    if ev.start_ns >= top.end_ns {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                let parent_path = stack.last().map(|(_, p)| p.clone()).unwrap_or_default();
                let path = root.add(&parent_path, ev);
                stack.push((ev, path));
            }
            out.push_str(&format!("worker {worker}\n"));
            root.render(1, &mut out);
        }
        if self.dropped > 0 {
            out.push_str(&format!("({} span(s) dropped at capacity)\n", self.dropped));
        }
        out
    }
}

/// Aggregation node for the flame tree: children keyed by span name in
/// first-seen order.
#[derive(Debug, Default)]
struct FlameNode {
    children: Vec<(String, FlameStats, FlameNode)>,
}

#[derive(Debug, Default)]
struct FlameStats {
    calls: u64,
    total_ns: u64,
}

impl FlameNode {
    /// Record `ev` under the child chain addressed by `parent_path`
    /// (indices into successive `children` vectors); returns the path of
    /// the node the event landed on.
    fn add(&mut self, parent_path: &[usize], ev: &SpanEvent) -> Vec<usize> {
        let mut node = self;
        for &idx in parent_path {
            node = &mut node.children[idx].2;
        }
        let idx = match node
            .children
            .iter()
            .position(|(name, _, _)| name == ev.name)
        {
            Some(idx) => idx,
            None => {
                node.children.push((
                    ev.name.to_string(),
                    FlameStats::default(),
                    FlameNode::default(),
                ));
                node.children.len() - 1
            }
        };
        let stats = &mut node.children[idx].1;
        stats.calls = stats.calls.saturating_add(1);
        stats.total_ns = stats.total_ns.saturating_add(ev.duration_ns());
        let mut path = parent_path.to_vec();
        path.push(idx);
        path
    }

    fn render(&self, indent: usize, out: &mut String) {
        for (name, stats, child) in &self.children {
            out.push_str(&format!(
                "{:indent$}{name:<24} {:>8} call(s) {:>12.3} ms\n",
                "",
                stats.calls,
                stats.total_ns as f64 / 1e6,
                indent = indent * 2,
            ));
            child.render(indent + 1, out);
        }
    }
}

/// Append `ns` as microseconds with fixed 3-decimal precision (exact for
/// integer nanoseconds).
fn push_us(ns: u64, out: &mut String) {
    out.push_str(&(ns / 1000).to_string());
    out.push('.');
    out.push_str(&format!("{:03}", ns % 1000));
}

fn push_json_number(v: f64, out: &mut String) {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            out.push_str(&format!("{}", v as i64));
        } else {
            out.push_str(&format!("{v}"));
        }
    } else {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    }
}

fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::span::{SpanEvent, Trace};

    fn ev(
        name: &'static str,
        worker: u32,
        start_ns: u64,
        end_ns: u64,
        depth: u16,
        args: Vec<(&'static str, f64)>,
    ) -> SpanEvent {
        SpanEvent {
            name,
            worker,
            start_ns,
            end_ns,
            depth,
            args,
        }
    }

    #[test]
    fn chrome_json_shape() {
        let trace = Trace::from_events(vec![
            ev("solve", 0, 1_000, 9_500, 0, vec![("inv_ops", 3.0)]),
            ev("engine.inv", 0, 2_000, 4_000, 1, vec![]),
        ]);
        let json = trace.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"solve\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":8.500"));
        assert!(json.contains("\"args\":{\"inv_ops\":3}"));
        assert!(json.contains("\"tid\":0"));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn flame_tree_nests_by_containment() {
        let trace = Trace::from_events(vec![
            ev("solve", 0, 0, 100, 0, vec![]),
            ev("inv", 0, 10, 40, 1, vec![]),
            ev("inv", 0, 50, 90, 1, vec![]),
            ev("mvm", 0, 92, 99, 1, vec![]),
            ev("solve", 1, 0, 50, 0, vec![]),
        ]);
        let tree = trace.flame_tree();
        assert!(tree.contains("worker 0"));
        assert!(tree.contains("worker 1"));
        // Two inv calls aggregate under one line below solve.
        let inv_line = tree
            .lines()
            .find(|l| l.trim_start().starts_with("inv"))
            .expect("inv line");
        assert!(inv_line.contains("2 call(s)"));
        // inv/mvm are indented deeper than solve.
        let solve_indent = tree
            .lines()
            .find(|l| l.contains("solve"))
            .map(|l| l.len() - l.trim_start().len())
            .unwrap();
        let inv_indent = inv_line.len() - inv_line.trim_start().len();
        assert!(inv_indent > solve_indent);
    }

    #[test]
    fn json_escapes_and_non_finite_args() {
        let trace = Trace::from_events(vec![ev(
            "weird\"name\\",
            0,
            0,
            1,
            0,
            vec![("nan", f64::NAN), ("frac", 1.5)],
        )]);
        let json = trace.chrome_trace_json();
        assert!(json.contains("weird\\\"name\\\\"));
        assert!(json.contains("\"nan\":null"));
        assert!(json.contains("\"frac\":1.5"));
    }
}
