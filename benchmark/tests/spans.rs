//! Span bookkeeping: nesting, per-call times, and the self-time
//! arithmetic (a span's length minus what its direct children cover).

use prepare_benchmark::trace::{self_times_ns, Span, Tracer};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        round: 1,
        calls: 1,
        scale: 1.0,
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let spans = vec![
        span("loop.round", 0, 100, None),
        span("apps.step", 10, 30, Some(0)),
        span("core.controller.round.predict", 40, 90, Some(0)),
        // A grandchild shortens its parent, not its grandparent.
        span("inner", 50, 60, Some(2)),
        span("unrelated", 200, 250, None),
    ];
    assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10, 50]);
    // Self times of a tree add up to its root's length.
    assert_eq!(self_times_ns(&spans)[..4].iter().sum::<u64>(), 100);
}

#[test]
fn self_time_never_underflows_on_clock_jitter() {
    // A child measured a hair longer than its parent.
    let spans = vec![span("parent", 0, 10, None), span("child", 0, 11, Some(0))];
    assert_eq!(self_times_ns(&spans), vec![0, 11]);
}

#[test]
fn tracer_nests_spans_under_the_open_one() {
    let mut t = Tracer::new(true);
    t.next_round();
    let round = t.enter("loop.round");
    let got = t.span("apps.step", || 7);
    assert_eq!(got, 7);
    let open = t.enter("core.controller.round");
    t.exit_as(open, "core.controller.round.train");
    t.span_n("cloudsim.monitor.sample", 4, || ());
    t.exit(round);
    t.next_round();
    t.span("apps.step", || ());

    let spans = t.spans();
    assert_eq!(spans.len(), 5);
    assert_eq!(spans[0].name, "loop.round");
    assert_eq!(spans[0].parent, None);
    for child in &spans[1..4] {
        assert_eq!(child.parent, Some(0));
        assert_eq!(child.round, 1);
        assert!(child.start_ns >= spans[0].start_ns && child.end_ns <= spans[0].end_ns);
    }
    assert_eq!(spans[2].name, "core.controller.round.train");
    assert_eq!(spans[3].calls, 4);
    assert_eq!(spans[4].parent, None);
    assert_eq!(spans[4].round, 2);
    assert_eq!(t.per_call_us("apps.step").len(), 2);
    let batch = spans[3].duration_ns() as f64 / 1e3;
    assert_eq!(t.per_call_us("cloudsim.monitor.sample"), vec![batch / 4.0]);
}

#[test]
fn disabled_tracer_records_nothing_but_still_runs_the_call() {
    let mut t = Tracer::new(false);
    let open = t.enter("loop.round");
    assert_eq!(t.span("apps.step", || 3), 3);
    t.count("anything", 2.0);
    t.exit(open);
    assert!(t.spans().is_empty());
    assert_eq!(t.counted("anything"), 0.0);
}

#[test]
fn span_file_has_one_object_per_span_up_to_the_limit() {
    let mut t = Tracer::new(true);
    let open = t.enter("loop.round");
    t.span("apps.step", || ());
    t.exit(open);
    t.span("later.pass", || ());
    let mut out = Vec::new();
    t.write_jsonl(&mut out, 2).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    let first = prepare_metrics::json::JsonValue::parse(lines[0]).unwrap();
    assert_eq!(
        first.get("name").and_then(|v| v.as_str()),
        Some("loop.round")
    );
    assert_eq!(
        first.get("parent"),
        Some(&prepare_metrics::json::JsonValue::Null)
    );
    let second = prepare_metrics::json::JsonValue::parse(lines[1]).unwrap();
    assert_eq!(second.get("parent").and_then(|v| v.as_u64()), Some(0));
    for key in ["start_ns", "end_ns", "round", "calls"] {
        assert!(second.get(key).and_then(|v| v.as_u64()).is_some(), "{key}");
    }
}
