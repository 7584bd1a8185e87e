//! `BENCHMARK.json` at the repository root declares what the binary
//! reports. The two must not drift apart: same workloads with the same
//! reasons, same metrics with the same units, directions and bounds.

use prepare_benchmark::report::{MetricDef, END_TO_END, PER_LAYER};
use prepare_benchmark::workloads::Workload;
use prepare_metrics::json::JsonValue;

fn manifest() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside benchmark/");
    JsonValue::parse(&text).expect("BENCHMARK.json is JSON")
}

fn text<'a>(object: &'a JsonValue, key: &str) -> &'a str {
    object
        .get(key)
        .and_then(|v| v.as_str())
        .unwrap_or_else(|| panic!("{key} missing"))
}

fn check_metrics(declared: &[JsonValue], table: &[MetricDef]) {
    assert_eq!(declared.len(), table.len());
    for (json, def) in declared.iter().zip(table) {
        assert_eq!(text(json, "name"), def.name);
        assert_eq!(text(json, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(json, "better"), def.better, "{}", def.name);
        assert_eq!(
            json.get("bound").and_then(|v| v.as_number()),
            def.bound,
            "{}",
            def.name
        );
    }
}

#[test]
fn manifest_declares_what_the_binary_reports() {
    let m = manifest();
    let workloads = m.get("workloads").and_then(|v| v.as_array()).unwrap();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (json, workload) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(text(json, "name"), workload.name());
        assert_eq!(text(json, "why"), workload.why());
        assert!(
            workload.why().len() <= 200,
            "{} why too long",
            workload.name()
        );
    }
    check_metrics(
        m.get("end_to_end").and_then(|v| v.as_array()).unwrap(),
        &END_TO_END,
    );
    check_metrics(
        m.get("per_layer").and_then(|v| v.as_array()).unwrap(),
        &PER_LAYER,
    );
    let paths = m.get("paths").and_then(|v| v.as_array()).unwrap();
    assert_eq!(paths, &[JsonValue::String("benchmark".to_string())]);
}

#[test]
fn metric_names_are_unique_and_well_formed() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|d| d.name)
        .collect();
    for name in &names {
        assert!(name.len() <= 64, "{name}");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
}
