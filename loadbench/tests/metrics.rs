use serde_json::Value;
use tie_loadbench::metrics::{run_seconds, Decl, BENCHMARK_JSON, END_TO_END, PER_LAYER};
use tie_loadbench::Workload;

fn definition() -> Value {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

fn list<'a>(def: &'a Value, key: &str) -> &'a [Value] {
    def.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry lacks {key}"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn assert_declared(decls: &[Decl], entries: &[Value]) {
    let declared: Vec<(&str, &str)> = entries
        .iter()
        .map(|e| (str_of(e, "name"), str_of(e, "unit")))
        .collect();
    let emitted: Vec<(&str, &str)> = decls.iter().map(|d| (d.name, d.unit)).collect();
    assert_eq!(
        emitted, declared,
        "emitted metrics must equal BENCHMARK.json"
    );
}

#[test]
fn every_emitted_metric_is_declared_with_its_unit() {
    let def = definition();
    assert_declared(END_TO_END, list(&def, "end_to_end"));
    assert_declared(PER_LAYER, list(&def, "per_layer"));
}

#[test]
fn names_are_valid_and_unique() {
    let def = definition();
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    names.extend(list(&def, "workloads").iter().map(|w| str_of(w, "name")));
    for name in &names {
        assert!(valid_name(name), "invalid name {name:?}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "names must be unique");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            d.unit.len() <= 16
                && d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "invalid unit {:?}",
            d.unit
        );
    }
}

#[test]
fn workloads_match_the_definition() {
    let def = definition();
    let declared: Vec<&str> = list(&def, "workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, known);
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
        let (light, heavy) = w.rates();
        assert!(0.0 < light && light < heavy, "{}", w.name());
    }
}

#[test]
fn setup_time_is_gated_and_run_length_is_declared() {
    let def = definition();
    let e2e = list(&def, "end_to_end");
    for m in e2e {
        assert!(m
            .get("bound")
            .and_then(Value::as_f64)
            .is_some_and(|b| b > 0.0));
        assert!(matches!(str_of(m, "better"), "lower" | "higher"));
    }
    let setup = e2e
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
    assert!(run_seconds().is_ok_and(|s| s > 0.0));
}
