//! Tiny-scale smoke test: every workload runs clean, traced and
//! untraced, and reports every named metric with its unit.

use fgc_perfbench::{run, Options, Scale, Workload, END_TO_END, EXTRAS, LAYER_EXTRAS, PER_LAYER};
use fgc_server::parse_json;
use fgc_views::Json;

#[test]
fn every_workload_reports_every_metric_with_no_failures() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(&Options {
                workload,
                seed: 7,
                seconds: 0.4,
                trace,
                scale: Scale::Tiny,
            })
            .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
            let what = format!("{} trace={trace}", workload.name());
            assert!(outcome.attempted > 0, "{what}: nothing attempted");
            assert_eq!(outcome.failed, 0, "{what}: failed operations");
            assert!(outcome.correct(), "{what}");

            let expected = if trace { PER_LAYER } else { END_TO_END };
            let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, expected, "{what}: metric names and units");
            assert!(
                outcome.metrics.iter().all(|m| m.value.is_finite()),
                "{what}: non-finite metric"
            );

            // every workload-specific metric is printed: measured with
            // its unit, or named as absent
            let extras = if trace { LAYER_EXTRAS } else { EXTRAS };
            let mut named: Vec<&str> = outcome.extras.iter().map(|m| m.name).collect();
            named.extend(&outcome.absent);
            named.sort_unstable();
            let mut want: Vec<&str> = extras.iter().map(|(n, _)| *n).collect();
            want.sort_unstable();
            assert_eq!(named, want, "{what}: workload-specific metrics");
            for m in &outcome.extras {
                assert!(extras.contains(&(m.name, m.unit)), "{what}: {}", m.name);
            }
            let lines = outcome.human_lines().join("\n");
            for (name, _) in expected.iter().chain(extras) {
                assert!(lines.contains(name), "{what}: {name} not printed");
            }

            if !trace {
                let failed_frac = outcome
                    .extras
                    .iter()
                    .find(|m| m.name == "failed_frac")
                    .unwrap_or_else(|| panic!("{what}: no failed_frac"));
                assert_eq!(failed_frac.value, 0.0, "{what}: failed_frac");
                assert!(
                    outcome.metrics.iter().all(|m| m.value > 0.0),
                    "{what}: an end-to-end metric read 0"
                );
            }

            // the result line is one JSON object with exactly the
            // result keys, every metric carrying its value and unit
            let line = parse_json(&outcome.result_line()).expect("result line is JSON");
            let Json::Object(fields) = &line else {
                panic!("{what}: result line is not an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{what}");
            let Some(Json::Object(metrics)) = line.get("metrics") else {
                panic!("{what}: no metrics object");
            };
            assert_eq!(metrics.len(), expected.len(), "{what}");
            for ((name, value), (want, unit)) in metrics.iter().zip(expected) {
                assert_eq!(name, want, "{what}");
                assert_eq!(value.get("unit"), Some(&Json::str(*unit)), "{what}: {name}");
                assert!(
                    matches!(value.get("value"), Some(Json::Float(_) | Json::Int(_))),
                    "{what}: {name} has no numeric value"
                );
            }
        }
    }
}
