//! Across-run summary:
//! `perfbench summarize BENCHMARK.json RUNS.jsonl [EARLIER_RUNS.jsonl]`.
//!
//! Each line of a runs file is `{"workload": …, "seed": …, "exit": …,
//! "result": …}` with the run's exit code and the result object it
//! printed, or `null` when it exited non-zero (`spread.sh` writes them).
//! For every workload this counts the runs that exited non-zero, and
//! for every end-to-end metric it prints the median, the quartiles and
//! the spread `(Q3 − Q1) / median` of the other runs against the
//! metric's bound. With an earlier runs file it also prints how far
//! each median moved, signed so that positive is worse. The largest
//! spread over bound leaves `setup_s` out: set-up time is judged by how
//! far its median moves between sets, and its spread is only reported.

use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;

/// One metric of `BENCHMARK.json`.
struct MetricSpec {
    name: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

fn parse(text: &str, what: &str) -> Result<Value, String> {
    serde_json::from_str(text).map_err(|e| format!("{what}: {e}"))
}

fn metric_specs(bench: &Value) -> Result<Vec<MetricSpec>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(MetricSpec {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Value::as_str) != Some("higher"),
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

/// Metric values by workload, then metric name, in file order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Exit codes of the runs that exited non-zero, by workload.
type Failures = BTreeMap<String, Vec<u64>>;

fn read_runs(text: &str) -> Result<(Runs, Failures), String> {
    let mut runs = Runs::new();
    let mut failures = Failures::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = parse(line, &format!("line {}", i + 1))?;
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let exit = record.get("exit").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let result = record.get("result");
        if exit != 0 || matches!(result, Some(Value::Null)) {
            failures.entry(workload.to_string()).or_default().push(exit);
            continue;
        }
        let metrics = result
            .and_then(|r| r.get("metrics"))
            .ok_or(format!("line {}: no result metrics", i + 1))?;
        let Value::Map(entries) = metrics else {
            return Err(format!("line {}: metrics is not an object", i + 1));
        };
        for (name, m) in entries {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("line {}: {name} has no value", i + 1))?;
            runs.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok((runs, failures))
}

/// The summary text; `Err` on unreadable input.
pub fn summarize(bench: &str, runs: &str, earlier: Option<&str>) -> Result<String, String> {
    let specs = metric_specs(&parse(bench, "BENCHMARK.json")?)?;
    let (runs, failures) = read_runs(runs)?;
    let earlier = earlier.map(read_runs).transpose()?.map(|(r, _)| r);
    let mut out = String::new();
    let mut worst = 0.0f64;
    for (workload, exits) in &failures {
        if !runs.contains_key(workload) {
            out.push_str(&format!(
                "\n{workload}: 0 runs, {} exited non-zero (exit codes {exits:?})\n",
                exits.len()
            ));
        }
    }
    for (workload, metrics) in &runs {
        let n = metrics.values().next().map_or(0, Vec::len);
        let exits = failures.get(workload).cloned().unwrap_or_default();
        out.push_str(&format!(
            "\n{workload}: {n} runs, {} exited non-zero (exit codes {exits:?})\n",
            exits.len()
        ));
        for spec in &specs {
            let Some(values) = metrics.get(&spec.name) else {
                out.push_str(&format!("  {:<18} missing\n", spec.name));
                continue;
            };
            let med = median(values);
            let (q1, q3) = if values.len() >= 2 {
                let [q1, _, q3] = quartiles(values);
                (q1, q3)
            } else {
                (med, med)
            };
            let spread = (q3 - q1) / med;
            let mut line = format!(
                "  {:<18} median {:>14.4}  q1 {:>14.4}  q3 {:>14.4}  spread {:.3}",
                spec.name, med, q1, q3, spread
            );
            if let Some(bound) = spec.bound {
                line.push_str(&format!(
                    "  bound {bound}  spread/bound {:.2}",
                    spread / bound
                ));
                if spec.name != "setup_s" {
                    worst = worst.max(spread / bound);
                }
            }
            let before = earlier
                .as_ref()
                .and_then(|e| e.get(workload))
                .and_then(|m| m.get(&spec.name));
            if let Some(before) = before {
                let shift = (med - median(before)) / median(before);
                let worse = if spec.lower_is_better { shift } else { -shift };
                line.push_str(&format!("  worse than earlier by {worse:+.3}"));
            }
            out.push_str(&line);
            out.push('\n');
        }
    }
    out.push_str(&format!(
        "\nlargest spread/bound (setup_s excluded): {worst:.2}\n"
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.2}]}"#;

    fn line(value: f64, rate: f64) -> String {
        format!(
            r#"{{"workload": "w", "seed": 1, "result": {{"correct": true, "attempted": 1, "failed": 0, "metrics": {{"latency_ms": {{"value": {value}, "unit": "ms"}}, "rate": {{"value": {rate}, "unit": "1/s"}}}}}}}}"#
        )
    }

    #[test]
    fn summary_reports_quartile_spread_and_median_shift() {
        let runs: Vec<String> = (1..=10).map(|v| line(f64::from(v), 100.0)).collect();
        let text = summarize(BENCH, &runs.join("\n"), None).unwrap();
        // Quartiles of 1..10 are 2.75 and 8.25 around a median of 5.5.
        assert!(text
            .contains("median         5.5000  q1         2.7500  q3         8.2500  spread 1.000"));
        assert!(text.contains("largest spread/bound (setup_s excluded): 10.00"));

        let later: Vec<String> = (1..=10).map(|v| line(f64::from(v) * 1.1, 90.0)).collect();
        let text = summarize(BENCH, &later.join("\n"), Some(&runs.join("\n"))).unwrap();
        assert!(text.contains("worse than earlier by +0.100"), "{text}");
        assert!(text
            .contains("spread 0.000  bound 0.2  spread/bound 0.00  worse than earlier by +0.100"));
    }

    #[test]
    fn runs_that_exited_non_zero_are_counted_not_summarised() {
        let mut runs: Vec<String> = (1..=4).map(|v| line(f64::from(v), 100.0)).collect();
        runs.push(r#"{"workload": "w", "seed": 5, "exit": 101, "result": null}"#.into());
        runs.push(r#"{"workload": "w", "seed": 6, "exit": 1, "result": null}"#.into());
        runs.push(r#"{"workload": "v", "seed": 1, "exit": 2, "result": null}"#.into());
        let text = summarize(BENCH, &runs.join("\n"), None).unwrap();
        assert!(
            text.contains("w: 4 runs, 2 exited non-zero (exit codes [101, 1])"),
            "{text}"
        );
        assert!(
            text.contains("v: 0 runs, 1 exited non-zero (exit codes [2])"),
            "{text}"
        );
        assert!(text.contains("median         2.5000"), "{text}");
    }

    #[test]
    fn unreadable_runs_are_errors() {
        assert!(summarize(BENCH, "{not json", None).is_err());
        assert!(summarize(BENCH, r#"{"seed": 1}"#, None).is_err());
    }
}
