//! Result bookkeeping shared by every workload: the named metric set,
//! the attempted/failed operation ledger, order statistics, peak RSS,
//! and the host fingerprint every result carries.

use serde_json::Value;

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Sets (or replaces) a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|e| e.1)
    }

    /// Every metric as `(name, value, unit)`.
    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.entries.iter()
    }

    /// The `{"name": {"value": v, "unit": u}}` object of the result line.
    pub fn to_value(&self) -> Value {
        Value::Object(
            self.entries
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Value::Object(vec![
                            ("value".to_string(), Value::F64(*v)),
                            ("unit".to_string(), Value::String((*u).to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Operations attempted and failed, plus the reason for every failure.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted (runs, submissions, fetches, checks).
    pub attempted: u64,
    /// Failure descriptions, one per failed operation.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Counts one operation, failed when `result` is an error.
    pub fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one correctness check.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(format!("{what}: {}", detail()));
        }
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile `p` in `[0, 1]` of `xs` (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Samples strictly beyond percentile `p` — a tail percentile is
/// reported only when at least ten lie beyond it.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What a result depends on besides the code: host threads, CPU model,
/// compiler, and each cell's engine mode and memory fidelity. Results
/// whose fingerprints differ are not comparable.
pub fn fingerprint(cells: &[(String, String)]) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    Value::Object(vec![
        ("nproc".to_string(), Value::U64(nproc)),
        ("cpu".to_string(), Value::String(cpu)),
        ("rustc".to_string(), Value::String(rustc)),
        (
            "cells".to_string(),
            Value::Object(
                cells
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                    .collect(),
            ),
        ),
    ])
}

/// Compares two saved results (`--out` files). Refuses — returns an
/// error — when their fingerprints or workloads differ; otherwise
/// renders one row per metric with the relative change.
pub fn compare(a: &Value, b: &Value) -> Result<String, String> {
    for key in ["fingerprint", "workload", "trace"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "refusing to compare: `{key}` differs\n  a: {}\n  b: {}",
                render(a.get(key)),
                render(b.get(key))
            ));
        }
    }
    let metrics = |v: &Value| match v.get("result").and_then(|r| r.get("metrics")) {
        Some(Value::Object(m)) => Ok(m.clone()),
        _ => Err("result file has no metrics".to_string()),
    };
    let (ma, mb) = (metrics(a)?, metrics(b)?);
    let mut out = format!(
        "{:<32} {:>14} {:>14} {:>9}  unit\n",
        "metric", "a", "b", "b/a-1"
    );
    for (name, va) in &ma {
        let Some((_, vb)) = mb.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let (x, y) = (number(va.get("value")), number(vb.get("value")));
        let rel = if x != 0.0 { y / x - 1.0 } else { 0.0 };
        let unit = match va.get("unit") {
            Some(Value::String(u)) => u.as_str(),
            _ => "",
        };
        out.push_str(&format!(
            "{name:<32} {x:>14.6} {y:>14.6} {:>8.2}%  {unit}\n",
            rel * 100.0
        ));
    }
    Ok(out)
}

fn render(v: Option<&Value>) -> String {
    v.map_or("(missing)".to_string(), |v| {
        serde_json::to_string(v).unwrap_or_default()
    })
}

/// A JSON number as `f64` (0 for anything else).
pub fn number(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::F64(x)) => *x,
        Some(Value::U64(x)) => *x as f64,
        Some(Value::I64(x)) => *x as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn compare_refuses_differing_fingerprints() {
        let result = |nproc: u64| {
            Value::Object(vec![
                (
                    "fingerprint".to_string(),
                    Value::Object(vec![("nproc".to_string(), Value::U64(nproc))]),
                ),
                ("workload".to_string(), Value::String("w".to_string())),
                ("trace".to_string(), Value::Bool(false)),
                (
                    "result".to_string(),
                    serde_json::from_str::<Value>(
                        r#"{"metrics": {"m": {"value": 2.0, "unit": "s"}}}"#,
                    )
                    .unwrap(),
                ),
            ])
        };
        assert!(compare(&result(2), &result(2)).is_ok());
        let err = compare(&result(2), &result(4)).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
    }
}
