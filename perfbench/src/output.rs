//! What one run reports, and the one-line JSON result it ends with.

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The outcome of one run: the metrics, how many operations were
/// attempted and failed, and every output check that did not hold.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
}

impl RunResult {
    /// Records a failed output check when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`
    /// with every value printed at full precision. A value that is not
    /// finite cannot be written as JSON and marks the run incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct() && finite,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Shortest round-trip decimal form of a finite `f64`, always readable
/// as a JSON number (Rust prints `1e-7` style exponents as `1e-7`,
/// which JSON accepts, and integers without a fraction).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s == "-0" {
        "0".to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = RunResult { attempted: 12, failed: 1, ..RunResult::default() };
        r.metrics.push(Metric::new("latency_ms", 1.2034, "ms"));
        r.metrics.push(Metric::new("classes_found", 63.0, "count"));
        assert_eq!(
            r.to_json(),
            "{\"correct\":true,\"attempted\":12,\"failed\":1,\"metrics\":{\
             \"latency_ms\":{\"value\":1.2034,\"unit\":\"ms\"},\
             \"classes_found\":{\"value\":63,\"unit\":\"count\"}}}"
        );
    }

    #[test]
    fn a_failed_check_or_a_non_finite_value_is_incorrect() {
        let mut r = RunResult { attempted: 1, ..RunResult::default() };
        r.check(true, || unreachable!());
        assert!(r.to_json().starts_with("{\"correct\":true"));
        r.metrics.push(Metric::new("x", f64::NAN, "ms"));
        assert!(r.to_json().starts_with("{\"correct\":false"));
        let mut r = RunResult { attempted: 1, ..RunResult::default() };
        r.check(false, || "matrix differs".to_string());
        assert!(!r.correct());
        assert_eq!(r.problems, vec!["matrix differs".to_string()]);
    }
}
