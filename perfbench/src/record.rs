//! Self-describing metric records and the JSON document one benchmark
//! invocation prints. Every record names its unit, its clock (wall or
//! virtual time) and the workload it was measured on, and carries its
//! sample count, median and quartiles — so a reader can never mistake a
//! virtual-time figure for a wall-clock one.

use std::collections::BTreeMap;

use serde_json::{Number, Value};

use crate::stats::{summarize, Summary};

/// Which clock a metric's value is measured on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock time (or a rate or share derived from it).
    Wall,
    /// Simulated time inside the discrete-event simulator.
    Virtual,
    /// Not a time: a count, a size or an accuracy.
    None,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Virtual => "virtual",
            Clock::None => "none",
        }
    }
}

/// Is `name` a legal metric name (`[A-Za-z0-9_.-]+`, starting with a
/// letter or digit, at most 64 characters)?
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub clock: Clock,
    /// The workload whose run produced the samples.
    pub workload: String,
    pub summary: Summary,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        unit: &'static str,
        clock: Clock,
        workload: &'static str,
        samples: &[f64],
    ) -> Metric {
        let name = name.into();
        assert!(valid_name(&name), "illegal metric name {name:?}");
        assert!(
            samples.iter().all(|v| v.is_finite()),
            "{name}: non-finite sample in {samples:?}"
        );
        Metric {
            name,
            unit: unit.into(),
            clock,
            workload: workload.into(),
            summary: summarize(samples),
        }
    }

    pub fn to_json(&self) -> Value {
        let s = &self.summary;
        let mut o = BTreeMap::new();
        o.insert("name".into(), Value::String(self.name.clone()));
        o.insert("unit".into(), Value::String(self.unit.clone()));
        o.insert("clock".into(), Value::String(self.clock.name().into()));
        o.insert("workload".into(), Value::String(self.workload.clone()));
        o.insert("n".into(), num_u(s.n as u64));
        o.insert("median".into(), num(s.median));
        o.insert("q1".into(), num(s.q1));
        o.insert("q3".into(), num(s.q3));
        o.insert(
            "tail".into(),
            match s.tail {
                Some((p, v)) => obj([("p", num(p)), ("value", num(v))]),
                None => Value::Null,
            },
        );
        Value::Object(o)
    }

    /// Inverse of [`Self::to_json`] for a record this program emitted.
    #[cfg(test)]
    pub fn from_json(v: &Value) -> Option<Metric> {
        let text = |k: &str| v.get_key(k)?.as_str().map(str::to_string);
        let clock = match text("clock")?.as_str() {
            "wall" => Clock::Wall,
            "virtual" => Clock::Virtual,
            "none" => Clock::None,
            _ => return None,
        };
        let tail = match v.get_key("tail")? {
            Value::Null => None,
            t => Some((t.get_key("p")?.as_f64()?, t.get_key("value")?.as_f64()?)),
        };
        Some(Metric {
            name: text("name")?,
            unit: text("unit")?,
            clock,
            workload: text("workload")?,
            summary: Summary {
                n: v.get_key("n")?.as_u64()? as usize,
                median: v.get_key("median")?.as_f64()?,
                q1: v.get_key("q1")?.as_f64()?,
                q3: v.get_key("q3")?.as_f64()?,
                tail,
            },
        })
    }
}

/// A named pass/fail output check.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one invocation measured, checked and attempted.
#[derive(Default)]
pub struct Doc {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Training runs (or probe passes) started, and those that failed:
    /// returned an error, timed out, or failed an output check.
    pub attempted: u64,
    pub failed: u64,
}

impl Doc {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        clock: Clock,
        workload: &'static str,
        samples: &[f64],
    ) {
        self.metrics
            .push(Metric::new(name, unit, clock, workload, samples));
    }

    /// Record a check; a failed check also fails the run it belongs to.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) -> bool {
        let c = Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        };
        if !c.ok {
            eprintln!("CHECK FAILED {}: {}", c.name, c.detail);
        }
        self.checks.push(c);
        ok
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    pub fn to_json(&self, header: Value) -> Value {
        let checks = self
            .checks
            .iter()
            .map(|c| {
                obj([
                    ("name", Value::String(c.name.clone())),
                    ("ok", Value::Bool(c.ok)),
                    ("detail", Value::String(c.detail.clone())),
                ])
            })
            .collect();
        obj([
            ("header", header),
            (
                "metrics",
                Value::Array(self.metrics.iter().map(Metric::to_json).collect()),
            ),
            ("checks", Value::Array(checks)),
            ("attempted", num_u(self.attempted)),
            ("failed", num_u(self.failed)),
            ("correct", Value::Bool(self.correct())),
        ])
    }
}

pub fn num(v: f64) -> Value {
    Value::Number(Number::F64(v))
}

pub fn num_u(v: u64) -> Value {
    Value::Number(Number::U64(v))
}

pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_charset() {
        for ok in ["samples_per_s", "nn.conv0.fwd_ms", "a-b.c_9", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "has space",
            "slash/name",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "illegal metric name")]
    fn illegal_name_is_refused() {
        Metric::new("bad name", "ms", Clock::Wall, "w", &[1.0]);
    }

    /// The per-layer and end-to-end names the benchmark declares all obey
    /// the charset, and each is declared once.
    #[test]
    fn declared_names_are_legal_and_unique() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let spec = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let mut seen = std::collections::BTreeSet::new();
        for list in ["end_to_end", "per_layer", "workloads"] {
            for m in spec[list].as_array().expect("list") {
                let name = m["name"].as_str().expect("name");
                assert!(valid_name(name), "{list}: {name:?}");
                assert!(seen.insert(name.to_string()), "{name} declared twice");
            }
        }
    }

    #[test]
    fn documents_round_trip_through_json_text() {
        let mut doc = Doc::default();
        doc.metric(
            "samples_per_s",
            "samples/s",
            Clock::Wall,
            "cnn_threaded",
            &[2034.125, 1999.5, 2101.0625],
        );
        let many: Vec<f64> = (0..40).map(|i| f64::from(i) * 0.1 + 1e-9).collect();
        doc.metric(
            "cluster.virtual_s",
            "virtual_s",
            Clock::Virtual,
            "ps_sim",
            &many,
        );
        doc.check("drift_zero", true, "final_drift = 0");
        doc.attempted = 3;
        let header = obj([("seed", num_u(11))]);
        let text = serde_json::to_string(&doc.to_json(header)).expect("serializes");
        let back = serde_json::from_str(&text).expect("reparses");
        let metrics: Vec<Metric> = back["metrics"]
            .as_array()
            .expect("metrics")
            .iter()
            .map(|m| Metric::from_json(m).expect("record"))
            .collect();
        assert_eq!(metrics, doc.metrics);
        assert_eq!(back["attempted"].as_u64(), Some(3));
        assert_eq!(back["correct"].as_bool(), Some(true));
        assert_eq!(back["header"]["seed"].as_u64(), Some(11));
    }
}
