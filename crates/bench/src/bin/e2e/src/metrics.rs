//! The catalogue of metric names, units and directions.  `BENCHMARK.json`
//! at the repository root lists the same metrics (a self-test compares the
//! two) and adds the regression bound of each end-to-end metric.

use crate::procstat::Family;
use crate::trace::SpanKind;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// What a user of the system sees, measured with tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def("setup_s", "s", Lower),
        def("ops_per_s", "1/s", Higher),
        def("payload_mb_per_s", "MB/s", Higher),
        def("op_latency_p50_us", "us", Lower),
        def("server_cpu_us_per_op", "us", Lower),
        def("rss_peak_mb", "MB", Lower),
    ]
}

/// Layer-call timings the `layers` child measures: `(name, unit)`.
pub const LAYER_CALLS: [(&str, &str); 19] = [
    ("proto.get_time_req_encode_ns", "ns"),
    ("proto.get_time_req_decode_ns", "ns"),
    ("proto.time_reply_encode_ns", "ns"),
    ("proto.time_reply_decode_ns", "ns"),
    ("proto.play_8k_req_encode_ns", "ns"),
    ("proto.play_8k_req_decode_ns", "ns"),
    ("proto.record_8k_reply_encode_ns", "ns"),
    ("proto.record_8k_reply_decode_ns", "ns"),
    ("dsp.convert_lin16_ulaw_ns_per_byte", "ns/B"),
    ("dsp.gain_ulaw_ns_per_byte", "ns/B"),
    ("dsp.mix_ulaw_ns_per_byte", "ns/B"),
    ("dsp.decode_ulaw_ns_per_byte", "ns/B"),
    ("dsp.resample_ns_per_sample", "ns"),
    ("buffer.write_play_mix_ns_per_byte", "ns/B"),
    ("buffer.write_play_preempt_ns_per_byte", "ns/B"),
    ("buffer.read_rec_ns_per_byte", "ns/B"),
    ("buffer.update_us", "us"),
    ("pool.take_recycle_ns", "ns"),
    ("device.clock_now_ns", "ns"),
];

pub fn family_metric(family: Family, what: &str) -> String {
    format!("{}.{what}", family.name())
}

pub fn span_metric(kind: SpanKind) -> String {
    format!("{}_us", kind.name())
}

/// Per-layer metrics, from the traced run.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    // The tail is reported, not bounded: on this VM it spreads by 15–22 %
    // between runs of identical code, which no bound the driver allows
    // would survive (see README, "Spread").
    let mut out = vec![def("op_latency_p99_us", "us", Lower)];
    for family in Family::ALL {
        out.push(def(family_metric(family, "cpu_us_per_op"), "us", Lower));
        out.push(def(
            family_metric(family, "runq_wait_us_per_op"),
            "us",
            Lower,
        ));
        out.push(def(
            family_metric(family, "timeslices_per_op"),
            "count",
            Lower,
        ));
    }
    out.push(def("accounted_share", "ratio", Higher));
    out.push(def("machine.steal_share", "ratio", Lower));
    out.push(def("machine.speed", "ratio", Higher));
    out.push(def("wall.ops_per_s", "1/s", Higher));
    for kind in SpanKind::CHILDREN {
        out.push(def(span_metric(kind), "us", Lower));
    }
    out.push(def("harness.self_us", "us", Lower));
    for (name, unit) in LAYER_CALLS {
        out.push(def(name, unit, Lower));
    }
    out.push(def("dispatcher.unexplained_us_per_op", "us", Lower));
    out.push(def("trace_overhead_pct", "%", Lower));
    out.push(def("setup.server_spawn_ms", "ms", Lower));
    out.push(def("setup.connect_ms", "ms", Lower));
    out
}

#[cfg(test)]
/// The contract's grammar for a name: starts with a letter or digit, then
/// letters, digits, `_`, `.` and `-`, at most 64 characters.
pub fn is_valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
/// The contract's grammar for a unit.
pub fn is_valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn every_emitted_name_and_unit_fits_the_grammar_and_is_unique() {
        let mut seen = BTreeSet::new();
        for m in end_to_end().into_iter().chain(per_layer()) {
            assert!(is_valid_name(&m.name), "bad name {:?}", m.name);
            assert!(is_valid_unit(m.unit), "bad unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        assert!(!is_valid_name(""));
        assert!(!is_valid_name(".x"));
        assert!(!is_valid_name("a b"));
        assert!(!is_valid_name(&"x".repeat(65)));
        assert!(!is_valid_unit("µs"));
    }

    /// `BENCHMARK.json` is what the driver reads; this catalogue is what
    /// the program prints.  They must list the same metrics and workloads.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .expect(key)
                .items()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let ours = |defs: Vec<MetricDef>| -> Vec<(String, String, String)> {
            defs.into_iter()
                .map(|m| (m.name, m.unit.to_string(), m.better.name().to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(end_to_end()));
        assert_eq!(listed("per_layer"), ours(per_layer()));
        for m in doc.get("end_to_end").expect("end_to_end").items() {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
