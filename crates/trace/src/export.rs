//! Exporters and the in-tree validator.
//!
//! [`Trace::to_chrome_json`] renders a snapshot in the Chrome
//! `trace_event` format (the JSON-array-of-events flavour that
//! `chrome://tracing` and Perfetto load directly): measured threads
//! become lanes under pid 1 ("measured"), modeled/virtual lanes under
//! pid 2 ("modeled"), spans are `"X"` complete events with microsecond
//! timestamps, and counter samples are `"C"` events.
//!
//! [`Trace::to_prometheus`] renders counters and log2 histograms in the
//! Prometheus text exposition format (cumulative `le` buckets).
//!
//! [`validate_chrome_trace`] re-parses emitted JSON with a minimal
//! hand-rolled parser (no external crates) and checks the structural
//! rules above — CI uses it to prove the bench's `--trace` output loads.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::types::{Histogram, Trace};

/// Chrome pid used for measured (real-thread) lanes.
const PID_MEASURED: u64 = 1;
/// Chrome pid used for modeled (virtual, simulated-time) lanes.
const PID_VIRTUAL: u64 = 2;

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Nanoseconds → microseconds with 3 decimals (Chrome `ts`/`dur` unit).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn push_meta(out: &mut String, pid: u64, tid: u64, kind: &str, name: &str, first: &mut bool) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{kind}\",\"args\":{{\"name\":\""
    );
    escape_json(name, out);
    out.push_str("\"}}");
}

impl Trace {
    /// Render the snapshot as Chrome `trace_event` JSON. Load the result
    /// in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        push_meta(&mut out, PID_MEASURED, 0, "process_name", "measured", &mut first);
        for (tid, name) in &self.thread_names {
            push_meta(&mut out, PID_MEASURED, u64::from(*tid), "thread_name", name, &mut first);
        }
        if !self.virtual_lanes.is_empty() {
            push_meta(&mut out, PID_VIRTUAL, 0, "process_name", "modeled", &mut first);
            for (tid, name) in &self.virtual_lanes {
                push_meta(&mut out, PID_VIRTUAL, u64::from(*tid), "thread_name", name, &mut first);
            }
        }
        for e in &self.events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let pid = if e.virtual_lane { PID_VIRTUAL } else { PID_MEASURED };
            let _ = write!(out, "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"name\":\"", e.tid);
            escape_json(&e.name, &mut out);
            out.push_str("\",\"cat\":\"");
            escape_json(e.cat, &mut out);
            let _ = write!(out, "\",\"ts\":{},\"dur\":{}}}", us(e.start_ns), us(e.dur_ns));
        }
        for s in &self.samples {
            if !s.value.is_finite() {
                continue;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let pid = if s.virtual_lane { PID_VIRTUAL } else { PID_MEASURED };
            let _ = write!(out, "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{},\"name\":\"", s.tid);
            escape_json(&s.name, &mut out);
            let _ = write!(out, "\",\"ts\":{},\"args\":{{\"value\":{}}}}}", us(s.t_ns), s.value);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Render counters and histograms in the Prometheus text exposition
    /// format. Histogram buckets are cumulative with `le = 2^i − 1`
    /// (only buckets that change the running count are emitted, plus the
    /// mandatory `+Inf`); counter-sample series are exported as gauges
    /// holding their last value.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let m = prom_name(name);
            let _ = writeln!(out, "# TYPE {m} counter");
            let _ = writeln!(out, "{m} {value}");
        }
        for (name, h) in &self.hists {
            let m = prom_name(name);
            let _ = writeln!(out, "# TYPE {m} histogram");
            let mut cumulative = 0u64;
            for (i, b) in h.buckets.iter().enumerate() {
                if *b == 0 {
                    continue;
                }
                cumulative += *b;
                let le = Histogram::bucket_upper_bound(i);
                let _ = writeln!(out, "{m}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{m}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{m}_sum {}", h.sum);
            let _ = writeln!(out, "{m}_count {}", h.count);
            // Derived percentile gauges (bucket upper bounds, so each is
            // an over-estimate by less than one log2 bucket width) — the
            // SLO numbers a scrape actually alerts on.
            for (suffix, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                let _ = writeln!(out, "# TYPE {m}_{suffix} gauge");
                let _ = writeln!(out, "{m}_{suffix} {}", h.quantile(q));
            }
        }
        let mut gauges: BTreeMap<String, f64> = BTreeMap::new();
        for s in &self.samples {
            if s.value.is_finite() {
                gauges.insert(prom_name(&s.name), s.value);
            }
        }
        for (m, v) in gauges {
            let _ = writeln!(out, "# TYPE {m} gauge");
            let _ = writeln!(out, "{m} {v}");
        }
        out
    }
}

/// Sanitize a metric name for Prometheus: `[a-zA-Z0-9_]`, dots and
/// dashes become underscores.
fn prom_name(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect()
}

/// What [`validate_chrome_trace`] learned about a trace file: event
/// counts by phase, the distinct span names, and the lanes (tid → lane
/// name) per process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeSummary {
    /// Number of `"X"` (complete span) events.
    pub complete_events: usize,
    /// Number of `"C"` (counter) events.
    pub counter_events: usize,
    /// Number of `"M"` (metadata) events.
    pub metadata_events: usize,
    /// Distinct span names across all `"X"` events.
    pub span_names: BTreeSet<String>,
    /// Measured lanes (pid 1): tid → thread name ("" if unnamed).
    pub measured_lanes: BTreeMap<u64, String>,
    /// Modeled lanes (pid 2): tid → lane name ("" if unnamed).
    pub virtual_lanes: BTreeMap<u64, String>,
}

/// Parse and structurally validate Chrome `trace_event` JSON produced by
/// [`Trace::to_chrome_json`] (or any conforming tool): a top-level
/// object with a `traceEvents` array whose members are `"X"`, `"C"`, or
/// `"M"` events with the required fields and non-negative timestamps.
/// Returns a [`ChromeSummary`] on success, a description of the first
/// violation otherwise.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeSummary, String> {
    let value = Parser::new(json).parse_document()?;
    let top = value.as_object().ok_or("top level is not an object")?;
    let events = field(top, "traceEvents")?.as_array().ok_or("traceEvents is not an array")?;
    let mut summary = ChromeSummary::default();
    for (i, ev) in events.iter().enumerate() {
        let obj = ev.as_object().ok_or_else(|| format!("event {i} is not an object"))?;
        let ph =
            field(obj, "ph")?.as_str().ok_or_else(|| format!("event {i}: ph is not a string"))?;
        let pid = num_field(obj, "pid", i)?;
        let tid = num_field(obj, "tid", i)?;
        let name = field(obj, "name")
            .map_err(|e| format!("event {i}: {e}"))?
            .as_str()
            .ok_or_else(|| format!("event {i}: name is not a string"))?
            .to_string();
        let lanes = match pid {
            p if p == PID_MEASURED => &mut summary.measured_lanes,
            p if p == PID_VIRTUAL => &mut summary.virtual_lanes,
            other => return Err(format!("event {i}: unknown pid {other}")),
        };
        match ph {
            "X" => {
                let ts = float_field(obj, "ts", i)?;
                let dur = float_field(obj, "dur", i)?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i}: negative ts/dur"));
                }
                lanes.entry(tid).or_default();
                summary.span_names.insert(name);
                summary.complete_events += 1;
            }
            "C" => {
                float_field(obj, "ts", i)?;
                let args = field(obj, "args")
                    .map_err(|e| format!("event {i}: {e}"))?
                    .as_object()
                    .ok_or_else(|| format!("event {i}: args is not an object"))?;
                if !args.iter().any(|(_, v)| v.as_f64().is_some()) {
                    return Err(format!("event {i}: counter has no numeric arg"));
                }
                lanes.entry(tid).or_default();
                summary.counter_events += 1;
            }
            "M" => {
                let args = field(obj, "args")
                    .map_err(|e| format!("event {i}: {e}"))?
                    .as_object()
                    .ok_or_else(|| format!("event {i}: args is not an object"))?;
                let label = field(args, "name")
                    .map_err(|e| format!("event {i}: {e}"))?
                    .as_str()
                    .ok_or_else(|| format!("event {i}: args.name is not a string"))?;
                match name.as_str() {
                    "thread_name" => {
                        lanes.insert(tid, label.to_string());
                    }
                    "process_name" => {}
                    other => return Err(format!("event {i}: unknown metadata '{other}'")),
                }
                summary.metadata_events += 1;
            }
            other => return Err(format!("event {i}: unsupported phase '{other}'")),
        }
    }
    Ok(summary)
}

fn field<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field '{key}'"))
}

fn num_field(obj: &[(String, Json)], key: &str, i: usize) -> Result<u64, String> {
    let v = field(obj, key).map_err(|e| format!("event {i}: {e}"))?;
    let f = v.as_f64().ok_or_else(|| format!("event {i}: {key} is not a number"))?;
    if f < 0.0 || f.fract() != 0.0 {
        return Err(format!("event {i}: {key} is not a non-negative integer"));
    }
    Ok(f as u64)
}

fn float_field(obj: &[(String, Json)], key: &str, i: usize) -> Result<f64, String> {
    field(obj, key)
        .map_err(|e| format!("event {i}: {e}"))?
        .as_f64()
        .ok_or_else(|| format!("event {i}: {key} is not a number"))
}

/// Minimal JSON value for the in-tree validator.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Recursive-descent JSON parser over a byte slice; supports the full
/// grammar the exporter emits (and standard escapes), rejects trailing
/// garbage, and bounds recursion depth.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

const MAX_DEPTH: u32 = 64;

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { bytes: input.as_bytes(), pos: 0, depth: 0 }
    }

    fn parse_document(&mut self) -> Result<Json, String> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn consume(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        let v = match self.peek()? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => self.parse_string().map(Json::Str),
            b't' | b'f' => self.parse_keyword(),
            b'n' => self.parse_keyword(),
            _ => self.parse_number(),
        };
        self.depth -= 1;
        v
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.consume(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.parse_string()?;
            self.consume(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!("bad escape '\\{}'", other as char));
                        }
                    }
                }
                b if b < 0x20 => return Err("raw control char in string".to_string()),
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: re-decode from the slice.
                    let start = self.pos - 1;
                    let rest = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().ok_or("invalid UTF-8 in string")?;
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn parse_keyword(&mut self) -> Result<Json, String> {
        for (word, value) in
            [("true", Json::Bool(true)), ("false", Json::Bool(false)), ("null", Json::Null)]
        {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        Err(format!("invalid literal at byte {}", self.pos))
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "invalid number")?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CounterSample, TraceEvent};
    use std::borrow::Cow;

    fn sample_trace() -> Trace {
        let mut t = Trace::default();
        t.thread_names.insert(0, "main".to_string());
        t.thread_names.insert(1, "worker-0".to_string());
        t.virtual_lanes.insert(0, "v100".to_string());
        t.events.push(TraceEvent {
            name: Cow::Borrowed("gemm.pack_a"),
            cat: "linalg",
            tid: 1,
            virtual_lane: false,
            start_ns: 1_500,
            dur_ns: 2_250,
        });
        t.events.push(TraceEvent {
            name: Cow::Owned("modeled \"dgemm\"\n".to_string()),
            cat: "modeled",
            tid: 0,
            virtual_lane: true,
            start_ns: 0,
            dur_ns: 1_000_000,
        });
        t.samples.push(CounterSample {
            name: Cow::Borrowed("power_w"),
            tid: 0,
            virtual_lane: true,
            t_ns: 500_000,
            value: 286.5,
        });
        t.counters.insert("par.claims_worker", 17);
        let mut h = Histogram::default();
        for v in [0u64, 3, 900, 1024] {
            h.record(v);
        }
        t.hists.insert("par.queue_wait_ns", h);
        t
    }

    #[test]
    fn chrome_roundtrip_validates_with_expected_lanes() {
        let t = sample_trace();
        let json = t.to_chrome_json();
        let s = validate_chrome_trace(&json).unwrap();
        assert_eq!(s.complete_events, 2);
        assert_eq!(s.counter_events, 1);
        assert!(s.metadata_events >= 4);
        assert!(s.span_names.contains("gemm.pack_a"));
        assert!(s.span_names.contains("modeled \"dgemm\"\n"));
        assert_eq!(s.measured_lanes.get(&0).map(String::as_str), Some("main"));
        assert_eq!(s.measured_lanes.get(&1).map(String::as_str), Some("worker-0"));
        assert_eq!(s.virtual_lanes.get(&0).map(String::as_str), Some("v100"));
    }

    #[test]
    fn timestamps_are_microseconds() {
        let t = sample_trace();
        let json = t.to_chrome_json();
        // 1500 ns start → ts 1.500 µs; 2250 ns dur → 2.250 µs.
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":2.250"), "{json}");
    }

    #[test]
    fn prometheus_has_counters_and_cumulative_buckets() {
        let t = sample_trace();
        let prom = t.to_prometheus();
        assert!(prom.contains("# TYPE par_claims_worker counter"));
        assert!(prom.contains("par_claims_worker 17"));
        assert!(prom.contains("# TYPE par_queue_wait_ns histogram"));
        // 0 → bucket 0 (le=0); 3 → bucket 2 (le=3); 900 → bucket 10
        // (le=1023); 1024 → bucket 11 (le=2047); cumulative counts.
        assert!(prom.contains("par_queue_wait_ns_bucket{le=\"0\"} 1"));
        assert!(prom.contains("par_queue_wait_ns_bucket{le=\"3\"} 2"));
        assert!(prom.contains("par_queue_wait_ns_bucket{le=\"1023\"} 3"));
        assert!(prom.contains("par_queue_wait_ns_bucket{le=\"2047\"} 4"));
        assert!(prom.contains("par_queue_wait_ns_bucket{le=\"+Inf\"} 4"));
        assert!(prom.contains("par_queue_wait_ns_sum 1927"));
        assert!(prom.contains("par_queue_wait_ns_count 4"));
        // Percentile gauges: ranks ⌈q·4⌉ over sorted [0, 3, 900, 1024]
        // → p50 hits rank 2 (value 3, bucket bound 3), p95/p99 hit rank
        // 4 (value 1024, bucket bound 2047).
        assert!(prom.contains("# TYPE par_queue_wait_ns_p50 gauge"));
        assert!(prom.contains("par_queue_wait_ns_p50 3"));
        assert!(prom.contains("par_queue_wait_ns_p95 2047"));
        assert!(prom.contains("par_queue_wait_ns_p99 2047"));
        assert!(prom.contains("# TYPE power_w gauge"));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"a\",\"ts\":-1,\"dur\":0}]}"
        )
        .is_err());
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"ph\":\"Q\",\"pid\":1,\"tid\":0,\"name\":\"a\"}]}"
        )
        .is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]} junk").is_err());
        // Missing ts on an X event.
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"a\",\"dur\":0}]}"
        )
        .is_err());
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let json = "{\"traceEvents\":[{\"ph\":\"M\",\"pid\":1,\"tid\":0,\
                    \"name\":\"thread_name\",\"args\":{\"name\":\"w\\u00e9\\t\\\"x\\\"\"}}]}";
        let s = validate_chrome_trace(json).unwrap();
        assert_eq!(s.measured_lanes.get(&0).map(String::as_str), Some("wé\t\"x\""));
    }

    #[test]
    fn empty_trace_exports_and_validates() {
        let t = Trace::default();
        let s = validate_chrome_trace(&t.to_chrome_json()).unwrap();
        assert_eq!(s.complete_events, 0);
        assert!(t.to_prometheus().is_empty());
    }
}
