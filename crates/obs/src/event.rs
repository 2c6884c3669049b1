//! Structured trace events and their JSONL serialization.
//!
//! An [`Event`] is one line in a trace: a span opening, a span closing
//! (carrying its duration), or an instantaneous point observation inside
//! the current span. Events serialize to single-line JSON objects so a
//! trace file is plain JSONL that any downstream tool can consume.

use crate::json;
use std::fmt::Write as _;

/// A dynamically-typed value attached to an event as a named field.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point. Non-finite values serialize as JSON `null`.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// What an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    SpanStart,
    /// A span closed; [`Event::dur_us`] holds its wall-clock duration.
    SpanEnd,
    /// An instantaneous observation inside the current span.
    Point,
}

impl EventKind {
    /// Stable string tag used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Point => "point",
        }
    }
}

/// One structured trace event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Marker kind.
    pub kind: EventKind,
    /// Dot-separated event (or span) name, e.g. `alloc.prep`.
    pub name: String,
    /// Id of the span this event belongs to (the span itself for
    /// start/end events; the enclosing span for points).
    pub span_id: u64,
    /// Id of the enclosing span, or 0 at top level.
    pub parent_id: u64,
    /// Microseconds since the tracer's epoch.
    pub t_us: u64,
    /// Span duration in microseconds (span-end events only).
    pub dur_us: Option<u64>,
    /// Extra key/value payload.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Serialize as one line of JSON (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"kind\":\"");
        out.push_str(self.kind.as_str());
        out.push_str("\",\"name\":\"");
        json::escape_json_into(&mut out, &self.name);
        let _ = write!(
            out,
            "\",\"span\":{},\"parent\":{},\"t_us\":{}",
            self.span_id, self.parent_id, self.t_us
        );
        if let Some(d) = self.dur_us {
            let _ = write!(out, ",\"dur_us\":{d}");
        }
        for (k, v) in &self.fields {
            out.push_str(",\"");
            json::escape_json_into(&mut out, k);
            out.push_str("\":");
            write_value_into(&mut out, v);
        }
        out.push('}');
        out
    }
}

/// Append `v` to `out` as a JSON value.
pub(crate) fn write_value_into(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => json::write_f64_into(out, *x),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => {
            out.push('"');
            json::escape_json_into(out, s);
            out.push('"');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_shape() {
        let e = Event {
            kind: EventKind::SpanEnd,
            name: "alloc.prep".into(),
            span_id: 3,
            parent_id: 1,
            t_us: 42,
            dur_us: Some(7),
            fields: vec![
                ("pages".into(), Value::U64(12)),
                ("tag".into(), Value::Str("a\"b".into())),
            ],
        };
        let line = e.to_jsonl();
        assert_eq!(
            line,
            "{\"kind\":\"span_end\",\"name\":\"alloc.prep\",\"span\":3,\"parent\":1,\
             \"t_us\":42,\"dur_us\":7,\"pages\":12,\"tag\":\"a\\\"b\"}"
        );
        // And it must be parseable by our own reader.
        let parsed = crate::json::parse(&line).unwrap();
        assert_eq!(parsed.get("name").and_then(|j| j.as_str()), Some("alloc.prep"));
        assert_eq!(parsed.get("dur_us").and_then(|j| j.as_u64()), Some(7));
        assert_eq!(parsed.get("tag").and_then(|j| j.as_str()), Some("a\"b"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event {
            kind: EventKind::Point,
            name: "x".into(),
            span_id: 1,
            parent_id: 0,
            t_us: 0,
            dur_us: None,
            fields: vec![("d".into(), Value::F64(f64::INFINITY))],
        };
        assert!(e.to_jsonl().contains("\"d\":null"));
    }
}
