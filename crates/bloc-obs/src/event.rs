//! Structured events and pluggable sinks.
//!
//! Metrics ([`crate::metrics`]) answer "how many / how long"; events
//! answer "what happened, in which order". The supervised runtime emits
//! a `runtime.breaker` [`Event`] per breaker transition, and every
//! [`Sink`] registered on the [`crate::Registry`] receives it (the chaos
//! soak reconciles them against the breaker ledger). With no sinks
//! attached, emission is a single relaxed atomic load — events cost
//! nothing until someone is listening.

/// A typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Text.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(x) => write!(f, "{x}"),
            Value::I64(x) => write!(f, "{x}"),
            Value::F64(x) => write!(f, "{x:.4}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::U64(x)
    }
}
impl From<usize> for Value {
    fn from(x: usize) -> Self {
        Value::U64(x as u64)
    }
}
impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::I64(x)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::F64(x)
    }
}
impl From<bool> for Value {
    fn from(x: bool) -> Self {
        Value::Bool(x)
    }
}
impl From<&str> for Value {
    fn from(x: &str) -> Self {
        Value::Str(x.to_string())
    }
}
impl From<String> for Value {
    fn from(x: String) -> Self {
        Value::Str(x)
    }
}

/// One structured occurrence in the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Coarse category, e.g. `"runtime.breaker"`.
    pub kind: &'static str,
    /// Specific name within the category, e.g. `"open"`.
    pub name: String,
    /// Free-form key/value payload.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// A new event with no fields.
    pub fn new(kind: &'static str, name: impl Into<String>) -> Self {
        Self {
            kind,
            name: name.into(),
            fields: Vec::new(),
        }
    }

    /// Attaches a field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((key, value.into()));
        self
    }
}

/// A consumer of pipeline events.
///
/// Implementations must be internally synchronized (`&self` receivers):
/// pipeline threads emit concurrently.
pub trait Sink: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &Event);
}
