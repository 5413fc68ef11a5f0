//! Vertex/edge properties: the performance data recorded on the PAG.
//!
//! Properties are open-ended key/value pairs because "the properties of a
//! vertex are various performance data […] depending on the specific
//! requirement of analysis tasks and the view of the PAG" (§3.1). Well-known
//! keys used by the built-in collection module and pass library live in
//! [`keys`]; user-defined passes are free to attach their own.
//!
//! A [`PropMap`] is a small sorted association list: PAG vertices typically
//! carry fewer than ten properties, where a hash map would waste both space
//! and time. Shared strings are `Arc<str>` so that the parallel view (which
//! replicates the top-down structure once per process) shares names rather
//! than cloning them.

use std::sync::Arc;

/// Well-known property keys written by the collection module and read by
/// the built-in pass library.
pub mod keys {
    /// Human-readable name of the code snippet (function/loop/call name).
    pub const NAME: &str = "name";
    /// Inclusive execution time in seconds (aggregated over processes in
    /// the top-down view; per-flow in the parallel view).
    pub const TIME: &str = "time";
    /// Exclusive (self) execution time in seconds.
    pub const SELF_TIME: &str = "self-time";
    /// Per-process inclusive time vector (top-down view only).
    pub const TIME_PER_PROC: &str = "time-per-proc";
    /// Number of times the snippet was entered.
    pub const COUNT: &str = "count";
    /// Estimated instruction count (PMU model).
    pub const PMU_INSTRUCTIONS: &str = "pmu-instructions";
    /// Estimated cycle count (PMU model).
    pub const PMU_CYCLES: &str = "pmu-cycles";
    /// Estimated cache misses (PMU model).
    pub const PMU_CACHE_MISSES: &str = "pmu-cache-misses";
    /// Debug info "file:line".
    pub const DEBUG_INFO: &str = "debug-info";
    /// Communication info summary ("pattern peer bytes"), comm calls only.
    pub const COMM_INFO: &str = "comm-info";
    /// Total bytes communicated by a comm call vertex.
    pub const COMM_BYTES: &str = "comm-bytes";
    /// Exact aggregate operation time of a comm call vertex (sum of
    /// complete - post over all instances, from PMPI-style records).
    pub const COMM_TIME: &str = "comm-time";
    /// Time spent waiting (blocked) inside a comm/lock call.
    pub const WAIT_TIME: &str = "wait-time";
    /// Process (rank) a parallel-view vertex belongs to.
    pub const PROC: &str = "proc";
    /// Thread a parallel-view vertex belongs to.
    pub const THREAD: &str = "thread";
    /// Id of the corresponding top-down vertex (parallel view only).
    pub const TOPDOWN_VERTEX: &str = "topdown-vertex";
    /// Per-process communicated-bytes vector (comm vertices, top-down).
    pub const BYTES_PER_PROC: &str = "bytes-per-proc";
    /// Per-process wait-time vector (comm vertices, top-down).
    pub const WAIT_PER_PROC: &str = "wait-per-proc";
    /// Imbalance score attached by the imbalance-analysis pass.
    pub const IMBALANCE: &str = "imbalance";
    /// Per-metric difference attached by the differential-analysis pass.
    pub const DIFF_TIME: &str = "diff-time";
    /// Profiling samples lost at this vertex (degraded collection).
    pub const DROPPED_SAMPLES: &str = "dropped-samples";
    /// Observation spans lost because the recorder's span cap was hit
    /// (set on the root of a self-analysis PAG built from a truncated
    /// `obs` trace).
    pub const DROPPED_SPANS: &str = "dropped-spans";
    /// Fraction of fired samples actually recorded, in `[0, 1]`. Absent
    /// means 1.0 (complete data) — analyses treat it as a confidence
    /// weight.
    pub const COMPLETENESS: &str = "completeness";
    /// Per-process completeness vector (root vertex of a degraded run).
    pub const COMPLETENESS_PER_PROC: &str = "completeness-per-proc";
    /// Human-readable terminal rank status ("completed", "crashed@…µs",
    /// "hung@…µs") on flow vertices of degraded ranks and, summarized,
    /// on the top-down root.
    pub const RANK_STATUS: &str = "rank-status";
}

/// A single property value.
#[derive(Debug, Clone, PartialEq)]
pub enum PropValue {
    /// Integer counter.
    Int(i64),
    /// Floating-point measurement (seconds, ratios, …).
    Float(f64),
    /// Shared string (names, debug info).
    Str(Arc<str>),
    /// Dense per-process / per-sample vector.
    VecF64(Arc<[f64]>),
}

impl PropValue {
    /// Interpret the value as `f64` if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            PropValue::Int(i) => Some(*i as f64),
            PropValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Interpret the value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            PropValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<i64> for PropValue {
    fn from(v: i64) -> Self {
        PropValue::Int(v)
    }
}
impl From<f64> for PropValue {
    fn from(v: f64) -> Self {
        PropValue::Float(v)
    }
}
impl From<&str> for PropValue {
    fn from(v: &str) -> Self {
        PropValue::Str(Arc::from(v))
    }
}
impl From<Arc<str>> for PropValue {
    fn from(v: Arc<str>) -> Self {
        PropValue::Str(v)
    }
}
impl From<Vec<f64>> for PropValue {
    fn from(v: Vec<f64>) -> Self {
        PropValue::VecF64(Arc::from(v.into_boxed_slice()))
    }
}

impl std::fmt::Display for PropValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PropValue::Int(i) => write!(f, "{i}"),
            PropValue::Float(x) => write!(f, "{x:.6}"),
            PropValue::Str(s) => write!(f, "{s}"),
            PropValue::VecF64(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x:.4}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// A small sorted key→value association list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PropMap {
    entries: Vec<(Arc<str>, PropValue)>,
}

impl PropMap {
    /// Empty property map (does not allocate).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no properties are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert or replace a property.
    pub fn set(&mut self, key: &str, value: impl Into<PropValue>) {
        let value = value.into();
        match self.entries.binary_search_by(|(k, _)| k.as_ref().cmp(key)) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (Arc::from(key), value)),
        }
    }

    /// Look up a property.
    pub fn get(&self, key: &str) -> Option<&PropValue> {
        self.entries
            .binary_search_by(|(k, _)| k.as_ref().cmp(key))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Remove a property, returning it if present.
    pub fn remove(&mut self, key: &str) -> Option<PropValue> {
        self.entries
            .binary_search_by(|(k, _)| k.as_ref().cmp(key))
            .ok()
            .map(|i| self.entries.remove(i).1)
    }

    /// Iterate over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PropValue)> {
        self.entries.iter().map(|(k, v)| (k.as_ref(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_replace() {
        let mut p = PropMap::new();
        assert!(p.is_empty());
        p.set(keys::TIME, 1.5);
        p.set(keys::NAME, "foo");
        p.set(keys::COUNT, 3i64);
        assert_eq!(p.len(), 3);
        assert_eq!(p.get(keys::TIME), Some(&PropValue::Float(1.5)));
        assert_eq!(p.get(keys::NAME).unwrap().as_str(), Some("foo"));
        assert_eq!(p.get(keys::COUNT).unwrap().as_f64(), Some(3.0));
        p.set(keys::TIME, 2.0);
        assert_eq!(p.len(), 3);
        assert_eq!(p.get(keys::TIME), Some(&PropValue::Float(2.0)));
    }

    #[test]
    fn remove_and_missing() {
        let mut p = PropMap::new();
        p.set("x", 1.0);
        assert!(p.remove("x").is_some());
        assert!(p.remove("x").is_none());
        assert!(p.get("x").is_none());
        assert!(p.get("nope").is_none());
    }

    #[test]
    fn vector_values_roundtrip() {
        let mut p = PropMap::new();
        p.set(keys::TIME_PER_PROC, vec![1.0, 2.0, 3.0]);
        assert_eq!(
            p.get(keys::TIME_PER_PROC),
            Some(&PropValue::from(vec![1.0, 2.0, 3.0]))
        );
    }

    #[test]
    fn keys_stay_sorted() {
        let mut p = PropMap::new();
        for k in ["zebra", "alpha", "mid", "beta"] {
            p.set(k, 1.0);
        }
        let order: Vec<&str> = p.iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec!["alpha", "beta", "mid", "zebra"]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(PropValue::Int(5).to_string(), "5");
        assert_eq!(PropValue::from("hi").to_string(), "hi");
        assert!(PropValue::Float(0.5).to_string().starts_with("0.5"));
        assert_eq!(
            PropValue::from(vec![1.0, 2.0]).to_string(),
            "[1.0000, 2.0000]"
        );
    }
}
