//! Calling-context trees: the profile structure HPCToolkit emits and
//! Hatchet manipulates.
//!
//! Our simulated applications have a two-level context (application →
//! kernels), but the tree type is general: nodes carry exclusive metric
//! values, inclusive values are computed on demand, and the Hatchet
//! "to dataframe" view (`flatten`) is provided for the analysis layer.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One node of a calling-context tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CctNode {
    /// Frame name (function / kernel / region).
    pub name: String,
    /// Exclusive wall seconds attributed to this frame.
    pub seconds: f64,
    /// Exclusive counter values keyed by canonical counter key.
    pub metrics: BTreeMap<String, f64>,
    /// Child frames.
    pub children: Vec<CctNode>,
}

impl CctNode {
    /// Leaf node with no metrics.
    pub fn new(name: impl Into<String>, seconds: f64) -> Self {
        Self {
            name: name.into(),
            seconds,
            metrics: BTreeMap::new(),
            children: Vec::new(),
        }
    }

    /// Inclusive seconds (this node plus all descendants).
    pub fn inclusive_seconds(&self) -> f64 {
        self.seconds
            + self
                .children
                .iter()
                .map(CctNode::inclusive_seconds)
                .sum::<f64>()
    }

    /// Inclusive value of one metric.
    pub fn inclusive_metric(&self, key: &str) -> f64 {
        self.metrics.get(key).copied().unwrap_or(0.0)
            + self
                .children
                .iter()
                .map(|c| c.inclusive_metric(key))
                .sum::<f64>()
    }

    /// Number of nodes in this subtree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(CctNode::size).sum::<usize>()
    }
}

/// A complete profile tree for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallingContextTree {
    /// Root frame (the application).
    pub root: CctNode,
}

impl CallingContextTree {
    /// Build a two-level tree: application root with one child per kernel.
    pub fn from_kernels(app: &str, kernels: impl IntoIterator<Item = CctNode>) -> Self {
        let mut root = CctNode::new(app, 0.0);
        root.children = kernels.into_iter().collect();
        Self { root }
    }

    /// Total inclusive seconds of the profile.
    pub fn total_seconds(&self) -> f64 {
        self.root.inclusive_seconds()
    }

    /// Flatten to `(path, &node)` pairs in depth-first order; paths join
    /// frame names with `/` (the Hatchet "to dataframe" view).
    pub fn flatten(&self) -> Vec<(String, &CctNode)> {
        let mut out = Vec::with_capacity(self.root.size());
        fn walk<'a>(node: &'a CctNode, prefix: &str, out: &mut Vec<(String, &'a CctNode)>) {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix}/{}", node.name)
            };
            out.push((path.clone(), node));
            for child in &node.children {
                walk(child, &path, out);
            }
        }
        walk(&self.root, "", &mut out);
        out
    }

    /// Sum a metric over every node (inclusive of root).
    pub fn metric_total(&self, key: &str) -> f64 {
        self.root.inclusive_metric(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CallingContextTree {
        let mut hot = CctNode::new("hot_kernel", 8.0);
        hot.metrics.insert("branch_instructions".into(), 100.0);
        let mut cold = CctNode::new("cold_kernel", 0.5);
        cold.metrics.insert("branch_instructions".into(), 5.0);
        let mut nested = CctNode::new("inner", 1.5);
        nested.metrics.insert("branch_instructions".into(), 10.0);
        hot.children.push(nested);
        CallingContextTree::from_kernels("app", [hot, cold])
    }

    #[test]
    fn inclusive_aggregation() {
        let t = sample();
        assert!((t.total_seconds() - 10.0).abs() < 1e-12);
        assert!((t.metric_total("branch_instructions") - 115.0).abs() < 1e-12);
        assert_eq!(t.metric_total("nonexistent"), 0.0);
    }

    #[test]
    fn flatten_paths() {
        let t = sample();
        let flat = t.flatten();
        let paths: Vec<&str> = flat.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "app",
                "app/hot_kernel",
                "app/hot_kernel/inner",
                "app/cold_kernel"
            ]
        );
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(sample().root.size(), 4);
        assert_eq!(CctNode::new("leaf", 1.0).size(), 1);
    }

    #[test]
    fn serde_round_trip() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        let back: CallingContextTree = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
