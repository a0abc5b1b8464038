//! Graphviz DOT export for DAG tasks — annotated with WCETs, data volumes,
//! communication costs, and optionally a schedule plan's priorities and
//! way allocations, mirroring the paper's Fig. 6 visual.

use std::fmt::Write as _;

use crate::model::Dag;

/// Optional per-node annotations (priority, allocated ways).
#[derive(Debug, Clone, Default)]
pub struct DotAnnotations {
    /// Priority per node (larger = higher), if available.
    pub priorities: Option<Vec<u32>>,
    /// Local L1.5 ways per node, if available.
    pub ways: Option<Vec<usize>>,
}

/// Renders `dag` as a DOT digraph.
///
/// Node labels show `v{i}`, WCET and data volume; edge labels show the
/// communication cost `μ` and ratio `α`. Annotated nodes additionally show
/// `P=` and `ways=`, and nodes holding ways are filled — the Fig. 6 look.
pub fn to_dot(dag: &Dag, name: &str, ann: &DotAnnotations) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{name}\" {{");
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=ellipse, fontsize=10];");
    for v in dag.node_ids() {
        let n = dag.node(v);
        let mut label = format!("v{}\\nC={:.1}", v.0, n.wcet);
        if n.data_bytes > 0 {
            let _ = write!(label, "\\nδ={}B", n.data_bytes);
        }
        let mut attrs = String::new();
        if let Some(p) = &ann.priorities {
            let _ = write!(label, "\\nP={}", p[v.0]);
        }
        if let Some(w) = &ann.ways {
            if w[v.0] > 0 {
                let _ = write!(label, "\\nways={}", w[v.0]);
                attrs.push_str(", style=filled, fillcolor=lightblue");
            }
        }
        if v == dag.source() || v == dag.sink() {
            attrs.push_str(", shape=doublecircle");
        }
        let _ = writeln!(out, "  n{} [label=\"{label}\"{attrs}];", v.0);
    }
    for e in dag.edge_ids() {
        let edge = dag.edge(e);
        let _ = writeln!(
            out,
            "  n{} -> n{} [label=\"μ={:.1} α={:.2}\", fontsize=9];",
            edge.from.0, edge.to.0, edge.cost, edge.alpha
        );
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DagBuilder, Node};

    fn tiny() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_node(Node::new(2.0, 4096));
        let c = b.add_node(Node::new(1.0, 0));
        b.add_edge(a, c, 1.5, 0.6).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn unannotated_dot_contains_all_elements() {
        let d = tiny();
        let dot = to_dot(&d, "tiny", &DotAnnotations::default());
        assert!(dot.starts_with("digraph \"tiny\""));
        assert!(dot.contains("n0 ["));
        assert!(dot.contains("n1 ["));
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("C=2.0"));
        assert!(dot.contains("δ=4096B"));
        assert!(dot.contains("μ=1.5"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn annotations_show_priorities_and_ways() {
        let d = tiny();
        let ann = DotAnnotations { priorities: Some(vec![2, 1]), ways: Some(vec![2, 0]) };
        let dot = to_dot(&d, "annotated", &ann);
        assert!(dot.contains("P=2"));
        assert!(dot.contains("ways=2"));
        assert!(dot.contains("fillcolor=lightblue"));
        // The sink holds no ways and must not be filled.
        let sink_line = dot.lines().find(|l| l.contains("n1 [")).unwrap();
        assert!(!sink_line.contains("filled"));
    }

    #[test]
    fn source_and_sink_are_marked() {
        let d = tiny();
        let dot = to_dot(&d, "t", &DotAnnotations::default());
        let marks = dot.matches("doublecircle").count();
        assert_eq!(marks, 2);
    }
}
