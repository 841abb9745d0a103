//! Graphviz export of decision diagrams for debugging and documentation.

use crate::node::{MEdge, NodeId, VEdge};
use crate::DdPackage;
use std::collections::HashSet;
use std::fmt::Write as _;

impl DdPackage {
    /// Renders a vector decision diagram as a Graphviz `dot` digraph.
    ///
    /// # Examples
    ///
    /// ```
    /// use dd::{DdPackage, gates};
    /// let mut p = DdPackage::new(2);
    /// let mut state = p.zero_state();
    /// state = p.apply_gate(state, &gates::h(), 0, &[]);
    /// let dot = p.vector_to_dot(state);
    /// assert!(dot.starts_with("digraph"));
    /// ```
    pub fn vector_to_dot(&self, root: VEdge) -> String {
        let mut out = String::from("digraph vdd {\n  rankdir=TB;\n  node [shape=circle];\n");
        let _ = writeln!(
            out,
            "  root [shape=point]; root -> {} [label=\"{}\"];",
            node_name(root.node),
            self.vweight(root)
        );
        let mut seen = HashSet::new();
        self.vdot_rec(root, &mut seen, &mut out);
        out.push_str("}\n");
        out
    }

    fn vdot_rec(&self, e: VEdge, seen: &mut HashSet<NodeId>, out: &mut String) {
        if e.is_zero() || e.is_terminal() || !seen.insert(e.node) {
            return;
        }
        let node = self.vnode(e.node);
        let _ = writeln!(out, "  {} [label=\"q{}\"];", node_name(e.node), node.var);
        for (i, child) in node.children.iter().enumerate() {
            if child.is_zero() {
                continue;
            }
            let _ = writeln!(
                out,
                "  {} -> {} [label=\"{}: {}\"];",
                node_name(e.node),
                node_name(child.node),
                i,
                self.vweight(*child)
            );
            self.vdot_rec(*child, seen, out);
        }
    }

    /// Renders a matrix decision diagram as a Graphviz `dot` digraph.
    pub fn matrix_to_dot(&self, root: MEdge) -> String {
        let mut out = String::from("digraph mdd {\n  rankdir=TB;\n  node [shape=square];\n");
        let _ = writeln!(
            out,
            "  root [shape=point]; root -> {} [label=\"{}\"];",
            node_name(root.node),
            self.mweight(root)
        );
        let mut seen = HashSet::new();
        self.mdot_rec(root, &mut seen, &mut out);
        out.push_str("}\n");
        out
    }

    fn mdot_rec(&self, e: MEdge, seen: &mut HashSet<NodeId>, out: &mut String) {
        if e.is_zero() || e.is_terminal() || !seen.insert(e.node) {
            return;
        }
        let node = self.mnode(e.node);
        let _ = writeln!(out, "  {} [label=\"q{}\"];", node_name(e.node), node.var);
        for (i, child) in node.children.iter().enumerate() {
            if child.is_zero() {
                continue;
            }
            let _ = writeln!(
                out,
                "  {} -> {} [label=\"{}{}: {}\"];",
                node_name(e.node),
                node_name(child.node),
                i / 2,
                i % 2,
                self.mweight(*child)
            );
            self.mdot_rec(*child, seen, out);
        }
    }
}

fn node_name(id: NodeId) -> String {
    if id.is_terminal() {
        "terminal".to_string()
    } else {
        format!("n{}", id.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    #[test]
    fn vector_dot_contains_all_levels() {
        let mut p = DdPackage::new(3);
        let state = p.zero_state();
        let dot = p.vector_to_dot(state);
        assert!(dot.contains("q0"));
        assert!(dot.contains("q1"));
        assert!(dot.contains("q2"));
        assert!(dot.contains("terminal"));
    }

    #[test]
    fn matrix_dot_is_well_formed() {
        let mut p = DdPackage::new(2);
        let cx = p.make_gate(&gates::x(), 1, &[crate::Control::pos(0)]);
        let dot = p.matrix_to_dot(cx);
        assert!(dot.starts_with("digraph mdd {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("q1"));
    }
}
