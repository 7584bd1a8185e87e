//! Export of the learned TAN structure — the paper's Fig. 3 is exactly
//! this picture: the class node pointing at every attribute, the Chow–Liu
//! tree edges between attributes, and each node annotated with its impact
//! strength `L` for a given input.

use crate::{Classifier, TanClassifier};
use std::fmt::Write as _;

impl TanClassifier {
    /// Renders the attribute dependency tree as Graphviz DOT. `names`
    /// labels the attributes (pass
    /// `prepare_metrics::AttributeKind::ALL.map(|a| a.name().to_string())`
    /// for per-VM models); indices are used where no name is provided.
    /// When `probe` is given, each node is annotated with its strength
    /// `L_i` for that input, and the most-blamed attribute is highlighted
    /// — reproducing Fig. 3's "most relevant attribute" marking.
    pub fn to_dot(&self, names: &[String], probe: Option<&[usize]>) -> String {
        let label =
            |i: usize| -> String { names.get(i).cloned().unwrap_or_else(|| format!("a{i}")) };
        let strengths = probe.map(|x| self.attribute_strengths(x));
        // A probe over zero attributes simply highlights nothing.
        let top = strengths.as_ref().and_then(|s| {
            s.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
        });

        let mut out = String::from("digraph tan {\n  rankdir=TB;\n");
        out.push_str("  class [label=\"SLO state (C)\", shape=doublecircle];\n");
        for i in 0..self.parents().len() {
            let mut node_label = label(i);
            if let Some(l) = strengths.as_ref().and_then(|s| s.get(i)) {
                let _ = write!(node_label, "\\nL={l:.2}");
            }
            let highlight = if top == Some(i) {
                ", style=filled, fillcolor=lightcoral"
            } else {
                ""
            };
            let _ = writeln!(out, "  a{i} [label=\"{node_label}\"{highlight}];");
            let _ = writeln!(out, "  class -> a{i} [style=dashed];");
        }
        for (i, parent) in self.parents().iter().enumerate() {
            if let Some(p) = parent {
                let _ = writeln!(out, "  a{p} -> a{i};");
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{Classifier, Dataset, TanClassifier};
    use prepare_metrics::Label;

    fn classifier() -> TanClassifier {
        let mut ds = Dataset::with_uniform_bins(3, 2);
        for k in 0..100usize {
            if k % 2 == 0 {
                ds.push(vec![1, 1, k % 2], Label::Abnormal).unwrap();
            } else {
                ds.push(vec![0, 0, k % 2], Label::Normal).unwrap();
            }
        }
        TanClassifier::train(&ds).unwrap()
    }

    #[test]
    fn dot_contains_every_node_and_tree_edge() {
        let tan = classifier();
        let names = vec!["FreeMem".into(), "PageFaults".into(), "Noise".into()];
        let dot = tan.to_dot(&names, None);
        assert!(dot.starts_with("digraph tan {"));
        assert!(dot.contains("FreeMem"));
        assert!(dot.contains("PageFaults"));
        assert!(dot.contains("class -> a0"));
        // Exactly n-1 tree edges for n attributes.
        let tree_edges = dot
            .lines()
            .filter(|l| l.contains("-> a") && !l.contains("class"))
            .count();
        assert_eq!(tree_edges, 2);
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn probe_annotates_strengths_and_highlights_top() {
        let tan = classifier();
        let dot = tan.to_dot(&[], Some(&[1, 1, 0]));
        assert!(dot.contains("L="), "strength annotations missing");
        assert_eq!(
            dot.matches("lightcoral").count(),
            1,
            "exactly one highlighted node"
        );
    }

    #[test]
    fn missing_names_fall_back_to_indices() {
        let tan = classifier();
        let dot = tan.to_dot(&["OnlyFirst".into()], None);
        assert!(dot.contains("OnlyFirst"));
        assert!(dot.contains("a1 [label=\"a1"));
    }
}
