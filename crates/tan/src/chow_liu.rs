//! Chow–Liu structure learning: a maximum spanning tree over the
//! attributes, weighted by class-conditional mutual information. The tree
//! is then rooted (at attribute 0) to yield the one-parent-per-attribute
//! structure TAN requires.

use crate::{conditional_mutual_information, Dataset};

/// Learns the TAN attribute tree: returns `parent[i]`, the attribute index
/// attribute `i` additionally depends on, or `None` for the root.
///
/// Implementation: Prim's algorithm over the complete attribute graph with
/// CMI edge weights, then orienting edges away from attribute 0. A dataset
/// with a single attribute yields `[None]` (plain Naive Bayes).
pub fn chow_liu_tree(ds: &Dataset) -> Vec<Option<usize>> {
    let n = ds.n_attributes();
    if n == 1 {
        return vec![None];
    }

    // Pairwise CMI (symmetric): the upper triangle is computed once and
    // read through an accessor, so no mirrored matrix writes are needed.
    let upper: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            ((i + 1)..n)
                .map(|j| conditional_mutual_information(ds, i, j))
                .collect()
        })
        .collect();
    max_spanning_tree(n, &upper)
}

/// Prim's maximum spanning tree over `n` nodes with upper-triangle edge
/// weights (`upper[i][j - i - 1]` = weight of edge `(i, j)` for `i < j`),
/// rooted at node 0.
fn max_spanning_tree(n: usize, upper: &[Vec<f64>]) -> Vec<Option<usize>> {
    let weight = |i: usize, j: usize| -> f64 {
        if i == j {
            return f64::NEG_INFINITY;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        upper
            .get(a)
            .and_then(|row| row.get(b - a - 1))
            .copied()
            .unwrap_or(f64::NEG_INFINITY)
    };

    // Prim's maximum spanning tree from node 0.
    let mut in_tree = vec![false; n];
    // best_edge[j]: heaviest known edge from j into the tree, as
    // (weight, tree endpoint).
    let mut best_edge: Vec<(f64, usize)> = (0..n).map(|j| (weight(0, j), 0)).collect();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    in_tree[0] = true;
    for _ in 1..n {
        // Pick the heaviest edge into the tree (first of equals, so the
        // tie-break matches the ascending scan it replaced).
        let mut pick: Option<(usize, f64, usize)> = None;
        for (j, (&in_t, &(w, from))) in in_tree.iter().zip(&best_edge).enumerate() {
            if !in_t && pick.is_none_or(|(_, pw, _)| w > pw) {
                pick = Some((j, w, from));
            }
        }
        let Some((j, _, from)) = pick else { break };
        if let Some(t) = in_tree.get_mut(j) {
            *t = true;
        }
        if let Some(p) = parent.get_mut(j) {
            *p = Some(from);
        }
        for (&in_t, (k, be)) in in_tree.iter().zip(best_edge.iter_mut().enumerate()) {
            if !in_t {
                let w = weight(j, k);
                if w > be.0 {
                    *be = (w, j);
                }
            }
        }
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use prepare_metrics::Label;

    fn chained_dataset() -> Dataset {
        // x1 copies x0, x2 copies x1 (with occasional flips), x3 is noise:
        // the MST should be a chain 0-1-2 with 3 hanging off somewhere.
        let mut ds = Dataset::new(vec![2, 2, 2, 2]);
        for k in 0..400usize {
            let x0 = k % 2;
            let x1 = if k % 17 == 0 { 1 - x0 } else { x0 };
            let x2 = if k % 13 == 0 { 1 - x1 } else { x1 };
            let x3 = (k / 3) % 2;
            let label = if k % 5 == 0 {
                Label::Abnormal
            } else {
                Label::Normal
            };
            ds.push(vec![x0, x1, x2, x3], label).unwrap();
        }
        ds
    }

    fn is_valid_tree(parent: &[Option<usize>]) -> bool {
        let n = parent.len();
        let roots = parent.iter().filter(|p| p.is_none()).count();
        if roots != 1 {
            return false;
        }
        // Every node must reach the root without cycling.
        for start in 0..n {
            let mut seen = vec![false; n];
            let mut cur = start;
            while let Some(p) = parent[cur] {
                if seen[cur] {
                    return false; // cycle
                }
                seen[cur] = true;
                cur = p;
            }
        }
        true
    }

    #[test]
    fn produces_a_valid_rooted_tree() {
        let parent = chow_liu_tree(&chained_dataset());
        assert_eq!(parent.len(), 4);
        assert!(is_valid_tree(&parent));
        assert_eq!(parent[0], None, "rooted at attribute 0");
    }

    #[test]
    fn strongly_coupled_attributes_are_adjacent() {
        let parent = chow_liu_tree(&chained_dataset());
        // x1 must attach to x0 or x2 (its strong partners), not to the
        // noise attribute x3.
        let p1 = parent[1];
        assert!(p1 == Some(0) || p1 == Some(2), "x1 parent was {p1:?}");
        // The noise attribute must not sit between the chained ones.
        assert_ne!(parent[2], Some(3));
    }

    #[test]
    fn single_attribute_has_no_parent() {
        let mut ds = Dataset::new(vec![2]);
        ds.push(vec![0], Label::Normal).unwrap();
        ds.push(vec![1], Label::Abnormal).unwrap();
        assert_eq!(chow_liu_tree(&ds), vec![None]);
    }

    #[test]
    fn two_attributes_link_together() {
        let mut ds = Dataset::new(vec![2, 2]);
        for k in 0..50usize {
            ds.push(
                vec![k % 2, k % 2],
                if k % 2 == 0 {
                    Label::Normal
                } else {
                    Label::Abnormal
                },
            )
            .unwrap();
        }
        let parent = chow_liu_tree(&ds);
        assert_eq!(parent, vec![None, Some(0)]);
    }
}
