//! Conditional mutual information between attribute pairs given the class
//! label — the edge weight of the Chow–Liu tree TAN builds its attribute
//! dependency structure from.

use crate::Dataset;
use prepare_metrics::debug_assert_finite;

/// Estimates `I(X_i ; X_j | C)` from the dataset with add-one smoothing on
/// the joint counts:
///
/// ```text
/// I = Σ_c P(c) Σ_{x_i, x_j} P(x_i, x_j | c) · log [ P(x_i, x_j | c) / (P(x_i|c) · P(x_j|c)) ]
/// ```
///
/// Returns a non-negative value (clamped at 0 to absorb smoothing noise).
///
/// # Panics
///
/// Panics if `i` or `j` is out of range or `i == j`.
// xtask-allow: missing-finite-guard -- delegates to cmi_from_joints, which guards its result
pub fn conditional_mutual_information(ds: &Dataset, i: usize, j: usize) -> f64 {
    assert!(
        i < ds.n_attributes() && j < ds.n_attributes(),
        "attribute out of range"
    );
    assert_ne!(i, j, "CMI requires distinct attributes");

    let ci = ds.cardinality(i);
    let cj = ds.cardinality(j);
    let n_total = ds.len() as f64;
    // xtask-allow: float-eq -- cast from usize; exact zero means the dataset is empty
    if n_total == 0.0 {
        return 0.0;
    }

    let mut joints = [vec![vec![0.0f64; cj]; ci], vec![vec![0.0f64; cj]; ci]];
    for (row, label) in ds.iter() {
        // xtask-allow: index-in-loop -- Dataset::push keeps every value below its cardinality
        joints[label.is_abnormal() as usize][row[i]][row[j]] += 1.0;
    }
    cmi_from_joints(&joints, n_total)
}

/// The CMI derivation: per-class joint count tables in, smoothed mutual
/// information out. Marginals and class totals are the sums of the joint
/// table (integer-valued f64, exact up to 2^53).
fn cmi_from_joints(joints: &[Vec<Vec<f64>>; 2], n_total: f64) -> f64 {
    let mut total_mi = 0.0;
    for joint in joints {
        // joints[0] is the normal class, joints[1] abnormal.
        let ci = joint.len();
        let cj = joint.first().map_or(0, Vec::len);
        let mut mi_marg = vec![0.0f64; ci];
        let mut mj_marg = vec![0.0f64; cj];
        let mut n_class = 0.0f64;
        for (row, mi_m) in joint.iter().zip(mi_marg.iter_mut()) {
            for (&c, mj_m) in row.iter().zip(mj_marg.iter_mut()) {
                *mi_m += c;
                *mj_m += c;
                n_class += c;
            }
        }
        // xtask-allow: float-eq -- n_class counts rows in whole increments; exact zero means "class absent"
        if n_class == 0.0 {
            continue;
        }
        let p_class = n_class / n_total;

        // Add-one smoothing over the joint table.
        let alpha = 1.0;
        let denom = n_class + alpha * (ci * cj) as f64;
        let mut mi = 0.0;
        for (joint_row, &mi_m) in joint.iter().zip(&mi_marg) {
            let p_i = (mi_m + alpha * cj as f64) / denom;
            for (&joint_count, &mj_m) in joint_row.iter().zip(&mj_marg) {
                let p_joint = (joint_count + alpha) / denom;
                let p_j = (mj_m + alpha * ci as f64) / denom;
                mi += p_joint * (p_joint / (p_i * p_j)).ln();
            }
        }
        total_mi += p_class * mi;
    }
    debug_assert_finite!(total_mi.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prepare_metrics::Label;

    fn build(rows: &[(Vec<usize>, Label)], cards: Vec<usize>) -> Dataset {
        let mut ds = Dataset::new(cards);
        for (r, l) in rows {
            ds.push(r.clone(), *l).unwrap();
        }
        ds
    }

    #[test]
    fn perfectly_dependent_attributes_have_high_cmi() {
        // X1 == X0 in both classes; X2 is independent noise.
        let mut rows = Vec::new();
        for k in 0..200usize {
            let x0 = k % 2;
            let x2 = (k / 2) % 2;
            let label = if k % 4 == 0 {
                Label::Abnormal
            } else {
                Label::Normal
            };
            rows.push((vec![x0, x0, x2], label));
        }
        let ds = build(&rows, vec![2, 2, 2]);
        let dep = conditional_mutual_information(&ds, 0, 1);
        let indep = conditional_mutual_information(&ds, 0, 2);
        assert!(
            dep > indep + 0.1,
            "dependent CMI {dep:.4} should exceed independent {indep:.4}"
        );
    }

    #[test]
    fn cmi_is_symmetric() {
        let mut rows = Vec::new();
        for k in 0..100usize {
            rows.push((
                vec![k % 3, (k * 7) % 3],
                if k % 2 == 0 {
                    Label::Normal
                } else {
                    Label::Abnormal
                },
            ));
        }
        let ds = build(&rows, vec![3, 3]);
        let a = conditional_mutual_information(&ds, 0, 1);
        let b = conditional_mutual_information(&ds, 1, 0);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn cmi_nonnegative_on_noise() {
        let mut rows = Vec::new();
        for k in 0..60usize {
            rows.push((
                vec![(k * 13) % 4, (k * 29) % 4],
                if k % 3 == 0 {
                    Label::Abnormal
                } else {
                    Label::Normal
                },
            ));
        }
        let ds = build(&rows, vec![4, 4]);
        assert!(conditional_mutual_information(&ds, 0, 1) >= 0.0);
    }

    #[test]
    fn empty_dataset_has_zero_cmi() {
        let ds = Dataset::new(vec![2, 2]);
        assert_eq!(conditional_mutual_information(&ds, 0, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "distinct attributes")]
    fn cmi_rejects_same_attribute() {
        let ds = Dataset::new(vec![2, 2]);
        conditional_mutual_information(&ds, 1, 1);
    }
}
