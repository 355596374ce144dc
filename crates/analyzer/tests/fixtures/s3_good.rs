// Fixture: S3 good — the same division, but both keys pass through a
// finiteness guard before reaching the comparator.
pub fn rank(a: f64, b: f64) -> std::cmp::Ordering {
    let ka = a / b;
    let kb = b / a;
    if ka.is_finite() && kb.is_finite() {
        return ka.total_cmp(&kb);
    }
    std::cmp::Ordering::Equal
}

// total_cmp is total; partial_cmp in a comment or string is not code.
fn sort_desc(v: &mut Vec<f64>) {
    // partial_cmp(a).unwrap() would be wrong here; total_cmp is total.
    v.sort_by(|a, b| b.total_cmp(a));
}

fn doc() -> &'static str {
    "never call partial_cmp(x).unwrap() on floats"
}
