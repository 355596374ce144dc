// Fixture: S3 bad — an unguarded division feeds a total-order sort
// key; a NaN from 0/0 would sort after every finite value silently.
pub fn rank(a: f64, b: f64) -> std::cmp::Ordering {
    let ka = a / b;
    let kb = b / a;
    ka.total_cmp(&kb)
}

// `partial_cmp` is flagged whatever its operands: it is not total.
fn sort_desc(v: &mut Vec<f64>) {
    v.sort_by(|a, b| b.partial_cmp(a).unwrap());
}
