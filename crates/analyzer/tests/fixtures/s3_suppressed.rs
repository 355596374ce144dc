// Fixture: S3 suppressed — the divisor is known non-zero by protocol,
// recorded with an audited marker at the sink.
pub fn rank(a: f64, b: f64) -> std::cmp::Ordering {
    let ka = a / b;
    let kb = b / a;
    // msrnet-allow: nan-taint both operands are validated non-zero at the parse boundary
    ka.total_cmp(&kb)
}

// The same key covers a `partial_cmp` call.
fn max_finite(v: &[f64]) -> f64 {
    v.iter()
        .copied()
        // msrnet-allow: nan-taint inputs are validated finite at the API boundary
        .max_by(|a, b| a.partial_cmp(b).unwrap())
        .unwrap_or(0.0)
}
