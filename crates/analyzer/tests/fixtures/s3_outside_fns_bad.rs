// Fixture: S3 outside fn bodies — `partial_cmp` calls in a
// `macro_rules!` body and in a closure of a `static` initializer,
// next to a path call in a fn body. All three are flagged; the
// `fn partial_cmp` definition below is not a call.
use std::cmp::Ordering;

macro_rules! cmp_keys {
    ($a:expr, $b:expr) => {
        $a.partial_cmp(&$b)
    };
}

static BY_KEY: fn(&f64, &f64) -> Option<Ordering> = |a, b| a.partial_cmp(b);

pub fn order(a: f64, b: f64) -> Option<Ordering> {
    f64::partial_cmp(&a, &b)
}

#[derive(PartialEq, Eq)]
pub struct Key(u32);

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.0.cmp(&other.0))
    }
}
