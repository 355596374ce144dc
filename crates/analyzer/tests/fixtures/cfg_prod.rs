// Fixture: attributes that mention `test` but keep the item in
// production builds, so every lint still applies to it. Only the last
// item, under `cfg(all(test, …))`, is test code.
#[cfg_attr(test, inline)]
pub fn prod(o: Option<u32>) -> u32 {
    o.unwrap()
}

#[cfg(not(test))]
pub fn clocked(o: Option<u32>) -> u32 {
    let _t = std::time::Instant::now();
    let _m: std::collections::HashMap<u32, u32> = Default::default();
    o.unwrap()
}

#[cfg(all(test, feature = "slow"))]
pub fn test_only(o: Option<u32>) -> u32 {
    let _t = std::time::Instant::now();
    o.unwrap()
}
