//! Fixture benchmark source: read only for the fns it references. No
//! rule scans it, so its wall clock is no finding.

fn main() {
    let started = std::time::Instant::now();
    let _ = x::probe(&Default::default(), 7);
    let _ = started.elapsed();
}
