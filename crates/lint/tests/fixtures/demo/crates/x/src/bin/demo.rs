//! Fixture entry point: the root `unreachable-pub` walks from. Never
//! compiled, like the rest of the fixture tree.

use x::must;

fn main() {
    let votes = Default::default();
    let _ = x::tally(&votes);
    let _ = x::metered(&x::Meter, vec![1, 2]);
    let _: Vec<f64> = [1.0].into_iter().map(x::relabel).collect();
    let _: Vec<u64> = [Some(1)].into_iter().map(must).collect();
}
