//! Baseline routing comparison (ours, beyond the paper): every routing
//! backend with the overlay off, beside the mechanism, on the identical
//! reduced-scale workload — the delivery-vs-traffic trade-off landscape
//! the thesis surveys in §1.1.
//!
//! Epidemic is the MDR ceiling and traffic worst case; Direct Delivery is
//! the traffic floor; ChitChat and the mechanism sit in between.

use dtn_bench::{figures, Cli};

fn main() {
    let cli = Cli::parse();
    figures::baselines::run(&cli);
    cli.enforce_expect_warm();
}
