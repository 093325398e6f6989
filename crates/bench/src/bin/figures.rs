//! Regenerates every table and figure of the paper's evaluation and
//! prints them as text.
//!
//! ```text
//! cargo run -p ccai-bench --bin figures             # everything
//! cargo run -p ccai-bench --bin figures -- fig8     # one artifact
//! ```

use ccai_bench::{render, tcb};

fn main() {
    let only = std::env::args().nth(1);
    print!("{}", render::all_figures(only.as_deref(), &tcb::row_lines()));
}
