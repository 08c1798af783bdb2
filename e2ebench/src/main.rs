//! `rhik-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a table of every metric, a report line (`{"report": …}`) and,
//! last, the result line `{"correct", "attempted", "failed", "metrics"}`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(rhik_e2ebench::run(&args));
}
