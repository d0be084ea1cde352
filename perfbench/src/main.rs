//! `newtop-perfbench --workload W --seed N --seconds S --trace 0|1`:
//! runs one workload, prints every metric by name with its unit, and
//! ends with a one-line JSON result.

fn main() {
    newtop_perfbench::process_start();
    let args = match newtop_perfbench::parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("newtop-perfbench: {e}");
            eprintln!("usage: newtop-perfbench --workload closed_lone|open_multigroup|peer_sym --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    match newtop_perfbench::run(&args) {
        Ok(report) => print!("{}", report.render(args.trace)),
        Err(e) => {
            eprintln!("newtop-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
