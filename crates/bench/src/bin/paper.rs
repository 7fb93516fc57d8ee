//! `paper EXPERIMENT... [flags]` — see the `gee_bench` crate docs.

use gee_bench::args::USAGE;
use gee_bench::{experiments, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let args = Args::try_parse(&argv).unwrap_or_else(|reason| {
        eprintln!("paper: {reason}\n{USAGE}");
        std::process::exit(2);
    });
    if args.list {
        for (name, _) in experiments::ALL {
            println!("{name}");
        }
        return;
    }
    for (_, run) in &args.experiments {
        let report = run(&args);
        println!("{}", report.table());
        if args.json {
            let json = serde_json::to_string_pretty(&report.json());
            println!("{}", json.expect("reports always serialize"));
        }
    }
}
