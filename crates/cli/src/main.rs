//! `gee` — command-line front end for the Edge-Parallel GEE reproduction.
//!
//! ```text
//! gee generate --kind rmat --scale 16 --edges 1000000 --out graph.txt
//! gee stats graph.txt
//! gee embed --graph graph.txt --k 50 --labeled 0.1 --out embedding.csv
//! gee convert graph.txt graph.mtx
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match gee_cli::run(&args) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
