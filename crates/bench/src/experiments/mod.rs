//! The fourteen experiments behind the `paper` binary. Each is one
//! function from the parsed flags to a [`Report`]; the name on the
//! command line is the module's name with dashes.

use crate::{Args, Report};

/// An experiment's command-line name and entry point.
pub type Experiment = (&'static str, fn(&Args) -> Report);

// One list declares the modules, the registry and (for the tests) the
// source text whose documented commands must parse.
macro_rules! experiments {
    ($($name:literal => $module:ident),* $(,)?) => {
        $(pub mod $module;)*

        /// Every experiment, paper artifacts first.
        pub const ALL: &[Experiment] = &[$(($name, $module::run)),*];

        #[cfg(test)]
        const SOURCES: &[(&str, &str)] =
            &[$(($name, include_str!(concat!(stringify!($module), ".rs")))),*];
    };
}

experiments! {
    "table1" => table1,
    "fig2" => fig2,
    "fig3" => fig3,
    "fig4" => fig4,
    "sweep-k" => sweep_k,
    "sweep-labels" => sweep_labels,
    "ablation-atomics" => ablation_atomics,
    "ablation-batch" => ablation_batch,
    "ablation-compression" => ablation_compression,
    "ablation-determinism" => ablation_determinism,
    "ablation-dynamic" => ablation_dynamic,
    "ablation-init" => ablation_init,
    "ablation-kernels" => ablation_kernels,
    "ablation-reorder" => ablation_reorder,
}

/// Look an experiment up by its command-line name.
pub fn find(name: &str) -> Option<Experiment> {
    ALL.iter().copied().find(|e| e.0 == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The arguments of every `//! cargo run … --bin paper -- ARGS` line.
    fn documented_commands(source: &str) -> Vec<Vec<String>> {
        source
            .lines()
            .filter_map(|line| line.strip_prefix("//! cargo run ")?.split_once(" -- "))
            .map(|(cargo, args)| {
                assert!(cargo.ends_with("-p gee-bench --bin paper"), "{cargo}");
                args.split_whitespace().map(str::to_string).collect()
            })
            .collect()
    }

    #[test]
    fn every_documented_command_parses_and_names_its_own_file() {
        assert_eq!(ALL.len(), 14);
        for (name, source) in SOURCES {
            let commands = documented_commands(source);
            assert!(!commands.is_empty(), "{name}: no documented command");
            for argv in commands {
                let args = Args::try_parse(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
                let named: Vec<_> = args.experiments.iter().map(|e| e.0).collect();
                assert_eq!(named, [*name], "{argv:?}");
            }
        }
        let lib = include_str!("../lib.rs");
        let commands = documented_commands(lib);
        assert!(commands.len() >= 2, "lib.rs documents the binary");
        for argv in commands {
            Args::try_parse(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
        }
        for (name, _) in ALL {
            assert!(
                lib.contains(&format!("| `{name}`")),
                "lib.rs table lacks {name}"
            );
        }
    }
}
