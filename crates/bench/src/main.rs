//! `bgpbench <subcommand> [flags]` — see [`bgpbench_bench::SUBCOMMANDS`].

fn main() {
    bgpbench_bench::subcommands::run_from_env();
}
