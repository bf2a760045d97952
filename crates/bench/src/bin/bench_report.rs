//! `bench-report [generate|check|pin|show] [name…]` — the one driver
//! over the report catalogue; see [`tas_bench::gate`] for the modes.

fn main() -> std::process::ExitCode {
    tas_bench::gate::main()
}
