//! The `dimboost` binary: thin wrapper over [`dimboost_cli`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match dimboost_cli::parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", dimboost_cli::usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = dimboost_cli::run(command) {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code);
    }
}
