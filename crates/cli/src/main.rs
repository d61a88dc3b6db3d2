//! The `pda` command-line tool. See [`pda_cli`] for the commands.

use pda_cli::{parse_args, run_on_source, usage_text, Command};
use std::process::ExitCode;

fn main() -> ExitCode {
    let cmd = match parse_args(std::env::args().skip(1)) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage_text());
            return ExitCode::from(e.exit_code());
        }
    };
    let source = match &cmd {
        Command::Check { file }
        | Command::Queries { file }
        | Command::Solve { file, .. }
        | Command::Serve { file, .. } => match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        },
        Command::Gen { .. } | Command::Request { .. } | Command::Help => String::new(),
    };
    match run_on_source(&cmd, &source) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
