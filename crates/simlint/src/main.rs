//! `simlint` binary: lint the workspace, print diagnostics, write the
//! machine-readable report, and exit non-zero on any violation.
//!
//! ```text
//! cargo run -p simlint --release [-- --root <dir>] [--report <path>]
//! ```
//!
//! `--root` defaults to the current directory (verify.sh runs from the
//! repository root); `--report` defaults to `<root>/results/simlint_report.json`.
//! Every run is one cold pass over the whole tree. A flag without its
//! value, or any other argument, prints usage and exits 2.

use simcore::json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: simlint [--root <dir>] [--report <path>]";

/// What the command line asks for.
#[derive(Debug, PartialEq, Eq)]
enum Command {
    /// Lint `root` and write the report to `report`; `None` means the
    /// default.
    Lint {
        root: Option<PathBuf>,
        report: Option<PathBuf>,
    },
    /// Print usage and exit 0.
    Help,
}

/// Parse the arguments after the program name. A flag's value is the next
/// argument unless that is missing or itself starts with `-`; `Err` holds
/// the message printed above the usage line.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut root = None;
    let mut report = None;
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--root" => &mut root,
            "--report" => &mut report,
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown argument `{other}`")),
        };
        match args.next_if(|v| !v.starts_with('-')) {
            Some(value) => *slot = Some(PathBuf::from(value)),
            None => return Err(format!("`{arg}` needs a value")),
        }
    }
    Ok(Command::Lint { root, report })
}

fn main() -> ExitCode {
    let (root, report_path) = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Lint { root, report }) => (root, report),
        Ok(Command::Help) => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("simlint: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match root {
        Some(r) => r,
        None => match std::env::current_dir() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("simlint: cannot determine working directory: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let report_path = report_path.unwrap_or_else(|| root.join("results/simlint_report.json"));

    let started = Instant::now();
    let report = match simlint::run(&root, &simlint::Options::workspace()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed();

    print!("{}", report.render());
    eprintln!("simlint: {:.1} ms", elapsed.as_secs_f64() * 1e3);

    if let Some(parent) = report_path.parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("simlint: cannot create {}: {e}", parent.display());
            return ExitCode::from(2);
        }
    }
    let mut payload = json::to_string(&report.to_json());
    payload.push('\n');
    if let Err(e) = std::fs::write(&report_path, payload) {
        eprintln!("simlint: cannot write {}: {e}", report_path.display());
        return ExitCode::from(2);
    }

    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    fn lint(root: Option<&str>, report: Option<&str>) -> Result<Command, String> {
        Ok(Command::Lint {
            root: root.map(PathBuf::from),
            report: report.map(PathBuf::from),
        })
    }

    #[test]
    fn flags_are_optional_and_take_their_values_in_any_order() {
        assert_eq!(parse(&[]), lint(None, None));
        assert_eq!(parse(&["--root", "tree"]), lint(Some("tree"), None));
        assert_eq!(
            parse(&["--report", "out.json", "--root", "tree"]),
            lint(Some("tree"), Some("out.json"))
        );
    }

    #[test]
    fn flag_without_value_is_a_usage_error() {
        for args in [
            &["--root"][..],
            &["--report"],
            &["--root", "--report", "out.json"],
            &["--report", "-h"],
            &["--root", "tree", "--report"],
        ] {
            let err = parse(args).expect_err(&format!("{args:?} must not parse"));
            assert!(err.ends_with("needs a value"), "{args:?}: {err}");
        }
    }

    #[test]
    fn unknown_and_removed_arguments_are_usage_errors() {
        for args in [&["tree"][..], &["--verbose"], &["--cache", "c.json"]] {
            let err = parse(args).expect_err(&format!("{args:?} must not parse"));
            assert!(err.starts_with("unknown argument"), "{args:?}: {err}");
        }
    }

    #[test]
    fn help_wins_over_later_arguments() {
        assert_eq!(parse(&["-h"]), Ok(Command::Help));
        assert_eq!(parse(&["--help", "--bogus"]), Ok(Command::Help));
    }
}
