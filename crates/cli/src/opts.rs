//! Flag parsing shared by every subcommand.
//!
//! Deliberately tiny (the container has no clap): positional-free
//! subcommands, `--flag` booleans and `--flag VALUE` options, with
//! unknown flags rejected so typos fail loudly instead of silently
//! running a paper-scale sweep with defaults.

use std::path::PathBuf;

use crate::CliError;

// The `--format` selector now lives with the job spec (the daemon
// accepts the same values over the wire); the CLI re-exports it so the
// subcommands keep their `opts::Format` spelling.
pub use tta_serve::spec::Format;

fn parse_format(s: &str) -> Result<Format, CliError> {
    Format::parse(s).map_err(|e| CliError::usage(format!("--format: {e}")))
}

/// Options every sweep-running subcommand understands.
#[derive(Debug, Default)]
pub struct CommonOpts {
    /// `--fast`: the reduced 8-bit space instead of the paper's 16-bit
    /// one, unless a command's `--space` names another; workload sizing
    /// follows the space (`tta_serve::exec::resolve_scale`).
    pub fast: bool,
    /// `--format`: output rendering.
    pub format: Format,
    /// `--cache-dir`: persistent sweep cache location.
    pub cache_dir: Option<PathBuf>,
}

/// A cursor over raw CLI arguments with flag/value helpers.
pub struct ArgCursor<'a> {
    args: std::slice::Iter<'a, String>,
}

impl Iterator for ArgCursor<'_> {
    type Item = String;

    /// Next raw argument, if any.
    fn next(&mut self) -> Option<String> {
        self.args.next().cloned()
    }
}

impl<'a> ArgCursor<'a> {
    /// Wraps the argument list (subcommand name already consumed).
    pub fn new(args: &'a [String]) -> Self {
        ArgCursor { args: args.iter() }
    }

    /// The value following `flag`, or a usage error naming it.
    pub fn value_for(&mut self, flag: &str) -> Result<String, CliError> {
        self.next()
            .ok_or_else(|| CliError::usage(format!("{flag} needs a value")))
    }

    /// The value following `flag`, parsed.
    pub fn parse_for<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        let raw = self.value_for(flag)?;
        raw.parse()
            .map_err(|_| CliError::usage(format!("{flag} got {raw:?}, which does not parse")))
    }
}

impl CommonOpts {
    /// Tries to consume `arg` as one of the common flags, pulling values
    /// off `cursor` as needed. Returns `false` when the flag is not a
    /// common one (the caller then matches its own flags).
    pub fn consume(&mut self, arg: &str, cursor: &mut ArgCursor) -> Result<bool, CliError> {
        match arg {
            "--fast" => self.fast = true,
            "--paper" => self.fast = false,
            "--format" => self.format = parse_format(&cursor.value_for("--format")?)?,
            "--cache-dir" => self.cache_dir = Some(PathBuf::from(cursor.value_for("--cache-dir")?)),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// A usage error for a flag the subcommand does not know.
pub fn unknown_flag(cmd: &str, arg: &str) -> CliError {
    CliError::usage(format!(
        "unknown flag {arg:?} for `ttadse {cmd}` (see `ttadse help`)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_common_flags() {
        let args = strs(&["--fast", "--format", "json", "--cache-dir", "/tmp/c"]);
        let mut cursor = ArgCursor::new(&args);
        let mut opts = CommonOpts::default();
        while let Some(arg) = cursor.next() {
            assert!(opts.consume(&arg, &mut cursor).unwrap(), "{arg}");
        }
        assert!(opts.fast);
        assert_eq!(opts.format, Format::Json);
        assert_eq!(
            opts.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/c"))
        );
    }

    #[test]
    fn flags_it_does_not_know_are_left_to_the_subcommand() {
        // `--eval` named an evaluation engine; there is one engine now,
        // so it is an unknown flag like any other.
        let args = strs(&["--eval", "scratch"]);
        let mut cursor = ArgCursor::new(&args);
        let mut opts = CommonOpts::default();
        let arg = cursor.next().unwrap();
        assert!(!opts.consume(&arg, &mut cursor).unwrap());
        let e = unknown_flag("explore", &arg);
        assert_eq!(e.exit_code, 2);
        assert!(e.message.contains("--eval"), "{}", e.message);
    }

    #[test]
    fn rejects_bad_format() {
        let e = parse_format("yaml").unwrap_err();
        assert_eq!(e.exit_code, 2);
        assert!(e.message.contains("--format"));
    }
}
