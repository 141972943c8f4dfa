//! One small declarative flag parser, shared by every `regvault-cli`
//! subcommand and the bench binaries.
//!
//! A command declares a `const` table of [`Flag`]s over its argument
//! struct. [`parse`] walks the arguments against that table, and [`usage`]
//! renders the same table as the command's flag list, so the flags a
//! command documents are exactly the flags it accepts.

use std::fmt::Write as _;
use std::str::FromStr;

use crate::CliError;

/// How a flag updates its command's `T`, given the flag's value (`""` for
/// a switch).
pub type Setter<T> = fn(&mut T, &str) -> Result<(), CliError>;

/// One `--flag` of a command.
pub struct Flag<T> {
    /// The flag as typed, e.g. `--seed`.
    pub name: &'static str,
    /// The value's placeholder in the usage text; `None` for a switch,
    /// which takes no value.
    pub metavar: Option<&'static str>,
    /// One-line help text.
    pub help: &'static str,
    /// Applies the flag.
    pub set: Setter<T>,
}

impl<T> Flag<T> {
    /// A switch: a flag without a value.
    pub const fn switch(name: &'static str, help: &'static str, set: Setter<T>) -> Self {
        Self {
            name,
            metavar: None,
            help,
            set,
        }
    }

    /// A flag that takes the next argument as its value.
    pub const fn value(
        name: &'static str,
        metavar: &'static str,
        help: &'static str,
        set: Setter<T>,
    ) -> Self {
        Self {
            name,
            metavar: Some(metavar),
            help,
            set,
        }
    }

    fn synopsis(&self) -> String {
        match self.metavar {
            Some(metavar) => format!("{} {metavar}", self.name),
            None => self.name.to_owned(),
        }
    }
}

/// Parses the arguments of command `cmd` against its `table` into
/// `target`, and returns the positional arguments (those not starting with
/// `--`) in order. A flag's value is always the next argument.
///
/// # Errors
///
/// An unknown flag, a flag without its value, the flag's own error (e.g.
/// from [`num`]), or more than `max_positionals` positional arguments;
/// prefixed with `cmd` and followed by the command's flag list.
pub fn parse<T>(
    cmd: &str,
    table: &[Flag<T>],
    args: &[String],
    target: &mut T,
    max_positionals: usize,
) -> Result<Vec<String>, CliError> {
    let fail = |e: String| format!("{cmd}: {e}\n\n{cmd} flags:\n{}", usage(table));
    let mut positionals = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            if positionals.len() == max_positionals {
                return Err(fail(format!("unexpected argument `{arg}`")));
            }
            positionals.push(arg.clone());
            continue;
        }
        let flag = table
            .iter()
            .find(|flag| flag.name == arg)
            .ok_or_else(|| fail(format!("unknown flag `{arg}`")))?;
        let value = match flag.metavar {
            Some(_) => rest
                .next()
                .ok_or_else(|| fail(format!("`{arg}` needs a value")))?,
            None => "",
        };
        (flag.set)(target, value).map_err(|e| fail(format!("`{arg}`: {e}")))?;
    }
    Ok(positionals)
}

/// The flag list of a usage text: one aligned `--flag METAVAR  help` line
/// per table entry.
#[must_use]
pub fn usage<T>(table: &[Flag<T>]) -> String {
    let width = table.iter().map(|f| f.synopsis().len()).max().unwrap_or(0);
    let mut out = String::new();
    for flag in table {
        let _ = writeln!(out, "    {:<width$}  {}", flag.synopsis(), flag.help);
    }
    out
}

/// A flag value as a number.
///
/// # Errors
///
/// The one wording every command uses for a malformed number.
pub fn num<N: FromStr>(value: &str) -> Result<N, CliError> {
    value
        .parse()
        .map_err(|_| format!("invalid number `{value}`"))
}

/// Stores `value` in `slot`: the body of most [`Flag::set`] functions.
///
/// # Errors
///
/// Never; the `Result` lets `set` bodies end in one expression.
pub fn set<V>(slot: &mut V, value: V) -> Result<(), CliError> {
    *slot = value;
    Ok(())
}

/// [`parse`] over the process's own arguments, for a binary that takes
/// flags only: any error goes to stderr and exits with `code`.
pub fn parse_env<T>(program: &str, table: &[Flag<T>], target: &mut T, code: i32) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = parse(program, table, &args, target, 0) {
        eprintln!("{e}");
        std::process::exit(code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Opts {
        count: u32,
        name: Option<String>,
        verbose: bool,
    }

    const FLAGS: &[Flag<Opts>] = &[
        Flag::value("--count", "N", "how many", |o, v| {
            set(&mut o.count, num(v)?)
        }),
        Flag::value("--name", "NAME", "who", |o, v| {
            set(&mut o.name, Some(v.to_owned()))
        }),
        Flag::switch("--verbose", "say more", |o, _| set(&mut o.verbose, true)),
    ];

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_owned()).collect()
    }

    fn run(args: &[&str]) -> Result<(Opts, Vec<String>), CliError> {
        let mut opts = Opts::default();
        let positionals = parse("t", FLAGS, &argv(args), &mut opts, 2)?;
        Ok((opts, positionals))
    }

    fn error(args: &[&str]) -> String {
        let e = run(args).unwrap_err();
        let (message, flags) = e.split_once("\n\nt flags:\n").expect("flag list follows");
        assert_eq!(flags, usage(FLAGS));
        message.to_owned()
    }

    #[test]
    fn flags_and_positionals_interleave() {
        let (opts, positionals) =
            run(&["a.s", "--count", "3", "b", "--verbose", "--name", "--x"]).unwrap();
        assert_eq!(opts.count, 3);
        assert!(opts.verbose);
        // A value is the next argument even when it looks like a flag.
        assert_eq!(opts.name.as_deref(), Some("--x"));
        assert_eq!(positionals, ["a.s", "b"]);
    }

    #[test]
    fn errors_name_the_flag() {
        assert_eq!(error(&["--bogus"]), "t: unknown flag `--bogus`");
        assert_eq!(error(&["--count"]), "t: `--count` needs a value");
        assert_eq!(
            error(&["--count", "lots"]),
            "t: `--count`: invalid number `lots`"
        );
        assert_eq!(error(&["a", "b", "c"]), "t: unexpected argument `c`");
    }

    #[test]
    fn usage_lists_every_flag_aligned() {
        let text = usage(FLAGS);
        assert_eq!(
            text,
            "    --count N    how many\n    --name NAME  who\n    --verbose    say more\n"
        );
    }
}
