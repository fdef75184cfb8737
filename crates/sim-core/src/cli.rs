//! What every command-line binary of the workspace does alike: it reads
//! its command line through [`Args`], and refuses a malformed one with
//! [`usage_error`] (`BIN: MSG`, the usage text, exit 2); it writes its
//! stdout report through [`report`], which ends quietly when its reader
//! closes; and a file it cannot write is a plain usage-style error.

use std::collections::VecDeque;
use std::fmt::Debug;
use std::io::{self, Write};
use std::ops::RangeInclusive;
use std::path::Path;
use std::str::FromStr;

/// Most host threads a command line may ask for (`--jobs`): a command
/// runs up to this many worker threads at once.
pub const MAX_JOBS: usize = 256;

/// Why a binary refuses its command line.
#[derive(Debug, PartialEq, Eq)]
pub enum Usage {
    /// `-h` or `--help`: the usage text alone.
    Help,
    /// What is wrong with the command line.
    Error(String),
}

impl Usage {
    /// Refuse `arg`, which names no option of the binary: help for `-h`
    /// and `--help`, `unknown option ARG` for anything else.
    pub fn unknown(arg: &str) -> Usage {
        match arg {
            "-h" | "--help" => Usage::Help,
            _ => Usage::Error(format!("unknown option {arg}")),
        }
    }
}

/// Print `BIN: MSG` (nothing for help) and the usage text, and exit 2.
pub fn usage_error(bin: &str, usage: &str, e: &Usage) -> ! {
    if let Usage::Error(msg) = e {
        eprintln!("{bin}: {msg}");
    }
    eprintln!("{usage}");
    std::process::exit(2);
}

/// A command line's arguments, without the program name, read one at a
/// time. A flag's value is read with the method for its type, which
/// names the flag in the [`Usage`] error it returns.
pub struct Args(VecDeque<String>);

impl Args {
    /// This process's arguments. One that is not UTF-8 is read with
    /// U+FFFD in place of its bad bytes.
    #[allow(clippy::disallowed_methods)] // the one place a binary reads its command line
    pub fn from_env() -> Args {
        Args::new(
            std::env::args_os()
                .skip(1)
                .map(|a| a.to_string_lossy().into_owned()),
        )
    }

    /// The arguments `args`, as a test gives them.
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Args {
        Args(args.into_iter().map(Into::into).collect())
    }

    /// The next argument, left unread: how a binary finds its subcommand.
    pub fn peek(&self) -> Option<&str> {
        self.0.front().map(String::as_str)
    }

    /// `flag`'s value: the next argument, unless there is none or it is
    /// itself an option (`--…`). `FLAG takes a value` otherwise.
    pub fn value(&mut self, flag: &str) -> Result<String, Usage> {
        self.0
            .pop_front_if(|v| !v.starts_with("--"))
            .ok_or_else(|| Usage::Error(format!("{flag} takes a value")))
    }

    /// `flag`'s value read by `from_name`, its type's one parser.
    /// `FLAG does not take "V"` when it reads nothing.
    pub fn read<T>(
        &mut self,
        flag: &str,
        from_name: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, Usage> {
        let v = self.value(flag)?;
        from_name(&v).ok_or_else(|| Usage::Error(format!("{flag} does not take {v:?}")))
    }

    /// `flag`'s value parsed by [`FromStr`], refused as [`Args::read`]
    /// refuses it.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, Usage> {
        self.read(flag, |v| v.parse().ok())
    }

    /// `flag`'s value as a number in `range`. `FLAG takes LO..=HI, got
    /// "V"` for a value that is not such a number.
    pub fn number<T>(&mut self, flag: &str, range: RangeInclusive<T>) -> Result<T, Usage>
    where
        T: FromStr + PartialOrd + Debug,
    {
        let v = self.value(flag)?;
        let n = v.parse().ok().filter(|n| range.contains(n));
        n.ok_or_else(|| Usage::Error(format!("{flag} takes {range:?}, got {v:?}")))
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.pop_front()
    }
}

/// A command's stdout, held through one lock, and the status it exits
/// with.
pub struct Report {
    out: io::StdoutLock<'static>,
    /// The exit status of the work reported so far (0 until the command
    /// sets it): what [`report`] exits with, also when the reader closes
    /// before the report is complete.
    pub status: i32,
}

impl Write for Report {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Run `body`, which writes the command's report as it works, then exit
/// with the report's status. A reader that stops early (`… | head`)
/// closes the pipe: the failed write ends the body, and the command
/// exits with the status of the work done so far, without a panic. Any
/// other write error prints `BIN: cannot write the report: ERR` and exits
/// 2.
pub fn report(bin: &str, body: impl FnOnce(&mut Report) -> io::Result<()>) -> ! {
    let mut rep = Report {
        out: io::stdout().lock(),
        status: 0,
    };
    let written = body(&mut rep).and_then(|()| rep.flush());
    match written {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("{bin}: cannot write the report: {e}");
            std::process::exit(2);
        }
        _ => std::process::exit(rep.status),
    }
}

/// Print `BIN: cannot write PATH: ERR` and exit 2: an output path the
/// command cannot write is a usage error, not a crash.
pub fn cannot_write(bin: &str, path: &Path, err: &io::Error) -> ! {
    eprintln!("{bin}: cannot write {}: {err}", path.display());
    std::process::exit(2);
}

/// Write `contents` to `path`, or exit through [`cannot_write`].
pub fn write_file(bin: &str, path: &Path, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        cannot_write(bin, path, &e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(msg: &str) -> Result<u64, Usage> {
        Err(Usage::Error(msg.to_string()))
    }

    #[test]
    fn a_value_is_the_next_argument_unless_it_is_an_option() {
        let mut args = Args::new(["--out", "-5", "--out", "--validate", "--out"]);
        assert_eq!(args.next().as_deref(), Some("--out"));
        assert_eq!(args.value("--out"), Ok("-5".to_string()));
        args.next();
        let refused = Err(Usage::Error("--out takes a value".into()));
        assert_eq!(args.value("--out"), refused);
        assert_eq!(args.next().as_deref(), Some("--validate"));
        args.next();
        assert_eq!(args.value("--out"), refused);
    }

    #[test]
    fn a_number_outside_its_range_names_the_range_and_the_value() {
        let number = |v: &str| Args::new([v]).number("--jobs", 1..=256u64);
        assert_eq!(number("256"), Ok(256));
        for v in ["abc", "0", "257", "18446744073709551616", "-1"] {
            assert_eq!(number(v), err(&format!("--jobs takes 1..=256, got {v:?}")));
        }
    }

    #[test]
    fn read_and_parse_name_the_value_they_refuse() {
        let even = |v: &str| v.parse::<u64>().ok().filter(|n| n % 2 == 0);
        assert_eq!(Args::new(["4"]).read("--even", even), Ok(4));
        assert_eq!(
            Args::new(["3"]).read("--even", even),
            err("--even does not take \"3\"")
        );
        assert_eq!(
            Args::new(["0x10"]).parse::<u64>("--seed"),
            err("--seed does not take \"0x10\"")
        );
    }

    #[test]
    fn only_help_refuses_without_a_message() {
        for arg in ["-h", "--help"] {
            assert_eq!(Usage::unknown(arg), Usage::Help);
        }
        assert_eq!(
            Usage::unknown("--quik"),
            Usage::Error("unknown option --quik".into())
        );
    }
}
