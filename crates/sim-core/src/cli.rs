//! What every command-line binary of the workspace does alike with its
//! output: the stdout report, which ends quietly when its reader closes,
//! and the files it writes, whose failures are plain usage-style errors.

use std::io::{self, Write};
use std::path::Path;

/// Most host threads a command line may ask for (`--jobs`): a command
/// runs up to this many worker threads at once.
pub const MAX_JOBS: usize = 256;

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
