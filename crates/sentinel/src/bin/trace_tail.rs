//! Follows a growing `NANOCOST_TRACE` JSONL capture and renders a
//! periodic plain-text metrics dashboard — `tail -f` for the timeline
//! stream, no dependencies, no TTY tricks beyond an optional ANSI
//! clear.
//!
//! ```text
//! trace_tail <capture.jsonl>                  # follow until interrupted
//! trace_tail --once <capture.jsonl>           # one frame, then exit (CI)
//! trace_tail --interval-ms 500 --window-s 10 --width 60 <capture.jsonl>
//! trace_tail --frames 20 <capture.jsonl>      # render 20 frames, then exit
//! ```
//!
//! Each frame shows, per metric: a unicode-block sparkline of the
//! sliding window, the current value (gauges), the running total and
//! rate of change (counters), and `LogHistogram` percentiles
//! (histograms). The file is followed by polling and seeking — partial
//! trailing lines are buffered until their newline arrives, so a
//! half-written record is never misparsed.
//!
//! Live server state is read with `fleet_report <host:port>...` (one
//! replica or many) or a raw `GET /v1/metrics`; this tool only follows
//! captures.
//!
//! Exit code 0 on success, 2 on usage or I/O errors.

use std::io::{IsTerminal, Read, Seek, SeekFrom, Write as _};
use std::process::ExitCode;
use std::time::Duration;

use nanocost_sentinel::timeline::Dashboard;
use nanocost_sentinel::SentinelError;

const USAGE: &str = "usage: trace_tail [--once] [--frames N] [--interval-ms N] \
                     [--window-s S] [--width N] <capture.jsonl>";

/// Parsed command line.
struct Options {
    /// Capture file to follow.
    path: String,
    interval: Duration,
    window_ns: u64,
    width: usize,
    /// Stop after this many rendered frames; `None` = follow forever.
    frames: Option<u64>,
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
    raw.parse::<T>().map_err(|_| format!("{flag} {raw}: not a number\n{USAGE}"))
}

fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut interval_ms: u64 = 1_000;
    let mut window_s: f64 = 30.0;
    let mut width: usize = 40;
    let mut frames: Option<u64> = None;
    let mut path: Option<&str> = None;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--once" => frames = Some(1),
            "--frames" => frames = Some(parse_num("--frames", args.next())?),
            "--interval-ms" => interval_ms = parse_num("--interval-ms", args.next())?,
            "--window-s" => window_s = parse_num("--window-s", args.next())?,
            "--width" => width = parse_num("--width", args.next())?,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{USAGE}"))
            }
            other => {
                if path.is_some() {
                    return Err(USAGE.to_string());
                }
                path = Some(other);
            }
        }
    }
    let path = path.ok_or_else(|| USAGE.to_string())?.to_string();
    if !window_s.is_finite() || window_s <= 0.0 {
        return Err(format!("--window-s must be positive\n{USAGE}"));
    }
    Ok(Options {
        path,
        interval: Duration::from_millis(interval_ms),
        window_ns: (window_s * 1.0e9) as u64,
        width,
        frames,
    })
}

/// Poll-and-seek follower: reads whatever grew past `offset`, splits it
/// at newlines, and carries the trailing partial line to the next poll.
struct Follower {
    file: std::fs::File,
    offset: u64,
    partial: String,
}

impl Follower {
    fn open(path: &str) -> Result<Follower, String> {
        let file = std::fs::File::open(path)
            .map_err(|e| SentinelError::io(path, &e).to_string())?;
        Ok(Follower { file, offset: 0, partial: String::new() })
    }

    /// Feeds every newly completed line into the dashboard. Returns the
    /// number of new lines seen.
    fn drain_into(&mut self, dashboard: &mut Dashboard) -> Result<u64, String> {
        let len = self
            .file
            .metadata()
            .map_err(|e| format!("stat failed: {e}"))?
            .len();
        if len < self.offset {
            // The capture was truncated/rewritten under us: start over.
            self.offset = 0;
            self.partial.clear();
        }
        if len == self.offset {
            return Ok(0);
        }
        self.file
            .seek(SeekFrom::Start(self.offset))
            .map_err(|e| format!("seek failed: {e}"))?;
        let mut grown = String::new();
        let read = Read::by_ref(&mut self.file)
            .take(len - self.offset)
            .read_to_string(&mut grown)
            .map_err(|e| format!("read failed: {e}"))?;
        self.offset += read as u64;
        self.partial.push_str(&grown);
        let mut fed = 0;
        while let Some(nl) = self.partial.find('\n') {
            let line: String = self.partial.drain(..=nl).collect();
            dashboard.ingest_line(line.trim_end());
            fed += 1;
        }
        Ok(fed)
    }
}

fn run(opts: &Options) -> Result<(), String> {
    let mut follower = Follower::open(&opts.path)?;
    let mut dashboard = Dashboard::new(opts.window_ns);
    let clear = std::io::stdout().is_terminal();
    let mut rendered = 0u64;
    loop {
        follower.drain_into(&mut dashboard)?;
        let frame = dashboard.render(opts.width);
        if clear {
            // ANSI home + clear-below keeps a live terminal stable.
            print!("\u{1b}[H\u{1b}[J{frame}");
            let _ = std::io::stdout().flush();
        } else {
            println!("{frame}");
        }
        rendered += 1;
        if opts.frames.is_some_and(|n| rendered >= n) {
            return Ok(());
        }
        std::thread::sleep(opts.interval);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|opts| run(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn arg_parsing_covers_flags_and_errors() {
        let o = parse_args(&args(&[
            "--once", "--interval-ms", "250", "--window-s", "5", "--width", "33", "cap.jsonl",
        ]))
        .expect("parses");
        assert_eq!(o.frames, Some(1));
        assert_eq!(o.interval, Duration::from_millis(250));
        assert_eq!(o.window_ns, 5_000_000_000);
        assert_eq!(o.width, 33);
        assert_eq!(o.path, "cap.jsonl");
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["--window-s", "0", "x"])).is_err());
        assert!(parse_args(&args(&["--frames", "abc", "x"])).is_err());
        assert!(parse_args(&args(&["--bogus", "x"])).is_err());
        // Live servers are read with fleet_report, not attached here.
        let err = parse_args(&args(&["--attach", "h:1"])).err().unwrap_or_default();
        assert!(err.starts_with("unknown flag `--attach`"), "{err}");
    }

    #[test]
    fn follower_feeds_complete_lines_and_buffers_partials() {
        let dir = std::env::temp_dir().join("nanocost_trace_tail_tests");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("grow.jsonl");
        let line = "{\"ts_us\":1,\"thread\":1,\"type\":\"sample\",\"name\":\"m\",\
                    \"metric_kind\":\"gauge\",\"t_ns\":1000,\"value\":2.5}";
        std::fs::write(&path, format!("{line}\n{{\"ts_us\":2,")).expect("write");
        let path_s = path.to_string_lossy().into_owned();
        let mut f = Follower::open(&path_s).expect("opens");
        let mut d = Dashboard::new(1_000_000_000);
        assert_eq!(f.drain_into(&mut d).expect("drains"), 1);
        assert_eq!(d.live_metrics(), 1);
        assert_eq!(d.parse_errors, 0, "partial line stays buffered");
        // The file grows: the partial line completes, a new one lands.
        std::fs::write(
            &path,
            format!(
                "{line}\n{{\"ts_us\":2,\"thread\":1,\"type\":\"sample\",\"name\":\"n\",\
                 \"metric_kind\":\"counter\",\"t_ns\":2000,\"value\":3}}\n"
            ),
        )
        .expect("rewrite");
        let fed = f.drain_into(&mut d).expect("drains growth");
        assert!(fed >= 1, "fed {fed}");
        assert_eq!(d.live_metrics(), 2);
    }
}
