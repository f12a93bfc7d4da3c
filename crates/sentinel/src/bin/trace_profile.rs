//! Folds a `NANOCOST_TRACE` JSONL capture into a span profile, with
//! optional time-windowing and a metric-timeline mode.
//!
//! ```text
//! trace_profile <capture.jsonl>             # hotspot table + folded stacks
//! trace_profile --folded <capture.jsonl>    # folded stacks only (pipe to a
//!                                           # flamegraph renderer)
//! trace_profile --hotspots <capture.jsonl>  # hotspot table only
//! trace_profile --since 50% <capture.jsonl> # second half of the run only
//! trace_profile --since 1000000 --until 90% <capture.jsonl>
//! trace_profile --metrics <capture.jsonl>   # per-window metric summaries +
//!                                           # counter flamegraph
//! trace_profile --samples <capture.jsonl>   # aggregate the sampling
//!                                           # profiler's stack_sample
//!                                           # records into report JSON
//! ```
//!
//! `--since`/`--until` take a nanosecond offset from the capture's
//! first timestamp or a percentage of its duration, and bound a
//! half-open window `[since, until)` applied to spans (elapsed time
//! clipped to the overlap) and samples alike. The span and metric
//! views share one parse of the capture.
//!
//! `--samples` prints the sampling profiler's aggregation of the
//! capture as deterministic [`ProfileReport`] JSON — the `profile_diff`
//! interchange format. A live server's profile is read with
//! `fleet_report <host:port>`, which merges `/v1/profile` into its
//! artifact.
//!
//! Exit code 0 on success, 2 on usage, I/O, or parse errors.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary's console is its interface, and it may abort on a fatal error"
)]

use std::process::ExitCode;

use nanocost_sentinel::profile::{stack_samples_from_jsonl, Profile, ProfileReport};
use nanocost_sentinel::timeline::{
    counter_folded, metric_summaries, resolve_window, TimelineCapture, WindowSpec,
};
use nanocost_sentinel::SentinelError;

const USAGE: &str = "usage: trace_profile [--folded | --hotspots | --metrics | --samples] \
                     [--since NS|P%] [--until NS|P%] <capture.jsonl>";

fn parse_spec(flag: &str, value: Option<&String>) -> Result<WindowSpec, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
    WindowSpec::parse(raw)
        .ok_or_else(|| format!("{flag} {raw}: expected a nanosecond offset or `N%`\n{USAGE}"))
}

fn run(argv: &[String]) -> Result<String, String> {
    let mut folded_only = false;
    let mut hotspots_only = false;
    let mut metrics_mode = false;
    let mut samples_mode = false;
    let mut since: Option<WindowSpec> = None;
    let mut until: Option<WindowSpec> = None;
    let mut path: Option<&str> = None;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--folded" => folded_only = true,
            "--hotspots" => hotspots_only = true,
            "--metrics" => metrics_mode = true,
            "--samples" => samples_mode = true,
            "--since" => since = Some(parse_spec("--since", args.next())?),
            "--until" => until = Some(parse_spec("--until", args.next())?),
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
    let path = path.ok_or_else(|| USAGE.to_string())?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| SentinelError::io(path, &e).to_string())?;
    if samples_mode {
        let samples = stack_samples_from_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
        // The stack samples' own t_ns range anchors the window.
        let window = if since.is_some() || until.is_some() {
            let lo = samples.iter().map(|s| s.t_ns).min().unwrap_or(0);
            let hi = samples.iter().map(|s| s.t_ns).max().unwrap_or(0);
            Some(resolve_window(since, until, lo, hi))
        } else {
            None
        };
        let mut out = ProfileReport::from_samples(&samples, window).to_json();
        out.push('\n');
        return Ok(out);
    }
    // The capture's own time range anchors both window endpoints.
    let capture = TimelineCapture::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let window = if since.is_some() || until.is_some() {
        Some(resolve_window(since, until, capture.t_min_ns, capture.t_max_ns))
    } else {
        None
    };
    let mut out = String::new();
    if let Some((lo, hi)) = window {
        out.push_str(&format!("# window [{lo}, {hi}) ns of [{}, {}]\n", capture.t_min_ns, capture.t_max_ns));
    }
    if metrics_mode {
        let w = window.unwrap_or((capture.t_min_ns, capture.t_max_ns.saturating_add(1)));
        let summaries = metric_summaries(&capture.samples, w);
        if summaries.is_empty() {
            out.push_str("no samples in window (run with NANOCOST_TRACE_SAMPLE=1?)\n");
        } else {
            let name_w = summaries.iter().map(|s| s.name.len()).max().unwrap_or(4).max(4);
            out.push_str(&format!(
                "{:<name_w$}  {:>9}  {:>6}  {:>12}  {:>12}  {:>12}  {:>12}\n",
                "name", "kind", "count", "min", "mean", "max", "last"
            ));
            for s in &summaries {
                out.push_str(&format!(
                    "{:<name_w$}  {:>9}  {:>6}  {:>12.5e}  {:>12.5e}  {:>12.5e}  {:>12.5e}\n",
                    s.name, s.metric_kind, s.count, s.min, s.mean, s.max, s.last
                ));
            }
        }
        let folded = counter_folded(&capture, w);
        if !folded.is_empty() {
            out.push_str("\n# counter flamegraph (stack;metric delta)\n");
            out.push_str(&folded);
        }
        return Ok(out);
    }
    let profile = Profile::from_capture(&capture, window);
    if !folded_only {
        out.push_str(&profile.hotspot_table());
    }
    if !hotspots_only {
        if !folded_only {
            out.push_str("\n# folded stacks\n");
        }
        out.push_str(&profile.folded_stacks());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
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

    fn write_capture(name: &str, lines: &[String]) -> String {
        let dir = std::env::temp_dir().join("nanocost_trace_profile_tests");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(name);
        std::fs::write(&path, lines.join("\n")).expect("write capture");
        path.to_string_lossy().into_owned()
    }

    fn capture_lines() -> Vec<String> {
        vec![
            "{\"ts_us\":1,\"thread\":1,\"type\":\"span_enter\",\"span\":1,\"parent\":null,\
             \"name\":\"run\",\"fields\":{}}"
                .to_string(),
            "{\"ts_us\":10,\"thread\":1,\"type\":\"sample\",\"name\":\"c\",\
             \"metric_kind\":\"counter\",\"t_ns\":10000,\"value\":7}"
                .to_string(),
            "{\"ts_us\":101,\"thread\":1,\"type\":\"span_exit\",\"span\":1,\"name\":\"run\",\
             \"elapsed_ns\":100000}"
                .to_string(),
        ]
    }

    /// Nested spans (`root` > `a` > `b`, plus a second `a`), an
    /// unclosed span on another thread and an orphan exit.
    fn pinned_capture() -> String {
        let lines: Vec<String> = [
            r#"{"ts_us":1,"thread":1,"type":"span_enter","span":1,"parent":null,"name":"root","fields":{}}"#,
            r#"{"ts_us":2,"thread":1,"type":"span_enter","span":2,"parent":1,"name":"a","fields":{}}"#,
            r#"{"ts_us":3,"thread":1,"type":"span_enter","span":3,"parent":2,"name":"b","fields":{}}"#,
            r#"{"ts_us":5,"thread":1,"type":"span_exit","span":3,"name":"b","elapsed_ns":2000}"#,
            r#"{"ts_us":7,"thread":1,"type":"span_exit","span":2,"name":"a","elapsed_ns":5000}"#,
            r#"{"ts_us":8,"thread":1,"type":"span_enter","span":4,"parent":1,"name":"a","fields":{}}"#,
            r#"{"ts_us":9,"thread":1,"type":"span_exit","span":4,"name":"a","elapsed_ns":1500}"#,
            r#"{"ts_us":11,"thread":1,"type":"span_exit","span":1,"name":"root","elapsed_ns":10000}"#,
            r#"{"ts_us":12,"thread":2,"type":"span_enter","span":5,"parent":null,"name":"open","fields":{}}"#,
            r#"{"ts_us":13,"thread":2,"type":"span_exit","span":9,"name":"ghost","elapsed_ns":50}"#,
        ]
        .map(String::from)
        .to_vec();
        write_capture("pinned.jsonl", &lines)
    }

    const PINNED_HOTSPOTS: &str = "   calls         total          self  name\n\
        \x20      2      6.500 us      4.500 us  a   \n\
        \x20      1     10.000 us      3.500 us  root\n\
        \x20      1      2.000 us      2.000 us  b   \n\
        \n\
        5 spans, root total 10.000 us, self total 10.000 us (1 unclosed, 1 orphan exits)\n";

    const PINNED_FOLDED: &str = "root 3500\nroot;a 4500\nroot;a;b 2000\n";

    #[test]
    fn span_views_print_exactly_the_pinned_output() {
        let path = pinned_capture();
        assert_eq!(run(&args(&["--folded", &path])).expect("runs"), PINNED_FOLDED);
        assert_eq!(run(&args(&["--hotspots", &path])).expect("runs"), PINNED_HOTSPOTS);
        assert_eq!(
            run(&args(&[&path])).expect("runs"),
            format!("{PINNED_HOTSPOTS}\n# folded stacks\n{PINNED_FOLDED}")
        );
        assert_eq!(
            run(&args(&["--since", "50%", &path])).expect("runs"),
            "# window [7000, 13001) ns of [1000, 13000]\n\
             \x20  calls         total          self  name\n\
             \x20      1      4.000 us      2.500 us  root\n\
             \x20      1      1.500 us      1.500 us  a   \n\
             \n\
             5 spans, root total 4.000 us, self total 4.000 us \
             (1 unclosed, 1 orphan exits) (2 spans outside the window)\n\
             \n\
             # folded stacks\n\
             root 2500\n\
             root;a 1500\n"
        );
    }

    #[test]
    fn metrics_mode_prints_summaries_and_counter_flamegraph() {
        let path = write_capture("metrics.jsonl", &capture_lines());
        let out = run(&args(&["--metrics", &path])).expect("runs");
        assert!(out.contains("counter"), "{out}");
        assert!(out.contains("# counter flamegraph"), "{out}");
        assert!(out.contains("run;c 7"), "{out}");
    }

    #[test]
    fn bad_window_specs_are_usage_errors() {
        assert!(run(&args(&["--since"])).is_err());
        assert!(run(&args(&["--since", "150%", "x.jsonl"])).is_err());
        assert!(run(&args(&["--until", "abc", "x.jsonl"])).is_err());
    }

    #[test]
    fn samples_mode_emits_deterministic_report_json() {
        let mut lines = capture_lines();
        lines.push(
            "{\"ts_us\":50,\"thread\":1,\"req_id\":\"r1\",\"type\":\"stack_sample\",\
             \"depth\":2,\"t_ns\":50000,\"frames\":[\"run\",\"serve.endpoint.cost\"]}"
                .to_string(),
        );
        let path = write_capture("samples.jsonl", &lines);
        let out = run(&args(&["--samples", &path])).expect("runs");
        let again = run(&args(&["--samples", &path])).expect("runs twice");
        assert_eq!(out, again, "report JSON must be byte-deterministic");
        let report = ProfileReport::from_json(out.trim_end()).expect("valid report");
        assert_eq!(report.samples, 1);
        assert_eq!(report.endpoints.get("cost"), Some(&1));
        // Windowing applies to the samples' own t_ns range.
        let windowed = run(&args(&["--samples", "--since", "90%", &path])).expect("runs");
        let report = ProfileReport::from_json(windowed.trim_end()).expect("valid report");
        assert_eq!(report.samples, 1, "single sample anchors its own window");
    }

    #[test]
    fn live_server_flags_are_gone() {
        for flag in ["--attach", "--window-s"] {
            let err = run(&args(&[flag, "h:1"])).expect_err("rejected");
            assert!(err.starts_with(&format!("unknown flag `{flag}`")), "{err}");
        }
    }
}
