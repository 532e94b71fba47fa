//! Runs one child process to completion and measures it from outside:
//! wall-clock, CPU time and peak resident set from `/proc/<pid>`.
//!
//! Exit is detected by end-of-file on the child's stdout (a helper thread
//! drains it), so wall-clock is not quantised to the poll period; the
//! child is then left a zombie just long enough to read its final CPU
//! totals from `/proc/<pid>/stat` before it is reaped.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How often `/proc/<pid>` is sampled while the child runs.
const POLL: Duration = Duration::from_millis(20);

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// What one finished child looked like from outside.
#[derive(Debug)]
pub struct ChildRun {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// User + system CPU of the whole process, seconds.
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`), kB; 0 if the child exited before the
    /// first sample.
    pub peak_rss_kb: u64,
    /// Whether the child exited with status 0.
    pub success: bool,
    pub stdout: Vec<u8>,
    pub stderr: String,
}

/// One reading of `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatSample {
    /// Process state letter (`R`, `S`, `Z`, …).
    pub state: char,
    /// utime + stime, seconds.
    pub cpu_s: f64,
}

/// Parses the text of `/proc/<pid>/stat`. The command name (field 2) may
/// itself contain spaces and parentheses, so fields are counted from the
/// last `)`.
pub fn parse_stat(text: &str) -> Option<StatSample> {
    let rest = text.get(text.rfind(')')? + 1..)?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3 overall, utime 14, stime 15.
    let state = fields.first()?.chars().next()?;
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(StatSample {
        state,
        cpu_s: (utime + stime) as f64 / TICKS_PER_S,
    })
}

/// Extracts `VmHWM` (kB) from the text of `/proc/<pid>/status`. Absent
/// once the process has released its address space.
pub fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn read_stat(pid: u32) -> Option<StatSample> {
    parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Spawns `program args…` in `cwd`, waits for it, and reports what it
/// used. The child inherits this process's environment, which `main` has
/// cleared of `STRATA_*` variables.
///
/// # Errors
///
/// Returns a message when the child cannot be spawned or waited for.
pub fn run_child(program: &Path, args: &[String], cwd: &Path) -> Result<ChildRun, String> {
    let mut cmd = Command::new(program);
    cmd.args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", program.display()))?;
    let pid = child.id();

    let mut out_pipe = child.stdout.take().expect("stdout was piped");
    let mut err_pipe = child.stderr.take().expect("stderr was piped");
    let (eof_tx, eof_rx) = mpsc::channel::<()>();
    let (stdout, stderr, peak_rss_kb, wall_s, cpu_s) = std::thread::scope(|scope| {
        let out_reader = scope.spawn(move || {
            let mut buf = Vec::new();
            let _ = out_pipe.read_to_end(&mut buf);
            let _ = eof_tx.send(());
            buf
        });
        let err_reader = scope.spawn(move || {
            let mut buf = Vec::new();
            let _ = err_pipe.read_to_end(&mut buf);
            String::from_utf8_lossy(&buf).into_owned()
        });

        let mut peak_rss_kb = 0u64;
        let mut cpu_s = 0f64;
        loop {
            if let Some(s) = read_stat(pid) {
                cpu_s = cpu_s.max(s.cpu_s);
            }
            if let Some(kb) = std::fs::read_to_string(format!("/proc/{pid}/status"))
                .ok()
                .as_deref()
                .and_then(parse_vm_hwm_kb)
            {
                peak_rss_kb = peak_rss_kb.max(kb);
            }
            // Doubles as the poll-period sleep; returns at once on EOF
            // (or if the reader died, which also means the pipe closed).
            if !matches!(
                eof_rx.recv_timeout(POLL),
                Err(mpsc::RecvTimeoutError::Timeout)
            ) {
                break;
            }
        }
        // stdout closed: the child is exiting. Its stat entry stays
        // readable as a zombie until `wait` below, and then holds the
        // final totals of every thread. Bounded in case the child closed
        // stdout early and keeps running.
        let deadline = Instant::now() + Duration::from_secs(5);
        while let Some(s) = read_stat(pid) {
            cpu_s = cpu_s.max(s.cpu_s);
            if s.state == 'Z' || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let wall_s = start.elapsed().as_secs_f64();
        (
            out_reader.join().expect("stdout reader does not panic"),
            err_reader.join().expect("stderr reader does not panic"),
            peak_rss_kb,
            wall_s,
            cpu_s,
        )
    });
    let status = child.wait().map_err(|e| format!("wait for {pid}: {e}"))?;
    Ok(ChildRun {
        wall_s,
        cpu_s,
        peak_rss_kb,
        success: status.success(),
        stdout,
        stderr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let text = "4242 (a b) c) S 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    37 5 0 0 20 0 3 0 12345 1000000 200 18446744073709551615 0 0";
        assert_eq!(
            parse_stat(text),
            Some(StatSample {
                state: 'S',
                cpu_s: 0.42
            })
        );
        assert_eq!(parse_stat("1 (x) Z"), None);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_from_status_text() {
        let text = "Name:\tstrata\nVmPeak:\t  9000 kB\nVmHWM:\t  104512 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(text), Some(104512));
        assert_eq!(parse_vm_hwm_kb("Name:\tzombie\nState:\tZ (zombie)\n"), None);
    }

    #[test]
    fn samples_a_sleeping_child() {
        let run = run_child(Path::new("sleep"), &["0.3".to_string()], Path::new("."))
            .expect("sleep runs");
        assert!(run.success);
        assert!(run.stdout.is_empty() && run.stderr.is_empty());
        assert!((0.3..2.0).contains(&run.wall_s), "wall {}", run.wall_s);
        assert!(
            run.cpu_s < 0.1,
            "a sleeping child burns no CPU: {}",
            run.cpu_s
        );
        assert!(run.peak_rss_kb > 0, "VmHWM was sampled");
    }

    #[test]
    fn reports_failure_and_captures_output() {
        let run = run_child(
            Path::new("sh"),
            &[
                "-c".to_string(),
                "echo out; echo err >&2; exit 3".to_string(),
            ],
            Path::new("."),
        )
        .expect("sh runs");
        assert!(!run.success);
        assert_eq!(run.stdout, b"out\n");
        assert_eq!(run.stderr, "err\n");
        assert!(run_child(Path::new("/nonexistent/strata"), &[], Path::new(".")).is_err());
    }
}
