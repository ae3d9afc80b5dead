//! A child process waited on with a time limit. Its stdout and stderr
//! are read line by line on threads of their own and arrive on one
//! channel, so every wait is a `recv_timeout`: past the limit the test
//! fails with what the child wrote to stderr, instead of hanging the
//! suite, and dropping the child kills it.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdin, Command, Output, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

pub struct Bounded {
    child: Child,
    what: String,
    deadline: Instant,
    /// A line (`None`: the pipe closed), from stdout or stderr.
    lines: Receiver<(bool, Option<String>)>,
    open_pipes: usize,
    /// Everything read so far: stderr, stdout.
    output: [String; 2],
}

impl Bounded {
    /// Spawn `cmd` with every stdio piped; it must exit within `limit`.
    /// Dropping the returned stdin closes the child's.
    pub fn spawn(cmd: &mut Command, limit: Duration) -> (Self, ChildStdin) {
        let what = format!("{cmd:?}");
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let (tx, lines) = mpsc::channel();
        let stdout: Box<dyn Read + Send> = Box::new(child.stdout.take().unwrap());
        let stderr: Box<dyn Read + Send> = Box::new(child.stderr.take().unwrap());
        for (is_stdout, pipe) in [(true, stdout), (false, stderr)] {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                    let _ = tx.send((is_stdout, Some(line)));
                }
                let _ = tx.send((is_stdout, None));
            });
        }
        let stdin = child.stdin.take().unwrap();
        let deadline = Instant::now() + limit;
        (Self { child, what, deadline, lines, open_pipes: 2, output: Default::default() }, stdin)
    }

    /// The next line the child writes to stdout, waiting until `by` at
    /// most; `None` once both pipes have closed.
    pub fn stdout_line(&mut self, by: Instant) -> Option<String> {
        while self.open_pipes > 0 {
            match self.lines.recv_timeout(by.saturating_duration_since(Instant::now())) {
                Ok((is_stdout, Some(line))) => {
                    self.output[is_stdout as usize] += &format!("{line}\n");
                    if is_stdout {
                        return Some(line);
                    }
                }
                Ok((_, None)) => self.open_pipes -= 1,
                Err(_) => panic!("{} outlived its time limit; stderr:\n{}", self.what, self.output[0]),
            }
        }
        None
    }

    /// Wait, within the limit, for the child to close its pipes and
    /// exit; everything it wrote.
    pub fn finish(mut self) -> Output {
        while self.stdout_line(self.deadline).is_some() {}
        let [stderr, stdout] = std::mem::take(&mut self.output).map(String::into_bytes);
        Output { status: self.child.wait().unwrap(), stdout, stderr }
    }
}

/// A child whose test failed, or that outlived its limit, is killed.
impl Drop for Bounded {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
