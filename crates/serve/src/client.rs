//! A small blocking client for the serve protocol, used by the
//! `vtq-bench submit` CLI, the chaos harness and the tests.

use std::io::{self, BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Duration;

use crate::proto::{CellRecord, Frame, Request, SubmitSpec};
use crate::server::ADDR_FILE;
use crate::wire::{self, FrameWriter};

/// Reads the daemon address a server wrote to `dir/serve.addr`.
pub fn discover_addr(dir: &Path) -> io::Result<SocketAddr> {
    let text = std::fs::read_to_string(dir.join(ADDR_FILE))?;
    text.trim()
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad {ADDR_FILE}: {e}")))
}

/// One connection to the daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: FrameWriter<TcpStream>,
}

impl Client {
    /// Connects with a 30 s I/O timeout (long enough for a full-detail
    /// cell between frames, short enough to notice a dead daemon).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Client::connect_with_timeout(addr, Duration::from_secs(30))
    }

    /// Connects with an explicit timeout, applied to the connection
    /// attempt itself and to every read and write after it.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        wire::configure(&stream, timeout)?;
        let writer = FrameWriter::new(stream.try_clone()?);
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Whether the connection runs with `TCP_NODELAY` (it always should).
    pub fn nodelay(&self) -> io::Result<bool> {
        self.reader.get_ref().nodelay()
    }

    /// Sends one request line.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        self.writer.send(request.to_line())
    }

    /// Sends raw bytes verbatim (the chaos harness uses this to produce
    /// torn frames).
    pub fn send_raw(&mut self, bytes: &str) -> io::Result<()> {
        self.writer.get_mut().write_all(bytes.as_bytes())
    }

    /// Reads and parses one server frame.
    pub fn read_frame(&mut self) -> Result<Frame, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Frame::parse(line.trim_end()),
            Err(e) => Err(format!("read error: {e}")),
        }
    }

    /// Sends a request and reads its (single-frame) reply.
    pub fn request(&mut self, request: &Request) -> Result<Frame, String> {
        self.send(request).map_err(|e| format!("write error: {e}"))?;
        self.read_frame()
    }

    /// Submits a watched job and blocks until its terminal status,
    /// invoking `on_event` for every streamed frame in between. Returns
    /// the terminal [`Frame::Status`] (or the rejection).
    pub fn submit_and_watch(
        &mut self,
        mut spec: SubmitSpec,
        mut on_event: impl FnMut(&Frame),
    ) -> Result<Frame, String> {
        spec.watch = true;
        let first = self.request(&Request::Submit(spec))?;
        match first {
            Frame::Accepted { .. } => on_event(&first),
            rejected @ Frame::Rejected { .. } => return Ok(rejected),
            other => return Err(format!("unexpected reply to submit: {other:?}")),
        }
        loop {
            let frame = self.read_frame()?;
            match frame {
                Frame::CellEvent { .. } => on_event(&frame),
                Frame::Status { .. } => return Ok(frame),
                other => return Err(format!("unexpected frame mid-watch: {other:?}")),
            }
        }
    }

    /// Fetches the per-cell results of a job from the daemon's cache.
    pub fn fetch_results(&mut self, job: &str) -> Result<Vec<CellRecord>, String> {
        self.send(&Request::Results { job: job.to_string() })
            .map_err(|e| format!("write error: {e}"))?;
        let mut records = Vec::new();
        loop {
            match self.read_frame()? {
                Frame::CellResult(record) => records.push(record),
                Frame::ResultsEnd { cells } => {
                    if cells != records.len() {
                        return Err(format!(
                            "results truncated: trailer says {cells}, got {}",
                            records.len()
                        ));
                    }
                    return Ok(records);
                }
                Frame::Rejected { reason, detail } => {
                    return Err(format!("rejected ({}): {detail}", reason.label()))
                }
                other => return Err(format!("unexpected frame in results: {other:?}")),
            }
        }
    }
}
