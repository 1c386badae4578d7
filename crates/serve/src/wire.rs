//! The wire path both ends of the protocol share: how a socket is
//! configured and how frames reach it.
//!
//! A frame is one append of `line + "\n"` to a [`BufWriter`]; nothing
//! touches the socket until [`FrameWriter::flush`], which callers invoke
//! at reply boundaries only. Every socket runs with `TCP_NODELAY`, so a
//! flush leaves as one segment at once instead of queueing behind the
//! peer's delayed-ACK timer (Nagle × delayed ACK cost ~44 ms per frame
//! when each frame was two small writes).

use std::io::{self, BufWriter, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Configures one end of a protocol connection: `TCP_NODELAY` plus the
/// read/write timeout that keeps a stalled peer from holding a thread.
pub fn configure(stream: &TcpStream, timeout: Duration) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))
}

/// Buffers whole protocol frames and writes them out at reply
/// boundaries.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    inner: BufWriter<W>,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps `inner`; nothing is written until the first flush.
    pub fn new(inner: W) -> FrameWriter<W> {
        FrameWriter { inner: BufWriter::new(inner) }
    }

    /// Appends one frame (`line` is a `to_line()` rendering, without its
    /// newline) to the buffer.
    pub fn append(&mut self, mut line: String) -> io::Result<()> {
        line.push('\n');
        prof::add(prof::Counter::FramesWritten, 1);
        self.inner.write_all(line.as_bytes())
    }

    /// Puts everything buffered on the wire; free when nothing is.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.inner.buffer().is_empty() {
            return Ok(());
        }
        prof::add(prof::Counter::WireFlushes, 1);
        self.inner.flush()
    }

    /// Appends one frame and flushes: a complete single-frame message.
    pub fn send(&mut self, line: String) -> io::Result<()> {
        self.append(line)?;
        self.flush()
    }

    /// The underlying writer, for bytes that must bypass framing.
    pub fn get_mut(&mut self) -> &mut W {
        self.inner.get_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{CellRecord, Frame};

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct CountingWrite {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn frames() -> Vec<Frame> {
        let mut frames: Vec<Frame> = (0..6)
            .map(|i| {
                Frame::CellResult(CellRecord {
                    scene: "REF".into(),
                    label: format!("REF/policy-{i}"),
                    fingerprint: 0xfeed + i,
                    cycles: 1000 * i,
                    rays: 64,
                    box_tests: 17,
                    tri_tests: 9,
                })
            })
            .collect();
        frames.push(Frame::ResultsEnd { cells: 6 });
        frames
    }

    #[test]
    fn n_frames_and_one_flush_are_exactly_one_write() {
        let frames = frames();
        let mut sink = CountingWrite::default();
        let mut writer = FrameWriter::new(&mut sink);
        for frame in &frames {
            writer.append(frame.to_line()).unwrap();
        }
        writer.flush().unwrap();
        writer.flush().unwrap(); // an empty flush writes nothing
        drop(writer);
        assert_eq!(sink.writes, 1);
        let expected: String = frames.iter().map(|f| f.to_line() + "\n").collect();
        assert_eq!(sink.bytes, expected.as_bytes());
    }

    #[test]
    fn an_unflushed_writer_has_written_nothing() {
        let mut sink = CountingWrite::default();
        let mut writer = FrameWriter::new(&mut sink);
        for frame in &frames() {
            writer.append(frame.to_line()).unwrap();
        }
        assert_eq!(writer.get_mut().writes, 0);
        assert!(writer.get_mut().bytes.is_empty());
    }

    #[test]
    fn send_is_one_frame_one_write() {
        let mut sink = CountingWrite::default();
        let mut writer = FrameWriter::new(&mut sink);
        writer.send(Frame::ShuttingDown.to_line()).unwrap();
        writer.send(Frame::ShuttingDown.to_line()).unwrap();
        drop(writer);
        assert_eq!(sink.writes, 2);
        let line = Frame::ShuttingDown.to_line() + "\n";
        assert_eq!(sink.bytes, format!("{line}{line}").as_bytes());
    }
}
