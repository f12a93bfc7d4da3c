//! Subscribers: where records go.

use std::io::Write;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::export::Exporter;
use crate::record::Record;

/// A sink for trace records. Implementations must tolerate being
/// called from multiple threads (the pipeline's Monte-Carlo loops may
/// be parallelized later).
pub trait Subscriber {
    /// Receives one record.
    fn record(&self, rec: &Record);

    /// Finalizes the sink (writes exporter footers, flushes buffers).
    /// Idempotent; called by [`crate::flush`].
    fn flush(&self) {}
}

/// An in-memory subscriber that keeps every record, a replay as the
/// provenance records it stands for ([`Record::expand`]); the test
/// harness' sink (see [`crate::with_collector`]).
#[derive(Debug, Default)]
pub struct Collector {
    records: Mutex<Vec<Record>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Collector {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Collector::default()
    }

    /// Takes every record captured so far.
    #[must_use]
    pub fn take(&self) -> Vec<Record> {
        std::mem::take(&mut *lock(&self.records))
    }

    /// Number of records captured so far.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.records).len()
    }

    /// True when nothing has been captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Subscriber for Collector {
    fn record(&self, rec: &Record) {
        lock(&self.records).extend(rec.expand().iter().cloned());
    }
}

/// Streams records through an [`Exporter`] into any writer (stderr, a
/// file). The exporter's header is written on construction and its
/// footer on [`Subscriber::flush`]; records arriving after the flush
/// are dropped so the footer stays the last thing in the stream.
pub struct WriterSubscriber {
    inner: Mutex<WriterInner>,
}

struct WriterInner {
    exporter: Box<dyn Exporter + Send>,
    out: Box<dyn Write + Send>,
    finished: bool,
}

impl std::fmt::Debug for WriterSubscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriterSubscriber").finish_non_exhaustive()
    }
}

impl WriterSubscriber {
    /// Builds the subscriber and writes the exporter's header.
    #[must_use]
    pub fn new(mut exporter: Box<dyn Exporter + Send>, mut out: Box<dyn Write + Send>) -> Self {
        let header = exporter.begin();
        let _ = out.write_all(header.as_bytes());
        WriterSubscriber {
            inner: Mutex::new(WriterInner { exporter, out, finished: false }),
        }
    }
}

impl Subscriber for WriterSubscriber {
    fn record(&self, rec: &Record) {
        let mut inner = lock(&self.inner);
        if inner.finished {
            return;
        }
        let line = inner.exporter.render(rec);
        let _ = inner.out.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let mut inner = lock(&self.inner);
        if inner.finished {
            return;
        }
        inner.finished = true;
        let footer = inner.exporter.finish();
        let _ = inner.out.write_all(footer.as_bytes());
        let _ = inner.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::JsonlExporter;
    use crate::record::RecordKind;
    use std::sync::Arc;

    fn rec(name: &'static str) -> Record {
        Record::unscoped(1, 1, RecordKind::Event { span: None, name, fields: vec![] })
    }

    /// A shared Vec<u8> writer for inspecting what the subscriber wrote.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn collector_accumulates() {
        let c = Collector::new();
        assert!(c.is_empty());
        c.record(&rec("a"));
        c.record(&rec("b"));
        assert_eq!(c.len(), 2);
        assert_eq!(c.take().len(), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn writer_streams_and_drops_after_flush() {
        let buf = SharedBuf::default();
        let sub = WriterSubscriber::new(Box::new(JsonlExporter::new()), Box::new(buf.clone()));
        sub.record(&rec("first"));
        sub.flush();
        sub.record(&rec("late"));
        sub.flush(); // idempotent
        let text = String::from_utf8(lock(&buf.0).clone()).expect("utf8");
        assert!(text.contains("first"));
        assert!(!text.contains("late"));
    }
}
