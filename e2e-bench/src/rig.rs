//! Connector configurations, the counting storage wrapper, and the
//! per-call probe that times every call the application thread makes
//! into the connector.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use asyncvol::{AsyncVol, AsyncVolStats};
use h5lite::{
    Container, File, IoVec, IoVecMut, MemBackend, NativeVol, Result, Ring, RingConfig,
    StorageBackend, Vol,
};

/// The four connector configurations every workload runs, in run order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cfg {
    /// `NativeVol`: every call completes on the application thread.
    Sync,
    /// `AsyncVol::new()`: DRAM snapshots, one background stream.
    Async,
    /// `AsyncVol` with a `Ring` over the container's own backend.
    Ring,
    /// `AsyncVol` staging snapshots onto a second `MemBackend` (the WAL).
    Staged,
}

impl Cfg {
    pub const ALL: [Cfg; 4] = [Cfg::Sync, Cfg::Async, Cfg::Ring, Cfg::Staged];

    pub fn name(self) -> &'static str {
        match self {
            Cfg::Sync => "sync",
            Cfg::Async => "async",
            Cfg::Ring => "ring",
            Cfg::Staged => "staged",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Call counts and busy time of one device, as a plain snapshot.
#[derive(Clone, Copy, Debug, Default)]
pub struct DevCounts {
    pub write_calls: u64,
    pub write_segs: u64,
    pub write_bytes: u64,
    pub read_calls: u64,
    pub read_bytes: u64,
    pub busy_ns: u64,
}

impl DevCounts {
    pub fn since(self, before: DevCounts) -> DevCounts {
        DevCounts {
            write_calls: self.write_calls - before.write_calls,
            write_segs: self.write_segs - before.write_segs,
            write_bytes: self.write_bytes - before.write_bytes,
            read_calls: self.read_calls - before.read_calls,
            read_bytes: self.read_bytes - before.read_bytes,
            busy_ns: self.busy_ns - before.busy_ns,
        }
    }

    pub fn add(&mut self, o: DevCounts) {
        self.write_calls += o.write_calls;
        self.write_segs += o.write_segs;
        self.write_bytes += o.write_bytes;
        self.read_calls += o.read_calls;
        self.read_bytes += o.read_bytes;
        self.busy_ns += o.busy_ns;
    }
}

/// A `MemBackend` that counts and times every call made into it. Used
/// only in traced runs; untraced runs hand the container a bare
/// `MemBackend`.
#[derive(Default)]
pub struct Counting {
    inner: MemBackend,
    write_calls: AtomicU64,
    write_segs: AtomicU64,
    write_bytes: AtomicU64,
    read_calls: AtomicU64,
    read_bytes: AtomicU64,
    busy_ns: AtomicU64,
}

impl Counting {
    pub fn counts(&self) -> DevCounts {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        DevCounts {
            write_calls: get(&self.write_calls),
            write_segs: get(&self.write_segs),
            write_bytes: get(&self.write_bytes),
            read_calls: get(&self.read_calls),
            read_bytes: get(&self.read_bytes),
            busy_ns: get(&self.busy_ns),
        }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn wrote(&self, segs: u64, bytes: u64) {
        self.write_calls.fetch_add(1, Ordering::Relaxed);
        self.write_segs.fetch_add(segs, Ordering::Relaxed);
        self.write_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    fn read(&self, bytes: u64) {
        self.read_calls.fetch_add(1, Ordering::Relaxed);
        self.read_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

impl StorageBackend for Counting {
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.wrote(1, data.len() as u64);
        self.timed(|| self.inner.write_at(offset, data))
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.read(buf.len() as u64);
        self.timed(|| self.inner.read_at(offset, buf))
    }

    fn write_vectored_at(&self, batch: &[IoVec<'_>]) -> Result<()> {
        let bytes = batch.iter().map(|s| s.data.len() as u64).sum();
        self.wrote(batch.len() as u64, bytes);
        self.timed(|| self.inner.write_vectored_at(batch))
    }

    fn read_vectored_at(&self, batch: &mut [IoVecMut<'_>]) -> Result<()> {
        self.read(batch.iter().map(|s| s.buf.len() as u64).sum());
        self.timed(|| self.inner.read_vectored_at(batch))
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn sync(&self) -> Result<()> {
        self.timed(|| self.inner.sync())
    }
}

/// One storage device: the backend the program sees, plus its counters
/// when the run is traced.
#[derive(Clone)]
pub struct Device {
    pub backend: Arc<dyn StorageBackend>,
    pub counting: Option<Arc<Counting>>,
}

impl Device {
    pub fn new(traced: bool) -> Device {
        if traced {
            let counting = Arc::new(Counting::default());
            Device {
                backend: counting.clone(),
                counting: Some(counting),
            }
        } else {
            Device {
                backend: Arc::new(MemBackend::new()),
                counting: None,
            }
        }
    }

    pub fn counts(&self) -> DevCounts {
        self.counting
            .as_ref()
            .map(|c| c.counts())
            .unwrap_or_default()
    }
}

/// A container on its device, opened through one connector configuration.
pub struct Rig {
    pub file: File,
    pub vol: Option<Arc<AsyncVol>>,
    pub data: Device,
    pub wal: Option<Device>,
}

impl Rig {
    /// A fresh, empty container on a fresh device.
    pub fn create(cfg: Cfg, traced: bool) -> Rig {
        let data = Device::new(traced);
        let container = Arc::new(Container::create(data.backend.clone()));
        Rig::connect(cfg, container, data, traced)
    }

    /// Open `container` (which lives on `data`) through `cfg`'s connector.
    pub fn connect(cfg: Cfg, container: Arc<Container>, data: Device, traced: bool) -> Rig {
        let mut wal = None;
        let vol: Option<Arc<AsyncVol>> = match cfg {
            Cfg::Sync => None,
            Cfg::Async => Some(Arc::new(AsyncVol::new())),
            Cfg::Ring => {
                let ring = Ring::new(data.backend.clone(), RingConfig::default());
                Some(Arc::new(AsyncVol::builder().ring(Arc::new(ring)).build()))
            }
            Cfg::Staged => {
                let dev = Device::new(traced);
                let vol = AsyncVol::builder()
                    .stage_to_device(dev.backend.clone())
                    .build();
                wal = Some(dev);
                Some(Arc::new(vol))
            }
        };
        let dynvol: Arc<dyn Vol> = match &vol {
            Some(v) => v.clone(),
            None => Arc::new(NativeVol::new()),
        };
        Rig {
            file: File::from_parts(container, dynvol),
            vol,
            data,
            wal,
        }
    }

    pub fn container(&self) -> &Arc<Container> {
        self.file.container()
    }

    pub fn vol_stats(&self) -> AsyncVolStats {
        self.vol.as_ref().map(|v| v.stats()).unwrap_or_default()
    }

    /// Close the file and its connector (joining the connector's
    /// threads), then reopen the container from the same device bytes.
    pub fn close_and_reopen(self) -> Result<File> {
        let Rig {
            file, vol, data, ..
        } = self;
        drop(file);
        drop(vol);
        let reopened = Container::open(data.backend)?;
        Ok(File::from_parts(
            Arc::new(reopened),
            Arc::new(NativeVol::new()),
        ))
    }
}

/// Which connector call a timed interval covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Create,
    Open,
    Write,
    Read,
    Prefetch,
    Wait,
    Flush,
}

impl Call {
    pub const COUNT: usize = 7;
}

/// Times every connector call the application thread makes in one
/// configuration's run and counts attempts and failures.
pub struct Probe {
    traced: bool,
    /// Seconds blocked in connector calls (`io_s`).
    pub io_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-call durations in microseconds, by [`Call`] (traced runs only).
    pub calls_us: [Vec<f64>; Call::COUNT],
    pub bytes_written: u64,
    pub bytes_read: u64,
}

impl Probe {
    pub fn new(traced: bool) -> Probe {
        Probe {
            traced,
            io_s: 0.0,
            attempted: 0,
            failed: 0,
            calls_us: Default::default(),
            bytes_written: 0,
            bytes_read: 0,
        }
    }

    /// Run one connector call, charging its duration to `io_s`.
    pub fn call<T>(&mut self, kind: Call, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.io_s += secs;
        self.attempted += 1;
        if out.is_err() {
            self.failed += 1;
        }
        if self.traced {
            self.calls_us[kind as usize].push(secs * 1e6);
        }
        out
    }
}
