//! The storage pool / local SSD device.
//!
//! A thin stateful wrapper over [`SsdConfig`] that
//! additionally counts operations, so experiments can report how much work
//! spilled to storage (the paper's Fig 1a / 14 / 15 all hinge on the gap
//! between SSD spill and remote-memory paging).

use std::cell::RefCell;
use std::rc::Rc;

use crate::config::{SsdConfig, PAGE_SIZE};
use crate::faults::{FaultInjector, IntegrityError};
use crate::time::SimDuration;
use crate::trace::{page_seal, Lane, TraceEvent, Tracer};

/// Operation counters for one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SsdCounters {
    pub page_reads: u64,
    pub page_writes: u64,
    pub bulk_reads: u64,
    pub bulk_bytes_read: u64,
}

/// A cloneable handle to a simulated NVMe device.
#[derive(Debug, Clone)]
pub struct Ssd {
    cfg: SsdConfig,
    counters: Rc<RefCell<SsdCounters>>,
    tracer: Tracer,
    injector: Rc<RefCell<Option<FaultInjector>>>,
}

impl Ssd {
    pub fn new(cfg: SsdConfig) -> Self {
        Ssd::with_tracer(cfg, Tracer::disconnected())
    }

    /// A device whose operations are recorded as [`TraceEvent::SsdIo`] on
    /// the shared trace stream.
    pub fn with_tracer(cfg: SsdConfig, tracer: Tracer) -> Self {
        Ssd {
            cfg,
            counters: Rc::new(RefCell::new(SsdCounters::default())),
            tracer,
            injector: Rc::new(RefCell::new(None)),
        }
    }

    /// Attach a fault injector: from now on, operations consult the
    /// injector's plan for transient errors and latency storms. Shared
    /// across all clones of this device.
    pub fn set_injector(&self, inj: FaultInjector) {
        *self.injector.borrow_mut() = Some(inj);
    }

    /// Apply the active fault plan to one operation that would take `base`
    /// without faults. A latency storm or a grinding device (fail-slow)
    /// multiplies the device time; a transient error costs one failed
    /// attempt plus a device-level retry (recorded as a second
    /// [`TraceEvent::SsdIo`] so the trace shows the attempt → fault →
    /// retry sequence).
    fn disrupt(&self, base: SimDuration, write: bool, bytes: u64) -> SimDuration {
        let d = match self.injector.borrow().as_ref() {
            Some(inj) => inj.ssd_disruption(),
            None => return base,
        };
        let mut t = base * d.storm_factor as u64 * d.grind_factor as u64;
        if d.transient_error {
            self.tracer
                .emit(Lane::Storage, TraceEvent::SsdIo { write, bytes });
            t = t * 2;
        }
        t
    }

    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Page-in one 4 KB page via the swap path (queue depth 1).
    #[must_use]
    pub fn read_page(&self) -> SimDuration {
        self.counters.borrow_mut().page_reads += 1;
        self.tracer.emit(
            Lane::Storage,
            TraceEvent::SsdIo {
                write: false,
                bytes: PAGE_SIZE as u64,
            },
        );
        self.disrupt(self.cfg.page_io_time(), false, PAGE_SIZE as u64)
    }

    /// Page-out one 4 KB page via the swap path.
    #[must_use]
    pub fn write_page(&self) -> SimDuration {
        self.counters.borrow_mut().page_writes += 1;
        self.tracer.emit(
            Lane::Storage,
            TraceEvent::SsdIo {
                write: true,
                bytes: PAGE_SIZE as u64,
            },
        );
        self.disrupt(self.cfg.page_io_time(), true, PAGE_SIZE as u64)
    }

    /// Bulk sequential read of `bytes` (database load, graph ingest): one
    /// device latency, then streaming bandwidth.
    #[must_use]
    pub fn read_bulk(&self, bytes: usize) -> SimDuration {
        let mut c = self.counters.borrow_mut();
        c.bulk_reads += 1;
        c.bulk_bytes_read += bytes as u64;
        drop(c);
        self.tracer.emit(
            Lane::Storage,
            TraceEvent::SsdIo {
                write: false,
                bytes: bytes as u64,
            },
        );
        self.disrupt(self.cfg.sequential_time(bytes), false, bytes as u64)
    }

    /// Verify a page image read from the device against the checksum sealed
    /// when it was written. A mismatch is a latent sector error / torn
    /// write discovered at read time; the typed error is emitted as
    /// [`TraceEvent::ChecksumMismatch`] and handed to the kernel for repair.
    pub fn verify_read(
        &self,
        page: u64,
        bytes: &[u8],
        expected: u64,
    ) -> Result<(), IntegrityError> {
        if page_seal(bytes) == expected {
            return Ok(());
        }
        self.tracer
            .emit(Lane::Storage, TraceEvent::ChecksumMismatch { page });
        Err(IntegrityError { page })
    }

    pub fn counters(&self) -> SsdCounters {
        *self.counters.borrow()
    }

    pub fn reset_counters(&self) {
        *self.counters.borrow_mut() = SsdCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_io_is_latency_dominated() {
        let ssd = Ssd::new(SsdConfig::default());
        let t = ssd.read_page();
        assert!(t >= SsdConfig::default().qd1_latency);
        assert_eq!(ssd.counters().page_reads, 1);
    }

    #[test]
    fn bulk_read_amortizes_latency() {
        let ssd = Ssd::new(SsdConfig::default());
        let bulk = ssd.read_bulk(64 * PAGE_SIZE);
        let mut paged = SimDuration::ZERO;
        for _ in 0..64 {
            paged += ssd.read_page();
        }
        assert!(bulk < paged / 4, "bulk {bulk} should beat paged {paged}");
        assert_eq!(ssd.counters().bulk_bytes_read, (64 * PAGE_SIZE) as u64);
    }

    #[test]
    fn handles_share_counters_and_reset() {
        let a = Ssd::new(SsdConfig::default());
        let b = a.clone();
        let _ = a.write_page();
        let _ = b.read_page();
        let c = a.counters();
        assert_eq!((c.page_reads, c.page_writes), (1, 1));
        a.reset_counters();
        assert_eq!(b.counters(), SsdCounters::default());
    }
}
