//! Peak heap: the system allocator behind a byte counter.
//!
//! The peak resident set (`VmHWM`) also counts memory the C allocator keeps
//! cached in per-thread arenas after the program freed it, and how much it
//! keeps depends on which worker thread happened to allocate what. On
//! `paper_sweep` that alone moves `VmHWM` between 8.5 and 12.5 MB from run
//! to run. The bytes the program holds do not move like that, so the
//! benchmark reports their peak.
//!
//! Only blocks of at least [`COUNTED_BYTES`] are counted. Likelihood grids,
//! steering tables and cache entries are larger, and skipping the
//! many small blocks keeps two worker threads from contending on the
//! counter: counting every block slowed `fleet_faulted` by 6–10%.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The smallest block the counter sees, bytes.
pub const COUNTED_BYTES: usize = 4096;

// Relaxed throughout: the counters are statistics and publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The bytes a block of `size` adds to the count.
fn counted(size: usize) -> usize {
    if size >= COUNTED_BYTES {
        size
    } else {
        0
    }
}

/// The system allocator, counting the live bytes of large blocks and
/// their peak.
pub struct Counting;

fn grew(bytes: usize) {
    if bytes > 0 {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if bytes > 0 {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` soundly, and returns `System`'s result; the
// counting never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract, which is `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(counted(layout.size()));
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(counted(layout.size()));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(counted(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrank(counted(layout.size()));
            grew(counted(new_size));
        }
        new
    }
}

/// The most bytes the process has held at once in counted blocks, MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_a_live_allocation() {
        let block = vec![1u8; 8 << 20];
        assert!(peak_mb() >= 8.0, "peak {} MiB", peak_mb());
        drop(block);
        assert_eq!(counted(COUNTED_BYTES - 1), 0);
        assert_eq!(counted(COUNTED_BYTES), COUNTED_BYTES);
    }
}
