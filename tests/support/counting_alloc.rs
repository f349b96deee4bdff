//! A counting allocator for the suites that measure heap use: the system
//! allocator with per-thread counters in front of it, so the test harness's
//! own threads do not disturb a measurement. A suite includes it with
//! `#[path = "support/counting_alloc.rs"] mod counting_alloc;`, which also
//! installs it as that binary's global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator this file installs.
struct CountingAlloc;

thread_local! {
    /// Bytes this thread holds: allocated minus freed.
    pub static LIVE: Cell<isize> = const { Cell::new(0) };
    static GROSS: Cell<usize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Count a change of `delta` held bytes, made by an `alloc`/`realloc` call
/// asking for `request` bytes, or by a `dealloc`.
fn count(delta: isize, request: Option<usize>) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when there is nothing left to count into.
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
    let _ = GROSS.try_with(|g| g.set(g.get() + delta.max(0) as usize));
    if let Some(request) = request {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        let _ = LARGEST.try_with(|l| l.set(l.get().max(request)));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialized `Cell`s without
// destructors, so touching them never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, Some(layout.size()));
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), None);
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize, Some(new_size));
        // SAFETY: `ptr`/`layout` come from this allocator, `new_size` from
        // the caller, exactly as `System.realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` on this thread; return its value, the heap bytes it left
/// allocated, and the number of `alloc`/`realloc` calls it made.
pub fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (live, calls) = (LIVE.get(), CALLS.get());
    let value = f();
    let held = usize::try_from(LIVE.get() - live).expect("the measured closure frees nothing");
    (value, held, CALLS.get() - calls)
}

/// Run `f` on this thread; return its value, every byte it allocated
/// (freed since or not), and the number of `alloc`/`realloc` calls it made.
pub fn gross<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (bytes, calls) = (GROSS.get(), CALLS.get());
    let value = f();
    (value, GROSS.get() - bytes, CALLS.get() - calls)
}

/// Run `f` on this thread; return its value, the largest single
/// `alloc`/`realloc` request it made (in bytes, 0 for none), and the number
/// of such calls.
pub fn largest<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (outer, calls) = (LARGEST.replace(0), CALLS.get());
    let value = f();
    let largest = LARGEST.replace(outer.max(LARGEST.get()));
    (value, largest, CALLS.get() - calls)
}
