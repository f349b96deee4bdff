//! Read-only byte mapping behind the pile reader.
//!
//! This is the **only** module in the crate that contains `unsafe` code: a
//! minimal unix FFI declaration of `mmap`/`munmap` (crates.io is unreachable
//! in the build environment, so no mmap crate can be vendored) plus the raw
//! slice reinterpretations needed to hand out `&[f64]` views of the mapped
//! bytes. Everything above this module works with safe `&[u8]`/`&[f64]`
//! borrows whose invariants are established here.
//!
//! # Unsafe audit note
//!
//! The shim is deliberately loom-free and miri-skippable: under `cfg(miri)`
//! (and on non-unix targets, or when `TSUBASA_PILE_NO_MMAP=1` is set) the
//! mapping is replaced by a plain positional-read into a `Vec<u64>`-backed
//! buffer, so the FFI calls never execute under the interpreter while the
//! alignment-sensitive slice casts still get exercised. There is no shared
//! mutable state: a [`PileMap`] is immutable after construction, which is why
//! the manual `Send`/`Sync` impls below are sound.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};

use tsubasa_core::error::{Error, Result};

/// `mmap`/`munmap` prototypes and the constants the shim needs, declared
/// directly against libc. `PROT_READ = 1` and `MAP_SHARED = 1` hold on every
/// unix libc this crate targets (Linux and macOS); `off_t` is 64-bit on both.
#[cfg(all(unix, not(miri)))]
mod ffi {
    use core::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_SHARED: c_int = 1;
    /// `MAP_FAILED` is `(void *) -1`.
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

enum Inner {
    /// A live `PROT_READ`/`MAP_SHARED` mapping of the pile file's validated
    /// prefix. `ptr` is page-aligned (so in particular 8-byte aligned) and
    /// `len` bytes long.
    #[cfg(all(unix, not(miri)))]
    Mapped {
        ptr: *mut core::ffi::c_void,
        len: usize,
    },
    /// Fallback: the validated prefix read into an owned buffer. Backing the
    /// buffer with `Vec<u64>` (not `Vec<u8>`) guarantees the same 8-byte
    /// alignment the mmap path gets from page alignment, so `f64` views are
    /// valid either way. The second field is the byte length (the vector may
    /// be padded up to a whole number of words).
    Owned(Vec<u64>, usize),
}

/// An immutable byte mapping of a pile file's validated prefix, either a real
/// `mmap` (unix) or an aligned owned buffer (non-unix, miri, mmap failure, or
/// `TSUBASA_PILE_NO_MMAP=1`).
pub struct PileMap {
    inner: Inner,
}

// SAFETY: the mapping is created with PROT_READ and never written through;
// after construction a PileMap is immutable, so sharing references across
// threads cannot race. The raw pointer in `Inner::Mapped` is owned by this
// value alone (munmap happens exactly once, in Drop), so moving the value to
// another thread is sound.
unsafe impl Send for PileMap {}
// SAFETY: all access goes through `&self` methods that only read; see above.
unsafe impl Sync for PileMap {}

impl PileMap {
    /// Map the first `len` bytes of `file`. Falls back to an owned
    /// aligned-buffer read when mapping is unavailable or refused; the read
    /// moves the descriptor's cursor, so a caller that also writes through
    /// `file` must not rely on where the cursor is.
    pub fn map(file: &File, len: usize) -> Result<Self> {
        if len == 0 || force_fallback() {
            return Self::read_into_owned(file, len);
        }
        #[cfg(all(unix, not(miri)))]
        {
            use std::os::unix::io::AsRawFd;
            // SAFETY: `addr` is null (kernel chooses), `len > 0` was checked
            // above, PROT_READ + MAP_SHARED is a valid read-only mapping
            // request, the fd is open for reading for the lifetime of this
            // call, and offset 0 is trivially page-aligned. A failed call
            // returns MAP_FAILED, which is handled, not dereferenced.
            let ptr = unsafe {
                ffi::mmap(
                    std::ptr::null_mut(),
                    len,
                    ffi::PROT_READ,
                    ffi::MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == ffi::MAP_FAILED {
                return Self::read_into_owned(file, len);
            }
            Ok(Self {
                inner: Inner::Mapped { ptr, len },
            })
        }
        #[cfg(not(all(unix, not(miri))))]
        {
            Self::read_into_owned(file, len)
        }
    }

    fn read_into_owned(mut file: &File, len: usize) -> Result<Self> {
        let words = len.div_ceil(8);
        let mut buf: Vec<u64> = vec![0; words];
        if len > 0 {
            // SAFETY: a `u64` buffer of `words` elements is exactly
            // `words * 8 >= len` bytes of initialized, writable memory, and
            // any byte pattern is a valid `u64`, so viewing it as `&mut [u8]`
            // for the read is sound.
            let dst = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), len) };
            file.seek(SeekFrom::Start(0))
                .and_then(|_| file.read_exact(dst))
                .map_err(|e| Error::Storage(format!("pile read fallback failed: {e}")))?;
        }
        Ok(Self {
            inner: Inner::Owned(buf, len),
        })
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        match &self.inner {
            #[cfg(all(unix, not(miri)))]
            Inner::Mapped { len, .. } => *len,
            Inner::Owned(_, len) => *len,
        }
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this map is a real `mmap` (false on the owned fallback).
    pub fn is_mmap(&self) -> bool {
        match &self.inner {
            #[cfg(all(unix, not(miri)))]
            Inner::Mapped { .. } => true,
            Inner::Owned(..) => false,
        }
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(all(unix, not(miri)))]
            Inner::Mapped { ptr, len } => {
                // SAFETY: ptr/len describe a live PROT_READ mapping owned by
                // self (unmapped only in Drop), so `len` bytes are readable
                // for the lifetime of `&self`; u8 has no invalid patterns.
                unsafe { std::slice::from_raw_parts(ptr.cast::<u8>(), *len) }
            }
            Inner::Owned(buf, len) => {
                // SAFETY: the buffer holds at least `len` initialized bytes
                // (see read_into_owned); u8 has no invalid patterns.
                unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), *len) }
            }
        }
    }

    /// A zero-copy `&[f64]` view of `count` values starting `byte_off` bytes
    /// into the mapping. Errors (rather than panicking) on out-of-bounds or
    /// misaligned requests so format bugs surface as typed storage errors.
    pub fn f64s(&self, byte_off: usize, count: usize) -> Result<&[f64]> {
        let bytes = self.bytes();
        let need = count
            .checked_mul(8)
            .and_then(|b| b.checked_add(byte_off))
            .ok_or_else(|| Error::Storage("pile f64 view overflows".into()))?;
        if need > bytes.len() {
            return Err(Error::Storage(format!(
                "pile f64 view out of bounds: need {need} bytes, mapped {}",
                bytes.len()
            )));
        }
        let base = bytes[byte_off..].as_ptr();
        if !(base as usize).is_multiple_of(std::mem::align_of::<f64>()) {
            return Err(Error::Storage(format!(
                "pile f64 view misaligned at byte offset {byte_off}"
            )));
        }
        // SAFETY: bounds were checked against the live mapping, alignment was
        // checked at runtime just above (the format guarantees it: the base
        // is page-aligned or Vec<u64>-aligned and all payload offsets are
        // multiples of 8), every bit pattern is a valid f64, and the returned
        // lifetime is tied to `&self`, which keeps the mapping alive.
        Ok(unsafe { std::slice::from_raw_parts(base.cast::<f64>(), count) })
    }
}

impl Drop for PileMap {
    fn drop(&mut self) {
        match &self.inner {
            #[cfg(all(unix, not(miri)))]
            Inner::Mapped { ptr, len } => {
                // SAFETY: ptr/len are exactly what mmap returned for this
                // value and are unmapped exactly once, here. All borrows of
                // the mapping are tied to `&self` and have ended by Drop.
                let _ = unsafe { ffi::munmap(*ptr, *len) };
            }
            Inner::Owned(..) => {}
        }
    }
}

/// Whether the owned-buffer fallback is forced: always under miri, or when
/// `TSUBASA_PILE_NO_MMAP=1` is set (useful for A/B-testing the two paths).
fn force_fallback() -> bool {
    if cfg!(miri) {
        return true;
    }
    std::env::var("TSUBASA_PILE_NO_MMAP").is_ok_and(|v| v == "1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tsubasa-pilemap-{}-{tag}", std::process::id()))
    }

    fn write_f64_file(path: &std::path::Path, values: &[f64]) -> File {
        let mut f = File::create(path).unwrap();
        for v in values {
            f.write_all(&v.to_le_bytes()).unwrap();
        }
        f.sync_all().unwrap();
        File::open(path).unwrap()
    }

    #[test]
    fn mmap_and_fallback_agree_bit_for_bit() {
        let path = temp_path("agree");
        let values: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
        let file = write_f64_file(&path, &values);
        let len = values.len() * 8;

        let mapped = PileMap::map(&file, len).unwrap();
        let file2 = File::open(&path).unwrap();
        let owned = PileMap::read_into_owned(&file2, len).unwrap();
        assert!(!owned.is_mmap());
        assert_eq!(mapped.bytes(), owned.bytes());
        assert_eq!(
            mapped.f64s(0, values.len()).unwrap(),
            owned.f64s(0, values.len()).unwrap()
        );
        assert_eq!(mapped.f64s(8, 3).unwrap(), &values[1..4]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_map_is_empty() {
        let path = temp_path("empty");
        let file = write_f64_file(&path, &[]);
        let map = PileMap::map(&file, 0).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        assert_eq!(map.f64s(0, 0).unwrap(), &[] as &[f64]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_bounds_and_misaligned_views_are_errors() {
        let path = temp_path("oob");
        let file = write_f64_file(&path, &[1.0, 2.0]);
        let map = PileMap::map(&file, 16).unwrap();
        assert!(map.f64s(0, 3).is_err());
        assert!(map.f64s(16, 1).is_err());
        assert!(map.f64s(4, 1).is_err(), "offset 4 is not 8-aligned");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn map_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PileMap>();
    }
}
