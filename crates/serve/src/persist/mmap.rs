//! Read-only memory mapping for model payloads (unix only).
//!
//! Fleet restarts load hundreds of binary bundles; `std::fs::read`
//! copies every byte through a heap buffer before parsing touches it.
//! Mapping the file instead lets the v2 parser (and its digest pass)
//! read straight from the page cache — the copy happens once, per page,
//! on fault. The mapping is private and read-only, torn down on drop,
//! and exposes plain `&[u8]`, so callers (`load_any`) are untouched by
//! where the bytes live.
//!
//! This is the workspace's only `unsafe` outside one unchecked Gram read
//! in the SPG support product (`mtrl-subspace`); it is confined to the
//! two raw syscall wrappers below and the slice view over a mapping
//! whose lifetime the RAII type owns.

use std::fs::File;
use std::io;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::AsRawFd;
use std::path::Path;

// Raw bindings to the mapping syscalls (no libc crate in this
// workspace). Constants are the Linux/x86-64 values, which also hold on
// the other unix targets the CI matrix covers.
extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

const PROT_READ: c_int = 1;
const MAP_PRIVATE: c_int = 2;

/// A read-only private mapping of a whole file, unmapped on drop.
pub struct MappedFile {
    ptr: *mut c_void,
    len: usize,
}

impl MappedFile {
    /// Map `path` read-only.
    ///
    /// # Errors
    /// I/O errors from open/metadata, and `InvalidInput` for an empty
    /// file (a zero-length mapping is not representable; callers fall
    /// back to `std::fs::read`).
    pub fn open(path: &Path) -> io::Result<MappedFile> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot map an empty file",
            ));
        }
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "file too large to map"))?;
        // SAFETY: std::ptr::null_mut lets the kernel pick the address;
        // the fd is valid for the duration of the call; PROT_READ +
        // MAP_PRIVATE cannot alias writable memory. The fd may close
        // right after — the mapping keeps the pages alive.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(MappedFile { ptr, len })
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
        // bytes, valid until Drop; the returned slice borrows `self`,
        // so it cannot outlive the mapping.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        // SAFETY: `(ptr, len)` is exactly what mmap returned; a failed
        // munmap leaks the mapping, which is the safe failure mode.
        unsafe {
            munmap(self.ptr, self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_file_contents_exactly() {
        let dir = std::env::temp_dir().join("mtrl_serve_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("payload.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &payload).unwrap();
        let map = MappedFile::open(&path).unwrap();
        assert_eq!(map.bytes(), &payload[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_is_rejected() {
        let dir = std::env::temp_dir().join("mtrl_serve_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        assert!(MappedFile::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(MappedFile::open(Path::new("/nonexistent/mtrl/x.bin")).is_err());
    }
}
