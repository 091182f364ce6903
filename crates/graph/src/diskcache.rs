//! On-disk cache for [`Graph`]: the `MCPBCSR1` file format, an mmap-backed
//! loader, and the shared `Mapping`/`MapSegment` machinery that mapped
//! graph arrays borrow from.
//!
//! ## File format (`MCPBCSR1`)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"MCPBCSR1"
//! 8       4     format version (little-endian u32, currently 1)
//! 12      4     endian tag 0x0102_0304 written in native order — a file
//!               written on a different-endian host fails this check
//! 16      8     config hash (u64) — identity of the generator config that
//!               produced the graph; see `tier::LargeConfig::config_hash`
//! 24      8     n (u64, node count)
//! 32      8     m (u64, directed arc count)
//! 40      8     checksum: FNV-1a over the section area, folded 8 bytes at
//!               a time (the section area is always a whole number of words)
//! 48      ...   six sections, each padded to an 8-byte boundary:
//!               out_offsets (n+1)×u32, out_targets m×u32, out_weights m×f32,
//!               in_offsets (n+1)×u32, in_sources m×u32, in_weights m×f32
//! ```
//!
//! Invalidation is by *rejection*: [`load`] fails with a typed
//! [`CacheError::Mismatch`] when the magic, version, endian tag, config
//! hash, size fields, or checksum disagree with expectations, and the tier
//! loader falls back to rebuilding from the stream. Cache file names also
//! embed the config hash, so two configs never share a file.
//!
//! Loading prefers `mmap(2)` (via a minimal `extern "C"` binding — no
//! crates) so a reload costs no deserialization and pages lazily; on
//! non-unix hosts or mmap failure it falls back to reading the file into an
//! 8-aligned heap buffer. Both paths produce the same `Mapping` handle.

use crate::convert;
use crate::csr::{Arr, Graph};
use std::fs::File;
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::Arc;

/// Magic bytes at offset 0.
pub const MAGIC: &[u8; 8] = b"MCPBCSR1";
/// Current format version.
pub const FORMAT_VERSION: u32 = 1;
/// Endian tag; reads back differently on a foreign-endian host.
const ENDIAN_TAG: u32 = 0x0102_0304;
/// Header length in bytes; sections start here (8-aligned).
const HEADER_LEN: usize = 48;

/// Why a cache file could not be used.
#[derive(Debug)]
pub enum CacheError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file exists but is not a usable cache for the requested config
    /// (wrong magic/version/endianness/hash, truncated, or corrupt).
    Mismatch {
        /// Human-readable reason the file was rejected.
        detail: String,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache io error: {e}"),
            CacheError::Mismatch { detail } => write!(f, "cache rejected: {detail}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e)
    }
}

fn mismatch(detail: impl Into<String>) -> CacheError {
    CacheError::Mismatch {
        detail: detail.into(),
    }
}

/// A read-only byte buffer holding a whole cache file: either a private
/// file mapping or a heap buffer (the portability fallback). Shared via
/// `Arc` by every [`MapSegment`] carved out of it.
pub(crate) enum Mapping {
    #[cfg(unix)]
    Mmap { ptr: *mut u8, len: usize },
    /// Backing store is `Vec<u64>` so the base pointer is 8-aligned like a
    /// page-aligned mmap; `len` is the real byte length.
    Heap { words: Vec<u64>, len: usize },
}

// Invariant: the mapping is PROT_READ/MAP_PRIVATE and never written after
// construction, so sharing the raw pointer across threads is sound.
#[cfg(unix)]
unsafe impl Send for Mapping {}
#[cfg(unix)]
unsafe impl Sync for Mapping {}

impl Mapping {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Mapping::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Mapping::Heap { words, len } => {
                let all = unsafe {
                    std::slice::from_raw_parts(words.as_ptr() as *const u8, words.len() * 8)
                };
                &all[..*len]
            }
        }
    }

    fn is_mmap(&self) -> bool {
        match self {
            #[cfg(unix)]
            Mapping::Mmap { .. } => true,
            Mapping::Heap { .. } => false,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Mapping::Mmap { ptr, len } = self {
            unsafe {
                sys::munmap(*ptr as *mut core::ffi::c_void, *len);
            }
        }
    }
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Mapping({}, {} bytes)",
            if self.is_mmap() { "mmap" } else { "heap" },
            self.bytes().len()
        )
    }
}

#[cfg(unix)]
mod sys {
    use core::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// A typed window into a shared [`Mapping`]: `len` elements of `T` starting
/// at `byte_offset`. Every section offset in the file format is 8-aligned
/// and the mapping base is at least 8-aligned, so 4-byte `u32`/`f32` views
/// are always correctly aligned.
#[derive(Clone)]
pub(crate) struct MapSegment<T: Copy> {
    map: Arc<Mapping>,
    byte_offset: usize,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Copy> MapSegment<T> {
    fn new(map: Arc<Mapping>, byte_offset: usize, len: usize) -> MapSegment<T> {
        debug_assert_eq!(byte_offset % std::mem::align_of::<T>(), 0);
        MapSegment {
            map,
            byte_offset,
            len,
            _marker: PhantomData,
        }
    }

    pub(crate) fn as_slice(&self) -> &[T] {
        let bytes = &self.map.bytes()[self.byte_offset..][..self.len * std::mem::size_of::<T>()];
        // Invariant: byte_offset is 8-aligned within an 8-aligned base and
        // T is u32/f32, so the pointer is aligned for T.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, self.len) }
    }
}

impl<T: Copy> std::fmt::Debug for MapSegment<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MapSegment(+{}, {} elems)", self.byte_offset, self.len)
    }
}

/// Byte offsets and lengths of the six sections for an `(n, m)` graph, in
/// file order. Each section starts on an 8-byte boundary.
fn section_layout(n: usize, m: usize) -> [(usize, usize); 6] {
    let lens = [(n + 1) * 4, m * 4, m * 4, (n + 1) * 4, m * 4, m * 4];
    let mut out = [(0usize, 0usize); 6];
    let mut start = HEADER_LEN;
    for (slot, len) in out.iter_mut().zip(lens) {
        *slot = (start, len);
        start = (start + len).next_multiple_of(8);
    }
    out
}

fn file_len(n: usize, m: usize) -> usize {
    let [.., (off, len)] = section_layout(n, m);
    (off + len).next_multiple_of(8)
}

/// FNV-1a offset basis: the checksum of an empty section area.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a state `h` one 8-byte little-endian word
/// at a time, a short last word read as if zero-padded to 8 bytes. The
/// section area is whole words (every section start and the file end are
/// 8-aligned), so [`load`] folds it in one call, and [`save`] folds each
/// section alone, its zero pad implied by that last word.
fn fnv_fold_words(mut h: u64, bytes: &[u8]) -> u64 {
    let mut fold = |word: [u8; 8]| {
        h ^= u64::from_le_bytes(word);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        fold([
            word[0], word[1], word[2], word[3], word[4], word[5], word[6], word[7],
        ]);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        fold(last);
    }
    h
}

fn as_bytes<T: Copy>(s: &[T]) -> &[u8] {
    // Invariant: T is a plain scalar (u32/f32) with no padding.
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const u8, std::mem::size_of_val(s)) }
}

/// Serializes `g` to `path` in `MCPBCSR1` format, tagged with
/// `config_hash`. Writes via a sibling temp file + `sync_all` + rename so
/// a crashed writer never leaves a half-written cache behind. The output
/// bytes are a pure function of the graph and hash (padding is zeroed), so
/// re-saving an identical graph reproduces the file byte-for-byte.
///
/// Streamed: the checksum is folded section by section straight from the
/// graph's arrays, then the header and each section plus its zero pad are
/// written from those arrays too. No copy of the graph is made, so saving
/// allocates only the temp path, however large the graph.
pub fn save(g: &Graph, config_hash: u64, path: &Path) -> Result<(), CacheError> {
    let n = g.num_nodes();
    let m = g.num_edges();
    let (out_offsets, out_targets, out_weights, in_offsets, in_sources, in_weights) = g.arrays();
    let sections: [&[u8]; 6] = [
        as_bytes(out_offsets),
        as_bytes(out_targets),
        as_bytes(out_weights),
        as_bytes(in_offsets),
        as_bytes(in_sources),
        as_bytes(in_weights),
    ];
    debug_assert!(section_layout(n, m)
        .iter()
        .zip(sections)
        .all(|((_, len), bytes)| bytes.len() == *len));
    let checksum = sections
        .iter()
        .fold(FNV_OFFSET, |h, bytes| fnv_fold_words(h, bytes));

    let mut header = [0u8; HEADER_LEN];
    header[0..8].copy_from_slice(MAGIC);
    header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&ENDIAN_TAG.to_ne_bytes());
    header[16..24].copy_from_slice(&config_hash.to_le_bytes());
    header[24..32].copy_from_slice(&(n as u64).to_le_bytes());
    header[32..40].copy_from_slice(&(m as u64).to_le_bytes());
    header[40..48].copy_from_slice(&checksum.to_le_bytes());

    let tmp = path.with_extension("mcpbcsr.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&header)?;
        for bytes in sections {
            f.write_all(bytes)?;
            let pad = bytes.len().next_multiple_of(8) - bytes.len();
            f.write_all(&[0u8; 8][..pad])?;
        }
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Loads a cache file, verifying magic, version, endianness, `config_hash`,
/// sizes, and checksum before exposing any data. On unix the file is
/// mmap'd (`MAP_PRIVATE`, read-only) and the returned graph's arrays view
/// the mapping; elsewhere — or if mmap fails — the file is read into an
/// 8-aligned heap buffer with identical semantics.
pub fn load(path: &Path, config_hash: u64) -> Result<Graph, CacheError> {
    let mut file = File::open(path)?;
    let actual_len = file.metadata()?.len();
    if actual_len < HEADER_LEN as u64 {
        return Err(mismatch(format!(
            "file is {actual_len} bytes, shorter than the {HEADER_LEN}-byte header"
        )));
    }

    let map = Arc::new(map_file(&mut file, actual_len as usize)?);
    let bytes = map.bytes();
    let header = &bytes[..HEADER_LEN];
    if &header[0..8] != MAGIC {
        return Err(mismatch("bad magic (not an MCPBCSR file)"));
    }
    let read_u32 = |at: usize| {
        u32::from_le_bytes([header[at], header[at + 1], header[at + 2], header[at + 3]])
    };
    let read_u64 = |at: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&header[at..at + 8]);
        u64::from_le_bytes(b)
    };
    if read_u32(8) != FORMAT_VERSION {
        return Err(mismatch(format!(
            "format version {} (want {FORMAT_VERSION})",
            read_u32(8)
        )));
    }
    if u32::from_ne_bytes([header[12], header[13], header[14], header[15]]) != ENDIAN_TAG {
        return Err(mismatch("written on a host with different endianness"));
    }
    if read_u64(16) != config_hash {
        return Err(mismatch(format!(
            "config hash {:016x} (want {config_hash:016x})",
            read_u64(16)
        )));
    }
    let n_u64 = read_u64(24);
    let m_u64 = read_u64(32);
    let n = usize::try_from(n_u64).map_err(|_| mismatch("node count overflows usize"))?;
    let m = usize::try_from(m_u64).map_err(|_| mismatch("arc count overflows usize"))?;
    convert::node_count(n).map_err(|e| mismatch(e.to_string()))?;
    convert::arc_index(m).map_err(|e| mismatch(e.to_string()))?;
    let expect_len = file_len(n, m);
    if bytes.len() != expect_len {
        return Err(mismatch(format!(
            "file is {} bytes, want {expect_len} for n={n} m={m}",
            bytes.len()
        )));
    }
    let expect_sum = read_u64(40);
    let actual_sum = fnv_fold_words(FNV_OFFSET, &bytes[HEADER_LEN..]);
    if actual_sum != expect_sum {
        return Err(mismatch(format!(
            "checksum {actual_sum:016x} does not match header {expect_sum:016x}"
        )));
    }

    let [so, st, sw, io_, is_, iw] = section_layout(n, m);
    let seg_u32 = |(off, _): (usize, usize), len: usize| {
        Arr::from(MapSegment::<u32>::new(map.clone(), off, len))
    };
    let seg_f32 = |(off, _): (usize, usize), len: usize| {
        Arr::from(MapSegment::<f32>::new(map.clone(), off, len))
    };
    Ok(Graph::from_parts(
        n,
        seg_u32(so, n + 1),
        seg_u32(st, m),
        seg_f32(sw, m),
        seg_u32(io_, n + 1),
        seg_u32(is_, m),
        seg_f32(iw, m),
    ))
}

/// Maps (or reads) `len` bytes of `file`.
fn map_file(file: &mut File, len: usize) -> Result<Mapping, CacheError> {
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;
        if len > 0 {
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize != -1 && !ptr.is_null() {
                return Ok(Mapping::Mmap {
                    ptr: ptr as *mut u8,
                    len,
                });
            }
            // fall through to the heap read on mmap failure
        }
    }
    let mut words = vec![0u64; len.div_ceil(8)];
    let buf =
        unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, words.len() * 8) };
    file.read_exact(&mut buf[..len])?;
    Ok(Mapping::Heap { words, len })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Edge;

    /// 300 nodes with uneven weights. Every fifth node is isolated, so its
    /// rows are empty on both sides, and every arc out of a multiple of 3
    /// is doubled, so some rows hold parallel arcs.
    fn sample() -> Graph {
        let mut edges = Vec::new();
        for u in (0..300u32).filter(|u| u % 5 != 0) {
            for step in [1, 7, 31] {
                let v = (u + step) % 300;
                if v % 5 == 0 {
                    continue;
                }
                let e = Edge::new(u, v, 1.0 / (1 + (u + v) % 9) as f32);
                edges.push(e);
                if u % 3 == 0 {
                    edges.push(e);
                }
            }
        }
        Graph::from_edges(300, &edges).unwrap()
    }

    #[test]
    fn save_load_round_trips() {
        let g = sample();
        let dir = std::env::temp_dir().join("mcpb-diskcache-test-rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample300.mcpbcsr");
        save(&g, 0xabcd, &path).unwrap();
        // A clone shares the mapping and outlives the loaded original.
        let back = load(&path, 0xabcd).unwrap().clone();
        assert_eq!(back.is_mapped(), cfg!(unix));
        back.validate().unwrap();
        assert!(back.out_neighbors(5).is_empty() && back.in_neighbors(5).is_empty());
        assert_eq!(back.out_neighbors(3), [4, 4, 34, 34]);
        for v in 0..300u32 {
            assert_eq!(g.out_neighbors(v), back.out_neighbors(v));
            assert_eq!(g.out_weights(v), back.out_weights(v));
            assert_eq!(g.in_neighbors(v), back.in_neighbors(v));
            assert_eq!(g.in_weights(v), back.in_weights(v));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_hash_is_rejected() {
        let g = sample();
        let dir = std::env::temp_dir().join("mcpb-diskcache-test-hash");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample300.mcpbcsr");
        save(&g, 1, &path).unwrap();
        match load(&path, 2) {
            Err(CacheError::Mismatch { detail }) => assert!(detail.contains("config hash")),
            other => panic!("want a hash mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_is_rejected() {
        let g = sample();
        let dir = std::env::temp_dir().join("mcpb-diskcache-test-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample300.mcpbcsr");
        save(&g, 7, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        match load(&path, 7) {
            Err(CacheError::Mismatch { detail }) => assert!(detail.contains("checksum")),
            other => panic!("want a checksum mismatch, got {other:?}"),
        }
        // Truncation is also caught.
        bytes.truncate(mid);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&path, 7), Err(CacheError::Mismatch { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn saving_twice_is_byte_identical() {
        let g = sample();
        let dir = std::env::temp_dir().join("mcpb-diskcache-test-bytes");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.mcpbcsr");
        let b = dir.join("b.mcpbcsr");
        save(&g, 42, &a).unwrap();
        save(&g, 42, &b).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&b).unwrap();
    }
}
