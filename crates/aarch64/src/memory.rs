//! The process memory model: mapped segments with W⊕X permissions.

use crate::Fault;
use pacstack_pauth::VaLayout;
use std::fmt;

/// The fixed address-space layout every simulated process uses.
///
/// All regions sit inside the 39-bit virtual address space the paper's
/// Linux configuration provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Base of the code segment (read + execute).
    pub code_base: u64,
    /// Size of the code segment in bytes.
    pub code_size: u64,
    /// Base of the global data segment (read + write).
    pub data_base: u64,
    /// Size of the data segment in bytes.
    pub data_size: u64,
    /// *Top* of the main stack (grows down, read + write).
    pub stack_top: u64,
    /// Size of the stack in bytes.
    pub stack_size: u64,
    /// Base of the shadow-stack region (read + write; a real ShadowCallStack
    /// hides this address, which is exactly the weakness the paper notes).
    pub shadow_stack_base: u64,
    /// Size of the shadow-stack region.
    pub shadow_stack_size: u64,
}

/// The default layout.
pub const LAYOUT: Layout = Layout {
    code_base: 0x0040_0000,
    code_size: 0x0010_0000,
    data_base: 0x0060_0000,
    data_size: 0x0010_0000,
    stack_top: 0x7fff_0000,
    stack_size: 0x0010_0000,
    shadow_stack_base: 0x5000_0000,
    shadow_stack_size: 0x0004_0000,
};

/// Page permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Perms {
    /// Read + execute (code; not writable — W⊕X).
    ReadExecute,
    /// Read + write (data, stack).
    ReadWrite,
}

/// Bytes per page: the unit of allocation, and of copying when a CPU is
/// cloned.
const PAGE: usize = 4096;

/// One mapping, stored as 4 KiB pages. A page that was never written is
/// `None` and reads as zero; the first write allocates it.
#[derive(Debug, Clone)]
struct Segment {
    base: u64,
    perms: Perms,
    len: u64,
    pages: Vec<Option<Box<[u8; PAGE]>>>,
}

impl Segment {
    fn contains(&self, addr: u64, len: u64) -> bool {
        addr >= self.base && addr.saturating_add(len) <= self.base + self.len
    }

    fn page_mut(&mut self, index: usize) -> &mut [u8; PAGE] {
        self.pages[index].get_or_insert_with(|| Box::new([0; PAGE]))
    }

    /// Reads 8 bytes at segment offset `off`; an access that crosses a page
    /// boundary goes byte by byte.
    fn read_u64(&self, off: usize) -> u64 {
        let at = off % PAGE;
        let mut buf = [0u8; 8];
        if at <= PAGE - 8 {
            if let Some(page) = &self.pages[off / PAGE] {
                buf.copy_from_slice(&page[at..at + 8]);
            }
        } else {
            for (i, b) in buf.iter_mut().enumerate() {
                let o = off + i;
                *b = self.pages[o / PAGE]
                    .as_ref()
                    .map_or(0, |page| page[o % PAGE]);
            }
        }
        u64::from_le_bytes(buf)
    }

    /// Writes 8 bytes at segment offset `off`, allocating the pages touched.
    fn write_u64(&mut self, off: usize, value: u64) {
        let at = off % PAGE;
        if at <= PAGE - 8 {
            self.page_mut(off / PAGE)[at..at + 8].copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().into_iter().enumerate() {
                self.page_mut((off + i) / PAGE)[(off + i) % PAGE] = b;
            }
        }
    }
}

/// Byte-addressable memory composed of mapped segments.
///
/// Reads and writes outside any segment fault; writes to `ReadExecute`
/// segments fault (W⊕X, paper assumption A1); accesses through pointers
/// with non-canonical high bits raise translation faults (the mechanism
/// that converts a failed `aut*` into a crash).
///
/// Each segment is stored as 4 KiB pages, and a page that was never
/// written reads as zero and takes no space; cloning copies only the
/// written pages.
///
/// Every access first tries the segment the last write went to, then
/// searches the rest in order. Segments never overlap, so this memo
/// changes no result; it is part of the value, so a clone or a replaced
/// `Memory` carries its own.
///
/// # Examples
///
/// ```
/// use pacstack_aarch64::{Memory, Perms, LAYOUT};
///
/// let mut mem = Memory::with_standard_layout();
/// mem.write_u64(LAYOUT.stack_top - 8, 0xdead_beef)?;
/// assert_eq!(mem.read_u64(LAYOUT.stack_top - 8)?, 0xdead_beef);
/// assert!(mem.write_u64(LAYOUT.code_base, 0).is_err()); // W^X
/// # Ok::<(), pacstack_aarch64::Fault>(())
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    layout: VaLayout,
    segments: Vec<Segment>,
    /// Index of the segment the last write went to.
    last: usize,
}

impl Memory {
    /// Creates empty memory with the default VA layout and no mappings.
    pub fn new(layout: VaLayout) -> Self {
        Self {
            layout,
            segments: Vec::new(),
            last: 0,
        }
    }

    /// Creates memory with the standard process layout mapped: code (RX),
    /// data, stack and shadow-stack regions (RW).
    pub fn with_standard_layout() -> Self {
        let mut mem = Self::new(VaLayout::default());
        mem.map(LAYOUT.code_base, LAYOUT.code_size, Perms::ReadExecute);
        mem.map(LAYOUT.data_base, LAYOUT.data_size, Perms::ReadWrite);
        mem.map(
            LAYOUT.stack_top - LAYOUT.stack_size,
            LAYOUT.stack_size,
            Perms::ReadWrite,
        );
        mem.map(
            LAYOUT.shadow_stack_base,
            LAYOUT.shadow_stack_size,
            Perms::ReadWrite,
        );
        mem
    }

    /// Maps a zero-filled segment.
    ///
    /// # Panics
    ///
    /// Panics if the segment would overlap an existing mapping.
    pub fn map(&mut self, base: u64, size: u64, perms: Perms) {
        assert!(
            !self.overlaps(base, size),
            "segment {base:#x}+{size:#x} overlaps existing mapping"
        );
        self.segments.push(Segment {
            base,
            perms,
            len: size,
            pages: vec![None; (size as usize).div_ceil(PAGE)],
        });
    }

    /// Whether `base..base + size` overlaps an existing mapping, i.e.
    /// whether [`Memory::map`] would panic.
    pub fn overlaps(&self, base: u64, size: u64) -> bool {
        self.segments
            .iter()
            .any(|seg| base < seg.base + seg.len && seg.base < base + size)
    }

    /// The pointer layout used for canonicality checks.
    pub fn va_layout(&self) -> VaLayout {
        self.layout
    }

    fn check_canonical(&self, addr: u64) -> Result<(), Fault> {
        if self.layout.is_canonical(addr) {
            Ok(())
        } else {
            Err(Fault::TranslationFault { addr })
        }
    }

    /// The index of the segment holding all of `addr..addr + len`: the
    /// last-hit segment if it does, else the first that does.
    fn find(&self, addr: u64, len: u64) -> Result<usize, Fault> {
        match self.segments.get(self.last) {
            Some(seg) if seg.contains(addr, len) => Ok(self.last),
            _ => self
                .segments
                .iter()
                .position(|s| s.contains(addr, len))
                .ok_or(Fault::AccessFault { addr }),
        }
    }

    fn segment(&self, addr: u64, len: u64) -> Result<&Segment, Fault> {
        Ok(&self.segments[self.find(addr, len)?])
    }

    /// As [`Memory::segment`], remembering the segment for later accesses.
    fn segment_mut(&mut self, addr: u64, len: u64) -> Result<&mut Segment, Fault> {
        self.last = self.find(addr, len)?;
        Ok(&mut self.segments[self.last])
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Faults on non-canonical or unmapped addresses.
    pub fn read_u64(&self, addr: u64) -> Result<u64, Fault> {
        self.check_canonical(addr)?;
        let seg = self.segment(addr, 8)?;
        Ok(seg.read_u64((addr - seg.base) as usize))
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Faults on non-canonical, unmapped or non-writable addresses.
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), Fault> {
        self.check_canonical(addr)?;
        let seg = self.segment_mut(addr, 8)?;
        if seg.perms != Perms::ReadWrite {
            return Err(Fault::PermissionFault { addr });
        }
        seg.write_u64((addr - seg.base) as usize, value);
        Ok(())
    }

    /// Checks that an address may be fetched as an instruction.
    ///
    /// # Errors
    ///
    /// Translation fault for non-canonical PCs, fetch fault for canonical
    /// PCs outside an executable segment.
    pub fn check_execute(&self, pc: u64) -> Result<(), Fault> {
        if !self.layout.is_canonical(pc) {
            return Err(Fault::TranslationFault { addr: pc });
        }
        match self.segment(pc, 4) {
            Ok(seg) if seg.perms == Perms::ReadExecute => Ok(()),
            _ => Err(Fault::FetchFault { pc }),
        }
    }

    /// How many bytes from `base` on, at most `len`, pass
    /// [`Memory::check_execute`] at every address: each one canonical and
    /// followed by four bytes of the same executable segment.
    pub(crate) fn executable_from(&self, base: u64, len: u64) -> u64 {
        let seg = match self.segment(base, 4) {
            Ok(seg) if seg.perms == Perms::ReadExecute => seg,
            _ => return 0,
        };
        let len = len.min(seg.base + seg.len - 3 - base);
        let canonical = |addr| self.layout.is_canonical(addr);
        if len > 0 && canonical(base) && canonical(base + len - 1) {
            len
        } else {
            0
        }
    }

    /// Whether an address falls in a writable mapping — the adversary's
    /// reachable surface.
    pub fn is_writable(&self, addr: u64) -> bool {
        self.segments
            .iter()
            .any(|s| s.contains(addr, 8) && s.perms == Perms::ReadWrite)
    }
}

impl fmt::Display for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for seg in &self.segments {
            writeln!(
                f,
                "{:#010x}..{:#010x} {}",
                seg.base,
                seg.base + seg.len,
                match seg.perms {
                    Perms::ReadExecute => "r-x",
                    Perms::ReadWrite => "rw-",
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut mem = Memory::with_standard_layout();
        mem.write_u64(LAYOUT.data_base + 16, 0x0123_4567_89ab_cdef)
            .unwrap();
        assert_eq!(
            mem.read_u64(LAYOUT.data_base + 16).unwrap(),
            0x0123_4567_89ab_cdef
        );
    }

    #[test]
    fn wx_policy_blocks_code_writes() {
        let mut mem = Memory::with_standard_layout();
        assert_eq!(
            mem.write_u64(LAYOUT.code_base + 8, 1),
            Err(Fault::PermissionFault {
                addr: LAYOUT.code_base + 8
            })
        );
    }

    #[test]
    fn unmapped_access_faults() {
        let mem = Memory::with_standard_layout();
        assert_eq!(mem.read_u64(0x100), Err(Fault::AccessFault { addr: 0x100 }));
    }

    #[test]
    fn non_canonical_pointer_translation_faults() {
        let mem = Memory::with_standard_layout();
        // A pointer with a leftover PAC (or error bit) in its high bits.
        let bad = LAYOUT.data_base | (1u64 << 54);
        assert_eq!(
            mem.read_u64(bad),
            Err(Fault::TranslationFault { addr: bad })
        );
    }

    #[test]
    fn execute_checks_respect_segments() {
        let mem = Memory::with_standard_layout();
        assert!(mem.check_execute(LAYOUT.code_base).is_ok());
        assert_eq!(
            mem.check_execute(LAYOUT.data_base),
            Err(Fault::FetchFault {
                pc: LAYOUT.data_base
            })
        );
        let bad_pc = LAYOUT.code_base | (1u64 << 54);
        assert_eq!(
            mem.check_execute(bad_pc),
            Err(Fault::TranslationFault { addr: bad_pc })
        );
    }

    #[test]
    fn executable_prefix_ends_where_a_fetch_would_fault() {
        let mut mem = Memory::new(VaLayout::default());
        mem.map(LAYOUT.code_base, 0x1000, Perms::ReadExecute);
        mem.map(LAYOUT.data_base, 0x1000, Perms::ReadWrite);
        // Four bytes of the segment must follow every PC in the prefix.
        assert_eq!(mem.executable_from(LAYOUT.code_base, 0x2000), 0x1000 - 3);
        assert_eq!(mem.executable_from(LAYOUT.code_base, 0x10), 0x10);
        assert_eq!(mem.executable_from(LAYOUT.data_base, 0x10), 0);
        assert_eq!(mem.executable_from(LAYOUT.code_base - 4, 0x10), 0);
        // A segment that runs past the canonical range.
        let top = 1u64 << mem.va_layout().va_size();
        mem.map(top - 0x1000, 0x2000, Perms::ReadExecute);
        assert_eq!(mem.executable_from(top - 0x1000, 0x800), 0x800);
        assert_eq!(mem.executable_from(top - 0x1000, 0x2000), 0);
    }

    #[test]
    fn stack_region_is_writable_surface() {
        let mem = Memory::with_standard_layout();
        assert!(mem.is_writable(LAYOUT.stack_top - 64));
        assert!(!mem.is_writable(LAYOUT.code_base));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_map_panics() {
        let mut mem = Memory::with_standard_layout();
        mem.map(LAYOUT.code_base + 0x1000, 0x1000, Perms::ReadWrite);
    }

    #[test]
    fn straddling_access_faults() {
        let mem = Memory::with_standard_layout();
        // 4 bytes before the end of the data segment: an 8-byte read crosses
        // the segment boundary.
        let addr = LAYOUT.data_base + LAYOUT.data_size - 4;
        assert!(mem.read_u64(addr).is_err());
    }
}
