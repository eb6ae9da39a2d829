//! Flat sparse functional memory.
//!
//! This is the *functional* memory image: descriptor sets, acceleration
//! structures, framebuffers and shader scratch all live in one 64-bit
//! address space. The *timing* of accesses is modelled separately by
//! `vksim-mem`; the functional interpreter only needs correct values.

use vksim_stats::FxHashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Byte-granular functional memory access, with multi-byte little-endian
/// accessors provided on top.
///
/// The interpreter executes against `&mut dyn MemIo` so the same functional
/// semantics run against two backings:
///
/// * [`SimMemory`] — the flat image, used by functional-only execution;
/// * [`OverlayMem`] — a read-only view of the image plus a private
///   [`WriteOverlay`], used by the two-phase cycle engine so concurrent SMs
///   never mutate the shared image mid-cycle (writes are applied serially,
///   in SM-id order, at the cycle's drain phase).
pub trait MemIo {
    /// Reads one byte.
    fn read_u8(&self, addr: u64) -> u8;

    /// Writes one byte.
    fn write_u8(&mut self, addr: u64, value: u8);

    /// Reads a little-endian u32 (byte-granular, may straddle pages).
    fn read_u32(&self, addr: u64) -> u32 {
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr + i as u64);
        }
        u32::from_le_bytes(bytes)
    }

    /// Writes a little-endian u32.
    fn write_u32(&mut self, addr: u64, value: u32) {
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr + i as u64, *b);
        }
    }

    /// Reads an f32.
    fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an f32.
    fn write_f32(&mut self, addr: u64, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Reads a little-endian u64.
    fn read_u64(&self, addr: u64) -> u64 {
        (self.read_u32(addr) as u64) | ((self.read_u32(addr + 4) as u64) << 32)
    }

    /// Writes a little-endian u64.
    fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_u32(addr, value as u32);
        self.write_u32(addr + 4, (value >> 32) as u32);
    }
}

/// Sparse paged byte-addressable memory with little-endian 32-bit accessors.
///
/// Unwritten memory reads as zero, like freshly allocated device memory in
/// the simulator.
///
/// # Example
///
/// ```
/// use vksim_isa::SimMemory;
/// let mut m = SimMemory::new();
/// m.write_f32(0x1000, 3.5);
/// assert_eq!(m.read_f32(0x1000), 3.5);
/// assert_eq!(m.read_u32(0xdead_beef), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SimMemory {
    pages: FxHashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl SimMemory {
    /// Creates an empty memory image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        page[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads a little-endian u32 (byte-granular, may straddle pages).
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr + i as u64);
        }
        u32::from_le_bytes(bytes)
    }

    /// Writes a little-endian u32.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr + i as u64, *b);
        }
    }

    /// Reads an f32.
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an f32.
    pub fn write_f32(&mut self, addr: u64, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: u64) -> u64 {
        (self.read_u32(addr) as u64) | ((self.read_u32(addr + 4) as u64) << 32)
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_u32(addr, value as u32);
        self.write_u32(addr + 4, (value >> 32) as u32);
    }

    /// Copies a byte slice into memory.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr + i as u64, *b);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.read_u8(addr + i as u64)).collect()
    }

    /// Number of resident pages (footprint diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Serializes the memory image for a machine-state snapshot: resident
    /// pages sorted by page number, each as the page index plus its 4 KiB
    /// of bytes. Sorting makes the encoding independent of `HashMap`
    /// iteration order, so identical images produce identical bytes.
    pub fn save(&self, e: &mut vksim_snapshot::Enc) {
        let mut pages: Vec<u64> = self.pages.keys().copied().collect();
        pages.sort_unstable();
        e.seq(pages.len());
        for p in pages {
            e.u64(p);
            e.bytes(&self.pages[&p][..]);
        }
    }

    /// Restores an image written by [`SimMemory::save`].
    ///
    /// # Errors
    ///
    /// Propagates decoder errors; a page payload that is not exactly
    /// 4 KiB is malformed.
    pub fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        let n = d.seq()?;
        let mut pages = FxHashMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let idx = d.u64()?;
            let raw = d.bytes()?;
            let arr: Box<[u8; PAGE_SIZE]> = raw.into_boxed_slice().try_into().map_err(|_| {
                vksim_snapshot::SnapError::Malformed(format!("page {idx} is not {PAGE_SIZE} bytes"))
            })?;
            pages.insert(idx, arr);
        }
        Ok(SimMemory { pages })
    }
}

impl MemIo for SimMemory {
    fn read_u8(&self, addr: u64) -> u8 {
        SimMemory::read_u8(self, addr)
    }

    fn write_u8(&mut self, addr: u64, value: u8) {
        SimMemory::write_u8(self, addr, value)
    }
}

/// A per-SM buffer of functional-memory writes made during one simulated
/// cycle, keyed by byte address (last write to an address wins, matching
/// in-order execution within the SM).
///
/// The two-phase cycle engine gives every SM an [`OverlayMem`] view for its
/// tick; the overlays are then applied to the shared [`SimMemory`] in SM-id
/// order, so the final image is identical for any worker-thread count.
#[derive(Clone, Debug, Default)]
pub struct WriteOverlay {
    bytes: FxHashMap<u64, u8>,
}

impl WriteOverlay {
    /// Creates an empty overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when no writes are buffered.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Number of buffered byte writes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Applies all buffered writes to `mem` and clears the overlay.
    ///
    /// Each address holds its final value, so application order between
    /// distinct addresses cannot matter; cross-SM ordering is the caller's
    /// contract (apply overlays in SM-id order).
    pub fn apply_to(&mut self, mem: &mut SimMemory) {
        for (&addr, &value) in &self.bytes {
            mem.write_u8(addr, value);
        }
        self.bytes.clear();
    }
}

/// Read-through view: reads hit the overlay first, then the base image;
/// writes land only in the overlay. See [`WriteOverlay`].
#[derive(Debug)]
pub struct OverlayMem<'a> {
    base: &'a SimMemory,
    overlay: &'a mut WriteOverlay,
}

impl<'a> OverlayMem<'a> {
    /// A view of `base` buffering writes into `overlay`.
    pub fn new(base: &'a SimMemory, overlay: &'a mut WriteOverlay) -> Self {
        OverlayMem { base, overlay }
    }
}

impl MemIo for OverlayMem<'_> {
    fn read_u8(&self, addr: u64) -> u8 {
        if self.overlay.bytes.is_empty() {
            return self.base.read_u8(addr);
        }
        match self.overlay.bytes.get(&addr) {
            Some(&b) => b,
            None => self.base.read_u8(addr),
        }
    }

    fn write_u8(&mut self, addr: u64, value: u8) {
        self.overlay.bytes.insert(addr, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = SimMemory::new();
        assert_eq!(m.read_u32(0), 0);
        assert_eq!(m.read_u8(u64::MAX - 4), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn u32_roundtrip_and_endianness() {
        let mut m = SimMemory::new();
        m.write_u32(0x100, 0x1234_5678);
        assert_eq!(m.read_u8(0x100), 0x78);
        assert_eq!(m.read_u8(0x103), 0x12);
        assert_eq!(m.read_u32(0x100), 0x1234_5678);
    }

    #[test]
    fn f32_roundtrip_preserves_bits() {
        let mut m = SimMemory::new();
        m.write_f32(8, -0.0);
        assert_eq!(m.read_u32(8), 0x8000_0000);
        m.write_f32(8, f32::NAN);
        assert!(m.read_f32(8).is_nan());
    }

    #[test]
    fn cross_page_access() {
        let mut m = SimMemory::new();
        let addr = (1 << 12) - 2; // straddles first page boundary
        m.write_u32(addr, 0xAABB_CCDD);
        assert_eq!(m.read_u32(addr), 0xAABB_CCDD);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn u64_roundtrip() {
        let mut m = SimMemory::new();
        m.write_u64(0x2000, 0xDEAD_BEEF_0123_4567);
        assert_eq!(m.read_u64(0x2000), 0xDEAD_BEEF_0123_4567);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let mut m = SimMemory::new();
        m.write_bytes(0x50, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_bytes(0x50, 5), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn snapshot_round_trip_is_exact_and_sorted() {
        let mut m = SimMemory::new();
        m.write_u32(0x9_0000, 0xCAFE_F00D);
        m.write_u8(0x42, 7);
        m.write_u64((1 << 12) - 4, u64::MAX); // straddles a page boundary
        let mut e = vksim_snapshot::Enc::new();
        m.save(&mut e);
        let bytes = e.into_bytes();
        let back = SimMemory::load(&mut vksim_snapshot::Dec::new(&bytes)).unwrap();
        assert_eq!(back.read_u32(0x9_0000), 0xCAFE_F00D);
        assert_eq!(back.read_u8(0x42), 7);
        assert_eq!(back.read_u64((1 << 12) - 4), u64::MAX);
        assert_eq!(back.resident_pages(), m.resident_pages());
        // Re-encoding is byte-identical (sorted pages, no map-order leak).
        let mut e2 = vksim_snapshot::Enc::new();
        back.save(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);
    }

    #[test]
    fn overlay_reads_through_to_base() {
        let mut base = SimMemory::new();
        base.write_u32(0x100, 0xCAFE_F00D);
        let mut ov = WriteOverlay::new();
        let view = OverlayMem::new(&base, &mut ov);
        assert_eq!(view.read_u32(0x100), 0xCAFE_F00D);
        assert_eq!(view.read_u32(0x9000), 0);
    }

    #[test]
    fn overlay_buffers_writes_without_touching_base() {
        let mut base = SimMemory::new();
        base.write_u32(0x100, 1);
        let mut ov = WriteOverlay::new();
        let mut view = OverlayMem::new(&base, &mut ov);
        view.write_u32(0x100, 2);
        // The view observes its own write; the base image is untouched.
        assert_eq!(view.read_u32(0x100), 2);
        assert_eq!(base.read_u32(0x100), 1);
        assert_eq!(ov.len(), 4);
    }

    #[test]
    fn overlay_apply_flushes_and_clears() {
        let mut base = SimMemory::new();
        let mut ov = WriteOverlay::new();
        let mut view = OverlayMem::new(&base, &mut ov);
        view.write_f32(0x40, 2.5);
        view.write_u32(0x40, 7); // last write to the address wins
        ov.apply_to(&mut base);
        assert_eq!(base.read_u32(0x40), 7);
        assert!(ov.is_empty());
    }

    #[test]
    fn overlay_partial_write_merges_with_base() {
        let mut base = SimMemory::new();
        base.write_u32(0x200, 0xAABB_CCDD);
        let mut ov = WriteOverlay::new();
        let mut view = OverlayMem::new(&base, &mut ov);
        view.write_u8(0x201, 0xEE); // only one byte overlaid
        assert_eq!(view.read_u32(0x200), 0xAABB_EEDD);
    }
}
