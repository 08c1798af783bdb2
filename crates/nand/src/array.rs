//! The flash array itself: byte-accurate page store with program/erase
//! discipline.

use bytes::Bytes;

use crate::block::{Block, BlockState};
use crate::fault::FaultPlan;
use crate::geometry::{BlockId, NandGeometry, Ppa};
use crate::stats::NandStats;
use crate::{NandError, Result};

/// Stored contents of one programmed page.
#[derive(Clone, Debug)]
struct PageStore {
    data: Bytes,
    spare: Bytes,
}

/// An in-memory NAND flash array.
///
/// Enforces the physical discipline real NAND imposes on the FTL:
///
/// * pages within a block are programmed in strictly increasing order,
/// * a programmed page cannot be reprogrammed until its block is erased,
/// * payloads must fit the data/spare areas,
/// * reads of never-programmed pages fail.
///
/// Payloads are reference-counted [`Bytes`]; reading hands back cheap clones
/// so the FTL cache can hold pages without copying.
pub struct NandArray {
    geometry: NandGeometry,
    blocks: Vec<Block>,
    pages: Vec<Option<PageStore>>,
    stats: NandStats,
    faults: FaultPlan,
}

impl NandArray {
    /// Build an array with the given geometry. Panics on invalid geometry —
    /// construction happens once, at device bring-up.
    pub fn new(geometry: NandGeometry) -> Self {
        geometry.validate().expect("invalid NAND geometry");
        let blocks = (0..geometry.blocks).map(|_| Block::new(geometry.pages_per_block)).collect();
        let pages = vec![None; geometry.total_pages() as usize];
        NandArray { geometry, blocks, pages, stats: NandStats::default(), faults: FaultPlan::new() }
    }

    #[inline]
    pub fn geometry(&self) -> &NandGeometry {
        &self.geometry
    }

    #[inline]
    pub fn stats(&self) -> NandStats {
        self.stats
    }

    /// Mutable access to the fault plan (tests only, but kept public so the
    /// integration suite can inject failures through the device).
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// Read-only view of the fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// State of `block`.
    pub fn block_state(&self, block: BlockId) -> Result<BlockState> {
        self.block_ref(block).map(Block::state)
    }

    /// Wear (erase count) of `block`.
    pub fn erase_count(&self, block: BlockId) -> Result<u64> {
        self.block_ref(block).map(Block::erase_count)
    }

    /// Next programmable page of `block`.
    pub fn write_ptr(&self, block: BlockId) -> Result<u32> {
        self.block_ref(block).map(Block::write_ptr)
    }

    #[inline]
    fn block_ref(&self, block: BlockId) -> Result<&Block> {
        self.blocks.get(block as usize).ok_or(NandError::BlockOutOfRange(block))
    }

    #[inline]
    fn page_index(&self, ppa: Ppa) -> usize {
        ppa.block as usize * self.geometry.pages_per_block as usize + ppa.page as usize
    }

    /// Program `ppa` with `data` (data area) and `spare` (spare area).
    ///
    /// `data` shorter than the page is allowed (the rest of the page reads
    /// back as absent trailing bytes — the FTL layout is length-prefixed).
    pub fn program(&mut self, ppa: Ppa, data: Bytes, spare: Bytes) -> Result<()> {
        if !self.geometry.contains(ppa) {
            return Err(NandError::OutOfRange(ppa));
        }
        if data.len() > self.geometry.page_size as usize {
            return Err(NandError::DataTooLarge {
                len: data.len(),
                page_size: self.geometry.page_size,
            });
        }
        if spare.len() > self.geometry.spare_size as usize {
            return Err(NandError::SpareTooLarge {
                len: spare.len(),
                spare_size: self.geometry.spare_size,
            });
        }
        let block = &self.blocks[ppa.block as usize];
        if block.is_programmed(ppa.page) {
            return Err(NandError::OverwriteWithoutErase(ppa));
        }
        if ppa.page != block.write_ptr() {
            return Err(NandError::ProgramOutOfOrder { ppa, expected_page: block.write_ptr() });
        }
        if !self.faults.is_empty() && self.faults.take_program_fault(ppa) {
            self.stats.program_failures += 1;
            // A failed program still consumes the page: real NAND marks it
            // unusable until erase, and the FTL must move on.
            self.blocks[ppa.block as usize].advance();
            return Err(NandError::ProgramFailed(ppa));
        }

        self.stats.page_programs += 1;
        self.stats.bytes_programmed += (data.len() + spare.len()) as u64;
        let idx = self.page_index(ppa);
        self.pages[idx] = Some(PageStore { data, spare });
        self.blocks[ppa.block as usize].advance();
        Ok(())
    }

    /// Read the data and spare areas of `ppa`.
    pub fn read(&mut self, ppa: Ppa) -> Result<(Bytes, Bytes)> {
        if !self.geometry.contains(ppa) {
            return Err(NandError::OutOfRange(ppa));
        }
        if !self.faults.is_empty() && self.faults.has_read_fault(ppa) {
            self.stats.read_failures += 1;
            return Err(NandError::ReadFailed(ppa));
        }
        let idx = self.page_index(ppa);
        match &self.pages[idx] {
            Some(store) => {
                self.stats.page_reads += 1;
                self.stats.bytes_read += (store.data.len() + store.spare.len()) as u64;
                Ok((store.data.clone(), store.spare.clone()))
            }
            None => Err(NandError::ReadUnwritten(ppa)),
        }
    }

    /// Peek at a page without charging a flash read (emulator-internal use:
    /// GC accounting paths that would batch reads charge them explicitly).
    pub fn peek(&self, ppa: Ppa) -> Option<(Bytes, Bytes)> {
        if !self.geometry.contains(ppa) {
            return None;
        }
        self.pages[self.page_index(ppa)].as_ref().map(|s| (s.data.clone(), s.spare.clone()))
    }

    /// Erase `block`, freeing every page payload.
    pub fn erase(&mut self, block: BlockId) -> Result<()> {
        if block >= self.geometry.blocks {
            return Err(NandError::BlockOutOfRange(block));
        }
        let start = block as usize * self.geometry.pages_per_block as usize;
        for slot in &mut self.pages[start..start + self.geometry.pages_per_block as usize] {
            *slot = None;
        }
        self.blocks[block as usize].erase();
        self.stats.block_erases += 1;
        Ok(())
    }

    /// Count of blocks currently in `state`.
    pub fn blocks_in_state(&self, state: BlockState) -> usize {
        self.blocks.iter().filter(|b| b.state() == state).count()
    }

    /// Bytes of live payload currently held (host-memory accounting).
    pub fn resident_bytes(&self) -> u64 {
        self.pages.iter().flatten().map(|s| (s.data.len() + s.spare.len()) as u64).sum()
    }

    /// Audit the array's own physical-discipline invariants.
    ///
    /// Checks that stored payloads agree with each block's write pointer:
    /// no payload may sit at or beyond the write pointer (a failed program
    /// consumes the page but stores nothing, so holes *below* it are
    /// legal), and payloads must fit the data/spare areas. Returns one
    /// [`rhik_audit::InvariantViolation::NandStateMismatch`] per offence.
    pub fn audit(&self) -> Vec<rhik_audit::InvariantViolation> {
        use rhik_audit::InvariantViolation;
        let mut out = Vec::new();
        for (b, block) in self.blocks.iter().enumerate() {
            let base = b * self.geometry.pages_per_block as usize;
            for p in 0..self.geometry.pages_per_block {
                let store = &self.pages[base + p as usize];
                let ppa = (b as u32, p);
                if p >= block.write_ptr() {
                    if store.is_some() {
                        out.push(InvariantViolation::NandStateMismatch {
                            ppa,
                            detail: "payload stored at or beyond the block write pointer",
                        });
                    }
                    continue;
                }
                if let Some(s) = store {
                    if s.data.len() > self.geometry.page_size as usize {
                        out.push(InvariantViolation::NandStateMismatch {
                            ppa,
                            detail: "stored data exceeds the page size",
                        });
                    }
                    if s.spare.len() > self.geometry.spare_size as usize {
                        out.push(InvariantViolation::NandStateMismatch {
                            ppa,
                            detail: "stored spare exceeds the spare size",
                        });
                    }
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for NandArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NandArray")
            .field("geometry", &self.geometry)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> NandArray {
        NandArray::new(NandGeometry::tiny())
    }

    fn bytes(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }

    #[test]
    fn program_read_roundtrip() {
        let mut a = array();
        let ppa = Ppa::new(0, 0);
        a.program(ppa, bytes(b"data"), bytes(b"sp")).unwrap();
        let (d, s) = a.read(ppa).unwrap();
        assert_eq!(&d[..], b"data");
        assert_eq!(&s[..], b"sp");
        assert_eq!(a.stats().page_programs, 1);
        assert_eq!(a.stats().page_reads, 1);
        assert_eq!(a.stats().bytes_programmed, 6);
    }

    #[test]
    fn sequential_program_enforced() {
        let mut a = array();
        let err = a.program(Ppa::new(0, 1), bytes(b"x"), Bytes::new()).unwrap_err();
        assert_eq!(err, NandError::ProgramOutOfOrder { ppa: Ppa::new(0, 1), expected_page: 0 });
        a.program(Ppa::new(0, 0), bytes(b"x"), Bytes::new()).unwrap();
        a.program(Ppa::new(0, 1), bytes(b"y"), Bytes::new()).unwrap();
    }

    #[test]
    fn overwrite_rejected_until_erase() {
        let mut a = array();
        let ppa = Ppa::new(2, 0);
        a.program(ppa, bytes(b"v1"), Bytes::new()).unwrap();
        assert_eq!(
            a.program(ppa, bytes(b"v2"), Bytes::new()).unwrap_err(),
            NandError::OverwriteWithoutErase(ppa)
        );
        a.erase(2).unwrap();
        a.program(ppa, bytes(b"v2"), Bytes::new()).unwrap();
        let (d, _) = a.read(ppa).unwrap();
        assert_eq!(&d[..], b"v2");
    }

    #[test]
    fn erase_frees_payloads_and_counts_wear() {
        let mut a = array();
        for p in 0..4 {
            a.program(Ppa::new(1, p), bytes(&[p as u8; 100]), Bytes::new()).unwrap();
        }
        assert!(a.resident_bytes() >= 400);
        a.erase(1).unwrap();
        assert_eq!(a.erase_count(1).unwrap(), 1);
        assert_eq!(a.read(Ppa::new(1, 0)).unwrap_err(), NandError::ReadUnwritten(Ppa::new(1, 0)));
        assert_eq!(a.resident_bytes(), 0);
    }

    #[test]
    fn payload_size_limits() {
        let mut a = array();
        let g = *a.geometry();
        let too_big = vec![0u8; g.page_size as usize + 1];
        assert!(matches!(
            a.program(Ppa::new(0, 0), Bytes::from(too_big), Bytes::new()),
            Err(NandError::DataTooLarge { .. })
        ));
        let spare_big = vec![0u8; g.spare_size as usize + 1];
        assert!(matches!(
            a.program(Ppa::new(0, 0), Bytes::new(), Bytes::from(spare_big)),
            Err(NandError::SpareTooLarge { .. })
        ));
        // Failed programs must not consume the write pointer.
        assert_eq!(a.write_ptr(0).unwrap(), 0);
    }

    #[test]
    fn out_of_range_addresses() {
        let mut a = array();
        assert!(matches!(a.read(Ppa::new(99, 0)), Err(NandError::OutOfRange(_))));
        assert!(matches!(a.erase(99), Err(NandError::BlockOutOfRange(99))));
        assert!(matches!(a.block_state(99), Err(NandError::BlockOutOfRange(99))));
    }

    #[test]
    fn block_state_tracking() {
        let mut a = array();
        assert_eq!(a.blocks_in_state(BlockState::Free), 8);
        a.program(Ppa::new(0, 0), bytes(b"x"), Bytes::new()).unwrap();
        assert_eq!(a.block_state(0).unwrap(), BlockState::Open);
        for p in 1..8 {
            a.program(Ppa::new(0, p), bytes(b"x"), Bytes::new()).unwrap();
        }
        assert_eq!(a.block_state(0).unwrap(), BlockState::Full);
        assert_eq!(a.blocks_in_state(BlockState::Free), 7);
    }

    #[test]
    fn injected_program_fault_consumes_page() {
        let mut a = array();
        let ppa = Ppa::new(0, 0);
        a.faults_mut().fail_program(ppa);
        assert_eq!(
            a.program(ppa, bytes(b"x"), Bytes::new()).unwrap_err(),
            NandError::ProgramFailed(ppa)
        );
        assert_eq!(a.stats().program_failures, 1);
        // Page consumed: next program goes to page 1 and succeeds.
        a.program(Ppa::new(0, 1), bytes(b"x"), Bytes::new()).unwrap();
        // The failed page reads as unwritten.
        assert_eq!(a.read(ppa).unwrap_err(), NandError::ReadUnwritten(ppa));
    }

    #[test]
    fn injected_read_fault_sticky() {
        let mut a = array();
        let ppa = Ppa::new(0, 0);
        a.program(ppa, bytes(b"x"), Bytes::new()).unwrap();
        a.faults_mut().fail_read(ppa);
        assert_eq!(a.read(ppa).unwrap_err(), NandError::ReadFailed(ppa));
        assert_eq!(a.read(ppa).unwrap_err(), NandError::ReadFailed(ppa));
        assert_eq!(a.stats().read_failures, 2);
        a.faults_mut().clear_read(ppa);
        assert!(a.read(ppa).is_ok());
    }

    #[test]
    fn peek_does_not_charge_reads() {
        let mut a = array();
        let ppa = Ppa::new(0, 0);
        a.program(ppa, bytes(b"x"), Bytes::new()).unwrap();
        let before = a.stats().page_reads;
        assert!(a.peek(ppa).is_some());
        assert!(a.peek(Ppa::new(0, 1)).is_none());
        assert_eq!(a.stats().page_reads, before);
    }
}
