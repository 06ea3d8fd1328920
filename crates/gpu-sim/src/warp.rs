//! The warp: the simulator's unit of execution.
//!
//! A Fermi SM issues one instruction for the 32 lanes of a warp at once, and
//! when every lane reads the same element the memory system fetches it once
//! and broadcasts it (one global transaction, or one shared-memory cycle with
//! no bank conflict). The cost model prices the bounding kernel on exactly
//! that assumption: its lanes read the same instance-level `JM`/`PTM`/`LM`
//! element at the same time. The executor makes the assumption structural —
//! a kernel body runs once per warp against a [`WarpCtx`], and
//! [`WarpCtx::read_broadcast`] fetches a cell once for a mask of lanes while
//! charging one access per lane in the mask. Per-space access totals are
//! therefore exactly what executing the lanes one by one would count; only
//! the host work of repeating a shared read and a divergent branch per lane
//! is gone.
//!
//! Lane masks are `u32` (bit `l` = lane `l`), so a warp holds at most
//! [`MAX_LANES`] lanes.

use crate::host::DeviceBuffer;

/// Most lanes a warp can hold: one bit of a `u32` lane mask each.
pub const MAX_LANES: usize = u32::BITS as usize;

/// One device allocation as seen by the executor during a launch: the moved
/// functional storage plus its access counters. Keeping the counters next to
/// the data makes the hot `read`/`write` path a single indexed lookup.
#[derive(Debug, Default)]
pub(crate) struct BufferCell {
    pub(crate) data: Vec<u32>,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
}

/// The execution context of one simulated warp: the only door a kernel has
/// to device memory.
///
/// Reads and writes go through this context so that (a) the functional result
/// is computed against the real device buffers and (b) every access is
/// counted against its buffer, and at the end of the launch against the
/// memory space the buffer is bound to.
pub struct WarpCtx<'a> {
    first_thread: usize,
    lanes: usize,
    /// `cells[buffer_id]` = the buffer's functional storage plus its flat
    /// access counters.
    cells: &'a mut [BufferCell],
}

impl<'a> WarpCtx<'a> {
    /// Creates the context for one warp (called by the executor).
    pub(crate) fn new(first_thread: usize, lanes: usize, cells: &'a mut [BufferCell]) -> Self {
        debug_assert!((1..=MAX_LANES).contains(&lanes));
        Self {
            first_thread,
            lanes,
            cells,
        }
    }

    /// Global index (`block * block_threads + thread`) of lane 0; lane `l`
    /// is thread `first_thread() + l`.
    pub fn first_thread(&self) -> usize {
        self.first_thread
    }

    /// Lanes in this warp: the device's warp size, or fewer in the last
    /// warp of a block whose size is not a multiple of it.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// One lane reads element `index` of `buffer`: one access.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds — an out-of-bounds device access is
    /// a kernel bug and must fail loudly in the simulator.
    #[inline(always)]
    pub fn read(&mut self, buffer: DeviceBuffer, index: usize) -> u32 {
        let cell = &mut self.cells[buffer.id()];
        cell.reads += 1;
        cell.data[index]
    }

    /// The lanes of the mask `lanes` all read element `index` of `buffer`:
    /// the cell is fetched once and one access is charged per lane in the
    /// mask.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline(always)]
    pub fn read_broadcast(&mut self, buffer: DeviceBuffer, index: usize, lanes: u32) -> u32 {
        debug_assert!(
            lanes.checked_shr(self.lanes as u32).unwrap_or(0) == 0,
            "lane mask {lanes:#x} names a lane past the warp's {}",
            self.lanes
        );
        let cell = &mut self.cells[buffer.id()];
        cell.reads += u64::from(lanes.count_ones());
        cell.data[index]
    }

    /// One lane writes `value` at `index` of `buffer` (kernel output),
    /// charged as a global write.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline(always)]
    pub fn write(&mut self, buffer: DeviceBuffer, index: usize, value: u32) {
        let cell = &mut self.cells[buffer.id()];
        cell.writes += 1;
        cell.data[index] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells_of(datas: Vec<Vec<u32>>) -> Vec<BufferCell> {
        datas
            .into_iter()
            .map(|data| BufferCell {
                data,
                ..BufferCell::default()
            })
            .collect()
    }

    #[test]
    fn reads_and_writes_hit_storage_and_counters() {
        let mut cells = cells_of(vec![vec![10, 20, 30], vec![0, 0]]);
        let buf0 = DeviceBuffer::for_test(0, 3, 4);
        let buf1 = DeviceBuffer::for_test(1, 2, 4);
        {
            let mut warp = WarpCtx::new(64, 32, &mut cells);
            assert_eq!(warp.read(buf0, 1), 20);
            warp.write(buf1, 0, 99);
            assert_eq!(warp.read(buf1, 0), 99);
            assert_eq!(warp.first_thread(), 64);
            assert_eq!(warp.lanes(), 32);
        }
        assert_eq!((cells[0].reads, cells[0].writes), (1, 0));
        assert_eq!((cells[1].reads, cells[1].writes), (1, 1));
        assert_eq!(cells[1].data[0], 99);
    }

    #[test]
    fn a_broadcast_charges_one_read_per_lane_in_the_mask() {
        let mut cells = cells_of(vec![vec![5, 6, 7]]);
        let buf = DeviceBuffer::for_test(0, 3, 4);
        let mut warp = WarpCtx::new(0, 32, &mut cells);
        assert_eq!(warp.read_broadcast(buf, 2, u32::MAX), 7);
        assert_eq!(warp.read_broadcast(buf, 0, 0b1011), 5);
        assert_eq!(warp.read_broadcast(buf, 1, 0), 6);
        assert_eq!(cells[0].reads, 32 + 3);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let mut cells = cells_of(vec![vec![1]]);
        let buf = DeviceBuffer::for_test(0, 1, 4);
        WarpCtx::new(0, 1, &mut cells).read(buf, 5);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_broadcast_panics() {
        let mut cells = cells_of(vec![vec![1]]);
        let buf = DeviceBuffer::for_test(0, 1, 4);
        WarpCtx::new(0, 1, &mut cells).read_broadcast(buf, 1, 1);
    }
}
