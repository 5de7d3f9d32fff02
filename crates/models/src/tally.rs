//! Per-cell access tallies for the shared-memory contention audits.
//!
//! The paper prices a shared-memory step by contention: κ, the most
//! processors touching one location, in QSM, and the longest cell queue on
//! the QRQW PRAM. Both engines therefore audit one fact for every cell a
//! step touches: how many distinct processors read it and how many wrote
//! it. An [`AccessTally`] records that in O(accesses) and resets in
//! O(cells touched), so a step never pays for the cells it leaves alone.
//!
//! Each cell is four `u32`s side by side (reader count, writer count,
//! reading pid, writing pid), so recording an access touches one cache
//! line. The table is a zeroed allocation: an untouched cell reads as "no
//! access", and construction writes nothing per cell.

const READERS: usize = 0;
const WRITERS: usize = 1;
/// Offset from a count to the pid field that goes with it.
const PID: usize = 2;

/// What one step did to one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellAccess {
    /// Distinct processors that read the cell.
    pub readers: u64,
    /// Distinct processors that wrote the cell.
    pub writers: u64,
    /// Lowest reading pid (meaningful when `readers > 0`).
    pub reader: usize,
    /// Lowest writing pid (meaningful when `writers > 0`).
    pub writer: usize,
}

/// Distinct readers and writers per cell, with O(touched) reset.
///
/// Record one processor at a time, from the highest pid down: a repeat by
/// the processor being recorded is recognised by its pid, so each
/// processor counts once per cell, and the pid a cell keeps is the lowest
/// that touched it.
#[derive(Debug, Clone)]
pub struct AccessTally {
    cells: Vec<[u32; 4]>,
    /// Cells touched since the last [`AccessTally::clear`], in first-touch
    /// order.
    touched: Vec<usize>,
}

impl AccessTally {
    /// A tally over `n` cells, all untouched.
    pub fn new(n: usize) -> Self {
        Self {
            cells: vec![[0; 4]; n],
            touched: Vec::new(),
        }
    }

    /// Forget every access, in O(cells touched).
    pub fn clear(&mut self) {
        for &addr in &self.touched {
            self.cells[addr] = [0; 4];
        }
        self.touched.clear();
    }

    /// Record that processor `pid` read cell `addr`.
    #[inline]
    pub fn read(&mut self, pid: usize, addr: usize) {
        self.record(pid, addr, READERS);
    }

    /// Record that processor `pid` wrote cell `addr`.
    #[inline]
    pub fn write(&mut self, pid: usize, addr: usize) {
        self.record(pid, addr, WRITERS);
    }

    #[inline]
    fn record(&mut self, pid: usize, addr: usize, kind: usize) {
        let pid = u32::try_from(pid).expect("pid exceeds the tally's u32 range");
        let cell = &mut self.cells[addr];
        if cell[READERS] == 0 && cell[WRITERS] == 0 {
            self.touched.push(addr);
        }
        if cell[kind] == 0 || cell[kind + PID] != pid {
            cell[kind] += 1;
            cell[kind + PID] = pid;
        }
    }

    /// Cell `addr`'s accesses since the last clear.
    #[inline]
    fn get(&self, addr: usize) -> CellAccess {
        let [readers, writers, reader, writer] = self.cells[addr];
        CellAccess {
            readers: u64::from(readers),
            writers: u64::from(writers),
            reader: reader as usize,
            writer: writer as usize,
        }
    }

    /// Every touched cell with its accesses, in first-touch order (callers
    /// that report an address take the minimum).
    pub fn cells(&self) -> impl Iterator<Item = (usize, CellAccess)> + '_ {
        self.touched.iter().map(|&addr| (addr, self.get(addr)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(readers: u64, writers: u64, reader: usize, writer: usize) -> CellAccess {
        CellAccess {
            readers,
            writers,
            reader,
            writer,
        }
    }

    #[test]
    fn fresh_tally_has_no_touched_cells() {
        let t = AccessTally::new(4);
        assert_eq!(t.cells().count(), 0);
        assert_eq!(t.get(3), access(0, 0, 0, 0));
    }

    #[test]
    fn counts_distinct_processors_and_keeps_the_lowest_pid() {
        let mut t = AccessTally::new(8);
        for pid in (0..4).rev() {
            t.read(pid, 5);
            t.read(pid, 5);
            if pid % 2 == 1 {
                t.write(pid, 2);
                t.write(pid, 2);
            }
        }
        assert_eq!(t.get(5), access(4, 0, 0, 0));
        assert_eq!(t.get(2), access(0, 2, 0, 1));
        assert_eq!(t.cells().map(|(a, _)| a).collect::<Vec<_>>(), vec![5, 2]);
    }

    #[test]
    fn clear_resets_only_the_touched_cells() {
        let mut t = AccessTally::new(4);
        t.read(3, 1);
        t.write(3, 1);
        t.clear();
        assert_eq!(t.get(1), access(0, 0, 0, 0));
        assert_eq!(t.cells().count(), 0);
        t.write(0, 1);
        assert_eq!(t.cells().collect::<Vec<_>>(), vec![(1, access(0, 1, 0, 0))]);
    }
}
