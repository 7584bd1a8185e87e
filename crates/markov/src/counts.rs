//! Row-sparse integer transition counts: the one count store of both
//! chains.
//!
//! A chain counts transitions out of a *context* — the current state for
//! [`crate::SimpleMarkov`], the combined state `(prev, cur)` for
//! [`crate::TwoDependentMarkov`] — into each of `n` next states. The paper
//! (§II-B) estimates a chain from counts of *observed* transitions, and a
//! trained chain has seen few of its contexts, so only a seen context
//! owns a row: one slot per context names its row, and each seen row
//! holds `n` integer cells. A row is made by the first transition out of
//! its context, so every row holds a nonzero cell, and an unseen context
//! is exactly a row of zeros.
//!
//! Every bump also marks its row. A checkpoint's model frame holds every
//! row; the state frames after it hold only the rows marked since
//! (`store_touched`), and writing the next model frame clears the marks.

use crate::MAX_STATES;
use prepare_metrics::persist::{PersistError, Reader, Writer};
use std::fmt;

/// The slot of a context with no row.
const UNSEEN: u32 = u32::MAX;

/// Transition counts out of `contexts` contexts into `n` next states,
/// one row of `u64` cells per seen context.
#[derive(Clone)]
pub(crate) struct CountRows {
    /// The row width: the number of next states.
    n: usize,
    /// Per context, the index of its row, or [`UNSEEN`].
    slots: Vec<u32>,
    /// `n` cells per row, rows in the order their contexts were first
    /// seen (or, after a load, in context order).
    cells: Vec<u64>,
    /// Per row, whether it was bumped (or loaded as touched) since the
    /// marks were last cleared.
    touched: Vec<bool>,
    /// How many rows are marked.
    marked: usize,
}

impl fmt::Debug for CountRows {
    /// The seen rows by context: independent of the order the rows were
    /// made in, and of the marks.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries((0..self.slots.len()).filter_map(|ctx| Some((ctx, self.row(ctx)?))))
            .finish()
    }
}

impl PartialEq for CountRows {
    /// Equal counts in every context. The order the rows were made in and
    /// the marks are bookkeeping, not counts.
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.slots.len() == other.slots.len()
            && (0..self.slots.len()).all(|ctx| self.row(ctx) == other.row(ctx))
    }
}

impl CountRows {
    /// No counts, over `contexts` contexts of `n` cells each.
    pub(crate) fn new(contexts: usize, n: usize) -> Self {
        CountRows {
            n,
            slots: vec![UNSEEN; contexts],
            cells: Vec::new(),
            touched: Vec::new(),
            marked: 0,
        }
    }

    /// The cells of the row in `slot`, or `None` for [`UNSEEN`].
    fn row_in(&self, slot: u32) -> Option<&[u64]> {
        if slot == UNSEEN {
            return None;
        }
        let at = slot as usize * self.n;
        self.cells.get(at..at + self.n)
    }

    /// The counts out of `ctx`, or `None` when no transition out of it
    /// has been seen (every cell 0).
    pub(crate) fn row(&self, ctx: usize) -> Option<&[u64]> {
        self.row_in(*self.slots.get(ctx)?)
    }

    /// The cells of `ctx`'s row, made (all 0, unmarked) if it has none.
    fn row_mut(&mut self, ctx: usize) -> (&mut [u64], &mut bool) {
        let slot = match self.slots[ctx] {
            UNSEEN => {
                let slot = self.touched.len();
                // Rows never outnumber the contexts, at most MAX_STATES².
                self.slots[ctx] = slot as u32;
                let (len, cap) = (self.cells.len(), self.cells.capacity());
                if cap < len + self.n {
                    // Doubling, but never past the dense table's size: a
                    // chain that sees most of its contexts would otherwise
                    // hold more than the dense table did.
                    let dense = self.slots.len() * self.n;
                    self.cells
                        .reserve_exact((2 * cap).clamp(len + self.n, dense) - len);
                }
                self.cells.resize(len + self.n, 0);
                self.touched.push(false);
                slot
            }
            slot => slot as usize,
        };
        let at = slot * self.n;
        (&mut self.cells[at..at + self.n], &mut self.touched[slot])
    }

    /// Counts one transition out of `ctx` into `next`, and marks the row.
    pub(crate) fn bump(&mut self, ctx: usize, next: usize) {
        let (row, touched) = self.row_mut(ctx);
        row[next] = row[next].saturating_add(1);
        if !*touched {
            *touched = true;
            self.marked += 1;
        }
    }

    /// Clears every mark: the rows as they are now are the base the next
    /// marks are counted from.
    pub(crate) fn clear_marks(&mut self) {
        self.touched.fill(false);
        self.marked = 0;
    }

    /// Writes every context's row in context order, each sparse: its
    /// number of nonzero cells as a `u8`, then a `(u8 column, varint
    /// count)` pair per nonzero cell in increasing column order. An unseen
    /// context is its zero byte. No row count is written: the owner's
    /// state count fixes it. The bytes are those of the dense table's
    /// encoding ([`store_counts_reference`]).
    // xtask: hot-path
    pub(crate) fn store(&self, w: &mut Writer) {
        for &slot in &self.slots {
            match self.row_in(slot) {
                None => w.put_u8(0),
                Some(row) => store_row(w, row),
            }
        }
    }

    /// Writes the marked rows: their number as a varint, then per row, in
    /// context order, its context as a varint and the row as
    /// [`CountRows::store`] writes it — whole, not as a difference.
    // xtask: hot-path
    pub(crate) fn store_touched(&self, w: &mut Writer) {
        w.put_varint(self.marked as u64);
        for (ctx, &slot) in self.slots.iter().enumerate() {
            let marked = self.touched.get(slot as usize).copied();
            if let (Some(true), Some(row)) = (marked, self.row_in(slot)) {
                w.put_varint(ctx as u64);
                store_row(w, row);
            }
        }
    }

    /// Reads the `contexts` rows of `n` cells [`CountRows::store`] wrote,
    /// refusing a state count outside `1..=MAX_STATES`, a row claiming
    /// more than `n` nonzero cells, a column at or past `n` or not above
    /// the previous one, and a stored count of 0.
    pub(crate) fn load(
        r: &mut Reader<'_>,
        contexts: usize,
        n: usize,
    ) -> Result<Self, PersistError> {
        if !(1..=MAX_STATES).contains(&n) {
            return Err(PersistError::Invalid("Markov state count"));
        }
        let mut rows = CountRows::new(contexts, n);
        let mut cells = [0u64; MAX_STATES];
        for ctx in 0..contexts {
            let row = cells.get_mut(..n).unwrap_or_default();
            if load_row(r, row)? > 0 {
                rows.row_mut(ctx).0.copy_from_slice(row);
            }
        }
        Ok(rows)
    }

    /// Reads the rows [`CountRows::store_touched`] wrote over these,
    /// marking each. Refuses what [`CountRows::load`] refuses, a context
    /// out of range or not above the previous one, a row with no count,
    /// and a row with a cell below the one it replaces: counts only grow.
    pub(crate) fn load_touched(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        let rows = r.get_varint()?;
        let mut first_free = 0;
        let mut cells = [0u64; MAX_STATES];
        for _ in 0..rows {
            let ctx = usize::try_from(r.get_varint()?).unwrap_or(usize::MAX);
            if ctx < first_free || ctx >= self.slots.len() {
                return Err(PersistError::Invalid("Markov touched row context"));
            }
            first_free = ctx + 1;
            let row = cells.get_mut(..self.n).unwrap_or_default();
            if load_row(r, row)? == 0 {
                return Err(PersistError::Invalid("Markov touched row empty"));
            }
            let base = self.row(ctx).unwrap_or(&[]);
            if base.iter().zip(row.iter()).any(|(b, c)| c < b) {
                return Err(PersistError::Invalid("Markov touched row below its base"));
            }
            let (cells_now, touched) = self.row_mut(ctx);
            cells_now.copy_from_slice(row);
            if !*touched {
                *touched = true;
                self.marked += 1;
            }
        }
        Ok(())
    }
}

/// Writes one row: its nonzero cell count, patched in once the row's
/// `(column, count)` pairs are out.
fn store_row(w: &mut Writer, row: &[u64]) {
    let at = w.len();
    w.put_u8(0);
    // `n <= MAX_STATES`, so both the cell count and a column fit a byte.
    let mut nonzero = 0u8;
    for (col, &c) in row.iter().enumerate() {
        if c != 0 {
            w.put_u8(col as u8);
            w.put_varint(c);
            nonzero += 1;
        }
    }
    w.patch_u8(at, nonzero);
}

/// Reads one row [`store_row`] wrote into `row` (every cell set) and
/// returns its nonzero cell count.
fn load_row(r: &mut Reader<'_>, row: &mut [u64]) -> Result<usize, PersistError> {
    let nonzero = usize::from(r.get_u8()?);
    if nonzero > row.len() {
        return Err(PersistError::Invalid("Markov row nonzero count"));
    }
    row.fill(0);
    let mut first_free = 0;
    for _ in 0..nonzero {
        let col = usize::from(r.get_u8()?);
        let c = r.get_varint()?;
        if col < first_free {
            return Err(PersistError::Invalid("Markov count columns out of order"));
        }
        if c == 0 {
            return Err(PersistError::Invalid("Markov stored count of 0"));
        }
        let cell = row
            .get_mut(col)
            .ok_or(PersistError::Invalid("Markov count column"))?;
        *cell = c;
        first_free = col + 1;
    }
    Ok(nonzero)
}

#[cfg(test)]
impl CountRows {
    /// A store holding a dense table of `n`-cell rows, each cell
    /// truncated to a whole count as the dense encoding truncates it; a
    /// row of zeros stays unseen. No row is marked.
    pub(crate) fn from_dense(n: usize, dense: &[f64]) -> Self {
        let mut rows = CountRows::new(dense.len() / n, n);
        for (ctx, row) in dense.chunks_exact(n).enumerate() {
            if row.iter().any(|&c| c as u64 != 0) {
                for (cell, &c) in rows.row_mut(ctx).0.iter_mut().zip(row) {
                    *cell = c as u64;
                }
            }
        }
        rows
    }

    /// The dense table: `n` cells per context, in context order.
    pub(crate) fn dense(&self) -> Vec<f64> {
        (0..self.slots.len())
            .flat_map(|ctx| {
                let row = self.row(ctx);
                (0..self.n).map(move |j| row.map_or(0.0, |row| row[j] as f64))
            })
            .collect()
    }

    /// The marked contexts, in context order.
    pub(crate) fn touched_contexts(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&ctx| {
                let slot = self.slots[ctx];
                slot != UNSEEN && self.touched[slot as usize]
            })
            .collect()
    }
}

/// The dense-table encoder [`CountRows::store`] replaced, kept verbatim
/// as the referee of its bytes.
#[cfg(test)]
pub(crate) fn store_counts_reference(w: &mut Writer, counts: &[f64], n: usize) {
    for row in counts.chunks_exact(n) {
        let nonzero = || {
            row.iter()
                .map(|&c| c as u64)
                .enumerate()
                .filter(|&(_, c)| c != 0)
        };
        // `n <= MAX_STATES`, so both the cell count and a column fit a byte.
        w.put_u8(nonzero().count() as u8);
        for (col, c) in nonzero() {
            w.put_u8(col as u8);
            w.put_varint(c);
        }
    }
}
