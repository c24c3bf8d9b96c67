//! The per-function layout index: where every attached instruction sits.
//!
//! [`Function::position_in_block`] scans the block, so asking it once per
//! instruction is quadratic in block length. Whatever needs positions for a
//! whole function (the verifier's dominance check, the PDG builders'
//! same-block orientation and body order) builds this index once instead:
//! one pass over [`Function::block_order`], one flat table sized by
//! [`Function::inst_arena_len`].

use crate::inst::InstId;
use crate::module::Function;

/// Where an attached instruction sits. Places order as the layout does:
/// by block (its rank in [`Function::block_order`]), then by position.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Place {
    /// Rank of the instruction's block in [`Function::block_order`].
    pub block_rank: u32,
    /// Index of the instruction in its block's instruction list.
    pub pos: u32,
}

/// A [`Place`] no attached instruction has: the mark of a detached id.
const HOLE: Place = Place {
    block_rank: u32::MAX,
    pos: u32::MAX,
};

/// The [`Place`] of every instruction of one function, by arena index.
/// Ids that were removed from their block, or never listed in one, are
/// holes: they have no place. The default value is the index of no
/// function: every id is a hole.
#[derive(Default)]
pub struct LayoutIndex {
    places: Vec<Place>,
    /// How many entries of `places` are not holes.
    n_placed: usize,
}

impl LayoutIndex {
    /// Room for the index of a body of `insts` arena slots.
    pub(crate) fn reserve(&mut self, insts: usize) {
        crate::cfg::room(&mut self.places, insts);
    }

    /// Index `f` as it is laid out right now.
    pub fn new(f: &Function) -> LayoutIndex {
        let mut index = LayoutIndex::default();
        index.rebuild(f);
        index
    }

    /// Make this the index of `f` as it is laid out right now, reusing the
    /// table this index held.
    pub fn rebuild(&mut self, f: &Function) {
        let places = &mut self.places;
        places.clear();
        places.resize(f.inst_arena_len(), HOLE);
        self.n_placed = 0;
        for (rank, &b) in f.block_order().iter().enumerate() {
            for (pos, &id) in f.block(b).insts.iter().enumerate() {
                let place = &mut places[id.index()];
                self.n_placed += usize::from(*place == HOLE);
                *place = Place {
                    block_rank: rank as u32,
                    pos: pos as u32,
                };
            }
        }
    }

    /// The place of `id`; `None` when it is detached.
    pub fn place(&self, id: InstId) -> Option<Place> {
        self.places.get(id.index()).copied().filter(|&p| p != HOLE)
    }

    /// Every instruction that has a place, ascending by arena index, with
    /// its exact length known up front.
    pub fn placed(&self) -> Placed<'_> {
        Placed {
            places: self.places.iter().enumerate(),
            left: self.n_placed,
        }
    }

    /// What [`Function::position_in_block`] answers, without the scan.
    pub fn position(&self, id: InstId) -> Option<usize> {
        self.place(id).map(|p| p.pos as usize)
    }
}

/// The instructions of a [`LayoutIndex`] that have a place: see
/// [`LayoutIndex::placed`].
pub struct Placed<'a> {
    places: std::iter::Enumerate<std::slice::Iter<'a, Place>>,
    left: usize,
}

impl Iterator for Placed<'_> {
    type Item = InstId;

    fn next(&mut self) -> Option<InstId> {
        let (i, _) = self.places.find(|&(_, &p)| p != HOLE)?;
        self.left -= 1;
        Some(InstId(i as u32))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Placed<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Inst};
    use crate::types::Type;
    use crate::value::Value;

    #[test]
    fn index_agrees_with_the_scan_and_leaves_holes_for_detached_ids() {
        let mut b = FunctionBuilder::new("f", vec![("x", Type::I64)], Type::I64);
        let entry = b.entry_block();
        let next = b.block("next");
        b.switch_to(entry);
        let dead = b.binop(BinOp::Add, Type::I64, b.arg(0), Value::const_i64(1));
        let live = b.binop(BinOp::Mul, Type::I64, b.arg(0), Value::const_i64(2));
        b.br(next);
        b.switch_to(next);
        b.ret(Some(live));
        let mut f = b.finish();
        let dead = dead.as_inst().expect("an instruction");
        f.remove_inst(dead);
        // Appended to the arena, placed first in the layout.
        let hoisted = f.insert_inst(
            entry,
            0,
            Inst::Bin {
                op: BinOp::Add,
                ty: Type::I64,
                lhs: Value::Arg(0),
                rhs: Value::Arg(0),
            },
        );
        let index = LayoutIndex::new(&f);
        for id in f.inst_ids() {
            assert_eq!(index.position(id), f.position_in_block(id));
        }
        assert_eq!(index.place(dead), None);
        let mut attached = f.inst_ids();
        attached.sort_unstable();
        assert_eq!(index.placed().len(), attached.len());
        assert_eq!(index.placed().collect::<Vec<_>>(), attached);
        assert_eq!(index.position(dead), f.position_in_block(dead));
        // Layout order, not arena order.
        let places: Vec<Place> = f
            .inst_ids()
            .into_iter()
            .map(|id| index.place(id).expect("attached"))
            .collect();
        assert!(places.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            index.place(hoisted),
            Some(Place {
                block_rank: 0,
                pos: 0
            })
        );
    }
}
