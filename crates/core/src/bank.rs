//! The aspect bank: a two-dimensional registry *participating methods ×
//! concerns* holding aspect objects.
//!
//! The paper stores aspects in a two-dimensional array inside the
//! moderator (`aspectArray[OPEN][SYNC] = aspectObject`) and calls the
//! resulting structure an *aspect bank* — "a hierarchical two-dimensional
//! composition of the system in terms of aspects and components".
//! [`AspectBank`] is that structure with dynamic dimensions: methods get
//! dense indices as they are declared, and each method row keeps its
//! aspects in registration order (the order the moderator composes them
//! in).
//!
//! The moderator does not hold one bank for the whole system: each
//! coordination cell owns a bank holding the rows of its coordination
//! group (the methods joined by wake wiring under
//! [`Coordination::Sharded`], every row in the single shared cell under
//! [`Coordination::GlobalLock`]). A method's chain is therefore guarded
//! by its group's lock alone, which is what lets methods of disjoint
//! groups evaluate their chains concurrently. The bank
//! itself stays single-threaded and lock-free; whoever owns it provides
//! the exclusion, exactly as the moderator's cells do.
//!
//! [`Coordination::Sharded`]: crate::Coordination::Sharded
//! [`Coordination::GlobalLock`]: crate::Coordination::GlobalLock

use std::collections::HashMap;
use std::fmt;

use crate::aspect::Aspect;
use crate::concern::{Concern, MethodId};
use crate::error::RegistrationError;

/// Dense index assigned to a declared method; valid only for the bank
/// that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodIndex(pub(crate) usize);

impl MethodIndex {
    /// The raw index value.
    pub fn as_usize(self) -> usize {
        self.0
    }
}

pub(crate) struct MethodRow {
    pub(crate) id: MethodId,
    /// (concern, aspect) pairs in registration order.
    pub(crate) aspects: Vec<(Concern, Box<dyn Aspect>)>,
    /// Cached conjunction of the row's declared capability contracts
    /// ([`Aspect::capabilities`]): true iff every aspect declares
    /// `pure + veto_free + no_park`. Recomputed on every weave/unweave
    /// and *revoked* (set false without recomputation) when a contained
    /// panic falsifies the contract — the hot path must read one flag,
    /// never walk the chain.
    pub(crate) fast_eligible: bool,
}

impl MethodRow {
    fn recompute_fast_eligibility(&mut self) {
        self.fast_eligible = self
            .aspects
            .iter()
            .all(|(_, a)| a.capabilities().fast_path_eligible());
    }
}

/// Two-dimensional registry of aspects, indexed by (method, concern).
///
/// Usually owned by an [`AspectModerator`](crate::AspectModerator); usable
/// standalone when building custom coordination machinery.
///
/// ```
/// use amf_core::{AspectBank, Concern, MethodId, NoopAspect};
///
/// let mut bank = AspectBank::new();
/// let open = bank.declare(MethodId::new("open"));
/// bank.register(open, Concern::synchronization(), Box::new(NoopAspect)).unwrap();
/// assert!(bank.contains(open, &Concern::synchronization()));
/// ```
#[derive(Default)]
pub struct AspectBank {
    rows: Vec<MethodRow>,
    by_id: HashMap<MethodId, usize>,
}

impl fmt::Debug for AspectBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for row in &self.rows {
            let concerns: Vec<&str> = row.aspects.iter().map(|(c, _)| c.as_str()).collect();
            map.entry(&row.id.as_str(), &concerns);
        }
        map.finish()
    }
}

impl AspectBank {
    /// Creates an empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a participating method, returning its dense index.
    /// Idempotent: re-declaring an existing method returns the original
    /// index.
    pub fn declare(&mut self, id: MethodId) -> MethodIndex {
        if let Some(&ix) = self.by_id.get(&id) {
            return MethodIndex(ix);
        }
        let ix = self.rows.len();
        self.by_id.insert(id.clone(), ix);
        self.rows.push(MethodRow {
            id,
            aspects: Vec::new(),
            // An empty chain vacuously satisfies every contract.
            fast_eligible: true,
        });
        MethodIndex(ix)
    }

    /// Looks up the index of a declared method.
    pub fn index_of(&self, id: &MethodId) -> Option<MethodIndex> {
        self.by_id.get(id).copied().map(MethodIndex)
    }

    /// The method identifier at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` did not come from this bank.
    pub fn method_id(&self, index: MethodIndex) -> &MethodId {
        &self.rows[index.0].id
    }

    /// Number of declared methods.
    pub fn method_count(&self) -> usize {
        self.rows.len()
    }

    /// Iterates over declared method identifiers in declaration order.
    pub fn methods(&self) -> impl Iterator<Item = &MethodId> {
        self.rows.iter().map(|r| &r.id)
    }

    /// Stores `aspect` in the (method, concern) cell — the paper's
    /// `registerAspect`.
    ///
    /// # Errors
    ///
    /// [`RegistrationError::DuplicateConcern`] if the cell is occupied;
    /// use [`AspectBank::replace`] to overwrite.
    pub fn register(
        &mut self,
        method: MethodIndex,
        concern: Concern,
        aspect: Box<dyn Aspect>,
    ) -> Result<(), RegistrationError> {
        let row = &mut self.rows[method.0];
        if row.aspects.iter().any(|(c, _)| *c == concern) {
            return Err(RegistrationError::DuplicateConcern {
                method: row.id.clone(),
                concern,
            });
        }
        row.aspects.push((concern, aspect));
        row.recompute_fast_eligibility();
        Ok(())
    }

    /// Overwrites the (method, concern) cell, returning the previous
    /// occupant if any. Keeps the cell's original position in the
    /// composition order when replacing.
    pub fn replace(
        &mut self,
        method: MethodIndex,
        concern: Concern,
        aspect: Box<dyn Aspect>,
    ) -> Option<Box<dyn Aspect>> {
        let row = &mut self.rows[method.0];
        if let Some(slot) = row.aspects.iter_mut().find(|(c, _)| *c == concern) {
            let old = std::mem::replace(&mut slot.1, aspect);
            row.recompute_fast_eligibility();
            return Some(old);
        }
        row.aspects.push((concern, aspect));
        row.recompute_fast_eligibility();
        None
    }

    /// Removes and returns the aspect in the (method, concern) cell.
    ///
    /// # Errors
    ///
    /// [`RegistrationError::UnknownConcern`] if the cell is empty.
    pub fn deregister(
        &mut self,
        method: MethodIndex,
        concern: &Concern,
    ) -> Result<Box<dyn Aspect>, RegistrationError> {
        let row = &mut self.rows[method.0];
        match row.aspects.iter().position(|(c, _)| c == concern) {
            Some(pos) => {
                let aspect = row.aspects.remove(pos).1;
                row.recompute_fast_eligibility();
                Ok(aspect)
            }
            None => Err(RegistrationError::UnknownConcern {
                method: row.id.clone(),
                concern: concern.clone(),
            }),
        }
    }

    /// Whether the (method, concern) cell is occupied.
    pub fn contains(&self, method: MethodIndex, concern: &Concern) -> bool {
        self.rows[method.0]
            .aspects
            .iter()
            .any(|(c, _)| c == concern)
    }

    /// The concerns registered for `method`, in registration order.
    pub fn concerns(&self, method: MethodIndex) -> Vec<Concern> {
        self.rows[method.0]
            .aspects
            .iter()
            .map(|(c, _)| c.clone())
            .collect()
    }

    /// Number of aspects registered for `method`.
    pub fn concern_count(&self, method: MethodIndex) -> usize {
        self.rows[method.0].aspects.len()
    }

    /// Total number of occupied cells across all methods.
    pub fn aspect_count(&self) -> usize {
        self.rows.iter().map(|r| r.aspects.len()).sum()
    }

    /// Whether `method`'s cached capability conjunction currently admits
    /// the fast lane: every registered aspect declares
    /// `pure + veto_free + no_park` (see
    /// [`AspectCapabilities`](crate::AspectCapabilities)) and no
    /// contained panic has revoked the contract since the last weave.
    pub fn fast_path_eligible(&self, method: MethodIndex) -> bool {
        self.rows[method.0].fast_eligible
    }

    /// Recomputes `method`'s cached eligibility from its chain's current
    /// declarations — for callers that mutated aspect state out-of-band
    /// (e.g. via [`AspectBank::aspect_mut`]).
    pub(crate) fn recompute_fast_eligibility(&mut self, method: MethodIndex) {
        self.rows[method.0].recompute_fast_eligibility();
    }

    /// Mutable access to a method's composition chain, for the
    /// moderator's evaluation loop.
    pub(crate) fn row_mut(&mut self, method: MethodIndex) -> &mut MethodRow {
        &mut self.rows[method.0]
    }

    /// Removes every row, in index order — for a coordination cell whose
    /// rows move into another cell's bank.
    pub(crate) fn into_rows(self) -> Vec<MethodRow> {
        self.rows
    }

    /// Appends a row taken from another bank (see
    /// [`AspectBank::into_rows`]), keeping its aspects and cached
    /// eligibility.
    pub(crate) fn adopt(&mut self, row: MethodRow) -> MethodIndex {
        let ix = self.rows.len();
        self.by_id.insert(row.id.clone(), ix);
        self.rows.push(row);
        MethodIndex(ix)
    }

    /// Mutable access to one aspect, for callers that need to inspect or
    /// adjust aspect state out-of-band (e.g. administrative tooling).
    pub fn aspect_mut(
        &mut self,
        method: MethodIndex,
        concern: &Concern,
    ) -> Option<&mut (dyn Aspect + 'static)> {
        self.rows[method.0]
            .aspects
            .iter_mut()
            .find(|(c, _)| c == concern)
            .map(|(_, a)| a.as_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspect::{FnAspect, NoopAspect};

    fn bank_with_open() -> (AspectBank, MethodIndex) {
        let mut b = AspectBank::new();
        let ix = b.declare(MethodId::new("open"));
        (b, ix)
    }

    #[test]
    fn declare_is_idempotent() {
        let mut b = AspectBank::new();
        let a = b.declare(MethodId::new("open"));
        let b2 = b.declare(MethodId::new("open"));
        assert_eq!(a, b2);
        assert_eq!(b.method_count(), 1);
    }

    #[test]
    fn declare_assigns_dense_indices() {
        let mut b = AspectBank::new();
        let open = b.declare(MethodId::new("open"));
        let assign = b.declare(MethodId::new("assign"));
        assert_eq!(open.as_usize(), 0);
        assert_eq!(assign.as_usize(), 1);
        assert_eq!(b.method_id(assign).as_str(), "assign");
        assert_eq!(b.index_of(&MethodId::new("open")), Some(open));
        assert_eq!(b.index_of(&MethodId::new("close")), None);
    }

    #[test]
    fn register_fills_cell() {
        let (mut b, open) = bank_with_open();
        b.register(open, Concern::synchronization(), Box::new(NoopAspect))
            .unwrap();
        assert!(b.contains(open, &Concern::synchronization()));
        assert!(!b.contains(open, &Concern::authentication()));
        assert_eq!(b.aspect_count(), 1);
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let (mut b, open) = bank_with_open();
        b.register(open, Concern::synchronization(), Box::new(NoopAspect))
            .unwrap();
        let err = b
            .register(open, Concern::synchronization(), Box::new(NoopAspect))
            .unwrap_err();
        assert!(matches!(err, RegistrationError::DuplicateConcern { .. }));
    }

    #[test]
    fn replace_returns_previous() {
        let (mut b, open) = bank_with_open();
        assert!(b
            .replace(open, Concern::audit(), Box::new(FnAspect::new("v1")))
            .is_none());
        let old = b
            .replace(open, Concern::audit(), Box::new(FnAspect::new("v2")))
            .unwrap();
        assert_eq!(old.describe(), "v1");
        assert_eq!(b.concern_count(open), 1);
    }

    #[test]
    fn replace_preserves_composition_position() {
        let (mut b, open) = bank_with_open();
        b.register(open, Concern::synchronization(), Box::new(NoopAspect))
            .unwrap();
        b.register(open, Concern::audit(), Box::new(NoopAspect))
            .unwrap();
        b.replace(open, Concern::synchronization(), Box::new(NoopAspect));
        assert_eq!(
            b.concerns(open),
            vec![Concern::synchronization(), Concern::audit()],
            "replacing must not move the concern to the end"
        );
    }

    #[test]
    fn deregister_removes_and_returns() {
        let (mut b, open) = bank_with_open();
        b.register(open, Concern::audit(), Box::new(FnAspect::new("a")))
            .unwrap();
        let a = b.deregister(open, &Concern::audit()).unwrap();
        assert_eq!(a.describe(), "a");
        assert!(!b.contains(open, &Concern::audit()));
        assert!(matches!(
            b.deregister(open, &Concern::audit()),
            Err(RegistrationError::UnknownConcern { .. })
        ));
    }

    #[test]
    fn concerns_keep_registration_order() {
        let (mut b, open) = bank_with_open();
        for c in [
            Concern::synchronization(),
            Concern::authentication(),
            Concern::audit(),
        ] {
            b.register(open, c, Box::new(NoopAspect)).unwrap();
        }
        assert_eq!(
            b.concerns(open),
            vec![
                Concern::synchronization(),
                Concern::authentication(),
                Concern::audit()
            ]
        );
    }

    #[test]
    fn aspect_mut_gives_access() {
        let (mut b, open) = bank_with_open();
        b.register(open, Concern::audit(), Box::new(FnAspect::new("x")))
            .unwrap();
        assert_eq!(
            b.aspect_mut(open, &Concern::audit()).unwrap().describe(),
            "x"
        );
        assert!(b.aspect_mut(open, &Concern::quota()).is_none());
    }

    #[test]
    fn debug_lists_cells() {
        let (mut b, open) = bank_with_open();
        b.register(open, Concern::synchronization(), Box::new(NoopAspect))
            .unwrap();
        let s = format!("{b:?}");
        assert!(s.contains("open"));
        assert!(s.contains("sync"));
    }

    #[test]
    fn fast_eligibility_tracks_the_weave() {
        use crate::aspect::AspectCapabilities;
        let (mut b, open) = bank_with_open();
        // Empty chain: vacuously eligible.
        assert!(b.fast_path_eligible(open));
        // Noop declares every capability; a bare closure declares none.
        b.register(open, Concern::synchronization(), Box::new(NoopAspect))
            .unwrap();
        assert!(b.fast_path_eligible(open));
        b.register(open, Concern::audit(), Box::new(FnAspect::new("a")))
            .unwrap();
        assert!(!b.fast_path_eligible(open));
        // Replacing the undeclared aspect with a declared one restores
        // eligibility; unweaving it does too.
        b.replace(
            open,
            Concern::audit(),
            Box::new(FnAspect::new("a").declare_capabilities(AspectCapabilities::all())),
        );
        assert!(b.fast_path_eligible(open));
        // A contained panic revokes the contract until the next weave
        // (the moderator's `note_panic` clears the row's cached flag).
        b.row_mut(open).fast_eligible = false;
        assert!(!b.fast_path_eligible(open));
        b.deregister(open, &Concern::audit()).unwrap();
        assert!(b.fast_path_eligible(open));
    }

    #[test]
    fn methods_iterates_in_declaration_order() {
        let mut b = AspectBank::new();
        b.declare(MethodId::new("open"));
        b.declare(MethodId::new("assign"));
        let names: Vec<&str> = b.methods().map(|m| m.as_str()).collect();
        assert_eq!(names, vec!["open", "assign"]);
    }
}
