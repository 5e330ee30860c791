//! A short run of `Copy` values kept off the heap while it is short.
//!
//! An R-cache line's subentries and a bus transaction's per-granule
//! payload both hold `B2/B1` values, and `B2/B1` is small in every
//! configuration the paper studies. [`InlineVec`] holds up to `N` values
//! in place and moves to the heap only beyond that, so filling a line or
//! carrying a block over the bus allocates nothing at those sizes. It
//! derefs to a slice, so it reads and indexes like the `Vec` it replaces.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Up to `N` values in place, more on the heap.
#[derive(Clone)]
pub enum InlineVec<T: Copy + Default, const N: usize> {
    /// The first `len` of `items` are the values.
    Inline {
        /// Values held.
        len: u8,
        /// Storage; entries from `len` on are unused.
        items: [T; N],
    },
    /// More than `N` values.
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Appends `value`, moving to the heap once `N` are held.
    pub fn push(&mut self, value: T) {
        match self {
            InlineVec::Inline { len, items } if usize::from(*len) < N => {
                items[usize::from(*len)] = value;
                *len += 1;
            }
            InlineVec::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * N.max(1));
                spilled.extend_from_slice(items);
                spilled.push(value);
                *self = InlineVec::Heap(spilled);
            }
            InlineVec::Heap(values) => values.push(value),
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        const { assert!(N <= u8::MAX as usize, "the inline length is a u8") };
        InlineVec::Inline {
            len: 0,
            items: [T::default(); N],
        }
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            InlineVec::Inline { len, items } => &items[..usize::from(*len)],
            InlineVec::Heap(values) => values,
        }
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            InlineVec::Inline { len, items } => &mut items[..usize::from(*len)],
            InlineVec::Heap(values) => values,
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = InlineVec::default();
        for value in iter {
            out.push(value);
        }
        out
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + Default, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;

    fn into_iter(self) -> IntoIter<T, N> {
        IntoIter {
            values: self,
            next: 0,
        }
    }
}

/// The values of an [`InlineVec`], by value.
pub struct IntoIter<T: Copy + Default, const N: usize> {
    values: InlineVec<T, N>,
    next: usize,
}

impl<T: Copy + Default, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let value = *self.values.get(self.next)?;
        self.next += 1;
        Some(value)
    }
}

/// Equal when the values are, wherever they are held.
impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

/// Prints as the slice of values, like a `Vec`.
impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity_then_spills_in_order() {
        let mut v: InlineVec<u32, 2> = InlineVec::default();
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        assert!(matches!(v, InlineVec::Inline { len: 2, .. }));
        v.push(3);
        assert!(matches!(v, InlineVec::Heap(_)));
        assert_eq!(*v, [1, 2, 3]);
        v[0] = 9;
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![9, 2, 3]);
    }

    #[test]
    fn equality_and_debug_ignore_where_values_live() {
        let inline: InlineVec<u8, 4> = [1, 2].into_iter().collect();
        let heap = InlineVec::<u8, 4>::Heap(vec![1, 2]);
        assert_eq!(inline, heap);
        assert_ne!(inline, [1, 2, 3].into_iter().collect());
        assert_eq!(format!("{inline:?}"), format!("{:?}", vec![1u8, 2]));
        let empty: InlineVec<u8, 0> = [7].into_iter().collect();
        assert_eq!(*empty, [7]);
    }
}
