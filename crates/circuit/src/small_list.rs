//! A list of `Copy` items that keeps up to `N` of them in place.
//!
//! Most instructions act on one to three qubits. Keeping their operand
//! lists ([`crate::Qubits`]) and a DAG node's wire links inline spares a
//! heap allocation per gate. [`SmallList`] moves to the heap only past `N`
//! items, and it derefs to a slice, so readers index, iterate and compare
//! it as they would a `Vec`.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A list that holds up to `N` items inline and the rest of a longer list on
/// the heap. Derefs to `[T]`; equality and `Debug` see only the items,
/// never where they are stored.
#[derive(Clone)]
pub struct SmallList<T: Copy + Default, const N: usize>(Repr<T, N>);

/// Inline while `len <= N`, so the storage of a list is a function of its
/// length: the only way to grow one is [`SmallList::push`].
#[derive(Clone)]
enum Repr<T: Copy + Default, const N: usize> {
    Inline { len: u8, items: [T; N] },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> SmallList<T, N> {
    /// Inline capacity, checked at compile time to fit the `u8` length.
    const INLINE: usize = {
        assert!(N <= u8::MAX as usize, "inline capacity must fit a u8");
        N
    };

    /// Appends `item`, moving the list to the heap when it outgrows `N`.
    pub fn push(&mut self, item: T) {
        match &mut self.0 {
            Repr::Inline { len, items } if (*len as usize) < Self::INLINE => {
                items[*len as usize] = item;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut heap = Vec::with_capacity(2 * N + 1);
                heap.extend_from_slice(items);
                heap.push(item);
                self.0 = Repr::Heap(heap);
            }
            Repr::Heap(heap) => heap.push(item),
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallList<T, N> {
    /// An empty list.
    fn default() -> Self {
        SmallList(Repr::Inline {
            len: 0,
            items: [T::default(); N],
        })
    }
}

impl<T: Copy + Default, const N: usize> Deref for SmallList<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Heap(heap) => heap,
        }
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for SmallList<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..*len as usize],
            Repr::Heap(heap) => heap,
        }
    }
}

impl<T: Copy + Default, const N: usize> From<&[T]> for SmallList<T, N> {
    fn from(items: &[T]) -> Self {
        if items.len() <= Self::INLINE {
            let mut inline = [T::default(); N];
            inline[..items.len()].copy_from_slice(items);
            SmallList(Repr::Inline {
                len: items.len() as u8,
                items: inline,
            })
        } else {
            SmallList(Repr::Heap(items.to_vec()))
        }
    }
}

impl<T: Copy + Default, const N: usize, const M: usize> From<[T; M]> for SmallList<T, N> {
    fn from(items: [T; M]) -> Self {
        SmallList::from(&items[..])
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for SmallList<T, N> {
    /// Keeps the vector's buffer when the list is too long to sit inline.
    fn from(items: Vec<T>) -> Self {
        if items.len() <= Self::INLINE {
            SmallList::from(&items[..])
        } else {
            SmallList(Repr::Heap(items))
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallList<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = SmallList::default();
        for item in iter {
            list.push(item);
        }
        list
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SmallList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for SmallList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + PartialEq, const N: usize, const M: usize> PartialEq<[T; M]>
    for SmallList<T, N>
{
    fn eq(&self, other: &[T; M]) -> bool {
        **self == other[..]
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for SmallList<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type List = SmallList<usize, 3>;

    #[test]
    fn short_lists_stay_inline_and_long_ones_spill() {
        for len in 0..8 {
            let items: Vec<usize> = (10..10 + len).collect();
            let from_slice = List::from(&items[..]);
            let from_vec = List::from(items.clone());
            let collected: List = items.iter().copied().collect();
            for list in [&from_slice, &from_vec, &collected] {
                assert_eq!(**list, items[..]);
                assert_eq!(matches!(list.0, Repr::Inline { .. }), len <= 3, "len {len}");
            }
        }
    }

    #[test]
    fn compares_and_prints_as_its_items_wherever_they_are_stored() {
        let mut spilled = List::from([1, 2, 3]);
        spilled.push(4);
        let direct = List::from(vec![1, 2, 3, 4]);
        assert!(matches!(spilled.0, Repr::Heap(_)));
        assert_eq!(spilled, direct);
        assert_eq!(spilled, vec![1, 2, 3, 4]);
        assert_eq!(spilled, [1, 2, 3, 4]);
        assert_ne!(List::from([1, 2]), [1, 2, 3]);
        assert_eq!(format!("{spilled:?}"), format!("{:?}", vec![1, 2, 3, 4]));
        let mut inline = List::from([3, 1]);
        inline.reverse();
        inline[0] = 9;
        assert_eq!(inline, [9, 3]);
    }
}
