//! The fabric's short TLP lists.
//!
//! Almost every list the fabric passes between its stages — what an
//! interposer forwards or answers, what an endpoint replies — holds one
//! packet or none: a register write is absorbed, a register read gets one
//! completion, a protected write is passed on. [`TlpList`] keeps that one
//! packet inline and moves to a `Vec` only when a second packet joins (a
//! sealed device write with its tag record, a pump burst), so a control
//! round trip builds its lists without touching the heap.

use crate::tlp::Tlp;
use std::fmt;

/// An ordered list of TLPs that holds a single packet inline and spills
/// to a `Vec` for bursts. Reads as a slice (`len`, `is_empty`, indexing,
/// `iter`) and iterates by value in order.
#[derive(Default)]
pub struct TlpList(Slots);

enum Slots {
    One(Tlp),
    /// Empty when the `Vec` is; an empty list never allocates.
    Many(Vec<Tlp>),
}

impl Default for Slots {
    fn default() -> Self {
        Slots::Many(Vec::new())
    }
}

impl TlpList {
    /// An empty list.
    pub fn new() -> Self {
        TlpList::default()
    }

    /// A list of one packet, held inline.
    pub fn one(tlp: Tlp) -> Self {
        TlpList(Slots::One(tlp))
    }

    /// Appends a packet. The second packet moves both into a `Vec`.
    pub fn push(&mut self, tlp: Tlp) {
        match &mut self.0 {
            Slots::Many(all) if all.capacity() == 0 => self.0 = Slots::One(tlp),
            Slots::Many(all) => all.push(tlp),
            Slots::One(_) => {
                let mut all = self.spill(1);
                all.push(tlp);
                self.0 = Slots::Many(all);
            }
        }
    }

    /// Moves every packet of `more` to the end of this list. Like
    /// `Vec::append`, `more` keeps its storage for the next packets it
    /// collects.
    pub fn append(&mut self, more: &mut Vec<Tlp>) {
        match &mut self.0 {
            _ if more.is_empty() => {}
            Slots::Many(all) if all.capacity() == 0 && more.len() == 1 => {
                self.0 = Slots::One(more.pop().expect("one packet"));
            }
            Slots::Many(all) => all.append(more),
            Slots::One(_) => {
                let mut all = self.spill(more.len());
                all.append(more);
                self.0 = Slots::Many(all);
            }
        }
    }

    /// Takes the inline packet into a `Vec` with room for `more` after
    /// it (and for at least four packets, as a growing `Vec` would).
    fn spill(&mut self, more: usize) -> Vec<Tlp> {
        let mut all = Vec::with_capacity((1 + more).max(4));
        if let Slots::One(first) = std::mem::take(&mut self.0) {
            all.push(first);
        }
        all
    }

    /// Moves every packet of `more` to the end of this list, taking over
    /// `more`'s storage when this list is empty.
    pub fn join(&mut self, more: TlpList) {
        if self.is_empty() {
            *self = more;
        } else {
            more.for_each(|tlp| self.push(tlp));
        }
    }

    /// Hands each packet to `f`, in order. The inline packet moves
    /// straight into `f`, with no iterator in between.
    pub fn for_each(self, mut f: impl FnMut(Tlp)) {
        match self.0 {
            Slots::One(tlp) => f(tlp),
            Slots::Many(all) => all.into_iter().for_each(f),
        }
    }

    /// The lists `f` makes of each packet, joined in order. A single
    /// packet's list is `f`'s own, with no join.
    pub fn flat_map(self, mut f: impl FnMut(Tlp) -> TlpList) -> TlpList {
        match self.0 {
            Slots::One(tlp) => f(tlp),
            Slots::Many(all) => {
                let mut out = TlpList::new();
                all.into_iter().for_each(|tlp| out.join(f(tlp)));
                out
            }
        }
    }

    /// The packets as a `Vec`, in order.
    pub fn into_vec(self) -> Vec<Tlp> {
        match self.0 {
            Slots::One(tlp) => vec![tlp],
            Slots::Many(all) => all,
        }
    }
}

impl std::ops::Deref for TlpList {
    type Target = [Tlp];

    fn deref(&self) -> &[Tlp] {
        match &self.0 {
            Slots::One(tlp) => std::slice::from_ref(tlp),
            Slots::Many(all) => all,
        }
    }
}

impl fmt::Debug for TlpList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl From<Vec<Tlp>> for TlpList {
    fn from(all: Vec<Tlp>) -> Self {
        TlpList(Slots::Many(all))
    }
}

impl From<Option<Tlp>> for TlpList {
    fn from(tlp: Option<Tlp>) -> Self {
        tlp.map_or_else(TlpList::new, TlpList::one)
    }
}

impl IntoIterator for TlpList {
    type Item = Tlp;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter(match self.0 {
            Slots::One(tlp) => Left::One(Some(tlp)),
            Slots::Many(all) => Left::Many(all.into_iter()),
        })
    }
}

/// The packets of a [`TlpList`], by value and in order.
pub struct IntoIter(Left);

enum Left {
    One(Option<Tlp>),
    Many(std::vec::IntoIter<Tlp>),
}

impl Iterator for IntoIter {
    type Item = Tlp;

    fn next(&mut self) -> Option<Tlp> {
        match &mut self.0 {
            Left::One(tlp) => tlp.take(),
            Left::Many(all) => all.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bdf;

    fn tlp(tag: u8) -> Tlp {
        Tlp::memory_read(Bdf::new(0, 0, 0), 0x1000, 4, tag)
    }

    fn tags(list: &TlpList) -> Vec<u8> {
        list.iter().map(|t| t.header().tag()).collect()
    }

    #[test]
    fn pushes_keep_order_across_the_spill() {
        let mut list = TlpList::new();
        assert!(list.is_empty());
        for tag in 0..5 {
            list.push(tlp(tag));
            assert_eq!(tags(&list), (0..=tag).collect::<Vec<_>>());
        }
        let by_value: Vec<u8> = list.into_iter().map(|t| t.header().tag()).collect();
        assert_eq!(by_value, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn append_and_join_keep_order_from_every_shape() {
        for held in 0..3u8 {
            for added in 0..3u8 {
                let mut list = TlpList::new();
                (0..held).for_each(|tag| list.push(tlp(tag)));
                let mut more: Vec<Tlp> = (held..held + added).map(tlp).collect();
                list.append(&mut more);
                assert!(more.is_empty());
                assert_eq!(tags(&list), (0..held + added).collect::<Vec<_>>());

                let mut list: TlpList = (0..held).map(tlp).collect::<Vec<_>>().into();
                list.join((held..held + added).map(tlp).collect::<Vec<_>>().into());
                assert_eq!(tags(&list), (0..held + added).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn for_each_and_flat_map_keep_order_from_every_shape() {
        for held in 0..4u8 {
            let list =
                |tags: std::ops::Range<u8>| -> TlpList { tags.map(tlp).collect::<Vec<_>>().into() };
            let mut seen = Vec::new();
            list(0..held).for_each(|t| seen.push(t.header().tag()));
            assert_eq!(seen, (0..held).collect::<Vec<_>>());
            // Each packet becomes itself and its tag + 100, or nothing
            // for odd tags.
            let mapped = list(0..held).flat_map(|t| {
                let tag = t.header().tag();
                let mut out = TlpList::new();
                if tag % 2 == 0 {
                    out.push(t);
                    out.push(tlp(tag + 100));
                }
                out
            });
            let want: Vec<u8> = (0..held)
                .filter(|t| t % 2 == 0)
                .flat_map(|t| [t, t + 100])
                .collect();
            assert_eq!(tags(&mapped), want);
        }
    }

    #[test]
    fn a_single_packet_stays_inline() {
        let list = TlpList::one(tlp(7));
        assert!(matches!(list.0, Slots::One(_)));
        let mut list = TlpList::new();
        list.push(tlp(7));
        assert!(matches!(list.0, Slots::One(_)));
        assert_eq!(list[0].header().tag(), 7);
        assert_eq!(TlpList::from(None).len(), 0);
    }
}
