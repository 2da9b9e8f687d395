//! The process-wide name table behind [`Name`].
//!
//! Findings and SR violations name a handful of things over and over —
//! ten products, the h2 fronts, the cookie profiles, transport labels and
//! the SR ids — so each name is stored once, in an append-only table,
//! and a record carries a 2-byte handle into it. Handles are assigned in
//! first-use order, which differs between runs and thread schedules, so
//! they never leave the process: every persisted format writes the
//! string, and [`Name`]'s ordering compares strings, never handles.
//!
//! A name read from a checkpoint or bundle is added only while the
//! table holds fewer than [`FILE_NAME_LIMIT`] names, so a corrupt or
//! hand-made file cannot take the room the program's own names need.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::num::NonZeroU16;
use std::ops::Deref;
use std::sync::{LazyLock, RwLock, RwLockReadGuard};

/// A name interned in the process-wide table: equality compares
/// handles, ordering compares the strings, and it dereferences to the
/// string.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Name(NonZeroU16);

/// The table size up to which names read from files are added. The
/// program's own names number a few dozen, and the slots past this
/// limit stay free for them whatever files a process reads.
pub const FILE_NAME_LIMIT: usize = 1_024;

/// Interned names in handle order, plus the reverse index.
#[derive(Default)]
struct Table {
    names: Vec<&'static str>,
    index: HashMap<&'static str, Name>,
}

static TABLE: LazyLock<RwLock<Table>> = LazyLock::new(RwLock::default);

/// No code panics while it holds the table's lock: adding a name only
/// allocates (an allocation failure aborts) and reading only copies.
const POISONED: &str = "a thread panicked while holding the name table";

fn table() -> RwLockReadGuard<'static, Table> {
    TABLE.read().expect(POISONED)
}

impl Name {
    /// The handle of `name`, adding it to the table on first use.
    ///
    /// # Panics
    ///
    /// Panics when the table already holds 65,535 other names; names
    /// read from files are added only up to [`FILE_NAME_LIMIT`] instead.
    pub fn intern(name: &str) -> Name {
        Name::add(name, usize::from(u16::MAX)).expect("the name table holds at most 65,535 names")
    }

    /// [`Name::intern`] for a name read from a file, or `None` when the
    /// name is new and the table already holds [`FILE_NAME_LIMIT`] names.
    pub(crate) fn intern_from_file(name: &str) -> Option<Name> {
        Name::add(name, FILE_NAME_LIMIT)
    }

    /// The handle of `name`, adding it unless the table holds `limit`
    /// names already.
    fn add(name: &str, limit: usize) -> Option<Name> {
        if let Some(known) = Name::get(name) {
            return Some(known);
        }
        let mut table = TABLE.write().expect(POISONED);
        // Another thread may have added it since the read lock was let go.
        if let Some(&known) = table.index.get(name) {
            return Some(known);
        }
        if table.names.len() >= limit {
            return None;
        }
        let handle = Name(NonZeroU16::new(u16::try_from(table.names.len() + 1).ok()?)?);
        let name: &'static str = Box::leak(name.into());
        table.names.push(name);
        table.index.insert(name, handle);
        Some(handle)
    }

    /// The handle of `name` if it was ever interned; never adds it.
    pub fn get(name: &str) -> Option<Name> {
        table().index.get(name).copied()
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        table().names[usize::from(self.0.get()) - 1]
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        if self == other {
            Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl From<&str> for Name {
    fn from(name: &str) -> Name {
        Name::intern(name)
    }
}

impl From<&String> for Name {
    fn from(name: &String) -> Name {
        Name::intern(name)
    }
}

impl From<String> for Name {
    fn from(name: String) -> Name {
        Name::intern(&name)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_round_trips() {
        let a = Name::intern("names-test-a");
        assert_eq!(Name::intern("names-test-a"), a);
        assert_eq!(a.as_str(), "names-test-a");
        assert_eq!(&*a, "names-test-a");
        assert_eq!(Name::get("names-test-a"), Some(a));
        assert_eq!(Name::get("names-test-never-interned"), None);
    }

    #[test]
    fn ordering_follows_the_strings_not_the_handles() {
        let late = Name::intern("names-test-zz");
        let early = Name::intern("names-test-aa");
        assert!(early < late);
        assert_eq!(early.cmp(&early), Ordering::Equal);
    }

    #[test]
    fn another_thread_resolves_and_reuses_handles() {
        let here = Name::intern("names-test-shared");
        let there = std::thread::spawn(move || (here.as_str(), Name::intern("names-test-shared")))
            .join()
            .unwrap();
        assert_eq!(there, ("names-test-shared", here));
    }
}
