//! Property-based tests over Content-Length framing decisions.
//!
//! The invariant under test is the list-agreement rule: a comma list in
//! one `Content-Length` field is the RFC recovery case only when the
//! member *bytes* agree. A strict profile must reject any spelling
//! disagreement (`10, 010`) even when every member parses to the same
//! number, and a value-lenient profile that accepts it anyway must leave
//! the disagreement observable as a repair note.

use proptest::prelude::*;

use hdiff_servers::profile::ClValuePolicy;
use hdiff_servers::{interpret, FramingChoice, Outcome, ParserProfile};

/// Builds a POST whose single Content-Length field carries `value` and
/// whose body holds exactly `n` bytes.
fn message(value: &str, n: usize) -> Vec<u8> {
    let mut msg =
        format!("POST / HTTP/1.1\r\nHost: h\r\nContent-Length: {value}\r\n\r\n").into_bytes();
    msg.extend(std::iter::repeat_n(b'x', n));
    msg
}

proptest! {
    /// Over generated member spellings (same number, varying zero
    /// padding, arbitrary OWS): strict accepts iff the member bytes are
    /// identical, and the lenient profile accepts every spelling but
    /// records a repair note exactly when the spellings differ.
    #[test]
    fn cl_list_agreement_is_byte_level_strict_and_noted_lenient(
        n in 0u64..48,
        zeros in proptest::collection::vec(0usize..3, 2..4),
        ows in proptest::collection::vec("[ \t]{0,2}", 8),
    ) {
        let members: Vec<String> =
            zeros.iter().map(|z| format!("{}{}", "0".repeat(*z), n)).collect();
        let value = members
            .iter()
            .enumerate()
            .map(|(i, m)| {
                format!("{}{}{}", ows[(2 * i) % ows.len()], m, ows[(2 * i + 1) % ows.len()])
            })
            .collect::<Vec<_>>()
            .join(",");
        let msg = message(&value, n as usize);
        let differ = members.windows(2).any(|w| w[0] != w[1]);

        let strict = interpret(&ParserProfile::strict("baseline"), &msg);
        if differ {
            prop_assert!(
                matches!(&strict.outcome, Outcome::Reject { reason, .. }
                    if reason.to_string().contains("differing content-length list values")),
                "{value:?} -> {:?}",
                strict.outcome
            );
        } else {
            prop_assert!(strict.outcome.is_accept(), "{value:?} -> {:?}", strict.outcome);
            prop_assert_eq!(strict.framing, FramingChoice::ContentLength(n));
        }

        let mut profile = ParserProfile::strict("value-lenient");
        profile.cl_value = ClValuePolicy::Lenient;
        let lenient = interpret(&profile, &msg);
        prop_assert!(lenient.outcome.is_accept(), "{value:?} -> {:?}", lenient.outcome);
        prop_assert_eq!(lenient.framing, FramingChoice::ContentLength(n));
        let noted = lenient.notes.iter().any(|note| note.to_string().contains("differ textually"));
        prop_assert_eq!(noted, differ, "{:?} notes {:?}", value, lenient.notes);
    }

    /// A non-numeric member poisons the whole list for the strict
    /// profile regardless of where it sits.
    #[test]
    fn strict_rejects_lists_with_a_nonnumeric_member(
        n in 0u64..30,
        junk in "[a-zA-Z+;_]{1,5}",
        junk_first in 0u8..2,
    ) {
        let value =
            if junk_first == 1 { format!("{junk}, {n}") } else { format!("{n}, {junk}") };
        let msg = message(&value, n as usize);
        let i = interpret(&ParserProfile::strict("baseline"), &msg);
        prop_assert!(
            matches!(&i.outcome, Outcome::Reject { reason, .. }
                if reason.to_string().contains("invalid content-length")),
            "{value:?} -> {:?}",
            i.outcome
        );
    }
}
