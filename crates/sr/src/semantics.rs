//! SR semantic definitions — the second manual input of Fig. 3.
//!
//! These map the enumerable message-description vocabulary to *test-case
//! generation strategies* and the role-action vocabulary to *checkable
//! expectations*. The paper argues this manual mapping is worth the effort
//! because both vocabularies are small and closed.

use crate::model::{FieldState, RoleAction};

/// How the SR translator realizes a [`FieldState`] in a concrete request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GenStrategy {
    /// Emit a grammar-valid value from the ABNF generator.
    UseValid,
    /// Emit a mutated, grammar-invalid value.
    MutateInvalid,
    /// Emit the field twice (or a duplicated list value).
    Repeat,
    /// Omit the field entirely.
    Omit,
    /// Emit the field with an empty value.
    EmptyValue,
    /// Emit an oversized value.
    Oversize,
    /// Emit whitespace between name and colon.
    SpaceBeforeColon,
    /// Emit together with a conflicting companion field (CL with TE).
    AddConflict,
}

/// The observable behavior an action translates to, checked against the
/// implementation's `HMetrics`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectation {
    /// Status codes that satisfy the requirement (empty = any).
    pub allowed_status: Vec<u16>,
    /// The implementation must close the connection.
    pub must_close: bool,
    /// The implementation must not forward the message (intermediaries).
    pub must_not_forward: bool,
    /// The implementation must not store/reuse the response (caches).
    pub must_not_cache: bool,
    /// The implementation must not treat the message as having this
    /// field's semantics (e.g. must ignore Expect in HTTP/1.0).
    pub must_ignore_field: bool,
}

impl Expectation {
    fn none() -> Expectation {
        Expectation {
            allowed_status: Vec::new(),
            must_close: false,
            must_not_forward: false,
            must_not_cache: false,
            must_ignore_field: false,
        }
    }
}

/// The full semantic definition table.
#[derive(Debug, Clone, Default)]
pub struct SemanticDefinitions;

impl SemanticDefinitions {
    /// Creates the default (paper) definitions.
    pub fn new() -> SemanticDefinitions {
        SemanticDefinitions
    }

    /// The generation strategy for a field state.
    pub fn strategy(&self, state: FieldState) -> GenStrategy {
        match state {
            FieldState::Present | FieldState::Valid => GenStrategy::UseValid,
            FieldState::Absent => GenStrategy::Omit,
            FieldState::Invalid => GenStrategy::MutateInvalid,
            FieldState::Multiple => GenStrategy::Repeat,
            FieldState::Empty => GenStrategy::EmptyValue,
            FieldState::TooLong => GenStrategy::Oversize,
            FieldState::MalformedSpacing => GenStrategy::SpaceBeforeColon,
            FieldState::Conflicting => GenStrategy::AddConflict,
        }
    }

    /// The checkable expectation for a role action.
    pub fn expectation(&self, action: &RoleAction) -> Expectation {
        match action {
            RoleAction::Respond(code) => {
                Expectation { allowed_status: vec![*code], ..Expectation::none() }
            }
            RoleAction::Reject => {
                Expectation { allowed_status: (400..=431).collect(), ..Expectation::none() }
            }
            RoleAction::Accept => {
                Expectation { allowed_status: vec![200, 201, 204, 206], ..Expectation::none() }
            }
            RoleAction::Ignore => Expectation {
                must_ignore_field: true,
                allowed_status: vec![200, 201, 204, 206],
                ..Expectation::none()
            },
            RoleAction::CloseConnection => Expectation { must_close: true, ..Expectation::none() },
            RoleAction::Forward => Expectation::none(),
            RoleAction::NotForward => Expectation { must_not_forward: true, ..Expectation::none() },
            RoleAction::RemoveField(_) | RoleAction::ReplaceField(_) => Expectation::none(),
            RoleAction::NotCache => Expectation { must_not_cache: true, ..Expectation::none() },
            // A sender-side prohibition carries no recipient expectation;
            // the translator still generates the violating shape as a
            // differential seed.
            RoleAction::NotGenerate => Expectation::none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_field_state_has_a_strategy() {
        let defs = SemanticDefinitions::new();
        for state in FieldState::ALL {
            let _ = defs.strategy(state); // total function, must not panic
        }
        assert_eq!(defs.strategy(FieldState::Multiple), GenStrategy::Repeat);
        assert_eq!(defs.strategy(FieldState::MalformedSpacing), GenStrategy::SpaceBeforeColon);
    }

    #[test]
    fn respond_expectation_pins_status() {
        let defs = SemanticDefinitions::new();
        let e = defs.expectation(&RoleAction::Respond(400));
        assert_eq!(e.allowed_status, vec![400]);
        assert!(!e.must_close);
    }

    #[test]
    fn reject_expectation_allows_any_4xx() {
        let defs = SemanticDefinitions::new();
        let e = defs.expectation(&RoleAction::Reject);
        assert!(e.allowed_status.contains(&400));
        assert!(e.allowed_status.contains(&417));
        assert!(!e.allowed_status.contains(&200));
    }

    #[test]
    fn behavioral_expectations() {
        let defs = SemanticDefinitions::new();
        assert!(defs.expectation(&RoleAction::CloseConnection).must_close);
        assert!(defs.expectation(&RoleAction::NotForward).must_not_forward);
        assert!(defs.expectation(&RoleAction::NotCache).must_not_cache);
        assert!(defs.expectation(&RoleAction::Ignore).must_ignore_field);
    }
}
