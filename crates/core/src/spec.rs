//! Backend selection specs: the string-addressable half of the backend
//! API.
//!
//! [`BackendKind`] names a *leaf* scheduler; a [`BackendSpec`] names a
//! *selection* — either one leaf (`ims`, `exact`, `sat`) or a portfolio
//! of several (`portfolio(ims,exact,sat)`), the production answer for
//! mixed traffic where no single backend dominates. Every CLI `--backend`
//! flag and the `scheduled` wire format parse a `BackendSpec` via
//! `FromStr`; `Display` renders the canonical spelling (lowercase names,
//! comma-separated, no spaces), which is what the service cache key
//! hashes so equivalent spellings share cache entries.
//!
//! Parsing accepts exactly the leaf names in [`BackendKind::ALL`], and
//! every one of them always has an implementation: `ims_sat::schedule_leaf`
//! runs a leaf, and the `scheduled` service races a portfolio's members.

use std::fmt;
use std::str::FromStr;

use crate::backend::BackendKind;

/// A parsed backend selection: one leaf backend or a portfolio of them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BackendSpec {
    /// A single backend: `ims`, `exact`, or `sat`.
    Leaf(BackendKind),
    /// `portfolio(a,b,...)` — run every member, keep the best schedule
    /// under a deterministic winner rule (lowest II, then member order).
    Portfolio(Vec<BackendKind>),
}

impl BackendSpec {
    /// The members this spec runs, in order (a leaf is a one-member
    /// slice).
    pub fn members(&self) -> &[BackendKind] {
        match self {
            BackendSpec::Leaf(kind) => std::slice::from_ref(kind),
            BackendSpec::Portfolio(members) => members,
        }
    }

    /// `Some(kind)` when the spec is a single leaf backend.
    pub fn as_leaf(&self) -> Option<BackendKind> {
        match self {
            BackendSpec::Leaf(kind) => Some(*kind),
            BackendSpec::Portfolio(_) => None,
        }
    }

    /// The canonical spelling (`Display` as a `String`): lowercase leaf
    /// names, `portfolio(a,b)` with no spaces. `parse(s).to_string()` is
    /// a fixed point, so cache keys built from it are spelling-invariant.
    pub fn canonical(&self) -> String {
        self.to_string()
    }
}

impl Default for BackendSpec {
    fn default() -> Self {
        BackendSpec::Leaf(BackendKind::Ims)
    }
}

impl From<BackendKind> for BackendSpec {
    fn from(kind: BackendKind) -> Self {
        BackendSpec::Leaf(kind)
    }
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendSpec::Leaf(kind) => f.write_str(kind.name()),
            BackendSpec::Portfolio(members) => {
                f.write_str("portfolio(")?;
                for (i, m) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    f.write_str(m.name())?;
                }
                f.write_str(")")
            }
        }
    }
}

/// Why a backend spec string did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseBackendError {
    /// A token that is neither a leaf backend name nor a well-formed
    /// `portfolio(...)` form.
    Unknown {
        /// The offending token, verbatim.
        token: String,
    },
    /// `portfolio()` with no members.
    EmptyPortfolio,
}

impl ParseBackendError {
    /// The comma-separated list of names a spec may use.
    fn known_names() -> String {
        let names: Vec<&str> = BackendKind::ALL.iter().map(|k| k.name()).collect();
        names.join(", ")
    }
}

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBackendError::Unknown { token } => write!(
                f,
                "unknown backend {token:?} (expected {}, or portfolio(a,b,...))",
                Self::known_names()
            ),
            ParseBackendError::EmptyPortfolio => write!(
                f,
                "portfolio() needs at least one member (members: {})",
                Self::known_names()
            ),
        }
    }
}

impl std::error::Error for ParseBackendError {}

impl FromStr for BackendSpec {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if let Some(inner) = s
            .strip_prefix("portfolio(")
            .and_then(|rest| rest.strip_suffix(')'))
        {
            if inner.trim().is_empty() {
                return Err(ParseBackendError::EmptyPortfolio);
            }
            let members = inner
                .split(',')
                .map(|tok| {
                    let tok = tok.trim();
                    BackendKind::from_name(tok).ok_or_else(|| ParseBackendError::Unknown {
                        token: tok.to_string(),
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(BackendSpec::Portfolio(members))
        } else {
            BackendKind::from_name(s)
                .map(BackendSpec::Leaf)
                .ok_or_else(|| ParseBackendError::Unknown {
                    token: s.to_string(),
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_specs_parse_and_round_trip() {
        for kind in BackendKind::ALL {
            let spec: BackendSpec = kind.name().parse().unwrap();
            assert_eq!(spec, BackendSpec::Leaf(kind));
            assert_eq!(spec.as_leaf(), Some(kind));
            assert_eq!(spec.members(), &[kind]);
            assert_eq!(spec.to_string(), kind.name());
        }
    }

    #[test]
    fn portfolio_specs_parse_canonicalize_and_round_trip() {
        let spec: BackendSpec = "portfolio(ims,exact,sat)".parse().unwrap();
        assert_eq!(
            spec,
            BackendSpec::Portfolio(vec![BackendKind::Ims, BackendKind::Exact, BackendKind::Sat])
        );
        assert_eq!(spec.as_leaf(), None);

        // Whitespace-tolerant in, canonical out; canonical is a fixed point.
        let sloppy: BackendSpec = "  portfolio( ims , exact )  ".parse().unwrap();
        assert_eq!(sloppy.to_string(), "portfolio(ims,exact)");
        let again: BackendSpec = sloppy.to_string().parse().unwrap();
        assert_eq!(again, sloppy);

        // A one-member portfolio is legal and distinct from the leaf.
        let one: BackendSpec = "portfolio(sat)".parse().unwrap();
        assert_eq!(one.members(), &[BackendKind::Sat]);
        assert_ne!(one, BackendSpec::Leaf(BackendKind::Sat));
    }

    #[test]
    fn malformed_specs_name_the_bad_token() {
        let err = "magic".parse::<BackendSpec>().unwrap_err();
        assert_eq!(
            err,
            ParseBackendError::Unknown {
                token: "magic".into()
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("\"magic\""), "{msg}");
        assert!(msg.contains("ims, exact, sat"), "{msg}");

        let err = "portfolio(ims,magic)".parse::<BackendSpec>().unwrap_err();
        assert_eq!(
            err,
            ParseBackendError::Unknown {
                token: "magic".into()
            }
        );

        assert_eq!(
            "portfolio()".parse::<BackendSpec>().unwrap_err(),
            ParseBackendError::EmptyPortfolio
        );

        // Unbalanced or nested forms degrade to Unknown on the whole token.
        assert!(matches!(
            "portfolio(ims".parse::<BackendSpec>(),
            Err(ParseBackendError::Unknown { .. })
        ));
        assert!(matches!(
            "portfolio(portfolio(ims))".parse::<BackendSpec>(),
            Err(ParseBackendError::Unknown { .. })
        ));
        assert!(matches!(
            "".parse::<BackendSpec>(),
            Err(ParseBackendError::Unknown { .. })
        ));
    }

    #[test]
    fn default_spec_is_the_iterative_scheduler() {
        assert_eq!(BackendSpec::default(), BackendSpec::Leaf(BackendKind::Ims));
        assert_eq!(BackendSpec::from(BackendKind::Sat).to_string(), "sat");
    }
}
