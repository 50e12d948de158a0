use std::error::Error;
use std::fmt;

/// Errors produced while processing routes into the RIBs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RibError {
    /// The update announced prefixes but lacked a mandatory attribute
    /// (RFC 4271 §6.3 "missing well-known attribute").
    MissingMandatoryAttribute {
        /// Name of the missing attribute.
        attribute: &'static str,
        /// Its attribute type code, the data octet of the NOTIFICATION
        /// the peer is owed.
        type_code: u8,
    },
    /// An operation referenced a peer the engine does not know.
    UnknownPeer(u32),
    /// A peer was registered twice.
    DuplicatePeer(u32),
}

impl fmt::Display for RibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RibError::MissingMandatoryAttribute { attribute, .. } => {
                write!(f, "update missing mandatory attribute {attribute}")
            }
            RibError::UnknownPeer(id) => write!(f, "unknown peer {id}"),
            RibError::DuplicatePeer(id) => write!(f, "peer {id} already registered"),
        }
    }
}

impl Error for RibError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_meaningful() {
        assert_eq!(
            RibError::MissingMandatoryAttribute {
                attribute: "AS_PATH",
                type_code: 2,
            }
            .to_string(),
            "update missing mandatory attribute AS_PATH"
        );
        assert_eq!(RibError::UnknownPeer(3).to_string(), "unknown peer 3");
    }
}
