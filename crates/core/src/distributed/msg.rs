//! The wire protocol shared by the dominating-set node programs.

use arbodom_congest::{get_u64, get_uvarint, put_u64, put_uvarint, Wire, WireError};

/// Messages of the primal-dual protocols.
///
/// Steady-state traffic is the single-byte events; the two `u64`-carrying
/// variants appear only in the two setup rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolMsg {
    /// Setup round 0: the sender's weight `w_v`.
    Weight(u64),
    /// Setup round 1: the sender's `τ_v = min_{u∈N⁺(v)} w_u`.
    Tau(u64),
    /// The sender joined the (partial) dominating set this iteration.
    Joined,
    /// The sender became dominated this iteration (and did not join).
    Dominated,
    /// The sender elects the receiver into the dominating set
    /// (completion / fallback step).
    Elect,
    /// The sender's degree (used by the tree program's single exchange).
    Degree(u64),
}

const TAG_WEIGHT: u8 = 0;
const TAG_TAU: u8 = 1;
const TAG_JOINED: u8 = 2;
const TAG_DOMINATED: u8 = 3;
const TAG_ELECT: u8 = 4;
const TAG_DEGREE: u8 = 5;

impl Wire for ProtocolMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ProtocolMsg::Weight(w) => {
                buf.push(TAG_WEIGHT);
                put_u64(buf, *w);
            }
            ProtocolMsg::Tau(t) => {
                buf.push(TAG_TAU);
                put_u64(buf, *t);
            }
            ProtocolMsg::Joined => buf.push(TAG_JOINED),
            ProtocolMsg::Dominated => buf.push(TAG_DOMINATED),
            ProtocolMsg::Elect => buf.push(TAG_ELECT),
            ProtocolMsg::Degree(d) => {
                buf.push(TAG_DEGREE);
                put_uvarint(buf, *d);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        if buf.is_empty() {
            return Err(WireError::Truncated);
        }
        let tag = buf[0];
        *buf = &buf[1..];
        match tag {
            TAG_WEIGHT => Ok(ProtocolMsg::Weight(get_u64(buf)?)),
            TAG_TAU => Ok(ProtocolMsg::Tau(get_u64(buf)?)),
            TAG_JOINED => Ok(ProtocolMsg::Joined),
            TAG_DOMINATED => Ok(ProtocolMsg::Dominated),
            TAG_ELECT => Ok(ProtocolMsg::Elect),
            TAG_DEGREE => Ok(ProtocolMsg::Degree(get_uvarint(buf)?)),
            _ => Err(WireError::Invalid("unknown protocol tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_variants() {
        for msg in [
            ProtocolMsg::Weight(0),
            ProtocolMsg::Weight(u64::MAX),
            ProtocolMsg::Tau(12345),
            ProtocolMsg::Joined,
            ProtocolMsg::Dominated,
            ProtocolMsg::Elect,
            ProtocolMsg::Degree(77),
        ] {
            let mut buf = Vec::new();
            msg.encode(&mut buf);
            let mut slice = &buf[..];
            assert_eq!(ProtocolMsg::decode(&mut slice).unwrap(), msg);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn events_are_one_byte() {
        assert_eq!(ProtocolMsg::Joined.encoded_bits(), 8);
        assert_eq!(ProtocolMsg::Dominated.encoded_bits(), 8);
        assert_eq!(ProtocolMsg::Elect.encoded_bits(), 8);
    }

    #[test]
    fn setup_messages_are_logarithmic() {
        // A weight bounded by n^c takes O(log n) bits as a varint.
        assert!(ProtocolMsg::Weight(1_000_000).encoded_bits() <= 8 + 8 * 10);
    }

    #[test]
    fn unknown_tag_rejected() {
        let bad: &[u8] = &[99];
        let mut slice = bad;
        assert!(ProtocolMsg::decode(&mut slice).is_err());
    }
}
