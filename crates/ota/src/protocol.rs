//! The OTA MAC protocol (paper §3.4).
//!
//! "the AP sends a programming request as a LoRa packet with specific
//! device IDs indicating the nodes to be programmed along with the time
//! they should wake up to receive the update. Upon processing this
//! packet and detecting its ID, the tinySDR node switches into update
//! mode and sends a ready message to the AP at the scheduled time. Then,
//! the AP transmits the firmware update as a series of LoRa packets with
//! sequence numbers. Upon receiving each packet, the tinySDR node checks
//! the sequence number and CRC. For a correct packet it writes the data
//! to its flash memory and transmits an ACK […] In the case of failure
//! no ACK is sent and the AP re-transmits the corrupted packet after a
//! timeout. After sending all the firmware data, the AP sends a final
//! packet indicating the end of firmware update."

use tinysdr_lora::phy::crc16;

/// Data-packet payload size (paper: "packets of 60 B which we find
/// balances the trade-off of protocol overhead versus range").
pub const DATA_PAYLOAD: usize = 60;

/// Wire size of a full `Data` message: tag, LE u32 `seq`, chunk length
/// byte, a [`DATA_PAYLOAD`]-byte chunk and the CRC-16.
pub const DATA_WIRE_LEN: usize = 1 + 4 + 1 + DATA_PAYLOAD + 2;

/// Wire size of an `Ack` message: tag, LE u32 `seq` and the CRC-16.
pub const ACK_WIRE_LEN: usize = 1 + 4 + 2;

/// Device identifier in the testbed.
pub type DeviceId = u16;

/// OTA protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OtaMessage {
    /// AP → nodes: who should update and when to wake.
    ProgramRequest {
        /// Devices being programmed.
        device_ids: Vec<DeviceId>,
        /// Wake time, milliseconds from now.
        wake_in_ms: u32,
        /// Total number of data packets to expect.
        total_packets: u32,
    },
    /// Node → AP: ready to receive.
    Ready {
        /// Responding device.
        device_id: DeviceId,
    },
    /// AP → node: one chunk of the compressed update.
    Data {
        /// Sequence number.
        seq: u32,
        /// Chunk bytes (≤ `DATA_PAYLOAD`).
        chunk: Vec<u8>,
    },
    /// Node → AP: chunk received intact.
    Ack {
        /// Acknowledged sequence number.
        seq: u32,
    },
    /// AP → node: update complete; verify and reprogram.
    EndOfUpdate {
        /// CRC-32 of the full uncompressed image.
        image_crc32: u32,
    },
}

/// Wire type tags.
mod tag {
    pub const REQUEST: u8 = 0x01;
    pub const READY: u8 = 0x02;
    pub const DATA: u8 = 0x03;
    pub const ACK: u8 = 0x04;
    pub const END: u8 = 0x05;
}

/// Encoding/decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Unknown message tag.
    BadTag(u8),
    /// Message shorter than its header.
    Truncated,
    /// Embedded CRC-16 check failed.
    BadCrc,
    /// Data chunk too large.
    ChunkTooBig(usize),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadTag(t) => write!(f, "unknown OTA message tag {t:#04x}"),
            ProtoError::Truncated => write!(f, "OTA message truncated"),
            ProtoError::BadCrc => write!(f, "OTA message CRC mismatch"),
            ProtoError::ChunkTooBig(n) => write!(f, "chunk of {n} bytes exceeds 60 B"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl OtaMessage {
    /// Serialize: `tag | body | crc16(tag|body)`.
    ///
    /// # Errors
    /// Fails if a data chunk exceeds [`DATA_PAYLOAD`].
    pub fn to_bytes(&self) -> Result<Vec<u8>, ProtoError> {
        let mut buf = Vec::with_capacity(DATA_PAYLOAD + 10);
        match self {
            OtaMessage::ProgramRequest {
                device_ids,
                wake_in_ms,
                total_packets,
            } => {
                buf.push(tag::REQUEST);
                buf.push(device_ids.len() as u8);
                for id in device_ids {
                    buf.extend_from_slice(&id.to_le_bytes());
                }
                buf.extend_from_slice(&wake_in_ms.to_le_bytes());
                buf.extend_from_slice(&total_packets.to_le_bytes());
            }
            OtaMessage::Ready { device_id } => {
                buf.push(tag::READY);
                buf.extend_from_slice(&device_id.to_le_bytes());
            }
            OtaMessage::Data { seq, chunk } => {
                if chunk.len() > DATA_PAYLOAD {
                    return Err(ProtoError::ChunkTooBig(chunk.len()));
                }
                buf.push(tag::DATA);
                buf.extend_from_slice(&seq.to_le_bytes());
                buf.push(chunk.len() as u8);
                buf.extend_from_slice(chunk);
            }
            OtaMessage::Ack { seq } => {
                buf.push(tag::ACK);
                buf.extend_from_slice(&seq.to_le_bytes());
            }
            OtaMessage::EndOfUpdate { image_crc32 } => {
                buf.push(tag::END);
                buf.extend_from_slice(&image_crc32.to_le_bytes());
            }
        }
        let crc = crc16(&buf);
        buf.extend_from_slice(&crc.to_be_bytes());
        Ok(buf)
    }

    /// Parse and verify.
    ///
    /// # Errors
    /// Fails on truncation, CRC mismatch or unknown tag.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ProtoError> {
        if bytes.len() < 3 {
            return Err(ProtoError::Truncated);
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 2);
        let want = u16::from_be_bytes([crc_bytes[0], crc_bytes[1]]);
        if crc16(body) != want {
            return Err(ProtoError::BadCrc);
        }
        let mut it = body.iter().copied();
        let t = it.next().ok_or(ProtoError::Truncated)?;
        let rest: Vec<u8> = it.collect();
        let need = |n: usize| -> Result<(), ProtoError> {
            if rest.len() < n {
                Err(ProtoError::Truncated)
            } else {
                Ok(())
            }
        };
        match t {
            tag::REQUEST => {
                need(1)?;
                let n = rest[0] as usize;
                need(1 + n * 2 + 8)?;
                let mut ids = Vec::with_capacity(n);
                for k in 0..n {
                    ids.push(u16::from_le_bytes([rest[1 + 2 * k], rest[2 + 2 * k]]));
                }
                let o = 1 + 2 * n;
                Ok(OtaMessage::ProgramRequest {
                    device_ids: ids,
                    // lint: allow(unjustified-panic, slice is exactly four bytes by the need() length check)
                    wake_in_ms: u32::from_le_bytes(rest[o..o + 4].try_into().unwrap()),
                    // lint: allow(unjustified-panic, slice is exactly four bytes by the need() length check)
                    total_packets: u32::from_le_bytes(rest[o + 4..o + 8].try_into().unwrap()),
                })
            }
            tag::READY => {
                need(2)?;
                Ok(OtaMessage::Ready {
                    device_id: u16::from_le_bytes([rest[0], rest[1]]),
                })
            }
            tag::DATA => {
                need(5)?;
                // lint: allow(unjustified-panic, slice is exactly four bytes by the need() length check)
                let seq = u32::from_le_bytes(rest[..4].try_into().unwrap());
                let len = rest[4] as usize;
                need(5 + len)?;
                Ok(OtaMessage::Data {
                    seq,
                    chunk: rest[5..5 + len].to_vec(),
                })
            }
            tag::ACK => {
                need(4)?;
                Ok(OtaMessage::Ack {
                    // lint: allow(unjustified-panic, slice is exactly four bytes by the need() length check)
                    seq: u32::from_le_bytes(rest[..4].try_into().unwrap()),
                })
            }
            tag::END => {
                need(4)?;
                Ok(OtaMessage::EndOfUpdate {
                    // lint: allow(unjustified-panic, slice is exactly four bytes by the need() length check)
                    image_crc32: u32::from_le_bytes(rest[..4].try_into().unwrap()),
                })
            }
            other => Err(ProtoError::BadTag(other)),
        }
    }

    /// Wire size, bytes.
    pub fn wire_len(&self) -> usize {
        self.to_bytes().map(|b| b.len()).unwrap_or(0)
    }
}

/// Split a compressed update byte stream into `Data` messages.
pub fn packetize(stream: &[u8]) -> Vec<OtaMessage> {
    stream
        .chunks(DATA_PAYLOAD)
        .enumerate()
        .map(|(i, c)| OtaMessage::Data {
            seq: i as u32,
            chunk: c.to_vec(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_messages_round_trip() {
        let msgs = vec![
            OtaMessage::ProgramRequest {
                device_ids: vec![1, 5, 19],
                wake_in_ms: 30_000,
                total_packets: 1690,
            },
            OtaMessage::Ready { device_id: 5 },
            OtaMessage::Data {
                seq: 77,
                chunk: vec![0xAB; 60],
            },
            OtaMessage::Ack { seq: 77 },
            OtaMessage::EndOfUpdate {
                image_crc32: 0xDEAD_BEEF,
            },
        ];
        for m in msgs {
            let wire = m.to_bytes().unwrap();
            let back = OtaMessage::from_bytes(&wire).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn data_packet_fits_lora_payload() {
        // 60 B chunk + 5 B header + 2 B CRC = 67 B < the 255 B LoRa limit
        let m = OtaMessage::Data {
            seq: 0,
            chunk: vec![0; DATA_PAYLOAD],
        };
        assert_eq!(m.wire_len(), 68);
        assert!(m.wire_len() <= 255);
        assert_eq!(m.wire_len(), DATA_WIRE_LEN);
        assert_eq!(OtaMessage::Ack { seq: 7 }.wire_len(), ACK_WIRE_LEN);
    }

    #[test]
    fn oversized_chunk_rejected() {
        let m = OtaMessage::Data {
            seq: 0,
            chunk: vec![0; 61],
        };
        assert_eq!(m.to_bytes().unwrap_err(), ProtoError::ChunkTooBig(61));
    }

    #[test]
    fn crc_catches_corruption() {
        let m = OtaMessage::Ack { seq: 3 };
        let mut wire = m.to_bytes().unwrap();
        for i in 0..wire.len() {
            wire[i] ^= 0x40;
            assert!(OtaMessage::from_bytes(&wire).is_err(), "byte {i}");
            wire[i] ^= 0x40;
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut body = vec![0x7F, 1, 2, 3];
        let crc = crc16(&body);
        body.extend_from_slice(&crc.to_be_bytes());
        assert_eq!(
            OtaMessage::from_bytes(&body).unwrap_err(),
            ProtoError::BadTag(0x7F)
        );
    }

    #[test]
    fn packetize_covers_stream() {
        let stream: Vec<u8> = (0..150).map(|i| i as u8).collect();
        let pkts = packetize(&stream);
        assert_eq!(pkts.len(), 3);
        let mut rebuilt = Vec::new();
        for p in &pkts {
            if let OtaMessage::Data { chunk, .. } = p {
                rebuilt.extend_from_slice(chunk);
            }
        }
        assert_eq!(rebuilt, stream);
    }

    #[test]
    fn lora_fpga_update_is_about_1700_packets() {
        // 99 KB / 60 B ≈ 1690 packets — the number behind the 150 s
        // average programming time
        let n = (99 * 1024usize).div_ceil(DATA_PAYLOAD);
        assert!((1600..1800).contains(&n), "{n} packets");
    }
}
